//! Set-overlap similarity measures (paper §IV-C), all normalized to
//! `[0, 1]`:
//!
//! * Cosine  `C(A,B) = |A∩B| / √(|A|·|B|)`
//! * Dice    `D(A,B) = 2·|A∩B| / (|A| + |B|)`
//! * Jaccard `J(A,B) = |A∩B| / |A∪B|`

/// A set-similarity measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimilarityMeasure {
    /// Cosine similarity.
    Cosine,
    /// Dice similarity.
    Dice,
    /// Jaccard coefficient.
    Jaccard,
}

impl SimilarityMeasure {
    /// The three measures in the paper's order.
    pub const ALL: [SimilarityMeasure; 3] = [
        SimilarityMeasure::Cosine,
        SimilarityMeasure::Dice,
        SimilarityMeasure::Jaccard,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SimilarityMeasure::Cosine => "Cosine",
            SimilarityMeasure::Dice => "Dice",
            SimilarityMeasure::Jaccard => "Jaccard",
        }
    }

    /// Computes the similarity from the overlap `|A∩B|` and set sizes.
    ///
    /// Empty sets have similarity 0 by convention.
    #[inline]
    pub fn compute(&self, overlap: usize, len_a: usize, len_b: usize) -> f64 {
        if len_a == 0 || len_b == 0 {
            return 0.0;
        }
        let o = overlap as f64;
        match self {
            SimilarityMeasure::Cosine => o / ((len_a as f64) * (len_b as f64)).sqrt(),
            SimilarityMeasure::Dice => 2.0 * o / (len_a + len_b) as f64,
            SimilarityMeasure::Jaccard => o / (len_a + len_b - overlap) as f64,
        }
    }

    /// The exact length filter: the inclusive range of candidate-set
    /// cardinalities `|A|` that can still reach `threshold` against a set
    /// of cardinality `len_b`.
    ///
    /// Because overlap is bounded by `min(|A|, |B|)`, each measure's
    /// maximum over the sizes is a closed form of the size ratio, giving
    /// (for `t = threshold`, `b = len_b`):
    ///
    /// * Jaccard: `a ∈ [t·b, b/t]`
    /// * Cosine:  `a ∈ [t²·b, b/t²]`
    /// * Dice:    `a ∈ [t·b/(2−t), b·(2−t)/t]`
    ///
    /// The bounds are widened by a relative `1e-9` slack before rounding
    /// to integers, so floating-point error can only *keep* a borderline
    /// candidate (which the exact similarity check then decides) — never
    /// drop one. Skipping sizes outside the range is therefore
    /// candidate-set-exact. Thresholds `≤ 0` disable the filter.
    #[inline]
    pub fn size_bounds(&self, len_b: usize, threshold: f64) -> (usize, usize) {
        if threshold <= 0.0 || len_b == 0 {
            return (0, usize::MAX);
        }
        let t = threshold.min(1.0);
        let b = len_b as f64;
        let (lo, hi) = match self {
            SimilarityMeasure::Cosine => (t * t * b, b / (t * t)),
            SimilarityMeasure::Dice => (t * b / (2.0 - t), b * (2.0 - t) / t),
            SimilarityMeasure::Jaccard => (t * b, b / t),
        };
        let lo = (lo * (1.0 - 1e-9)).ceil().max(0.0) as usize;
        let hi_f = (hi * (1.0 + 1e-9)).floor();
        let hi = if hi_f >= usize::MAX as f64 {
            usize::MAX
        } else {
            hi_f as usize
        };
        (lo, hi)
    }

    /// The ε-Join decision table for a query set of cardinality `len_b`:
    /// after the call, `need[a]` for every candidate cardinality
    /// `a ≤ max_len` is the least overlap `o ≤ min(a, len_b)` such that
    /// `a` lies in [`Self::size_bounds`] and
    /// `self.compute(o, a, len_b) >= threshold` — or `u32::MAX` where no
    /// overlap qualifies. A hit of overlap `o` against a set of
    /// cardinality `a` then passes exactly when `o >= need[a]`.
    ///
    /// For all three measures `compute` is non-decreasing in the overlap
    /// and, at a fixed overlap, non-increasing in `a` — in `f64` too,
    /// since every formula divides an exact integer by an exact integer
    /// (or the `sqrt` of one) and correct rounding is monotone. So the
    /// least qualifying overlap never shrinks as `a` grows, and one
    /// pointer walks both ranges: `O(window + len_b)` calls of `compute`.
    /// Every entry is decided by the same `>= threshold` test the
    /// per-hit check used, never by `<`, so a NaN threshold, which fails
    /// every `>=`, fills the table with `u32::MAX`.
    pub(crate) fn min_overlaps(
        &self,
        len_b: usize,
        threshold: f64,
        max_len: usize,
        need: &mut Vec<u32>,
    ) {
        need.clear();
        need.resize(max_len + 1, u32::MAX);
        let (lo, hi) = self.size_bounds(len_b, threshold);
        let window = need.get_mut(lo..=hi.min(max_len)).unwrap_or_default();
        let mut o = 0;
        for (a, slot) in (lo..).zip(window) {
            let passes = |o| self.compute(o, a, len_b) >= threshold;
            let most = a.min(len_b);
            while o <= most && !passes(o) {
                o += 1;
            }
            if o <= most {
                *slot = o as u32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sets_score_one() {
        for m in SimilarityMeasure::ALL {
            assert!((m.compute(4, 4, 4) - 1.0).abs() < 1e-12, "{}", m.name());
        }
    }

    #[test]
    fn disjoint_sets_score_zero() {
        for m in SimilarityMeasure::ALL {
            assert_eq!(m.compute(0, 3, 5), 0.0);
        }
    }

    #[test]
    fn empty_sets_score_zero() {
        for m in SimilarityMeasure::ALL {
            assert_eq!(m.compute(0, 0, 0), 0.0);
            assert_eq!(m.compute(0, 0, 5), 0.0);
        }
    }

    #[test]
    fn reference_values() {
        // A = {a,b,c}, B = {b,c,d,e}: overlap 2.
        assert!((SimilarityMeasure::Cosine.compute(2, 3, 4) - 2.0 / 12f64.sqrt()).abs() < 1e-12);
        assert!((SimilarityMeasure::Dice.compute(2, 3, 4) - 4.0 / 7.0).abs() < 1e-12);
        assert!((SimilarityMeasure::Jaccard.compute(2, 3, 4) - 2.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn measures_bounded_and_monotone_in_overlap() {
        for m in SimilarityMeasure::ALL {
            let mut prev = -1.0;
            for overlap in 0..=5 {
                let s = m.compute(overlap, 5, 7);
                assert!((0.0..=1.0).contains(&s), "{} out of range", m.name());
                assert!(s >= prev, "{} not monotone", m.name());
                prev = s;
            }
        }
    }

    #[test]
    fn size_bounds_are_sound_and_tight() {
        // Soundness: any (a, b, overlap) reaching the threshold must have
        // `a` inside the bounds.
        for m in SimilarityMeasure::ALL {
            for b in 1usize..=12 {
                for t10 in 1..=10u32 {
                    let t = f64::from(t10) / 10.0;
                    let (lo, hi) = m.size_bounds(b, t);
                    for a in 1usize..=24 {
                        let best = m.compute(a.min(b), a, b);
                        if best >= t {
                            assert!(
                                (lo..=hi).contains(&a),
                                "{} t={t} b={b} a={a} best={best} not in [{lo},{hi}]",
                                m.name()
                            );
                        }
                    }
                }
            }
        }
        // Tightness at t = 1: only equal sizes survive.
        for m in SimilarityMeasure::ALL {
            assert_eq!(m.size_bounds(5, 1.0), (5, 5), "{}", m.name());
        }
        // Thresholds <= 0 disable the filter.
        assert_eq!(
            SimilarityMeasure::Jaccard.size_bounds(5, 0.0),
            (0, usize::MAX)
        );
        assert_eq!(
            SimilarityMeasure::Cosine.size_bounds(0, 0.5),
            (0, usize::MAX)
        );
    }

    #[test]
    fn min_overlap_table_is_the_per_hit_predicate() {
        // Every threshold shape the kernel can be handed, including the
        // ones `size_bounds` special-cases (≤ 0, > 1) and those every
        // `>=` fails (NaN, +∞).
        let mut thresholds = vec![-0.5, 0.0, 1e-9, 1.0, 1.5, f64::NAN, f64::INFINITY];
        thresholds.extend((1..100).map(|k| f64::from(k) / 100.0));
        let mut need = Vec::new();
        for m in SimilarityMeasure::ALL {
            for &t in &thresholds {
                for len_b in 0usize..=64 {
                    m.min_overlaps(len_b, t, 128, &mut need);
                    assert_eq!(need.len(), 129);
                    let (lo, hi) = m.size_bounds(len_b, t);
                    for (a, &need_a) in need.iter().enumerate().skip(1) {
                        for o in 0..=a.min(len_b) {
                            // The per-hit test the table replaces.
                            let kept = (lo..=hi).contains(&a) && m.compute(o, a, len_b) >= t;
                            assert_eq!(
                                o as u32 >= need_a,
                                kept,
                                "{} t={t} |q|={len_b} a={a} o={o} need={need_a}",
                                m.name(),
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn jaccard_lower_than_dice_lower_than_cosine_on_partial_overlap() {
        // Standard ordering for |A| = |B| and partial overlap.
        let (o, a, b) = (2, 4, 4);
        let j = SimilarityMeasure::Jaccard.compute(o, a, b);
        let d = SimilarityMeasure::Dice.compute(o, a, b);
        let c = SimilarityMeasure::Cosine.compute(o, a, b);
        assert!(j < d);
        assert!(d <= c);
    }
}
