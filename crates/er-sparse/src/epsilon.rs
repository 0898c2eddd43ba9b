//! The range join (ε-Join, paper §IV-C): pair all entities whose token-set
//! similarity is at least a user-defined threshold ε.
//!
//! Built on ScanCount: index `E1`'s token sets, probe with every `E2`
//! entity and keep the hits whose similarity is `≥ ε`. All exact ε-join
//! algorithms produce the same candidate set; ScanCount is chosen because
//! ER-optimal thresholds are low (paper: mostly below 0.5), where
//! prefix-filter techniques lose their advantage. On the served
//! configuration (D10, T1G, Cosine, ε = 0.4) the minimum overlap is about
//! 2, so a prefix probe skips barely one of a row's ~11 known tokens and
//! still touches most of what ScanCount touches.
//!
//! What ScanCount cannot avoid is one test per touched row, so that test
//! is one integer compare. Before a row is probed,
//! `SimilarityMeasure::min_overlaps` turns the measure, `|q|` and ε into
//! a table of the least overlap that keeps a hit, per indexed set size
//! (`u32::MAX` outside the size window); the layer kernel then keeps hit
//! `(i, o)` iff `o >= need[|i|]` and `i` is live. The table is built with
//! the same `compute(..) >= ε` test the kernel used to run per hit, so
//! answers are bit-identical, and it costs `O(window + |q|)` similarity
//! evaluations per row instead of one per touched row.

use crate::artifact::TokenSetsArtifact;
use crate::representation::RepresentationModel;
use crate::scancount::{RowMask, ScanCountScratch};
use crate::similarity::SimilarityMeasure;
use er_core::filter::{Filter, FilterOutput, Prepared};
use er_core::schema::TextView;

/// A configured ε-Join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpsilonJoin {
    /// Apply stop-word removal + stemming first (`CL`).
    pub cleaning: bool,
    /// Representation model (`RM`).
    pub model: RepresentationModel,
    /// Similarity measure (`SM`).
    pub measure: SimilarityMeasure,
    /// Similarity threshold ε (`t` in Table IV), in `[0, 1]`.
    pub threshold: f64,
}

impl EpsilonJoin {
    /// One-line configuration description for Table IX-style reports.
    pub fn describe(&self) -> String {
        format!(
            "CL={} RM={} SM={} t={:.2}",
            if self.cleaning { "y" } else { "-" },
            self.model.name(),
            self.measure.name(),
            self.threshold
        )
    }

    /// Builds the decision table [`Self::filter_layer`] reads for a query
    /// row of cardinality `qlen`, over layers whose largest indexed set
    /// has `max_len` tokens: once per row, whatever the number of layers
    /// (see `SimilarityMeasure::min_overlaps` for why one integer compare
    /// per hit decides exactly what the size window and the similarity
    /// test decided).
    pub(crate) fn prepare_row(&self, qlen: usize, max_len: usize, scratch: &mut ScanCountScratch) {
        self.measure
            .min_overlaps(qlen, self.threshold, max_len, &mut scratch.min_overlap);
    }

    /// The ε layer kernel, the one loop every ε path runs over a ScanCount
    /// layer (`art`'s index probed with its query row `j`): per hit one
    /// compare of its overlap against the row's table, built by
    /// [`Self::prepare_row`] for row `j` and a `max_len` of at least this
    /// layer's largest set, then the layer's `dead` rows. `keep` gets
    /// every row that passes, in first-touch order.
    pub(crate) fn filter_layer(
        &self,
        art: &TokenSetsArtifact,
        dead: &RowMask,
        j: usize,
        scratch: &mut ScanCountScratch,
        hits: &mut Vec<(u32, u32)>,
        mut keep: impl FnMut(u32),
    ) {
        debug_assert!(scratch.min_overlap.len() > art.index.max_set_size());
        art.index.query_row_with(scratch, &art.query_sets, j, hits);
        let need = &scratch.min_overlap;
        for &(i, overlap) in hits.iter() {
            if overlap >= need[art.index.set_size(i)] && !dead.contains(i) {
                keep(i);
            }
        }
    }

    /// Candidates of one query row, appended to `out` in ascending index
    /// order — exactly what the batch [`Filter::query`] loop records for
    /// row `j` (which calls this), and the layer kernel the segment stack
    /// runs, so an online lookup is byte-identical to the offline sweep
    /// by construction. The hits arrive in first-touch order
    /// ([`crate::scancount`]); only the ids that pass are sorted.
    pub fn query_row_into(
        &self,
        art: &TokenSetsArtifact,
        j: usize,
        scratch: &mut ScanCountScratch,
        hits: &mut Vec<(u32, u32)>,
        out: &mut Vec<u32>,
    ) {
        let appended = out.len();
        let qlen = art.query_sets.set_size(j);
        self.prepare_row(qlen, art.index.max_set_size(), scratch);
        self.filter_layer(art, &RowMask::default(), j, scratch, hits, |i| out.push(i));
        out[appended..].sort_unstable();
    }
}

impl Filter for EpsilonJoin {
    fn name(&self) -> String {
        "e-Join".to_owned()
    }

    fn repr_key(&self) -> String {
        TokenSetsArtifact::repr_key(self.cleaning, self.model, false)
    }

    fn prepare(&self, view: &TextView) -> Prepared {
        TokenSetsArtifact::prepare(view, self.cleaning, self.model, false)
    }

    fn query(&self, _view: &TextView, prepared: &Prepared) -> FilterOutput {
        let art = prepared.downcast::<TokenSetsArtifact>();
        let mut out = FilterOutput::default();
        out.breakdown.time("query", || {
            let mut scratch = ScanCountScratch::default();
            let mut hits: Vec<(u32, u32)> = Vec::new();
            let mut row: Vec<u32> = Vec::new();
            for j in 0..art.query_sets.len() {
                row.clear();
                self.query_row_into(art, j, &mut scratch, &mut hits, &mut row);
                for &i in &row {
                    out.candidates.insert_raw(i, j as u32);
                }
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::candidates::Pair;

    fn join(threshold: f64) -> EpsilonJoin {
        EpsilonJoin {
            cleaning: false,
            model: RepresentationModel::parse("T1G").expect("model"),
            measure: SimilarityMeasure::Jaccard,
            threshold,
        }
    }

    fn view() -> TextView {
        TextView {
            e1: vec!["apple iphone black".into(), "samsung galaxy".into()].into(),
            e2: vec![
                "apple iphone black case".into(), // J = 3/4 with e1[0]
                "galaxy phone".into(),            // J = 1/3 with e1[1]
                "nokia".into(),
            ]
            .into(),
        }
    }

    #[test]
    fn threshold_selects_pairs() {
        let out = join(0.5).run(&view());
        assert_eq!(out.candidates.len(), 1);
        assert!(out.candidates.contains(Pair::new(0, 0)));

        let out = join(0.3).run(&view());
        assert_eq!(out.candidates.len(), 2);
        assert!(out.candidates.contains(Pair::new(1, 1)));
    }

    #[test]
    fn threshold_zero_keeps_all_overlapping() {
        let out = join(0.0).run(&view());
        // Only token-sharing pairs appear (ScanCount never sees disjoint
        // pairs), so "nokia" stays unmatched even at ε = 0.
        assert_eq!(out.candidates.len(), 2);
    }

    #[test]
    fn candidates_shrink_monotonically_with_threshold() {
        let mut prev = usize::MAX;
        for t in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let n = join(t).run(&view()).candidates.len();
            assert!(n <= prev, "t={t}");
            prev = n;
        }
    }

    #[test]
    fn phases_are_recorded() {
        let out = join(0.5).run(&view());
        for phase in ["preprocess", "index", "query"] {
            assert!(out.breakdown.get(phase).is_some(), "{phase} missing");
        }
    }

    #[test]
    fn shared_artifact_matches_cold_runs() {
        // One prepare, many thresholds: every query must equal its
        // monolithic counterpart.
        let v = view();
        let prepared = join(0.0).prepare(&v);
        for t in [0.0, 0.3, 0.5, 1.0] {
            let cold = join(t).run(&v);
            let warm = join(t).query(&v, &prepared);
            assert_eq!(
                warm.candidates.to_sorted_vec(),
                cold.candidates.to_sorted_vec(),
                "t={t}"
            );
        }
    }

    #[test]
    fn exact_duplicates_survive_threshold_one() {
        let v = TextView {
            e1: vec!["exact match text".into()].into(),
            e2: vec!["exact match text".into(), "different".into()].into(),
        };
        let out = join(1.0).run(&v);
        assert_eq!(out.candidates.len(), 1);
        assert!(out.candidates.contains(Pair::new(0, 0)));
    }
}
