//! Exact order statistics over raw samples (no bucketing), the
//! sample-count rule for tail percentiles, and the seeded generator the
//! workloads draw rows and operations from.

/// Samples a p99 needs before it is reported: ten beyond it.
pub const MIN_P99_SAMPLES: usize = 1_000;
/// Samples a p95 needs: ten beyond it.
pub const MIN_P95_SAMPLES: usize = 200;

/// Raw latency samples in microseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    us: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, us: u64) {
        self.us.push(us);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.us.extend_from_slice(&other.us);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.us.len()
    }

    pub fn is_empty(&self) -> bool {
        self.us.is_empty()
    }

    /// The nearest-rank quantile: the smallest sample with at least
    /// `q × n` samples at or below it. `None` on an empty set.
    pub fn quantile(&mut self, q: f64) -> Option<u64> {
        if self.us.is_empty() {
            return None;
        }
        if !self.sorted {
            self.us.sort_unstable();
            self.sorted = true;
        }
        let n = self.us.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.us[rank - 1])
    }

    /// A tail quantile, refused (with the reason) below `min_samples`:
    /// a percentile with fewer than ten samples beyond it is noise.
    pub fn tail(&mut self, q: f64, min_samples: usize) -> Result<u64, String> {
        if self.us.len() < min_samples {
            return Err(format!(
                "p{} needs >= {min_samples} samples, got {}",
                (q * 100.0).round(),
                self.us.len()
            ));
        }
        Ok(self.quantile(q).expect("non-empty"))
    }
}

/// The median of a few floats (pass walls, set-up repeats); the mean of
/// the middle two for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The smallest of a few floats: a compute-bound step's best repeat,
/// the one the box disturbed least.
pub fn min(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "min of nothing");
    values.iter().copied().fold(f64::MAX, f64::min)
}

/// The largest of a few floats: the slowest of a workload's steps.
pub fn max(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "max of nothing");
    values.iter().copied().fold(f64::MIN, f64::max)
}

/// SplitMix64: the workloads' only source of randomness, so equal
/// `--seed` means equal rows, texts and operation order.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for a named sub-stream of `seed` (one per connection
    /// or phase), so adding a stream never shifts another.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n` must be non-zero).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = u64>) -> Samples {
        let mut s = Samples::default();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        // 1..=1000 shuffled by a stride coprime to 1000.
        let mut s = samples((0..1000u64).map(|i| (i * 377) % 1000 + 1));
        assert_eq!(s.quantile(0.5), Some(500));
        assert_eq!(s.quantile(0.99), Some(990));
        assert_eq!(s.quantile(1.0), Some(1000));
        assert_eq!(s.quantile(0.0), Some(1));
        // Ten samples lie beyond the p99 — the reason for the 1,000 rule.
        assert_eq!((991..=1000).count(), 10);

        let mut one = samples([42]);
        assert_eq!(one.quantile(0.5), Some(42));
        assert_eq!(one.quantile(0.99), Some(42));
        assert_eq!(Samples::default().quantile(0.5), None);
    }

    #[test]
    fn tail_is_refused_below_the_sample_floor() {
        let mut few = samples(0..999);
        let err = few.tail(0.99, MIN_P99_SAMPLES).expect_err("999 < 1000");
        assert!(err.contains("999"), "{err}");
        let mut enough = samples(0..1000);
        assert_eq!(enough.tail(0.99, MIN_P99_SAMPLES), Ok(989));
        let mut p95 = samples(0..200);
        assert_eq!(p95.tail(0.95, MIN_P95_SAMPLES), Ok(189));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn rng_is_reproducible_and_streams_differ() {
        let a: Vec<usize> = {
            let mut r = Rng::stream(11, 0);
            (0..64).map(|_| r.below(23_182)).collect()
        };
        let b: Vec<usize> = {
            let mut r = Rng::stream(11, 0);
            (0..64).map(|_| r.below(23_182)).collect()
        };
        let c: Vec<usize> = {
            let mut r = Rng::stream(11, 1);
            (0..64).map(|_| r.below(23_182)).collect()
        };
        let d: Vec<usize> = {
            let mut r = Rng::stream(12, 0);
            (0..64).map(|_| r.below(23_182)).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert!(a.iter().all(|&x| x < 23_182));
    }
}
