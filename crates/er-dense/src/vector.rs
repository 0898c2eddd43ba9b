//! Dense-vector kernels and the contiguous row-major vector storage
//! shared by every dense NN method.
//!
//! [`dot`] and [`l2_sq`] are thin dispatchers: with the `simd` feature
//! they route to the explicit AVX2/NEON kernels in `crate::simd` when
//! the host supports them, otherwise (and always without the feature)
//! they run [`dot_blocked`]/[`l2_sq_blocked`] — safe kernels written for
//! autovectorization: the hot loop runs over `LANES`-wide chunks with one
//! independent accumulator per lane (`chunks_exact` proves the bounds,
//! the unrolled accumulators break the sequential-add dependency chain),
//! followed by a fixed-shape lane reduction and a scalar remainder. Every
//! dispatched variant reproduces the blocked kernels' exact operation
//! sequence, so results are **bitwise identical across dispatch targets**
//! (asserted via `to_bits` in `crate::simd` and in this module's tests) — a
//! candidate set can never depend on the host CPU.
//!
//! The summation order is a pure function of the input length, so results
//! are deterministic — but they differ in the last ulp from a strict
//! left-to-right scalar sum, which is why [`dot_scalar`]/[`l2_sq_scalar`]
//! are retained as references for tests and benchmarks.

/// Accumulator width of the blocked kernels.
const LANES: usize = 8;

/// Fixed-shape reduction of the lane accumulators; part of the kernels'
/// deterministic summation order.
#[inline]
fn lane_sum(acc: [f32; LANES]) -> f32 {
    let a0 = acc[0] + acc[4];
    let a1 = acc[1] + acc[5];
    let a2 = acc[2] + acc[6];
    let a3 = acc[3] + acc[7];
    (a0 + a2) + (a1 + a3)
}

/// Dot product — dispatches to the widest kernel the host supports; the
/// result is bit-identical to [`dot_blocked`] on every target.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    {
        // SAFETY: NEON is baseline on aarch64.
        unsafe { crate::simd::dot_neon(a, b) }
    }
    #[cfg(not(all(feature = "simd", target_arch = "aarch64")))]
    {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if crate::simd::avx2() {
            // SAFETY: AVX2 support was just probed.
            return unsafe { crate::simd::dot_avx2(a, b) };
        }
        dot_blocked(a, b)
    }
}

/// Squared Euclidean distance (the `L2²` similarity of SCANN/FAISS — no
/// square root, since ranking is monotone in it). Dispatches like
/// [`dot`]; bit-identical to [`l2_sq_blocked`] on every target.
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    {
        // SAFETY: NEON is baseline on aarch64.
        unsafe { crate::simd::l2_sq_neon(a, b) }
    }
    #[cfg(not(all(feature = "simd", target_arch = "aarch64")))]
    {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if crate::simd::avx2() {
            // SAFETY: AVX2 support was just probed.
            return unsafe { crate::simd::l2_sq_avx2(a, b) };
        }
        l2_sq_blocked(a, b)
    }
}

/// Dot product (blocked safe kernel) — the always-compiled reference the
/// SIMD variants are `to_bits`-tested against.
#[inline]
pub fn dot_blocked(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (x, y) in (&mut ca).zip(&mut cb) {
        for ((l, &xv), &yv) in acc.iter_mut().zip(x).zip(y) {
            *l += xv * yv;
        }
    }
    let mut sum = lane_sum(acc);
    for (&xv, &yv) in ca.remainder().iter().zip(cb.remainder()) {
        sum += xv * yv;
    }
    sum
}

/// Squared Euclidean distance (blocked safe kernel) — the always-compiled
/// reference the SIMD variants are `to_bits`-tested against.
#[inline]
pub fn l2_sq_blocked(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (x, y) in (&mut ca).zip(&mut cb) {
        for ((l, &xv), &yv) in acc.iter_mut().zip(x).zip(y) {
            let d = xv - yv;
            *l += d * d;
        }
    }
    let mut sum = lane_sum(acc);
    for (&xv, &yv) in ca.remainder().iter().zip(cb.remainder()) {
        let d = xv - yv;
        sum += d * d;
    }
    sum
}

/// Strict left-to-right scalar dot product — the pre-blocking reference
/// implementation, kept for accuracy tests and kernel benchmarks.
#[inline]
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Strict left-to-right scalar squared Euclidean distance — the
/// pre-blocking reference, kept for accuracy tests and kernel benchmarks.
#[inline]
pub fn l2_sq_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Cosine similarity; 0 for zero vectors.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = dot(a, a).sqrt();
    let nb = dot(b, b).sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

/// Normalizes `v` to unit L2 norm in place; zero vectors stay zero.
#[inline]
pub fn normalize(v: &mut [f32]) {
    let norm = dot(v, v).sqrt();
    if norm > 0.0 {
        for x in v {
            *x /= norm;
        }
    }
}

/// Contiguous row-major storage for equal-dimension vectors.
///
/// Replaces `Vec<Vec<f32>>` in the index hot paths: one allocation, cache-
/// line-friendly sequential scans, and an exact heap-byte count for the
/// artifact cache (`Vec<Vec<f32>>` costs one allocation header per row
/// that the old estimates ignored).
#[derive(Debug, Clone, Default)]
pub struct FlatVectors {
    data: Vec<f32>,
    dim: usize,
    rows: usize,
}

impl FlatVectors {
    /// Empty storage accepting rows of dimension `dim`.
    pub fn with_dim(dim: usize) -> Self {
        Self {
            data: Vec::new(),
            dim,
            rows: 0,
        }
    }

    /// Packs owned rows; all rows must share one dimension.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let dim = rows.first().map_or(0, Vec::len);
        let mut out = Self::with_dim(dim);
        out.data.reserve(dim * rows.len());
        for row in rows {
            out.push_row(row);
        }
        out
    }

    /// Appends one row.
    pub fn push_row(&mut self, row: &[f32]) {
        if self.rows == 0 && self.dim == 0 {
            self.dim = row.len();
        }
        assert_eq!(row.len(), self.dim, "row dimension mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..i * self.dim + self.dim]
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no rows are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Exact heap footprint of the stored elements.
    pub fn heap_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// The contiguous row-major element storage, for serialization.
    pub(crate) fn raw_data(&self) -> &[f32] {
        &self.data
    }

    /// Rebuilds storage from its raw parts; `data.len()` must equal
    /// `dim * rows` (the store codec validates before calling).
    pub(crate) fn from_raw(data: Vec<f32>, dim: usize, rows: usize) -> Self {
        debug_assert_eq!(data.len(), dim * rows);
        Self { data, dim, rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_l2() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(l2_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(l2_sq(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn cosine_bounds() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((dot(&v, &v) - 1.0).abs() < 1e-6);
        let mut zero = vec![0.0, 0.0];
        normalize(&mut zero);
        assert_eq!(zero, vec![0.0, 0.0]);
    }

    #[test]
    fn unit_vectors_relate_l2_to_cosine() {
        // For unit vectors: ||a-b||² = 2 - 2·cos(a,b).
        let mut a = vec![0.6, 0.8, 0.0];
        let mut b = vec![0.0, 0.6, 0.8];
        normalize(&mut a);
        normalize(&mut b);
        let lhs = l2_sq(&a, &b);
        let rhs = 2.0 - 2.0 * cosine(&a, &b);
        assert!((lhs - rhs).abs() < 1e-6);
    }

    fn pseudo_random(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / 8388608.0) - 1.0
            })
            .collect()
    }

    #[test]
    fn blocked_kernels_match_scalar_reference() {
        // Different summation order, same value up to accumulated rounding.
        for len in [0usize, 1, 7, 8, 9, 15, 16, 31, 64, 129] {
            let a = pseudo_random(len, 3);
            let b = pseudo_random(len, 5);
            let tol = 1e-4 * (len.max(1) as f32);
            assert!(
                (dot_blocked(&a, &b) - dot_scalar(&a, &b)).abs() <= tol,
                "dot len={len}"
            );
            assert!(
                (l2_sq_blocked(&a, &b) - l2_sq_scalar(&a, &b)).abs() <= tol,
                "l2 len={len}"
            );
        }
    }

    #[test]
    fn dispatched_kernels_bitwise_match_blocked_reference() {
        // Whatever `dot`/`l2_sq` dispatch to must equal the blocked
        // reference to the bit — the cross-CPU determinism contract.
        for len in [0usize, 1, 7, 8, 9, 15, 16, 31, 64, 129, 300] {
            let a = pseudo_random(len, 7);
            let b = pseudo_random(len, 9);
            assert_eq!(
                dot(&a, &b).to_bits(),
                dot_blocked(&a, &b).to_bits(),
                "dot len={len}"
            );
            assert_eq!(
                l2_sq(&a, &b).to_bits(),
                l2_sq_blocked(&a, &b).to_bits(),
                "l2 len={len}"
            );
        }
    }

    #[test]
    fn flat_vectors_round_trip() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let fv = FlatVectors::from_rows(&rows);
        assert_eq!(fv.len(), 3);
        assert_eq!(fv.dim(), 2);
        assert!(!fv.is_empty());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(fv.row(i), row.as_slice());
        }
        assert_eq!(fv.heap_bytes(), 6 * 4);

        let mut grown = FlatVectors::with_dim(2);
        for row in &rows {
            grown.push_row(row);
        }
        assert_eq!(grown.row(2), [5.0, 6.0]);

        let empty = FlatVectors::from_rows(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.heap_bytes(), 0);
    }
}
