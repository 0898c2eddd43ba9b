//! Explicit-width SIMD kernels for [`crate::vector`], behind the `simd`
//! cargo feature plus runtime CPU detection.
//!
//! Every kernel here is **bit-identical** to its blocked scalar reference
//! in [`crate::vector`] — the dispatch in [`crate::vector::dot`] /
//! [`crate::vector::l2_sq`] must never change a single result bit, or
//! cached candidate sets would silently depend on the host CPU. The
//! blocked reference accumulates 8 independent f32 lanes per chunk and
//! reduces them with the fixed `lane_sum` tree
//! `((a0..a3) = lanes i + i+4; (a0 + a2) + (a1 + a3))`; the vector
//! kernels reproduce exactly that operation sequence:
//!
//! * multiplies and adds stay separate (`mul` then `add`) — **no FMA**,
//!   whose single rounding would drift from the reference;
//! * the AVX2 reduction folds the 256-bit accumulator to 128 bits
//!   (lanes `i + i+4`), adds the upper 64-bit half (`a0+a2`, `a1+a3`)
//!   and finishes with one scalar add — the `lane_sum` tree verbatim;
//! * the NEON variant keeps two `float32x4` accumulators for lanes 0–3
//!   and 4–7 and reduces through the same tree;
//! * the remainder loop is the same sequential scalar tail.
//!
//! `tests` cross-check `to_bits` equality against the blocked reference
//! on every length class; the dispatcher itself is covered by
//! `vector::tests::dispatched_kernels_bitwise_match_blocked_reference`.

#![cfg(feature = "simd")]

/// Runtime AVX2 support probe (cached by `std`).
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// AVX2 dot product, bit-identical to [`crate::vector::dot_blocked`].
///
/// # Safety
/// The caller must ensure the host supports AVX2 (see [`avx2`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len(), b.len());
    let blocks = a.len() / 8;
    let mut acc = _mm256_setzero_ps();
    for c in 0..blocks {
        let x = _mm256_loadu_ps(a.as_ptr().add(c * 8));
        let y = _mm256_loadu_ps(b.as_ptr().add(c * 8));
        // Separate mul + add: the reference kernel's two roundings.
        acc = _mm256_add_ps(acc, _mm256_mul_ps(x, y));
    }
    let mut sum = lane_sum_avx2(acc);
    for i in blocks * 8..a.len() {
        sum += a.get_unchecked(i) * b.get_unchecked(i);
    }
    sum
}

/// AVX2 squared Euclidean distance, bit-identical to
/// [`crate::vector::l2_sq_blocked`].
///
/// # Safety
/// The caller must ensure the host supports AVX2 (see [`avx2`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn l2_sq_avx2(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len(), b.len());
    let blocks = a.len() / 8;
    let mut acc = _mm256_setzero_ps();
    for c in 0..blocks {
        let x = _mm256_loadu_ps(a.as_ptr().add(c * 8));
        let y = _mm256_loadu_ps(b.as_ptr().add(c * 8));
        let d = _mm256_sub_ps(x, y);
        acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
    }
    let mut sum = lane_sum_avx2(acc);
    for i in blocks * 8..a.len() {
        let d = a.get_unchecked(i) - b.get_unchecked(i);
        sum += d * d;
    }
    sum
}

/// The `lane_sum` reduction tree on a 256-bit accumulator: lane `i` of
/// the result of the 128-bit fold is `acc[i] + acc[i + 4]`, then
/// `(a0 + a2) + (a1 + a3)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lane_sum_avx2(acc: std::arch::x86_64::__m256) -> f32 {
    use std::arch::x86_64::*;
    let s = _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps::<1>(acc));
    // [a0+a2, a1+a3, _, _]
    let t = _mm_add_ps(s, _mm_movehl_ps(s, s));
    // (a0+a2) + (a1+a3)
    _mm_cvtss_f32(_mm_add_ss(t, _mm_movehdup_ps(t)))
}

/// NEON dot product, bit-identical to [`crate::vector::dot_blocked`]:
/// two `float32x4` accumulators stand in for lanes 0–3 / 4–7.
///
/// # Safety
/// NEON is baseline on aarch64; unsafe only for the raw loads.
#[cfg(target_arch = "aarch64")]
pub(crate) unsafe fn dot_neon(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::aarch64::*;
    debug_assert_eq!(a.len(), b.len());
    let blocks = a.len() / 8;
    let mut acc_lo = vdupq_n_f32(0.0);
    let mut acc_hi = vdupq_n_f32(0.0);
    for c in 0..blocks {
        let x_lo = vld1q_f32(a.as_ptr().add(c * 8));
        let y_lo = vld1q_f32(b.as_ptr().add(c * 8));
        let x_hi = vld1q_f32(a.as_ptr().add(c * 8 + 4));
        let y_hi = vld1q_f32(b.as_ptr().add(c * 8 + 4));
        // Separate mul + add (no vfmaq): the reference's two roundings.
        acc_lo = vaddq_f32(acc_lo, vmulq_f32(x_lo, y_lo));
        acc_hi = vaddq_f32(acc_hi, vmulq_f32(x_hi, y_hi));
    }
    let mut sum = lane_sum_neon(acc_lo, acc_hi);
    for i in blocks * 8..a.len() {
        sum += a.get_unchecked(i) * b.get_unchecked(i);
    }
    sum
}

/// NEON squared Euclidean distance, bit-identical to
/// [`crate::vector::l2_sq_blocked`].
///
/// # Safety
/// NEON is baseline on aarch64; unsafe only for the raw loads.
#[cfg(target_arch = "aarch64")]
pub(crate) unsafe fn l2_sq_neon(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::aarch64::*;
    debug_assert_eq!(a.len(), b.len());
    let blocks = a.len() / 8;
    let mut acc_lo = vdupq_n_f32(0.0);
    let mut acc_hi = vdupq_n_f32(0.0);
    for c in 0..blocks {
        let d_lo = vsubq_f32(
            vld1q_f32(a.as_ptr().add(c * 8)),
            vld1q_f32(b.as_ptr().add(c * 8)),
        );
        let d_hi = vsubq_f32(
            vld1q_f32(a.as_ptr().add(c * 8 + 4)),
            vld1q_f32(b.as_ptr().add(c * 8 + 4)),
        );
        acc_lo = vaddq_f32(acc_lo, vmulq_f32(d_lo, d_lo));
        acc_hi = vaddq_f32(acc_hi, vmulq_f32(d_hi, d_hi));
    }
    let mut sum = lane_sum_neon(acc_lo, acc_hi);
    for i in blocks * 8..a.len() {
        let d = a.get_unchecked(i) - b.get_unchecked(i);
        sum += d * d;
    }
    sum
}

/// The `lane_sum` reduction tree on the two NEON accumulators.
#[cfg(target_arch = "aarch64")]
#[inline]
fn lane_sum_neon(
    acc_lo: std::arch::aarch64::float32x4_t,
    acc_hi: std::arch::aarch64::float32x4_t,
) -> f32 {
    use std::arch::aarch64::*;
    // [a0, a1, a2, a3] = lanes i + i+4.
    let s = vaddq_f32(acc_lo, acc_hi);
    // [a0+a2, a1+a3]
    let t = vadd_f32(vget_low_f32(s), vget_high_f32(s));
    vget_lane_f32::<0>(t) + vget_lane_f32::<1>(t)
}

#[cfg(test)]
mod tests {
    use crate::vector::{dot_blocked, l2_sq_blocked};

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

    /// The vector kernels must agree with the blocked reference to the
    /// bit, on lengths exercising empty, sub-block, exact-block and
    /// remainder shapes.
    #[test]
    fn simd_kernels_bitwise_match_blocked_reference() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 64, 65, 129, 300] {
            let a = pseudo_random(len, 3);
            let b = pseudo_random(len, 5);
            #[cfg(target_arch = "x86_64")]
            if super::avx2() {
                let (d, l) = unsafe { (super::dot_avx2(&a, &b), super::l2_sq_avx2(&a, &b)) };
                assert_eq!(d.to_bits(), dot_blocked(&a, &b).to_bits(), "dot len={len}");
                assert_eq!(l.to_bits(), l2_sq_blocked(&a, &b).to_bits(), "l2 len={len}");
            }
            #[cfg(target_arch = "aarch64")]
            {
                let (d, l) = unsafe { (super::dot_neon(&a, &b), super::l2_sq_neon(&a, &b)) };
                assert_eq!(d.to_bits(), dot_blocked(&a, &b).to_bits(), "dot len={len}");
                assert_eq!(l.to_bits(), l2_sq_blocked(&a, &b).to_bits(), "l2 len={len}");
            }
            #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
            let _ = (a, b);
        }
    }
}
