//! Explicit-width kernels for the ScanCount merge loop.
//!
//! The merge loop is pure integer arithmetic, so any reformulation that
//! preserves traversal order is exactly candidate-set-identical to the
//! scalar reference in [`crate::scancount`] — there is no floating-point
//! rounding to pin down. Two variants live here, both behind the `simd`
//! cargo feature:
//!
//! * [`merge_list_avx2`] (x86_64, runtime-detected): gathers eight
//!   counters per step with `vpgatherdd` and turns the "first touch"
//!   test into a movemask, so the append becomes a branch-free
//!   write-then-advance.
//! * [`merge_list_branchless`] (any arch): the same write-then-advance
//!   trick without intrinsics — the fallback when AVX2 is absent and the
//!   aarch64 path (NEON has no gather, so explicit vectors buy nothing
//!   over this form).
//!
//! # Safety contract (both variants)
//!
//! Every id in `list` must be `< counts.len()` and ids within `list` must
//! be distinct — the posting-list invariants, established at build time
//! and re-validated by the store codec on decode ([`crate::store`]).
//! The AVX2 gather additionally relies on ids fitting in `i32`, implied
//! by `counts.len() <= i32::MAX as usize`.

/// Runtime AVX2 availability (cached by the standard library).
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Eight-wide gather + movemask merge step (see module docs and safety
/// contract; additionally `counts.len() <= i32::MAX`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn merge_list_avx2(list: &[u32], counts: &mut [u32], out: &mut Vec<(u32, u32)>) {
    use std::arch::x86_64::*;
    out.reserve(list.len());
    let mut len = out.len();
    let base = out.as_mut_ptr();
    let n = list.len();
    let mut i = 0;
    while i + 8 <= n {
        let ids = _mm256_loadu_si256(list.as_ptr().add(i) as *const __m256i);
        let cnt = _mm256_i32gather_epi32::<4>(counts.as_ptr() as *const i32, ids);
        let zero = _mm256_cmpeq_epi32(cnt, _mm256_setzero_si256());
        let first_touch = _mm256_movemask_ps(_mm256_castsi256_ps(zero)) as u32;
        let inc = _mm256_add_epi32(cnt, _mm256_set1_epi32(1));
        let mut id_arr = [0u32; 8];
        let mut inc_arr = [0u32; 8];
        _mm256_storeu_si256(id_arr.as_mut_ptr() as *mut __m256i, ids);
        _mm256_storeu_si256(inc_arr.as_mut_ptr() as *mut __m256i, inc);
        for l in 0..8 {
            let e = id_arr[l];
            // Unconditionally write the candidate, advance only on first
            // touch: the next write overwrites a non-candidate slot.
            std::ptr::write(base.add(len), (e, 0));
            len += ((first_touch >> l) & 1) as usize;
            *counts.get_unchecked_mut(e as usize) = inc_arr[l];
        }
        i += 8;
    }
    out.set_len(len);
    merge_list_branchless(&list[i..], counts, out);
}

/// Branch-free scalar merge step (see module docs and safety contract).
#[inline]
pub(crate) unsafe fn merge_list_branchless(
    list: &[u32],
    counts: &mut [u32],
    out: &mut Vec<(u32, u32)>,
) {
    out.reserve(list.len());
    let mut len = out.len();
    let base = out.as_mut_ptr();
    for &e in list {
        let c = *counts.get_unchecked(e as usize);
        std::ptr::write(base.add(len), (e, 0));
        len += (c == 0) as usize;
        *counts.get_unchecked_mut(e as usize) = c + 1;
    }
    out.set_len(len);
}
