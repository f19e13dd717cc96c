//! Runtime-dispatched explicit vector backend (the paper's hand-placed
//! SSE intrinsics, here AVX2 behind `is_x86_feature_detected!`).
//!
//! # The reduction-order contract
//!
//! Every entry point in this module is **bit-for-bit identical** to its
//! portable fallback, on every input, on every machine. That is what
//! lets the `Simd` strategy participate in the plan-differential suite
//! (planned == unplanned, AVX2 == portable) and lets a tuning decision
//! made on one code path replay on the other without numeric drift. The
//! contract is upheld by construction:
//!
//! **ELL slab and DIA diagonal sweeps** are element-wise independent
//! (`y[i] += d[i] * x[...]`, one multiply + one add per element), so any
//! vector width computes the identical result — with separate multiply
//! and add instructions (**no FMA**: fused rounding would diverge from
//! the portable two-rounding sequence). The SpMM tile bodies in
//! [`crate::spmm`] keep one RHS column per lane under the same rule.
//!
//! No fast-math reassociation is ever applied. Consequently the backend
//! is a pure throughput knob: [`set_backend`] may flip mid-run and no
//! observable value changes.

use crate::scalar_cast::{cast_mut, cast_ref};
use smat_matrix::Scalar;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which vector backend the `Simd`-tagged kernels use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SimdBackend {
    /// Use the best instruction set the CPU reports (AVX2 on `x86_64`
    /// when detected), falling back to the portable unrolled loop.
    Auto,
    /// Always use the portable unrolled loop (bit-identical; useful for
    /// differential testing and when ruling out intrinsics).
    Portable,
}

static POLICY: AtomicU8 = AtomicU8::new(0);

/// Sets the global vector-backend policy (process-wide; flipping it
/// mid-run is safe because both backends are bit-identical).
pub fn set_backend(policy: SimdBackend) {
    POLICY.store(
        match policy {
            SimdBackend::Auto => 0,
            SimdBackend::Portable => 1,
        },
        Ordering::Relaxed,
    );
}

/// The configured vector-backend policy.
pub fn backend() -> SimdBackend {
    match POLICY.load(Ordering::Relaxed) {
        1 => SimdBackend::Portable,
        _ => SimdBackend::Auto,
    }
}

/// Name of the instruction set `Simd` kernels will actually execute
/// with, after policy and CPU detection: `"avx2"` or `"portable"`.
pub fn active_backend() -> &'static str {
    if avx2_active() {
        "avx2"
    } else {
        "portable"
    }
}

/// Whether the AVX2 path is selected (policy allows it and the CPU
/// supports it). Shared with the SpMM tile kernels in [`crate::spmm`].
#[inline]
pub(crate) fn avx2_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        backend() == SimdBackend::Auto && std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// One ELL slab step: `y[i] += d[i] * x[idx[i]]` for every `i`
/// (element-wise independent, hence trivially bit-stable).
#[inline]
pub(crate) fn axpy_gather<T: Scalar>(d: &[T], idx: &[u32], x: &[T], y: &mut [T]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        if crate::scalar_cast::is_f64::<T>() {
            // SAFETY: AVX2 support was just detected.
            unsafe {
                avx2::axpy_gather_f64(
                    cast_ref::<T, f64>(d),
                    idx,
                    cast_ref::<T, f64>(x),
                    cast_mut::<T, f64>(y),
                );
            }
            return;
        }
        if crate::scalar_cast::is_f32::<T>() {
            // SAFETY: AVX2 support was just detected.
            unsafe {
                avx2::axpy_gather_f32(
                    cast_ref::<T, f32>(d),
                    idx,
                    cast_ref::<T, f32>(x),
                    cast_mut::<T, f32>(y),
                );
            }
            return;
        }
    }
    portable_axpy_gather(d, idx, x, y);
}

/// One DIA diagonal segment: `y[i] += d[i] * x[i]` over aligned slices.
#[inline]
pub(crate) fn axpy_pointwise<T: Scalar>(d: &[T], xs: &[T], ys: &mut [T]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        if crate::scalar_cast::is_f64::<T>() {
            // SAFETY: AVX2 support was just detected.
            unsafe {
                avx2::axpy_pointwise_f64(
                    cast_ref::<T, f64>(d),
                    cast_ref::<T, f64>(xs),
                    cast_mut::<T, f64>(ys),
                );
            }
            return;
        }
        if crate::scalar_cast::is_f32::<T>() {
            // SAFETY: AVX2 support was just detected.
            unsafe {
                avx2::axpy_pointwise_f32(
                    cast_ref::<T, f32>(d),
                    cast_ref::<T, f32>(xs),
                    cast_mut::<T, f32>(ys),
                );
            }
            return;
        }
    }
    portable_axpy_pointwise(d, xs, ys);
}

/// Portable fallback for [`axpy_gather`], 4-way unrolled for
/// auto-vectorization (bit-identical to the scalar loop: element-wise
/// independent).
fn portable_axpy_gather<T: Scalar>(d: &[T], idx: &[u32], x: &[T], y: &mut [T]) {
    let n = y.len();
    let chunks = n / 4;
    for c in 0..chunks {
        let k = 4 * c;
        y[k] += d[k] * x[idx[k] as usize];
        y[k + 1] += d[k + 1] * x[idx[k + 1] as usize];
        y[k + 2] += d[k + 2] * x[idx[k + 2] as usize];
        y[k + 3] += d[k + 3] * x[idx[k + 3] as usize];
    }
    for k in 4 * chunks..n {
        y[k] += d[k] * x[idx[k] as usize];
    }
}

/// Portable fallback for [`axpy_pointwise`].
fn portable_axpy_pointwise<T: Scalar>(d: &[T], xs: &[T], ys: &mut [T]) {
    let n = ys.len();
    let chunks = n / 4;
    for c in 0..chunks {
        let k = 4 * c;
        ys[k] += d[k] * xs[k];
        ys[k + 1] += d[k + 1] * xs[k + 1];
        ys[k + 2] += d[k + 2] * xs[k + 2];
        ys[k + 3] += d[k + 3] * xs[k + 3];
    }
    for k in 4 * chunks..n {
        ys[k] += d[k] * xs[k];
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 bodies. Every function: mul + add only (no FMA), one
    //! element per lane, tails run the portable scalar code — upholding
    //! the module's reduction-order contract.

    use core::arch::x86_64::*;

    /// Loads the four `u32` column indices at `idx` zero-extended to
    /// `i64` lanes. The `i32` gathers would read columns at or past
    /// 2^31 as negative offsets; widening first keeps every `u32`
    /// column in range of the `i64` gathers.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support; `idx` must be valid for
    /// four reads.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn widen_u32x4(idx: *const u32) -> __m256i {
        _mm256_cvtepu32_epi64(_mm_loadu_si128(idx as *const __m128i))
    }

    /// # Safety
    ///
    /// Caller must have verified AVX2 support; `d`, `idx` and `y` share
    /// a length and `idx` entries are in-bounds for `x`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_gather_f64(d: &[f64], idx: &[u32], x: &[f64], y: &mut [f64]) {
        let n = y.len();
        let chunks = n / 4;
        for c in 0..chunks {
            let k = 4 * c;
            let vi = widen_u32x4(idx.as_ptr().add(k));
            let xg = _mm256_i64gather_pd::<8>(x.as_ptr(), vi);
            let vd = _mm256_loadu_pd(d.as_ptr().add(k));
            let vy = _mm256_loadu_pd(y.as_ptr().add(k));
            _mm256_storeu_pd(
                y.as_mut_ptr().add(k),
                _mm256_add_pd(vy, _mm256_mul_pd(vd, xg)),
            );
        }
        for k in 4 * chunks..n {
            y[k] += d[k] * x[idx[k] as usize];
        }
    }

    /// # Safety
    ///
    /// Caller must have verified AVX2 support; `d`, `idx` and `y` share
    /// a length and `idx` entries are in-bounds for `x`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_gather_f32(d: &[f32], idx: &[u32], x: &[f32], y: &mut [f32]) {
        let n = y.len();
        let chunks = n / 4;
        for c in 0..chunks {
            let k = 4 * c;
            let vi = widen_u32x4(idx.as_ptr().add(k));
            let xg = _mm256_i64gather_ps::<4>(x.as_ptr(), vi);
            let vd = _mm_loadu_ps(d.as_ptr().add(k));
            let vy = _mm_loadu_ps(y.as_ptr().add(k));
            _mm_storeu_ps(y.as_mut_ptr().add(k), _mm_add_ps(vy, _mm_mul_ps(vd, xg)));
        }
        for k in 4 * chunks..n {
            y[k] += d[k] * x[idx[k] as usize];
        }
    }

    /// # Safety
    ///
    /// Caller must have verified AVX2 support; the three slices share a
    /// length.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_pointwise_f64(d: &[f64], xs: &[f64], ys: &mut [f64]) {
        let n = ys.len();
        let chunks = n / 4;
        for c in 0..chunks {
            let k = 4 * c;
            let vd = _mm256_loadu_pd(d.as_ptr().add(k));
            let vx = _mm256_loadu_pd(xs.as_ptr().add(k));
            let vy = _mm256_loadu_pd(ys.as_ptr().add(k));
            _mm256_storeu_pd(
                ys.as_mut_ptr().add(k),
                _mm256_add_pd(vy, _mm256_mul_pd(vd, vx)),
            );
        }
        for k in 4 * chunks..n {
            ys[k] += d[k] * xs[k];
        }
    }

    /// # Safety
    ///
    /// Caller must have verified AVX2 support; the three slices share a
    /// length.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_pointwise_f32(d: &[f32], xs: &[f32], ys: &mut [f32]) {
        let n = ys.len();
        let chunks = n / 8;
        for c in 0..chunks {
            let k = 8 * c;
            let vd = _mm256_loadu_ps(d.as_ptr().add(k));
            let vx = _mm256_loadu_ps(xs.as_ptr().add(k));
            let vy = _mm256_loadu_ps(ys.as_ptr().add(k));
            _mm256_storeu_ps(
                ys.as_mut_ptr().add(k),
                _mm256_add_ps(vy, _mm256_mul_ps(vd, vx)),
            );
        }
        for k in 8 * chunks..n {
            ys[k] += d[k] * xs[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus_f64(n: usize, cols: usize, seed: u64) -> (Vec<u32>, Vec<f64>, Vec<f64>) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let idx: Vec<u32> = (0..n)
            .map(|_| (next() % cols.max(1) as u64) as u32)
            .collect();
        let val: Vec<f64> = (0..n)
            .map(|_| (next() % 1000) as f64 * 0.37 - 185.0)
            .collect();
        let x: Vec<f64> = (0..cols)
            .map(|_| (next() % 1000) as f64 * 0.19 - 95.0)
            .collect();
        (idx, val, x)
    }

    #[test]
    fn axpy_entry_points_match_portable_bitwise() {
        for n in [0, 1, 4, 7, 31, 128] {
            let (idx, d, x) = corpus_f64(n, 53, n as u64 + 9);
            let mut y_a = vec![0.25f64; n];
            let mut y_b = y_a.clone();
            axpy_gather(&d, &idx, &x, &mut y_a);
            portable_axpy_gather(&d, &idx, &x, &mut y_b);
            assert_eq!(y_a, y_b, "gather n={n}");

            let xs = &x[..n.min(x.len())];
            let mut y_c = vec![1.5f64; xs.len()];
            let mut y_d = y_c.clone();
            axpy_pointwise(&d[..xs.len()], xs, &mut y_c);
            portable_axpy_pointwise(&d[..xs.len()], xs, &mut y_d);
            assert_eq!(y_c, y_d, "pointwise n={n}");
        }
    }

    #[test]
    fn f32_gather_matches_portable_bitwise() {
        for n in [0, 3, 4, 9, 64] {
            let (idx, d, x) = corpus_f64(n, 41, n as u64 + 3);
            let d: Vec<f32> = d.iter().map(|&v| v as f32).collect();
            let x: Vec<f32> = x.iter().map(|&v| v as f32).collect();
            let mut y_a = vec![0.5f32; n];
            let mut y_b = y_a.clone();
            axpy_gather(&d, &idx, &x, &mut y_a);
            portable_axpy_gather(&d, &idx, &x, &mut y_b);
            assert_eq!(y_a, y_b, "gather n={n}");
        }
    }

    /// Columns at and past 2^31 widen as unsigned: an `i32` gather
    /// would turn them into negative offsets.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn widened_indices_stay_unsigned() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let idx = [0, 1 << 31, u32::MAX, 5];
        let mut lanes = [0i64; 4];
        // SAFETY: AVX2 support was just detected; `idx` holds four
        // words and `lanes` four `i64`s.
        unsafe {
            let v = avx2::widen_u32x4(idx.as_ptr());
            core::arch::x86_64::_mm256_storeu_si256(lanes.as_mut_ptr().cast(), v);
        }
        assert_eq!(lanes, [0, 1 << 31, u32::MAX as i64, 5]);
    }

    #[test]
    fn policy_round_trips() {
        assert_eq!(backend(), SimdBackend::Auto);
        set_backend(SimdBackend::Portable);
        assert_eq!(backend(), SimdBackend::Portable);
        assert_eq!(active_backend(), "portable");
        set_backend(SimdBackend::Auto);
        assert_eq!(backend(), SimdBackend::Auto);
    }
}
