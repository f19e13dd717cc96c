//! Multi-RHS (SpMM) kernel variants: `Y = A * X` for `k` right-hand
//! sides stored row-major (`X` is `cols * k`, `Y` is `rows * k`,
//! element `(r, j)` at `r * k + j`).
//!
//! The batched tier amortizes matrix traffic across RHS columns: each
//! nonzero is loaded once per *tile* of columns instead of once per
//! column, with the tile's partial sums held in registers. Tile widths
//! 2/4/8 are separate registry variants tagged `Tile2`/`Tile4`/`Tile8`
//! — the width is a searched dimension, scored by the scoreboard like
//! any other strategy (see `ISSUE`/DESIGN §17).
//!
//! # Reduction-order contract
//!
//! Every kernel here accumulates each output element `(r, j)` in
//! nonzero *stream order*, exactly like the corresponding SpMV kernel
//! accumulates `y[r]` — columns of a tile live in independent
//! accumulators (lanes), so tiling never reassociates a column's sum.
//! Consequently all serial and row-chunked variants are **bitwise
//! identical** to `k` independent basic-SpMV calls on every input, and
//! the AVX2 tile backend (broadcast value × contiguous X-tile load,
//! separate mul + add, no FMA) is bitwise identical to the portable
//! fallback by construction. Only the merge-path variants reassociate
//! (they split rows mid-stream, like `csr_merge`), and they remain
//! bit-stable across replays of the same plan and exact on
//! dyadic-rational inputs.

use crate::exec;
use crate::partition::MAX_MERGE_CHUNKS;
use crate::plan::ExecPlan;
use crate::registry::{kernel_rows, KernelInfo};
use crate::strategy::{Strategy, StrategySet};
use smat_matrix::{Bcsr, Csr, Ell, Scalar};

#[inline]
fn check_dims<T>(rows: usize, cols: usize, x: &[T], y: &[T], k: usize) {
    assert!(k >= 1, "at least one RHS column required");
    assert_eq!(x.len(), cols * k, "x length must equal cols * k");
    assert_eq!(y.len(), rows * k, "y length must equal rows * k");
}

/// One CSR row's tile of `W` column dot products, portable body: lane
/// `l` accumulates column `j0 + l` in stream order.
#[inline]
fn row_tile<T: Scalar, const W: usize>(
    idx: &[usize],
    val: &[T],
    x: &[T],
    k: usize,
    j0: usize,
) -> [T; W] {
    let mut acc = [T::ZERO; W];
    for (&c, &v) in idx.iter().zip(val) {
        let xb = &x[c * k + j0..c * k + j0 + W];
        for (a, &xv) in acc.iter_mut().zip(xb) {
            *a += v * xv;
        }
    }
    acc
}

/// [`row_tile`] behind the runtime vector-backend dispatch: AVX2 when
/// the policy and CPU allow it (bit-identical, see module docs), the
/// portable body otherwise.
#[inline]
fn row_tile_dispatch<T: Scalar, const W: usize>(
    idx: &[usize],
    val: &[T],
    x: &[T],
    k: usize,
    j0: usize,
) -> [T; W] {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_active() {
        use crate::scalar_cast::{cast_ref, cast_val};
        if crate::scalar_cast::is_f64::<T>() {
            let (xs, vs) = (cast_ref::<T, f64>(x), cast_ref::<T, f64>(val));
            if W == 4 {
                // SAFETY: AVX2 support was just detected.
                let r = unsafe { avx2::row_tile4_f64(idx, vs, xs, k, j0) };
                let mut out = [T::ZERO; W];
                for l in 0..W {
                    out[l] = cast_val::<f64, T>(r[l]);
                }
                return out;
            }
            if W == 8 {
                // SAFETY: AVX2 support was just detected.
                let r = unsafe { avx2::row_tile8_f64(idx, vs, xs, k, j0) };
                let mut out = [T::ZERO; W];
                for l in 0..W {
                    out[l] = cast_val::<f64, T>(r[l]);
                }
                return out;
            }
        }
        if crate::scalar_cast::is_f32::<T>() {
            let (xs, vs) = (cast_ref::<T, f32>(x), cast_ref::<T, f32>(val));
            if W == 4 {
                // SAFETY: AVX2 support was just detected.
                let r = unsafe { avx2::row_tile4_f32(idx, vs, xs, k, j0) };
                let mut out = [T::ZERO; W];
                for l in 0..W {
                    out[l] = cast_val::<f32, T>(r[l]);
                }
                return out;
            }
            if W == 8 {
                // SAFETY: AVX2 support was just detected.
                let r = unsafe { avx2::row_tile8_f32(idx, vs, xs, k, j0) };
                let mut out = [T::ZERO; W];
                for l in 0..W {
                    out[l] = cast_val::<f32, T>(r[l]);
                }
                return out;
            }
        }
    }
    row_tile::<T, W>(idx, val, x, k, j0)
}

/// Computes one CSR row's full `k` output columns into `yr`: tiles of
/// `W` first, then a scalar column-at-a-time tail for `k % W`.
#[inline]
fn row_into<T: Scalar, const W: usize>(
    idx: &[usize],
    val: &[T],
    x: &[T],
    k: usize,
    yr: &mut [T],
    simd: bool,
) {
    let mut j0 = 0;
    while j0 + W <= k {
        let acc = if simd {
            row_tile_dispatch::<T, W>(idx, val, x, k, j0)
        } else {
            row_tile::<T, W>(idx, val, x, k, j0)
        };
        yr[j0..j0 + W].copy_from_slice(&acc);
        j0 += W;
    }
    for j in j0..k {
        let mut acc = T::ZERO;
        for (&c, &v) in idx.iter().zip(val) {
            acc += v * x[c * k + j];
        }
        yr[j] = acc;
    }
}

#[inline]
fn csr_chunks<T: Scalar, const W: usize>(
    m: &Csr<T>,
    x: &[T],
    y: &mut [T],
    k: usize,
    bounds: &[usize],
    simd: bool,
) {
    exec::for_each_row_chunk_scaled(y, bounds, k, |ci, chunk| {
        let r0 = bounds[ci];
        for (i, yr) in chunk.chunks_exact_mut(k).enumerate() {
            let (idx, val) = m.row(r0 + i);
            row_into::<T, W>(idx, val, x, k, yr, simd);
        }
    });
}

/// Runs the CSR SpMM variant tagged `strategies` over the plan — the
/// one planned dispatch of this format's batched tier. The `Tile*`
/// strategy picks the register-tile width (none: column-at-a-time, the
/// containment reference and the `k = 1` degenerate kernel), `Simd`
/// routes full tiles through the vector backend (bit-identical), and
/// `Merge` replays the plan's entry bounds; otherwise rows fan out over
/// the plan's row chunks (rows are never split, so per-column
/// accumulation order is the same at every fan-out width).
///
/// # Panics
///
/// Panics when `k == 0`, on mismatched buffer lengths, or on malformed
/// plan bounds.
pub fn run_csr<T: Scalar>(
    m: &Csr<T>,
    x: &[T],
    y: &mut [T],
    k: usize,
    plan: &ExecPlan,
    strategies: StrategySet,
) {
    check_dims(m.rows(), m.cols(), x, y, k);
    let width = strategies.tile_width();
    let merge = strategies.contains(Strategy::Merge);
    let entry_bounds = plan
        .entry_bounds
        .as_deref()
        .filter(|eb| merge && plan.chunks() > 1 && eb.len() == plan.bounds.len());
    if let Some(eb) = entry_bounds {
        return match width {
            2 => csr_merge_with::<T, 2>(m, x, y, k, eb, &plan.bounds),
            4 => csr_merge_with::<T, 4>(m, x, y, k, eb, &plan.bounds),
            8 => csr_merge_with::<T, 8>(m, x, y, k, eb, &plan.bounds),
            _ => csr_merge_with::<T, 1>(m, x, y, k, eb, &plan.bounds),
        };
    }
    // A merge variant handed a plan without entry bounds (serial,
    // degraded or foreign) runs the tiled row body over one chunk — the
    // merge kernel's own single-chunk order.
    let whole = [0, m.rows()];
    let bounds = if merge { &whole[..] } else { &plan.bounds[..] };
    let simd = strategies.contains(Strategy::Simd);
    match width {
        2 => csr_chunks::<T, 2>(m, x, y, k, bounds, simd),
        4 => csr_chunks::<T, 4>(m, x, y, k, bounds, simd),
        8 => csr_chunks::<T, 8>(m, x, y, k, bounds, simd),
        _ => csr_chunks::<T, 1>(m, x, y, k, bounds, simd),
    }
}

/// Tile of `W` column dot products over one contiguous entry segment
/// `lo..hi`, accumulated sequentially in stream order (the merge-path
/// building block, mirroring `csr::segment_dot`).
#[inline]
fn segment_tile<T: Scalar, const W: usize>(
    m: &Csr<T>,
    lo: usize,
    hi: usize,
    x: &[T],
    k: usize,
    j0: usize,
) -> [T; W] {
    let idx = m.col_idx();
    let val = m.values();
    let mut acc = [T::ZERO; W];
    for e in lo..hi {
        let xb = &x[idx[e] * k + j0..];
        for (a, &xv) in acc.iter_mut().zip(&xb[..W]) {
            *a += val[e] * xv;
        }
    }
    acc
}

/// One column-tile's merge-path sweep: the SpMM analogue of
/// `csr::run_merge_chunks`, with per-chunk carry *tiles* and the same
/// ascending serial fix-up — bit-stable across replays of one plan.
fn merge_chunks_tile<T: Scalar, const W: usize>(
    m: &Csr<T>,
    x: &[T],
    y: &mut [T],
    k: usize,
    j0: usize,
    entry_bounds: &[usize],
    bounds: &[usize],
) {
    let chunks = bounds.len() - 1;
    debug_assert!(chunks >= 2, "single-chunk sweeps take the serial path");
    assert!(
        chunks <= MAX_MERGE_CHUNKS,
        "merge fan-out exceeds carry capacity"
    );
    let ptr = m.row_ptr();
    let mut carry = [[T::ZERO; W]; MAX_MERGE_CHUNKS];
    let carry_base = carry.as_mut_ptr() as usize;
    let y_base = y.as_mut_ptr() as usize;
    exec::for_each_chunk(chunks, &|ci| {
        let (e0, e1) = (entry_bounds[ci], entry_bounds[ci + 1]);
        let (w0, w1) = (bounds[ci], bounds[ci + 1]);
        let head_end = if w0 < w1 { ptr[w0].min(e1) } else { e1 };
        if e0 < head_end {
            let c = segment_tile::<T, W>(m, e0, head_end, x, k, j0);
            // SAFETY: each chunk index is claimed exactly once and
            // writes only its own carry slot; `ci < chunks <=
            // MAX_MERGE_CHUNKS` keeps the write in bounds, and the
            // carry array outlives the fan-out (the caller participates
            // in the pool drain before `for_each_chunk` returns).
            unsafe { *(carry_base as *mut [T; W]).add(ci) = c };
        }
        for r in w0..w1 {
            let lo = ptr[r];
            let hi = ptr[r + 1].min(e1);
            let v = segment_tile::<T, W>(m, lo, hi, x, k, j0);
            // SAFETY: row ownership is a partition (validated bounds),
            // so no two chunks write the same output tile; `r < rows`
            // and `j0 + W <= k` keep the writes within `y`.
            unsafe {
                let dst = (y_base as *mut T).add(r * k + j0);
                for (l, &vl) in v.iter().enumerate() {
                    *dst.add(l) = vl;
                }
            }
        }
    });
    // Serial fix-up in ascending chunk order: fixed association.
    for ci in 1..chunks {
        let (e0, e1) = (entry_bounds[ci], entry_bounds[ci + 1]);
        let (w0, w1) = (bounds[ci], bounds[ci + 1]);
        let head_end = if w0 < w1 { ptr[w0].min(e1) } else { e1 };
        if e0 < head_end {
            for (l, &c) in carry[ci].iter().enumerate() {
                y[(w0 - 1) * k + j0 + l] += c;
            }
        }
    }
}

/// Drives the merge-path SpMM: one sweep per `W`-wide column tile,
/// then width-1 sweeps for the `k % W` tail columns.
fn csr_merge_with<T: Scalar, const W: usize>(
    m: &Csr<T>,
    x: &[T],
    y: &mut [T],
    k: usize,
    entry_bounds: &[usize],
    bounds: &[usize],
) {
    exec::validate_bounds(bounds, m.rows());
    assert_eq!(
        entry_bounds.len(),
        bounds.len(),
        "entry bounds must align with row bounds"
    );
    let mut j0 = 0;
    while j0 + W <= k {
        merge_chunks_tile::<T, W>(m, x, y, k, j0, entry_bounds, bounds);
        j0 += W;
    }
    for j in j0..k {
        merge_chunks_tile::<T, 1>(m, x, y, k, j, entry_bounds, bounds);
    }
}

/// ELL SpMM over rows `[r0, r1)` writing into `y_chunk` (length
/// `(r1 - r0) * k`): column-major slot sweep per tile, so each output
/// element accumulates slots in ascending order exactly like
/// the basic ELL SpMV does per column.
fn ell_rows<T: Scalar, const W: usize>(
    m: &Ell<T>,
    x: &[T],
    y_chunk: &mut [T],
    k: usize,
    r0: usize,
    r1: usize,
) {
    y_chunk.fill(T::ZERO);
    let rows = m.rows();
    let data = m.data();
    let idx = m.indices();
    let n = r1 - r0;
    let mut j0 = 0;
    while j0 + W <= k {
        for p in 0..m.width() {
            let dcol = &data[p * rows + r0..p * rows + r1];
            let icol = &idx[p * rows + r0..p * rows + r1];
            for r in 0..n {
                let v = dcol[r];
                let xb = &x[icol[r] * k + j0..];
                let yb = &mut y_chunk[r * k + j0..r * k + j0 + W];
                for (l, slot) in yb.iter_mut().enumerate() {
                    *slot += v * xb[l];
                }
            }
        }
        j0 += W;
    }
    for j in j0..k {
        for p in 0..m.width() {
            let dcol = &data[p * rows + r0..p * rows + r1];
            let icol = &idx[p * rows + r0..p * rows + r1];
            for r in 0..n {
                y_chunk[r * k + j] += dcol[r] * x[icol[r] * k + j];
            }
        }
    }
}

#[inline]
fn ell_chunks<T: Scalar, const W: usize>(
    m: &Ell<T>,
    x: &[T],
    y: &mut [T],
    k: usize,
    bounds: &[usize],
) {
    exec::for_each_row_chunk_scaled(y, bounds, k, |ci, chunk| {
        ell_rows::<T, W>(m, x, chunk, k, bounds[ci], bounds[ci + 1]);
    });
}

/// Runs the ELL SpMM variant tagged `strategies` over the plan's row
/// chunks (no `Tile*` strategy: column-at-a-time, the format's
/// containment reference).
///
/// # Panics
///
/// Same conditions as [`run_csr`].
pub fn run_ell<T: Scalar>(
    m: &Ell<T>,
    x: &[T],
    y: &mut [T],
    k: usize,
    plan: &ExecPlan,
    strategies: StrategySet,
) {
    check_dims(m.rows(), m.cols(), x, y, k);
    match strategies.tile_width() {
        2 => ell_chunks::<T, 2>(m, x, y, k, &plan.bounds),
        4 => ell_chunks::<T, 4>(m, x, y, k, &plan.bounds),
        8 => ell_chunks::<T, 8>(m, x, y, k, &plan.bounds),
        _ => ell_chunks::<T, 1>(m, x, y, k, &plan.bounds),
    }
}

/// BCSR SpMM for one column tile `[j0, j0 + W)` over rows `[r0, r1)`:
/// per block row, `br * W` partial sums stay in registers while the
/// row's blocks stream left to right (columns left to right within a
/// block — the same order as the basic BCSR SpMV per output column).
fn bcsr_rows_tile<T: Scalar, const W: usize>(
    m: &Bcsr<T>,
    x: &[T],
    y_chunk: &mut [T],
    k: usize,
    r0: usize,
    r1: usize,
    j0: usize,
) {
    let br = m.br();
    let bc = m.bc();
    let cols = m.cols();
    let ptr = m.block_ptr();
    let bcol = m.block_col();
    let values = m.values();
    assert!(br <= 4, "register tile sized for block heights up to 4");
    let mut b = r0 / br;
    while b * br < r1 {
        let base = b * br;
        let i_lo = r0.saturating_sub(base);
        let i_hi = (r1 - base).min(br).min(m.rows() - base);
        let mut acc = [[T::ZERO; W]; 4];
        for e in ptr[b]..ptr[b + 1] {
            let c0 = bcol[e] * bc;
            let cn = bc.min(cols - c0);
            let blk = &values[e * br * bc..];
            for (i, row_acc) in acc.iter_mut().enumerate().take(i_hi).skip(i_lo) {
                for j in 0..cn {
                    let v = blk[i * bc + j];
                    let xb = &x[(c0 + j) * k + j0..];
                    for (a, &xv) in row_acc.iter_mut().zip(&xb[..W]) {
                        *a += v * xv;
                    }
                }
            }
        }
        for i in i_lo..i_hi {
            let dst = &mut y_chunk[(base + i - r0) * k + j0..(base + i - r0) * k + j0 + W];
            dst.copy_from_slice(&acc[i]);
        }
        b += 1;
    }
}

/// BCSR SpMM over rows `[r0, r1)`: `W`-wide tiles then width-1 tail
/// columns.
fn bcsr_rows<T: Scalar, const W: usize>(
    m: &Bcsr<T>,
    x: &[T],
    y_chunk: &mut [T],
    k: usize,
    r0: usize,
    r1: usize,
) {
    let mut j0 = 0;
    while j0 + W <= k {
        bcsr_rows_tile::<T, W>(m, x, y_chunk, k, r0, r1, j0);
        j0 += W;
    }
    for j in j0..k {
        bcsr_rows_tile::<T, 1>(m, x, y_chunk, k, r0, r1, j);
    }
}

/// Runs the BCSR SpMM variant tagged `strategies` over the plan's row
/// chunks, for both block sizes (no `Tile*` strategy: column-at-a-time,
/// the containment reference).
///
/// # Panics
///
/// Same conditions as [`run_csr`].
pub fn run_bcsr<T: Scalar>(
    m: &Bcsr<T>,
    x: &[T],
    y: &mut [T],
    k: usize,
    plan: &ExecPlan,
    strategies: StrategySet,
) {
    check_dims(m.rows(), m.cols(), x, y, k);
    let bounds = &plan.bounds[..];
    macro_rules! fan {
        ($w:literal) => {
            exec::for_each_row_chunk_scaled(y, bounds, k, |ci, chunk| {
                bcsr_rows::<T, $w>(m, x, chunk, k, bounds[ci], bounds[ci + 1]);
            })
        };
    }
    match strategies.tile_width() {
        2 => fan!(2),
        4 => fan!(4),
        8 => fan!(8),
        _ => fan!(1),
    }
}

/// The CSR SpMM variant table: basic, tiled, SIMD-tiled, row-parallel
/// tiled and merge-path tiled rows.
pub fn csr_variants() -> Vec<KernelInfo> {
    use Strategy::*;
    kernel_rows(&[
        ("csr_spmm_basic", &[]),
        ("csr_spmm_t2", &[Tile2]),
        ("csr_spmm_t4", &[Tile4]),
        ("csr_spmm_t8", &[Tile8]),
        ("csr_spmm_simd_t4", &[Tile4, Simd]),
        ("csr_spmm_simd_t8", &[Tile8, Simd]),
        ("csr_spmm_parallel_t2", &[Parallel, Tile2]),
        ("csr_spmm_parallel_t4", &[Parallel, Tile4]),
        ("csr_spmm_parallel_t8", &[Parallel, Tile8]),
        ("csr_spmm_merge_t2", &[Parallel, Merge, Tile2]),
        ("csr_spmm_merge_t4", &[Parallel, Merge, Tile4]),
        ("csr_spmm_merge_t8", &[Parallel, Merge, Tile8]),
    ])
}

/// The ELL SpMM variant table.
pub fn ell_variants() -> Vec<KernelInfo> {
    use Strategy::*;
    kernel_rows(&[
        ("ell_spmm_basic", &[]),
        ("ell_spmm_t2", &[Tile2]),
        ("ell_spmm_t4", &[Tile4]),
        ("ell_spmm_t8", &[Tile8]),
        ("ell_spmm_parallel_t2", &[Parallel, Tile2]),
        ("ell_spmm_parallel_t4", &[Parallel, Tile4]),
        ("ell_spmm_parallel_t8", &[Parallel, Tile8]),
    ])
}

macro_rules! bcsr_spmm_rows {
    ($prefix:literal) => {{
        use Strategy::*;
        kernel_rows(&[
            (concat!($prefix, "_spmm_basic"), &[]),
            (concat!($prefix, "_spmm_t2"), &[Tile2]),
            (concat!($prefix, "_spmm_t4"), &[Tile4]),
            (concat!($prefix, "_spmm_t8"), &[Tile8]),
            (concat!($prefix, "_spmm_parallel_t4"), &[Parallel, Tile4]),
        ])
    }};
}

/// The 2x2 BCSR SpMM variant table.
pub fn bcsr_variants2() -> Vec<KernelInfo> {
    bcsr_spmm_rows!("bcsr2")
}

/// The 4x4 BCSR SpMM variant table.
pub fn bcsr_variants4() -> Vec<KernelInfo> {
    bcsr_spmm_rows!("bcsr4")
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 tile bodies. Each RHS column of the tile lives in its own
    //! lane: per nonzero, broadcast the value, load the contiguous
    //! `X`-tile, separate mul + add (no FMA). Lane `l` therefore
    //! computes exactly the portable body's `acc[l]` — bit-identical on
    //! every input, with no tail to fold (the caller only dispatches
    //! full tiles).

    use core::arch::x86_64::*;

    /// # Safety
    ///
    /// Caller must have verified AVX2 support; `idx` entries must be
    /// in-bounds row indices of an `X` with `k` columns and
    /// `j0 + 4 <= k`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_tile4_f64(
        idx: &[usize],
        val: &[f64],
        x: &[f64],
        k: usize,
        j0: usize,
    ) -> [f64; 4] {
        let mut acc = _mm256_setzero_pd();
        for (e, &c) in idx.iter().enumerate() {
            let vv = _mm256_set1_pd(val[e]);
            let vx = _mm256_loadu_pd(x.as_ptr().add(c * k + j0));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(vv, vx));
        }
        let mut out = [0.0f64; 4];
        _mm256_storeu_pd(out.as_mut_ptr(), acc);
        out
    }

    /// # Safety
    ///
    /// Same as [`row_tile4_f64`], with `j0 + 8 <= k`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_tile8_f64(
        idx: &[usize],
        val: &[f64],
        x: &[f64],
        k: usize,
        j0: usize,
    ) -> [f64; 8] {
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        for (e, &c) in idx.iter().enumerate() {
            let vv = _mm256_set1_pd(val[e]);
            let p = x.as_ptr().add(c * k + j0);
            acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(vv, _mm256_loadu_pd(p)));
            acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(vv, _mm256_loadu_pd(p.add(4))));
        }
        let mut out = [0.0f64; 8];
        _mm256_storeu_pd(out.as_mut_ptr(), acc0);
        _mm256_storeu_pd(out.as_mut_ptr().add(4), acc1);
        out
    }

    /// # Safety
    ///
    /// Same contract as [`row_tile4_f64`] for `f32` data.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_tile4_f32(
        idx: &[usize],
        val: &[f32],
        x: &[f32],
        k: usize,
        j0: usize,
    ) -> [f32; 4] {
        let mut acc = _mm_setzero_ps();
        for (e, &c) in idx.iter().enumerate() {
            let vv = _mm_set1_ps(val[e]);
            let vx = _mm_loadu_ps(x.as_ptr().add(c * k + j0));
            acc = _mm_add_ps(acc, _mm_mul_ps(vv, vx));
        }
        let mut out = [0.0f32; 4];
        _mm_storeu_ps(out.as_mut_ptr(), acc);
        out
    }

    /// # Safety
    ///
    /// Same contract as [`row_tile8_f64`] for `f32` data.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_tile8_f32(
        idx: &[usize],
        val: &[f32],
        x: &[f32],
        k: usize,
        j0: usize,
    ) -> [f32; 8] {
        let mut acc = _mm256_setzero_ps();
        for (e, &c) in idx.iter().enumerate() {
            let vv = _mm256_set1_ps(val[e]);
            let vx = _mm256_loadu_ps(x.as_ptr().add(c * k + j0));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(vv, vx));
        }
        let mut out = [0.0f32; 8];
        _mm256_storeu_ps(out.as_mut_ptr(), acc);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::merge_path_bounds;
    use crate::plan::ChunkPolicy;
    use smat_matrix::gen::{power_law, random_uniform};

    /// `k` independent basic SpMV calls, interleaved into the row-major
    /// SpMM layout — the semantic reference for every kernel here.
    fn per_column_reference(m: &Csr<f64>, x: &[f64], k: usize) -> Vec<f64> {
        let mut expect = vec![0.0; m.rows() * k];
        for j in 0..k {
            let xj: Vec<f64> = (0..m.cols()).map(|c| x[c * k + j]).collect();
            let mut yj = vec![0.0; m.rows()];
            crate::csr::basic(m, &xj, &mut yj);
            for r in 0..m.rows() {
                expect[r * k + j] = yj[r];
            }
        }
        expect
    }

    fn dyadic_x(cols: usize, k: usize) -> Vec<f64> {
        (0..cols * k)
            .map(|i| 0.25 * ((i % 13) as f64) - 0.75)
            .collect()
    }

    fn merge_plan(m: &Csr<f64>, parts: usize) -> ExecPlan {
        let (entry_bounds, bounds) = merge_path_bounds(m, parts);
        ExecPlan::chunked(ChunkPolicy::MergePath, bounds, Some(entry_bounds))
    }

    /// The one-chunk serial plan, a row-chunk fan-out and a merge split.
    fn plans(m: &Csr<f64>) -> Vec<ExecPlan> {
        let mut plans = ExecPlan::serial_and_fan_out(m.rows()).to_vec();
        plans.push(merge_plan(m, 3));
        plans
    }

    fn bitwise(a: &[f64], b: &[f64]) -> bool {
        a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    #[test]
    fn row_granular_csr_variants_match_per_column_spmv_bitwise() {
        let m = random_uniform::<f64>(157, 111, 7, 5);
        for k in [1usize, 2, 3, 5, 8, 9] {
            let x: Vec<f64> = (0..m.cols() * k).map(|i| (i as f64 * 0.31).sin()).collect();
            let expect = per_column_reference(&m, &x, k);
            // Row-granular kernels never reassociate a column's sum, so
            // they are bitwise on arbitrary (non-dyadic) values under
            // every plan.
            for info in csr_variants() {
                if info.strategies.contains(Strategy::Merge) {
                    continue;
                }
                for plan in plans(&m) {
                    let mut y = vec![f64::NAN; m.rows() * k];
                    run_csr(&m, &x, &mut y, k, &plan, info.strategies);
                    assert!(bitwise(&y, &expect), "{} @ k={k} not bitwise", info.name);
                }
            }
        }
    }

    #[test]
    fn merge_matches_per_column_spmv_bitwise_on_dyadic_values() {
        // A hot row forces chunks to cut rows mid-stream; dyadic values
        // make every association exact.
        let mut triplets: Vec<(usize, usize, f64)> =
            (0..64).map(|c| (0, c, 0.25 * (1 + c % 5) as f64)).collect();
        triplets.extend((1..17).map(|r| (r, r % 64, 0.5 * (r % 3) as f64)));
        let m = Csr::from_triplets(17, 64, &triplets).unwrap();
        for k in [1usize, 3, 4, 8, 10] {
            let x = dyadic_x(64, k);
            let expect = per_column_reference(&m, &x, k);
            for info in csr_variants() {
                if !info.strategies.contains(Strategy::Merge) {
                    continue;
                }
                let mut y = vec![f64::NAN; m.rows() * k];
                run_csr(&m, &x, &mut y, k, &merge_plan(&m, 4), info.strategies);
                assert!(
                    bitwise(&y, &expect),
                    "{} @ k={k} not bitwise on dyadic values",
                    info.name
                );
            }
        }
    }

    #[test]
    fn merge_replays_bitwise_and_handles_degraded_plans() {
        let m = power_law::<f64>(600, 150, 2.0, 7);
        let k = 5usize;
        let x: Vec<f64> = (0..m.cols() * k).map(|i| (i as f64 * 0.11).cos()).collect();
        let merge_t4: StrategySet = [Strategy::Parallel, Strategy::Merge, Strategy::Tile4]
            .into_iter()
            .collect();
        let plan = merge_plan(&m, 6);
        let mut y1 = vec![f64::NAN; 600 * k];
        let mut y2 = vec![f64::NAN; 600 * k];
        run_csr(&m, &x, &mut y1, k, &plan, merge_t4);
        run_csr(&m, &x, &mut y2, k, &plan, merge_t4);
        assert!(y1.iter().zip(&y2).all(|(a, b)| a == b), "replay unstable");
        // Degraded (serial) plan: still correct, serial order.
        let mut y3 = vec![f64::NAN; 600 * k];
        run_csr(&m, &x, &mut y3, k, &ExecPlan::serial(600), merge_t4);
        assert!(bitwise(&y3, &per_column_reference(&m, &x, k)));
    }

    #[test]
    fn empty_rows_and_k1_degenerate() {
        let m = Csr::<f64>::from_triplets(4, 4, &[(1, 1, 2.0)]).unwrap();
        let x = dyadic_x(4, 1);
        let expect = per_column_reference(&m, &x, 1);
        for info in csr_variants() {
            for plan in plans(&m) {
                let mut y = vec![f64::NAN; 4];
                run_csr(&m, &x, &mut y, 1, &plan, info.strategies);
                assert_eq!(y, expect, "{}", info.name);
            }
        }
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn dimension_mismatch_panics() {
        let m = Csr::<f64>::identity(3);
        let mut y = [0.0; 6];
        run_csr(
            &m,
            &[1.0; 5],
            &mut y,
            2,
            &ExecPlan::serial(3),
            StrategySet::EMPTY,
        );
    }
}
