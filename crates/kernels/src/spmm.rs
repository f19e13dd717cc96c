//! Multi-RHS (SpMM) kernel variants: `Y = A * X` for `k` right-hand
//! sides stored row-major (`X` is `cols * k`, `Y` is `rows * k`,
//! element `(r, j)` at `r * k + j`).
//!
//! Every format has a batched tier. It amortizes matrix traffic across
//! RHS columns: each stored entry is loaded once per *tile* of columns
//! instead of once per column, with the tile's partial sums held in
//! registers. Every non-merge kernel is one row-major sweep: per output
//! row, `W` lane accumulators per tile, and the row's `k` outputs
//! written once. A tiled row (`Tile8`) covers `k` with 8-wide tiles and
//! finishes the `k % 8` tail columns with at most one 4-, one 2- and
//! one 1-wide tile (`ladder`), so one row serves every `k`; row 0 of
//! each table runs column-at-a-time (DESIGN §17).
//!
//! # Reduction-order contract
//!
//! Every kernel here accumulates each output element `(r, j)` in the
//! order its format's *basic* SpMV accumulates `y[r]`: CSR and COO in
//! entry order, DIA over diagonals in offset order, ELL over packed
//! slots (padding included), HYB over the ELL slots then the row's COO
//! overflow entries, BCSR over blocks then block columns. Columns of a
//! tile live in independent accumulators (lanes), so tiling never
//! reassociates a column's sum. Consequently all serial and row-chunked
//! variants are **bitwise identical** to `k` independent basic-SpMV
//! calls of their format on every input, and the AVX2 tile backend
//! (broadcast value × contiguous X-tile load, separate mul + add, no
//! FMA) is bitwise identical to the portable fallback by construction.
//! Only the merge-path variants reassociate (they split rows
//! mid-stream, like `csr_merge`), and they remain bit-stable across
//! replays of the same plan and exact on dyadic-rational inputs.

use crate::exec;
use crate::partition::MAX_MERGE_CHUNKS;
use crate::plan::ExecPlan;
use crate::registry::{kernel_rows, KernelInfo};
use crate::strategy::{Strategy, StrategySet};
use smat_matrix::{Bcsr, Coo, Csr, Dia, Ell, Format, Hyb, Scalar};
use std::ops::Range;

#[inline]
fn check_dims<T>(rows: usize, cols: usize, x: &[T], y: &[T], k: usize) {
    assert!(k >= 1, "at least one RHS column required");
    let extent = |n: usize| n.checked_mul(k).expect("block extent overflows usize");
    assert_eq!(x.len(), extent(cols), "x length must equal cols * k");
    assert_eq!(y.len(), extent(rows), "y length must equal rows * k");
}

/// Monomorphizes `$sweep`, an expression generic over the const `$w`,
/// for the strategy set's tile width (`1` without `Tile8`:
/// column-at-a-time, the table's row 0).
macro_rules! by_tile_width {
    ($strategies:expr, |$w:ident| $sweep:expr) => {
        if $strategies.tile_width() == 8 {
            const $w: usize = 8;
            $sweep
        } else {
            const $w: usize = 1;
            $sweep
        }
    };
}

/// A kernel body over the RHS columns `j0..j0 + W`, monomorphized per
/// width: one output row's tile ([`emit_row`]), one BCSR row range's,
/// or one whole merge-path sweep.
trait ColumnTile {
    fn tile<const W: usize>(&mut self, j0: usize);
}

/// Covers columns `0..k` with `W`-wide tiles, then finishes the
/// `k % W` tail with at most one 4-, one 2- and one 1-wide tile. Lanes
/// never mix, so every column keeps its stream order at every width.
#[inline(always)]
fn ladder<const W: usize>(k: usize, body: &mut impl ColumnTile) {
    let mut j0 = 0;
    while j0 + W <= k {
        body.tile::<W>(j0);
        j0 += W;
    }
    if W > 4 && j0 + 4 <= k {
        body.tile::<4>(j0);
        j0 += 4;
    }
    if W > 2 && j0 + 2 <= k {
        body.tile::<2>(j0);
        j0 += 2;
    }
    if W > 1 && j0 < k {
        body.tile::<1>(j0);
    }
}

/// One output row's tile of `W` column dot products, each lane in its
/// format's basic-SpMV order.
trait RowTile<T> {
    fn tile<const W: usize>(&self, x: &[T], k: usize, j0: usize) -> [T; W];
}

/// Writes one output row's `k` columns `yr` once, tile by tile along
/// the [`ladder`].
#[inline(always)]
fn emit_row<T: Scalar, const W: usize>(yr: &mut [T], x: &[T], row: impl RowTile<T>) {
    struct Emit<'a, T, R> {
        yr: &'a mut [T],
        x: &'a [T],
        row: R,
    }
    impl<T: Scalar, R: RowTile<T>> ColumnTile for Emit<'_, T, R> {
        #[inline(always)]
        fn tile<const W: usize>(&mut self, j0: usize) {
            let k = self.yr.len();
            let t = self.row.tile::<W>(self.x, k, j0);
            self.yr[j0..j0 + W].copy_from_slice(&t);
        }
    }
    ladder::<W>(yr.len(), &mut Emit { yr, x, row });
}

/// Adds one stored entry `(c, v)` to the lane accumulators: lane `l`
/// takes `v * x[c * k + j0 + l]`.
#[inline(always)]
fn add_entry<T: Scalar, const W: usize>(
    acc: &mut [T; W],
    c: usize,
    v: T,
    x: &[T],
    k: usize,
    j0: usize,
) {
    let xb = &x[c * k + j0..c * k + j0 + W];
    for (a, &xv) in acc.iter_mut().zip(xb) {
        *a += v * xv;
    }
}

/// [`add_entry`] over entries `(idx, val)` in stream order.
#[inline(always)]
fn add_entries<T: Scalar, const W: usize>(
    acc: &mut [T; W],
    idx: &[u32],
    val: &[T],
    x: &[T],
    k: usize,
    j0: usize,
) {
    for (&c, &v) in idx.iter().zip(val) {
        add_entry(acc, c as usize, v, x, k, j0);
    }
}

/// One CSR row's (or COO row run's) tile of `W` column dot products,
/// portable body: lane `l` accumulates column `j0 + l` in stream order.
#[inline]
fn row_tile<T: Scalar, const W: usize>(
    idx: &[u32],
    val: &[T],
    x: &[T],
    k: usize,
    j0: usize,
) -> [T; W] {
    let mut acc = [T::ZERO; W];
    add_entries(&mut acc, idx, val, x, k, j0);
    acc
}

/// [`row_tile`] behind the runtime vector-backend dispatch: AVX2 when
/// the policy and CPU allow it (bit-identical, see module docs), the
/// portable body otherwise.
#[inline]
fn row_tile_dispatch<T: Scalar, const W: usize>(
    idx: &[u32],
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

/// A CSR row or COO row run `(idx, val)`; `simd` routes its tiles
/// through [`row_tile_dispatch`].
#[derive(Clone, Copy)]
struct EntryRow<'a, T>(&'a [u32], &'a [T], bool);

impl<T: Scalar> RowTile<T> for EntryRow<'_, T> {
    #[inline(always)]
    fn tile<const W: usize>(&self, x: &[T], k: usize, j0: usize) -> [T; W] {
        let EntryRow(idx, val, simd) = *self;
        if simd {
            row_tile_dispatch::<T, W>(idx, val, x, k, j0)
        } else {
            row_tile::<T, W>(idx, val, x, k, j0)
        }
    }
}

/// The row-major sweep of a row body `row(r)` over the plan's row
/// chunks, each output row written once along the [`ladder`].
fn sweep_rows<T: Scalar, const W: usize, R: RowTile<T>>(
    x: &[T],
    y: &mut [T],
    k: usize,
    bounds: &[usize],
    row: impl Fn(usize) -> R + Sync,
) {
    exec::for_each_row_chunk_scaled(y, bounds, k, |ci, chunk| {
        for (i, yr) in chunk.chunks_exact_mut(k).enumerate() {
            emit_row::<T, W>(yr, x, row(bounds[ci] + i));
        }
    });
}

/// Runs the CSR SpMM variant tagged `strategies` over the plan — the
/// one planned dispatch of this format's batched tier. `Tile8` covers
/// the columns with 8-wide tiles and a 4-2-1 tail (without it:
/// column-at-a-time, the containment reference and the `k = 1`
/// degenerate kernel), `Simd` routes the 8- and 4-wide tiles through
/// the vector backend (bit-identical), and `Merge` replays the plan's
/// entry bounds; otherwise rows fan out over the plan's row chunks
/// (rows are never split, so per-column accumulation order is the same
/// at every fan-out width).
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
    let merge = strategies.contains(Strategy::Merge);
    let entry_bounds = plan
        .entry_bounds
        .as_deref()
        .filter(|eb| merge && plan.chunks() > 1 && eb.len() == plan.bounds.len());
    if let Some(eb) = entry_bounds {
        return by_tile_width!(strategies, |W| {
            csr_merge_with::<_, W>(m, x, y, k, eb, &plan.bounds)
        });
    }
    // A merge variant handed a plan without entry bounds (serial,
    // degraded or foreign) runs the tiled row body over one chunk — the
    // merge kernel's own single-chunk order.
    let whole = [0, m.rows()];
    let bounds = if merge { &whole[..] } else { &plan.bounds[..] };
    let simd = strategies.contains(Strategy::Simd);
    let row = |r| {
        let (idx, val) = m.row(r);
        EntryRow(idx, val, simd)
    };
    by_tile_width!(strategies, |W| sweep_rows::<_, W, _>(x, y, k, bounds, row))
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
        let xb = &x[idx[e] as usize * k + j0..];
        for (a, &xv) in acc.iter_mut().zip(&xb[..W]) {
            *a += val[e] * xv;
        }
    }
    acc
}

/// The merge-path SpMM over validated `bounds` and their aligned
/// `entry_bounds`.
struct MergeSweep<'a, T> {
    m: &'a Csr<T>,
    x: &'a [T],
    y: &'a mut [T],
    k: usize,
    entry_bounds: &'a [usize],
    bounds: &'a [usize],
}

impl<T: Scalar> ColumnTile for MergeSweep<'_, T> {
    /// One column tile's merge-path sweep: the SpMM analogue of
    /// `csr::run_merge_chunks`, with per-chunk carry *tiles* and the
    /// same ascending serial fix-up — bit-stable across replays of one
    /// plan.
    fn tile<const W: usize>(&mut self, j0: usize) {
        let MergeSweep {
            m,
            x,
            k,
            entry_bounds,
            bounds,
            ..
        } = *self;
        let chunks = bounds.len() - 1;
        debug_assert!(chunks >= 2, "single-chunk sweeps take the serial path");
        assert!(
            chunks <= MAX_MERGE_CHUNKS,
            "merge fan-out exceeds carry capacity"
        );
        let ptr = m.row_ptr();
        let mut carry = [[T::ZERO; W]; MAX_MERGE_CHUNKS];
        let carry_base = carry.as_mut_ptr() as usize;
        let y_base = self.y.as_mut_ptr() as usize;
        exec::for_each_chunk(chunks, &|ci| {
            let (e0, e1) = (entry_bounds[ci], entry_bounds[ci + 1]);
            let (w0, w1) = (bounds[ci], bounds[ci + 1]);
            let head_end = if w0 < w1 { ptr[w0].min(e1) } else { e1 };
            if e0 < head_end {
                let c = segment_tile::<T, W>(m, e0, head_end, x, k, j0);
                // SAFETY: each chunk index is claimed exactly once and
                // writes only its own carry slot; `ci < chunks <=
                // MAX_MERGE_CHUNKS` keeps the write in bounds, and the
                // carry array outlives the fan-out (the caller
                // participates in the pool drain before `for_each_chunk`
                // returns).
                unsafe { *(carry_base as *mut [T; W]).add(ci) = c };
            }
            for r in w0..w1 {
                let v = segment_tile::<T, W>(m, ptr[r], ptr[r + 1].min(e1), x, k, j0);
                // SAFETY: row ownership is a partition (validated
                // bounds), so no two chunks write the same output tile;
                // `r < rows` and `j0 + W <= k` keep the writes within `y`.
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
                    self.y[(w0 - 1) * k + j0 + l] += c;
                }
            }
        }
    }
}

/// Drives the merge-path SpMM: one sweep per column tile along the
/// [`ladder`].
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
    let mut sweep = MergeSweep {
        m,
        x,
        y,
        k,
        entry_bounds,
        bounds,
    };
    ladder::<W>(k, &mut sweep);
}

/// One ELL row: packed slots in ascending order, padding included — the
/// basic ELL SpMV's order per column.
#[derive(Clone, Copy)]
struct EllRow<'a, T>(&'a Ell<T>, usize);

impl<T: Scalar> RowTile<T> for EllRow<'_, T> {
    #[inline(always)]
    fn tile<const W: usize>(&self, x: &[T], k: usize, j0: usize) -> [T; W] {
        let EllRow(m, r) = *self;
        let (rows, data, idx) = (m.rows(), m.data(), m.indices());
        let mut acc = [T::ZERO; W];
        for p in 0..m.width() {
            add_entry(
                &mut acc,
                idx[p * rows + r] as usize,
                data[p * rows + r],
                x,
                k,
                j0,
            );
        }
        acc
    }
}

/// Runs the ELL SpMM variant tagged `strategies` over the plan's row
/// chunks (no `Tile8`: column-at-a-time, the format's containment
/// reference).
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
    let bounds = &plan.bounds;
    by_tile_width!(strategies, |W| sweep_rows::<_, W, _>(
        x,
        y,
        k,
        bounds,
        |r| EllRow(m, r)
    ))
}

/// One DIA row: diagonals in offset order, each where its column
/// `r + off` exists (fill included) — the basic DIA SpMV's order per
/// column.
#[derive(Clone, Copy)]
struct DiaRow<'a, T>(&'a Dia<T>, usize);

impl<T: Scalar> RowTile<T> for DiaRow<'_, T> {
    #[inline(always)]
    fn tile<const W: usize>(&self, x: &[T], k: usize, j0: usize) -> [T; W] {
        let DiaRow(m, r) = *self;
        let (rows, cols, data) = (m.rows(), m.cols(), m.data());
        let mut acc = [T::ZERO; W];
        for (d, &off) in m.offsets().iter().enumerate() {
            let c = r.wrapping_add_signed(off);
            if c < cols {
                add_entry(&mut acc, c, data[d * rows + r], x, k, j0);
            }
        }
        acc
    }
}

/// Runs the DIA SpMM variant tagged `strategies` over the plan's row
/// chunks.
///
/// # Panics
///
/// Same conditions as [`run_csr`].
pub fn run_dia<T: Scalar>(
    m: &Dia<T>,
    x: &[T],
    y: &mut [T],
    k: usize,
    plan: &ExecPlan,
    strategies: StrategySet,
) {
    check_dims(m.rows(), m.cols(), x, y, k);
    let bounds = &plan.bounds;
    by_tile_width!(strategies, |W| sweep_rows::<_, W, _>(
        x,
        y,
        k,
        bounds,
        |r| DiaRow(m, r)
    ))
}

/// Advances the cursor `e` over row `r`'s run of a row-sorted entry
/// stream (`row_idx`, ending at `end`) and returns the run.
#[inline]
fn row_run(row_idx: &[u32], e: &mut usize, end: usize, r: usize) -> Range<usize> {
    let lo = *e;
    while *e < end && row_idx[*e] as usize == r {
        *e += 1;
    }
    lo..*e
}

fn coo_chunks<T: Scalar, const W: usize>(
    m: &Coo<T>,
    x: &[T],
    y: &mut [T],
    k: usize,
    entry_bounds: &[usize],
    row_bounds: &[usize],
) {
    let (row_idx, col_idx, values) = (m.row_idx(), m.col_idx(), m.values());
    exec::for_each_row_chunk_scaled(y, row_bounds, k, |ci, chunk| {
        let (r0, mut e, end) = (row_bounds[ci], entry_bounds[ci], entry_bounds[ci + 1]);
        for (i, yr) in chunk.chunks_exact_mut(k).enumerate() {
            let run = row_run(row_idx, &mut e, end, r0 + i);
            let row = EntryRow(&col_idx[run.clone()], &values[run], false);
            emit_row::<T, W>(yr, x, row);
        }
        assert_eq!(e, end, "entry bounds must align with the plan's row chunks");
    });
}

/// Runs the COO SpMM variant tagged `strategies` over the plan's
/// entry-aligned chunks (or the whole entry range as one chunk, exactly
/// like [`crate::coo::run`]): each row's run of entries streams through
/// the tile accumulators in entry order.
///
/// # Panics
///
/// Same conditions as [`run_csr`], plus entry bounds that do not align
/// with the plan's row bounds.
pub fn run_coo<T: Scalar>(
    m: &Coo<T>,
    x: &[T],
    y: &mut [T],
    k: usize,
    plan: &ExecPlan,
    strategies: StrategySet,
) {
    check_dims(m.rows(), m.cols(), x, y, k);
    crate::coo::with_entry_chunks(m, plan, |entry_bounds, row_bounds| {
        by_tile_width!(strategies, |W| {
            coo_chunks::<_, W>(m, x, y, k, entry_bounds, row_bounds)
        })
    })
}

/// One HYB row: the ELL part's slots, then the row's run of COO
/// overflow entries — the basic HYB SpMV's order per column.
#[derive(Clone, Copy)]
struct HybRow<'a, T>(EllRow<'a, T>, EntryRow<'a, T>);

impl<T: Scalar> RowTile<T> for HybRow<'_, T> {
    #[inline(always)]
    fn tile<const W: usize>(&self, x: &[T], k: usize, j0: usize) -> [T; W] {
        let HybRow(ell, EntryRow(idx, val, _)) = *self;
        let mut acc = ell.tile(x, k, j0);
        add_entries(&mut acc, idx, val, x, k, j0);
        acc
    }
}

fn hyb_chunks<T: Scalar, const W: usize>(
    m: &Hyb<T>,
    x: &[T],
    y: &mut [T],
    k: usize,
    bounds: &[usize],
) {
    let coo = m.coo_part();
    let (row_idx, col_idx, values) = (coo.row_idx(), coo.col_idx(), coo.values());
    exec::for_each_row_chunk_scaled(y, bounds, k, |ci, chunk| {
        let r0 = bounds[ci];
        let mut e = row_idx.partition_point(|&r| (r as usize) < r0);
        for (i, yr) in chunk.chunks_exact_mut(k).enumerate() {
            let r = r0 + i;
            let run = row_run(row_idx, &mut e, row_idx.len(), r);
            let extra = EntryRow(&col_idx[run.clone()], &values[run], false);
            emit_row::<T, W>(yr, x, HybRow(EllRow(m.ell_part(), r), extra));
        }
    });
}

/// Runs the HYB SpMM variant tagged `strategies` over the plan's row
/// chunks: per row, the ELL slots and then the row's COO overflow run
/// accumulate in registers and the row is written once.
///
/// # Panics
///
/// Same conditions as [`run_csr`].
pub fn run_hyb<T: Scalar>(
    m: &Hyb<T>,
    x: &[T],
    y: &mut [T],
    k: usize,
    plan: &ExecPlan,
    strategies: StrategySet,
) {
    check_dims(m.rows(), m.cols(), x, y, k);
    by_tile_width!(strategies, |W| hyb_chunks::<_, W>(m, x, y, k, &plan.bounds))
}

/// BCSR SpMM over rows `[r0, r1)`, written to that range's slice
/// `y_chunk` of the output.
struct BcsrRows<'a, T> {
    m: &'a Bcsr<T>,
    x: &'a [T],
    y_chunk: &'a mut [T],
    k: usize,
    r0: usize,
    r1: usize,
}

impl<T: Scalar> ColumnTile for BcsrRows<'_, T> {
    fn tile<const W: usize>(&mut self, j0: usize) {
        let (m, x, k, r0, r1) = (self.m, self.x, self.k, self.r0, self.r1);
        bcsr_rows_tile::<T, W>(m, x, self.y_chunk, k, r0, r1, j0);
    }
}

/// One column tile `[j0, j0 + W)` of [`BcsrRows`]: per block row,
/// `br * W` partial sums stay in registers while the row's blocks
/// stream left to right (columns left to right within a block — the
/// same order as the basic BCSR SpMV per output column). Kept out of
/// line: inlined once per ladder width into the chunk loop, the 8-wide
/// body ran at about half speed.
#[inline(never)]
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
            let c0 = bcol[e] as usize * bc;
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

fn bcsr_chunks<T: Scalar, const W: usize>(
    m: &Bcsr<T>,
    x: &[T],
    y: &mut [T],
    k: usize,
    bounds: &[usize],
) {
    exec::for_each_row_chunk_scaled(y, bounds, k, |ci, y_chunk| {
        let (r0, r1) = (bounds[ci], bounds[ci + 1]);
        ladder::<W>(
            k,
            &mut BcsrRows {
                m,
                x,
                y_chunk,
                k,
                r0,
                r1,
            },
        );
    });
}

/// Runs the BCSR SpMM variant tagged `strategies` over the plan's row
/// chunks, for both block sizes (no `Tile8`: column-at-a-time, the
/// containment reference).
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
    by_tile_width!(strategies, |W| bcsr_chunks::<_, W>(
        m,
        x,
        y,
        k,
        &plan.bounds
    ))
}

/// A format's SpMM variant table. Every table is column-at-a-time
/// (row 0, the containment reference), serial tiles, and the same
/// tiles fanned out over the plan's chunks (COO's replays the
/// entry-aligned plan of its SpMV fan-out); CSR adds SIMD-tiled and
/// merge-path tiled rows.
pub fn variants(format: Format) -> Vec<KernelInfo> {
    use Strategy::*;
    macro_rules! tiled_rows {
        ($prefix:literal) => {
            kernel_rows(&[
                (concat!($prefix, "_spmm_basic"), &[]),
                (concat!($prefix, "_spmm_t8"), &[Tile8]),
                (concat!($prefix, "_spmm_parallel_t8"), &[Parallel, Tile8]),
            ])
        };
    }
    match format {
        Format::Csr => kernel_rows(&[
            ("csr_spmm_basic", &[]),
            ("csr_spmm_t8", &[Tile8]),
            ("csr_spmm_simd_t8", &[Tile8, Simd]),
            ("csr_spmm_parallel_t8", &[Parallel, Tile8]),
            ("csr_spmm_merge_t8", &[Parallel, Merge, Tile8]),
        ]),
        Format::Dia => tiled_rows!("dia"),
        Format::Ell => tiled_rows!("ell"),
        Format::Coo => tiled_rows!("coo"),
        Format::Hyb => tiled_rows!("hyb"),
        Format::Bcsr2 => tiled_rows!("bcsr2"),
        Format::Bcsr4 => tiled_rows!("bcsr4"),
    }
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
        idx: &[u32],
        val: &[f64],
        x: &[f64],
        k: usize,
        j0: usize,
    ) -> [f64; 4] {
        let mut acc = _mm256_setzero_pd();
        for (e, &c) in idx.iter().enumerate() {
            let vv = _mm256_set1_pd(val[e]);
            let vx = _mm256_loadu_pd(x.as_ptr().add(c as usize * k + j0));
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
        idx: &[u32],
        val: &[f64],
        x: &[f64],
        k: usize,
        j0: usize,
    ) -> [f64; 8] {
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        for (e, &c) in idx.iter().enumerate() {
            let vv = _mm256_set1_pd(val[e]);
            let p = x.as_ptr().add(c as usize * k + j0);
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
        idx: &[u32],
        val: &[f32],
        x: &[f32],
        k: usize,
        j0: usize,
    ) -> [f32; 4] {
        let mut acc = _mm_setzero_ps();
        for (e, &c) in idx.iter().enumerate() {
            let vv = _mm_set1_ps(val[e]);
            let vx = _mm_loadu_ps(x.as_ptr().add(c as usize * k + j0));
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
        idx: &[u32],
        val: &[f32],
        x: &[f32],
        k: usize,
        j0: usize,
    ) -> [f32; 8] {
        let mut acc = _mm256_setzero_ps();
        for (e, &c) in idx.iter().enumerate() {
            let vv = _mm256_set1_ps(val[e]);
            let vx = _mm256_loadu_ps(x.as_ptr().add(c as usize * k + j0));
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
    use crate::registry::{KernelId, KernelLibrary, Op};
    use smat_matrix::gen::{power_law, random_uniform};
    use smat_matrix::{AnyMatrix, ConversionLimits, Format};

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
        for k in [1usize, 2, 3, 5, 6, 8, 9, 12, 15] {
            let x: Vec<f64> = (0..m.cols() * k).map(|i| (i as f64 * 0.31).sin()).collect();
            let expect = per_column_reference(&m, &x, k);
            // Row-granular kernels never reassociate a column's sum, so
            // they are bitwise on arbitrary (non-dyadic) values under
            // every plan.
            for info in variants(Format::Csr) {
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
        for k in [1usize, 3, 4, 6, 8, 10, 12, 15] {
            let x = dyadic_x(64, k);
            let expect = per_column_reference(&m, &x, k);
            for info in variants(Format::Csr) {
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
        let merge_t8: StrategySet = [Strategy::Parallel, Strategy::Merge, Strategy::Tile8]
            .into_iter()
            .collect();
        let plan = merge_plan(&m, 6);
        let mut y1 = vec![f64::NAN; 600 * k];
        let mut y2 = vec![f64::NAN; 600 * k];
        run_csr(&m, &x, &mut y1, k, &plan, merge_t8);
        run_csr(&m, &x, &mut y2, k, &plan, merge_t8);
        assert!(y1.iter().zip(&y2).all(|(a, b)| a == b), "replay unstable");
        // Degraded (serial) plan: still correct, serial order.
        let mut y3 = vec![f64::NAN; 600 * k];
        run_csr(&m, &x, &mut y3, k, &ExecPlan::serial(600), merge_t8);
        assert!(bitwise(&y3, &per_column_reference(&m, &x, k)));
    }

    #[test]
    fn empty_rows_and_k1_degenerate() {
        let m = Csr::<f64>::from_triplets(4, 4, &[(1, 1, 2.0)]).unwrap();
        let x = dyadic_x(4, 1);
        let expect = per_column_reference(&m, &x, 1);
        for info in variants(Format::Csr) {
            for plan in plans(&m) {
                let mut y = vec![f64::NAN; 4];
                run_csr(&m, &x, &mut y, 1, &plan, info.strategies);
                assert_eq!(y, expect, "{}", info.name);
            }
        }
    }

    /// `k` calls of the format's own basic SpMV (variant 0, serial plan)
    /// on gathered columns: what the engine served for DIA, COO and HYB
    /// before they had a batched tier.
    fn per_column_basic(
        lib: &KernelLibrary<f64>,
        m: &AnyMatrix<f64>,
        x: &[f64],
        k: usize,
    ) -> Vec<f64> {
        let mut expect = vec![0.0; m.rows() * k];
        let serial = ExecPlan::serial(m.rows());
        for j in 0..k {
            let xj: Vec<f64> = (0..m.cols()).map(|c| x[c * k + j]).collect();
            let mut yj = vec![f64::NAN; m.rows()];
            lib.run_planned(m, 0, &serial, &xj, &mut yj);
            for r in 0..m.rows() {
                expect[r * k + j] = yj[r];
            }
        }
        expect
    }

    /// Row-major sweeps keep each element in its format's basic SpMV
    /// order, so every row of every row-granular format is bitwise equal
    /// to k basic SpMV calls on arbitrary values (fill, padding and the
    /// HYB overflow included), under the serial plan, the default plan
    /// and an odd fan-out.
    #[test]
    fn row_major_sweeps_match_their_basic_spmv_bitwise() {
        use smat_matrix::gen::{banded, fixed_degree, random_skewed};
        let lib = KernelLibrary::<f64>::new();
        let inputs = [
            (
                Format::Dia,
                banded::<f64>(211, &[-37, -2, 0, 1, 53], 0.6, 7),
            ),
            (
                Format::Dia,
                Csr::from_triplets(5, 9, &[(0, 8, 1.5), (4, 0, -2.0)]).unwrap(),
            ),
            (Format::Coo, power_law::<f64>(400, 120, 1.9, 11)),
            (Format::Hyb, random_skewed::<f64>(300, 280, 6, 0.05, 12, 4)),
            (Format::Ell, fixed_degree::<f64>(207, 190, 5, 2, 19)),
        ];
        for (format, csr) in inputs {
            let any =
                AnyMatrix::convert_from_csr_with(&csr, format, &ConversionLimits::unlimited())
                    .unwrap();
            if let AnyMatrix::Hyb(h) = &any {
                assert!(h.coo_part().nnz() > 0, "want a nonempty overflow part");
            }
            for k in [1usize, 3, 4, 6, 8, 9, 12, 15, 17] {
                let x: Vec<f64> = (0..csr.cols() * k)
                    .map(|i| (i as f64 * 0.37).sin())
                    .collect();
                let expect = per_column_basic(&lib, &any, &x, k);
                for (v, info) in lib.spmm_variants(format).iter().enumerate() {
                    let id = KernelId {
                        op: Op::Spmm,
                        format,
                        variant: v,
                    };
                    let policy = lib.chunk_policy(&any, id);
                    for plan in [
                        ExecPlan::serial(any.rows()),
                        lib.plan_for(&any, id),
                        lib.build_plan_sized(&any, policy, 3),
                    ] {
                        let mut y = vec![f64::NAN; any.rows() * k];
                        lib.run_spmm_planned(&any, v, &plan, &x, &mut y, k);
                        assert!(
                            bitwise(&y, &expect),
                            "{} @ k={k} under {}",
                            info.name,
                            plan.policy
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "entry bounds must align")]
    fn coo_rejects_entry_bounds_of_another_matrix() {
        let coo = Coo::from_csr(&random_uniform::<f64>(40, 40, 3, 5));
        // Right entry count, wrong row split: chunk 0 claims rows 0..2
        // but is handed the first half of the entries.
        let half = coo.nnz() / 2;
        let plan = ExecPlan::chunked(
            ChunkPolicy::EntryAligned,
            vec![0, 2, 40],
            Some(vec![0, half, coo.nnz()]),
        );
        let mut y = vec![0.0; 40 * 2];
        run_coo(&coo, &[1.0; 80], &mut y, 2, &plan, StrategySet::EMPTY);
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
