//! CSR SpMV kernel variants.
//!
//! One planned entry point ([`run`]) spanning the strategy lattice from
//! the basic loop through register blocking, threading, nonzero
//! balancing and merge-path:
//! the strategy set picks the row body, the [`ExecPlan`] says how the
//! rows fan out (a serial variant is the one-chunk plan). All compute
//! `y = A * x` and `assert!` the vector lengths in debug and release.

use crate::exec;
use crate::partition::MAX_MERGE_CHUNKS;
use crate::plan::ExecPlan;
use crate::registry::{kernel_rows, KernelInfo};
use crate::strategy::{Strategy, StrategySet};
use smat_matrix::{Csr, Scalar};

#[inline]
fn check_dims<T: Scalar>(m: &Csr<T>, x: &[T], y: &[T]) {
    assert_eq!(x.len(), m.cols(), "x length must equal matrix columns");
    assert_eq!(y.len(), m.rows(), "y length must equal matrix rows");
}

/// One row's dot product accumulated sequentially in stream order — the
/// inner loop of the paper's Figure 2(a).
#[inline]
fn row_scalar<T: Scalar>(idx: &[usize], val: &[T], x: &[T]) -> T {
    let mut acc = T::ZERO;
    for (&c, &v) in idx.iter().zip(val) {
        acc += v * x[c];
    }
    acc
}

/// Rows `r0..r0 + y_chunk.len()` of the product, each in stream order.
#[inline]
fn rows_into<T: Scalar>(m: &Csr<T>, x: &[T], y_chunk: &mut [T], r0: usize) {
    for (i, yr) in y_chunk.iter_mut().enumerate() {
        let (idx, val) = m.row(r0 + i);
        *yr = row_scalar(idx, val, x);
    }
}

/// Basic serial CSR SpMV — the paper's Figure 2(a) loop, and the
/// denominator of the "SMAT overhead" column in Table 3.
pub fn basic<T: Scalar>(m: &Csr<T>, x: &[T], y: &mut [T]) {
    check_dims(m, x, y);
    rows_into(m, x, y, 0);
}

/// Rows `r0..r0 + y_chunk.len()` with two-row register blocking:
/// adjacent rows are computed with interleaved accumulators, doubling
/// the independent dependency chains in flight. Each row still sums in
/// stream order, so the pairing never changes a row's value.
fn rows_blocked2<T: Scalar>(m: &Csr<T>, x: &[T], y_chunk: &mut [T], r0: usize) {
    let n = y_chunk.len();
    for p in 0..n / 2 {
        let i = 2 * p;
        let (ia, va) = m.row(r0 + i);
        let (ib, vb) = m.row(r0 + i + 1);
        let common = ia.len().min(ib.len());
        let mut acc_a = T::ZERO;
        let mut acc_b = T::ZERO;
        for k in 0..common {
            acc_a += va[k] * x[ia[k]];
            acc_b += vb[k] * x[ib[k]];
        }
        for k in common..ia.len() {
            acc_a += va[k] * x[ia[k]];
        }
        for k in common..ib.len() {
            acc_b += vb[k] * x[ib[k]];
        }
        y_chunk[i] = acc_a;
        y_chunk[i + 1] = acc_b;
    }
    if n % 2 == 1 {
        let (idx, val) = m.row(r0 + n - 1);
        y_chunk[n - 1] = row_scalar(idx, val, x);
    }
}

/// Runs the CSR variant tagged `strategies` over the plan's chunks —
/// the one planned dispatch of this format. `Merge` replays the plan's
/// entry bounds, `Block` selects the two-row body, otherwise the basic
/// row loop; row chunks fan out over the pool, a one-chunk plan runs
/// inline on the caller.
///
/// # Panics
///
/// Panics on mismatched vector lengths or malformed plan bounds.
pub fn run<T: Scalar>(m: &Csr<T>, x: &[T], y: &mut [T], plan: &ExecPlan, strategies: StrategySet) {
    check_dims(m, x, y);
    if strategies.contains(Strategy::Merge) {
        return run_merge(m, x, y, plan);
    }
    let bounds = &plan.bounds[..];
    if strategies.contains(Strategy::Block) {
        exec::for_each_row_chunk(y, bounds, |ci, chunk| {
            rows_blocked2(m, x, chunk, bounds[ci]);
        });
    } else {
        exec::for_each_row_chunk(y, bounds, |ci, chunk| {
            rows_into(m, x, chunk, bounds[ci]);
        });
    }
}

/// Dot product of one contiguous entry segment `lo..hi`, accumulated
/// sequentially in stream order — the same association a row gets in
/// [`basic`], so a segment covering a whole row is bit-identical to
/// the basic kernel's value for that row.
#[inline]
fn segment_dot<T: Scalar>(m: &Csr<T>, lo: usize, hi: usize, x: &[T]) -> T {
    row_scalar(&m.col_idx()[lo..hi], &m.values()[lo..hi], x)
}

/// Merge-path execution over precomputed entry/row bounds.
///
/// Reduction-order contract (the bit-stable replay guarantee): chunk
/// `i` accumulates each owned row's in-range entries sequentially in
/// stream order and writes the partial straight into `y`; entries
/// ahead of the first owned row (the tail of a row split by `e_i`) are
/// accumulated into a per-chunk carry slot. A serial fix-up pass then
/// adds the carries in ascending chunk order, so a row split across
/// chunks `i-1, i, i+1` always reduces as
/// `(partial_{i-1} + carry_i) + carry_{i+1}` regardless of how the
/// pool scheduled the chunks. Splitting rows reassociates the sum, so
/// the result matches [`basic`] bitwise only on values where addition
/// is exact (the dyadic-rational differential corpus) — and matches
/// any replay of the same plan bitwise on all values.
fn run_merge_chunks<T: Scalar>(
    m: &Csr<T>,
    x: &[T],
    y: &mut [T],
    entry_bounds: &[usize],
    bounds: &[usize],
) {
    exec::validate_bounds(bounds, y.len());
    assert_eq!(
        entry_bounds.len(),
        bounds.len(),
        "entry bounds must align with row bounds"
    );
    assert_eq!(entry_bounds[0], 0, "entry bounds must start at 0");
    assert_eq!(
        *entry_bounds.last().expect("non-empty"),
        m.nnz(),
        "entry bounds must end at nnz"
    );
    assert!(
        entry_bounds.windows(2).all(|w| w[0] <= w[1]),
        "entry bounds must be non-decreasing"
    );
    let chunks = bounds.len() - 1;
    if chunks == 1 {
        return basic(m, x, y);
    }
    assert!(
        chunks <= MAX_MERGE_CHUNKS,
        "merge fan-out exceeds carry capacity"
    );
    let ptr = m.row_ptr();
    let mut carry = [T::ZERO; MAX_MERGE_CHUNKS];
    let carry_base = carry.as_mut_ptr() as usize;
    let y_base = y.as_mut_ptr() as usize;
    exec::for_each_chunk(chunks, &|ci| {
        let (e0, e1) = (entry_bounds[ci], entry_bounds[ci + 1]);
        let (w0, w1) = (bounds[ci], bounds[ci + 1]);
        // Entries ahead of the first owned row belong to a row owned by
        // an earlier chunk: accumulate them into this chunk's carry slot.
        let head_end = if w0 < w1 { ptr[w0].min(e1) } else { e1 };
        if e0 < head_end {
            let c = segment_dot(m, e0, head_end, x);
            // SAFETY: each chunk index is claimed exactly once by the
            // backend and writes only its own carry slot; `ci < chunks
            // <= MAX_MERGE_CHUNKS` keeps the write in bounds. The carry
            // array outlives the fan-out because the caller participates
            // in the pool drain before `for_each_chunk` returns.
            unsafe { *(carry_base as *mut T).add(ci) = c };
        }
        for r in w0..w1 {
            let lo = ptr[r];
            let hi = ptr[r + 1].min(e1);
            let v = segment_dot(m, lo, hi, x);
            // SAFETY: row ownership is a partition (validated bounds),
            // so no two chunks write the same y slot; `r < rows` because
            // bounds end at `y.len()`.
            unsafe { *(y_base as *mut T).add(r) = v };
        }
    });
    // Serial fix-up in ascending chunk order: fixed association, so
    // replaying the same plan is bit-identical run to run.
    for ci in 1..chunks {
        let (e0, e1) = (entry_bounds[ci], entry_bounds[ci + 1]);
        let (w0, w1) = (bounds[ci], bounds[ci + 1]);
        let head_end = if w0 < w1 { ptr[w0].min(e1) } else { e1 };
        if e0 < head_end {
            y[w0 - 1] += carry[ci];
        }
    }
}

/// The merge-path kernel over a plan: equal entry ranges that may cut
/// rows mid-stream, with carries fixed up serially — parallel even when
/// one row holds most of the matrix.
///
/// A plan without entry bounds (a serial plan from degraded mode, or a
/// foreign row-chunk plan) falls back to the serial basic loop, which
/// is the merge kernel's own single-chunk execution order.
fn run_merge<T: Scalar>(m: &Csr<T>, x: &[T], y: &mut [T], plan: &ExecPlan) {
    match &plan.entry_bounds {
        Some(eb) if eb.len() == plan.bounds.len() && plan.chunks() > 1 => {
            run_merge_chunks(m, x, y, eb, &plan.bounds)
        }
        _ => basic(m, x, y),
    }
}

/// The CSR variant table: every strategy set [`run`] implements, in a
/// stable order (row 0 is the basic kernel).
pub fn variants() -> Vec<KernelInfo> {
    use Strategy::*;
    kernel_rows(&[
        ("csr_basic", &[]),
        ("csr_block2", &[Block]),
        ("csr_parallel", &[Parallel]),
        ("csr_parallel_balanced", &[Parallel, Balance]),
        ("csr_merge", &[Parallel, Merge]),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::merge_path_bounds;
    use crate::plan::ChunkPolicy;
    use smat_matrix::gen::{power_law, random_uniform};
    use smat_matrix::utils::max_abs_diff;

    fn reference<T: Scalar>(m: &Csr<T>, x: &[T]) -> Vec<T> {
        let mut y = vec![T::ZERO; m.rows()];
        m.spmv(x, &mut y).unwrap();
        y
    }

    fn merge_plan<T: Scalar>(m: &Csr<T>, parts: usize) -> ExecPlan {
        let (entry_bounds, bounds) = merge_path_bounds(m, parts);
        ExecPlan::chunked(ChunkPolicy::MergePath, bounds, Some(entry_bounds))
    }

    /// The plans every variant must be correct under: the one-chunk
    /// serial plan, a row-chunk fan-out, and a merge-path split.
    fn plans<T: Scalar>(m: &Csr<T>) -> Vec<ExecPlan> {
        let mut plans = ExecPlan::serial_and_fan_out(m.rows()).to_vec();
        plans.push(merge_plan(m, 3));
        plans
    }

    #[test]
    fn all_variants_match_reference() {
        let m = random_uniform::<f64>(311, 277, 9, 17);
        let x: Vec<f64> = (0..m.cols()).map(|i| (i as f64 * 0.37).sin()).collect();
        let expect = reference(&m, &x);
        for info in variants() {
            for plan in plans(&m) {
                let mut y = vec![f64::NAN; m.rows()];
                run(&m, &x, &mut y, &plan, info.strategies);
                assert!(
                    max_abs_diff(&y, &expect) < 1e-12,
                    "{} under {} diverges from reference",
                    info.name,
                    plan.policy
                );
            }
        }
    }

    #[test]
    fn variants_match_on_power_law() {
        let m = power_law::<f32>(500, 120, 2.0, 3);
        let x: Vec<f32> = (0..m.cols()).map(|i| 1.0 + (i % 7) as f32).collect();
        let expect = reference(&m, &x);
        for info in variants() {
            for plan in plans(&m) {
                let mut y = vec![0.0f32; m.rows()];
                run(&m, &x, &mut y, &plan, info.strategies);
                assert!(max_abs_diff(&y, &expect) < 1e-2, "{} diverges", info.name);
            }
        }
    }

    #[test]
    fn empty_rows_produce_zeros() {
        let m = Csr::<f64>::from_triplets(4, 4, &[(1, 1, 2.0)]).unwrap();
        let x = [1.0; 4];
        for info in variants() {
            for plan in plans(&m) {
                let mut y = [9.0; 4];
                run(&m, &x, &mut y, &plan, info.strategies);
                assert_eq!(y, [0.0, 2.0, 0.0, 0.0], "{}", info.name);
            }
        }
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn dimension_mismatch_panics() {
        let m = Csr::<f64>::identity(3);
        let mut y = [0.0; 3];
        basic(&m, &[1.0; 2], &mut y);
    }

    #[test]
    fn merge_splits_a_hot_row_bitwise_on_dyadic_values() {
        // Row 0 holds 64 of 80 entries; dyadic values make every
        // association order exact, so merge must equal basic bitwise
        // even when its chunks cut row 0 mid-stream.
        let mut triplets: Vec<(usize, usize, f64)> =
            (0..64).map(|c| (0, c, 0.25 * (1 + c % 5) as f64)).collect();
        triplets.extend((1..17).map(|r| (r, r % 64, 0.5 * (r % 3) as f64)));
        let m = Csr::from_triplets(17, 64, &triplets).unwrap();
        let x: Vec<f64> = (0..64).map(|i| 0.5 * (i % 9) as f64 - 1.0).collect();
        let mut expect = vec![f64::NAN; 17];
        basic(&m, &x, &mut expect);
        let merge: StrategySet = [Strategy::Parallel, Strategy::Merge].into_iter().collect();
        for parts in [2, 3, 5, 8] {
            let mut y = vec![f64::NAN; 17];
            run(&m, &x, &mut y, &merge_plan(&m, parts), merge);
            assert!(
                y.iter().zip(&expect).all(|(a, b)| a == b),
                "merge @ {parts} parts diverges bitwise"
            );
        }
    }

    #[test]
    fn merge_without_entry_bounds_falls_back_serially() {
        let m = random_uniform::<f64>(50, 50, 4, 21);
        let x = vec![1.0; 50];
        let mut expect = vec![0.0; 50];
        basic(&m, &x, &mut expect);
        let mut y = vec![f64::NAN; 50];
        run_merge(&m, &x, &mut y, &ExecPlan::serial(50));
        assert!(y.iter().zip(&expect).all(|(a, b)| a == b));
    }
}
