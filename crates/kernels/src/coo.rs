//! COO SpMV kernel variants.
//!
//! Every variant keeps the paper's Figure 2(b) loop over an entry
//! range. The fan-out exploits the sorted-by-row invariant of [`Coo`]:
//! entry ranges are snapped to row boundaries so each pool task owns a
//! disjoint slice of `y` and no atomics are needed. A serial variant is
//! the one-chunk plan over the whole entry range.

use crate::exec;
use crate::plan::ExecPlan;
use crate::registry::{kernel_rows, KernelInfo};
use crate::strategy::{Strategy, StrategySet};
use smat_matrix::{Coo, Scalar};

#[inline]
fn check_dims<T: Scalar>(m: &Coo<T>, x: &[T], y: &[T]) {
    assert_eq!(x.len(), m.cols(), "x length must equal matrix columns");
    assert_eq!(y.len(), m.rows(), "y length must equal matrix rows");
}

/// Computes entry-range boundaries snapped to row starts, and the
/// corresponding row boundaries, such that each entry chunk touches a
/// disjoint row range.
pub(crate) fn row_aligned_chunks<T: Scalar>(m: &Coo<T>, parts: usize) -> (Vec<usize>, Vec<usize>) {
    let nnz = m.nnz();
    let rows_arr = m.row_idx();
    let mut entry_bounds = vec![0usize];
    let mut row_bounds = vec![0usize];
    let target = nnz.div_ceil(parts.max(1));
    let mut k = target;
    while k < nnz {
        // Snap forward to the first entry of the next row.
        let row_here = rows_arr[k];
        let mut snapped = k;
        while snapped < nnz && rows_arr[snapped] == row_here {
            snapped += 1;
        }
        // Only create a boundary if it advances past the previous one.
        if snapped < nnz && snapped > *entry_bounds.last().expect("non-empty") {
            entry_bounds.push(snapped);
            row_bounds.push(rows_arr[snapped]);
        }
        k = snapped.max(k) + target;
    }
    entry_bounds.push(nnz);
    row_bounds.push(m.rows());
    (entry_bounds, row_bounds)
}

/// Scatters entries `s..e` into `y_chunk` (whose index 0 is global row
/// `r0`), optionally 4-way unrolled over entries.
///
/// Unlike CSR, accumulators cannot be split across lanes (two lanes may
/// target the same output row), so the unroll only restructures the loop
/// to shorten the dependency chains of index arithmetic.
#[inline]
fn scatter<T: Scalar>(
    m: &Coo<T>,
    x: &[T],
    y_chunk: &mut [T],
    r0: usize,
    (s, e): (usize, usize),
    unroll: bool,
) {
    let (rows, cols, vals) = (&m.row_idx()[s..e], &m.col_idx()[s..e], &m.values()[s..e]);
    let n = vals.len();
    let quads = if unroll { n / 4 } else { 0 };
    for q in 0..quads {
        let k = 4 * q;
        let p0 = vals[k] * x[cols[k]];
        let p1 = vals[k + 1] * x[cols[k + 1]];
        let p2 = vals[k + 2] * x[cols[k + 2]];
        let p3 = vals[k + 3] * x[cols[k + 3]];
        y_chunk[rows[k] - r0] += p0;
        y_chunk[rows[k + 1] - r0] += p1;
        y_chunk[rows[k + 2] - r0] += p2;
        y_chunk[rows[k + 3] - r0] += p3;
    }
    for k in 4 * quads..n {
        y_chunk[rows[k] - r0] += vals[k] * x[cols[k]];
    }
}

/// Runs the COO variant tagged `strategies` over the plan's row/entry
/// chunk bounds — the one planned dispatch of this format.
///
/// A plan whose entry bounds don't match this matrix (a serial plan, a
/// foreign row-chunk plan, or one built for a different nnz count)
/// scans the whole entry range as one chunk rather than indexing out
/// of range.
///
/// # Panics
///
/// Panics on mismatched vector lengths or malformed plan bounds.
pub fn run<T: Scalar>(m: &Coo<T>, x: &[T], y: &mut [T], plan: &ExecPlan, strategies: StrategySet) {
    check_dims(m, x, y);
    y.fill(T::ZERO);
    let unroll = strategies.contains(Strategy::Unroll);
    with_entry_chunks(m, plan, |entry_bounds, row_bounds| {
        exec::for_each_row_chunk(y, row_bounds, |ci, y_chunk| {
            let entries = (entry_bounds[ci], entry_bounds[ci + 1]);
            scatter(m, x, y_chunk, row_bounds[ci], entries, unroll);
        });
    });
}

/// Calls `f(entry_bounds, row_bounds)` with the plan's entry-aligned
/// chunks when they were built for this matrix's entry count, else
/// with the whole entry range as one chunk — the COO SpMV and SpMM
/// dispatches' shared reading of a plan.
pub(crate) fn with_entry_chunks<T: Scalar, R>(
    m: &Coo<T>,
    plan: &ExecPlan,
    f: impl FnOnce(&[usize], &[usize]) -> R,
) -> R {
    match &plan.entry_bounds {
        Some(eb) if eb.last() == Some(&m.nnz()) && eb.len() == plan.bounds.len() => {
            f(eb, &plan.bounds)
        }
        _ => f(&[0, m.nnz()], &[0, m.rows()]),
    }
}

/// The COO variant table (row 0 is the basic kernel).
///
/// Entry chunks have near-equal nonzero counts by construction, but
/// the parallel rows are tagged `parallel` alone: there is no
/// unbalanced COO fan-out for a `balance` strategy to be scored
/// against.
pub fn variants() -> Vec<KernelInfo> {
    use Strategy::*;
    kernel_rows(&[
        ("coo_basic", &[]),
        ("coo_unroll", &[Unroll]),
        ("coo_parallel", &[Parallel]),
        ("coo_parallel_unroll", &[Parallel, Unroll]),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ChunkPolicy;
    use smat_matrix::gen::{power_law, random_uniform};
    use smat_matrix::utils::max_abs_diff;
    use smat_matrix::Csr;

    fn reference(m: &Csr<f64>, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; m.rows()];
        m.spmv(x, &mut y).unwrap();
        y
    }

    /// The one-chunk serial plan and an entry-aligned fan-out.
    fn plans(m: &Coo<f64>) -> [ExecPlan; 2] {
        let (entry_bounds, bounds) = row_aligned_chunks(m, 5);
        [
            ExecPlan::serial(m.rows()),
            ExecPlan::chunked(ChunkPolicy::EntryAligned, bounds, Some(entry_bounds)),
        ]
    }

    #[test]
    fn all_variants_match_reference() {
        let csr = random_uniform::<f64>(401, 350, 7, 23);
        let coo = Coo::from_csr(&csr);
        let x: Vec<f64> = (0..csr.cols()).map(|i| (i as f64 * 0.11).cos()).collect();
        let expect = reference(&csr, &x);
        for info in variants() {
            for plan in plans(&coo) {
                let mut y = vec![f64::NAN; csr.rows()];
                run(&coo, &x, &mut y, &plan, info.strategies);
                assert!(max_abs_diff(&y, &expect) < 1e-12, "{} diverges", info.name);
            }
        }
    }

    #[test]
    fn fan_out_handles_heavy_rows() {
        // One row holds most entries: chunk snapping must not split it.
        let csr = power_law::<f64>(600, 400, 1.4, 5);
        let coo = Coo::from_csr(&csr);
        let x: Vec<f64> = (0..csr.cols()).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let expect = reference(&csr, &x);
        let [_, fan_out] = plans(&coo);
        for info in variants() {
            let mut y = vec![0.0; csr.rows()];
            run(&coo, &x, &mut y, &fan_out, info.strategies);
            assert!(max_abs_diff(&y, &expect) < 1e-12, "{} diverges", info.name);
        }
    }

    #[test]
    fn row_aligned_chunks_are_disjoint() {
        let csr = random_uniform::<f64>(100, 100, 5, 1);
        let coo = Coo::from_csr(&csr);
        let (eb, rb) = row_aligned_chunks(&coo, 7);
        assert_eq!(eb.len(), rb.len());
        assert_eq!(*eb.last().unwrap(), coo.nnz());
        assert_eq!(*rb.last().unwrap(), coo.rows());
        assert!(eb.windows(2).all(|w| w[0] < w[1]));
        assert!(rb.windows(2).all(|w| w[0] < w[1]));
        // Every chunk's entries fall inside its row range.
        for c in 0..eb.len() - 1 {
            for k in eb[c]..eb[c + 1] {
                assert!(coo.row_idx()[k] >= rb[c] && coo.row_idx()[k] < rb[c + 1]);
            }
        }
    }

    #[test]
    fn empty_matrix_zeroes_output() {
        let coo = Coo::<f64>::new(3, 3, vec![], vec![], vec![]).unwrap();
        for info in variants() {
            for plan in plans(&coo) {
                let mut y = [1.0; 3];
                run(&coo, &[1.0; 3], &mut y, &plan, info.strategies);
                assert_eq!(y, [0.0; 3], "{}", info.name);
            }
        }
    }
}
