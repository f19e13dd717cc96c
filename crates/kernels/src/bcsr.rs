//! BCSR (register-blocked) SpMV kernel variants.
//!
//! Each block row keeps its `br` partial sums in registers while
//! streaming the row's blocks — the register-blocking payoff of
//! Sparsity/OSKI the paper cites. Accumulation order per output row is
//! identical across every variant here (blocks left to right, columns
//! left to right within a block), so the basic, unrolled and parallel
//! variants are all bitwise identical to each other on the same matrix;
//! bitwise agreement with *CSR* kernels is only guaranteed when the
//! blocking introduces no reordering (it never reorders — block columns
//! are sorted — so row sums match CSR's sequential order exactly, with
//! extra exact `+ 0.0 * x[c]` terms from the zero fill).
//!
//! The same planned entry point ([`run`]) serves both the 2x2 and 4x4
//! tables: the block size lives in the [`Bcsr`] value, and the
//! `Unroll` variants dispatch to a fixed-size microkernel when they
//! recognize the shape. A serial variant is the one-chunk plan.

use crate::exec;
use crate::partition::equal_row_bounds;
use crate::plan::ExecPlan;
use crate::registry::{kernel_rows, KernelInfo};
use crate::strategy::{Strategy, StrategySet};
use smat_matrix::{Bcsr, Scalar};

#[inline]
fn check_dims<T: Scalar>(m: &Bcsr<T>, x: &[T], y: &[T]) {
    assert_eq!(x.len(), m.cols(), "x length must equal matrix columns");
    assert_eq!(y.len(), m.rows(), "y length must equal matrix rows");
}

/// Computes the rows `[r0, r1)` of `y_chunk` (whose index 0 is global
/// row `r0`), accumulating each row's blocks left to right. Handles
/// chunk bounds that cut through a block row (a stale or foreign plan),
/// though the planner always emits block-aligned bounds.
fn run_rows_generic<T: Scalar>(m: &Bcsr<T>, x: &[T], y_chunk: &mut [T], r0: usize, r1: usize) {
    let br = m.br();
    let bc = m.bc();
    let cols = m.cols();
    let ptr = m.block_ptr();
    let bcol = m.block_col();
    let values = m.values();
    let mut b = r0 / br;
    while b * br < r1 {
        let base = b * br;
        let i_lo = r0.saturating_sub(base);
        let i_hi = (r1 - base).min(br).min(m.rows() - base);
        let mut acc = [T::ZERO; 8];
        for k in ptr[b]..ptr[b + 1] {
            let c0 = bcol[k] as usize * bc;
            let cn = bc.min(cols - c0);
            let blk = &values[k * br * bc..];
            for (i, a) in acc.iter_mut().enumerate().take(i_hi).skip(i_lo) {
                for j in 0..cn {
                    *a += blk[i * bc + j] * x[c0 + j];
                }
            }
        }
        for i in i_lo..i_hi {
            y_chunk[base + i - r0] = acc[i];
        }
        b += 1;
    }
}

/// 2x2 microkernel over full block rows `[b0, b1)` writing into
/// `y_chunk` (index 0 = global row `b0 * 2`). Same accumulation order
/// as [`run_rows_generic`] — fully unrolled, accumulators in scalars.
fn run_block_rows_2x2<T: Scalar>(m: &Bcsr<T>, x: &[T], y_chunk: &mut [T], b0: usize, b1: usize) {
    let cols = m.cols();
    let rows = m.rows();
    let ptr = m.block_ptr();
    let bcol = m.block_col();
    let values = m.values();
    for b in b0..b1 {
        let base = 2 * b;
        let mut a0 = T::ZERO;
        let mut a1 = T::ZERO;
        for k in ptr[b]..ptr[b + 1] {
            let c0 = bcol[k] as usize * 2;
            let blk = &values[k * 4..k * 4 + 4];
            if c0 + 2 <= cols {
                let x0 = x[c0];
                let x1 = x[c0 + 1];
                a0 += blk[0] * x0;
                a0 += blk[1] * x1;
                a1 += blk[2] * x0;
                a1 += blk[3] * x1;
            } else {
                let x0 = x[c0];
                a0 += blk[0] * x0;
                a1 += blk[2] * x0;
            }
        }
        y_chunk[base - 2 * b0] = a0;
        if base + 1 < rows {
            y_chunk[base + 1 - 2 * b0] = a1;
        }
    }
}

/// 4x4 microkernel over full block rows `[b0, b1)` writing into
/// `y_chunk` (index 0 = global row `b0 * 4`).
fn run_block_rows_4x4<T: Scalar>(m: &Bcsr<T>, x: &[T], y_chunk: &mut [T], b0: usize, b1: usize) {
    let cols = m.cols();
    let rows = m.rows();
    let ptr = m.block_ptr();
    let bcol = m.block_col();
    let values = m.values();
    for b in b0..b1 {
        let base = 4 * b;
        let rn = 4.min(rows - base);
        let mut acc = [T::ZERO; 4];
        for k in ptr[b]..ptr[b + 1] {
            let c0 = bcol[k] as usize * 4;
            let cn = 4.min(cols - c0);
            let blk = &values[k * 16..k * 16 + 16];
            if cn == 4 {
                let x0 = x[c0];
                let x1 = x[c0 + 1];
                let x2 = x[c0 + 2];
                let x3 = x[c0 + 3];
                for (i, a) in acc.iter_mut().enumerate() {
                    let row = &blk[i * 4..i * 4 + 4];
                    *a += row[0] * x0;
                    *a += row[1] * x1;
                    *a += row[2] * x2;
                    *a += row[3] * x3;
                }
            } else {
                for (i, a) in acc.iter_mut().enumerate() {
                    for j in 0..cn {
                        *a += blk[i * 4 + j] * x[c0 + j];
                    }
                }
            }
        }
        for (i, &a) in acc.iter().enumerate().take(rn) {
            y_chunk[base + i - 4 * b0] = a;
        }
    }
}

/// Fans the block rows out over `bounds`: per block row, accumulate
/// blocks left to right with one register per row — through the fully
/// unrolled fixed-size microkernel for 2x2 and 4x4 blocks when `unroll`
/// is set (bit-identical: same accumulation order, more ILP), the
/// generic body otherwise.
#[inline]
fn run_chunks<T: Scalar>(m: &Bcsr<T>, x: &[T], y: &mut [T], bounds: &[usize], unroll: bool) {
    let br = m.br();
    let bc = m.bc();
    exec::for_each_row_chunk(y, bounds, |ci, y_chunk| {
        let (r0, r1) = (bounds[ci], bounds[ci + 1]);
        // The microkernels want whole block rows; use them only when the
        // chunk is block-aligned (the planner's bounds always are).
        let aligned = r0 % br == 0 && (r1 % br == 0 || r1 == m.rows());
        match (unroll, aligned, br, bc) {
            (true, true, 2, 2) => run_block_rows_2x2(m, x, y_chunk, r0 / 2, r1.div_ceil(2)),
            (true, true, 4, 4) => run_block_rows_4x4(m, x, y_chunk, r0 / 4, r1.div_ceil(4)),
            _ => run_rows_generic(m, x, y_chunk, r0, r1),
        }
    });
}

/// Block-row-aligned chunk bounds: equal block rows per chunk, scaled
/// to row indices (the final bound clamps to `rows`).
pub(crate) fn block_aligned_bounds<T: Scalar>(m: &Bcsr<T>, parts: usize) -> Vec<usize> {
    let mut bounds = equal_row_bounds(m.block_rows(), parts);
    for b in &mut bounds {
        *b = (*b * m.br()).min(m.rows());
    }
    bounds
}

/// Runs the BCSR variant tagged `strategies` over the plan's row
/// chunks — the one planned dispatch of both block sizes.
///
/// # Panics
///
/// Panics on mismatched vector lengths or malformed plan bounds.
pub fn run<T: Scalar>(m: &Bcsr<T>, x: &[T], y: &mut [T], plan: &ExecPlan, strategies: StrategySet) {
    check_dims(m, x, y);
    run_chunks(m, x, y, &plan.bounds, strategies.contains(Strategy::Unroll));
}

macro_rules! bcsr_rows {
    ($prefix:literal) => {{
        use Strategy::*;
        kernel_rows(&[
            (concat!($prefix, "_basic"), &[]),
            (concat!($prefix, "_unroll"), &[Unroll]),
            (concat!($prefix, "_parallel_unroll"), &[Parallel, Unroll]),
        ])
    }};
}

/// The 2x2 BCSR variant table (row 0 is the basic kernel).
pub fn variants2() -> Vec<KernelInfo> {
    bcsr_rows!("bcsr2")
}

/// The 4x4 BCSR variant table (row 0 is the basic kernel).
pub fn variants4() -> Vec<KernelInfo> {
    bcsr_rows!("bcsr4")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ChunkPolicy;
    use smat_matrix::gen::{block_sparse, power_law};
    use smat_matrix::utils::max_abs_diff;
    use smat_matrix::{ConversionLimits, Csr};

    fn reference(m: &Csr<f64>, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; m.rows()];
        m.spmv(x, &mut y).unwrap();
        y
    }

    /// Both block sizes of `csr`, each with its variant table.
    fn blockings(csr: &Csr<f64>) -> [(Bcsr<f64>, Vec<KernelInfo>); 2] {
        let convert = |b| Bcsr::from_csr_with(csr, b, b, &ConversionLimits::unlimited()).unwrap();
        [(convert(2), variants2()), (convert(4), variants4())]
    }

    /// The one-chunk serial plan and a block-aligned fan-out.
    fn plans(m: &Bcsr<f64>) -> [ExecPlan; 2] {
        [
            ExecPlan::serial(m.rows()),
            ExecPlan::chunked(
                ChunkPolicy::BlockAligned(m.br()),
                block_aligned_bounds(m, 3),
                None,
            ),
        ]
    }

    #[test]
    fn all_variants_match_reference() {
        for csr in [
            block_sparse::<f64>(128, 4, 6, 5),
            power_law::<f64>(201, 163, 1.8, 11),
        ] {
            let x: Vec<f64> = (0..csr.cols()).map(|i| (i as f64 * 0.23).sin()).collect();
            let expect = reference(&csr, &x);
            for (m, table) in blockings(&csr) {
                for info in table {
                    for plan in plans(&m) {
                        let mut y = vec![f64::NAN; csr.rows()];
                        run(&m, &x, &mut y, &plan, info.strategies);
                        assert!(max_abs_diff(&y, &expect) < 1e-12, "{} diverges", info.name);
                    }
                }
            }
        }
    }

    #[test]
    fn variants_are_bitwise_identical_to_basic() {
        let csr = block_sparse::<f64>(96, 4, 5, 3);
        let x: Vec<f64> = (0..csr.cols()).map(|i| (i as f64 * 0.7).cos()).collect();
        for (m, table) in blockings(&csr) {
            let mut base = vec![0.0; csr.rows()];
            run(
                &m,
                &x,
                &mut base,
                &ExecPlan::serial(m.rows()),
                table[0].strategies,
            );
            for info in &table[1..] {
                for plan in plans(&m) {
                    let mut y = vec![f64::NAN; csr.rows()];
                    run(&m, &x, &mut y, &plan, info.strategies);
                    assert_eq!(y, base, "{}", info.name);
                }
            }
        }
    }

    #[test]
    fn odd_shapes_and_tails() {
        // Rows/cols not multiples of the block size, plus empty rows.
        let csr =
            Csr::<f64>::from_triplets(7, 9, &[(0, 8, 1.0), (3, 0, 2.0), (6, 6, 3.0), (6, 8, 4.0)])
                .unwrap();
        let x: Vec<f64> = (0..9).map(|i| i as f64 + 0.5).collect();
        let expect = reference(&csr, &x);
        for (m, table) in blockings(&csr) {
            for info in table {
                for plan in plans(&m) {
                    let mut y = vec![f64::NAN; 7];
                    run(&m, &x, &mut y, &plan, info.strategies);
                    assert!(max_abs_diff(&y, &expect) < 1e-12, "{}", info.name);
                }
            }
        }
    }

    #[test]
    fn misaligned_chunk_bounds_stay_correct() {
        // A foreign/stale plan may cut through block rows; the generic
        // body must still produce the right values.
        let csr = block_sparse::<f64>(64, 4, 4, 9);
        let m = Bcsr::from_csr_with(&csr, 4, 4, &ConversionLimits::unlimited()).unwrap();
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.11).sin()).collect();
        let expect = reference(&csr, &x);
        let mut y = vec![f64::NAN; 64];
        run_chunks(&m, &x, &mut y, &[0, 3, 31, 64], true);
        assert!(max_abs_diff(&y, &expect) < 1e-12);
    }
}
