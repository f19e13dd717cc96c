//! ELL SpMV kernel variants.
//!
//! Every variant keeps the paper's Figure 2(d) traversal — a
//! column-major sweep over the packed slots, streaming through the
//! dense `data` / `indices` arrays — inside each row chunk of the plan.
//! The strategy set picks the sweep body; a serial variant is the
//! one-chunk plan.

use crate::exec;
use crate::plan::ExecPlan;
use crate::registry::{kernel_rows, KernelInfo};
use crate::strategy::{Strategy, StrategySet};
use smat_matrix::{Ell, Scalar};

#[inline]
fn check_dims<T: Scalar>(m: &Ell<T>, x: &[T], y: &[T]) {
    assert_eq!(x.len(), m.cols(), "x length must equal matrix columns");
    assert_eq!(y.len(), m.rows(), "y length must equal matrix rows");
}

/// One packed slot's sweep `y[r] += d[r] * x[i[r]]`, the plain loop of
/// the paper's Figure 2(d). Every element is an independent mul + add,
/// so all the slot bodies are bit-identical — the unroll depth and
/// vector width are pure throughput knobs here — and the kernels are
/// generic over the body so each gets its own monomorphized sweep.
#[inline]
fn step_scalar<T: Scalar>(dcol: &[T], icol: &[u32], x: &[T], y: &mut [T]) {
    for r in 0..y.len() {
        y[r] += dcol[r] * x[icol[r] as usize];
    }
}

/// [`step_scalar`] 4-way unrolled.
#[inline]
fn step_unroll4<T: Scalar>(dcol: &[T], icol: &[u32], x: &[T], y: &mut [T]) {
    let n = y.len();
    let quads = n / 4;
    for q in 0..quads {
        let r = 4 * q;
        y[r] += dcol[r] * x[icol[r] as usize];
        y[r + 1] += dcol[r + 1] * x[icol[r + 1] as usize];
        y[r + 2] += dcol[r + 2] * x[icol[r + 2] as usize];
        y[r + 3] += dcol[r + 3] * x[icol[r + 3] as usize];
    }
    for r in 4 * quads..n {
        y[r] += dcol[r] * x[icol[r] as usize];
    }
}

/// Two packed slots fused into one sweep `y[r] += d0[r] * x[i0[r] as usize] +
/// d1[r] * x[i1[r] as usize]` — slot-pair register blocking, halving the passes
/// over `y` — optionally 4-way unrolled over the rows.
#[inline]
fn pair_step<T: Scalar>(
    (d0, i0): (&[T], &[u32]),
    (d1, i1): (&[T], &[u32]),
    x: &[T],
    y: &mut [T],
    unroll: bool,
) {
    let n = y.len();
    if !unroll {
        for r in 0..n {
            y[r] += d0[r] * x[i0[r] as usize] + d1[r] * x[i1[r] as usize];
        }
        return;
    }
    let quads = n / 4;
    for q in 0..quads {
        let r = 4 * q;
        y[r] += d0[r] * x[i0[r] as usize] + d1[r] * x[i1[r] as usize];
        y[r + 1] += d0[r + 1] * x[i0[r + 1] as usize] + d1[r + 1] * x[i1[r + 1] as usize];
        y[r + 2] += d0[r + 2] * x[i0[r + 2] as usize] + d1[r + 2] * x[i1[r + 2] as usize];
        y[r + 3] += d0[r + 3] * x[i0[r + 3] as usize] + d1[r + 3] * x[i1[r + 3] as usize];
    }
    for r in 4 * quads..n {
        y[r] += d0[r] * x[i0[r] as usize] + d1[r] * x[i1[r] as usize];
    }
}

/// Packed slot `p` restricted to the rows of `y_chunk` (whose index 0
/// is global row `r0`): its data and column-index columns, both cut to
/// the chunk's length so the sweep bodies' bounds checks fold away.
#[inline]
fn slot<T: Scalar>(m: &Ell<T>, p: usize, r0: usize, n: usize) -> (&[T], &[u32]) {
    let at = p * m.rows() + r0;
    (&m.data()[at..][..n], &m.indices()[at..][..n])
}

/// Fans the column-major slot sweep out over `bounds` with one slot
/// body: per chunk, zero it, then sweep every packed slot.
fn run_chunks<T: Scalar>(
    m: &Ell<T>,
    x: &[T],
    y: &mut [T],
    bounds: &[usize],
    step: impl Fn(&[T], &[u32], &[T], &mut [T]) + Sync,
) {
    exec::for_each_row_chunk(y, bounds, |ci, y_chunk| {
        y_chunk.fill(T::ZERO);
        for p in 0..m.width() {
            let (dcol, icol) = slot(m, p, bounds[ci], y_chunk.len());
            step(dcol, icol, x, y_chunk);
        }
    });
}

/// Runs the ELL variant tagged `strategies` over the plan's row chunks
/// — the one planned dispatch of this format (and of HYB's ELL part).
/// `Block` fuses slot pairs (an odd last slot sweeps alone), otherwise
/// each slot goes through the vector backend (`Simd`), the unrolled
/// (`Unroll`, HYB's `hyb_unroll`) or the basic slot body.
///
/// # Panics
///
/// Panics on mismatched vector lengths or malformed plan bounds.
pub fn run<T: Scalar>(m: &Ell<T>, x: &[T], y: &mut [T], plan: &ExecPlan, strategies: StrategySet) {
    check_dims(m, x, y);
    let bounds = &plan.bounds[..];
    if strategies.contains(Strategy::Block) {
        let unroll = strategies.contains(Strategy::Unroll);
        return exec::for_each_row_chunk(y, bounds, |ci, y_chunk| {
            y_chunk.fill(T::ZERO);
            let (r0, n, width) = (bounds[ci], y_chunk.len(), m.width());
            for q in 0..width / 2 {
                pair_step(
                    slot(m, 2 * q, r0, n),
                    slot(m, 2 * q + 1, r0, n),
                    x,
                    y_chunk,
                    unroll,
                );
            }
            if width % 2 == 1 {
                let (dcol, icol) = slot(m, width - 1, r0, n);
                step_scalar(dcol, icol, x, y_chunk);
            }
        });
    }
    if strategies.contains(Strategy::Simd) {
        run_chunks(m, x, y, bounds, crate::simd::axpy_gather)
    } else if strategies.contains(Strategy::Unroll) {
        run_chunks(m, x, y, bounds, step_unroll4)
    } else {
        run_chunks(m, x, y, bounds, step_scalar)
    }
}

/// The ELL variant table (row 0 is the basic kernel).
pub fn variants() -> Vec<KernelInfo> {
    use Strategy::*;
    kernel_rows(&[
        ("ell_basic", &[]),
        ("ell_simd", &[Simd]),
        ("ell_block2", &[Block]),
        ("ell_block2_unroll", &[Block, Unroll]),
        ("ell_parallel_simd", &[Parallel, Simd]),
        ("ell_parallel_block2", &[Parallel, Block]),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_matrix::gen::fixed_degree;
    use smat_matrix::utils::max_abs_diff;
    use smat_matrix::Csr;

    fn reference(m: &Csr<f64>, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; m.rows()];
        m.spmv(x, &mut y).unwrap();
        y
    }

    #[test]
    fn all_variants_match_reference() {
        let csr = fixed_degree::<f64>(307, 290, 11, 2, 19);
        let ell = Ell::from_csr(&csr).unwrap();
        let x: Vec<f64> = (0..csr.cols()).map(|i| (i as f64 * 0.21).cos()).collect();
        let expect = reference(&csr, &x);
        for info in variants() {
            for plan in ExecPlan::serial_and_fan_out(csr.rows()) {
                let mut y = vec![f64::NAN; csr.rows()];
                run(&ell, &x, &mut y, &plan, info.strategies);
                assert!(max_abs_diff(&y, &expect) < 1e-12, "{} diverges", info.name);
            }
        }
    }

    #[test]
    fn ragged_rows_with_padding() {
        let csr = Csr::<f64>::from_triplets(
            5,
            5,
            &[
                (0, 0, 1.0),
                (0, 4, 2.0),
                (0, 2, 5.0),
                (2, 1, 3.0),
                (4, 4, 4.0),
            ],
        )
        .unwrap();
        let ell = Ell::from_csr(&csr).unwrap();
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let expect = reference(&csr, &x);
        for info in variants() {
            for plan in ExecPlan::serial_and_fan_out(5) {
                let mut y = vec![0.0; 5];
                run(&ell, &x, &mut y, &plan, info.strategies);
                assert!(max_abs_diff(&y, &expect) < 1e-12, "{} diverges", info.name);
            }
        }
    }

    #[test]
    fn empty_matrix_zeroes_output() {
        let csr = Csr::<f32>::from_triplets(3, 3, &[]).unwrap();
        let ell = Ell::from_csr(&csr).unwrap();
        for info in variants() {
            for plan in ExecPlan::serial_and_fan_out(3) {
                let mut y = [2.0f32; 3];
                run(&ell, &[1.0; 3], &mut y, &plan, info.strategies);
                assert_eq!(y, [0.0; 3], "{}", info.name);
            }
        }
    }
}
