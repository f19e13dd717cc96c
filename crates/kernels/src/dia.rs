//! DIA SpMV kernel variants.
//!
//! Every variant keeps the paper's Figure 2(c) traversal — diagonal
//! major, with contiguous reads of `x` — inside each row chunk of the
//! plan, so each task updates a disjoint slice of `y` with the same
//! streaming access pattern. The strategy set picks the segment body;
//! a serial variant is the one-chunk plan.

use crate::exec;
use crate::plan::ExecPlan;
use crate::registry::{kernel_rows, KernelInfo};
use crate::strategy::{Strategy, StrategySet};
use smat_matrix::{Dia, Scalar};

#[inline]
fn check_dims<T: Scalar>(m: &Dia<T>, x: &[T], y: &[T]) {
    assert_eq!(x.len(), m.cols(), "x length must equal matrix columns");
    assert_eq!(y.len(), m.rows(), "y length must equal matrix rows");
}

/// One diagonal segment `ys[i] += data[i] * xs[i]`, the plain loop of
/// the paper's Figure 2(c). The segment bodies are element-wise
/// independent, so all of them are bit-identical (see [`crate::simd`]);
/// the kernels are generic over the body so each gets its own
/// monomorphized sweep.
#[inline]
fn step_scalar<T: Scalar>(data: &[T], xs: &[T], ys: &mut [T]) {
    for i in 0..ys.len() {
        ys[i] += data[i] * xs[i];
    }
}

/// Valid global row range of a diagonal clipped to the chunk
/// `[r0, r1)`: `[max(0, -off), min(rows, cols - off))` ∩ `[r0, r1)`.
#[inline]
fn diag_rows<T: Scalar>(m: &Dia<T>, off: isize, r0: usize, r1: usize) -> (usize, usize) {
    let lo = (0.max(-off) as usize).max(r0);
    let hi = (m.rows())
        .min((m.cols() as isize - off).max(0) as usize)
        .min(r1);
    (lo, hi.max(lo))
}

/// Adds diagonal `d`'s contribution over the global row range
/// `[from, to)` into `y_chunk` (whose index 0 is global row `r0`).
#[inline]
#[allow(clippy::too_many_arguments)]
fn add_diag_range<T: Scalar>(
    m: &Dia<T>,
    d: usize,
    off: isize,
    x: &[T],
    y_chunk: &mut [T],
    r0: usize,
    (from, to): (usize, usize),
    step: impl Fn(&[T], &[T], &mut [T]),
) {
    if from >= to {
        return;
    }
    let stride = m.rows();
    let n = to - from;
    let data = &m.data()[d * stride + from..d * stride + to];
    let xs = &x[(from as isize + off) as usize..(from as isize + off) as usize + n];
    step(data, xs, &mut y_chunk[from - r0..to - r0]);
}

/// [`add_diag_range`] for the unfused edges of the diagonal-pair body,
/// scalar or 4-way unrolled. Kept apart from the generic segment bodies
/// with its slices and loops in one function: measured, that shape is
/// what lets the hand-unrolled edge loop vectorize (`dia_block2_unroll`
/// ran 1.17x slower with the loop behind a shared generic body).
#[inline]
#[allow(clippy::too_many_arguments)]
fn add_edge_range<T: Scalar>(
    m: &Dia<T>,
    d: usize,
    off: isize,
    x: &[T],
    y_chunk: &mut [T],
    r0: usize,
    (from, to): (usize, usize),
    unroll: bool,
) {
    if from >= to {
        return;
    }
    let stride = m.rows();
    let n = to - from;
    let data = &m.data()[d * stride + from..d * stride + to];
    let xs = &x[(from as isize + off) as usize..(from as isize + off) as usize + n];
    let ys = &mut y_chunk[from - r0..to - r0];
    let quads = if unroll { n / 4 } else { 0 };
    for q in 0..quads {
        let i = 4 * q;
        ys[i] += data[i] * xs[i];
        ys[i + 1] += data[i + 1] * xs[i + 1];
        ys[i + 2] += data[i + 2] * xs[i + 2];
        ys[i + 3] += data[i + 3] * xs[i + 3];
    }
    for i in 4 * quads..n {
        ys[i] += data[i] * xs[i];
    }
}

/// Rows `r0..r0 + y_chunk.len()` with diagonal-pair register blocking:
/// adjacent diagonals are fused over their common row range, halving
/// the sweeps over `y`; `unroll` hand-unrolls the unfused prefix/suffix
/// segments.
#[inline]
fn rows_blocked2<T: Scalar>(m: &Dia<T>, x: &[T], y_chunk: &mut [T], r0: usize, unroll: bool) {
    let r1 = r0 + y_chunk.len();
    let offsets = m.offsets();
    let stride = m.rows();
    for q in 0..offsets.len() / 2 {
        let d0 = 2 * q;
        let d1 = d0 + 1;
        let (k0, k1) = (offsets[d0], offsets[d1]);
        // Offsets are sorted ascending, so diag 0's range sits at or
        // after diag 1's: lo1 <= lo0 and hi1 <= hi0 (clipping both to
        // the same chunk preserves the order).
        let (lo0, hi0) = diag_rows(m, k0, r0, r1);
        let (lo1, hi1) = diag_rows(m, k1, r0, r1);
        debug_assert!(lo1 <= lo0 && hi1 <= hi0);
        // Prefix: only diag 1 active.
        add_edge_range(m, d1, k1, x, y_chunk, r0, (lo1, lo0.min(hi1)), unroll);
        // Fused middle: both diagonals active.
        let (fl, fh) = (lo0, hi1.max(lo0));
        if fl < fh {
            let n = fh - fl;
            let a0 = &m.data()[d0 * stride + fl..d0 * stride + fh];
            let a1 = &m.data()[d1 * stride + fl..d1 * stride + fh];
            let x0 = &x[(fl as isize + k0) as usize..(fl as isize + k0) as usize + n];
            let x1 = &x[(fl as isize + k1) as usize..(fl as isize + k1) as usize + n];
            let ys = &mut y_chunk[fl - r0..fh - r0];
            for i in 0..n {
                ys[i] += a0[i] * x0[i] + a1[i] * x1[i];
            }
        }
        // Suffix: only diag 0 active.
        add_edge_range(m, d0, k0, x, y_chunk, r0, (hi1.max(lo0), hi0), unroll);
    }
    if offsets.len() % 2 == 1 {
        let d = offsets.len() - 1;
        let range = diag_rows(m, offsets[d], r0, r1);
        add_edge_range(m, d, offsets[d], x, y_chunk, r0, range, unroll);
    }
}

/// Fans the diagonal-major sweep out over `bounds` with one segment
/// body: per chunk, zero it, then add every diagonal's clipped range.
fn run_chunks<T: Scalar>(
    m: &Dia<T>,
    x: &[T],
    y: &mut [T],
    bounds: &[usize],
    step: impl Fn(&[T], &[T], &mut [T]) + Copy + Sync,
) {
    exec::for_each_row_chunk(y, bounds, |ci, y_chunk| {
        y_chunk.fill(T::ZERO);
        let (r0, r1) = (bounds[ci], bounds[ci + 1]);
        for (d, &off) in m.offsets().iter().enumerate() {
            let range = diag_rows(m, off, r0, r1);
            add_diag_range(m, d, off, x, y_chunk, r0, range, step);
        }
    });
}

/// Runs the DIA variant tagged `strategies` over the plan's row chunks
/// — the one planned dispatch of this format. `Block` selects the
/// diagonal-pair body (with `Unroll` hand-unrolling its unfused edges),
/// otherwise every diagonal goes through the vector backend (`Simd`) or
/// the basic segment loop.
///
/// # Panics
///
/// Panics on mismatched vector lengths or malformed plan bounds.
pub fn run<T: Scalar>(m: &Dia<T>, x: &[T], y: &mut [T], plan: &ExecPlan, strategies: StrategySet) {
    check_dims(m, x, y);
    let bounds = &plan.bounds[..];
    if strategies.contains(Strategy::Block) {
        let unroll = strategies.contains(Strategy::Unroll);
        return exec::for_each_row_chunk(y, bounds, |ci, y_chunk| {
            y_chunk.fill(T::ZERO);
            // Two call sites so the flag is a constant in each copy.
            if unroll {
                rows_blocked2(m, x, y_chunk, bounds[ci], true);
            } else {
                rows_blocked2(m, x, y_chunk, bounds[ci], false);
            }
        });
    }
    if strategies.contains(Strategy::Simd) {
        run_chunks(m, x, y, bounds, crate::simd::axpy_pointwise)
    } else {
        run_chunks(m, x, y, bounds, step_scalar)
    }
}

/// The DIA variant table (row 0 is the basic kernel).
pub fn variants() -> Vec<KernelInfo> {
    use Strategy::*;
    kernel_rows(&[
        ("dia_basic", &[]),
        ("dia_block2", &[Block]),
        ("dia_block2_unroll", &[Block, Unroll]),
        ("dia_parallel", &[Parallel]),
        ("dia_parallel_simd", &[Parallel, Simd]),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_matrix::gen::{banded, laplacian_2d_5pt};
    use smat_matrix::utils::max_abs_diff;
    use smat_matrix::Csr;

    fn reference(m: &Csr<f64>, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; m.rows()];
        m.spmv(x, &mut y).unwrap();
        y
    }

    /// Every variant under the one-chunk serial plan and a row-chunk
    /// fan-out must reproduce the CSR reference.
    fn assert_all_variants_match(csr: &Csr<f64>, x: &[f64]) {
        let dia = Dia::from_csr(csr).unwrap();
        let expect = reference(csr, x);
        for info in variants() {
            for plan in ExecPlan::serial_and_fan_out(csr.rows()) {
                let mut y = vec![f64::NAN; csr.rows()];
                run(&dia, x, &mut y, &plan, info.strategies);
                assert!(
                    max_abs_diff(&y, &expect) < 1e-12,
                    "{} under {} diverges",
                    info.name,
                    plan.policy
                );
            }
        }
    }

    #[test]
    fn all_variants_match_reference() {
        let csr = laplacian_2d_5pt::<f64>(23, 19);
        let x: Vec<f64> = (0..csr.cols()).map(|i| (i as f64 * 0.05).sin()).collect();
        assert_all_variants_match(&csr, &x);
    }

    #[test]
    fn variants_match_on_scattered_bands() {
        let csr = banded::<f64>(513, &[-37, -2, 0, 1, 53], 0.6, 7);
        let x: Vec<f64> = (0..csr.cols()).map(|i| 1.0 + (i % 5) as f64).collect();
        assert_all_variants_match(&csr, &x);
    }

    #[test]
    fn rectangular_matrices() {
        let csr =
            Csr::<f64>::from_triplets(5, 8, &[(0, 0, 1.0), (1, 2, 2.0), (4, 7, 3.0), (2, 2, 4.0)])
                .unwrap();
        let x: Vec<f64> = (0..8).map(|i| i as f64 + 1.0).collect();
        assert_all_variants_match(&csr, &x);
    }

    #[test]
    fn empty_matrix_zeroes_output() {
        let csr = Csr::<f64>::from_triplets(4, 4, &[]).unwrap();
        assert_all_variants_match(&csr, &[1.0; 4]);
    }
}
