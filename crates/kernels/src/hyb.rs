//! HYB SpMV kernel variants (the extension format).
//!
//! The ELL part runs through the corresponding ELL variant; the COO
//! overflow is then scattered on top. By the width heuristic's
//! construction the overflow is a small minority of the nonzeros, so a
//! fan-out plan parallelizes only the ELL sweep and the overflow is
//! applied serially — the simple composition cuSPARSE's HYB also uses
//! on the host side.

use crate::plan::ExecPlan;
use crate::registry::{kernel_rows, KernelInfo};
use crate::strategy::{Strategy, StrategySet};
use smat_matrix::{Hyb, Scalar};

/// Adds the COO overflow part on top of `y` (which already holds the ELL
/// part's product).
#[inline]
fn add_overflow<T: Scalar>(m: &Hyb<T>, x: &[T], y: &mut [T]) {
    let coo = m.coo_part();
    let rows = coo.row_idx();
    let cols = coo.col_idx();
    let vals = coo.values();
    for i in 0..vals.len() {
        y[rows[i] as usize] += vals[i] * x[cols[i] as usize];
    }
}

/// Runs the HYB variant tagged `strategies`: the ELL part through
/// [`crate::ell::run`] over the plan's row chunks, then the COO
/// overflow serially.
///
/// # Panics
///
/// Panics on mismatched vector lengths or malformed plan bounds.
pub fn run<T: Scalar>(m: &Hyb<T>, x: &[T], y: &mut [T], plan: &ExecPlan, strategies: StrategySet) {
    assert_eq!(x.len(), m.cols(), "x length must equal matrix columns");
    assert_eq!(y.len(), m.rows(), "y length must equal matrix rows");
    crate::ell::run(m.ell_part(), x, y, plan, strategies);
    add_overflow(m, x, y);
}

/// The HYB variant table (row 0 is the basic kernel).
pub fn variants() -> Vec<KernelInfo> {
    use Strategy::*;
    kernel_rows(&[
        ("hyb_basic", &[]),
        ("hyb_unroll", &[Unroll]),
        ("hyb_parallel", &[Parallel]),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_matrix::gen::{power_law, random_skewed};
    use smat_matrix::utils::max_abs_diff;
    use smat_matrix::Csr;

    fn reference(m: &Csr<f64>, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; m.rows()];
        m.spmv(x, &mut y).unwrap();
        y
    }

    #[test]
    fn all_variants_match_reference() {
        for csr in [
            power_law::<f64>(500, 120, 1.9, 11),
            random_skewed::<f64>(400, 380, 6, 0.05, 12, 4),
        ] {
            let hyb = Hyb::from_csr(&csr);
            assert!(hyb.coo_part().nnz() > 0, "want a nonempty overflow part");
            let x: Vec<f64> = (0..csr.cols()).map(|i| (i as f64 * 0.13).cos()).collect();
            let expect = reference(&csr, &x);
            for info in variants() {
                for plan in ExecPlan::serial_and_fan_out(csr.rows()) {
                    let mut y = vec![f64::NAN; csr.rows()];
                    run(&hyb, &x, &mut y, &plan, info.strategies);
                    assert!(max_abs_diff(&y, &expect) < 1e-12, "{} diverges", info.name);
                }
            }
        }
    }

    #[test]
    fn empty_matrix_zeroes_output() {
        let csr = Csr::<f64>::from_triplets(3, 3, &[]).unwrap();
        let hyb = Hyb::from_csr(&csr);
        for info in variants() {
            for plan in ExecPlan::serial_and_fan_out(3) {
                let mut y = [7.0; 3];
                run(&hyb, &[1.0; 3], &mut y, &plan, info.strategies);
                assert_eq!(y, [0.0; 3], "{}", info.name);
            }
        }
    }
}
