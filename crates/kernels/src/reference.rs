//! MKL-style reference baseline.
//!
//! The paper compares SMAT against the Intel MKL sparse BLAS, whose API
//! exposes one SpMV routine per storage format (its Figure 5 lists
//! `mkl_xcsrgemv`, `mkl_xdiagemv`, `mkl_xcoogemv`, ...). MKL is
//! proprietary, so this module provides clean per-format routines behind
//! the same API shape: straightforward implementations with vendor-style
//! threading for CSR (the routine MKL parallelizes) and sequential loops
//! for DIA/COO.
//!
//! Figure 10's baseline is [`best_of_reference`]: the maximum throughput
//! over the DIA, CSR and COO routines, exactly how the paper reports MKL
//! ("the maximum performance number of DIA, CSR, and COO SpMV functions
//! in this library").

use crate::partition::{default_parts, equal_row_bounds};
use crate::plan::{ChunkPolicy, ExecPlan};
use crate::strategy::StrategySet;
use crate::timing::{gflops, reps_for_budget, time_median};
use smat_matrix::{Coo, Csr, Dia, Scalar};
use std::time::Duration;

/// A boxed SpMV routine `(x, y)` closed over its matrix.
type SpmvClosure<'a, T> = Box<dyn FnMut(&[T], &mut [T]) + 'a>;

/// Reference CSR SpMV (`mkl_xcsrgemv` stand-in): row-parallel basic
/// kernel. A vendor routine has no plan handle, so it partitions the
/// rows on every call.
///
/// # Panics
///
/// Panics if vector lengths do not match the matrix dimensions.
pub fn csrgemv<T: Scalar>(m: &Csr<T>, x: &[T], y: &mut [T]) {
    let bounds = equal_row_bounds(m.rows(), default_parts());
    let plan = ExecPlan::chunked(ChunkPolicy::EqualRows, bounds, None);
    crate::csr::run(m, x, y, &plan, StrategySet::EMPTY);
}

/// Reference sequential CSR SpMV (single-threaded BLAS configuration).
///
/// # Panics
///
/// Panics if vector lengths do not match the matrix dimensions.
pub fn csrgemv_seq<T: Scalar>(m: &Csr<T>, x: &[T], y: &mut [T]) {
    crate::csr::basic(m, x, y);
}

/// Reference DIA SpMV (`mkl_xdiagemv` stand-in): sequential
/// diagonal-major kernel.
///
/// # Panics
///
/// Panics if vector lengths do not match the matrix dimensions.
pub fn diagemv<T: Scalar>(m: &Dia<T>, x: &[T], y: &mut [T]) {
    crate::dia::run(m, x, y, &ExecPlan::serial(m.rows()), StrategySet::EMPTY);
}

/// Reference COO SpMV (`mkl_xcoogemv` stand-in): sequential triplet
/// kernel.
///
/// # Panics
///
/// Panics if vector lengths do not match the matrix dimensions.
pub fn coogemv<T: Scalar>(m: &Coo<T>, x: &[T], y: &mut [T]) {
    crate::coo::run(m, x, y, &ExecPlan::serial(m.rows()), StrategySet::EMPTY);
}

/// Measured throughput of the best reference routine on a matrix given in
/// CSR (the paper's MKL number): max over the DIA, CSR and COO routines.
///
/// Returns `(gflops, routine_name)`. Formats whose conversion is refused
/// (oversized DIA fill) are skipped, as a library user would skip them.
pub fn best_of_reference<T: Scalar>(m: &Csr<T>, budget: Duration) -> (f64, &'static str) {
    let x = vec![T::ONE; m.cols()];
    let mut y = vec![T::ZERO; m.rows()];
    let nnz = m.nnz();
    let mut best = (0.0f64, "none");

    let mut consider = |name: &'static str, mut run: SpmvClosure<'_, T>| {
        let t0 = std::time::Instant::now();
        run(&x, &mut y);
        let one = t0.elapsed();
        let reps = reps_for_budget(one, budget, 3, 64);
        let med = time_median(|| run(&x, &mut y), 1, reps);
        let g = gflops(nnz, med);
        if g > best.0 {
            best = (g, name);
        }
    };

    consider("csrgemv", Box::new(|x, y| csrgemv(m, x, y)));
    let coo = Coo::from_csr(m);
    consider("coogemv", Box::new(|x, y| coogemv(&coo, x, y)));
    if let Ok(dia) = Dia::from_csr(m) {
        consider("diagemv", Box::new(move |x, y| diagemv(&dia, x, y)));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_matrix::gen::{banded, random_uniform};
    use smat_matrix::utils::max_abs_diff;

    #[test]
    fn reference_routines_agree() {
        let m = random_uniform::<f64>(200, 180, 8, 5);
        let x: Vec<f64> = (0..m.cols()).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut expect = vec![0.0; m.rows()];
        m.spmv(&x, &mut expect).unwrap();

        let mut y = vec![0.0; m.rows()];
        csrgemv(&m, &x, &mut y);
        assert!(max_abs_diff(&y, &expect) < 1e-12);
        csrgemv_seq(&m, &x, &mut y);
        assert!(max_abs_diff(&y, &expect) < 1e-12);
        coogemv(&Coo::from_csr(&m), &x, &mut y);
        assert!(max_abs_diff(&y, &expect) < 1e-12);
    }

    #[test]
    fn diagemv_agrees_on_banded_input() {
        let m = banded::<f64>(300, &[-5, 0, 7], 1.0, 2);
        let x: Vec<f64> = (0..m.cols()).map(|i| (i as f64 * 0.2).cos()).collect();
        let mut expect = vec![0.0; m.rows()];
        m.spmv(&x, &mut expect).unwrap();
        let mut y = vec![0.0; m.rows()];
        diagemv(&Dia::from_csr(&m).unwrap(), &x, &mut y);
        assert!(max_abs_diff(&y, &expect) < 1e-12);
    }

    #[test]
    fn best_of_reference_returns_positive_throughput() {
        let m = banded::<f64>(4096, &[-1, 0, 1], 1.0, 1);
        let (g, name) = best_of_reference(&m, Duration::from_millis(2));
        assert!(g > 0.0);
        assert!(["csrgemv", "coogemv", "diagemv"].contains(&name));
    }
}
