//! Smoothers: weighted Jacobi and Gauss–Seidel, plus residual
//! computation.
//!
//! The paper notes AMG's "relaxations like Jacobi and Gauss-Seidel
//! methods with SpMV kernel". Weighted Jacobi is expressed directly over
//! SpMV (`x += omega D^{-1} (b - A x)`), which is what lets SMAT's tuned
//! kernels accelerate the solve phase; Gauss–Seidel sweeps the CSR rows
//! in place.

use serde::{Deserialize, Serialize};
use smat_matrix::{Csr, Scalar};

/// Which smoother a solver uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Relaxation {
    /// Weighted Jacobi with the given damping factor (2/3 is the
    /// standard choice for Poisson-like problems).
    Jacobi {
        /// Damping factor `omega`.
        omega: f64,
    },
    /// Forward Gauss–Seidel.
    GaussSeidel,
    /// Symmetric Gauss–Seidel: a forward sweep followed by a backward
    /// sweep (the symmetric smoother required for AMG-preconditioned CG
    /// to stay a symmetric preconditioner).
    SymmetricGaussSeidel,
}

impl Default for Relaxation {
    fn default() -> Self {
        Relaxation::Jacobi { omega: 2.0 / 3.0 }
    }
}

/// Computes the residual `r = b - A x`.
///
/// # Panics
///
/// Panics on vector length mismatches.
pub fn residual<T: Scalar>(a: &Csr<T>, x: &[T], b: &[T], r: &mut [T]) {
    assert_eq!(b.len(), a.rows(), "b length");
    assert_eq!(r.len(), a.rows(), "r length");
    a.spmv(x, r).expect("validated dimensions");
    for (ri, &bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
}

/// One weighted-Jacobi sweep using a supplied `A*x` product (so callers
/// can route the SpMV through a tuned kernel): `x += omega D^{-1} (b - ax)`.
///
/// # Panics
///
/// Panics on vector length mismatches or a zero diagonal entry.
pub fn jacobi_update<T: Scalar>(diag: &[T], omega: f64, ax: &[T], b: &[T], x: &mut [T]) {
    assert_eq!(diag.len(), x.len(), "diag length");
    assert_eq!(ax.len(), x.len(), "ax length");
    assert_eq!(b.len(), x.len(), "b length");
    let w = T::from_f64(omega);
    for i in 0..x.len() {
        assert!(diag[i] != T::ZERO, "zero diagonal at row {i}");
        x[i] += w * (b[i] - ax[i]) / diag[i];
    }
}

/// One weighted-Jacobi step from a residual already formed in `r`
/// (`r = b - A x`): `x += omega D^{-1} r`. Each element is
/// [`jacobi_update`]'s expression, so the same bits; the caller has
/// checked the diagonal for zeros once, which leaves a straight zip that
/// vectorizes.
pub(crate) fn jacobi_step<T: Scalar>(diag: &[T], w: T, r: &[T], x: &mut [T]) {
    for ((xi, &ri), &di) in x.iter_mut().zip(r).zip(diag) {
        *xi += w * ri / di;
    }
}

/// The first weighted-Jacobi sweep from a zero iterate, with no product:
/// `x = 0 + omega D^{-1} (b - 0)`. For a finite operator this is bit for
/// bit the step after `x.fill(0)` and a product `A 0`: that product is a
/// signed zero, `b - (±0)` is `b` wherever `b` is nonzero, and the
/// leading `0 +` makes every zero result `+0` just as `x += ...` did.
pub(crate) fn jacobi_from_zero<T: Scalar>(diag: &[T], w: T, b: &[T], x: &mut [T]) {
    for ((xi, &bi), &di) in x.iter_mut().zip(b).zip(diag) {
        *xi = T::ZERO + w * bi / di;
    }
}

/// One weighted-Jacobi sweep computing the product internally with the
/// reference CSR SpMV.
///
/// # Panics
///
/// Panics on vector length mismatches or a zero diagonal entry.
pub fn jacobi<T: Scalar>(
    a: &Csr<T>,
    diag: &[T],
    omega: f64,
    b: &[T],
    x: &mut [T],
    scratch: &mut [T],
) {
    a.spmv(x, scratch).expect("validated dimensions");
    jacobi_update(diag, omega, scratch, b, x);
}

#[inline]
fn gs_row<T: Scalar>(a: &Csr<T>, b: &[T], x: &mut [T], i: usize) {
    let (cols, vals) = a.row(i);
    let mut sigma = T::ZERO;
    let mut diag = T::ZERO;
    for (&j, &v) in cols.iter().zip(vals) {
        if j == i {
            diag = v;
        } else {
            sigma += v * x[j];
        }
    }
    assert!(diag != T::ZERO, "zero diagonal at row {i}");
    x[i] = (b[i] - sigma) / diag;
}

/// One forward Gauss–Seidel sweep.
///
/// # Panics
///
/// Panics on vector length mismatches or a zero diagonal entry.
pub fn gauss_seidel<T: Scalar>(a: &Csr<T>, b: &[T], x: &mut [T]) {
    assert_eq!(x.len(), a.rows(), "x length");
    assert_eq!(b.len(), a.rows(), "b length");
    for i in 0..a.rows() {
        gs_row(a, b, x, i);
    }
}

/// One backward Gauss–Seidel sweep (rows in reverse order).
///
/// # Panics
///
/// Panics on vector length mismatches or a zero diagonal entry.
pub fn gauss_seidel_backward<T: Scalar>(a: &Csr<T>, b: &[T], x: &mut [T]) {
    assert_eq!(x.len(), a.rows(), "x length");
    assert_eq!(b.len(), a.rows(), "b length");
    for i in (0..a.rows()).rev() {
        gs_row(a, b, x, i);
    }
}

/// One symmetric Gauss–Seidel sweep: forward then backward.
///
/// # Panics
///
/// Panics on vector length mismatches or a zero diagonal entry.
pub fn symmetric_gauss_seidel<T: Scalar>(a: &Csr<T>, b: &[T], x: &mut [T]) {
    gauss_seidel(a, b, x);
    gauss_seidel_backward(a, b, x);
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_matrix::gen::{laplacian_2d_5pt, tridiagonal};
    use smat_matrix::utils::norm2;

    fn error_norm(a: &Csr<f64>, x: &[f64], b: &[f64]) -> f64 {
        let mut r = vec![0.0; a.rows()];
        residual(a, x, b, &mut r);
        norm2(&r)
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let a = tridiagonal::<f64>(20);
        let x: Vec<f64> = (0..20).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut b = vec![0.0; 20];
        a.spmv(&x, &mut b).unwrap();
        assert!(error_norm(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn jacobi_reduces_residual() {
        // Small grid: the smooth error mode (which Jacobi damps slowest)
        // still decays measurably within 50 sweeps.
        let a = laplacian_2d_5pt::<f64>(6, 6);
        let n = a.rows();
        let b = vec![1.0; n];
        let diag = a.diagonal();
        let mut x = vec![0.0; n];
        let mut scratch = vec![0.0; n];
        let r0 = error_norm(&a, &x, &b);
        for _ in 0..50 {
            jacobi(&a, &diag, 2.0 / 3.0, &b, &mut x, &mut scratch);
        }
        let r1 = error_norm(&a, &x, &b);
        assert!(r1 < 0.5 * r0, "jacobi stalled: {r0} -> {r1}");
    }

    #[test]
    fn gauss_seidel_beats_jacobi_per_sweep() {
        let a = laplacian_2d_5pt::<f64>(10, 10);
        let n = a.rows();
        let b = vec![1.0; n];
        let diag = a.diagonal();
        let mut xj = vec![0.0; n];
        let mut xgs = vec![0.0; n];
        let mut scratch = vec![0.0; n];
        for _ in 0..10 {
            jacobi(&a, &diag, 2.0 / 3.0, &b, &mut xj, &mut scratch);
            gauss_seidel(&a, &b, &mut xgs);
        }
        assert!(error_norm(&a, &xgs, &b) < error_norm(&a, &xj, &b));
    }

    #[test]
    fn jacobi_update_matches_jacobi() {
        let a = tridiagonal::<f64>(15);
        let diag = a.diagonal();
        let b: Vec<f64> = (0..15).map(|i| i as f64).collect();
        let mut x1 = vec![0.5; 15];
        let mut x2 = x1.clone();
        let mut scratch = vec![0.0; 15];
        jacobi(&a, &diag, 0.7, &b, &mut x1, &mut scratch);
        let mut ax = vec![0.0; 15];
        a.spmv(&x2.clone(), &mut ax).unwrap();
        jacobi_update(&diag, 0.7, &ax, &b, &mut x2);
        assert_eq!(x1, x2);
    }

    #[test]
    fn the_zero_iterate_sweep_is_the_step_after_a_product_with_zero() {
        let a = laplacian_2d_5pt::<f64>(6, 6);
        let n = a.rows();
        let diag = a.diagonal();
        // Signed zeros, and a subnormal whose step underflows to -0.
        let b: Vec<f64> = (0..n)
            .map(|i| match i % 4 {
                0 => -0.0,
                1 => 0.0,
                2 => -5e-324,
                _ => i as f64 * 0.3 - 5.0,
            })
            .collect();
        let mut want = vec![0.0; n];
        let mut ax = vec![0.0; n];
        a.spmv(&want, &mut ax).unwrap();
        jacobi_update(&diag, 2.0 / 3.0, &ax, &b, &mut want);
        let mut x = vec![f64::NAN; n];
        jacobi_from_zero(&diag, 2.0 / 3.0, &b, &mut x);
        assert!(x.iter().zip(&want).all(|(x, w)| x.to_bits() == w.to_bits()));
    }

    #[test]
    fn symmetric_gs_beats_forward_gs_per_sweep() {
        let a = laplacian_2d_5pt::<f64>(12, 12);
        let n = a.rows();
        let b = vec![1.0; n];
        let mut x_f = vec![0.0; n];
        let mut x_s = vec![0.0; n];
        for _ in 0..6 {
            gauss_seidel(&a, &b, &mut x_f);
            symmetric_gauss_seidel(&a, &b, &mut x_s);
        }
        assert!(error_norm(&a, &x_s, &b) < error_norm(&a, &x_f, &b));
    }

    #[test]
    fn backward_sweep_converges_too() {
        let a = laplacian_2d_5pt::<f64>(8, 8);
        let n = a.rows();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let r0 = error_norm(&a, &x, &b);
        // GS spectral radius on this grid is ~0.88: 20 sweeps give ~0.08.
        for _ in 0..20 {
            gauss_seidel_backward(&a, &b, &mut x);
        }
        assert!(error_norm(&a, &x, &b) < 0.2 * r0);
    }

    #[test]
    #[should_panic(expected = "zero diagonal")]
    fn zero_diagonal_panics() {
        let a = Csr::<f64>::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let mut x = vec![0.0; 2];
        gauss_seidel(&a, &[1.0, 1.0], &mut x);
    }
}
