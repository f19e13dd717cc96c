//! The smoother, weighted Jacobi, plus residual computation.
//!
//! The paper notes AMG's "relaxations like Jacobi and Gauss-Seidel
//! methods with SpMV kernel". Weighted Jacobi is expressed directly over
//! SpMV (`x += omega D^{-1} (b - A x)`), which is what lets SMAT's tuned
//! kernels accelerate the solve phase. It is the only smoother: a
//! Gauss–Seidel sweep updates CSR rows in place, so it would need an
//! untuned copy of each level's operator beside the tuned one.

use smat_matrix::{Csr, Scalar};

/// The weighted-Jacobi damping factor `omega` (the standard choice for
/// Poisson-like problems).
pub const JACOBI_OMEGA: f64 = 2.0 / 3.0;

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
        let mut ax = vec![0.0; n];
        let r0 = error_norm(&a, &x, &b);
        for _ in 0..50 {
            a.spmv(&x, &mut ax).unwrap();
            jacobi_update(&diag, JACOBI_OMEGA, &ax, &b, &mut x);
        }
        let r1 = error_norm(&a, &x, &b);
        assert!(r1 < 0.5 * r0, "jacobi stalled: {r0} -> {r1}");
    }

    /// The cycle's step from a formed residual is `jacobi_update`, bit
    /// for bit.
    #[test]
    fn jacobi_update_matches_jacobi() {
        let a = tridiagonal::<f64>(15);
        let diag = a.diagonal();
        let b: Vec<f64> = (0..15).map(|i| i as f64).collect();
        let mut x1 = vec![0.5; 15];
        let mut x2 = x1.clone();
        let mut r = vec![0.0; 15];
        residual(&a, &x1, &b, &mut r);
        jacobi_step(&diag, 0.7, &r, &mut x1);
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
        jacobi_update(&diag, JACOBI_OMEGA, &ax, &b, &mut want);
        let mut x = vec![f64::NAN; n];
        jacobi_from_zero(&diag, JACOBI_OMEGA, &b, &mut x);
        assert!(x.iter().zip(&want).all(|(x, w)| x.to_bits() == w.to_bits()));
    }

    #[test]
    #[should_panic(expected = "zero diagonal")]
    fn zero_diagonal_panics() {
        let mut x = vec![0.0; 2];
        jacobi_update(&[0.0, 1.0], JACOBI_OMEGA, &[0.0, 0.0], &[1.0, 1.0], &mut x);
    }
}
