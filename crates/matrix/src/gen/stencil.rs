//! PDE stencil matrices (discrete Laplacians).
//!
//! These are the inputs of the paper's AMG experiments: Table 4 uses
//! 7-point (3-D) and 9-point (2-D) Laplacians, and Figure 1's fine-grid
//! operators are exactly such stencils — strongly diagonal matrices that
//! favor DIA.

use super::rows::Rows;
use crate::{Csr, Scalar};

/// 1-D Laplacian (tridiagonal `[-1, 2, -1]`) on `n` points.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn laplacian_1d<T: Scalar>(n: usize) -> Csr<T> {
    super::banded::tridiagonal(n)
}

/// 2-D 5-point Laplacian on an `nx x ny` grid (dimension `nx * ny`).
///
/// Stencil: center `4`, the four axis neighbors `-1`.
///
/// # Panics
///
/// Panics if `nx == 0 || ny == 0`.
pub fn laplacian_2d_5pt<T: Scalar>(nx: usize, ny: usize) -> Csr<T> {
    assert!(nx > 0 && ny > 0, "empty grid requested");
    let n = nx * ny;
    // Each row's entries in column order: up, left, center, right, down.
    let nnz = n + 2 * ((nx - 1) * ny + nx * (ny - 1));
    let mut out = Rows::new(n, n, nnz);
    let off = T::from_f64(-1.0);
    for i in 0..nx {
        for j in 0..ny {
            let row = i * ny + j;
            if i > 0 {
                out.push(row - ny, off);
            }
            if j > 0 {
                out.push(row - 1, off);
            }
            out.push(row, T::from_f64(4.0));
            if j + 1 < ny {
                out.push(row + 1, off);
            }
            if i + 1 < nx {
                out.push(row + ny, off);
            }
            out.end_row();
        }
    }
    out.finish()
}

/// 2-D 9-point Laplacian on an `nx x ny` grid: center `8`, all eight
/// neighbors `-1` (the paper's "rugeL 9pt" input).
///
/// # Panics
///
/// Panics if `nx == 0 || ny == 0`.
pub fn laplacian_2d_9pt<T: Scalar>(nx: usize, ny: usize) -> Csr<T> {
    assert!(nx > 0 && ny > 0, "empty grid requested");
    let n = nx * ny;
    // Neighbors row above, then own row, then row below: column order.
    let nnz = n + 2 * ((nx - 1) * ny + nx * (ny - 1) + 2 * (nx - 1) * (ny - 1));
    let mut out = Rows::new(n, n, nnz);
    for i in 0..nx {
        for j in 0..ny {
            for ni in i.saturating_sub(1)..(i + 2).min(nx) {
                for nj in j.saturating_sub(1)..(j + 2).min(ny) {
                    let center = ni == i && nj == j;
                    out.push(ni * ny + nj, T::from_f64(if center { 8.0 } else { -1.0 }));
                }
            }
            out.end_row();
        }
    }
    out.finish()
}

/// 3-D 7-point Laplacian on an `nx x ny x nz` grid: center `6`, the six
/// axis neighbors `-1` (the 7-point input of the paper's Table 4).
///
/// # Panics
///
/// Panics if any grid dimension is zero.
pub fn laplacian_3d_7pt<T: Scalar>(nx: usize, ny: usize, nz: usize) -> Csr<T> {
    assert!(nx > 0 && ny > 0 && nz > 0, "empty grid requested");
    let n = nx * ny * nz;
    let nnz = n + 2 * ((nx - 1) * ny * nz + nx * (ny - 1) * nz + nx * ny * (nz - 1));
    let mut out = Rows::new(n, n, nnz);
    let (plane, line) = (ny * nz, nz);
    let off = T::from_f64(-1.0);
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                let row = (i * ny + j) * nz + k;
                if i > 0 {
                    out.push(row - plane, off);
                }
                if j > 0 {
                    out.push(row - line, off);
                }
                if k > 0 {
                    out.push(row - 1, off);
                }
                out.push(row, T::from_f64(6.0));
                if k + 1 < nz {
                    out.push(row + 1, off);
                }
                if j + 1 < ny {
                    out.push(row + line, off);
                }
                if i + 1 < nx {
                    out.push(row + plane, off);
                }
                out.end_row();
            }
        }
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dia;

    #[test]
    fn laplacian_2d_5pt_structure() {
        let m = laplacian_2d_5pt::<f64>(3, 3);
        assert_eq!(m.rows(), 9);
        // Interior point (1,1) = row 4 has full 5-point stencil.
        assert_eq!(m.row_degree(4), 5);
        assert_eq!(m.get(4, 4), Some(4.0));
        assert_eq!(m.get(4, 1), Some(-1.0));
        // Corner has 3 entries.
        assert_eq!(m.row_degree(0), 3);
    }

    #[test]
    fn laplacian_2d_5pt_has_five_diagonals() {
        let m = laplacian_2d_5pt::<f64>(8, 8);
        let dia = Dia::from_csr(&m).unwrap();
        assert_eq!(dia.ndiags(), 5);
        assert_eq!(dia.offsets(), &[-8, -1, 0, 1, 8]);
    }

    #[test]
    fn laplacian_9pt_interior_degree() {
        let m = laplacian_2d_9pt::<f64>(4, 4);
        let interior = 4 + 1;
        assert_eq!(m.row_degree(interior), 9);
        assert_eq!(m.get(interior, interior), Some(8.0));
    }

    #[test]
    fn laplacian_3d_7pt_structure() {
        let m = laplacian_3d_7pt::<f64>(3, 3, 3);
        assert_eq!(m.rows(), 27);
        let center = (3 + 1) * 3 + 1;
        assert_eq!(m.row_degree(center), 7);
        assert_eq!(m.get(center, center), Some(6.0));
        let dia = Dia::from_csr(&m).unwrap();
        assert_eq!(dia.ndiags(), 7);
    }

    #[test]
    fn laplacians_are_symmetric() {
        for m in [
            laplacian_2d_5pt::<f64>(5, 7),
            laplacian_2d_9pt::<f64>(6, 4),
            laplacian_3d_7pt::<f64>(3, 4, 2),
        ] {
            assert_eq!(m.transpose(), m);
        }
    }

    #[test]
    fn row_sums_are_nonnegative() {
        // Diagonal dominance: boundary rows have positive sum, interior zero.
        let m = laplacian_2d_5pt::<f64>(10, 10);
        for r in 0..m.rows() {
            let (_, vals) = m.row(r);
            let s: f64 = vals.iter().sum();
            assert!(s >= -1e-12);
        }
    }
}
