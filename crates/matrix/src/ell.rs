//! ELLPACK (ELL) storage.
//!
//! ELL packs each row's nonzeros to the left and stores the result as a
//! dense `rows x max_row_degree` matrix in column-major order (Figure 2(d)
//! of the paper). It thrives when row degrees are uniform (`var_RD` small,
//! `ER_ELL` close to 1) and collapses when a single long row forces heavy
//! padding — the behavior SMAT's `max_RD`/`var_RD` features capture.

use crate::error::{MatrixError, Result};
use crate::{ConversionLimits, Csr, Scalar};
use serde::{Deserialize, Serialize};

/// Default cap on `max_RD * rows` (the dense ELL storage) as a multiple of
/// the source matrix's `nnz`; conversions above it are refused.
pub const DEFAULT_ELL_FILL_LIMIT: usize = 32;

/// A sparse matrix in ELLPACK format.
///
/// `data` and `indices` are `width * rows` column-major arrays: slot `p` of
/// row `r` lives at `p * rows + r`. Padding slots store `T::ZERO` with
/// column index `0`, which is harmless in the SpMV because the product is
/// zero (the paper's implementations do the same).
///
/// # Examples
///
/// ```
/// use smat_matrix::{Csr, Ell};
///
/// let csr = Csr::<f64>::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)])?;
/// let ell = Ell::from_csr(&csr)?;
/// assert_eq!(ell.width(), 2); // max row degree
/// assert_eq!(ell.to_csr(), csr);
/// # Ok::<(), smat_matrix::MatrixError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ell<T> {
    rows: usize,
    cols: usize,
    nnz: usize,
    width: usize,
    data: Vec<T>,
    indices: Vec<u32>,
}

impl<T: Scalar> Ell<T> {
    /// Converts a CSR matrix to ELL with the [default fill
    /// limit](DEFAULT_ELL_FILL_LIMIT).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::ConversionTooExpensive`] when padding would
    /// exceed the limit.
    pub fn from_csr(csr: &Csr<T>) -> Result<Self> {
        Self::from_csr_with(csr, &ConversionLimits::default())
    }

    /// Converts a CSR matrix to ELL under explicit [`ConversionLimits`]:
    /// the fill-ratio cap plus an optional hard byte budget, both checked
    /// from `max_RD` *before* the dense storage is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::ConversionTooExpensive`] when the fill
    /// limit is exceeded, or [`MatrixError::BudgetExceeded`] when the
    /// estimated allocation exceeds the byte budget.
    pub fn from_csr_with(csr: &Csr<T>, limits: &ConversionLimits) -> Result<Self> {
        let fill_limit = limits.ell_fill_limit;
        let rows = csr.rows();
        let width = (0..rows).map(|r| csr.row_degree(r)).max().unwrap_or(0);
        let dense = width.saturating_mul(rows);
        let budget = fill_limit.saturating_mul(csr.nnz().max(1));
        if dense > budget {
            return Err(MatrixError::ConversionTooExpensive {
                format: "ELL",
                would_store: dense,
                limit: budget,
            });
        }
        // Allocation estimate: dense value slots plus the parallel
        // column-index array.
        limits.check_bytes("ELL", dense.saturating_mul(T::BYTES + crate::INDEX_BYTES))?;
        Ok(Self::pack(csr, width))
    }

    /// Packs the first `width` entries of every row, unchecked: all of
    /// them at `max_RD`, HYB's regular part below it.
    pub(crate) fn pack(csr: &Csr<T>, width: usize) -> Self {
        let rows = csr.rows();
        let mut data = vec![T::ZERO; width * rows];
        let mut indices = vec![0u32; width * rows];
        let mut nnz = 0;
        for r in 0..rows {
            let (cols_r, vals_r) = csr.row(r);
            let cut = cols_r.len().min(width);
            for (p, (&c, &v)) in cols_r[..cut].iter().zip(&vals_r[..cut]).enumerate() {
                data[p * rows + r] = v;
                indices[p * rows + r] = c;
            }
            nnz += cut;
        }
        Self {
            rows,
            cols: csr.cols(),
            nnz,
            width,
            data,
            indices,
        }
    }

    /// Converts back to CSR, dropping padding.
    pub fn to_csr(&self) -> Csr<T> {
        let mut triplets = Vec::with_capacity(self.nnz);
        for r in 0..self.rows {
            for p in 0..self.width {
                let v = self.data[p * self.rows + r];
                let c = self.indices[p * self.rows + r] as usize;
                if v != T::ZERO || (c != 0 && p > 0) {
                    // Padding is (ZERO, 0); a genuine stored zero at column 0
                    // in slot 0 is indistinguishable and dropped, which is
                    // acceptable: structure-only zeros do not affect SpMV.
                    if v != T::ZERO {
                        triplets.push((r, c, v));
                    }
                }
            }
        }
        Csr::from_triplets(self.rows, self.cols, &triplets)
            .expect("ell produces in-bounds triplets")
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of logical nonzeros recorded at conversion time.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Packed width = maximum row degree (the paper's `max_RD`).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Column-major packed values.
    #[inline]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Column-major packed column indices.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Fraction of stored slots that are true nonzeros (the paper's
    /// `ER_ELL = NNZ / (max_RD * M)`).
    pub fn fill_ratio(&self) -> f64 {
        if self.data.is_empty() {
            return 1.0;
        }
        self.nnz as f64 / self.data.len() as f64
    }

    /// Reference SpMV `y = A * x` following the paper's Figure 2(d)
    /// column-major loop.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] on vector length
    /// mismatch.
    pub fn spmv(&self, x: &[T], y: &mut [T]) -> Result<()> {
        if x.len() != self.cols {
            return Err(MatrixError::DimensionMismatch {
                context: "ell spmv x",
                expected: self.cols,
                found: x.len(),
            });
        }
        if y.len() != self.rows {
            return Err(MatrixError::DimensionMismatch {
                context: "ell spmv y",
                expected: self.rows,
                found: y.len(),
            });
        }
        y.fill(T::ZERO);
        for p in 0..self.width {
            let col = &self.data[p * self.rows..(p + 1) * self.rows];
            let idx = &self.indices[p * self.rows..(p + 1) * self.rows];
            for r in 0..self.rows {
                y[r] += col[r] * x[idx[r] as usize];
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_csr() -> Csr<f64> {
        Csr::from_triplets(
            4,
            4,
            &[
                (0, 0, 1.0),
                (0, 1, 5.0),
                (1, 1, 2.0),
                (1, 2, 6.0),
                (2, 0, 8.0),
                (2, 2, 3.0),
                (2, 3, 7.0),
                (3, 1, 9.0),
                (3, 3, 4.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn figure2_packing() {
        let ell = Ell::from_csr(&example_csr()).unwrap();
        assert_eq!(ell.width(), 3); // row 2 has 3 entries
        assert_eq!(ell.nnz(), 9);
        // First packed column holds each row's first nonzero.
        assert_eq!(&ell.data()[0..4], &[1.0, 2.0, 8.0, 9.0]);
        assert_eq!(&ell.indices()[0..4], &[0, 1, 0, 1]);
    }

    #[test]
    fn round_trip_csr() {
        let csr = example_csr();
        assert_eq!(Ell::from_csr(&csr).unwrap().to_csr(), csr);
    }

    #[test]
    fn spmv_matches_csr() {
        let csr = example_csr();
        let ell = Ell::from_csr(&csr).unwrap();
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y1 = [0.0; 4];
        let mut y2 = [3.0; 4];
        csr.spmv(&x, &mut y1).unwrap();
        ell.spmv(&x, &mut y2).unwrap();
        assert_eq!(y1, y2);
    }

    #[test]
    fn fill_limit_refuses_skewed_matrices() {
        // One dense row among many empty-ish ones: max_RD * M huge vs nnz.
        let n = 256;
        let mut triplets: Vec<(usize, usize, f64)> = (0..n).map(|c| (0, c, 1.0)).collect();
        triplets.push((n - 1, 0, 1.0));
        let csr = Csr::from_triplets(n, n, &triplets).unwrap();
        let limits = ConversionLimits {
            ell_fill_limit: 4,
            ..ConversionLimits::unlimited()
        };
        let res = Ell::from_csr_with(&csr, &limits);
        assert!(matches!(
            res,
            Err(MatrixError::ConversionTooExpensive { format: "ELL", .. })
        ));
    }

    #[test]
    fn byte_budget_refuses_one_dense_row() {
        // One dense row forces max_RD = n: the estimated allocation is
        // n * n slots even though nnz is tiny.
        let n = 256;
        let mut triplets: Vec<(usize, usize, f64)> = (0..n).map(|c| (0, c, 1.0)).collect();
        triplets.push((n - 1, 0, 1.0));
        let csr = Csr::from_triplets(n, n, &triplets).unwrap();
        let limits = ConversionLimits {
            budget_bytes: Some(64 * 1024),
            ..ConversionLimits::unlimited()
        };
        assert!(matches!(
            Ell::from_csr_with(&csr, &limits),
            Err(MatrixError::BudgetExceeded { format: "ELL", .. })
        ));
    }

    #[test]
    fn byte_budget_counts_four_byte_indices() {
        // 3 x 4 = 12 slots of an f64 value and a u32 column each.
        let csr = example_csr();
        let exact = 12 * (8 + crate::INDEX_BYTES);
        assert_eq!(exact, 12 * (8 + 4));
        let budget = |bytes| ConversionLimits {
            budget_bytes: Some(bytes),
            ..ConversionLimits::unlimited()
        };
        assert!(Ell::from_csr_with(&csr, &budget(exact)).is_ok());
        assert!(matches!(
            Ell::from_csr_with(&csr, &budget(exact - 1)),
            Err(MatrixError::BudgetExceeded {
                format: "ELL",
                required_bytes: 144,
                ..
            })
        ));
    }

    #[test]
    fn fill_ratio_reflects_padding() {
        let ell = Ell::from_csr(&example_csr()).unwrap();
        // 9 nonzeros in 3 * 4 = 12 slots.
        assert!((ell.fill_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn spmv_dimension_errors() {
        let ell = Ell::from_csr(&example_csr()).unwrap();
        let mut y = [0.0; 4];
        assert!(ell.spmv(&[0.0; 5], &mut y).is_err());
        assert!(ell.spmv(&[0.0; 4], &mut y[..2]).is_err());
    }

    #[test]
    fn empty_matrix_and_empty_rows() {
        let csr = Csr::<f64>::from_triplets(3, 3, &[]).unwrap();
        let ell = Ell::from_csr(&csr).unwrap();
        assert_eq!(ell.width(), 0);
        let mut y = [5.0; 3];
        ell.spmv(&[1.0; 3], &mut y).unwrap();
        assert_eq!(y, [0.0; 3]);

        let csr = Csr::<f64>::from_triplets(3, 3, &[(1, 2, 4.0)]).unwrap();
        let ell = Ell::from_csr(&csr).unwrap();
        assert_eq!(ell.width(), 1);
        assert_eq!(ell.to_csr(), csr);
    }
}
