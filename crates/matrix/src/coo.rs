//! COOrdinate (COO) storage.
//!
//! COO stores row indices explicitly (Figure 2(b) of the paper). SMAT keeps
//! it as a candidate because it "usually performs better in large scale
//! graph analysis applications" — matrices with power-law row degree
//! distributions where CSR's per-row loop suffers extreme imbalance.

use crate::error::{MatrixError, Result};
use crate::Scalar;
use serde::{Deserialize, Serialize};

/// A sparse matrix in COOrdinate (triplet) format.
///
/// Entries are kept sorted by `(row, col)` and duplicate-free; constructors
/// establish this invariant. Sorted order makes the sequential kernel's
/// writes to `y` cache-friendly and lets the parallel kernel partition
/// entries into contiguous row ranges.
///
/// # Examples
///
/// ```
/// use smat_matrix::{Coo, Csr};
///
/// let csr = Csr::<f64>::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 2.0)])?;
/// let coo = Coo::from_csr(&csr);
/// assert_eq!(coo.row_idx(), &[0, 1]);
/// assert_eq!(coo.to_csr(), csr);
/// # Ok::<(), smat_matrix::MatrixError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Coo<T> {
    rows: usize,
    cols: usize,
    row_idx: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<T>,
}

impl<T: Scalar> Coo<T> {
    /// Builds a COO matrix from parallel index/value arrays, sorting by
    /// `(row, col)` and summing duplicates.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::InvalidStructure`] if the arrays have
    /// different lengths, or [`MatrixError::IndexOutOfBounds`] if an index
    /// exceeds the dimensions.
    pub fn new(
        rows: usize,
        cols: usize,
        row_idx: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<T>,
    ) -> Result<Self> {
        if row_idx.len() != col_idx.len() || col_idx.len() != values.len() {
            return Err(MatrixError::InvalidStructure(format!(
                "coo arrays have different lengths: {} rows, {} cols, {} values",
                row_idx.len(),
                col_idx.len(),
                values.len()
            )));
        }
        for (&r, &c) in row_idx.iter().zip(&col_idx) {
            if r >= rows || c >= cols {
                return Err(MatrixError::IndexOutOfBounds {
                    row: r,
                    col: c,
                    rows,
                    cols,
                });
            }
        }
        let mut entries: Vec<(usize, usize, T)> = row_idx
            .into_iter()
            .zip(col_idx)
            .zip(values)
            .map(|((r, c), v)| (r, c, v))
            .collect();
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut row_idx = Vec::with_capacity(entries.len());
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        for (r, c, v) in entries {
            if row_idx.last() == Some(&r) && col_idx.last() == Some(&c) {
                *values.last_mut().expect("non-empty") += v;
            } else {
                row_idx.push(r);
                col_idx.push(c);
                values.push(v);
            }
        }
        Ok(Self::from_sorted((rows, cols), row_idx, col_idx, values))
    }

    /// Wraps arrays the caller guarantees are equally long, in bounds,
    /// sorted by `(row, col)` and duplicate-free.
    pub(crate) fn from_sorted(
        (rows, cols): (usize, usize),
        row_idx: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<T>,
    ) -> Self {
        Self {
            rows,
            cols,
            row_idx,
            col_idx,
            values,
        }
    }

    /// Converts a CSR matrix to COO (cheap: one pass expanding row
    /// pointers into explicit row indices).
    pub fn from_csr(csr: &crate::Csr<T>) -> Self {
        let mut row_idx = Vec::with_capacity(csr.nnz());
        for r in 0..csr.rows() {
            let deg = csr.row_degree(r);
            row_idx.extend(std::iter::repeat_n(r, deg));
        }
        Self::from_sorted(
            (csr.rows(), csr.cols()),
            row_idx,
            csr.col_idx().to_vec(),
            csr.values().to_vec(),
        )
    }

    /// Converts back to CSR (cheap: row indices are already sorted).
    pub fn to_csr(&self) -> crate::Csr<T> {
        let mut row_ptr = vec![0usize; self.rows + 1];
        for &r in &self.row_idx {
            row_ptr[r + 1] += 1;
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        crate::Csr::from_parts_unchecked(
            self.rows,
            self.cols,
            row_ptr,
            self.col_idx.clone(),
            self.values.clone(),
        )
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

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row index of each stored entry (`rows` array in Figure 2(b)).
    #[inline]
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }

    /// Column index of each stored entry (`cols` array in Figure 2(b)).
    #[inline]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Stored values (`data` array in Figure 2(b)).
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Iterates over stored entries as `(row, col, value)` in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        self.row_idx
            .iter()
            .zip(&self.col_idx)
            .zip(&self.values)
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Reference SpMV `y = A * x` following the paper's Figure 2(b) loop.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] on vector length
    /// mismatch.
    pub fn spmv(&self, x: &[T], y: &mut [T]) -> Result<()> {
        if x.len() != self.cols {
            return Err(MatrixError::DimensionMismatch {
                context: "coo spmv x",
                expected: self.cols,
                found: x.len(),
            });
        }
        if y.len() != self.rows {
            return Err(MatrixError::DimensionMismatch {
                context: "coo spmv y",
                expected: self.rows,
                found: y.len(),
            });
        }
        y.fill(T::ZERO);
        for i in 0..self.values.len() {
            y[self.row_idx[i]] += self.values[i] * x[self.col_idx[i]];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Csr;

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
    fn figure2_layout() {
        let coo = Coo::from_csr(&example_csr());
        assert_eq!(coo.row_idx(), &[0, 0, 1, 1, 2, 2, 2, 3, 3]);
        assert_eq!(coo.col_idx(), &[0, 1, 1, 2, 0, 2, 3, 1, 3]);
        assert_eq!(coo.values(), &[1.0, 5.0, 2.0, 6.0, 8.0, 3.0, 7.0, 9.0, 4.0]);
    }

    #[test]
    fn round_trip_csr() {
        let csr = example_csr();
        assert_eq!(Coo::from_csr(&csr).to_csr(), csr);
    }

    #[test]
    fn new_sorts_and_merges() {
        let coo = Coo::new(2, 2, vec![1, 0, 1], vec![0, 1, 0], vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(coo.nnz(), 2);
        assert_eq!(coo.row_idx(), &[0, 1]);
        assert_eq!(coo.values(), &[2.0, 4.0]);
    }

    #[test]
    fn new_validates() {
        assert!(Coo::<f64>::new(2, 2, vec![0], vec![0, 1], vec![1.0]).is_err());
        assert!(Coo::<f64>::new(2, 2, vec![2], vec![0], vec![1.0]).is_err());
    }

    #[test]
    fn spmv_matches_csr() {
        let csr = example_csr();
        let coo = Coo::from_csr(&csr);
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y1 = [0.0; 4];
        let mut y2 = [7.0; 4]; // pre-filled garbage must be overwritten
        csr.spmv(&x, &mut y1).unwrap();
        coo.spmv(&x, &mut y2).unwrap();
        assert_eq!(y1, y2);
    }

    #[test]
    fn spmv_dimension_errors() {
        let coo = Coo::from_csr(&example_csr());
        let mut y = [0.0; 4];
        assert!(coo.spmv(&[0.0; 2], &mut y).is_err());
        assert!(coo.spmv(&[0.0; 4], &mut y[..1]).is_err());
    }

    #[test]
    fn empty_matrix() {
        let coo = Coo::<f64>::new(0, 0, vec![], vec![], vec![]).unwrap();
        assert_eq!(coo.nnz(), 0);
        let mut y: [f64; 0] = [];
        coo.spmv(&[], &mut y).unwrap();
    }
}
