//! Compressed Sparse Row (CSR) storage.
//!
//! CSR is SMAT's *default and unified interface format*: the paper's
//! statistical study (Table 1) found 63% of the 2386 UF matrices favor CSR,
//! so every matrix enters the auto-tuner as CSR and is converted outward
//! only when the learned model predicts another format will win.

use crate::error::{MatrixError, Result};
use crate::Scalar;
use serde::{Deserialize, Serialize};

/// A sparse matrix in Compressed Sparse Row format.
///
/// Three arrays, exactly as in Figure 2(a) of the paper:
///
/// * `values` ("data") — the nonzero elements, row by row;
/// * `col_idx` ("indices") — the column of each stored element;
/// * `row_ptr` ("ptr") — `row_ptr[i]..row_ptr[i+1]` is the slice of
///   `values`/`col_idx` holding row `i`.
///
/// Within a row, column indices are kept sorted and unique; constructors
/// enforce this (sorting on entry where necessary) because several kernels
/// and the feature extractor rely on it.
///
/// # Examples
///
/// ```
/// use smat_matrix::Csr;
///
/// // [ 1 5 . . ]
/// // [ . 2 6 . ]
/// // [ 8 . 3 7 ]
/// // [ . 9 . 4 ]
/// let m = Csr::<f64>::from_triplets(
///     4,
///     4,
///     &[
///         (0, 0, 1.0), (0, 1, 5.0),
///         (1, 1, 2.0), (1, 2, 6.0),
///         (2, 0, 8.0), (2, 2, 3.0), (2, 3, 7.0),
///         (3, 1, 9.0), (3, 3, 4.0),
///     ],
/// )?;
/// assert_eq!(m.nnz(), 9);
/// assert_eq!(m.get(2, 3), Some(7.0));
/// assert_eq!(m.get(0, 3), None);
/// # Ok::<(), smat_matrix::MatrixError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Csr<T> {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<T>,
}

impl<T: Scalar> Csr<T> {
    /// Builds a CSR matrix from raw arrays, validating every structural
    /// invariant.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::InvalidStructure`] if `rows` or `cols`
    /// exceeds `u32::MAX`, if `row_ptr` does not have `rows + 1`
    /// entries, is non-monotone, does not end at `col_idx.len()`, if
    /// `col_idx` and `values` lengths disagree, if any column index is
    /// out of range, or if a row's column indices are not strictly
    /// increasing.
    pub fn new(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<T>,
    ) -> Result<Self> {
        crate::check_shape(rows, cols)?;
        if row_ptr.len() != rows + 1 {
            return Err(MatrixError::InvalidStructure(format!(
                "row_ptr has {} entries, expected rows + 1 = {}",
                row_ptr.len(),
                rows + 1
            )));
        }
        if row_ptr[0] != 0 {
            return Err(MatrixError::InvalidStructure(
                "row_ptr must start at 0".into(),
            ));
        }
        if row_ptr[rows] != col_idx.len() {
            return Err(MatrixError::InvalidStructure(format!(
                "row_ptr must end at nnz = {}, ends at {}",
                col_idx.len(),
                row_ptr[rows]
            )));
        }
        if col_idx.len() != values.len() {
            return Err(MatrixError::InvalidStructure(format!(
                "col_idx ({}) and values ({}) lengths differ",
                col_idx.len(),
                values.len()
            )));
        }
        for w in row_ptr.windows(2) {
            if w[0] > w[1] {
                return Err(MatrixError::InvalidStructure(
                    "row_ptr must be non-decreasing".into(),
                ));
            }
        }
        for r in 0..rows {
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(MatrixError::InvalidStructure(format!(
                        "row {r} column indices must be strictly increasing"
                    )));
                }
            }
            if let Some(&c) = row.last() {
                if c as usize >= cols {
                    return Err(MatrixError::InvalidStructure(format!(
                        "row {r} has column index {c} >= cols = {cols}"
                    )));
                }
            }
        }
        Ok(Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Builds a CSR matrix from raw arrays **without** validating
    /// invariants.
    ///
    /// Intended for converters and generators that construct the arrays in
    /// sorted order by design; all safe code can call it, but violating the
    /// documented CSR invariants leads to wrong results or panics in
    /// kernels later.
    pub fn from_parts_unchecked(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<T>,
    ) -> Self {
        debug_assert!(crate::check_shape(rows, cols).is_ok());
        debug_assert_eq!(row_ptr.len(), rows + 1);
        debug_assert_eq!(col_idx.len(), values.len());
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// Triplets may be unsorted; duplicate coordinates are summed (the
    /// Matrix Market convention). Explicit zeros are kept — sparsity
    /// *structure* is meaningful to the auto-tuner independent of values.
    /// Triplets in strictly increasing `(row, col)` order — what
    /// [`Csr::iter`] yields — are copied straight into place; any other
    /// order is sorted first. Both give the same arrays.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::InvalidStructure`] if `rows` or `cols`
    /// exceeds `u32::MAX`, or [`MatrixError::IndexOutOfBounds`] for the
    /// first triplet that lies outside `rows x cols`.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, T)]) -> Result<Self> {
        crate::check_shape(rows, cols)?;
        let mut ordered = true;
        let mut last = None;
        for &(r, c, _) in triplets {
            if r >= rows || c >= cols {
                return Err(MatrixError::IndexOutOfBounds {
                    row: r,
                    col: c,
                    rows,
                    cols,
                });
            }
            ordered &= last < Some((r, c));
            last = Some((r, c));
        }
        Ok(if ordered {
            Self::from_ordered_triplets(rows, cols, triplets)
        } else {
            Self::from_unordered_triplets(rows, cols, triplets)
        })
    }

    /// [`Csr::from_triplets`] for in-range triplets in strictly
    /// increasing `(row, col)` order: no entry moves and none merges.
    fn from_ordered_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, T)]) -> Self {
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        for (i, &(r, _, _)) in triplets.iter().enumerate() {
            // Every row up to `r` not yet started starts here.
            while row_ptr.len() <= r {
                row_ptr.push(i);
            }
        }
        row_ptr.resize(rows + 1, triplets.len());
        Self {
            rows,
            cols,
            row_ptr,
            col_idx: triplets.iter().map(|&(_, c, _)| c as u32).collect(),
            values: triplets.iter().map(|&(_, _, v)| v).collect(),
        }
    }

    /// [`Csr::from_triplets`] for in-range triplets in any order.
    fn from_unordered_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, T)]) -> Self {
        // Counting sort by row, then sort each row by column and merge dups.
        let mut counts = vec![0usize; rows + 1];
        for &(r, _, _) in triplets {
            counts[r + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let mut scratch: Vec<(u32, T)> = vec![(0, T::ZERO); triplets.len()];
        let mut next = counts.clone();
        for &(r, c, v) in triplets {
            scratch[next[r]] = (c as u32, v);
            next[r] += 1;
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        row_ptr.push(0);
        for r in 0..rows {
            let row = &mut scratch[counts[r]..counts[r + 1]];
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row.len() {
                let (c, mut v) = row[i];
                let mut j = i + 1;
                while j < row.len() && row[j].0 == c {
                    v += row[j].1;
                    j += 1;
                }
                col_idx.push(c);
                values.push(v);
                i = j;
            }
            row_ptr.push(col_idx.len());
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Builds a CSR matrix from a dense row-major array, storing every
    /// element whose absolute value exceeds `threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `dense.len() != rows * cols`, or if `rows` or `cols`
    /// exceeds `u32::MAX`.
    pub fn from_dense(rows: usize, cols: usize, dense: &[T], threshold: T) -> Self {
        assert_eq!(dense.len(), rows * cols, "dense array has wrong length");
        assert!(
            crate::check_shape(rows, cols).is_ok(),
            "shape exceeds the u32 index range"
        );
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..rows {
            for c in 0..cols {
                let v = dense[r * cols + c];
                if v.abs() > threshold {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// The identity matrix of order `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX`.
    pub fn identity(n: usize) -> Self {
        let last = u32::try_from(n).expect("order exceeds the u32 index range");
        Self {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..last).collect(),
            values: vec![T::ONE; n],
        }
    }

    /// Number of rows (the paper's parameter `M`).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the paper's parameter `N`).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries (the paper's parameter `NNZ`).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The row pointer array (`ptr` in the paper's Figure 2).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column index array (`indices` in the paper's Figure 2).
    #[inline]
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// The stored values (`data` in the paper's Figure 2).
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Mutable access to the stored values (structure stays fixed).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Number of stored entries in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row_degree(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// The `(column, value)` pairs of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[T]) {
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// Looks up element `(r, c)`, returning `None` for a structurally
    /// absent entry.
    pub fn get(&self, r: usize, c: usize) -> Option<T> {
        if r >= self.rows || c >= self.cols {
            return None;
        }
        let (cols, vals) = self.row(r);
        // `c < self.cols <= u32::MAX`: the narrowing is exact.
        cols.binary_search(&(c as u32)).ok().map(|k| vals[k])
    }

    /// Iterates over all stored entries as `(row, col, value)`.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            csr: self,
            row: 0,
            pos: 0,
        }
    }

    /// The transpose, as a new CSR matrix.
    pub fn transpose(&self) -> Self {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let ptr = counts.clone();
        let nnz = self.nnz();
        let mut col_idx = vec![0u32; nnz];
        let mut values = vec![T::ZERO; nnz];
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k] as usize;
                let dst = counts[c];
                col_idx[dst] = r as u32;
                values[dst] = self.values[k];
                counts[c] += 1;
            }
        }
        Self {
            rows: self.cols,
            cols: self.rows,
            row_ptr: ptr,
            col_idx,
            values,
        }
    }

    /// The main-diagonal entries, `T::ZERO` where absent.
    pub fn diagonal(&self) -> Vec<T> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self.get(i, i).unwrap_or(T::ZERO)).collect()
    }

    /// Densifies the matrix (row-major). Intended for tests and tiny
    /// matrices only.
    pub fn to_dense(&self) -> Vec<T> {
        let mut dense = vec![T::ZERO; self.rows * self.cols];
        for (r, c, v) in self.iter() {
            dense[r * self.cols + c] = v;
        }
        dense
    }

    /// Reference (textbook) SpMV: `y = A * x`. Kernels in `smat-kernels`
    /// are validated against this implementation.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if `x.len() != cols` or
    /// `y.len() != rows`.
    pub fn spmv(&self, x: &[T], y: &mut [T]) -> Result<()> {
        if x.len() != self.cols {
            return Err(MatrixError::DimensionMismatch {
                context: "spmv x",
                expected: self.cols,
                found: x.len(),
            });
        }
        if y.len() != self.rows {
            return Err(MatrixError::DimensionMismatch {
                context: "spmv y",
                expected: self.rows,
                found: y.len(),
            });
        }
        for (r, out) in y.iter_mut().enumerate() {
            let mut acc = T::ZERO;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            *out = acc;
        }
        Ok(())
    }

    /// Scales every stored value by `factor`.
    pub fn scale(&mut self, factor: T) {
        for v in &mut self.values {
            *v *= factor;
        }
    }

    /// Drops stored entries with `|v| <= threshold`, compacting storage.
    pub fn prune(&self, threshold: T) -> Self {
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..self.rows {
            let (cs, vs) = self.row(r);
            for (&c, &v) in cs.iter().zip(vs) {
                if v.abs() > threshold {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Self {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// The position of the first non-finite stored value (NaN or
    /// infinity), or `None` when every value is finite.
    ///
    /// The SMAT runtime screens inputs with this before tuning: a
    /// poisoned value would propagate through every candidate
    /// measurement and into the product, so such matrices are served in
    /// degraded mode instead of being tuned and cached.
    pub fn first_non_finite(&self) -> Option<(usize, usize)> {
        for r in 0..self.rows {
            let span = self.row_ptr[r]..self.row_ptr[r + 1];
            for k in span {
                if !self.values[k].is_finite() {
                    return Some((r, self.col_idx[k] as usize));
                }
            }
        }
        None
    }

    /// Verifies all structural invariants, returning a description of the
    /// first violation. Useful in tests and after unchecked construction.
    pub fn validate(&self) -> Result<()> {
        Self::new(
            self.rows,
            self.cols,
            self.row_ptr.clone(),
            self.col_idx.clone(),
            self.values.clone(),
        )
        .map(|_| ())
    }
}

/// Iterator over `(row, col, value)` entries of a [`Csr`] matrix, produced
/// by [`Csr::iter`].
#[derive(Debug)]
pub struct Iter<'a, T> {
    csr: &'a Csr<T>,
    row: usize,
    pos: usize,
}

impl<T: Scalar> Iterator for Iter<'_, T> {
    type Item = (usize, usize, T);

    fn next(&mut self) -> Option<Self::Item> {
        while self.row < self.csr.rows {
            if self.pos < self.csr.row_ptr[self.row + 1] {
                let k = self.pos;
                self.pos += 1;
                let c = self.csr.col_idx[k] as usize;
                return Some((self.row, c, self.csr.values[k]));
            }
            self.row += 1;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.csr.nnz() - self.pos;
        (rem, Some(rem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Csr<f64> {
        // The paper's Figure 2 example matrix:
        // [ 1 5 . . ]
        // [ . 2 6 . ]
        // [ 8 . 3 7 ]
        // [ . 9 . 4 ]
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
        let m = example();
        assert_eq!(m.row_ptr(), &[0, 2, 4, 7, 9]);
        assert_eq!(m.col_idx(), &[0, 1, 1, 2, 0, 2, 3, 1, 3]);
        assert_eq!(m.values(), &[1.0, 5.0, 2.0, 6.0, 8.0, 3.0, 7.0, 9.0, 4.0]);
    }

    #[test]
    fn from_triplets_unsorted_and_duplicates() {
        let m =
            Csr::<f64>::from_triplets(2, 2, &[(1, 1, 1.0), (0, 0, 2.0), (1, 1, 3.0), (0, 1, -1.0)])
                .unwrap();
        assert_eq!(m.get(1, 1), Some(4.0));
        assert_eq!(m.get(0, 0), Some(2.0));
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn from_triplets_out_of_bounds() {
        let e = Csr::<f64>::from_triplets(2, 2, &[(2, 0, 1.0)]).unwrap_err();
        assert!(matches!(e, MatrixError::IndexOutOfBounds { .. }));
    }

    /// What `from_triplets` did with every input before ordered ones
    /// were copied straight: the range check, then the counting sort.
    fn by_counting_sort(rows: usize, cols: usize, t: &[(usize, usize, f64)]) -> Result<Csr<f64>> {
        if let Some(&(row, col, _)) = t.iter().find(|&&(r, c, _)| r >= rows || c >= cols) {
            return Err(MatrixError::IndexOutOfBounds {
                row,
                col,
                rows,
                cols,
            });
        }
        Ok(Csr::from_unordered_triplets(rows, cols, t))
    }

    type Arrays = (Vec<usize>, Vec<u32>, Vec<u64>);
    type Triplets = Vec<(usize, usize, f64)>;

    fn arrays(m: &Csr<f64>) -> Arrays {
        let bits = m.values().iter().map(|v| v.to_bits()).collect();
        (m.row_ptr().to_vec(), m.col_idx().to_vec(), bits)
    }

    #[test]
    fn ordered_triplets_assemble_as_the_counting_sort_does() {
        let nan = f64::from_bits(0x7FF8_0000_0000_0001);
        let mut big = Vec::new();
        let mut state = 0x5EED_u64;
        for r in 0..300 {
            for c in 0..300 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                if state >> 60 == 0 {
                    big.push((r, c, (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5));
                }
            }
        }
        let example: Vec<_> = example().iter().collect();
        let cases: Vec<(usize, usize, Triplets)> = vec![
            (4, 4, example.clone()),
            (4, 4, example.iter().rev().copied().collect()),
            (300, 300, big.clone()),
            (300, 300, big.iter().rev().copied().collect()),
            (3, 3, vec![]),
            (1, 1, vec![(0, 0, -0.0)]),
            // Empty rows first, between and last.
            (6, 4, vec![(2, 0, 1.0), (2, 3, nan), (4, 1, -0.0)]),
            (6, 4, vec![(0, 1, 1.0), (5, 0, 2.0)]),
            // Duplicates, adjacent or not, in otherwise sorted input.
            (2, 2, vec![(0, 0, 1.0), (0, 0, 2.0), (1, 1, 3.0)]),
            (2, 2, vec![(0, 0, 1.0), (1, 1, 3.0), (1, 1, 0.5)]),
            (
                2,
                2,
                vec![(1, 1, 1.0), (0, 0, 2.0), (1, 1, 3.0), (0, 1, -1.0)],
            ),
            // Sorted by row only, and sorted by column only.
            (2, 3, vec![(0, 2, 1.0), (0, 0, 2.0), (1, 1, 3.0)]),
            (3, 2, vec![(2, 0, 1.0), (0, 1, 2.0)]),
            // Out of range: first, in the middle of sorted input, by
            // column, after a disorder, and twice (the first is named).
            (2, 2, vec![(2, 0, 1.0)]),
            (
                3,
                3,
                vec![(0, 0, 1.0), (1, 1, 1.0), (3, 0, 1.0), (2, 2, 1.0)],
            ),
            (3, 3, vec![(0, 0, 1.0), (1, 7, 1.0)]),
            (3, 3, vec![(1, 1, 1.0), (0, 0, 1.0), (2, 5, 1.0)]),
            (3, 3, vec![(0, 9, 1.0), (9, 0, 1.0)]),
        ];
        for (rows, cols, t) in &cases {
            let (rows, cols) = (*rows, *cols);
            // `MatrixError` has no `PartialEq`: compare what it says.
            let outcome = |m: Result<Csr<f64>>| m.map(|m| arrays(&m)).map_err(|e| format!("{e:?}"));
            let want = outcome(by_counting_sort(rows, cols, t));
            let got = outcome(Csr::from_triplets(rows, cols, t));
            assert_eq!(got, want, "{rows}x{cols} {t:?}");
            let ordered = t.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1));
            if ordered && want.is_ok() {
                let direct = Csr::from_ordered_triplets(rows, cols, t);
                assert_eq!(Ok(arrays(&direct)), want, "{rows}x{cols} {t:?}");
                direct.validate().unwrap();
            }
        }
    }

    #[test]
    fn shapes_past_the_u32_range_are_refused_before_allocating() {
        let big = u32::MAX as usize + 1;
        for (rows, cols) in [(big, 3), (3, big), (big, big)] {
            assert!(matches!(
                Csr::<f64>::from_triplets(rows, cols, &[]),
                Err(MatrixError::InvalidStructure(_))
            ));
            assert!(matches!(
                Csr::<f64>::new(rows, cols, vec![0], vec![], vec![]),
                Err(MatrixError::InvalidStructure(_))
            ));
            assert!(matches!(
                crate::Coo::<f64>::new(rows, cols, vec![], vec![], vec![]),
                Err(MatrixError::InvalidStructure(_))
            ));
        }
        let edge = u32::MAX as usize;
        let m = Csr::<f64>::from_triplets(1, edge, &[(0, edge - 1, 2.0)]).unwrap();
        assert_eq!(m.col_idx(), &[u32::MAX - 1]);
        assert_eq!(m.iter().next(), Some((0, edge - 1, 2.0)));
    }

    #[test]
    fn new_rejects_bad_row_ptr() {
        assert!(Csr::<f64>::new(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(Csr::<f64>::new(2, 2, vec![1, 1, 1], vec![], vec![]).is_err());
        assert!(Csr::<f64>::new(2, 2, vec![0, 2, 1], vec![0], vec![1.0]).is_err());
        assert!(Csr::<f64>::new(2, 2, vec![0, 0, 2], vec![0], vec![1.0]).is_err());
    }

    #[test]
    fn new_rejects_bad_columns() {
        // out of range
        assert!(Csr::<f64>::new(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // unsorted within a row
        assert!(Csr::<f64>::new(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
        // duplicate within a row
        assert!(Csr::<f64>::new(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn spmv_matches_dense() {
        let m = example();
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y = [0.0; 4];
        m.spmv(&x, &mut y).unwrap();
        assert_eq!(y, [11.0, 22.0, 45.0, 34.0]);
    }

    #[test]
    fn spmv_dimension_errors() {
        let m = example();
        let mut y = [0.0; 4];
        assert!(m.spmv(&[1.0; 3], &mut y).is_err());
        assert!(m.spmv(&[1.0; 4], &mut y[..3]).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let m = example();
        let t = m.transpose();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.get(1, 0), Some(5.0));
        assert_eq!(t.get(3, 2), Some(7.0));
        let tt = t.transpose();
        assert_eq!(tt, m);
        t.validate().unwrap();
    }

    #[test]
    fn identity_behaves() {
        let i = Csr::<f64>::identity(3);
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        i.spmv(&x, &mut y).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn diagonal_and_dense() {
        let m = example();
        assert_eq!(m.diagonal(), vec![1.0, 2.0, 3.0, 4.0]);
        let d = m.to_dense();
        assert_eq!(d[0], 1.0);
        assert_eq!(d[2 * 4 + 3], 7.0);
        assert_eq!(d[4], 0.0);
    }

    #[test]
    fn prune_drops_small_entries() {
        let mut m = example();
        m.values_mut()[0] = 1e-12;
        let p = m.prune(1e-9);
        assert_eq!(p.nnz(), 8);
        assert_eq!(p.get(0, 0), None);
        p.validate().unwrap();
    }

    #[test]
    fn iter_yields_sorted_triplets() {
        let m = example();
        let tri: Vec<_> = m.iter().collect();
        assert_eq!(tri.len(), 9);
        assert_eq!(tri[0], (0, 0, 1.0));
        assert_eq!(tri[8], (3, 3, 4.0));
        assert!(tri.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
    }

    #[test]
    fn empty_rows_and_empty_matrix() {
        let m = Csr::<f64>::from_triplets(3, 3, &[(1, 1, 1.0)]).unwrap();
        assert_eq!(m.row_degree(0), 0);
        assert_eq!(m.row_degree(1), 1);
        let z = Csr::<f64>::from_triplets(0, 0, &[]).unwrap();
        assert_eq!(z.nnz(), 0);
        let mut y: [f64; 0] = [];
        z.spmv(&[], &mut y).unwrap();
    }

    #[test]
    fn from_dense_round_trip() {
        let m = example();
        let d = m.to_dense();
        let back = Csr::from_dense(4, 4, &d, 0.0);
        assert_eq!(back, m);
    }

    #[test]
    fn first_non_finite_locates_poison() {
        let mut m = example();
        assert_eq!(m.first_non_finite(), None);
        m.values_mut()[5] = f64::NAN; // entry (2, 2)
        assert_eq!(m.first_non_finite(), Some((2, 2)));
        m.values_mut()[5] = 3.0;
        m.values_mut()[8] = f64::INFINITY; // entry (3, 3)
        assert_eq!(m.first_non_finite(), Some((3, 3)));
    }

    #[test]
    fn scale_changes_values() {
        let mut m = example();
        m.scale(2.0);
        assert_eq!(m.get(0, 0), Some(2.0));
        assert_eq!(m.get(3, 3), Some(8.0));
    }
}
