//! Row-by-row CSR assembly for the generators.
//!
//! Every generator knows each row's entries when it finishes the row,
//! so it appends them in column order straight into the three CSR
//! arrays: no `(row, col, value)` triplets and no sort over the whole
//! matrix.

use crate::{Csr, Scalar};

/// The CSR arrays of a matrix being built one row at a time.
pub(super) struct Rows<T> {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<T>,
}

impl<T: Scalar> Rows<T> {
    /// Empty arrays for a `rows x cols` matrix with room for `nnz`
    /// entries (a hint: exact where the generator knows it).
    pub(super) fn new(rows: usize, cols: usize, nnz: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        Self {
            rows,
            cols,
            row_ptr,
            col_idx: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        }
    }

    /// Appends one entry to the current row; columns must increase.
    #[inline]
    pub(super) fn push(&mut self, col: usize, value: T) {
        debug_assert!(col < self.cols);
        let col = col as u32;
        debug_assert!(
            self.row_ptr.last() == Some(&self.col_idx.len()) || self.col_idx.last() < Some(&col)
        );
        self.col_idx.push(col);
        self.values.push(value);
    }

    /// Closes the current row.
    #[inline]
    pub(super) fn end_row(&mut self) {
        self.row_ptr.push(self.col_idx.len());
    }

    /// Appends `entries` as the next whole row, sorting them by column
    /// and summing entries that share one, as [`Csr::from_triplets`]
    /// does with a row's triplets in the order they were pushed.
    pub(super) fn push_unsorted_row(&mut self, entries: &mut [(usize, T)]) {
        entries.sort_unstable_by_key(|&(c, _)| c);
        let mut i = 0;
        while i < entries.len() {
            let (c, mut v) = entries[i];
            let mut j = i + 1;
            while j < entries.len() && entries[j].0 == c {
                v += entries[j].1;
                j += 1;
            }
            self.push(c, v);
            i = j;
        }
        self.end_row();
    }

    /// The finished matrix, its arrays trimmed to their length.
    pub(super) fn finish(mut self) -> Csr<T> {
        debug_assert_eq!(self.row_ptr.len(), self.rows + 1);
        self.col_idx.shrink_to_fit();
        self.values.shrink_to_fit();
        debug_assert_eq!(self.col_idx.capacity(), self.col_idx.len());
        Csr::from_parts_unchecked(
            self.rows,
            self.cols,
            self.row_ptr,
            self.col_idx,
            self.values,
        )
    }
}

/// The capacity to give a matrix expecting `mean` entries: an eighth
/// more, so the arrays rarely grow; [`Rows::finish`] trims the rest.
pub(super) fn capacity_for(mean: f64) -> usize {
    (mean * 1.125) as usize + 64
}
