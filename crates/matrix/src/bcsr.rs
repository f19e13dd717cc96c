//! Block Compressed Sparse Row (BCSR) storage.
//!
//! BCSR groups the matrix into dense `br x bc` register blocks and stores
//! one column index per *block* instead of per nonzero (the classic
//! register-blocking transform of Im & Yelick's Sparsity and OSKI, which
//! the paper's related-work section cites as the blocked tier of an
//! auto-tuned SpMV library). Matrices whose nonzeros cluster into small
//! dense tiles — FEM discretizations, multi-dof PDE systems — trade a
//! little zero fill for shorter index streams and register-resident
//! accumulators.
//!
//! The fill trade-off is the same one DIA and ELL face, so conversion is
//! gated by the same [`ConversionLimits`] machinery: a fill-ratio cap
//! ([`DEFAULT_BCSR_FILL_LIMIT`]) refuses hopelessly scattered patterns,
//! and the optional byte budget is checked from the block count *before*
//! the dense block storage is allocated.

use crate::error::{MatrixError, Result};
use crate::{ConversionLimits, Csr, Scalar};
use serde::{Deserialize, Serialize};

/// Default cap on stored block elements (`blocks * br * bc`) as a
/// multiple of the source matrix's `nnz`.
///
/// A conversion that would store more than `DEFAULT_BCSR_FILL_LIMIT *
/// nnz` elements (i.e. more than ~75% explicit-zero fill at the default
/// of 4) is refused: such a pattern has no dense block structure and the
/// blocked kernels would only amplify memory traffic.
pub const DEFAULT_BCSR_FILL_LIMIT: usize = 4;

/// A sparse matrix in Block CSR format with `br x bc` dense blocks.
///
/// `block_ptr`/`block_col` form a CSR structure over *blocks*: block row
/// `b` owns blocks `block_ptr[b]..block_ptr[b + 1]`, and block `k` covers
/// matrix columns `block_col[k] * bc ..`. Each block's values are stored
/// row-major in `values[k * br * bc ..][i * bc + j]`, zero-filled where
/// the source matrix has no entry. Edge blocks past the matrix bounds
/// are padded with zeros; `nnz` counts only the source nonzeros.
///
/// # Examples
///
/// ```
/// use smat_matrix::{Bcsr, Csr};
///
/// // A 4x4 matrix of two dense 2x2 tiles on the diagonal.
/// let csr = Csr::<f64>::from_triplets(
///     4,
///     4,
///     &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0),
///       (2, 2, 5.0), (2, 3, 6.0), (3, 2, 7.0), (3, 3, 8.0)],
/// )?;
/// let bcsr = Bcsr::from_csr(&csr, 2, 2)?;
/// assert_eq!(bcsr.block_count(), 2); // zero fill-in: perfect blocking
/// assert_eq!(bcsr.to_csr(), csr);
/// # Ok::<(), smat_matrix::MatrixError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bcsr<T> {
    rows: usize,
    cols: usize,
    nnz: usize,
    br: usize,
    bc: usize,
    block_ptr: Vec<usize>,
    block_col: Vec<u32>,
    values: Vec<T>,
}

/// Conversion-refusal label for a block size (the error taxonomy wants a
/// `&'static str`).
fn format_name(br: usize, bc: usize) -> &'static str {
    match (br, bc) {
        (2, 2) => "BCSR2",
        (4, 4) => "BCSR4",
        _ => "BCSR",
    }
}

impl<T: Scalar> Bcsr<T> {
    /// Converts a CSR matrix to `br x bc` BCSR with the [default fill
    /// limit](DEFAULT_BCSR_FILL_LIMIT).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::ConversionTooExpensive`] when the stored
    /// block elements would exceed `DEFAULT_BCSR_FILL_LIMIT * nnz`.
    ///
    /// # Panics
    ///
    /// Panics if `br` or `bc` is zero or greater than 8 (the kernels
    /// keep one accumulator register per block row).
    pub fn from_csr(csr: &Csr<T>, br: usize, bc: usize) -> Result<Self> {
        Self::from_csr_with(csr, br, bc, &ConversionLimits::default())
    }

    /// Converts a CSR matrix to `br x bc` BCSR under explicit
    /// [`ConversionLimits`]: the fill-ratio cap plus an optional hard
    /// byte budget, both checked from the block count *before* the dense
    /// block storage is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::ConversionTooExpensive`] when the fill
    /// limit is exceeded, or [`MatrixError::BudgetExceeded`] when the
    /// estimated allocation exceeds the byte budget.
    ///
    /// # Panics
    ///
    /// Panics if `br` or `bc` is zero or greater than 8.
    pub fn from_csr_with(
        csr: &Csr<T>,
        br: usize,
        bc: usize,
        limits: &ConversionLimits,
    ) -> Result<Self> {
        assert!(
            (1..=8).contains(&br) && (1..=8).contains(&bc),
            "block dimensions must be in 1..=8"
        );
        let name = format_name(br, bc);
        let (rows, cols) = (csr.rows(), csr.cols());
        let block_rows = rows.div_ceil(br);
        // Column -> (block column, column within it); the tuner's block
        // widths are powers of two and skip the division.
        let split = |c: usize| match bc.is_power_of_two() {
            true => (c >> bc.trailing_zeros(), c & (bc - 1)),
            false => (c / bc, c % bc),
        };
        // The entries of block row `b`: its rows are adjacent in CSR.
        let span = |b: usize| csr.row_ptr()[b * br]..csr.row_ptr()[((b + 1) * br).min(rows)];
        // Count pass. `slot[j]` above the number of blocks before this
        // block row marks block column `j` as met in it; earlier block
        // rows leave at most that number, so nothing is reset per row.
        let mut slot = vec![0usize; cols.div_ceil(bc)];
        let mut block_ptr = Vec::with_capacity(block_rows + 1);
        block_ptr.push(0usize);
        let mut blocks = 0usize;
        for b in 0..block_rows {
            let first = blocks;
            for &c in &csr.col_idx()[span(b)] {
                let (j, _) = split(c as usize);
                if slot[j] <= first {
                    slot[j] = first + 1;
                    blocks += 1;
                }
            }
            block_ptr.push(blocks);
        }
        let stored = blocks.saturating_mul(br * bc);
        let budget = limits.bcsr_fill_limit.saturating_mul(csr.nnz().max(1));
        if stored > budget {
            return Err(MatrixError::ConversionTooExpensive {
                format: name,
                would_store: stored,
                limit: budget,
            });
        }
        // Allocation estimate: the dense block values plus both index
        // arrays, checked before either is allocated.
        limits.check_bytes(
            name,
            stored
                .saturating_mul(T::BYTES)
                .saturating_add(blocks.saturating_mul(crate::INDEX_BYTES))
                .saturating_add(block_ptr.len().saturating_mul(std::mem::size_of::<usize>())),
        )?;
        // Fill pass, per block row: gather its distinct block columns,
        // sort those, point `slot[j] - 1` at their blocks, scatter.
        let mut block_col = vec![0u32; blocks];
        let mut values = vec![T::ZERO; stored];
        slot.fill(0);
        for b in 0..block_rows {
            let first = block_ptr[b];
            let mine = &mut block_col[first..block_ptr[b + 1]];
            let mut met = 0;
            for &c in &csr.col_idx()[span(b)] {
                let (j, _) = split(c as usize);
                if slot[j] <= first {
                    slot[j] = first + 1;
                    mine[met] = j as u32;
                    met += 1;
                }
            }
            mine.sort_unstable();
            for (k, &j) in mine.iter().enumerate() {
                slot[j as usize] = first + k + 1;
            }
            for r in b * br..((b + 1) * br).min(rows) {
                let (idx, vals) = csr.row(r);
                let at = (r - b * br) * bc;
                for (&c, &v) in idx.iter().zip(vals) {
                    let (j, within) = split(c as usize);
                    values[(slot[j] - 1) * br * bc + at + within] = v;
                }
            }
        }
        Ok(Self {
            rows,
            cols,
            nnz: csr.nnz(),
            br,
            bc,
            block_ptr,
            block_col,
            values,
        })
    }

    /// Number of matrix rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of matrix columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of nonzeros in the *source* matrix (explicit block fill
    /// zeros are not counted).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Block row height.
    pub fn br(&self) -> usize {
        self.br
    }

    /// Block column width.
    pub fn bc(&self) -> usize {
        self.bc
    }

    /// Number of block rows (`ceil(rows / br)`).
    pub fn block_rows(&self) -> usize {
        self.block_ptr.len() - 1
    }

    /// Total number of stored blocks.
    pub fn block_count(&self) -> usize {
        self.block_col.len()
    }

    /// Block-row pointer array (length `block_rows() + 1`).
    pub fn block_ptr(&self) -> &[usize] {
        &self.block_ptr
    }

    /// Block column index per stored block.
    pub fn block_col(&self) -> &[u32] {
        &self.block_col
    }

    /// Dense block storage, row-major within each `br x bc` block.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Fraction of stored block elements that are explicit zero fill.
    pub fn fill_ratio(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        1.0 - self.nnz as f64 / self.values.len() as f64
    }

    /// Converts back to CSR, dropping the explicit zero fill so a
    /// round trip through BCSR reproduces the source matrix exactly.
    pub fn to_csr(&self) -> Csr<T> {
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        for r in 0..self.rows {
            let b = r / self.br;
            let i = r % self.br;
            for k in self.block_ptr[b]..self.block_ptr[b + 1] {
                let c0 = self.block_col[k] as usize * self.bc;
                let blk = &self.values[k * self.br * self.bc..];
                for j in 0..self.bc.min(self.cols - c0.min(self.cols)) {
                    let v = blk[i * self.bc + j];
                    if v != T::ZERO {
                        col_idx.push((c0 + j) as u32);
                        vals.push(v);
                    }
                }
            }
            row_ptr.push(col_idx.len());
        }
        Csr::from_parts_unchecked(self.rows, self.cols, row_ptr, col_idx, vals)
    }

    /// Sparse matrix-vector product `y = A * x` (serial reference; the
    /// tuned kernels live in `smat-kernels`).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] when `x` or `y` has
    /// the wrong length.
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
        for b in 0..self.block_rows() {
            let r0 = b * self.br;
            let rn = self.br.min(self.rows - r0);
            let mut acc = [T::ZERO; 8];
            for k in self.block_ptr[b]..self.block_ptr[b + 1] {
                let c0 = self.block_col[k] as usize * self.bc;
                let cn = self.bc.min(self.cols - c0);
                let blk = &self.values[k * self.br * self.bc..];
                for (i, a) in acc.iter_mut().enumerate().take(rn) {
                    for j in 0..cn {
                        *a += blk[i * self.bc + j] * x[c0 + j];
                    }
                }
            }
            y[r0..r0 + rn].copy_from_slice(&acc[..rn]);
        }
        Ok(())
    }
}

#[cfg(test)]
impl<T: Scalar> Bcsr<T> {
    /// The parent commit's conversion: sort + dedup of every block
    /// row's entries, a binary search per entry in the fill. The oracle
    /// the marker-array routine must equal, refusals included.
    pub(crate) fn from_csr_with_oracle(
        csr: &Csr<T>,
        br: usize,
        bc: usize,
        limits: &ConversionLimits,
    ) -> Result<Self> {
        assert!(
            (1..=8).contains(&br) && (1..=8).contains(&bc),
            "block dimensions must be in 1..=8"
        );
        let name = format_name(br, bc);
        let rows = csr.rows();
        let cols = csr.cols();
        let block_rows = rows.div_ceil(br);
        // First pass: the distinct block columns of every block row. The
        // per-row column lists are already sorted, so a merge + dedup
        // gives sorted block columns without hashing.
        let mut block_ptr = Vec::with_capacity(block_rows + 1);
        block_ptr.push(0usize);
        let mut block_col: Vec<usize> = Vec::new();
        let mut scratch: Vec<usize> = Vec::new();
        for b in 0..block_rows {
            scratch.clear();
            for r in b * br..((b + 1) * br).min(rows) {
                let (idx, _) = csr.row(r);
                scratch.extend(idx.iter().map(|&c| c as usize / bc));
            }
            scratch.sort_unstable();
            scratch.dedup();
            block_col.extend_from_slice(&scratch);
            block_ptr.push(block_col.len());
        }
        let stored = block_col.len().saturating_mul(br * bc);
        let budget = limits.bcsr_fill_limit.saturating_mul(csr.nnz().max(1));
        if stored > budget {
            return Err(MatrixError::ConversionTooExpensive {
                format: name,
                would_store: stored,
                limit: budget,
            });
        }
        // Allocation estimate: the dense block values plus both index
        // arrays (four-byte block columns), checked before `values` is
        // allocated.
        limits.check_bytes(
            name,
            stored.saturating_mul(T::BYTES) + block_col.len() * 4 + block_ptr.len() * 8,
        )?;
        // Fill pass: scatter each entry into its block slot, located by
        // binary search within the (sorted) block row.
        let mut values = vec![T::ZERO; stored];
        for (r, c, v) in csr.iter() {
            let b = r / br;
            let row_blocks = &block_col[block_ptr[b]..block_ptr[b + 1]];
            // The block exists by construction of the first pass.
            let k = block_ptr[b]
                + row_blocks
                    .binary_search(&(c / bc))
                    .expect("block recorded in first pass");
            values[k * br * bc + (r % br) * bc + (c % bc)] = v;
        }
        Ok(Self {
            rows,
            cols,
            nnz: csr.nnz(),
            br,
            bc,
            block_ptr,
            block_col: block_col.into_iter().map(|j| j as u32).collect(),
            values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{power_law, random_skewed};
    use crate::utils::max_abs_diff;

    fn dense_block_example() -> Csr<f64> {
        Csr::from_triplets(
            4,
            4,
            &[
                (0, 0, 1.0),
                (0, 1, 2.0),
                (1, 0, 3.0),
                (1, 1, 4.0),
                (2, 2, 5.0),
                (2, 3, 6.0),
                (3, 2, 7.0),
                (3, 3, 8.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn perfect_blocks_have_zero_fill() {
        let csr = dense_block_example();
        let b = Bcsr::from_csr(&csr, 2, 2).unwrap();
        assert_eq!(b.block_count(), 2);
        assert_eq!(b.fill_ratio(), 0.0);
        assert_eq!(b.to_csr(), csr);
    }

    #[test]
    fn round_trips_irregular_shapes() {
        for csr in [
            power_law::<f64>(37, 23, 1.8, 3),
            random_skewed::<f64>(5, 61, 4, 0.1, 7, 2),
            Csr::<f64>::from_triplets(1, 9, &[(0, 8, 2.5)]).unwrap(),
            Csr::<f64>::from_triplets(9, 1, &[(8, 0, 2.5)]).unwrap(),
            Csr::<f64>::from_triplets(3, 3, &[]).unwrap(),
        ] {
            for (br, bc) in [(2, 2), (4, 4), (3, 2)] {
                let b = Bcsr::from_csr_with(&csr, br, bc, &ConversionLimits::unlimited()).unwrap();
                assert_eq!(b.to_csr(), csr, "{br}x{bc} round trip");
                assert_eq!(b.nnz(), csr.nnz());
            }
        }
    }

    #[test]
    fn spmv_matches_csr() {
        let csr = power_law::<f64>(64, 40, 1.7, 9);
        let x: Vec<f64> = (0..csr.cols()).map(|i| (i as f64 * 0.31).sin()).collect();
        let mut expect = vec![0.0; csr.rows()];
        csr.spmv(&x, &mut expect).unwrap();
        for (br, bc) in [(2, 2), (4, 4)] {
            let b = Bcsr::from_csr_with(&csr, br, bc, &ConversionLimits::unlimited()).unwrap();
            let mut y = vec![f64::NAN; csr.rows()];
            b.spmv(&x, &mut y).unwrap();
            assert!(max_abs_diff(&y, &expect) < 1e-12, "{br}x{bc}");
        }
    }

    #[test]
    fn fill_limit_refuses_scattered_patterns() {
        // A scattered permutation blocks terribly at 4x4: every nonzero
        // gets its own block, 16x fill.
        let scatter: Vec<(usize, usize, f64)> = (0..32).map(|i| (i, (i * 7) % 32, 1.0)).collect();
        let csr = Csr::from_triplets(32, 32, &scatter).unwrap();
        let err = Bcsr::from_csr(&csr, 4, 4).unwrap_err();
        assert!(matches!(
            err,
            MatrixError::ConversionTooExpensive {
                format: "BCSR4",
                ..
            }
        ));
    }

    #[test]
    fn byte_budget_checked_before_fill_pass() {
        let csr = dense_block_example();
        let limits = ConversionLimits {
            budget_bytes: Some(8),
            ..ConversionLimits::unlimited()
        };
        let err = Bcsr::from_csr_with(&csr, 2, 2, &limits).unwrap_err();
        assert!(matches!(
            err,
            MatrixError::BudgetExceeded {
                format: "BCSR2",
                ..
            }
        ));
    }
}
