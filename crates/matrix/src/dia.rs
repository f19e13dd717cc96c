//! DIAgonal (DIA) storage.
//!
//! DIA stores dense diagonals (Figure 2(c) of the paper). Its strength is
//! fully regular access to the `x` vector; its weakness is zero fill when
//! occupied diagonals are only sparsely populated. SMAT's feature
//! parameters `Ndiags`, `NTdiags_ratio` and `ER_DIA` quantify exactly this
//! trade-off.

use crate::error::{MatrixError, Result};
use crate::{ConversionLimits, Csr, Scalar};
use serde::{Deserialize, Serialize};

/// Default cap on `Ndiags * rows` (the dense storage a DIA conversion
/// allocates) as a multiple of the source matrix's `nnz`.
///
/// The paper's Figure 1 caption observes DIA degrades at coarse AMG levels
/// "due to high zero-filling ratio"; a conversion whose fill would exceed
/// this factor is refused rather than allowed to exhaust memory.
pub const DEFAULT_DIA_FILL_LIMIT: usize = 32;

/// A sparse matrix in DIAgonal format.
///
/// `offsets[d]` is the diagonal's offset from the principal diagonal
/// (negative = below). `data` is laid out diagonal-major with stride
/// `rows`: element `(r, r + offsets[d])` lives at `data[d * rows + r]`,
/// matching the paper's indexing `data[Istart + i * stride + n]`.
///
/// # Examples
///
/// ```
/// use smat_matrix::{Csr, Dia};
///
/// // Tridiagonal 4x4.
/// let csr = Csr::<f64>::from_triplets(
///     4,
///     4,
///     &[(0, 0, 2.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 2.0), (1, 2, -1.0),
///       (2, 1, -1.0), (2, 2, 2.0), (2, 3, -1.0), (3, 2, -1.0), (3, 3, 2.0)],
/// )?;
/// let dia = Dia::from_csr(&csr)?;
/// assert_eq!(dia.offsets(), &[-1, 0, 1]);
/// assert_eq!(dia.to_csr(), csr);
/// # Ok::<(), smat_matrix::MatrixError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dia<T> {
    rows: usize,
    cols: usize,
    nnz: usize,
    offsets: Vec<isize>,
    data: Vec<T>,
}

impl<T: Scalar> Dia<T> {
    /// Converts a CSR matrix to DIA with the [default fill
    /// limit](DEFAULT_DIA_FILL_LIMIT).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::ConversionTooExpensive`] when the dense
    /// diagonal storage would exceed `DEFAULT_DIA_FILL_LIMIT * nnz`
    /// elements.
    pub fn from_csr(csr: &Csr<T>) -> Result<Self> {
        Self::from_csr_with(csr, &ConversionLimits::default())
    }

    /// Converts a CSR matrix to DIA under explicit [`ConversionLimits`]:
    /// the fill-ratio cap plus an optional hard byte budget, both checked
    /// from `Ndiags` *before* the dense storage is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::ConversionTooExpensive`] when the fill
    /// limit is exceeded, or [`MatrixError::BudgetExceeded`] when the
    /// estimated allocation exceeds the byte budget.
    pub fn from_csr_with(csr: &Csr<T>, limits: &ConversionLimits) -> Result<Self> {
        let (rows, cols) = (csr.rows(), csr.cols());
        // A row's offsets `c - r` rise with its sorted columns, so its
        // first and last entries bound them: the slot map below spans
        // the matrix's band, not all `rows + cols` possible diagonals.
        let ends = |pick: fn(&[u32]) -> Option<&u32>| {
            (0..rows).filter_map(move |r| pick(csr.row(r).0).map(|&c| c as isize - r as isize))
        };
        let lo = ends(<[u32]>::first).min().unwrap_or(0);
        let hi = ends(<[u32]>::last).max().unwrap_or(-1);
        // Occupancy pass: `slot[offset - lo]` is 0 for an empty diagonal.
        let mut slot = vec![0usize; (hi - lo + 1) as usize];
        for r in 0..rows {
            let base = r as isize + lo;
            for &c in csr.row(r).0 {
                slot[(c as isize - base) as usize] = 1;
            }
        }
        let ndiags = slot.iter().filter(|&&s| s != 0).count();
        let dense = ndiags.saturating_mul(rows);
        let budget = limits.dia_fill_limit.saturating_mul(csr.nnz().max(1));
        if dense > budget {
            return Err(MatrixError::ConversionTooExpensive {
                format: "DIA",
                would_store: dense,
                limit: budget,
            });
        }
        // Allocation estimate: the dense value array plus the offsets.
        limits.check_bytes(
            "DIA",
            dense
                .saturating_mul(T::BYTES)
                .saturating_add(ndiags.saturating_mul(std::mem::size_of::<isize>())),
        )?;
        // Number the occupied diagonals in offset order (`slot` now holds
        // the diagonal's index + 1), then scatter the entries.
        let mut offsets = Vec::with_capacity(ndiags);
        for (i, s) in slot.iter_mut().enumerate().filter(|(_, s)| **s != 0) {
            offsets.push(i as isize + lo);
            *s = offsets.len();
        }
        let mut data = vec![T::ZERO; dense];
        for r in 0..rows {
            let (idx, vals) = csr.row(r);
            let base = r as isize + lo;
            for (&c, &v) in idx.iter().zip(vals) {
                data[(slot[(c as isize - base) as usize] - 1) * rows + r] = v;
            }
        }
        Ok(Self {
            rows,
            cols,
            nnz: csr.nnz(),
            offsets,
            data,
        })
    }

    /// Converts back to CSR, dropping the zero fill.
    pub fn to_csr(&self) -> Csr<T> {
        let mut triplets = Vec::with_capacity(self.nnz);
        for (d, &off) in self.offsets.iter().enumerate() {
            for r in 0..self.rows {
                let c = r as isize + off;
                if c < 0 || c >= self.cols as isize {
                    continue;
                }
                let v = self.data[d * self.rows + r];
                if v != T::ZERO {
                    triplets.push((r, c as usize, v));
                }
            }
        }
        Csr::from_triplets(self.rows, self.cols, &triplets)
            .expect("dia produces in-bounds triplets")
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

    /// Number of *logical* nonzeros (excluding zero fill), as recorded at
    /// conversion time.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Number of stored diagonals (the paper's `Ndiags`).
    #[inline]
    pub fn ndiags(&self) -> usize {
        self.offsets.len()
    }

    /// Offsets of the stored diagonals from the principal one.
    #[inline]
    pub fn offsets(&self) -> &[isize] {
        &self.offsets
    }

    /// The dense diagonal storage (diagonal-major, stride = `rows`).
    #[inline]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Fraction of stored elements that are true nonzeros (the paper's
    /// `ER_DIA = NNZ / (Ndiags * M)`).
    pub fn fill_ratio(&self) -> f64 {
        if self.data.is_empty() {
            return 1.0;
        }
        self.nnz as f64 / self.data.len() as f64
    }

    /// Reference SpMV `y = A * x` following the paper's Figure 2(c) loop.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] on vector length
    /// mismatch.
    pub fn spmv(&self, x: &[T], y: &mut [T]) -> Result<()> {
        if x.len() != self.cols {
            return Err(MatrixError::DimensionMismatch {
                context: "dia spmv x",
                expected: self.cols,
                found: x.len(),
            });
        }
        if y.len() != self.rows {
            return Err(MatrixError::DimensionMismatch {
                context: "dia spmv y",
                expected: self.rows,
                found: y.len(),
            });
        }
        y.fill(T::ZERO);
        let stride = self.rows;
        for (d, &k) in self.offsets.iter().enumerate() {
            let i_start = 0.max(-k) as usize;
            let j_start = 0.max(k) as usize;
            let n = (self.rows - i_start).min(self.cols - j_start);
            let diag = &self.data[d * stride + i_start..d * stride + i_start + n];
            for idx in 0..n {
                y[i_start + idx] += diag[idx] * x[j_start + idx];
            }
        }
        Ok(())
    }
}

#[cfg(test)]
impl<T: Scalar> Dia<T> {
    /// The parent commit's conversion: two tuple-iterator passes and a
    /// slot map over all `rows + cols` diagonals. The oracle the banded
    /// routine must equal, refusals included.
    pub(crate) fn from_csr_with_oracle(csr: &Csr<T>, limits: &ConversionLimits) -> Result<Self> {
        let fill_limit = limits.dia_fill_limit;
        let rows = csr.rows();
        let cols = csr.cols();
        // First pass: which diagonals are occupied?
        let diag_span = rows + cols; // offsets range over (-rows, cols)
        let mut occupied = vec![false; diag_span.max(1)];
        for (r, c, _) in csr.iter() {
            occupied[(c as isize - r as isize + rows as isize - 1) as usize] = true;
        }
        let offsets: Vec<isize> = occupied
            .iter()
            .enumerate()
            .filter(|&(_, &o)| o)
            .map(|(i, _)| i as isize - rows as isize + 1)
            .collect();
        let dense = offsets.len().saturating_mul(rows);
        let budget = fill_limit.saturating_mul(csr.nnz().max(1));
        if dense > budget {
            return Err(MatrixError::ConversionTooExpensive {
                format: "DIA",
                would_store: dense,
                limit: budget,
            });
        }
        // Allocation estimate: the dense value array plus the offsets.
        limits.check_bytes(
            "DIA",
            dense
                .saturating_mul(T::BYTES)
                .saturating_add(offsets.len().saturating_mul(std::mem::size_of::<isize>())),
        )?;
        // Map offset -> slot for the fill pass.
        let mut slot = vec![usize::MAX; diag_span.max(1)];
        for (d, &off) in offsets.iter().enumerate() {
            slot[(off + rows as isize - 1) as usize] = d;
        }
        let mut data = vec![T::ZERO; dense];
        for (r, c, v) in csr.iter() {
            let d = slot[(c as isize - r as isize + rows as isize - 1) as usize];
            data[d * rows + r] = v;
        }
        Ok(Self {
            rows,
            cols,
            nnz: csr.nnz(),
            offsets,
            data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 2 example matrix has diagonals at -2, 0, 1.
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
    fn figure2_offsets() {
        let dia = Dia::from_csr(&example_csr()).unwrap();
        assert_eq!(dia.offsets(), &[-2, 0, 1]);
        assert_eq!(dia.ndiags(), 3);
        assert_eq!(dia.nnz(), 9);
    }

    #[test]
    fn round_trip_csr() {
        let csr = example_csr();
        let dia = Dia::from_csr(&csr).unwrap();
        assert_eq!(dia.to_csr(), csr);
    }

    #[test]
    fn spmv_matches_csr() {
        let csr = example_csr();
        let dia = Dia::from_csr(&csr).unwrap();
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y1 = [0.0; 4];
        let mut y2 = [9.0; 4];
        csr.spmv(&x, &mut y1).unwrap();
        dia.spmv(&x, &mut y2).unwrap();
        assert_eq!(y1, y2);
    }

    #[test]
    fn rectangular_matrices() {
        let csr =
            Csr::<f64>::from_triplets(2, 4, &[(0, 0, 1.0), (0, 3, 2.0), (1, 2, 3.0)]).unwrap();
        let dia = Dia::from_csr(&csr).unwrap();
        assert_eq!(dia.to_csr(), csr);
        let x = [1.0, 1.0, 1.0, 1.0];
        let mut y1 = [0.0; 2];
        let mut y2 = [0.0; 2];
        csr.spmv(&x, &mut y1).unwrap();
        dia.spmv(&x, &mut y2).unwrap();
        assert_eq!(y1, y2);

        let tall =
            Csr::<f64>::from_triplets(4, 2, &[(0, 0, 1.0), (3, 0, 2.0), (2, 1, 3.0)]).unwrap();
        let dia = Dia::from_csr(&tall).unwrap();
        assert_eq!(dia.to_csr(), tall);
    }

    #[test]
    fn fill_limit_refuses_scattered_matrices() {
        // Anti-diagonal-ish scatter: every entry on its own diagonal.
        let n = 64;
        let triplets: Vec<_> = (0..n).map(|i| (i, (i * i + 1) % n, 1.0f64)).collect();
        let csr = Csr::from_triplets(n, n, &triplets).unwrap();
        let limits = ConversionLimits {
            dia_fill_limit: 2,
            ..ConversionLimits::unlimited()
        };
        let res = Dia::from_csr_with(&csr, &limits);
        assert!(matches!(
            res,
            Err(MatrixError::ConversionTooExpensive { format: "DIA", .. })
        ));
    }

    #[test]
    fn byte_budget_refuses_before_allocating() {
        let csr = example_csr();
        // 3 diagonals * 4 rows * 8 bytes + 3 offsets * 8 bytes = 120.
        let tight = ConversionLimits {
            budget_bytes: Some(64),
            ..ConversionLimits::unlimited()
        };
        assert!(matches!(
            Dia::from_csr_with(&csr, &tight),
            Err(MatrixError::BudgetExceeded { format: "DIA", .. })
        ));
        let ample = ConversionLimits {
            budget_bytes: Some(1024),
            ..ConversionLimits::unlimited()
        };
        assert!(Dia::from_csr_with(&csr, &ample).is_ok());
    }

    #[test]
    fn fill_ratio_reflects_padding() {
        let csr = example_csr();
        let dia = Dia::from_csr(&csr).unwrap();
        // 9 nonzeros stored in 3 diagonals * 4 rows = 12 slots.
        assert!((dia.fill_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn spmv_dimension_errors() {
        let dia = Dia::from_csr(&example_csr()).unwrap();
        let mut y = [0.0; 4];
        assert!(dia.spmv(&[0.0; 3], &mut y).is_err());
        assert!(dia.spmv(&[0.0; 4], &mut y[..2]).is_err());
    }

    #[test]
    fn empty_and_single() {
        let csr = Csr::<f64>::from_triplets(3, 3, &[]).unwrap();
        let dia = Dia::from_csr(&csr).unwrap();
        assert_eq!(dia.ndiags(), 0);
        let mut y = [1.0; 3];
        dia.spmv(&[1.0; 3], &mut y).unwrap();
        assert_eq!(y, [0.0; 3]);
    }
}
