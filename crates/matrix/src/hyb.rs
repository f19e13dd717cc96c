//! HYB (hybrid ELL + COO) storage — the extension format.
//!
//! The paper's related-work section discusses cuSPARSE's HYB format — an
//! ELL part for the regular bulk of each row plus a COO part for the
//! overflow — and claims SMAT "is possible to add new formats by
//! extracting novel parameters and integrating its implementations in
//! kernel library". This module is that claim exercised end to end: HYB
//! participates in conversion, the kernel library, training labels and
//! the rule groups exactly like the four basic formats.

use crate::error::{MatrixError, Result};
use crate::{ConversionLimits, Coo, Csr, Ell, Scalar};
use serde::{Deserialize, Serialize};

/// A sparse matrix in hybrid ELL+COO format.
///
/// The first [`Hyb::width`] entries of each row are packed into an ELL
/// part; the remainder spills into a COO part. The width is chosen with
/// the standard cuSPARSE-style heuristic: the largest `k` such that at
/// least a third of the rows still have `k` or more entries, so the ELL
/// part stays dense while heavy tails stop poisoning `max_RD`.
///
/// # Examples
///
/// ```
/// use smat_matrix::{Csr, Hyb};
///
/// // One heavy row among many light ones: ELL would pad every row to
/// // width 4; HYB keeps a width-1 ELL part and spills the heavy tail.
/// let m = Csr::<f64>::from_triplets(
///     6,
///     4,
///     &[
///         (0, 0, 1.0), (0, 1, 2.0), (0, 2, 3.0), (0, 3, 4.0),
///         (1, 1, 5.0), (2, 2, 6.0), (3, 0, 7.0), (4, 3, 8.0), (5, 2, 9.0),
///     ],
/// )?;
/// let h = Hyb::from_csr(&m);
/// assert_eq!(h.width(), 1);
/// assert_eq!(h.coo_part().nnz(), 3);
/// assert_eq!(h.to_csr(), m);
/// # Ok::<(), smat_matrix::MatrixError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hyb<T> {
    rows: usize,
    cols: usize,
    nnz: usize,
    width: usize,
    ell: Ell<T>,
    coo: Coo<T>,
}

/// Fraction of rows that must reach a candidate ELL width for it to be
/// accepted (the cuSPARSE heuristic's 1/3).
pub const HYB_WIDTH_ROW_FRACTION: f64 = 1.0 / 3.0;

impl<T: Scalar> Hyb<T> {
    /// Converts from CSR with the automatic width heuristic.
    pub fn from_csr(csr: &Csr<T>) -> Self {
        Self::from_csr_with_width(csr, auto_width(csr))
    }

    /// Converts from CSR under explicit [`ConversionLimits`]: the
    /// automatic-width ELL/COO split sizes are estimated up front and
    /// checked against the byte budget before any storage is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::BudgetExceeded`] when the estimated
    /// allocation exceeds the configured budget.
    pub fn from_csr_with(csr: &Csr<T>, limits: &ConversionLimits) -> Result<Self> {
        Self::split(csr, auto_width(csr), limits)
    }

    /// Converts from CSR, packing the first `width` entries of each row
    /// into the ELL part and the rest into the COO part. The ELL part is
    /// as wide as the longest capped row, `min(width, max_RD)` — what
    /// [`Ell::from_csr`] of the capped rows yields — so a `width` no row
    /// reaches pads nothing.
    pub fn from_csr_with_width(csr: &Csr<T>, width: usize) -> Self {
        Self::split(csr, width, &ConversionLimits::unlimited()).expect("no budget to exceed")
    }

    /// Count, check, allocate exactly, fill: `row_ptr` sizes both parts,
    /// [`Ell::pack`] writes the slab, the row tails go to COO in order.
    fn split(csr: &Csr<T>, width: usize, limits: &ConversionLimits) -> Result<Self> {
        let (rows, cols) = (csr.rows(), csr.cols());
        let (mut ell_width, mut spill) = (0usize, 0usize);
        for w in csr.row_ptr().windows(2) {
            ell_width = ell_width.max((w[1] - w[0]).min(width));
            spill += (w[1] - w[0]).saturating_sub(width);
        }
        // ELL part: width * rows slots of (value + column index); COO
        // part: one (row, col, value) triple per spilled entry.
        let slot = T::BYTES.saturating_add(std::mem::size_of::<usize>());
        let triple = T::BYTES.saturating_add(2 * std::mem::size_of::<usize>());
        let ell_bytes = width.saturating_mul(rows).saturating_mul(slot);
        limits.check_bytes(
            "HYB",
            ell_bytes.saturating_add(spill.saturating_mul(triple)),
        )?;
        let mut coo_r = Vec::with_capacity(spill);
        let mut coo_c = Vec::with_capacity(spill);
        let mut coo_v = Vec::with_capacity(spill);
        for r in (0..rows).filter(|&r| csr.row_degree(r) > width) {
            let (cs, vs) = csr.row(r);
            coo_r.extend(std::iter::repeat_n(r, cs.len() - width));
            coo_c.extend_from_slice(&cs[width..]);
            coo_v.extend_from_slice(&vs[width..]);
        }
        Ok(Self {
            rows,
            cols,
            nnz: csr.nnz(),
            width,
            ell: Ell::pack(csr, ell_width),
            coo: Coo::from_sorted((rows, cols), coo_r, coo_c, coo_v),
        })
    }

    /// Converts back to CSR. Like [`Ell::to_csr`], explicit stored zeros
    /// are dropped (ELL padding is indistinguishable from them), so the
    /// result equals the zero-pruned original.
    pub fn to_csr(&self) -> Csr<T> {
        let mut triplets: Vec<(usize, usize, T)> = self.ell.to_csr().iter().collect();
        triplets.extend(self.coo.iter().filter(|&(_, _, v)| v != T::ZERO));
        Csr::from_triplets(self.rows, self.cols, &triplets)
            .expect("both parts hold in-bounds entries")
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

    /// Number of logical nonzeros across both parts.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// ELL-part width.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The packed regular part.
    #[inline]
    pub fn ell_part(&self) -> &Ell<T> {
        &self.ell
    }

    /// The overflow part.
    #[inline]
    pub fn coo_part(&self) -> &Coo<T> {
        &self.coo
    }

    /// Fraction of nonzeros held by the ELL part.
    pub fn ell_fraction(&self) -> f64 {
        if self.nnz == 0 {
            return 1.0;
        }
        self.ell.nnz() as f64 / self.nnz as f64
    }

    /// Reference SpMV `y = A * x`: ELL sweep plus COO scatter.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] on vector length
    /// mismatch.
    pub fn spmv(&self, x: &[T], y: &mut [T]) -> Result<()> {
        if x.len() != self.cols {
            return Err(MatrixError::DimensionMismatch {
                context: "hyb spmv x",
                expected: self.cols,
                found: x.len(),
            });
        }
        if y.len() != self.rows {
            return Err(MatrixError::DimensionMismatch {
                context: "hyb spmv y",
                expected: self.rows,
                found: y.len(),
            });
        }
        self.ell.spmv(x, y).expect("validated dimensions");
        for (r, c, v) in self.coo.iter() {
            y[r] += v * x[c];
        }
        Ok(())
    }
}

/// The automatic ELL width: largest `k >= 1` with at least
/// `HYB_WIDTH_ROW_FRACTION` of the rows having `k` or more entries
/// (0 for an empty matrix).
fn auto_width<T: Scalar>(csr: &Csr<T>) -> usize {
    let rows = csr.rows();
    if rows == 0 || csr.nnz() == 0 {
        return 0;
    }
    let max_rd = (0..rows).map(|r| csr.row_degree(r)).max().unwrap_or(0);
    // rows_with_deg_ge[k] = number of rows with degree >= k.
    let mut hist = vec![0usize; max_rd + 2];
    for r in 0..rows {
        hist[csr.row_degree(r)] += 1;
    }
    let mut ge = 0usize;
    let need = ((rows as f64 * HYB_WIDTH_ROW_FRACTION).ceil() as usize).max(1);
    let mut width = 1;
    for k in (1..=max_rd).rev() {
        ge += hist[k];
        if ge >= need {
            width = k;
            break;
        }
    }
    width
}

#[cfg(test)]
impl<T: Scalar> Hyb<T> {
    /// The parent commit's split: triplets of the capped rows re-sorted
    /// through `Csr::from_triplets` and `Ell::from_csr_with`, the spill
    /// re-sorted by `Coo::new`. The oracle the direct split must equal.
    pub(crate) fn from_csr_with_width_oracle(csr: &Csr<T>, width: usize) -> Self {
        let rows = csr.rows();
        let cols = csr.cols();
        let mut ell_triplets: Vec<(usize, usize, T)> = Vec::new();
        let mut coo_r = Vec::new();
        let mut coo_c = Vec::new();
        let mut coo_v = Vec::new();
        for r in 0..rows {
            let (cs, vs) = csr.row(r);
            let cut = cs.len().min(width);
            for (&c, &v) in cs[..cut].iter().zip(&vs[..cut]) {
                ell_triplets.push((r, c, v));
            }
            for (&c, &v) in cs[cut..].iter().zip(&vs[cut..]) {
                coo_r.push(r);
                coo_c.push(c);
                coo_v.push(v);
            }
        }
        let ell_csr = Csr::from_triplets(rows, cols, &ell_triplets)
            .expect("triplets from a valid csr are in bounds");
        let ell = Ell::from_csr_with(&ell_csr, &ConversionLimits::unlimited())
            .expect("width-capped part never exceeds an unlimited budget");
        let coo = Coo::new(rows, cols, coo_r, coo_c, coo_v).expect("entries from a valid csr");
        Self {
            rows,
            cols,
            nnz: csr.nnz(),
            width,
            ell,
            coo,
        }
    }

    /// The oracle under the parent's budget estimate.
    pub(crate) fn from_csr_with_oracle(csr: &Csr<T>, limits: &ConversionLimits) -> Result<Self> {
        let width = auto_width(csr);
        let spill: usize = (0..csr.rows())
            .map(|r| csr.row_degree(r).saturating_sub(width))
            .sum();
        let (slot, triple) = (T::BYTES + 8, T::BYTES + 16);
        limits.check_bytes("HYB", width * csr.rows() * slot + spill * triple)?;
        Ok(Self::from_csr_with_width_oracle(csr, width))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{fixed_degree, power_law};

    fn skewed() -> Csr<f64> {
        // 7 uniform rows of degree 2 plus one heavy row of degree 6.
        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        for r in 0..7 {
            triplets.push((r, r % 8, 1.0 + r as f64));
            triplets.push((r, (r + 3) % 8, 2.0));
        }
        for c in 0..6 {
            triplets.push((7, c, 0.5));
        }
        Csr::from_triplets(8, 8, &triplets).unwrap()
    }

    #[test]
    fn width_heuristic_ignores_heavy_tail() {
        let m = skewed();
        let h = Hyb::from_csr(&m);
        assert_eq!(h.width(), 2, "one heavy row must not widen the ELL part");
        assert_eq!(h.nnz(), m.nnz());
        assert_eq!(h.coo_part().nnz(), 4, "heavy row overflow spills to COO");
        assert!(h.ell_fraction() > 0.7);
    }

    #[test]
    fn round_trip_csr() {
        for m in [
            skewed(),
            power_law::<f64>(300, 60, 2.0, 3),
            fixed_degree::<f64>(100, 100, 5, 0, 1),
        ] {
            assert_eq!(Hyb::from_csr(&m).to_csr(), m);
        }
    }

    #[test]
    fn spmv_matches_csr() {
        let m = power_law::<f64>(400, 80, 1.8, 9);
        let h = Hyb::from_csr(&m);
        let x: Vec<f64> = (0..m.cols()).map(|i| (i as f64 * 0.17).sin()).collect();
        let mut y1 = vec![0.0; m.rows()];
        let mut y2 = vec![5.0; m.rows()];
        m.spmv(&x, &mut y1).unwrap();
        h.spmv(&x, &mut y2).unwrap();
        assert!(crate::utils::max_abs_diff(&y1, &y2) < 1e-12);
    }

    #[test]
    fn uniform_matrix_has_empty_coo_part() {
        let m = fixed_degree::<f64>(200, 200, 6, 0, 2);
        let h = Hyb::from_csr(&m);
        assert_eq!(h.width(), 6);
        assert_eq!(h.coo_part().nnz(), 0);
        assert_eq!(h.ell_fraction(), 1.0);
    }

    #[test]
    fn explicit_width_and_edge_cases() {
        let m = skewed();
        let h = Hyb::from_csr_with_width(&m, 1);
        assert_eq!(h.width(), 1);
        assert_eq!(h.to_csr(), m);
        // Width 0: everything in COO.
        let h = Hyb::from_csr_with_width(&m, 0);
        assert_eq!(h.ell_part().nnz(), 0);
        assert_eq!(h.to_csr(), m);
        // Empty matrix.
        let z = Csr::<f64>::from_triplets(3, 3, &[]).unwrap();
        let h = Hyb::from_csr(&z);
        assert_eq!(h.width(), 0);
        let mut y = [1.0; 3];
        h.spmv(&[1.0; 3], &mut y).unwrap();
        assert_eq!(y, [0.0; 3]);
    }

    #[test]
    fn byte_budget_checks_the_split_estimate() {
        let m = skewed();
        let tight = ConversionLimits {
            budget_bytes: Some(16),
            ..ConversionLimits::unlimited()
        };
        assert!(matches!(
            Hyb::from_csr_with(&m, &tight),
            Err(MatrixError::BudgetExceeded { format: "HYB", .. })
        ));
        let ample = ConversionLimits {
            budget_bytes: Some(1 << 20),
            ..ConversionLimits::unlimited()
        };
        let h = Hyb::from_csr_with(&m, &ample).unwrap();
        assert_eq!(h, Hyb::from_csr(&m), "budgeted path matches unbudgeted");
    }

    #[test]
    fn spmv_dimension_errors() {
        let h = Hyb::from_csr(&skewed());
        let mut y = [0.0; 8];
        assert!(h.spmv(&[1.0; 7], &mut y).is_err());
        assert!(h.spmv(&[1.0; 8], &mut y[..3]).is_err());
    }
}
