//! The [`Format`] identifier and [`AnyMatrix`], a matrix stored in any
//! supported format (the paper's four basic ones plus the HYB extension).
//!
//! SMAT's runtime decides a format *per input matrix*; `AnyMatrix` is the
//! value that decision produces: the same logical matrix, physically stored
//! in whichever format the tuner picked.

use crate::bcsr::DEFAULT_BCSR_FILL_LIMIT;
use crate::dia::DEFAULT_DIA_FILL_LIMIT;
use crate::ell::DEFAULT_ELL_FILL_LIMIT;
use crate::error::Result;
use crate::{Bcsr, Coo, Csr, Dia, Ell, Hyb, Scalar};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Caps applied to format conversions: the classic fill-ratio limits for
/// DIA/ELL plus an optional hard byte budget estimated *before* any
/// storage is allocated (from `Ndiags * rows` for DIA, `max_RD * rows`
/// for ELL, and the ELL/COO split sizes for HYB).
///
/// The byte budget is the resource-exhaustion guard: a pathological input
/// (one dense row, a near-random diagonal scatter) is refused with
/// [`crate::MatrixError::BudgetExceeded`] instead of being allowed to
/// exhaust memory mid-conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConversionLimits {
    /// Cap on DIA fill as a multiple of `nnz` (see
    /// [`DEFAULT_DIA_FILL_LIMIT`]).
    pub dia_fill_limit: usize,
    /// Cap on ELL fill as a multiple of `nnz` (see
    /// [`DEFAULT_ELL_FILL_LIMIT`]).
    pub ell_fill_limit: usize,
    /// Cap on BCSR stored block elements as a multiple of `nnz` (see
    /// [`DEFAULT_BCSR_FILL_LIMIT`]). Limits serialized before the BCSR
    /// tier fail to deserialize and fall back to the regenerate path
    /// (the vendored serde stub has no `#[serde(default)]`).
    pub bcsr_fill_limit: usize,
    /// Hard cap on the bytes a single conversion may allocate; `None`
    /// disables the check.
    pub budget_bytes: Option<usize>,
}

impl Default for ConversionLimits {
    fn default() -> Self {
        Self {
            dia_fill_limit: DEFAULT_DIA_FILL_LIMIT,
            ell_fill_limit: DEFAULT_ELL_FILL_LIMIT,
            bcsr_fill_limit: DEFAULT_BCSR_FILL_LIMIT,
            budget_bytes: None,
        }
    }
}

impl ConversionLimits {
    /// Limits with no byte budget and effectively no fill caps — every
    /// conversion that fits in memory is allowed.
    pub fn unlimited() -> Self {
        Self {
            dia_fill_limit: usize::MAX,
            ell_fill_limit: usize::MAX,
            bcsr_fill_limit: usize::MAX,
            budget_bytes: None,
        }
    }

    /// Checks an up-front allocation estimate against the byte budget.
    ///
    /// # Errors
    ///
    /// Returns [`crate::MatrixError::BudgetExceeded`] when a budget is
    /// configured and `required_bytes` exceeds it.
    pub fn check_bytes(&self, format: &'static str, required_bytes: usize) -> Result<()> {
        if let Some(budget) = self.budget_bytes {
            if required_bytes > budget {
                return Err(crate::MatrixError::BudgetExceeded {
                    format,
                    required_bytes,
                    budget_bytes: budget,
                });
            }
        }
        Ok(())
    }
}

/// A storage format SMAT tunes over: the paper's four basic formats
/// plus the [`Hyb`] extension (see that type's docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Format {
    /// DIAgonal format.
    Dia,
    /// ELLPACK format.
    Ell,
    /// Compressed sparse row — the default/unified interface format.
    Csr,
    /// COOrdinate format.
    Coo,
    /// Hybrid ELL+COO — the extension format demonstrating the paper's
    /// "add new formats" claim.
    Hyb,
    /// Block CSR with 2x2 register blocks.
    Bcsr2,
    /// Block CSR with 4x4 register blocks.
    Bcsr4,
}

impl Format {
    /// Number of formats.
    pub const COUNT: usize = 7;

    /// The paper's four basic formats, in rule-group evaluation order
    /// (§6): DIA first because it wins by the largest margin when
    /// applicable, ELL next for its regular behavior, CSR third because
    /// its features are already computed, COO last.
    pub const BASIC: [Format; 4] = [Format::Dia, Format::Ell, Format::Csr, Format::Coo];

    /// All formats, in [`Format::index`] order.
    pub const ALL: [Format; Format::COUNT] = [
        Format::Dia,
        Format::Ell,
        Format::Csr,
        Format::Coo,
        Format::Hyb,
        Format::Bcsr2,
        Format::Bcsr4,
    ];

    /// Short uppercase name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Format::Dia => "DIA",
            Format::Ell => "ELL",
            Format::Csr => "CSR",
            Format::Coo => "COO",
            Format::Hyb => "HYB",
            Format::Bcsr2 => "BCSR2",
            Format::Bcsr4 => "BCSR4",
        }
    }

    /// Stable small integer id (useful as an array index).
    pub fn index(self) -> usize {
        match self {
            Format::Dia => 0,
            Format::Ell => 1,
            Format::Csr => 2,
            Format::Coo => 3,
            Format::Hyb => 4,
            Format::Bcsr2 => 5,
            Format::Bcsr4 => 6,
        }
    }

    /// Inverse of [`Format::index`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= Format::COUNT`.
    pub fn from_index(i: usize) -> Self {
        Format::ALL[i]
    }
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing a [`Format`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFormatError(pub String);

impl fmt::Display for ParseFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown sparse format {:?}", self.0)
    }
}

impl std::error::Error for ParseFormatError {}

impl FromStr for Format {
    type Err = ParseFormatError;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "DIA" => Ok(Format::Dia),
            "ELL" => Ok(Format::Ell),
            "CSR" => Ok(Format::Csr),
            "COO" => Ok(Format::Coo),
            "HYB" => Ok(Format::Hyb),
            "BCSR2" => Ok(Format::Bcsr2),
            "BCSR4" => Ok(Format::Bcsr4),
            _ => Err(ParseFormatError(s.to_string())),
        }
    }
}

/// A sparse matrix stored in any one of the supported formats.
///
/// # Examples
///
/// ```
/// use smat_matrix::{AnyMatrix, Csr, Format};
///
/// let csr = Csr::<f64>::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)])?;
/// let any = AnyMatrix::convert_from_csr(&csr, Format::Dia)?;
/// assert_eq!(any.format(), Format::Dia);
/// let mut y = [0.0; 2];
/// any.spmv(&[3.0, 4.0], &mut y)?;
/// assert_eq!(y, [3.0, 8.0]);
/// # Ok::<(), smat_matrix::MatrixError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum AnyMatrix<T> {
    /// DIA-stored matrix.
    Dia(Dia<T>),
    /// ELL-stored matrix.
    Ell(Ell<T>),
    /// CSR-stored matrix.
    Csr(Csr<T>),
    /// COO-stored matrix.
    Coo(Coo<T>),
    /// HYB-stored matrix.
    Hyb(Hyb<T>),
    /// 2x2 block-CSR-stored matrix.
    Bcsr2(Bcsr<T>),
    /// 4x4 block-CSR-stored matrix.
    Bcsr4(Bcsr<T>),
}

impl<T: Scalar> AnyMatrix<T> {
    /// Converts a CSR matrix into the requested physical format.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::MatrixError::ConversionTooExpensive`] from the
    /// DIA/ELL converters when zero fill would blow up.
    pub fn convert_from_csr(csr: &Csr<T>, format: Format) -> Result<Self> {
        Self::convert_from_csr_with(csr, format, &ConversionLimits::default())
    }

    /// Converts a CSR matrix into the requested physical format under
    /// explicit [`ConversionLimits`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::MatrixError::ConversionTooExpensive`] when a
    /// DIA/ELL fill limit is exceeded, or
    /// [`crate::MatrixError::BudgetExceeded`] when the estimated
    /// allocation exceeds the byte budget.
    pub fn convert_from_csr_with(
        csr: &Csr<T>,
        format: Format,
        limits: &ConversionLimits,
    ) -> Result<Self> {
        // Failpoint `convert.alloc`: scripted allocation refusal ahead
        // of the format match, so every target (including the CSR
        // clone) can be made to fail like an exhausted allocator.
        if let Some(fault) = smat_failpoints::check("convert.alloc") {
            return Err(crate::MatrixError::InvalidStructure(fault.to_string()));
        }
        Ok(match format {
            Format::Dia => AnyMatrix::Dia(Dia::from_csr_with(csr, limits)?),
            Format::Ell => AnyMatrix::Ell(Ell::from_csr_with(csr, limits)?),
            Format::Csr => AnyMatrix::Csr(csr.clone()),
            Format::Coo => AnyMatrix::Coo(Coo::from_csr(csr)),
            Format::Hyb => AnyMatrix::Hyb(Hyb::from_csr_with(csr, limits)?),
            Format::Bcsr2 => AnyMatrix::Bcsr2(Bcsr::from_csr_with(csr, 2, 2, limits)?),
            Format::Bcsr4 => AnyMatrix::Bcsr4(Bcsr::from_csr_with(csr, 4, 4, limits)?),
        })
    }

    /// Which format this matrix is physically stored in.
    pub fn format(&self) -> Format {
        match self {
            AnyMatrix::Dia(_) => Format::Dia,
            AnyMatrix::Ell(_) => Format::Ell,
            AnyMatrix::Csr(_) => Format::Csr,
            AnyMatrix::Coo(_) => Format::Coo,
            AnyMatrix::Hyb(_) => Format::Hyb,
            AnyMatrix::Bcsr2(_) => Format::Bcsr2,
            AnyMatrix::Bcsr4(_) => Format::Bcsr4,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            AnyMatrix::Dia(m) => m.rows(),
            AnyMatrix::Ell(m) => m.rows(),
            AnyMatrix::Csr(m) => m.rows(),
            AnyMatrix::Coo(m) => m.rows(),
            AnyMatrix::Hyb(m) => m.rows(),
            AnyMatrix::Bcsr2(m) | AnyMatrix::Bcsr4(m) => m.rows(),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            AnyMatrix::Dia(m) => m.cols(),
            AnyMatrix::Ell(m) => m.cols(),
            AnyMatrix::Csr(m) => m.cols(),
            AnyMatrix::Coo(m) => m.cols(),
            AnyMatrix::Hyb(m) => m.cols(),
            AnyMatrix::Bcsr2(m) | AnyMatrix::Bcsr4(m) => m.cols(),
        }
    }

    /// Number of logical nonzeros.
    pub fn nnz(&self) -> usize {
        match self {
            AnyMatrix::Dia(m) => m.nnz(),
            AnyMatrix::Ell(m) => m.nnz(),
            AnyMatrix::Csr(m) => m.nnz(),
            AnyMatrix::Coo(m) => m.nnz(),
            AnyMatrix::Hyb(m) => m.nnz(),
            AnyMatrix::Bcsr2(m) | AnyMatrix::Bcsr4(m) => m.nnz(),
        }
    }

    /// Bytes of the stored arrays: values (fill included) at
    /// `size_of::<T>()`, column and row indices at [`crate::INDEX_BYTES`],
    /// row and block pointers and DIA offsets at eight. What one
    /// product that reads the matrix once streams, less `x` and `y`.
    pub fn stored_bytes(&self) -> usize {
        const WORD: usize = std::mem::size_of::<usize>();
        let (t, i) = (T::BYTES, crate::INDEX_BYTES);
        let ell = |m: &Ell<T>| m.data().len() * (t + i);
        let coo = |m: &Coo<T>| m.nnz() * (t + 2 * i);
        match self {
            AnyMatrix::Dia(m) => m.data().len() * t + m.offsets().len() * WORD,
            AnyMatrix::Ell(m) => ell(m),
            AnyMatrix::Csr(m) => m.nnz() * (t + i) + m.row_ptr().len() * WORD,
            AnyMatrix::Coo(m) => coo(m),
            AnyMatrix::Hyb(m) => ell(m.ell_part()) + coo(m.coo_part()),
            AnyMatrix::Bcsr2(m) | AnyMatrix::Bcsr4(m) => {
                m.values().len() * t + m.block_col().len() * i + m.block_ptr().len() * WORD
            }
        }
    }

    /// Converts (back) to CSR regardless of current format.
    pub fn to_csr(&self) -> Csr<T> {
        match self {
            AnyMatrix::Dia(m) => m.to_csr(),
            AnyMatrix::Ell(m) => m.to_csr(),
            AnyMatrix::Csr(m) => m.clone(),
            AnyMatrix::Coo(m) => m.to_csr(),
            AnyMatrix::Hyb(m) => m.to_csr(),
            AnyMatrix::Bcsr2(m) | AnyMatrix::Bcsr4(m) => m.to_csr(),
        }
    }

    /// Reference SpMV in whatever format the matrix is stored.
    ///
    /// # Errors
    ///
    /// Returns [`crate::MatrixError::DimensionMismatch`] on vector length
    /// mismatch.
    pub fn spmv(&self, x: &[T], y: &mut [T]) -> Result<()> {
        match self {
            AnyMatrix::Dia(m) => m.spmv(x, y),
            AnyMatrix::Ell(m) => m.spmv(x, y),
            AnyMatrix::Csr(m) => m.spmv(x, y),
            AnyMatrix::Coo(m) => m.spmv(x, y),
            AnyMatrix::Hyb(m) => m.spmv(x, y),
            AnyMatrix::Bcsr2(m) | AnyMatrix::Bcsr4(m) => m.spmv(x, y),
        }
    }
}

impl<T: Scalar> From<Csr<T>> for AnyMatrix<T> {
    fn from(m: Csr<T>) -> Self {
        AnyMatrix::Csr(m)
    }
}

impl<T: Scalar> From<Coo<T>> for AnyMatrix<T> {
    fn from(m: Coo<T>) -> Self {
        AnyMatrix::Coo(m)
    }
}

impl<T: Scalar> From<Dia<T>> for AnyMatrix<T> {
    fn from(m: Dia<T>) -> Self {
        AnyMatrix::Dia(m)
    }
}

impl<T: Scalar> From<Ell<T>> for AnyMatrix<T> {
    fn from(m: Ell<T>) -> Self {
        AnyMatrix::Ell(m)
    }
}

impl<T: Scalar> From<Hyb<T>> for AnyMatrix<T> {
    fn from(m: Hyb<T>) -> Self {
        AnyMatrix::Hyb(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Csr<f64> {
        Csr::from_triplets(
            3,
            3,
            &[
                (0, 0, 2.0),
                (0, 1, 1.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn format_names_round_trip() {
        for f in Format::ALL {
            assert_eq!(f.name().parse::<Format>().unwrap(), f);
            assert_eq!(Format::from_index(f.index()), f);
        }
        assert!("BCSR".parse::<Format>().is_err());
        assert_eq!("csr".parse::<Format>().unwrap(), Format::Csr);
    }

    #[test]
    fn order_matches_paper_rule_groups() {
        assert_eq!(
            Format::BASIC,
            [Format::Dia, Format::Ell, Format::Csr, Format::Coo]
        );
        assert_eq!(Format::ALL.len(), Format::COUNT);
        assert_eq!(Format::from_index(4), Format::Hyb);
        assert_eq!(Format::from_index(5), Format::Bcsr2);
        assert_eq!(Format::from_index(6), Format::Bcsr4);
        assert_eq!("hyb".parse::<Format>().unwrap(), Format::Hyb);
        assert_eq!("bcsr2".parse::<Format>().unwrap(), Format::Bcsr2);
    }

    #[test]
    fn all_conversions_preserve_matrix() {
        let csr = example();
        for f in Format::ALL {
            let any = AnyMatrix::convert_from_csr(&csr, f).unwrap();
            assert_eq!(any.format(), f);
            assert_eq!(any.rows(), 3);
            assert_eq!(any.cols(), 3);
            assert_eq!(any.nnz(), 5);
            assert_eq!(any.to_csr(), csr, "round trip via {f}");
        }
    }

    #[test]
    fn spmv_agrees_across_formats() {
        let csr = example();
        let x = [1.0, 2.0, 3.0];
        let mut expect = [0.0; 3];
        csr.spmv(&x, &mut expect).unwrap();
        for f in Format::ALL {
            let any = AnyMatrix::convert_from_csr(&csr, f).unwrap();
            let mut y = [42.0; 3];
            any.spmv(&x, &mut y).unwrap();
            assert_eq!(y, expect, "spmv via {f}");
        }
    }

    #[test]
    fn limits_gate_conversions_per_format() {
        let csr = example();
        let tight = ConversionLimits {
            budget_bytes: Some(8),
            ..ConversionLimits::unlimited()
        };
        // CSR and COO are never converted through the budget estimator:
        // CSR is a clone of the input, COO is the same size as the input.
        assert!(AnyMatrix::convert_from_csr_with(&csr, Format::Csr, &tight).is_ok());
        assert!(AnyMatrix::convert_from_csr_with(&csr, Format::Coo, &tight).is_ok());
        for f in [
            Format::Dia,
            Format::Ell,
            Format::Hyb,
            Format::Bcsr2,
            Format::Bcsr4,
        ] {
            assert!(
                matches!(
                    AnyMatrix::convert_from_csr_with(&csr, f, &tight),
                    Err(crate::MatrixError::BudgetExceeded { .. })
                ),
                "{f} must refuse an 8-byte budget"
            );
        }
        assert_eq!(
            AnyMatrix::convert_from_csr_with(&csr, Format::Dia, &ConversionLimits::default())
                .unwrap(),
            AnyMatrix::convert_from_csr(&csr, Format::Dia).unwrap()
        );
    }

    #[test]
    fn from_impls() {
        let csr = example();
        let any: AnyMatrix<f64> = csr.clone().into();
        assert_eq!(any.format(), Format::Csr);
        let any: AnyMatrix<f64> = Coo::from_csr(&csr).into();
        assert_eq!(any.format(), Format::Coo);
        let any: AnyMatrix<f64> = Dia::from_csr(&csr).unwrap().into();
        assert_eq!(any.format(), Format::Dia);
        let any: AnyMatrix<f64> = Ell::from_csr(&csr).unwrap().into();
        assert_eq!(any.format(), Format::Ell);
        let any: AnyMatrix<f64> = Hyb::from_csr(&csr).into();
        assert_eq!(any.format(), Format::Hyb);
    }
}
