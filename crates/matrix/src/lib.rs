//! Sparse matrix storage formats and generators for the SMAT (PLDI'13)
//! reproduction.
//!
//! This crate provides the four basic storage formats the paper tunes
//! over — [`Csr`], [`Coo`], [`Dia`] and [`Ell`] — together with validated
//! conversions between them ([`AnyMatrix`]), Matrix Market I/O
//! ([`io`]), dense-vector helpers ([`utils`]) and the synthetic matrix
//! generators ([`gen`]) that stand in for the University of Florida
//! collection.
//!
//! All formats are generic over [`Scalar`] (`f32` or `f64`), matching the
//! paper's single-/double-precision evaluation. Every stored column (and
//! COO row) index is a `u32` ([`INDEX_BYTES`]), as in the paper's C
//! kernels: CSR streams 12 bytes per `f64` nonzero, COO 16.
//!
//! # Examples
//!
//! Build a matrix in the unified CSR interface format and convert it to
//! the format a tuner picked:
//!
//! ```
//! use smat_matrix::{AnyMatrix, Csr, Format};
//!
//! let a = Csr::<f64>::from_triplets(3, 3, &[(0, 0, 4.0), (1, 1, 4.0), (2, 2, 4.0)])?;
//! let tuned = AnyMatrix::convert_from_csr(&a, Format::Dia)?;
//! let mut y = vec![0.0; 3];
//! tuned.spmv(&[1.0, 2.0, 3.0], &mut y)?;
//! assert_eq!(y, [4.0, 8.0, 12.0]);
//! # Ok::<(), smat_matrix::MatrixError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod bcsr;
mod convert;
mod coo;
mod csr;
mod dia;
mod ell;
mod error;
mod fingerprint;
mod hyb;
#[cfg(test)]
mod oracle;
mod scalar;

pub mod gen;
pub mod io;
pub mod utils;

pub use bcsr::{Bcsr, DEFAULT_BCSR_FILL_LIMIT};
pub use convert::{AnyMatrix, ConversionLimits, Format, ParseFormatError};
pub use coo::Coo;
pub use csr::{Csr, Iter as CsrIter};
pub use dia::{Dia, DEFAULT_DIA_FILL_LIMIT};
pub use ell::{Ell, DEFAULT_ELL_FILL_LIMIT};
pub use error::{MatrixError, Result};
pub use fingerprint::StructuralFingerprint;
pub use hyb::{Hyb, HYB_WIDTH_ROW_FRACTION};
pub use scalar::Scalar;

/// Bytes of one stored index: every column index (and COO's row index)
/// is a `u32`, so a matrix may have at most `u32::MAX` rows and columns.
/// Row and block pointers stay `usize`.
pub const INDEX_BYTES: usize = std::mem::size_of::<u32>();

/// Refuses a shape whose row or column indices would not fit the
/// four-byte index every format stores.
pub(crate) fn check_shape(rows: usize, cols: usize) -> Result<()> {
    if rows > u32::MAX as usize || cols > u32::MAX as usize {
        return Err(MatrixError::InvalidStructure(format!(
            "{rows} x {cols} exceeds the u32 index range (at most {} rows and columns)",
            u32::MAX
        )));
    }
    Ok(())
}
