//! Sparse matrix feature extraction for the SMAT (PLDI'13) reproduction.
//!
//! Implements §4 of the paper: the 11 structural feature parameters of
//! Table 2 ([`FeatureVector`]), the two-step extraction procedure of §6
//! ([`extract_structure`] then [`StructureFeatures::with_power_law`]),
//! and the power-law exponent fit ([`fit_power_law`]).
//!
//! # Examples
//!
//! ```
//! use smat_features::extract_features;
//! use smat_matrix::gen::laplacian_2d_5pt;
//!
//! let f = extract_features(&laplacian_2d_5pt::<f64>(64, 64));
//! assert_eq!(f.ndiags, 5.0);     // the 5-point stencil's diagonals
//! assert!(f.er_dia > 0.9);       // nearly no zero fill in DIA
//! ```

#![warn(missing_docs)]

mod extract;
mod params;
mod powerlaw;

pub use extract::{extract_features, extract_structure, StructureFeatures};
pub use params::{FeatureVector, ATTRIBUTE_NAMES, R_ATTR, R_NOT_SCALE_FREE, TRUE_DIAG_OCCUPANCY};
pub use powerlaw::{
    fit_power_law, fit_power_law_of_degrees, MIN_DISTINCT_DEGREES, MIN_FIT_QUALITY,
};
