//! The feature parameter vector — Table 2 of the paper.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Occupancy threshold above which a diagonal counts as a "true
/// diagonal".
///
/// The paper defines a true diagonal as "one occupied mostly with
/// non-zeros" featuring "minor part of zero-padding"; this reproduction
/// fixes "mostly" at 90% occupancy.
pub const TRUE_DIAG_OCCUPANCY: f64 = 0.9;

/// Sentinel value of the power-law exponent `R` for matrices with no
/// scale-free structure — the paper's "inf" for matrix `t2d_q9`.
///
/// A large *finite* value is used instead of [`f64::INFINITY`] so that
/// decision-tree split thresholds (midpoints of observed values) and the
/// JSON model serialization stay well-defined; any threshold the learner
/// can produce is far below it.
pub const R_NOT_SCALE_FREE: f64 = 1.0e6;

/// The 11 structural feature parameters SMAT extracts from a sparse
/// matrix (the paper's Table 2).
///
/// All values are stored as `f64` so they can feed the learner uniformly;
/// `r` is [`R_NOT_SCALE_FREE`] when the matrix shows no scale-free
/// structure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeatureVector {
    /// `M` — number of rows.
    pub m: f64,
    /// `N` — number of columns.
    pub n: f64,
    /// `NNZ` — number of stored nonzeros.
    pub nnz: f64,
    /// `aver_RD = NNZ / M` — average row degree.
    pub aver_rd: f64,
    /// `max_RD` — maximum row degree.
    pub max_rd: f64,
    /// `var_RD = Σ |rd_i − aver_RD|² / M` — row-degree variance.
    pub var_rd: f64,
    /// `Ndiags` — number of occupied diagonals.
    pub ndiags: f64,
    /// `NTdiags_ratio` — fraction of occupied diagonals that are "true"
    /// (≥ [`TRUE_DIAG_OCCUPANCY`] occupancy).
    pub ntdiags_ratio: f64,
    /// `ER_DIA = NNZ / (Ndiags × M)` — nonzero ratio of the DIA layout.
    pub er_dia: f64,
    /// `ER_ELL = NNZ / (max_RD × M)` — nonzero ratio of the ELL layout.
    pub er_ell: f64,
    /// `R` — fitted power-law exponent of the row-degree distribution
    /// (`P(k) ~ k^-R`), or [`R_NOT_SCALE_FREE`] when not scale-free.
    pub r: f64,
}

/// Names of the attributes, in [`FeatureVector::as_array`] order. These
/// are the column names of the learner's datasets.
pub const ATTRIBUTE_NAMES: [&str; 11] = [
    "M",
    "N",
    "NNZ",
    "aver_RD",
    "max_RD",
    "var_RD",
    "Ndiags",
    "NTdiags_ratio",
    "ER_DIA",
    "ER_ELL",
    "R",
];

/// Index of the power-law attribute `R` in [`ATTRIBUTE_NAMES`] order.
pub const R_ATTR: usize = 10;

impl FeatureVector {
    /// The feature values as a fixed-order array matching
    /// [`ATTRIBUTE_NAMES`].
    pub fn as_array(&self) -> [f64; 11] {
        [
            self.m,
            self.n,
            self.nnz,
            self.aver_rd,
            self.max_rd,
            self.var_rd,
            self.ndiags,
            self.ntdiags_ratio,
            self.er_dia,
            self.er_ell,
            self.r,
        ]
    }

    /// Reconstructs a vector from the [`ATTRIBUTE_NAMES`]-ordered array.
    pub fn from_array(a: [f64; 11]) -> Self {
        FeatureVector {
            m: a[0],
            n: a[1],
            nnz: a[2],
            aver_rd: a[3],
            max_rd: a[4],
            var_rd: a[5],
            ndiags: a[6],
            ntdiags_ratio: a[7],
            er_dia: a[8],
            er_ell: a[9],
            r: a[10],
        }
    }

    /// Value of the attribute at `index` (in [`ATTRIBUTE_NAMES`] order).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 11`.
    pub fn attribute(&self, index: usize) -> f64 {
        self.as_array()[index]
    }
}

impl fmt::Display for FeatureVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let vals = self.as_array();
        for (i, (name, v)) in ATTRIBUTE_NAMES.iter().zip(vals).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if v >= R_NOT_SCALE_FREE {
                write!(f, "{name}=inf")?;
            } else {
                write!(f, "{name}={v:.4}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FeatureVector {
        FeatureVector {
            m: 9801.0,
            n: 9801.0,
            nnz: 87025.0,
            aver_rd: 8.88,
            max_rd: 9.0,
            var_rd: 0.35,
            ndiags: 9.0,
            ntdiags_ratio: 1.0,
            er_dia: 0.99,
            er_ell: 0.99,
            r: R_NOT_SCALE_FREE,
        }
    }

    #[test]
    fn array_round_trip() {
        let v = sample();
        assert_eq!(FeatureVector::from_array(v.as_array()), v);
    }

    #[test]
    fn attribute_indexing_matches_names() {
        let v = sample();
        assert_eq!(v.attribute(0), v.m);
        assert_eq!(v.attribute(6), v.ndiags);
        assert_eq!(v.attribute(10), v.r);
        assert_eq!(ATTRIBUTE_NAMES[6], "Ndiags");
    }

    #[test]
    fn r_attr_names_r() {
        assert_eq!(ATTRIBUTE_NAMES[R_ATTR], "R");
        assert_eq!(sample().attribute(R_ATTR), sample().r);
    }

    #[test]
    fn display_marks_infinite_r() {
        let s = sample().to_string();
        assert!(s.contains("R=inf"));
        assert!(s.contains("NTdiags_ratio=1.0000"));
    }

    #[test]
    fn serde_round_trip_with_sentinel() {
        // JSON has no Inf; R_NOT_SCALE_FREE is finite precisely so the
        // model and datasets serialize cleanly.
        let v = sample();
        let bytes = serde_json::to_string(&v).unwrap();
        let back: FeatureVector = serde_json::from_str(&bytes).unwrap();
        assert_eq!(back, v);
        assert!(R_NOT_SCALE_FREE.is_finite());
    }
}
