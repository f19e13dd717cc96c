//! Feature extraction from a CSR matrix — the paper's §4 and the
//! "Feature Extraction" runtime component of §6.
//!
//! Extraction runs in the paper's two independent steps so the runtime's
//! optimistic early-exit strategy can skip the expensive part:
//!
//! 1. [`extract_structure`] — a single traversal computing the DIA, ELL
//!    and CSR parameters (diagonal census and nonzero distribution
//!    together, as §6 describes);
//! 2. [`fit_power_law`](crate::fit_power_law) — the power-law exponent
//!    `R` needed only by the COO rules.
//!
//! [`extract_features`] composes both.

use crate::params::{FeatureVector, R_NOT_SCALE_FREE, TRUE_DIAG_OCCUPANCY};
use crate::powerlaw::fit_power_law_of_degrees;
use smat_matrix::{Csr, Scalar};

/// Everything the cheap first pass produces: the feature vector with `R`
/// left at [`R_NOT_SCALE_FREE`], plus the row-degree array for the
/// second pass to reuse.
#[derive(Debug, Clone)]
pub struct StructureFeatures {
    /// Feature vector with all parameters except `R` filled in.
    pub features: FeatureVector,
    /// Per-row nonzero counts (reused by the power-law fit).
    pub row_degrees: Vec<usize>,
}

/// First extraction step: diagonal census and nonzero distribution in one
/// traversal of the matrix.
///
/// # Examples
///
/// ```
/// use smat_features::extract_structure;
/// use smat_matrix::gen::tridiagonal;
///
/// let s = extract_structure(&tridiagonal::<f64>(100));
/// assert_eq!(s.features.ndiags, 3.0);
/// assert_eq!(s.features.ntdiags_ratio, 1.0);
/// assert_eq!(s.features.max_rd, 3.0);
/// ```
pub fn extract_structure<T: Scalar>(m: &Csr<T>) -> StructureFeatures {
    let rows = m.rows();
    let cols = m.cols();
    let nnz = m.nnz();

    // Diagonal census: count of stored entries per diagonal offset.
    // Offset index = c - r + rows - 1, in [0, rows + cols - 1).
    let span = rows + cols;
    let mut diag_counts = vec![0u32; span.max(1)];
    let mut row_degrees = vec![0usize; rows];
    let ptr = m.row_ptr();
    let idx = m.col_idx();
    for r in 0..rows {
        row_degrees[r] = ptr[r + 1] - ptr[r];
        // Row `r`'s diagonals start at index `rows - 1 - r`.
        let band = &mut diag_counts[rows - 1 - r..];
        for &c in &idx[ptr[r]..ptr[r + 1]] {
            band[c as usize] += 1;
        }
    }

    let mut ndiags = 0usize;
    let mut true_diags = 0usize;
    for (i, &count) in diag_counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        ndiags += 1;
        // Length of diagonal with offset k = i - (rows - 1).
        let k = i as isize - (rows as isize - 1);
        let len = if k >= 0 {
            rows.min(cols - k as usize)
        } else {
            cols.min(rows - (-k) as usize)
        };
        if count as f64 >= TRUE_DIAG_OCCUPANCY * len as f64 {
            true_diags += 1;
        }
    }

    let max_rd = row_degrees.iter().copied().max().unwrap_or(0);
    let aver_rd = if rows > 0 {
        nnz as f64 / rows as f64
    } else {
        0.0
    };
    let var_rd = if rows > 0 {
        row_degrees
            .iter()
            .map(|&d| (d as f64 - aver_rd).powi(2))
            .sum::<f64>()
            / rows as f64
    } else {
        0.0
    };
    let er_dia = if ndiags > 0 && rows > 0 {
        nnz as f64 / (ndiags as f64 * rows as f64)
    } else {
        0.0
    };
    let er_ell = if max_rd > 0 && rows > 0 {
        nnz as f64 / (max_rd as f64 * rows as f64)
    } else {
        0.0
    };
    let ntdiags_ratio = if ndiags > 0 {
        true_diags as f64 / ndiags as f64
    } else {
        0.0
    };

    StructureFeatures {
        features: FeatureVector {
            m: rows as f64,
            n: cols as f64,
            nnz: nnz as f64,
            aver_rd,
            max_rd: max_rd as f64,
            var_rd,
            ndiags: ndiags as f64,
            ntdiags_ratio,
            er_dia,
            er_ell,
            r: R_NOT_SCALE_FREE,
        },
        row_degrees,
    }
}

impl StructureFeatures {
    /// Second extraction step: fits the power-law exponent and completes
    /// the feature vector.
    pub fn with_power_law(mut self) -> FeatureVector {
        self.features.r = fit_power_law_of_degrees(self.row_degrees.iter().copied());
        self.features
    }
}

/// Extracts the complete 11-parameter feature vector (both steps).
///
/// # Examples
///
/// ```
/// use smat_features::extract_features;
/// use smat_matrix::gen::power_law;
///
/// let f = extract_features(&power_law::<f64>(3000, 500, 2.0, 1));
/// assert!(f.r > 0.5 && f.r < 5.0);
/// assert!(f.er_ell < 0.3); // heavy tail makes ELL padding awful
/// ```
pub fn extract_features<T: Scalar>(m: &Csr<T>) -> FeatureVector {
    extract_structure(m).with_power_law()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_matrix::gen::{banded, fixed_degree, laplacian_2d_5pt, power_law};
    use smat_matrix::Csr;

    #[test]
    fn figure2_example_features() {
        // The paper's Figure 2 matrix: 4x4, 9 nnz, diagonals {-2, 0, 1}.
        let m = Csr::<f64>::from_triplets(
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
        .unwrap();
        let s = extract_structure(&m);
        let f = s.features;
        assert_eq!(f.m, 4.0);
        assert_eq!(f.n, 4.0);
        assert_eq!(f.nnz, 9.0);
        assert_eq!(f.aver_rd, 2.25);
        assert_eq!(f.max_rd, 3.0);
        assert_eq!(f.ndiags, 3.0);
        // Diagonal 0 has 4/4, diagonal +1 has 3/3, diagonal -2 has 2/2:
        // all true diagonals.
        assert_eq!(f.ntdiags_ratio, 1.0);
        assert!((f.er_dia - 9.0 / 12.0).abs() < 1e-12);
        assert!((f.er_ell - 9.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn stencil_features_match_paper_expectations() {
        let m = laplacian_2d_5pt::<f64>(32, 32);
        let f = extract_features(&m);
        assert_eq!(f.ndiags, 5.0);
        assert!(f.ntdiags_ratio >= 0.6, "most stencil diagonals are true");
        assert!(f.er_dia > 0.9);
        assert_eq!(f.r, R_NOT_SCALE_FREE);
    }

    #[test]
    fn partial_diagonals_lower_true_ratio() {
        let full = banded::<f64>(256, &[-2, 0, 3], 1.0, 1);
        let thin = banded::<f64>(256, &[-2, 0, 3], 0.4, 1);
        let ff = extract_features(&full);
        let ft = extract_features(&thin);
        assert_eq!(ff.ntdiags_ratio, 1.0);
        assert_eq!(ft.ntdiags_ratio, 0.0);
        assert!(ft.er_dia < ff.er_dia);
    }

    #[test]
    fn ell_friendly_matrix_has_unit_er_ell_and_low_var() {
        let m = fixed_degree::<f64>(400, 400, 9, 0, 2);
        let f = extract_features(&m);
        assert_eq!(f.er_ell, 1.0);
        assert_eq!(f.var_rd, 0.0);
        assert_eq!(f.max_rd, 9.0);
    }

    #[test]
    fn power_law_matrix_gets_finite_r() {
        let m = power_law::<f64>(4000, 600, 2.0, 4);
        let f = extract_features(&m);
        assert!(f.r < R_NOT_SCALE_FREE);
        assert!(f.var_rd > 1.0, "power-law degrees vary a lot");
    }

    #[test]
    fn rectangular_diagonal_lengths() {
        // 2 x 4: diagonal +2 has length 2, +3 has length 1.
        let m = Csr::<f64>::from_triplets(2, 4, &[(0, 2, 1.0), (1, 3, 1.0), (0, 3, 1.0)]).unwrap();
        let s = extract_structure(&m);
        assert_eq!(s.features.ndiags, 2.0);
        // Offset +2: entries (0,2),(1,3) -> 2 of length 2 (true);
        // offset +3: entry (0,3) -> 1 of length 1 (true).
        assert_eq!(s.features.ntdiags_ratio, 1.0);
    }

    #[test]
    fn empty_matrix_is_all_zeros() {
        let m = Csr::<f64>::from_triplets(3, 3, &[]).unwrap();
        let f = extract_features(&m);
        assert_eq!(f.nnz, 0.0);
        assert_eq!(f.ndiags, 0.0);
        assert_eq!(f.er_dia, 0.0);
        assert_eq!(f.er_ell, 0.0);
        assert_eq!(f.r, R_NOT_SCALE_FREE);
    }

    #[test]
    fn structure_pass_reuses_degrees_consistently() {
        let m = power_law::<f64>(1000, 200, 2.1, 8);
        let s = extract_structure(&m);
        assert_eq!(s.row_degrees.len(), m.rows());
        let total: usize = s.row_degrees.iter().sum();
        assert_eq!(total, m.nnz());
    }
}
