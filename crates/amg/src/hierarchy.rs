//! AMG setup phase: builds the grid hierarchy `(A_0, P_0), (A_1, P_1),
//! ...` via strength graphs, coarse/fine splitting, direct interpolation
//! and Galerkin triple products — the structure sketched in the paper's
//! Figure 11.

use crate::coarsen::{coarsen, Coarsening};
use crate::interp::interpolate;
use crate::spgemm::rap;
use crate::strength::{StrengthGraph, DEFAULT_THETA};
use serde::{Deserialize, Serialize};
use smat_matrix::{Csr, Scalar};

/// Interpolation truncation: each `P` row keeps at most this many
/// weights (Hypre's `P_max_elmts`). Bounds operator complexity on 3-D
/// problems.
pub const INTERP_MAX_ELEMENTS: usize = 4;

/// Parameters of the AMG setup phase. Strength uses [`DEFAULT_THETA`]
/// and interpolation [`INTERP_MAX_ELEMENTS`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AmgConfig {
    /// Coarsening algorithm (the paper benchmarks both).
    pub coarsening: Coarsening,
    /// Maximum number of levels.
    pub max_levels: usize,
    /// Stop coarsening when the operator is at most this large.
    pub coarse_size: usize,
    /// Seed for CLJP's random tie-breaking weights.
    pub seed: u64,
}

impl Default for AmgConfig {
    fn default() -> Self {
        Self {
            coarsening: Coarsening::RugeStuben,
            max_levels: 25,
            coarse_size: 64,
            seed: 0xC17F,
        }
    }
}

/// One level of the hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct Level<T> {
    /// The grid operator `A_l`.
    pub a: Csr<T>,
    /// Prolongation to this level from the next coarser one
    /// (`None` on the coarsest level).
    pub p: Option<Csr<T>>,
    /// Restriction (`P^T`) from this level to the next coarser one.
    pub r: Option<Csr<T>>,
}

/// The grid hierarchy produced by [`setup`].
#[derive(Debug, Clone, PartialEq)]
pub struct Hierarchy<T> {
    /// Levels, finest first.
    pub levels: Vec<Level<T>>,
}

impl<T: Scalar> Hierarchy<T> {
    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Dimensions of each level's operator, finest first.
    pub fn level_dims(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.a.rows()).collect()
    }

    /// Operator complexity: total stored nonzeros across levels divided
    /// by the finest operator's nonzeros (a standard AMG health metric;
    /// values below ~3 are considered good).
    pub fn operator_complexity(&self) -> f64 {
        let fine = self.levels[0].a.nnz().max(1);
        let total: usize = self.levels.iter().map(|l| l.a.nnz()).sum();
        total as f64 / fine as f64
    }
}

/// Runs the setup phase on a square operator.
///
/// # Panics
///
/// Panics if `a` is not square or is empty.
pub fn setup<T: Scalar>(a: Csr<T>, config: &AmgConfig) -> Hierarchy<T> {
    assert_eq!(a.rows(), a.cols(), "amg needs a square operator");
    assert!(a.rows() > 0, "amg needs a non-empty operator");
    let mut levels: Vec<Level<T>> = Vec::new();
    let mut current = a;
    for lvl in 0..config.max_levels {
        let n = current.rows();
        if n <= config.coarse_size || lvl + 1 == config.max_levels {
            levels.push(Level {
                a: current,
                p: None,
                r: None,
            });
            return Hierarchy { levels };
        }
        let graph = StrengthGraph::build(&current, DEFAULT_THETA);
        let splitting = coarsen(
            &graph,
            config.coarsening,
            config.seed.wrapping_add(lvl as u64),
        );
        // Coarsening stagnated: everything coarse (e.g. diagonal matrix)
        // or nothing coarse. Finish with this level as the coarsest.
        if splitting.n_coarse == 0 || splitting.n_coarse >= n {
            levels.push(Level {
                a: current,
                p: None,
                r: None,
            });
            return Hierarchy { levels };
        }
        let p = interpolate(&current, &graph, &splitting, INTERP_MAX_ELEMENTS);
        let r = p.transpose();
        let coarse = rap(&r, &current, &p);
        levels.push(Level {
            a: current,
            p: Some(p),
            r: Some(r),
        });
        current = coarse;
    }
    unreachable!("loop always returns at the level cap");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use smat_matrix::gen::{laplacian_2d_5pt, laplacian_2d_9pt, laplacian_3d_7pt};

    #[test]
    fn builds_multiple_levels_on_2d_poisson() {
        let a = laplacian_2d_5pt::<f64>(32, 32);
        let h = setup(a, &AmgConfig::default());
        assert!(h.num_levels() >= 3, "only {} levels", h.num_levels());
        let dims = h.level_dims();
        assert!(
            dims.windows(2).all(|w| w[1] < w[0]),
            "dims must shrink: {dims:?}"
        );
        assert!(*dims.last().unwrap() <= 64);
        assert!(
            h.operator_complexity() < 5.0,
            "complexity {}",
            h.operator_complexity()
        );
    }

    #[test]
    fn transfer_dimensions_are_consistent() {
        let a = laplacian_2d_9pt::<f64>(20, 20);
        let h = setup(a, &AmgConfig::default());
        for w in h.levels.windows(2) {
            let fine = &w[0];
            let coarse = &w[1];
            let p = fine.p.as_ref().unwrap();
            let r = fine.r.as_ref().unwrap();
            assert_eq!(p.rows(), fine.a.rows());
            assert_eq!(p.cols(), coarse.a.rows());
            assert_eq!(r.rows(), coarse.a.rows());
            assert_eq!(r.cols(), fine.a.rows());
        }
        let last = h.levels.last().unwrap();
        assert!(last.p.is_none());
    }

    #[test]
    fn coarse_operators_stay_symmetric() {
        let a = laplacian_2d_5pt::<f64>(16, 16);
        let h = setup(a, &AmgConfig::default());
        for l in &h.levels {
            let at = l.a.transpose();
            let diff: f64 = at
                .iter()
                .map(|(r, c, v)| (v - l.a.get(r, c).unwrap_or(0.0)).abs())
                .fold(0.0, f64::max);
            assert!(diff < 1e-10, "asymmetry {diff}");
        }
    }

    #[test]
    fn cljp_hierarchy_also_builds() {
        let a = laplacian_3d_7pt::<f64>(8, 8, 8);
        let cfg = AmgConfig {
            coarsening: Coarsening::Cljp,
            ..AmgConfig::default()
        };
        let h = setup(a, &cfg);
        assert!(h.num_levels() >= 2);
        assert!(*h.level_dims().last().unwrap() <= 64);
    }

    #[test]
    fn tiny_matrix_is_single_level() {
        let a = laplacian_2d_5pt::<f64>(4, 4);
        let h = setup(a, &AmgConfig::default());
        assert_eq!(h.num_levels(), 1);
        assert!(h.levels[0].p.is_none());
        assert_eq!(h.operator_complexity(), 1.0);
    }

    #[test]
    fn level_cap_is_respected() {
        let a = laplacian_2d_5pt::<f64>(40, 40);
        let cfg = AmgConfig {
            max_levels: 2,
            coarse_size: 4,
            ..AmgConfig::default()
        };
        let h = setup(a, &cfg);
        assert_eq!(h.num_levels(), 2);
    }

    #[test]
    fn hierarchy_equals_the_reference_set_up() {
        for (name, a) in oracle::matrices() {
            for coarsening in [Coarsening::RugeStuben, Coarsening::Cljp] {
                let cfg = AmgConfig {
                    coarsening,
                    coarse_size: 24,
                    ..AmgConfig::default()
                };
                let h = setup(a.clone(), &cfg);
                assert!(
                    h == oracle::setup(a.clone(), &cfg),
                    "{name}: {coarsening:?}"
                );
                assert!(h.num_levels() >= 2, "{name} must coarsen");
            }
        }
    }
}
