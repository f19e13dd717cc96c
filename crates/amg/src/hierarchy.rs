//! AMG setup phase: builds the grid hierarchy `(A_0, P_0), (A_1, P_1),
//! ...` via strength graphs, coarse/fine splitting, direct interpolation
//! and Galerkin triple products — the structure sketched in the paper's
//! Figure 11.

use crate::coarsen::coarsen;
use crate::interp::interpolate;
use crate::spgemm::rap;
use crate::strength::{StrengthGraph, DEFAULT_THETA};
use serde::{Deserialize, Serialize};
use smat_matrix::{Csr, Scalar};

/// Interpolation truncation: each `P` row keeps at most this many
/// weights (Hypre's `P_max_elmts`). Bounds operator complexity on 3-D
/// problems.
pub const INTERP_MAX_ELEMENTS: usize = 4;

/// Parameters of the AMG setup phase. Strength uses [`DEFAULT_THETA`],
/// coarsening is Ruge–Stüben and interpolation keeps
/// [`INTERP_MAX_ELEMENTS`] weights a row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AmgConfig {
    /// Maximum number of levels.
    pub max_levels: usize,
    /// Stop coarsening when the operator is at most this large.
    pub coarse_size: usize,
}

impl Default for AmgConfig {
    fn default() -> Self {
        Self {
            max_levels: 25,
            coarse_size: 64,
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
        let splitting = coarsen(&graph);
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
        };
        let h = setup(a, &cfg);
        assert_eq!(h.num_levels(), 2);
    }

    /// Ruge–Stüben stops coarsening before the level cap, at operator
    /// complexity at most 4, on the grids the thread targets build.
    #[test]
    fn rs_hierarchies_are_healthy() {
        let cfg = AmgConfig::default();
        for (name, a) in [
            ("7-pt 24^3", laplacian_3d_7pt::<f64>(24, 24, 24)),
            ("9-pt 120^2", laplacian_2d_9pt::<f64>(120, 120)),
        ] {
            let h = setup(a, &cfg);
            let complexity = h.operator_complexity();
            assert!(
                h.num_levels() < cfg.max_levels,
                "{name}: {} levels",
                h.num_levels()
            );
            assert!(
                complexity <= 4.0,
                "{name}: operator complexity {complexity}"
            );
        }
    }

    #[test]
    fn hierarchy_equals_the_reference_set_up() {
        let mut cases = oracle::matrices();
        cases.extend([
            ("7-pt 10x14x9", laplacian_3d_7pt(10, 14, 9)),
            ("9-pt 56^2", laplacian_2d_9pt(56, 56)),
            ("power-law hub 900", oracle::hub_matrix(900)),
        ]);
        let small_coarse = AmgConfig {
            coarse_size: 24,
            ..AmgConfig::default()
        };
        for (name, a) in cases {
            for cfg in [small_coarse, AmgConfig::default()] {
                let h = setup(a.clone(), &cfg);
                assert!(h == oracle::setup(a.clone(), &cfg), "{name}: {cfg:?}");
                assert!(h.num_levels() >= 2, "{name} must coarsen");
            }
        }
    }
}
