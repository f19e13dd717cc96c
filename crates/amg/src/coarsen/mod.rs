//! Coarse/fine splitting: classical Ruge–Stüben first-pass coarsening
//! (Hypre's "rugeL") and the fix-up that makes every splitting valid for
//! direct interpolation.

pub mod rs;

use crate::strength::StrengthGraph;
use serde::{Deserialize, Serialize};

/// Classification of a point in the coarse/fine splitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PointType {
    /// Coarse-grid point (survives to the next level).
    Coarse,
    /// Fine-grid point (interpolated from coarse neighbors).
    Fine,
}

/// A coarse/fine splitting.
#[derive(Debug, Clone, PartialEq)]
pub struct Splitting {
    /// Per-point classification.
    pub types: Vec<PointType>,
    /// For coarse points, their index on the coarse grid; `usize::MAX`
    /// for fine points.
    pub coarse_index: Vec<usize>,
    /// Number of coarse points.
    pub n_coarse: usize,
}

impl Splitting {
    /// Builds the splitting bookkeeping from raw point types.
    pub fn from_types(types: Vec<PointType>) -> Self {
        let mut coarse_index = vec![usize::MAX; types.len()];
        let mut n_coarse = 0;
        for (i, &t) in types.iter().enumerate() {
            if t == PointType::Coarse {
                coarse_index[i] = n_coarse;
                n_coarse += 1;
            }
        }
        Self {
            types,
            coarse_index,
            n_coarse,
        }
    }

    /// Whether point `i` is coarse.
    pub fn is_coarse(&self, i: usize) -> bool {
        self.types[i] == PointType::Coarse
    }

    /// Number of points on the fine grid.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether the splitting is empty.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }
}

/// Runs Ruge–Stüben coarsening and the fix-up: every fine point must
/// keep at least one strong coarse influencer so direct interpolation is
/// well-defined; isolated points (no strong neighbors at all) become
/// coarse.
pub fn coarsen(graph: &StrengthGraph) -> Splitting {
    let mut types = rs::split(graph);
    fixup(graph, &mut types);
    Splitting::from_types(types)
}

/// Promotes any fine point lacking a strong coarse influencer to coarse.
fn fixup(graph: &StrengthGraph, types: &mut [PointType]) {
    for i in 0..types.len() {
        if types[i] == PointType::Fine {
            let has_coarse = graph
                .influencers(i)
                .iter()
                .any(|&j| types[j] == PointType::Coarse);
            if !has_coarse {
                types[i] = PointType::Coarse;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_matrix::gen::laplacian_2d_5pt;

    #[test]
    fn splitting_bookkeeping() {
        let s = Splitting::from_types(vec![PointType::Coarse, PointType::Fine, PointType::Coarse]);
        assert_eq!(s.n_coarse, 2);
        assert_eq!(s.coarse_index, vec![0, usize::MAX, 1]);
        assert!(s.is_coarse(0));
        assert!(!s.is_coarse(1));
        assert_eq!(s.len(), 3);
    }

    /// Ruge–Stüben and a seeded random assignment, each through the
    /// fix-up, on every oracle matrix.
    #[test]
    fn both_methods_produce_valid_splittings() {
        let mut cases = vec![("5-pt 12^2", laplacian_2d_5pt::<f64>(12, 12))];
        cases.extend(crate::oracle::matrices());
        for (name, a) in cases {
            let g = StrengthGraph::build(&a, 0.25);
            let mut random = crate::oracle::random_types(g.len(), 42);
            fixup(&g, &mut random);
            for (method, s) in [
                ("rs", coarsen(&g)),
                ("random", Splitting::from_types(random)),
            ] {
                assert!(s.n_coarse > 0, "{name} {method}: no coarse points");
                assert!(
                    s.n_coarse < s.len(),
                    "{name} {method}: failed to coarsen at all"
                );
                // Every fine point has a strong coarse influencer.
                for i in 0..s.len() {
                    if !s.is_coarse(i) {
                        assert!(
                            g.influencers(i).iter().any(|&j| s.is_coarse(j)),
                            "{name} {method}: fine point {i} has no coarse influencer"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn isolated_points_become_coarse() {
        // Identity matrix: no strong connections anywhere.
        let a = smat_matrix::Csr::<f64>::identity(6);
        let g = StrengthGraph::build(&a, 0.25);
        let s = coarsen(&g);
        assert_eq!(s.n_coarse, 6, "isolated points must all be coarse");
    }
}
