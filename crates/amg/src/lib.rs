//! Algebraic multigrid (AMG) — the SMAT reproduction's stand-in for the
//! Hypre/BoomerAMG solver the paper integrates with in §7.4.
//!
//! The solver builds a hierarchy of coarse operators via classical
//! strength-of-connection ([`StrengthGraph`]), Ruge–Stüben coarsening
//! ([`coarsen`]), direct interpolation and Galerkin triple
//! products ([`spgemm`]), then solves by V-cycles with weighted-Jacobi
//! smoothing — optionally routing every grid and transfer operator
//! through a SMAT engine so each level's SpMV runs in the format and
//! kernel the tuner picks per level (the paper's Figure 1 / Table 4
//! experiment).
//!
//! # Examples
//!
//! ```
//! use smat_amg::{AmgConfig, AmgSolver, CycleConfig};
//! use smat_matrix::gen::laplacian_2d_5pt;
//!
//! let a = laplacian_2d_5pt::<f64>(24, 24);
//! let n = a.rows();
//! let solver = AmgSolver::new(a, &AmgConfig::default(), CycleConfig::default());
//! let b = vec![1.0; n];
//! let mut x = vec![0.0; n];
//! let stats = solver.solve(&b, &mut x, 1e-8, 50);
//! assert!(stats.converged);
//! ```

#![warn(missing_docs)]

pub mod coarsen;
mod cycle;
mod hierarchy;
mod interp;
#[cfg(test)]
mod oracle;
mod relax;
mod solver;
mod spgemm;
mod strength;

pub use coarsen::{PointType, Splitting};
pub use cycle::{CompiledHierarchy, CompiledLevel, CycleConfig, DenseLu, OpApply, Workspace};
pub use hierarchy::{setup, AmgConfig, Hierarchy, Level, INTERP_MAX_ELEMENTS};
pub use interp::{direct_interpolation, truncate_interpolation};
pub use relax::{jacobi_update, residual, JACOBI_OMEGA};
pub use solver::{AmgSolver, SolveStats};
pub use spgemm::{rap, spgemm};
pub use strength::{StrengthGraph, DEFAULT_THETA};

/// Stencil generators re-exported for convenience (the paper's AMG
/// inputs: 7-point and 9-point Laplacians).
pub mod laplacian {
    pub use smat_matrix::gen::{
        laplacian_1d, laplacian_2d_5pt, laplacian_2d_9pt, laplacian_3d_7pt,
    };
}
