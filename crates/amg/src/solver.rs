//! The complete solver: set up once, then V-cycles to a relative
//! residual tolerance.

use crate::cycle::{CompiledHierarchy, CycleConfig, Start, Workspace};
use crate::hierarchy::{setup, AmgConfig, Hierarchy};
use smat::Smat;
use smat_matrix::utils::norm2;
use smat_matrix::{Csr, Scalar};

/// Convergence report of an iterative solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveStats {
    /// V-cycles performed.
    pub iterations: usize,
    /// Residual norm after each iteration, starting with the initial
    /// residual.
    pub residuals: Vec<f64>,
    /// Whether the relative tolerance was reached.
    pub converged: bool,
}

impl SolveStats {
    /// Geometric-mean convergence factor per iteration.
    pub fn convergence_factor(&self) -> f64 {
        if self.residuals.len() < 2 || self.residuals[0] <= 0.0 {
            return 0.0;
        }
        let first = self.residuals[0];
        let last = *self.residuals.last().expect("non-empty");
        (last / first).powf(1.0 / (self.residuals.len() - 1) as f64)
    }
}

/// An algebraic multigrid solver: setup once, solve repeatedly.
#[derive(Debug)]
pub struct AmgSolver<T: Scalar> {
    hierarchy: Hierarchy<T>,
    compiled: CompiledHierarchy<T>,
    cycle: CycleConfig,
}

impl<T: Scalar> AmgSolver<T> {
    /// Builds the solver with plain CSR operators (the "Hypre AMG"
    /// baseline of Table 4).
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square or empty.
    pub fn new(a: Csr<T>, config: &AmgConfig, cycle: CycleConfig) -> Self {
        let hierarchy = setup(a, config);
        let compiled = CompiledHierarchy::plain(&hierarchy);
        Self {
            hierarchy,
            compiled,
            cycle,
        }
    }

    /// Builds the solver with every grid and transfer operator tuned
    /// through SMAT (the "SMAT AMG" configuration of Table 4).
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square or empty.
    pub fn with_smat(a: Csr<T>, config: &AmgConfig, cycle: CycleConfig, engine: &Smat<T>) -> Self {
        let hierarchy = setup(a, config);
        let compiled = CompiledHierarchy::with_smat(&hierarchy, engine);
        Self {
            hierarchy,
            compiled,
            cycle,
        }
    }

    /// The grid hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy<T> {
        &self.hierarchy
    }

    /// The compiled (kernel-bound) hierarchy.
    pub fn compiled(&self) -> &CompiledHierarchy<T> {
        &self.compiled
    }

    /// Tuning-cache traffic of the setup phase (`None` when built
    /// without SMAT): how many per-operator tuning decisions were
    /// replayed from the engine's structural-fingerprint cache versus
    /// computed fresh.
    pub fn setup_tuning_stats(&self) -> Option<&smat::CacheStats> {
        self.compiled.tuning_stats()
    }

    /// How many operators the tuner degraded to the reference CSR path
    /// during setup (see
    /// [`CompiledHierarchy::degraded_ops_per_level`]). Always 0 for a
    /// plain (untuned) solver.
    pub fn setup_degraded_ops(&self) -> usize {
        self.compiled.degraded_ops()
    }

    /// Solves `A x = b` by repeated V-cycles until
    /// `||r|| <= rel_tol * ||b||` or `max_cycles`.
    ///
    /// # Panics
    ///
    /// Panics on vector length mismatch.
    pub fn solve(&self, b: &[T], x: &mut [T], rel_tol: f64, max_cycles: usize) -> SolveStats {
        let bnorm = norm2(b).to_f64().max(f64::MIN_POSITIVE);
        let mut ws = Workspace::new();
        // Each convergence test leaves `b - A x` in the workspace, and
        // the next cycle's first Jacobi sweep starts from it instead of
        // taking the product again.
        let mut residuals = vec![self.compiled.fine_residual_norm(b, x, &mut ws)];
        let mut converged = residuals[0] <= rel_tol * bnorm;
        let mut iterations = 0;
        while !converged && iterations < max_cycles {
            self.compiled
                .cycle(&self.cycle, Start::Residual, b, x, &mut ws);
            iterations += 1;
            let r = self.compiled.fine_residual_norm(b, x, &mut ws);
            residuals.push(r);
            converged = r <= rel_tol * bnorm;
        }
        SolveStats {
            iterations,
            residuals,
            converged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_matrix::gen::{laplacian_2d_5pt, laplacian_2d_9pt, laplacian_3d_7pt};

    fn rhs(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 37) % 17) as f64 / 17.0 + 0.1)
            .collect()
    }

    #[test]
    fn amg_converges_on_2d_poisson() {
        let a = laplacian_2d_5pt::<f64>(30, 30);
        let n = a.rows();
        let solver = AmgSolver::new(a, &AmgConfig::default(), CycleConfig::default());
        let b = rhs(n);
        let mut x = vec![0.0; n];
        let stats = solver.solve(&b, &mut x, 1e-8, 60);
        assert!(stats.converged, "residuals: {:?}", stats.residuals);
        assert!(
            stats.convergence_factor() < 0.6,
            "slow convergence: {}",
            stats.convergence_factor()
        );
    }

    #[test]
    fn amg_converges_on_9pt_and_3d() {
        for a in [
            laplacian_2d_9pt::<f64>(24, 24),
            laplacian_3d_7pt::<f64>(9, 9, 9),
        ] {
            let n = a.rows();
            let solver = AmgSolver::new(a, &AmgConfig::default(), CycleConfig::default());
            let b = rhs(n);
            let mut x = vec![0.0; n];
            let stats = solver.solve(&b, &mut x, 1e-8, 80);
            assert!(stats.converged, "residuals: {:?}", stats.residuals);
        }
    }

    #[test]
    fn solution_is_actually_correct() {
        let a = laplacian_2d_5pt::<f64>(12, 12);
        let n = a.rows();
        let x_true: Vec<f64> = (0..n).map(|i| ((i % 7) as f64 - 3.0) * 0.25).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_true, &mut b).unwrap();
        let solver = AmgSolver::new(a, &AmgConfig::default(), CycleConfig::default());
        let mut x = vec![0.0; n];
        let stats = solver.solve(&b, &mut x, 1e-12, 100);
        assert!(stats.converged);
        let err: f64 = x
            .iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-8, "max error {err}");
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = laplacian_2d_5pt::<f64>(8, 8);
        let n = a.rows();
        let solver = AmgSolver::new(a, &AmgConfig::default(), CycleConfig::default());
        let b = vec![0.0; n];
        let mut x = vec![0.0; n];
        let stats = solver.solve(&b, &mut x, 1e-10, 10);
        assert!(stats.converged);
        assert_eq!(stats.iterations, 0);
    }

    /// `solve` returns the reference loop's `x` and iteration count, bit
    /// for bit (its convergence test reads the compiled operator, so the
    /// residual history is the reference's exactly where that operator
    /// is the plain CSR one).
    #[test]
    fn solve_matches_the_reference() {
        use crate::oracle::{
            cycle_configs, cycle_hierarchies, cycle_rhs, engine_for, same_bits, ReferenceCycle,
        };
        use smat_kernels::KernelLibrary;

        let plain_lib = KernelLibrary::new();
        let configs: Vec<CycleConfig> = cycle_configs()
            .into_iter()
            .filter(|c| c.pre_sweeps + c.post_sweeps == 2)
            .collect();
        for (name, h, format) in cycle_hierarchies() {
            let engine = engine_for(format);
            let n = h.levels[0].a.rows();
            let b = cycle_rhs(n);
            let x0: Vec<f64> = (0..n).map(|i| (i % 3) as f64 * 0.5).collect();
            for (operators, lib) in [("plain", &plain_lib), ("tuned", engine.library())] {
                for &cycle in &configs {
                    let compiled = if operators == "plain" {
                        CompiledHierarchy::plain(&h)
                    } else {
                        CompiledHierarchy::with_smat(&h, &engine)
                    };
                    let solver = AmgSolver {
                        hierarchy: h.clone(),
                        compiled,
                        cycle,
                    };
                    let (mut x, mut want) = (x0.clone(), x0.clone());
                    let got = solver.solve(&b, &mut x, 1e-8, 40);
                    let reference = ReferenceCycle {
                        hierarchy: &h,
                        h: solver.compiled(),
                        lib,
                    }
                    .solve(&cycle, &b, &mut want, 1e-8, 40);
                    let case = format!("{name}, {operators}, {cycle:?}");
                    assert_eq!(got.iterations, reference.iterations, "{case}");
                    assert_eq!(got.converged, reference.converged, "{case}");
                    assert!(same_bits(&x, &want), "{case}: other bits in x");
                    if operators == "plain" {
                        assert!(
                            same_bits(&got.residuals, &reference.residuals),
                            "{case}: other residuals"
                        );
                    }
                }
            }
        }
    }
}
