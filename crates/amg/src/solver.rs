//! Complete solvers: stand-alone AMG iteration, plain conjugate
//! gradients, and AMG-preconditioned CG (Hypre's standard usage: "AMG is
//! used as a preconditioner such as conjugate gradients").

use crate::cycle::{CompiledHierarchy, CycleConfig, Start, Workspace};
use crate::hierarchy::{setup, AmgConfig, Hierarchy};
use crate::relax::residual;
use smat::Smat;
use smat_matrix::utils::{axpy, dot, norm2, xpay};
use smat_matrix::{Csr, Scalar};

/// Convergence report of an iterative solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveStats {
    /// Iterations (V-cycles or CG steps) performed.
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

    /// AMG-preconditioned conjugate gradients: one V-cycle per
    /// application of the preconditioner.
    ///
    /// # Panics
    ///
    /// Panics on vector length mismatch.
    pub fn pcg(&self, b: &[T], x: &mut [T], rel_tol: f64, max_iters: usize) -> SolveStats {
        let n = self.compiled.levels[0].a.rows();
        assert_eq!(b.len(), n, "b length");
        assert_eq!(x.len(), n, "x length");
        let bnorm = norm2(b).to_f64().max(f64::MIN_POSITIVE);
        let mut ws = Workspace::new();

        // Every product with `A` goes through the compiled operator.
        let mut r = vec![T::ZERO; n];
        self.compiled.fine_residual(b, x, &mut r);
        let mut residuals = vec![norm2(&r).to_f64()];
        if residuals[0] <= rel_tol * bnorm {
            return SolveStats {
                iterations: 0,
                residuals,
                converged: true,
            };
        }
        // z = M^{-1} r via one V-cycle from zero.
        let mut z = vec![T::ZERO; n];
        self.compiled
            .cycle(&self.cycle, Start::Zero, &r, &mut z, &mut ws);
        let mut p = z.clone();
        let mut rz = dot(&r, &z);
        let mut ap = vec![T::ZERO; n];
        let mut converged = false;
        let mut iterations = 0;
        for _ in 0..max_iters {
            self.compiled.apply_fine(&p, &mut ap);
            let pap = dot(&p, &ap);
            if pap.to_f64().abs() < 1e-300 {
                break;
            }
            let alpha = rz / pap;
            axpy(alpha, &p, x);
            axpy(-alpha, &ap, &mut r);
            iterations += 1;
            let rn = norm2(&r).to_f64();
            residuals.push(rn);
            if rn <= rel_tol * bnorm {
                converged = true;
                break;
            }
            self.compiled
                .cycle(&self.cycle, Start::Zero, &r, &mut z, &mut ws);
            let rz_new = dot(&r, &z);
            let beta = rz_new / rz;
            rz = rz_new;
            xpay(&z, beta, &mut p);
        }
        SolveStats {
            iterations,
            residuals,
            converged,
        }
    }
}

/// Plain (unpreconditioned) conjugate gradients, for baselines.
///
/// # Panics
///
/// Panics on vector length mismatch or a non-square matrix.
pub fn cg<T: Scalar>(
    a: &Csr<T>,
    b: &[T],
    x: &mut [T],
    rel_tol: f64,
    max_iters: usize,
) -> SolveStats {
    assert_eq!(a.rows(), a.cols(), "cg needs a square matrix");
    let n = a.rows();
    assert_eq!(b.len(), n, "b length");
    assert_eq!(x.len(), n, "x length");
    let bnorm = norm2(b).to_f64().max(f64::MIN_POSITIVE);
    let mut r = vec![T::ZERO; n];
    residual(a, x, b, &mut r);
    let mut residuals = vec![norm2(&r).to_f64()];
    if residuals[0] <= rel_tol * bnorm {
        return SolveStats {
            iterations: 0,
            residuals,
            converged: true,
        };
    }
    let mut p = r.clone();
    let mut rr = dot(&r, &r);
    let mut ap = vec![T::ZERO; n];
    let mut converged = false;
    let mut iterations = 0;
    for _ in 0..max_iters {
        a.spmv(&p, &mut ap).expect("validated dimensions");
        let pap = dot(&p, &ap);
        if pap.to_f64().abs() < 1e-300 {
            break;
        }
        let alpha = rr / pap;
        axpy(alpha, &p, x);
        axpy(-alpha, &ap, &mut r);
        iterations += 1;
        let rn = norm2(&r).to_f64();
        residuals.push(rn);
        if rn <= rel_tol * bnorm {
            converged = true;
            break;
        }
        let rr_new = dot(&r, &r);
        let beta = rr_new / rr;
        rr = rr_new;
        xpay(&r, beta, &mut p);
    }
    SolveStats {
        iterations,
        residuals,
        converged,
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
    fn amg_beats_plain_cg_in_iterations() {
        let a = laplacian_2d_5pt::<f64>(32, 32);
        let n = a.rows();
        let b = rhs(n);
        let solver = AmgSolver::new(a.clone(), &AmgConfig::default(), CycleConfig::default());
        let mut x1 = vec![0.0; n];
        let amg_stats = solver.solve(&b, &mut x1, 1e-8, 100);
        let mut x2 = vec![0.0; n];
        let cg_stats = cg(&a, &b, &mut x2, 1e-8, 2000);
        assert!(amg_stats.converged && cg_stats.converged);
        assert!(
            amg_stats.iterations < cg_stats.iterations,
            "amg {} vs cg {}",
            amg_stats.iterations,
            cg_stats.iterations
        );
    }

    #[test]
    fn pcg_accelerates_amg() {
        let a = laplacian_2d_9pt::<f64>(28, 28);
        let n = a.rows();
        let b = rhs(n);
        let solver = AmgSolver::new(a, &AmgConfig::default(), CycleConfig::default());
        let mut x1 = vec![0.0; n];
        let amg_stats = solver.solve(&b, &mut x1, 1e-10, 200);
        let mut x2 = vec![0.0; n];
        let pcg_stats = solver.pcg(&b, &mut x2, 1e-10, 200);
        assert!(pcg_stats.converged);
        assert!(pcg_stats.iterations <= amg_stats.iterations);
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
