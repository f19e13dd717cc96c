//! V-cycle execution over a *compiled* hierarchy.
//!
//! Compiling a [`Hierarchy`] chooses, per operator (grid operators `A_l`
//! and transfer operators `P_l`/`R_l`), either the plain CSR kernel or a
//! SMAT-tuned format+kernel — this is exactly the paper's §7.4
//! integration, where "SMAT chooses DIA format for A-operators at the
//! first few levels, and ELL format for most P-operators" by replacing
//! SpMV calls with the SMAT interface.
//!
//! The cycle is a V-cycle smoothed by weighted Jacobi, so every product
//! with `A` is an SpMV through the level's one compiled operator. It
//! runs each product once. Level 0 works on the caller's `b` and `x`;
//! every level's residual `b - A x` is formed in place in one scratch
//! vector, which then takes the prolongated correction. A coarser level
//! is entered from zero, so its first Jacobi sweep needs no product, and
//! a solve hands the residual it took for its convergence test to the
//! next cycle's first Jacobi sweep. The iterates are bitwise those of
//! the cycle that ran every product (kept in `oracle.rs` and compared
//! there).

use crate::hierarchy::Hierarchy;
use crate::relax::{jacobi_from_zero, jacobi_step, JACOBI_OMEGA};
use serde::{Deserialize, Serialize};
use smat::{Smat, TunedSpmv};
use smat_kernels::KernelLibrary;
use smat_matrix::utils::norm2;
use smat_matrix::{Csr, Format, Scalar};

/// Parameters of the solve cycle: the weighted-Jacobi sweeps (damping
/// [`JACOBI_OMEGA`]) each level runs before and after its coarse-grid
/// correction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CycleConfig {
    /// Pre-smoothing sweeps.
    pub pre_sweeps: usize,
    /// Post-smoothing sweeps.
    pub post_sweeps: usize,
}

impl Default for CycleConfig {
    fn default() -> Self {
        Self {
            pre_sweeps: 1,
            post_sweeps: 1,
        }
    }
}

/// An operator ready for application: plain CSR or SMAT-tuned.
#[derive(Debug)]
pub enum OpApply<T> {
    /// Reference CSR SpMV.
    Plain(Csr<T>),
    /// SMAT-selected format and kernel.
    Tuned(Box<TunedSpmv<T>>),
}

impl<T: Scalar> OpApply<T> {
    /// Applies the operator: `y = Op * x`.
    ///
    /// # Panics
    ///
    /// Panics on vector length mismatch.
    pub fn apply(&self, lib: &KernelLibrary<T>, x: &[T], y: &mut [T]) {
        match self {
            OpApply::Plain(m) => m.spmv(x, y).expect("validated dimensions"),
            // Each compiled operator carries the plan built at prepare
            // time, so every smoothing sweep and transfer application in
            // every V-cycle replays frozen chunk bounds instead of
            // re-partitioning.
            OpApply::Tuned(t) => lib.run_planned(t.matrix(), t.kernel().variant, t.plan(), x, y),
        }
    }

    /// The storage format in use.
    pub fn format(&self) -> Format {
        match self {
            OpApply::Plain(_) => Format::Csr,
            OpApply::Tuned(t) => t.format(),
        }
    }

    /// Whether the tuner abandoned this operator to the degraded
    /// reference path (always `false` for plain operators).
    pub fn is_degraded(&self) -> bool {
        match self {
            OpApply::Plain(_) => false,
            OpApply::Tuned(t) => t.decision().is_degraded(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            OpApply::Plain(m) => m.rows(),
            OpApply::Tuned(t) => t.matrix().rows(),
        }
    }
}

/// Dense LU factorization (partial pivoting) for the coarsest solve.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLu<T> {
    n: usize,
    lu: Vec<T>,
    piv: Vec<usize>,
}

impl<T: Scalar> DenseLu<T> {
    /// Factors a (small) square CSR matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is singular to working precision or not
    /// square.
    pub fn factor(a: &Csr<T>) -> Self {
        assert_eq!(a.rows(), a.cols(), "dense LU needs a square matrix");
        let n = a.rows();
        let mut lu = a.to_dense();
        let mut piv: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Pivot.
            let mut p = k;
            let mut max = lu[k * n + k].abs();
            for i in k + 1..n {
                let v = lu[i * n + k].abs();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            assert!(
                max.to_f64() > 1e-300,
                "singular coarse operator at column {k}"
            );
            if p != k {
                for j in 0..n {
                    lu.swap(k * n + j, p * n + j);
                }
                piv.swap(k, p);
            }
            let pivot = lu[k * n + k];
            for i in k + 1..n {
                let factor = lu[i * n + k] / pivot;
                lu[i * n + k] = factor;
                for j in k + 1..n {
                    let sub = factor * lu[k * n + j];
                    lu[i * n + j] -= sub;
                }
            }
        }
        Self { n, lu, piv }
    }

    /// Solves `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn solve(&self, b: &[T], x: &mut [T]) {
        assert_eq!(b.len(), self.n, "b length");
        assert_eq!(x.len(), self.n, "x length");
        let n = self.n;
        // Permute and forward substitute.
        for i in 0..n {
            x[i] = b[self.piv[i]];
        }
        for i in 0..n {
            for j in 0..i {
                let sub = self.lu[i * n + j] * x[j];
                x[i] -= sub;
            }
        }
        // Back substitute.
        for i in (0..n).rev() {
            for j in i + 1..n {
                let sub = self.lu[i * n + j] * x[j];
                x[i] -= sub;
            }
            x[i] /= self.lu[i * n + i];
        }
    }
}

/// One compiled level.
#[derive(Debug)]
pub struct CompiledLevel<T> {
    /// The grid operator, possibly tuned. Every product with `A` — Jacobi
    /// sweeps, cycle residuals, a solve's convergence test — runs through
    /// it.
    pub a: OpApply<T>,
    /// Diagonal of `A` (for Jacobi).
    pub diag: Vec<T>,
    /// Prolongation, possibly tuned (`None` on the coarsest level).
    pub p: Option<OpApply<T>>,
    /// Restriction, possibly tuned.
    pub r: Option<OpApply<T>>,
    /// The first row of `diag` that is zero, found once at compile time:
    /// a Jacobi sweep on this level panics with it instead of testing
    /// every row.
    zero_diagonal: Option<usize>,
}

impl<T: Scalar> CompiledLevel<T> {
    /// `r = b - A x`: the product written into `r`, then subtracted from
    /// `b` in place.
    fn residual(&self, lib: &KernelLibrary<T>, b: &[T], x: &[T], r: &mut [T]) {
        self.a.apply(lib, x, r);
        for (ri, &bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
    }
}

/// What a level's iterate holds when its part of a cycle starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Start {
    /// Zero, not yet written: a coarser level's visit.
    Zero,
    /// An iterate whose product with `A` has not been taken.
    Guess,
    /// An iterate whose residual `b - A x` is already in the level's
    /// scratch vector.
    Residual,
}

/// One level's vectors during a cycle: its right-hand side, its iterate
/// and the scratch vector that holds first its residual, then its
/// prolongated correction.
struct Vectors<'a, T> {
    b: &'a [T],
    x: &'a mut [T],
    r: &'a mut [T],
}

/// A hierarchy compiled for execution: operators bound to kernels, the
/// coarsest level factored densely.
#[derive(Debug)]
pub struct CompiledHierarchy<T: Scalar> {
    /// Compiled levels, finest first.
    pub levels: Vec<CompiledLevel<T>>,
    /// Dense factorization of the coarsest operator.
    pub coarse_lu: DenseLu<T>,
    lib: KernelLibrary<T>,
    tuning: Option<smat::CacheStats>,
}

impl<T: Scalar> CompiledHierarchy<T> {
    /// Compiles a hierarchy with plain CSR operators everywhere — the
    /// baseline "Hypre AMG" configuration of Table 4.
    pub fn plain(h: &Hierarchy<T>) -> Self {
        Self::compile(h, None)
    }

    /// Compiles a hierarchy with every operator tuned through SMAT — the
    /// "SMAT AMG" configuration of Table 4. Operators keep CSR when the
    /// tuner decides CSR is best.
    pub fn with_smat(h: &Hierarchy<T>, engine: &Smat<T>) -> Self {
        Self::compile(h, Some(engine))
    }

    fn compile(h: &Hierarchy<T>, engine: Option<&Smat<T>>) -> Self {
        let before = engine.map(|e| e.cache_stats());
        let tune = |m: &Csr<T>| -> OpApply<T> {
            match engine {
                Some(e) => OpApply::Tuned(Box::new(e.prepare(m))),
                None => OpApply::Plain(m.clone()),
            }
        };
        let levels: Vec<CompiledLevel<T>> = h
            .levels
            .iter()
            .map(|l| {
                let diag = l.a.diagonal();
                CompiledLevel {
                    a: tune(&l.a),
                    zero_diagonal: diag.iter().position(|&d| d == T::ZERO),
                    diag,
                    p: l.p.as_ref().map(&tune),
                    r: l.r.as_ref().map(&tune),
                }
            })
            .collect();
        let coarse_lu = DenseLu::factor(&h.levels.last().expect("non-empty hierarchy").a);
        let tuning = engine
            .zip(before)
            .map(|(e, before)| e.cache_stats().since(&before));
        // Tuned operators name their kernel by index into the tuning
        // engine's table (which may hold registered variants), so the
        // cycle replays them through a copy of that table.
        let lib = engine.map_or_else(KernelLibrary::new, |e| e.library().clone());
        Self {
            levels,
            coarse_lu,
            lib,
            tuning,
        }
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The formats chosen for each level's `A` operator (Figure 1's
    /// per-level story).
    pub fn a_formats(&self) -> Vec<Format> {
        self.levels.iter().map(|l| l.a.format()).collect()
    }

    /// Tuning-cache traffic of this compile (hits/misses/latency across
    /// every `prepare` call on grid and transfer operators). `None` for
    /// a plain (untuned) hierarchy.
    pub fn tuning_stats(&self) -> Option<&smat::CacheStats> {
        self.tuning.as_ref()
    }

    /// Per-level count of operators (`A`, `P`, `R`) the tuner degraded
    /// to the reference CSR path during this setup — the V-cycle keeps
    /// running on such operators, just untuned, so a nonzero count here
    /// is the observable trace of a fault-tolerant (rather than failed)
    /// setup.
    pub fn degraded_ops_per_level(&self) -> Vec<usize> {
        self.levels
            .iter()
            .map(|l| {
                usize::from(l.a.is_degraded())
                    + l.p.as_ref().map_or(0, |op| usize::from(op.is_degraded()))
                    + l.r.as_ref().map_or(0, |op| usize::from(op.is_degraded()))
            })
            .collect()
    }

    /// Total operators degraded across every level (see
    /// [`Self::degraded_ops_per_level`]).
    pub fn degraded_ops(&self) -> usize {
        self.degraded_ops_per_level().iter().sum()
    }

    /// Runs one V-cycle on the finest level: improves `x` toward
    /// `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b`/`x` lengths do not match the finest operator.
    pub fn v_cycle(&self, cfg: &CycleConfig, b: &[T], x: &mut [T], ws: &mut Workspace<T>) {
        self.cycle(cfg, Start::Guess, b, x, ws);
    }

    /// [`Self::v_cycle`] from a stated start: `Start::Zero` writes `x`
    /// without reading it, and `Start::Residual` takes `b - A x` from
    /// the workspace, where [`Self::fine_residual_norm`] left it.
    pub(crate) fn cycle(
        &self,
        cfg: &CycleConfig,
        start: Start,
        b: &[T],
        x: &mut [T],
        ws: &mut Workspace<T>,
    ) {
        assert_eq!(b.len(), self.levels[0].a.rows(), "b length");
        assert_eq!(x.len(), b.len(), "x length");
        ws.ensure(self);
        let fine = Vectors {
            b,
            x,
            r: &mut ws.fine,
        };
        self.cycle_level(0, cfg, start, fine, &mut ws.coarse);
    }

    /// Runs `sweeps` smoothing sweeps on level `level` and returns what
    /// its iterate holds afterwards.
    fn smooth(&self, level: usize, sweeps: usize, start: Start, v: &mut Vectors<'_, T>) -> Start {
        let l = &self.levels[level];
        if sweeps == 0 {
            if start == Start::Zero {
                v.x.fill(T::ZERO);
                return Start::Guess;
            }
            return start;
        }
        if let Some(row) = l.zero_diagonal {
            panic!("zero diagonal at row {row}");
        }
        let w = T::from_f64(JACOBI_OMEGA);
        match start {
            Start::Zero => jacobi_from_zero(&l.diag, w, v.b, v.x),
            Start::Residual => jacobi_step(&l.diag, w, v.r, v.x),
            Start::Guess => {
                l.residual(&self.lib, v.b, v.x, v.r);
                jacobi_step(&l.diag, w, v.r, v.x);
            }
        }
        for _ in 1..sweeps {
            l.residual(&self.lib, v.b, v.x, v.r);
            jacobi_step(&l.diag, w, v.r, v.x);
        }
        Start::Guess
    }

    fn cycle_level(
        &self,
        level: usize,
        cfg: &CycleConfig,
        start: Start,
        mut v: Vectors<'_, T>,
        coarser: &mut [Coarse<T>],
    ) {
        if level + 1 == self.levels.len() {
            // The factorization writes every entry of `x`.
            self.coarse_lu.solve(v.b, v.x);
            return;
        }
        let l = &self.levels[level];
        if self.smooth(level, cfg.pre_sweeps, start, &mut v) != Start::Residual {
            l.residual(&self.lib, v.b, v.x, v.r);
        }
        let (next, deeper) = coarser.split_first_mut().expect("non-coarsest level");
        let r_op = l.r.as_ref().expect("non-coarsest level");
        r_op.apply(&self.lib, v.r, &mut next.b);
        self.cycle_level(level + 1, cfg, Start::Zero, next.vectors(), deeper);
        // Prolongate into the scratch vector and correct.
        let p_op = l.p.as_ref().expect("non-coarsest level");
        p_op.apply(&self.lib, &next.x, v.r);
        for (xi, &ci) in v.x.iter_mut().zip(v.r.iter()) {
            *xi += ci;
        }
        self.smooth(level, cfg.post_sweeps, Start::Guess, &mut v);
    }

    /// `r = b - A x` on the finest level, through the compiled operator.
    ///
    /// # Panics
    ///
    /// Panics on vector length mismatch.
    pub(crate) fn fine_residual(&self, b: &[T], x: &[T], r: &mut [T]) {
        assert_eq!(b.len(), r.len(), "b length");
        self.levels[0].residual(&self.lib, b, x, r);
    }

    /// `||b - A x||` on the finest level, with `b - A x` left in the
    /// workspace for a cycle that starts from `Start::Residual`.
    pub(crate) fn fine_residual_norm(&self, b: &[T], x: &[T], ws: &mut Workspace<T>) -> f64 {
        ws.ensure(self);
        self.fine_residual(b, x, &mut ws.fine);
        norm2(&ws.fine).to_f64()
    }

    /// Computes the finest-level residual norm `||b - A x||`, through the
    /// compiled operator.
    pub fn residual_norm(&self, b: &[T], x: &[T]) -> f64 {
        let mut r = vec![T::ZERO; b.len()];
        self.fine_residual(b, x, &mut r);
        norm2(&r).to_f64()
    }
}

/// Reusable per-level vectors for cycling (avoids per-cycle allocation).
/// Level 0's `b` and `x` are the caller's; the workspace holds its
/// scratch vector and every coarser level's three vectors.
#[derive(Debug, Default)]
pub struct Workspace<T> {
    fine: Vec<T>,
    coarse: Vec<Coarse<T>>,
}

/// A coarser level's right-hand side, iterate and scratch vector.
#[derive(Debug)]
struct Coarse<T> {
    b: Vec<T>,
    x: Vec<T>,
    r: Vec<T>,
}

impl<T> Coarse<T> {
    fn vectors(&mut self) -> Vectors<'_, T> {
        Vectors {
            b: &self.b,
            x: &mut self.x,
            r: &mut self.r,
        }
    }
}

impl<T: Scalar> Workspace<T> {
    /// Creates an empty workspace; it sizes itself on first use.
    pub fn new() -> Self {
        Self {
            fine: Vec::new(),
            coarse: Vec::new(),
        }
    }

    fn ensure(&mut self, h: &CompiledHierarchy<T>) {
        let (first, rest) = h.levels.split_first().expect("non-empty hierarchy");
        if self.fine.len() == first.a.rows()
            && self.coarse.len() == rest.len()
            && self
                .coarse
                .iter()
                .zip(rest)
                .all(|(v, l)| v.x.len() == l.a.rows())
        {
            return;
        }
        self.fine = vec![T::ZERO; first.a.rows()];
        self.coarse = rest
            .iter()
            .map(|l| {
                let n = l.a.rows();
                Coarse {
                    b: vec![T::ZERO; n],
                    x: vec![T::ZERO; n],
                    r: vec![T::ZERO; n],
                }
            })
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{setup, AmgConfig};
    use smat_matrix::gen::laplacian_2d_5pt;

    #[test]
    fn dense_lu_solves_small_systems() {
        let a = Csr::<f64>::from_triplets(
            3,
            3,
            &[
                (0, 0, 4.0),
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 1, 3.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 2, 2.0),
            ],
        )
        .unwrap();
        let lu = DenseLu::factor(&a);
        let x_true = [1.0, -2.0, 3.0];
        let mut b = [0.0; 3];
        a.spmv(&x_true, &mut b).unwrap();
        let mut x = [0.0; 3];
        lu.solve(&b, &mut x);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn dense_lu_handles_pivoting() {
        // Zero in the (0,0) position forces a row swap.
        let a = Csr::<f64>::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 2.0), (1, 1, 1.0)]).unwrap();
        let lu = DenseLu::factor(&a);
        let mut x = [0.0; 2];
        lu.solve(&[3.0, 5.0], &mut x);
        // x1 = 3; 2*x0 + x1 = 5 -> x0 = 1.
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn v_cycle_reduces_residual_fast() {
        let a = laplacian_2d_5pt::<f64>(24, 24);
        let n = a.rows();
        let h = setup(a, &AmgConfig::default());
        let c = CompiledHierarchy::plain(&h);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let mut ws = Workspace::new();
        let cfg = CycleConfig::default();
        let r0 = c.residual_norm(&b, &x);
        c.v_cycle(&cfg, &b, &mut x, &mut ws);
        let r1 = c.residual_norm(&b, &x);
        c.v_cycle(&cfg, &b, &mut x, &mut ws);
        let r2 = c.residual_norm(&b, &x);
        assert!(r1 < 0.5 * r0, "first cycle too weak: {r0} -> {r1}");
        assert!(r2 < 0.5 * r1, "second cycle too weak: {r1} -> {r2}");
    }

    #[test]
    fn plain_formats_are_all_csr() {
        let a = laplacian_2d_5pt::<f64>(12, 12);
        let h = setup(a, &AmgConfig::default());
        let c = CompiledHierarchy::plain(&h);
        assert!(c.a_formats().iter().all(|&f| f == Format::Csr));
        assert_eq!(c.degraded_ops(), 0, "plain compiles never degrade");
    }

    #[test]
    fn degraded_operators_are_counted_and_cycles_still_converge() {
        use smat::{SmatConfig, Trainer};
        use smat_matrix::gen::{random_uniform, tridiagonal};

        let t1 = tridiagonal::<f64>(300);
        let t2 = random_uniform::<f64>(250, 250, 6, 1);
        let out = Trainer::new(SmatConfig::fast()).train(&[&t1, &t2]).unwrap();

        // Healthy engine: no operator degrades.
        let healthy =
            smat::Smat::<f64>::with_config(out.model.clone(), SmatConfig::fast()).unwrap();
        let a = laplacian_2d_5pt::<f64>(16, 16);
        let h = setup(a.clone(), &AmgConfig::default());
        let c = CompiledHierarchy::with_smat(&h, &healthy);
        assert_eq!(c.degraded_ops(), 0);
        assert_eq!(c.degraded_ops_per_level().len(), c.num_levels());

        // Sabotaged engine: its only fallback candidate (CSR) runs a
        // panicking kernel, so every prepare degrades — but setup
        // completes and the V-cycle still reduces the residual through
        // the reference path.
        fn bad_csr(_: &smat_matrix::AnyMatrix<f64>, _: &[f64], _: &mut [f64]) {
            panic!("sabotaged kernel");
        }
        let bad_variant = KernelLibrary::<f64>::new().variant_count(Format::Csr);
        let mut model = out.model;
        model.kernel_choice.set(Format::Csr, bad_variant);
        // No rule groups: a low-confidence rule match would join the
        // candidate set, and CSR must be the only candidate here.
        model.groups.groups.clear();
        let cfg = SmatConfig {
            confidence_threshold: 1.1, // no prediction is ever trusted
            fallback_formats: vec![Format::Csr],
            ..SmatConfig::fast()
        };
        let mut sabotaged = smat::Smat::<f64>::with_config(model, cfg).unwrap();
        sabotaged.library_mut().register(
            Format::Csr,
            "csr_sabotaged",
            smat_kernels::StrategySet::default(),
            bad_csr,
        );
        let c = CompiledHierarchy::with_smat(&h, &sabotaged);
        let total_ops: usize = c
            .levels
            .iter()
            .map(|l| 1 + usize::from(l.p.is_some()) + usize::from(l.r.is_some()))
            .sum();
        assert_eq!(c.degraded_ops(), total_ops, "every operator degrades");
        assert!(c.degraded_ops_per_level().iter().all(|&n| n >= 1));
        let n = a.rows();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let mut ws = Workspace::new();
        let cfg = CycleConfig::default();
        let r0 = c.residual_norm(&b, &x);
        c.v_cycle(&cfg, &b, &mut x, &mut ws);
        let r1 = c.residual_norm(&b, &x);
        assert!(r1 < 0.5 * r0, "degraded cycle too weak: {r0} -> {r1}");
    }
    /// An engine whose every decision is CSR run by `f`, registered on
    /// its library under `name`, and `f`'s id.
    fn engine_running(
        name: &'static str,
        f: smat_kernels::KernelFn<f64>,
    ) -> (smat::Smat<f64>, smat_kernels::KernelId) {
        let csr_only = crate::oracle::engine_for(Format::Csr);
        let mut model = csr_only.model().clone();
        let registered = KernelLibrary::<f64>::new().variant_count(Format::Csr);
        model.kernel_choice.set(Format::Csr, registered);
        let mut engine = smat::Smat::with_config(model, csr_only.config().clone()).unwrap();
        let id = engine.library_mut().register(
            Format::Csr,
            name,
            smat_kernels::StrategySet::default(),
            f,
        );
        assert_eq!(id.variant, registered);
        (engine, id)
    }

    /// A variant registered on the engine's library and chosen by its
    /// model must be the kernel the V-cycle replays: the compiled
    /// hierarchy dispatches through the tuning engine's table, where
    /// the variant's index means something.
    #[test]
    fn registered_kernel_chosen_by_the_model_runs_inside_the_v_cycle() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        static CALLS: AtomicUsize = AtomicUsize::new(0);
        fn counting_csr(m: &smat_matrix::AnyMatrix<f64>, x: &[f64], y: &mut [f64]) {
            CALLS.fetch_add(1, Ordering::Relaxed);
            m.spmv(x, y).expect("sized vectors");
        }
        let (engine, id) = engine_running("csr_counting", counting_csr);

        let a = laplacian_2d_5pt::<f64>(16, 16);
        let n = a.rows();
        let c = CompiledHierarchy::with_smat(&setup(a, &AmgConfig::default()), &engine);
        assert_eq!(c.degraded_ops(), 0, "the registered kernel is healthy");
        assert!(c.levels.iter().all(|l| match &l.a {
            OpApply::Tuned(t) => t.kernel() == id,
            OpApply::Plain(_) => false,
        }));

        let tuning_calls = CALLS.load(Ordering::Relaxed);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let mut ws = Workspace::new();
        let r0 = c.residual_norm(&b, &x);
        c.v_cycle(&CycleConfig::default(), &b, &mut x, &mut ws);
        let r1 = c.residual_norm(&b, &x);
        assert!(r1 < 0.5 * r0, "cycle too weak: {r0} -> {r1}");
        assert!(
            CALLS.load(Ordering::Relaxed) > tuning_calls,
            "the V-cycle must run the registered kernel"
        );
    }

    /// Each product of a Jacobi V-cycle runs once: level 0's `A` for the
    /// pre-sweep, the residual and the post-sweep; every coarser
    /// non-coarsest `A` twice (its first sweep starts from zero); each
    /// transfer once. A `k`-cycle solve adds one level-0 product per
    /// cycle, its convergence test, whose residual the next pre-sweep
    /// reuses: `1 + 3k` in all.
    #[test]
    fn each_product_runs_once_per_cycle_and_once_per_convergence_test() {
        use crate::solver::AmgSolver;
        use std::collections::BTreeMap;
        use std::sync::Mutex;

        type Counts = BTreeMap<(usize, usize), usize>;
        static CALLS: Mutex<Counts> = Mutex::new(BTreeMap::new());
        fn counting_csr(m: &smat_matrix::AnyMatrix<f64>, x: &[f64], y: &mut [f64]) {
            *CALLS
                .lock()
                .unwrap()
                .entry((m.rows(), m.cols()))
                .or_default() += 1;
            m.spmv(x, y).expect("sized vectors");
        }
        fn since(before: &Counts) -> Counts {
            let mut delta = CALLS.lock().unwrap().clone();
            for (shape, n) in delta.iter_mut() {
                *n -= before.get(shape).copied().unwrap_or(0);
            }
            delta.retain(|_, n| *n > 0);
            delta
        }
        let (engine, id) = engine_running("csr_counting_by_shape", counting_csr);

        let a = laplacian_2d_5pt::<f64>(24, 24);
        let n = a.rows();
        let cycle = CycleConfig::default();
        let solver = AmgSolver::with_smat(a, &AmgConfig::default(), cycle, &engine);
        let c = solver.compiled();
        assert!(c.num_levels() >= 4, "the count must cross coarser levels");
        for l in &c.levels {
            for op in [Some(&l.a), l.p.as_ref(), l.r.as_ref()]
                .into_iter()
                .flatten()
            {
                assert!(matches!(op, OpApply::Tuned(t) if t.kernel() == id));
            }
        }
        // Per cycle: every non-coarsest level's `A`, `P` and `R`.
        let mut per_cycle = Counts::new();
        for (level, pair) in c.levels.windows(2).enumerate() {
            let (rows, coarse) = (pair[0].a.rows(), pair[1].a.rows());
            per_cycle.insert((rows, rows), if level == 0 { 3 } else { 2 });
            per_cycle.insert((rows, coarse), 1);
            per_cycle.insert((coarse, rows), 1);
        }

        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let mut ws = Workspace::new();
        let before = CALLS.lock().unwrap().clone();
        c.v_cycle(&cycle, &b, &mut x, &mut ws);
        assert_eq!(since(&before), per_cycle, "one V-cycle");

        x.fill(0.0);
        let before = CALLS.lock().unwrap().clone();
        let stats = solver.solve(&b, &mut x, 1e-8, 100);
        assert!(stats.converged);
        let k = stats.iterations;
        let mut want: Counts = per_cycle.iter().map(|(&s, &m)| (s, m * k)).collect();
        want.insert((n, n), 1 + 3 * k);
        assert_eq!(since(&before), want, "a {k}-cycle solve");
    }

    /// The cycle's iterates are the reference cycle's, bit for bit, after each of
    /// three cycles: 0–2 sweeps each side, plain and tuned operators, on
    /// each oracle hierarchy.
    #[test]
    fn cycles_match_the_reference_bit_for_bit() {
        use crate::oracle::{
            cycle_configs, cycle_hierarchies, cycle_rhs, engine_for, same_bits, ReferenceCycle,
            ReferenceWorkspace,
        };

        let plain_lib = KernelLibrary::new();
        for (name, h, format) in cycle_hierarchies() {
            let engine = engine_for(format);
            let n = h.levels[0].a.rows();
            let b = cycle_rhs(n);
            let x0: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 0.25 - 0.5).collect();
            for (operators, c, lib) in [
                ("plain", CompiledHierarchy::plain(&h), &plain_lib),
                (
                    "tuned",
                    CompiledHierarchy::with_smat(&h, &engine),
                    engine.library(),
                ),
            ] {
                let reference = ReferenceCycle {
                    hierarchy: &h,
                    h: &c,
                    lib,
                };
                for cfg in cycle_configs() {
                    let (mut x, mut want) = (x0.clone(), x0.clone());
                    let mut ws = Workspace::new();
                    let mut reference_ws = ReferenceWorkspace::default();
                    for cycle in 1..=3 {
                        c.v_cycle(&cfg, &b, &mut x, &mut ws);
                        reference.v_cycle(&cfg, &b, &mut want, &mut reference_ws);
                        assert!(
                            same_bits(&x, &want),
                            "{name}, {operators} {:?}, {cfg:?}: cycle {cycle} left other bits",
                            c.a_formats()
                        );
                    }
                }
            }
        }
    }
}
