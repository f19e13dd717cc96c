//! `lib_amg`: the paper's Table 4 experiment. Two Laplacians (7-point
//! 40^3, 9-point 360^2) solved by Ruge–Stüben AMG V-cycles to 1e-8,
//! once with every level operator tuned through SMAT and once on plain
//! CSR.
//!
//! The same `prepare`/`spmv` as `lib_suite`, used differently: each
//! hierarchy has about a dozen operators, most of them small, re-tuned
//! on every set-up — so per-call dispatch overhead and `prepare` cost
//! dominate where `lib_suite` is bandwidth-bound. It is also the only
//! workload that enters the `amg` crate.
//!
//! One round, per problem, interleaved: clear the decision cache and
//! build the tuned solver (`AmgSolver::with_smat`: hierarchy plus
//! per-level tuning); solve; solve on the plain-CSR solver built in
//! set-up; a block of single V-cycles timed one by one.

use crate::common::{expected_decisions, throughput_engine, timed, Decisions};
use crate::harness::{Ctx, Summary, Workload};
use crate::inputs::{self, Input, SplitMix};
use crate::pinned::{pinned_model, Pinned};
use crate::probes;
use crate::stats::{geomean, percentile};
use crate::trace::Layer;
use smat::{DecisionPath, Smat};
use smat_amg::{
    setup, AmgConfig, AmgSolver, CompiledHierarchy, CycleConfig, OpApply, Workspace,
};
use smat_matrix::Csr;
use std::collections::BTreeMap;

const TOLERANCE: f64 = 1e-8;
const MAX_CYCLES: usize = 100;
const VCYCLE_CALLS: usize = 12;
/// Timed operations per problem per round, in script order: tuned
/// set-up, tuned solve, plain solve, the V-cycle block.
const OPERATIONS: usize = 3 + VCYCLE_CALLS;

struct Problem {
    input: Input,
    b: Vec<f64>,
    x: Vec<f64>,
    plain: AmgSolver<f64>,
}

pub struct LibAmg {
    pinned: Pinned,
    engine: Smat<f64>,
    problems: Vec<Problem>,
    gen_s: f64,
    /// Exact counts from the last round, for the per-layer report.
    cycles: usize,
    levels: usize,
    tune_cache_misses: u64,
    operator_complexity: f64,
}

/// `||b - A x|| / ||b||` by the plain CSR product.
fn relative_residual(a: &Csr<f64>, b: &[f64], x: &[f64]) -> f64 {
    let mut ax = vec![0.0; a.rows()];
    if a.spmv(x, &mut ax).is_err() {
        return f64::INFINITY;
    }
    let norm = |v: &mut dyn Iterator<Item = f64>| v.map(|e| e * e).sum::<f64>().sqrt();
    let r = norm(&mut b.iter().zip(&ax).map(|(b, ax)| b - ax));
    r / norm(&mut b.iter().copied()).max(f64::MIN_POSITIVE)
}

/// Tallies the decision of every operator of a tuned hierarchy and
/// returns how many left the `Predicted` path. A coarse operator can do
/// so legitimately — the rules predict a blocked format, its
/// conversion is refused for fill, execute-and-measure settles on CSR —
/// and the count is a property of the pinned state, so it is recorded
/// in the fixture and any other count is drift.
pub fn off_path_operators(solver: &AmgSolver<f64>, decisions: &mut Decisions) -> u64 {
    let mut off_path = 0;
    for level in &solver.compiled().levels {
        for op in [Some(&level.a), level.p.as_ref(), level.r.as_ref()] {
            if let Some(OpApply::Tuned(op)) = op {
                decisions.tally(op);
                if !matches!(op.decision(), DecisionPath::Predicted { .. }) {
                    off_path += 1;
                }
            }
        }
    }
    off_path
}

/// The fixture's `<problem> off_path <count>` line, 0 when absent.
fn expected_off_path(expected: &BTreeMap<String, (String, String)>, problem: &str) -> u64 {
    expected
        .get(problem)
        .filter(|(kind, _)| kind == "off_path")
        .and_then(|(_, count)| count.parse().ok())
        .unwrap_or(0)
}

impl Workload for LibAmg {
    const NAME: &'static str = "lib_amg";

    fn setup(ctx: &mut Ctx) -> Result<Self, String> {
        let pinned = pinned_model(ctx.scale)?;
        let engine = throughput_engine(&pinned.model)?;
        let (operators, gen_s) = timed(|| inputs::amg_problems(ctx.scale));
        let mut vectors = SplitMix::new(ctx.seed ^ 0xA36);
        let problems = operators
            .into_iter()
            .map(|input| {
                let n = input.matrix.rows();
                Problem {
                    b: vectors.vector(n),
                    x: vec![0.0; n],
                    plain: AmgSolver::new(
                        input.matrix.clone(),
                        &AmgConfig::default(),
                        CycleConfig::default(),
                    ),
                    input,
                }
            })
            .collect();
        Ok(LibAmg {
            pinned,
            engine,
            problems,
            gen_s,
            cycles: 0,
            levels: 0,
            tune_cache_misses: 0,
            operator_complexity: 0.0,
        })
    }

    fn check(&mut self, ctx: &mut Ctx) {
        let expected = expected_decisions().unwrap_or_default();
        let mut decisions = Decisions::default();
        for p in &mut self.problems {
            self.engine.clear_cache();
            let tuned = AmgSolver::with_smat(
                p.input.matrix.clone(),
                &AmgConfig::default(),
                CycleConfig::default(),
                &self.engine,
            );
            decisions.drift += off_path_operators(&tuned, &mut decisions)
                .abs_diff(expected_off_path(&expected, &p.input.name));
            for solver in [&tuned, &p.plain] {
                p.x.fill(0.0);
                let stats = solver.solve(&p.b, &mut p.x, TOLERANCE, MAX_CYCLES);
                let residual = relative_residual(&p.input.matrix, &p.b, &p.x);
                ctx.count(stats.converged && residual <= 10.0 * TOLERANCE);
            }
        }
        decisions.publish(ctx);
    }

    fn round(&mut self, ctx: &mut Ctx) -> Vec<f64> {
        let config = AmgConfig::default();
        let cycle = CycleConfig::default();
        let mut times = Vec::with_capacity(self.problems.len() * OPERATIONS);
        let mut complexity = Vec::new();
        (self.cycles, self.levels, self.tune_cache_misses) = (0, 0, 0);
        let mut workspace = Workspace::new();
        for p in &mut self.problems {
            ctx.tracer.next_request();
            let a = p.input.matrix.clone();
            self.engine.clear_cache();
            let open = ctx.tracer.begin(Layer::Amg, "with_smat");
            let (tuned, build) = timed(|| AmgSolver::with_smat(a, &config, cycle, &self.engine));
            ctx.tracer.end(open);
            ctx.count(tuned.setup_degraded_ops() == 0);

            p.x.fill(0.0);
            let open = ctx.tracer.begin(Layer::Amg, "solve");
            let (stats, solve) = timed(|| tuned.solve(&p.b, &mut p.x, TOLERANCE, MAX_CYCLES));
            ctx.tracer.end(open);
            ctx.count(stats.converged);

            p.x.fill(0.0);
            let open = ctx.tracer.begin(Layer::Amg, "solve_plain");
            let (plain_stats, plain) =
                timed(|| p.plain.solve(&p.b, &mut p.x, TOLERANCE, MAX_CYCLES));
            ctx.tracer.end(open);
            ctx.count(plain_stats.converged && plain_stats.iterations == stats.iterations);

            times.extend([build, solve, plain]);
            p.x.fill(0.0);
            for _ in 0..VCYCLE_CALLS {
                let open = ctx.tracer.begin(Layer::Amg, "v_cycle");
                let ((), t) =
                    timed(|| tuned.compiled().v_cycle(&cycle, &p.b, &mut p.x, &mut workspace));
                ctx.tracer.end(open);
                ctx.attempted += 1;
                times.push(t);
            }

            self.cycles += stats.iterations;
            self.levels += tuned.hierarchy().num_levels();
            self.tune_cache_misses += tuned.setup_tuning_stats().map_or(0, |s| s.misses);
            complexity.push(tuned.hierarchy().operator_complexity());

            // The two halves of `with_smat`, replayed apart so the
            // trace separates coarsening from per-level tuning.
            if ctx.tracer.enabled() {
                let a = p.input.matrix.clone();
                let replay = ctx.tracer.begin(Layer::Harness, "with_smat_replay");
                let hierarchy = ctx.tracer.span(Layer::Amg, "setup", || setup(a, &config));
                self.engine.clear_cache();
                ctx.tracer.span(Layer::Core, "compile_with_smat", || {
                    std::hint::black_box(CompiledHierarchy::with_smat(&hierarchy, &self.engine))
                });
                ctx.tracer.end(replay);
            }
        }
        self.operator_complexity = geomean(&complexity);
        times
    }

    fn summarize(&self, times: &[f64]) -> Summary {
        let (mut solution_s, mut timed_s) = (0.0, 0.0);
        let (mut p50, mut p90, mut speedup) = (Vec::new(), Vec::new(), Vec::new());
        for problem in times.chunks_exact(OPERATIONS) {
            let (build, solve, plain) = (problem[0], problem[1], problem[2]);
            let cycles = &problem[3..];
            solution_s += build + solve;
            timed_s += problem.iter().sum::<f64>();
            p50.push(percentile(cycles, 0.5) * 1e3);
            p90.push(percentile(cycles, 0.9) * 1e3);
            speedup.push(plain / solve);
        }
        Summary {
            time_to_solution_s: solution_s,
            latency_ms_p50: geomean(&p50),
            latency_ms_p90: geomean(&p90),
            throughput_rps: times.len() as f64 / timed_s,
            speedup_vs_ref: geomean(&speedup),
        }
    }

    fn probes(&mut self, ctx: &mut Ctx) {
        ctx.set("matrix.gen_s", self.gen_s);
        ctx.set("amg.cycles", self.cycles as f64);
        ctx.set("amg.levels", self.levels as f64);
        ctx.set("amg.tune_cache_misses", self.tune_cache_misses as f64);
        ctx.set("amg.operator_complexity", self.operator_complexity);
        probes::machine_probes(ctx, &self.pinned);

        let config = AmgConfig::default();
        let cycle = CycleConfig::default();
        let mut hierarchy_s = Vec::new();
        let mut compile_s = Vec::new();
        let mut tuned_cycle = Vec::new();
        let mut plain_cycle = Vec::new();
        let mut operators: Vec<Input> = Vec::new();
        let mut workspace = Workspace::new();
        for p in &mut self.problems {
            let (hierarchy, t) = timed(|| setup(p.input.matrix.clone(), &config));
            hierarchy_s.push(t);
            self.engine.clear_cache();
            let (compiled, t) = timed(|| CompiledHierarchy::with_smat(&hierarchy, &self.engine));
            compile_s.push(t);
            for (name, compiled, out) in [
                ("tuned", &compiled, &mut tuned_cycle),
                ("plain", p.plain.compiled(), &mut plain_cycle),
            ] {
                p.x.fill(0.0);
                let samples: Vec<f64> = (0..VCYCLE_CALLS)
                    .map(|_| timed(|| compiled.v_cycle(&cycle, &p.b, &mut p.x, &mut workspace)).1)
                    .collect();
                let _ = name;
                out.push(percentile(&samples, 0.5) * 1e3);
            }
            for (level, l) in hierarchy.levels.iter().enumerate() {
                operators.push(Input {
                    name: format!("{}_A{level}", p.input.name),
                    intended: None,
                    matrix: l.a.clone(),
                });
            }
        }
        ctx.set("amg.hierarchy_s", hierarchy_s.iter().sum());
        ctx.set("amg.compile_s", compile_s.iter().sum());
        ctx.set("amg.vcycle_ms", geomean(&tuned_cycle));
        ctx.set("amg.plain_vcycle_ms", geomean(&plain_cycle));
        // The level operators are this workload's matrices.
        let refs: Vec<&Input> = operators.iter().collect();
        probes::matrix_probes(ctx, &self.pinned, &refs);
    }

    fn teardown(self, _ctx: &mut Ctx) {}
}
