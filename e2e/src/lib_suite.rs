//! `lib_suite`: the paper's own experiment. Eight matrices larger than
//! the L2, one or two per storage format, driven through the library
//! interface only — kernels and the prepare pipeline do nearly all the
//! work, `service` and `amg` none.
//!
//! One round, per matrix, interleaved so every phase samples the whole
//! measured window:
//!
//! 1. cold `prepare` on a cache-cleared engine (`Predicted` path), then
//!    a block of `SPMV_CALLS` tuned `spmv` calls — the paper's
//!    amortisation view, tuning cost plus many multiplications;
//! 2. a forced execute-and-measure `prepare` on the measuring engine;
//! 3. `CACHED_PREPARES` `prepare` calls answered by the decision cache;
//! 4. a block of plain `Csr::spmv` calls — the reference the speed-up
//!    is taken against, timed in the same round so machine drift
//!    cancels;
//! 5. a block of `spmm` calls, k = 8, on the handle tuned in set-up.

use crate::common::{
    expected_decisions, measuring_engine, products_agree, reference_block, reference_product,
    spmm_block, throughput_engine, timed, Decisions,
};
use crate::harness::{Ctx, Summary, Workload};
use crate::inputs::{self, Input, SplitMix};
use crate::pinned::{pinned_model, Pinned};
use crate::probes;
use crate::stats::{geomean, percentile};
use crate::trace::Layer;
use smat::{Smat, TunedSpmv};

const SPMV_CALLS: usize = 60;
const REFERENCE_CALLS: usize = 12;
const CACHED_PREPARES: usize = 5;
const SPMM_CALLS: usize = 4;
pub const SPMM_K: usize = 8;
/// Timed operations per matrix per round, in script order: one cold
/// prepare, the spmv block, one forced prepare, the cached prepares,
/// the reference block, the spmm block.
const OPERATIONS: usize = 2 + SPMV_CALLS + CACHED_PREPARES + REFERENCE_CALLS + SPMM_CALLS;

struct Case {
    input: Input,
    x: Vec<f64>,
    y: Vec<f64>,
    x_block: Vec<f64>,
    y_block: Vec<f64>,
    /// Prepared in set-up, `spmm` pick already tuned.
    warm: TunedSpmv<f64>,
}

pub struct LibSuite {
    pinned: Pinned,
    engine: Smat<f64>,
    measuring: Smat<f64>,
    cases: Vec<Case>,
    gen_s: f64,
    spmm_tune_ms: f64,
}

impl Workload for LibSuite {
    const NAME: &'static str = "lib_suite";

    fn setup(ctx: &mut Ctx) -> Result<Self, String> {
        let pinned = pinned_model(ctx.scale)?;
        let engine = throughput_engine(&pinned.model)?;
        let measuring = measuring_engine(&pinned.model)?;
        let (suite, gen_s) = timed(|| inputs::suite(ctx.seed, ctx.scale));
        let mut vectors = SplitMix::new(ctx.seed ^ 0x0B5E);
        let mut spmm_tune = Vec::new();
        let mut cases = Vec::with_capacity(suite.len());
        for input in suite {
            let m = &input.matrix;
            let x = vectors.vector(m.cols());
            let x_block = spmm_block(&x, SPMM_K);
            let mut y_block = vec![0.0; m.rows() * SPMM_K];
            let warm = engine.prepare(m);
            // The first `spmm` on a handle tunes its multi-RHS pick.
            let ((), first) = timed(|| {
                engine
                    .spmm(&warm, &x_block, &mut y_block, SPMM_K)
                    .expect("block is sized to the matrix")
            });
            spmm_tune.push(first * 1e3);
            cases.push(Case {
                y: vec![0.0; m.rows()],
                x,
                x_block,
                y_block,
                warm,
                input,
            });
        }
        Ok(LibSuite {
            pinned,
            engine,
            measuring,
            cases,
            gen_s,
            spmm_tune_ms: geomean(&spmm_tune),
        })
    }

    fn check(&mut self, ctx: &mut Ctx) {
        let expected = expected_decisions().unwrap_or_default();
        let mut decisions = Decisions::default();
        for case in &mut self.cases {
            let m = &case.input.matrix;
            let want = reference_product(m, &case.x);
            for engine in [&self.engine, &self.measuring] {
                engine.clear_cache();
                let tuned = engine.prepare(m);
                let ok = engine.spmv(&tuned, &case.x, &mut case.y).is_ok();
                ctx.count(ok && products_agree(&case.y, &want));
                decisions.tally(&tuned);
            }
            // The throughput engine's decision is the pinned one; the
            // measuring engine is meant to leave the Predicted path.
            let cached = self.engine.prepare(m);
            decisions.tally(&cached);
            decisions.expect_pinned(&self.engine, &case.input, &cached, &expected);
            let ok = self
                .engine
                .spmm(&case.warm, &case.x_block, &mut case.y_block, SPMM_K)
                .is_ok();
            let want_block = reference_block(m, &case.x_block, SPMM_K);
            ctx.count(ok && products_agree(&case.y_block, &want_block));
        }
        decisions.publish(ctx);
    }

    fn round(&mut self, ctx: &mut Ctx) -> Vec<f64> {
        let mut times = Vec::with_capacity(self.cases.len() * OPERATIONS);
        for case in &mut self.cases {
            let m = &case.input.matrix;
            ctx.tracer.next_request();

            // 1. cold prepare + spmv block.
            self.engine.clear_cache();
            let open = ctx.tracer.begin(Layer::Core, "prepare_cold");
            let (tuned, cold) = timed(|| self.engine.prepare(m));
            ctx.tracer.end(open);
            times.push(cold);
            for _ in 0..SPMV_CALLS {
                let open = ctx.tracer.begin(Layer::Core, "spmv");
                let (result, t) = timed(|| self.engine.spmv(&tuned, &case.x, &mut case.y));
                ctx.tracer.end(open);
                ctx.count(result.is_ok());
                times.push(t);
            }

            // The stages of that prepare, replayed on the same input so
            // the trace shows where its time goes. Untimed: they are in
            // no end-to-end metric.
            probes::replay_prepare(ctx, &self.pinned, &self.engine, m, &tuned);

            // 2. forced execute-and-measure prepare.
            self.measuring.clear_cache();
            let open = ctx.tracer.begin(Layer::Core, "prepare_measured");
            let (measured, forced) = timed(|| self.measuring.prepare(m));
            ctx.tracer.end(open);
            ctx.count(!measured.decision().is_degraded());
            times.push(forced);

            // 3. decision-cache hits.
            for _ in 0..CACHED_PREPARES {
                let open = ctx.tracer.begin(Layer::Core, "prepare_cached");
                let (hit, t) = timed(|| self.engine.prepare(m));
                ctx.tracer.end(open);
                ctx.count(hit.decision().is_cached());
                times.push(t);
            }

            // 4. plain CSR reference block.
            for _ in 0..REFERENCE_CALLS {
                let open = ctx.tracer.begin(Layer::Matrix, "csr_spmv_reference");
                let (result, t) = timed(|| m.spmv(&case.x, &mut case.y));
                ctx.tracer.end(open);
                ctx.count(result.is_ok());
                times.push(t);
            }

            // 5. multi-RHS block on the warm handle.
            for _ in 0..SPMM_CALLS {
                let open = ctx.tracer.begin(Layer::Core, "spmm");
                let (result, t) = timed(|| {
                    self.engine
                        .spmm(&case.warm, &case.x_block, &mut case.y_block, SPMM_K)
                });
                ctx.tracer.end(open);
                ctx.count(result.is_ok());
                times.push(t);
            }
        }
        times
    }

    fn summarize(&self, times: &[f64]) -> Summary {
        let (mut solution_s, mut timed_s) = (0.0, 0.0);
        let (mut p50, mut p90, mut speedup) = (Vec::new(), Vec::new(), Vec::new());
        for matrix in times.chunks_exact(OPERATIONS) {
            let cold = matrix[0];
            let calls = &matrix[1..1 + SPMV_CALLS];
            let reference = &matrix[2 + SPMV_CALLS + CACHED_PREPARES..][..REFERENCE_CALLS];
            solution_s += cold + calls.iter().sum::<f64>();
            timed_s += matrix.iter().sum::<f64>();
            p50.push(percentile(calls, 0.5) * 1e3);
            p90.push(percentile(calls, 0.9) * 1e3);
            speedup.push(percentile(reference, 0.5) / percentile(calls, 0.5));
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
        ctx.set("core.spmm_tune_ms", self.spmm_tune_ms);
        let inputs: Vec<&Input> = self.cases.iter().map(|c| &c.input).collect();
        probes::machine_probes(ctx, &self.pinned);
        probes::matrix_probes(ctx, &self.pinned, &inputs);
    }

    fn teardown(self, _ctx: &mut Ctx) {}
}
