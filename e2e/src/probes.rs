//! Layer probes of the traced run: each layer is measured from
//! outside, by timing calls into its public functions on the
//! workload's own inputs. Counts come from the program's own counters.
//!
//! Probes run after the last round, so nothing here is in an
//! end-to-end metric.

use crate::common::{measuring_engine, spmm_block, throughput_engine, timed};
use crate::harness::Ctx;
use crate::inputs::{Input, Scale, SplitMix};
use crate::pinned::{parse_kernel_choice, Pinned, KERNEL_CHOICE_FIXTURE};
use crate::stats::{geomean, percentile};
use crate::trace::Layer;
use smat::{measure_formats, HandleRegistry, Smat, SmatConfig, Trainer, TunedSpmv};
use smat_features::extract_features;
use smat_kernels::{exec, KernelLibrary};
use smat_matrix::gen::random_uniform;
use smat_matrix::{AnyMatrix, Csr, Format};
use std::time::{Duration, Instant};

/// Median seconds of `reps` runs of `f`.
fn median_s<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let (out, t) = timed(&mut f);
            std::hint::black_box(out);
            t
        })
        .collect();
    percentile(&samples, 0.5)
}

/// Seconds per call of `f`, from one timing of `calls` back-to-back
/// calls (for operations too short to time one at a time).
fn per_call_s<R>(calls: usize, mut f: impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    for _ in 0..calls {
        std::hint::black_box(f());
    }
    t0.elapsed().as_secs_f64() / calls as f64
}

/// Values stored by a converted matrix (fill included) and the bytes
/// of its index and value arrays: the computed traffic of one `spmv`
/// that reads the matrix once.
pub fn stored(any: &AnyMatrix<f64>) -> (usize, usize) {
    const W: usize = 8; // f64 and usize alike
    match any {
        AnyMatrix::Csr(m) => (m.nnz(), W * (2 * m.nnz() + m.rows() + 1)),
        AnyMatrix::Coo(m) => (m.nnz(), W * 3 * m.nnz()),
        AnyMatrix::Dia(m) => (m.data().len(), W * (m.data().len() + m.offsets().len())),
        AnyMatrix::Ell(m) => (m.data().len(), W * (m.data().len() + m.indices().len())),
        AnyMatrix::Hyb(m) => {
            let ell = m.ell_part();
            let coo = m.coo_part();
            (
                ell.data().len() + coo.nnz(),
                W * (ell.data().len() + ell.indices().len() + 3 * coo.nnz()),
            )
        }
        AnyMatrix::Bcsr2(m) | AnyMatrix::Bcsr4(m) => (
            m.values().len(),
            W * (m.values().len() + m.block_col().len() + m.block_ptr().len()),
        ),
    }
}

/// Replays the stages of one `prepare` on the same input, one span per
/// layer entered, so a traced round shows where tuning time goes.
/// Untimed for the end-to-end metrics.
pub fn replay_prepare(ctx: &mut Ctx, pinned: &Pinned, engine: &Smat<f64>, m: &Csr<f64>, tuned: &TunedSpmv<f64>) {
    if !ctx.tracer.enabled() {
        return;
    }
    let replay = ctx.tracer.begin(Layer::Harness, "prepare_replay");
    ctx.tracer
        .span(Layer::Matrix, "fingerprint", || std::hint::black_box(m.fingerprint()));
    let features = ctx
        .tracer
        .span(Layer::Features, "extract_features", || extract_features(m));
    ctx.tracer.span(Layer::Learn, "predict", || {
        std::hint::black_box(pinned.model.predict(&features))
    });
    let converted = ctx.tracer.span(Layer::Matrix, "convert", || {
        AnyMatrix::convert_from_csr(m, tuned.format())
    });
    if let Ok(converted) = converted {
        ctx.tracer.span(Layer::Kernels, "plan_for", || {
            std::hint::black_box(engine.library().plan_for(&converted, tuned.kernel()))
        });
    }
    ctx.tracer.end(replay);
}

/// Probes every layer a matrix passes through, on the workload's own
/// matrices: assembly, fingerprint, features, prediction, the three
/// kinds of `prepare`, conversion, planning, the planned kernel, the
/// engine's `spmv`/`spmm`, and the regret of the pinned decision
/// against the exhaustively measured best format. Times are medians of
/// a few repetitions; values across matrices combine by geometric mean.
pub fn matrix_probes(ctx: &mut Ctx, pinned: &Pinned, inputs: &[&Input]) {
    const REPS: usize = 3;
    const K: usize = 8;
    let Ok(engine) = throughput_engine(&pinned.model) else {
        return;
    };
    let Ok(measuring) = measuring_engine(&pinned.model) else {
        return;
    };
    let lib = KernelLibrary::<f64>::new();
    let triad = ctx.layer.get("kernels.stream_triad_gbs").copied().unwrap_or(0.0);

    let mut from_triplets = Vec::new();
    let mut fingerprint = Vec::new();
    let mut extract = Vec::new();
    let mut extract_per_nnz = Vec::new();
    let mut predict = Vec::new();
    let mut cold = Vec::new();
    let mut forced = Vec::new();
    let mut cached = Vec::new();
    let mut convert = Vec::new();
    let mut plan = Vec::new();
    let mut kernel_gflops = Vec::new();
    let mut kernel_gbs = Vec::new();
    let mut by_format: [Vec<f64>; Format::COUNT] = Default::default();
    let mut engine_gflops = Vec::new();
    let mut spmm_gflops = Vec::new();
    let mut regret = Vec::new();
    let (mut stored_values, mut nnz_total) = (0usize, 0usize);
    let (mut dispatches, mut dispatch_calls) = (0u64, 0u64);
    let mut vectors = SplitMix::new(ctx.seed ^ 0x9806);

    for input in inputs {
        let m = &input.matrix;
        let nnz = m.nnz().max(1);
        let triplets: Vec<(usize, usize, f64)> = m.iter().collect();
        from_triplets.push(median_s(REPS, || {
            Csr::from_triplets(m.rows(), m.cols(), &triplets)
        }));
        fingerprint.push(median_s(REPS, || m.fingerprint()));
        let t = median_s(REPS, || extract_features(m));
        extract.push(t);
        extract_per_nnz.push(t * 1e9 / nnz as f64);
        let features = extract_features(m);
        predict.push(per_call_s(1000, || pinned.model.predict(&features)));

        cold.push(median_s(REPS, || {
            engine.clear_cache();
            engine.prepare(m)
        }));
        forced.push(median_s(REPS, || {
            measuring.clear_cache();
            measuring.prepare(m)
        }));
        let tuned = engine.prepare(m);
        cached.push(median_s(REPS, || engine.prepare(m)));
        convert.push(median_s(REPS, || {
            AnyMatrix::convert_from_csr(m, tuned.format())
        }));
        plan.push(median_s(REPS, || lib.plan_for(tuned.matrix(), tuned.kernel())));

        let (values, bytes) = stored(tuned.matrix());
        stored_values += values;
        nnz_total += m.nnz();
        let x = vectors.vector(m.cols());
        let mut y = vec![0.0; m.rows()];
        let calls = (20_000_000 / nnz).clamp(5, 200);
        let before = exec::dispatch_count();
        let kernel_s = median_s(calls, || {
            lib.run_planned(tuned.matrix(), tuned.kernel().variant, tuned.plan(), &x, &mut y)
        });
        dispatches += exec::dispatch_count() - before;
        dispatch_calls += calls as u64;
        let gflops = 2.0 * m.nnz() as f64 / kernel_s * 1e-9;
        kernel_gflops.push(gflops);
        by_format[tuned.format().index()].push(gflops);
        // Computed traffic: the matrix once, `x` once, `y` once.
        kernel_gbs.push((bytes + 8 * (m.rows() + m.cols())) as f64 / kernel_s * 1e-9);
        let engine_s = median_s(calls, || engine.spmv(&tuned, &x, &mut y));
        engine_gflops.push(2.0 * m.nnz() as f64 / engine_s * 1e-9);

        let block = spmm_block(&x, K);
        let mut y_block = vec![0.0; m.rows() * K];
        let _ = engine.spmm(&tuned, &block, &mut y_block, K); // lazy pick
        let spmm_s = median_s((calls / 8).max(3), || {
            engine.spmm(&tuned, &block, &mut y_block, K)
        });
        spmm_gflops.push(2.0 * (m.nnz() * K) as f64 / spmm_s * 1e-9);

        let best = measure_formats(
            &lib,
            &pinned.model.kernel_choice,
            m,
            Duration::from_millis(2),
        )
        .into_iter()
        .fold(gflops, f64::max);
        regret.push(best / gflops);
    }
    if inputs.is_empty() {
        return;
    }
    ctx.set("matrix.from_triplets_ms", geomean(&from_triplets) * 1e3);
    ctx.set("matrix.fingerprint_us", geomean(&fingerprint) * 1e6);
    ctx.set("matrix.convert_ms", geomean(&convert) * 1e3);
    ctx.set("matrix.convert_fill", stored_values as f64 / nnz_total.max(1) as f64);
    ctx.set("features.extract_ms", geomean(&extract) * 1e3);
    ctx.set("features.extract_ns_per_nnz", geomean(&extract_per_nnz));
    ctx.set("learn.predict_us", geomean(&predict) * 1e6);
    ctx.set("kernels.plan_build_us", geomean(&plan) * 1e6);
    ctx.set("kernels.spmv_gflops", geomean(&kernel_gflops));
    let gbs = geomean(&kernel_gbs);
    ctx.set("kernels.spmv_gbs", gbs);
    if triad > 0.0 {
        ctx.set("kernels.spmv_roof_share", gbs / triad);
    }
    for (format, name) in [
        (Format::Dia, "kernels.spmv_gflops.dia"),
        (Format::Ell, "kernels.spmv_gflops.ell"),
        (Format::Csr, "kernels.spmv_gflops.csr"),
        (Format::Coo, "kernels.spmv_gflops.coo"),
        (Format::Hyb, "kernels.spmv_gflops.hyb"),
        (Format::Bcsr4, "kernels.spmv_gflops.bcsr4"),
    ] {
        let samples = &by_format[format.index()];
        if !samples.is_empty() {
            ctx.set(name, geomean(samples));
        }
    }
    ctx.set(
        "pool.dispatches_per_call",
        dispatches as f64 / dispatch_calls.max(1) as f64,
    );
    ctx.set("core.prepare_ms", geomean(&cold) * 1e3);
    ctx.set("core.prepare_measured_ms", geomean(&forced) * 1e3);
    ctx.set("core.prepare_cached_ms", geomean(&cached) * 1e3);
    ctx.set("core.spmv_gflops", geomean(&engine_gflops));
    ctx.set("core.spmm_gflops", geomean(&spmm_gflops));
    ctx.set("core.regret", geomean(&regret));
}

/// STREAM triad `a = b + s * c` over three arrays far larger than the
/// caches, on as many threads as the kernels use: the measured
/// bandwidth roof `spmv` is held against.
fn stream_triad_gbs(threads: usize, scale: Scale) -> f64 {
    // 64 MiB per array = 16x the 4 MiB L2 of each core. The L3 of the
    // builder's machine is a shared 260 MiB, so at full scale the
    // three arrays (192 MiB) stream from L3/DRAM, not from L2.
    let len = match scale {
        Scale::Full => 8 << 20,
        Scale::Quick => 1 << 20,
    };
    let mut a = vec![0.0f64; len];
    let b = vec![1.5f64; len];
    let c = vec![0.25f64; len];
    let chunk = len.div_ceil(threads.max(1));
    let pass = |a: &mut [f64]| {
        std::thread::scope(|scope| {
            for ((a, b), c) in a.chunks_mut(chunk).zip(b.chunks(chunk)).zip(c.chunks(chunk)) {
                scope.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = *b + 3.0 * *c;
                    }
                });
            }
        });
    };
    pass(&mut a); // faults the pages in
    let best = (0..5)
        .map(|_| timed(|| pass(&mut a)).1)
        .fold(f64::INFINITY, f64::min);
    std::hint::black_box(&a);
    (3 * 8 * len) as f64 / best * 1e-9
}

/// Probes that depend on the machine and the library, not on the
/// workload: the bandwidth roof, one live kernel search held against
/// the pinned table, pool dispatch cost, the engine's per-call
/// overhead on a tiny matrix, handle lookup.
pub fn machine_probes(ctx: &mut Ctx, pinned: &Pinned) {
    ctx.set("learn.fit_s", pinned.fit_s);
    ctx.set("learn.rules_kept", pinned.model.groups.rule_count() as f64);
    ctx.set("kernels.stream_triad_gbs", stream_triad_gbs(ctx.threads, ctx.scale));

    let lib = KernelLibrary::<f64>::new();
    ctx.set(
        "kernels.variants_total",
        (lib.total_variants() + lib.total_spmm_variants()) as f64,
    );
    let config = SmatConfig {
        probe_dim: ctx.scale.rows(SEARCH_PROBE_DIM),
        ..SmatConfig::default()
    };
    let ((live, _tables), search_s) = timed(|| Trainer::new(config).search_kernels(&lib));
    ctx.set("kernels.search_s", search_s);
    if let Ok(pinned_choice) = parse_kernel_choice(KERNEL_CHOICE_FIXTURE, &lib) {
        let agree = Format::ALL
            .into_iter()
            .filter(|&f| live.kernel(f) == pinned_choice.kernel(f))
            .count();
        ctx.set("kernels.search_agreement", agree as f64 / Format::COUNT as f64);
        ctx.note(
            "live_search",
            Format::ALL
                .into_iter()
                .map(|f| lib.info(live.kernel(f)).name)
                .collect::<Vec<_>>()
                .join(" "),
        );
    }

    let threads = ctx.threads;
    ctx.set(
        "pool.dispatch_us",
        per_call_s(2000, || exec::for_each_chunk(threads, &|_| {})) * 1e6,
    );
    ctx.set("pool.spawn_count", exec::spawn_count() as f64);

    if let Ok(engine) = throughput_engine(&pinned.model) {
        let small = random_uniform::<f64>(1000, 1000, 8, 0x51A11);
        let tuned = engine.prepare(&small);
        let x = vec![1.0; 1000];
        let mut y = vec![0.0; 1000];
        // Alternating short blocks, medians of each: the difference of
        // two ~10 us calls is far below what one disturbed block moves.
        let (mut through_engine, mut direct) = (Vec::new(), Vec::new());
        for _ in 0..15 {
            through_engine.push(per_call_s(300, || engine.spmv(&tuned, &x, &mut y)));
            direct.push(per_call_s(300, || {
                lib.run_planned(tuned.matrix(), tuned.kernel().variant, tuned.plan(), &x, &mut y)
            }));
        }
        let (through_engine, direct) =
            (percentile(&through_engine, 0.5), percentile(&direct, 0.5));
        ctx.set("core.spmv_overhead_ns", (through_engine - direct) * 1e9);

        let registry = HandleRegistry::<f64>::new(32, 0);
        let key = tuned.fingerprint();
        registry.insert(tuned);
        ctx.set(
            "core.handle_lookup_ns",
            per_call_s(100_000, || registry.lookup(&key)) * 1e9,
        );
    }
}

/// Probe dimension of the live kernel searches, both the one the
/// traced run makes and the ones `--regen-fixtures` takes the mode of.
pub const SEARCH_PROBE_DIM: usize = 60_000;

#[cfg(test)]
mod tests {
    use super::*;
    use smat_matrix::gen::{banded, fixed_degree};

    #[test]
    fn stored_counts_fill_exactly() {
        let band = banded::<f64>(100, &[-1, 0, 1], 1.0, 1);
        let dia = AnyMatrix::convert_from_csr(&band, Format::Dia).expect("dia");
        assert_eq!(stored(&dia).0, 3 * 100); // 298 nonzeros + 2 corner pads
        let csr = AnyMatrix::convert_from_csr(&band, Format::Csr).expect("csr");
        assert_eq!(stored(&csr), (298, 8 * (2 * 298 + 101)));
        let fixed = fixed_degree::<f64>(50, 50, 4, 0, 2);
        let ell = AnyMatrix::convert_from_csr(&fixed, Format::Ell).expect("ell");
        assert_eq!(stored(&ell).0, 200);
    }

    #[test]
    fn triad_reports_a_positive_bandwidth() {
        assert!(stream_triad_gbs(2, Scale::Quick) > 0.0);
    }
}
