//! What every workload shares: the metric tables, the per-run context
//! (seed, scale, tracer, operation counts), the round loop with its
//! quiet-floor aggregation, and the result line.

use crate::inputs::Scale;
use crate::stats::{iqr_over_median, quiet_floor, Better};
use crate::trace::{Layer, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// One metric of the benchmark: its name, unit and which way is
/// better. `bound` is the share by which an end-to-end metric may get
/// worse before a change counts as a regression (0 for per-layer
/// metrics, which have none). `BENCHMARK.json` repeats this table; a
/// unit test keeps the two in step.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics. Every workload reports every one of them;
/// README.md says what each means on each workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("time_to_solution_s", "s", Lower, 0.25),
    e2e("latency_ms_p50", "ms", Lower, 0.25),
    e2e("latency_ms_p90", "ms", Lower, 0.25),
    e2e("throughput_rps", "1/s", Higher, 0.25),
    e2e("speedup_vs_ref", "ratio", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
];

/// The per-layer metrics of the traced run, `layer.metric`. A workload
/// that never enters a layer reports that layer's metrics as 0.
pub const PER_LAYER: &[MetricDef] = &[
    // matrix
    layer("matrix.self_s", "s", Lower),
    layer("matrix.gen_s", "s", Lower),
    layer("matrix.from_triplets_ms", "ms", Lower),
    layer("matrix.fingerprint_us", "us", Lower),
    layer("matrix.convert_ms", "ms", Lower),
    layer("matrix.convert_fill", "ratio", Lower),
    // features
    layer("features.self_s", "s", Lower),
    layer("features.extract_ms", "ms", Lower),
    layer("features.extract_ns_per_nnz", "ns", Lower),
    // learn
    layer("learn.self_s", "s", Lower),
    layer("learn.fit_s", "s", Lower),
    layer("learn.predict_us", "us", Lower),
    layer("learn.rules_kept", "count", Lower),
    // kernels
    layer("kernels.self_s", "s", Lower),
    layer("kernels.stream_triad_gbs", "GB/s", Higher),
    layer("kernels.spmv_gbs", "GB/s", Higher),
    layer("kernels.spmv_roof_share", "share", Higher),
    layer("kernels.spmv_gflops", "GFLOP/s", Higher),
    layer("kernels.spmv_gflops.dia", "GFLOP/s", Higher),
    layer("kernels.spmv_gflops.ell", "GFLOP/s", Higher),
    layer("kernels.spmv_gflops.csr", "GFLOP/s", Higher),
    layer("kernels.spmv_gflops.coo", "GFLOP/s", Higher),
    layer("kernels.spmv_gflops.hyb", "GFLOP/s", Higher),
    layer("kernels.spmv_gflops.bcsr4", "GFLOP/s", Higher),
    layer("kernels.plan_build_us", "us", Lower),
    layer("kernels.search_s", "s", Lower),
    layer("kernels.search_agreement", "share", Higher),
    layer("kernels.variants_total", "count", Lower),
    // pool
    layer("pool.dispatch_us", "us", Lower),
    layer("pool.dispatches_per_call", "count", Lower),
    layer("pool.spawn_count", "count", Lower),
    // core
    layer("core.self_s", "s", Lower),
    layer("core.prepare_ms", "ms", Lower),
    layer("core.prepare_measured_ms", "ms", Lower),
    layer("core.prepare_cached_ms", "ms", Lower),
    layer("core.spmv_gflops", "GFLOP/s", Higher),
    layer("core.spmm_gflops", "GFLOP/s", Higher),
    layer("core.spmm_tune_ms", "ms", Lower),
    layer("core.spmv_overhead_ns", "ns", Lower),
    layer("core.handle_lookup_ns", "ns", Lower),
    layer("core.decisions_predicted", "count", Higher),
    layer("core.decisions_measured", "count", Lower),
    layer("core.decisions_cached", "count", Higher),
    layer("core.decisions_degraded", "count", Lower),
    layer("core.decision_drift", "count", Lower),
    layer("core.regret", "ratio", Lower),
    // amg
    layer("amg.self_s", "s", Lower),
    layer("amg.hierarchy_s", "s", Lower),
    layer("amg.compile_s", "s", Lower),
    layer("amg.vcycle_ms", "ms", Lower),
    layer("amg.plain_vcycle_ms", "ms", Lower),
    layer("amg.cycles", "count", Lower),
    layer("amg.levels", "count", Lower),
    layer("amg.operator_complexity", "ratio", Lower),
    layer("amg.tune_cache_misses", "count", Lower),
    // service
    layer("service.self_s", "s", Lower),
    layer("service.ping_us", "us", Lower),
    layer("service.parse_handle_us", "us", Lower),
    layer("service.parse_triplet_ms", "ms", Lower),
    layer("service.parse_ns_per_byte", "ns", Lower),
    layer("service.encode_y_us", "us", Lower),
    layer("service.replayed_ms", "ms", Lower),
    layer("service.unaccounted_ms", "ms", Lower),
    layer("service.requests_total", "count", Higher),
    layer("service.requests_not_ok", "count", Lower),
    layer("service.handle_hits", "count", Higher),
    layer("service.handle_evictions", "count", Lower),
    layer("service.cache_hits", "count", Higher),
    layer("service.cache_misses", "count", Lower),
    layer("service.wire_matrix_parses", "count", Lower),
    layer("service.handle_resident_mb", "MiB", Lower),
    // harness
    layer("harness.self_s", "s", Lower),
    layer("harness.yardstick_ms", "ms", Lower),
    layer("harness.round_spread", "share", Lower),
    layer("harness.trace_overhead", "share", Lower),
    layer("harness.rounds", "count", Higher),
    layer("harness.spans", "count", Higher),
];

pub fn find_metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Per-run state handed to every workload.
pub struct Ctx {
    pub seed: u64,
    pub scale: Scale,
    pub seconds: f64,
    pub traced: bool,
    pub threads: usize,
    pub tracer: Tracer,
    /// Operations performed (timed and check alike) and how many of
    /// them returned a wrong or non-`ok` result.
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer values the workload or the probes measured.
    pub layer: BTreeMap<&'static str, f64>,
    /// Free-form facts for the detail line (sample counts, decisions).
    pub notes: Vec<(String, String)>,
}

impl Ctx {
    pub fn new(seed: u64, scale: Scale, seconds: f64, traced: bool, threads: usize) -> Self {
        Ctx {
            seed,
            scale,
            seconds,
            traced,
            threads,
            // Room for every span of the longest traced script; the
            // buffer never grows while a round is being timed.
            tracer: Tracer::with_capacity(if traced { 1 << 20 } else { 0 }),
            attempted: 0,
            failed: 0,
            layer: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Counts one operation; `ok == false` makes it a failed one.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(find_metric(name).is_some(), "unlisted metric {name}");
        self.layer.insert(name, value);
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}

/// The end-to-end figures of a workload's fixed script, computed from
/// the times of its operations.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub time_to_solution_s: f64,
    pub latency_ms_p50: f64,
    pub latency_ms_p90: f64,
    pub throughput_rps: f64,
    pub speedup_vs_ref: f64,
}

/// A workload: set-up, untimed verification, and one timed round of
/// its fixed script. Rounds are identical; the driver repeats them.
///
/// A round returns the seconds of every timed operation of the script
/// (each cold `prepare`, each `spmv` call, each request), always in
/// the same order. The driver takes the quiet floor (the fastest
/// round) of every operation and hands the result to
/// [`Workload::summarize`]. Interference on a shared machine lengthens
/// some operations of some rounds, rarely the same ones, so estimating
/// each operation from its own undisturbed round is far steadier than
/// ranking whole rounds.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Everything from pinned model to ready-to-serve state.
    fn setup(ctx: &mut Ctx) -> Result<Self, String>;
    /// Untimed: verifies every product once per matrix.
    fn check(&mut self, ctx: &mut Ctx);
    /// One round: seconds of every timed operation, in script order.
    fn round(&mut self, ctx: &mut Ctx) -> Vec<f64>;
    /// The end-to-end figures of a script whose operations took `times`
    /// (one round's, or each operation's quiet floor over rounds).
    fn summarize(&self, times: &[f64]) -> Summary;
    /// Traced run only: layer probes on this workload's own inputs.
    fn probes(&mut self, ctx: &mut Ctx);
    /// Stops whatever set-up started (the daemon) and waits for it.
    fn teardown(self, ctx: &mut Ctx);
}

/// The quiet floor of every operation across rounds.
fn quiet_times(rounds: &[Vec<f64>]) -> Vec<f64> {
    let operations = rounds.first().map_or(0, Vec::len);
    (0..operations)
        .map(|op| {
            let column: Vec<f64> = rounds.iter().map(|round| round[op]).collect();
            quiet_floor(&column)
        })
        .collect()
}

/// How often set-up is repeated in one run; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// A fixed reference loop (integer mixing over a 2 MiB table): if its
/// quiet floor differs between two sets of runs, the machine moved,
/// not the code.
fn yardstick_ms() -> f64 {
    let mut table = vec![0u64; 1 << 18];
    let t0 = Instant::now();
    let mut acc = 0x9E37_79B9_7F4A_7C15u64;
    for pass in 0..4u64 {
        for slot in table.iter_mut() {
            acc = (acc ^ *slot).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(23) ^ pass;
            *slot = acc;
        }
    }
    std::hint::black_box(&table);
    t0.elapsed().as_secs_f64() * 1e3
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The measured values of one run, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Runs one workload end to end and returns its metrics: the
/// end-to-end ones for an untraced run, the per-layer ones for a
/// traced run.
pub fn run<W: Workload>(ctx: &mut Ctx) -> Result<Values, String> {
    // Set-up several times; the last instance is the one measured.
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = workload.take() {
            W::teardown(previous, ctx);
        }
        let t0 = Instant::now();
        workload = Some(W::setup(ctx)?);
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("SETUP_REPEATS >= 1");
    let setup_s = crate::stats::percentile(&setup_times, 0.5);

    workload.check(ctx);
    // Warm-up round: discarded. Faults in pages, fills caches, lets
    // lazy set-up (the first `spmm` tune, the pool's workers) finish.
    let _ = workload.round(ctx);

    // In a traced run every other round records spans, so the two
    // kinds sample the same stretch of machine time and their ratio is
    // the tracing overhead.
    let minimum_rounds = if ctx.traced { 4 } else { 3 };
    let mut plain: Vec<Vec<f64>> = Vec::new();
    let mut traced: Vec<Vec<f64>> = Vec::new();
    let mut yardstick = Vec::new();
    // A traced run spends the last third of its time on the probes.
    let budget = if ctx.traced {
        ctx.seconds * 0.65
    } else {
        ctx.seconds
    };
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < budget
        || plain.len() + traced.len() < minimum_rounds
    {
        let record = ctx.traced && (plain.len() + traced.len()) % 2 == 1;
        ctx.tracer.set_enabled(record);
        let round = workload.round(ctx);
        ctx.tracer.set_enabled(false);
        if record {
            traced.push(round);
        } else {
            plain.push(round);
        }
        yardstick.push(yardstick_ms());
    }
    let measured_s = window.elapsed().as_secs_f64();

    let mut values = Values::new();
    if !ctx.traced {
        let quiet = workload.summarize(&quiet_times(&plain));
        values.insert("setup_s", setup_s);
        values.insert("time_to_solution_s", quiet.time_to_solution_s);
        values.insert("latency_ms_p50", quiet.latency_ms_p50);
        values.insert("latency_ms_p90", quiet.latency_ms_p90);
        values.insert("throughput_rps", quiet.throughput_rps);
        values.insert("speedup_vs_ref", quiet.speedup_vs_ref);
    } else {
        workload.probes(ctx);
        let self_s = ctx.tracer.self_seconds_by_layer();
        for (layer, seconds) in Layer::ALL.iter().zip(self_s) {
            // Self time per traced round. The pool has no call the
            // benchmark makes directly inside a round, so it has no
            // `self_s` row; its cost shows in `pool.dispatch_us`.
            let name = match layer {
                Layer::Matrix => "matrix.self_s",
                Layer::Features => "features.self_s",
                Layer::Learn => "learn.self_s",
                Layer::Kernels => "kernels.self_s",
                Layer::Pool => continue,
                Layer::Core => "core.self_s",
                Layer::Amg => "amg.self_s",
                Layer::Service => "service.self_s",
                Layer::Harness => "harness.self_s",
            };
            ctx.set(name, seconds / traced.len().max(1) as f64);
        }
        // Spread of whole rounds, each summarized on its own: what the
        // per-operation quiet floor is there to remove.
        let whole: Vec<Summary> = plain
            .iter()
            .chain(&traced)
            .map(|round| workload.summarize(round))
            .collect();
        let column = |f: fn(&Summary) -> f64| -> Vec<f64> { whole.iter().map(f).collect() };
        let spread = [
            iqr_over_median(&column(|s| s.time_to_solution_s)),
            iqr_over_median(&column(|s| s.latency_ms_p50)),
            iqr_over_median(&column(|s| s.throughput_rps)),
        ]
        .into_iter()
        .fold(0.0, f64::max);
        let overhead = workload.summarize(&quiet_times(&traced)).time_to_solution_s
            / workload.summarize(&quiet_times(&plain)).time_to_solution_s
            - 1.0;
        ctx.set("harness.yardstick_ms", quiet_floor(&yardstick));
        ctx.set("harness.round_spread", spread);
        ctx.set("harness.trace_overhead", overhead);
        ctx.set("harness.rounds", whole.len() as f64);
        ctx.set("harness.spans", ctx.tracer.spans().len() as f64);
        if ctx.tracer.dropped > 0 {
            ctx.note("spans_dropped", ctx.tracer.dropped);
        }
        for def in PER_LAYER {
            values.insert(def.name, ctx.layer.get(def.name).copied().unwrap_or(0.0));
        }
    }
    ctx.note(
        "round_tts",
        plain
            .iter()
            .map(|r| format!("{:.3}", workload.summarize(r).time_to_solution_s))
            .collect::<Vec<_>>()
            .join(" "),
    );
    ctx.note("rounds", plain.len() + traced.len());
    ctx.note("yardstick_ms", format!("{:.4}", quiet_floor(&yardstick)));
    ctx.note("measured_s", format!("{measured_s:.2}"));
    ctx.note(
        "setup_times_s",
        setup_times
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join("/"),
    );
    workload.teardown(ctx);
    if !ctx.traced {
        // Read last: the peak covers set-up, rounds and teardown.
        values.insert("peak_rss_mb", peak_rss_mb());
    }
    Ok(values)
}

/// The result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`, every value with all its digits.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &Values) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, value)| {
            let unit = find_metric(name).map_or("", |m| m.unit);
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn result_line_is_valid_json_with_exactly_the_contract_keys() {
        let mut values = Values::new();
        values.insert("setup_s", 1.25);
        values.insert("latency_ms_p50", 3.0e-5);
        let line = result_line(true, 10, 0, &values);
        let parsed = serde_json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = parsed
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
    }

    #[test]
    fn benchmark_json_repeats_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // built outside the repository
        };
        let doc = serde_json::parse(&text).expect("BENCHMARK.json is JSON");
        let field = |v: &serde::Value, key: &str| -> serde::Value {
            v.as_object()
                .and_then(|o| o.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()))
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        };
        let text_of = |v: &serde::Value| match v {
            serde::Value::Str(s) => s.clone(),
            other => panic!("not a string: {other:?}"),
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = field(&doc, key);
            let listed = listed.as_array().expect("array");
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, def) in listed.iter().zip(table) {
                assert_eq!(text_of(&field(entry, "name")), def.name);
                assert_eq!(text_of(&field(entry, "unit")), def.unit);
                let better = if def.better == Lower { "lower" } else { "higher" };
                assert_eq!(text_of(&field(entry, "better")), better, "{}", def.name);
            }
        }
    }
}
