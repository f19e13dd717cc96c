//! `smat` — command-line interface for the SMAT auto-tuner.
//!
//! The one synopsis of every command and flag is `USAGE`, printed by
//! `smat help`.
//!
//! Matrices are Matrix Market files (the UF/SuiteSparse distribution
//! format); models are the JSON artifacts produced by `smat train`.

use smat::{
    label_best_format, tuned_gflops, DecisionPath, Installation, Smat, SmatConfig, TrainedModel,
    Trainer,
};
use smat_features::extract_features;
use smat_kernels::KernelLibrary;
use smat_matrix::gen::{generate_corpus, CorpusSpec};
use smat_matrix::io::read_matrix_market_file;
use smat_matrix::{Csr, Format};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
smat — input adaptive SpMV auto-tuner (SMAT, PLDI'13 reproduction)

USAGE:
  smat train    --out MODEL.json [--corpus N] [--seed S] [--single]
                [--min-dim D] [--max-dim D]
  smat install  --out INSTALL.json [--probe-dim D]
  smat predict  --model MODEL.json MATRIX.mtx
  smat tune     --model MODEL.json [--install INSTALL.json] [--cache CACHE.json]
                [--repeat N] MATRIX.mtx
  smat bench    [--variants] MATRIX.mtx
  smat features MATRIX.mtx
  smat rules    --model MODEL.json
  smat health   --model MODEL.json [--json] [--calls N] [--dim D]
                [--install INSTALL.json]
  smat serve    --model MODEL.json [--addr HOST:PORT | --socket PATH]
                [--install INSTALL.json] [--cache CACHE.json]
                [--workers N] [--queue N] [--degrade-watermark N]
                [--deadline-ms MS] [--max-deadline-ms MS]
                [--tenant-rate R] [--tenant-burst B] [--max-frame-bytes B]
                [--handle-capacity N] [--handle-budget-bytes B]

COMMANDS:
  train     run the off-line stage on a synthetic corpus and save the model
  install   run (or reload) the per-machine kernel search and persist its
            tables; `tune --install` then skips the search at startup
  predict   show the rule-based format decision for a matrix (no timing)
  tune      run the full runtime path (predict or execute-measure) and report
            the chosen format, kernel, measured GFLOPS and tuning-cache stats;
            --repeat N prepares the matrix N times to exercise the cache;
            --cache CACHE.json warm-starts the tuning cache from a snapshot
            (created on first use) and saves it back on exit
  bench     measure all formats exhaustively on a matrix; --variants measures
            every kernel variant of every convertible format and marks each
            format's scoreboard pick
  features  print the 11 structural feature parameters of a matrix
  rules     print the trained IF-THEN ruleset
  health    exercise the warm SpMV path (--calls times on a --dim synthetic
            matrix) and report the engine's execution-health counters:
            contained faults, quarantined kernel variants, cache/concurrency
            recoveries, and the warm handle-registry counters; --json emits
            the machine-readable health report plus the daemon's one-entry
            `shards` array (cache and handle counters) for monitoring
            pipelines
  serve     run the tuning-as-a-service daemon: line-delimited JSON requests
            (ping/metrics/tune/spmv/spmm/shutdown) over TCP (--addr, port 0
            picks an ephemeral port printed as `listening on ...`) or a Unix
            socket (--socket); each request is served on its connection's
            thread, with at most --workers concurrent tuning runs and --queue
            requests waiting for one (the rest are shed or, from
            --degrade-watermark waiting, answered by the reference kernel);
            per-tenant token buckets and per-request deadlines; tuned
            matrices are parked in the daemon's handle registry
            (--handle-capacity entries under --handle-budget-bytes, both per
            daemon) so follow-up requests that send the returned handle skip
            parsing and tuning entirely; --cache preloads the tuning-cache
            snapshot and persists it back on graceful shutdown
            ({\"op\":\"shutdown\"}), which drains in-flight work and exits 0
";

/// Minimal flag parser: `--key value` pairs plus positionals.
struct Args {
    flags: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Self {
        let mut flags = Vec::new();
        let mut switches = Vec::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                if matches!(name, "single" | "variants" | "json") {
                    switches.push(name.to_string());
                } else if i + 1 < argv.len() {
                    flags.push((name.to_string(), argv[i + 1].clone()));
                    i += 1;
                } else {
                    switches.push(name.to_string());
                }
            } else {
                positional.push(a.clone());
            }
            i += 1;
        }
        Self {
            flags,
            switches,
            positional,
        }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_usize(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects an integer, got {v:?}")),
        }
    }

    fn get_f64(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects a number, got {v:?}")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let Some(command) = argv.first() else {
        print!("{USAGE}");
        return Ok(());
    };
    let args = Args::parse(&argv[1..]);
    match command.as_str() {
        "train" => cmd_train(&args),
        "install" => cmd_install(&args),
        "predict" => cmd_predict(&args),
        "tune" => cmd_tune(&args),
        "bench" => cmd_bench(&args),
        "features" => cmd_features(&args),
        "rules" => cmd_rules(&args),
        "health" => cmd_health(&args),
        "serve" => cmd_serve(&args),
        "-h" | "--help" | "help" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; run `smat help`")),
    }
}

fn load_matrix(args: &Args) -> Result<Csr<f64>, String> {
    let path = args
        .positional
        .first()
        .ok_or("a MATRIX.mtx path is required")?;
    read_matrix_market_file::<f64>(path).map_err(|e| format!("reading {path}: {e}"))
}

fn load_model(args: &Args) -> Result<TrainedModel, String> {
    let path = args.get("model").ok_or("--model MODEL.json is required")?;
    TrainedModel::load(path).map_err(|e| format!("loading model {path}: {e}"))
}

/// Renders a [`smat::SmatError`] with its taxonomy name leading, so
/// failed commands exit non-zero with a classifiable error class
/// (`error: [persist] ...`) that scripts can branch on.
fn taxonomy_msg(e: &smat::SmatError) -> String {
    format!("[{}] {e}", e.taxonomy())
}

fn engine_for(model: TrainedModel, args: &Args) -> Result<Smat<f64>, String> {
    let mut config = SmatConfig::default();
    if let Some(path) = args.get("install") {
        config.install_path = Some(path.into());
    }
    Smat::with_config(model, config).map_err(|e| taxonomy_msg(&e))
}

fn cmd_install(args: &Args) -> Result<(), String> {
    let out = args.get("out").ok_or("--out INSTALL.json is required")?;
    let mut config = SmatConfig::default();
    config.probe_dim = args.get_usize("probe-dim", config.probe_dim)?;
    eprintln!(
        "running per-machine kernel search (probe dim {})...",
        config.probe_dim
    );
    let (install, from_disk) =
        Installation::load_or_run::<f64>(out, &config).map_err(|e| taxonomy_msg(&e))?;
    if from_disk {
        println!("reloaded existing installation from {out}");
    } else {
        println!("installation saved to {out}");
    }
    let lib = KernelLibrary::<f64>::new();
    for table in &install.tables {
        let chosen = install.kernel_choice.kernel(table.format);
        let info = lib.info(chosen);
        println!(
            "  {}: kernel {} ({})",
            table.format, info.name, info.strategies
        );
        for rec in &table.records {
            println!("    {}: {:.2} GFLOPS", rec.name, rec.gflops);
        }
    }
    Ok(())
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let out = args.get("out").ok_or("--out MODEL.json is required")?;
    let corpus = args.get_usize("corpus", 600)?;
    let seed = args.get_usize("seed", 0x5AA7)? as u64;
    let min_dim = args.get_usize("min-dim", 512)?;
    let max_dim = args.get_usize("max-dim", 32_768)?;
    let spec = CorpusSpec {
        count: corpus,
        seed,
        min_dim,
        max_dim,
    };
    eprintln!("generating {corpus}-matrix corpus (dims {min_dim}..{max_dim}, seed {seed})...");
    if args.has("single") {
        let entries = generate_corpus::<f32>(&spec);
        let matrices: Vec<&Csr<f32>> = entries.iter().map(|e| &e.matrix).collect();
        eprintln!("training single-precision model...");
        let result = Trainer::default()
            .train(&matrices)
            .map_err(|e| e.to_string())?;
        report_training(&result.model);
        result.model.save(out).map_err(|e| e.to_string())?;
    } else {
        let entries = generate_corpus::<f64>(&spec);
        let matrices: Vec<&Csr<f64>> = entries.iter().map(|e| &e.matrix).collect();
        eprintln!("training double-precision model...");
        let result = Trainer::default()
            .train(&matrices)
            .map_err(|e| e.to_string())?;
        report_training(&result.model);
        result.model.save(out).map_err(|e| e.to_string())?;
    }
    println!("model saved to {out}");
    Ok(())
}

fn report_training(model: &TrainedModel) {
    println!(
        "trained on {} matrices: {} rules ({} kept after tailoring), training accuracy {:.1}%",
        model.stats.train_size,
        model.stats.rules_total,
        model.stats.rules_kept,
        model.stats.train_accuracy * 100.0
    );
    let counts = model.stats.label_counts;
    let dist: Vec<String> = Format::ALL
        .iter()
        .map(|f| format!("{} {}", f.name(), counts[f.index()]))
        .collect();
    println!("label distribution: {}", dist.join(" / "));
}

fn cmd_predict(args: &Args) -> Result<(), String> {
    let model = load_model(args)?;
    let m = load_matrix(args)?;
    if model.precision != "double" {
        return Err(format!(
            "model is {}-precision; the CLI reads matrices as double",
            model.precision
        ));
    }
    let features = extract_features(&m);
    println!("features: {features}");
    let decision = model.predict(&features);
    if decision.matched {
        println!(
            "rule prediction: {} (confidence {:.2})",
            decision.format, decision.confidence
        );
    } else {
        println!(
            "no rule matched; default class {} (runtime would execute-measure)",
            decision.format
        );
    }
    Ok(())
}

fn report_decision(tuned: &smat::TunedSpmv<f64>) {
    if tuned.decision().is_cached() {
        println!("decision: replayed from the tuning cache");
    }
    match tuned.decision().source() {
        DecisionPath::Predicted { confidence } => println!(
            "decision: predicted {} with confidence {:.2}",
            tuned.format(),
            confidence
        ),
        DecisionPath::Measured {
            candidates,
            failures,
        } => {
            println!("decision: execute-measure fallback");
            for (f, g) in candidates {
                println!("  measured {f}: {g:.2} GFLOPS");
            }
            for (f, reason) in failures {
                println!("  failed {f}: {reason}");
            }
        }
        DecisionPath::Degraded { reason } => {
            println!("decision: DEGRADED — tuning abandoned, reference CSR kernel in use");
            println!("  reason: {reason}");
        }
        DecisionPath::Cached { .. } => unreachable!("source() unwraps Cached"),
    }
}

fn cmd_tune(args: &Args) -> Result<(), String> {
    let model = load_model(args)?;
    let m = load_matrix(args)?;
    let engine = engine_for(model, args)?;
    if let Some(install) = engine.installation() {
        println!(
            "installation: {} (probe dim {}, {})",
            if engine.installation_from_disk() {
                "reloaded from disk"
            } else {
                "searched and saved"
            },
            install.probe_dim,
            install.precision
        );
    }
    let cache_path = args.get("cache");
    if let Some(path) = cache_path {
        if std::path::Path::new(path).exists() {
            let absorbed = engine.load_cache(path).map_err(|e| taxonomy_msg(&e))?;
            println!("tuning cache: warm-started with {absorbed} entries from {path}");
        }
    }
    let repeat = args.get_usize("repeat", 1)?.max(1);
    let mut tuned = engine.prepare(&m);
    for _ in 1..repeat {
        tuned = engine.prepare(&m);
    }
    report_decision(&tuned);
    let stats = engine.cache_stats();
    println!(
        "tuning cache: {} hits / {} misses ({} entries); hit {:?}, miss {:?}",
        stats.hits, stats.misses, stats.entries, stats.hit_time, stats.miss_time
    );
    if stats.corrupt_evictions > 0 {
        println!(
            "tuning cache: {} corrupt entries evicted and re-tuned",
            stats.corrupt_evictions
        );
    }
    if stats.poison_recoveries > 0 {
        println!(
            "tuning cache: {} poisoned-lock recoveries (entries dropped, process kept alive)",
            stats.poison_recoveries
        );
    }
    if let Some(path) = cache_path {
        let written = engine.save_cache(path).map_err(|e| taxonomy_msg(&e))?;
        println!("tuning cache: snapshot of {written} entries saved to {path}");
    }
    let kernel = engine.library().info(tuned.kernel());
    println!(
        "kernel: {} ({}); tuning cost {:?}",
        kernel.name,
        kernel.strategies,
        tuned.prepare_time()
    );
    let g = tuned_gflops(&engine, &tuned, Duration::from_millis(20));
    println!("tuned SpMV throughput: {g:.2} GFLOPS");
    Ok(())
}

/// The `bench --variants` scoreboard: every kernel variant of every
/// format the matrix converts to under default limits, measured like
/// the offline search, with each format's scoreboard pick marked.
/// Refused conversions report their `[taxonomy]`-classified reason
/// instead of aborting the sweep.
fn bench_variants(m: &Csr<f64>) -> Result<(), String> {
    let lib = KernelLibrary::<f64>::new();
    let config = SmatConfig::default();
    let limits = config.conversion_limits();
    println!("{} x {}, {} nonzeros", m.rows(), m.cols(), m.nnz());
    for format in Format::ALL {
        match smat_matrix::AnyMatrix::convert_from_csr_with(m, format, &limits) {
            Ok(any) => {
                let measure = |op, k| {
                    let budget = Duration::from_millis(5);
                    let deadline = config.candidate_deadline;
                    smat_kernels::measure_table(&lib, &any, op, k, budget, deadline, &[])
                };
                let table = measure(smat_kernels::Op::Spmv, 1);
                println!("{format}:");
                let best = print_scoreboard(&table, "  ");
                // The plan-search grid for CSR: the (chunk policy,
                // fan-out width) candidates the runtime races when the
                // R feature reports a skewed matrix, with the winner
                // the tuning cache would replay. Shown for the
                // scoreboard pick, or — when that pick is serial and
                // has no plan dimension — for the fastest parallel
                // variant, so the grid stays visible on boxes where
                // serial kernels win the scoreboard.
                if format == Format::Csr {
                    let subject = if table.records[best]
                        .strategies
                        .contains(smat_kernels::Strategy::Parallel)
                    {
                        Some(best)
                    } else {
                        table
                            .records
                            .iter()
                            .enumerate()
                            .filter(|(_, r)| {
                                matches!(r.status, smat_kernels::RecordStatus::Measured)
                                    && r.strategies.contains(smat_kernels::Strategy::Parallel)
                            })
                            .max_by(|a, b| a.1.gflops.total_cmp(&b.1.gflops))
                            .map(|(v, _)| v)
                    };
                    if let Some(v) = subject {
                        let id = smat_kernels::KernelId {
                            op: smat_kernels::Op::Spmv,
                            format,
                            variant: v,
                        };
                        if let Some(found) = smat_kernels::search_plan(
                            &lib,
                            &any,
                            id,
                            1,
                            Duration::from_millis(2),
                            config.candidate_deadline,
                        ) {
                            println!("  plan search for {}:", table.records[v].name);
                            for (i, s) in found.samples.iter().enumerate() {
                                println!(
                                    "    {:<13} width {:>3} -> {:>3} chunks  {:>8.2} GFLOPS{}",
                                    s.policy.name(),
                                    s.parts,
                                    s.chunks,
                                    s.gflops,
                                    if i == found.best {
                                        "  <= plan pick"
                                    } else {
                                        ""
                                    }
                                );
                            }
                        }
                    }
                }
                // The batched tier: the SpMM scoreboard at the widest
                // searched RHS width (k = 8).
                println!("  spmm (k = 8):");
                print_scoreboard(&measure(smat_kernels::Op::Spmm, 8), "    ");
            }
            Err(e) => println!(
                "{format}: skipped — {}",
                taxonomy_msg(&smat::SmatError::from(e))
            ),
        }
    }
    Ok(())
}

/// Prints one `bench --variants` scoreboard, each row behind `indent`
/// and the scoreboard pick marked; returns the pick.
fn print_scoreboard(table: &smat_kernels::PerfTable, indent: &str) -> usize {
    let best = table.scoreboard().best_variant;
    for (v, rec) in table.records.iter().enumerate() {
        let name = &rec.name;
        match &rec.status {
            smat_kernels::RecordStatus::Measured => {
                let pick = if v == best {
                    "  <= scoreboard pick"
                } else {
                    ""
                };
                let (g, strategies) = (rec.gflops, rec.strategies);
                println!("{indent}{name:<28} {g:>8.2} GFLOPS  [{strategies}]{pick}");
            }
            smat_kernels::RecordStatus::CandidateFailed { reason } => {
                println!("{indent}{name:<28} failed: {reason}")
            }
        }
    }
    best
}

fn cmd_bench(args: &Args) -> Result<(), String> {
    let m = load_matrix(args)?;
    if args.has("variants") {
        return bench_variants(&m);
    }
    let lib = KernelLibrary::<f64>::new();
    let trainer = Trainer::default();
    eprintln!("searching kernels...");
    let (choice, _) = trainer.search_kernels(&lib);
    let (best, perf) = label_best_format(&lib, &choice, &m, Duration::from_millis(20));
    println!("{} x {}, {} nonzeros", m.rows(), m.cols(), m.nnz());
    for f in Format::ALL {
        let g = perf[f.index()];
        if g > 0.0 {
            println!(
                "  {f}: {g:.2} GFLOPS{}",
                if f == best { "  <= best" } else { "" }
            );
        } else {
            println!("  {f}: skipped (conversion refused or measurement failed)");
        }
    }
    Ok(())
}

fn cmd_features(args: &Args) -> Result<(), String> {
    let m = load_matrix(args)?;
    let f = extract_features(&m);
    println!("{} x {}, {} nonzeros", m.rows(), m.cols(), m.nnz());
    for (name, value) in smat_features::ATTRIBUTE_NAMES.iter().zip(f.as_array()) {
        if value >= smat_features::R_NOT_SCALE_FREE {
            println!("  {name:>14} = inf (not scale-free)");
        } else {
            println!("  {name:>14} = {value:.6}");
        }
    }
    Ok(())
}

fn cmd_rules(args: &Args) -> Result<(), String> {
    let model = load_model(args)?;
    println!(
        "model precision: {}; trained on {} matrices",
        model.precision, model.stats.train_size
    );
    print!("{}", model.ruleset);
    println!();
    for group in &model.groups.groups {
        println!(
            "group {} ({} rules, confidence {:.2})",
            Format::from_index(group.class),
            group.rules.len(),
            group.confidence
        );
    }
    Ok(())
}

fn cmd_health(args: &Args) -> Result<(), String> {
    let model = load_model(args)?;
    let calls = args.get_usize("calls", 100)?.max(1);
    let dim = args.get_usize("dim", 512)?.max(16);
    let engine = engine_for(model, args)?;
    // Exercise the warm serving path so the report reflects live
    // execution, not just construction: one prepare, then `calls`
    // steady-state multiplies through the containment boundary.
    let m = smat_matrix::gen::random_uniform::<f64>(dim, dim, 8, 0x5EED);
    let tuned = engine.prepare(&m);
    let x = vec![1.0; dim];
    let mut y = vec![0.0; dim];
    for _ in 0..calls {
        engine
            .spmv(&tuned, &x, &mut y)
            .map_err(|e| taxonomy_msg(&e))?;
    }
    // A short batched burst so the op-labeled counters both report
    // live traffic: one warm SpMM call per eight SpMV calls.
    let k = 4;
    let xb = vec![1.0; dim * k];
    let mut yb = vec![0.0; dim * k];
    for _ in 0..calls.div_ceil(8) {
        engine
            .spmm(&tuned, &xb, &mut yb, k)
            .map_err(|e| taxonomy_msg(&e))?;
    }
    // Exercise the handle registry the daemon's warm path rides:
    // park the prepared matrix under its fingerprint, replay `calls`
    // hit lookups, and probe one perturbed fingerprint so the miss
    // counter also reports live traffic rather than zeros.
    let registry = smat::HandleRegistry::new(32, 0);
    let fp = tuned.fingerprint();
    registry.insert(tuned);
    for _ in 0..calls {
        registry
            .lookup(&fp)
            .ok_or("handle registry lost a resident entry")?;
    }
    let mut missing = fp;
    missing.digest[0] ^= 1;
    assert!(registry.lookup(&missing).is_none());
    let handles = registry.stats();
    let report = engine.health_report();
    if args.has("json") {
        use serde::{Serialize as _, Value};
        let mut fields = match report.to_value() {
            Value::Object(fields) => fields,
            other => return Err(format!("health report is not an object: {}", other.kind())),
        };
        let entry = smat_service::metrics::shard_entry(&engine.cache_stats(), &report, &handles);
        fields.push(("shards".to_string(), Value::Array(vec![entry])));
        let merged = Value::Object(fields);
        let json = serde_json::to_string_pretty(&smat_service::proto::Json(&merged))
            .map_err(|e| e.to_string())?;
        println!("{json}");
        return Ok(());
    }
    println!("execution health after {} warm calls:", report.calls);
    println!(
        "  by op: {} spmv / {} spmm",
        report.spmv_calls, report.spmm_calls
    );
    println!(
        "  contained faults: {} ({} breaker trips)",
        report.exec_faults, report.breaker_trips
    );
    if report.quarantined_variants.is_empty() {
        println!("  quarantined variants: none");
    } else {
        println!("  quarantined variants:");
        for q in &report.quarantined_variants {
            println!(
                "    {} variant {} ({}): {:?}, {} incidents, re-probe at call {}",
                q.kernel.format, q.kernel.variant, q.name, q.state, q.incidents, q.reopen_at
            );
        }
    }
    println!(
        "  re-probes: {} readmitted / {} failed",
        report.reprobe_successes, report.reprobe_failures
    );
    println!(
        "  prepare: {} degraded, {} quarantine evictions",
        report.degraded_prepares, report.quarantine_evictions
    );
    println!(
        "  handles: {} hits / {} misses / {} evictions; {} resident ({} bytes)",
        handles.hits, handles.misses, handles.evictions, handles.entries, handles.resident_bytes
    );
    let cache = engine.cache_stats();
    println!(
        "  cache: {} hits / {} misses; {} corrupt evictions, {} poison recoveries, {} coalesced waits",
        cache.hits,
        cache.misses,
        cache.corrupt_evictions,
        cache.poison_recoveries,
        cache.coalesced_waits
    );
    for incident in &report.recent_incidents {
        println!(
            "  incident: {} variant {} {:?}: {}",
            incident.kernel.format, incident.kernel.variant, incident.kind, incident.payload
        );
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    use std::io::Write as _;
    let model = load_model(args)?;
    let engine = std::sync::Arc::new(engine_for(model, args)?);
    let mut config = smat_service::ServeConfig::default();
    config.workers = args.get_usize("workers", config.workers)?;
    config.queue_capacity = args.get_usize("queue", config.queue_capacity)?;
    config.degrade_watermark = args.get_usize("degrade-watermark", config.degrade_watermark)?;
    config.default_deadline = Duration::from_millis(
        args.get_usize("deadline-ms", config.default_deadline.as_millis() as usize)? as u64,
    );
    config.max_deadline = Duration::from_millis(
        args.get_usize("max-deadline-ms", config.max_deadline.as_millis() as usize)? as u64,
    );
    config.tenant_rate = args.get_f64("tenant-rate", config.tenant_rate)?;
    config.tenant_burst = args.get_f64("tenant-burst", config.tenant_burst)?;
    config.max_frame_bytes = args.get_usize("max-frame-bytes", config.max_frame_bytes)?;
    config.handle_capacity = args.get_usize("handle-capacity", config.handle_capacity)?;
    config.handle_budget_bytes =
        args.get_usize("handle-budget-bytes", config.handle_budget_bytes)?;
    if let Some(path) = args.get("cache") {
        config.cache_snapshot = Some(path.into());
    }
    let server = if let Some(path) = args.get("socket") {
        let server = smat_service::Server::bind_unix(path, engine, config)
            .map_err(|e| format!("binding unix socket {path}: {e}"))?;
        println!("listening on unix:{path}");
        server
    } else {
        let addr = args.get("addr").unwrap_or("127.0.0.1:7411");
        let server = smat_service::Server::bind_tcp(addr, engine, config)
            .map_err(|e| format!("binding {addr}: {e}"))?;
        let bound = server
            .local_addr()
            .ok_or("TCP listener lost its local address")?;
        println!("listening on {bound}");
        server
    };
    // The listening line is the startup handshake scripts scrape for
    // the ephemeral port; make sure it is out before blocking.
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let summary = server.run().map_err(|e| format!("serve loop: {e}"))?;
    println!(
        "drained: {} requests ({} ok, {} degraded, {} shed, {} deadline misses, {} handle misses, {} errors)",
        summary.requests_total,
        summary.requests_ok,
        summary.requests_degraded,
        summary.requests_shed,
        summary.deadline_misses,
        summary.requests_handle_miss,
        summary.requests_error
    );
    if let Some(entries) = summary.cache_snapshot_entries {
        println!("cache snapshot persisted ({entries} entries)");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_flags_switches_positionals() {
        let argv: Vec<String> = ["--model", "m.json", "--single", "a.mtx", "--corpus", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let a = Args::parse(&argv);
        assert_eq!(a.get("model"), Some("m.json"));
        assert!(a.has("single"));
        assert_eq!(a.positional, vec!["a.mtx"]);
        assert_eq!(a.get_usize("corpus", 1).unwrap(), 5);
        assert_eq!(a.get_usize("seed", 7).unwrap(), 7);
        assert!(a.get_usize("model", 0).is_err());
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(&["frobnicate".to_string()]).is_err());
        assert!(run(&[]).is_ok()); // prints usage
        assert!(run(&["help".to_string()]).is_ok());
    }

    #[test]
    fn missing_required_flags_error_cleanly() {
        assert!(cmd_train(&Args::parse(&[])).is_err());
        assert!(cmd_predict(&Args::parse(&[])).is_err());
        assert!(cmd_rules(&Args::parse(&[])).is_err());
        assert!(cmd_health(&Args::parse(&[])).is_err());
        assert!(cmd_serve(&Args::parse(&[])).is_err());
    }

    #[test]
    fn end_to_end_train_and_inspect() {
        let dir = std::env::temp_dir().join("smat_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("model.json");
        let mtx_path = dir.join("m.mtx");

        // Tiny training run.
        let argv: Vec<String> = [
            "--out",
            model_path.to_str().unwrap(),
            "--corpus",
            "25",
            "--min-dim",
            "64",
            "--max-dim",
            "256",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cmd_train(&Args::parse(&argv)).unwrap();
        assert!(model_path.exists());

        // Write a matrix and run predict/tune/features/bench on it.
        let m = smat_matrix::gen::tridiagonal::<f64>(500);
        smat_matrix::io::write_matrix_market_file(&m, &mtx_path).unwrap();
        let argv: Vec<String> = [
            "--model",
            model_path.to_str().unwrap(),
            mtx_path.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cmd_predict(&Args::parse(&argv)).unwrap();
        cmd_tune(&Args::parse(&argv)).unwrap();
        cmd_rules(&Args::parse(&argv)).unwrap();
        let argv: Vec<String> = vec![mtx_path.to_str().unwrap().to_string()];
        cmd_features(&Args::parse(&argv)).unwrap();

        // bench --variants: the per-variant scoreboard sweep.
        let argv: Vec<String> = vec![
            "--variants".to_string(),
            mtx_path.to_str().unwrap().to_string(),
        ];
        let parsed = Args::parse(&argv);
        assert!(parsed.has("variants"));
        cmd_bench(&parsed).unwrap();

        // tune --cache: the first run creates the snapshot, the second
        // warm-starts from it.
        let cache_path = dir.join("cache.json");
        std::fs::remove_file(&cache_path).ok();
        let argv: Vec<String> = [
            "--model",
            model_path.to_str().unwrap(),
            "--cache",
            cache_path.to_str().unwrap(),
            mtx_path.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cmd_tune(&Args::parse(&argv)).unwrap();
        assert!(cache_path.exists(), "first run must write the snapshot");
        cmd_tune(&Args::parse(&argv)).unwrap();

        std::fs::remove_file(&model_path).ok();
        std::fs::remove_file(&mtx_path).ok();
        std::fs::remove_file(&cache_path).ok();
    }
}
