//! Batched multi-RHS payoff: tuned SpMM throughput per right-hand-side
//! column as the batch width `k` grows, versus `k` independent tuned
//! SpMV calls on the same handle.
//!
//! The engine prepares the uniform control matrix once, lets the first
//! `spmm` call run the SpMM variant search at the widest width (k = 8,
//! so the winning row is chosen by search, not defaulted), then
//! replays the frozen pick at k in {1, 2, 4, 8}. Amortizing the row
//! pointer and column index traffic across the batch is the whole
//! point: `ns_per_column` must drop as k grows, with the target at
//! k = 8 being at least 1.5x the per-column throughput of k separate
//! SpMV calls on the full-size run.
//!
//! The bench also proves the cache replay contract end to end: a
//! second `prepare` of the same matrix must come back cached with the
//! same SpMM kernel pre-populated and produce bit-identical output —
//! recorded as `replay_bitwise` in the artifact.
//!
//! Results go to `BENCH_spmm.json` at the workspace root.
//! `SMAT_BENCH_QUICK=1` shrinks the matrix and sample counts;
//! `SMAT_BENCH_THREADS=N` requests the pool width before first use.

use smat::{Smat, SmatConfig, Trainer};
use smat_matrix::gen::random_uniform;
use smat_matrix::Format;
use std::hint::black_box;
use std::time::Instant;

fn config() -> SmatConfig {
    // CSR-only execute-measure path: a confidence threshold above 1.0
    // means no rule can shortcut the measurement, so the SpMM pick is
    // always chosen by search on the actual input.
    SmatConfig {
        confidence_threshold: 1.1,
        fallback_formats: vec![Format::Csr],
        search_budget: std::time::Duration::from_millis(4),
        fallback_budget: std::time::Duration::from_millis(2),
        ..SmatConfig::default()
    }
}

fn engine() -> Smat<f64> {
    // Tiny training corpus: with the threshold above, the ruleset is
    // never consulted on the benched matrix, so training stays off the
    // clock.
    let a = random_uniform::<f64>(600, 600, 8, 1);
    let b = random_uniform::<f64>(700, 700, 6, 2);
    let out = Trainer::new(config())
        .train(&[&a, &b])
        .expect("non-empty corpus");
    Smat::with_config(out.model, config()).expect("precision matches")
}

fn median_ns(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let quick = std::env::var_os("SMAT_BENCH_QUICK").is_some();
    if let Some(t) = std::env::var("SMAT_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        smat_kernels::exec::set_thread_target(t);
    }
    let n = if quick { 12_000 } else { 20_000 };
    let (samples, iters): (usize, u32) = if quick { (9, 4) } else { (15, 10) };
    let widths = [1usize, 2, 4, 8];

    let e = engine();
    let m = random_uniform::<f64>(n, n, 12, 93);
    println!("spmv_spmm: quick={quick} matrix {n}x{n} nnz={}", m.nnz());
    let tuned = e.prepare(&m);

    // Tune the SpMM pick at the widest width first, so every series
    // below replays the same searched kernel, then name it.
    let kmax = *widths.last().unwrap();
    let x8: Vec<f64> = (0..n * kmax)
        .map(|i| 0.25 * ((i % 7) as f64) - 0.5)
        .collect();
    let mut y8 = vec![0.0f64; n * kmax];
    e.spmm(&tuned, &x8, &mut y8, kmax).expect("spmm tune call");
    let pick = e
        .library()
        .info(tuned.spmm_kernel().expect("the first spmm attached a pick"))
        .name;
    println!("  searched SpMM pick: {pick}");

    // Baseline: k separate tuned SpMV calls is 1 call's median times k.
    let x1: Vec<f64> = (0..n).map(|i| 0.25 * ((i % 7) as f64) - 0.5).collect();
    let mut y1 = vec![0.0f64; n];
    for _ in 0..iters {
        e.spmv(&tuned, &x1, &mut y1).expect("warm spmv");
    }
    let spmv_ns = median_ns(
        (0..samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    e.spmv(&tuned, black_box(&x1), &mut y1).expect("spmv");
                }
                t.elapsed().as_nanos() / u128::from(iters)
            })
            .collect(),
    );
    println!("  spmv baseline: {spmv_ns} ns/call");

    struct Point {
        k: usize,
        median_ns: u128,
        ns_per_column: f64,
        per_column_improvement: f64,
    }
    let mut series = Vec::new();
    for &k in &widths {
        let x: Vec<f64> = (0..n * k).map(|i| 0.25 * ((i % 7) as f64) - 0.5).collect();
        let mut y = vec![0.0f64; n * k];
        for _ in 0..iters {
            e.spmm(&tuned, &x, &mut y, k).expect("warm spmm");
        }
        let med = median_ns(
            (0..samples)
                .map(|_| {
                    let t = Instant::now();
                    for _ in 0..iters {
                        e.spmm(&tuned, black_box(&x), &mut y, k).expect("spmm");
                    }
                    t.elapsed().as_nanos() / u128::from(iters)
                })
                .collect(),
        );
        let per_col = med as f64 / k as f64;
        let improvement = spmv_ns as f64 / per_col;
        println!(
            "  k={k}: {med:>10} ns/call  {per_col:>10.0} ns/column  {improvement:.2}x vs k x spmv"
        );
        series.push(Point {
            k,
            median_ns: med,
            ns_per_column: per_col,
            per_column_improvement: improvement,
        });
    }
    let at8 = series.last().expect("widths non-empty");
    if at8.per_column_improvement < 1.5 {
        println!(
            "  NOTE: k=8 per-column improvement {:.2}x below the 1.5x full-run target{}",
            at8.per_column_improvement,
            if quick { " (quick mode)" } else { "" }
        );
    }

    // Replay contract: a second prepare must come back cached with the
    // same SpMM kernel pre-populated and reproduce the k=8 product
    // bit for bit.
    let replayed = e.prepare(&m);
    let mut y8_replay = vec![0.0f64; n * kmax];
    e.spmm(&replayed, &x8, &mut y8_replay, kmax)
        .expect("replayed spmm");
    e.spmm(&tuned, &x8, &mut y8, kmax).expect("spmm refresh");
    let replay_kernel = e
        .library()
        .info(
            replayed
                .spmm_kernel()
                .expect("the first spmm attached a pick"),
        )
        .name;
    let replay_bitwise =
        replayed.decision().is_cached() && replay_kernel == pick && y8_replay == y8;
    assert!(
        replay_bitwise,
        "cached replay diverged: cached={} kernel {replay_kernel} vs {pick}",
        replayed.decision().is_cached()
    );
    println!("  cache replay: kernel {replay_kernel}, bitwise identical");

    let threads = smat_kernels::exec::num_threads();
    let rows: Vec<String> = series
        .iter()
        .map(|p| {
            format!(
                "    {{\"k\": {}, \"median_ns\": {}, \"ns_per_column\": {:.1}, \"per_column_improvement\": {:.4}}}",
                p.k, p.median_ns, p.ns_per_column, p.per_column_improvement
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"spmv_spmm\",\n  \"unit\": \"ns_per_call_median\",\n  \"quick\": {quick},\n  \"threads\": {threads},\n  \"matrix\": {{\"name\": \"uniform\", \"rows\": {n}, \"cols\": {n}, \"nnz\": {}}},\n  \"spmv_median_ns\": {spmv_ns},\n  \"spmm_kernel\": \"{pick}\",\n  \"replay_bitwise\": {replay_bitwise},\n  \"series\": [\n{}\n  ]\n}}\n",
        m.nnz(),
        rows.join(",\n")
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_spmm.json");
    std::fs::write(&out, json).expect("write BENCH_spmm.json");
    println!("wrote {}", out.display());
}
