//! The "make parallel pay" tier: per-variant SpMV throughput on a
//! *skewed* (power-law) matrix versus a uniform control, across the
//! chunk policies the plan search races.
//!
//! Four series per matrix, each replaying a frozen [`ExecPlan`] the way
//! a prepared `Smat` handle would:
//!
//! * `csr_basic` — the serial baseline (single-chunk plan).
//! * `csr_parallel` + `equal_rows` — uniform row split; on a skewed
//!   matrix one chunk inherits the hot rows and the fan-out waits on it.
//! * `csr_parallel_balanced` + `nnz_balanced` — row chunks sized by
//!   nonzero count.
//! * `csr_merge` + `merge_path` — equal entry ranges that split rows
//!   mid-stream, with the serial carry fix-up.
//!
//! Results go to `BENCH_parallel.json` at the workspace root.
//! `SMAT_BENCH_QUICK=1` shrinks the matrices and sample counts;
//! `SMAT_BENCH_THREADS=N` requests the pool width (it must be set
//! before the pool's first build, which is why this bench — not the
//! caller — forwards it). On a 1-core box without that override every
//! fan-out runs inline and the parallel series measure dispatch
//! overhead only; the artifact records the resolved width so readers
//! can tell.

use smat_kernels::{ChunkPolicy, ExecPlan, KernelLibrary};
use smat_matrix::gen::{power_law, random_uniform};
use smat_matrix::{AnyMatrix, Csr, Format};
use std::hint::black_box;
use std::time::Instant;

struct Series {
    kernel: &'static str,
    policy: ChunkPolicy,
    chunks: usize,
    median_ns: u128,
    min_ns: u128,
    max_ns: u128,
}

fn time_planned(
    lib: &KernelLibrary<f64>,
    any: &AnyMatrix<f64>,
    kernel: &'static str,
    plan: &ExecPlan,
    samples: usize,
    iters: u32,
) -> Series {
    let v = lib
        .variants(Format::Csr)
        .iter()
        .position(|i| i.name == kernel)
        .expect("builtin CSR variant");
    let (rows, cols) = match any {
        AnyMatrix::Csr(m) => (m.rows(), m.cols()),
        _ => unreachable!("bench is CSR-only"),
    };
    let x = vec![1.0f64; cols];
    let mut y = vec![0.0f64; rows];
    for _ in 0..iters {
        lib.run_planned(any, v, plan, &x, &mut y); // warm-up
    }
    let mut per_call: Vec<u128> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                lib.run_planned(black_box(any), v, black_box(plan), black_box(&x), &mut y);
            }
            t.elapsed().as_nanos() / u128::from(iters)
        })
        .collect();
    per_call.sort_unstable();
    Series {
        kernel,
        policy: plan.policy,
        chunks: plan.chunks(),
        median_ns: per_call[per_call.len() / 2],
        min_ns: per_call[0],
        max_ns: *per_call.last().expect("samples >= 1"),
    }
}

fn bench_matrix(
    lib: &KernelLibrary<f64>,
    name: &str,
    m: &Csr<f64>,
    samples: usize,
    iters: u32,
) -> (String, Vec<Series>) {
    let any = AnyMatrix::Csr(m.clone());
    let width = smat_kernels::exec::num_threads().max(1) * 2;
    let pairs: Vec<(&'static str, ExecPlan)> = vec![
        ("csr_basic", ExecPlan::serial(m.rows())),
        (
            "csr_parallel",
            lib.build_plan_sized(&any, ChunkPolicy::EqualRows, width),
        ),
        (
            "csr_parallel_balanced",
            lib.build_plan_sized(&any, ChunkPolicy::NnzBalanced, width),
        ),
        (
            "csr_merge",
            lib.build_plan_sized(&any, ChunkPolicy::MergePath, width),
        ),
    ];
    // Warmup pass: exercise every kernel/plan pair before any series
    // is timed. The per-series warm-up inside `time_planned` is not
    // enough for the last pair measured — by then the pool has parked
    // between series, and the first merge-path samples on the uniform
    // control paid the cold wake plus first-touch of the carry
    // buffers, showing up as a spurious csr_merge outlier in
    // BENCH_parallel.json's regression gate.
    {
        let x = vec![1.0f64; m.cols()];
        let mut y = vec![0.0f64; m.rows()];
        for _ in 0..2 {
            for (kernel, plan) in &pairs {
                let v = lib
                    .variants(Format::Csr)
                    .iter()
                    .position(|i| i.name == *kernel)
                    .expect("builtin CSR variant");
                lib.run_planned(&any, v, plan, &x, &mut y);
            }
        }
    }
    let series: Vec<Series> = pairs
        .iter()
        .map(|(kernel, plan)| time_planned(lib, &any, kernel, plan, samples, iters))
        .collect();
    println!("  {name}: {}x{} nnz={}", m.rows(), m.cols(), m.nnz());
    for s in &series {
        println!(
            "    {:<22} {:<13} chunks={:<3} median {:>10} ns/call  (min {}, max {})",
            s.kernel,
            s.policy.name(),
            s.chunks,
            s.median_ns,
            s.min_ns,
            s.max_ns
        );
    }
    let rows: Vec<String> = series
        .iter()
        .map(|s| {
            format!(
                "      {{\"kernel\": \"{}\", \"chunk_policy\": \"{}\", \"chunks\": {}, \"median_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
                s.kernel,
                s.policy.name(),
                s.chunks,
                s.median_ns,
                s.min_ns,
                s.max_ns
            )
        })
        .collect();
    let json = format!(
        "    {{\n      \"matrix\": \"{name}\",\n      \"rows\": {}, \"cols\": {}, \"nnz\": {},\n      \"series\": [\n{}\n      ]\n    }}",
        m.rows(),
        m.cols(),
        m.nnz(),
        rows.join(",\n")
    );
    (json, series)
}

fn main() {
    let quick = std::env::var_os("SMAT_BENCH_QUICK").is_some();
    // Must run before the first pool use: the worker pool is sized
    // exactly once, so a target set any later is silently ignored.
    if let Some(t) = std::env::var("SMAT_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        smat_kernels::exec::set_thread_target(t);
    }
    // Quick mode stays large enough that the fixed per-call dispatch
    // cost (pool wake/park) amortizes: on a 1-core runner a 4k matrix
    // makes every parallel series look ~15% slower than serial, which
    // would trip the uniform-control regression gate on noise alone.
    let n = if quick { 12_000 } else { 20_000 };
    let (samples, iters) = if quick { (9, 4) } else { (15, 10) };

    let lib = KernelLibrary::<f64>::new();
    // The skewed protagonist: power-law row degrees (seeded, so the
    // artifact is reproducible) — and a uniform control where the
    // balanced policies have nothing to win and must not lose.
    let skew = power_law::<f64>(n, n / 10, 2.0, 91);
    let uniform = random_uniform::<f64>(n, n, 12, 92);

    println!("spmv_parallel: quick={quick}");
    let (skew_json, _) = bench_matrix(&lib, "power_law", &skew, samples, iters);
    let (uni_json, uni_series) = bench_matrix(&lib, "uniform", &uniform, samples, iters);

    // Resolved after the series ran — the width the measurements used.
    let threads = smat_kernels::exec::num_threads();
    let spawns = smat_kernels::exec::spawn_count();
    println!("  threads={threads} pool_spawns={spawns}");
    if threads == 1 {
        println!("  (1 hardware thread: fan-outs run inline; the series compare dispatch + partition shape, not parallel speedup)");
    }
    // The uniform control is the regression guard CI keys on: merge's
    // carry machinery must stay within noise of plain CSR there.
    let basic = uni_series.iter().find(|s| s.kernel == "csr_basic").unwrap();
    let merge = uni_series.iter().find(|s| s.kernel == "csr_merge").unwrap();
    println!(
        "  uniform control: csr_merge/csr_basic median ratio = {:.3}",
        merge.median_ns as f64 / basic.median_ns as f64
    );

    let json = format!(
        "{{\n  \"bench\": \"spmv_parallel\",\n  \"unit\": \"ns_per_call_median\",\n  \"threads\": {threads},\n  \"pool_spawns\": {spawns},\n  \"quick\": {quick},\n  \"matrices\": [\n{skew_json},\n{uni_json}\n  ]\n}}\n"
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_parallel.json");
    std::fs::write(&out, json).expect("write BENCH_parallel.json");
    println!("wrote {}", out.display());
}
