//! The dominance sweep behind the kernel library's deletion rule:
//! every SpMV and SpMM variant of every format, timed on several
//! matrices the format is built for, in both precisions, at 1 thread
//! and at `nproc` threads, with each variant's closest approach to its
//! format's front written to `BENCH_kernels.json` at the workspace
//! root.
//!
//! The rule the artifact is read against (and CI gates on): a variant
//! whose `closest_to_front` exceeds 1.10 — it never came within 10% of
//! the fastest variant of its format on any matrix, precision or thread
//! count — is deleted, except row 0 of each table (the containment
//! reference) and the rows `e2e/fixtures/kernel_choice.txt` pins by
//! name.
//!
//! Reading the numbers honestly:
//!
//! * Variants are timed through `run_planned` / `run_spmm_planned` with
//!   their default plan — the one dispatch the search times and the
//!   engine serves.
//! * The estimator is the tuner's own (`timing::measure_round_robin`):
//!   all variants of a format take one sample per round, round-robin,
//!   and a variant's time is its fastest round — a busy spell on a
//!   shared host slows a whole round, not one variant.
//! * The front is per `(matrix, precision, threads)` cell (and per `k`
//!   for SpMM); ratios are comparable within a format, not across.
//! * The pool is sized once per process, so each thread count runs in a
//!   child process (`SMAT_BENCH_THREADS=N`, which also runs one count by
//!   hand and prints the raw cells without writing the artifact). On a
//!   1-core box both counts are 1 and the parallel variants measure
//!   dispatch overhead only; `thread_counts` records what ran.
//!
//! `SMAT_BENCH_QUICK=1` shrinks the matrices and rounds for CI smoke
//! runs.

use smat_kernels::timing::{measure_round_robin, MARGIN};
use smat_kernels::{simd, KernelId, KernelInfo, KernelLibrary, Op};
use smat_matrix::gen::{
    banded, block_sparse, fixed_degree, laplacian_2d_9pt, power_law, random_skewed, random_uniform,
};
use smat_matrix::{AnyMatrix, ConversionLimits, Csr, Format, Scalar};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Duration;

/// A variant must come within this factor of its format's front
/// somewhere to stay: the front may not beat it by more than the margin
/// the tuner's `decide` demands of a challenger.
const WITHIN: f64 = 1.0 + MARGIN;
/// RHS widths the SpMM tier is swept at.
const SPMM_WIDTHS: [usize; 4] = [2, 4, 8, 16];

/// Matrices each format is measured on: the offline search's probe
/// archetype, the shapes the end-to-end benchmark feeds that format,
/// and one more of the family. `n` is the base row count.
fn suited<T: Scalar>(format: Format, n: usize) -> Vec<(&'static str, Csr<T>)> {
    let side = (n as f64).sqrt() as usize;
    match format {
        Format::Dia => vec![
            (
                "band9",
                banded(n, &[-4, -2, -1, 0, 1, 2, 3, 5, 8], 1.0, 0xD1A),
            ),
            (
                "band7_wide",
                banded(2 * n, &[-300, -299, -1, 0, 1, 299, 300], 1.0, 0xD1B),
            ),
            ("lap9", laplacian_2d_9pt(side, side)),
            ("band5", banded(n / 4, &[-40, -1, 0, 1, 40], 1.0, 0xD1C)),
        ],
        Format::Ell => vec![
            ("deg16", fixed_degree(n, n, 16, 0, 0xE11)),
            ("deg4", fixed_degree(2 * n, 2 * n, 4, 0, 0xE12)),
            ("rect3", fixed_degree(3 * n, n / 4, 3, 0, 0xE13)),
            ("deg6", fixed_degree(n / 4, n / 4, 6, 0, 0xE14)),
        ],
        Format::Csr => vec![
            ("uniform16", random_uniform(n, n, 16, 0xC59)),
            ("uniform12", random_uniform(n, n, 12, 3)),
            ("uniform6", random_uniform(n / 4, n / 4, 6, 0xC5A)),
            ("skew", random_skewed(n, n, 12, 0.04, 16, 0xC5B)),
            ("plaw", power_law(n, (n / 8).clamp(8, 4096), 2.0, 0xC5C)),
        ],
        Format::Coo => vec![
            ("plaw20", power_law(n, (n / 8).clamp(8, 4096), 2.0, 0xC00)),
            ("plaw22", power_law(n, 600.min(n / 2), 2.2, 0xC01)),
            ("plaw18", power_law(n / 4, 200.min(n / 8), 1.8, 0xC02)),
        ],
        Format::Hyb => vec![
            ("skew12", random_skewed(n, n, 12, 0.04, 16, 0x44B)),
            ("skew5", random_skewed(n, n, 5, 0.04, 8, 0x44C)),
            ("skew8", random_skewed(n / 4, n / 4, 8, 0.1, 6, 0x44D)),
        ],
        Format::Bcsr2 => vec![
            ("block2x8", block_sparse(n - n % 2, 2, 8, 0xBC52)),
            ("block2x3", block_sparse(n - n % 2, 2, 3, 0xBC53)),
            (
                "block2x16",
                block_sparse(n / 4 - (n / 4) % 2, 2, 16, 0xBC55),
            ),
        ],
        Format::Bcsr4 => vec![
            ("block4x4", block_sparse(n - n % 4, 4, 4, 0xBC54)),
            ("block4x3", block_sparse(n - n % 4, 4, 3, 0xBC56)),
            ("block4x8", block_sparse(n / 4 - (n / 4) % 4, 4, 8, 0xBC57)),
        ],
    }
}

/// Quiet floor, in ns per call, of `count` rows on one cell: the tuner's
/// round-robin at `rounds` samples of `iters` calls each per row.
fn floors(count: usize, rounds: usize, iters: u32, mut call: impl FnMut(usize)) -> Vec<u128> {
    let outcomes = measure_round_robin(
        count,
        |v| (0..iters).for_each(|_| call(v)),
        rounds..=rounds,
        Duration::ZERO,
        Duration::MAX,
        None,
    );
    outcomes
        .iter()
        .map(|o| match o.ok() {
            Some(floor) => floor.as_nanos() / u128::from(iters),
            None => panic!("a library row failed the sweep: {:?}", o.failure()),
        })
        .collect()
}

/// One thread count's share of the sweep, printed as tab-separated
/// `cell` lines: op, format, precision, matrix (`name@k` for SpMM),
/// rows, cols, nnz, variant, floor ns.
fn sweep<T: Scalar>(precision: &str, n: usize, rounds: usize, iters: u32) {
    let lib = KernelLibrary::<T>::new();
    for format in Format::ALL {
        for (matrix, m) in suited::<T>(format, n) {
            let any = AnyMatrix::convert_from_csr_with(&m, format, &ConversionLimits::default())
                .expect("suited matrices convert to their own format under default limits");
            let shape = format!("{}\t{}\t{}", m.rows(), m.cols(), m.nnz());
            let emit = |op: &str, matrix: &str, rows: &[KernelInfo], floors: &[u128]| {
                for (info, ns) in rows.iter().zip(floors) {
                    println!(
                        "cell\t{op}\t{}\t{precision}\t{matrix}\t{shape}\t{}\t{ns}",
                        format.name(),
                        info.name
                    );
                }
            };
            let plans = |op: Op, count: usize| -> Vec<_> {
                (0..count)
                    .map(|variant| {
                        let id = KernelId {
                            op,
                            format,
                            variant,
                        };
                        lib.plan_for(&any, id)
                    })
                    .collect()
            };

            let rows = lib.variants(format);
            let plan = plans(Op::Spmv, rows.len());
            let x = vec![T::ONE; m.cols()];
            let mut y = vec![T::ZERO; m.rows()];
            let ns = floors(rows.len(), rounds, iters, |v| {
                lib.run_planned(black_box(&any), v, &plan[v], black_box(&x), &mut y)
            });
            emit("spmv", matrix, rows, &ns);

            let rows = lib.spmm_variants(format);
            let plan = plans(Op::Spmm, rows.len());
            for k in SPMM_WIDTHS.into_iter().filter(|_| !rows.is_empty()) {
                let x = vec![T::ONE; m.cols() * k];
                let mut y = vec![T::ZERO; m.rows() * k];
                let ns = floors(rows.len(), rounds, 1, |v| {
                    lib.run_spmm_planned(black_box(&any), v, &plan[v], black_box(&x), &mut y, k)
                });
                emit("spmm", &format!("{matrix}@{k}"), rows, &ns);
            }
        }
    }
}

/// The kernel names `e2e/fixtures/kernel_choice.txt` pins.
fn pinned() -> Vec<&'static str> {
    include_str!("../../../e2e/fixtures/kernel_choice.txt")
        .lines()
        .map(|line| line.split('#').next().unwrap_or("").trim())
        .filter_map(|line| line.split_whitespace().nth(1))
        .collect()
}

/// `(matrix → floor ns)` per `precision@threads` series of one variant.
type Series = BTreeMap<String, BTreeMap<String, u128>>;

/// Renders one `(op, format)` block of the artifact from the merged
/// cells: per variant its floors, its closest approach to the front per
/// series, and the minimum of those.
fn format_block(
    format: Format,
    rows: &[KernelInfo],
    shapes: &BTreeMap<String, String>,
    cells: &BTreeMap<String, Series>,
    failures: &mut Vec<String>,
) -> String {
    // The front of each (series, matrix) cell: the fastest variant.
    let mut front: BTreeMap<(&str, &str), u128> = BTreeMap::new();
    for series in cells.values() {
        for (name, by_matrix) in series {
            for (matrix, &ns) in by_matrix {
                let best = front.entry((name, matrix)).or_insert(u128::MAX);
                *best = (*best).min(ns);
            }
        }
    }
    let pinned = pinned();
    let mut out = String::new();
    let matrices: Vec<String> = shapes.values().cloned().collect();
    let _ = write!(
        out,
        "    {{\n      \"format\": \"{}\",\n      \"matrices\": [{}],\n      \"variants\": [\n",
        format.name(),
        matrices.join(", ")
    );
    for (v, info) in rows.iter().enumerate() {
        let series = &cells[info.name];
        let mut closest: Vec<String> = Vec::new();
        let mut floors: Vec<String> = Vec::new();
        let mut overall = f64::INFINITY;
        for (name, by_matrix) in series {
            let ratio = by_matrix
                .iter()
                .map(|(matrix, &ns)| ns as f64 / front[&(name.as_str(), matrix.as_str())] as f64)
                .fold(f64::INFINITY, f64::min);
            overall = overall.min(ratio);
            closest.push(format!("\"{name}\": {ratio:.3}"));
            let per: Vec<String> = by_matrix
                .iter()
                .map(|(matrix, ns)| format!("\"{matrix}\": {ns}"))
                .collect();
            floors.push(format!("\"{name}\": {{{}}}", per.join(", ")));
        }
        let (row0, is_pinned) = (v == 0, pinned.contains(&info.name));
        if overall > WITHIN && !row0 && !is_pinned {
            failures.push(format!("{} ({overall:.3})", info.name));
        }
        let strategies: Vec<String> = info
            .strategies
            .iter()
            .map(|s| format!("\"{}\"", s.name()))
            .collect();
        let _ = writeln!(
            out,
            "        {{\"name\": \"{}\", \"strategies\": [{}], \"row0\": {row0}, \"pinned\": {is_pinned}, \"closest_to_front\": {overall:.3},\n         \"closest\": {{{}}},\n         \"floor_ns\": {{{}}}}}{}",
            info.name,
            strategies.join(", "),
            closest.join(", "),
            floors.join(", "),
            if v + 1 == rows.len() { "" } else { "," }
        );
    }
    out.push_str("      ]\n    }");
    out
}

fn main() {
    let quick = std::env::var_os("SMAT_BENCH_QUICK").is_some();
    let (n, rounds, iters) = if quick {
        (4_000, 3, 1)
    } else {
        (40_000, 25, 2)
    };

    // Child (or by-hand) mode: one thread count, raw cells on stdout.
    if let Some(t) = std::env::var("SMAT_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        // Must run before the first pool use: the pool is sized once.
        smat_kernels::exec::set_thread_target(t);
        println!("threads\t{}", smat_kernels::exec::num_threads());
        println!("simd\t{}", simd::active_backend());
        sweep::<f32>("f32", n, rounds, iters);
        sweep::<f64>("f64", n, rounds, iters);
        return;
    }

    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut thread_counts = vec![1, nproc];
    thread_counts.dedup();
    // (op, format) → variant → series → matrix → floor ns.
    let mut cells: BTreeMap<(String, String), BTreeMap<String, Series>> = BTreeMap::new();
    // (op, format) → matrix → rendered shape.
    let mut shapes: BTreeMap<(String, String), BTreeMap<String, String>> = BTreeMap::new();
    let mut simd_backend = String::new();
    for &threads in &thread_counts {
        eprintln!("spmv_variants: sweeping at {threads} thread(s), n={n}, {rounds} rounds");
        let child = std::process::Command::new(std::env::current_exe().expect("own path"))
            .env("SMAT_BENCH_THREADS", threads.to_string())
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("re-running the sweep as a child process");
        assert!(
            child.status.success(),
            "sweep child failed at {threads} threads"
        );
        for line in String::from_utf8_lossy(&child.stdout).lines() {
            let f: Vec<&str> = line.split('\t').collect();
            match f[..] {
                ["simd", backend] => simd_backend = backend.to_string(),
                ["threads", resolved] => assert_eq!(resolved, threads.to_string()),
                ["cell", op, format, precision, matrix, rows, cols, nnz, variant, ns] => {
                    let key = (op.to_string(), format.to_string());
                    shapes.entry(key.clone()).or_default().insert(
                        matrix.to_string(),
                        format!("{{\"name\": \"{matrix}\", \"rows\": {rows}, \"cols\": {cols}, \"nnz\": {nnz}}}"),
                    );
                    cells
                        .entry(key)
                        .or_default()
                        .entry(variant.to_string())
                        .or_default()
                        .entry(format!("{precision}@{threads}"))
                        .or_default()
                        .insert(matrix.to_string(), ns.parse().expect("floor ns"));
                }
                _ => {}
            }
        }
    }

    let lib = KernelLibrary::<f64>::new();
    let mut failures = Vec::new();
    let mut blocks: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for (op, name) in [(Op::Spmv, "spmv"), (Op::Spmm, "spmm")] {
        for format in Format::ALL {
            let rows = lib.table(op, format);
            let key = (name.to_string(), format.name().to_string());
            if let (Some(cells), Some(shapes)) = (cells.get(&key), shapes.get(&key)) {
                let block = format_block(format, rows, shapes, cells, &mut failures);
                blocks.entry(name).or_default().push(block);
            }
        }
    }
    let json = format!(
        "{{\n  \"bench\": \"spmv_variants\",\n  \"unit\": \"ns_per_call_quiet_floor\",\n  \"rounds\": {rounds},\n  \"quick\": {quick},\n  \"thread_counts\": {thread_counts:?},\n  \"precisions\": [\"f32\", \"f64\"],\n  \"spmm_widths\": {SPMM_WIDTHS:?},\n  \"simd_backend\": \"{simd_backend}\",\n  \"within\": {WITHIN},\n  \"formats\": [\n{}\n  ],\n  \"spmm_formats\": [\n{}\n  ]\n}}\n",
        blocks["spmv"].join(",\n"),
        blocks["spmm"].join(",\n")
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json");
    std::fs::write(&out, json).expect("write BENCH_kernels.json");
    println!("wrote {}", out.display());
    println!(
        "variants never within {WITHIN} of their format's front (row 0 and e2e-pinned exempt): {}",
        if failures.is_empty() {
            "none".to_string()
        } else {
            failures.join(", ")
        }
    );
}
