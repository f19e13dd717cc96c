//! Table 4: SMAT-based AMG vs. the CSR-only baseline.
//!
//! Runs the paper's two configurations — CLJP coarsening on a 7-point
//! 50^3 Laplacian and Ruge–Stüben on a 9-point 500^2 Laplacian — solving
//! with V-cycles in both the plain-CSR and SMAT-tuned hierarchies, and
//! reports the solve-phase times and speedup. The paper reports 1.22x
//! and 1.29x.
//!
//! Beside the solve it prints what the user pays before it: the
//! hierarchy's depth and operator complexity, the time to build it
//! (`setup`) and the time to tune its operators
//! (`CompiledHierarchy::with_smat` on a cold decision cache).

use smat_amg::{setup, AmgConfig, AmgSolver, Coarsening, CompiledHierarchy, CycleConfig};
use smat_bench::{amg_inputs, corpus_size, print_table, train_engine};
use smat_matrix::Csr;
use std::time::Instant;

fn solve_time(solver: &AmgSolver<f64>, n: usize) -> (f64, usize, bool) {
    let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 13) % 7) as f64 * 0.1).collect();
    let mut x = vec![0.0; n];
    let t0 = Instant::now();
    let stats = solver.solve(&b, &mut x, 1e-8, 100);
    (
        t0.elapsed().as_secs_f64() * 1e3,
        stats.iterations,
        stats.converged,
    )
}

fn bench_case(
    label: &str,
    a: Csr<f64>,
    coarsening: Coarsening,
    engine: &smat::Smat<f64>,
) -> Vec<String> {
    let n = a.rows();
    let amg_cfg = AmgConfig {
        coarsening,
        ..AmgConfig::default()
    };
    let cycle = CycleConfig::default();

    eprintln!("{label}: timing set-up ({n} rows)...");
    let t0 = Instant::now();
    let hierarchy = setup(a.clone(), &amg_cfg);
    let hierarchy_ms = t0.elapsed().as_secs_f64() * 1e3;
    engine.clear_cache();
    let t0 = Instant::now();
    std::hint::black_box(CompiledHierarchy::with_smat(&hierarchy, engine));
    let tuning_ms = t0.elapsed().as_secs_f64() * 1e3;

    eprintln!("{label}: setting up plain hierarchy...");
    let plain = AmgSolver::new(a.clone(), &amg_cfg, cycle);
    eprintln!("{label}: tuning hierarchy with SMAT...");
    let smart = AmgSolver::with_smat(a, &amg_cfg, cycle, engine);
    let formats: Vec<String> = smart
        .compiled()
        .a_formats()
        .iter()
        .map(|f| f.name().to_string())
        .collect();
    eprintln!("{label}: per-level A formats: {}", formats.join(" -> "));

    let (t_plain, it_plain, conv_plain) = solve_time(&plain, n);
    let (t_smat, it_smat, conv_smat) = solve_time(&smart, n);
    assert!(conv_plain && conv_smat, "both solvers must converge");
    assert_eq!(
        it_plain, it_smat,
        "identical hierarchies must iterate alike"
    );

    vec![
        label.to_string(),
        n.to_string(),
        hierarchy.num_levels().to_string(),
        format!("{:.2}", hierarchy.operator_complexity()),
        format!("{hierarchy_ms:.0}"),
        format!("{tuning_ms:.0}"),
        format!("{t_plain:.0}"),
        format!("{t_smat:.0}"),
        format!("{:.2}", t_plain / t_smat),
        it_plain.to_string(),
        formats.join("->"),
    ]
}

fn main() {
    let corpus = corpus_size();
    println!("== Table 4: SMAT-based AMG execution time (milliseconds) ==");
    println!("(training corpus: {corpus} matrices; grids overridable with SMAT_AMG_7PT / SMAT_AMG_9PT)\n");

    eprintln!("training model...");
    let engine = train_engine::<f64>(corpus, 0x7AB4);
    let (a7, a9) = amg_inputs::<f64>();

    let rows = vec![
        bench_case("cljp 7pt", a7, Coarsening::Cljp, &engine),
        bench_case("rugeL 9pt", a9, Coarsening::RugeStuben, &engine),
    ];
    print_table(
        &[
            "coarsen",
            "rows",
            "levels",
            "op. complexity",
            "hierarchy (ms)",
            "tuning (ms)",
            "Hypre-style AMG (ms)",
            "SMAT AMG (ms)",
            "speedup",
            "V-cycles",
            "A formats per level",
        ],
        &rows,
    );
    println!("\npaper (Xeon X5680): cljp 7pt 50^3 3034 -> 2487 ms (1.22x);");
    println!("rugeL 9pt 500^2 388 -> 300 ms (1.29x).");
}
