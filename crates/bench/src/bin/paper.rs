//! Reproduces the paper's tables and figures from one labelled run per
//! precision.
//!
//! ```text
//! paper [--smoke] [TABLE...]
//! ```
//!
//! `TABLE` is any of `fig1 table1 fig3 fig6 fig9 fig10 table3 table4
//! accuracy` (§7.3); none means all. `--smoke` shrinks the run to a
//! 60-matrix corpus, AMG grids of 16³ and 64² and a 16³ Figure 1 grid.
//!
//! Each precision a requested table needs is built once (one corpus, one
//! kernel search, one labelling, one fit), and every table reads it.
//! Exits 1 when an invariant breaks or a gating claim does not hold: at
//! full size every claim gates, under `--smoke` only those in
//! [`SMOKE_GATES`], the ones that held in every smoke run on the
//! reference host.

use smat_bench::paper::{self, Run};
use smat_bench::representative_suite;
use std::process::ExitCode;

/// The tables, in print order.
const TABLES: [&str; 9] = [
    "fig1", "table1", "fig3", "fig6", "fig9", "fig10", "table3", "table4", "accuracy",
];

/// Claims that gate a `--smoke` run; the rest only print there. These
/// held in five of five smoke runs on a 2-vCPU host; the others held in
/// at most four (EXPERIMENTS.md, "One `paper` binary over one labelled corpus").
const SMOKE_GATES: &[&str] = &[
    "Figure 10 single: geometric mean >= 1",
    "Figure 10 double: geometric mean >= 1",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let asked: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--smoke")
        .collect();
    if let Some(bad) = asked.iter().find(|a| !TABLES.contains(a)) {
        eprintln!(
            "unknown table `{bad}`\nusage: paper [--smoke] [{}]...",
            TABLES.join("|")
        );
        return ExitCode::from(2);
    }
    let wanted = |t: &str| asked.is_empty() || asked.contains(&t);
    // Corpus, AMG 7-point and 9-point grids, Figure 1 grid.
    let (corpus, n7, n9, n1) = if smoke {
        (60, 16, 64, 16)
    } else {
        (600, 50, 500, 40)
    };
    let needs = |tables: &[&str]| tables.iter().any(|t| wanted(t));
    let label = |precision: &str| {
        eprintln!("labelling a {corpus}-matrix corpus in {precision} precision...");
    };
    let dp = needs(&[
        "table1", "fig6", "fig9", "fig10", "table3", "table4", "accuracy",
    ])
    .then(|| {
        label("double");
        Run::<f64>::build(corpus)
    });
    let sp = needs(&["fig9", "fig10", "accuracy"]).then(|| {
        label("single");
        Run::<f32>::build(corpus)
    });
    let (dp, sp) = (
        || dp.as_ref().expect("built"),
        || sp.as_ref().expect("built"),
    );
    let suite = representative_suite::<f64>();
    // Figures 9 and 10 read one measurement of the suite per precision.
    let tuned = needs(&["fig9", "fig10"]).then(|| {
        eprintln!("tuning the suite...");
        let sp_rows = paper::measure_suite(&sp().engine, &representative_suite::<f32>());
        (sp_rows, paper::measure_suite(&dp().engine, &suite))
    });
    let tuned = || tuned.as_ref().expect("measured");

    let (mut failed, mut held, mut claims) = (false, 0, 0);
    for table in TABLES.into_iter().filter(|t| wanted(t)) {
        eprintln!("{table}...");
        let report = match table {
            "fig1" => paper::fig1(n1),
            "table1" => paper::table1(dp()),
            "fig3" => paper::fig3(&suite, &paper::measure_fig3(&suite)),
            "fig6" => paper::fig6(dp()),
            "fig9" => paper::fig9(&tuned().0, &tuned().1),
            "fig10" => paper::fig10(&[("single", &tuned().0), ("double", &tuned().1)]),
            "table3" => paper::table3(&paper::measure_table3(&dp().engine, &suite)),
            "table4" => paper::table4(&dp().engine, n7, n9),
            "accuracy" => paper::accuracy(&[paper::held_out(sp()), paper::held_out(dp())]),
            _ => unreachable!("checked above"),
        };
        let report = match report {
            Ok(report) => report,
            Err(broken) => {
                eprintln!("invariant broken: {broken}");
                return ExitCode::FAILURE;
            }
        };
        println!("{}", report.text);
        for claim in &report.claims {
            let gates = !smoke || SMOKE_GATES.contains(&claim.name.as_str());
            let verdict = if claim.held { "held" } else { "not held" };
            let note = if gates {
                ""
            } else {
                " (prints only under --smoke)"
            };
            println!("{verdict}: {} — {}{note}", claim.name, claim.numbers);
            claims += 1;
            held += usize::from(claim.held);
            failed |= gates && !claim.held;
        }
        println!();
    }
    println!("paper: {held} of {claims} claims held");
    if failed {
        eprintln!("a gating claim did not hold");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
