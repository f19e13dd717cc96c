//! `--regen-fixtures`: rewrites `fixtures/kernel_choice.txt` from live
//! kernel searches on this machine and `fixtures/expected_decisions.txt`
//! from the decisions the pinned model then takes. Run it after a
//! change to the kernel library or the feature extractor, on a quiet
//! machine, and commit the result as a benchmark-only change.
//! `--regen-decisions` rewrites the second file alone.

use crate::common::{throughput_engine, Decisions};
use crate::inputs::{self, Scale};
use crate::lib_amg::off_path_operators;
use crate::pinned::{parse_kernel_choice, pinned_model_with};
use crate::probes::SEARCH_PROBE_DIM;
use smat::{SmatConfig, Trainer};
use smat_amg::{AmgConfig, AmgSolver, CycleConfig};
use smat_kernels::KernelLibrary;
use smat_matrix::Format;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Live searches the modal winner is taken over.
const SEARCHES: usize = 7;

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

/// The most frequent name; ties go to the name that won first.
fn modal<'a>(winners: &[&'a str]) -> &'a str {
    let mut counts: Vec<(&str, usize)> = Vec::new();
    for w in winners {
        match counts.iter_mut().find(|(name, _)| name == w) {
            Some((_, n)) => *n += 1,
            None => counts.push((w, 1)),
        }
    }
    let best = counts.iter().map(|&(_, n)| n).max().unwrap_or(0);
    counts
        .iter()
        .find(|&&(_, n)| n == best)
        .map_or("", |&(name, _)| name)
}

/// `--regen-fixtures`: both fixtures, kernel table first.
pub fn regen_fixtures() -> Result<(), String> {
    let lib = KernelLibrary::<f64>::new();
    let trainer = Trainer::new(SmatConfig {
        probe_dim: SEARCH_PROBE_DIM,
        ..SmatConfig::default()
    });
    let mut winners: BTreeMap<usize, Vec<&'static str>> = BTreeMap::new();
    for search in 0..SEARCHES {
        let (choice, _tables) = trainer.search_kernels(&lib);
        for format in Format::ALL {
            let name = lib.info(choice.kernel(format)).name;
            winners.entry(format.index()).or_default().push(name);
        }
        eprintln!("e2e: kernel search {}/{SEARCHES} done", search + 1);
    }

    let threads = smat_kernels::exec::num_threads();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "# Pinned kernel table: `FORMAT variant_name`, one line per format.\n\
         # Written by `e2e --regen-fixtures`: the modal winner of {SEARCHES} live\n\
         # `Trainer::search_kernels` runs (probe_dim {SEARCH_PROBE_DIM}, default budgets,\n\
         # {threads} threads) on the builder's machine. Evidence — the winner of\n\
         # each search, in order — follows every line."
    );
    for format in Format::ALL {
        let seen = &winners[&format.index()];
        let _ = writeln!(text, "{} {}", format.name(), modal(seen));
        let _ = writeln!(text, "#   searches: {}", seen.join(" "));
    }
    parse_kernel_choice(&text, &lib)?;
    std::fs::write(fixture_path("kernel_choice.txt"), &text)
        .map_err(|e| format!("writing kernel_choice.txt: {e}"))?;
    print!("{text}");
    regen_decisions()
}

/// `--regen-decisions`: rewrites only `expected_decisions.txt`, from
/// the kernel table as it is on disk (after resizing an input, or
/// after editing the table by hand to merge several sessions).
pub fn regen_decisions() -> Result<(), String> {
    let table = std::fs::read_to_string(fixture_path("kernel_choice.txt"))
        .map_err(|e| format!("reading kernel_choice.txt: {e}"))?;
    let pinned = pinned_model_with(Scale::Full, &table)?;
    let engine = throughput_engine(&pinned.model)?;
    let mut decisions = String::from(
        "# Expected decision per named input: `input FORMAT kernel`, and per AMG\n\
         # problem `problem off_path <operators that left the Predicted path>`.\n\
         # Written by `e2e --regen-fixtures` (seed 1, full scale). A run that\n\
         # decides otherwise counts it in core.decision_drift.\n",
    );
    let named = inputs::suite(1, Scale::Full)
        .into_iter()
        .chain(inputs::warm_matrices(1, Scale::Full));
    for input in named {
        let tuned = engine.prepare(&input.matrix);
        let _ = writeln!(
            decisions,
            "{} {} {}",
            input.name,
            tuned.format().name(),
            engine.library().info(tuned.kernel()).name
        );
    }
    for problem in inputs::amg_problems(Scale::Full) {
        engine.clear_cache();
        let solver = AmgSolver::with_smat(
            problem.matrix,
            &AmgConfig::default(),
            CycleConfig::default(),
            &engine,
        );
        let off_path = off_path_operators(&solver, &mut Decisions::default());
        let _ = writeln!(decisions, "{} off_path {off_path}", problem.name);
    }
    std::fs::write(fixture_path("expected_decisions.txt"), &decisions)
        .map_err(|e| format!("writing expected_decisions.txt: {e}"))?;
    print!("{decisions}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modal_winner_breaks_ties_by_first_seen() {
        assert_eq!(modal(&["a", "b", "b", "a", "b"]), "b");
        assert_eq!(modal(&["a", "b"]), "a");
        assert_eq!(modal(&["c"]), "c");
    }
}
