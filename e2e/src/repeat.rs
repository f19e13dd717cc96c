//! `--repeat N`: the repeatability gate. Runs one workload `N` times in
//! fresh child processes (a fresh process is the only honest repeat:
//! allocator state, page cache and pool are all new), each on the next
//! seed, and prints per end-to-end metric the minimum, median and
//! maximum, the largest pairwise relative deviation, and the quartile
//! spread over the median — the figure the acceptance check compares
//! with the metric's bound. Used when accepting the benchmark and when
//! re-measuring a baseline.

use crate::harness::END_TO_END;
use crate::stats::{iqr_over_median, percentile, Better};
use crate::Args;
use serde::Value;
use std::collections::BTreeMap;
use std::process::Command;

/// One child's metrics by name, or why there are none.
fn run_child(args: &Args, workload: &str, seed: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()]);
    if args.quick {
        command.arg("--quick");
    }
    // `output` waits for the child to end before it returns.
    let output = command
        .output()
        .map_err(|e| format!("starting a child run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child run (seed {seed}) ended with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("child run (seed {seed}) printed nothing"))?;
    let result = serde_json::parse(last).map_err(|e| format!("child result line: {e:?}"))?;
    let field = |v: &Value, key: &str| -> Option<Value> {
        v.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    if !matches!(field(&result, "correct"), Some(Value::Bool(true))) {
        return Err(format!("child run (seed {seed}) reported incorrect products"));
    }
    let metrics = field(&result, "metrics").ok_or("child result has no metrics")?;
    let mut out = BTreeMap::new();
    for (name, entry) in metrics.as_object().unwrap_or(&[]) {
        let value = match field(entry, "value") {
            Some(Value::Float(f)) => f,
            Some(Value::Int(i)) => i as f64,
            Some(Value::UInt(u)) => u as f64,
            _ => return Err(format!("metric {name} has no numeric value")),
        };
        out.insert(name.clone(), value);
    }
    Ok(out)
}

/// Runs the gate; `Ok(true)` when every spread is within its bound.
pub fn repeat(args: &Args, workload: &str, runs: usize) -> Result<bool, String> {
    if runs < 2 {
        return Err("--repeat needs at least 2 runs".to_string());
    }
    let mut columns: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for i in 0..runs {
        let seed = args.seed + i as u64;
        let metrics = run_child(args, workload, seed)?;
        eprintln!("e2e: run {}/{runs} (seed {seed}) done", i + 1);
        for (name, value) in metrics {
            columns.entry(name).or_default().push(value);
        }
    }
    println!(
        "{workload}: {runs} runs, seeds {}..={}, {} s each{}",
        args.seed,
        args.seed + runs as u64 - 1,
        args.seconds,
        if args.quick { ", quick (not a baseline)" } else { "" }
    );
    println!(
        "{:<20} {:>8} {:>7} {:>12} {:>12} {:>12} {:>9} {:>9} {:>6}  verdict",
        "metric", "unit", "better", "min", "median", "max", "pairwise", "iqr/med", "bound"
    );
    let mut steady = true;
    for def in END_TO_END {
        let Some(values) = columns.get(def.name) else {
            return Err(format!("no child reported {}", def.name));
        };
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let pairwise = (max - min) / min.abs().max(f64::MIN_POSITIVE);
        let spread = iqr_over_median(values);
        // The set-up time's spread is reported but not gated: it is
        // the one single-shot quantity, and carries the widest bound.
        let within = spread <= def.bound || def.name == "setup_s";
        steady &= within;
        println!(
            "{:<20} {:>8} {:>7} {:>12.5} {:>12.5} {:>12.5} {:>8.1}% {:>8.1}% {:>5.0}%  {}",
            def.name,
            def.unit,
            match def.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            },
            min,
            percentile(values, 0.5),
            max,
            pairwise * 100.0,
            spread * 100.0,
            def.bound * 100.0,
            match (within, spread <= def.bound / 3.0) {
                (true, true) => "steady",
                (true, false) => "within bound, above a third of it",
                (false, _) => "TOO NOISY",
            }
        );
    }
    Ok(steady)
}
