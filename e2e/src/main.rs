//! `e2e`: the end-to-end benchmark of the SMAT stack.
//!
//! ```text
//! e2e --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--quick] [--spans <file>]
//! e2e --repeat <N> --workload <name> [--seed <first>] [--seconds <n>] [--quick]
//! e2e --regen-fixtures | --regen-decisions
//! ```
//!
//! One run executes one workload: set-up (three times, median
//! reported), an untimed verification of every product, a discarded
//! warm-up round, then identical rounds of the workload's fixed script
//! until `--seconds` have passed. The last line of standard output is
//! the result object; the line before it carries run details (threads,
//! round count, `"quick": true` for a smoke run). See README.md.

mod common;
mod harness;
mod inputs;
mod lib_amg;
mod lib_suite;
mod pinned;
mod probes;
mod regen;
mod repeat;
mod serve;
mod stats;
mod trace;

use harness::{Ctx, Workload};
use inputs::Scale;

pub const WORKLOADS: [&str; 4] = ["lib_suite", "lib_amg", "serve_warm", "serve_cold"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub repeat: Option<usize>,
    pub regen_fixtures: bool,
    pub regen_decisions: bool,
    pub spans: Option<std::path::PathBuf>,
}

pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        quick: false,
        repeat: None,
        regen_fixtures: false,
        regen_decisions: false,
        spans: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("an integer")?
                    .parse()
                    .map_err(|_| "--seed is not a u64".to_string())?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds is not a number".to_string())?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--repeat" => {
                args.repeat = Some(
                    value("a count")?
                        .parse()
                        .map_err(|_| "--repeat is not a count".to_string())?,
                )
            }
            "--spans" => args.spans = Some(value("a file")?.into()),
            "--quick" => args.quick = true,
            "--regen-fixtures" => args.regen_fixtures = true,
            "--regen-decisions" => args.regen_decisions = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

/// Runs one workload and prints the detail and result lines. Returns
/// whether every product was correct.
fn run_one<W: Workload>(args: &Args, threads: usize) -> Result<bool, String> {
    let scale = if args.quick { Scale::Quick } else { Scale::Full };
    let mut ctx = Ctx::new(args.seed, scale, args.seconds, args.trace, threads);
    let values = harness::run::<W>(&mut ctx)?;
    if let Some(path) = &args.spans {
        ctx.tracer
            .write_jsonl(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let finite = values.values().all(|v| v.is_finite());
    let correct = ctx.failed == 0 && finite;
    let notes: Vec<String> = ctx
        .notes
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"quick\": {}, \"trace\": {}, \"threads\": {threads}, \"nproc\": {}, {}}}",
        W::NAME,
        args.seed,
        args.quick,
        args.trace,
        nproc(),
        notes.join(", ")
    );
    println!(
        "{}",
        harness::result_line(correct, ctx.attempted.max(1), ctx.failed, &values)
    );
    Ok(correct)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    // The thread rule: min(nproc, 4), fixed before the pool's first use.
    let threads = nproc().min(4);
    smat_kernels::exec::set_thread_target(threads);
    if args.regen_fixtures || args.regen_decisions {
        if args.regen_fixtures {
            regen::regen_fixtures()?;
        } else {
            regen::regen_decisions()?;
        }
        return Ok(true);
    }
    let workload = args
        .workload
        .clone()
        .ok_or_else(|| format!("--workload is required (one of {})", WORKLOADS.join(", ")))?;
    if let Some(n) = args.repeat {
        return repeat::repeat(&args, &workload, n);
    }
    match workload.as_str() {
        "lib_suite" => run_one::<lib_suite::LibSuite>(&args, threads),
        "lib_amg" => run_one::<lib_amg::LibAmg>(&args, threads),
        "serve_warm" => run_one::<serve::ServeWarm>(&args, threads),
        "serve_cold" => run_one::<serve::ServeCold>(&args, threads),
        other => Err(format!(
            "unknown workload {other:?} (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("e2e: verification failed");
            std::process::exit(1);
        }
        Err(message) => {
            eprintln!("e2e: {message}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let args = parse_args(&argv("--workload serve_cold --seed 42 --seconds 15 --trace 1"))
            .expect("parses");
        assert_eq!(args.workload.as_deref(), Some("serve_cold"));
        assert_eq!((args.seed, args.seconds, args.trace), (42, 15.0, true));
        assert!(!args.quick && args.repeat.is_none());
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        assert!(parse_args(&argv("--trace yes")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
    }
}
