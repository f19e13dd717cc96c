//! The one estimator behind every tuning decision, and the one rule
//! that turns its numbers into a pick.
//!
//! [`measure_round_robin`] times a set of candidates together. Each
//! candidate first runs once as a probe, which warms it and sizes its
//! sample count to the budget. Then the candidates take their samples
//! round by round, one sample of every live candidate per round, and a
//! candidate's estimate is its *floor*: its fastest sample. A busy spell
//! on a shared host slows a whole round rather than whichever candidate
//! happened to be running, so the floors stay comparable. [`decide`]
//! names a challenger over the preferred candidate only when it wins by
//! more than [`MARGIN`].
//!
//! The measurement is also the fault-isolation boundary of the tuning
//! pipeline: every run of every candidate executes inside
//! [`catch_unwind`] under a cooperative per-candidate deadline, so a
//! panicking or pathologically slow kernel is reported as a
//! [`MeasureOutcome`] instead of aborting tuning.

use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// How much faster than the preferred candidate a challenger must be,
/// as a share of the challenger's floor, before [`decide`] names it: a
/// floor still carries a few percent of host noise, and a gain inside
/// that noise does not pay for leaving the preferred candidate. The
/// kernel sweep's dominance rule keeps a table row on the same 10%.
pub const MARGIN: f64 = 0.10;

/// Outcome of one candidate's measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeasureOutcome {
    /// The candidate ran every sample it was given.
    Ok {
        /// Its fastest sample: the quiet floor.
        floor: Duration,
        /// How far its median sample lies above the floor.
        spread: Duration,
    },
    /// The candidate panicked; the stringified panic payload.
    Panicked(String),
    /// The candidate's deadline, or the caller's stop instant, passed
    /// before its samples were complete.
    ///
    /// The deadline is *cooperative*: a running sample cannot be
    /// interrupted from safe Rust, so it is checked before each sample
    /// and the candidate is abandoned at the first opportunity.
    TimedOut {
        /// Time the candidate had spent running when the check fired.
        elapsed: Duration,
        /// The configured deadline.
        deadline: Duration,
    },
}

impl MeasureOutcome {
    /// The candidate's floor, if it completed.
    pub fn ok(&self) -> Option<Duration> {
        match self {
            MeasureOutcome::Ok { floor, .. } => Some(*floor),
            _ => None,
        }
    }

    /// A short human-readable failure description, or `None` on success.
    pub fn failure(&self) -> Option<String> {
        match self {
            MeasureOutcome::Ok { .. } => None,
            MeasureOutcome::Panicked(msg) => Some(format!("kernel panicked: {msg}")),
            MeasureOutcome::TimedOut { elapsed, deadline } => Some(format!(
                "deadline exceeded: {elapsed:?} spent against a {deadline:?} budget"
            )),
        }
    }
}

/// Renders a panic payload (from [`catch_unwind`]) as a string: `&str`
/// and `String` payloads verbatim, anything else a placeholder.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One candidate's progress through [`measure_round_robin`].
#[derive(Default)]
struct Slot {
    /// Samples its budget bought.
    wanted: usize,
    /// Samples taken so far.
    taken: usize,
    /// Time spent running it, probe included: what its deadline meters.
    spent: Duration,
    /// Set once it has failed; it takes no further samples.
    failed: Option<MeasureOutcome>,
}

/// Measures `count` candidates together and returns one outcome per
/// candidate; `run(i)` runs candidate `i` once.
///
/// Each candidate runs one probe, whose time sizes its sample count to
/// roughly `budget` of sampling, clamped to `rounds`. The samples are
/// then interleaved: round `r` takes the `r`-th sample of every
/// candidate that wants one. A completed candidate's outcome is its
/// floor (fastest sample) and spread (median minus floor).
///
/// Every run, probe included, executes inside [`catch_unwind`], so a
/// panicking candidate fails alone as [`MeasureOutcome::Panicked`].
/// Before each run the candidate's own running time is checked against
/// `deadline`, and the clock against `stop` (a caller's request
/// deadline); either one abandons the candidate as
/// [`MeasureOutcome::TimedOut`] rather than trusting a truncated sample
/// set. The sample storage is allocated once, up front.
///
/// Failpoint `search.measure` fires inside the guard on every run:
/// scripted `panic`/`fail` unwind into `Panicked`, `delay` burns the
/// candidate's deadline into `TimedOut`.
pub fn measure_round_robin(
    count: usize,
    mut run: impl FnMut(usize),
    rounds: RangeInclusive<usize>,
    budget: Duration,
    deadline: Duration,
    stop: Option<Instant>,
) -> Vec<MeasureOutcome> {
    let max = (*rounds.end()).max(1);
    let min = (*rounds.start()).clamp(1, max);
    let mut samples = vec![Duration::ZERO; count * max];
    let mut slots: Vec<Slot> = (0..count).map(|_| Slot::default()).collect();
    // One guarded, deadlined, timed run of candidate `i`; `None` once
    // the candidate has failed.
    let mut timed = |i: usize, slot: &mut Slot| -> Option<Duration> {
        let t0 = Instant::now();
        if slot.spent > deadline || stop.is_some_and(|s| t0 >= s) {
            slot.failed = Some(MeasureOutcome::TimedOut {
                elapsed: slot.spent,
                deadline,
            });
            return None;
        }
        let ran = catch_unwind(AssertUnwindSafe(|| {
            if let Some(fault) = smat_failpoints::check("search.measure") {
                panic!("{fault}");
            }
            run(i);
        }));
        let t = t0.elapsed();
        slot.spent += t;
        match ran {
            Ok(()) => Some(t),
            Err(payload) => {
                slot.failed = Some(MeasureOutcome::Panicked(panic_message(payload.as_ref())));
                None
            }
        }
    };
    for (i, slot) in slots.iter_mut().enumerate() {
        if let Some(one) = timed(i, slot) {
            let bought = (budget.as_secs_f64() / one.as_secs_f64()).ceil();
            slot.wanted = bought.max(min as f64).min(max as f64) as usize;
        }
    }
    for _ in 0..max {
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.failed.is_some() || slot.taken == slot.wanted {
                continue;
            }
            if let Some(t) = timed(i, slot) {
                samples[i * max + slot.taken] = t;
                slot.taken += 1;
            }
        }
    }
    slots
        .into_iter()
        .zip(samples.chunks_mut(max))
        .map(|(slot, row)| match slot.failed {
            Some(failed) => failed,
            None => {
                let taken = &mut row[..slot.taken];
                taken.sort_unstable();
                MeasureOutcome::Ok {
                    floor: taken[0],
                    spread: taken[taken.len() / 2] - taken[0],
                }
            }
        })
        .collect()
}

/// The one selection rule over [`measure_round_robin`]'s outcomes.
///
/// Names the fastest candidate when it beats `preferred` by more than
/// [`MARGIN`], and `preferred` otherwise. Without a preferred
/// candidate, or when it failed, the fastest candidate that completed
/// wins outright. `None` when every candidate failed.
///
/// Callers prefer the candidate that costs least to keep: CSR over a
/// converted format, the serial plan over a fan-out plan.
pub fn decide(outcomes: &[MeasureOutcome], preferred: Option<usize>) -> Option<usize> {
    let (fastest, best) = outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| Some((i, o.ok()?)))
        .min_by_key(|&(_, floor)| floor)?;
    match preferred.and_then(|p| Some((p, outcomes.get(p)?.ok()?))) {
        Some((p, floor)) if floor.as_secs_f64() <= best.as_secs_f64() * (1.0 + MARGIN) => Some(p),
        _ => Some(fastest),
    }
}

/// SpMV throughput in GFLOPS: `2 * nnz` floating-point operations (one
/// multiply, one add per stored element) over the elapsed time — the
/// metric of the paper's §7.2.
pub fn gflops(nnz: usize, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 {
        return 0.0;
    }
    (2.0 * nnz as f64) / secs / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn spin() {
        std::hint::black_box((0..1000).sum::<u64>());
    }

    fn ok(micros: u64) -> MeasureOutcome {
        MeasureOutcome::Ok {
            floor: Duration::from_micros(micros),
            spread: Duration::ZERO,
        }
    }

    #[test]
    fn gflops_math() {
        let g = gflops(1_000_000, Duration::from_millis(1));
        // 2e6 flops / 1e-3 s = 2e9 flop/s = 2 GFLOPS.
        assert!((g - 2.0).abs() < 1e-9);
        assert_eq!(gflops(10, Duration::ZERO), 0.0);
    }

    #[test]
    fn guarded_measurement_succeeds_on_healthy_kernel() {
        let out = measure_round_robin(
            1,
            |_| spin(),
            1..=8,
            Duration::from_micros(200),
            Duration::from_secs(5),
            None,
        );
        assert!(out[0].ok().expect("healthy kernel must measure") > Duration::ZERO);
        assert!(out[0].failure().is_none());
    }

    #[test]
    fn median_is_positive_and_ordered() {
        // Two of the five samples take 0.2 ms and three 2 ms: the floor
        // is a short one and the median (floor + spread) a long one.
        let mut n = 0;
        let out = measure_round_robin(
            1,
            |_| {
                n += 1;
                let micros = if n % 3 == 0 { 200 } else { 2_000 };
                std::thread::sleep(Duration::from_micros(micros));
            },
            5..=5,
            Duration::ZERO,
            Duration::from_secs(5),
            None,
        );
        match out[0] {
            MeasureOutcome::Ok { floor, spread } => {
                assert!(
                    floor >= Duration::from_micros(200) && floor < Duration::from_micros(2_000)
                );
                assert!(floor + spread >= Duration::from_micros(2_000));
            }
            ref other => panic!("expected Ok, got {other:?}"),
        }
    }

    #[test]
    fn samples_interleave_round_by_round() {
        let log = RefCell::new(Vec::new());
        let out = measure_round_robin(
            3,
            |i| log.borrow_mut().push(i),
            4..=4,
            Duration::ZERO,
            Duration::from_secs(5),
            None,
        );
        // Three probes, then four rounds of one sample per candidate.
        let expect: Vec<usize> = (0..5).flat_map(|_| 0..3).collect();
        assert_eq!(*log.borrow(), expect);
        for o in &out {
            let floor = o.ok().expect("healthy candidates measure");
            assert!(
                matches!(o, MeasureOutcome::Ok { spread, .. } if *spread < Duration::from_secs(1))
            );
            assert!(floor < Duration::from_secs(1));
        }
    }

    #[test]
    fn reps_budgeting() {
        // Candidate 1 sleeps half the budget: it buys the minimum while
        // candidate 0, a spin far below `budget / 8` even under load
        // (a sleep's wake-up can take longer), runs to the ceiling.
        let runs = RefCell::new([0usize; 2]);
        let out = measure_round_robin(
            2,
            |i| {
                runs.borrow_mut()[i] += 1;
                if i == 0 {
                    spin();
                } else {
                    std::thread::sleep(Duration::from_millis(2));
                }
            },
            2..=8,
            Duration::from_millis(4),
            Duration::from_secs(5),
            None,
        );
        assert!(out.iter().all(|o| o.ok().is_some()));
        let runs = *runs.borrow();
        assert_eq!(runs[0], 1 + 8);
        assert_eq!(runs[1], 1 + 2);
    }

    #[test]
    fn guarded_measurement_catches_panic() {
        let calls = RefCell::new([0usize; 3]);
        let out = measure_round_robin(
            3,
            |i| {
                let n = {
                    let mut c = calls.borrow_mut();
                    c[i] += 1;
                    c[i]
                };
                // The probe is run 1, so the third sample is run 4.
                if i == 1 && n == 4 {
                    panic!("kernel exploded");
                }
                spin();
            },
            6..=6,
            Duration::ZERO,
            Duration::from_secs(5),
            None,
        );
        match &out[1] {
            MeasureOutcome::Panicked(msg) => assert!(msg.contains("kernel exploded")),
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert!(out[1]
            .failure()
            .expect("failed")
            .starts_with("kernel panicked: "));
        assert!(out[0].ok().is_some() && out[2].ok().is_some());
        // The failed candidate took no sample after its panic.
        assert_eq!(*calls.borrow(), [7, 4, 7]);
    }

    #[test]
    fn guarded_measurement_enforces_deadline() {
        let out = measure_round_robin(
            3,
            |i| {
                if i == 2 {
                    std::thread::sleep(Duration::from_millis(4));
                } else {
                    spin();
                }
            },
            3..=3,
            Duration::ZERO,
            Duration::from_millis(5),
            None,
        );
        match &out[2] {
            MeasureOutcome::TimedOut { elapsed, deadline } => {
                assert!(elapsed > deadline);
                assert_eq!(*deadline, Duration::from_millis(5));
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        assert!(out[2]
            .failure()
            .expect("failed")
            .starts_with("deadline exceeded: "));
        assert!(out[0].ok().is_some() && out[1].ok().is_some());
    }

    #[test]
    fn a_passed_stop_instant_runs_nothing() {
        let runs = RefCell::new(0);
        let past = Instant::now() - Duration::from_millis(1);
        let out = measure_round_robin(
            2,
            |_| *runs.borrow_mut() += 1,
            1..=4,
            Duration::from_millis(1),
            Duration::from_secs(5),
            Some(past),
        );
        assert_eq!(*runs.borrow(), 0);
        assert!(out
            .iter()
            .all(|o| matches!(o, MeasureOutcome::TimedOut { .. })));
    }

    #[test]
    fn decide_keeps_the_preferred_candidate_inside_the_margin() {
        // 5% faster is inside the margin: the preferred candidate stays.
        assert_eq!(decide(&[ok(100), ok(95)], Some(0)), Some(0));
        // Exactly at the margin still keeps it.
        assert_eq!(decide(&[ok(110), ok(100)], Some(0)), Some(0));
        // The preferred candidate being fastest keeps it, wherever it sits.
        assert_eq!(decide(&[ok(300), ok(100), ok(200)], Some(1)), Some(1));
    }

    #[test]
    fn decide_names_a_challenger_outside_the_margin() {
        assert_eq!(decide(&[ok(100), ok(50)], Some(0)), Some(1));
        // The fastest challenger is named, not the first to clear it.
        assert_eq!(decide(&[ok(100), ok(80), ok(40)], Some(0)), Some(2));
        // No preference: the fastest wins by any amount.
        assert_eq!(decide(&[ok(100), ok(99)], None), Some(1));
    }

    #[test]
    fn decide_skips_failures_and_reports_all_failed() {
        let panicked = MeasureOutcome::Panicked("boom".into());
        let timed_out = MeasureOutcome::TimedOut {
            elapsed: Duration::from_millis(3),
            deadline: Duration::from_millis(1),
        };
        // A failed preferred candidate cannot be kept.
        assert_eq!(decide(&[panicked.clone(), ok(100)], Some(0)), Some(1));
        // A failed challenger is never named, however it would have run.
        assert_eq!(decide(&[ok(100), timed_out.clone()], Some(0)), Some(0));
        assert_eq!(decide(&[panicked, timed_out], Some(0)), None);
        assert_eq!(decide(&[], None), None);
    }

    #[test]
    fn panic_payload_stringification() {
        let err = std::panic::catch_unwind(|| panic!("literal")).unwrap_err();
        assert_eq!(panic_message(err.as_ref()), "literal");
        let err = std::panic::catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(err.as_ref()), "formatted 7");
        let err = std::panic::catch_unwind(|| std::panic::panic_any(42i32)).unwrap_err();
        assert_eq!(panic_message(err.as_ref()), "non-string panic payload");
    }
}
