//! Chaos suite: multi-threaded soak runs under scripted failpoint
//! schedules. The contract is the same as the fault-injection suite's —
//! graceful degradation, never a panic, never a silently wrong result —
//! but here the failures are injected *inside* the pipeline (allocation,
//! measurement, cache critical sections, artifact I/O) while sixteen
//! threads hammer the engine.
//!
//! Requires `--features failpoints`; without it the whole binary
//! compiles to nothing, which is itself part of the contract (the
//! production build carries only inert no-op sites).
#![cfg(feature = "failpoints")]

use smat::{BreakerState, DecisionPath, FaultKind, Installation, Smat, SmatConfig, Trainer};
use smat_kernels::{KernelId, KernelLibrary, Strategy};
use smat_matrix::gen::{generate_corpus, power_law, random_uniform, tridiagonal, CorpusSpec};
use smat_matrix::io::read_matrix_market;
use smat_matrix::utils::max_abs_diff;
use smat_matrix::{AnyMatrix, Csr, Format, MatrixError};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

const THREADS: usize = 16;

/// The failpoint registry is process-global, so tests scripting sites
/// must not overlap in time. Every test takes this lock first and
/// starts from a clean registry.
static FAILPOINTS: Mutex<()> = Mutex::new(());

fn exclusive_failpoints() -> MutexGuard<'static, ()> {
    let guard = FAILPOINTS.lock().unwrap_or_else(PoisonError::into_inner);
    smat_failpoints::reset();
    guard
}

fn train_engine_with(seed: u64, config: SmatConfig) -> Smat<f64> {
    let corpus = generate_corpus::<f64>(&CorpusSpec::small(120, seed));
    let matrices: Vec<&Csr<f64>> = corpus.iter().map(|e| &e.matrix).collect();
    let out = Trainer::new(SmatConfig::fast())
        .train(&matrices)
        .expect("training succeeds");
    Smat::with_config(out.model, config).expect("precision matches")
}

fn assert_usable(engine: &Smat<f64>, tuned: &smat::TunedSpmv<f64>, m: &Csr<f64>) {
    let x: Vec<f64> = (0..m.cols())
        .map(|i| 0.25 * ((i % 7) as f64) - 1.0)
        .collect();
    let mut y = vec![0.0; m.rows()];
    engine.spmv(tuned, &x, &mut y).expect("SpMV runs");
    let mut expect = vec![0.0; m.rows()];
    m.spmv(&x, &mut expect).expect("reference SpMV runs");
    assert!(
        max_abs_diff(&y, &expect) < 1e-10,
        "result diverges from reference"
    );
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("smat_chaos_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// The soak: sixteen threads loop `prepare` + `spmv` over a mixed bag
/// of structures while conversion allocation, candidate measurement and
/// cache insertion are all failing or stalling on scripted schedules.
/// Every outcome must be one of the four documented [`DecisionPath`]
/// variants, every product must match the reference kernel, and no
/// thread may panic.
#[test]
fn soak_under_scripted_faults_never_panics_or_corrupts_results() {
    let _serial = exclusive_failpoints();
    let engine = Arc::new(train_engine_with(51, SmatConfig::fast()));
    let matrices: Vec<Arc<Csr<f64>>> = vec![
        Arc::new(tridiagonal::<f64>(400)),
        Arc::new(random_uniform::<f64>(350, 350, 9, 13)),
        Arc::new(power_law::<f64>(1500, 300, 2.0, 7)),
    ];

    // Schedules mix hard failures and stalls, then exhaust to `off`, so
    // the soak crosses faulty and healthy phases. `panic` is deliberately
    // absent: the zero-panic assertion below is the point of the test.
    let _g1 = smat_failpoints::scoped(
        "convert.alloc",
        "6*fail(allocation refused)->4*delay(1)->off",
    )
    .unwrap();
    let _g2 = smat_failpoints::scoped("search.measure", "4*fail(probe exploded)->2*delay(2)->off")
        .unwrap();
    let _g3 = smat_failpoints::scoped("cache.insert", "3*fail(insert vetoed)->off").unwrap();

    const ITERS: usize = 6;
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let matrices = matrices.clone();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                // [predicted, measured, cached, degraded] seen by this thread.
                let mut counts = [0u64; 4];
                for i in 0..ITERS {
                    let m = &matrices[(t + i) % matrices.len()];
                    let tuned = engine.prepare(m);
                    // Exhaustive over the documented taxonomy: a fifth
                    // variant would fail to compile here.
                    match tuned.decision() {
                        DecisionPath::Predicted { .. } => counts[0] += 1,
                        DecisionPath::Measured { .. } => counts[1] += 1,
                        DecisionPath::Cached { .. } => counts[2] += 1,
                        DecisionPath::Degraded { .. } => counts[3] += 1,
                    }
                    assert_usable(&engine, &tuned, m);
                }
                counts
            })
        })
        .collect();

    let mut totals = [0u64; 4];
    for h in handles {
        let counts = h.join().expect("no soak thread may panic");
        for (t, c) in totals.iter_mut().zip(counts) {
            *t += c;
        }
    }
    assert_eq!(
        totals.iter().sum::<u64>(),
        (THREADS * ITERS) as u64,
        "every prepare call must land on a documented decision path"
    );
    // The schedules actually fired: the sites were exercised.
    assert!(smat_failpoints::hits("convert.alloc") > 0);
    assert!(smat_failpoints::hits("search.measure") > 0);
    // After the schedules exhausted, healthy tuning resumed — the cache
    // holds entries and later rounds replayed them.
    assert!(totals[2] > 0, "healthy phase must produce cache hits");
    let stats = engine.cache_stats();
    assert!(stats.entries > 0, "schedules exhausted, cache repopulated");
    assert_eq!(stats.poison_recoveries, 0, "no panic ever touched a lock");
}

/// A scripted panic inside the cache's lock-held critical section
/// poisons the mutex. The engine must recover on the next access —
/// counted, not fatal — instead of aborting every later `prepare`.
#[test]
fn poisoned_cache_lock_recovers_and_the_engine_stays_usable() {
    let _serial = exclusive_failpoints();
    let engine = train_engine_with(52, SmatConfig::fast());
    let m = tridiagonal::<f64>(250);
    {
        let _g = smat_failpoints::scoped("cache.insert", "1*panic(lock holder dies)->off").unwrap();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.prepare(&m)));
        assert!(
            unwound.is_err(),
            "the scripted panic must unwind out of prepare"
        );
    }
    // The next prepare walks into the poisoned lock, recovers (dropping
    // the resident entries), re-tunes and publishes normally.
    let tuned = engine.prepare(&m);
    assert!(
        !tuned.decision().is_degraded(),
        "got {:?}",
        tuned.decision()
    );
    assert!(!tuned.decision().is_cached());
    let stats = engine.cache_stats();
    assert_eq!(stats.poison_recoveries, 1, "recovery must be counted");
    assert_usable(&engine, &tuned, &m);
    // The cache is fully functional again: the republished entry replays.
    assert!(engine.prepare(&m).decision().is_cached());
    assert_eq!(
        engine.cache_stats().poison_recoveries,
        1,
        "the poison flag was cleared, so recovery fires exactly once"
    );
}

/// A follower that waits out `single_flight_wait` on a stalled leader
/// degrades to the reference kernel instead of blocking forever.
#[test]
fn follower_degrades_when_the_leader_outlives_the_wait_deadline() {
    let _serial = exclusive_failpoints();
    let cfg = SmatConfig {
        confidence_threshold: 1.1, // force the (stallable) measured path
        single_flight_wait: Duration::from_millis(100),
        ..SmatConfig::fast()
    };
    let engine = Arc::new(train_engine_with(53, cfg));
    let m = random_uniform::<f64>(300, 300, 8, 33);

    // Every measurement probe stalls well past the candidate deadline,
    // so the leader's tuning run takes far longer than the follower is
    // willing to wait.
    let _g = smat_failpoints::scoped("search.measure", "delay(400)").unwrap();

    let leader = {
        let engine = Arc::clone(&engine);
        let m = m.clone();
        thread::spawn(move || engine.prepare(&m))
    };
    // Give the leader time to claim the in-flight marker.
    thread::sleep(Duration::from_millis(30));
    let follower = engine.prepare(&m);
    match follower.decision() {
        DecisionPath::Degraded { reason } => {
            assert!(
                reason.contains("single-flight wait"),
                "degrade must name the wait deadline, got: {reason}"
            );
        }
        other => panic!("expected a wait-deadline degrade, got {other:?}"),
    }
    assert_usable(&engine, &follower, &m);

    let leader_tuned = leader.join().expect("the stalled leader must not panic");
    // Every candidate blew its deadline, so the leader degraded too —
    // and published nothing.
    assert!(leader_tuned.decision().is_degraded());
    assert_usable(&engine, &leader_tuned, &m);
    let stats = engine.cache_stats();
    assert!(stats.coalesced_waits >= 1, "the follower joined the flight");
    assert_eq!(stats.entries, 0, "degraded decisions are never published");
}

/// Transient cache-snapshot I/O failures are retried until the schedule
/// clears; the hit counter proves the retry loop ran exactly as
/// configured.
#[test]
fn cache_snapshot_io_is_retried_through_transient_failures() {
    let _serial = exclusive_failpoints();
    let cfg = SmatConfig {
        persist_retries: 3,
        persist_backoff: Duration::from_millis(1),
        ..SmatConfig::fast()
    };
    let engine = train_engine_with(54, cfg);
    engine.prepare(&tridiagonal::<f64>(200));
    let path = tmp("cache_retry.json");
    std::fs::remove_file(&path).ok();

    {
        let _g = smat_failpoints::scoped("cache.persist", "2*fail(disk full)->off").unwrap();
        let written = engine
            .save_cache(&path)
            .expect("retries must absorb the failures");
        assert_eq!(written, 1);
        assert_eq!(
            smat_failpoints::hits("cache.persist"),
            3,
            "two scripted failures, then the successful attempt"
        );
    }
    {
        let _g = smat_failpoints::scoped("cache.load", "1*fail(mount dropped)->off").unwrap();
        engine.clear_cache();
        assert_eq!(engine.load_cache(&path).expect("retry must absorb it"), 1);
        assert_eq!(smat_failpoints::hits("cache.load"), 2);
    }
    // A warm-started entry replays.
    assert!(engine
        .prepare(&tridiagonal::<f64>(200))
        .decision()
        .is_cached());

    // An unyielding failure exhausts the budget and surfaces as a
    // transient persist error: 1 attempt + 3 retries, then give up.
    {
        let _g = smat_failpoints::scoped("cache.persist", "fail(disk gone)").unwrap();
        let err = engine.save_cache(&path).unwrap_err();
        assert_eq!(err.taxonomy(), "persist");
        assert!(err.is_transient());
        assert_eq!(smat_failpoints::hits("cache.persist"), 4);
    }
    // The exhausted save never touched the valid artifact.
    engine.clear_cache();
    assert_eq!(engine.load_cache(&path).unwrap(), 1);
    std::fs::remove_file(&path).ok();
}

/// Installation artifacts under scripted I/O faults: writes are retried
/// by `load_or_run`, unreadable artifacts regenerate, and an exhausted
/// write budget surfaces a named persist error.
#[test]
fn install_artifacts_survive_scripted_io_faults() {
    let _serial = exclusive_failpoints();
    let cfg = SmatConfig {
        persist_retries: 2,
        persist_backoff: Duration::from_millis(1),
        ..SmatConfig::fast()
    };
    let path = tmp("install_chaos.json");
    std::fs::remove_file(&path).ok();

    // load_or_run retries the save through a transient schedule.
    {
        let _g = smat_failpoints::scoped("install.save", "2*fail(flaky mount)->off").unwrap();
        let (_, from_disk) = Installation::load_or_run::<f64>(&path, &cfg).unwrap();
        assert!(!from_disk);
        assert_eq!(smat_failpoints::hits("install.save"), 3);
    }
    assert!(Installation::load(&path).is_ok(), "the retried save landed");

    // A scripted read failure makes the existing artifact unreadable;
    // load_or_run regenerates instead of trusting nothing.
    {
        let _g = smat_failpoints::scoped("install.load", "fail(vanished)").unwrap();
        let (_, from_disk) = Installation::load_or_run::<f64>(&path, &cfg).unwrap();
        assert!(!from_disk, "an unreadable artifact must regenerate");
    }

    // An unyielding write failure exhausts the retry budget: a clean,
    // taxonomy-named error, not a panic. 1 attempt + 2 retries.
    std::fs::remove_file(&path).ok();
    {
        let _g = smat_failpoints::scoped("install.save", "fail(disk gone)").unwrap();
        let err = Installation::load_or_run::<f64>(&path, &cfg).unwrap_err();
        assert_eq!(err.taxonomy(), "persist");
        assert!(err.is_transient());
        assert_eq!(smat_failpoints::hits("install.save"), 3);
        assert!(!path.exists(), "no torn artifact may be left behind");
    }
    std::fs::remove_file(&path).ok();
}

/// The worker pool's `pool.dispatch` site sits at fan-out entry: a
/// scripted `fail` forces the inline-serial fallback, a `delay` stalls
/// the dispatcher. Sixteen threads stampede one shared plan through
/// both phases and the exhausted-to-healthy transition; no product may
/// change and no thread may panic. A second phase runs the full engine
/// pipeline (`prepare` + `spmv`) under a fresh schedule.
#[test]
fn pool_dispatch_faults_fall_back_inline_without_corrupting_results() {
    let _serial = exclusive_failpoints();
    let lib = Arc::new(KernelLibrary::<f64>::new());
    let m = random_uniform::<f64>(400, 400, 8, 99);
    let v = lib
        .variants(Format::Csr)
        .iter()
        .position(|i| i.strategies.contains(Strategy::Parallel))
        .expect("a parallel CSR variant exists");
    let any = Arc::new(AnyMatrix::Csr(m.clone()));
    let plan = Arc::new(lib.plan_for(
        &any,
        KernelId {
            op: smat_kernels::Op::Spmv,
            format: Format::Csr,
            variant: v,
        },
    ));
    assert!(plan.chunks() >= 2, "the plan must actually fan out");
    let x: Vec<f64> = (0..m.cols())
        .map(|i| 0.5 - (i % 9) as f64 * 0.125)
        .collect();
    let mut expect = vec![0.0; m.rows()];
    m.spmv(&x, &mut expect).expect("reference SpMV runs");
    let (x, expect) = (Arc::new(x), Arc::new(expect));

    const ITERS: usize = 6;
    {
        let _g = smat_failpoints::scoped("pool.dispatch", "8*fail(pool offline)->8*delay(1)->off")
            .unwrap();
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (lib, any, plan) = (Arc::clone(&lib), Arc::clone(&any), Arc::clone(&plan));
                let (x, expect) = (Arc::clone(&x), Arc::clone(&expect));
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait();
                    for _ in 0..ITERS {
                        let mut y = vec![f64::NAN; expect.len()];
                        lib.run_planned(&any, v, &plan, &x, &mut y);
                        assert!(
                            max_abs_diff(&y, &expect) < 1e-12,
                            "dispatch fault corrupted the product"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no stampede thread may panic");
        }
        // Every fan-out crossed the site exactly once (fail, delay and
        // the exhausted `off` state all count as hits).
        assert_eq!(
            smat_failpoints::hits("pool.dispatch"),
            (THREADS * ITERS) as u64,
            "every dispatch must cross the failpoint"
        );
    }

    // Engine phase: the whole tuning pipeline over a faulty dispatcher.
    let engine = Arc::new(train_engine_with(55, SmatConfig::fast()));
    let _g = smat_failpoints::scoped("pool.dispatch", "4*fail(pool offline)->off").unwrap();
    let matrices = [
        Arc::new(tridiagonal::<f64>(300)),
        Arc::new(random_uniform::<f64>(280, 280, 7, 17)),
    ];
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let m = Arc::clone(&matrices[t % matrices.len()]);
            thread::spawn(move || {
                let tuned = engine.prepare(&m);
                assert_usable(&engine, &tuned, &m);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no pipeline thread may panic");
    }
}

/// The execution-time containment acceptance run: a kernel scripted to
/// panic on warm calls never propagates. Every `spmv` returns `Ok` with
/// a reference-correct product, the variant is quarantined after
/// `breaker_threshold` incidents, excluded from the next `prepare`'s
/// candidate set (its cached decision evicted), and readmitted by a
/// successful half-open re-probe once the call-counted backoff elapses.
#[test]
fn scripted_kernel_panics_are_contained_quarantined_and_readmitted() {
    let _serial = exclusive_failpoints();
    let cfg = SmatConfig {
        breaker_threshold: 2,
        breaker_backoff_calls: 4,
        ..SmatConfig::fast()
    };
    let engine = train_engine_with(56, cfg);
    let m = random_uniform::<f64>(300, 300, 8, 77);
    let tuned = engine.prepare(&m);
    let bad = tuned.kernel();
    let x: Vec<f64> = (0..m.cols()).map(|i| 0.5 - (i % 5) as f64 * 0.2).collect();
    let mut expect = vec![0.0; m.rows()];
    m.spmv(&x, &mut expect).expect("reference SpMV runs");
    let check = |engine: &Smat<f64>, tuned: &smat::TunedSpmv<f64>| {
        let mut y = vec![f64::NAN; m.rows()];
        engine
            .spmv(tuned, &x, &mut y)
            .expect("a contained fault must still return Ok");
        assert!(
            max_abs_diff(&y, &expect) < 1e-10,
            "contained call diverged from the reference product"
        );
    };

    // Calls 1–2: the kernel panics mid-call on a scripted schedule. Both
    // faults are contained — the caller sees `Ok` and a correct product
    // served by the reference path — and the second trips the breaker.
    let _g = smat_failpoints::scoped("exec.kernel", "2*panic(injected kernel fault)->off").unwrap();
    check(&engine, &tuned);
    check(&engine, &tuned);
    let r = engine.health_report();
    assert_eq!(r.calls, 2);
    assert_eq!(r.exec_faults, 2);
    assert_eq!(r.breaker_trips, 1);
    assert_eq!(r.recent_incidents.len(), 2);
    assert!(r
        .recent_incidents
        .iter()
        .all(|i| i.kernel == bad && i.kind == FaultKind::Panic));
    assert!(r.recent_incidents[0]
        .payload
        .contains("injected kernel fault"));
    let q = &r.quarantined_variants;
    assert_eq!(q.len(), 1, "exactly one variant is benched");
    assert_eq!(q[0].kernel, bad);
    assert_eq!(q[0].state, BreakerState::Open);
    assert_eq!(q[0].incidents, 2);
    assert_eq!(q[0].reopen_at, 2 + 4, "backoff counts in call-clock units");

    // The next prepare finds the cached decision pointing at the benched
    // kernel, evicts it, and re-tunes with the variant excluded.
    let tuned2 = engine.prepare(&m);
    assert_eq!(engine.health_report().quarantine_evictions, 1);
    if bad != KernelId::basic(bad.format) {
        assert_ne!(
            tuned2.kernel(),
            bad,
            "a quarantined variant must not be re-attached"
        );
    }
    check(&engine, &tuned2); // call 3, healthy substitute kernel

    // Calls 4–5 on the original handle sit inside the backoff window:
    // served by the reference path, no new incidents recorded.
    check(&engine, &tuned);
    check(&engine, &tuned);
    let r = engine.health_report();
    assert_eq!(r.exec_faults, 2, "fallback service records no incidents");
    assert_eq!(r.quarantined_variants.len(), 1);

    // Call 6 reaches `reopen_at`: the breaker half-opens, this call
    // claims the re-probe, the (now healed) kernel runs cleanly, and the
    // variant is readmitted.
    check(&engine, &tuned);
    let r = engine.health_report();
    assert_eq!(r.reprobe_successes, 1);
    assert_eq!(r.reprobe_failures, 0);
    assert!(
        r.quarantined_variants.is_empty(),
        "a clean re-probe must close the breaker"
    );
    check(&engine, &tuned); // call 7: healthy steady state again
    assert_eq!(engine.health_report().exec_faults, 2);
}

/// A pool fault storm at engine level: every scripted dispatch fault is
/// absorbed by the pool's inline run, so warm serving stays correct,
/// records no kernel incident and keeps fanning out through the pool.
#[test]
fn pool_fault_storm_is_absorbed_by_the_pool() {
    let _serial = exclusive_failpoints();
    let corpus = generate_corpus::<f64>(&CorpusSpec::small(120, 57));
    let matrices: Vec<&Csr<f64>> = corpus.iter().map(|e| &e.matrix).collect();
    let mut out = Trainer::new(SmatConfig::fast())
        .train(&matrices)
        .expect("training succeeds");
    // Pin every format's choice to a parallel variant (where one
    // exists) so the prepared plan actually fans out through the pool.
    let lib = KernelLibrary::<f64>::new();
    for idx in 0..Format::COUNT {
        let f = Format::from_index(idx);
        if let Some(v) = lib
            .variants(f)
            .iter()
            .position(|i| i.strategies.contains(Strategy::Parallel))
        {
            out.model.kernel_choice.set(f, v);
        }
    }
    let engine = Smat::with_config(out.model, SmatConfig::fast()).expect("precision matches");
    let m = random_uniform::<f64>(400, 400, 8, 99);
    let tuned = engine.prepare(&m);
    assert!(
        !tuned.plan().is_serial(),
        "the pinned parallel variant must produce a fanned-out plan"
    );
    let x: Vec<f64> = (0..m.cols())
        .map(|i| 0.25 * ((i % 7) as f64) - 1.0)
        .collect();
    let mut expect = vec![0.0; m.rows()];
    m.spmv(&x, &mut expect).expect("reference SpMV runs");

    // Scripted after prepare so tuning itself never crosses the site.
    let _g = smat_failpoints::scoped("pool.dispatch", "3*fail(pool offline)->off").unwrap();
    const CALLS: u64 = 8;
    for _ in 0..CALLS {
        let mut y = vec![f64::NAN; m.rows()];
        engine.spmv(&tuned, &x, &mut y).expect("SpMV stays Ok");
        assert!(
            max_abs_diff(&y, &expect) < 1e-10,
            "a dispatch fault corrupted the product"
        );
    }
    let r = engine.health_report();
    assert_eq!(r.exec_faults, 0, "dispatch faults are not kernel incidents");
    assert!(r.quarantined_variants.is_empty());
    assert_eq!(
        smat_failpoints::hits("pool.dispatch"),
        CALLS,
        "every call, faulted or not, still dispatches through the pool"
    );
}

/// Quarantine survives the sealed install artifact: a breaker tripped
/// at serve time re-persists the installation, and a fresh engine
/// adopting that artifact starts with the variant already benched.
#[test]
fn quarantine_persists_through_the_install_artifact() {
    let _serial = exclusive_failpoints();
    let path = tmp("quarantine_install.json");
    std::fs::remove_file(&path).ok();
    let cfg = SmatConfig {
        breaker_threshold: 1,
        breaker_backoff_calls: 1_000,
        install_path: Some(path.clone()),
        ..SmatConfig::fast()
    };
    let corpus = generate_corpus::<f64>(&CorpusSpec::small(120, 58));
    let matrices: Vec<&Csr<f64>> = corpus.iter().map(|e| &e.matrix).collect();
    let trained = Trainer::new(SmatConfig::fast())
        .train(&matrices)
        .expect("training succeeds");

    let engine = Smat::with_config(trained.model.clone(), cfg.clone()).expect("install seals");
    assert!(engine.installation().is_some());
    let m = random_uniform::<f64>(250, 250, 8, 41);
    let tuned = engine.prepare(&m);
    let bad = tuned.kernel();
    {
        let _g = smat_failpoints::scoped("exec.kernel", "1*panic(wedged)->off").unwrap();
        assert_usable(&engine, &tuned, &m);
    }
    assert_eq!(engine.health_report().breaker_trips, 1);
    // The trip re-persisted the artifact with the quarantine set.
    let sealed = Installation::load(&path).expect("artifact re-persisted");
    assert_eq!(sealed.quarantined, vec![bad]);

    // A fresh engine adopting the artifact starts with the variant
    // benched: served by the reference path, excluded from tuning.
    drop(engine);
    let engine2 = Smat::with_config(trained.model, cfg).expect("artifact adopted");
    assert!(engine2.installation_from_disk());
    let r = engine2.health_report();
    assert_eq!(r.quarantined_variants.len(), 1);
    assert_eq!(r.quarantined_variants[0].kernel, bad);
    assert_eq!(r.quarantined_variants[0].state, BreakerState::Open);
    assert_eq!(r.exec_faults, 0, "the incidents themselves do not persist");
    let tuned2 = engine2.prepare(&m);
    if bad != KernelId::basic(bad.format) {
        assert_ne!(
            tuned2.kernel(),
            bad,
            "an adopted quarantine must exclude the variant from tuning"
        );
    }
    assert_usable(&engine2, &tuned2, &m);
    std::fs::remove_file(&path).ok();
}

/// The `io.read` site injects at the matrix-market reader: one scripted
/// failure surfaces as a clean I/O error, the next read proceeds.
#[test]
fn scripted_read_faults_surface_cleanly_and_clear() {
    let _serial = exclusive_failpoints();
    let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 2.0\n";
    let _g = smat_failpoints::scoped("io.read", "1*fail(cable pulled)->off").unwrap();
    let err = read_matrix_market::<f64, _>(text.as_bytes()).unwrap_err();
    match err {
        MatrixError::Io(io) => assert!(io.to_string().contains("cable pulled")),
        other => panic!("expected an injected I/O error, got {other:?}"),
    }
    let m = read_matrix_market::<f64, _>(text.as_bytes()).expect("schedule cleared");
    assert_eq!(m.nnz(), 2);
}
