//! Chaos suite for the tuning service: scripted `service.*` (and
//! tuning-path) failpoints while real clients hammer a live server
//! over TCP. The contract mirrors the workspace-wide one — graceful
//! degradation, never a wedged thread, never a silently wrong result —
//! plus the serving-layer acceptance criteria: a 16-client stampede on
//! one structural fingerprint performs exactly one tuning run, queue
//! depth stays bounded, and every request is answered with Ok, a
//! shed/retry-after, or a correct degraded product.
//!
//! Requires `--features failpoints`; without it the binary compiles to
//! nothing, as the production build carries only inert no-op sites.
#![cfg(feature = "failpoints")]

use serde::Value;
use smat::{Smat, SmatConfig, TrainedModel, Trainer};
use smat_matrix::gen::{generate_corpus, random_uniform, CorpusSpec};
use smat_matrix::Csr;
use smat_service::server::DrainSummary;
use smat_service::{ServeConfig, Server, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// The failpoint registry is process-global; tests scripting sites
/// must not overlap in time.
static FAILPOINTS: Mutex<()> = Mutex::new(());

fn exclusive_failpoints() -> MutexGuard<'static, ()> {
    let guard = FAILPOINTS.lock().unwrap_or_else(PoisonError::into_inner);
    smat_failpoints::reset();
    guard
}

fn model() -> &'static TrainedModel {
    static MODEL: OnceLock<TrainedModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let corpus = generate_corpus::<f64>(&CorpusSpec::small(120, 0x5EC1));
        let matrices: Vec<&Csr<f64>> = corpus.iter().map(|e| &e.matrix).collect();
        Trainer::new(SmatConfig::fast())
            .train(&matrices)
            .expect("training succeeds")
            .model
    })
}

fn engine() -> Arc<Smat<f64>> {
    let config = SmatConfig {
        // Followers must outlast a failpoint-stretched leader so the
        // stampede coalesces instead of timing out into degradation.
        single_flight_wait: Duration::from_secs(60),
        // An impossible confidence bar forces every tuning run through
        // the execute-and-measure fallback, whose measurements pass the
        // `search.measure` failpoint — the lever the stampede test uses
        // to stretch the leader's run. The predicted path measures
        // nothing, so in release it can publish before any follower
        // even starts.
        confidence_threshold: 1.1,
        ..SmatConfig::default()
    };
    Arc::new(Smat::with_config(model().clone(), config).expect("engine builds"))
}

struct Running {
    addr: SocketAddr,
    handle: ServerHandle,
    join: thread::JoinHandle<DrainSummary>,
}

fn start(config: ServeConfig) -> Running {
    start_with(engine(), config)
}

fn start_with(engine: Arc<Smat<f64>>, config: ServeConfig) -> Running {
    let server = Server::bind_tcp("127.0.0.1:0", engine, config).expect("bind");
    let addr = server.local_addr().expect("tcp addr");
    let handle = server.handle();
    let join = thread::spawn(move || server.run().expect("run"));
    Running { addr, handle, join }
}

fn base_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        read_timeout: Duration::from_millis(10),
        frame_timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    }
}

fn request(addr: SocketAddr, line: &str) -> Value {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    stream.write_all(line.as_bytes()).expect("write");
    stream.write_all(b"\n").expect("write newline");
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    let n = reader.read_line(&mut reply).expect("read response");
    assert!(n > 0, "server closed the connection unexpectedly");
    serde_json::parse(&reply).expect("response is JSON")
}

/// Like [`request`], but tolerates the server dropping the connection
/// without a reply (injected transport faults).
fn request_allowing_close(addr: SocketAddr, line: &str) -> Option<Value> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    stream.write_all(line.as_bytes()).ok()?;
    stream.write_all(b"\n").ok()?;
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    match reader.read_line(&mut reply) {
        Ok(0) | Err(_) => None,
        Ok(_) => Some(serde_json::parse(&reply).expect("response is JSON")),
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .and_then(|fields| fields.iter().find(|(k, _)| k == key).map(|(_, val)| val))
        .unwrap_or_else(|| panic!("missing field {key:?} in {v:?}"))
}

fn status_of(v: &Value) -> &str {
    match field(v, "status") {
        Value::Str(s) => s.as_str(),
        other => panic!("status is not a string: {other:?}"),
    }
}

fn text(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        other => panic!("not a string: {other:?}"),
    }
}

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::UInt(u) => *u,
        Value::Int(i) if *i >= 0 => *i as u64,
        other => panic!("not a u64: {other:?}"),
    }
}

fn floats(v: &Value) -> Vec<f64> {
    v.as_array()
        .expect("array")
        .iter()
        .map(|item| match item {
            Value::Float(f) => *f,
            Value::Int(i) => *i as f64,
            Value::UInt(u) => *u as f64,
            other => panic!("not a number: {other:?}"),
        })
        .collect()
}

fn matrix_fixture(dim: usize, seed: u64) -> (String, Vec<f64>, Vec<f64>) {
    let m = random_uniform::<f64>(dim, dim, 6, seed);
    let x: Vec<f64> = (0..dim).map(|i| 0.5 * ((i % 5) as f64) - 1.0).collect();
    let mut y = vec![0.0; dim];
    m.spmv(&x, &mut y).expect("reference SpMV");
    let entries: Vec<String> = m
        .iter()
        .map(|(r, c, v)| format!("[{r},{c},{v:?}]"))
        .collect();
    let json = format!(
        "{{\"rows\":{dim},\"cols\":{dim},\"entries\":[{}]}}",
        entries.join(",")
    );
    let items: Vec<String> = x.iter().map(|v| format!("{v:?}")).collect();
    let frame = format!(
        "{{\"op\":\"spmv\",\"matrix\":{json},\"x\":[{}]}}",
        items.join(",")
    );
    (frame, x, y)
}

fn shutdown_and_join(running: Running) -> DrainSummary {
    let resp = request(running.addr, "{\"op\":\"shutdown\"}");
    assert_eq!(status_of(&resp), "ok");
    running.join.join().expect("server thread")
}

/// Acceptance: 16 clients stampede one structural fingerprint while a
/// scripted delay stretches every tuning measurement. Exactly one
/// tuning run happens (the rest coalesce through single-flight or hit
/// the cache), queue depth stays within its bound, and every request
/// is answered with an ok, a correct degraded product, a
/// shed/retry-after, or a deadline miss — nothing hangs, nothing is
/// dropped.
#[test]
fn stampede_on_one_fingerprint_tunes_once_and_answers_everyone() {
    let _guard = exclusive_failpoints();
    const CLIENTS: usize = 16;
    // Every measured repetition sleeps, so the leader's fallback run
    // (forced by the impossible confidence bar in `engine()`) is long
    // enough for the whole stampede to pile up behind it.
    let _fp = smat_failpoints::scoped("search.measure", "delay(10)").unwrap();
    let config = ServeConfig {
        workers: 4,
        queue_capacity: 4,
        degrade_watermark: 4,
        ..base_config()
    };
    let running = start(config);
    let (frame, _, expect) = matrix_fixture(140, 21);
    // A generous explicit deadline: the stretched tuning run must never
    // race the default budget, or the leader's Ok would turn into a
    // nondeterministic deadline miss.
    let frame = format!(
        "{},\"deadline_ms\":20000}}",
        frame.strip_suffix('}').expect("frame ends with a brace")
    );
    let frame = Arc::new(frame);
    let expect = Arc::new(expect);
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = running.addr;
            let frame = Arc::clone(&frame);
            let expect = Arc::clone(&expect);
            thread::spawn(move || {
                let resp = request(addr, &frame);
                let status = status_of(&resp).to_string();
                match status.as_str() {
                    "ok" | "degraded" => {
                        // Tuned or degraded, the product must be right.
                        let y = floats(field(&resp, "y"));
                        for (i, (got, want)) in y.iter().zip(expect.iter()).enumerate() {
                            assert!(
                                (got - want).abs() < 1e-9,
                                "y[{i}] = {got}, reference {want}"
                            );
                        }
                    }
                    "shed" => {
                        assert!(as_u64(field(&resp, "retry_after_ms")) > 0);
                    }
                    "deadline_miss" => {}
                    other => panic!("unexpected status {other} in {resp:?}"),
                }
                status
            })
        })
        .collect();
    let statuses: Vec<String> = clients
        .into_iter()
        .map(|h| h.join().expect("client thread answered"))
        .collect();
    assert_eq!(
        statuses.len(),
        CLIENTS,
        "every request got exactly one answer"
    );
    assert!(
        statuses.iter().any(|s| s == "ok"),
        "at least the leader is served a tuned result: {statuses:?}"
    );

    let metrics = request(running.addr, "{\"op\":\"metrics\"}");
    let service = field(&metrics, "service");
    let engine = field(&metrics, "engine");
    assert_eq!(as_u64(field(service, "requests_total")), CLIENTS as u64);
    let outcomes = as_u64(field(service, "requests_ok"))
        + as_u64(field(service, "requests_degraded"))
        + as_u64(field(service, "requests_shed"))
        + as_u64(field(service, "deadline_misses"))
        + as_u64(field(service, "requests_handle_miss"))
        + as_u64(field(service, "requests_error"));
    assert_eq!(
        outcomes, CLIENTS as u64,
        "every request counted exactly once"
    );
    assert_eq!(
        as_u64(field(engine, "cache_misses")),
        1,
        "one fingerprint, one tuning run"
    );
    assert!(
        as_u64(field(engine, "coalesced_waits")) >= 1,
        "concurrent workers coalesced onto the in-flight run"
    );
    let capacity = as_u64(field(service, "queue_capacity"));
    assert!(
        as_u64(field(service, "queue_high_watermark")) <= capacity,
        "queue depth bounded by its capacity"
    );
    assert_eq!(as_u64(field(service, "queue_depth")), 0, "quiesced");

    let summary = shutdown_and_join(running);
    assert_eq!(summary.requests_total, CLIENTS as u64);
}

/// Scripted worker faults become error *responses*; the worker thread
/// survives and the next request succeeds.
#[test]
fn injected_worker_faults_answer_errors_and_recover() {
    let _guard = exclusive_failpoints();
    let _fp =
        smat_failpoints::scoped("service.worker", "2*fail(injected worker fault)->off").unwrap();
    let config = ServeConfig {
        workers: 1,
        ..base_config()
    };
    let running = start(config);
    let (frame, _, _) = matrix_fixture(90, 22);
    let first = request(running.addr, &frame);
    assert_eq!(status_of(&first), "error");
    let second = request(running.addr, &frame);
    assert_eq!(status_of(&second), "error");
    let third = request(running.addr, &frame);
    assert!(matches!(status_of(&third), "ok" | "degraded"));
    let summary = shutdown_and_join(running);
    assert_eq!(summary.requests_error, 2);
    assert_eq!(summary.requests_total, 3);
}

/// A worker panic mid-job is contained to an error response — the
/// single worker thread is still alive to serve the next request.
#[test]
fn worker_panic_does_not_wedge_the_pool() {
    let _guard = exclusive_failpoints();
    let _fp = smat_failpoints::scoped("service.worker", "1*panic(poisoned request)->off").unwrap();
    let config = ServeConfig {
        workers: 1,
        ..base_config()
    };
    let running = start(config);
    let (frame, _, _) = matrix_fixture(90, 23);
    let first = request(running.addr, &frame);
    assert_eq!(status_of(&first), "error");
    match field(&first, "message") {
        Value::Str(m) => assert!(m.contains("panicked"), "message: {m}"),
        other => panic!("message is not a string: {other:?}"),
    }
    let second = request(running.addr, &frame);
    assert!(
        matches!(status_of(&second), "ok" | "degraded"),
        "the sole worker survived the panic: {second:?}"
    );
    shutdown_and_join(running);
}

/// An injected transport fault while reading drops that connection —
/// counted as torn — without touching the listener or other clients.
#[test]
fn injected_frame_faults_drop_only_their_connection() {
    let _guard = exclusive_failpoints();
    let _fp = smat_failpoints::scoped("service.frame", "1*fail(torn transport)->off").unwrap();
    let running = start(base_config());
    assert!(
        request_allowing_close(running.addr, "{\"op\":\"ping\"}").is_none(),
        "the faulted connection closes without a reply"
    );
    let pong = request(running.addr, "{\"op\":\"ping\"}");
    assert_eq!(status_of(&pong), "ok");
    let metrics = request(running.addr, "{\"op\":\"metrics\"}");
    assert_eq!(as_u64(field(field(&metrics, "service"), "torn_frames")), 1);
    shutdown_and_join(running);
}

/// An injected accept fault drops the handshake; the next connection
/// is served normally.
#[test]
fn injected_accept_faults_are_counted_and_transient() {
    let _guard = exclusive_failpoints();
    let _fp = smat_failpoints::scoped("service.accept", "1*fail(handshake died)->off").unwrap();
    let running = start(base_config());
    assert!(
        request_allowing_close(running.addr, "{\"op\":\"ping\"}").is_none(),
        "the faulted accept closes the socket"
    );
    let pong = request(running.addr, "{\"op\":\"ping\"}");
    assert_eq!(status_of(&pong), "ok");
    let metrics = request(running.addr, "{\"op\":\"metrics\"}");
    assert_eq!(
        as_u64(field(field(&metrics, "service"), "accept_faults")),
        1
    );
    shutdown_and_join(running);
}

/// A response-write fault (client vanished between admission and
/// answer) must not disturb the outcome accounting: the request is
/// counted by its outcome even though the bytes never arrived.
#[test]
fn respond_faults_keep_outcome_accounting_consistent() {
    let _guard = exclusive_failpoints();
    let _fp = smat_failpoints::scoped("service.respond", "1*fail(client gone)->off").unwrap();
    let config = ServeConfig {
        workers: 1,
        ..base_config()
    };
    let running = start(config);
    let (frame, _, _) = matrix_fixture(90, 24);
    assert!(
        request_allowing_close(running.addr, &frame).is_none(),
        "the faulted response write closes the connection"
    );
    let metrics = request(running.addr, "{\"op\":\"metrics\"}");
    let service = field(&metrics, "service");
    assert_eq!(as_u64(field(service, "respond_faults")), 1);
    assert_eq!(as_u64(field(service, "requests_total")), 1);
    let outcomes = as_u64(field(service, "requests_ok"))
        + as_u64(field(service, "requests_degraded"))
        + as_u64(field(service, "requests_shed"))
        + as_u64(field(service, "deadline_misses"))
        + as_u64(field(service, "requests_handle_miss"))
        + as_u64(field(service, "requests_error"));
    assert_eq!(outcomes, 1, "outcome counted despite the lost write");
    shutdown_and_join(running);
}

/// With the sole worker stalled by a scripted delay, backlog at the
/// watermark flips new requests onto the immediate degraded path: a
/// correct product now instead of a queued answer late.
#[test]
fn deep_backlog_degrades_immediately_with_a_correct_product() {
    let _guard = exclusive_failpoints();
    let _fp = smat_failpoints::scoped("service.worker", "delay(1500)").unwrap();
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 8,
        degrade_watermark: 2,
        ..base_config()
    };
    let running = start(config);
    let (frame, _, expect) = matrix_fixture(120, 25);
    // Background senders carry a long explicit deadline: with every job
    // stalled 1.5 s by the failpoint, the default budget would turn the
    // tail of the backlog into deadline misses.
    let slow = Arc::new(format!(
        "{},\"deadline_ms\":15000}}",
        frame.strip_suffix('}').expect("frame ends with a brace")
    ));
    // Three slow requests, staggered so each is admitted while the
    // queue is below the watermark: the first occupies the sole worker
    // (popped immediately), the next two sit queued behind it.
    let background: Vec<_> = (0..3)
        .map(|i| {
            let addr = running.addr;
            let slow = Arc::clone(&slow);
            let h = thread::spawn(move || {
                let resp = request(addr, &slow);
                assert!(
                    matches!(status_of(&resp), "ok" | "degraded"),
                    "background client {i}: {resp:?}"
                );
            });
            thread::sleep(Duration::from_millis(150));
            h
        })
        .collect();
    // The worker is now mid-delay on the first job, so the backlog is
    // static at the watermark for over a second.
    let deadline = Instant::now() + Duration::from_secs(5);
    while running.handle.queue_depth() < 2 {
        assert!(Instant::now() < deadline, "backlog never formed");
        thread::sleep(Duration::from_millis(5));
    }
    let resp = request(running.addr, &frame);
    assert_eq!(
        status_of(&resp),
        "degraded",
        "served past the queue: {resp:?}"
    );
    match field(&resp, "reason") {
        Value::Str(r) => assert!(r.contains("backlog"), "reason: {r}"),
        other => panic!("reason is not a string: {other:?}"),
    }
    let y = floats(field(&resp, "y"));
    for (got, want) in y.iter().zip(expect.iter()) {
        assert!((got - want).abs() < 1e-9, "degraded product is correct");
    }
    for h in background {
        h.join().expect("background client answered");
    }
    let summary = shutdown_and_join(running);
    assert_eq!(summary.requests_total, 4);
    assert!(summary.requests_degraded >= 1);
}

/// The warm handle path never crosses the tuning queue: with the sole
/// worker stalled by a scripted delay and inline work piling up behind
/// it, handle requests are still answered promptly from the connection
/// thread.
#[test]
fn warm_handles_bypass_a_stalled_worker_pool() {
    let _guard = exclusive_failpoints();
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 8,
        ..base_config()
    };
    let running = start(config);
    let (frame, _, expect) = matrix_fixture(110, 27);
    // Tune while the pool is healthy to mint the handle.
    let tuned = request(running.addr, &frame);
    assert_eq!(status_of(&tuned), "ok", "resp: {tuned:?}");
    let handle = match field(&tuned, "handle") {
        Value::Str(s) => s.clone(),
        other => panic!("handle is not a string: {other:?}"),
    };
    // Now stall every queued job and occupy the sole worker with a
    // fresh structural fingerprint (a different seed).
    let _fp = smat_failpoints::scoped("service.worker", "delay(1500)").unwrap();
    let (slow_frame, _, _) = matrix_fixture(115, 28);
    let slow = Arc::new(format!(
        "{},\"deadline_ms\":15000}}",
        slow_frame
            .strip_suffix('}')
            .expect("frame ends with a brace")
    ));
    let background = {
        let addr = running.addr;
        let slow = Arc::clone(&slow);
        thread::spawn(move || {
            let resp = request(addr, &slow);
            assert!(matches!(status_of(&resp), "ok" | "degraded"), "{resp:?}");
        })
    };
    thread::sleep(Duration::from_millis(100));
    // The worker is mid-delay; a warm call answers anyway, fast.
    let items: Vec<String> = (0..110)
        .map(|i| format!("{:?}", 0.5 * ((i % 5) as f64) - 1.0))
        .collect();
    let warm_frame = format!(
        "{{\"op\":\"spmv\",\"handle\":\"{handle}\",\"x\":[{}]}}",
        items.join(",")
    );
    let t0 = Instant::now();
    let warm = request(running.addr, &warm_frame);
    let elapsed = t0.elapsed();
    assert_eq!(status_of(&warm), "ok", "resp: {warm:?}");
    assert_eq!(field(&warm, "warm"), &Value::Bool(true));
    let y = floats(field(&warm, "y"));
    for (got, want) in y.iter().zip(expect.iter()) {
        assert!((got - want).abs() < 1e-9);
    }
    assert!(
        elapsed < Duration::from_millis(1000),
        "warm call waited on the stalled queue: {elapsed:?}"
    );
    background.join().expect("background client answered");
    let summary = shutdown_and_join(running);
    assert_eq!(summary.requests_total, 3);
    assert_eq!(summary.requests_handle_miss, 0);
}

/// A kernel variant that keeps faulting under the daemon is benched in
/// the install artifact the daemon's engine was built on, whatever the
/// matrix's fingerprint looks like: every contained fault still answers
/// `ok` with the reference-correct product, `metrics` names the variant,
/// and the next process to load the artifact starts with it benched.
#[test]
fn quarantine_tripped_through_the_daemon_reaches_the_install_artifact() {
    let _guard = exclusive_failpoints();
    let dir = std::env::temp_dir().join("smat_service_chaos");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(format!("install_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let config = SmatConfig {
        install_path: Some(path.clone()),
        ..SmatConfig::fast()
    };
    let threshold = config.breaker_threshold as usize;
    let engine = Arc::new(Smat::with_config(model().clone(), config).expect("install seals"));
    let running = start_with(engine, ServeConfig::default());

    // Tune distinct structures until one mints a handle whose
    // fingerprint has an odd first digest word.
    let (tuned, frame, expect) = (30..)
        .find_map(|seed| {
            let (frame, _, expect) = matrix_fixture(100, seed);
            let tuned = request(running.addr, &frame);
            assert_eq!(status_of(&tuned), "ok", "resp: {tuned:?}");
            let handle = text(field(&tuned, "handle"));
            let digest = handle.split(':').nth(5).expect("handle has a digest");
            let odd = u64::from_str_radix(digest, 16).expect("hex digest") % 2 == 1;
            odd.then_some((tuned, frame, expect))
        })
        .expect("some fingerprint is odd");
    let handle = text(field(&tuned, "handle"));
    let kernel = text(field(&tuned, "kernel"));
    // The same `x` the fixture's reference product used, by handle.
    let x = &frame[frame.find("\"x\":").expect("fixture frame carries x")..];
    let warm = format!("{{\"op\":\"spmv\",\"handle\":\"{handle}\",{x}");

    let _fp = smat_failpoints::scoped(
        "exec.kernel",
        &format!("{threshold}*panic(injected kernel fault)->off"),
    )
    .unwrap();
    for call in 0..threshold {
        let resp = request(running.addr, &warm);
        assert_eq!(status_of(&resp), "ok", "contained fault {call}: {resp:?}");
        let y = floats(field(&resp, "y"));
        assert_eq!(y.len(), expect.len());
        for (got, want) in y.iter().zip(&expect) {
            assert!((got - want).abs() < 1e-9, "contained call {call} diverged");
        }
    }

    let metrics = request(running.addr, "{\"op\":\"metrics\"}");
    let benched: Vec<String> = field(field(&metrics, "engine"), "quarantined_variants")
        .as_array()
        .expect("array")
        .iter()
        .map(|q| text(field(q, "name")))
        .collect();
    assert_eq!(
        benched,
        [kernel.as_str()],
        "metrics name the benched variant"
    );
    let lib = smat_kernels::KernelLibrary::<f64>::new();
    let sealed: Vec<&str> = smat::Installation::load(&path)
        .expect("artifact re-persisted")
        .quarantined
        .iter()
        .map(|&id| lib.info(id).name)
        .collect();
    assert_eq!(sealed, [kernel.as_str()], "the artifact carries the bench");
    shutdown_and_join(running);
    std::fs::remove_file(&path).ok();
}

/// Pipelined frames during a drain: the in-flight request is answered,
/// the follow-up is shed with a retry hint, and the drain persists the
/// cache snapshot before exiting.
#[test]
fn drain_answers_inflight_sheds_new_work_and_persists_snapshot() {
    let _guard = exclusive_failpoints();
    let _fp = smat_failpoints::scoped("service.worker", "delay(300)").unwrap();
    let dir = std::env::temp_dir().join("smat_service_chaos");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let snapshot = dir.join(format!("drain_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&snapshot);
    let config = ServeConfig {
        workers: 1,
        cache_snapshot: Some(snapshot.clone()),
        ..base_config()
    };
    let running = start(config);
    let (frame, _, _) = matrix_fixture(100, 26);
    // Pipeline two requests in one write: the first is in flight when
    // the drain begins; the second is read afterwards and shed.
    let mut stream = TcpStream::connect(running.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let two = format!("{frame}\n{frame}\n");
    stream.write_all(two.as_bytes()).expect("write both");
    // Give the connection thread time to start job 1, then drain.
    thread::sleep(Duration::from_millis(100));
    running.handle.begin_drain();
    let mut reader = BufReader::new(stream);
    let mut first = String::new();
    reader.read_line(&mut first).expect("first reply");
    let first = serde_json::parse(&first).expect("json");
    assert!(
        matches!(status_of(&first), "ok" | "degraded"),
        "in-flight request answered through the drain: {first:?}"
    );
    let mut second = String::new();
    reader.read_line(&mut second).expect("second reply");
    let second = serde_json::parse(&second).expect("json");
    assert_eq!(
        status_of(&second),
        "shed",
        "post-drain request shed: {second:?}"
    );
    assert!(as_u64(field(&second, "retry_after_ms")) > 0);

    let summary = running.join.join().expect("server thread");
    assert_eq!(summary.requests_total, 2);
    assert_eq!(summary.requests_shed, 1);
    assert_eq!(
        summary.cache_snapshot_entries,
        Some(1),
        "tuned decision persisted on drain"
    );
    assert!(snapshot.exists());
    std::fs::remove_file(&snapshot).ok();
}
