//! End-to-end tests of the tuning service over real sockets: protocol
//! round trips, admission policies, client misbehavior, and graceful
//! drain. Everything here runs without failpoints — the scripted-fault
//! scenarios live in the workspace chaos suite; where a test needs a
//! tuning run to stall, it registers a kernel that waits for the test.

use serde::Value;
use smat::{Installation, Smat, SmatConfig, TrainedModel, Trainer, INSTALL_SCHEMA_VERSION};
use smat_kernels::{KernelChoice, KernelFn, KernelLibrary, StrategySet};
use smat_matrix::gen::{generate_corpus, random_uniform, CorpusSpec};
use smat_matrix::{AnyMatrix, Csr, Format};
use smat_service::server::DrainSummary;
use smat_service::{ServeConfig, Server, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

fn model() -> &'static TrainedModel {
    static MODEL: OnceLock<TrainedModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let corpus = generate_corpus::<f64>(&CorpusSpec::small(120, 0x5E21));
        let matrices: Vec<&Csr<f64>> = corpus.iter().map(|e| &e.matrix).collect();
        Trainer::new(SmatConfig::fast())
            .train(&matrices)
            .expect("training succeeds")
            .model
    })
}

fn engine() -> Arc<Smat<f64>> {
    Arc::new(Smat::with_config(model().clone(), SmatConfig::default()).expect("engine builds"))
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

/// Quick-test config: tight timeouts so misbehavior tests finish fast.
fn test_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        frame_timeout: Duration::from_millis(400),
        ..ServeConfig::default()
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).expect("write");
        self.stream.write_all(b"\n").expect("write newline");
        self.stream.flush().expect("flush");
    }

    fn recv_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed the connection unexpectedly");
        line
    }

    fn recv(&mut self) -> Value {
        serde_json::parse(&self.recv_line()).expect("response is JSON")
    }

    fn request(&mut self, line: &str) -> Value {
        self.send(line);
        self.recv()
    }
}

fn one_shot(addr: SocketAddr, line: &str) -> Value {
    Client::connect(addr).request(line)
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

/// The decision-cache counters of a metrics document: `shards[0].cache`,
/// their one home.
fn shard_cache(metrics: &Value) -> &Value {
    let shards = field(metrics, "shards").as_array().expect("shards array");
    field(&shards[0], "cache")
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

/// JSON for a small but non-trivial test matrix plus the x vector and
/// the reference product.
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
    (json, x, y)
}

fn x_json(x: &[f64]) -> String {
    let items: Vec<String> = x.iter().map(|v| format!("{v:?}")).collect();
    format!("[{}]", items.join(","))
}

fn shutdown_and_join(running: Running) -> DrainSummary {
    let resp = one_shot(running.addr, "{\"op\":\"shutdown\"}");
    assert_eq!(status_of(&resp), "ok");
    assert_eq!(field(&resp, "draining"), &Value::Bool(true));
    let summary = running.join.join().expect("server thread");
    assert!(running.handle.is_draining());
    summary
}

fn wait_until(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for {what}");
}

#[test]
fn ping_metrics_and_shutdown_round_trip() {
    let running = start(test_config());
    let pong = one_shot(running.addr, "{\"op\":\"ping\"}");
    assert_eq!(status_of(&pong), "ok");

    let metrics = one_shot(running.addr, "{\"op\":\"metrics\"}");
    assert_eq!(status_of(&metrics), "ok");
    let service = field(&metrics, "service");
    for key in [
        "accepted_connections",
        "frames_valid",
        "frames_invalid",
        "requests_total",
        "requests_ok",
        "requests_degraded",
        "requests_shed",
        "deadline_misses",
        "requests_error",
        "shed_tenant",
        "shed_queue_full",
        "queue_depth",
        "queue_capacity",
        "queue_high_watermark",
    ] {
        as_u64(field(service, key));
    }
    assert_eq!(field(service, "draining"), &Value::Bool(false));
    // The engine block is the full health report; the cache counters
    // are the shard entry's.
    let engine = field(&metrics, "engine");
    field(engine, "quarantined_variants").as_array().unwrap();
    as_u64(field(shard_cache(&metrics), "coalesced_waits"));

    let summary = shutdown_and_join(running);
    assert_eq!(summary.requests_total, 0);
}

#[test]
fn spmv_matches_the_reference_product() {
    let running = start(test_config());
    let (matrix, x, expect) = matrix_fixture(120, 11);
    let resp = one_shot(
        running.addr,
        &format!(
            "{{\"op\":\"spmv\",\"matrix\":{matrix},\"x\":{}}}",
            x_json(&x)
        ),
    );
    let status = status_of(&resp);
    assert!(
        status == "ok" || status == "degraded",
        "unexpected status {status} in {resp:?}"
    );
    let y = floats(field(&resp, "y"));
    assert_eq!(y.len(), expect.len());
    for (i, (got, want)) in y.iter().zip(&expect).enumerate() {
        assert!(
            (got - want).abs() < 1e-9,
            "y[{i}] = {got}, reference {want}"
        );
    }
    let summary = shutdown_and_join(running);
    assert_eq!(summary.requests_total, 1);
    assert_eq!(summary.requests_ok + summary.requests_degraded, 1);
}

#[test]
fn repeat_tune_is_served_from_the_cache() {
    let running = start(test_config());
    let (matrix, _, _) = matrix_fixture(100, 12);
    let mut client = Client::connect(running.addr);
    let first = client.request(&format!("{{\"op\":\"tune\",\"matrix\":{matrix}}}"));
    assert!(matches!(status_of(&first), "ok" | "degraded"));
    let second = client.request(&format!("{{\"op\":\"tune\",\"matrix\":{matrix}}}"));
    assert_eq!(status_of(&second), "ok");
    assert_eq!(field(&second, "cached"), &Value::Bool(true));
    shutdown_and_join(running);
}

#[test]
fn invalid_frames_answer_errors_without_dropping_the_connection() {
    let running = start(test_config());
    let mut client = Client::connect(running.addr);
    let garbage = client.request("this is not json");
    assert_eq!(status_of(&garbage), "error");
    let unknown = client.request("{\"op\":\"dance\"}");
    assert_eq!(status_of(&unknown), "error");
    let bad_matrix = client
        .request("{\"op\":\"tune\",\"matrix\":{\"rows\":2,\"cols\":2,\"entries\":[[9,9,1]]}}");
    assert_eq!(status_of(&bad_matrix), "error");
    // The connection survived all three.
    let pong = client.request("{\"op\":\"ping\"}");
    assert_eq!(status_of(&pong), "ok");

    let metrics = one_shot(running.addr, "{\"op\":\"metrics\"}");
    let service = field(&metrics, "service");
    // All three — bad JSON, unknown op, and the out-of-range matrix —
    // are invalid frames, answered as errors and never admitted.
    assert_eq!(as_u64(field(service, "frames_invalid")), 3);
    let summary = shutdown_and_join(running);
    assert_eq!(summary.requests_total, 0);
}

/// A frame nested deeper than any honest one is a malformed frame like
/// any other: the reader stops following it at a fixed depth instead of
/// recursing as deep as a 100 KB line of brackets asks — which, before
/// the cap, overflowed the connection thread's stack and took the whole
/// process down past every `catch_unwind`.
#[test]
fn deeply_nested_frames_are_refused_not_recursed_into() {
    let running = start(test_config());
    let mut client = Client::connect(running.addr);
    let invalid = |running: &Running| {
        let service_metrics = running.handle.metrics_snapshot();
        as_u64(field(field(&service_metrics, "service"), "frames_invalid"))
    };
    for frame in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
        let before = invalid(&running);
        let refused = client.request(&frame);
        assert_eq!(status_of(&refused), "error");
        match field(&refused, "message") {
            Value::Str(m) => assert!(
                m.starts_with("invalid JSON: nesting deeper than 128"),
                "message: {m}"
            ),
            other => panic!("message is {other:?}"),
        }
        // Exactly one reply: the next line answers the next frame, on
        // the same connection.
        let pong = client.request("{\"op\":\"ping\"}");
        assert_eq!(status_of(&pong), "ok");
        assert_eq!(field(&pong, "op"), &Value::Str("ping".to_string()));
        assert_eq!(invalid(&running), before + 1);
    }
    let summary = shutdown_and_join(running);
    assert_eq!(summary.requests_total, 0);
}

#[test]
fn oversized_frames_close_the_connection() {
    let config = ServeConfig {
        max_frame_bytes: 256,
        ..test_config()
    };
    let running = start(config);
    let mut client = Client::connect(running.addr);
    let blob = "x".repeat(4096);
    client
        .stream
        .write_all(blob.as_bytes())
        .expect("write blob");
    client.stream.flush().expect("flush");
    // The server answers with an error line, then closes.
    let mut reply = String::new();
    client
        .reader
        .read_line(&mut reply)
        .expect("read error line");
    assert!(reply.contains("frame exceeds"), "reply: {reply}");
    let mut rest = String::new();
    let n = client.reader.read_to_string(&mut rest).expect("read EOF");
    assert_eq!(n, 0, "connection should be closed after the error");
    let metrics = one_shot(running.addr, "{\"op\":\"metrics\"}");
    assert_eq!(
        as_u64(field(field(&metrics, "service"), "oversized_frames")),
        1
    );
    shutdown_and_join(running);
}

#[test]
fn torn_frames_are_counted_and_do_not_wedge_the_server() {
    let running = start(test_config());
    {
        let mut client = Client::connect(running.addr);
        client
            .stream
            .write_all(b"{\"op\":\"pi")
            .expect("write half");
        client.stream.flush().expect("flush");
        // Drop mid-frame.
    }
    let addr = running.addr;
    wait_until(
        || {
            let metrics = one_shot(addr, "{\"op\":\"metrics\"}");
            as_u64(field(field(&metrics, "service"), "torn_frames")) == 1
        },
        "torn_frames == 1",
    );
    shutdown_and_join(running);
}

#[test]
fn slow_loris_clients_are_disconnected() {
    let config = ServeConfig {
        frame_timeout: Duration::from_millis(120),
        ..test_config()
    };
    let running = start(config);
    let mut client = Client::connect(running.addr);
    client.stream.write_all(b"{").expect("write first byte");
    client.stream.flush().expect("flush");
    thread::sleep(Duration::from_millis(400));
    // The server must have hung up rather than holding the thread.
    let mut rest = String::new();
    let n = client
        .reader
        .read_to_string(&mut rest)
        .expect("read after timeout");
    assert_eq!(n, 0, "slow-loris connection should be closed");
    let metrics = one_shot(running.addr, "{\"op\":\"metrics\"}");
    assert_eq!(
        as_u64(field(field(&metrics, "service"), "slow_loris_closes")),
        1
    );
    shutdown_and_join(running);
}

#[test]
fn tenant_budget_sheds_with_a_retry_hint() {
    let config = ServeConfig {
        tenant_rate: 0.001,
        tenant_burst: 1.0,
        ..test_config()
    };
    let running = start(config);
    let (matrix, _, _) = matrix_fixture(80, 13);
    let mut client = Client::connect(running.addr);
    let first = client.request(&format!(
        "{{\"op\":\"tune\",\"tenant\":\"team-a\",\"matrix\":{matrix}}}"
    ));
    assert!(matches!(status_of(&first), "ok" | "degraded"));
    let second = client.request(&format!(
        "{{\"op\":\"tune\",\"tenant\":\"team-a\",\"matrix\":{matrix}}}"
    ));
    assert_eq!(status_of(&second), "shed");
    assert!(as_u64(field(&second, "retry_after_ms")) > 0);
    // Another tenant is unaffected.
    let other = client.request(&format!(
        "{{\"op\":\"tune\",\"tenant\":\"team-b\",\"matrix\":{matrix}}}"
    ));
    assert!(matches!(status_of(&other), "ok" | "degraded"));
    let summary = shutdown_and_join(running);
    assert_eq!(summary.requests_total, 3);
    assert_eq!(summary.requests_shed, 1);
}

#[test]
fn zero_deadline_is_answered_with_a_deadline_miss() {
    let running = start(test_config());
    let (matrix, _, _) = matrix_fixture(80, 14);
    let resp = one_shot(
        running.addr,
        &format!("{{\"op\":\"spmv\",\"deadline_ms\":0,\"matrix\":{matrix}}}"),
    );
    assert_eq!(status_of(&resp), "deadline_miss");
    let summary = shutdown_and_join(running);
    assert_eq!(summary.deadline_misses, 1);
}

#[test]
fn concurrent_clients_are_all_answered_and_counters_balance() {
    const CLIENTS: usize = 8;
    let running = start(test_config());
    let (matrix, x, expect) = matrix_fixture(150, 15);
    let frame = Arc::new(format!(
        "{{\"op\":\"spmv\",\"matrix\":{matrix},\"x\":{}}}",
        x_json(&x)
    ));
    let expect = Arc::new(expect);
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = running.addr;
            let frame = Arc::clone(&frame);
            let expect = Arc::clone(&expect);
            thread::spawn(move || {
                let resp = one_shot(addr, &frame);
                let status = status_of(&resp).to_string();
                assert!(
                    matches!(status.as_str(), "ok" | "degraded"),
                    "unexpected status in {resp:?}"
                );
                let y = floats(field(&resp, "y"));
                for (got, want) in y.iter().zip(expect.iter()) {
                    assert!((got - want).abs() < 1e-9);
                }
                status
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let metrics = one_shot(running.addr, "{\"op\":\"metrics\"}");
    let service = field(&metrics, "service");
    assert_eq!(as_u64(field(service, "requests_total")), CLIENTS as u64);
    assert_eq!(
        outcomes(service),
        CLIENTS as u64,
        "every request counted once"
    );
    // All eight share one structural fingerprint: at most one tuning
    // run, the rest answered from cache or coalesced onto the leader.
    assert_eq!(as_u64(field(shard_cache(&metrics), "misses")), 1);
    shutdown_and_join(running);
}

#[test]
fn shutdown_drains_and_persists_the_cache_snapshot() {
    let dir = std::env::temp_dir().join("smat_service_tests");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let snapshot = dir.join(format!("cache_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&snapshot);
    let config = ServeConfig {
        cache_snapshot: Some(snapshot.clone()),
        ..test_config()
    };
    let running = start(config);
    let (matrix, _, _) = matrix_fixture(90, 16);
    let resp = one_shot(
        running.addr,
        &format!("{{\"op\":\"tune\",\"matrix\":{matrix}}}"),
    );
    assert!(matches!(status_of(&resp), "ok" | "degraded"));
    let summary = shutdown_and_join(running);
    assert_eq!(summary.cache_snapshot_entries, Some(1));
    assert!(snapshot.exists(), "snapshot persisted on drain");
    // The snapshot is a sealed artifact a fresh engine can adopt.
    let fresh = engine();
    assert_eq!(fresh.load_cache(&snapshot).expect("load snapshot"), 1);
    std::fs::remove_file(&snapshot).ok();
}

fn handle_of(v: &Value) -> String {
    match field(v, "handle") {
        Value::Str(s) => s.clone(),
        other => panic!("handle is not a string: {other:?}"),
    }
}

#[test]
fn warm_handle_path_does_zero_matrix_work() {
    const WARM_CALLS: usize = 100;
    let running = start(test_config());
    let (matrix, x, expect) = matrix_fixture(120, 21);
    let mut client = Client::connect(running.addr);
    let tuned = client.request(&format!("{{\"op\":\"tune\",\"matrix\":{matrix}}}"));
    assert_eq!(status_of(&tuned), "ok");
    let handle = handle_of(&tuned);

    // Audit baseline after the tune: the warm loop must not move any
    // of the matrix-work counters.
    let before = one_shot(running.addr, "{\"op\":\"metrics\"}");
    let parses_before = as_u64(field(field(&before, "service"), "wire_matrix_parses"));
    let prepares = |metrics: &Value| {
        let cache = shard_cache(metrics);
        as_u64(field(cache, "hits")) + as_u64(field(cache, "misses"))
    };
    let prepares_before = prepares(&before);
    let hits_before = as_u64(field(field(&before, "service"), "handle_hits"));

    let warm_frame = format!(
        "{{\"op\":\"spmv\",\"handle\":\"{handle}\",\"x\":{}}}",
        x_json(&x)
    );
    for i in 0..WARM_CALLS {
        let resp = client.request(&warm_frame);
        assert_eq!(status_of(&resp), "ok", "warm call {i}: {resp:?}");
        assert_eq!(field(&resp, "warm"), &Value::Bool(true));
        assert_eq!(handle_of(&resp), handle, "handle echoed");
        let y = floats(field(&resp, "y"));
        for (got, want) in y.iter().zip(&expect) {
            assert!((got - want).abs() < 1e-9, "warm call {i} diverged");
        }
    }

    let after = one_shot(running.addr, "{\"op\":\"metrics\"}");
    let service = field(&after, "service");
    // Zero matrix parses, zero conversions/prepares (cache untouched),
    // one registry hit per warm call.
    assert_eq!(
        as_u64(field(service, "wire_matrix_parses")),
        parses_before,
        "warm calls must not parse wire matrices"
    );
    assert_eq!(
        prepares(&after),
        prepares_before,
        "warm calls must not reach prepare"
    );
    assert_eq!(
        as_u64(field(service, "handle_hits")),
        hits_before + WARM_CALLS as u64
    );
    let summary = shutdown_and_join(running);
    assert_eq!(summary.requests_total, (WARM_CALLS + 1) as u64);
    assert_eq!(summary.requests_handle_miss, 0);
}

/// The daemon's own account of where a request's time goes: every
/// admitted work request is counted once in each stage, and the stages
/// (which do not overlap) add up to no more than the round trips the
/// client measured around them.
#[test]
fn stage_histograms_account_for_every_warm_request() {
    const WARM_CALLS: u64 = 60;
    const STAGES: [&str; 5] = ["read", "parse", "work", "encode", "write"];
    let running = start(test_config());
    let (matrix, x, _) = matrix_fixture(400, 33);
    let mut client = Client::connect(running.addr);
    let tuned = client.request(&format!("{{\"op\":\"tune\",\"matrix\":{matrix}}}"));
    let warm_frame = format!(
        "{{\"op\":\"spmv\",\"handle\":\"{}\",\"x\":{}}}",
        handle_of(&tuned),
        x_json(&x)
    );
    let stages = |running: &Running| {
        let metrics = running.handle.metrics_snapshot();
        STAGES.map(|stage| {
            let entry = field(field(&metrics, "stages"), stage).clone();
            let micros = |key: &str| match field(&entry, key) {
                Value::Float(f) => *f,
                other => panic!("{stage}.{key} is {other:?}"),
            };
            let quantiles = [micros("p50_us"), micros("p90_us"), micros("p99_us")];
            assert!(
                quantiles.windows(2).all(|w| w[0] <= w[1]),
                "{stage} quantiles are ordered: {quantiles:?}"
            );
            (as_u64(field(&entry, "count")), micros("sum_us"))
        })
    };
    // The cold tune went through every stage once as well — its write
    // is recorded once the write returns, which a ping on the same
    // connection (answered in order) is the way to wait for.
    assert_eq!(status_of(&client.request("{\"op\":\"ping\"}")), "ok");
    let before = stages(&running);
    assert_eq!(before.map(|(count, _)| count), [1; 5]);
    let mut round_trips_us = 0.0;
    for _ in 0..WARM_CALLS {
        let sent = Instant::now();
        client.send(&warm_frame);
        let line = client.recv_line();
        round_trips_us += sent.elapsed().as_secs_f64() * 1e6;
        assert!(line.starts_with("{\"status\":\"ok\""), "line: {line}");
    }
    // The connection answers in order: once the ping is back, the last
    // warm request's write has been recorded.
    assert_eq!(status_of(&client.request("{\"op\":\"ping\"}")), "ok");
    let after = stages(&running);
    let mut accounted_us = 0.0;
    for (stage, (was, now)) in STAGES.iter().zip(before.iter().zip(&after)) {
        assert_eq!(now.0 - was.0, WARM_CALLS, "{stage} count");
        assert!(now.1 > was.1, "{stage} took some time");
        accounted_us += now.1 - was.1;
    }
    assert!(
        accounted_us <= round_trips_us,
        "stages account for {accounted_us} us of {round_trips_us} us of round trips"
    );
    // Pings, metrics and malformed frames are not work requests.
    client.request("not json");
    assert_eq!(
        stages(&running).map(|(count, _)| count),
        [WARM_CALLS + 1; 5]
    );
    shutdown_and_join(running);
}

#[test]
fn warm_spmm_replays_the_block_product() {
    let running = start(test_config());
    let (matrix, _, _) = matrix_fixture(60, 22);
    let mut client = Client::connect(running.addr);
    let tuned = client.request(&format!("{{\"op\":\"tune\",\"matrix\":{matrix}}}"));
    assert_eq!(status_of(&tuned), "ok");
    let handle = handle_of(&tuned);
    // Reference: the cold spmm on the inline matrix.
    let cold = client.request(&format!("{{\"op\":\"spmm\",\"k\":3,\"matrix\":{matrix}}}"));
    assert_eq!(status_of(&cold), "ok");
    let want = floats(field(&cold, "y"));
    let warm = client.request(&format!(
        "{{\"op\":\"spmm\",\"k\":3,\"handle\":\"{handle}\"}}"
    ));
    assert_eq!(status_of(&warm), "ok", "warm spmm: {warm:?}");
    assert_eq!(field(&warm, "warm"), &Value::Bool(true));
    let got = floats(field(&warm, "y"));
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert!((g - w).abs() < 1e-9);
    }
    shutdown_and_join(running);
}

#[test]
fn unknown_handles_answer_handle_miss_with_the_fingerprint() {
    let running = start(test_config());
    let (matrix, x, _) = matrix_fixture(80, 23);
    let mut client = Client::connect(running.addr);
    let tuned = client.request(&format!("{{\"op\":\"tune\",\"matrix\":{matrix}}}"));
    assert_eq!(status_of(&tuned), "ok");
    let handle = handle_of(&tuned);
    // Same generation, perturbed digest: a handle the server never
    // minted. The reply must carry handle_miss and echo the structure.
    let mut parts: Vec<String> = handle.split(':').map(str::to_string).collect();
    parts[5] = format!("{:016x}", u64::from_str_radix(&parts[5], 16).unwrap() ^ 1);
    let forged = parts.join(":");
    let resp = client.request(&format!(
        "{{\"op\":\"spmv\",\"handle\":\"{forged}\",\"x\":{}}}",
        x_json(&x)
    ));
    assert_eq!(status_of(&resp), "handle_miss", "resp: {resp:?}");
    assert_eq!(handle_of(&resp), forged);
    let fp = field(&resp, "fingerprint");
    assert_eq!(as_u64(field(fp, "rows")), 80);
    assert_eq!(as_u64(field(fp, "cols")), 80);
    assert_eq!(field(fp, "digest").as_array().map(|d| d.len()), Some(2));
    let metrics = one_shot(running.addr, "{\"op\":\"metrics\"}");
    let service = field(&metrics, "service");
    assert_eq!(as_u64(field(service, "requests_handle_miss")), 1);
    assert!(as_u64(field(service, "handle_misses")) >= 1);
    let summary = shutdown_and_join(running);
    assert_eq!(summary.requests_handle_miss, 1);
}

#[test]
fn handles_are_evicted_under_the_byte_budget() {
    // A 1-byte budget: every insert immediately evicts the previous
    // resident (the newest entry is always kept).
    let config = ServeConfig {
        handle_budget_bytes: 1,
        ..test_config()
    };
    let running = start(config);
    let (matrix_a, x_a, _) = matrix_fixture(70, 24);
    let (matrix_b, _, _) = matrix_fixture(90, 25);
    let mut client = Client::connect(running.addr);
    let first = client.request(&format!("{{\"op\":\"tune\",\"matrix\":{matrix_a}}}"));
    assert_eq!(status_of(&first), "ok");
    let handle_a = handle_of(&first);
    let second = client.request(&format!("{{\"op\":\"tune\",\"matrix\":{matrix_b}}}"));
    assert_eq!(status_of(&second), "ok");
    let handle_b = handle_of(&second);
    // A was evicted to make room for B.
    let miss = client.request(&format!(
        "{{\"op\":\"spmv\",\"handle\":\"{handle_a}\",\"x\":{}}}",
        x_json(&x_a)
    ));
    assert_eq!(status_of(&miss), "handle_miss", "resp: {miss:?}");
    let warm = client.request(&format!("{{\"op\":\"spmv\",\"handle\":\"{handle_b}\"}}"));
    assert_eq!(status_of(&warm), "ok", "resp: {warm:?}");
    let metrics = one_shot(running.addr, "{\"op\":\"metrics\"}");
    let service = field(&metrics, "service");
    assert!(as_u64(field(service, "handle_evictions")) >= 1);
    let shards = field(&metrics, "shards").as_array().unwrap();
    assert_eq!(shards.len(), 1);
    assert_eq!(as_u64(field(&shards[0], "handle_entries")), 1);
    shutdown_and_join(running);
}

#[test]
fn handles_do_not_survive_a_restart_but_the_decision_cache_does() {
    let dir = std::env::temp_dir().join("smat_service_tests");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let snapshot = dir.join(format!("handles_gen_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&snapshot);
    let config = || ServeConfig {
        cache_snapshot: Some(snapshot.clone()),
        ..test_config()
    };
    let (matrix, x, expect) = matrix_fixture(100, 26);

    let first_run = start(config());
    let tuned = one_shot(
        first_run.addr,
        &format!("{{\"op\":\"tune\",\"matrix\":{matrix}}}"),
    );
    assert_eq!(status_of(&tuned), "ok");
    let old_handle = handle_of(&tuned);
    let summary = shutdown_and_join(first_run);
    assert_eq!(summary.cache_snapshot_entries, Some(1));

    // Same process, new server: the generation tag differs, so the old
    // handle misses deterministically instead of resolving against a
    // registry that never held it.
    let second_run = start(config());
    let stale = one_shot(
        second_run.addr,
        &format!(
            "{{\"op\":\"spmv\",\"handle\":\"{old_handle}\",\"x\":{}}}",
            x_json(&x)
        ),
    );
    assert_eq!(status_of(&stale), "handle_miss", "resp: {stale:?}");
    // Falling back to the triplet path hits the reloaded decision
    // cache (no re-tune) and mints a fresh-generation handle.
    let mut client = Client::connect(second_run.addr);
    let retuned = client.request(&format!("{{\"op\":\"tune\",\"matrix\":{matrix}}}"));
    assert_eq!(status_of(&retuned), "ok");
    assert_eq!(field(&retuned, "cached"), &Value::Bool(true));
    let new_handle = handle_of(&retuned);
    assert_ne!(new_handle, old_handle, "generation tag must differ");
    let warm = client.request(&format!(
        "{{\"op\":\"spmv\",\"handle\":\"{new_handle}\",\"x\":{}}}",
        x_json(&x)
    ));
    assert_eq!(status_of(&warm), "ok", "resp: {warm:?}");
    let y = floats(field(&warm, "y"));
    for (got, want) in y.iter().zip(&expect) {
        assert!((got - want).abs() < 1e-9);
    }
    shutdown_and_join(second_run);
    std::fs::remove_file(&snapshot).ok();
}

#[test]
fn stampede_on_one_matrix_coalesces_to_one_tune_and_one_handle() {
    const CLIENTS: usize = 16;
    let running = start(test_config());
    let (matrix, x, expect) = matrix_fixture(130, 27);
    let frame = Arc::new(format!("{{\"op\":\"tune\",\"matrix\":{matrix}}}"));
    let x = Arc::new(x);
    let expect = Arc::new(expect);
    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = running.addr;
            let frame = Arc::clone(&frame);
            let x = Arc::clone(&x);
            let expect = Arc::clone(&expect);
            thread::spawn(move || {
                let mut client = Client::connect(addr);
                let tuned = client.request(&frame);
                assert_eq!(status_of(&tuned), "ok", "resp: {tuned:?}");
                let handle = handle_of(&tuned);
                // Immediately ride the handle warm.
                let warm = client.request(&format!(
                    "{{\"op\":\"spmv\",\"handle\":\"{handle}\",\"x\":{}}}",
                    x_json(&x)
                ));
                assert_eq!(status_of(&warm), "ok", "resp: {warm:?}");
                let y = floats(field(&warm, "y"));
                for (got, want) in y.iter().zip(expect.iter()) {
                    assert!((got - want).abs() < 1e-9);
                }
                handle
            })
        })
        .collect();
    let handles: Vec<String> = workers.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(
        handles.iter().all(|h| h == &handles[0]),
        "one matrix, one handle: {handles:?}"
    );
    let metrics = one_shot(running.addr, "{\"op\":\"metrics\"}");
    // Single-flight coalescing: one structural fingerprint tunes
    // exactly once.
    assert_eq!(as_u64(field(shard_cache(&metrics), "misses")), 1);
    let summary = shutdown_and_join(running);
    assert_eq!(summary.requests_total, 2 * CLIENTS as u64);
    assert_eq!(summary.requests_handle_miss, 0);
}

#[test]
fn metrics_expose_the_one_entry_shards_array() {
    let running = start(test_config());
    let (matrix, _, _) = matrix_fixture(75, 28);
    let tuned = one_shot(
        running.addr,
        &format!("{{\"op\":\"tune\",\"matrix\":{matrix}}}"),
    );
    assert_eq!(status_of(&tuned), "ok");
    let metrics = one_shot(running.addr, "{\"op\":\"metrics\"}");
    let service = field(&metrics, "service");
    assert_eq!(as_u64(field(service, "shard_count")), 1);
    assert!(as_u64(field(service, "generation")) > 0);
    for key in ["handle_hits", "handle_misses", "handle_evictions"] {
        as_u64(field(service, key));
    }
    let shards = field(&metrics, "shards").as_array().expect("shards array");
    assert_eq!(shards.len(), 1);
    let shard = &shards[0];
    assert_eq!(as_u64(field(shard, "index")), 0);
    let cache = field(shard, "cache");
    for key in ["hits", "misses", "entries", "capacity", "corrupt_evictions"] {
        as_u64(field(cache, key));
    }
    field(shard, "quarantined").as_array().expect("array");
    for key in [
        "handle_hits",
        "handle_misses",
        "handle_evictions",
        "handle_entries",
        "handle_resident_bytes",
    ] {
        as_u64(field(shard, key));
    }
    assert_eq!(as_u64(field(shard, "handle_entries")), 1);
    assert_eq!(as_u64(field(cache, "misses")), 1);
    // The entry is the counters' one home: the engine block holds no
    // copy of them.
    let engine = field(&metrics, "engine")
        .as_object()
        .expect("engine object");
    assert!(
        engine.iter().all(|(key, _)| !key.starts_with("cache_")),
        "engine block: {engine:?}"
    );
    shutdown_and_join(running);
}

#[test]
fn handle_capacity_bounds_the_whole_daemon() {
    let config = ServeConfig {
        handle_capacity: 2,
        ..test_config()
    };
    let running = start(config);
    // Three distinct structures whose fingerprints cover both parities
    // of `digest[0]`: whatever a fingerprint looks like, it counts
    // against the one configured capacity.
    let parity = |seed: u64| random_uniform::<f64>(70, 70, 6, seed).fingerprint().digest[0] % 2;
    let first = 40;
    let second = (first + 1..)
        .find(|&seed| parity(seed) != parity(first))
        .expect("some seed has the other parity");
    let mut client = Client::connect(running.addr);
    for seed in [first, second, second + 1] {
        let (matrix, _, _) = matrix_fixture(70, seed);
        let tuned = client.request(&format!("{{\"op\":\"tune\",\"matrix\":{matrix}}}"));
        assert_eq!(status_of(&tuned), "ok", "resp: {tuned:?}");
    }
    let metrics = one_shot(running.addr, "{\"op\":\"metrics\"}");
    assert_eq!(
        as_u64(field(field(&metrics, "service"), "handle_evictions")),
        1
    );
    let shards = field(&metrics, "shards").as_array().expect("shards array");
    assert_eq!(as_u64(field(&shards[0], "handle_entries")), 2);
    shutdown_and_join(running);
}

/// An engine whose decisions are a pure function of the request: no
/// rules (every matrix takes the measured path), CSR the only
/// candidate, the basic kernel table (serial plans, so nothing for
/// the plan search to race). `csr_kernel`, when given, is registered
/// and chosen as the CSR kernel, so every tuning run measures it.
fn pinned_engine(csr_kernel: Option<KernelFn<f64>>) -> Arc<Smat<f64>> {
    let mut pinned = model().clone();
    pinned.groups.groups.clear();
    let config = SmatConfig {
        fallback_formats: vec![Format::Csr],
        ..SmatConfig::default()
    };
    let builtin = KernelLibrary::<f64>::new();
    let mut kernel_choice = KernelChoice::basic();
    if csr_kernel.is_some() {
        kernel_choice.set(Format::Csr, builtin.variant_count(Format::Csr));
    }
    let installation = Installation {
        schema: INSTALL_SCHEMA_VERSION,
        precision: "double".to_string(),
        library_digest: builtin.digest(),
        probe_dim: config.probe_dim,
        kernel_choice,
        tables: Vec::new(),
        quarantined: Vec::new(),
    };
    let mut engine = Smat::with_installation(pinned, config, installation).expect("engine builds");
    if let Some(kernel) = csr_kernel {
        let strategies = StrategySet::default();
        engine
            .library_mut()
            .register(Format::Csr, "csr_held", strategies, kernel);
    }
    Arc::new(engine)
}

/// What a test holding a tuning run and its registered kernel share:
/// while `hold` is set a call of the kernel parks, after counting
/// itself in `entered`. Tests that hold take [`HOLDER`] first.
struct Hold {
    hold: bool,
    entered: usize,
}

static HOLD: (Mutex<Hold>, Condvar) = (
    Mutex::new(Hold {
        hold: false,
        entered: 0,
    }),
    Condvar::new(),
);

/// Serializes the tests that hold [`HOLD`]: the test harness runs them
/// on parallel threads, and one's release must not free the other's
/// parked run.
static HOLDER: Mutex<()> = Mutex::new(());

/// Sets [`HOLD`], sends `frame` on `first` and waits until its tuning
/// run has parked in the held kernel.
fn park_one_run(first: &mut Client, frame: &str) {
    let (state, changed) = &HOLD;
    {
        let mut state = state.lock().unwrap();
        state.hold = true;
        state.entered = 0;
    }
    first.send(frame);
    let parked = changed
        .wait_timeout_while(state.lock().unwrap(), Duration::from_secs(30), |s| {
            s.entered == 0
        })
        .unwrap();
    assert!(!parked.1.timed_out(), "the first request never tuned");
}

/// Lets every parked and later run of the held kernel through.
fn release_runs() {
    let (state, changed) = &HOLD;
    state.lock().unwrap().hold = false;
    changed.notify_all();
}

/// The reference CSR product, once the test lets it through.
fn held_csr(m: &AnyMatrix<f64>, x: &[f64], y: &mut [f64]) {
    let (state, changed) = &HOLD;
    let mut state = state.lock().unwrap();
    state.entered += 1;
    changed.notify_all();
    while state.hold {
        state = changed.wait(state).unwrap();
    }
    drop(state);
    match m {
        AnyMatrix::Csr(csr) => csr.spmv(x, y).expect("reference SpMV"),
        other => panic!("registered for CSR, handed {:?}", other.format()),
    }
}

/// An `spmv` frame on a structure of its own per `seed`: nothing
/// coalesces, nothing hits the cache.
fn held_frame(seed: u64, deadline_ms: u64) -> String {
    let (matrix, x, _) = matrix_fixture(60, seed);
    format!(
        "{{\"op\":\"spmv\",\"deadline_ms\":{deadline_ms},\"matrix\":{matrix},\"x\":{}}}",
        x_json(&x)
    )
}

/// The six outcome counters of the `service` block, summed.
fn outcomes(service: &Value) -> u64 {
    [
        "requests_ok",
        "requests_degraded",
        "requests_shed",
        "deadline_misses",
        "requests_handle_miss",
        "requests_error",
    ]
    .iter()
    .map(|key| as_u64(field(service, key)))
    .sum()
}

/// One permit, a line of two: of five concurrent cold requests one
/// tunes, two wait for it in arrival order, and the other two are
/// answered at once — nobody waits outside the line. A waiter whose
/// deadline passes in line is answered `queued` and never tunes.
#[test]
fn gate_runs_one_lines_up_two_and_answers_the_rest_at_once() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 2,
        degrade_watermark: 2,
        ..test_config()
    };
    let _holder = HOLDER.lock().unwrap_or_else(PoisonError::into_inner);
    let running = start_with(pinned_engine(Some(held_csr)), config);
    // `unanswered` requests are in flight: admitted and counted in
    // `requests_total`, in no outcome counter yet.
    let assert_balance = |unanswered: u64| {
        let metrics = running.handle.metrics_snapshot();
        let service = field(&metrics, "service");
        assert_eq!(
            as_u64(field(service, "requests_total")),
            outcomes(service) + unanswered,
            "service: {service:?}"
        );
    };

    // The first request takes the permit and parks inside its tuning
    // run; the next two stand in line behind it, the second of them
    // with a deadline it will not make.
    let mut first = Client::connect(running.addr);
    park_one_run(&mut first, &held_frame(51, 20_000));
    let mut second = Client::connect(running.addr);
    second.send(&held_frame(52, 20_000));
    wait_until(|| running.handle.queue_depth() == 1, "one in line");
    let mut hurried = Client::connect(running.addr);
    hurried.send(&held_frame(53, 1_000));
    wait_until(|| running.handle.queue_depth() == 2, "two in line");
    assert_balance(3);

    // The line is at the watermark (and its bound): the fourth and the
    // fifth are answered while the permit is still held.
    for seed in [54, 55] {
        let resp = one_shot(running.addr, &held_frame(seed, 20_000));
        match status_of(&resp) {
            "degraded" => match field(&resp, "reason") {
                Value::Str(reason) => assert!(reason.contains("backlog 2"), "{reason}"),
                other => panic!("reason is {other:?}"),
            },
            "shed" => assert_eq!(
                field(&resp, "reason"),
                &Value::Str("admission queue full".to_string())
            ),
            other => panic!("answered {other} with the line full: {resp:?}"),
        }
        assert_eq!(running.handle.queue_depth(), 2, "nobody else waits");
        assert_balance(3);
    }

    // Still held: the hurried waiter gives up in line.
    let missed = hurried.recv();
    assert_eq!(status_of(&missed), "deadline_miss", "{missed:?}");
    assert_eq!(field(&missed, "stage"), &Value::Str("queued".to_string()));
    assert_eq!(running.handle.queue_depth(), 1, "its place is free");
    assert_balance(2);

    release_runs();
    for (client, unanswered) in [(&mut first, 1), (&mut second, 0)] {
        let resp = client.recv();
        assert_eq!(status_of(&resp), "ok", "{resp:?}");
        assert_eq!(field(&resp, "kernel"), &Value::Str("csr_held".to_string()));
        // The second's reply may already be counted when the first's
        // is read; never fewer than what the test has not read yet.
        let metrics = running.handle.metrics_snapshot();
        let service = field(&metrics, "service");
        assert!(as_u64(field(service, "requests_total")) <= outcomes(service) + unanswered);
    }
    assert_balance(0);

    let metrics = running.handle.metrics_snapshot();
    let service = field(&metrics, "service");
    assert_eq!(as_u64(field(service, "queue_depth")), 0);
    assert_eq!(as_u64(field(service, "queue_high_watermark")), 2);
    assert_eq!(as_u64(field(service, "deadline_misses")), 1);
    // Two tuning runs, not three: the hurried waiter's never started.
    assert_eq!(as_u64(field(shard_cache(&metrics), "misses")), 2);
    let summary = shutdown_and_join(running);
    assert_eq!(summary.requests_total, 5);
    assert_eq!(summary.requests_ok, 2);
    assert_eq!(summary.requests_degraded + summary.requests_shed, 2);
}

/// Replaces what differs between two runs of one request script — the
/// handle's generation tag and the raced SpMM kernel's name — so reply
/// lines compare byte for byte.
fn masked(line: &str) -> String {
    let mut out = line.trim_end().to_string();
    for (marker, end) in [("\"h1:", ':'), ("\"spmm_kernel\":\"", '"')] {
        if let Some(at) = out.find(marker) {
            let from = at + marker.len();
            let to = from + out[from..].find(end).expect("masked field ends");
            out.replace_range(from..to, "_");
        }
    }
    out
}

/// A 4x3 matrix and right-hand sides in dyadic rationals, so every
/// product is exact whatever order a kernel sums in.
const PINNED_MATRIX: &str = "{\"rows\":4,\"cols\":3,\"entries\":\
    [[0,0,2],[0,2,-1],[1,1,0.5],[2,0,4],[2,1,1],[3,2,-3]]}";
const PINNED_X: &str = "[1,2,-0.5]";
const PINNED_BLOCK: &str = "[1,2,-0.5,0,1,0,-2,0.25,8]";

/// Replies of a healthy daemon, captured at the commit before the three
/// reply builders became one: a tune, a cold and a warm `spmv`, then
/// `spmm` k=3 cold with `x`, cold without, warm with and warm without.
const TUNED_REPLIES: [&str; 7] = [
    r#"{"status":"ok","op":"tune","format":"CSR","kernel":"csr_basic","cached":false,"handle":"h1:_:4:3:6:9503142b5bd764b9:823afd517f3c34bc"}"#,
    r#"{"status":"ok","op":"spmv","format":"CSR","kernel":"csr_basic","cached":true,"handle":"h1:_:4:3:6:9503142b5bd764b9:823afd517f3c34bc","y":[2.5,1.0,6.0,1.5]}"#,
    r#"{"status":"ok","op":"spmv","handle":"h1:_:4:3:6:9503142b5bd764b9:823afd517f3c34bc","format":"CSR","kernel":"csr_basic","warm":true,"y":[2.5,1.0,6.0,1.5]}"#,
    r#"{"status":"ok","op":"spmm","format":"CSR","kernel":"csr_basic","cached":true,"handle":"h1:_:4:3:6:9503142b5bd764b9:823afd517f3c34bc","spmm_kernel":"_","k":3,"y":[2.5,1.0,6.0,1.5,0.0,0.5,1.0,0.0,-12.0,0.125,-7.75,-24.0]}"#,
    r#"{"status":"ok","op":"spmm","format":"CSR","kernel":"csr_basic","cached":true,"handle":"h1:_:4:3:6:9503142b5bd764b9:823afd517f3c34bc","spmm_kernel":"_","k":3,"y":[1.0,0.5,5.0,-3.0,1.0,0.5,5.0,-3.0,1.0,0.5,5.0,-3.0]}"#,
    r#"{"status":"ok","op":"spmm","handle":"h1:_:4:3:6:9503142b5bd764b9:823afd517f3c34bc","format":"CSR","kernel":"csr_basic","warm":true,"spmm_kernel":"_","k":3,"y":[2.5,1.0,6.0,1.5,0.0,0.5,1.0,0.0,-12.0,0.125,-7.75,-24.0]}"#,
    r#"{"status":"ok","op":"spmm","handle":"h1:_:4:3:6:9503142b5bd764b9:823afd517f3c34bc","format":"CSR","kernel":"csr_basic","warm":true,"spmm_kernel":"_","k":3,"y":[1.0,0.5,5.0,-3.0,1.0,0.5,5.0,-3.0,1.0,0.5,5.0,-3.0]}"#,
];

/// Replies of the degraded rung, captured at the same commit: `tune`,
/// `spmv` with `x`, `spmm` k=3 with and without `x`. Only `reason` has
/// changed since: the rung is now reached through the backlog.
const DEGRADED_REPLIES: [&str; 4] = [
    r#"{"status":"degraded","op":"tune","format":"csr","kernel":"csr_basic_serial","reason":"backlog 1 at the degrade watermark 1"}"#,
    r#"{"status":"degraded","op":"spmv","format":"csr","kernel":"csr_basic_serial","reason":"backlog 1 at the degrade watermark 1","y":[2.5,1.0,6.0,1.5]}"#,
    r#"{"status":"degraded","op":"spmm","format":"csr","kernel":"csr_basic_serial","reason":"backlog 1 at the degrade watermark 1","k":3,"y":[2.5,1.0,6.0,1.5,0.0,0.5,1.0,0.0,-12.0,0.125,-7.75,-24.0]}"#,
    r#"{"status":"degraded","op":"spmm","format":"csr","kernel":"csr_basic_serial","reason":"backlog 1 at the degrade watermark 1","k":3,"y":[1.0,0.5,5.0,-3.0,1.0,0.5,5.0,-3.0,1.0,0.5,5.0,-3.0]}"#,
];

/// A matrix and a vector whose product overflows: row 0 is `inf - inf`
/// (NaN), row 1 `inf`. JSON has no word for either.
const OVERFLOWING: &str = "\"matrix\":{\"rows\":2,\"cols\":2,\"entries\":\
    [[0,0,1e308],[0,1,1e308],[1,0,1e308]]},\"x\":[10,-10]";

/// What a client parses out of a reply's `y` formats back to the very
/// digits the line carries — the floats cross the wire bit for bit —
/// and a non-finite element is `null`.
fn assert_y_round_trips(line: &str) {
    let line = line.trim_end();
    let Some(at) = line.find("\"y\":[") else {
        return;
    };
    let digits = &line[at + "\"y\":[".len()..line.len() - "]}".len()];
    let parsed = serde_json::parse(line).expect("reply is JSON");
    let y: Vec<String> = field(&parsed, "y")
        .as_array()
        .expect("y is an array")
        .iter()
        .map(|v| match v {
            Value::Float(f) => format!("{f:?}"),
            Value::Null => "null".to_string(),
            other => panic!("y holds {other:?}"),
        })
        .collect();
    assert_eq!(y.join(","), digits);
}

/// Every kind of work reply is byte-identical — field names, their
/// order within each reply kind, and values — to what the daemon
/// answered when the cold, warm and degraded paths each built their
/// own.
#[test]
fn replies_are_byte_identical_across_the_product_paths() {
    let inline =
        |op: &str, rest: &str| format!("{{\"op\":\"{op}\",\"matrix\":{PINNED_MATRIX}{rest}}}");
    let block = format!(",\"k\":3,\"x\":{PINNED_BLOCK}");
    let vector = format!(",\"x\":{PINNED_X}");

    let running = start_with(pinned_engine(None), test_config());
    let mut client = Client::connect(running.addr);
    let mut ask = |frame: String| {
        client.send(&frame);
        client.recv_line()
    };
    let tune = ask(inline("tune", ""));
    let handle = handle_of(&serde_json::parse(&tune).expect("reply is JSON"));
    let by_handle =
        |op: &str, rest: &str| format!("{{\"op\":\"{op}\",\"handle\":\"{handle}\"{rest}}}");
    let replies = [
        tune,
        ask(inline("spmv", &vector)),
        ask(by_handle("spmv", &vector)),
        ask(inline("spmm", &block)),
        ask(inline("spmm", ",\"k\":3")),
        ask(by_handle("spmm", &block)),
        ask(by_handle("spmm", ",\"k\":3")),
    ];
    replies.iter().for_each(|line| assert_y_round_trips(line));
    assert_eq!(replies.map(|line| masked(&line)), TUNED_REPLIES);
    let overflowed = ask(format!("{{\"op\":\"spmv\",{OVERFLOWING}}}"));
    assert!(overflowed.starts_with("{\"status\":\"ok\""), "{overflowed}");
    assert!(
        overflowed.ends_with(",\"y\":[null,null]}\n"),
        "{overflowed}"
    );
    assert_y_round_trips(&overflowed);
    shutdown_and_join(running);

    // The degraded rung: one run parked in a held kernel and one request
    // in line behind it put the line at the watermark.
    let _holder = HOLDER.lock().unwrap_or_else(PoisonError::into_inner);
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        degrade_watermark: 1,
        ..test_config()
    };
    let running = start_with(pinned_engine(Some(held_csr)), config);
    let mut parked = Client::connect(running.addr);
    park_one_run(&mut parked, &held_frame(61, 20_000));
    let mut waiting = Client::connect(running.addr);
    waiting.send(&held_frame(62, 20_000));
    wait_until(|| running.handle.queue_depth() == 1, "one in line");
    let mut client = Client::connect(running.addr);
    let mut ask = |frame: String| {
        client.send(&frame);
        client.recv_line()
    };
    let replies = [
        ask(inline("tune", "")),
        ask(inline("spmv", &vector)),
        ask(inline("spmm", &block)),
        ask(inline("spmm", ",\"k\":3")),
    ];
    replies.iter().for_each(|line| assert_y_round_trips(line));
    assert_eq!(replies.map(|line| masked(&line)), DEGRADED_REPLIES);
    let overflowed = ask(format!("{{\"op\":\"spmv\",{OVERFLOWING}}}"));
    assert!(
        overflowed.ends_with(",\"y\":[null,null]}\n"),
        "{overflowed}"
    );
    assert_y_round_trips(&overflowed);
    release_runs();
    for held in [&mut parked, &mut waiting] {
        let resp = held.recv();
        assert_eq!(status_of(&resp), "ok", "{resp:?}");
    }
    shutdown_and_join(running);
}

/// Framing does not depend on how the transport cuts the stream: the
/// same two work frames written a byte at a time, in pieces that
/// straddle the server's 4 KiB read size, or in one piece yield the
/// same replies and the same frame counters.
#[test]
fn frames_split_at_any_byte_boundary_parse_the_same() {
    let (matrix, x, _) = matrix_fixture(60, 29);
    let stream = format!(
        "{{\"op\":\"tune\",\"matrix\":{matrix}}}\n\
         {{\"op\":\"spmv\",\"matrix\":{matrix},\"x\":{}}}\n",
        x_json(&x)
    );
    assert!(stream.len() > 3 * 4097, "several pieces at every size");
    let run = |piece: usize| {
        let running = start_with(pinned_engine(None), test_config());
        let mut client = Client::connect(running.addr);
        client.stream.set_nodelay(true).expect("nodelay");
        for part in stream.as_bytes().chunks(piece) {
            client.stream.write_all(part).expect("write piece");
        }
        let replies = [client.recv_line(), client.recv_line()].map(|line| masked(&line));
        let metrics = one_shot(running.addr, "{\"op\":\"metrics\"}");
        let service = field(&metrics, "service");
        let counters = [
            "frames_valid",
            "frames_invalid",
            "torn_frames",
            "oversized_frames",
            "slow_loris_closes",
            "requests_total",
            "requests_ok",
            "wire_matrix_parses",
        ]
        .map(|key| as_u64(field(service, key)));
        shutdown_and_join(running);
        (replies, counters)
    };
    let whole = run(stream.len());
    // Two work frames and the metrics probe itself.
    assert_eq!(whole.1, [3, 0, 0, 0, 0, 2, 2, 2]);
    for piece in [1, 7, 4095, 4096, 4097] {
        assert_eq!(run(piece), whole, "pieces of {piece} bytes");
    }
}

#[cfg(unix)]
#[test]
fn unix_socket_serves_the_same_protocol() {
    use std::os::unix::net::UnixStream;
    let dir = std::env::temp_dir().join("smat_service_tests");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(format!("serve_{}.sock", std::process::id()));
    let server = Server::bind_unix(&path, engine(), test_config()).expect("bind unix");
    let join = thread::spawn(move || server.run().expect("run"));
    let mut stream = UnixStream::connect(&path).expect("connect unix");
    stream.write_all(b"{\"op\":\"ping\"}\n").expect("write");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("\"ok\""), "line: {line}");
    stream.write_all(b"{\"op\":\"shutdown\"}\n").expect("write");
    line.clear();
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("draining"), "line: {line}");
    join.join().expect("server thread");
    assert!(!path.exists(), "socket file removed on drain");
}

/// `bind_unix` replaces what a previous run left behind — a socket —
/// and nothing else: a regular file at the path is somebody's data.
#[cfg(unix)]
#[test]
fn bind_unix_replaces_a_stale_socket_but_refuses_a_regular_file() {
    use std::os::unix::net::UnixListener;
    let dir = std::env::temp_dir().join("smat_service_tests");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let stale = dir.join(format!("stale_{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&stale);
    // Dropping a listener closes it and leaves its file behind.
    drop(UnixListener::bind(&stale).expect("bind the first time"));
    assert!(stale.exists());
    Server::bind_unix(&stale, engine(), test_config()).expect("a stale socket is replaced");
    std::fs::remove_file(&stale).ok();

    let precious = dir.join(format!("model_{}.json", std::process::id()));
    std::fs::write(&precious, "not a socket").expect("write file");
    let refused = Server::bind_unix(&precious, engine(), test_config())
        .err()
        .expect("a regular file is not replaced");
    let message = refused.to_string();
    assert!(
        message.contains(&precious.display().to_string()) && message.contains("not a socket"),
        "message: {message}"
    );
    let kept = std::fs::read_to_string(&precious).expect("file still there");
    assert_eq!(kept, "not a socket");
    std::fs::remove_file(&precious).ok();
}
