//! CI smoke driver for a running `smat serve` daemon.
//!
//! Usage: `smoke_clients <host:port> [metrics-out.json]`
//!
//! Drives ten concurrent clients against the daemon — seven
//! well-behaved SpMV requests on a shared fingerprint, one tune
//! request, one multi-RHS SpMM request, and one hostile client
//! sending garbage and an oversized frame — then runs the warm-path
//! phase (tune once for a handle, ride it through 50 handle-only SpMV
//! calls, and assert the registry served every one without a single
//! tune re-entry or wire-matrix parse), cross-checks the service
//! counters for consistency, writes the raw metrics JSON to the
//! output path for external schema validation, and asks the daemon to
//! drain. Exits nonzero on any violated invariant, so CI can gate on
//! it directly.

use serde::Value;
use smat_matrix::gen::random_uniform;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const FLEET: u64 = 9; // 7 spmv + 1 tune + 1 spmm, all counted as work
const WARM_CALLS: u64 = 50;
// Fleet, plus the warm-phase tune, plus the handle-only replays.
const WELL_BEHAVED: u64 = FLEET + 1 + WARM_CALLS;

fn connect(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

fn request_raw(addr: &str, line: &str) -> String {
    let (mut stream, mut reader) = connect(addr);
    stream.write_all(line.as_bytes()).expect("write frame");
    stream.write_all(b"\n").expect("write newline");
    let mut reply = String::new();
    let n = reader.read_line(&mut reply).expect("read reply");
    assert!(n > 0, "daemon closed the connection unexpectedly");
    reply
}

fn request(addr: &str, line: &str) -> Value {
    serde_json::parse(&request_raw(addr, line)).expect("reply is JSON")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .and_then(|fields| fields.iter().find(|(k, _)| k == key).map(|(_, val)| val))
        .unwrap_or_else(|| panic!("missing field {key:?} in {v:?}"))
}

fn status_of(v: &Value) -> String {
    match field(v, "status") {
        Value::Str(s) => s.clone(),
        other => panic!("status is not a string: {other:?}"),
    }
}

/// The decision-cache counters of a metrics document: `shards[0].cache`.
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

/// The hostile client: two invalid frames answered with errors on a
/// live connection, then an oversized frame that forces a disconnect.
fn hostile(addr: &str) {
    let (mut stream, mut reader) = connect(addr);
    for garbage in ["this is not json", "{\"op\":\"make_me_a_sandwich\"}"] {
        stream.write_all(garbage.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("newline");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        let reply = serde_json::parse(&reply).expect("json");
        assert_eq!(status_of(&reply), "error", "garbage answered with an error");
    }
    // An absurd frame with no newline: the daemon must cap the buffer
    // and drop the connection rather than hoard memory.
    let blob = vec![b'x'; 16 << 20];
    // The write itself may fail once the daemon closes its end.
    let _ = stream.write_all(&blob);
    let mut reply = String::new();
    match reader.read_line(&mut reply) {
        Ok(0) | Err(_) => {}
        Ok(_) => {
            let reply = serde_json::parse(&reply).expect("json");
            assert_eq!(status_of(&reply), "error", "oversized frame rejected");
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let addr = args.next().unwrap_or_else(|| {
        eprintln!("usage: smoke_clients <host:port> [metrics-out.json]");
        std::process::exit(2);
    });
    let out = args.next().unwrap_or_else(|| "metrics.json".to_string());

    let ping = request(&addr, "{\"op\":\"ping\"}");
    assert_eq!(status_of(&ping), "ok", "daemon answers ping");

    // Shared fixture: one structural fingerprint so concurrent tuning
    // exercises the single-flight path.
    let dim = 160;
    let m = random_uniform::<f64>(dim, dim, 6, 0xC1);
    let x: Vec<f64> = (0..dim).map(|i| 0.5 * ((i % 5) as f64) - 1.0).collect();
    let mut expect = vec![0.0; dim];
    m.spmv(&x, &mut expect).expect("reference SpMV");
    let entries: Vec<String> = m
        .iter()
        .map(|(r, c, v)| format!("[{r},{c},{v:?}]"))
        .collect();
    let matrix = format!(
        "{{\"rows\":{dim},\"cols\":{dim},\"entries\":[{}]}}",
        entries.join(",")
    );
    let xs: Vec<String> = x.iter().map(|v| format!("{v:?}")).collect();
    let spmv = Arc::new(format!(
        "{{\"op\":\"spmv\",\"deadline_ms\":30000,\"matrix\":{matrix},\"x\":[{}]}}",
        xs.join(",")
    ));
    let tune = format!("{{\"op\":\"tune\",\"deadline_ms\":30000,\"matrix\":{matrix}}}");
    // Multi-RHS block: three scaled copies of x, column-major on the
    // wire, checked against per-column reference products.
    let spmm_k = 3usize;
    let mut block = Vec::with_capacity(dim * spmm_k);
    let mut expect_mm = Vec::with_capacity(dim * spmm_k);
    for j in 0..spmm_k {
        let scale = 1.0 + j as f64;
        let col: Vec<f64> = x.iter().map(|v| v * scale).collect();
        let mut y = vec![0.0; dim];
        m.spmv(&col, &mut y).expect("reference SpMM column");
        block.extend(col);
        expect_mm.extend(y);
    }
    let blocks: Vec<String> = block.iter().map(|v| format!("{v:?}")).collect();
    let spmm = format!(
        "{{\"op\":\"spmm\",\"k\":{spmm_k},\"deadline_ms\":30000,\"matrix\":{matrix},\"x\":[{}]}}",
        blocks.join(",")
    );
    let expect = Arc::new(expect);
    let expect_mm = Arc::new(expect_mm);

    let mut clients = Vec::new();
    for _ in 0..7 {
        let addr = addr.clone();
        let spmv = Arc::clone(&spmv);
        let expect = Arc::clone(&expect);
        clients.push(thread::spawn(move || {
            let reply = request(&addr, &spmv);
            let status = status_of(&reply);
            match status.as_str() {
                "ok" | "degraded" => {
                    let y = floats(field(&reply, "y"));
                    for (i, (got, want)) in y.iter().zip(expect.iter()).enumerate() {
                        assert!(
                            (got - want).abs() < 1e-9,
                            "y[{i}] = {got}, reference {want}"
                        );
                    }
                }
                "shed" => {
                    assert!(as_u64(field(&reply, "retry_after_ms")) > 0);
                }
                other => panic!("unexpected spmv status {other}: {reply:?}"),
            }
            status
        }));
    }
    {
        let addr = addr.clone();
        let tune = tune.clone();
        clients.push(thread::spawn(move || {
            let reply = request(&addr, &tune);
            let status = status_of(&reply);
            assert!(
                matches!(status.as_str(), "ok" | "degraded" | "shed"),
                "unexpected tune status: {reply:?}"
            );
            status
        }));
    }
    {
        let addr = addr.clone();
        let expect_mm = Arc::clone(&expect_mm);
        clients.push(thread::spawn(move || {
            let reply = request(&addr, &spmm);
            let status = status_of(&reply);
            match status.as_str() {
                "ok" | "degraded" => {
                    assert_eq!(as_u64(field(&reply, "k")), spmm_k as u64);
                    let y = floats(field(&reply, "y"));
                    assert_eq!(y.len(), expect_mm.len(), "spmm block shape");
                    for (i, (got, want)) in y.iter().zip(expect_mm.iter()).enumerate() {
                        assert!(
                            (got - want).abs() < 1e-9,
                            "spmm y[{i}] = {got}, reference {want}"
                        );
                    }
                }
                "shed" => {
                    assert!(as_u64(field(&reply, "retry_after_ms")) > 0);
                }
                other => panic!("unexpected spmm status {other}: {reply:?}"),
            }
            status
        }));
    }
    let hostile_addr = addr.clone();
    let hostile_join = thread::spawn(move || hostile(&hostile_addr));

    let statuses: Vec<String> = clients
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    hostile_join.join().expect("hostile client thread");
    let served = statuses.iter().filter(|s| *s == "ok").count();
    assert!(
        served >= 1,
        "at least one request tuned to Ok: {statuses:?}"
    );

    // Warm-path phase: tune once for a handle, then ride that handle
    // through WARM_CALLS handle-only SpMV replays on one persistent
    // connection. The registry must serve every call without a tune
    // re-entry (engine cache counters flat) or a wire-matrix parse.
    let baseline = request(&addr, "{\"op\":\"metrics\"}");
    let warm_tune = request(&addr, &tune);
    assert_eq!(
        status_of(&warm_tune),
        "ok",
        "warm-phase tune: {warm_tune:?}"
    );
    let handle = match field(&warm_tune, "handle") {
        Value::Str(h) => h.clone(),
        other => panic!("handle is not a string: {other:?}"),
    };
    let warm_frame = format!(
        "{{\"op\":\"spmv\",\"deadline_ms\":30000,\"handle\":\"{handle}\",\"x\":[{}]}}",
        xs.join(",")
    );
    let (mut warm_stream, mut warm_reader) = connect(&addr);
    for call in 0..WARM_CALLS {
        warm_stream
            .write_all(warm_frame.as_bytes())
            .expect("write warm frame");
        warm_stream.write_all(b"\n").expect("write newline");
        let mut line = String::new();
        let n = warm_reader.read_line(&mut line).expect("read warm reply");
        assert!(n > 0, "daemon closed the warm connection at call {call}");
        let reply = serde_json::parse(&line).expect("warm reply is JSON");
        assert_eq!(status_of(&reply), "ok", "warm call {call}: {reply:?}");
        assert!(
            matches!(field(&reply, "warm"), Value::Bool(true)),
            "warm call {call} not marked warm: {reply:?}"
        );
        let y = floats(field(&reply, "y"));
        for (i, (got, want)) in y.iter().zip(expect.iter()).enumerate() {
            assert!(
                (got - want).abs() < 1e-9,
                "warm y[{i}] = {got}, reference {want}"
            );
        }
    }
    drop(warm_stream);

    // Counter consistency once the fleet has quiesced. Keep the raw
    // reply line: it is written verbatim for external jq validation.
    let raw_metrics = request_raw(&addr, "{\"op\":\"metrics\"}");
    let metrics = serde_json::parse(&raw_metrics).expect("metrics reply is JSON");
    let service = field(&metrics, "service");
    let total = as_u64(field(service, "requests_total"));
    assert_eq!(total, WELL_BEHAVED, "only admitted work requests counted");
    let outcomes = as_u64(field(service, "requests_ok"))
        + as_u64(field(service, "requests_degraded"))
        + as_u64(field(service, "requests_shed"))
        + as_u64(field(service, "deadline_misses"))
        + as_u64(field(service, "requests_handle_miss"))
        + as_u64(field(service, "requests_error"));
    assert_eq!(outcomes, total, "every request counted exactly once");
    // The warm phase must have been served entirely from the handle
    // registry: handle hits advanced by exactly WARM_CALLS while the
    // engine's decision cache and the wire-matrix parser stood still
    // (the one parse is the warm-phase tune itself, which reuses the
    // fleet's fingerprint and therefore hits the decision cache).
    let base_service = field(&baseline, "service");
    let base_cache = shard_cache(&baseline);
    let cache = shard_cache(&metrics);
    let engine = field(&metrics, "engine");
    assert_eq!(
        as_u64(field(service, "handle_hits")),
        as_u64(field(base_service, "handle_hits")) + WARM_CALLS,
        "every warm call served from the handle registry"
    );
    assert_eq!(
        as_u64(field(service, "handle_misses")),
        as_u64(field(base_service, "handle_misses")),
        "no warm call missed the registry"
    );
    assert_eq!(
        as_u64(field(service, "wire_matrix_parses")),
        as_u64(field(base_service, "wire_matrix_parses")) + 1,
        "only the warm-phase tune parsed a wire matrix"
    );
    assert_eq!(
        as_u64(field(cache, "misses")),
        as_u64(field(base_cache, "misses")),
        "zero tune re-entries during the warm phase"
    );
    assert!(
        as_u64(field(service, "frames_invalid")) >= 2,
        "hostile garbage counted"
    );
    assert!(
        as_u64(field(service, "oversized_frames")) >= 1,
        "oversized frame counted"
    );
    let capacity = as_u64(field(service, "queue_capacity"));
    assert!(
        as_u64(field(service, "queue_high_watermark")) <= capacity,
        "queue depth stayed bounded"
    );
    // The engine block carries the fault-containment counters the
    // health schema pins; the cache counters live in the shard entry.
    for key in ["spmv_calls", "spmm_calls"] {
        let _ = as_u64(field(engine, key));
    }
    for key in ["misses", "coalesced_waits"] {
        let _ = as_u64(field(cache, key));
    }

    std::fs::write(&out, &raw_metrics).expect("write metrics snapshot");
    println!("smoke ok: {total} work requests ({served} ok), metrics written to {out}");

    let bye = request(&addr, "{\"op\":\"shutdown\"}");
    assert_eq!(status_of(&bye), "ok", "shutdown acknowledged");
}
