//! The net under the request parser: the messages it owes its clients,
//! frame by frame, and a seeded fuzz of the protocol against both
//! `parse_request` and a running daemon.

use serde::Value;
use smat::{Smat, SmatConfig, Trainer};
use smat_matrix::gen::{generate_corpus, CorpusSpec};
use smat_matrix::Csr;
use smat_service::proto::{parse_request, Request};
use smat_service::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Every defect frame is answered with the message the tree-walking
/// parser gave it, byte for byte — which defect of two is named, how a
/// repeated key is read, what a character offset counts.
#[test]
fn defect_frames_keep_their_messages() {
    let fixture = include_str!("defect_frames.txt");
    let mut lines = fixture.lines().filter(|l| !l.starts_with('#'));
    let mut cases = vec![(
        "{\"op\":\"spmv\",\"tenant\":\"tab\tinside\"}",
        "invalid JSON: unescaped control character in JSON string",
    )];
    while let Some(frame) = lines.next() {
        let verdict = lines.next().and_then(|l| l.strip_prefix("=> "));
        cases.push((frame, verdict.expect("a verdict follows every frame")));
    }
    assert!(cases.len() >= 150, "the table shrank to {}", cases.len());
    for (frame, verdict) in cases {
        match parse_request(frame) {
            Ok(_) => assert_eq!(verdict, "ok", "frame {frame}"),
            Err(message) => assert_eq!(message, verdict, "frame {frame}"),
        }
    }
}

/// SplitMix64: the suite's seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T: ?Sized>(&mut self, of: &[&'a T]) -> &'a T {
        of[self.below(of.len())]
    }

    fn number(&mut self) -> String {
        let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        match self.below(4) {
            0 => format!("{}", self.below(20)),
            1 => format!("{:?}", unit * 8.0 - 4.0),
            2 => format!("{:e}", unit * 1e-3),
            _ => format!("-{:?}", unit),
        }
    }
}

/// Rows and columns of the one long shape: its `entries` (~26 bytes a
/// triplet) and `x` (~15 bytes a value) are long enough to be read in
/// pieces, and an `spmv` reply's `y` to be written in pieces.
const LONG_ROWS: usize = 4_000;
const LONG_COLS: usize = 5_000;

/// A frame the protocol accepts: every op, inline matrices of a few
/// small shapes (so the daemon's decision cache serves most of them) or
/// the long one, or a handle, optional fields present or not, keys in
/// any order.
fn valid_frame(rng: &mut Rng, handles: &[String], long: bool) -> String {
    let op = rng.pick(&[
        "tune", "tune", "spmv", "spmv", "spmv", "spmm", "spmm", "ping", "metrics",
    ]);
    let mut members = vec![format!("\"op\":\"{op}\"")];
    if !matches!(op, "ping" | "metrics") {
        let k = if op == "spmm" { 1 + rng.below(3) } else { 1 };
        let cols;
        if op != "tune" && rng.below(3) == 0 {
            let forged = "h1:1:4:3:5:7:9".to_string();
            let handle = if handles.is_empty() || rng.below(4) == 0 {
                &forged
            } else {
                &handles[rng.below(handles.len())]
            };
            cols = usize::from_str_radix(handle.split(':').nth(3).expect("cols"), 16)
                .expect("hex cols");
            members.push(format!("\"handle\":\"{handle}\""));
        } else {
            let rows = if long { LONG_ROWS } else { 2 + rng.below(3) };
            cols = if long { LONG_COLS } else { 2 + rng.below(3) };
            // A banded shape: row r holds (r, r % cols) and, every
            // other row, its right neighbour.
            let mut entries = Vec::new();
            for r in 0..rows {
                entries.push(format!("[{r},{},{}]", r % cols, rng.number()));
                if r % 2 == 0 && cols > 1 {
                    entries.push(format!("[{r},{},{}]", (r + 1) % cols, rng.number()));
                }
            }
            let mut fields = vec![
                format!("\"rows\":{rows}"),
                format!("\"cols\":{cols}"),
                format!("\"entries\":[{}]", entries.join(",")),
            ];
            if rng.below(2) == 0 {
                fields.insert(rng.below(3), format!("\"nnz\":{}", entries.len()));
            }
            if rng.below(4) == 0 {
                fields.swap(0, 2);
            }
            members.push(format!("\"matrix\":{{{}}}", fields.join(",")));
        }
        if op == "spmm" {
            members.push(format!("\"k\":{k}"));
        }
        if op != "tune" && rng.below(4) != 0 {
            let x: Vec<String> = (0..cols * k).map(|_| rng.number()).collect();
            members.push(format!("\"x\":[{}]", x.join(",")));
        }
        if rng.below(3) == 0 {
            members.push(format!(
                "\"deadline_ms\":{}",
                rng.pick(&["0", "2000", "null"])
            ));
        }
        if rng.below(3) == 0 {
            let tenant = rng.pick(&["\"a\"", "\"naïve\"", "\"日本\"", "\"q\\\"\\u00e9\"", "null"]);
            members.push(format!("\"tenant\":{tenant}"));
        }
        if rng.below(5) == 0 {
            members.push("\"note\":{\"deep\":[[1,{\"a\":null}],true,\"\\n\"]}".to_string());
        }
    }
    // `op` moves too: the parser may not rely on meeting it first.
    let at = rng.below(members.len());
    members.swap(0, at);
    let sep = rng.pick(&[",", ",", " , ", ",\t"]);
    format!("{{{}}}", members.join(sep))
}

/// One byte-level mutation: truncation, deletion, duplication, or a
/// structural byte (bracket, quote, digit, sign, separator) replaced.
fn mutate(rng: &mut Rng, frame: &mut Vec<u8>) {
    const STRUCTURAL: &[u8] = b"[]{}\",:0123456789.-eE \\nulltrue";
    let len = frame.len();
    match rng.below(5) {
        0 => frame.truncate(1 + rng.below(len)),
        1 => {
            let from = rng.below(len);
            let to = (from + 1 + rng.below(8)).min(len);
            frame.drain(from..to);
        }
        2 => {
            let from = rng.below(len);
            let to = (from + 1 + rng.below(24)).min(len);
            let piece = frame[from..to].to_vec();
            let at = rng.below(len + 1);
            frame.splice(at..at, piece);
        }
        _ => {
            // Prefer a byte that is structural already: those are the
            // flips that change what the frame means.
            let mut at = rng.below(len);
            for _ in 0..8 {
                if STRUCTURAL.contains(&frame[at]) {
                    break;
                }
                at = rng.below(len);
            }
            frame[at] = STRUCTURAL[rng.below(STRUCTURAL.len())];
        }
    }
    if frame.is_empty() {
        frame.push(b'{');
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    let fields = v.as_object().expect("an object");
    let found = fields.iter().find(|(k, _)| k == key);
    &found.unwrap_or_else(|| panic!("no {key:?} in {v:?}")).1
}

fn count(v: &Value, key: &str) -> u64 {
    match field(v, key) {
        Value::UInt(u) => *u,
        Value::Int(i) => u64::try_from(*i).expect("a count"),
        other => panic!("{key} is {other:?}"),
    }
}

const FUZZ_CASES: usize = 6_000;
const LONG_EVERY: usize = 16;

/// Generated valid frames and byte-level mutations of them, against
/// the parser and against a daemon on a socket: nothing panics, a
/// frame the protocol accepts is JSON, a syntax error is reported as
/// the tree parser words it, every frame gets exactly one reply line,
/// and the outcome counters balance. One case in `LONG_EVERY` has the
/// long shape, so mutations land inside arrays read in pieces.
#[test]
fn seeded_protocol_fuzz_never_panics_and_every_frame_gets_one_reply() {
    let corpus = generate_corpus::<f64>(&CorpusSpec::small(40, 0xF0_22));
    let matrices: Vec<&Csr<f64>> = corpus.iter().map(|e| &e.matrix).collect();
    let model = Trainer::new(SmatConfig::fast())
        .train(&matrices)
        .expect("training succeeds")
        .model;
    let engine = Arc::new(Smat::with_config(model, SmatConfig::default()).expect("engine"));
    let config = ServeConfig {
        workers: 2,
        // The fuzz is one very chatty tenant.
        tenant_rate: 1e9,
        tenant_burst: 1e9,
        ..ServeConfig::default()
    };
    let server = Server::bind_tcp("127.0.0.1:0", engine, config).expect("bind");
    let addr = server.local_addr().expect("tcp addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("run"));
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut reply = String::new();
    let mut ask = |frame: &[u8]| -> String {
        stream.write_all(frame).expect("write frame");
        stream.write_all(b"\n").expect("write newline");
        reply.clear();
        let n = reader.read_line(&mut reply).expect("a reply line");
        assert!(n > 0, "the daemon closed the connection on {frame:?}");
        assert!(reply.ends_with('\n'), "a whole line: {reply:?}");
        reply.clone()
    };

    let mut rng = Rng(0x5EED_F022);
    let mut handles: Vec<String> = Vec::new();
    let (mut accepted, mut rejected, mut work) = (0u64, 0u64, 0u64);
    for case in 0..FUZZ_CASES {
        let valid = valid_frame(&mut rng, &handles, case % LONG_EVERY == 1);
        let mut frame = valid.clone().into_bytes();
        let pristine = case % 4 == 0;
        if !pristine {
            for _ in 0..1 + rng.below(3) {
                mutate(&mut rng, &mut frame);
            }
        }
        assert!(!frame.contains(&b'\n'), "one frame per line");

        let parsed = std::str::from_utf8(&frame).ok().map(|text| {
            let verdict = parse_request(text);
            match (&verdict, serde_json::parse(text)) {
                (Ok(_), tree) => assert!(tree.is_ok(), "accepted but not JSON: {text}"),
                (Err(message), Err(e)) => {
                    assert_eq!(message, &format!("invalid JSON: {e}"), "frame {text}")
                }
                (Err(message), Ok(_)) => {
                    assert!(
                        !message.starts_with("invalid JSON"),
                        "frame {text}: {message}"
                    )
                }
            }
            if pristine {
                assert!(verdict.is_ok(), "generated frame {text}: {verdict:?}");
            }
            verdict
        });
        if matches!(parsed, Some(Ok(Request::Shutdown))) {
            continue; // would end the run; a mutation cannot spell it
        }
        if std::str::from_utf8(&frame).is_ok_and(|t| t.trim().is_empty()) {
            continue; // a blank line is not a frame and is not answered
        }

        let line = ask(&frame);
        let answer = serde_json::parse(&line).expect("the reply is JSON");
        let status = match field(&answer, "status") {
            Value::Str(s) => s.clone(),
            other => panic!("status is {other:?}"),
        };
        match parsed {
            Some(Ok(request)) => {
                accepted += 1;
                if matches!(request, Request::Work(_)) {
                    work += 1;
                    if status == "ok" && handles.len() < 8 {
                        if let Value::Str(h) = field(&answer, "handle") {
                            if !handles.contains(h) {
                                handles.push(h.clone());
                            }
                        }
                    }
                } else {
                    assert_eq!(status, "ok", "frame {valid}");
                }
            }
            Some(Err(message)) => {
                rejected += 1;
                assert_eq!(status, "error");
                assert_eq!(field(&answer, "message"), &Value::Str(message));
            }
            None => {
                rejected += 1;
                assert_eq!(status, "error");
            }
        }
    }
    assert!(accepted > FUZZ_CASES as u64 / 4 && rejected > FUZZ_CASES as u64 / 4);
    assert!(!handles.is_empty(), "some request minted a handle");
    if smat_kernels::exec::num_threads() >= 2 {
        let split = count(field(&handle.metrics_snapshot(), "service"), "split_arrays");
        assert!(split > 0, "no long array was read or written in pieces");
    }

    // One reply per frame and no more: the next line on the wire is the
    // answer to the next frame.
    assert!(ask(b"{\"op\":\"ping\"}").contains("\"op\":\"ping\""));
    let metrics = handle.metrics_snapshot();
    let service = field(&metrics, "service");
    assert_eq!(count(service, "frames_valid"), accepted + 1);
    assert_eq!(count(service, "frames_invalid"), rejected);
    assert_eq!(count(service, "requests_total"), work);
    let outcomes: u64 = [
        "requests_ok",
        "requests_degraded",
        "requests_shed",
        "deadline_misses",
        "requests_handle_miss",
        "requests_error",
    ]
    .iter()
    .map(|key| count(service, key))
    .sum();
    assert_eq!(outcomes, work, "every admitted request has one outcome");
    assert!(ask(b"{\"op\":\"shutdown\"}").contains("draining"));
    join.join().expect("server thread");
}
