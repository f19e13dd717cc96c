//! The two daemon workloads, `serve_warm` and `serve_cold`.
//!
//! Both start an in-process `smat-service` daemon on an ephemeral TCP
//! port (`ServeConfig::default()` except the frame, deadline and
//! tenant limits, which would otherwise refuse a benchmark's traffic)
//! and drive it from **one** client connection in a closed loop: the
//! callers of a SpMV service are iterative solvers that wait for `y`
//! before they can form the next `x`. The timed region parses no JSON
//! on the client side — a reply counts as `ok` by its leading
//! `{"status":"ok"`; full parsing and verification of `y` happen on
//! untimed check requests.
//!
//! * `serve_warm` is the read path: four matrices registered once by
//!   triplet `tune` in set-up, then replayed by handle, three `spmv`
//!   to one `spmm` (k = 4). Array parsing and reply encoding are
//!   nearly the whole call and the kernel a few percent, so a kernel
//!   gain must not move it and a data-plane gain must.
//! * `serve_cold` is the write path: a cycle of distinct triplet
//!   `spmv` frames, more of them than the decision cache and the
//!   handle registry hold, so LRU eviction makes every request
//!   first-seen: frame scan, triplet parse, assembly, fingerprint,
//!   full tune, conversion, handle mint and eviction, every time.

use crate::common::{
    expected_decisions, products_agree, reference_product, throughput_engine, timed, Decisions,
};
use crate::harness::{Ctx, Summary, Workload};
use crate::inputs::{self, handle_frame, triplet_frame, Input, Scale, SplitMix};
use crate::pinned::{pinned_model, Pinned};
use crate::probes;
use crate::stats::percentile;
use crate::trace::{Layer, Tracer};
use serde::Value;
use smat::{Smat, SmatConfig, TunedSpmv};
use smat_matrix::Csr;
use smat_service::proto::{self, Response, Status};
use smat_service::server::{DrainSummary, ServerHandle};
use smat_service::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WARM_SPMM_K: usize = 4;
/// Requests in one `serve_warm` round: 32 per matrix, 24 `spmv` and 8
/// `spmm`, so thirteen samples lie at or beyond the round's p90.
const WARM_REQUESTS: usize = 128;
/// In-process repetitions of each product per matrix per round. The
/// products take microseconds, so their median needs this many
/// samples to sit as still as the millisecond round trips beside it.
const WARM_REFERENCE_REPS: usize = 25;
/// Decision-cache and handle-registry capacity of the `serve_cold`
/// daemon, per shard: well below the number of distinct frames each of
/// the two default shards sees (about half of 100, or of 40 at quick
/// scale).
fn cold_capacity(scale: Scale) -> usize {
    match scale {
        Scale::Full => 32,
        Scale::Quick => 8,
    }
}
const OK_PREFIX: &[u8] = b"{\"status\":\"ok\"";

/// The one client connection.
struct Client {
    stream: TcpStream,
    reply: Vec<u8>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| format!("configuring the client socket: {e}"))?;
        Ok(Client {
            stream,
            reply: Vec::with_capacity(1 << 20),
        })
    }

    /// One closed-loop round trip: write the frame, wait for the first
    /// byte of the reply, read to the newline. Returns the seconds it
    /// took; the reply is left in `self.reply` (newline stripped).
    fn round_trip(&mut self, tracer: &mut Tracer, frame: &str) -> std::io::Result<f64> {
        let request = tracer.begin(Layer::Service, "request");
        let t0 = Instant::now();
        let open = tracer.begin(Layer::Harness, "client_write");
        self.stream.write_all(frame.as_bytes())?;
        tracer.end(open);
        self.reply.clear();
        let mut chunk = [0u8; 16 << 10];
        // The server's whole share of the request: nothing arrives
        // until it has parsed, computed and begun to answer.
        let open = tracer.begin(Layer::Service, "wait_first_byte");
        let mut n = self.stream.read(&mut chunk)?;
        tracer.end(open);
        let open = tracer.begin(Layer::Harness, "client_read");
        loop {
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.reply.extend_from_slice(&chunk[..n]);
            if self.reply.last() == Some(&b'\n') {
                self.reply.pop();
                break;
            }
            n = self.stream.read(&mut chunk)?;
        }
        tracer.end(open);
        let elapsed = t0.elapsed().as_secs_f64();
        tracer.end(request);
        Ok(elapsed)
    }

    fn reply_is_ok(&self) -> bool {
        self.reply.starts_with(OK_PREFIX)
    }

    /// Parses the last reply in full (check requests only).
    fn reply_json(&self) -> Option<Value> {
        serde_json::parse(std::str::from_utf8(&self.reply).ok()?).ok()
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

fn reply_vector(reply: &Value) -> Option<Vec<f64>> {
    field(reply, "y")?.as_array()?.iter().map(number).collect()
}

/// A running daemon and the client connected to it.
struct Daemon {
    join: std::thread::JoinHandle<std::io::Result<DrainSummary>>,
    handle: ServerHandle,
    client: Client,
}

impl Daemon {
    fn start(engine: Arc<Smat<f64>>, config: ServeConfig) -> Result<Self, String> {
        let server = Server::bind_tcp("127.0.0.1:0", engine, config)
            .map_err(|e| format!("binding the daemon: {e}"))?;
        let addr = server
            .local_addr()
            .ok_or_else(|| "the daemon has no TCP address".to_string())?;
        let handle = server.handle();
        let join = std::thread::Builder::new()
            .name("e2e-daemon".to_string())
            .spawn(move || server.run())
            .map_err(|e| format!("spawning the daemon thread: {e}"))?;
        let client = Client::connect(addr)?;
        Ok(Daemon {
            join,
            handle,
            client,
        })
    }

    /// Asks the daemon to drain, closes the connection and waits for
    /// the serve loop and every thread it started to end.
    fn stop(mut self, ctx: &mut Ctx) {
        let mut off = Tracer::with_capacity(0);
        let acknowledged = self
            .client
            .round_trip(&mut off, "{\"op\":\"shutdown\"}\n")
            .is_ok();
        if !acknowledged {
            self.handle.begin_drain();
        }
        drop(self.client);
        let drained = matches!(self.join.join(), Ok(Ok(_)));
        ctx.count(acknowledged && drained);
    }
}

/// `ServeConfig::default()` with the limits a benchmark would trip:
/// multi-megabyte frames, one very chatty tenant, generous deadlines.
fn serve_config() -> ServeConfig {
    ServeConfig {
        max_frame_bytes: 64 << 20,
        default_deadline: Duration::from_secs(60),
        max_deadline: Duration::from_secs(120),
        frame_timeout: Duration::from_secs(60),
        tenant_rate: 1e9,
        tenant_burst: 1e9,
        ..ServeConfig::default()
    }
}

fn unsigned(v: &Value, path: &[&str]) -> f64 {
    let mut at = v;
    for key in path {
        match field(at, key) {
            Some(next) => at = next,
            None => return 0.0,
        }
    }
    number(at).unwrap_or(0.0)
}

/// Publishes the daemon's own counters (the `metrics` op's document).
fn publish_counters(ctx: &mut Ctx, snapshot: &Value) {
    let service = |key: &str| unsigned(snapshot, &["service", key]);
    let total = service("requests_total");
    ctx.set("service.requests_total", total);
    ctx.set("service.requests_not_ok", total - service("requests_ok"));
    ctx.set("service.handle_hits", service("handle_hits"));
    ctx.set("service.handle_evictions", service("handle_evictions"));
    ctx.set("service.wire_matrix_parses", service("wire_matrix_parses"));
    let shards = field(snapshot, "shards")
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    let sum = |path: &[&str]| shards.iter().map(|s| unsigned(s, path)).sum::<f64>();
    ctx.set("service.cache_hits", sum(&["cache", "hits"]));
    ctx.set("service.cache_misses", sum(&["cache", "misses"]));
    ctx.set(
        "service.handle_resident_mb",
        sum(&["handle_resident_bytes"]) / (1 << 20) as f64,
    );
}

/// Median seconds of `proto::parse_request` on one frame.
fn parse_seconds(frame: &str) -> f64 {
    let text = frame.trim_end();
    let samples: Vec<f64> = (0..3)
        .map(|_| timed(|| std::hint::black_box(proto::parse_request(text).is_ok())).1)
        .collect();
    percentile(&samples, 0.5)
}

/// Median seconds to encode an `ok` reply carrying `y`.
fn encode_seconds(y: &[f64]) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            timed(|| {
                let body = Value::Array(y.iter().copied().map(Value::Float).collect());
                std::hint::black_box(Response::with(Status::Ok, vec![("y", body)]).to_line().len())
            })
            .1
        })
        .collect();
    percentile(&samples, 0.5)
}

fn ping_us(client: &mut Client) -> f64 {
    let mut off = Tracer::with_capacity(0);
    let samples: Vec<f64> = (0..200)
        .filter_map(|_| client.round_trip(&mut off, "{\"op\":\"ping\"}\n").ok())
        .collect();
    if samples.is_empty() {
        return 0.0;
    }
    percentile(&samples, 0.5) * 1e6
}

// ---------------------------------------------------------------- warm

struct WarmMatrix {
    input: Input,
    /// The set-up `tune` frame, kept for the parse probe.
    tune_frame: String,
    spmv_frame: String,
    spmm_frame: String,
    x: Vec<f64>,
    /// Wire layout: `k` concatenated columns.
    x_columns: Vec<f64>,
    /// In-process twin of the server-resident matrix.
    local: TunedSpmv<f64>,
    x_block: Vec<f64>,
    y: Vec<f64>,
    y_block: Vec<f64>,
}

pub struct ServeWarm {
    pinned: Pinned,
    daemon: Daemon,
    local_engine: Smat<f64>,
    matrices: Vec<WarmMatrix>,
    requests_per_round: usize,
    gen_s: f64,
    /// Mean round trip of the last round, for `unaccounted_ms`.
    mean_rtt_s: f64,
}

impl ServeWarm {
    /// The fixed rotation: matrix `r % 4`; every fourth pass over the
    /// matrices is `spmm`, the other three `spmv`.
    fn is_spmm(request: usize, matrices: usize) -> bool {
        (request / matrices) % 4 == 3
    }
}

impl Workload for ServeWarm {
    const NAME: &'static str = "serve_warm";

    fn setup(ctx: &mut Ctx) -> Result<Self, String> {
        let pinned = pinned_model(ctx.scale)?;
        let engine = Arc::new(throughput_engine(&pinned.model)?);
        let local_engine = throughput_engine(&pinned.model)?;
        let (inputs, gen_s) = timed(|| inputs::warm_matrices(ctx.seed, ctx.scale));
        let mut daemon = Daemon::start(engine, serve_config())?;
        let mut vectors = SplitMix::new(ctx.seed ^ 0x3A11);
        let mut off = Tracer::with_capacity(0);
        let mut matrices = Vec::with_capacity(inputs.len());
        for input in inputs {
            let m = &input.matrix;
            // Registration is the cold path: the whole matrix crosses
            // the wire as triplets once, and a handle comes back.
            let tune_frame = triplet_frame("tune", m, None, 1);
            daemon
                .client
                .round_trip(&mut off, &tune_frame)
                .map_err(|e| format!("registering {}: {e}", input.name))?;
            let handle = daemon
                .client
                .reply_json()
                .as_ref()
                .and_then(|r| field(r, "handle"))
                .and_then(|h| match h {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .ok_or_else(|| format!("no handle came back for {}", input.name))?;
            let x = vectors.vector(m.cols());
            let x_columns: Vec<f64> = (0..WARM_SPMM_K)
                .flat_map(|j| (0..m.cols()).map(move |i| (i + j) % m.cols()))
                .map(|i| x[i])
                .collect();
            let mut x_block = vec![0.0; m.cols() * WARM_SPMM_K];
            for (j, column) in x_columns.chunks_exact(m.cols()).enumerate() {
                for (i, v) in column.iter().enumerate() {
                    x_block[i * WARM_SPMM_K + j] = *v;
                }
            }
            let local = local_engine.prepare(m);
            let mut y_block = vec![0.0; m.rows() * WARM_SPMM_K];
            local_engine
                .spmm(&local, &x_block, &mut y_block, WARM_SPMM_K)
                .map_err(|e| format!("in-process spmm on {}: {e}", input.name))?;
            matrices.push(WarmMatrix {
                spmv_frame: handle_frame("spmv", &handle, &x, 1),
                spmm_frame: handle_frame("spmm", &handle, &x_columns, WARM_SPMM_K),
                tune_frame,
                y: vec![0.0; m.rows()],
                x,
                x_columns,
                local,
                x_block,
                y_block,
                input,
            });
        }
        Ok(ServeWarm {
            pinned,
            daemon,
            local_engine,
            requests_per_round: ctx.scale.rows(WARM_REQUESTS),
            matrices,
            gen_s,
            mean_rtt_s: 0.0,
        })
    }

    fn check(&mut self, ctx: &mut Ctx) {
        let expected = expected_decisions().unwrap_or_default();
        let mut decisions = Decisions::default();
        let mut off = Tracer::with_capacity(0);
        for w in &self.matrices {
            let m = &w.input.matrix;
            decisions.tally(&w.local);
            decisions.expect_pinned(&self.local_engine, &w.input, &w.local, &expected);
            let answered = self.daemon.client.round_trip(&mut off, &w.spmv_frame).is_ok();
            let y = self.daemon.client.reply_json().as_ref().and_then(reply_vector);
            let want = reference_product(m, &w.x);
            ctx.count(answered && y.is_some_and(|y| products_agree(&y, &want)));

            let answered = self.daemon.client.round_trip(&mut off, &w.spmm_frame).is_ok();
            let y = self.daemon.client.reply_json().as_ref().and_then(reply_vector);
            let want: Vec<f64> = w
                .x_columns
                .chunks_exact(m.cols())
                .flat_map(|column| reference_product(m, column))
                .collect();
            ctx.count(answered && y.is_some_and(|y| products_agree(&y, &want)));
        }
        decisions.publish(ctx);
    }

    /// A round's times: every request's round trip in script order,
    /// then per matrix `WARM_REFERENCE_REPS` in-process `spmv` times
    /// followed by as many in-process `spmm` times.
    fn round(&mut self, ctx: &mut Ctx) -> Vec<f64> {
        let count = self.matrices.len();
        let mut times =
            Vec::with_capacity(self.requests_per_round + 2 * count * WARM_REFERENCE_REPS);
        for request in 0..self.requests_per_round {
            let w = &self.matrices[request % count];
            let frame = if Self::is_spmm(request, count) {
                &w.spmm_frame
            } else {
                &w.spmv_frame
            };
            ctx.tracer.next_request();
            let trip = self.daemon.client.round_trip(&mut ctx.tracer, frame);
            ctx.count(trip.is_ok() && self.daemon.client.reply_is_ok());
            times.push(trip.unwrap_or(f64::INFINITY));
        }
        let trips = &times[..self.requests_per_round];
        self.mean_rtt_s = trips.iter().sum::<f64>() / trips.len().max(1) as f64;
        // The same products in-process, in the same round: what the
        // requests would cost with no wire, parse or encode at all.
        for w in &mut self.matrices {
            for _ in 0..WARM_REFERENCE_REPS {
                times.push(timed(|| self.local_engine.spmv(&w.local, &w.x, &mut w.y)).1);
            }
            for _ in 0..WARM_REFERENCE_REPS {
                let spmm = timed(|| {
                    self.local_engine
                        .spmm(&w.local, &w.x_block, &mut w.y_block, WARM_SPMM_K)
                });
                times.push(spmm.1);
            }
        }
        times
    }

    fn summarize(&self, times: &[f64]) -> Summary {
        let (trips, in_process) = times.split_at(self.requests_per_round);
        let wall: f64 = trips.iter().sum();
        let mean_trip = wall / trips.len() as f64;
        // Per request of the rotation: three `spmv` to one `spmm`.
        let per_matrix: Vec<f64> = in_process
            .chunks_exact(2 * WARM_REFERENCE_REPS)
            .map(|m| {
                let (spmv, spmm) = m.split_at(WARM_REFERENCE_REPS);
                0.75 * percentile(spmv, 0.5) + 0.25 * percentile(spmm, 0.5)
            })
            .collect();
        let mean_in_process = per_matrix.iter().sum::<f64>() / per_matrix.len() as f64;
        Summary {
            time_to_solution_s: wall,
            latency_ms_p50: percentile(trips, 0.5) * 1e3,
            latency_ms_p90: percentile(trips, 0.9) * 1e3,
            throughput_rps: 1.0 / mean_trip,
            speedup_vs_ref: mean_in_process / mean_trip,
        }
    }

    fn probes(&mut self, ctx: &mut Ctx) {
        ctx.set("matrix.gen_s", self.gen_s);
        ctx.set("service.ping_us", ping_us(&mut self.daemon.client));
        publish_counters(ctx, &self.daemon.handle.metrics_snapshot());
        let count = self.matrices.len() as f64;
        let (mut parse_handle, mut parse_triplet, mut encode) = (0.0, 0.0, 0.0);
        let (mut bytes, mut parse_total) = (0usize, 0.0);
        // What a request of the round's mix (three `spmv` to one
        // `spmm`) costs when its stages — parse, product, encode — are
        // replayed in-process.
        let mut replayed = 0.0;
        for w in &mut self.matrices {
            let handle_s = parse_seconds(&w.spmv_frame);
            let block_s = parse_seconds(&w.spmm_frame);
            let triplet_s = parse_seconds(&w.tune_frame);
            parse_handle += handle_s / count;
            parse_triplet += triplet_s / count;
            bytes += w.spmv_frame.len() + w.spmm_frame.len() + w.tune_frame.len();
            parse_total += handle_s + block_s + triplet_s;
            let encode_s = encode_seconds(&w.y);
            encode += encode_s / count;
            let spmv = timed(|| self.local_engine.spmv(&w.local, &w.x, &mut w.y)).1;
            let spmm = timed(|| {
                self.local_engine
                    .spmm(&w.local, &w.x_block, &mut w.y_block, WARM_SPMM_K)
            })
            .1;
            replayed += (0.75 * (handle_s + spmv + encode_s)
                + 0.25 * (block_s + spmm + encode_seconds(&w.y_block)))
                / count;
        }
        ctx.set("service.parse_handle_us", parse_handle * 1e6);
        ctx.set("service.parse_triplet_ms", parse_triplet * 1e3);
        ctx.set("service.parse_ns_per_byte", parse_total * 1e9 / bytes.max(1) as f64);
        ctx.set("service.encode_y_us", encode * 1e6);
        // The rest of the round trip (socket, frame scan, buffer
        // copies, scheduling) only tracing inside the daemon can
        // explain; it is reported, not forced to zero.
        ctx.set("service.replayed_ms", replayed * 1e3);
        ctx.set("service.unaccounted_ms", (self.mean_rtt_s - replayed) * 1e3);
        probes::machine_probes(ctx, &self.pinned);
        let inputs: Vec<&Input> = self.matrices.iter().map(|w| &w.input).collect();
        probes::matrix_probes(ctx, &self.pinned, &inputs);
    }

    fn teardown(self, ctx: &mut Ctx) {
        self.daemon.stop(ctx);
    }
}

// ---------------------------------------------------------------- cold

struct ColdFrame {
    input: Input,
    frame: String,
    x: Vec<f64>,
}

pub struct ServeCold {
    pinned: Pinned,
    daemon: Daemon,
    /// Never caches, so every in-process `prepare` is a full tune, as
    /// every request is on the thrashing daemon.
    local_engine: Smat<f64>,
    frames: Vec<ColdFrame>,
    gen_s: f64,
    mean_rtt_s: f64,
}

/// Every fifth frame's `prepare` is also replayed stage by stage in a
/// traced round.
const COLD_REPLAY_STRIDE: usize = 5;

/// The in-process equivalent of one cold request: assemble, tune,
/// multiply. Returns the seconds taken and the decision.
fn cold_in_process(engine: &Smat<f64>, m: &Csr<f64>, x: &[f64]) -> (f64, Option<TunedSpmv<f64>>) {
    let triplets: Vec<(usize, usize, f64)> = m.iter().collect();
    let mut y = vec![0.0; m.rows()];
    let (tuned, t) = timed(|| {
        let assembled = Csr::from_triplets(m.rows(), m.cols(), &triplets).ok()?;
        let tuned = engine.prepare(&assembled);
        engine.spmv(&tuned, x, &mut y).ok()?;
        Some(tuned)
    });
    (t, tuned)
}

impl Workload for ServeCold {
    const NAME: &'static str = "serve_cold";

    fn setup(ctx: &mut Ctx) -> Result<Self, String> {
        let pinned = pinned_model(ctx.scale)?;
        let cold_config = |cache_capacity| SmatConfig {
            cache_capacity,
            ..SmatConfig::default()
        };
        let engine = Smat::with_config(pinned.model.clone(), cold_config(cold_capacity(ctx.scale)))
            .map_err(|e| format!("building the daemon's engine: {e}"))?;
        let local_engine = Smat::with_config(pinned.model.clone(), cold_config(0))
            .map_err(|e| format!("building the in-process engine: {e}"))?;
        let (inputs, gen_s) = timed(|| inputs::cold_matrices(ctx.seed, ctx.scale));
        let config = ServeConfig {
            handle_capacity: cold_capacity(ctx.scale),
            ..serve_config()
        };
        let daemon = Daemon::start(Arc::new(engine), config)?;
        let mut vectors = SplitMix::new(ctx.seed ^ 0xC01D_F4A3);
        let frames = inputs
            .into_iter()
            .map(|input| {
                let x = vectors.vector(input.matrix.cols());
                ColdFrame {
                    frame: triplet_frame("spmv", &input.matrix, Some(&x), 1),
                    x,
                    input,
                }
            })
            .collect();
        Ok(ServeCold {
            pinned,
            daemon,
            local_engine,
            frames,
            gen_s,
            mean_rtt_s: 0.0,
        })
    }

    fn check(&mut self, ctx: &mut Ctx) {
        let mut decisions = Decisions::default();
        let mut off = Tracer::with_capacity(0);
        for f in &self.frames {
            let answered = self.daemon.client.round_trip(&mut off, &f.frame).is_ok();
            let y = self.daemon.client.reply_json().as_ref().and_then(reply_vector);
            let want = reference_product(&f.input.matrix, &f.x);
            ctx.count(answered && y.is_some_and(|y| products_agree(&y, &want)));
            // The daemon's engines run the same pinned model, so the
            // in-process decision is the one it takes.
            let tuned = self.local_engine.prepare(&f.input.matrix);
            decisions.tally(&tuned);
            decisions.expect_pinned(&self.local_engine, &f.input, &tuned, &Default::default());
        }
        decisions.publish(ctx);
    }

    /// A round's times: every frame's round trip in cycle order, then
    /// every frame's in-process time of the same work.
    fn round(&mut self, ctx: &mut Ctx) -> Vec<f64> {
        let requests = self.frames.len();
        let mut trips = Vec::with_capacity(2 * requests);
        let mut in_process = Vec::with_capacity(requests);
        for (i, f) in self.frames.iter().enumerate() {
            ctx.tracer.next_request();
            let trip = self.daemon.client.round_trip(&mut ctx.tracer, &f.frame);
            ctx.count(trip.is_ok() && self.daemon.client.reply_is_ok());
            trips.push(trip.unwrap_or(f64::INFINITY));
            // Interleaved with the requests, so reference and wire
            // sample the same machine state.
            let open = ctx.tracer.begin(Layer::Core, "cold_in_process");
            let (local, tuned) = cold_in_process(&self.local_engine, &f.input.matrix, &f.x);
            ctx.tracer.end(open);
            ctx.count(tuned.is_some());
            in_process.push(local);
            if let (Some(tuned), true) = (tuned, i % COLD_REPLAY_STRIDE == 0) {
                let m = &f.input.matrix;
                probes::replay_prepare(ctx, &self.pinned, &self.local_engine, m, &tuned);
            }
        }
        self.mean_rtt_s = trips.iter().sum::<f64>() / requests.max(1) as f64;
        trips.extend(in_process);
        trips
    }

    fn summarize(&self, times: &[f64]) -> Summary {
        let (trips, in_process) = times.split_at(self.frames.len());
        let wall: f64 = trips.iter().sum();
        Summary {
            time_to_solution_s: wall,
            latency_ms_p50: percentile(trips, 0.5) * 1e3,
            latency_ms_p90: percentile(trips, 0.9) * 1e3,
            throughput_rps: trips.len() as f64 / wall,
            speedup_vs_ref: in_process.iter().sum::<f64>() / wall,
        }
    }

    fn probes(&mut self, ctx: &mut Ctx) {
        ctx.set("matrix.gen_s", self.gen_s);
        ctx.set("service.ping_us", ping_us(&mut self.daemon.client));
        publish_counters(ctx, &self.daemon.handle.metrics_snapshot());
        let sample: Vec<&ColdFrame> = self
            .frames
            .iter()
            .step_by(2 * COLD_REPLAY_STRIDE)
            .collect();
        let count = sample.len().max(1) as f64;
        let (mut parse, mut encode, mut tune) = (0.0, 0.0, 0.0);
        let mut bytes = 0usize;
        for f in &sample {
            parse += parse_seconds(&f.frame);
            bytes += f.frame.len();
            encode += encode_seconds(&reference_product(&f.input.matrix, &f.x));
            tune += cold_in_process(&self.local_engine, &f.input.matrix, &f.x).0;
        }
        ctx.set("service.parse_triplet_ms", parse / count * 1e3);
        ctx.set("service.parse_ns_per_byte", parse * 1e9 / bytes.max(1) as f64);
        ctx.set("service.encode_y_us", encode / count * 1e6);
        // Parsing a triplet frame already assembles the CSR matrix, so
        // the in-process reference's own assembly is counted twice
        // here; the remainder is still dominated by what the replay
        // cannot see (frame scan, queue hop, handle mint).
        let replayed = (parse + encode + tune) / count;
        ctx.set("service.replayed_ms", replayed * 1e3);
        ctx.set("service.unaccounted_ms", (self.mean_rtt_s - replayed) * 1e3);
        probes::machine_probes(ctx, &self.pinned);
        let inputs: Vec<&Input> = sample.iter().map(|f| &f.input).collect();
        probes::matrix_probes(ctx, &self.pinned, &inputs);
    }

    fn teardown(self, ctx: &mut Ctx) {
        self.daemon.stop(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_rotation_is_three_spmv_to_one_spmm() {
        let spmm = (0..WARM_REQUESTS)
            .filter(|&r| ServeWarm::is_spmm(r, 4))
            .count();
        assert_eq!(spmm, WARM_REQUESTS / 4);
        assert!(!ServeWarm::is_spmm(0, 4) && ServeWarm::is_spmm(12, 4));
    }

    /// The property `serve_cold` rests on: with more distinct frames
    /// per shard than the caches hold, cycling through them in order
    /// never hits — not the decision cache, not the handle registry.
    #[test]
    fn cold_cycle_thrashes_both_caches() {
        let mut ctx = Ctx::new(3, Scale::Quick, 1.0, false, 2);
        let mut cold = ServeCold::setup(&mut ctx).expect("set-up");
        for _ in 0..3 {
            let _ = cold.round(&mut ctx);
        }
        publish_counters(&mut ctx, &cold.daemon.handle.metrics_snapshot());
        assert_eq!(ctx.layer["service.cache_hits"], 0.0);
        assert_eq!(ctx.layer["service.handle_hits"], 0.0);
        assert_eq!(
            ctx.layer["service.cache_misses"],
            3.0 * cold.frames.len() as f64
        );
        assert_eq!(ctx.layer["service.requests_not_ok"], 0.0);
        cold.teardown(&mut ctx);
        assert_eq!(ctx.failed, 0);
    }
}
