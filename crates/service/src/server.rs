//! The serving loop: listener, connection threads, admission ladder,
//! the one engine, and graceful drain.
//!
//! ## Thread shape
//!
//! One accept loop (the thread that called [`Server::run`]) and one
//! thread per live connection, which does everything its requests need
//! — framing, parsing, admission, the degraded reference product, the
//! warm handle path, and tuning: a request is never handed to another
//! thread. Concurrent tuning is bounded by the admission [`Gate`]:
//! [`ServeConfig::workers`] permits, and at most
//! [`ServeConfig::queue_capacity`] connection threads waiting for one,
//! in arrival order and never past their deadlines.
//!
//! ## One engine and the warm path
//!
//! Every request is served by the caller's [`Smat`] — one decision
//! cache, one health ledger, one install artifact — plus one
//! [`HandleRegistry`] of prepared matrices, so a quarantine, a breaker
//! count and the capacity knobs each mean one thing per daemon. The
//! cache lock is held for a map lookup around tuning runs of
//! milliseconds; a second engine measured no faster (DESIGN.md §18).
//!
//! A successful tune/spmv/spmm response carries a `handle` — the
//! fingerprint plus this server's generation tag. A follow-up
//! `{"op":"spmv","handle":...,"x":[...]}` never touches the gate: no
//! triplet parse, no conversion, no prepare, no wait — just a registry
//! lookup and the frozen kernel replay into per-connection buffers:
//! the frame, `x`, `y` and the reply line each live in a buffer the
//! connection owns and reuses, so nothing a warm call allocates grows
//! with the vectors. Unknown, evicted, or other-generation handles
//! answer `handle_miss` with the fingerprint echoed, so clients fall
//! back to the triplet path deterministically.
//!
//! ## Degradation ladder (per request)
//!
//! 1. tenant token bucket empty → shed with retry-after;
//! 2. deadline already expired → deadline miss;
//! 3. draining → shed;
//! 4. the line at the watermark → serve the reference serial CSR
//!    product *now*, counted degraded — a correct answer immediately
//!    instead of a tuned answer late. A quarantined kernel is no reason
//!    to degrade: the engine already tunes around it (`prepare`
//!    substitutes row 0) and serves each benched call by the reference;
//! 5. line full → shed with retry-after;
//! 6. otherwise wait for a permit, then tune here; every measurement
//!    is clamped to the request deadline via `prepare_with_deadline`.
//!
//! ## Shutdown
//!
//! `{"op":"shutdown"}` (the SIGTERM analog in this vendored-std
//! environment) flips the drain flag: the accept loop closes the
//! listener, connection threads finish their in-flight frames and
//! responses (a wait at the gate included), and the tuning-cache
//! snapshot is persisted if configured. [`Server::run`] then returns a
//! [`DrainSummary`] and the process can exit 0.

use crate::admission::{Gate, Refused, TokenBuckets};
use crate::config::{ServeConfig, READ_TIMEOUT, SHED_RETRY_AFTER};
use crate::metrics::{shard_entry, ServiceMetrics, Stage};
use crate::proto::{
    obj, parse_request_into, MatrixSource, Request, Response, Status, WireHandle, WorkOp,
    WorkRequest,
};
use serde::{Serialize, Value};
use smat::{HandleRegistry, Smat, TunedSpmv};
use smat_kernels::panic_message;
use smat_matrix::Csr;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::{fs::FileTypeExt, net::UnixListener, net::UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Accept-loop poll granularity while the listener is non-blocking.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Least room the connection loop offers a socket read: a frame of
/// megabytes arrives in a few dozen reads, not thousands.
const READ_STEP: usize = 64 << 10;

/// How far past its deadline a tuning run may return and still answer
/// for itself (it clamps itself to the deadline) before the reply
/// becomes an `in_flight` miss.
const REPLY_GRACE: Duration = Duration::from_millis(250);

/// Distinguishes handles minted by different server incarnations (the
/// low bits) in different processes (the pid in the high bits), so a
/// handle can never silently resolve against a registry that did not
/// mint it.
static GENERATION_SEQ: AtomicU64 = AtomicU64::new(0);

fn next_generation() -> u64 {
    ((std::process::id() as u64) << 20)
        | (GENERATION_SEQ.fetch_add(1, Ordering::Relaxed) & 0xf_ffff)
}

/// State shared by the accept loop and the connection threads.
struct Shared {
    engine: Arc<Smat<f64>>,
    /// Prepared matrices the warm path replays, by fingerprint.
    handles: HandleRegistry<f64>,
    generation: u64,
    config: ServeConfig,
    metrics: ServiceMetrics,
    gate: Gate,
    buckets: TokenBuckets,
}

impl Shared {
    fn draining(&self) -> bool {
        self.metrics.draining.load(Ordering::Relaxed)
    }

    fn begin_drain(&self) {
        self.metrics.draining.store(true, Ordering::Relaxed);
    }
}

/// A connection's reusable buffers: sized on first use and reused for
/// every later request on that connection, so what a warm `spmv`
/// allocates — the boxed request and the reply's few small fields —
/// does not grow with its vectors.
#[derive(Default)]
struct Scratch {
    /// The engine's operands, row-major.
    x: Vec<f64>,
    y: Vec<f64>,
    /// Spare for the next request's wire `x` to be parsed into; the
    /// request hands it back once answered.
    wire_x: Vec<f64>,
    /// Spare for the next reply's wire-order `y`; the reply hands it
    /// back once written.
    wire_y: Vec<f64>,
    /// The reply line being written.
    line: String,
}

/// What was bound: TCP socket or Unix-domain socket.
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

/// One live client connection.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn set_read_timeout(&self, d: Duration) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(Some(d)),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(Some(d)),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Final counters reported by [`Server::run`] after a graceful drain.
#[derive(Debug, Clone)]
pub struct DrainSummary {
    /// tune/spmv requests admitted over the server's lifetime.
    pub requests_total: u64,
    /// Answered with a tuned result.
    pub requests_ok: u64,
    /// Answered through the reference (degraded) path.
    pub requests_degraded: u64,
    /// Shed with a retry hint.
    pub requests_shed: u64,
    /// Answered with a deadline miss.
    pub deadline_misses: u64,
    /// Answered `handle_miss` (unknown, evicted, or stale handle).
    pub requests_handle_miss: u64,
    /// Answered with an error.
    pub requests_error: u64,
    /// Entries persisted to the cache snapshot, when configured and
    /// the write succeeded.
    pub cache_snapshot_entries: Option<usize>,
}

/// Control handle onto a running (or about to run) server.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Flips the drain flag, as the shutdown op does from the wire.
    pub fn begin_drain(&self) {
        self.shared.begin_drain();
    }

    /// Whether the server is draining.
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }

    /// Requests waiting at the admission gate right now.
    pub fn queue_depth(&self) -> usize {
        self.shared.gate.waiters()
    }

    /// The metrics JSON served by the `metrics` op.
    pub fn metrics_snapshot(&self) -> Value {
        metrics_value(&self.shared)
    }
}

/// A bound, not-yet-running tuning service.
pub struct Server {
    shared: Arc<Shared>,
    listener: Listener,
}

impl Server {
    /// Binds a TCP listener on `addr` (use port 0 for an ephemeral
    /// port, then read it back with [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_tcp(addr: &str, engine: Arc<Smat<f64>>, config: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Self::with_listener(Listener::Tcp(listener), engine, config))
    }

    /// Binds a Unix-domain socket at `path`, replacing a stale socket
    /// file left by a previous run — and nothing but a socket.
    ///
    /// # Errors
    ///
    /// Refuses a path that holds anything else (the message names it);
    /// otherwise propagates the bind failure.
    #[cfg(unix)]
    pub fn bind_unix(
        path: impl Into<PathBuf>,
        engine: Arc<Smat<f64>>,
        config: ServeConfig,
    ) -> io::Result<Self> {
        let path = path.into();
        if let Ok(found) = std::fs::symlink_metadata(&path) {
            if !found.file_type().is_socket() {
                let what = format!("{} exists and is not a socket", path.display());
                return Err(io::Error::new(io::ErrorKind::AlreadyExists, what));
            }
            std::fs::remove_file(&path)?;
        }
        let listener = UnixListener::bind(&path)?;
        Ok(Self::with_listener(
            Listener::Unix(listener, path),
            engine,
            config,
        ))
    }

    /// Puts the admission state and an empty handle registry around
    /// the caller's engine, which serves every request as it is.
    fn with_listener(listener: Listener, engine: Arc<Smat<f64>>, config: ServeConfig) -> Self {
        let config = config.normalized();
        let shared = Arc::new(Shared {
            gate: Gate::new(config.workers, config.queue_capacity),
            buckets: TokenBuckets::new(config.tenant_rate, config.tenant_burst),
            metrics: ServiceMetrics::default(),
            handles: HandleRegistry::new(config.handle_capacity, config.handle_budget_bytes),
            engine,
            generation: next_generation(),
            config,
        });
        Server { shared, listener }
    }

    /// The bound TCP address, if TCP-bound.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            Listener::Unix(..) => None,
        }
    }

    /// A control handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the serving loop until a shutdown request (or
    /// [`ServerHandle::begin_drain`]) flips the drain flag, then
    /// drains and returns the final counters.
    ///
    /// # Errors
    ///
    /// Only setup failures (making the listener non-blocking) error;
    /// per-connection and per-request failures are contained and
    /// counted.
    pub fn run(self) -> io::Result<DrainSummary> {
        let Server { shared, listener } = self;
        // Preload the cache snapshot, best-effort: a missing or stale
        // snapshot must never stop the service from starting.
        if let Some(path) = &shared.config.cache_snapshot {
            if path.exists() {
                let _ = shared.engine.load_cache(path);
            }
        }

        match &listener {
            Listener::Tcp(l) => l.set_nonblocking(true)?,
            #[cfg(unix)]
            Listener::Unix(l, _) => l.set_nonblocking(true)?,
        }
        let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
        while !shared.draining() {
            conns.retain(|h| !h.is_finished());
            let accepted = match &listener {
                Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
                #[cfg(unix)]
                Listener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
            };
            match accepted {
                Ok(conn) => {
                    // Failpoint `service.accept`: the connection is
                    // dropped as if the handshake failed.
                    if smat_failpoints::check("service.accept").is_some() {
                        ServiceMetrics::inc(&shared.metrics.accept_faults);
                        continue;
                    }
                    ServiceMetrics::inc(&shared.metrics.accepted_connections);
                    shared
                        .metrics
                        .open_connections
                        .fetch_add(1, Ordering::Relaxed);
                    let shared = Arc::clone(&shared);
                    let handle = thread::Builder::new()
                        .name("smat-serve-conn".to_string())
                        .spawn(move || {
                            handle_connection(&shared, conn);
                            shared
                                .metrics
                                .open_connections
                                .fetch_sub(1, Ordering::Relaxed);
                        })
                        .expect("spawning a connection thread");
                    conns.push(handle);
                }
                Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock) => {
                    thread::sleep(ACCEPT_POLL);
                }
                Err(_) => {
                    ServiceMetrics::inc(&shared.metrics.accept_faults);
                    thread::sleep(ACCEPT_POLL);
                }
            }
        }

        // Refuse new connections, then let the in-flight ones finish:
        // connection threads observe the drain flag within one read
        // timeout and complete their pending frame/response first.
        #[cfg(unix)]
        if let Listener::Unix(_, path) = &listener {
            let _ = std::fs::remove_file(path);
        }
        drop(listener);
        for handle in conns {
            let _ = handle.join();
        }

        let cache_snapshot_entries = shared
            .config
            .cache_snapshot
            .as_ref()
            .and_then(|path| shared.engine.save_cache(path).ok());
        let m = &shared.metrics;
        Ok(DrainSummary {
            requests_total: ServiceMetrics::get(&m.requests_total),
            requests_ok: ServiceMetrics::get(&m.requests_ok),
            requests_degraded: ServiceMetrics::get(&m.requests_degraded),
            requests_shed: ServiceMetrics::get(&m.requests_shed),
            deadline_misses: ServiceMetrics::get(&m.deadline_misses),
            requests_handle_miss: ServiceMetrics::get(&m.requests_handle_miss),
            requests_error: ServiceMetrics::get(&m.requests_error),
            cache_snapshot_entries,
        })
    }
}

// ---------------------------------------------------------------------
// Connection threads
// ---------------------------------------------------------------------

fn handle_connection(shared: &Arc<Shared>, mut conn: Conn) {
    let _ = conn.set_read_timeout(READ_TIMEOUT);
    if let Conn::Tcp(stream) = &conn {
        // A reply is one write of a whole line: nothing for Nagle to
        // coalesce, only an ACK to wait for.
        let _ = stream.set_nodelay(true);
    }
    // `buf[..filled]` holds received bytes; the rest is room for the
    // next read, grown (and zeroed) only when a frame outgrows it.
    let mut buf: Vec<u8> = Vec::new();
    let mut filled = 0;
    // Bytes at the front of `buf` already known to hold no newline, so
    // a long frame is searched once, not once per read.
    let mut scanned = 0;
    let mut frame_started: Option<Instant> = None;
    let mut scratch = Scratch::default();
    'conn: loop {
        if shared.draining() && filled == 0 {
            // Idle connection during drain: close; the client
            // reconnects elsewhere. Mid-frame connections fall through
            // and get to finish (bounded by the frame timeout).
            break;
        }
        // Failpoint `service.frame`: the read faults as if the
        // transport died mid-frame.
        if smat_failpoints::check("service.frame").is_some() {
            ServiceMetrics::inc(&shared.metrics.torn_frames);
            break;
        }
        if buf.len() - filled < READ_STEP {
            buf.resize((2 * buf.len()).max(filled + READ_STEP), 0);
        }
        match conn.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled > 0 {
                    ServiceMetrics::inc(&shared.metrics.torn_frames);
                }
                break;
            }
            Ok(n) => {
                let mut started = *frame_started.get_or_insert_with(Instant::now);
                filled += n;
                // Frames are answered in place; what follows the last
                // one moves to the front once per read.
                let mut consumed = 0;
                while let Some(len) = buf[scanned..filled].iter().position(|&b| b == b'\n') {
                    let pos = scanned + len;
                    let (frame, read) = (&buf[consumed..pos], started.elapsed());
                    consumed = pos + 1;
                    scanned = consumed;
                    if !process_frame(shared, &mut conn, &mut scratch, frame, read) {
                        break 'conn;
                    }
                    started = Instant::now();
                }
                frame_started = (consumed < filled).then_some(started);
                if consumed > 0 {
                    buf.copy_within(consumed..filled, 0);
                    filled -= consumed;
                }
                scanned = filled;
                if filled > shared.config.max_frame_bytes {
                    ServiceMetrics::inc(&shared.metrics.oversized_frames);
                    let resp = Response::error(format!(
                        "frame exceeds {} bytes; closing connection",
                        shared.config.max_frame_bytes
                    ));
                    write_response(shared, &mut conn, &mut scratch.line, &resp, false);
                    break;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if let Some(t0) = frame_started {
                    if t0.elapsed() > shared.config.frame_timeout {
                        // Slow-loris: a frame has been dribbling for
                        // longer than any honest client needs.
                        ServiceMetrics::inc(&shared.metrics.slow_loris_closes);
                        break;
                    }
                }
            }
            Err(_) => {
                if filled > 0 {
                    ServiceMetrics::inc(&shared.metrics.torn_frames);
                }
                break;
            }
        }
    }
}

/// Handles one complete frame (newline stripped) that took `read` to
/// arrive, first byte to newline. Returns `false` when the connection
/// should close (shutdown acknowledged, or the response write failed).
fn process_frame(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    scratch: &mut Scratch,
    frame: &[u8],
    read: Duration,
) -> bool {
    let parse_started = Instant::now();
    let text = match std::str::from_utf8(frame) {
        Ok(t) => t,
        Err(_) => {
            ServiceMetrics::inc(&shared.metrics.frames_invalid);
            let resp = Response::error("frame is not valid UTF-8");
            return write_response(shared, conn, &mut scratch.line, &resp, false);
        }
    };
    if text.trim().is_empty() {
        return true;
    }
    let request = match parse_request_into(text, &mut scratch.wire_x) {
        Ok(r) => r,
        Err(msg) => {
            ServiceMetrics::inc(&shared.metrics.frames_invalid);
            let resp = Response::error(msg);
            return write_response(shared, conn, &mut scratch.line, &resp, false);
        }
    };
    ServiceMetrics::inc(&shared.metrics.frames_valid);
    match request {
        Request::Ping => {
            let resp = Response::with(Status::Ok, vec![("op", Value::Str("ping".to_string()))]);
            write_response(shared, conn, &mut scratch.line, &resp, false)
        }
        Request::Metrics => {
            let resp = Response {
                status: Status::Ok,
                body: metrics_value(shared),
                y: None,
            };
            write_response(shared, conn, &mut scratch.line, &resp, false)
        }
        Request::Shutdown => {
            shared.begin_drain();
            let resp = Response::with(
                Status::Ok,
                vec![
                    ("op", Value::Str("shutdown".to_string())),
                    ("draining", Value::Bool(true)),
                ],
            );
            write_response(shared, conn, &mut scratch.line, &resp, false);
            false
        }
        Request::Work(mut work) => {
            if matches!(work.source, MatrixSource::Inline(_)) {
                // The audit counter for the triplet path: warm handle
                // frames never pass through here, which is exactly
                // what the zero-matrix-work assertion pins.
                ServiceMetrics::inc(&shared.metrics.wire_matrix_parses);
            }
            let m = &shared.metrics;
            m.observe_stage(Stage::Read, read);
            let work_started = Instant::now();
            m.observe_stage(Stage::Parse, work_started - parse_started);
            let mut resp = handle_work(shared, &work, scratch);
            m.observe_stage(Stage::Work, work_started.elapsed());
            // Whichever rung answered, the request ends here: its
            // vector is the next frame's to parse into.
            if let Some(x) = work.x.take() {
                scratch.wire_x = x;
            }
            let open = write_response(shared, conn, &mut scratch.line, &resp, true);
            if let Some(y) = resp.y.take() {
                scratch.wire_y = y;
            }
            open
        }
    }
}

/// The admission ladder for one work request, rung by rung. Always
/// returns a response; the caller writes and counts it.
fn handle_work(shared: &Shared, work: &WorkRequest, scratch: &mut Scratch) -> Response {
    let m = &shared.metrics;
    ServiceMetrics::inc(&m.requests_total);
    if let Err(retry) = shared.buckets.try_take(&work.tenant) {
        ServiceMetrics::inc(&m.shed_tenant);
        return Response::shed(retry, "tenant budget exhausted");
    }
    let budget = work
        .deadline
        .unwrap_or(shared.config.default_deadline)
        .min(shared.config.max_deadline);
    let deadline = Instant::now() + budget;
    if budget.is_zero() {
        return Response::deadline_miss("admission");
    }
    if shared.draining() {
        ServiceMetrics::inc(&m.shed_draining);
        return Response::shed(SHED_RETRY_AFTER, "server is draining");
    }
    let matrix = match &work.source {
        // Warm path: a handle request never waits, never parses, never
        // prepares — a registry lookup and the frozen kernel replay.
        MatrixSource::Handle(handle) if handle.generation != shared.generation => {
            return Response::handle_miss(
                handle,
                "stale generation: handle was minted by another server instance",
            );
        }
        MatrixSource::Handle(handle) => {
            let Some(tuned) = shared.handles.lookup(&handle.fingerprint) else {
                return Response::handle_miss(handle, "unknown or evicted handle");
            };
            let fields = vec![
                ("op", Value::Str(work.op.name().to_string())),
                ("handle", Value::Str(handle.encode())),
                ("format", Value::Str(tuned.format().to_string())),
                (
                    "kernel",
                    Value::Str(kernel_name(shared, &tuned).to_string()),
                ),
                ("warm", Value::Bool(true)),
            ];
            return tuned_reply(shared, Status::Ok, fields, work, &tuned, scratch);
        }
        MatrixSource::Inline(matrix) => matrix,
    };
    // A long line means a correct answer *now* beats a tuned answer
    // late.
    let depth = shared.gate.waiters();
    let watermark = shared.config.degrade_watermark;
    if depth >= watermark {
        let reason = format!("backlog {depth} at the degrade watermark {watermark}");
        return degraded_now(work, matrix, &reason, scratch);
    }
    let queued = |depth: usize| m.observe_queue_depth(depth as u64);
    let permit = match shared.gate.enter(deadline, queued) {
        Ok(permit) => permit,
        Err(Refused::Full) => {
            ServiceMetrics::inc(&m.shed_queue_full);
            return Response::shed(SHED_RETRY_AFTER, "admission queue full");
        }
        Err(Refused::Expired) => return Response::deadline_miss("queued"),
    };
    // Containment boundary: a panic anywhere in tuning becomes an error
    // *response* to the request that caused it, and the permit goes
    // back either way.
    let ran = catch_unwind(AssertUnwindSafe(|| {
        tune_here(shared, work, matrix, deadline, scratch)
    }));
    drop(permit);
    let resp = ran.unwrap_or_else(|payload| {
        Response::error(format!("worker panicked: {}", panic_message(&*payload)))
    });
    if Instant::now() > deadline + REPLY_GRACE {
        // The run ignored its deadline; what it tuned stays registered.
        return Response::deadline_miss("in_flight");
    }
    resp
}

/// Runs the product `work` asks for and completes `fields` into the
/// reply — the one copy of the wire contract every rung shares. `x`
/// defaults to all ones. An `spmm` block travels column-major (`k`
/// concatenated columns, how clients batch independent right-hand
/// sides) while `run` sees the engine's interleaved row-major layout,
/// `x[c * k + j]` in and `y[r * k + j]` out; a single column is both at
/// once. The reply gains `spmm_kernel` (when `run` names one) and `k`
/// for `spmm`, then `y` — carried beside the body as the product's
/// `f64`s in wire order, in a vector the reply borrows from `scratch`
/// until it is written. A `tune` runs nothing; a failed `run` answers
/// an error carrying its message.
fn product_reply(
    status: Status,
    mut fields: Vec<(&'static str, Value)>,
    work: &WorkRequest,
    (rows, cols): (usize, usize),
    scratch: &mut Scratch,
    run: impl FnOnce(&[f64], &mut [f64], usize) -> Result<Option<&'static str>, String>,
) -> Response {
    if work.op == WorkOp::Tune {
        return Response::with(status, fields);
    }
    let k = work.k;
    let Scratch { x, y, wire_y, .. } = scratch;
    x.clear();
    x.resize(cols * k, 1.0);
    if let Some(wire) = &work.x {
        for (j, column) in wire.chunks_exact(cols).enumerate() {
            for (c, &v) in column.iter().enumerate() {
                x[c * k + j] = v;
            }
        }
    }
    y.clear();
    y.resize(rows * k, 0.0);
    let spmm_kernel = match run(x, y, k) {
        Ok(name) => name,
        Err(message) => return Response::error(message),
    };
    if work.op == WorkOp::Spmm {
        if let Some(name) = spmm_kernel {
            fields.push(("spmm_kernel", Value::Str(name.to_string())));
        }
        fields.push(("k", Value::UInt(k as u64)));
    }
    let mut out = std::mem::take(wire_y);
    out.clear();
    for j in 0..k {
        out.extend((0..rows).map(|r| y[r * k + j]));
    }
    let mut resp = Response::with(status, fields);
    resp.y = Some(out);
    resp
}

fn kernel_name(shared: &Shared, tuned: &TunedSpmv<f64>) -> &'static str {
    shared.engine.library().info(tuned.kernel()).name
}

/// Completes a reply about a tuned matrix with the product `work` asks
/// for, run through the engine's containment boundary — what a warm
/// handle call and the tail of a cold request both do. Zero matrix work,
/// and no allocation that grows with the vectors.
fn tuned_reply(
    shared: &Shared,
    status: Status,
    fields: Vec<(&'static str, Value)>,
    work: &WorkRequest,
    tuned: &TunedSpmv<f64>,
    scratch: &mut Scratch,
) -> Response {
    let engine = &shared.engine;
    let fp = tuned.fingerprint();
    let dims = (fp.rows, fp.cols);
    product_reply(status, fields, work, dims, scratch, |x, y, k| {
        match work.op {
            WorkOp::Spmm => engine.spmm(tuned, x, y, k),
            _ => engine.spmv(tuned, x, y),
        }
        .map_err(|e| format!("[{}] {e}", e.taxonomy()))?;
        Ok(tuned.spmm_kernel().map(|id| engine.library().info(id).name))
    })
}

/// Serves the reference serial CSR product immediately (ladder rung 4).
/// Only inline requests reach this rung — a handle request either hits
/// the registry or answers `handle_miss`; there is no matrix to degrade
/// onto.
fn degraded_now(
    work: &WorkRequest,
    matrix: &Csr<f64>,
    reason: &str,
    scratch: &mut Scratch,
) -> Response {
    let fields = vec![
        ("op", Value::Str(work.op.name().to_string())),
        ("format", Value::Str("csr".to_string())),
        ("kernel", Value::Str("csr_basic_serial".to_string())),
        ("reason", Value::Str(reason.to_string())),
    ];
    let (rows, cols) = (matrix.rows(), matrix.cols());
    // The degraded rung never touches the tiled tier: the reference
    // product, one column of the block at a time.
    let reference = |x: &[f64], y: &mut [f64], k: usize| {
        let (mut xj, mut yj) = (vec![0.0; cols], vec![0.0; rows]);
        for j in 0..k {
            for (c, v) in xj.iter_mut().enumerate() {
                *v = x[c * k + j];
            }
            matrix
                .spmv(&xj, &mut yj)
                .map_err(|e| format!("reference SpMV failed: {e}"))?;
            for (r, v) in yj.iter().enumerate() {
                y[r * k + j] = *v;
            }
        }
        Ok(None)
    };
    product_reply(
        Status::Degraded,
        fields,
        work,
        (rows, cols),
        scratch,
        reference,
    )
}

/// Ladder rung 6, under a permit: tune `matrix`, run the product, mint
/// and register the handle.
fn tune_here(
    shared: &Shared,
    work: &WorkRequest,
    matrix: &Csr<f64>,
    deadline: Instant,
    scratch: &mut Scratch,
) -> Response {
    // Failpoint `service.worker`: scripted tuning faults and stalls.
    if let Some(fault) = smat_failpoints::check("service.worker") {
        return Response::error(fault.to_string());
    }
    if deadline <= Instant::now() {
        return Response::deadline_miss("queued");
    }
    let tuned = shared.engine.prepare_with_deadline(matrix, deadline);
    let status = if tuned.decision().is_degraded() {
        Status::Degraded
    } else {
        Status::Ok
    };
    let mut fields = vec![
        ("op", Value::Str(work.op.name().to_string())),
        ("format", Value::Str(tuned.format().to_string())),
        (
            "kernel",
            Value::Str(kernel_name(shared, &tuned).to_string()),
        ),
        ("cached", Value::Bool(tuned.decision().is_cached())),
    ];
    if let smat::DecisionPath::Degraded { reason } = tuned.decision() {
        fields.push(("reason", Value::Str(reason.clone())));
    }
    // Mint the warm-path handle: echo the fingerprint + generation to
    // the client and, once the product has run, register the prepared
    // matrix. Degraded decisions are not registered — the point of the
    // warm path is replaying a *tuned* plan.
    if status == Status::Ok {
        let wire = WireHandle {
            fingerprint: tuned.fingerprint(),
            generation: shared.generation,
        };
        fields.push(("handle", Value::Str(wire.encode())));
    }
    let resp = tuned_reply(shared, status, fields, work, &tuned, scratch);
    if resp.status == Status::Ok {
        shared.handles.insert(tuned);
    }
    resp
}

// ---------------------------------------------------------------------
// Responses and metrics
// ---------------------------------------------------------------------

/// Writes `resp` as one line, formatted into the connection's reused
/// `line` buffer. When `count` is set (admitted work requests only)
/// the outcome counter is incremented first, so the quiesced invariant
/// `requests_total == Σ outcomes` holds even if the client vanished
/// before the write, and the encode and write stages are timed.
fn write_response(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    line: &mut String,
    resp: &Response,
    count: bool,
) -> bool {
    let m = &shared.metrics;
    if count {
        let counter = match resp.status {
            Status::Ok => &m.requests_ok,
            Status::Degraded => &m.requests_degraded,
            Status::Shed => &m.requests_shed,
            Status::DeadlineMiss => &m.deadline_misses,
            Status::HandleMiss => &m.requests_handle_miss,
            Status::Error => &m.requests_error,
        };
        ServiceMetrics::inc(counter);
    }
    // Failpoint `service.respond`: the write faults as if the client
    // closed its receive side.
    if smat_failpoints::check("service.respond").is_some() {
        ServiceMetrics::inc(&m.respond_faults);
        return false;
    }
    let encode_started = Instant::now();
    line.clear();
    resp.write_line(line);
    line.push('\n');
    let write_started = Instant::now();
    let written = conn.write_all(line.as_bytes()).and_then(|()| conn.flush());
    if count {
        m.observe_stage(Stage::Encode, write_started - encode_started);
        m.observe_stage(Stage::Write, write_started.elapsed());
    }
    if written.is_err() {
        ServiceMetrics::inc(&m.respond_faults);
    }
    written.is_ok()
}

/// Builds the metrics JSON: service counters, the engine health report
/// (breaker states, quarantined kernels), the one-entry `shards` array
/// with the cache and handle-registry counters, and the per-stage time
/// histograms.
fn metrics_value(shared: &Arc<Shared>) -> Value {
    let m = &shared.metrics;
    let g = ServiceMetrics::get;
    let report = shared.engine.health_report();
    let handles = shared.handles.stats();
    let service = obj(vec![
        ("status", Value::Str("ok".to_string())),
        (
            "accepted_connections",
            Value::UInt(g(&m.accepted_connections)),
        ),
        ("open_connections", Value::UInt(g(&m.open_connections))),
        ("accept_faults", Value::UInt(g(&m.accept_faults))),
        ("frames_valid", Value::UInt(g(&m.frames_valid))),
        ("frames_invalid", Value::UInt(g(&m.frames_invalid))),
        ("oversized_frames", Value::UInt(g(&m.oversized_frames))),
        ("torn_frames", Value::UInt(g(&m.torn_frames))),
        ("slow_loris_closes", Value::UInt(g(&m.slow_loris_closes))),
        ("respond_faults", Value::UInt(g(&m.respond_faults))),
        ("requests_total", Value::UInt(g(&m.requests_total))),
        ("requests_ok", Value::UInt(g(&m.requests_ok))),
        ("requests_degraded", Value::UInt(g(&m.requests_degraded))),
        ("requests_shed", Value::UInt(g(&m.requests_shed))),
        ("deadline_misses", Value::UInt(g(&m.deadline_misses))),
        (
            "requests_handle_miss",
            Value::UInt(g(&m.requests_handle_miss)),
        ),
        ("requests_error", Value::UInt(g(&m.requests_error))),
        ("wire_matrix_parses", Value::UInt(g(&m.wire_matrix_parses))),
        ("handle_hits", Value::UInt(handles.hits)),
        ("handle_misses", Value::UInt(handles.misses)),
        ("handle_evictions", Value::UInt(handles.evictions)),
        ("shed_tenant", Value::UInt(g(&m.shed_tenant))),
        ("shed_queue_full", Value::UInt(g(&m.shed_queue_full))),
        ("shed_draining", Value::UInt(g(&m.shed_draining))),
        ("queue_depth", Value::UInt(shared.gate.waiters() as u64)),
        (
            "queue_capacity",
            Value::UInt(shared.config.queue_capacity as u64),
        ),
        (
            "queue_high_watermark",
            Value::UInt(g(&m.queue_high_watermark)),
        ),
        (
            "degrade_watermark",
            Value::UInt(shared.config.degrade_watermark as u64),
        ),
        ("workers", Value::UInt(shared.config.workers as u64)),
        ("shard_count", Value::UInt(1)),
        ("generation", Value::UInt(shared.generation)),
        ("draining", Value::Bool(m.draining.load(Ordering::Relaxed))),
    ]);
    let cache = shared.engine.cache_stats();
    obj(vec![
        ("status", Value::Str("ok".to_string())),
        ("service", service),
        ("engine", report.to_value()),
        (
            "shards",
            Value::Array(vec![shard_entry(&cache, &report, &handles)]),
        ),
        ("stages", m.stages_value()),
    ])
}
