//! Wire protocol: one line-delimited JSON object per request and per
//! response.
//!
//! Requests are read by hand rather than derived — the vendored serde
//! derive requires every struct field to be present in the input,
//! while real clients omit optional fields (`deadline_ms`, `tenant`,
//! `x`) freely — and without a [`serde::Value`] tree in between:
//! [`parse_request`] walks the frame once with [`serde_json::Reader`]
//! and pulls `x` and the matrix `entries` straight into the vectors the
//! engine takes (see "How a frame is read" below). Responses are small
//! `Value` objects; the product `y` rides beside the object as `f64`s
//! and is formatted straight into the reply line.
//!
//! ## Requests
//!
//! ```json
//! {"op": "ping"}
//! {"op": "metrics"}
//! {"op": "shutdown"}
//! {"op": "tune", "matrix": {"rows": R, "cols": C, "nnz": N,
//!   "entries": [[r, c, v], ...]},                // 0-based indices;
//!                                                // "nnz" optional hint
//!   "deadline_ms": 250, "tenant": "team-a"}      // both optional
//! {"op": "spmv", "matrix": {...}, "x": [..],     // x optional (ones)
//!   "deadline_ms": 250, "tenant": "team-a"}
//! {"op": "spmm", "matrix": {...}, "k": 4,        // k >= 1 RHS columns
//!   "x": [..]}                                   // x optional (ones);
//!                                                // cols*k, column-major
//! {"op": "spmv", "handle": "h1:...", "x": [..]}  // warm path: replay a
//!                                                // server-resident matrix
//! ```
//!
//! Matrix `entries` must be duplicate-free: a repeated `(row, col)`
//! coordinate is rejected with an error naming both entry indices,
//! instead of the silent last-write-wins a client almost never means.
//! The optional `"nnz"` field preallocates the assembly buffers and
//! doubles as an integrity check — it must equal the entry count.
//!
//! Multi-RHS blocks travel column-major on the wire — `x` is `k`
//! concatenated columns of length `cols`, the response `y` is `k`
//! concatenated columns of length `rows` — matching how clients
//! naturally batch independent right-hand sides. The server converts
//! to the engine's row-major layout internally.
//!
//! ## Handles (the warm path)
//!
//! A successful `tune`/`spmv`/`spmm` response carries a `"handle"`
//! string: the matrix's structural fingerprint plus the server's
//! generation tag. Subsequent `spmv`/`spmm` requests may send that
//! handle *instead of* the `matrix` object — the server replays its
//! resident prepared matrix with zero triplet parsing, zero format
//! conversion and zero `prepare` work. A handle the server no longer
//! recognizes (evicted, or minted by a previous server generation) is
//! answered with status `"handle_miss"` carrying the fingerprint, so
//! the client deterministically falls back to the triplet path and
//! collects a fresh handle.
//!
//! ## How a frame is read
//!
//! One left-to-right walk checks the whole frame's syntax and keeps the
//! *first* occurrence of each key it knows (what a lookup in a parsed
//! tree finds), skipping the rest. A field that is well-formed JSON but
//! not what the protocol wants never stops the walk: its verdict is
//! noted, and when the walk ends the notes are consulted in a fixed
//! order — `op`, then `matrix`/`handle`, `k`, `x`, `deadline_ms`,
//! `tenant`; within a matrix `rows`, `cols`, `entries`, `nnz`, then the
//! entries in order — so the message a client gets does not depend on
//! the order it wrote its keys in, and a syntax error anywhere wins
//! over all of them. Entries are pulled unchecked — plain
//! `[row, col, value]` elements by [`Reader::triplets`] in one pass, any
//! other element by the per-element walk — and assembled when the
//! matrix object closes; [`Csr::from_triplets`] refuses an
//! out-of-range coordinate and merges a repeated one, so a clean frame
//! is one whose assembly succeeds with as many stored entries as were
//! sent. Only otherwise are the entries read a second time, in order
//! and with every check, to name the first defect and the entry it
//! repeats.
//!
//! ## Responses
//!
//! Every response carries `"status"`: `"ok"`, `"degraded"` (correct
//! product via the reference path), `"shed"` (with `retry_after_ms`),
//! `"deadline_miss"`, `"handle_miss"` (unknown/evicted handle; retry
//! with triplets), or `"error"`.

use crate::split::{piece_count, PIECE_BYTES, PIECE_VALUES};
use serde::{Serialize, Value};
use serde_json::{Kind, Number, Pieces, Reader};
use smat_kernels::exec::for_each_chunk;
use smat_matrix::{Csr, StructuralFingerprint};
use std::borrow::Cow;
use std::collections::HashMap;
use std::time::Duration;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered inline.
    Ping,
    /// Metrics snapshot; answered inline.
    Metrics,
    /// Graceful shutdown: drain in-flight work, persist snapshots,
    /// refuse new connections.
    Shutdown,
    /// Tuning work (`tune` / `spmv`); goes through admission.
    Work(Box<WorkRequest>),
}

/// What a [`Request::Work`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkOp {
    /// Tune only: answer with the chosen format/kernel.
    Tune,
    /// Tune then multiply: answer with `y`.
    Spmv,
    /// Tune then multiply `k` right-hand sides: answer with the
    /// column-major `y` block and `k`.
    Spmm,
}

impl WorkOp {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            WorkOp::Tune => "tune",
            WorkOp::Spmv => "spmv",
            WorkOp::Spmm => "spmm",
        }
    }
}

/// A wire handle: the structural fingerprint of a server-resident
/// prepared matrix plus the generation tag of the server that minted
/// it. Stable for the server's lifetime; a restarted server mints a
/// fresh generation, so stale handles miss deterministically instead
/// of silently replaying another process's registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireHandle {
    /// Structural identity of the resident matrix.
    pub fingerprint: StructuralFingerprint,
    /// Generation tag of the minting server instance.
    pub generation: u64,
}

impl WireHandle {
    /// Renders the wire form:
    /// `h1:<gen>:<rows>:<cols>:<nnz>:<digest0>:<digest1>` (hex fields).
    pub fn encode(&self) -> String {
        let f = &self.fingerprint;
        format!(
            "h1:{:x}:{:x}:{:x}:{:x}:{:016x}:{:016x}",
            self.generation, f.rows, f.cols, f.nnz, f.digest[0], f.digest[1]
        )
    }

    /// Parses the wire form produced by [`WireHandle::encode`].
    ///
    /// # Errors
    ///
    /// Returns a client-facing message on any malformed field.
    pub fn parse(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 7 || parts[0] != "h1" {
            return Err(format!(
                "\"handle\" must look like h1:<gen>:<rows>:<cols>:<nnz>:<d0>:<d1>, got {s:?}"
            ));
        }
        let hex = |i: usize, what: &str| -> Result<u64, String> {
            u64::from_str_radix(parts[i], 16)
                .map_err(|_| format!("handle field {what} is not hexadecimal: {:?}", parts[i]))
        };
        Ok(WireHandle {
            generation: hex(1, "gen")?,
            fingerprint: StructuralFingerprint {
                rows: hex(2, "rows")? as usize,
                cols: hex(3, "cols")? as usize,
                nnz: hex(4, "nnz")? as usize,
                digest: [hex(5, "digest[0]")?, hex(6, "digest[1]")?],
            },
        })
    }
}

/// What a work request identifies its matrix by: an inline triplet
/// object (the cold path) or a handle onto the server's prepared
/// registry (the warm path).
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixSource {
    /// Full matrix shipped in the request.
    Inline(Csr<f64>),
    /// Fingerprint + generation of a server-resident prepared matrix.
    Handle(WireHandle),
}

/// A tune/spmv/spmm request after validation.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkRequest {
    /// Which operation.
    pub op: WorkOp,
    /// The matrix: inline triplets (already assembled, duplicates
    /// rejected at parse time) or a warm-path handle.
    pub source: MatrixSource,
    /// Input vector(s) for [`WorkOp::Spmv`] / [`WorkOp::Spmm`]; `None`
    /// means all-ones. For `Spmm` this is the column-major wire block
    /// of length `cols * k`.
    pub x: Option<Vec<f64>>,
    /// Right-hand-side count: 1 for `Tune`/`Spmv`, the client's `k`
    /// for `Spmm`.
    pub k: usize,
    /// Client deadline; `None` takes the server default.
    pub deadline: Option<Duration>,
    /// Budget account; empty string is the anonymous tenant.
    pub tenant: String,
}

impl WorkRequest {
    /// Column count implied by the source (inline dimensions or the
    /// handle's fingerprint), for `x` length validation.
    pub fn cols(&self) -> usize {
        match &self.source {
            MatrixSource::Inline(m) => m.cols(),
            MatrixSource::Handle(h) => h.fingerprint.cols,
        }
    }
}

/// Outcome class of a response — the single source for outcome
/// counters, so every answered request is counted exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Tuned result.
    Ok,
    /// Correct product via the reference path.
    Degraded,
    /// Rejected with a retry hint.
    Shed,
    /// Deadline expired before an answer was produced.
    DeadlineMiss,
    /// The request named a handle the server does not hold (evicted,
    /// or minted by another server generation). The client retries
    /// with inline triplets.
    HandleMiss,
    /// Malformed request or execution failure.
    Error,
}

impl Status {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Degraded => "degraded",
            Status::Shed => "shed",
            Status::DeadlineMiss => "deadline_miss",
            Status::HandleMiss => "handle_miss",
            Status::Error => "error",
        }
    }
}

/// A response ready to be written: its outcome class plus the JSON
/// body (which already contains the `status` field).
#[derive(Debug, Clone)]
pub struct Response {
    /// Outcome class, for counting at write time.
    pub status: Status,
    /// JSON body: an object.
    pub body: Value,
    /// The product in wire order, written as the body's last field
    /// `"y"`. Kept out of the tree so that no `Value` is built per
    /// element, and handed back after the write so the vector serves
    /// the connection's next reply.
    pub y: Option<Vec<f64>>,
}

impl Response {
    /// A response with `status` plus `fields`.
    pub fn with(status: Status, fields: Vec<(&str, Value)>) -> Self {
        let mut all = vec![("status", Value::Str(status.name().to_string()))];
        all.extend(fields);
        Response {
            status,
            body: obj(all),
            y: None,
        }
    }

    /// An `"error"` response.
    pub fn error(message: impl Into<String>) -> Self {
        Self::with(Status::Error, vec![("message", Value::Str(message.into()))])
    }

    /// A `"shed"` response with a retry hint and reason.
    pub fn shed(retry_after: Duration, reason: &str) -> Self {
        Self::with(
            Status::Shed,
            vec![
                (
                    "retry_after_ms",
                    Value::UInt(retry_after.as_millis() as u64),
                ),
                ("reason", Value::Str(reason.to_string())),
            ],
        )
    }

    /// A `"handle_miss"` response: echoes the handle and spells the
    /// fingerprint out, so the client can degrade to the triplet path
    /// deterministically (and re-associate the fresh handle it gets
    /// back with the right local matrix).
    pub fn handle_miss(handle: &WireHandle, reason: &str) -> Self {
        let f = &handle.fingerprint;
        Self::with(
            Status::HandleMiss,
            vec![
                ("handle", Value::Str(handle.encode())),
                ("reason", Value::Str(reason.to_string())),
                (
                    "fingerprint",
                    obj(vec![
                        ("rows", Value::UInt(f.rows as u64)),
                        ("cols", Value::UInt(f.cols as u64)),
                        ("nnz", Value::UInt(f.nnz as u64)),
                        (
                            "digest",
                            Value::Array(vec![
                                Value::Str(format!("{:016x}", f.digest[0])),
                                Value::Str(format!("{:016x}", f.digest[1])),
                            ]),
                        ),
                    ]),
                ),
            ],
        )
    }

    /// A `"deadline_miss"` response.
    pub fn deadline_miss(stage: &str) -> Self {
        Self::with(
            Status::DeadlineMiss,
            vec![("stage", Value::Str(stage.to_string()))],
        )
    }

    /// Serializes the response as one compact line (no trailing
    /// newline).
    pub fn to_line(&self) -> String {
        let mut line = String::new();
        self.write_line(&mut line, &mut Pieces::default());
        line
    }

    /// Appends the line [`Response::to_line`] returns to `line`, a long
    /// `y` written in pieces on the pool into the buffers of `pieces`.
    pub(crate) fn write_line(&self, line: &mut String, pieces: &mut Pieces) {
        serde_json::write_compact(&self.body, line);
        if let Some(y) = &self.y {
            // The body object holds at least `status`: reopen it.
            line.pop();
            line.push_str(",\"y\":[");
            let count = piece_count(y.len(), PIECE_VALUES);
            serde_json::write_f64s_in_pieces(y, line, count, pieces, &for_each_chunk);
            line.push_str("]}");
        }
    }
}

/// Adapter: the vendored serde has no `Serialize` impl for its own
/// `Value`, so a document handed to a `serde_json` serializer wraps
/// its tree in this identity impl.
pub struct Json<'a>(pub &'a Value);

impl Serialize for Json<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Builds an object `Value` from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// What the first occurrence of a key held, for the keys whose value
/// is of use only as a scalar.
enum Scalar<'a> {
    Null,
    Number(Number),
    Str(Cow<'a, str>),
    /// A bool, array or object, by its [`Value::kind`].
    Other(&'static str),
}

impl<'a> Scalar<'a> {
    fn pull(r: &mut Reader<'a>) -> serde_json::Result<Self> {
        Ok(match r.peek()? {
            Kind::Null => r.null().map(|()| Scalar::Null)?,
            Kind::Number => Scalar::Number(r.number()?),
            Kind::Str => Scalar::Str(r.string()?),
            Kind::Bool | Kind::Array | Kind::Object => Scalar::Other(r.skip()?),
        })
    }

    fn kind(&self) -> &'static str {
        match self {
            Scalar::Null => "null",
            Scalar::Number(n) => n.kind(),
            Scalar::Str(_) => "string",
            Scalar::Other(kind) => kind,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Scalar::Number(n) => n.as_u64(),
            _ => None,
        }
    }
}

/// What the protocol makes of a field that is well-formed JSON: noted
/// during the walk, consulted after it.
type Verdict<T> = Result<T, String>;

/// Reads the next value: the number if it is one, `None` past anything
/// else.
fn number_or_skip(r: &mut Reader<'_>) -> serde_json::Result<Option<Number>> {
    Ok(match r.peek()? {
        Kind::Number => Some(r.number()?),
        _ => r.skip().map(|_| None)?,
    })
}

/// Pulls `"x"` — `null` is no vector — into the allocation of `spare`,
/// a long one in pieces. Its length is checked later, against a matrix
/// the walk may not have met yet.
fn pull_x(
    r: &mut Reader<'_>,
    spare: &mut Vec<f64>,
    pieces: &mut Pieces,
) -> serde_json::Result<Verdict<Option<Vec<f64>>>> {
    match r.peek()? {
        Kind::Null => r.null().map(|()| Ok(None)),
        Kind::Array => {
            let mut x = std::mem::take(spare);
            x.clear();
            let count = piece_count(r.array_reach(), PIECE_BYTES);
            Ok(
                match r.f64s_in_pieces(&mut x, count, pieces, &for_each_chunk)? {
                    None => Ok(Some(x)),
                    Some((i, fault)) => Err(format!("x[{i}] {fault}")),
                },
            )
        }
        _ => {
            let kind = r.skip()?;
            Ok(Err(format!("\"x\" must be an array, got {kind}")))
        }
    }
}

/// One element of `entries`: the triplet, or what is wrong with its
/// shape in the words that follow `entries[i]` in the message.
type Entry = Result<(usize, usize, f64), &'static str>;

fn pull_entry(r: &mut Reader<'_>) -> serde_json::Result<Entry> {
    if r.peek()? != Kind::Array {
        r.skip()?;
        return Ok(Err("must be a [row, col, value] triplet"));
    }
    let mut numbers = [None; 3];
    let mut len = 0;
    let mut more = r.begin_array()?;
    while more {
        let number = number_or_skip(r)?;
        if let Some(slot) = numbers.get_mut(len) {
            *slot = number;
        }
        len += 1;
        more = r.array_continues()?;
    }
    let [row, col, value] = numbers;
    let (row, col) = (row.and_then(Number::as_u64), col.and_then(Number::as_u64));
    Ok(match (len, row, col, value) {
        (3, Some(row), Some(col), Some(value)) => Ok((row as usize, col as usize, value.as_f64())),
        (3, Some(_), Some(_), None) => Err("value is not a number"),
        (3, Some(_), None, _) => Err("col is not an integer"),
        (3, None, _, _) => Err("row is not an integer"),
        _ => Err("must be a [row, col, value] triplet"),
    })
}

/// The first `"entries"` array of a matrix object, pulled unchecked.
struct WireEntries<'a> {
    /// Every well-formed entry.
    triplets: Vec<(usize, usize, f64)>,
    /// Elements of the array, well-formed or not.
    count: usize,
    /// Every element was a triplet of numbers with a finite value.
    well_formed: bool,
    /// Bookmark at the array, to read it again with every check.
    from: Reader<'a>,
}

impl<'a> WireEntries<'a> {
    /// `None` past anything but an array; room for `reserve` entries.
    /// A long array is read in pieces.
    fn pull(
        r: &mut Reader<'a>,
        reserve: usize,
        pieces: &mut Pieces,
    ) -> serde_json::Result<Option<Self>> {
        if r.peek()? != Kind::Array {
            return r.skip().map(|_| None);
        }
        let from = r.clone();
        let mut triplets = Vec::with_capacity(reserve);
        // The reader takes plain triplets, all finite, itself; every
        // other element is read here as the checked walk reads it.
        let mut well_formed = true;
        let other = |r: &mut Reader<'a>| {
            let entry = pull_entry(r)?;
            well_formed &= entry.is_ok_and(|(_, _, v)| v.is_finite());
            Ok(entry.ok())
        };
        let count = piece_count(r.array_reach(), PIECE_BYTES);
        let count = r.triplets_in_pieces(&mut triplets, other, count, pieces, &for_each_chunk)?;
        Ok(Some(WireEntries {
            triplets,
            count,
            well_formed,
            from,
        }))
    }

    /// Reads the entries again, in order and with every check, and
    /// names the first defect. Reject a repeated coordinate rather than
    /// sum or last-write-wins: a duplicate on the wire is almost always
    /// an assembly bug, and the entry indices point straight at it.
    fn checked(self, rows: usize, cols: usize) -> Verdict<Vec<(usize, usize, f64)>> {
        // The walk that made the bookmark has been over this text.
        let syntax = |e: serde_json::Error| format!("invalid JSON: {e}");
        let mut reader = self.from;
        let mut triplets = Vec::with_capacity(self.count);
        let mut seen: HashMap<(usize, usize), usize> = HashMap::with_capacity(self.count);
        let mut more = reader.begin_array().map_err(syntax)?;
        while more {
            let i = triplets.len();
            let (r, c, val) = pull_entry(&mut reader)
                .map_err(syntax)?
                .map_err(|what| format!("entries[{i}] {what}"))?;
            if r >= rows || c >= cols {
                return Err(format!(
                    "entries[{i}] = ({r}, {c}) outside 0..{rows} x 0..{cols}"
                ));
            }
            if !val.is_finite() {
                return Err(format!("entries[{i}] value is not finite"));
            }
            if let Some(first) = seen.insert((r, c), i) {
                return Err(format!(
                    "entries[{i}] duplicates ({r}, {c}) first given at entries[{first}]"
                ));
            }
            triplets.push((r, c, val));
            more = reader.array_continues().map_err(syntax)?;
        }
        Ok(triplets)
    }
}

/// Pulls `"matrix"` and assembles it. `frame_len` bounds what an
/// `"nnz"` hint may reserve.
fn pull_matrix(
    r: &mut Reader<'_>,
    frame_len: usize,
    pieces: &mut Pieces,
) -> serde_json::Result<Verdict<Csr<f64>>> {
    if r.peek()? != Kind::Object {
        let kind = r.skip()?;
        return Ok(Err(format!("\"matrix\" must be an object, got {kind}")));
    }
    let (mut rows, mut cols, mut nnz, mut entries) = (None, None, None, None);
    let mut more = r.begin_object()?;
    while more {
        let key = r.key()?;
        let scalar = match key.as_ref() {
            "rows" => Some(&mut rows),
            "cols" => Some(&mut cols),
            "nnz" => Some(&mut nnz),
            _ => None,
        };
        match scalar {
            Some(slot @ None) => *slot = Some(Scalar::pull(r)?),
            None if key == "entries" && entries.is_none() => {
                // An entry is at least `[0,0,0],`: a hint cannot
                // reserve more than the frame could hold.
                let hint = nnz.as_ref().and_then(Scalar::as_u64).unwrap_or(0);
                let reserve = (hint as usize).min(frame_len / 8);
                entries = Some(WireEntries::pull(r, reserve, pieces)?);
            }
            _ => _ = r.skip()?,
        }
        more = r.object_continues()?;
    }
    Ok(assemble(rows, cols, nnz, entries.flatten()))
}

/// Validates a matrix object's fields in the protocol's order and
/// assembles the matrix.
fn assemble(
    rows: Option<Scalar<'_>>,
    cols: Option<Scalar<'_>>,
    nnz: Option<Scalar<'_>>,
    entries: Option<WireEntries<'_>>,
) -> Verdict<Csr<f64>> {
    let dimension = |v: &Option<Scalar>| v.as_ref().and_then(Scalar::as_u64);
    let rows = dimension(&rows).ok_or("matrix needs a non-negative integer \"rows\"")? as usize;
    let cols = dimension(&cols).ok_or("matrix needs a non-negative integer \"cols\"")? as usize;
    if rows == 0 || cols == 0 {
        return Err("matrix dimensions must be positive".to_string());
    }
    if rows > MAX_WIRE_DIM || cols > MAX_WIRE_DIM {
        return Err(format!(
            "matrix dimensions {rows}x{cols} exceed the wire limit of {MAX_WIRE_DIM}"
        ));
    }
    let entries =
        entries.ok_or("matrix needs an \"entries\" array of [row, col, value] triplets")?;
    // Optional preallocation hint; when present it must agree with the
    // entry count, so a truncated or mis-assembled frame is rejected
    // instead of silently building a smaller matrix.
    match nnz {
        None | Some(Scalar::Null) => {}
        Some(v) => {
            let hint = v
                .as_u64()
                .ok_or("matrix \"nnz\" hint must be a non-negative integer")?
                as usize;
            if hint != entries.count {
                return Err(format!(
                    "matrix \"nnz\" hint {hint} disagrees with {} entries",
                    entries.count
                ));
            }
        }
    }
    if entries.well_formed {
        // Assembly refuses a coordinate outside the matrix and merges a
        // repeated one, so as many stored entries as were sent means
        // there was neither.
        if let Ok(matrix) = Csr::from_triplets(rows, cols, &entries.triplets) {
            if matrix.nnz() == entries.count {
                return Ok(matrix);
            }
        }
    }
    let triplets = entries.checked(rows, cols)?;
    Csr::from_triplets(rows, cols, &triplets).map_err(|e| format!("bad matrix: {e}"))
}

/// The first occurrence of every key a request may carry.
#[derive(Default)]
struct Fields<'a> {
    op: Option<Scalar<'a>>,
    matrix: Option<Verdict<Csr<f64>>>,
    handle: Option<Scalar<'a>>,
    k: Option<Scalar<'a>>,
    x: Option<Verdict<Option<Vec<f64>>>>,
    deadline_ms: Option<Scalar<'a>>,
    tenant: Option<Scalar<'a>>,
}

impl<'a> Fields<'a> {
    /// Walks the frame: every syntax error is found here. A frame that
    /// is not an object answers its [`Value::kind`].
    fn pull(
        frame: &'a str,
        spare_x: &mut Vec<f64>,
        pieces: &mut Pieces,
    ) -> serde_json::Result<Result<Self, &'static str>> {
        let mut r = Reader::new(frame);
        if r.peek()? != Kind::Object {
            let kind = r.skip()?;
            r.finish()?;
            return Ok(Err(kind));
        }
        let mut fields = Fields::default();
        let mut more = r.begin_object()?;
        while more {
            let key = r.key()?;
            let scalar = match key.as_ref() {
                "op" => Some(&mut fields.op),
                "handle" => Some(&mut fields.handle),
                "k" => Some(&mut fields.k),
                "deadline_ms" => Some(&mut fields.deadline_ms),
                "tenant" => Some(&mut fields.tenant),
                _ => None,
            };
            match scalar {
                Some(slot @ None) => *slot = Some(Scalar::pull(&mut r)?),
                None if key == "matrix" && fields.matrix.is_none() => {
                    fields.matrix = Some(pull_matrix(&mut r, frame.len(), pieces)?);
                }
                None if key == "x" && fields.x.is_none() => {
                    fields.x = Some(pull_x(&mut r, spare_x, pieces)?);
                }
                _ => _ = r.skip()?,
            }
            more = r.object_continues()?;
        }
        r.finish()?;
        Ok(Ok(fields))
    }

    /// Consults the fields in the protocol's order: the first problem
    /// in that order is the one reported.
    fn validate(self) -> Result<Request, String> {
        let op = match &self.op {
            Some(Scalar::Str(op)) => op.as_ref(),
            Some(other) => return Err(format!("\"op\" must be a string, got {}", other.kind())),
            None => return Err("missing \"op\" field".to_string()),
        };
        let work_op = match op {
            "ping" => return Ok(Request::Ping),
            "metrics" => return Ok(Request::Metrics),
            "shutdown" => return Ok(Request::Shutdown),
            "tune" => WorkOp::Tune,
            "spmv" => WorkOp::Spmv,
            "spmm" => WorkOp::Spmm,
            other => {
                return Err(format!(
                    "unknown op {other:?} (expected ping, metrics, tune, spmv, spmm, or shutdown)"
                ))
            }
        };
        let source = match (self.matrix, &self.handle) {
            (Some(_), Some(_)) => {
                return Err(
                    "request carries both \"matrix\" and \"handle\"; send exactly one".into(),
                )
            }
            (Some(matrix), None) => MatrixSource::Inline(matrix?),
            (None, Some(Scalar::Str(h))) => {
                if work_op == WorkOp::Tune {
                    return Err(
                        "tune needs an inline \"matrix\"; handles identify already-tuned matrices"
                            .to_string(),
                    );
                }
                MatrixSource::Handle(WireHandle::parse(h)?)
            }
            (None, Some(other)) => {
                return Err(format!("\"handle\" must be a string, got {}", other.kind()))
            }
            (None, None) => return Err("missing \"matrix\" field (or a \"handle\")".to_string()),
        };
        let k = match (work_op, &self.k) {
            (WorkOp::Spmm, Some(v)) => {
                let k = v.as_u64().ok_or("\"k\" must be a positive integer")? as usize;
                if k == 0 {
                    return Err("\"k\" must be at least 1".to_string());
                }
                if k > MAX_WIRE_RHS {
                    return Err(format!(
                        "\"k\" = {k} exceeds the wire limit of {MAX_WIRE_RHS}"
                    ));
                }
                k
            }
            (WorkOp::Spmm, None) => return Err("spmm needs a positive integer \"k\"".to_string()),
            (_, Some(_)) => return Err(format!("\"k\" is only valid for spmm, not {op}")),
            (_, None) => 1,
        };
        let x = match self.x.transpose()?.flatten() {
            None => None,
            Some(x) => {
                let cols = match &source {
                    MatrixSource::Inline(m) => m.cols(),
                    MatrixSource::Handle(h) => h.fingerprint.cols,
                };
                // A forged handle can claim any column count.
                let wanted = cols.saturating_mul(k);
                if x.len() != wanted {
                    return Err(if work_op == WorkOp::Spmm {
                        format!(
                            "\"x\" has {} entries but an spmm block needs cols*k = {wanted}",
                            x.len()
                        )
                    } else {
                        format!(
                            "\"x\" has {} entries but the matrix has {cols} columns",
                            x.len()
                        )
                    });
                }
                Some(x)
            }
        };
        let deadline = match &self.deadline_ms {
            None | Some(Scalar::Null) => None,
            Some(v) => Some(Duration::from_millis(
                v.as_u64()
                    .ok_or("\"deadline_ms\" must be a non-negative integer")?,
            )),
        };
        let tenant = match self.tenant {
            None | Some(Scalar::Null) => String::new(),
            Some(Scalar::Str(s)) => s.into_owned(),
            Some(other) => {
                return Err(format!("\"tenant\" must be a string, got {}", other.kind()))
            }
        };
        Ok(Request::Work(Box::new(WorkRequest {
            op: work_op,
            source,
            x,
            k,
            deadline,
            tenant,
        })))
    }
}

/// Parses one frame into a [`Request`].
///
/// # Errors
///
/// Returns a client-facing message describing the first problem (bad
/// JSON, unknown op, malformed matrix, non-finite values).
pub fn parse_request(frame: &str) -> Result<Request, String> {
    parse_request_into(frame, &mut Vec::new(), &mut Pieces::default())
}

/// [`parse_request`] for a caller that parses frame after frame: the
/// request's `x`, if it carries one, takes over the allocation of
/// `spare_x` (left empty), so a vector handed back after each request
/// is grown once, not once per frame; and long arrays are read in
/// pieces into the buffers of `pieces`, which grow once too.
///
/// # Errors
///
/// As [`parse_request`].
pub(crate) fn parse_request_into(
    frame: &str,
    spare_x: &mut Vec<f64>,
    pieces: &mut Pieces,
) -> Result<Request, String> {
    Fields::pull(frame, spare_x, pieces)
        .map_err(|e| format!("invalid JSON: {e}"))?
        .map_err(|kind| format!("request must be a JSON object, got {kind}"))?
        .validate()
}

/// Cap on right-hand-side columns per spmm request: keeps the dense
/// block allocation bounded by the frame cap rather than a tiny frame
/// claiming a huge implicit all-ones block.
const MAX_WIRE_RHS: usize = 1 << 12;

/// Size guard before assembling a matrix from the wire: triplet count
/// is already bounded by the frame cap, but dimensions are not — a
/// 10-byte frame can claim a 10^15-row matrix and a naive assembly
/// would allocate row pointers for it.
const MAX_WIRE_DIM: usize = 1 << 24;

#[cfg(test)]
mod tests {
    use super::*;

    fn get<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    #[test]
    fn parses_ops_without_optional_fields() {
        assert_eq!(parse_request("{\"op\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(
            parse_request("{\"op\":\"metrics\"}").unwrap(),
            Request::Metrics
        );
        assert_eq!(
            parse_request("{\"op\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
        let req = parse_request(
            "{\"op\":\"spmv\",\"matrix\":{\"rows\":2,\"cols\":2,\
             \"entries\":[[0,0,1.5],[1,1,2.0]]}}",
        )
        .unwrap();
        match req {
            Request::Work(w) => {
                assert_eq!(w.op, WorkOp::Spmv);
                match &w.source {
                    MatrixSource::Inline(m) => {
                        assert_eq!(m.rows(), 2);
                        assert_eq!(m.nnz(), 2);
                    }
                    other => panic!("expected inline matrix, got {other:?}"),
                }
                assert!(w.x.is_none());
                assert!(w.deadline.is_none());
                assert_eq!(w.tenant, "");
            }
            other => panic!("expected Work, got {other:?}"),
        }
    }

    #[test]
    fn parses_optional_fields() {
        let req = parse_request(
            "{\"op\":\"tune\",\"tenant\":\"team-a\",\"deadline_ms\":250,\
             \"matrix\":{\"rows\":1,\"cols\":3,\"entries\":[[0,2,4]]}}",
        )
        .unwrap();
        match req {
            Request::Work(w) => {
                assert_eq!(w.op, WorkOp::Tune);
                assert_eq!(w.tenant, "team-a");
                assert_eq!(w.deadline, Some(Duration::from_millis(250)));
                match &w.source {
                    MatrixSource::Inline(m) => assert_eq!(m.get(0, 2), Some(4.0)),
                    other => panic!("expected inline matrix, got {other:?}"),
                }
            }
            other => panic!("expected Work, got {other:?}"),
        }
    }

    #[test]
    fn parses_spmm_with_column_major_block() {
        let req = parse_request(
            "{\"op\":\"spmm\",\"k\":2,\"x\":[1,2,3,4,5,6],\
             \"matrix\":{\"rows\":2,\"cols\":3,\"entries\":[[0,0,1],[1,2,2]]}}",
        )
        .unwrap();
        match req {
            Request::Work(w) => {
                assert_eq!(w.op, WorkOp::Spmm);
                assert_eq!(w.k, 2);
                assert_eq!(w.x.as_deref(), Some(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0][..]));
            }
            other => panic!("expected Work, got {other:?}"),
        }
        // Implicit all-ones block is fine: x stays None, k carries.
        let req = parse_request(
            "{\"op\":\"spmm\",\"k\":4,\
             \"matrix\":{\"rows\":2,\"cols\":3,\"entries\":[[0,0,1]]}}",
        )
        .unwrap();
        match req {
            Request::Work(w) => {
                assert_eq!(w.k, 4);
                assert!(w.x.is_none());
            }
            other => panic!("expected Work, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_requests_with_messages() {
        for (frame, needle) in [
            ("not json", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            ("{\"x\":1}", "missing \"op\""),
            ("{\"op\":\"dance\"}", "unknown op"),
            ("{\"op\":\"tune\"}", "missing \"matrix\""),
            (
                "{\"op\":\"tune\",\"matrix\":{\"rows\":0,\"cols\":1,\"entries\":[]}}",
                "must be positive",
            ),
            (
                "{\"op\":\"tune\",\"matrix\":{\"rows\":2,\"cols\":2,\"entries\":[[5,0,1]]}}",
                "outside",
            ),
            (
                "{\"op\":\"tune\",\"matrix\":{\"rows\":99999999999,\"cols\":2,\"entries\":[]}}",
                "wire limit",
            ),
            (
                "{\"op\":\"spmv\",\"x\":[1.0],\"matrix\":{\"rows\":2,\"cols\":2,\
                 \"entries\":[[0,0,1]]}}",
                "2 columns",
            ),
            (
                "{\"op\":\"spmm\",\"matrix\":{\"rows\":2,\"cols\":2,\
                 \"entries\":[[0,0,1]]}}",
                "spmm needs a positive integer",
            ),
            (
                "{\"op\":\"spmm\",\"k\":0,\"matrix\":{\"rows\":2,\"cols\":2,\
                 \"entries\":[[0,0,1]]}}",
                "at least 1",
            ),
            (
                "{\"op\":\"spmm\",\"k\":99999999,\"matrix\":{\"rows\":2,\"cols\":2,\
                 \"entries\":[[0,0,1]]}}",
                "wire limit",
            ),
            (
                "{\"op\":\"spmv\",\"k\":2,\"matrix\":{\"rows\":2,\"cols\":2,\
                 \"entries\":[[0,0,1]]}}",
                "only valid for spmm",
            ),
            (
                "{\"op\":\"spmm\",\"k\":3,\"x\":[1.0,2.0],\"matrix\":{\"rows\":2,\
                 \"cols\":2,\"entries\":[[0,0,1]]}}",
                "cols*k",
            ),
        ] {
            let err = parse_request(frame).unwrap_err();
            assert!(err.contains(needle), "frame {frame:?}: {err}");
        }
    }

    #[test]
    fn handles_encode_and_parse_round_trip() {
        let fp = StructuralFingerprint {
            rows: 20_000,
            cols: 20_000,
            nnz: 250_000,
            digest: [0xdead_beef_cafe_f00d, 0x0123_4567_89ab_cdef],
        };
        let handle = WireHandle {
            fingerprint: fp,
            generation: 0x2a1_00007,
        };
        let encoded = handle.encode();
        assert!(encoded.starts_with("h1:"), "encoded: {encoded}");
        assert_eq!(WireHandle::parse(&encoded).unwrap(), handle);
        for bad in [
            "",
            "h1:",
            "h2:1:1:1:1:0:0",
            "h1:1:1:1:1:0",
            "h1:1:1:1:1:0:zz",
        ] {
            assert!(WireHandle::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parses_handle_requests() {
        let fp = StructuralFingerprint {
            rows: 4,
            cols: 3,
            nnz: 5,
            digest: [7, 9],
        };
        let handle = WireHandle {
            fingerprint: fp,
            generation: 1,
        };
        let frame = format!(
            "{{\"op\":\"spmv\",\"handle\":\"{}\",\"x\":[1,2,3]}}",
            handle.encode()
        );
        match parse_request(&frame).unwrap() {
            Request::Work(w) => {
                assert_eq!(w.op, WorkOp::Spmv);
                assert_eq!(w.source, MatrixSource::Handle(handle));
                assert_eq!(w.x.as_deref(), Some(&[1.0, 2.0, 3.0][..]));
            }
            other => panic!("expected Work, got {other:?}"),
        }
        // x length is validated against the handle's fingerprint cols.
        let short = format!(
            "{{\"op\":\"spmv\",\"handle\":\"{}\",\"x\":[1]}}",
            handle.encode()
        );
        assert!(parse_request(&short).unwrap_err().contains("3 columns"));
        // A handle and an inline matrix in one frame is ambiguous.
        let both = format!(
            "{{\"op\":\"spmv\",\"handle\":\"{}\",\"matrix\":{{\"rows\":1,\
             \"cols\":1,\"entries\":[[0,0,1]]}}}}",
            handle.encode()
        );
        assert!(parse_request(&both).unwrap_err().contains("both"));
        // Tuning needs the matrix itself; a handle identifies one that
        // was already tuned.
        let tune = format!("{{\"op\":\"tune\",\"handle\":\"{}\"}}", handle.encode());
        assert!(parse_request(&tune).unwrap_err().contains("inline"));
        assert!(parse_request("{\"op\":\"spmv\",\"handle\":\"junk\"}")
            .unwrap_err()
            .contains("handle"));
    }

    #[test]
    fn nnz_hint_must_match_entry_count() {
        let ok = parse_request(
            "{\"op\":\"tune\",\"matrix\":{\"rows\":2,\"cols\":2,\"nnz\":2,\
             \"entries\":[[0,0,1],[1,1,2]]}}",
        )
        .unwrap();
        match ok {
            Request::Work(w) => match &w.source {
                MatrixSource::Inline(m) => assert_eq!(m.nnz(), 2),
                other => panic!("expected inline matrix, got {other:?}"),
            },
            other => panic!("expected Work, got {other:?}"),
        }
        let err = parse_request(
            "{\"op\":\"tune\",\"matrix\":{\"rows\":2,\"cols\":2,\"nnz\":3,\
             \"entries\":[[0,0,1],[1,1,2]]}}",
        )
        .unwrap_err();
        assert!(err.contains("disagrees"), "err: {err}");
        let err = parse_request(
            "{\"op\":\"tune\",\"matrix\":{\"rows\":2,\"cols\":2,\"nnz\":-1,\
             \"entries\":[]}}",
        )
        .unwrap_err();
        assert!(err.contains("non-negative"), "err: {err}");
    }

    #[test]
    fn duplicate_entries_are_rejected_with_indices() {
        let err = parse_request(
            "{\"op\":\"tune\",\"matrix\":{\"rows\":2,\"cols\":2,\
             \"entries\":[[0,0,1],[1,1,2],[0,0,9]]}}",
        )
        .unwrap_err();
        assert!(
            err.contains("entries[2]") && err.contains("entries[0]"),
            "err: {err}"
        );
    }

    /// What reading an `entries` array left: the triplets (values by
    /// bits), the element count, `well_formed`, and what `finish` says
    /// of the text after it — where the reader stopped — or the syntax
    /// error that stopped the read.
    type PulledEntries = Result<(Vec<(usize, usize, u64)>, usize, bool, String), String>;

    fn pulled_entries(
        mut r: Reader<'_>,
        triplets: Vec<(usize, usize, f64)>,
        count: usize,
        well_formed: bool,
    ) -> PulledEntries {
        let bits = triplets.iter().map(|&(r, c, v)| (r, c, v.to_bits()));
        let rest = r.finish().err().map(|e| e.to_string()).unwrap_or_default();
        Ok((bits.collect(), count, well_formed, rest))
    }

    /// Enters `depth` arrays, so that `entries` sits that deep.
    fn reader_at_depth(text: &str, depth: usize) -> Reader<'_> {
        let mut r = Reader::new(text);
        for _ in 0..depth {
            assert!(r.begin_array().unwrap());
        }
        r
    }

    /// The loop `WireEntries::pull` ran before the reader took plain
    /// triplets itself: `pull_entry` on every element.
    fn element_walk(text: &str, depth: usize) -> PulledEntries {
        let mut r = reader_at_depth(text, depth);
        let syntax = |e: serde_json::Error| e.to_string();
        let (mut triplets, mut count, mut well_formed) = (Vec::new(), 0, true);
        let mut more = r.begin_array().map_err(syntax)?;
        while more {
            match pull_entry(&mut r).map_err(syntax)? {
                Ok(triplet) => {
                    well_formed &= triplet.2.is_finite();
                    triplets.push(triplet);
                }
                Err(_) => well_formed = false,
            }
            count += 1;
            more = r.array_continues().map_err(syntax)?;
        }
        pulled_entries(r, triplets, count, well_formed)
    }

    fn entries_loop(text: &str, depth: usize) -> PulledEntries {
        let mut r = reader_at_depth(text, depth);
        let entries = WireEntries::pull(&mut r, 0, &mut Pieces::default())
            .map_err(|e| e.to_string())?
            .expect("an array");
        let (triplets, count, well_formed) = (entries.triplets, entries.count, entries.well_formed);
        pulled_entries(r, triplets, count, well_formed)
    }

    /// The reader's plain-triplet loop and `pull_entry` on whatever it
    /// declines read every array as `pull_entry` alone did: the same
    /// triplets, count, verdict, stopping point and syntax errors.
    #[test]
    fn entries_loop_is_the_element_walk() {
        const CLEAN: &[&str] = &[
            "[3,14,0.5]",
            "[0,0,1.0]",
            "[12,7,-2.5e-3]",
            "[123456789012345678,999999999999999999,0.30000000000000004]",
            "[5,5,-0]",
            "[5,6,7]",
            "[007,00,1.]",
            "[1,2,12345678901234567890123]",
            "[2,3,1e-400]",
        ];
        const DECLINED: &[&str] = &[
            // Whitespace inside the brackets.
            "[ 1 , 2 , 3.5 ]",
            "[1,2,3 ]",
            "[\n1,\t2,\r3]",
            // Coordinates that are numbers but not plain integers.
            "[1.0,2,3]",
            "[1,1e0,3]",
            "[1E0,2,3]",
            "[-0,1,2]",
            "[1,-0,2]",
            "[-1,0,1]",
            "[0.5,0,1]",
            // 19- and 20-digit coordinates.
            "[1234567890123456789,0,1]",
            "[0,9999999999999999999,1]",
            "[12345678901234567890,0,1]",
            "[0,99999999999999999999,1]",
            // Values that are no number, and coordinates that are none.
            "[0,0,\"1\"]",
            "[0,0,true]",
            "[0,0,false]",
            "[0,0,null]",
            "[0,0,[1]]",
            "[0,0,{\"v\":1}]",
            "[\"0\",0,1]",
            "[0,null,1]",
            "[[0],0,1]",
            // Too short, too long, empty, not finite, not an array.
            "[0,0]",
            "[0,0,1,2]",
            "[]",
            "[0,0,1e999]",
            "[0,0,-1e999]",
            "5",
            "null",
            "{}",
            "\"[0,0,1]\"",
        ];
        const BROKEN: &[&str] = &[
            "[0,0,1e]",
            "[0,0,-]",
            "[0 0 1]",
            "[0,0,1,]",
            "[0,0,1",
            "[1,tru,0]",
            "[0,0,1]]",
            "[0,,1]",
        ];
        let mut state = 0x3E_u64;
        let mut below = |n: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % n
        };
        let mut texts = vec![
            "[]".to_string(),
            " [ ] ".to_string(),
            format!("[{}]", CLEAN.join(",")),
            format!("[{}]", DECLINED.join(",")),
        ];
        for _ in 0..3_000 {
            let mut text = String::from(["[", "[ ", " [\n"][below(3)]);
            for i in 0..below(9) {
                if i > 0 {
                    text.push_str([",", ",", ", ", " ,"][below(4)]);
                }
                text.push_str(match below(3) {
                    0 => DECLINED[below(DECLINED.len())],
                    _ => CLEAN[below(CLEAN.len())],
                });
            }
            if below(8) == 0 {
                text.push_str(if text.ends_with(']') { "," } else { "" });
                text.push_str(BROKEN[below(BROKEN.len())]);
            }
            text.push_str(["]", " ]", "]@", "]"][below(4)]);
            texts.push(text);
        }
        for text in &texts {
            assert_eq!(entries_loop(text, 0), element_walk(text, 0), "{text}");
        }
        // At the reader's depth limit an element's brackets are refused.
        let deep = "[".repeat(127) + "[[0,0,1]]";
        assert!(element_walk(&deep, 127).is_err());
        assert_eq!(entries_loop(&deep, 127), element_walk(&deep, 127));
    }

    #[test]
    fn handle_miss_responses_carry_the_fingerprint() {
        let handle = WireHandle {
            fingerprint: StructuralFingerprint {
                rows: 8,
                cols: 8,
                nnz: 16,
                digest: [1, 2],
            },
            generation: 42,
        };
        let line = Response::handle_miss(&handle, "unknown or evicted handle").to_line();
        assert!(line.contains("\"handle_miss\""), "line: {line}");
        assert!(line.contains(&handle.encode()), "line: {line}");
        assert!(line.contains("\"nnz\":16"), "line: {line}");
    }

    #[test]
    fn responses_serialize_with_status_first() {
        let shed = Response::shed(Duration::from_millis(120), "queue full");
        assert_eq!(shed.status, Status::Shed);
        let line = shed.to_line();
        assert!(line.starts_with("{\"status\":\"shed\""), "line: {line}");
        assert!(line.contains("\"retry_after_ms\":120"), "line: {line}");
        let err = Response::error("nope").to_line();
        assert!(err.contains("\"message\":\"nope\""), "line: {err}");
        let dl = Response::deadline_miss("queued").to_line();
        assert!(dl.contains("\"deadline_miss\""), "line: {dl}");
    }

    #[test]
    fn response_lines_round_trip_through_the_parser() {
        let resp = Response::with(
            Status::Ok,
            vec![("y", Value::Array(vec![Value::Float(1.5)]))],
        );
        let parsed = serde_json::parse(&resp.to_line()).unwrap();
        let fields = parsed.as_object().unwrap();
        assert_eq!(get(fields, "status"), Some(&Value::Str("ok".to_string())));
    }
}
