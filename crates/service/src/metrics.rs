//! Service-level counters, complementary to the engine's own
//! [`smat::HealthReport`] / [`smat::CacheStats`].
//!
//! Every counter is a relaxed atomic: the service only ever reads them
//! for monitoring, never for control flow that needs cross-counter
//! consistency. The one invariant the suite pins is *quiesced*
//! consistency: once no request is in flight,
//! `requests_total == requests_ok + requests_degraded + requests_shed +
//! deadline_misses + requests_handle_miss + requests_error` — every
//! admitted request is answered exactly once, by exactly one outcome.
//! To keep that
//! bookkeeping single-writer, outcome counters are incremented at
//! response-write time, by the connection thread that served the
//! request.
//!
//! Beside the counters, every admitted work request leaves the time it
//! spent in each stage of the connection thread (read, parse, work,
//! encode, write) in a per-stage histogram — where a round trip's time
//! goes, answered by the daemon itself.

use crate::proto::obj;
use serde::Value;
use smat::{CacheStats, HandleStats, HealthReport};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// The stretches of the connection thread's time an admitted work
/// request passes through, in order. They do not overlap, so their sums
/// add up to no more than the round trips the clients saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// First byte of the frame in the buffer to its newline found.
    Read,
    /// UTF-8 check and `parse_request`.
    Parse,
    /// Admission, then the registry lookup or the gate and `prepare`,
    /// then the product.
    Work,
    /// Formatting the reply line.
    Encode,
    /// Writing it to the socket.
    Write,
}

impl Stage {
    /// Every stage, in request order.
    const ALL: [Stage; 5] = [
        Stage::Read,
        Stage::Parse,
        Stage::Work,
        Stage::Encode,
        Stage::Write,
    ];

    /// The key under `stages` in the metrics document.
    fn name(self) -> &'static str {
        match self {
            Stage::Read => "read",
            Stage::Parse => "parse",
            Stage::Work => "work",
            Stage::Encode => "encode",
            Stage::Write => "write",
        }
    }
}

/// The three inner edges of an octave, `2^(j/4)` for `j = 1, 2, 3`,
/// times 2^63: a duration shifted so that its top bit is bit 63 is
/// compared with them to find its sub-bucket.
const SUB_EDGES: [u64; 3] = [
    0x9837_F051_8DB8_A96F,
    0xB504_F333_F9DE_6484,
    0xD744_FCCA_D69D_6AF4,
];

/// Sub-buckets per octave of a [`StageHistogram`]: each bucket spans a
/// ratio of 2^(1/4), under 19%, so an interpolated quantile is never
/// further than that from the durations it stands for.
const SUB_BUCKETS: u32 = SUB_EDGES.len() as u32 + 1;

/// Buckets of a [`StageHistogram`]: bucket `b > 0` counts durations in
/// `[2^((b-1)/4), 2^(b/4))` ns, bucket 0 counts zero, and the last takes
/// everything from 2^38 ns (about 4.6 minutes) up.
const STAGE_BUCKETS: usize = 38 * SUB_BUCKETS as usize + 2;

/// Durations of one stage, in quarter-octave nanosecond buckets of
/// relaxed atomics: recording allocates nothing and takes no lock.
#[derive(Debug)]
struct StageHistogram {
    buckets: [AtomicU64; STAGE_BUCKETS],
    sum_ns: AtomicU64,
}

impl Default for StageHistogram {
    fn default() -> Self {
        StageHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl StageHistogram {
    /// The bucket of a duration of `ns` nanoseconds.
    fn bucket(ns: u64) -> usize {
        if ns == 0 {
            return 0;
        }
        let octave = u64::BITS - 1 - ns.leading_zeros();
        let top = ns << ns.leading_zeros();
        let sub = SUB_EDGES.iter().filter(|&&edge| top >= edge).count() as u32;
        ((octave * SUB_BUCKETS + sub + 1) as usize).min(STAGE_BUCKETS - 1)
    }

    /// `[low, high)` edges of bucket `b`, in ns.
    fn edges(b: usize) -> (f64, f64) {
        let edge = |k: usize| (k as f64 / f64::from(SUB_BUCKETS)).exp2();
        match b {
            0 => (0.0, 0.0),
            b => (edge(b - 1), edge(b)),
        }
    }

    fn observe(&self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[Self::bucket(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// `{"count", "sum_us", "p50_us", "p90_us", "p99_us"}`; a quantile
    /// is interpolated linearly inside the bucket its rank falls in.
    fn to_value(&self) -> Value {
        let counts: [u64; STAGE_BUCKETS] =
            std::array::from_fn(|b| self.buckets[b].load(Ordering::Relaxed));
        let count: u64 = counts.iter().sum();
        let quantile_us = |q: f64| {
            let rank = q * count as f64;
            let mut below = 0.0;
            for (b, &n) in counts.iter().enumerate().filter(|(_, &n)| n > 0) {
                let n = n as f64;
                if below + n >= rank {
                    let (low, high) = Self::edges(b);
                    return (low + (high - low) * (rank - below) / n) / 1e3;
                }
                below += n;
            }
            0.0
        };
        obj(vec![
            ("count", Value::UInt(count)),
            (
                "sum_us",
                Value::Float(self.sum_ns.load(Ordering::Relaxed) as f64 / 1e3),
            ),
            ("p50_us", Value::Float(quantile_us(0.5))),
            ("p90_us", Value::Float(quantile_us(0.9))),
            ("p99_us", Value::Float(quantile_us(0.99))),
        ])
    }
}

/// Shared counter block for one running server.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Connections accepted by the listener.
    pub accepted_connections: AtomicU64,
    /// Connections currently open (gauge).
    pub open_connections: AtomicU64,
    /// Accept-time faults (listener errors, injected `service.accept`).
    pub accept_faults: AtomicU64,
    /// Complete frames that parsed into a known request.
    pub frames_valid: AtomicU64,
    /// Complete frames that were not valid JSON / not a known request.
    pub frames_invalid: AtomicU64,
    /// Connections closed for exceeding the frame size cap.
    pub oversized_frames: AtomicU64,
    /// Connections that disconnected with a partial frame pending.
    pub torn_frames: AtomicU64,
    /// Connections closed for dribbling a frame slower than the frame
    /// timeout (slow-loris defense).
    pub slow_loris_closes: AtomicU64,
    /// Responses that could not be written back (client went away).
    pub respond_faults: AtomicU64,
    /// tune/spmv requests admitted into the ladder.
    pub requests_total: AtomicU64,
    /// Requests answered with a tuned result.
    pub requests_ok: AtomicU64,
    /// Requests answered through the reference (degraded) path.
    pub requests_degraded: AtomicU64,
    /// Requests shed with a retry-after (tenant budget, full queue, or
    /// drain).
    pub requests_shed: AtomicU64,
    /// Requests answered with a deadline miss.
    pub deadline_misses: AtomicU64,
    /// Handle requests answered `handle_miss` (unknown, evicted, or
    /// stale-generation handle).
    pub requests_handle_miss: AtomicU64,
    /// Requests answered with an error (bad matrix, worker fault).
    pub requests_error: AtomicU64,
    /// Inline wire matrices parsed and assembled (triplet path). The
    /// warm handle path never increments this — the zero-matrix-work
    /// audit pins that.
    pub wire_matrix_parses: AtomicU64,
    /// Wire arrays — a request's `x` or `entries`, a reply's `y` — read
    /// or written in more than one piece on the kernel pool.
    pub split_arrays: AtomicU64,
    /// Shed subtotal: tenant token bucket empty.
    pub shed_tenant: AtomicU64,
    /// Shed subtotal: admission queue full.
    pub shed_queue_full: AtomicU64,
    /// Shed subtotal: server draining.
    pub shed_draining: AtomicU64,
    /// Longest line at the admission gate, as seen by a request
    /// joining it.
    pub queue_high_watermark: AtomicU64,
    /// Whether the server is refusing new work and draining.
    pub draining: AtomicBool,
    /// Per-stage durations of admitted work requests, by
    /// [`Stage::ALL`] order.
    stages: [StageHistogram; Stage::ALL.len()],
}

impl ServiceMetrics {
    /// Relaxed increment; every counter here is monitoring-only.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Relaxed add.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Relaxed read.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Raises `queue_high_watermark` to at least `depth`.
    pub fn observe_queue_depth(&self, depth: u64) {
        self.queue_high_watermark
            .fetch_max(depth, Ordering::Relaxed);
    }

    /// Records that one request spent `elapsed` in `stage`.
    pub(crate) fn observe_stage(&self, stage: Stage, elapsed: Duration) {
        self.stages[stage as usize].observe(elapsed);
    }

    /// The `stages` object of the metrics document: one entry per
    /// [`Stage`], each `{"count", "sum_us", "p50_us", "p90_us",
    /// "p99_us"}`.
    pub(crate) fn stages_value(&self) -> Value {
        obj(Stage::ALL
            .iter()
            .map(|&stage| (stage.name(), self.stages[stage as usize].to_value()))
            .collect())
    }

    /// Sum of the six outcome counters; equals `requests_total` once
    /// the server is quiesced.
    pub fn outcomes_total(&self) -> u64 {
        Self::get(&self.requests_ok)
            + Self::get(&self.requests_degraded)
            + Self::get(&self.requests_shed)
            + Self::get(&self.deadline_misses)
            + Self::get(&self.requests_handle_miss)
            + Self::get(&self.requests_error)
    }
}

/// The entry of the `shards` array in the `metrics` document and in
/// `smat health --json`: one engine's decision-cache counters (their
/// one home — the health report does not copy them), quarantined
/// variant names and handle-registry counters.
/// The array has exactly one entry — the daemon runs one engine — and
/// stays an array because monitoring gates index it.
pub fn shard_entry(cache: &CacheStats, health: &HealthReport, handles: &HandleStats) -> Value {
    let quarantined = health.quarantined_variants.iter();
    obj(vec![
        ("index", Value::UInt(0)),
        (
            "cache",
            obj(vec![
                ("hits", Value::UInt(cache.hits)),
                ("misses", Value::UInt(cache.misses)),
                ("entries", Value::UInt(cache.entries as u64)),
                ("capacity", Value::UInt(cache.capacity as u64)),
                ("corrupt_evictions", Value::UInt(cache.corrupt_evictions)),
                ("poison_recoveries", Value::UInt(cache.poison_recoveries)),
                ("coalesced_waits", Value::UInt(cache.coalesced_waits)),
            ]),
        ),
        (
            "quarantined",
            Value::Array(quarantined.map(|q| Value::Str(q.name.clone())).collect()),
        ),
        ("handle_hits", Value::UInt(handles.hits)),
        ("handle_misses", Value::UInt(handles.misses)),
        ("handle_evictions", Value::UInt(handles.evictions)),
        ("handle_entries", Value::UInt(handles.entries as u64)),
        (
            "handle_resident_bytes",
            Value::UInt(handles.resident_bytes as u64),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_sum_counts_each_class_once() {
        let m = ServiceMetrics::default();
        ServiceMetrics::inc(&m.requests_ok);
        ServiceMetrics::inc(&m.requests_degraded);
        ServiceMetrics::inc(&m.requests_shed);
        ServiceMetrics::inc(&m.deadline_misses);
        ServiceMetrics::inc(&m.requests_handle_miss);
        ServiceMetrics::inc(&m.requests_error);
        assert_eq!(m.outcomes_total(), 6);
    }

    #[test]
    fn stage_histograms_count_sum_and_rank() {
        let m = ServiceMetrics::default();
        // 90 fast requests and 10 slow ones: the median sits in the
        // fast bucket, p99 in the slow one, and a bucket's edges bound
        // what is reported for it.
        for _ in 0..90 {
            m.observe_stage(Stage::Parse, Duration::from_nanos(3_000));
        }
        for _ in 0..10 {
            m.observe_stage(Stage::Parse, Duration::from_micros(900));
        }
        m.observe_stage(Stage::Write, Duration::ZERO);
        let stages = m.stages_value();
        let stage = |name: &str| {
            let fields = stages.as_object().expect("stages is an object");
            let (_, v) = fields.iter().find(|(k, _)| k == name).expect("stage");
            let number = |key: &str| {
                let fields = v.as_object().expect("stage is an object");
                match fields.iter().find(|(k, _)| k == key).expect("key").1 {
                    Value::UInt(u) => u as f64,
                    Value::Float(f) => f,
                    ref other => panic!("{key} is {other:?}"),
                }
            };
            ["count", "sum_us", "p50_us", "p90_us", "p99_us"].map(number)
        };
        let [count, sum, p50, p90, p99] = stage("parse");
        assert_eq!(count, 100.0);
        assert_eq!(sum, 90.0 * 3.0 + 10.0 * 900.0);
        // 3 µs falls in [2^11.5, 2^11.75) ns, 900 µs in [2^19.75, 2^20):
        // a quantile is within 19% of the durations it stands for.
        assert!((2.896..=3.445).contains(&p50), "p50 {p50}");
        assert!((2.896..=3.445).contains(&p90), "p90 {p90}");
        assert!((881.743..=1048.576).contains(&p99), "p99 {p99}");
        for (quantile, truth) in [(p50, 3.0), (p90, 3.0), (p99, 900.0)] {
            assert!(
                (quantile / truth - 1.0).abs() < 0.19,
                "{quantile} for {truth}"
            );
        }
        assert_eq!(stage("write"), [1.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(stage("work"), [0.0; 5]);
        let names: Vec<&str> = stages
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, ["read", "parse", "work", "encode", "write"]);
    }

    #[test]
    fn every_duration_lies_between_its_buckets_edges() {
        for (j, &edge) in SUB_EDGES.iter().enumerate() {
            let want = ((j + 1) as f64 / 4.0).exp2();
            assert!((edge as f64 / (1u64 << 63) as f64 - want).abs() < 1e-15);
        }
        assert_eq!(StageHistogram::bucket(0), 0);
        let mut ns = 2u64;
        while ns < 1 << 38 {
            for d in [ns - 1, ns, ns + 1, ns + ns / 7, ns + ns / 3, ns + ns / 2] {
                let b = StageHistogram::bucket(d);
                let (low, high) = StageHistogram::edges(b);
                // The float edges are the integer ones to within rounding.
                assert!(
                    low <= d as f64 + 1e-6 * low && (d as f64) < high * (1.0 + 1e-12),
                    "{d} in bucket {b}"
                );
                assert!(b == 0 || high / low < 1.19, "bucket {b}");
            }
            ns *= 2;
        }
        assert_eq!(StageHistogram::bucket(u64::MAX), STAGE_BUCKETS - 1);
        assert_eq!(StageHistogram::bucket(1 << 38), STAGE_BUCKETS - 1);
        assert_eq!(StageHistogram::bucket((1 << 38) - 1), STAGE_BUCKETS - 2);
    }

    #[test]
    fn watermark_is_monotone() {
        let m = ServiceMetrics::default();
        m.observe_queue_depth(3);
        m.observe_queue_depth(1);
        assert_eq!(ServiceMetrics::get(&m.queue_high_watermark), 3);
        m.observe_queue_depth(7);
        assert_eq!(ServiceMetrics::get(&m.queue_high_watermark), 7);
    }
}
