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
//! response-write time in the connection thread, never in workers.

use crate::proto::obj;
use serde::Value;
use smat::{CacheStats, HandleStats, HealthReport};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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
    /// Shed subtotal: tenant token bucket empty.
    pub shed_tenant: AtomicU64,
    /// Shed subtotal: admission queue full.
    pub shed_queue_full: AtomicU64,
    /// Shed subtotal: server draining.
    pub shed_draining: AtomicU64,
    /// Highest queue depth observed at any enqueue.
    pub queue_high_watermark: AtomicU64,
    /// Whether the server is refusing new work and draining.
    pub draining: AtomicBool,
}

impl ServiceMetrics {
    /// Relaxed increment; every counter here is monitoring-only.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
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
/// `smat health --json`: one engine's decision-cache counters,
/// quarantined variant names, pool state and handle-registry counters.
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
        ("pool_demoted", Value::Bool(health.pool_demoted)),
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
    fn watermark_is_monotone() {
        let m = ServiceMetrics::default();
        m.observe_queue_depth(3);
        m.observe_queue_depth(1);
        assert_eq!(ServiceMetrics::get(&m.queue_high_watermark), 3);
        m.observe_queue_depth(7);
        assert_eq!(ServiceMetrics::get(&m.queue_high_watermark), 7);
    }
}
