//! Runtime health: execution-time fault containment state.
//!
//! PRs 2–3 contained faults at *tuning* time; this module contains them
//! at *serving* time. It tracks two cooperating mechanisms:
//!
//! 1. **Incident log** — every contained execution fault (a kernel
//!    panic caught by [`crate::Smat::spmv`]'s containment boundary, or
//!    a non-finite product flagged by output screening) is recorded as
//!    an [`ExecIncident`] in a bounded ring.
//! 2. **Per-variant circuit breakers** — a `Closed → Open → HalfOpen`
//!    state machine keyed by [`KernelId`]. After
//!    [`crate::SmatConfig::breaker_threshold`] incidents a variant is
//!    *quarantined*: excluded from candidate sets like a
//!    `CandidateFailed` scoreboard row, its cached decisions evicted on
//!    hit. A call-counted exponential backoff paces the half-open
//!    re-probe that can readmit it.
//!
//! A faulted pool dispatch needs nothing here: `smat_pool` runs the
//! job inline and the call's result is already correct.
//!
//! The happy path is lock-free and allocation-free: one relaxed
//! counter increment per call plus one load of the attention gate.
//! Breaker locks are only touched while at least one breaker is away
//! from `Closed` (or while recording a fault, which is never the happy
//! path).

use serde::{Deserialize, Serialize};
use smat_kernels::KernelId;
use smat_matrix::StructuralFingerprint;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Upper bound on the call-counted re-probe backoff, so a chronically
/// bad variant is still re-examined within a bounded horizon.
const MAX_BACKOFF_CALLS: u64 = 65_536;

/// How many contained incidents the report retains (oldest dropped).
const INCIDENT_RING: usize = 32;

/// What kind of execution fault was contained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The kernel panicked mid-call; the unwind was caught at the
    /// containment boundary.
    Panic,
    /// Output screening found a non-finite product from finite inputs.
    NonFinite,
}

/// One contained execution fault: which kernel, on which structure,
/// what happened.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecIncident {
    /// The kernel variant that faulted.
    pub kernel: KernelId,
    /// Structural fingerprint of the matrix being multiplied.
    pub fingerprint: StructuralFingerprint,
    /// Fault classification.
    pub kind: FaultKind,
    /// The panic payload (or a description of the screened output).
    pub payload: String,
}

/// Circuit-breaker state of one kernel variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Healthy: the variant runs normally.
    Closed,
    /// Quarantined: every call falls back to the reference path until
    /// the call-counted backoff elapses.
    Open,
    /// One guarded re-probe is in flight; concurrent calls still fall
    /// back.
    HalfOpen,
}

/// A quarantined (or probing) variant as surfaced by
/// [`HealthReport::quarantined_variants`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantinedVariant {
    /// The benched kernel.
    pub kernel: KernelId,
    /// Registry name of the variant (empty if unknown to this build).
    pub name: String,
    /// Current breaker state (never `Closed` in a report).
    pub state: BreakerState,
    /// Contained incidents attributed to the variant.
    pub incidents: u32,
    /// Engine call count at which the breaker half-opens for a
    /// re-probe.
    pub reopen_at: u64,
}

/// Everything the runtime knows about its own execution health, in one
/// serializable snapshot — the payload of `smat health --json`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Total engine calls served (`spmv` + `spmm`).
    pub calls: u64,
    /// Single-RHS (`spmv`) calls served.
    pub spmv_calls: u64,
    /// Multi-RHS (`spmm`) calls served.
    pub spmm_calls: u64,
    /// Contained execution faults (panics + screened products).
    pub exec_faults: u64,
    /// Breakers tripped `Closed → Open`.
    pub breaker_trips: u64,
    /// Variants currently away from `Closed`.
    pub quarantined_variants: Vec<QuarantinedVariant>,
    /// Half-open variant re-probes that readmitted.
    pub reprobe_successes: u64,
    /// Half-open variant re-probes that faulted again.
    pub reprobe_failures: u64,
    /// Cached decisions evicted because their kernel was quarantined.
    pub quarantine_evictions: u64,
    /// `prepare` calls that returned a degraded (reference-path)
    /// decision.
    pub degraded_prepares: u64,
    /// The most recent contained incidents (bounded ring, oldest
    /// first).
    pub recent_incidents: Vec<ExecIncident>,
    /// Mirror of [`crate::CacheStats::coalesced_waits`].
    pub coalesced_waits: u64,
    /// Mirror of [`crate::CacheStats::poison_recoveries`].
    pub poison_recoveries: u64,
    /// Mirror of [`crate::CacheStats::corrupt_evictions`].
    pub corrupt_evictions: u64,
    /// Mirror of [`crate::CacheStats::hits`].
    pub cache_hits: u64,
    /// Mirror of [`crate::CacheStats::misses`].
    pub cache_misses: u64,
}

/// What the breaker lets one call do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Breaker closed (or absent): run the tuned kernel.
    Run,
    /// This call claimed the half-open re-probe: run the tuned kernel
    /// under guard; the outcome decides readmission.
    Probe,
    /// Quarantined: serve the reference path, record nothing.
    Fallback,
}

/// Per-variant breaker bookkeeping (behind the registry mutex).
#[derive(Debug, Clone, Copy)]
struct Breaker {
    state: BreakerState,
    incidents: u32,
    backoff: u64,
    reopen_at: u64,
}

/// The engine's mutable health state. Interior-mutable and `Sync`:
/// counters are relaxed atomics, the breaker registry and incident
/// ring are mutexes touched only off the happy path.
#[derive(Debug)]
pub(crate) struct HealthState {
    /// Monotonic engine call clock (`spmv` + `spmm`); backoffs count in
    /// its units.
    calls: AtomicU64,
    /// Single-RHS calls, for the op-labeled metrics surface.
    spmv_calls: AtomicU64,
    /// Multi-RHS calls, for the op-labeled metrics surface.
    spmm_calls: AtomicU64,
    /// Number of breakers away from `Closed` — the happy-path gate:
    /// zero means no admission check (and no lock) is needed.
    attention: AtomicUsize,
    breakers: Mutex<HashMap<KernelId, Breaker>>,
    incidents: Mutex<Vec<ExecIncident>>,
    exec_faults: AtomicU64,
    breaker_trips: AtomicU64,
    reprobe_successes: AtomicU64,
    reprobe_failures: AtomicU64,
    quarantine_evictions: AtomicU64,
    degraded_prepares: AtomicU64,
    threshold: u32,
    backoff0: u64,
}

impl HealthState {
    pub(crate) fn new(threshold: u32, backoff_calls: u64) -> Self {
        Self {
            calls: AtomicU64::new(0),
            spmv_calls: AtomicU64::new(0),
            spmm_calls: AtomicU64::new(0),
            attention: AtomicUsize::new(0),
            breakers: Mutex::new(HashMap::new()),
            incidents: Mutex::new(Vec::new()),
            exec_faults: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
            reprobe_successes: AtomicU64::new(0),
            reprobe_failures: AtomicU64::new(0),
            quarantine_evictions: AtomicU64::new(0),
            degraded_prepares: AtomicU64::new(0),
            threshold: threshold.max(1),
            backoff0: backoff_calls.max(1),
        }
    }

    /// Advances the call clock for one call of `op`; returns the
    /// current call number.
    pub(crate) fn tick(&self, op: smat_kernels::Op) -> u64 {
        match op {
            smat_kernels::Op::Spmv => self.spmv_calls.fetch_add(1, Ordering::Relaxed),
            smat_kernels::Op::Spmm => self.spmm_calls.fetch_add(1, Ordering::Relaxed),
        };
        self.calls.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// `true` while any breaker is away from `Closed`. The happy path
    /// checks this single atomic and skips every lock when it is
    /// `false`.
    pub(crate) fn needs_attention(&self) -> bool {
        self.attention.load(Ordering::Relaxed) != 0
    }

    /// A fresh breaker: closed, no incidents, the configured backoff.
    fn closed_breaker(&self) -> Breaker {
        Breaker {
            state: BreakerState::Closed,
            incidents: 0,
            backoff: self.backoff0,
            reopen_at: 0,
        }
    }

    fn lock_breakers(&self) -> std::sync::MutexGuard<'_, HashMap<KernelId, Breaker>> {
        self.breakers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Breaker admission for one call of `kernel` at clock `call`.
    pub(crate) fn admit(&self, kernel: KernelId, call: u64) -> Admission {
        if !self.needs_attention() {
            return Admission::Run;
        }
        let mut breakers = self.lock_breakers();
        match breakers.get_mut(&kernel) {
            None => Admission::Run,
            Some(b) => match b.state {
                BreakerState::Closed => Admission::Run,
                BreakerState::HalfOpen => Admission::Fallback,
                BreakerState::Open => {
                    if call >= b.reopen_at {
                        b.state = BreakerState::HalfOpen;
                        Admission::Probe
                    } else {
                        Admission::Fallback
                    }
                }
            },
        }
    }

    /// Whether `kernel` is currently quarantined (breaker away from
    /// `Closed`). Used by `prepare` to evict cached decisions and by
    /// kernel selection to substitute the reference variant.
    pub(crate) fn quarantined(&self, kernel: KernelId) -> bool {
        if !self.needs_attention() {
            return false;
        }
        self.lock_breakers()
            .get(&kernel)
            .is_some_and(|b| b.state != BreakerState::Closed)
    }

    /// Every variant currently away from `Closed` (the persisted
    /// quarantine set).
    pub(crate) fn quarantined_kernels(&self) -> Vec<KernelId> {
        if !self.needs_attention() {
            return Vec::new();
        }
        let mut list: Vec<KernelId> = self
            .lock_breakers()
            .iter()
            .filter(|(_, b)| b.state != BreakerState::Closed)
            .map(|(k, _)| *k)
            .collect();
        list.sort_by_key(|k| (k.format.index(), k.variant));
        list
    }

    /// Records a contained execution fault. `probing` marks a fault
    /// observed during a half-open re-probe. Returns `true` when the
    /// quarantine set changed (a breaker newly tripped or re-opened),
    /// so the caller can re-persist the install artifact.
    pub(crate) fn on_fault(&self, incident: ExecIncident, probing: bool, call: u64) -> bool {
        self.exec_faults.fetch_add(1, Ordering::Relaxed);
        let kernel = incident.kernel;
        {
            let mut ring = self
                .incidents
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if ring.len() >= INCIDENT_RING {
                ring.remove(0);
            }
            ring.push(incident);
        }
        let mut breakers = self.lock_breakers();
        let b = breakers.entry(kernel).or_insert(self.closed_breaker());
        b.incidents = b.incidents.saturating_add(1);
        if probing || b.state == BreakerState::HalfOpen {
            // A failed re-probe re-opens with doubled (capped) backoff.
            b.state = BreakerState::Open;
            b.backoff = (b.backoff.saturating_mul(2)).min(MAX_BACKOFF_CALLS);
            b.reopen_at = call + b.backoff;
            self.reprobe_failures.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        if b.state == BreakerState::Closed && b.incidents >= self.threshold {
            b.state = BreakerState::Open;
            b.backoff = self.backoff0;
            b.reopen_at = call + b.backoff;
            self.attention.fetch_add(1, Ordering::Relaxed);
            self.breaker_trips.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// A half-open re-probe completed cleanly: close the breaker and
    /// readmit the variant.
    pub(crate) fn on_probe_success(&self, kernel: KernelId) {
        let mut breakers = self.lock_breakers();
        if let Some(b) = breakers.get_mut(&kernel) {
            if b.state != BreakerState::Closed {
                b.state = BreakerState::Closed;
                b.incidents = 0;
                b.backoff = self.backoff0;
                self.attention.fetch_sub(1, Ordering::Relaxed);
            }
        }
        self.reprobe_successes.fetch_add(1, Ordering::Relaxed);
    }

    /// Seeds open breakers from a persisted quarantine set (install
    /// artifact adoption). Each seeded variant half-opens after one
    /// initial backoff window of this process's call clock.
    pub(crate) fn seed_quarantine(&self, kernels: &[KernelId]) {
        if kernels.is_empty() {
            return;
        }
        let mut breakers = self.lock_breakers();
        for &kernel in kernels {
            let entry = breakers.entry(kernel).or_insert(self.closed_breaker());
            if entry.state == BreakerState::Closed {
                entry.state = BreakerState::Open;
                entry.incidents = self.threshold;
                entry.backoff = self.backoff0;
                entry.reopen_at = self.backoff0;
                self.attention.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Counts a cached decision evicted because its kernel was
    /// quarantined.
    pub(crate) fn note_quarantine_eviction(&self) {
        self.quarantine_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a `prepare` call that returned a degraded decision.
    pub(crate) fn note_degraded_prepare(&self) {
        self.degraded_prepares.fetch_add(1, Ordering::Relaxed);
    }

    /// Assembles the serializable snapshot. `name_of` resolves a
    /// [`KernelId`] to its registry name for the report.
    pub(crate) fn report(&self, name_of: impl Fn(KernelId) -> String) -> HealthReport {
        let quarantined_variants: Vec<QuarantinedVariant> = {
            let breakers = self.lock_breakers();
            let mut list: Vec<QuarantinedVariant> = breakers
                .iter()
                .filter(|(_, b)| b.state != BreakerState::Closed)
                .map(|(&kernel, b)| QuarantinedVariant {
                    kernel,
                    name: name_of(kernel),
                    state: b.state,
                    incidents: b.incidents,
                    reopen_at: b.reopen_at,
                })
                .collect();
            list.sort_by_key(|q| (q.kernel.format.index(), q.kernel.variant));
            list
        };
        let recent_incidents = self
            .incidents
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        HealthReport {
            calls: self.calls.load(Ordering::Relaxed),
            spmv_calls: self.spmv_calls.load(Ordering::Relaxed),
            spmm_calls: self.spmm_calls.load(Ordering::Relaxed),
            exec_faults: self.exec_faults.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            quarantined_variants,
            reprobe_successes: self.reprobe_successes.load(Ordering::Relaxed),
            reprobe_failures: self.reprobe_failures.load(Ordering::Relaxed),
            quarantine_evictions: self.quarantine_evictions.load(Ordering::Relaxed),
            degraded_prepares: self.degraded_prepares.load(Ordering::Relaxed),
            recent_incidents,
            // The tuning-cache counters are the engine's to mirror in
            // (`Smat::health_report`).
            ..HealthReport::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_matrix::Format;

    fn kid(variant: usize) -> KernelId {
        KernelId {
            op: smat_kernels::Op::Spmv,
            format: Format::Csr,
            variant,
        }
    }

    fn incident(variant: usize) -> ExecIncident {
        ExecIncident {
            kernel: kid(variant),
            fingerprint: StructuralFingerprint::of_pattern(1, 1, &[0, 1], &[0]),
            kind: FaultKind::Panic,
            payload: "boom".into(),
        }
    }

    #[test]
    fn breaker_trips_after_threshold_and_backs_off() {
        let h = HealthState::new(3, 8);
        assert!(!h.needs_attention());
        assert!(!h.on_fault(incident(1), false, 1));
        assert!(!h.on_fault(incident(1), false, 2));
        // Third incident trips the breaker.
        assert!(h.on_fault(incident(1), false, 3));
        assert!(h.needs_attention());
        assert!(h.quarantined(kid(1)));
        assert_eq!(h.quarantined_kernels(), vec![kid(1)]);
        // Inside the backoff window: fallback. A different variant is
        // unaffected.
        assert_eq!(h.admit(kid(1), 5), Admission::Fallback);
        assert_eq!(h.admit(kid(2), 5), Admission::Run);
        // Past the window: exactly one call claims the probe; a racing
        // call still falls back.
        assert_eq!(h.admit(kid(1), 11), Admission::Probe);
        assert_eq!(h.admit(kid(1), 11), Admission::Fallback);
        // Failed probe doubles the backoff.
        assert!(h.on_fault(incident(1), true, 12));
        assert_eq!(h.admit(kid(1), 12 + 15), Admission::Fallback);
        assert_eq!(h.admit(kid(1), 12 + 16), Admission::Probe);
        // Successful probe closes and readmits.
        h.on_probe_success(kid(1));
        assert!(!h.quarantined(kid(1)));
        assert!(!h.needs_attention());
        assert_eq!(h.admit(kid(1), 100), Admission::Run);
        let r = h.report(|_| String::new());
        assert_eq!(r.exec_faults, 4);
        assert_eq!(r.breaker_trips, 1);
        assert_eq!(r.reprobe_failures, 1);
        assert_eq!(r.reprobe_successes, 1);
        assert!(r.quarantined_variants.is_empty());
    }

    #[test]
    fn seeded_quarantine_behaves_like_a_tripped_breaker() {
        let h = HealthState::new(3, 4);
        h.seed_quarantine(&[kid(2)]);
        assert!(h.quarantined(kid(2)));
        assert_eq!(h.admit(kid(2), 1), Admission::Fallback);
        assert_eq!(h.admit(kid(2), 4), Admission::Probe);
        h.on_probe_success(kid(2));
        assert!(!h.quarantined(kid(2)));
        // Re-seeding an already-closed breaker re-opens it once.
        h.seed_quarantine(&[kid(2), kid(2)]);
        assert!(h.quarantined(kid(2)));
        assert_eq!(h.quarantined_kernels(), vec![kid(2)]);
    }

    #[test]
    fn incident_ring_is_bounded() {
        let h = HealthState::new(u32::MAX, 8);
        for i in 0..(INCIDENT_RING + 10) {
            h.on_fault(incident(i % 3), false, i as u64);
        }
        let r = h.report(|_| String::new());
        assert_eq!(r.recent_incidents.len(), INCIDENT_RING);
        assert_eq!(r.exec_faults, (INCIDENT_RING + 10) as u64);
    }

    #[test]
    fn report_serializes_with_stable_keys() {
        let h = HealthState::new(1, 2);
        h.on_fault(incident(1), false, 1);
        let r = h.report(|k| format!("csr_{}", k.variant));
        let json = serde_json::to_string(&r).unwrap();
        for key in [
            "calls",
            "spmv_calls",
            "spmm_calls",
            "exec_faults",
            "breaker_trips",
            "quarantined_variants",
            "reprobe_successes",
            "reprobe_failures",
            "quarantine_evictions",
            "degraded_prepares",
            "recent_incidents",
            "coalesced_waits",
            "poison_recoveries",
            "corrupt_evictions",
            "cache_hits",
            "cache_misses",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing key {key}");
        }
        assert!(json.contains("csr_1"));
        let back: HealthReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
