//! The on-line stage: the runtime procedure of the paper's Figure 7.
//!
//! Given a matrix in the unified CSR interface format, the engine
//! extracts features (step 1 only), consults the rule groups in
//! [`crate::GROUP_ORDER`] (the paper's DIA→ELL→CSR→COO with the HYB
//! extension slotted after ELL) with the optimistic early exit —
//! computing the expensive power-law parameter `R` lazily, only if a
//! consulted group actually tests it — and either trusts a confident
//! prediction or falls back to execute-and-measure over the candidate
//! formats.

use crate::cache::{CacheStats, CachedSpmm, Decision, TuningCache};
use crate::config::{SmatConfig, SINGLE_FLIGHT_WAIT};
use crate::error::{Result, SmatError};
use crate::health::{Admission, ExecIncident, FaultKind, HealthReport, HealthState};
use crate::install::Installation;
use crate::model::TrainedModel;
use serde::{Deserialize, Serialize};
use smat_features::{extract_structure, FeatureVector, StructureFeatures};
use smat_kernels::timing::{decide, gflops, measure_round_robin, panic_message};
use smat_kernels::{measure_table, search_plan, ExecPlan, KernelId, KernelLibrary, Op, Planner};
use smat_learn::{ClassGroup, RuleGroups};
use smat_matrix::{AnyMatrix, ConversionLimits, Csr, Format, Scalar, StructuralFingerprint};
use std::collections::HashMap;
use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Index of the power-law attribute `R` in the feature vector.
const R_ATTR: usize = 10;

/// How a tuning decision was reached — the "Model Prediction" vs
/// "Execution" columns of the paper's Table 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DecisionPath {
    /// A rule group matched with confidence at or above the threshold.
    Predicted {
        /// The group's confidence factor.
        confidence: f64,
    },
    /// Execute-and-measure fallback ran; each candidate's measured
    /// throughput is recorded. CSR was kept unless another format beat
    /// it by more than [`smat_kernels::MARGIN`].
    Measured {
        /// `(format, gflops)` per successfully benchmarked candidate, at
        /// its quiet floor.
        candidates: Vec<(Format, f64)>,
        /// `(format, reason)` per candidate that was pruned (conversion
        /// refused by a resource budget) or failed measurement (panic,
        /// deadline). Failed candidates can never be selected.
        failures: Vec<(Format, String)>,
    },
    /// Replayed from the structural-fingerprint tuning cache: feature
    /// extraction, rule evaluation and any fallback measurement were
    /// skipped; only the physical format conversion ran.
    Cached {
        /// How the decision was originally reached, on the cache miss
        /// that populated the entry.
        source: Box<DecisionPath>,
    },
    /// The tuning pipeline could not produce a measured decision — the
    /// input was quarantined by screening, or every candidate failed —
    /// and the engine degraded to the reference CSR kernel. The result
    /// is still a usable [`TunedSpmv`]; only its performance is
    /// untuned. Degraded decisions are never cached, so a later call
    /// with a healthy matrix of the same structure re-tunes.
    Degraded {
        /// Why tuning was abandoned.
        reason: String,
    },
}

impl DecisionPath {
    /// The underlying decision, unwrapping any [`DecisionPath::Cached`]
    /// layers.
    pub fn source(&self) -> &DecisionPath {
        match self {
            DecisionPath::Cached { source } => source.source(),
            other => other,
        }
    }

    /// Whether this decision was served from the tuning cache.
    pub fn is_cached(&self) -> bool {
        matches!(self, DecisionPath::Cached { .. })
    }

    /// Whether the engine abandoned tuning and fell back to the
    /// reference CSR path (unwrapping any cache layers).
    pub fn is_degraded(&self) -> bool {
        matches!(self.source(), DecisionPath::Degraded { .. })
    }
}

/// Marker for one in-flight tuning run, shared between the leader
/// thread (which tunes) and any followers (which wait on the condvar
/// instead of stampeding the same measurement).
#[derive(Debug, Default)]
struct Inflight {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Inflight {
    /// Marks the run complete and wakes every waiting follower.
    fn finish(&self) {
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        *done = true;
        self.cv.notify_all();
    }

    /// Blocks until the run completes or `deadline` passes; `true`
    /// means the run completed.
    fn wait_until(&self, deadline: Instant) -> bool {
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        while !*done {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _timeout) = self
                .cv
                .wait_timeout(done, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            done = guard;
        }
        true
    }
}

/// Removes the in-flight marker and wakes followers when the leader's
/// `prepare` returns — including by panic, so a dying leader can never
/// leave followers waiting on a marker nobody will clear.
struct InflightGuard<'a> {
    inflight: &'a Mutex<HashMap<StructuralFingerprint, Arc<Inflight>>>,
    key: StructuralFingerprint,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let marker = self
            .inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.key);
        if let Some(marker) = marker {
            marker.finish();
        }
    }
}

/// A matrix prepared for repeated SpMV: physically stored in the tuned
/// format, with the architecture-searched kernel attached.
#[derive(Debug, Clone)]
pub struct TunedSpmv<T> {
    matrix: AnyMatrix<T>,
    /// The tuning decision: the value the cache stores, its `spmm` slot
    /// left empty (the pick lives in `spmm` below).
    decision: Decision,
    prepare_time: Duration,
    fingerprint: StructuralFingerprint,
    /// The lazily-tuned multi-RHS pick — an SpMM kernel and its
    /// row-granular, k-agnostic plan (see [`Smat::spmm`]). A `OnceLock`
    /// so the first `spmm` call (or a tuning-cache hit) can attach it
    /// through a shared reference; cloning carries the resolved pick
    /// along.
    spmm: OnceLock<CachedSpmm>,
}

impl<T: Scalar> TunedSpmv<T> {
    /// The one constructor: `decision`'s SpMM pick, if the cache had
    /// one, moves into the handle's slot.
    fn new(
        matrix: AnyMatrix<T>,
        mut decision: Decision,
        fingerprint: StructuralFingerprint,
        t0: Instant,
    ) -> Self {
        let pick = decision.spmm.take();
        TunedSpmv {
            matrix,
            decision,
            prepare_time: t0.elapsed(),
            fingerprint,
            spmm: pick.map_or_else(OnceLock::new, OnceLock::from),
        }
    }

    /// The storage format the tuner selected.
    pub fn format(&self) -> Format {
        self.matrix.format()
    }

    /// The kernel that will execute SpMV.
    pub fn kernel(&self) -> KernelId {
        self.decision.kernel
    }

    /// The precomputed execution plan the kernel replays on every
    /// [`Smat::spmv`] call (chunk bounds frozen at prepare time).
    pub fn plan(&self) -> &ExecPlan {
        &self.decision.plan
    }

    /// The extracted feature vector (with `R` only if it was needed).
    pub fn features(&self) -> &FeatureVector {
        &self.decision.features
    }

    /// How the decision was reached.
    pub fn decision(&self) -> &DecisionPath {
        &self.decision.source
    }

    /// Wall-clock cost of `prepare` (feature extraction + prediction +
    /// conversion + any fallback measurement) — the numerator of the
    /// paper's "SMAT overhead" column.
    pub fn prepare_time(&self) -> Duration {
        self.prepare_time
    }

    /// The tuned matrix.
    pub fn matrix(&self) -> &AnyMatrix<T> {
        &self.matrix
    }

    /// Structural fingerprint of the tuned matrix, as recorded in any
    /// [`ExecIncident`] attributed to this preparation.
    pub fn fingerprint(&self) -> StructuralFingerprint {
        self.fingerprint
    }

    /// The multi-RHS kernel attached by the first [`Smat::spmm`] call
    /// on this handle (or replayed from the tuning cache). `None` only
    /// before that call: every format has an SpMM tier.
    pub fn spmm_kernel(&self) -> Option<KernelId> {
        self.spmm.get().map(|pick| pick.kernel)
    }

    /// Resident footprint of the prepared matrix, in bytes: its stored
    /// arrays at their real widths, fill included
    /// ([`AnyMatrix::stored_bytes`]), used by [`crate::HandleRegistry`]
    /// to enforce its byte budget. The arrays only, not an allocator
    /// audit: the handle's plan and feature vector are not counted.
    pub fn resident_bytes(&self) -> usize {
        self.matrix.stored_bytes()
    }
}

/// The SMAT runtime engine: a trained model bound to the kernel library.
///
/// # Examples
///
/// ```no_run
/// use smat::{Smat, SmatConfig, Trainer};
/// use smat_matrix::gen::{random_uniform, tridiagonal};
///
/// let trainer = Trainer::new(SmatConfig::fast());
/// let train_a = tridiagonal::<f64>(500);
/// let train_b = random_uniform::<f64>(500, 500, 8, 1);
/// let out = trainer.train(&[&train_a, &train_b])?;
///
/// let engine = Smat::new(out.model)?;
/// let a = tridiagonal::<f64>(1000);
/// let tuned = engine.prepare(&a);
/// let x = vec![1.0; 1000];
/// let mut y = vec![0.0; 1000];
/// engine.spmv(&tuned, &x, &mut y)?;
/// # Ok::<(), smat::SmatError>(())
/// ```
/// The engine is `Send + Sync` — the model and kernel tables are
/// immutable after construction and the tuning cache synchronizes
/// internally — so one instance behind an [`std::sync::Arc`] can serve
/// every thread of an application.
#[derive(Debug)]
pub struct Smat<T: Scalar> {
    model: TrainedModel,
    lib: KernelLibrary<T>,
    config: SmatConfig,
    cache: TuningCache,
    /// Single-flight markers: fingerprints whose tuning run is
    /// currently executing on some thread. Concurrent `prepare` calls
    /// for the same fingerprint wait on the marker instead of tuning
    /// redundantly.
    inflight: Mutex<HashMap<StructuralFingerprint, Arc<Inflight>>>,
    installation: Option<Installation>,
    installation_from_disk: bool,
    /// Execution-time fault containment: incident log and per-variant
    /// circuit breakers.
    health: HealthState,
}

impl<T: Scalar> Smat<T> {
    /// Binds a trained model to this process's kernel library with the
    /// default configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SmatError::PrecisionMismatch`] if the model was trained
    /// for the other floating-point precision.
    pub fn new(model: TrainedModel) -> Result<Self> {
        Self::with_config(model, SmatConfig::default())
    }

    /// Binds a trained model with an explicit configuration.
    ///
    /// When [`SmatConfig::install_path`] is set, the persisted
    /// installation is loaded from that file (or generated and saved on
    /// first use) and its kernel choice replaces the model's — the
    /// kernel search encodes the *machine*, not the training corpus.
    ///
    /// # Errors
    ///
    /// Returns [`SmatError::PrecisionMismatch`] if the model was trained
    /// for the other floating-point precision, or
    /// [`SmatError::Persist`] if a fresh installation cannot be written
    /// to `install_path`.
    pub fn with_config(mut model: TrainedModel, config: SmatConfig) -> Result<Self> {
        if model.precision != T::PRECISION_NAME {
            return Err(SmatError::PrecisionMismatch {
                model: model.precision.clone(),
                data: T::PRECISION_NAME,
            });
        }
        let mut installation = None;
        let mut installation_from_disk = false;
        if let Some(path) = &config.install_path {
            let (installed, from_disk) = Installation::load_or_run::<T>(path, &config)?;
            model.kernel_choice = installed.kernel_choice.clone();
            installation = Some(installed);
            installation_from_disk = from_disk;
        }
        let health = HealthState::default();
        // A reloaded artifact carries the quarantine set a previous
        // process accumulated: those variants stay benched (behind an
        // open breaker, so the usual half-open re-probe applies).
        if let Some(installed) = &installation {
            health.seed_quarantine(&installed.quarantined);
        }
        Ok(Self {
            model,
            lib: KernelLibrary::new(),
            cache: TuningCache::new(config.cache_capacity),
            inflight: Mutex::new(HashMap::new()),
            config,
            installation,
            installation_from_disk,
            health,
        })
    }

    /// Binds a trained model, adopting an explicit (e.g. preloaded)
    /// installation's kernel choice instead of touching disk.
    ///
    /// # Errors
    ///
    /// Returns [`SmatError::PrecisionMismatch`] if the model or the
    /// installation disagree with `T`'s precision, and
    /// [`SmatError::Corrupt`] if the installation was searched on a
    /// kernel library with different rows than this build's.
    pub fn with_installation(
        mut model: TrainedModel,
        config: SmatConfig,
        installation: Installation,
    ) -> Result<Self> {
        installation.check_stamp::<T>()?;
        model.kernel_choice = installation.kernel_choice.clone();
        let mut config = config;
        config.install_path = None;
        let mut engine = Self::with_config(model, config)?;
        engine.health.seed_quarantine(&installation.quarantined);
        engine.installation = Some(installation);
        Ok(engine)
    }

    /// The trained model.
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// The runtime configuration.
    pub fn config(&self) -> &SmatConfig {
        &self.config
    }

    /// The kernel library.
    pub fn library(&self) -> &KernelLibrary<T> {
        &self.lib
    }

    /// Mutable access to the kernel library, for registering extra
    /// variants (see [`KernelLibrary::register`]). Fault
    /// isolation guarantees a registered kernel that panics or stalls
    /// during the execute-and-measure fallback is recorded as a failed
    /// candidate rather than aborting tuning.
    pub fn library_mut(&mut self) -> &mut KernelLibrary<T> {
        &mut self.lib
    }

    /// The installation whose kernel choice this engine adopted, if
    /// one was loaded or generated.
    pub fn installation(&self) -> Option<&Installation> {
        self.installation.as_ref()
    }

    /// Whether the adopted installation was reloaded from disk (as
    /// opposed to searched in this process).
    pub fn installation_from_disk(&self) -> bool {
        self.installation_from_disk
    }

    /// A snapshot of the tuning cache's hit/miss/latency counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// A serializable snapshot of the engine's execution health:
    /// contained faults and breaker/quarantine state. The tuning
    /// cache's counters are [`Smat::cache_stats`]'s alone.
    pub fn health_report(&self) -> HealthReport {
        self.health.report(|k| {
            let row = self.lib.table(k.op, k.format).get(k.variant);
            row.map(|info| info.name.to_string()).unwrap_or_default()
        })
    }

    /// Drops every cached tuning decision (counters are preserved).
    /// Call after anything that invalidates past measurements, e.g.
    /// migrating the process to different hardware.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Persists the resident tuning-cache entries to `path` as a
    /// sealed, checksummed JSON snapshot (atomic `<path>.tmp` +
    /// rename), so a later process can warm-start with
    /// [`Smat::load_cache`] instead of re-tuning every structure.
    /// Returns the number of entries written. Corrupt entries are
    /// evicted, not persisted.
    ///
    /// Transient I/O failures are retried [`crate::PERSIST_RETRIES`]
    /// times with exponential backoff.
    ///
    /// # Errors
    ///
    /// Returns [`SmatError::Persist`] when writing fails after
    /// exhausting the retries.
    pub fn save_cache(&self, path: impl AsRef<Path>) -> Result<usize> {
        self.cache.save::<T>(path.as_ref(), self.cache_stamp())
    }

    /// Warm-starts the tuning cache from a snapshot written by
    /// [`Smat::save_cache`], verifying its checksum and precision.
    /// Entries are absorbed through normal LRU insertion (capacity
    /// still applies). Returns the number of entries absorbed.
    ///
    /// Transient I/O failures are retried [`crate::PERSIST_RETRIES`]
    /// times with exponential backoff.
    ///
    /// # Errors
    ///
    /// Returns [`SmatError::Persist`] when reading fails after
    /// exhausting the retries, [`SmatError::Corrupt`] when the file
    /// parses but fails checksum verification or was written under a
    /// kernel library with different rows or another fingerprint
    /// algorithm (its entries address kernels by index and are keyed by
    /// fingerprint, so nothing is absorbed), and
    /// [`SmatError::PrecisionMismatch`] when the snapshot was taken by
    /// an engine of the other precision.
    pub fn load_cache(&self, path: impl AsRef<Path>) -> Result<usize> {
        self.cache.load::<T>(path.as_ref(), self.cache_stamp())
    }

    /// What a tuning-cache snapshot is stamped with: the kernel library
    /// its entries' kernel ids index into and the fingerprint algorithm
    /// its keys were computed by. A snapshot under either other is
    /// stale — wrong kernels, or keys no matrix will ever produce.
    fn cache_stamp(&self) -> u64 {
        self.lib.digest() ^ StructuralFingerprint::ALGORITHM
    }

    /// Tunes a matrix: Figure 7's runtime procedure, fronted by the
    /// structural-fingerprint cache.
    ///
    /// A repeated sparsity structure (same dimensions and nonzero
    /// positions; values are free to differ) skips feature extraction,
    /// rule-group evaluation and the execute-and-measure fallback,
    /// replaying the cached decision — only the physical conversion of
    /// the new values runs. The returned decision path is then
    /// [`DecisionPath::Cached`].
    ///
    /// Never fails — if every exotic conversion is refused the matrix
    /// stays in CSR with the searched CSR kernel, and a thread that
    /// waits out [`SINGLE_FLIGHT_WAIT`] on another thread's tuning run
    /// degrades to the reference kernel instead of blocking forever.
    ///
    /// # Concurrency: single-flight tuning
    ///
    /// When several threads `prepare` matrices with the same structural
    /// fingerprint concurrently, exactly one (the *leader*) runs the
    /// tuning pipeline; the others (*followers*) block on the in-flight
    /// marker and replay the leader's cached decision when it lands —
    /// counted in [`CacheStats::coalesced_waits`]. A leader that
    /// degrades publishes nothing, so one woken follower simply becomes
    /// the next leader. Follower waiting is bounded by
    /// [`SINGLE_FLIGHT_WAIT`] from call entry; on timeout the call
    /// returns a [`DecisionPath::Degraded`] result.
    pub fn prepare(&self, csr: &Csr<T>) -> TunedSpmv<T> {
        self.prepare_opt(csr, None)
    }

    /// [`Smat::prepare`] under a hard wall-clock deadline, for serving
    /// layers that promise per-request latency bounds.
    ///
    /// The deadline propagates into every blocking or measured stage of
    /// the tuning pipeline: the single-flight follower wait is
    /// `min(SINGLE_FLIGHT_WAIT, deadline)`, the execute-and-measure
    /// candidates' deadline is clamped to the time remaining and their
    /// measurement ([`smat_kernels::measure_round_robin`]) stops before
    /// the next sample once it passes, and the plan search is skipped
    /// once the budget is spent. Like `prepare`, the call never fails: a deadline
    /// that expires before tuning completes yields a
    /// [`DecisionPath::Degraded`] result served by the reference CSR
    /// kernel (and, per the degraded contract, nothing is cached). A
    /// cache hit is served regardless of the deadline — replay is the
    /// cheap path the deadline exists to protect.
    pub fn prepare_with_deadline(&self, csr: &Csr<T>, deadline: Instant) -> TunedSpmv<T> {
        self.prepare_opt(csr, Some(deadline))
    }

    fn prepare_opt(&self, csr: &Csr<T>, req_deadline: Option<Instant>) -> TunedSpmv<T> {
        let t0 = Instant::now();
        if self.config.cache_capacity == 0 {
            // Nothing to publish, so no single-flight either; the call
            // still counts as a miss.
            let tuned = self.tune(csr, csr.fingerprint(), req_deadline);
            self.cache.record(false, t0.elapsed());
            return tuned;
        }
        let key = csr.fingerprint();
        // The follower's one wait bound.
        let wait = t0 + SINGLE_FLIGHT_WAIT;
        let wait_deadline = req_deadline.map_or(wait, |d| d.min(wait));
        loop {
            let hit = self.cache.get(&key);
            if let Some(tuned) = hit.and_then(|hit| self.replay(csr, key, hit, t0)) {
                self.cache.record(true, tuned.prepare_time);
                return tuned;
            }
            // Claim leadership or find the active leader. The cache is
            // re-checked under the in-flight lock: a leader publishes
            // its decision *before* releasing its marker, so a marker
            // gap with a resident entry means the work is already done.
            let follower = {
                let mut inflight = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
                match inflight.get(&key) {
                    Some(marker) => Some(Arc::clone(marker)),
                    None => {
                        if self.cache.get(&key).is_some() {
                            continue; // published since our last check
                        }
                        inflight.insert(key, Arc::new(Inflight::default()));
                        None
                    }
                }
            };
            let Some(marker) = follower else {
                // Leader: tune, publish, then release the marker (the
                // guard runs even if tuning panics).
                let _guard = InflightGuard {
                    inflight: &self.inflight,
                    key,
                };
                let tuned = self.tune(csr, key, req_deadline);
                // A degraded decision reflects a transient or
                // input-specific failure (poisoned values, every
                // candidate failing): never cache it, so a healthy
                // matrix of the same structure re-tunes.
                if !tuned.decision().is_degraded() {
                    self.cache.insert(key, tuned.decision.clone());
                }
                self.cache.record(false, t0.elapsed());
                return tuned;
            };
            // Follower: wait for the leader, bounded by the wait
            // deadline, then loop to replay its published decision (or
            // take over leadership if it degraded).
            self.cache.record_coalesced_wait();
            if !marker.wait_until(wait_deadline) {
                let reason = "single-flight wait ended before the in-flight tuning run did; \
                              serving the reference kernel";
                let tuned = self.degrade(Run::new(csr, key, t0, req_deadline), reason.into());
                self.cache.record(false, t0.elapsed());
                return tuned;
            }
        }
    }

    /// Replays the cached decision `hit` onto `csr`. Evicts it instead,
    /// returning `None` so the caller tunes afresh, when the breaker
    /// has since benched its kernel (the fresh run selects around the
    /// quarantine) or when this engine's conversion limits refuse its
    /// format (a snapshot written under a larger byte budget): the
    /// conversion is otherwise structural, so it succeeds again.
    fn replay(
        &self,
        csr: &Csr<T>,
        key: StructuralFingerprint,
        mut hit: Decision,
        t0: Instant,
    ) -> Option<TunedSpmv<T>> {
        if self.health.quarantined(hit.kernel) {
            self.cache.remove(&key);
            self.health.note_quarantine_eviction();
            return None;
        }
        let limits = self.config.conversion_limits();
        let Ok(matrix) = AnyMatrix::convert_from_csr_with(csr, hit.format, &limits) else {
            self.cache.remove(&key);
            return None;
        };
        // A plan sized for a different thread count (e.g. a snapshot
        // written on another machine) is rebuilt for this backend with
        // its recorded chunk policy, so a searched plan survives the
        // resize. A quarantined SpMM pick is dropped, so the next
        // `spmm` call re-tunes and publishes its replacement. Either
        // change refreshes the entry in place.
        let refresh = |plan: &mut ExecPlan| {
            let stale = plan.is_stale();
            if stale {
                *plan = self.lib.build_plan(&matrix, plan.policy);
            }
            stale
        };
        let mut changed = refresh(&mut hit.plan);
        match &mut hit.spmm {
            Some(pick) if self.health.quarantined(pick.kernel) => {
                hit.spmm = None;
                changed = true;
            }
            Some(pick) => changed |= refresh(&mut pick.plan),
            None => {}
        }
        if changed {
            self.cache.insert(key, hit.clone());
        }
        hit.source = DecisionPath::Cached {
            source: Box::new(hit.source),
        };
        Some(TunedSpmv::new(matrix, hit, key, t0))
    }

    /// Builds the degraded-mode result: the matrix stays in CSR and the
    /// reference (variant 0) CSR kernel runs it.
    fn degrade(&self, run: Run<T>, reason: String) -> TunedSpmv<T> {
        self.health.note_degraded_prepare();
        let matrix = AnyMatrix::Csr(run.csr.clone());
        let plan = ExecPlan::serial(run.csr.rows());
        let source = DecisionPath::Degraded { reason };
        run.finish(matrix, KernelId::basic(Format::Csr), plan, source)
    }

    /// The kernel the tuner may actually attach for `format`: the
    /// model's choice unless that variant is quarantined, in which case
    /// the reference (variant 0) substitutes. The reference serves even
    /// if it is itself quarantined — there is nothing below it to fall
    /// to, and it is the same code the containment boundary re-executes
    /// on a fault.
    fn effective_kernel(&self, format: Format) -> KernelId {
        let chosen = self.model.kernel_choice.kernel(format);
        if self.health.quarantined(chosen) {
            KernelId::basic(format)
        } else {
            chosen
        }
    }

    /// The uncached Figure 7 pipeline: screen, extract features, predict
    /// with the rule groups, race the candidate formats unless the
    /// prediction is trusted, plan the winner. `deadline`, when set, is
    /// a hard wall-clock bound propagated into every measured stage
    /// (see [`Smat::prepare_with_deadline`]).
    fn tune(
        &self,
        csr: &Csr<T>,
        fingerprint: StructuralFingerprint,
        deadline: Option<Instant>,
    ) -> TunedSpmv<T> {
        // Step 1 features; R is fitted lazily. Extraction is value-blind,
        // so it is safe (and kept, for observability) on the degraded
        // exits too.
        let mut run = Run::new(csr, fingerprint, Instant::now(), deadline);
        if deadline.is_some_and(|d| d <= run.t0) {
            let reason = "request deadline expired before tuning; serving the reference kernel";
            return self.degrade(run, reason.into());
        }
        // Input screening: a poisoned matrix (NaN/Inf values) would
        // corrupt every fallback measurement and the tuned result
        // alike, so it is quarantined to the reference path up front.
        if let Some((row, col)) = csr.first_non_finite() {
            let reason = format!("non-finite value at ({row}, {col}); input quarantined");
            return self.degrade(run, reason);
        }
        let predicted = run.predict(&self.model.groups);
        let limits = self.config.conversion_limits();
        if let Some((format, confidence)) = predicted {
            if confidence >= self.config.confidence_threshold {
                if let Ok(matrix) = AnyMatrix::convert_from_csr_with(csr, format, &limits) {
                    return self.attach(run, matrix, DecisionPath::Predicted { confidence });
                }
                // Conversion refused (fill blow-up or byte budget):
                // distrust the rule and fall through to measurement.
            }
        }
        // Execute-and-measure fallback over the configured candidates,
        // the predicted format and CSR.
        let mut formats = self.config.fallback_formats.clone();
        for f in predicted.map(|(f, _)| f).into_iter().chain([Format::Csr]) {
            if !formats.contains(&f) {
                formats.push(f);
            }
        }
        let race = RaceSpec {
            formats: &formats,
            limits,
            samples: 1..=16,
            budget: self.config.fallback_budget,
            deadline: self.config.candidate_deadline,
            stop: deadline,
        };
        let kernel = |format| self.effective_kernel(format);
        match race_formats(&self.lib, csr, race, kernel, &mut run.planner) {
            Ok((matrix, source)) => self.attach(run, matrix, source),
            Err(reason) => self.degrade(run, reason),
        }
    }

    /// The tuned exit: attaches the format's kernel and its plan to the
    /// converted matrix.
    fn attach(&self, mut run: Run<T>, matrix: AnyMatrix<T>, source: DecisionPath) -> TunedSpmv<T> {
        let kernel = self.effective_kernel(matrix.format());
        let plan = self.plan(&mut run, &matrix, kernel);
        run.finish(matrix, kernel, plan, source)
    }

    /// The plan for `kernel` on `matrix`: the default one, upgraded by
    /// searching chunk policy and fan-out width
    /// ([`smat_kernels::search_plan`]) only where the search can pay:
    /// the kernel has a parallel planned path on a physical CSR matrix,
    /// and `R` (fitted here if no rule group already forced it) reports
    /// a scale-free row-degree distribution — the structures where
    /// uniform row splits lose. Near-uniform matrices keep the default
    /// plan with zero extra measurements.
    fn plan(&self, run: &mut Run<T>, matrix: &AnyMatrix<T>, kernel: KernelId) -> ExecPlan {
        let default_plan = run.planner.plan_for(&self.lib, matrix, kernel);
        if default_plan.is_serial() || matrix.format() != Format::Csr {
            return default_plan;
        }
        run.fit_r();
        if run.structure.features.r >= smat_features::R_NOT_SCALE_FREE {
            return default_plan;
        }
        // A request deadline clamps the per-candidate plan-search
        // deadline; once the budget is spent the search is skipped
        // outright and the default plan serves.
        let deadline = clamp_to_deadline(self.config.candidate_deadline, run.deadline);
        if deadline.is_zero() {
            return default_plan;
        }
        let budget = self.config.plan_search_budget;
        search_plan(&self.lib, matrix, kernel, 1, budget, deadline).map_or(default_plan, |s| s.plan)
    }

    /// Runs the tuned SpMV: `y = A * x`, inside the execution-time
    /// containment boundary.
    ///
    /// A kernel panic mid-call is caught here, recorded as an
    /// [`ExecIncident`], and the call re-executes through the reference
    /// (variant 0) kernel of the tuned format — so the caller still
    /// gets `Ok` with a correct product. After
    /// [`crate::BREAKER_THRESHOLD`] incidents the variant's
    /// circuit breaker opens: it is quarantined (served by the
    /// reference path, excluded from future candidate sets, its cached
    /// decisions evicted) until a call-counted exponential backoff
    /// admits one half-open re-probe. With
    /// [`SmatConfig::screen_outputs`] set, a non-finite product from
    /// finite inputs counts as an incident too.
    ///
    /// # Errors
    ///
    /// Returns [`SmatError::Matrix`] on vector length mismatch, and
    /// [`SmatError::KernelPanic`] only in the double-fault case where
    /// the reference re-execution itself panics.
    pub fn spmv(&self, tuned: &TunedSpmv<T>, x: &[T], y: &mut [T]) -> Result<()> {
        check_len("smat spmv x", tuned.matrix.cols(), x.len())?;
        check_len("smat spmv y", tuned.matrix.rows(), y.len())?;
        self.execute(tuned, tuned.decision.kernel, &tuned.decision.plan, x, y, 1)
    }

    /// The execution-time containment boundary shared by [`Smat::spmv`]
    /// and [`Smat::spmm`]: runs `kernel` (whose `op` says which product)
    /// over `plan` for `k` right-hand sides, with the buffer lengths
    /// already checked by the caller.
    fn execute(
        &self,
        tuned: &TunedSpmv<T>,
        kernel: KernelId,
        plan: &ExecPlan,
        x: &[T],
        y: &mut [T],
        k: usize,
    ) -> Result<()> {
        let reference = |y: &mut [T]| self.run_reference(tuned, kernel.op, x, y, k);
        let call = self.health.tick(kernel.op);
        // Breaker admission, keyed by the kernel id — an SpMM pick
        // quarantines independently of the handle's SpMV kernel.
        // `needs_attention` is one relaxed load, so a healthy engine
        // takes no lock here.
        let mut probing = false;
        if self.health.needs_attention() {
            match self.health.admit(kernel, call) {
                Admission::Run => {}
                Admission::Probe => probing = true,
                Admission::Fallback => return reference(y),
            }
        }
        // The containment boundary. Failpoint `exec.kernel`: a
        // scripted fault inside the guard becomes a contained kernel
        // panic, exactly like a real one.
        let run = catch_unwind(AssertUnwindSafe(|| {
            if let Some(fault) = smat_failpoints::check("exec.kernel") {
                std::panic::panic_any(fault.to_string());
            }
            let (m, v) = (&tuned.matrix, kernel.variant);
            match kernel.op {
                Op::Spmv => self.lib.run_planned(m, v, plan, x, y),
                Op::Spmm => self.lib.run_spmm_planned(m, v, plan, x, y, k),
            }
        }));
        if let Err(payload) = run {
            self.contain_fault(
                tuned,
                kernel,
                FaultKind::Panic,
                panic_message(payload.as_ref()),
                probing,
                call,
            );
            return reference(y);
        }
        // Output screening: a non-finite product from finite inputs is
        // a kernel fault (wrong indexing reading poison, a bad
        // reduction). The reference re-run is the arbiter: if it also
        // produces non-finite values the data itself is poisoned and no
        // incident is recorded.
        let mut outcome = Ok(());
        let mut healthy = true;
        if self.config.screen_outputs
            && y.iter().any(|v| !v.is_finite())
            && x.iter().all(|v| v.is_finite())
        {
            let rerun = reference(y);
            if y.iter().all(|v| v.is_finite()) {
                self.contain_fault(
                    tuned,
                    kernel,
                    FaultKind::NonFinite,
                    "non-finite output from finite inputs".to_string(),
                    probing,
                    call,
                );
                (outcome, healthy) = (rerun, false);
            }
            // Otherwise the reference agrees the product is non-finite:
            // poisoned matrix values, not a kernel fault. Serve it.
        }
        if probing && healthy {
            self.health.on_probe_success(kernel);
        }
        outcome
    }

    /// Re-executes `tuned` through the reference (variant 0) kernel of
    /// its format for `op`, with its default serial dispatch. Every
    /// kernel fully overwrites `y`, so this also restores output
    /// clobbered by a faulted tuned run.
    fn run_reference(
        &self,
        tuned: &TunedSpmv<T>,
        op: Op,
        x: &[T],
        y: &mut [T],
        k: usize,
    ) -> Result<()> {
        let (m, format) = (&tuned.matrix, tuned.format());
        match op {
            Op::Spmv => last_resort(
                || format!("reference {format} kernel"),
                || self.lib.run(m, 0, x, y),
            ),
            Op::Spmm => last_resort(
                || format!("reference {format} spmm kernel"),
                || self.lib.run_spmm(m, 0, x, y, k),
            ),
        }
    }

    /// Records one contained execution fault against `kernel` (the
    /// tuned SpMV variant or an SpMM pick) and, when the quarantine set
    /// changed, re-persists the install artifact so the bench survives
    /// this process.
    fn contain_fault(
        &self,
        tuned: &TunedSpmv<T>,
        kernel: KernelId,
        kind: FaultKind,
        payload: String,
        probing: bool,
        call: u64,
    ) {
        let incident = ExecIncident {
            kernel,
            fingerprint: tuned.fingerprint,
            kind,
            payload,
        };
        if self.health.on_fault(incident, probing, call) {
            self.persist_quarantine();
        }
    }

    /// Best-effort re-save of the install artifact with the current
    /// quarantine set. Failures are swallowed: persistence is an
    /// optimization, the in-memory breakers remain authoritative.
    fn persist_quarantine(&self) {
        if let (Some(path), Some(installation)) = (&self.config.install_path, &self.installation) {
            let mut snapshot = installation.clone();
            snapshot.quarantined = self.health.quarantined_kernels();
            let _ = snapshot.save(path);
        }
    }

    /// Runs the tuned multi-RHS product `Y = A * X` for `k`
    /// right-hand sides, inside the same execution-time containment
    /// boundary as [`Smat::spmv`].
    ///
    /// `x` and `y` are dense row-major blocks: `x.len() == cols * k`
    /// with element `(c, j)` at `x[c * k + j]`, and `y.len() == rows *
    /// k` likewise. The first call on a [`TunedSpmv`] handle tunes the
    /// multi-RHS dimension — it measures the format's SpMM variants
    /// (quarantined ones excluded), picks the winner via the
    /// scoreboard, searches its chunk plan, and attaches the pick to
    /// the handle and to the structural-fingerprint cache — so a later
    /// `prepare` of the same structure replays it without re-measuring.
    /// Every format has an SpMM tier, so [`TunedSpmv::spmm_kernel`] is
    /// `None` only before that first call. Every subsequent call is
    /// the warm path: zero-allocation replay of the attached kernel and
    /// plan.
    ///
    /// Row-granular picks are bitwise identical to `k` independent
    /// reference SpMV calls of the handle's format gathered per column;
    /// merge-path picks reassociate row segments exactly like their
    /// SpMV counterparts.
    ///
    /// A kernel panic or screened non-finite product is contained
    /// exactly as in `spmv`: the incident is recorded against the SpMM
    /// variant (its circuit breaker trips independently of the SpMV
    /// pick), and the call re-executes through the reference SpMM
    /// path.
    ///
    /// # Errors
    ///
    /// Returns [`SmatError::Matrix`] on block length mismatch, and
    /// [`SmatError::KernelPanic`] only when the reference re-execution
    /// itself panics.
    pub fn spmm(&self, tuned: &TunedSpmv<T>, x: &[T], y: &mut [T], k: usize) -> Result<()> {
        // An extent past `usize::MAX` matches no buffer (a slice holds
        // at most `isize::MAX` bytes): saturate instead of wrapping.
        let extent = |n: usize| n.saturating_mul(k);
        check_len("smat spmm x", extent(tuned.matrix.cols()), x.len())?;
        check_len("smat spmm y", extent(tuned.matrix.rows()), y.len())?;
        if k == 0 {
            return Ok(());
        }
        let pick = tuned.spmm.get_or_init(|| self.tune_spmm(tuned, k));
        self.execute(tuned, pick.kernel, &pick.plan, x, y, k)
    }

    /// First-call SpMM tuning: measure the format's variants
    /// (quarantined ones excluded from the candidate set, like any
    /// `CandidateFailed` row), pick the winner via the scoreboard, then
    /// search its chunk plan. The resulting pick is written back to the
    /// structural-fingerprint cache so later `prepare` calls replay it.
    /// The pick itself is k-agnostic — a tiled variant covers any `k`
    /// with 8-wide tiles and a 4-2-1 tail, and the plan's chunk bounds
    /// are row-granular — so it serves every later `k` bit-identically.
    /// When no candidate survives measurement the handle gets row 0 on
    /// a serial plan, uncached, so a later `prepare` tunes afresh.
    fn tune_spmm(&self, tuned: &TunedSpmv<T>, k: usize) -> CachedSpmm {
        let (lib, m, config) = (&self.lib, &tuned.matrix, &self.config);
        let format = m.format();
        // Measure at a genuinely multi-RHS width even when the first
        // call is the k = 1 degenerate: at k = 1 every tiled row runs
        // its width-1 body and the rows would tie.
        let probe_k = k.max(4);
        let excluded = self.health.quarantined_kernels();
        let (budget, deadline) = (config.fallback_budget, config.candidate_deadline);
        let table = measure_table(lib, m, Op::Spmm, probe_k, budget, deadline, &excluded);
        let best = table.scoreboard().best_variant;
        if !table.records.get(best).is_some_and(|r| r.is_measured()) {
            return CachedSpmm {
                kernel: KernelId::spmm_basic(format),
                plan: ExecPlan::serial(m.rows()),
            };
        }
        let kernel = KernelId {
            op: Op::Spmm,
            format,
            variant: best,
        };
        let mut plan = lib.plan_for(m, kernel);
        let budget = config.plan_search_budget;
        if !plan.is_serial() {
            if let Some(found) = search_plan(lib, m, kernel, probe_k, budget, deadline) {
                plan = found.plan;
            }
        }
        let pick = CachedSpmm { kernel, plan };
        // Attach the pick to the cached decision (if one is resident)
        // so the next `prepare` of this structure replays it.
        if let Some(mut entry) = self.cache.get(&tuned.fingerprint) {
            if entry.spmm.is_none() {
                entry.spmm = Some(pick.clone());
                self.cache.insert(tuned.fingerprint, entry);
            }
        }
        pick
    }

    /// One-shot unified interface: tune and multiply in one call. For
    /// repeated SpMV on the same matrix, [`Smat::prepare`] once and reuse
    /// the [`TunedSpmv`].
    ///
    /// # Errors
    ///
    /// Returns [`SmatError::Matrix`] on vector length mismatch.
    pub fn csr_spmv(&self, csr: &Csr<T>, x: &[T], y: &mut [T]) -> Result<TunedSpmv<T>> {
        let tuned = self.prepare(csr);
        self.spmv(&tuned, x, y)?;
        Ok(tuned)
    }
}

/// Runs a reference path that has nothing below it. A panic here is the
/// double fault — the serial reference itself failed — and surfaces as
/// [`SmatError::KernelPanic`] naming `what` ran.
fn last_resort(what: impl FnOnce() -> String, run: impl FnOnce()) -> Result<()> {
    catch_unwind(AssertUnwindSafe(run)).map_err(|payload| SmatError::KernelPanic {
        what: what(),
        message: panic_message(payload.as_ref()),
    })
}

/// The caller-facing buffer length check of [`Smat::spmv`] and
/// [`Smat::spmm`].
fn check_len(context: &'static str, expected: usize, found: usize) -> Result<()> {
    if expected == found {
        return Ok(());
    }
    Err(SmatError::Matrix(
        smat_matrix::MatrixError::DimensionMismatch {
            context,
            expected,
            found,
        },
    ))
}

/// Clamps a configured budget to the time remaining before an optional
/// request deadline (zero once the deadline has passed).
fn clamp_to_deadline(budget: Duration, deadline: Option<Instant>) -> Duration {
    match deadline {
        Some(d) => budget.min(d.saturating_duration_since(Instant::now())),
        None => budget,
    }
}

/// What one run of the Figure 7 pipeline carries from step to step.
struct Run<'a, T: Scalar> {
    csr: &'a Csr<T>,
    fingerprint: StructuralFingerprint,
    t0: Instant,
    /// Step-1 features (`R` fitted lazily, at most once) and the row
    /// degrees `R` is fitted on.
    structure: StructureFeatures,
    r_fitted: bool,
    /// The race's candidates may share a chunk policy and the winner is
    /// planned again on the way out: one planner per run computes the
    /// partition bounds once per (policy, thread count).
    planner: Planner,
    /// The request deadline, propagated into every measured stage.
    deadline: Option<Instant>,
}

impl<'a, T: Scalar> Run<'a, T> {
    fn new(
        csr: &'a Csr<T>,
        fingerprint: StructuralFingerprint,
        t0: Instant,
        deadline: Option<Instant>,
    ) -> Self {
        Run {
            csr,
            fingerprint,
            t0,
            structure: extract_structure(csr),
            r_fitted: false,
            planner: Planner::new(),
            deadline,
        }
    }

    /// The run's exit: `matrix` served by `kernel` over `plan`.
    fn finish(
        self,
        matrix: AnyMatrix<T>,
        kernel: KernelId,
        plan: ExecPlan,
        source: DecisionPath,
    ) -> TunedSpmv<T> {
        let decision = Decision {
            format: matrix.format(),
            kernel,
            features: self.structure.features,
            source,
            plan,
            spmm: None,
        };
        TunedSpmv::new(matrix, decision, self.fingerprint, self.t0)
    }

    /// Fits the power-law attribute `R` unless an earlier step did.
    fn fit_r(&mut self) {
        if !self.r_fitted {
            let degrees = self.structure.row_degrees.iter().copied();
            self.structure.features.r = smat_features::fit_power_law_of_degrees(degrees);
            self.r_fitted = true;
        }
    }

    /// Consults the rule groups in order with the optimistic early
    /// exit, fitting `R` only once a consulted group tests it: the
    /// first matching group's format and confidence.
    fn predict(&mut self, groups: &RuleGroups) -> Option<(Format, f64)> {
        for group in groups.groups.iter().filter(|g| !g.rules.is_empty()) {
            if group_tests_r(group) {
                self.fit_r();
            }
            let values = self.structure.features.as_array();
            if group.rules.iter().any(|r| r.matches(&values)) {
                return Some((Format::from_index(group.class), group.confidence));
            }
        }
        None
    }
}

/// What differs between the two callers of [`race_formats`], the
/// runtime's execute-and-measure fallback and training's
/// [`crate::label_best_format`]: the candidate formats (in measurement
/// order), the conversion limits that prune them, the samples per
/// candidate, and the sampling budget and per-candidate deadline, both
/// clamped to the time left before `stop`, the instant the measurement
/// stops before its next sample.
pub(crate) struct RaceSpec<'a> {
    pub formats: &'a [Format],
    pub limits: ConversionLimits,
    pub samples: RangeInclusive<usize>,
    pub budget: Duration,
    pub deadline: Duration,
    pub stop: Option<Instant>,
}

/// The one format race: converts every candidate format of `spec` (a
/// refused conversion is a failure, not an error), plans each with its
/// `kernel` through `planner` outside the timed closure — so it is
/// timed through the dispatch that would serve it — measures the
/// survivors together on `x = 1`, and keeps CSR unless another format
/// beats it by more than [`smat_kernels::MARGIN`] ([`decide`]).
///
/// Returns the winning conversion with a [`DecisionPath::Measured`]
/// recording every candidate's throughput or failure, or, when every
/// candidate failed, the reason to degrade.
pub(crate) fn race_formats<T: Scalar>(
    lib: &KernelLibrary<T>,
    csr: &Csr<T>,
    spec: RaceSpec<'_>,
    kernel: impl Fn(Format) -> KernelId,
    planner: &mut Planner,
) -> std::result::Result<(AnyMatrix<T>, DecisionPath), String> {
    let mut failures = Vec::new();
    let mut converted = Vec::with_capacity(spec.formats.len());
    for &format in spec.formats {
        match AnyMatrix::convert_from_csr_with(csr, format, &spec.limits) {
            Ok(any) => {
                let kernel = kernel(format);
                let plan = planner.plan_for(lib, &any, kernel);
                converted.push((any, kernel.variant, plan));
            }
            Err(e) => failures.push((format, format!("conversion refused: {e}"))),
        }
    }
    let x = vec![T::ONE; csr.cols()];
    let mut y = vec![T::ZERO; csr.rows()];
    let outcomes = measure_round_robin(
        converted.len(),
        |i| {
            let (any, variant, plan) = &converted[i];
            lib.run_planned(any, *variant, plan, &x, &mut y)
        },
        spec.samples,
        clamp_to_deadline(spec.budget, spec.stop),
        clamp_to_deadline(spec.deadline, spec.stop),
        spec.stop,
    );
    let mut candidates = Vec::with_capacity(converted.len());
    for ((any, ..), outcome) in converted.iter().zip(&outcomes) {
        match outcome.ok() {
            Some(floor) => candidates.push((any.format(), gflops(csr.nnz(), floor))),
            None => failures.push((any.format(), outcome.failure().unwrap_or_default())),
        }
    }
    let csr_slot = converted
        .iter()
        .position(|(any, ..)| any.format() == Format::Csr);
    let Some(winner) = decide(&outcomes, csr_slot) else {
        let detail: Vec<String> = failures
            .iter()
            .map(|(f, why)| format!("{f:?}: {why}"))
            .collect();
        return Err(format!(
            "all fallback candidates failed [{}]",
            detail.join("; ")
        ));
    };
    let source = DecisionPath::Measured {
        candidates,
        failures,
    };
    Ok((converted.swap_remove(winner).0, source))
}

/// Whether any rule in the group tests the power-law attribute `R`.
fn group_tests_r(group: &ClassGroup) -> bool {
    group
        .rules
        .iter()
        .any(|r| r.conditions.iter().any(|c| c.attr == R_ATTR))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::{class_names, group_class_order, TrainStats};
    use smat_features::ATTRIBUTE_NAMES;
    use smat_kernels::{KernelChoice, KernelFn};
    use smat_learn::{Condition, Op, Rule, RuleGroups, RuleSet};
    use smat_matrix::gen::{power_law, random_uniform, tridiagonal};

    /// Hand-built model: Ndiags <= 10 & NTdiags_ratio > 0.8 -> DIA (conf
    /// 0.95); R <= 4 -> COO (conf 0.9); default CSR.
    fn model() -> TrainedModel {
        let attrs: Vec<String> = ATTRIBUTE_NAMES.iter().map(|s| s.to_string()).collect();
        let dia_rule = Rule {
            conditions: vec![
                Condition {
                    attr: 6,
                    op: Op::Le,
                    threshold: 10.0,
                },
                Condition {
                    attr: 7,
                    op: Op::Gt,
                    threshold: 0.8,
                },
            ],
            class: Format::Dia.index(),
            covered: 20,
            correct: 19,
        };
        let coo_rule = Rule {
            conditions: vec![Condition {
                attr: 10,
                op: Op::Le,
                threshold: 4.0,
            }],
            class: Format::Coo.index(),
            covered: 10,
            correct: 9,
        };
        let ruleset = RuleSet {
            rules: vec![dia_rule, coo_rule],
            default_class: Format::Csr.index(),
            attributes: attrs,
            classes: class_names(),
        };
        let groups = RuleGroups::from_ruleset(&ruleset, &group_class_order());
        TrainedModel {
            precision: "double".into(),
            ruleset,
            groups,
            kernel_choice: KernelChoice::basic(),
            stats: TrainStats {
                train_size: 30,
                train_accuracy: 0.93,
                tailored_accuracy: 0.93,
                rules_total: 2,
                rules_kept: 2,
                label_counts: [20, 0, 0, 10, 0, 0, 0],
            },
        }
    }

    pub(crate) fn engine() -> Smat<f64> {
        Smat::with_config(model(), SmatConfig::fast()).unwrap()
    }

    #[test]
    fn precision_mismatch_is_rejected() {
        let err = Smat::<f32>::new(model()).unwrap_err();
        assert!(matches!(err, SmatError::PrecisionMismatch { .. }));
    }

    #[test]
    fn confident_dia_prediction_converts() {
        let e = engine();
        let m = tridiagonal::<f64>(600);
        let tuned = e.prepare(&m);
        assert_eq!(tuned.format(), Format::Dia);
        assert!(matches!(
            tuned.decision(),
            DecisionPath::Predicted { confidence } if *confidence >= 0.9
        ));
        // The result is correct.
        let x: Vec<f64> = (0..600).map(|i| (i % 10) as f64).collect();
        let mut y1 = vec![0.0; 600];
        let mut y2 = vec![0.0; 600];
        e.spmv(&tuned, &x, &mut y1).unwrap();
        m.spmv(&x, &mut y2).unwrap();
        assert_eq!(y1, y2);
    }

    #[test]
    fn coo_group_triggers_lazy_r_computation() {
        let e = engine();
        let m = power_law::<f64>(2000, 400, 2.0, 5);
        let tuned = e.prepare(&m);
        // The DIA group does not match (many diagonals), so the COO group
        // is consulted, forcing R to be computed.
        assert!(tuned.features().r < smat_features::R_NOT_SCALE_FREE);
        assert_eq!(tuned.format(), Format::Coo);
    }

    #[test]
    fn dia_prediction_skips_r_computation() {
        let e = engine();
        let m = tridiagonal::<f64>(500);
        let tuned = e.prepare(&m);
        // Early exit at the DIA group: R stays at the sentinel.
        assert_eq!(tuned.features().r, smat_features::R_NOT_SCALE_FREE);
    }

    /// Engine wired for the plan-search tests: no classification rules
    /// (every input takes the measured path), CSR-only fallback, and a
    /// parallel CSR kernel choice so there is a plan worth searching.
    fn plan_search_engine() -> Smat<f64> {
        let mut m = model();
        m.ruleset.rules.clear();
        m.groups = RuleGroups::from_ruleset(&m.ruleset, &group_class_order());
        let lib = smat_kernels::KernelLibrary::<f64>::new();
        let v = lib
            .variants(Format::Csr)
            .iter()
            .position(|i| i.name == "csr_parallel")
            .unwrap();
        m.kernel_choice.set(Format::Csr, v);
        let cfg = SmatConfig {
            fallback_formats: vec![Format::Csr],
            ..SmatConfig::fast()
        };
        Smat::with_config(m, cfg).unwrap()
    }

    #[test]
    fn plan_search_refines_skewed_csr_and_replays_from_cache() {
        use smat_kernels::ChunkPolicy;
        let e = plan_search_engine();
        let m = power_law::<f64>(2000, 400, 2.0, 5);
        let tuned = e.prepare(&m);
        assert_eq!(tuned.format(), Format::Csr);
        // The R gate ran (skew detected), so the plan dimensions were
        // searched: the resulting policy is one of the raced candidates.
        assert!(tuned.features().r < smat_features::R_NOT_SCALE_FREE);
        assert!(
            matches!(
                tuned.plan().policy,
                ChunkPolicy::EqualRows | ChunkPolicy::NnzBalanced
            ),
            "searched plan has an unexpected policy: {:?}",
            tuned.plan().policy
        );
        // The cached decision replays the searched plan bit-identically.
        let again = e.prepare(&m);
        assert!(again.decision().is_cached());
        assert_eq!(again.plan(), tuned.plan());
        let x: Vec<f64> = (0..m.cols()).map(|i| (i as f64 * 0.13).sin()).collect();
        let mut y1 = vec![0.0; m.rows()];
        let mut y2 = vec![0.0; m.rows()];
        e.spmv(&tuned, &x, &mut y1).unwrap();
        e.spmv(&again, &x, &mut y2).unwrap();
        assert!(
            y1.iter().zip(&y2).all(|(a, b)| a == b),
            "cache replay must be bit-identical"
        );
    }

    #[test]
    fn plan_search_skips_near_uniform_matrices() {
        use smat_kernels::ChunkPolicy;
        let e = plan_search_engine();
        // Constant row degree: no scale-free structure to exploit.
        let m = random_uniform::<f64>(1500, 1500, 8, 3);
        let tuned = e.prepare(&m);
        assert_eq!(tuned.format(), Format::Csr);
        // The gate evaluated R, found no power law, and kept the
        // default equal-rows plan without measuring extra candidates.
        assert_eq!(tuned.features().r, smat_features::R_NOT_SCALE_FREE);
        assert_eq!(tuned.plan().policy, ChunkPolicy::EqualRows);
        let lib = smat_kernels::KernelLibrary::<f64>::new();
        let default_plan = lib.plan_for(&AnyMatrix::Csr(m), tuned.kernel());
        assert_eq!(tuned.plan().bounds, default_plan.bounds);
    }

    #[test]
    fn unmatched_input_falls_back_to_measurement() {
        let e = engine();
        // Unstructured matrix: no DIA (too many diagonals), no COO (no
        // power law) -> no rule matches -> execute-measure.
        let m = random_uniform::<f64>(800, 800, 12, 9);
        let tuned = e.prepare(&m);
        match tuned.decision() {
            DecisionPath::Measured { candidates, .. } => {
                assert!(!candidates.is_empty());
                assert!(candidates.iter().any(|&(f, _)| f == Format::Csr));
                for &(_, g) in candidates {
                    assert!(g > 0.0);
                }
            }
            other => panic!("expected fallback, got {other:?}"),
        }
        // CSR is kept unless the measured argmax beats it by more than
        // the margin, in which case the argmax is chosen.
        if let DecisionPath::Measured { candidates, .. } = tuned.decision() {
            let (best, best_g) = candidates
                .iter()
                .copied()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            let csr_g = candidates.iter().find(|c| c.0 == Format::Csr).unwrap().1;
            let clears = best_g > csr_g * (1.0 + smat_kernels::MARGIN);
            assert_eq!(tuned.format(), if clears { best } else { Format::Csr });
        }
    }

    /// `units` units of busy work the optimizer cannot elide.
    fn spin(units: u64) {
        let mut acc = 0u64;
        for i in 0..units * 1_000 {
            acc = acc.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(acc);
    }

    /// An always-measure, uncached engine racing CSR against COO, whose
    /// chosen kernels are registered spin loops: CSR's does three units
    /// of work, `coo_spin` whatever it does.
    fn spin_race_engine(coo_spin: KernelFn<f64>) -> Smat<f64> {
        fn csr_spin(_: &AnyMatrix<f64>, _: &[f64], _: &mut [f64]) {
            spin(3);
        }
        let lib = KernelLibrary::<f64>::new();
        let mut m = model();
        m.ruleset.rules.clear();
        m.groups = RuleGroups::from_ruleset(&m.ruleset, &group_class_order());
        m.kernel_choice
            .set(Format::Csr, lib.variant_count(Format::Csr));
        m.kernel_choice
            .set(Format::Coo, lib.variant_count(Format::Coo));
        let cfg = SmatConfig {
            fallback_formats: vec![Format::Csr, Format::Coo],
            fallback_budget: Duration::from_millis(5),
            cache_capacity: 0,
            ..SmatConfig::fast()
        };
        let mut e = Smat::with_config(m, cfg).unwrap();
        let none = smat_kernels::StrategySet::default();
        e.library_mut()
            .register(Format::Csr, "csr_spin", none, csr_spin);
        e.library_mut()
            .register(Format::Coo, "coo_spin", none, coo_spin);
        e
    }

    #[test]
    fn fallback_keeps_csr_unless_a_challenger_clears_the_margin() {
        fn coo_equal(_: &AnyMatrix<f64>, _: &[f64], _: &mut [f64]) {
            spin(3);
        }
        fn coo_third(_: &AnyMatrix<f64>, _: &[f64], _: &mut [f64]) {
            spin(1);
        }
        let m = random_uniform::<f64>(300, 300, 6, 12);
        // A floor of equal spins still jitters by more than the margin on
        // a shared host, so an equal challenger now and then measures
        // ahead by more than the margin and wins. Every call must follow
        // the rule on its own floors; the expected format must win most
        // calls.
        for (coo_spin, expect) in [
            (coo_equal as KernelFn<f64>, Format::Csr),
            (coo_third, Format::Coo),
        ] {
            let e = spin_race_engine(coo_spin);
            let mut expected = 0;
            for call in 0..20 {
                let tuned = e.prepare(&m);
                let DecisionPath::Measured { candidates, .. } = tuned.decision() else {
                    panic!("call {call}: {:?}", tuned.decision());
                };
                let g = |f| candidates.iter().find(|c| c.0 == f).unwrap().1;
                let clears = g(Format::Coo) > g(Format::Csr) * (1.0 + smat_kernels::MARGIN);
                assert_eq!(
                    tuned.format(),
                    if clears { Format::Coo } else { Format::Csr },
                    "call {call}: {:?}",
                    tuned.decision()
                );
                expected += usize::from(tuned.format() == expect);
            }
            assert!(expected >= 15, "{expect:?} won {expected} of 20 calls");
        }
    }

    #[test]
    fn low_confidence_rule_falls_back() {
        let mut m = model();
        // Crank the threshold above every group's confidence.
        let cfg = SmatConfig {
            confidence_threshold: 0.99,
            ..SmatConfig::fast()
        };
        m.precision = "double".into();
        let e = Smat::<f64>::with_config(m, cfg).unwrap();
        let tuned = e.prepare(&tridiagonal::<f64>(400));
        assert!(matches!(tuned.decision(), DecisionPath::Measured { .. }));
        // The predicted format (DIA) joins the fallback candidates.
        if let DecisionPath::Measured { candidates, .. } = tuned.decision() {
            assert!(candidates.iter().any(|&(f, _)| f == Format::Dia));
        }
    }

    #[test]
    fn csr_spmv_one_shot_matches_reference() {
        let e = engine();
        let m = random_uniform::<f64>(300, 250, 6, 4);
        let x: Vec<f64> = (0..250).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut y = vec![0.0; 300];
        let tuned = e.csr_spmv(&m, &x, &mut y).unwrap();
        let mut expect = vec![0.0; 300];
        m.spmv(&x, &mut expect).unwrap();
        assert_eq!(y, expect);
        assert!(tuned.prepare_time() > Duration::ZERO);
    }

    /// Per-column reference product gathered out of / scattered into
    /// row-major blocks, for checking `Smat::spmm` against `k`
    /// independent SpMV calls on the *original* CSR matrix.
    fn per_column_reference(m: &Csr<f64>, x: &[f64], k: usize) -> Vec<f64> {
        let mut y = vec![0.0; m.rows() * k];
        let mut xj = vec![0.0; m.cols()];
        let mut yj = vec![0.0; m.rows()];
        for j in 0..k {
            for c in 0..m.cols() {
                xj[c] = x[c * k + j];
            }
            m.spmv(&xj, &mut yj).unwrap();
            for r in 0..m.rows() {
                y[r * k + j] = yj[r];
            }
        }
        y
    }

    #[test]
    fn spmm_attaches_a_tiled_pick_and_matches_per_column_spmv() {
        let e = plan_search_engine();
        let m = random_uniform::<f64>(600, 600, 8, 11);
        let tuned = e.prepare(&m);
        assert_eq!(tuned.format(), Format::Csr);
        assert!(tuned.spmm_kernel().is_none(), "pick attaches lazily");
        let k = 4;
        let x: Vec<f64> = (0..m.cols() * k).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut y = vec![0.0; m.rows() * k];
        e.spmm(&tuned, &x, &mut y, k).unwrap();
        let kernel = tuned.spmm_kernel().expect("first call attaches the pick");
        assert_eq!(kernel.op, smat_kernels::Op::Spmm);
        assert_eq!(kernel.format, Format::Csr);
        let expect = per_column_reference(&m, &x, k);
        for (a, b) in y.iter().zip(&expect) {
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "spmm diverged from per-column spmv: {a} vs {b}"
            );
        }
        let report = e.health_report();
        assert_eq!(report.spmm_calls, 1);
        assert_eq!(report.spmv_calls, 0);
    }

    #[test]
    fn spmm_pick_replays_bitwise_from_the_tuning_cache() {
        let e = plan_search_engine();
        let m = power_law::<f64>(900, 200, 2.0, 7);
        let tuned = e.prepare(&m);
        let k = 8;
        let x: Vec<f64> = (0..m.cols() * k).map(|i| (i as f64 * 0.07).sin()).collect();
        let mut y1 = vec![0.0; m.rows() * k];
        e.spmm(&tuned, &x, &mut y1, k).unwrap();
        let kernel = tuned.spmm_kernel().unwrap();
        // A later prepare of the same structure replays the pick from
        // the cache: it is attached before any spmm call runs …
        let again = e.prepare(&m);
        assert!(again.decision().is_cached());
        assert_eq!(again.spmm_kernel(), Some(kernel));
        assert_eq!(again.spmm.get(), tuned.spmm.get());
        // … and the replayed product is bit-identical (same kernel,
        // same plan, same reduction order).
        let mut y2 = vec![0.0; m.rows() * k];
        e.spmm(&again, &x, &mut y2, k).unwrap();
        assert!(
            y1.iter().zip(&y2).all(|(a, b)| a == b),
            "cache replay must be bit-identical"
        );
    }

    /// An engine whose one rule (`M > 0`, confident) sends every input
    /// to `format`.
    fn forced_engine(format: Format) -> Smat<f64> {
        let mut m = model();
        m.ruleset.rules = vec![Rule {
            conditions: vec![Condition {
                attr: 0,
                op: Op::Gt,
                threshold: 0.0,
            }],
            class: format.index(),
            covered: 20,
            correct: 20,
        }];
        m.groups = RuleGroups::from_ruleset(&m.ruleset, &group_class_order());
        Smat::with_config(m, SmatConfig::fast()).unwrap()
    }

    #[test]
    fn spmm_attaches_a_pick_for_dia_coo_and_hyb_and_replays_it_from_the_cache() {
        use smat_matrix::gen::random_skewed;
        for (format, m) in [
            (Format::Dia, tridiagonal::<f64>(400)),
            (Format::Coo, power_law::<f64>(900, 200, 2.0, 7)),
            (Format::Hyb, random_skewed::<f64>(600, 600, 6, 0.05, 12, 4)),
        ] {
            let e = forced_engine(format);
            let tuned = e.prepare(&m);
            assert_eq!(tuned.format(), format);
            assert!(
                tuned.spmm_kernel().is_none(),
                "{format}: pick attaches lazily"
            );
            let k = 5;
            let x: Vec<f64> = (0..m.cols() * k).map(|i| (i as f64 * 0.07).sin()).collect();
            let mut y1 = vec![f64::NAN; m.rows() * k];
            e.spmm(&tuned, &x, &mut y1, k).unwrap();
            let kernel = tuned.spmm_kernel().expect("first call attaches a pick");
            assert_eq!((kernel.op, kernel.format), (smat_kernels::Op::Spmm, format));
            // Bitwise k calls of the format's own reference SpMV.
            for j in 0..k {
                let xj: Vec<f64> = (0..m.cols()).map(|c| x[c * k + j]).collect();
                let mut yj = vec![0.0; m.rows()];
                e.library().run(tuned.matrix(), 0, &xj, &mut yj);
                for r in 0..m.rows() {
                    assert_eq!(
                        y1[r * k + j].to_bits(),
                        yj[r].to_bits(),
                        "{format} ({r}, {j})"
                    );
                }
            }
            // A later prepare replays the pick before any spmm call, and
            // the replayed product is bit-identical.
            let again = e.prepare(&m);
            assert!(again.decision().is_cached());
            assert_eq!(again.spmm.get(), tuned.spmm.get());
            let mut y2 = vec![f64::NAN; m.rows() * k];
            e.spmm(&again, &x, &mut y2, k).unwrap();
            assert!(
                y1.iter().zip(&y2).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{format}: cache replay must be bit-identical"
            );
            assert_eq!(e.health_report().spmm_calls, 2);
        }
    }

    #[test]
    fn spmm_rejects_mismatched_blocks_and_accepts_k1() {
        let e = plan_search_engine();
        let m = random_uniform::<f64>(120, 90, 5, 2);
        let tuned = e.prepare(&m);
        let x = vec![1.0; 90 * 2];
        let mut y = vec![0.0; 120 * 2];
        assert!(matches!(
            e.spmm(&tuned, &x[..10], &mut y, 2),
            Err(SmatError::Matrix(_))
        ));
        assert!(matches!(
            e.spmm(&tuned, &x, &mut y[..10], 2),
            Err(SmatError::Matrix(_))
        ));
        // The k = 1 degenerate matches plain spmv.
        let x1 = vec![1.5; 90];
        let mut y1 = vec![0.0; 120];
        e.spmm(&tuned, &x1, &mut y1, 1).unwrap();
        let mut expect = vec![0.0; 120];
        m.spmv(&x1, &mut expect).unwrap();
        for (a, b) in y1.iter().zip(&expect) {
            assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn spmm_rejects_a_block_extent_past_usize_before_tuning() {
        let e = forced_engine(Format::Dia);
        let m = Csr::<f64>::identity(3072);
        let tuned = e.prepare(&m);
        assert_eq!(tuned.format(), Format::Dia);
        // 3072 * k is 2^64 + 2048: wrapped, it would match these blocks.
        let k = usize::MAX / 3072 + 1;
        let x = vec![1.0; 2048];
        let mut y = vec![0.0; 2048];
        assert!(matches!(
            e.spmm(&tuned, &x, &mut y, k),
            Err(SmatError::Matrix(_))
        ));
        // Refused before tuning: nothing ran, nothing was recorded, and
        // the handle's pick is still open.
        let report = e.health_report();
        assert_eq!(
            (report.calls, report.spmm_calls, report.exec_faults),
            (0, 0, 0)
        );
        assert!(report.recent_incidents.is_empty());
        assert!(tuned.spmm_kernel().is_none());
        // A later valid call tunes for real and picks a tiled row.
        let k = 2;
        let x: Vec<f64> = (0..3072 * k).map(|i| i as f64).collect();
        let mut y = vec![f64::NAN; 3072 * k];
        e.spmm(&tuned, &x, &mut y, k).unwrap();
        assert_eq!(y, x);
        let kernel = tuned.spmm_kernel().expect("a valid call attaches a pick");
        assert!(e
            .library()
            .info(kernel)
            .strategies
            .contains(smat_kernels::Strategy::Tile8));
    }

    #[test]
    fn expired_deadline_degrades_and_is_not_cached() {
        let e = engine();
        let m = random_uniform::<f64>(300, 300, 6, 9);
        let past = Instant::now() - Duration::from_millis(1);
        let tuned = e.prepare_with_deadline(&m, past);
        assert!(tuned.decision().is_degraded());
        assert_eq!(tuned.kernel(), KernelId::basic(Format::Csr));
        match tuned.decision() {
            DecisionPath::Degraded { reason } => {
                assert!(reason.contains("deadline"), "reason: {reason}")
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        // The degraded product is still correct.
        let x = vec![1.0; 300];
        let mut y = vec![0.0; 300];
        e.spmv(&tuned, &x, &mut y).unwrap();
        let mut expect = vec![0.0; 300];
        m.spmv(&x, &mut expect).unwrap();
        assert_eq!(y, expect);
        // Nothing was cached: a later unhurried call really tunes.
        let tuned2 = e.prepare(&m);
        assert!(!tuned2.decision().is_degraded());
        assert!(!tuned2.decision().is_cached());
    }

    #[test]
    fn deadline_does_not_block_cache_replay() {
        let e = engine();
        let m = random_uniform::<f64>(300, 300, 6, 10);
        let first = e.prepare(&m);
        assert!(!first.decision().is_degraded());
        // An already-expired deadline still serves the cached decision:
        // replay is the cheap path the deadline exists to protect.
        let past = Instant::now() - Duration::from_millis(1);
        let tuned = e.prepare_with_deadline(&m, past);
        assert!(tuned.decision().is_cached());
        assert_eq!(tuned.format(), first.format());
    }

    #[test]
    fn generous_deadline_tunes_normally() {
        let e = engine();
        let m = random_uniform::<f64>(300, 300, 6, 11);
        let tuned = e.prepare_with_deadline(&m, Instant::now() + Duration::from_secs(30));
        assert!(!tuned.decision().is_degraded());
    }

    #[test]
    fn poisoned_input_degrades_and_is_not_cached() {
        let e = engine();
        let mut m = tridiagonal::<f64>(300);
        m.values_mut()[7] = f64::NAN;
        let tuned = e.prepare(&m);
        assert!(tuned.decision().is_degraded());
        assert_eq!(tuned.format(), Format::Csr);
        assert_eq!(tuned.kernel(), KernelId::basic(Format::Csr));
        match tuned.decision() {
            DecisionPath::Degraded { reason } => assert!(reason.contains("non-finite")),
            other => panic!("expected Degraded, got {other:?}"),
        }
        // Degraded SpMV still runs (NaN propagates, but no panic).
        let x = vec![1.0; 300];
        let mut y = vec![0.0; 300];
        e.spmv(&tuned, &x, &mut y).unwrap();
        // The decision was not cached: a healthy matrix with the same
        // structure gets a real (non-degraded, non-cached) decision.
        let healthy = tridiagonal::<f64>(300);
        let tuned2 = e.prepare(&healthy);
        assert!(!tuned2.decision().is_degraded());
        assert!(!tuned2.decision().is_cached());
    }

    #[test]
    fn conversion_budget_prunes_fallback_candidates() {
        // A budget too small for any format's conversion leaves only
        // the formats that never allocate a converted copy... but CSR's
        // "conversion" is a clone, which is not budget-gated, so the
        // fallback still succeeds with CSR.
        let cfg = SmatConfig {
            confidence_threshold: 1.1, // force fallback
            conversion_budget_bytes: Some(0),
            fallback_formats: vec![Format::Csr, Format::Coo, Format::Ell],
            ..SmatConfig::fast()
        };
        let e = Smat::<f64>::with_config(model(), cfg).unwrap();
        let m = random_uniform::<f64>(300, 300, 8, 11);
        let tuned = e.prepare(&m);
        match tuned.decision() {
            DecisionPath::Measured {
                candidates,
                failures,
            } => {
                assert!(candidates.iter().all(|&(f, _)| f != Format::Ell));
                assert!(failures
                    .iter()
                    .any(|(f, why)| *f == Format::Ell && why.contains("budget")));
            }
            other => panic!("expected Measured with pruned ELL, got {other:?}"),
        }
    }

    #[test]
    fn panicking_registered_kernel_is_recorded_not_fatal() {
        use smat_kernels::StrategySet;
        fn bad_csr(_: &AnyMatrix<f64>, _: &[f64], _: &mut [f64]) {
            panic!("registered kernel exploded");
        }
        // Predict the variant index the registration below will get, so
        // the kernel choice can point at it before the engine is built.
        let bad_variant = KernelLibrary::<f64>::new().variant_count(Format::Csr);
        let mut model = model();
        model.kernel_choice.set(Format::Csr, bad_variant);
        let cfg = SmatConfig {
            confidence_threshold: 1.1, // force fallback
            fallback_formats: vec![Format::Csr],
            ..SmatConfig::fast()
        };
        let mut e = Smat::<f64>::with_config(model, cfg).unwrap();
        let id = e
            .library_mut()
            .register(Format::Csr, "csr_bad", StrategySet::default(), bad_csr);
        assert_eq!(id.variant, bad_variant);
        let m = random_uniform::<f64>(200, 200, 6, 3);
        let tuned = e.prepare(&m);
        // The only candidate panicked -> degraded, but still usable:
        // the degraded path pins the reference (variant 0) CSR kernel.
        assert!(tuned.decision().is_degraded());
        match tuned.decision() {
            DecisionPath::Degraded { reason } => {
                assert!(reason.contains("panicked"), "reason: {reason}");
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        let x = vec![1.0; 200];
        let mut y = vec![0.0; 200];
        e.spmv(&tuned, &x, &mut y).unwrap();
        let mut expect = vec![0.0; 200];
        m.spmv(&x, &mut expect).unwrap();
        assert_eq!(y, expect);
    }

    /// A `TunedSpmv` handle pointing at `kernel` on a physical CSR
    /// matrix — the serve-time analogue of a cached decision whose
    /// variant has gone bad.
    fn handle_for(m: &Csr<f64>, kernel: KernelId) -> TunedSpmv<f64> {
        TunedSpmv {
            matrix: AnyMatrix::Csr(m.clone()),
            decision: Decision {
                format: Format::Csr,
                kernel,
                features: extract_structure(m).features,
                source: DecisionPath::Predicted { confidence: 1.0 },
                plan: ExecPlan::serial(m.rows()),
                spmm: None,
            },
            prepare_time: Duration::ZERO,
            fingerprint: m.fingerprint(),
            spmm: OnceLock::new(),
        }
    }

    #[test]
    fn contained_panic_serves_reference_and_quarantines() {
        use smat_kernels::StrategySet;
        fn bad_csr(_: &AnyMatrix<f64>, _: &[f64], _: &mut [f64]) {
            panic!("kernel exploded at serve time");
        }
        let mut e = engine();
        let id = e
            .library_mut()
            .register(Format::Csr, "csr_bad", StrategySet::default(), bad_csr);
        let m = random_uniform::<f64>(200, 200, 6, 3);
        let tuned = handle_for(&m, id);
        let x: Vec<f64> = (0..200).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut expect = vec![0.0; 200];
        m.spmv(&x, &mut expect).unwrap();
        let mut y = vec![0.0; 200];
        // Every call returns Ok with the reference-path product, even
        // though the tuned kernel panics on each one.
        let threshold = u64::from(crate::BREAKER_THRESHOLD);
        for _ in 0..threshold {
            y.fill(f64::NAN);
            e.spmv(&tuned, &x, &mut y).unwrap();
            assert_eq!(y, expect);
        }
        let report = e.health_report();
        assert_eq!(report.calls, threshold);
        assert_eq!(report.exec_faults, threshold);
        assert_eq!(report.breaker_trips, 1);
        assert_eq!(report.quarantined_variants.len(), 1);
        assert_eq!(report.quarantined_variants[0].kernel, id);
        assert_eq!(report.quarantined_variants[0].name, "csr_bad");
        assert_eq!(report.recent_incidents.len(), threshold as usize);
        assert_eq!(report.recent_incidents[0].kind, FaultKind::Panic);
        assert_eq!(report.recent_incidents[0].fingerprint, m.fingerprint());
        assert!(report.recent_incidents[0].payload.contains("exploded"));
        // Quarantined: the breaker diverts to the reference path before
        // the kernel runs, so no further incidents accrue.
        e.spmv(&tuned, &x, &mut y).unwrap();
        assert_eq!(y, expect);
        assert_eq!(e.health_report().exec_faults, threshold);
    }

    #[test]
    fn half_open_reprobe_readmits_a_healed_kernel() {
        use smat_kernels::StrategySet;
        use std::sync::atomic::{AtomicBool, Ordering};
        static HEALED: AtomicBool = AtomicBool::new(false);
        fn flaky_csr(m: &AnyMatrix<f64>, x: &[f64], y: &mut [f64]) {
            if !HEALED.load(Ordering::Relaxed) {
                panic!("still broken");
            }
            m.spmv(x, y).expect("sized vectors");
        }
        HEALED.store(false, Ordering::Relaxed);
        let mut e = engine();
        let id =
            e.library_mut()
                .register(Format::Csr, "csr_flaky", StrategySet::default(), flaky_csr);
        let m = tridiagonal::<f64>(150);
        let tuned = handle_for(&m, id);
        let x = vec![1.0; 150];
        let mut y = vec![0.0; 150];
        let mut expect = vec![0.0; 150];
        m.spmv(&x, &mut expect).unwrap();
        // The first BREAKER_THRESHOLD calls fault and trip the breaker
        // (reopen_at = threshold + backoff); the calls before reopen_at
        // divert to the reference path.
        let threshold = u64::from(crate::BREAKER_THRESHOLD);
        let reopen_at = threshold + crate::BREAKER_BACKOFF_CALLS;
        for _ in 1..reopen_at {
            e.spmv(&tuned, &x, &mut y).unwrap();
            assert_eq!(y, expect);
        }
        assert_eq!(e.health_report().exec_faults, threshold);
        assert!(!e.health_report().quarantined_variants.is_empty());
        // Call reopen_at claims the half-open probe; the kernel has
        // healed, so the breaker closes and the variant is readmitted.
        HEALED.store(true, Ordering::Relaxed);
        e.spmv(&tuned, &x, &mut y).unwrap();
        assert_eq!(y, expect);
        let report = e.health_report();
        assert_eq!(report.reprobe_successes, 1);
        assert!(report.quarantined_variants.is_empty());
    }

    #[test]
    fn quarantined_kernel_evicts_cached_decision_and_retunes() {
        use smat_kernels::StrategySet;
        fn bad_csr(_: &AnyMatrix<f64>, _: &[f64], _: &mut [f64]) {
            panic!("cached variant gone bad");
        }
        let mut e = engine();
        let id = e.library_mut().register(
            Format::Csr,
            "csr_cached_bad",
            StrategySet::default(),
            bad_csr,
        );
        let m = random_uniform::<f64>(180, 180, 5, 8);
        // Plant a cached decision pointing at the (healthy-looking)
        // registered variant, as if a previous process had tuned to it.
        e.cache.insert(
            m.fingerprint(),
            Decision {
                format: Format::Csr,
                kernel: id,
                features: extract_structure(&m).features,
                source: DecisionPath::Predicted { confidence: 1.0 },
                plan: ExecPlan::serial(m.rows()),
                spmm: None,
            },
        );
        let hit = e.prepare(&m);
        assert!(hit.decision().is_cached());
        assert_eq!(hit.kernel(), id);
        // BREAKER_THRESHOLD faults quarantine the variant.
        let x = vec![1.0; 180];
        let mut y = vec![0.0; 180];
        for _ in 0..crate::BREAKER_THRESHOLD {
            e.spmv(&hit, &x, &mut y).unwrap();
        }
        assert_eq!(e.health_report().quarantined_variants.len(), 1);
        // The next prepare finds the entry poisoned, evicts it and
        // re-tunes to a different kernel.
        let again = e.prepare(&m);
        assert!(!again.decision().is_cached());
        assert_ne!(again.kernel(), id);
        assert_eq!(e.health_report().quarantine_evictions, 1);
    }

    #[test]
    fn quarantined_spmm_pick_is_replaced_in_the_cache() {
        let e = plan_search_engine();
        let m = random_uniform::<f64>(600, 600, 8, 11);
        let k = 4;
        let x: Vec<f64> = (0..m.cols() * k).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut y = vec![0.0; m.rows() * k];
        let first = e.prepare(&m);
        e.spmm(&first, &x, &mut y, k).unwrap();
        let benched = first.spmm_kernel().unwrap();
        e.health.seed_quarantine(&[benched]);
        // The next handle leaves the benched pick behind and its first
        // `spmm` call tunes a replacement …
        let second = e.prepare(&m);
        assert!(second.decision().is_cached());
        assert_eq!(second.spmm_kernel(), None);
        e.spmm(&second, &x, &mut y, k).unwrap();
        let replacement = second.spmm_kernel().unwrap();
        assert_ne!(replacement, benched);
        // … which the cache now replays, instead of benching the old
        // pick on every later handle.
        let third = e.prepare(&m);
        assert!(third.decision().is_cached());
        assert_eq!(third.spmm_kernel(), Some(replacement));
    }

    #[test]
    fn output_screening_flags_nonfinite_products_from_finite_inputs() {
        use smat_kernels::StrategySet;
        fn poisoning_csr(m: &AnyMatrix<f64>, x: &[f64], y: &mut [f64]) {
            m.spmv(x, y).expect("sized vectors");
            y[0] = f64::NAN;
        }
        let cfg = SmatConfig {
            screen_outputs: true,
            ..SmatConfig::fast()
        };
        let mut e = Smat::<f64>::with_config(model(), cfg).unwrap();
        let id = e.library_mut().register(
            Format::Csr,
            "csr_poison",
            StrategySet::default(),
            poisoning_csr,
        );
        let m = tridiagonal::<f64>(120);
        let tuned = handle_for(&m, id);
        let x = vec![1.0; 120];
        let mut y = vec![0.0; 120];
        let mut expect = vec![0.0; 120];
        m.spmv(&x, &mut expect).unwrap();
        for _ in 0..crate::BREAKER_THRESHOLD {
            y.fill(0.0);
            e.spmv(&tuned, &x, &mut y).unwrap();
            // Screening caught the NaN, re-ran the reference, and served
            // the clean product.
            assert_eq!(y, expect);
        }
        let report = e.health_report();
        assert_eq!(report.exec_faults, u64::from(crate::BREAKER_THRESHOLD));
        assert_eq!(report.recent_incidents[0].kind, FaultKind::NonFinite);
        assert_eq!(report.quarantined_variants.len(), 1);
    }

    #[test]
    fn output_screening_blames_poisoned_data_on_nobody() {
        // A matrix with NaN values produces a non-finite product from
        // the reference kernel too: that is the data's fault, not the
        // kernel's, so no incident is recorded.
        let cfg = SmatConfig {
            screen_outputs: true,
            ..SmatConfig::fast()
        };
        let e = Smat::<f64>::with_config(model(), cfg).unwrap();
        let mut m = tridiagonal::<f64>(80);
        m.values_mut()[0] = f64::NAN;
        let tuned = e.prepare(&m);
        let x = vec![1.0; 80];
        let mut y = vec![0.0; 80];
        e.spmv(&tuned, &x, &mut y).unwrap();
        assert!(y.iter().any(|v| !v.is_finite()));
        assert_eq!(e.health_report().exec_faults, 0);
    }

    #[test]
    fn cache_counters_live_in_cache_stats_alone() {
        let e = engine();
        let m = tridiagonal::<f64>(100);
        e.prepare(&m); // miss
        e.prepare(&m); // hit
        let cache = e.cache_stats();
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.misses, 1);
        let health = serde_json::to_string(&e.health_report()).unwrap();
        for mirror in ["cache_hits", "cache_misses", "coalesced_waits"] {
            assert!(!health.contains(mirror), "{mirror} in {health}");
        }
    }

    #[test]
    fn quarantine_lists_keep_one_order_on_every_engine() {
        let spmv = KernelId {
            op: smat_kernels::Op::Spmv,
            format: Format::Csr,
            variant: 1,
        };
        let spmm = KernelId {
            op: smat_kernels::Op::Spmm,
            ..spmv
        };
        let path = cache_tmp("quarantine_order.json");
        let digest = KernelLibrary::<f64>::new().digest();
        // Each engine's breaker registry is a fresh `HashMap`, so an
        // order that followed the map would differ across engines.
        for round in 0..20 {
            let seeded = if round % 2 == 0 {
                vec![spmv, spmm]
            } else {
                vec![spmm, spmv]
            };
            let installation = Installation {
                schema: crate::INSTALL_SCHEMA_VERSION,
                precision: "double".into(),
                library_digest: digest,
                probe_dim: 0,
                kernel_choice: KernelChoice::basic(),
                tables: Vec::new(),
                quarantined: seeded,
            };
            let mut e =
                Smat::<f64>::with_installation(model(), SmatConfig::fast(), installation).unwrap();
            let reported: Vec<KernelId> = e
                .health_report()
                .quarantined_variants
                .iter()
                .map(|q| q.kernel)
                .collect();
            assert_eq!(reported, [spmv, spmm], "round {round}");
            // An adopted installation has no path; give it one so the
            // engine re-saves it as a breaker trip does.
            e.config.install_path = Some(path.clone());
            e.persist_quarantine();
            let saved = Installation::load(&path).unwrap().quarantined;
            assert_eq!(saved, [spmv, spmm], "round {round}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn uncached_engine_counts_every_prepare_as_a_miss() {
        let config = SmatConfig {
            cache_capacity: 0,
            ..SmatConfig::fast()
        };
        let e = Smat::with_config(model(), config).unwrap();
        let m = tridiagonal::<f64>(100);
        for _ in 0..3 {
            e.prepare(&m);
        }
        let cache = e.cache_stats();
        assert_eq!(cache.hits, 0);
        assert_eq!(cache.misses, 3);
        assert!(cache.miss_time > Duration::ZERO);
    }

    #[test]
    fn spmv_dimension_errors() {
        let e = engine();
        let m = tridiagonal::<f64>(50);
        let tuned = e.prepare(&m);
        let mut y = vec![0.0; 50];
        assert!(e.spmv(&tuned, &[1.0; 49], &mut y).is_err());
        assert!(e.spmv(&tuned, &[1.0; 50], &mut y[..10]).is_err());
    }

    fn cache_tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("smat_cache_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn cache_snapshot_round_trips_and_warm_starts() {
        let e = engine();
        let m1 = tridiagonal::<f64>(300);
        let m2 = random_uniform::<f64>(400, 400, 10, 7);
        e.prepare(&m1);
        e.prepare(&m2);
        let path = cache_tmp("roundtrip.json");
        let written = e.save_cache(&path).unwrap();
        assert_eq!(written, 2);

        // A fresh engine warm-started from the snapshot serves both
        // structures as cache hits.
        let warm = engine();
        assert_eq!(warm.load_cache(&path).unwrap(), 2);
        let tuned = warm.prepare(&m1);
        assert!(tuned.decision().is_cached(), "got {:?}", tuned.decision());
        let tuned = warm.prepare(&m2);
        assert!(tuned.decision().is_cached(), "got {:?}", tuned.decision());
        // Replayed decisions still compute correct products.
        let x = vec![1.0; 400];
        let mut y = vec![0.0; 400];
        warm.spmv(&tuned, &x, &mut y).unwrap();
        let mut expect = vec![0.0; 400];
        m2.spmv(&x, &mut expect).unwrap();
        assert_eq!(y, expect);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cached_format_this_engine_cannot_convert_is_retuned() {
        // An engine without a byte budget tunes the structure to DIA …
        let e = engine();
        let m = tridiagonal::<f64>(3000);
        assert_eq!(e.prepare(&m).format(), Format::Dia);
        let path = cache_tmp("unconvertible_hit.json");
        e.save_cache(&path).unwrap();
        // … and one whose budget refuses that conversion warm-starts
        // from its snapshot.
        let cfg = SmatConfig {
            conversion_budget_bytes: Some(1024),
            ..SmatConfig::fast()
        };
        let tight = Smat::with_config(model(), cfg).unwrap();
        assert_eq!(tight.load_cache(&path).unwrap(), 1);
        std::fs::remove_file(&path).ok();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let tuned = tight.prepare(&m);
            let again = tight.prepare(&m);
            tx.send((tuned.format(), tuned.decision().clone(), again))
                .unwrap();
        });
        let (format, decision, again) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("prepare never returned on a hit it cannot convert");
        // The hit was evicted and the structure raced afresh within
        // this engine's limits; the new decision replaces the old.
        assert_ne!(format, Format::Dia);
        assert!(
            matches!(decision, DecisionPath::Measured { .. }),
            "{decision:?}"
        );
        assert!(again.decision().is_cached());
        assert_eq!(again.format(), format);
    }

    #[test]
    fn tampered_cache_snapshot_is_rejected_as_corrupt() {
        let e = engine();
        e.prepare(&tridiagonal::<f64>(200));
        let path = cache_tmp("tampered.json");
        e.save_cache(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Flip the kernel variant without refreshing the checksum.
        let tampered = text.replacen("\"variant\": 0", "\"variant\": 7", 1);
        assert_ne!(text, tampered, "tamper target must exist");
        std::fs::write(&path, tampered).unwrap();
        let err = engine().load_cache(&path).unwrap_err();
        assert!(matches!(err, SmatError::Corrupt { .. }), "got {err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cache_snapshot_precision_is_checked() {
        let e = engine();
        e.prepare(&tridiagonal::<f64>(150));
        let path = cache_tmp("precision.json");
        e.save_cache(&path).unwrap();
        let mut single_model = model();
        single_model.precision = "single".into();
        let single = Smat::<f32>::with_config(single_model, SmatConfig::fast()).unwrap();
        let err = single.load_cache(&path).unwrap_err();
        assert!(
            matches!(err, SmatError::PrecisionMismatch { .. }),
            "got {err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_cache_snapshot_is_a_persist_error() {
        let err = engine()
            .load_cache("/nonexistent/dir/cache.json")
            .unwrap_err();
        assert_eq!(err.taxonomy(), "persist");
        assert!(err.is_transient());
    }

    // -----------------------------------------------------------------
    // Handle registry
    // -----------------------------------------------------------------

    #[test]
    fn handle_registry_serves_hits_and_counts_misses() {
        let e = engine();
        let reg = crate::HandleRegistry::new(8, 0);
        let a = tridiagonal::<f64>(200);
        let tuned = e.prepare(&a);
        let fp = tuned.fingerprint();
        let arc = reg.insert(tuned);
        assert_eq!(reg.len(), 1);
        let hit = reg.lookup(&fp).expect("registered handle resolves");
        assert!(Arc::ptr_eq(&arc, &hit));
        let other = e.prepare(&tridiagonal::<f64>(201)).fingerprint();
        assert!(reg.lookup(&other).is_none());
        let stats = reg.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
        assert_eq!(stats.resident_bytes, arc.resident_bytes());
    }

    #[test]
    fn handle_registry_evicts_lru_at_capacity() {
        let e = engine();
        let reg = crate::HandleRegistry::new(2, 0);
        let fps: Vec<_> = [200, 300, 400]
            .iter()
            .map(|&n| {
                let tuned = e.prepare(&tridiagonal::<f64>(n));
                let fp = tuned.fingerprint();
                reg.insert(tuned);
                fp
            })
            .collect();
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.stats().evictions, 1);
        // Oldest insert went first; the newer two are resident.
        assert!(reg.lookup(&fps[0]).is_none());
        assert!(reg.lookup(&fps[1]).is_some());
        assert!(reg.lookup(&fps[2]).is_some());
    }

    #[test]
    fn handle_registry_lookup_refreshes_lru_order() {
        let e = engine();
        let reg = crate::HandleRegistry::new(2, 0);
        let a = e.prepare(&tridiagonal::<f64>(200));
        let b = e.prepare(&tridiagonal::<f64>(300));
        let (fa, fb) = (a.fingerprint(), b.fingerprint());
        reg.insert(a);
        reg.insert(b);
        // Touch `a`, then overflow: `b` is now the least recent.
        assert!(reg.lookup(&fa).is_some());
        reg.insert(e.prepare(&tridiagonal::<f64>(400)));
        assert!(reg.lookup(&fa).is_some());
        assert!(reg.lookup(&fb).is_none());
    }

    #[test]
    fn handle_registry_enforces_byte_budget_but_keeps_newest() {
        let e = engine();
        let small = e.prepare(&tridiagonal::<f64>(100));
        let budget = small.resident_bytes() + 1;
        let reg = crate::HandleRegistry::new(64, budget);
        let f_small = small.fingerprint();
        reg.insert(small);
        // A second matrix overflows the budget: the older one goes.
        let big = e.prepare(&tridiagonal::<f64>(5_000));
        let f_big = big.fingerprint();
        reg.insert(big);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.stats().evictions, 1);
        assert!(reg.lookup(&f_small).is_none());
        // The newest entry survives even though it alone exceeds the
        // budget — otherwise the warm path could never warm up.
        assert!(reg.lookup(&f_big).is_some());
        assert!(reg.stats().resident_bytes > budget);
    }

    #[test]
    fn handle_registry_replaces_same_fingerprint_in_place() {
        let e = engine();
        let reg = crate::HandleRegistry::new(4, 0);
        let a = tridiagonal::<f64>(250);
        reg.insert(e.prepare(&a));
        let before = reg.stats();
        let fresh = reg.insert(e.prepare(&a));
        let after = reg.stats();
        assert_eq!(after.entries, 1);
        assert_eq!(after.resident_bytes, before.resident_bytes);
        assert_eq!(after.evictions, 0);
        let resolved = reg.lookup(&fresh.fingerprint()).unwrap();
        assert!(Arc::ptr_eq(&resolved, &fresh), "replacement wins");
    }

    #[test]
    fn handle_registry_capacity_zero_disables_retention() {
        let e = engine();
        let reg = crate::HandleRegistry::new(0, 0);
        let tuned = e.prepare(&tridiagonal::<f64>(150));
        let fp = tuned.fingerprint();
        let arc = reg.insert(tuned);
        // The caller still gets a usable handle, but nothing resides.
        assert_eq!(arc.fingerprint(), fp);
        assert!(reg.is_empty());
        assert!(reg.lookup(&fp).is_none());
        assert_eq!(reg.stats().misses, 1);
    }

    #[test]
    fn evicted_handles_stay_alive_for_inflight_calls() {
        let e = engine();
        let reg = crate::HandleRegistry::new(1, 0);
        let held = reg.insert(e.prepare(&tridiagonal::<f64>(200)));
        reg.insert(e.prepare(&tridiagonal::<f64>(300)));
        assert_eq!(reg.stats().evictions, 1);
        // The Arc handed out before eviction still executes.
        let x = vec![1.0; 200];
        let mut y = vec![0.0; 200];
        e.spmv(&held, &x, &mut y).unwrap();
        assert!(y.iter().all(|v| v.is_finite()));
    }
}
