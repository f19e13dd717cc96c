//! The structural-fingerprint tuning cache.
//!
//! The paper's AMG application (§7.4, Table 4) re-tunes dynamically
//! generated operators whose sparsity structure recurs across setup
//! phases while values change. Every tuning input — the Table 2
//! features, the rule groups, even the execute-and-measure candidate
//! set — is a function of structure alone, so a decision computed once
//! per [`StructuralFingerprint`] can be replayed for any matrix with
//! the same pattern. A hit skips feature extraction, rule-group
//! evaluation and fallback measurement; only the (unavoidable) physical
//! conversion of the new values into the chosen format remains.
//!
//! The cache is bounded LRU with interior mutability (a [`Mutex`] map
//! plus atomic counters), which is what keeps the surrounding
//! [`crate::Smat`] engine `Send + Sync` behind a shared reference.

use crate::error::Result;
use crate::integrity::fnv1a64_of_debug;
use crate::lru::Lru;
use crate::runtime::DecisionPath;
use crate::sealed;
use serde::{Deserialize, Serialize};
use smat_features::FeatureVector;
use smat_kernels::{ExecPlan, KernelId};
use smat_matrix::{Format, Scalar, StructuralFingerprint};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// A replayable multi-RHS (SpMM) pick: the winning kernel of the
/// format's SpMM table and its searched execution plan. Structure-only like the rest of the
/// decision — the rhs-tile width lives on the kernel's strategy bits
/// and the plan's chunk bounds depend only on the pattern, so a pick
/// computed once per fingerprint replays bit-identically for any
/// matrix sharing it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct CachedSpmm {
    /// The winning SpMM kernel (`op == Op::Spmm`).
    pub kernel: KernelId,
    /// The searched chunk plan for that kernel.
    pub plan: ExecPlan,
}

/// A tuning decision: what a [`crate::TunedSpmv`] holds beside its
/// matrix, and what the cache stores per fingerprint. Everything in it
/// is structure-only, so it replays for any matrix sharing the pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Decision {
    /// The chosen storage format.
    pub format: Format,
    /// The searched kernel for that format.
    pub kernel: KernelId,
    /// Features extracted on the original miss (`R` only if it was
    /// needed).
    pub features: FeatureVector,
    /// How the decision was reached.
    pub source: DecisionPath,
    /// Precomputed chunk bounds for the chosen kernel; rebuilt on hit
    /// when stale (built for a different thread count).
    pub plan: ExecPlan,
    /// The cache's multi-RHS pick, written by the first
    /// [`crate::Smat::spmm`] call on the structure (`None` until then,
    /// or when no SpMM candidate survived measurement). A handle moves
    /// it into its own lazily-filled slot, so this is `None` there.
    pub spmm: Option<CachedSpmm>,
}

/// Hit/miss/latency counters for the tuning cache, as surfaced by
/// [`crate::Smat::cache_stats`] and the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// `prepare` calls answered from the cache.
    pub hits: u64,
    /// `prepare` calls that ran the full tuning pipeline.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries (0 = caching disabled).
    pub capacity: usize,
    /// Total wall-clock spent in cache-hit `prepare` calls.
    pub hit_time: Duration,
    /// Total wall-clock spent in cache-miss `prepare` calls.
    pub miss_time: Duration,
    /// Entries evicted because their checksum no longer matched their
    /// contents (memory corruption / poisoning); each such lookup is
    /// answered as a miss and the matrix re-tuned.
    pub corrupt_evictions: u64,
    /// Times a poisoned cache mutex was recovered by discarding the
    /// resident entries instead of aborting the process. Non-zero means
    /// a panic unwound through a cache critical section.
    pub poison_recoveries: u64,
    /// `prepare` calls that joined an in-flight tuning run for the same
    /// fingerprint (single-flight deduplication) instead of tuning
    /// redundantly.
    pub coalesced_waits: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups, or 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter difference `self - earlier`, for reporting the cache
    /// traffic of one phase (e.g. a single AMG setup).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            entries: self.entries,
            capacity: self.capacity,
            hit_time: self.hit_time.saturating_sub(earlier.hit_time),
            miss_time: self.miss_time.saturating_sub(earlier.miss_time),
            corrupt_evictions: self.corrupt_evictions - earlier.corrupt_evictions,
            poison_recoveries: self.poison_recoveries - earlier.poison_recoveries,
            coalesced_waits: self.coalesced_waits - earlier.coalesced_waits,
        }
    }
}

/// One resident cache entry: the decision plus the checksum taken at
/// insertion, verified on every hit.
#[derive(Debug)]
struct Slot {
    checksum: u64,
    decision: Decision,
}

/// Bounded LRU map from structural fingerprints to tuning decisions:
/// the shared [`Lru`] store plus a checksum per entry and the
/// `prepare` counters.
#[derive(Debug)]
pub(crate) struct TuningCache {
    map: Mutex<Lru<Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
    hit_nanos: AtomicU64,
    miss_nanos: AtomicU64,
    corrupt_evictions: AtomicU64,
    coalesced_waits: AtomicU64,
}

impl TuningCache {
    /// An empty cache holding at most `capacity` decisions; 0 disables
    /// caching (every lookup misses, nothing is stored).
    pub fn new(capacity: usize) -> Self {
        TuningCache {
            map: Mutex::new(Lru::new(capacity, 0)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            hit_nanos: AtomicU64::new(0),
            miss_nanos: AtomicU64::new(0),
            corrupt_evictions: AtomicU64::new(0),
            coalesced_waits: AtomicU64::new(0),
        }
    }

    /// Looks up a fingerprint, refreshing its LRU stamp on hit. Does
    /// not touch the hit/miss counters — the runtime records those
    /// together with the elapsed prepare time via [`Self::record`].
    ///
    /// Every hit re-verifies the entry's checksum; an entry whose
    /// contents no longer match is evicted and the lookup answered as
    /// a miss, forcing a re-tune instead of replaying a poisoned
    /// decision.
    pub fn get(&self, key: &StructuralFingerprint) -> Option<Decision> {
        let mut map = Lru::lock(&self.map);
        let slot = map.get_mut(key)?;
        if fnv1a64_of_debug(&slot.decision) != slot.checksum {
            map.remove(key);
            self.corrupt_evictions.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        Some(slot.decision.clone())
    }

    /// Inserts a decision, evicting the least-recently-used entry when
    /// full.
    pub fn insert(&self, key: StructuralFingerprint, decision: Decision) {
        let mut map = Lru::lock(&self.map);
        // Failpoint `cache.insert` runs while the lock is held: a
        // scripted `panic` unwinds through this critical section and
        // poisons the mutex — exactly the condition `Lru::lock` must
        // recover from — while a scripted `fail` models an insertion
        // refusal (the decision is simply not cached).
        if smat_failpoints::check("cache.insert").is_some() {
            return;
        }
        let checksum = fnv1a64_of_debug(&decision);
        map.insert(key, Slot { checksum, decision }, 0);
    }

    /// Records the outcome and latency of one `prepare` call.
    pub fn record(&self, hit: bool, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.hit_nanos.fetch_add(nanos, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.miss_nanos.fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// Counts one `prepare` call that joined an in-flight tuning run
    /// instead of tuning redundantly.
    pub fn record_coalesced_wait(&self) {
        self.coalesced_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let map = Lru::lock(&self.map);
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: map.len(),
            capacity: map.capacity,
            hit_time: Duration::from_nanos(self.hit_nanos.load(Ordering::Relaxed)),
            miss_time: Duration::from_nanos(self.miss_nanos.load(Ordering::Relaxed)),
            corrupt_evictions: self.corrupt_evictions.load(Ordering::Relaxed),
            poison_recoveries: map.poison_recoveries,
            coalesced_waits: self.coalesced_waits.load(Ordering::Relaxed),
        }
    }

    /// Removes one entry (e.g. a decision whose kernel was quarantined
    /// after it was cached); the next lookup re-tunes. Returns whether
    /// an entry was resident.
    pub fn remove(&self, key: &StructuralFingerprint) -> bool {
        Lru::lock(&self.map).remove(key).is_some()
    }

    /// Drops every entry; counters are preserved.
    pub fn clear(&self) {
        Lru::lock(&self.map).clear();
    }

    /// Copies out every resident entry, for persistence. Checksums are
    /// re-verified so a corrupt entry is dropped (and counted) rather
    /// than written to disk.
    pub fn snapshot(&self) -> Vec<(StructuralFingerprint, Decision)> {
        let mut map = Lru::lock(&self.map);
        let mut corrupt: Vec<StructuralFingerprint> = Vec::new();
        let mut out: Vec<(StructuralFingerprint, Decision)> = Vec::new();
        for (key, slot) in map.iter() {
            if fnv1a64_of_debug(&slot.decision) == slot.checksum {
                out.push((*key, slot.decision.clone()));
            } else {
                corrupt.push(*key);
            }
        }
        for key in corrupt {
            map.remove(&key);
            self.corrupt_evictions.fetch_add(1, Ordering::Relaxed);
        }
        // Deterministic order for stable on-disk artifacts.
        out.sort_by_key(|(key, _)| fnv1a64_of_debug(key));
        out
    }

    /// Replays previously snapshotted entries into the cache (normal
    /// LRU insertion: capacity still applies).
    pub fn absorb(&self, entries: Vec<(StructuralFingerprint, Decision)>) {
        for (key, decision) in entries {
            self.insert(key, decision);
        }
    }

    /// Seals the resident entries to `path` (see [`crate::sealed`]),
    /// stamped with the `T` engine's precision and `digest`: the kernel
    /// library their kernel ids index into, folded with the fingerprint
    /// algorithm their keys come from. Returns the number of entries
    /// written.
    pub fn save<T: Scalar>(&self, path: &Path, digest: u64) -> Result<usize> {
        let snapshot = Snapshot {
            precision: T::PRECISION_NAME.to_string(),
            library_digest: digest,
            entries: self.snapshot(),
        };
        sealed::save(&snapshot, path, "cache.persist")?;
        Ok(snapshot.entries.len())
    }

    /// Absorbs a snapshot written by [`Self::save`] after verifying its
    /// checksum, precision and library digest, in that order. Returns
    /// the number of entries absorbed.
    pub fn load<T: Scalar>(&self, path: &Path, digest: u64) -> Result<usize> {
        let what = "tuning cache snapshot";
        let snapshot: Snapshot = sealed::load(what, path, "cache.load")?;
        sealed::check_stamp::<T>(what, &snapshot.precision, snapshot.library_digest, digest)?;
        let count = snapshot.entries.len();
        self.absorb(snapshot.entries);
        Ok(count)
    }
}

/// What a tuning-cache snapshot file seals.
#[derive(Serialize, Deserialize)]
struct Snapshot {
    /// Precision of the engine that wrote the snapshot.
    precision: String,
    /// [`smat_kernels::KernelLibrary::digest`] of the engine that wrote
    /// the snapshot (the entries' kernel ids are raw indices into its
    /// tables) xor [`StructuralFingerprint::ALGORITHM`] (their keys are
    /// digests under it).
    library_digest: u64,
    entries: Vec<(StructuralFingerprint, Decision)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_matrix::gen::{random_uniform, tridiagonal};

    fn decision(format: Format) -> Decision {
        Decision {
            format,
            kernel: KernelId {
                op: smat_kernels::Op::Spmv,
                format,
                variant: 0,
            },
            features: FeatureVector::from_array([1.0; 11]),
            source: DecisionPath::Predicted { confidence: 0.9 },
            plan: ExecPlan::serial(50),
            spmm: None,
        }
    }

    #[test]
    fn insert_then_get_round_trips() {
        let cache = TuningCache::new(4);
        let key = tridiagonal::<f64>(50).fingerprint();
        assert!(cache.get(&key).is_none());
        cache.insert(key, decision(Format::Dia));
        assert_eq!(cache.get(&key).unwrap().format, Format::Dia);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let cache = TuningCache::new(0);
        let key = tridiagonal::<f64>(50).fingerprint();
        cache.insert(key, decision(Format::Dia));
        assert!(cache.get(&key).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let cache = TuningCache::new(2);
        let k1 = tridiagonal::<f64>(10).fingerprint();
        let k2 = tridiagonal::<f64>(11).fingerprint();
        let k3 = tridiagonal::<f64>(12).fingerprint();
        cache.insert(k1, decision(Format::Dia));
        cache.insert(k2, decision(Format::Ell));
        // Touch k1 so k2 is now least recent.
        assert!(cache.get(&k1).is_some());
        cache.insert(k3, decision(Format::Csr));
        assert!(cache.get(&k1).is_some(), "recently used entry survives");
        assert!(cache.get(&k2).is_none(), "LRU entry evicted");
        assert!(cache.get(&k3).is_some());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn counters_accumulate_and_diff() {
        let cache = TuningCache::new(4);
        cache.record(false, Duration::from_micros(500));
        cache.record(true, Duration::from_micros(5));
        cache.record(true, Duration::from_micros(7));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        assert_eq!(s.hit_time, Duration::from_micros(12));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        cache.record(true, Duration::from_micros(1));
        let delta = cache.stats().since(&s);
        assert_eq!((delta.hits, delta.misses), (1, 0));
        assert_eq!(delta.hit_time, Duration::from_micros(1));
    }

    #[test]
    fn corrupt_entry_is_evicted_and_counted() {
        let cache = TuningCache::new(4);
        let key = tridiagonal::<f64>(60).fingerprint();
        cache.insert(key, decision(Format::Ell));
        assert!(cache.get(&key).is_some());
        // Simulate in-memory corruption: flip the stored decision
        // without refreshing its checksum.
        {
            let mut map = cache.map.lock().unwrap();
            let slot = map.get_mut(&key).unwrap();
            slot.decision.kernel.variant = 999;
        }
        assert!(cache.get(&key).is_none(), "corrupt entry must not replay");
        assert_eq!(cache.stats().corrupt_evictions, 1);
        assert_eq!(cache.stats().entries, 0, "corrupt entry is evicted");
        // The slot is reusable: a fresh insert round-trips again.
        cache.insert(key, decision(Format::Dia));
        assert_eq!(cache.get(&key).unwrap().format, Format::Dia);
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_aborting() {
        let cache = std::sync::Arc::new(TuningCache::new(4));
        let key = tridiagonal::<f64>(30).fingerprint();
        cache.insert(key, decision(Format::Dia));
        // Poison the mutex: a thread panics while holding the lock.
        let poisoner = std::sync::Arc::clone(&cache);
        let joined = std::thread::spawn(move || {
            let _guard = poisoner.map.lock().unwrap();
            panic!("poisoning the tuning cache");
        })
        .join();
        assert!(joined.is_err(), "the poisoning thread must have panicked");
        // The next access recovers: entries are dropped, the event is
        // counted, and the process does not abort.
        assert!(cache.get(&key).is_none(), "recovery drops resident entries");
        assert_eq!(cache.stats().poison_recoveries, 1);
        // The cache stays fully usable afterwards.
        cache.insert(key, decision(Format::Ell));
        assert_eq!(cache.get(&key).unwrap().format, Format::Ell);
        assert_eq!(
            cache.stats().poison_recoveries,
            1,
            "poison flag was cleared, so recovery fires once"
        );
    }

    #[test]
    fn snapshot_absorb_round_trips() {
        let cache = TuningCache::new(8);
        let k1 = tridiagonal::<f64>(20).fingerprint();
        let k2 = tridiagonal::<f64>(21).fingerprint();
        cache.insert(k1, decision(Format::Dia));
        cache.insert(k2, decision(Format::Csr));
        let snap = cache.snapshot();
        assert_eq!(snap.len(), 2);

        let restored = TuningCache::new(8);
        restored.absorb(snap);
        assert_eq!(restored.get(&k1).unwrap().format, Format::Dia);
        assert_eq!(restored.get(&k2).unwrap().format, Format::Csr);
    }

    #[test]
    fn snapshot_drops_corrupt_entries() {
        let cache = TuningCache::new(8);
        let good = tridiagonal::<f64>(40).fingerprint();
        let bad = tridiagonal::<f64>(41).fingerprint();
        cache.insert(good, decision(Format::Dia));
        cache.insert(bad, decision(Format::Ell));
        {
            let mut map = cache.map.lock().unwrap();
            map.get_mut(&bad).unwrap().decision.kernel.variant = 999;
        }
        let snap = cache.snapshot();
        assert_eq!(snap.len(), 1, "corrupt entry must not be persisted");
        assert_eq!(snap[0].0, good);
        assert_eq!(cache.stats().corrupt_evictions, 1);
    }

    #[test]
    fn remove_evicts_a_single_entry() {
        let cache = TuningCache::new(4);
        let k1 = tridiagonal::<f64>(25).fingerprint();
        let k2 = tridiagonal::<f64>(26).fingerprint();
        cache.insert(k1, decision(Format::Dia));
        cache.insert(k2, decision(Format::Ell));
        assert!(cache.remove(&k1));
        assert!(!cache.remove(&k1), "already gone");
        assert!(cache.get(&k1).is_none());
        assert_eq!(cache.get(&k2).unwrap().format, Format::Ell);
    }

    /// The snapshot layout of one entry, captured before the handle and
    /// the cache shared one decision type: a snapshot written by either
    /// side loads on the other.
    #[test]
    fn snapshot_entry_layout_is_pinned() {
        let cache = TuningCache::new(4);
        let key = tridiagonal::<f64>(50).fingerprint();
        let kernel = |op, variant| KernelId {
            op,
            format: Format::Csr,
            variant,
        };
        let mut features = [0.0; 11];
        for (i, f) in features.iter_mut().enumerate() {
            *f = (i + 1) as f64;
        }
        cache.insert(
            key,
            Decision {
                format: Format::Csr,
                kernel: kernel(smat_kernels::Op::Spmv, 2),
                features: FeatureVector::from_array(features),
                source: DecisionPath::Measured {
                    candidates: vec![(Format::Csr, 1.5), (Format::Coo, 0.25)],
                    failures: vec![(Format::Ell, "conversion refused".into())],
                },
                plan: ExecPlan::serial(50),
                spmm: Some(CachedSpmm {
                    kernel: kernel(smat_kernels::Op::Spmm, 3),
                    plan: ExecPlan::serial(50),
                }),
            },
        );
        let plan = r#"{"bounds":[0,50],"entry_bounds":null,"threads":1,"policy":"Serial"}"#;
        let expect = [
            r#"[[{"rows":50,"cols":50,"nnz":148,"digest":[7633221296085066301,12190563415374210543]},"#,
            r#"{"format":"Csr","kernel":{"op":"Spmv","format":"Csr","variant":2},"#,
            r#""features":{"m":1.0,"n":2.0,"nnz":3.0,"aver_rd":4.0,"max_rd":5.0,"var_rd":6.0,"#,
            r#""ndiags":7.0,"ntdiags_ratio":8.0,"er_dia":9.0,"er_ell":10.0,"r":11.0},"#,
            r#""source":{"Measured":{"candidates":[["Csr",1.5],["Coo",0.25]],"#,
            r#""failures":[["Ell","conversion refused"]]}},"plan":PLAN,"#,
            r#""spmm":{"kernel":{"op":"Spmm","format":"Csr","variant":3},"plan":PLAN}}]]"#,
        ]
        .concat()
        .replace("PLAN", plan);
        assert_eq!(serde_json::to_string(&cache.snapshot()).unwrap(), expect);
        // The sealed file's checksum covers that rendering, stamps
        // included.
        let path = std::env::temp_dir().join("smat_cache_layout_pin.json");
        cache.save::<f64>(&path, 0x1234).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(
            text.starts_with("{\n  \"checksum\": 14658768812297580309,\n"),
            "{text}"
        );
    }

    #[test]
    fn distinct_structures_do_not_collide() {
        let cache = TuningCache::new(16);
        let a = random_uniform::<f64>(40, 40, 3, 1);
        let b = random_uniform::<f64>(40, 40, 3, 2);
        cache.insert(a.fingerprint(), decision(Format::Csr));
        assert!(cache.get(&b.fingerprint()).is_none());
    }
}
