//! Server-side prepared-matrix registry: the warm half of
//! tuning-as-a-service.
//!
//! SMAT's premise is that the tuning cost is paid once and amortized
//! over many executions — but a daemon only amortizes anything if the
//! *matrix* stays resident between requests. This registry keeps
//! frozen [`TunedSpmv`] handles keyed by their structural fingerprint,
//! so a serving layer can answer `{"op":"spmv","handle":...,"x":[..]}`
//! without re-parsing triplets, re-converting formats, or re-running
//! `prepare` at all.
//!
//! The registry is deliberately *not* the tuning cache: the cache
//! stores decisions (format + kernel + plan — a few hundred bytes),
//! while the registry stores the converted matrices themselves, whose
//! footprint is `O(nnz)`. It is therefore bounded twice — by entry
//! count and by an estimated resident-byte budget — and evicts in LRU
//! order, counting every eviction so a serving layer can surface
//! `handle_{hits,misses,evictions}` in its metrics.
//!
//! Lookups hand out `Arc` clones, so an entry evicted mid-request
//! stays alive until the in-flight calls that hold it finish; eviction
//! only severs the registry's own reference.

use crate::lru::Lru;
use crate::runtime::TunedSpmv;
use smat_matrix::{Scalar, StructuralFingerprint};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Counter snapshot of one [`HandleRegistry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HandleStats {
    /// Lookups that found a resident handle.
    pub hits: u64,
    /// Lookups for unknown (never registered or already evicted)
    /// fingerprints.
    pub misses: u64,
    /// Entries evicted by the capacity or byte-budget bound.
    pub evictions: u64,
    /// Handles currently resident.
    pub entries: usize,
    /// Estimated bytes held by the resident handles (dominant arrays
    /// only; see [`TunedSpmv::resident_bytes`]).
    pub resident_bytes: usize,
    /// Configured entry-count bound (0 disables the registry).
    pub capacity: usize,
    /// Configured resident-byte budget (0 means unbounded).
    pub budget_bytes: usize,
}

/// A bounded, byte-budgeted LRU of prepared matrices: the shared
/// [`Lru`] store holding `Arc`s, weighted by
/// [`TunedSpmv::resident_bytes`].
///
/// `capacity` bounds the entry count (`0` disables the registry:
/// inserts are not retained and every lookup misses). `budget_bytes`
/// bounds the estimated resident footprint (`0` means unbounded).
/// When either bound is exceeded the least-recently-used entries are
/// evicted — except the entry just inserted, which is always retained:
/// a registry that cannot hold its newest handle would make the warm
/// path unreachable for exactly the matrix the client just shipped.
pub struct HandleRegistry<T> {
    store: Mutex<Lru<Arc<TunedSpmv<T>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<T: Scalar> HandleRegistry<T> {
    /// An empty registry with the given bounds.
    pub fn new(capacity: usize, budget_bytes: usize) -> Self {
        HandleRegistry {
            store: Mutex::new(Lru::new(capacity, budget_bytes)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Registers a prepared matrix under its fingerprint, returning
    /// the shared handle (also usable directly by the caller). An
    /// existing entry for the same structure is *replaced* — same
    /// pattern, fresh values — so the registry never holds two copies
    /// of one fingerprint and re-tuned values win deterministically.
    pub fn insert(&self, tuned: TunedSpmv<T>) -> Arc<TunedSpmv<T>> {
        let (key, bytes) = (tuned.fingerprint(), tuned.resident_bytes());
        let arc = Arc::new(tuned);
        Lru::lock(&self.store).insert(key, Arc::clone(&arc), bytes);
        arc
    }

    /// Looks up a resident handle by fingerprint, refreshing its LRU
    /// stamp. Counts a hit or a miss either way.
    pub fn lookup(&self, key: &StructuralFingerprint) -> Option<Arc<TunedSpmv<T>>> {
        let found = Lru::lock(&self.store).get_mut(key).cloned();
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Drops one resident handle. Returns whether it was present.
    /// Not counted as an eviction — this is the caller's decision,
    /// not a bound firing.
    pub fn remove(&self, key: &StructuralFingerprint) -> bool {
        Lru::lock(&self.store).remove(key).is_some()
    }

    /// Drops every resident handle (counters are preserved).
    pub fn clear(&self) {
        Lru::lock(&self.store).clear();
    }

    /// Handles currently resident.
    pub fn len(&self) -> usize {
        Lru::lock(&self.store).len()
    }

    /// Whether the registry holds no handles.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the registry's counters and bounds.
    pub fn stats(&self) -> HandleStats {
        let store = Lru::lock(&self.store);
        HandleStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: store.evictions,
            entries: store.len(),
            resident_bytes: store.weight(),
            capacity: store.capacity,
            budget_bytes: store.budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::tests::engine;
    use smat_matrix::gen::tridiagonal;

    #[test]
    fn poisoned_lock_recovers_by_dropping_the_resident_handles() {
        let e = engine();
        let reg = Arc::new(HandleRegistry::new(4, 0));
        let held = reg.insert(e.prepare(&tridiagonal::<f64>(120)));
        // Poison the mutex: a thread panics while holding the lock.
        let poisoner = Arc::clone(&reg);
        let joined = std::thread::spawn(move || {
            let _guard = poisoner.store.lock().unwrap();
            panic!("poisoning the handle registry");
        })
        .join();
        assert!(joined.is_err(), "the poisoning thread must have panicked");
        // The next access recovers: the entries go, the byte gauge with
        // them, and nothing is counted as an eviction.
        assert!(reg.lookup(&held.fingerprint()).is_none());
        let stats = reg.stats();
        assert_eq!(
            (stats.entries, stats.resident_bytes, stats.evictions),
            (0, 0, 0)
        );
        // The handle handed out earlier and the registry both stay usable.
        let again = reg.insert(e.prepare(&tridiagonal::<f64>(120)));
        assert_eq!(again.fingerprint(), held.fingerprint());
        let resolved = reg.lookup(&again.fingerprint()).expect("re-registered");
        assert!(Arc::ptr_eq(&resolved, &again));
        assert_eq!(reg.stats().resident_bytes, again.resident_bytes());
    }
}
