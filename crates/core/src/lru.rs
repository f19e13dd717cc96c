//! The one bounded fingerprint-keyed store, under both the tuning cache
//! ([`crate::cache`]: decisions) and the handle registry
//! ([`crate::handles`]: converted matrices).
//!
//! Entries are bounded twice: by count (`capacity`; 0 disables the
//! store — nothing is retained) and, optionally, by the sum of the
//! weights their owners declare (`budget`; 0 means unbounded). Over
//! either bound the least-recently-used entries go, never the one just
//! inserted: a store that cannot hold its newest entry would make the
//! warm path unreachable for exactly the matrix the caller just
//! supplied. The stamp-scan eviction is O(len), fine at the few dozen
//! entries both owners configure; lookups are one hash probe.
//!
//! The store is plain data. Its owners share it behind a [`Mutex`] and
//! take it through [`Lru::lock`], so the clock, the weight gauge and
//! the eviction count all live under that one lock.

use smat_matrix::StructuralFingerprint;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

#[derive(Debug)]
struct Entry<V> {
    value: V,
    weight: usize,
    stamp: u64,
}

/// A count- and weight-bounded LRU map from structural fingerprints.
#[derive(Debug)]
pub(crate) struct Lru<V> {
    map: HashMap<StructuralFingerprint, Entry<V>>,
    clock: u64,
    weight: usize,
    /// The entry-count bound (0 disables the store).
    pub capacity: usize,
    /// The weight bound (0 means unbounded).
    pub budget: usize,
    /// Entries evicted by either bound.
    pub evictions: u64,
    /// Times [`Lru::lock`] found the mutex poisoned and recovered.
    pub poison_recoveries: u64,
}

impl<V> Lru<V> {
    /// An empty store with the given bounds.
    pub fn new(capacity: usize, budget: usize) -> Self {
        Lru {
            map: HashMap::new(),
            clock: 0,
            weight: 0,
            capacity,
            budget,
            evictions: 0,
            poison_recoveries: 0,
        }
    }

    /// Locks a shared store, recovering from poisoning instead of
    /// propagating it.
    ///
    /// A poisoned lock means a panic unwound through a critical
    /// section, so an entry or the weight gauge may be half-updated.
    /// Both owners hold recomputable state (a decision re-tunes, a
    /// handle re-registers), so the safe recovery is cheap: drop every
    /// resident entry, clear the poison flag (later locks are clean
    /// again) and count the event.
    pub fn lock(store: &Mutex<Self>) -> MutexGuard<'_, Self> {
        store.lock().unwrap_or_else(|poisoned| {
            let mut guard = poisoned.into_inner();
            guard.clear();
            guard.poison_recoveries += 1;
            store.clear_poison();
            guard
        })
    }

    /// The entry for `key`, marked most recently used.
    pub fn get_mut(&mut self, key: &StructuralFingerprint) -> Option<&mut V> {
        let entry = self.map.get_mut(key)?;
        self.clock += 1;
        entry.stamp = self.clock;
        Some(&mut entry.value)
    }

    /// Inserts `value` as the most recently used entry, replacing any
    /// entry already under `key`, then evicts least-recently-used
    /// entries — never this one — until both bounds hold again.
    pub fn insert(&mut self, key: StructuralFingerprint, value: V, weight: usize) {
        if self.capacity == 0 {
            return;
        }
        self.remove(&key);
        self.clock += 1;
        let stamp = self.clock;
        self.weight += weight;
        self.map.insert(
            key,
            Entry {
                value,
                weight,
                stamp,
            },
        );
        while self.map.len() > 1
            && (self.map.len() > self.capacity || (self.budget > 0 && self.weight > self.budget))
        {
            let oldest = self
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, entry)| entry.stamp)
                .map(|(k, _)| *k)
                .expect("more than one entry, so one besides the newest");
            self.remove(&oldest);
            self.evictions += 1;
        }
    }

    /// Drops one entry — the owner's decision, so not counted as an
    /// eviction.
    pub fn remove(&mut self, key: &StructuralFingerprint) -> Option<V> {
        let entry = self.map.remove(key)?;
        self.weight -= entry.weight;
        Some(entry.value)
    }

    /// Drops every entry; counters are preserved.
    pub fn clear(&mut self) {
        self.map.clear();
        self.weight = 0;
    }

    /// The resident entries, in no particular order and without
    /// touching their recency.
    pub fn iter(&self) -> impl Iterator<Item = (&StructuralFingerprint, &V)> {
        self.map.iter().map(|(key, entry)| (key, &entry.value))
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Sum of the resident entries' weights.
    pub fn weight(&self) -> usize {
        self.weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn key(i: usize) -> StructuralFingerprint {
        StructuralFingerprint {
            rows: i,
            cols: i,
            nnz: 0,
            digest: [0; 2],
        }
    }

    /// The reference the store is checked against: a flat list of
    /// `(key, weight, last_use)`, every question answered by a scan.
    #[derive(Default)]
    struct Model {
        entries: Vec<(usize, usize, u64)>,
        clock: u64,
        evictions: u64,
    }

    impl Model {
        fn lookup(&mut self, k: usize) -> bool {
            self.clock += 1;
            let found = self.entries.iter_mut().find(|e| e.0 == k);
            found.map(|e| e.2 = self.clock).is_some()
        }

        fn insert(&mut self, k: usize, weight: usize, capacity: usize, budget: usize) {
            if capacity == 0 {
                return;
            }
            self.clock += 1;
            self.entries.retain(|e| e.0 != k);
            self.entries.push((k, weight, self.clock));
            self.entries.sort_by_key(|e| e.2);
            while self.entries.len() > 1
                && (self.entries.len() > capacity || (budget > 0 && self.weight() > budget))
            {
                // Stalest first, and the newest is last: never evicted.
                self.entries.remove(0);
                self.evictions += 1;
            }
        }

        fn weight(&self) -> usize {
            self.entries.iter().map(|e| e.1).sum()
        }
    }

    /// Seeded random insert / lookup / remove / clear schedules: after
    /// every step the store and the model hold the same keys with the
    /// same weights and have evicted the same number of entries, and an
    /// entry is always resident right after its own insert.
    #[test]
    fn random_schedules_agree_with_the_reference_model() {
        for (case, (capacity, budget)) in [0, 1, 3, 8]
            .into_iter()
            .flat_map(|c| [0, 40].map(|b| (c, b)))
            .enumerate()
        {
            let mut rng = SmallRng::seed_from_u64(0x1AB5 + case as u64);
            let mut lru = Lru::new(capacity, budget);
            let mut model = Model::default();
            for step in 0..4000 {
                let k = rng.gen_range(0..12usize);
                match rng.gen_range(0..100u32) {
                    0..=44 => {
                        let weight = rng.gen_range(1..30usize);
                        lru.insert(key(k), weight, weight);
                        model.insert(k, weight, capacity, budget);
                        let kept = lru.iter().any(|(fp, _)| *fp == key(k));
                        assert_eq!(kept, capacity > 0, "newest entry, step {step}");
                    }
                    45..=84 => {
                        let hit = lru.get_mut(&key(k)).is_some();
                        assert_eq!(hit, model.lookup(k), "lookup, step {step}");
                    }
                    85..=97 => {
                        let before = model.entries.len();
                        model.entries.retain(|e| e.0 != k);
                        let removed = lru.remove(&key(k)).is_some();
                        assert_eq!(removed, model.entries.len() < before);
                    }
                    _ => {
                        lru.clear();
                        model.entries.clear();
                    }
                }
                let mut resident: Vec<(usize, usize)> =
                    lru.iter().map(|(fp, w)| (fp.rows, *w)).collect();
                resident.sort_unstable();
                let mut expected: Vec<(usize, usize)> =
                    model.entries.iter().map(|e| (e.0, e.1)).collect();
                expected.sort_unstable();
                let context = format!("capacity {capacity}, budget {budget}, step {step}");
                assert_eq!(resident, expected, "{context}");
                assert_eq!(lru.len(), expected.len(), "{context}");
                assert_eq!(lru.weight(), model.weight(), "{context}");
                assert_eq!(lru.evictions, model.evictions, "{context}");
            }
            assert!(capacity == 0 || model.evictions > 0, "bounds never fired");
        }
    }
}
