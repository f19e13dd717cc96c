//! Precomputed execution plans.
//!
//! An [`ExecPlan`] freezes every decision a parallel kernel would
//! otherwise re-derive per call — how many threads to target, where the
//! row-chunk boundaries fall, and (for COO and merge-path CSR) the
//! matching entry-range boundaries. The planner in the registry builds
//! one per tuned kernel during `prepare()`; steady-state SpMV then
//! replays it with zero heap allocations and zero partitioning work.
//!
//! Plans are persisted inside the tuning-cache entry, so they carry the
//! thread count they were built for. [`ExecPlan::is_stale`] detects a
//! mismatch with the current execution backend (e.g. a cache file moved
//! between machines), in which case the runtime rebuilds the plan —
//! preserving the recorded [`ChunkPolicy`] so a plan-searched policy
//! survives the rebuild.

use serde::{Deserialize, Serialize};

/// The memoizable "shape" of an [`ExecPlan`]: how rows are split into
/// chunks, independent of which specific kernel asked.
///
/// Recorded on every plan (and therefore in cache entries and bench
/// artifacts), so the partitioning decision that produced a measurement
/// is always observable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ChunkPolicy {
    /// Single chunk covering all rows (serial variants and fallbacks).
    #[default]
    Serial,
    /// Rows split evenly across chunks.
    EqualRows,
    /// Row chunks balanced by nonzero count (CSR `Balance` variants).
    NnzBalanced,
    /// Entry-aligned chunks with matching row spans (COO variants).
    EntryAligned,
    /// Row bounds snapped to block-row boundaries; the payload is the
    /// block height (BCSR variants).
    BlockAligned(usize),
    /// Equal entry-range chunks that may split rows mid-stream, with
    /// row write-ownership bounds and a serial carry fix-up (the CSR
    /// merge-path kernel).
    MergePath,
}

impl ChunkPolicy {
    /// Short stable name, used in bench artifacts and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            ChunkPolicy::Serial => "serial",
            ChunkPolicy::EqualRows => "equal_rows",
            ChunkPolicy::NnzBalanced => "nnz_balanced",
            ChunkPolicy::EntryAligned => "entry_aligned",
            ChunkPolicy::BlockAligned(_) => "block_aligned",
            ChunkPolicy::MergePath => "merge_path",
        }
    }
}

impl std::fmt::Display for ChunkPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Frozen partitioning decisions for one (matrix, kernel) pairing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecPlan {
    /// Row-chunk boundaries: `bounds[i]..bounds[i + 1]` is chunk `i`'s
    /// row range. Always `len >= 2`, starts at 0, ends at `rows`. For
    /// merge-path plans these are *write ownership* bounds: a chunk
    /// whose entry range lies wholly inside one row owns zero rows.
    pub bounds: Vec<usize>,
    /// COO and merge-path CSR: entry-range boundaries aligned with
    /// `bounds` (chunk `i` scans entries
    /// `entry_bounds[i]..entry_bounds[i + 1]`). `None` for formats that
    /// derive entry ranges from row pointers.
    pub entry_bounds: Option<Vec<usize>>,
    /// Thread count the boundaries were sized for; compared against the
    /// live backend by [`is_stale`](Self::is_stale).
    pub threads: usize,
    /// The partitioning policy that produced `bounds`. Stale-plan
    /// rebuilds reuse it so a searched policy is not silently
    /// discarded. Pre-policy artifacts fail deserialization and are
    /// regenerated via the install schema version bump (the vendored
    /// serde stub has no `#[serde(default)]`).
    pub policy: ChunkPolicy,
}

impl ExecPlan {
    /// A single-chunk plan that runs the kernel serially — used for
    /// serial variants, degraded mode, and user-registered kernels the
    /// planner knows nothing about.
    pub fn serial(rows: usize) -> Self {
        ExecPlan {
            bounds: vec![0, rows],
            entry_bounds: None,
            threads: 1,
            policy: ChunkPolicy::Serial,
        }
    }

    /// A fan-out plan over `bounds` (and, for COO and merge-path CSR,
    /// the aligned `entry_bounds`), sized for the live backend's thread
    /// count.
    pub fn chunked(
        policy: ChunkPolicy,
        bounds: Vec<usize>,
        entry_bounds: Option<Vec<usize>>,
    ) -> Self {
        ExecPlan {
            bounds,
            entry_bounds,
            threads: crate::exec::num_threads(),
            policy,
        }
    }

    /// Number of chunks the plan fans out to.
    pub fn chunks(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Whether the plan collapses to one chunk (no fan-out).
    pub fn is_serial(&self) -> bool {
        self.chunks() <= 1
    }

    /// True when the plan was sized for a different thread count than
    /// the execution backend currently reports — e.g. it came from a
    /// cache file written on another machine. Stale plans stay correct
    /// (chunks still cover every row) but mis-sized, so the runtime
    /// rebuilds and re-caches them.
    pub fn is_stale(&self) -> bool {
        !self.is_serial() && self.threads != crate::exec::num_threads()
    }
}

#[cfg(test)]
impl ExecPlan {
    /// The plans every row-chunked kernel's unit tests run under: the
    /// one-chunk serial plan and a three-way equal-rows fan-out.
    pub(crate) fn serial_and_fan_out(rows: usize) -> [ExecPlan; 2] {
        let bounds = crate::partition::equal_row_bounds(rows, 3);
        [
            ExecPlan::serial(rows),
            ExecPlan::chunked(ChunkPolicy::EqualRows, bounds, None),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_plan_is_one_chunk_and_never_stale() {
        let p = ExecPlan::serial(42);
        assert_eq!(p.bounds, vec![0, 42]);
        assert_eq!(p.chunks(), 1);
        assert!(p.is_serial());
        assert!(!p.is_stale());
        assert_eq!(p.policy, ChunkPolicy::Serial);
    }

    #[test]
    fn staleness_tracks_thread_count() {
        let live = crate::exec::num_threads();
        let fresh = ExecPlan {
            bounds: vec![0, 10, 20],
            entry_bounds: None,
            threads: live,
            policy: ChunkPolicy::EqualRows,
        };
        assert!(!fresh.is_stale());
        let moved = ExecPlan {
            threads: live + 7,
            ..fresh.clone()
        };
        assert!(moved.is_stale());
    }

    #[test]
    fn plan_round_trips_through_serde() {
        let p = ExecPlan {
            bounds: vec![0, 5, 9],
            entry_bounds: Some(vec![0, 11, 30]),
            threads: 4,
            policy: ChunkPolicy::MergePath,
        };
        let v = serde_json::to_string(&p).expect("serialize");
        let back: ExecPlan = serde_json::from_str(&v).expect("deserialize");
        assert_eq!(back, p);
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(ChunkPolicy::NnzBalanced.name(), "nnz_balanced");
        assert_eq!(ChunkPolicy::MergePath.to_string(), "merge_path");
        assert_eq!(ChunkPolicy::BlockAligned(4).name(), "block_aligned");
    }
}
