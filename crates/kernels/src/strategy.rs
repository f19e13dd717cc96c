//! Optimization strategies and strategy sets.
//!
//! The paper's kernel library tags every SpMV implementation with the set
//! of optimization strategies it applies (§5.2): the scoreboard algorithm
//! then scores *strategies* from measured performance and scores
//! *implementations* as the sum of their strategies' scores.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A single kernel optimization strategy.
///
/// These are the architecture-level techniques the paper's kernel library
/// composes: unrolling, threading and partitioning policies, row /
/// slot / diagonal blocking, and explicit SIMD intrinsics (the paper's
/// hand-placed SSE; here a runtime-dispatched AVX2 backend, see
/// [`crate::simd`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Strategy {
    /// Inner-loop unrolling with split accumulators (enables
    /// auto-vectorization, the paper's "SIMDization" + unrolling).
    Unroll,
    /// Multi-threaded execution (the paper's "task parallelism policy").
    Parallel,
    /// Nonzero-balanced work partitioning across threads (the paper's
    /// "threading policy" refinement for irregular matrices).
    Balance,
    /// Register blocking: fusing two rows / packed slots / diagonals per
    /// iteration for instruction-level parallelism and fewer output
    /// sweeps (the paper's "blocking methods").
    Block,
    /// Explicit vector intrinsics behind runtime CPU-feature dispatch,
    /// falling back to the portable unrolled loop bit-for-bit (see
    /// [`crate::simd`] for the reduction-order contract).
    Simd,
    /// Merge-path decomposition: the nonzero stream is split into equal
    /// entry ranges regardless of row boundaries, with per-chunk carry
    /// partials fixed up serially afterwards. Immune to the single-hot-row
    /// imbalance that defeats every row-granular partition (CSR only).
    Merge,
    /// Multi-RHS register tiling (SpMM kernels only): 8 right-hand-side
    /// columns per matrix sweep, the `k % 8` tail finished in one 4-,
    /// one 2- and one 1-wide sweep at most. Without it a kernel runs
    /// column-at-a-time.
    Tile8,
}

impl Strategy {
    /// All strategies, in bit order.
    pub const ALL: [Strategy; 7] = [
        Strategy::Unroll,
        Strategy::Parallel,
        Strategy::Balance,
        Strategy::Block,
        Strategy::Simd,
        Strategy::Merge,
        Strategy::Tile8,
    ];

    fn bit(self) -> u16 {
        match self {
            Strategy::Unroll => 1,
            Strategy::Parallel => 2,
            Strategy::Balance => 4,
            Strategy::Block => 8,
            Strategy::Simd => 16,
            Strategy::Merge => 32,
            Strategy::Tile8 => 64,
        }
    }

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Unroll => "unroll",
            Strategy::Parallel => "parallel",
            Strategy::Balance => "balance",
            Strategy::Block => "block",
            Strategy::Simd => "simd",
            Strategy::Merge => "merge",
            Strategy::Tile8 => "tile8",
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of [`Strategy`] values attached to a kernel implementation.
///
/// # Examples
///
/// ```
/// use smat_kernels::{Strategy, StrategySet};
///
/// let s = StrategySet::EMPTY.with(Strategy::Unroll).with(Strategy::Parallel);
/// assert!(s.contains(Strategy::Unroll));
/// assert!(!s.contains(Strategy::Balance));
/// assert_eq!(s.len(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct StrategySet(u16);

impl StrategySet {
    /// The basic implementation: no optimization strategies.
    pub const EMPTY: StrategySet = StrategySet(0);

    /// Returns this set with `s` added.
    #[must_use]
    pub fn with(self, s: Strategy) -> Self {
        StrategySet(self.0 | s.bit())
    }

    /// Whether `s` is in the set.
    pub fn contains(self, s: Strategy) -> bool {
        self.0 & s.bit() != 0
    }

    /// Number of strategies in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty (the basic implementation).
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the contained strategies.
    pub fn iter(self) -> impl Iterator<Item = Strategy> {
        Strategy::ALL.into_iter().filter(move |&s| self.contains(s))
    }

    /// Whether `other` is exactly this set plus one extra strategy.
    ///
    /// The scoreboard compares each implementation against those with
    /// "just one less optimization strategy" (§5.2).
    pub fn is_one_less_than(self, other: StrategySet) -> bool {
        other.0 & self.0 == self.0 && (other.0 ^ self.0).count_ones() == 1
    }

    /// The strategy in `other` but not in `self`, if exactly one.
    pub fn added_strategy(self, other: StrategySet) -> Option<Strategy> {
        if self.is_one_less_than(other) {
            let diff = other.0 ^ self.0;
            Strategy::ALL.into_iter().find(|s| s.bit() == diff)
        } else {
            None
        }
    }

    /// The multi-RHS register-tile width this set encodes: 8 with
    /// [`Strategy::Tile8`], 1 without it (column-at-a-time).
    pub fn tile_width(self) -> usize {
        if self.contains(Strategy::Tile8) {
            8
        } else {
            1
        }
    }
}

impl fmt::Display for StrategySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("basic");
        }
        let mut first = true;
        for s in self.iter() {
            if !first {
                f.write_str("+")?;
            }
            f.write_str(s.name())?;
            first = false;
        }
        Ok(())
    }
}

impl FromIterator<Strategy> for StrategySet {
    fn from_iter<I: IntoIterator<Item = Strategy>>(iter: I) -> Self {
        iter.into_iter().fold(StrategySet::EMPTY, StrategySet::with)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_and_contains() {
        let s = StrategySet::EMPTY.with(Strategy::Parallel);
        assert!(s.contains(Strategy::Parallel));
        assert!(!s.contains(Strategy::Unroll));
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        assert!(StrategySet::EMPTY.is_empty());
    }

    #[test]
    fn one_less_relation() {
        let base = StrategySet::EMPTY.with(Strategy::Parallel);
        let more = base.with(Strategy::Unroll);
        assert!(base.is_one_less_than(more));
        assert!(!more.is_one_less_than(base));
        assert!(!base.is_one_less_than(base));
        assert_eq!(base.added_strategy(more), Some(Strategy::Unroll));
        assert_eq!(more.added_strategy(base), None);

        let far = base.with(Strategy::Unroll).with(Strategy::Balance);
        assert!(!base.is_one_less_than(far));
    }

    #[test]
    fn display_forms() {
        assert_eq!(StrategySet::EMPTY.to_string(), "basic");
        let s: StrategySet = [Strategy::Unroll, Strategy::Parallel].into_iter().collect();
        assert_eq!(s.to_string(), "unroll+parallel");
    }

    #[test]
    fn iter_round_trips() {
        let s: StrategySet = Strategy::ALL.into_iter().collect();
        let back: StrategySet = s.iter().collect();
        assert_eq!(s, back);
        assert_eq!(s.len(), 7);
    }

    #[test]
    fn tile_width_decodes() {
        assert_eq!(StrategySet::EMPTY.tile_width(), 1);
        assert_eq!(
            StrategySet::EMPTY
                .with(Strategy::Tile8)
                .with(Strategy::Parallel)
                .tile_width(),
            8
        );
    }
}
