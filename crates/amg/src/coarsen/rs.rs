//! Classical Ruge–Stüben first-pass coarsening.
//!
//! Greedy maximal-independent-set-like selection driven by the measure
//! `λ_i = |S_i^T| + (number of fine strong neighbors)`.
//!
//! **Pick order (the contract):** each step makes coarse *the
//! unassigned point maximising `(measure, index)`* — largest measure,
//! ties to the largest index — marks the unassigned points it strongly
//! influences fine, and adds one to the measure of every unassigned
//! influencer of each newly fine point. The pass ends when the best
//! remaining measure is zero. The splitting is a function of the
//! strength graph alone.
//!
//! The unassigned points live in one indexed priority queue
//! (`MeasureQueue`): a measure bump is an increase-key, an
//! F-assignment a removal, so the queue holds each unassigned point
//! exactly once — `n` entries at most, no stale ones — and the pass
//! performs at most `n` removals and `|S|` bumps.

use super::PointType;
use crate::strength::StrengthGraph;

/// Indexed 4-ary max-heap over `(measure, index)`, one entry per
/// unassigned point. Keys pack the measure above the index in a `u64`,
/// so one integer compare orders both.
struct MeasureQueue {
    /// Heap-ordered packed keys.
    heap: Vec<u64>,
    /// `pos[i]` is the heap slot of point `i`, [`ABSENT`] once it left.
    pos: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;
const ARITY: usize = 4;

#[inline]
fn pack(measure: u32, index: usize) -> u64 {
    (u64::from(measure) << 32) | index as u64
}

#[inline]
fn index_of(key: u64) -> usize {
    (key & 0xFFFF_FFFF) as usize
}

impl MeasureQueue {
    /// Queues points `0..measures.len()` with their initial measures.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX / 2` points.
    fn new(measures: impl ExactSizeIterator<Item = u32>) -> Self {
        let n = measures.len();
        // A measure never exceeds twice the point count, so it and
        // the index both fit the halves of a key.
        assert!(
            n <= (u32::MAX / 2) as usize,
            "Ruge-Stuben coarsening packs measure and index into 32 bits each; {n} points is too many"
        );
        let heap: Vec<u64> = measures.enumerate().map(|(i, m)| pack(m, i)).collect();
        let mut q = Self {
            heap,
            pos: (0..n as u32).collect(),
        };
        for slot in (0..n.div_ceil(ARITY)).rev() {
            q.sift_down(slot);
        }
        q
    }

    /// Removes and returns the point maximising `(measure, index)`.
    fn pop_max(&mut self) -> Option<(u32, usize)> {
        let top = *self.heap.first()?;
        self.remove_slot(0);
        Some(((top >> 32) as u32, index_of(top)))
    }

    /// Whether point `i` is still queued.
    #[inline]
    fn contains(&self, i: usize) -> bool {
        self.pos[i] != ABSENT
    }

    /// Adds one to the measure of the queued point `i`.
    fn bump(&mut self, i: usize) {
        tally(self.heap.len());
        let slot = self.pos[i] as usize;
        self.heap[slot] += 1 << 32;
        self.sift_up(slot);
    }

    /// Removes the queued point `i`.
    fn remove(&mut self, i: usize) {
        self.remove_slot(self.pos[i] as usize);
    }

    fn remove_slot(&mut self, slot: usize) {
        tally(self.heap.len());
        let gone = self.heap.swap_remove(slot);
        self.pos[index_of(gone)] = ABSENT;
        if let Some(&moved) = self.heap.get(slot) {
            if moved > gone {
                self.sift_up(slot);
            } else {
                self.sift_down(slot);
            }
        }
    }

    fn sift_up(&mut self, mut slot: usize) {
        let key = self.heap[slot];
        while slot > 0 {
            let parent = (slot - 1) / ARITY;
            let above = self.heap[parent];
            if above >= key {
                break;
            }
            self.heap[slot] = above;
            self.pos[index_of(above)] = slot as u32;
            slot = parent;
        }
        self.heap[slot] = key;
        self.pos[index_of(key)] = slot as u32;
    }

    fn sift_down(&mut self, mut slot: usize) {
        let key = self.heap[slot];
        let len = self.heap.len();
        loop {
            let first = ARITY * slot + 1;
            if first >= len {
                break;
            }
            let children = &self.heap[first..len.min(first + ARITY)];
            let (offset, &best) = children
                .iter()
                .enumerate()
                .max_by_key(|&(_, &k)| k)
                .expect("at least one child");
            if best <= key {
                break;
            }
            self.heap[slot] = best;
            self.pos[index_of(best)] = slot as u32;
            slot = first + offset;
        }
        self.heap[slot] = key;
        self.pos[index_of(key)] = slot as u32;
    }
}

#[cfg(test)]
thread_local! {
    /// (queue updates, longest queue seen) on this test thread.
    static QUEUE_COST: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
}

/// Counts one queue update (test builds only; the cost test reads it).
#[inline(always)]
#[allow(unused_variables)]
fn tally(len: usize) {
    #[cfg(test)]
    QUEUE_COST.with(|c| {
        let (updates, longest) = c.get();
        c.set((updates + 1, longest.max(len)));
    });
}

/// Runs the first-pass splitting. Points with zero measure and no strong
/// connections are left fine (the caller's fix-up promotes genuinely
/// isolated ones to coarse).
///
/// # Panics
///
/// Panics if the graph has more than `u32::MAX / 2` points.
pub fn split(graph: &StrengthGraph) -> Vec<PointType> {
    let n = graph.len();
    // A queued point is unassigned; a point that left the queue is
    // coarse if it was popped with a positive measure, fine otherwise.
    let mut types = vec![PointType::Fine; n];
    let mut queue = MeasureQueue::new((0..n).map(|i| graph.influence_count(i) as u32));

    while let Some((measure, i)) = queue.pop_max() {
        if measure == 0 {
            // Nothing influences anything: remaining points stay fine
            // (or isolated; the fix-up handles them).
            break;
        }
        types[i] = PointType::Coarse;
        // Points strongly influenced by the new C point become F.
        for &j in graph.influences(i) {
            if queue.contains(j) {
                queue.remove(j);
                // Influencers of the new F point become more attractive.
                for &k in graph.influencers(j) {
                    if queue.contains(k) {
                        queue.bump(k);
                    }
                }
            }
        }
    }
    types
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::strength::StrengthGraph;
    use proptest::prelude::*;
    use smat_matrix::gen::{laplacian_2d_5pt, tridiagonal};
    use std::collections::BinaryHeap;

    #[test]
    fn tridiagonal_alternates_roughly() {
        let a = tridiagonal::<f64>(20);
        let g = StrengthGraph::build(&a, 0.25);
        let types = split(&g);
        let coarse = types.iter().filter(|&&t| t == PointType::Coarse).count();
        // 1-D Laplacian coarsens to roughly every other point.
        assert!(
            (5..=12).contains(&coarse),
            "unexpected coarse count {coarse}"
        );
        // No two adjacent... not guaranteed strictly, but C points should
        // not dominate.
        assert!(coarse < 15);
    }

    #[test]
    fn laplacian_coarsening_ratio_is_sane() {
        let a = laplacian_2d_5pt::<f64>(16, 16);
        let g = StrengthGraph::build(&a, 0.25);
        let types = split(&g);
        let coarse = types.iter().filter(|&&t| t == PointType::Coarse).count();
        let ratio = coarse as f64 / types.len() as f64;
        // Classical RS on a 5-point stencil gives ~25-50% coarse points.
        assert!((0.15..=0.6).contains(&ratio), "coarsening ratio {ratio:.2}");
    }

    #[test]
    fn deterministic() {
        let a = laplacian_2d_5pt::<f64>(8, 8);
        let g = StrengthGraph::build(&a, 0.25);
        assert_eq!(split(&g), split(&g));
    }

    #[test]
    fn splitting_matches_the_lazy_heap_reference() {
        for (name, a) in oracle::matrices() {
            for theta in [0.25, 0.6] {
                let g = StrengthGraph::build(&a, theta);
                assert_eq!(split(&g), oracle::rs_split(&g), "{name}, theta {theta}");
            }
        }
    }

    #[test]
    fn hub_graph_costs_n_plus_edges_and_n_entries() {
        let a = oracle::hub_matrix(400);
        let g = StrengthGraph::build(&a, 0.25);
        let n = g.len();
        let edges: usize = (0..n).map(|i| g.influencers(i).len()).sum();
        let hub = (0..n).map(|i| g.influence_count(i)).max().unwrap();
        assert!(hub >= n / 4, "hub influences only {hub} of {n} points");

        QUEUE_COST.with(|c| c.set((0, 0)));
        let types = split(&g);
        let (updates, longest) = QUEUE_COST.with(std::cell::Cell::get);
        assert_eq!(types, oracle::rs_split(&g));
        assert!(
            updates <= n + 2 * edges,
            "{updates} queue updates for n = {n}, |S| = {edges}"
        );
        assert!(updates >= n / 2, "the counter is wired to the queue");
        assert!(longest <= n, "queue grew to {longest} entries for n = {n}");
    }

    #[derive(Debug, Clone)]
    enum Step {
        Bump(usize),
        Remove(usize),
        Pop,
    }

    fn schedule() -> impl Strategy<Value = (Vec<u32>, Vec<Step>)> {
        (1usize..40).prop_flat_map(|n| {
            // Two bumps per removal and per pop.
            let step = (0usize..4, 0..n).prop_map(|(kind, i)| match kind {
                0 | 1 => Step::Bump(i),
                2 => Step::Remove(i),
                _ => Step::Pop,
            });
            (
                // Measures from {0, 1, 2}: almost every compare is a tie.
                proptest::collection::vec(0u32..3, n),
                proptest::collection::vec(step, 0..120),
            )
        })
    }

    /// The parent's queue: a `BinaryHeap<(measure, index)>` that gets
    /// a fresh entry per bump and skips, at pop, entries of departed
    /// points and entries whose measure has since grown.
    struct LazyHeap {
        heap: BinaryHeap<(u32, usize)>,
        measure: Vec<u32>,
        alive: Vec<bool>,
    }

    impl LazyHeap {
        fn pop(&mut self) -> Option<(u32, usize)> {
            loop {
                let (m, i) = self.heap.pop()?;
                if self.alive[i] && m == self.measure[i] {
                    self.alive[i] = false;
                    return Some((m, i));
                }
            }
        }
    }

    proptest! {
        /// The queue alone against [`LazyHeap`] under arbitrary
        /// bump / remove / pop schedules, then drained.
        #[test]
        fn queue_pops_in_lazy_binary_heap_order((measures, steps) in schedule()) {
            let n = measures.len();
            let mut queue = MeasureQueue::new(measures.iter().copied());
            let mut lazy = LazyHeap {
                heap: measures.iter().copied().zip(0..n).collect(),
                measure: measures,
                alive: vec![true; n],
            };
            for step in steps.into_iter().chain(std::iter::repeat_n(Step::Pop, n + 1)) {
                match step {
                    Step::Bump(i) => {
                        prop_assert_eq!(queue.contains(i), lazy.alive[i]);
                        if lazy.alive[i] {
                            queue.bump(i);
                            lazy.measure[i] += 1;
                            lazy.heap.push((lazy.measure[i], i));
                        }
                    }
                    Step::Remove(i) => {
                        if lazy.alive[i] {
                            queue.remove(i);
                            lazy.alive[i] = false;
                        }
                        prop_assert!(!queue.contains(i));
                    }
                    Step::Pop => prop_assert_eq!(queue.pop_max(), lazy.pop()),
                }
                let alive = lazy.alive.iter().filter(|&&a| a).count();
                prop_assert_eq!(queue.heap.len(), alive);
            }
            prop_assert!(queue.heap.is_empty());
        }
    }
}
