//! The daemon's long wire arrays — a request's `x` and `entries`, a
//! reply's `y` — read and written in pieces on the kernel pool.
//!
//! A closed-loop client waits on its reply while the connection thread
//! parses and encodes, so unless other requests are in flight the
//! pool's parked workers are idle then. `proto.rs` hands
//! [`smat_kernels::exec::for_each_chunk`] to
//! `serde_json`'s `*_in_pieces` calls, which cut the array, read or
//! write each piece into a buffer of a [`serde_json::Pieces`] with the
//! whole-array call's per-element code, and join them. A read in pieces
//! is accepted only for a clean array and reads the whole array again
//! with the one-piece call otherwise, so what a client sends and gets
//! back is the same at every piece count. The connection thread still
//! owns the request: it cuts, takes pieces itself while a worker takes
//! others, and joins them.
//!
//! The piece count is a function of the array's length — a reply's
//! value count, a request's text from the array's `[` to the frame's
//! last `]` — and of the threads free to take pieces. It is one below
//! two pieces' worth, and one when the process already has as many
//! requests in flight as the pool has threads: the pool is the
//! process's, so a worker that takes one connection's pieces is a CPU
//! another connection's request was running on (EXPERIMENTS.md, "Long
//! wire arrays in pieces", "Several clients"). A one-piece call is
//! the whole-array call. A short array followed by a long one (an `x`
//! sent before a large `matrix`) is sized by both. Often the search for
//! a cut stops at the matrix's first `]` and the array stays one piece;
//! otherwise it pays a fan-out it did not need, whose pieces past its
//! end stop at their first element (~15–40 µs at a 100-value `x`).

use smat_kernels::exec::num_threads;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Most pieces an array is cut into: enough for two threads to even
/// out a worker that wakes late, few enough that each piece dwarfs a
/// claim from the pool's cursor. The one cap: `serde_json`'s piece
/// calls cut as many pieces as they are asked for.
pub const MAX_PIECES: usize = 8;

/// Requests this process is handling, on any connection.
static IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);

/// A request in flight from [`InFlight::begin`] until dropped.
pub struct InFlight(());

impl InFlight {
    /// Counts a request in flight until the value is dropped.
    pub fn begin() -> Self {
        IN_FLIGHT.fetch_add(1, Ordering::Relaxed);
        InFlight(())
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Fewest values of `y` a piece is written for. On a 2-vCPU host, with
/// the pool's worker parked for 300 µs before each call (EXPERIMENTS.md,
/// "Long wire arrays in pieces"), one piece writes a value in ~45 ns and
/// reads one in ~31 ns whatever the length; two pieces lose below 2 000
/// values (the worker wakes too late to take its share), break even
/// near 3 000, and win from 4 000 (6 000: 1.4x both ways). So a second
/// piece starts at 3 000 values.
pub const PIECE_VALUES: usize = 1_500;

/// Fewest bytes of request text a piece is read from: a value of `x` in
/// shortest digits is ~20 bytes, so a second piece starts at the same
/// ~3 000 values as [`PIECE_VALUES`]. An `entries` triplet (~25 bytes)
/// costs more per byte (~1.7 ns against ~1.0 on the vendored reader's
/// speed-gate data), so the same count of bytes is a safe start for it.
pub const PIECE_BYTES: usize = 20 * PIECE_VALUES;

/// Pieces for `len` units of work, at least `per_piece` in each: one
/// below two pieces' worth, or when no thread of the pool is spare —
/// the caller's own thread counts as busy, and so does every other
/// request in flight (a pool of one thread never has one spare).
pub fn piece_count(len: usize, per_piece: usize) -> usize {
    if IN_FLIGHT.load(Ordering::Relaxed).max(1) >= num_threads() {
        return 1;
    }
    (len / per_piece).clamp(1, MAX_PIECES)
}
