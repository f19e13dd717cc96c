//! A persistent parking worker pool for the SpMV kernels.
//!
//! The pre-pool kernels paid per-call parallelism overhead twice: every
//! parallel SpMV spawned fresh scoped OS threads, and the work queue
//! took a mutex per item. This crate replaces both with a process-wide
//! pool sized to the hardware (or to [`set_thread_target`]):
//!
//! * **Workers are started once**, on first dispatch, and then park on a
//!   condvar. Waking them for a new job is a lock + `notify_all`, not a
//!   `clone`/`spawn`/`join` cycle — [`spawn_count`] stays flat across
//!   any number of [`parallel_for`] calls.
//! * **Chunks are claimed through a single atomic cursor**
//!   (`fetch_add`), so the steady-state dispatch performs **no heap
//!   allocation and no per-item locking**. The caller participates as
//!   the `N`-th worker instead of blocking idle.
//!
//! Jobs are published as an epoch (`seq`) under one mutex. A worker
//! joins an epoch only while its closure is still published, counting
//! itself in `joined`; one that wakes after the closure was withdrawn
//! records the epoch and parks again. The dispatcher, once its own
//! claiming loop finds the chunks exhausted, withdraws the closure and
//! waits only for the workers that joined. That is what makes lending
//! the stack-borrowed closure to the workers sound, and it keeps a
//! dispatcher that ran every chunk itself from waiting on a worker that
//! has not woken yet.
//!
//! Robustness rules, matching the rest of the workspace:
//!
//! * A panic inside a chunk is caught in whichever thread ran it, the
//!   first payload is stored, every remaining chunk still completes, and
//!   the payload is re-thrown on the *calling* thread — so the caller's
//!   existing `catch_unwind` isolation (e.g. the tuning pipeline's
//!   guarded measurement) sees the same behavior as before.
//! * A dispatch that finds the pool busy (another thread mid-dispatch)
//!   runs the job inline serially instead of convoying on a lock; same
//!   for nested calls from inside a worker.
//! * The failpoint site `pool.dispatch` sits at dispatch entry:
//!   scripted `fail` forces the inline-serial fallback, `delay` stalls
//!   the dispatcher, `panic` unwinds before any pool state is touched.
//!
//! # Examples
//!
//! ```
//! let sums: Vec<std::sync::atomic::AtomicU64> =
//!     (0..8).map(|_| std::sync::atomic::AtomicU64::new(0)).collect();
//! smat_pool::parallel_for(8, &|chunk| {
//!     sums[chunk].store(chunk as u64 + 1, std::sync::atomic::Ordering::Relaxed);
//! });
//! let total: u64 = sums
//!     .iter()
//!     .map(|s| s.load(std::sync::atomic::Ordering::Relaxed))
//!     .sum();
//! assert_eq!(total, 36);
//! ```

#![warn(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};

/// Requested pool size, consulted once when the pool is first built.
static TARGET: AtomicUsize = AtomicUsize::new(0);
/// Total OS threads ever spawned by the pool (the whole point: this
/// stays flat once the pool exists).
static SPAWNS: AtomicU64 = AtomicU64::new(0);
/// Parallel dispatches actually fanned out to the workers (inline
/// fallbacks are not counted).
static DISPATCHES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set inside pool workers so nested [`parallel_for`] calls run
    /// inline instead of deadlocking on their own pool.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The published job: an epoch counter plus a type-erased borrow of the
/// dispatcher's closure, present only while the dispatcher may still be
/// claiming chunks. `joined` counts workers that took `body` and have
/// not yet checked out.
struct JobSlot {
    seq: u64,
    chunks: usize,
    body: Option<BodyPtr>,
    joined: usize,
}

/// Raw pointer to the dispatcher's closure. Sending it to workers is
/// sound because a worker copies it only under the job lock while it is
/// published, counting itself in `joined`, and the dispatcher withdraws
/// it and then blocks until `joined` is zero before its borrow ends.
struct BodyPtr(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` (shared calls are fine). Every copy of
// the pointer is taken under the job lock while `body` is `Some`, and is
// dropped before its holder decrements `joined`; the dispatcher sets
// `body` to `None` and waits for `joined == 0` before returning, so no
// copy outlives the borrow it was made from.
unsafe impl Send for BodyPtr {}

struct Pool {
    threads: usize,
    workers: usize,
    job: Mutex<JobSlot>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The dispatcher parks here until `joined` drops to zero.
    done_cv: Condvar,
    /// Next chunk index to claim; reset per epoch under the job lock.
    cursor: AtomicUsize,
    /// First panic payload of the current job, re-thrown by the caller.
    panic_box: Mutex<Option<Box<dyn Any + Send>>>,
    /// Held for the duration of one fan-out; `try_lock` contention sends
    /// concurrent dispatchers down the inline-serial fallback.
    dispatch_lock: Mutex<()>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

static POOL: OnceLock<&'static Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let target = TARGET.load(Ordering::Relaxed);
        let threads = if target > 0 {
            target
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        };
        let workers = threads.saturating_sub(1);
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            threads,
            workers,
            job: Mutex::new(JobSlot {
                seq: 0,
                chunks: 0,
                body: None,
                joined: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            cursor: AtomicUsize::new(0),
            panic_box: Mutex::new(None),
            dispatch_lock: Mutex::new(()),
        }));
        // The pool is built once every worker runs: a thread's start-up
        // allocates, and a dispatch that no worker joined does not wait
        // for it, so it must not spill into the first dispatches.
        let started = Arc::new(Barrier::new(workers + 1));
        for i in 0..workers {
            let started = Arc::clone(&started);
            std::thread::Builder::new()
                .name(format!("smat-pool-{i}"))
                .spawn(move || {
                    started.wait();
                    worker_loop(pool)
                })
                .expect("spawn pool worker");
            SPAWNS.fetch_add(1, Ordering::Relaxed);
        }
        started.wait();
        pool
    })
}

/// Requests a pool of exactly `n` threads (`n - 1` parked workers plus
/// the dispatching caller). Only effective before the pool is built —
/// the first dispatch (or [`current_num_threads`] call) freezes the
/// size for the process lifetime, so configure it early; later calls
/// are silently ignored.
pub fn set_thread_target(n: usize) {
    TARGET.store(n.max(1), Ordering::Relaxed);
}

/// Number of threads that cooperate on a [`parallel_for`]: the parked
/// workers plus the calling thread. Builds the pool on first call.
pub fn current_num_threads() -> usize {
    pool().threads
}

/// Total OS threads ever spawned by the pool. Constant after the first
/// dispatch — the zero-spawn steady state is asserted by tests.
pub fn spawn_count() -> u64 {
    SPAWNS.load(Ordering::Relaxed)
}

/// Number of dispatches that fanned out to the workers (inline-serial
/// fallbacks — single chunk, busy pool, nested call, scripted fault —
/// are not counted).
pub fn dispatch_count() -> u64 {
    DISPATCHES.load(Ordering::Relaxed)
}

/// Claims chunks from the shared cursor until the job is exhausted.
/// Panics are caught per chunk; the first payload is kept for the
/// dispatcher to re-throw.
fn run_chunks(pool: &Pool, body: &(dyn Fn(usize) + Sync), chunks: usize) {
    loop {
        let ci = pool.cursor.fetch_add(1, Ordering::Relaxed);
        if ci >= chunks {
            break;
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(ci))) {
            let mut slot = lock(&pool.panic_box);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
    }
}

fn worker_loop(pool: &'static Pool) {
    IN_WORKER.with(|f| f.set(true));
    let mut seen = 0u64;
    loop {
        let (ptr, chunks) = {
            let mut job = lock(&pool.job);
            while job.seq == seen {
                job = pool
                    .work_cv
                    .wait(job)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            seen = job.seq;
            // Woken after the dispatcher withdrew the body: this epoch
            // is over, park again.
            let Some(ptr) = job.body.as_ref().map(|b| b.0) else {
                continue;
            };
            job.joined += 1;
            (ptr, job.chunks)
        };
        // SAFETY: `ptr` was copied while published and we counted
        // ourselves in `joined`; the dispatcher does not return (so the
        // borrow stays live) until we check out below.
        let f = unsafe { &*ptr };
        run_chunks(pool, f, chunks);
        let mut job = lock(&pool.job);
        job.joined -= 1;
        if job.joined == 0 {
            pool.done_cv.notify_all();
        }
    }
}

#[inline]
fn run_inline(chunks: usize, body: &(dyn Fn(usize) + Sync)) {
    for ci in 0..chunks {
        body(ci);
    }
}

/// Runs `body(0..chunks)` across the pool, returning when every chunk
/// has completed. Chunk indices are claimed through an atomic cursor,
/// so callers should pass a small multiple of
/// [`current_num_threads`] chunks for load balancing.
///
/// Steady state performs no heap allocation and no thread spawn. The
/// job runs inline serially when it is trivial (`chunks <= 1`), the
/// host has one core, another dispatch is in flight, the call is nested
/// inside a worker, or the `pool.dispatch` failpoint injects a failure.
///
/// # Panics
///
/// If `body` panics for some chunk, every other chunk still runs and
/// the first panic payload is re-thrown on the calling thread.
pub fn parallel_for(chunks: usize, body: &(dyn Fn(usize) + Sync)) {
    if chunks == 0 {
        return;
    }
    if chunks == 1 {
        body(0);
        return;
    }
    if IN_WORKER.with(|f| f.get()) {
        run_inline(chunks, body);
        return;
    }
    // Failpoint `pool.dispatch`: checked before any pool state is
    // touched, so a scripted `panic` unwinds cleanly, a `fail` forces
    // the inline-serial fallback and a `delay` stalls the dispatcher.
    if smat_failpoints::check("pool.dispatch").is_some() {
        run_inline(chunks, body);
        return;
    }
    let pool = pool();
    if pool.workers == 0 {
        run_inline(chunks, body);
        return;
    }
    let _guard = match pool.dispatch_lock.try_lock() {
        Ok(guard) => guard,
        // Busy pool: running inline beats convoying every caller
        // through one fan-out at a time (the chaos suite hammers a
        // shared engine from 16 threads).
        Err(TryLockError::WouldBlock) => {
            run_inline(chunks, body);
            return;
        }
        Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
    };
    DISPATCHES.fetch_add(1, Ordering::Relaxed);
    // Erase the borrow's lifetime to publish it to the workers.
    // SAFETY: the pointer is published only until the withdrawal below,
    // and this function does not return until every worker that copied
    // it has checked out (`joined == 0`), so no worker can dereference
    // it after the borrow ends.
    let ptr: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body)
    };
    {
        let mut job = lock(&pool.job);
        pool.cursor.store(0, Ordering::Relaxed);
        job.seq += 1;
        job.chunks = chunks;
        job.body = Some(BodyPtr(ptr));
        pool.work_cv.notify_all();
    }
    // The caller is the N-th worker.
    run_chunks(pool, body, chunks);
    {
        // Every chunk is claimed: withdraw the body so that a worker
        // still waking finds nothing to join, then wait only for the
        // workers running chunks they claimed.
        let mut job = lock(&pool.job);
        job.body = None;
        while job.joined > 0 {
            job = pool
                .done_cv
                .wait(job)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
    let payload = lock(&pool.panic_box).take();
    drop(_guard);
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, Barrier};
    use std::time::{Duration, Instant};

    /// The id of the dispatch `stale_bodies_never_run` has in flight, 0
    /// between its dispatches.
    static LIVE: AtomicUsize = AtomicUsize::new(0);
    /// Chunks that ran while another dispatch (or none) was live.
    static STALE: AtomicUsize = AtomicUsize::new(0);

    /// Dispatches `id` from `frames` calls deeper, so that consecutive
    /// dispatches borrow closures at different stack addresses: a stale
    /// pointer then reads a dead frame, not the next closure.
    #[inline(never)]
    fn dispatch_below(frames: usize, id: usize) {
        let pad = std::hint::black_box([frames; 32]);
        if frames > 0 {
            dispatch_below(frames - 1, id);
            std::hint::black_box(&pad);
            return;
        }
        let mine = id;
        LIVE.store(id, Ordering::SeqCst);
        parallel_for(8, &|ci| {
            let check = || {
                let live = LIVE.load(Ordering::SeqCst);
                if live != mine {
                    STALE.fetch_add(1, Ordering::SeqCst);
                }
                assert_eq!(live, mine, "a body ran outside its own dispatch");
            };
            check();
            // Later chunks run longer, so a worker holding one would
            // outlast a dispatcher that stopped waiting for its joined
            // workers.
            let t = Instant::now();
            while t.elapsed() < Duration::from_micros(2 * (ci as u64 + 1)) {}
            check();
        });
        LIVE.store(0, Ordering::SeqCst);
    }

    #[test]
    fn stale_bodies_never_run() {
        // Idle gaps park the worker, so many dispatches claim every chunk
        // before it wakes; it must then find nothing to join, and never
        // run an old epoch's body against a later epoch's chunks.
        for id in 1..=3_000 {
            dispatch_below(id % 4, id);
            if id % 2 == 0 {
                std::thread::sleep(Duration::from_micros(30 * (id % 11) as u64));
            }
        }
        // A stale chunk still running would check in within this.
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(STALE.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn every_chunk_runs_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(hits.len(), &|ci| {
            hits[ci].fetch_add(1, Ordering::Relaxed);
        });
        for (ci, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "chunk {ci}");
        }
    }

    #[test]
    fn disjoint_slice_writes_land() {
        let mut data = vec![0u64; 96];
        let base = data.as_mut_ptr() as usize;
        parallel_for(12, &|ci| {
            // SAFETY: each chunk index is claimed exactly once, and the
            // 8-element windows are disjoint.
            let chunk =
                unsafe { std::slice::from_raw_parts_mut((base as *mut u64).add(ci * 8), 8) };
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = (ci * 8 + i) as u64;
            }
        });
        let expect: Vec<u64> = (0..96).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn zero_and_single_chunk_jobs_run_inline() {
        parallel_for(0, &|_| panic!("no chunks, no calls"));
        let ran = AtomicUsize::new(0);
        parallel_for(1, &|ci| {
            assert_eq!(ci, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn steady_state_spawns_no_threads() {
        // Warm the pool, then hammer it: the spawn counter must be flat.
        parallel_for(8, &|_| {});
        let spawned = spawn_count();
        let counter = AtomicUsize::new(0);
        for _ in 0..500 {
            parallel_for(16, &|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 500 * 16);
        assert_eq!(spawn_count(), spawned, "steady state must not spawn");
        assert!(spawn_count() <= current_num_threads() as u64);
    }

    #[test]
    fn nested_dispatch_runs_inline_and_completes() {
        let counter = AtomicUsize::new(0);
        parallel_for(4, &|_| {
            parallel_for(4, &|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn panicking_chunk_propagates_to_caller_and_pool_survives() {
        let before = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            parallel_for(8, &|ci| {
                before.fetch_add(1, Ordering::Relaxed);
                if ci == 3 {
                    panic!("chunk 3 exploded");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("chunk 3 exploded"), "payload: {msg}");
        // Chunks up to the panic certainly ran (the pooled path runs
        // them all; the single-core inline fallback stops at chunk 3),
        // and the pool still works afterwards.
        assert!(before.load(Ordering::Relaxed) >= 4);
        let after = AtomicUsize::new(0);
        parallel_for(8, &|_| {
            after.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(after.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn concurrent_dispatchers_all_complete_correctly() {
        let threads = 8;
        let rounds = 50;
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for _ in 0..rounds {
                        let counter = AtomicUsize::new(0);
                        parallel_for(16, &|_| {
                            counter.fetch_add(1, Ordering::Relaxed);
                        });
                        assert_eq!(counter.load(Ordering::Relaxed), 16);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no dispatcher may panic");
        }
    }
}
