//! Execution backend of the parallel kernels.
//!
//! Chunked work fans out over the persistent parking worker pool
//! (`smat-pool`): workers started once, woken by a condvar latch,
//! claiming chunk indices through an atomic cursor — no per-call thread
//! spawn, no per-item mutex, no heap allocation in steady state.
//!
//! Every row-chunked kernel goes through [`for_each_row_chunk`], the
//! one place that turns a validated boundary list into disjoint `&mut`
//! sub-slices of the output vector.

/// Threads cooperating on one fan-out (pool workers + caller).
pub fn num_threads() -> usize {
    smat_pool::current_num_threads()
}

/// Dispatches `body(0..chunks)` over the persistent pool.
pub fn for_each_chunk(chunks: usize, body: &(dyn Fn(usize) + Sync)) {
    smat_pool::parallel_for(chunks, body);
}

/// Requests the pool size; only effective before the pool's first
/// use (see [`smat_pool::set_thread_target`]).
pub fn set_thread_target(n: usize) {
    smat_pool::set_thread_target(n);
}

/// OS threads ever spawned by the execution backend. Flat in steady
/// state — the zero-spawn guarantee the tests assert.
pub fn spawn_count() -> u64 {
    smat_pool::spawn_count()
}

/// Pool fan-outs performed (inline-serial fallbacks not counted).
/// Flat across serial planned dispatches — the serial fast path in
/// `for_each_row_chunk` never touches the pool.
pub fn dispatch_count() -> u64 {
    smat_pool::dispatch_count()
}

/// Validates a chunk boundary list against an output slice: starts at
/// 0, ends at `len`, non-decreasing.
///
/// # Panics
///
/// Panics when the bounds are malformed.
#[inline]
pub(crate) fn validate_bounds(bounds: &[usize], len: usize) {
    assert!(bounds.len() >= 2, "bounds must have at least two entries");
    assert_eq!(bounds[0], 0, "bounds must start at 0");
    assert_eq!(
        *bounds.last().expect("non-empty"),
        len,
        "bounds must end at the slice length"
    );
    assert!(
        bounds.windows(2).all(|w| w[0] <= w[1]),
        "bounds must be non-decreasing"
    );
}

/// Runs `f(chunk_index, &mut y[bounds[i]..bounds[i + 1]])` for every
/// chunk, in parallel over the execution backend.
///
/// No intermediate `Vec` of sub-slices is allocated: chunks are carved
/// from the raw output pointer inside this one audited helper.
/// Disjointness holds because the bounds are validated non-decreasing
/// and the backend hands out each chunk index exactly once.
///
/// # Panics
///
/// Panics when the bounds are malformed, and re-throws any panic from
/// `f` on the calling thread.
pub fn for_each_row_chunk<T, F>(y: &mut [T], bounds: &[usize], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    validate_bounds(bounds, y.len());
    // Serial fast path: a single-chunk plan is the whole output slice,
    // so call the body directly instead of paying the pool's wake/park
    // handshake for no parallelism. Keeps `dispatch_count` flat for
    // serial plans.
    if bounds.len() == 2 {
        return f(0, y);
    }
    let base = y.as_mut_ptr() as usize;
    for_each_chunk(bounds.len() - 1, &|ci| {
        let (b0, b1) = (bounds[ci], bounds[ci + 1]);
        // SAFETY: bounds are validated non-decreasing within
        // `0..=y.len()`, and the backend claims each chunk index
        // exactly once, so these sub-slices are in-bounds and disjoint.
        let chunk = unsafe { std::slice::from_raw_parts_mut((base as *mut T).add(b0), b1 - b0) };
        f(ci, chunk);
    });
}

/// [`for_each_row_chunk`] for row-major multi-RHS outputs: `bounds`
/// are *row* boundaries, and chunk `i` receives
/// `&mut y[bounds[i] * k..bounds[i + 1] * k]` — the `k` output columns
/// of its rows, carved from the flat `rows * k` buffer without
/// allocating scaled boundary lists.
///
/// # Panics
///
/// Panics when `k == 0`, `y.len()` is not `rows * k` for the bounds'
/// row count, or the bounds are malformed; re-throws any panic from
/// `f` on the calling thread.
pub fn for_each_row_chunk_scaled<T, F>(y: &mut [T], bounds: &[usize], k: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(k >= 1, "at least one RHS column required");
    assert_eq!(y.len() % k, 0, "y length must be a multiple of k");
    validate_bounds(bounds, y.len() / k);
    if bounds.len() == 2 {
        return f(0, y);
    }
    let base = y.as_mut_ptr() as usize;
    for_each_chunk(bounds.len() - 1, &|ci| {
        let (b0, b1) = (bounds[ci] * k, bounds[ci + 1] * k);
        // SAFETY: row bounds are validated non-decreasing within
        // `0..=rows`, so the scaled ranges stay within `0..=y.len()`
        // and disjoint; the backend claims each chunk index once.
        let chunk = unsafe { std::slice::from_raw_parts_mut((base as *mut T).add(b0), b1 - b0) };
        f(ci, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_threads_is_positive_and_stable() {
        let n = num_threads();
        assert!(n >= 1);
        assert_eq!(num_threads(), n, "cached value must not drift");
    }

    #[test]
    fn row_chunks_cover_the_slice_disjointly() {
        let mut y = vec![0usize; 103];
        let bounds = [0, 17, 17, 60, 103];
        for_each_row_chunk(&mut y, &bounds, |ci, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = 1000 * (ci + 1) + i;
            }
        });
        for (r, &v) in y.iter().enumerate() {
            let ci = match r {
                0..=16 => 0,
                17..=59 => 2,
                _ => 3,
            };
            assert_eq!(v, 1000 * (ci + 1) + (r - bounds[ci]), "row {r}");
        }
    }

    #[test]
    fn scaled_row_chunks_cover_the_buffer_disjointly() {
        let k = 3;
        let mut y = vec![0usize; 10 * k];
        let bounds = [0, 4, 4, 10];
        for_each_row_chunk_scaled(&mut y, &bounds, k, |ci, chunk| {
            assert_eq!(chunk.len() % k, 0);
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = 100 * (ci + 1) + i;
            }
        });
        for (e, &v) in y.iter().enumerate() {
            let ci = if e < 4 * k { 0 } else { 2 };
            assert_eq!(v, 100 * (ci + 1) + (e - bounds[ci] * k), "element {e}");
        }
    }

    #[test]
    #[should_panic(expected = "multiple of k")]
    fn scaled_chunks_reject_ragged_buffers() {
        let mut y = [0u8; 7];
        for_each_row_chunk_scaled(&mut y, &[0, 3], 2, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "end at the slice length")]
    fn short_bounds_are_rejected() {
        let mut y = [0u8; 4];
        for_each_row_chunk(&mut y, &[0, 2], |_, _| {});
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_bounds_are_rejected() {
        let mut y = [0u8; 4];
        for_each_row_chunk(&mut y, &[0, 3, 1, 4], |_, _| {});
    }
}
