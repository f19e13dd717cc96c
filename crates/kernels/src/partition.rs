//! Work partitioning helpers for the parallel kernels.

use smat_matrix::{Csr, Scalar};

/// Splits `0..rows` into at most `parts` equal-size contiguous chunks,
/// returned as a boundary list `[0, b1, ..., rows]`.
///
/// # Panics
///
/// Panics if `parts == 0`.
pub fn equal_row_bounds(rows: usize, parts: usize) -> Vec<usize> {
    assert!(parts > 0, "at least one partition required");
    let parts = parts.min(rows.max(1));
    let chunk = rows.div_ceil(parts);
    let mut bounds = Vec::with_capacity(parts + 1);
    let mut b = 0;
    while b < rows {
        bounds.push(b);
        b += chunk;
    }
    bounds.push(rows);
    if bounds.len() == 1 {
        bounds.push(0); // rows == 0: keep the [0, 0] shape
    }
    bounds
}

/// Splits rows into contiguous chunks of approximately equal *nonzero
/// count* — the paper's load-balanced "threading policy" for matrices
/// with skewed row degrees.
///
/// # Panics
///
/// Panics if `parts == 0`.
pub fn nnz_balanced_bounds<T: Scalar>(m: &Csr<T>, parts: usize) -> Vec<usize> {
    assert!(parts > 0, "at least one partition required");
    let rows = m.rows();
    let nnz = m.nnz();
    let target = nnz.div_ceil(parts.min(rows.max(1)));
    let ptr = m.row_ptr();
    let mut bounds = vec![0usize];
    let mut next_target = target;
    for (r, &p) in ptr.iter().enumerate().take(rows).skip(1) {
        if p >= next_target && *bounds.last().expect("non-empty") < r {
            bounds.push(r);
            next_target = p + target;
        }
    }
    bounds.push(rows);
    bounds
}

/// Hard cap on merge-path fan-out width. The merge kernel's serial
/// fix-up pass stores one carry partial per chunk in a fixed stack
/// array (no heap allocation in steady state), so plans must never
/// exceed this many chunks. 128 chunks is 8× the widest pool this
/// project targets; the cap is enforced at plan-build time.
pub const MAX_MERGE_CHUNKS: usize = 128;

/// Merge-path decomposition of a CSR matrix: the nonzero stream is cut
/// into `parts` equal entry ranges *irrespective of row boundaries*,
/// then each chunk is assigned the rows whose first entry position
/// falls inside its range (write ownership). Returns
/// `(entry_bounds, row_bounds)`, both of length `parts + 1`.
///
/// Row `r` is owned by the chunk whose entry range contains `ptr[r]`;
/// a chunk that lies wholly inside one huge row owns zero rows and
/// contributes only a carry partial. The final row bound is forced to
/// `rows` so trailing empty rows (whose `ptr[r] == nnz`) are owned by
/// the last chunk, keeping `row_bounds` a valid monotone partition of
/// `0..rows`.
///
/// # Panics
///
/// Panics if `parts == 0`.
pub fn merge_path_bounds<T: Scalar>(m: &Csr<T>, parts: usize) -> (Vec<usize>, Vec<usize>) {
    assert!(parts > 0, "at least one partition required");
    let rows = m.rows();
    let nnz = m.nnz();
    let parts = parts.min(MAX_MERGE_CHUNKS).min(nnz.max(1));
    let ptr = m.row_ptr();
    let mut entry_bounds = Vec::with_capacity(parts + 1);
    let mut row_bounds = Vec::with_capacity(parts + 1);
    for i in 0..=parts {
        let e = i * nnz / parts;
        entry_bounds.push(e);
        let w = if i == parts {
            rows
        } else {
            // Rows are sorted by start position, so the count of rows
            // starting before `e` is a partition point.
            ptr[..rows].partition_point(|&p| p < e)
        };
        row_bounds.push(w);
    }
    (entry_bounds, row_bounds)
}

/// Number of parallel chunks to use: a small multiple of the thread
/// count so the execution backend can balance tail effects. The thread
/// count comes from [`crate::exec::num_threads`], which resolves it
/// once instead of re-querying the OS per dispatch.
pub fn default_parts() -> usize {
    crate::exec::num_threads().max(1) * 4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_bounds_cover_range() {
        let b = equal_row_bounds(10, 3);
        assert_eq!(b.first(), Some(&0));
        assert_eq!(b.last(), Some(&10));
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        // More parts than rows collapses gracefully.
        let b = equal_row_bounds(2, 8);
        assert_eq!(b, vec![0, 1, 2]);
        // Zero rows.
        assert_eq!(equal_row_bounds(0, 4), vec![0, 0]);
    }

    #[test]
    fn nnz_bounds_balance_skewed_rows() {
        // Row 0 has 100 entries, rows 1..101 one each.
        let mut triplets: Vec<(usize, usize, f64)> = (0..100).map(|c| (0, c, 1.0)).collect();
        triplets.extend((1..101).map(|r| (r, 0, 1.0)));
        let m = Csr::from_triplets(101, 100, &triplets).unwrap();
        let b = nnz_balanced_bounds(&m, 2);
        assert_eq!(b.first(), Some(&0));
        assert_eq!(b.last(), Some(&101));
        // The heavy row should sit alone (or nearly) in its chunk.
        assert!(b[1] <= 2, "boundary after heavy row, got {:?}", b);
    }

    #[test]
    fn default_parts_positive() {
        assert!(default_parts() >= 4);
    }

    #[test]
    fn merge_bounds_split_entries_evenly() {
        // Row 0 holds 90 of 100 entries: row-granular splits can't
        // balance this, entry-granular splits can.
        let mut triplets: Vec<(usize, usize, f64)> = (0..90).map(|c| (0, c, 1.0)).collect();
        triplets.extend((1..11).map(|r| (r, 0, 1.0)));
        let m = Csr::from_triplets(11, 90, &triplets).unwrap();
        let (eb, rb) = merge_path_bounds(&m, 4);
        assert_eq!(eb, vec![0, 25, 50, 75, 100]);
        assert_eq!(rb.first(), Some(&0));
        assert_eq!(rb.last(), Some(&11));
        assert!(rb.windows(2).all(|w| w[0] <= w[1]));
        // Chunks 1 and 2 sit wholly inside row 0 and own no rows.
        assert_eq!(&rb[1..4], &[1, 1, 1]);
    }

    #[test]
    fn merge_bounds_own_every_row_exactly_once() {
        let m = Csr::<f64>::from_triplets(6, 6, &[(1, 1, 2.0), (4, 0, 3.0), (4, 5, 1.0)]).unwrap();
        let (eb, rb) = merge_path_bounds(&m, 3);
        assert_eq!(eb.first(), Some(&0));
        assert_eq!(*eb.last().unwrap(), m.nnz());
        assert_eq!(rb.first(), Some(&0));
        assert_eq!(*rb.last().unwrap(), m.rows());
        // Ownership rule: rows in chunk i start at or after e_i.
        for i in 0..rb.len() - 1 {
            for r in rb[i]..rb[i + 1] {
                assert!(m.row_ptr()[r] >= eb[i], "row {r} misassigned");
            }
        }
    }

    #[test]
    fn merge_bounds_handle_empty_matrix_and_cap() {
        let m = Csr::<f64>::from_triplets(5, 5, &[]).unwrap();
        let (eb, rb) = merge_path_bounds(&m, 4);
        assert_eq!(eb, vec![0, 0]);
        assert_eq!(rb, vec![0, 5]);
        let dense: Vec<(usize, usize, f64)> = (0..500).map(|c| (0, c, 1.0)).collect();
        let m = Csr::from_triplets(1, 500, &dense).unwrap();
        let (eb, _) = merge_path_bounds(&m, 10_000);
        assert!(eb.len() - 1 <= MAX_MERGE_CHUNKS, "cap must hold");
    }
}
