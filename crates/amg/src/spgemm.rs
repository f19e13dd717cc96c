//! Sparse matrix-matrix products (CSR × CSR) and the Galerkin triple
//! product `A_coarse = R · A · P` used by the AMG setup phase.
//!
//! The multiply is Gustavson's algorithm: one dense accumulator row,
//! reset lazily via a versioned marker array. Row `i` of the product
//! adds `a_ik · b_kj` into `acc[j]` in the stored order of `a`'s row
//! `i` and then of `b`'s row `k`, and reads the row out in column
//! order; nothing about a row depends on any other row.
//!
//! **Chunking never changes a row.** The rows are cut into contiguous
//! chunks of about equal `a`-nonzeros, one per pool thread when there
//! is enough work; each chunk runs that same row loop with its own
//! accumulator, marker and output buffers over the execution backend,
//! and a prefix sum over the row lengths stitches the pieces. The
//! product is therefore bitwise the same at every thread count; one
//! thread, or a small product, is simply the one-chunk plan.

use smat_kernels::{exec, partition};
use smat_matrix::{Csr, Scalar};

/// Fewer `a`-nonzeros than this per chunk and a fan-out costs more
/// than it saves.
const MIN_CHUNK_NNZ: usize = 8192;

/// Computes `C = A · B` for CSR matrices.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn spgemm<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Csr<T> {
    let chunks = exec::num_threads().min(a.nnz() / MIN_CHUNK_NNZ);
    spgemm_chunked(a, b, chunks.max(1))
}

/// [`spgemm`] over at most `chunks` row chunks.
pub(crate) fn spgemm_chunked<T: Scalar>(a: &Csr<T>, b: &Csr<T>, chunks: usize) -> Csr<T> {
    assert_eq!(
        a.cols(),
        b.rows(),
        "spgemm dimension mismatch: {}x{} times {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let rows = a.rows();
    // The balanced splitter cuts at row boundaries it finds even when
    // asked for one part (trailing empty rows, no nonzeros at all).
    let bounds = if chunks > 1 && a.nnz() > 0 {
        partition::nnz_balanced_bounds(a, chunks)
    } else {
        vec![0, rows]
    };

    // Every chunk's buffers are allocated here, on the calling thread,
    // and its rows' lengths land in its own slice of `row_ptr`.
    let mut row_ptr = vec![0usize; rows + 1];
    let mut lens = &mut row_ptr[1..];
    let mut pieces: Vec<Piece<'_, T>> = Vec::with_capacity(bounds.len() - 1);
    for w in bounds.windows(2) {
        let (head, tail) = lens.split_at_mut(w[1] - w[0]);
        lens = tail;
        // Outputs sized once, to the operands' own footprint: Galerkin
        // products stay below it, and a product that does not just grows.
        let hint = a.row_ptr()[w[1]] - a.row_ptr()[w[0]] + b.nnz();
        pieces.push(Piece {
            first: w[0],
            lens: head,
            acc: vec![T::ZERO; b.cols()],
            marker: vec![usize::MAX; b.cols()],
            col_idx: Vec::with_capacity(hint),
            values: Vec::with_capacity(hint),
        });
    }
    let one_each: Vec<usize> = (0..=pieces.len()).collect();
    exec::for_each_row_chunk(&mut pieces, &one_each, |_, piece| {
        piece[0].multiply(a, b);
    });

    // Stitch: the first piece becomes the output, the others follow it.
    let mut pieces = pieces.into_iter().map(|p| (p.col_idx, p.values));
    let (mut col_idx, mut values) = pieces.next().expect("at least one chunk");
    for (c, v) in pieces {
        col_idx.extend_from_slice(&c);
        values.extend_from_slice(&v);
    }
    col_idx.shrink_to_fit();
    values.shrink_to_fit();
    for i in 0..rows {
        row_ptr[i + 1] += row_ptr[i];
    }
    Csr::from_parts_unchecked(rows, b.cols(), row_ptr, col_idx, values)
}

/// One row chunk of a product: rows `first..first + lens.len()`, with
/// the accumulator, marker and output buffers it alone touches.
struct Piece<'a, T> {
    first: usize,
    /// Receives each row's length.
    lens: &'a mut [usize],
    acc: Vec<T>,
    marker: Vec<usize>,
    /// The rows' entries, row after row in column order.
    col_idx: Vec<usize>,
    values: Vec<T>,
}

impl<T: Scalar> Piece<'_, T> {
    /// Gustavson's row loop over this chunk of `a · b`.
    fn multiply(&mut self, a: &Csr<T>, b: &Csr<T>) {
        let (acc, marker) = (&mut self.acc, &mut self.marker);
        let mut row_cols: Vec<usize> = Vec::new();
        for (len, i) in self.lens.iter_mut().zip(self.first..) {
            row_cols.clear();
            let (a_cols, a_vals) = a.row(i);
            for (&k, &av) in a_cols.iter().zip(a_vals) {
                let (b_cols, b_vals) = b.row(k);
                for (&j, &bv) in b_cols.iter().zip(b_vals) {
                    if marker[j] != i {
                        marker[j] = i;
                        acc[j] = T::ZERO;
                        row_cols.push(j);
                    }
                    acc[j] += av * bv;
                }
            }
            row_cols.sort_unstable();
            for &j in &row_cols {
                self.col_idx.push(j);
                self.values.push(acc[j]);
            }
            *len = row_cols.len();
        }
    }
}

/// The Galerkin coarse operator `R · A · P` (with `R` usually `P^T`).
///
/// # Panics
///
/// Panics on dimension mismatches.
pub fn rap<T: Scalar>(r: &Csr<T>, a: &Csr<T>, p: &Csr<T>) -> Csr<T> {
    spgemm(&spgemm(r, a), p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use smat_matrix::gen::{laplacian_2d_5pt, random_uniform};
    use smat_matrix::utils::max_abs_diff;

    fn dense_mul(a: &Csr<f64>, b: &Csr<f64>) -> Vec<f64> {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let da = a.to_dense();
        let db = b.to_dense();
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for l in 0..k {
                let av = da[i * k + l];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += av * db[l * n + j];
                }
            }
        }
        out
    }

    #[test]
    fn matches_dense_multiply() {
        let a = random_uniform::<f64>(40, 30, 4, 1);
        let b = random_uniform::<f64>(30, 25, 3, 2);
        let c = spgemm(&a, &b);
        assert_eq!(c.rows(), 40);
        assert_eq!(c.cols(), 25);
        assert!(max_abs_diff(&c.to_dense(), &dense_mul(&a, &b)) < 1e-12);
        c.validate().unwrap();
    }

    #[test]
    fn identity_is_neutral() {
        let a = random_uniform::<f64>(20, 20, 5, 3);
        let i = Csr::<f64>::identity(20);
        assert_eq!(spgemm(&a, &i), a);
        assert_eq!(spgemm(&i, &a), a);
    }

    #[test]
    fn rap_preserves_symmetry() {
        let a = laplacian_2d_5pt::<f64>(8, 8);
        // Simple aggregation-like P: group pairs of points.
        let n = a.rows();
        let nc = n / 2;
        let triplets: Vec<(usize, usize, f64)> =
            (0..n).map(|i| (i, (i / 2).min(nc - 1), 1.0)).collect();
        let p = Csr::from_triplets(n, nc, &triplets).unwrap();
        let r = p.transpose();
        let ac = rap(&r, &a, &p);
        assert_eq!(ac.rows(), nc);
        assert_eq!(ac.cols(), nc);
        assert_eq!(ac.transpose(), ac, "Galerkin product of symmetric A");
        // Row sums of A are >= 0 and P partitions unity -> Ac row sums >= 0.
        for i in 0..nc {
            let (_, vals) = ac.row(i);
            assert!(vals.iter().sum::<f64>() >= -1e-9);
        }
    }

    #[test]
    fn cancellation_keeps_explicit_zero() {
        // (1)(1) + (1)(-1) = 0: Gustavson keeps the structural entry.
        let a = Csr::<f64>::from_triplets(1, 2, &[(0, 0, 1.0), (0, 1, 1.0)]).unwrap();
        let b = Csr::<f64>::from_triplets(2, 1, &[(0, 0, 1.0), (1, 0, -1.0)]).unwrap();
        let c = spgemm(&a, &b);
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(0, 0), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "spgemm dimension mismatch")]
    fn mismatched_dims_panic() {
        let a = Csr::<f64>::identity(3);
        let b = Csr::<f64>::identity(4);
        spgemm(&a, &b);
    }

    #[test]
    fn every_chunking_matches_the_serial_reference() {
        let mut pairs = vec![(
            random_uniform::<f64>(90, 70, 5, 11),
            random_uniform::<f64>(70, 110, 4, 12),
        )];
        // The Galerkin operands of each oracle matrix's first level.
        for (_, a) in oracle::matrices() {
            let h = crate::setup(a.clone(), &crate::AmgConfig::default());
            let r = h.levels[0].r.clone().expect("the oracle matrices coarsen");
            let p = h.levels[0].p.clone().expect("the oracle matrices coarsen");
            pairs.push((oracle::spgemm(&r, &a), p));
            pairs.push((r, a));
        }
        for (a, b) in &pairs {
            let want = oracle::spgemm(a, b);
            assert_eq!(&spgemm(a, b), &want);
            for chunks in [1, 2, 3, 7, a.rows() + 1] {
                let got = spgemm_chunked(a, b, chunks);
                assert_eq!(got, want, "{}x{} in {chunks} chunks", a.rows(), a.cols());
                got.validate().unwrap();
            }
        }
    }

    #[test]
    fn empty_operands_multiply() {
        let z = Csr::<f64>::from_triplets(4, 3, &[]).unwrap();
        let b = random_uniform::<f64>(3, 5, 2, 1);
        for chunks in [1, 3] {
            let c = spgemm_chunked(&z, &b, chunks);
            assert_eq!((c.rows(), c.cols(), c.nnz()), (4, 5, 0));
            assert_eq!(c, oracle::spgemm(&z, &b));
        }
    }
}
