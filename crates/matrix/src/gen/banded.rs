//! Banded / multi-diagonal matrices with controllable diagonal occupancy.

use super::random::random_value;
use super::rows::Rows;
use crate::{Csr, Scalar};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generates an `n x n` matrix with nonzeros confined to the given
/// diagonal `offsets`, where each diagonal is occupied independently with
/// probability `density`.
///
/// `density = 1.0` yields "true diagonals" in the paper's sense
/// (`NTdiags_ratio = 1`): fully populated, DIA's best case. Lower
/// densities produce the partially-filled diagonals that hurt DIA via
/// zero fill — exactly the regime Figure 6(c) explores.
///
/// # Panics
///
/// Panics if `n == 0`, `offsets` is empty, `density` is outside `[0, 1]`,
/// or any offset magnitude is `>= n`.
///
/// # Examples
///
/// ```
/// use smat_matrix::gen::banded;
///
/// let m = banded::<f64>(100, &[-1, 0, 1], 1.0, 42);
/// assert_eq!(m.nnz(), 99 + 100 + 99);
/// ```
pub fn banded<T: Scalar>(n: usize, offsets: &[isize], density: f64, seed: u64) -> Csr<T> {
    assert!(n > 0, "empty matrix requested");
    assert!(!offsets.is_empty(), "at least one diagonal required");
    assert!((0.0..=1.0).contains(&density), "density must be in [0, 1]");
    for &o in offsets {
        assert!(
            o.unsigned_abs() < n,
            "offset {o} out of range for dimension {n}"
        );
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let ndiags = offsets.len();
    // Draw diagonal by diagonal: `taken[r * ndiags + d]` says whether
    // diagonal `d` holds an entry in row `r`, and `drawn` holds each
    // diagonal's values in row order, from `next[d]` on.
    let mut taken = vec![false; n * ndiags];
    let mut drawn = Vec::new();
    let mut next = Vec::with_capacity(ndiags);
    for (d, &off) in offsets.iter().enumerate() {
        next.push(drawn.len());
        for r in diagonal_rows(n, off) {
            if density >= 1.0 || rng.gen::<f64>() < density {
                taken[r * ndiags + d] = true;
                drawn.push(random_value::<T>(&mut rng));
            }
        }
    }
    let mut out = Rows::new(n, n, drawn.len());
    // A row copies each diagonal's next value and keeps it only if the
    // diagonal has an entry there, with no branch on the density's coin
    // flips; one slot past the last diagonal's values keeps that read in
    // bounds.
    drawn.push(T::ZERO);
    // Then row by row. With distinct offsets a row gathers its entries
    // in offset order, which is column order. A repeated offset puts
    // two entries in one column: such a matrix gathers in draw order and
    // sorts and sums each row as `Csr::from_triplets` does, so repeated
    // draws add up in the order they always have.
    let mut order: Vec<usize> = (0..ndiags).collect();
    order.sort_by_key(|&d| offsets[d]);
    let repeats = order.windows(2).any(|w| offsets[w[0]] == offsets[w[1]]);
    if repeats {
        order.sort(); // back to draw order
    }
    let mut row = vec![(0, T::ZERO); ndiags];
    for r in 0..n {
        let mut len = 0;
        for &d in &order {
            let t = usize::from(taken[r * ndiags + d]);
            row[len] = ((r as isize + offsets[d]) as usize, drawn[next[d]]);
            len += t;
            next[d] += t;
        }
        if repeats {
            out.push_unsorted_row(&mut row[..len]);
        } else {
            for &(c, v) in &row[..len] {
                out.push(c, v);
            }
            out.end_row();
        }
    }
    out.finish()
}

/// The rows in which diagonal `off` of an `n x n` matrix lies.
fn diagonal_rows(n: usize, off: isize) -> std::ops::Range<usize> {
    let first = off.min(0).unsigned_abs();
    let end = n - off.max(0).unsigned_abs();
    first..end
}

/// The classic tridiagonal `[-1, 2, -1]` matrix (1-D Poisson).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn tridiagonal<T: Scalar>(n: usize) -> Csr<T> {
    assert!(n > 0, "empty matrix requested");
    let mut out = Rows::new(n, n, 3 * n - 2);
    for i in 0..n {
        if i > 0 {
            out.push(i - 1, T::from_f64(-1.0));
        }
        out.push(i, T::from_f64(2.0));
        if i + 1 < n {
            out.push(i + 1, T::from_f64(-1.0));
        }
        out.end_row();
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dia;

    #[test]
    fn full_density_gives_true_diagonals() {
        let m = banded::<f64>(64, &[-3, 0, 5], 1.0, 1);
        assert_eq!(m.nnz(), 61 + 64 + 59);
        let dia = Dia::from_csr(&m).unwrap();
        assert_eq!(dia.offsets(), &[-3, 0, 5]);
    }

    #[test]
    fn partial_density_thins_diagonals() {
        let m = banded::<f64>(1000, &[0], 0.5, 2);
        let nnz = m.nnz();
        assert!(nnz > 350 && nnz < 650, "nnz = {nnz}");
    }

    #[test]
    fn zero_density_gives_empty() {
        let m = banded::<f64>(10, &[0, 1], 0.0, 3);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn repeated_offset_stores_the_sum_of_both_draws() {
        // Full density draws no coin flips: the diagonals draw their
        // values in `offsets` order, each in row order.
        let n = 40;
        let m = banded::<f64>(n, &[0, 1, 0], 1.0, 7);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut draw =
            |len: usize| -> Vec<f64> { (0..len).map(|_| random_value(&mut rng)).collect() };
        let (first, upper, second) = (draw(n), draw(n - 1), draw(n));
        assert_eq!(m.nnz(), n + n - 1);
        for r in 0..n {
            assert_eq!(m.get(r, r), Some(first[r] + second[r]), "row {r}");
        }
        for (r, &v) in upper.iter().enumerate() {
            assert_eq!(m.get(r, r + 1), Some(v), "row {r}");
        }
    }

    #[test]
    fn tridiagonal_structure() {
        let m = tridiagonal::<f64>(5);
        assert_eq!(m.nnz(), 13);
        assert_eq!(m.get(0, 0), Some(2.0));
        assert_eq!(m.get(2, 1), Some(-1.0));
        assert_eq!(m.get(2, 3), Some(-1.0));
        assert_eq!(m.get(0, 2), None);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            banded::<f32>(50, &[-1, 2], 0.7, 9),
            banded::<f32>(50, &[-1, 2], 0.7, 9)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_offset_panics() {
        banded::<f64>(10, &[10], 1.0, 0);
    }
}
