//! Power-law (scale-free) graph matrices.
//!
//! The paper adopts the observation from Yang et al. \[36\] that COO "gains
//! good performance on small-world network" matrices and uses the
//! power-law exponent `R` of the row-degree distribution `P(k) ~ k^-R`
//! as a COO-affinity feature, preferring `R` in `[1, 4]`. This generator
//! produces adjacency-like matrices whose degree distribution follows a
//! discrete power law with a chosen exponent.

use super::random::ColumnSampler;
use super::rows::{capacity_for, Rows};
use crate::{Csr, Scalar};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generates an `n x n` sparse matrix whose row degrees follow
/// `P(k) ~ k^-exponent` for `k` in `[1, max_degree]`.
///
/// Column positions are uniform. The resulting matrix has a handful of
/// very heavy rows and a long tail of light rows — the shape that defeats
/// ELL (huge `max_RD`, tiny `ER_ELL`) and row-parallel CSR (load
/// imbalance).
///
/// # Panics
///
/// Panics if `n == 0`, `max_degree == 0` or `max_degree > n`, or
/// `exponent <= 0`.
///
/// # Examples
///
/// ```
/// use smat_matrix::gen::power_law;
///
/// let m = power_law::<f64>(1000, 200, 2.0, 7);
/// assert_eq!(m.rows(), 1000);
/// let max_deg = (0..m.rows()).map(|r| m.row_degree(r)).max().unwrap();
/// assert!(max_deg > 20); // heavy-tail head exists
/// ```
pub fn power_law<T: Scalar>(n: usize, max_degree: usize, exponent: f64, seed: u64) -> Csr<T> {
    assert!(n > 0, "empty matrix requested");
    assert!(
        max_degree > 0 && max_degree <= n,
        "max_degree must be in 1..=n"
    );
    assert!(exponent > 0.0, "exponent must be positive");
    let mut rng = SmallRng::seed_from_u64(seed);

    // Cumulative distribution over k = 1..=max_degree with P(k) ~ k^-exp.
    let mut cdf = Vec::with_capacity(max_degree);
    let mut acc = 0.0f64;
    let mut first_moment = 0.0f64;
    for k in 1..=max_degree {
        let p = (k as f64).powf(-exponent);
        acc += p;
        first_moment += k as f64 * p;
        cdf.push(acc);
    }
    let total = acc;
    let mean_degree = first_moment / total;
    // A row's degree is one more than the number of `cdf` entries below
    // its draw `u`. `guide[b]` counts those below the `b`-th of
    // `max_degree` equal slices of the total: a start a step or two from
    // `u`'s count on average, which the two loops below then walk to
    // exactly (`cdf` never decreases), with no binary search per row.
    let guide: Vec<usize> = (0..max_degree)
        .map(|b| cdf.partition_point(|&c| c < total * b as f64 / max_degree as f64))
        .collect();

    let mut sampler = ColumnSampler::new(n);
    let mut out = Rows::new(n, n, capacity_for(n as f64 * mean_degree));
    for _ in 0..n {
        let x = rng.gen::<f64>();
        let u = x * total;
        let mut below = guide[((x * max_degree as f64) as usize).min(max_degree - 1)];
        while below > 0 && cdf[below - 1] >= u {
            below -= 1;
        }
        while below < max_degree && cdf[below] < u {
            below += 1;
        }
        sampler.push_row(&mut out, &mut rng, (below + 1).min(max_degree));
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            power_law::<f64>(300, 50, 2.0, 5),
            power_law::<f64>(300, 50, 2.0, 5)
        );
    }

    #[test]
    fn heavy_tail_shape() {
        let m = power_law::<f64>(2000, 400, 2.0, 9);
        let degs: Vec<usize> = (0..m.rows()).map(|r| m.row_degree(r)).collect();
        let ones = degs.iter().filter(|&&d| d == 1).count();
        let heavy = degs.iter().filter(|&&d| d > 50).count();
        // With exponent 2, over half the rows have degree 1 and a few are heavy.
        assert!(ones > m.rows() / 3, "ones = {ones}");
        assert!(heavy > 0, "no heavy rows");
        assert!(heavy < m.rows() / 20, "too many heavy rows: {heavy}");
    }

    #[test]
    fn steeper_exponent_means_lighter_matrix() {
        let shallow = power_law::<f64>(1000, 100, 1.5, 3);
        let steep = power_law::<f64>(1000, 100, 3.5, 3);
        assert!(steep.nnz() < shallow.nnz());
    }

    #[test]
    fn all_rows_nonempty() {
        let m = power_law::<f64>(500, 100, 2.5, 1);
        assert!((0..m.rows()).all(|r| m.row_degree(r) >= 1));
    }

    #[test]
    #[should_panic(expected = "max_degree")]
    fn oversized_degree_panics() {
        power_law::<f64>(10, 20, 2.0, 0);
    }
}
