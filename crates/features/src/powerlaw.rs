//! Power-law exponent fitting for the `R` feature.
//!
//! The paper's COO rule keys on the row-degree distribution following
//! `P(k) ~ k^-R` with `R` in `[1, 4]` ("small-world network" matrices).
//! `R` is obtained here by least-squares regression of `log count(k)`
//! against `log k` over the observed degree histogram — the heavy
//! "second step" of the paper's two-step feature extraction (§6).

use crate::params::R_NOT_SCALE_FREE;
use smat_matrix::{Csr, Scalar};

/// Minimum number of distinct positive degrees required before a fit is
/// attempted; below it the matrix "has no attribute of scale-free
/// network" and [`R_NOT_SCALE_FREE`] is returned.
pub const MIN_DISTINCT_DEGREES: usize = 4;

/// Minimum coefficient of determination (R²) for the log-log fit to be
/// accepted as scale-free.
pub const MIN_FIT_QUALITY: f64 = 0.5;

/// Fits the power-law exponent `R` of the row-degree distribution.
///
/// Returns [`R_NOT_SCALE_FREE`] when the matrix has too few distinct
/// degrees, the fitted slope is non-negative (degree counts *grow* with
/// `k`), or the fit explains less than [`MIN_FIT_QUALITY`] of the
/// variance.
///
/// # Examples
///
/// ```
/// use smat_features::{fit_power_law, R_NOT_SCALE_FREE};
/// use smat_matrix::gen::{power_law, tridiagonal};
///
/// let graph = power_law::<f64>(4000, 800, 2.0, 7);
/// let r = fit_power_law(&graph);
/// assert!(r > 1.0 && r < 4.0, "fitted R = {r}");
///
/// // A stencil has (nearly) constant degree: no scale-free structure.
/// assert_eq!(fit_power_law(&tridiagonal::<f64>(1000)), R_NOT_SCALE_FREE);
/// ```
pub fn fit_power_law<T: Scalar>(m: &Csr<T>) -> f64 {
    let degrees = (0..m.rows()).map(|r| m.row_degree(r));
    fit_power_law_of_degrees(degrees)
}

/// Fits `R` from an iterator of row degrees (exposed so feature
/// extraction can reuse an already-computed degree array).
pub fn fit_power_law_of_degrees(degrees: impl Iterator<Item = usize>) -> f64 {
    // Histogram of degrees k >= 1, one bin per degree up to the largest.
    // Its nonzero bins come out in ascending degree, which keeps the
    // float summation order (and therefore the fitted value)
    // deterministic.
    let mut counts: Vec<usize> = Vec::new();
    for d in degrees.filter(|&d| d > 0) {
        if d >= counts.len() {
            counts.resize(d + 1, 0);
        }
        counts[d] += 1;
    }
    // Count-weighted least squares on (log k, log count). Weighting by
    // bin count keeps the sparsely-sampled tail (many bins of count 1)
    // from flattening the slope — without it the fit is biased low by
    // roughly the tail length.
    let pts: Vec<(f64, f64, f64)> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(k, &c)| ((k as f64).ln(), (c as f64).ln(), c as f64))
        .collect();
    if pts.len() < MIN_DISTINCT_DEGREES {
        return R_NOT_SCALE_FREE;
    }
    let sw: f64 = pts.iter().map(|p| p.2).sum();
    let sx: f64 = pts.iter().map(|p| p.2 * p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.2 * p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.2 * p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.2 * p.0 * p.1).sum();
    let denom = sw * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return R_NOT_SCALE_FREE;
    }
    let slope = (sw * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / sw;
    // Weighted R² of the fit.
    let mean_y = sy / sw;
    let ss_tot: f64 = pts.iter().map(|p| p.2 * (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = pts
        .iter()
        .map(|p| p.2 * (p.1 - (slope * p.0 + intercept)).powi(2))
        .sum();
    let r2 = if ss_tot <= 0.0 {
        0.0
    } else {
        1.0 - ss_res / ss_tot
    };
    let r = -slope;
    if r <= 0.0 || r2 < MIN_FIT_QUALITY {
        return R_NOT_SCALE_FREE;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_matrix::gen::{fixed_degree, power_law, random_uniform};

    #[test]
    fn recovers_exponent_approximately() {
        for target in [1.5f64, 2.0, 2.8] {
            let m = power_law::<f64>(8000, 1000, target, 13);
            let r = fit_power_law(&m);
            assert!((r - target).abs() < 0.8, "target {target}, fitted {r}");
        }
    }

    #[test]
    fn constant_degree_is_not_scale_free() {
        let m = fixed_degree::<f64>(500, 500, 6, 0, 1);
        assert_eq!(fit_power_law(&m), R_NOT_SCALE_FREE);
    }

    #[test]
    fn uniform_random_is_not_scale_free() {
        // Uniform degrees in [1, 2a]: flat histogram, poor power-law fit
        // or non-negative slope.
        let m = random_uniform::<f64>(3000, 3000, 10, 2);
        let r = fit_power_law(&m);
        // Either rejected outright or fitted with a weak/irrelevant
        // exponent far from the paper's [1, 4] window — the learner keys
        // on the interval, so just check it is not a confident in-window fit.
        assert!(
            r == R_NOT_SCALE_FREE || !(1.0..=4.0).contains(&r),
            "uniform matrix fitted R = {r}"
        );
    }

    #[test]
    fn degree_iterator_variant_agrees() {
        let m = power_law::<f64>(2000, 300, 2.2, 3);
        let a = fit_power_law(&m);
        let b = fit_power_law_of_degrees((0..m.rows()).map(|r| m.row_degree(r)));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(
            fit_power_law_of_degrees(std::iter::empty()),
            R_NOT_SCALE_FREE
        );
        assert_eq!(
            fit_power_law_of_degrees([3usize, 3, 3].into_iter()),
            R_NOT_SCALE_FREE
        );
    }
}
