//! Unstructured random sparse matrices.

use super::rows::{capacity_for, Rows};
use crate::{Csr, Scalar};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generates a random sparse matrix where each row's degree is drawn
/// uniformly from `[1, 2 * avg_degree]` and column positions are uniform.
///
/// This is the "general unstructured" archetype: high `var_RD`, no
/// diagonal structure — the territory where CSR wins in the paper's
/// Table 1 (linear programming, optimization, economics, ...).
///
/// # Panics
///
/// Panics if `rows == 0`, `cols == 0`, or `avg_degree == 0`.
///
/// # Examples
///
/// ```
/// use smat_matrix::gen::random_uniform;
///
/// let m = random_uniform::<f64>(100, 100, 8, 42);
/// assert_eq!(m.rows(), 100);
/// assert!(m.nnz() > 0);
/// // Deterministic for a fixed seed.
/// assert_eq!(m, random_uniform::<f64>(100, 100, 8, 42));
/// ```
pub fn random_uniform<T: Scalar>(rows: usize, cols: usize, avg_degree: usize, seed: u64) -> Csr<T> {
    assert!(rows > 0 && cols > 0, "empty matrix requested");
    assert!(avg_degree > 0, "avg_degree must be positive");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sampler = ColumnSampler::new(cols);
    let widest = (2 * avg_degree).min(cols);
    let mut out = Rows::new(
        rows,
        cols,
        capacity_for(rows as f64 * (1 + widest) as f64 / 2.0),
    );
    for _ in 0..rows {
        let deg = rng.gen_range(1..=widest);
        sampler.push_row(&mut out, &mut rng, deg);
    }
    out.finish()
}

/// Generates a random sparse matrix with (near-)fixed row degree
/// `degree ± jitter`.
///
/// Low `var_RD` and `ER_ELL` near 1: the ELL-friendly archetype
/// (combinatorial problems, least squares in the paper's Table 1).
///
/// # Panics
///
/// Panics if `rows == 0`, `cols == 0`, `degree == 0`, or
/// `degree + jitter > cols`.
pub fn fixed_degree<T: Scalar>(
    rows: usize,
    cols: usize,
    degree: usize,
    jitter: usize,
    seed: u64,
) -> Csr<T> {
    assert!(rows > 0 && cols > 0, "empty matrix requested");
    assert!(degree > 0, "degree must be positive");
    assert!(
        degree + jitter <= cols,
        "degree + jitter exceeds column count"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sampler = ColumnSampler::new(cols);
    let mut out = Rows::new(rows, cols, rows * (degree + jitter));
    for _ in 0..rows {
        let deg = if jitter == 0 {
            degree
        } else {
            rng.gen_range(degree.saturating_sub(jitter).max(1)..=degree + jitter)
        };
        sampler.push_row(&mut out, &mut rng, deg);
    }
    out.finish()
}

/// Generates a random sparse matrix with skewed row degrees: most rows
/// draw uniformly from `[1, 2 * avg_degree]`, but a `heavy_fraction` of
/// rows are "heavy" with degree up to `heavy_factor * avg_degree`.
///
/// Real unstructured matrices (linear programming, optimization,
/// economics in the paper's Table 1) have a few dense rows among many
/// light ones — exactly the profile that makes ELL's `max_RD` padding
/// and DIA's diagonal census explode, leaving CSR the winner.
///
/// # Panics
///
/// Panics if `rows == 0`, `cols == 0`, `avg_degree == 0`,
/// `heavy_factor == 0`, or `heavy_fraction` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use smat_matrix::gen::random_skewed;
///
/// let m = random_skewed::<f64>(500, 500, 8, 0.05, 16, 42);
/// let max_deg = (0..m.rows()).map(|r| m.row_degree(r)).max().unwrap();
/// assert!(max_deg > 16, "heavy rows exist: {max_deg}");
/// ```
pub fn random_skewed<T: Scalar>(
    rows: usize,
    cols: usize,
    avg_degree: usize,
    heavy_fraction: f64,
    heavy_factor: usize,
    seed: u64,
) -> Csr<T> {
    assert!(rows > 0 && cols > 0, "empty matrix requested");
    assert!(avg_degree > 0, "avg_degree must be positive");
    assert!(heavy_factor > 0, "heavy_factor must be positive");
    assert!(
        (0.0..=1.0).contains(&heavy_fraction),
        "heavy_fraction must be in [0, 1]"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sampler = ColumnSampler::new(cols);
    let light = (2 * avg_degree).min(cols);
    let heavy = (heavy_factor * avg_degree).min(cols).max(avg_degree);
    let mean = (1.0 - heavy_fraction) * (1 + light) as f64 / 2.0
        + heavy_fraction * (avg_degree + heavy) as f64 / 2.0;
    let mut out = Rows::new(rows, cols, capacity_for(rows as f64 * mean));
    for _ in 0..rows {
        let deg = if rng.gen::<f64>() < heavy_fraction {
            rng.gen_range(avg_degree..=heavy)
        } else {
            rng.gen_range(1..=light)
        };
        sampler.push_row(&mut out, &mut rng, deg);
    }
    out.finish()
}

/// Draws rows of distinct random columns, each with a random value,
/// for one matrix.
///
/// A row of degree `deg` takes its columns by rejection (`deg * 4 <
/// cols`) or by a partial Fisher-Yates shuffle of `0..cols` (denser
/// rows, where rejection would loop). The draws are fixed: rejection
/// draws a column and, if it is new to the row, that entry's value at
/// once; the shuffle swaps `deg` times and then draws the values in
/// picked order.
///
/// The bookkeeping lives as long as the matrix, not the row, and is
/// O(`cols`) words: a bitset of the row's columns with a summary bit
/// per bitset word, each column's value, and one identity permutation
/// that a shuffled row restores by undoing its swaps. A row comes out
/// in column order by walking the set bits, clearing them as it goes,
/// unless it is too short for that walk to beat sorting its columns.
pub(super) struct ColumnSampler<T> {
    cols: usize,
    /// Bit `c % 64` of `taken[c / 64]`: column `c` is in the current row.
    taken: Vec<u64>,
    /// Bit `w % 64` of `nonzero[w / 64]`: `taken[w]` is not zero.
    nonzero: Vec<u64>,
    /// The current row's value in each of its columns.
    value: Vec<T>,
    /// The current row's columns, in draw order.
    picked: Vec<usize>,
    /// `0..cols` between rows (allocated by the first shuffled row).
    perm: Vec<usize>,
    swaps: Vec<usize>,
}

/// Rows this short sort their columns rather than walk the bitset.
const SORTED_ROW: usize = 4;

impl<T: Scalar> ColumnSampler<T> {
    pub(super) fn new(cols: usize) -> Self {
        let words = cols.div_ceil(64);
        Self {
            cols,
            taken: vec![0; words],
            nonzero: vec![0; words.div_ceil(64)],
            value: vec![T::ZERO; cols],
            picked: Vec::new(),
            perm: Vec::new(),
            swaps: Vec::new(),
        }
    }

    /// Adds column `c` to the row; `false` if it was already there.
    #[inline]
    fn take(&mut self, c: usize) -> bool {
        let (w, bit) = (c / 64, 1u64 << (c % 64));
        if self.taken[w] & bit != 0 {
            return false;
        }
        self.taken[w] |= bit;
        self.nonzero[w / 64] |= 1u64 << (w % 64);
        self.picked.push(c);
        true
    }

    /// Draws `deg` (at most `cols`) distinct entries and appends them to
    /// `out` as its next row.
    pub(super) fn push_row(&mut self, out: &mut Rows<T>, rng: &mut SmallRng, deg: usize) {
        let cols = self.cols;
        let deg = deg.min(cols);
        self.picked.clear();
        if deg * 4 >= cols {
            if self.perm.is_empty() {
                self.perm = (0..cols).collect();
            }
            self.swaps.clear();
            for i in 0..deg {
                let j = rng.gen_range(i..cols);
                self.perm.swap(i, j);
                self.swaps.push(j);
            }
            for i in 0..deg {
                let c = self.perm[i];
                self.take(c);
                self.value[c] = random_value(rng);
            }
            for (i, &j) in self.swaps.iter().enumerate().rev() {
                self.perm.swap(i, j);
            }
        } else {
            while self.picked.len() < deg {
                let c = rng.gen_range(0..cols);
                if self.take(c) {
                    self.value[c] = random_value(rng);
                }
            }
        }
        if deg <= SORTED_ROW.max(self.nonzero.len()) {
            self.picked.sort_unstable();
            for &c in &self.picked {
                out.push(c, self.value[c]);
                self.taken[c / 64] = 0;
                self.nonzero[c / 4096] = 0;
            }
        } else {
            for s in 0..self.nonzero.len() {
                let mut words = std::mem::take(&mut self.nonzero[s]);
                while words != 0 {
                    let w = s * 64 + words.trailing_zeros() as usize;
                    words &= words - 1;
                    let mut bits = std::mem::take(&mut self.taken[w]);
                    while bits != 0 {
                        let c = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        out.push(c, self.value[c]);
                    }
                }
            }
        }
        out.end_row();
    }
}

/// A nonzero value in `[-1, -0.1] ∪ [0.1, 1]` — bounded away from zero so
/// structural nonzeros never vanish numerically.
///
/// The sign draw sets the sign bit rather than branching (it is a coin
/// flip, so a branch mispredicts half the time); `mag` is positive, so
/// this is exactly `±1.0 * mag`.
#[inline]
pub(crate) fn random_value<T: Scalar>(rng: &mut SmallRng) -> T {
    let mag = 0.1 + 0.9 * rng.gen::<f64>();
    let negative = !rng.gen::<bool>();
    T::from_f64(f64::from_bits(mag.to_bits() | (u64::from(negative) << 63)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = random_uniform::<f64>(50, 60, 5, 7);
        let b = random_uniform::<f64>(50, 60, 5, 7);
        let c = random_uniform::<f64>(50, 60, 5, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn degrees_in_expected_range() {
        let m = random_uniform::<f64>(200, 200, 6, 1);
        for r in 0..m.rows() {
            let d = m.row_degree(r);
            assert!((1..=12).contains(&d), "row {r} degree {d}");
        }
    }

    #[test]
    fn fixed_degree_is_fixed() {
        let m = fixed_degree::<f64>(100, 100, 7, 0, 3);
        assert!((0..m.rows()).all(|r| m.row_degree(r) == 7));
        assert_eq!(m.nnz(), 700);
    }

    #[test]
    fn fixed_degree_jitter_bounds() {
        let m = fixed_degree::<f64>(100, 100, 7, 2, 3);
        for r in 0..m.rows() {
            let d = m.row_degree(r);
            assert!((5..=9).contains(&d));
        }
    }

    #[test]
    fn values_bounded_away_from_zero() {
        let m = random_uniform::<f64>(30, 30, 4, 11);
        for &v in m.values() {
            assert!(v.abs() >= 0.1 && v.abs() <= 1.0);
        }
    }

    #[test]
    fn dense_rows_have_distinct_columns() {
        // deg*4 >= cols path
        let m = fixed_degree::<f64>(10, 8, 6, 0, 5);
        m.validate().unwrap();
        assert_eq!(m.nnz(), 60);
    }

    #[test]
    #[should_panic(expected = "degree + jitter exceeds")]
    fn jitter_overflow_panics() {
        fixed_degree::<f64>(10, 5, 5, 1, 0);
    }
}
