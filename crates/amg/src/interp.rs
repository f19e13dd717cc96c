//! Direct interpolation.
//!
//! Coarse points inject (`P(i, c(i)) = 1`); each fine point interpolates
//! from its strong coarse neighbors with the classical direct formula,
//! splitting positive and negative connections:
//!
//! ```text
//! w_ic = -alpha * a_ic / a_ii   (a_ic < 0),   alpha = sum_neg(N_i) / sum_neg(C_i)
//! w_ic = -beta  * a_ic / a_ii   (a_ic > 0),   beta  = sum_pos(N_i) / sum_pos(C_i)
//! ```
//!
//! where `N_i` are all off-diagonal neighbors and `C_i` the strong
//! coarse ones. This preserves row sums — constants are interpolated
//! exactly, the key AMG invariant.

use crate::coarsen::Splitting;
use crate::strength::StrengthGraph;
use smat_matrix::{Csr, Scalar};

/// Builds the prolongation matrix `P` (`n_fine x n_coarse`) by direct
/// interpolation.
///
/// # Panics
///
/// Panics if `a` is not square, or if a fine point has a zero diagonal
/// (the operator is not AMG-suitable).
pub fn direct_interpolation<T: Scalar>(
    a: &Csr<T>,
    graph: &StrengthGraph,
    splitting: &Splitting,
) -> Csr<T> {
    interpolate(a, graph, splitting, 0)
}

/// Truncates each interpolation row to its `max_elements` largest
/// weights (by magnitude), rescaling the survivors so the row sum is
/// preserved — Hypre's `P_max_elmts` interpolation truncation, which
/// keeps Galerkin coarse operators from filling in.
///
/// **Tie rule:** among weights of equal magnitude the one in the lower
/// column is kept (the selection is a stable sort of the row, which is
/// in column order, by descending `|w|`).
///
/// `max_elements == 0` disables truncation. Row-sum preservation keeps
/// constants interpolated exactly, the invariant AMG convergence rests
/// on.
///
/// # Panics
///
/// Never panics; rows with at most `max_elements` entries are returned
/// unchanged.
pub fn truncate_interpolation<T: Scalar>(p: &Csr<T>, max_elements: usize) -> Csr<T> {
    if max_elements == 0 {
        return p.clone();
    }
    let mut out = RowWriter::new(p.rows(), p.nnz(), max_elements);
    for i in 0..p.rows() {
        let (cols, vals) = p.row(i);
        out.row
            .extend(cols.iter().copied().zip(vals.iter().copied()));
        out.finish_row();
    }
    out.into_csr(p.cols())
}

/// Direct interpolation and truncation in one pass over `a`: each row
/// of `P` is assembled in a scratch row, truncated there, and appended
/// to the output arrays (see [`direct_interpolation`] and
/// [`truncate_interpolation`] for the two rules).
pub(crate) fn interpolate<T: Scalar>(
    a: &Csr<T>,
    graph: &StrengthGraph,
    splitting: &Splitting,
    max_elements: usize,
) -> Csr<T> {
    assert_eq!(a.rows(), a.cols(), "interpolation needs a square matrix");
    let n = a.rows();
    // One entry per coarse row; the fine rows share at most `|S|`
    // entries, at most `max_elements` each when truncating.
    let fine = n - splitting.n_coarse;
    let per_row = if max_elements == 0 { n } else { max_elements };
    let fine_nnz = graph.edges().min(fine.saturating_mul(per_row));
    let mut out = RowWriter::new(n, splitting.n_coarse + fine_nnz, max_elements);

    for i in 0..n {
        if splitting.is_coarse(i) {
            out.row.push((splitting.coarse_index[i] as u32, T::ONE));
            out.finish_row();
            continue;
        }
        // One forward walk of row `i`: the diagonal, the sign-split sums
        // over all neighbors and over the strong coarse ones, whose
        // entries are collected as (coarse column, a_ij). Row `i` and
        // `influencers(i)` are both in column order and `coarse_index`
        // is monotone, so the scratch row comes out sorted.
        let (cols, vals) = a.row(i);
        let strong = graph.influencers(i);
        let mut s = 0;
        let mut diag = T::ZERO;
        let (mut sum_neg_all, mut sum_pos_all) = (0.0f64, 0.0f64);
        let (mut sum_neg_c, mut sum_pos_c) = (0.0f64, 0.0f64);
        for (&j, &v) in cols.iter().zip(vals) {
            let j = j as usize;
            if j == i {
                diag = v;
            } else if v.to_f64() < 0.0 {
                sum_neg_all += v.to_f64();
            } else {
                sum_pos_all += v.to_f64();
            }
            while s < strong.len() && strong[s] < j {
                s += 1;
            }
            if s < strong.len() && strong[s] == j && splitting.is_coarse(j) {
                if v.to_f64() < 0.0 {
                    sum_neg_c += v.to_f64();
                } else {
                    sum_pos_c += v.to_f64();
                }
                out.row.push((splitting.coarse_index[j] as u32, v));
            }
        }
        assert!(
            diag != T::ZERO,
            "fine point {i} has a zero diagonal; cannot interpolate"
        );
        // A fine point without a strong coarse neighbor cannot come out
        // of `coarsen` (its fix-up promotes such points); if one is
        // passed in, the scratch row is empty and it interpolates zero.
        let alpha = if sum_neg_c != 0.0 {
            sum_neg_all / sum_neg_c
        } else {
            0.0
        };
        let beta = if sum_pos_c != 0.0 {
            sum_pos_all / sum_pos_c
        } else {
            0.0
        };
        let diag_f = diag.to_f64();
        out.row.retain_mut(|(_, value)| {
            let v = value.to_f64();
            let w = if v < 0.0 {
                -alpha * v / diag_f
            } else {
                -beta * v / diag_f
            };
            *value = T::from_f64(w);
            w != 0.0
        });
        out.finish_row();
    }
    out.into_csr(splitting.n_coarse)
}

/// Appends rows of `P` to CSR arrays, truncating each as it lands.
struct RowWriter<T> {
    max_elements: usize,
    /// The row being assembled, in column order; drained by
    /// [`Self::finish_row`].
    row: Vec<(u32, T)>,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<T>,
}

impl<T: Scalar> RowWriter<T> {
    fn new(rows: usize, nnz_bound: usize, max_elements: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        Self {
            max_elements,
            row: Vec::new(),
            row_ptr,
            col_idx: Vec::with_capacity(nnz_bound),
            values: Vec::with_capacity(nnz_bound),
        }
    }

    /// Truncates the scratch row if it is wider than `max_elements`
    /// and appends it.
    fn finish_row(&mut self) {
        let row = &mut self.row;
        if self.max_elements != 0 && row.len() > self.max_elements {
            let row_sum: f64 = row.iter().map(|(_, v)| v.to_f64()).sum();
            // Descending |w|, equal magnitudes in column order: what a
            // stable sort of the column-ordered row gives.
            row.sort_unstable_by(|x, y| {
                let (wx, wy) = (x.1.abs().to_f64(), y.1.abs().to_f64());
                wy.total_cmp(&wx).then(x.0.cmp(&y.0))
            });
            row.truncate(self.max_elements);
            let kept_sum: f64 = row.iter().map(|(_, v)| v.to_f64()).sum();
            let scale = if kept_sum.abs() > 1e-300 {
                row_sum / kept_sum
            } else {
                1.0
            };
            for (_, v) in row.iter_mut() {
                *v = T::from_f64(v.to_f64() * scale);
            }
            row.sort_unstable_by_key(|&(c, _)| c);
        }
        for (c, v) in row.drain(..) {
            self.col_idx.push(c);
            self.values.push(v);
        }
        self.row_ptr.push(self.col_idx.len());
    }

    fn into_csr(self, cols: usize) -> Csr<T> {
        Csr::from_parts_unchecked(
            self.row_ptr.len() - 1,
            cols,
            self.row_ptr,
            self.col_idx,
            self.values,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarsen::{coarsen, Coarsening};
    use crate::oracle;
    use crate::strength::{StrengthGraph, DEFAULT_THETA};
    use smat_matrix::gen::{laplacian_2d_5pt, laplacian_2d_9pt, tridiagonal};

    fn build(a: &Csr<f64>) -> (StrengthGraph, Splitting, Csr<f64>) {
        let g = StrengthGraph::build(a, DEFAULT_THETA);
        let s = coarsen(&g, Coarsening::RugeStuben, 0);
        let p = direct_interpolation(a, &g, &s);
        (g, s, p)
    }

    #[test]
    fn coarse_rows_are_injection() {
        let a = laplacian_2d_5pt::<f64>(8, 8);
        let (_, s, p) = build(&a);
        for i in 0..a.rows() {
            if s.is_coarse(i) {
                let (cols, vals) = p.row(i);
                assert_eq!(cols, &[s.coarse_index[i] as u32]);
                assert_eq!(vals, &[1.0]);
            }
        }
    }

    #[test]
    fn interpolation_reproduces_constants_in_interior() {
        // For zero-row-sum rows (interior stencil points), the direct
        // formula makes P's row sum exactly 1: constants interpolate
        // exactly.
        let a = laplacian_2d_5pt::<f64>(10, 10);
        let (_, s, p) = build(&a);
        for i in 0..a.rows() {
            let (_, avals) = a.row(i);
            let row_sum: f64 = avals.iter().sum();
            if row_sum.abs() < 1e-12 && !s.is_coarse(i) {
                let (_, pvals) = p.row(i);
                let w: f64 = pvals.iter().sum();
                assert!((w - 1.0).abs() < 1e-10, "row {i} weight sum {w}");
            }
        }
    }

    #[test]
    fn weights_are_nonnegative_for_m_matrices() {
        let a = tridiagonal::<f64>(30);
        let (_, _, p) = build(&a);
        for &v in p.values() {
            assert!(v >= 0.0, "negative interpolation weight {v}");
            assert!(v <= 1.0 + 1e-12, "weight above 1: {v}");
        }
    }

    #[test]
    fn truncation_bounds_row_width_and_preserves_sums() {
        let a = laplacian_2d_5pt::<f64>(12, 12);
        let (_, _, p) = build(&a);
        let t = truncate_interpolation(&p, 2);
        for i in 0..t.rows() {
            let (cols, vals) = t.row(i);
            assert!(cols.len() <= 2, "row {i} kept {} entries", cols.len());
            let (_, orig_vals) = p.row(i);
            let orig_sum: f64 = orig_vals.iter().sum();
            let new_sum: f64 = vals.iter().sum();
            assert!(
                (orig_sum - new_sum).abs() < 1e-10,
                "row {i} sum changed: {orig_sum} -> {new_sum}"
            );
        }
        // max_elements == 0 is identity.
        assert_eq!(truncate_interpolation(&p, 0), p);
        // Wide enough bound is also identity.
        assert_eq!(truncate_interpolation(&p, 100), p);
    }

    #[test]
    fn dimensions_match_splitting() {
        let a = laplacian_2d_5pt::<f64>(9, 7);
        let (_, s, p) = build(&a);
        assert_eq!(p.rows(), a.rows());
        assert_eq!(p.cols(), s.n_coarse);
        p.validate().unwrap();
    }

    #[test]
    fn one_pass_matches_the_triplet_reference() {
        for (name, a) in oracle::matrices() {
            for method in [Coarsening::RugeStuben, Coarsening::Cljp] {
                let g = StrengthGraph::build(&a, DEFAULT_THETA);
                let s = coarsen(&g, method, 7);
                let direct = oracle::direct_interpolation(&a, &g, &s);
                assert_eq!(
                    direct_interpolation(&a, &g, &s),
                    direct,
                    "{name} {method:?}"
                );
                for max in [0, 1, 2, 4] {
                    let want = oracle::truncate_interpolation(&direct, max);
                    let what = format!("{name} {method:?} max_elements {max}");
                    assert_eq!(truncate_interpolation(&direct, max), want, "{what}");
                    assert_eq!(interpolate(&a, &g, &s, max), want, "{what}");
                    want.validate().unwrap();
                }
            }
        }
    }

    #[test]
    fn positive_strong_connections_take_the_beta_branch() {
        // The classical graph never calls a positive connection strong,
        // so the graph comes from the 9-point stencil as it is and the
        // weights from its twin with a third of the off-diagonals
        // flipped positive: strong coarse neighbors of both signs.
        let (_, a) = oracle::matrices()
            .into_iter()
            .find(|(name, _)| *name == "positive off-diagonals")
            .unwrap();
        let g = StrengthGraph::build(&laplacian_2d_9pt::<f64>(18, 18), DEFAULT_THETA);
        let s = coarsen(&g, Coarsening::RugeStuben, 0);
        let p = direct_interpolation(&a, &g, &s);
        assert!(
            p.values().iter().any(|&w| w < 0.0),
            "a positive strong coarse connection interpolates with a negative weight"
        );
        assert_eq!(p, oracle::direct_interpolation(&a, &g, &s));
        for max in [2, 4] {
            let want = oracle::truncate_interpolation(&p, max);
            assert_eq!(interpolate(&a, &g, &s, max), want, "max_elements {max}");
        }
    }

    #[test]
    fn truncation_ties_keep_the_lower_columns() {
        let p = Csr::<f64>::from_triplets(
            1,
            5,
            &[
                (0, 0, 0.125),
                (0, 1, -0.25),
                (0, 2, 0.25),
                (0, 3, 0.25),
                (0, 4, 0.125),
            ],
        )
        .unwrap();
        let t = truncate_interpolation(&p, 2);
        assert_eq!(t.row(0).0, &[1, 2], "equal |w|: columns 1 and 2 before 3");
        assert_eq!(t, oracle::truncate_interpolation(&p, 2));
        let t = truncate_interpolation(&p, 4);
        assert_eq!(t.row(0).0, &[0, 1, 2, 3]);
        assert_eq!(t, oracle::truncate_interpolation(&p, 4));
    }
}
