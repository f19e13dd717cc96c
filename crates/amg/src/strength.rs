//! Classical strength-of-connection graph.
//!
//! Point `j` strongly influences point `i` when
//! `-a_ij >= theta * max_{k != i} (-a_ik)` — the standard Ruge–Stüben
//! measure for M-matrix-like operators (Hypre's default with
//! `theta = 0.25`).

use smat_matrix::{Csr, Scalar};

/// Default strength threshold (Hypre's classical default).
pub const DEFAULT_THETA: f64 = 0.25;

/// The strength graph: for each point, the points that strongly
/// influence it, plus the transpose (the points it strongly influences).
#[derive(Debug, Clone, PartialEq)]
pub struct StrengthGraph {
    n: usize,
    /// CSR-style adjacency: `influencers[ptr[i]..ptr[i+1]]` strongly
    /// influence `i` (i.e. the strong part of row `i`).
    ptr: Vec<usize>,
    influencers: Vec<usize>,
    /// Transpose adjacency: points that `i` strongly influences.
    t_ptr: Vec<usize>,
    t_influences: Vec<usize>,
}

impl StrengthGraph {
    /// Builds the strength graph of a square matrix with threshold
    /// `theta`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `theta` is outside `[0, 1]`.
    pub fn build<T: Scalar>(a: &Csr<T>, theta: f64) -> Self {
        assert_eq!(a.rows(), a.cols(), "strength graph needs a square matrix");
        assert!((0.0..=1.0).contains(&theta), "theta must be in [0, 1]");
        let n = a.rows();
        // One sweep over `a`: `influencers` is sized once (a strong
        // connection is a stored off-diagonal, so `nnz` bounds it) and
        // the transpose's column counts are taken as entries are kept.
        let mut ptr = Vec::with_capacity(n + 1);
        let mut influencers = Vec::with_capacity(a.nnz());
        let mut t_ptr = vec![0usize; n + 1];
        ptr.push(0);
        for i in 0..n {
            let (cols, vals) = a.row(i);
            // Strongest off-diagonal connection (negative direction).
            let mut max_off = 0.0f64;
            for (&j, &v) in cols.iter().zip(vals) {
                if j as usize != i {
                    max_off = max_off.max((-v.to_f64()).max(0.0));
                }
            }
            if max_off > 0.0 {
                let cut = theta * max_off;
                for (&j, &v) in cols.iter().zip(vals) {
                    let j = j as usize;
                    if j != i && -v.to_f64() >= cut && -v.to_f64() > 0.0 {
                        influencers.push(j);
                        t_ptr[j + 1] += 1;
                    }
                }
            }
            ptr.push(influencers.len());
        }
        // Transpose: prefix-sum the counts, then scatter rows in order so
        // every `influences` list comes out ascending.
        for i in 0..n {
            t_ptr[i + 1] += t_ptr[i];
        }
        let mut t_influences = vec![0usize; influencers.len()];
        let mut next = t_ptr[..n].to_vec();
        for i in 0..n {
            for &j in &influencers[ptr[i]..ptr[i + 1]] {
                t_influences[next[j]] = i;
                next[j] += 1;
            }
        }
        Self {
            n,
            ptr,
            influencers,
            t_ptr,
            t_influences,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Points that strongly influence `i` (the set `S_i`).
    pub fn influencers(&self, i: usize) -> &[usize] {
        &self.influencers[self.ptr[i]..self.ptr[i + 1]]
    }

    /// Points that `i` strongly influences (the set `S_i^T`).
    pub fn influences(&self, i: usize) -> &[usize] {
        &self.t_influences[self.t_ptr[i]..self.t_ptr[i + 1]]
    }

    /// `|S|` — the number of strong connections in the whole graph.
    pub(crate) fn edges(&self) -> usize {
        self.influencers.len()
    }

    /// `|S_i^T|` — the initial Ruge–Stüben/CLJP measure of `i`.
    pub fn influence_count(&self, i: usize) -> usize {
        self.t_ptr[i + 1] - self.t_ptr[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_matrix::gen::{laplacian_2d_5pt, tridiagonal};

    #[test]
    fn laplacian_neighbors_are_strong() {
        let a = laplacian_2d_5pt::<f64>(4, 4);
        let s = StrengthGraph::build(&a, DEFAULT_THETA);
        // Interior point 5 has 4 equal off-diagonals: all strong.
        assert_eq!(s.influencers(5).len(), 4);
        // Symmetric matrix: influence sets match influencer sets.
        for i in 0..s.len() {
            let mut inf: Vec<usize> = s.influences(i).to_vec();
            inf.sort_unstable();
            let mut infl: Vec<usize> = s.influencers(i).to_vec();
            infl.sort_unstable();
            assert_eq!(inf, infl);
            assert_eq!(s.influence_count(i), s.influences(i).len());
        }
    }

    #[test]
    fn theta_one_keeps_only_strongest() {
        let a = smat_matrix::Csr::<f64>::from_triplets(
            2,
            2,
            &[(0, 0, 2.0), (0, 1, -1.0), (1, 0, -0.5), (1, 1, 2.0)],
        )
        .unwrap();
        let s = StrengthGraph::build(&a, 1.0);
        assert_eq!(s.influencers(0), &[1]);
        assert_eq!(s.influencers(1), &[0]);
    }

    #[test]
    fn positive_offdiagonals_are_never_strong() {
        let a = smat_matrix::Csr::<f64>::from_triplets(
            2,
            2,
            &[(0, 0, 2.0), (0, 1, 1.0), (1, 0, -1.0), (1, 1, 2.0)],
        )
        .unwrap();
        let s = StrengthGraph::build(&a, 0.25);
        assert!(s.influencers(0).is_empty());
        assert_eq!(s.influencers(1), &[0]);
    }

    #[test]
    fn tridiagonal_counts() {
        let a = tridiagonal::<f64>(10);
        let s = StrengthGraph::build(&a, 0.25);
        assert_eq!(s.influencers(0).len(), 1);
        assert_eq!(s.influencers(5).len(), 2);
        assert_eq!(s.influence_count(0), 1);
        assert_eq!(s.influence_count(5), 2);
    }

    #[test]
    fn diagonal_only_matrix_has_empty_graph() {
        let a = smat_matrix::Csr::<f64>::identity(5);
        let s = StrengthGraph::build(&a, 0.25);
        for i in 0..5 {
            assert!(s.influencers(i).is_empty());
            assert_eq!(s.influence_count(i), 0);
        }
    }
}
