//! The synthetic training/evaluation corpus — our stand-in for the
//! University of Florida sparse matrix collection.
//!
//! The paper trains on 2055 UF matrices and evaluates on the remaining
//! 331, spread over the 23 application domains of its Table 1. This
//! module generates a seeded mixture of structural archetypes covering
//! the same feature space (diagonal counts, fill ratios, degree variance,
//! power-law exponents), each tagged with the application domain its
//! structure is typical of, so Table 1's rows can be re-created.

use super::block::block_sparse_varied;
use super::random::random_skewed;
use super::{
    banded, fixed_degree, laplacian_2d_5pt, laplacian_2d_9pt, laplacian_3d_7pt, power_law,
};
use crate::{Csr, Scalar};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Structural archetype a corpus matrix is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Archetype {
    /// Fully populated diagonals (paper's "true diagonals") — DIA's best
    /// case.
    TrueDiagonal,
    /// Partially populated diagonals — the DIA/CSR boundary Figure 6(c)
    /// probes.
    ScatteredDiagonal,
    /// PDE stencil on a regular grid (5/7/9-point Laplacian).
    Stencil,
    /// Near-constant row degree — ELL's best case.
    UniformDegree,
    /// Moderate row-degree variance — the ELL/CSR boundary Figure 6(d)
    /// probes.
    LowVarianceDegree,
    /// Scale-free graph with power-law row degrees — COO territory.
    PowerLawGraph,
    /// Unstructured random sparsity — CSR territory.
    RandomUnstructured,
    /// Dense sub-blocks on a block grid — CSR territory with locality.
    BlockSparse,
}

impl Archetype {
    /// All archetypes.
    pub const ALL: [Archetype; 8] = [
        Archetype::TrueDiagonal,
        Archetype::ScatteredDiagonal,
        Archetype::Stencil,
        Archetype::UniformDegree,
        Archetype::LowVarianceDegree,
        Archetype::PowerLawGraph,
        Archetype::RandomUnstructured,
        Archetype::BlockSparse,
    ];

    /// Application domains (from the paper's Table 1) whose matrices
    /// typically have this structure.
    pub fn domains(self) -> &'static [&'static str] {
        match self {
            Archetype::TrueDiagonal => &[
                "theoretical quantum chemistry",
                "electromagnetics",
                "materials",
            ],
            Archetype::ScatteredDiagonal => {
                &["computational fluid dynamics", "structural", "thermal"]
            }
            Archetype::Stencil => &["2D 3D", "computational fluid dynamics", "acoustics"],
            Archetype::UniformDegree => &["combinatorial", "least squares"],
            Archetype::LowVarianceDegree => &["combinatorial", "statistical mathematical"],
            Archetype::PowerLawGraph => &["graph", "circuit simulation", "model reduction"],
            Archetype::RandomUnstructured => &[
                "linear programming",
                "optimization",
                "economic",
                "chemical process simulation",
                "power network",
            ],
            Archetype::BlockSparse => &["structural", "semiconductor device", "robotics"],
        }
    }
}

/// One matrix of the corpus, with its provenance.
#[derive(Debug, Clone)]
pub struct CorpusEntry<T> {
    /// Unique synthetic name (plays the role of the UF matrix name).
    pub name: String,
    /// Application domain label (one of the paper's Table 1 rows).
    pub domain: &'static str,
    /// Which generator produced it.
    pub archetype: Archetype,
    /// The matrix itself, in the unified CSR interface format.
    pub matrix: Csr<T>,
}

/// Parameters of corpus generation.
#[derive(Debug, Clone)]
pub struct CorpusSpec {
    /// Number of matrices to generate.
    pub count: usize,
    /// RNG seed; the corpus is a pure function of the spec.
    pub seed: u64,
    /// Minimum matrix dimension.
    pub min_dim: usize,
    /// Maximum matrix dimension.
    pub max_dim: usize,
}

impl Default for CorpusSpec {
    /// A corpus sized like the paper's training set (~2000 matrices) but
    /// with laptop-scale dimensions.
    fn default() -> Self {
        Self {
            count: 2000,
            seed: 0x5AA7,
            min_dim: 256,
            max_dim: 4096,
        }
    }
}

impl CorpusSpec {
    /// A small corpus for unit tests and quick demos.
    pub fn small(count: usize, seed: u64) -> Self {
        Self {
            count,
            seed,
            min_dim: 64,
            max_dim: 512,
        }
    }
}

/// Generates the labeled corpus described by `spec`.
///
/// Archetypes are drawn with weights chosen so the *measured* best-format
/// distribution lands in the neighborhood of the paper's Table 1 split
/// (CSR 63%, COO 21%, DIA 9%, ELL 7%): unstructured/block/power-law
/// matrices dominate, diagonal and uniform-degree matrices are the
/// minority classes.
///
/// # Panics
///
/// Panics if `spec.count == 0` or `spec.min_dim < 16` or
/// `spec.max_dim < spec.min_dim`.
///
/// # Examples
///
/// ```
/// use smat_matrix::gen::{generate_corpus, CorpusSpec};
///
/// let corpus = generate_corpus::<f64>(&CorpusSpec::small(20, 1));
/// assert_eq!(corpus.len(), 20);
/// assert!(corpus.iter().all(|e| e.matrix.nnz() > 0));
/// ```
pub fn generate_corpus<T: Scalar>(spec: &CorpusSpec) -> Vec<CorpusEntry<T>> {
    assert!(spec.count > 0, "empty corpus requested");
    assert!(spec.min_dim >= 16, "min_dim must be at least 16");
    assert!(spec.max_dim >= spec.min_dim, "max_dim below min_dim");
    let mut rng = SmallRng::seed_from_u64(spec.seed);

    // (archetype, weight): tuned so measured format affinity approximates
    // Table 1's 63/21/9/7 split.
    const WEIGHTS: [(Archetype, u32); 8] = [
        (Archetype::TrueDiagonal, 4),
        (Archetype::ScatteredDiagonal, 4),
        (Archetype::Stencil, 3),
        (Archetype::UniformDegree, 3),
        (Archetype::LowVarianceDegree, 2),
        (Archetype::PowerLawGraph, 27),
        (Archetype::RandomUnstructured, 42),
        (Archetype::BlockSparse, 15),
    ];
    let total: u32 = WEIGHTS.iter().map(|&(_, w)| w).sum();

    let mut corpus = Vec::with_capacity(spec.count);
    for i in 0..spec.count {
        let mut pick = rng.gen_range(0..total);
        let archetype = WEIGHTS
            .iter()
            .find(|&&(_, w)| {
                if pick < w {
                    true
                } else {
                    pick -= w;
                    false
                }
            })
            .expect("weights cover range")
            .0;
        let seed = rng.gen::<u64>();
        let matrix = generate_one::<T>(archetype, spec, &mut rng, seed);
        let domains = archetype.domains();
        let domain = domains[rng.gen_range(0..domains.len())];
        corpus.push(CorpusEntry {
            name: format!("syn_{:?}_{i:05}", archetype).to_lowercase(),
            domain,
            archetype,
            matrix,
        });
    }
    corpus
}

/// Log-uniform dimension draw in `[min_dim, max_dim]`.
pub(super) fn draw_dim(rng: &mut SmallRng, spec: &CorpusSpec) -> usize {
    let lo = (spec.min_dim as f64).ln();
    let hi = (spec.max_dim as f64).ln();
    (lo + rng.gen::<f64>() * (hi - lo)).exp().round() as usize
}

fn generate_one<T: Scalar>(
    archetype: Archetype,
    spec: &CorpusSpec,
    rng: &mut SmallRng,
    seed: u64,
) -> Csr<T> {
    let n = draw_dim(rng, spec).max(16);
    match archetype {
        Archetype::TrueDiagonal => {
            let ndiags = rng.gen_range(3..=11);
            let offsets = draw_offsets(rng, n, ndiags);
            let density = 0.92 + 0.08 * rng.gen::<f64>();
            banded(n, &offsets, density, seed)
        }
        Archetype::ScatteredDiagonal => {
            let ndiags = rng.gen_range(5..=25.min(n / 4).max(6));
            let offsets = draw_offsets(rng, n, ndiags);
            let density = 0.25 + 0.5 * rng.gen::<f64>();
            banded(n, &offsets, density, seed)
        }
        Archetype::Stencil => {
            let side = ((n as f64).sqrt() as usize).max(4);
            match rng.gen_range(0..3) {
                0 => laplacian_2d_5pt(side, side),
                1 => laplacian_2d_9pt(side, side),
                _ => {
                    let s3 = ((n as f64).cbrt() as usize).max(3);
                    laplacian_3d_7pt(s3, s3, s3)
                }
            }
        }
        Archetype::UniformDegree => {
            let deg = rng.gen_range(4..=24).min(n / 2).max(1);
            fixed_degree(n, n, deg, rng.gen_range(0..=1).min(deg - 1), seed)
        }
        Archetype::LowVarianceDegree => {
            let deg = rng.gen_range(6..=24).min(n / 2).max(3);
            let jitter = rng.gen_range(2..=3).min(deg - 1);
            fixed_degree(n, n, deg, jitter, seed)
        }
        Archetype::PowerLawGraph => {
            let exponent = 1.2 + 2.3 * rng.gen::<f64>(); // in the paper's [1, 4] window
            let max_deg = (n / 4).clamp(8, 512);
            power_law(n, max_deg, exponent, seed)
        }
        Archetype::RandomUnstructured => {
            // Skewed degrees: the occasional heavy row is what keeps real
            // unstructured matrices out of ELL's comfort zone.
            let avg = rng.gen_range(2..=32).min(n / 8).max(1);
            let heavy_fraction = 0.02 + 0.06 * rng.gen::<f64>();
            let heavy_factor = rng.gen_range(6..=16);
            random_skewed(n, n, avg, heavy_fraction, heavy_factor, seed)
        }
        Archetype::BlockSparse => {
            let bs = [2usize, 3, 4, 6, 8][rng.gen_range(0..5)];
            let n = (n / bs).max(2) * bs;
            let nb = n / bs;
            let max_bpr = rng.gen_range(2..=6).min(nb);
            block_sparse_varied(n, bs, max_bpr, seed)
        }
    }
}

/// Draws `ndiags` distinct diagonal offsets, always including 0, biased
/// toward the principal diagonal as real banded matrices are.
pub(super) fn draw_offsets(rng: &mut SmallRng, n: usize, ndiags: usize) -> Vec<isize> {
    let mut set = std::collections::BTreeSet::new();
    set.insert(0isize);
    let max_off = (n as isize - 1).min(n as isize / 2).max(1);
    while set.len() < ndiags {
        // Geometric-ish spread: small offsets are more likely.
        let mag = (rng.gen::<f64>().powi(2) * max_off as f64) as isize;
        let off = if rng.gen::<bool>() { mag } else { -mag };
        if off.unsigned_abs() < n {
            set.insert(off);
        }
    }
    set.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        let a = generate_corpus::<f64>(&CorpusSpec::small(30, 5));
        let b = generate_corpus::<f64>(&CorpusSpec::small(30, 5));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.matrix, y.matrix);
        }
    }

    #[test]
    fn corpus_covers_archetypes() {
        let corpus = generate_corpus::<f64>(&CorpusSpec::small(200, 1));
        let mut seen = std::collections::HashSet::new();
        for e in &corpus {
            seen.insert(e.archetype);
        }
        assert!(seen.len() >= 7, "only {} archetypes appeared", seen.len());
    }

    #[test]
    fn matrices_are_valid_and_nonempty() {
        for e in generate_corpus::<f64>(&CorpusSpec::small(60, 2)) {
            assert!(e.matrix.nnz() > 0, "{} empty", e.name);
            e.matrix.validate().unwrap();
            assert!(!e.domain.is_empty());
        }
    }

    #[test]
    fn dims_within_spec() {
        let spec = CorpusSpec {
            count: 50,
            seed: 3,
            min_dim: 100,
            max_dim: 300,
        };
        for e in generate_corpus::<f64>(&spec) {
            // BlockSparse rounds down to a block multiple; stencils round to
            // grid powers — allow slack.
            assert!(e.matrix.rows() >= 27, "{} too small", e.name);
            assert!(e.matrix.rows() <= 350, "{} too large", e.name);
        }
    }

    #[test]
    fn domain_labels_come_from_archetype() {
        for e in generate_corpus::<f64>(&CorpusSpec::small(40, 7)) {
            assert!(e.archetype.domains().contains(&e.domain));
        }
    }

    #[test]
    fn unstructured_dominates_mixture() {
        let corpus = generate_corpus::<f64>(&CorpusSpec::small(400, 11));
        let unstructured = corpus
            .iter()
            .filter(|e| {
                matches!(
                    e.archetype,
                    Archetype::RandomUnstructured | Archetype::BlockSparse
                )
            })
            .count();
        let diag = corpus
            .iter()
            .filter(|e| matches!(e.archetype, Archetype::TrueDiagonal | Archetype::Stencil))
            .count();
        assert!(unstructured > diag, "{unstructured} vs {diag}");
    }
}
