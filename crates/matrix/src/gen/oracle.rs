//! The generators as they were before they built rows directly: a
//! `HashSet` or a fresh permutation per row, every entry pushed as a
//! `(row, col, value)` triplet and the matrix assembled by
//! [`Csr::from_triplets`]. Each new generator must build the identical
//! matrix (same draws in the same order, same arrays to the bit) as the
//! body it replaced, kept here as `*_oracle`.

use super::corpus::{draw_dim, draw_offsets};
use super::{
    banded, block_sparse, block_sparse_varied, fixed_degree, generate_corpus, laplacian_2d_5pt,
    laplacian_2d_9pt, laplacian_3d_7pt, power_law, random_skewed, random_uniform, tridiagonal,
};
use super::{Archetype, CorpusEntry, CorpusSpec};
use crate::{Csr, Scalar};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

pub(super) fn random_uniform_oracle<T: Scalar>(
    rows: usize,
    cols: usize,
    avg_degree: usize,
    seed: u64,
) -> Csr<T> {
    assert!(rows > 0 && cols > 0, "empty matrix requested");
    assert!(avg_degree > 0, "avg_degree must be positive");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut triplets = Vec::with_capacity(rows * avg_degree);
    for r in 0..rows {
        let deg = rng.gen_range(1..=(2 * avg_degree).min(cols));
        push_row_oracle(&mut triplets, &mut rng, r, cols, deg);
    }
    Csr::from_triplets(rows, cols, &triplets).expect("generator produces in-bounds triplets")
}

pub(super) fn fixed_degree_oracle<T: Scalar>(
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
    let mut triplets = Vec::with_capacity(rows * degree);
    for r in 0..rows {
        let deg = if jitter == 0 {
            degree
        } else {
            rng.gen_range(degree.saturating_sub(jitter).max(1)..=degree + jitter)
        };
        push_row_oracle(&mut triplets, &mut rng, r, cols, deg);
    }
    Csr::from_triplets(rows, cols, &triplets).expect("generator produces in-bounds triplets")
}

pub(super) fn random_skewed_oracle<T: Scalar>(
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
    let mut triplets = Vec::with_capacity(rows * avg_degree);
    for r in 0..rows {
        let deg = if rng.gen::<f64>() < heavy_fraction {
            rng.gen_range(avg_degree..=(heavy_factor * avg_degree).min(cols).max(avg_degree))
        } else {
            rng.gen_range(1..=(2 * avg_degree).min(cols))
        };
        push_row_oracle(&mut triplets, &mut rng, r, cols, deg);
    }
    Csr::from_triplets(rows, cols, &triplets).expect("generator produces in-bounds triplets")
}

fn push_row_oracle<T: Scalar>(
    triplets: &mut Vec<(usize, usize, T)>,
    rng: &mut SmallRng,
    r: usize,
    cols: usize,
    deg: usize,
) {
    let deg = deg.min(cols);
    if deg * 4 >= cols {
        let mut picked: Vec<usize> = (0..cols).collect();
        for i in 0..deg {
            let j = rng.gen_range(i..cols);
            picked.swap(i, j);
        }
        for &c in &picked[..deg] {
            triplets.push((r, c, random_value_oracle(rng)));
        }
    } else {
        let mut seen = std::collections::HashSet::with_capacity(deg);
        while seen.len() < deg {
            let c = rng.gen_range(0..cols);
            if seen.insert(c) {
                triplets.push((r, c, random_value_oracle(rng)));
            }
        }
    }
}

fn random_value_oracle<T: Scalar>(rng: &mut SmallRng) -> T {
    let mag = 0.1 + 0.9 * rng.gen::<f64>();
    let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
    T::from_f64(sign * mag)
}

pub(super) fn power_law_oracle<T: Scalar>(
    n: usize,
    max_degree: usize,
    exponent: f64,
    seed: u64,
) -> Csr<T> {
    assert!(n > 0, "empty matrix requested");
    assert!(
        max_degree > 0 && max_degree <= n,
        "max_degree must be in 1..=n"
    );
    assert!(exponent > 0.0, "exponent must be positive");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cdf = Vec::with_capacity(max_degree);
    let mut acc = 0.0f64;
    for k in 1..=max_degree {
        acc += (k as f64).powf(-exponent);
        cdf.push(acc);
    }
    let total = acc;
    let mut triplets = Vec::new();
    for r in 0..n {
        let u = rng.gen::<f64>() * total;
        let k = cdf.partition_point(|&c| c < u) + 1;
        let k = k.min(max_degree);
        if k * 4 >= n {
            let mut picked: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = rng.gen_range(i..n);
                picked.swap(i, j);
            }
            for &c in &picked[..k] {
                triplets.push((r, c, random_value_oracle::<T>(&mut rng)));
            }
        } else {
            let mut seen = std::collections::HashSet::with_capacity(k);
            while seen.len() < k {
                let c = rng.gen_range(0..n);
                if seen.insert(c) {
                    triplets.push((r, c, random_value_oracle::<T>(&mut rng)));
                }
            }
        }
    }
    Csr::from_triplets(n, n, &triplets).expect("generator produces in-bounds triplets")
}

pub(super) fn banded_oracle<T: Scalar>(
    n: usize,
    offsets: &[isize],
    density: f64,
    seed: u64,
) -> Csr<T> {
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
    let mut triplets = Vec::new();
    for &off in offsets {
        for r in 0..n {
            let c = r as isize + off;
            if c < 0 || c >= n as isize {
                continue;
            }
            if density >= 1.0 || rng.gen::<f64>() < density {
                triplets.push((r, c as usize, random_value_oracle::<T>(&mut rng)));
            }
        }
    }
    Csr::from_triplets(n, n, &triplets).expect("generator produces in-bounds triplets")
}

pub(super) fn tridiagonal_oracle<T: Scalar>(n: usize) -> Csr<T> {
    assert!(n > 0, "empty matrix requested");
    let mut triplets = Vec::with_capacity(3 * n);
    for i in 0..n {
        if i > 0 {
            triplets.push((i, i - 1, T::from_f64(-1.0)));
        }
        triplets.push((i, i, T::from_f64(2.0)));
        if i + 1 < n {
            triplets.push((i, i + 1, T::from_f64(-1.0)));
        }
    }
    Csr::from_triplets(n, n, &triplets).expect("generator produces in-bounds triplets")
}

pub(super) fn block_sparse_oracle<T: Scalar>(
    n: usize,
    block_size: usize,
    blocks_per_row: usize,
    seed: u64,
) -> Csr<T> {
    assert!(n > 0 && block_size > 0, "empty matrix requested");
    assert!(
        n.is_multiple_of(block_size),
        "dimension {n} not a multiple of block size {block_size}"
    );
    let nb = n / block_size;
    assert!(
        blocks_per_row >= 1 && blocks_per_row <= nb,
        "blocks_per_row must be in 1..={nb}"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut triplets = Vec::with_capacity(nb * blocks_per_row * block_size * block_size);
    for br in 0..nb {
        let mut cols = std::collections::BTreeSet::new();
        cols.insert(br);
        while cols.len() < blocks_per_row {
            cols.insert(rng.gen_range(0..nb));
        }
        for &bc in &cols {
            for i in 0..block_size {
                for j in 0..block_size {
                    triplets.push((
                        br * block_size + i,
                        bc * block_size + j,
                        random_value_oracle::<T>(&mut rng),
                    ));
                }
            }
        }
    }
    Csr::from_triplets(n, n, &triplets).expect("generator produces in-bounds triplets")
}

pub(super) fn block_sparse_varied_oracle<T: Scalar>(
    n: usize,
    block_size: usize,
    max_blocks_per_row: usize,
    seed: u64,
) -> Csr<T> {
    assert!(n > 0 && block_size > 0, "empty matrix requested");
    assert!(
        n.is_multiple_of(block_size),
        "dimension {n} not a multiple of block size {block_size}"
    );
    let nb = n / block_size;
    assert!(
        max_blocks_per_row >= 1 && max_blocks_per_row <= nb,
        "max_blocks_per_row must be in 1..={nb}"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut triplets = Vec::new();
    for br in 0..nb {
        let bpr = rng.gen_range(1..=max_blocks_per_row);
        let mut cols = std::collections::BTreeSet::new();
        cols.insert(br);
        while cols.len() < bpr.max(1) {
            cols.insert(rng.gen_range(0..nb));
        }
        for &bc in &cols {
            for i in 0..block_size {
                for j in 0..block_size {
                    triplets.push((
                        br * block_size + i,
                        bc * block_size + j,
                        random_value_oracle::<T>(&mut rng),
                    ));
                }
            }
        }
    }
    Csr::from_triplets(n, n, &triplets).expect("generator produces in-bounds triplets")
}

pub(super) fn laplacian_2d_5pt_oracle<T: Scalar>(nx: usize, ny: usize) -> Csr<T> {
    assert!(nx > 0 && ny > 0, "empty grid requested");
    let n = nx * ny;
    let idx = |i: usize, j: usize| i * ny + j;
    let mut triplets = Vec::with_capacity(5 * n);
    for i in 0..nx {
        for j in 0..ny {
            let row = idx(i, j);
            triplets.push((row, row, T::from_f64(4.0)));
            if i > 0 {
                triplets.push((row, idx(i - 1, j), T::from_f64(-1.0)));
            }
            if i + 1 < nx {
                triplets.push((row, idx(i + 1, j), T::from_f64(-1.0)));
            }
            if j > 0 {
                triplets.push((row, idx(i, j - 1), T::from_f64(-1.0)));
            }
            if j + 1 < ny {
                triplets.push((row, idx(i, j + 1), T::from_f64(-1.0)));
            }
        }
    }
    Csr::from_triplets(n, n, &triplets).expect("generator produces in-bounds triplets")
}

pub(super) fn laplacian_2d_9pt_oracle<T: Scalar>(nx: usize, ny: usize) -> Csr<T> {
    assert!(nx > 0 && ny > 0, "empty grid requested");
    let n = nx * ny;
    let idx = |i: usize, j: usize| i * ny + j;
    let mut triplets = Vec::with_capacity(9 * n);
    for i in 0..nx {
        for j in 0..ny {
            let row = idx(i, j);
            triplets.push((row, row, T::from_f64(8.0)));
            for di in -1isize..=1 {
                for dj in -1isize..=1 {
                    if di == 0 && dj == 0 {
                        continue;
                    }
                    let (ni, nj) = (i as isize + di, j as isize + dj);
                    if ni < 0 || nj < 0 || ni >= nx as isize || nj >= ny as isize {
                        continue;
                    }
                    triplets.push((row, idx(ni as usize, nj as usize), T::from_f64(-1.0)));
                }
            }
        }
    }
    Csr::from_triplets(n, n, &triplets).expect("generator produces in-bounds triplets")
}

pub(super) fn laplacian_3d_7pt_oracle<T: Scalar>(nx: usize, ny: usize, nz: usize) -> Csr<T> {
    assert!(nx > 0 && ny > 0 && nz > 0, "empty grid requested");
    let n = nx * ny * nz;
    let idx = |i: usize, j: usize, k: usize| (i * ny + j) * nz + k;
    let mut triplets = Vec::with_capacity(7 * n);
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                let row = idx(i, j, k);
                triplets.push((row, row, T::from_f64(6.0)));
                if i > 0 {
                    triplets.push((row, idx(i - 1, j, k), T::from_f64(-1.0)));
                }
                if i + 1 < nx {
                    triplets.push((row, idx(i + 1, j, k), T::from_f64(-1.0)));
                }
                if j > 0 {
                    triplets.push((row, idx(i, j - 1, k), T::from_f64(-1.0)));
                }
                if j + 1 < ny {
                    triplets.push((row, idx(i, j + 1, k), T::from_f64(-1.0)));
                }
                if k > 0 {
                    triplets.push((row, idx(i, j, k - 1), T::from_f64(-1.0)));
                }
                if k + 1 < nz {
                    triplets.push((row, idx(i, j, k + 1), T::from_f64(-1.0)));
                }
            }
        }
    }
    Csr::from_triplets(n, n, &triplets).expect("generator produces in-bounds triplets")
}

/// The corpus loop, unchanged but for calling the `*_oracle`
/// generators (the parameter draws and helpers are shared).
pub(super) fn generate_corpus_oracle<T: Scalar>(spec: &CorpusSpec) -> Vec<CorpusEntry<T>> {
    assert!(spec.count > 0, "empty corpus requested");
    assert!(spec.min_dim >= 16, "min_dim must be at least 16");
    assert!(spec.max_dim >= spec.min_dim, "max_dim below min_dim");
    let mut rng = SmallRng::seed_from_u64(spec.seed);
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
        let matrix = generate_one_oracle::<T>(archetype, spec, &mut rng, seed);
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

fn generate_one_oracle<T: Scalar>(
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
            banded_oracle(n, &offsets, density, seed)
        }
        Archetype::ScatteredDiagonal => {
            let ndiags = rng.gen_range(5..=25.min(n / 4).max(6));
            let offsets = draw_offsets(rng, n, ndiags);
            let density = 0.25 + 0.5 * rng.gen::<f64>();
            banded_oracle(n, &offsets, density, seed)
        }
        Archetype::Stencil => {
            let side = ((n as f64).sqrt() as usize).max(4);
            match rng.gen_range(0..3) {
                0 => laplacian_2d_5pt_oracle(side, side),
                1 => laplacian_2d_9pt_oracle(side, side),
                _ => {
                    let s3 = ((n as f64).cbrt() as usize).max(3);
                    laplacian_3d_7pt_oracle(s3, s3, s3)
                }
            }
        }
        Archetype::UniformDegree => {
            let deg = rng.gen_range(4..=24).min(n / 2).max(1);
            fixed_degree_oracle(n, n, deg, rng.gen_range(0..=1).min(deg - 1), seed)
        }
        Archetype::LowVarianceDegree => {
            let deg = rng.gen_range(6..=24).min(n / 2).max(3);
            let jitter = rng.gen_range(2..=3).min(deg - 1);
            fixed_degree_oracle(n, n, deg, jitter, seed)
        }
        Archetype::PowerLawGraph => {
            let exponent = 1.2 + 2.3 * rng.gen::<f64>();
            let max_deg = (n / 4).clamp(8, 512);
            power_law_oracle(n, max_deg, exponent, seed)
        }
        Archetype::RandomUnstructured => {
            let avg = rng.gen_range(2..=32).min(n / 8).max(1);
            let heavy_fraction = 0.02 + 0.06 * rng.gen::<f64>();
            let heavy_factor = rng.gen_range(6..=16);
            random_skewed_oracle(n, n, avg, heavy_fraction, heavy_factor, seed)
        }
        Archetype::BlockSparse => {
            let bs = [2usize, 3, 4, 6, 8][rng.gen_range(0..5)];
            let n = (n / bs).max(2) * bs;
            let nb = n / bs;
            let max_bpr = rng.gen_range(2..=6).min(nb);
            block_sparse_varied_oracle(n, bs, max_bpr, seed)
        }
    }
}

/// Seeds per generator and precision.
const SEEDS: u64 = 200;

/// The shape parameters of case `seed`, drawn from a stream of their own.
fn shape(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ 0x5EED_5A9E)
}

fn same<T: Scalar>(new: Csr<T>, old: Csr<T>, what: String) {
    assert!(new == old, "{what}, {}: matrices differ", T::PRECISION_NAME);
}

fn over_seeds(f64_case: fn(u64), f32_case: fn(u64)) {
    for seed in 0..SEEDS {
        f64_case(seed);
        f32_case(seed);
    }
}

/// Every eighth case is wider than 16 384 columns: more summary words
/// than `SORTED_ROW`, so rows up to that many entries sort.
fn random_uniform_case<T: Scalar>(seed: u64) {
    let mut p = shape(seed);
    let widths = if seed.is_multiple_of(8) {
        16_385..=40_000
    } else {
        1..=120
    };
    let (rows, cols, avg) = (
        p.gen_range(1..=90),
        p.gen_range(widths),
        p.gen_range(1..=24),
    );
    same(
        random_uniform::<T>(rows, cols, avg, seed),
        random_uniform_oracle(rows, cols, avg, seed),
        format!("random_uniform({rows}, {cols}, {avg}, {seed})"),
    );
}

fn fixed_degree_case<T: Scalar>(seed: u64) {
    let mut p = shape(seed);
    let (rows, cols) = (p.gen_range(1..=90), p.gen_range(1..=120));
    let degree = p.gen_range(1..=cols);
    let jitter = p.gen_range(0..=(cols - degree).min(4));
    same(
        fixed_degree::<T>(rows, cols, degree, jitter, seed),
        fixed_degree_oracle(rows, cols, degree, jitter, seed),
        format!("fixed_degree({rows}, {cols}, {degree}, {jitter}, {seed})"),
    );
}

fn random_skewed_case<T: Scalar>(seed: u64) {
    let mut p = shape(seed);
    let (rows, cols, avg) = (
        p.gen_range(1..=90),
        p.gen_range(1..=120),
        p.gen_range(1..=16),
    );
    let heavy_fraction = [0.0, 1.0, p.gen::<f64>()][p.gen_range(0..3)];
    let heavy_factor = p.gen_range(1..=20);
    same(
        random_skewed::<T>(rows, cols, avg, heavy_fraction, heavy_factor, seed),
        random_skewed_oracle(rows, cols, avg, heavy_fraction, heavy_factor, seed),
        format!("random_skewed({rows}, {cols}, {avg}, {heavy_fraction}, {heavy_factor}, {seed})"),
    );
}

fn power_law_case<T: Scalar>(seed: u64) {
    let mut p = shape(seed);
    let n = p.gen_range(1..=150);
    let max_degree = p.gen_range(1..=n);
    let exponent = 0.5 + 3.5 * p.gen::<f64>();
    same(
        power_law::<T>(n, max_degree, exponent, seed),
        power_law_oracle(n, max_degree, exponent, seed),
        format!("power_law({n}, {max_degree}, {exponent}, {seed})"),
    );
}

/// Offsets drawn from a handful of values, so most cases repeat one
/// (some three times), in no particular order.
fn banded_case<T: Scalar>(seed: u64) {
    let mut p = shape(seed);
    let n = p.gen_range(1..=120);
    let reach = (n as isize - 1).min(6);
    let offsets: Vec<isize> = (0..p.gen_range(1..=8))
        .map(|_| p.gen_range(-reach..=reach))
        .collect();
    let density = [0.0, 1.0, p.gen::<f64>()][p.gen_range(0..3)];
    same(
        banded::<T>(n, &offsets, density, seed),
        banded_oracle(n, &offsets, density, seed),
        format!("banded({n}, {offsets:?}, {density}, {seed})"),
    );
}

fn block_case<T: Scalar>(seed: u64) {
    let mut p = shape(seed);
    let (bs, nb) = (p.gen_range(1..=8), p.gen_range(1..=20));
    let count = p.gen_range(1..=nb);
    let n = nb * bs;
    same(
        block_sparse::<T>(n, bs, count, seed),
        block_sparse_oracle(n, bs, count, seed),
        format!("block_sparse({n}, {bs}, {count}, {seed})"),
    );
    same(
        block_sparse_varied::<T>(n, bs, count, seed),
        block_sparse_varied_oracle(n, bs, count, seed),
        format!("block_sparse_varied({n}, {bs}, {count}, {seed})"),
    );
}

/// The unseeded generators, one shape per case.
fn stencil_case<T: Scalar>(seed: u64) {
    let mut p = shape(seed);
    let (nx, ny, nz) = (p.gen_range(1..=14), p.gen_range(1..=14), p.gen_range(1..=6));
    let n = p.gen_range(1..=300);
    same(
        tridiagonal::<T>(n),
        tridiagonal_oracle(n),
        format!("tridiagonal({n})"),
    );
    same(
        laplacian_2d_5pt::<T>(nx, ny),
        laplacian_2d_5pt_oracle(nx, ny),
        format!("laplacian_2d_5pt({nx}, {ny})"),
    );
    same(
        laplacian_2d_9pt::<T>(nx, ny),
        laplacian_2d_9pt_oracle(nx, ny),
        format!("laplacian_2d_9pt({nx}, {ny})"),
    );
    same(
        laplacian_3d_7pt::<T>(nx, ny, nz),
        laplacian_3d_7pt_oracle(nx, ny, nz),
        format!("laplacian_3d_7pt({nx}, {ny}, {nz})"),
    );
}

fn corpus_case<T: Scalar>(seed: u64) {
    let spec = CorpusSpec {
        count: 3,
        seed,
        min_dim: 16,
        max_dim: 96,
    };
    for (i, (new, old)) in generate_corpus::<T>(&spec)
        .into_iter()
        .zip(generate_corpus_oracle::<T>(&spec))
        .enumerate()
    {
        assert_eq!((new.name, new.domain), (old.name, old.domain));
        same(
            new.matrix,
            old.matrix,
            format!("corpus seed {seed}, entry {i}"),
        );
    }
}

#[test]
fn random_uniform_matches_the_parent() {
    over_seeds(random_uniform_case::<f64>, random_uniform_case::<f32>);
}

#[test]
fn fixed_degree_matches_the_parent() {
    over_seeds(fixed_degree_case::<f64>, fixed_degree_case::<f32>);
}

#[test]
fn random_skewed_matches_the_parent() {
    over_seeds(random_skewed_case::<f64>, random_skewed_case::<f32>);
}

#[test]
fn power_law_matches_the_parent() {
    over_seeds(power_law_case::<f64>, power_law_case::<f32>);
}

#[test]
fn banded_matches_the_parent() {
    over_seeds(banded_case::<f64>, banded_case::<f32>);
}

#[test]
fn block_generators_match_the_parent() {
    over_seeds(block_case::<f64>, block_case::<f32>);
}

#[test]
fn stencils_match_the_parent() {
    over_seeds(stencil_case::<f64>, stencil_case::<f32>);
}

#[test]
fn corpus_matches_the_parent() {
    over_seeds(corpus_case::<f64>, corpus_case::<f32>);
}

/// Best of `rounds` alternating runs of `new` and `old`, in ns per
/// nonzero of what they build.
fn ns_per_nnz<M>(
    rounds: usize,
    nnz: impl Fn(&M) -> usize,
    new: impl Fn() -> M,
    old: impl Fn() -> M,
) -> (f64, f64) {
    let time = |build: &dyn Fn() -> M, best: &mut Duration| {
        let start = Instant::now();
        let m = black_box(build());
        *best = (*best).min(start.elapsed());
        nnz(&m)
    };
    let (mut best_new, mut best_old) = (Duration::MAX, Duration::MAX);
    let mut count = 0;
    for _ in 0..rounds {
        count = time(&new, &mut best_new);
        time(&old, &mut best_old);
    }
    let per = |d: Duration| d.as_secs_f64() * 1e9 / count as f64;
    (per(best_new), per(best_old))
}

/// The benchmark's pinned corpus spec (`e2e/src/pinned.rs`).
fn benchmark_spec() -> CorpusSpec {
    CorpusSpec {
        count: 240,
        seed: 0x5AA7_E2E0,
        min_dim: 512,
        max_dim: 8192,
    }
}

/// Times every generator against its oracle (printed, not gated), then
/// gates the benchmark's corpus: at least 1.8x the parent's speed.
/// Timing: run in release with `--include-ignored --nocapture`.
#[test]
#[ignore = "timing; run in release"]
fn generation_outruns_the_parent() {
    let csr_nnz = |m: &Csr<f64>| m.nnz();
    let cases: [(&str, (f64, f64)); 9] = [
        (
            "random_uniform 8192 d16",
            ns_per_nnz(
                5,
                csr_nnz,
                || random_uniform(8192, 8192, 16, 1),
                || random_uniform_oracle(8192, 8192, 16, 1),
            ),
        ),
        (
            "fixed_degree 8192 d12 j3",
            ns_per_nnz(
                5,
                csr_nnz,
                || fixed_degree(8192, 8192, 12, 3, 2),
                || fixed_degree_oracle(8192, 8192, 12, 3, 2),
            ),
        ),
        (
            "random_skewed 8192 d16",
            ns_per_nnz(
                5,
                csr_nnz,
                || random_skewed(8192, 8192, 16, 0.05, 11, 3),
                || random_skewed_oracle(8192, 8192, 16, 0.05, 11, 3),
            ),
        ),
        (
            "power_law 8192 k512 e2",
            ns_per_nnz(
                5,
                csr_nnz,
                || power_law(8192, 512, 2.0, 4),
                || power_law_oracle(8192, 512, 2.0, 4),
            ),
        ),
        (
            "banded 8192 x9 0.5",
            ns_per_nnz(
                5,
                csr_nnz,
                || banded(8192, &[-64, -8, -2, -1, 0, 1, 2, 8, 64], 0.5, 5),
                || banded_oracle(8192, &[-64, -8, -2, -1, 0, 1, 2, 8, 64], 0.5, 5),
            ),
        ),
        (
            "block_sparse_varied 8192 b4 x6",
            ns_per_nnz(
                5,
                csr_nnz,
                || block_sparse_varied(8192, 4, 6, 6),
                || block_sparse_varied_oracle(8192, 4, 6, 6),
            ),
        ),
        (
            "laplacian_2d_5pt 90x90",
            ns_per_nnz(
                5,
                csr_nnz,
                || laplacian_2d_5pt(90, 90),
                || laplacian_2d_5pt_oracle(90, 90),
            ),
        ),
        (
            "laplacian_2d_9pt 90x90",
            ns_per_nnz(
                5,
                csr_nnz,
                || laplacian_2d_9pt(90, 90),
                || laplacian_2d_9pt_oracle(90, 90),
            ),
        ),
        (
            "laplacian_3d_7pt 20^3",
            ns_per_nnz(
                5,
                csr_nnz,
                || laplacian_3d_7pt(20, 20, 20),
                || laplacian_3d_7pt_oracle(20, 20, 20),
            ),
        ),
    ];
    for (name, (new, old)) in cases {
        println!(
            "{name:<32} {new:6.1} ns/nnz, parent {old:6.1} ns/nnz ({:.2}x)",
            old / new
        );
    }
    let spec = benchmark_spec();
    let corpus_nnz = |c: &Vec<CorpusEntry<f64>>| c.iter().map(|e| e.matrix.nnz()).sum();
    let (new, old) = ns_per_nnz(
        5,
        corpus_nnz,
        || generate_corpus(&spec),
        || generate_corpus_oracle(&spec),
    );
    println!(
        "benchmark corpus (240 matrices)  {new:6.1} ns/nnz, parent {old:6.1} ns/nnz ({:.2}x)",
        old / new
    );
    assert!(
        old / new >= 1.8,
        "corpus generation only {:.2}x the parent's speed",
        old / new
    );
}
