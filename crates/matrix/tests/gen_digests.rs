//! Every generator's output, pinned to the bit.
//!
//! The generators stand in for the paper's matrix collection, and what
//! is built from them downstream is pinned too: the benchmark's
//! fixtures and pinned model are trained on these exact matrices. So a
//! generator may get faster but never different. Each case here is an
//! FNV-1a digest over `rows`, `cols`, `row_ptr`, `col_idx` and the value
//! bits of one call; a mismatch prints every digest of its table.

use smat_matrix::gen::{
    banded, block_sparse, block_sparse_varied, fixed_degree, generate_corpus, laplacian_1d,
    laplacian_2d_5pt, laplacian_2d_9pt, laplacian_3d_7pt, power_law, random_skewed, random_uniform,
    tridiagonal, CorpusSpec,
};
use smat_matrix::{Csr, Scalar};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fold<T: Scalar>(mut h: u64, m: &Csr<T>) -> u64 {
    h = fnv(h, m.rows() as u64);
    h = fnv(h, m.cols() as u64);
    for &p in m.row_ptr() {
        h = fnv(h, p as u64);
    }
    for &c in m.col_idx() {
        h = fnv(h, c as u64);
    }
    for &v in m.values() {
        h = fnv(h, v.to_f64().to_bits());
    }
    h
}

fn digest<T: Scalar>(m: &Csr<T>) -> u64 {
    fold(FNV_OFFSET, m)
}

/// One digest over a whole corpus: every entry's name, domain and matrix.
fn corpus_digest<T: Scalar>(spec: &CorpusSpec) -> u64 {
    let mut h = FNV_OFFSET;
    for e in generate_corpus::<T>(spec) {
        for b in e.name.bytes().chain(e.domain.bytes()) {
            h = fnv(h, u64::from(b));
        }
        h = fold(h, &e.matrix);
    }
    h
}

fn check(table: &str, actual: &[(&str, u64)], expected: &[(&str, u64)]) {
    let listing: String = actual
        .iter()
        .map(|(name, d)| format!("        (\"{name}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(actual, expected, "{table} digests moved; now:\n{listing}");
}

#[test]
fn random_uniform_is_pinned() {
    let actual = [
        (
            "300x300 d8 s1",
            digest(&random_uniform::<f64>(300, 300, 8, 1)),
        ),
        (
            "300x300 d8 s2",
            digest(&random_uniform::<f64>(300, 300, 8, 2)),
        ),
        (
            "300x300 d8 s3",
            digest(&random_uniform::<f64>(300, 300, 8, 3)),
        ),
        (
            "dense 40x40 d16",
            digest(&random_uniform::<f64>(40, 40, 16, 4)),
        ),
        (
            "wide 97x400 d5",
            digest(&random_uniform::<f64>(97, 400, 5, 5)),
        ),
        (
            "tall 211x97 d6",
            digest(&random_uniform::<f64>(211, 97, 6, 6)),
        ),
        (
            "f32 300x300 d8",
            digest(&random_uniform::<f32>(300, 300, 8, 1)),
        ),
        (
            "f32 dense 40x40",
            digest(&random_uniform::<f32>(40, 40, 16, 4)),
        ),
    ];
    check(
        "random_uniform",
        &actual,
        &[
            ("300x300 d8 s1", 0x61089528cfa80bc4),
            ("300x300 d8 s2", 0x23e7ff089b49db37),
            ("300x300 d8 s3", 0xbe85456f987b738f),
            ("dense 40x40 d16", 0x03ea1210026b998e),
            ("wide 97x400 d5", 0xe402236bca253103),
            ("tall 211x97 d6", 0x9c8ad5ff5497a8ff),
            ("f32 300x300 d8", 0xde723a2c6757b8e7),
            ("f32 dense 40x40", 0x5091d41644b363e6),
        ],
    );
}

#[test]
fn fixed_degree_is_pinned() {
    let actual = [
        (
            "150x150 d7 j0 s1",
            digest(&fixed_degree::<f64>(150, 150, 7, 0, 1)),
        ),
        (
            "150x150 d7 j2 s2",
            digest(&fixed_degree::<f64>(150, 150, 7, 2, 2)),
        ),
        (
            "150x150 d7 j3 s3",
            digest(&fixed_degree::<f64>(150, 150, 7, 3, 3)),
        ),
        (
            "dense 64x24 d10 j2",
            digest(&fixed_degree::<f64>(64, 24, 10, 2, 4)),
        ),
        (
            "dense 10x8 d6",
            digest(&fixed_degree::<f64>(10, 8, 6, 0, 5)),
        ),
        (
            "wide 100x300 d5 j2",
            digest(&fixed_degree::<f64>(100, 300, 5, 2, 6)),
        ),
        (
            "tall 150x40 d5 j2",
            digest(&fixed_degree::<f64>(150, 40, 5, 2, 7)),
        ),
        (
            "f32 150x150 d7 j2",
            digest(&fixed_degree::<f32>(150, 150, 7, 2, 2)),
        ),
    ];
    check(
        "fixed_degree",
        &actual,
        &[
            ("150x150 d7 j0 s1", 0x43e7d56c1248aff3),
            ("150x150 d7 j2 s2", 0xe9a6ee4e629bf2dd),
            ("150x150 d7 j3 s3", 0xf2cff0b258b4c554),
            ("dense 64x24 d10 j2", 0xab6bc9a162789e2e),
            ("dense 10x8 d6", 0x75419f3411ba5838),
            ("wide 100x300 d5 j2", 0x4b9f3d936e6b7c87),
            ("tall 150x40 d5 j2", 0x0fa67e64494aaf0c),
            ("f32 150x150 d7 j2", 0x74fd28134811390c),
        ],
    );
}

#[test]
fn random_skewed_is_pinned() {
    let actual = [
        (
            "500 d8 s1",
            digest(&random_skewed::<f64>(500, 500, 8, 0.05, 16, 1)),
        ),
        (
            "500 d8 s2",
            digest(&random_skewed::<f64>(500, 500, 8, 0.05, 16, 2)),
        ),
        (
            "500 d8 s3",
            digest(&random_skewed::<f64>(500, 500, 8, 0.05, 16, 3)),
        ),
        (
            "heavy 400 d6 x30",
            digest(&random_skewed::<f64>(400, 400, 6, 0.2, 30, 4)),
        ),
        (
            "all heavy 120 d4 x40",
            digest(&random_skewed::<f64>(120, 120, 4, 1.0, 40, 5)),
        ),
        (
            "tall 300x120",
            digest(&random_skewed::<f64>(300, 120, 4, 0.1, 10, 6)),
        ),
        (
            "wide 120x700",
            digest(&random_skewed::<f64>(120, 700, 4, 0.1, 10, 7)),
        ),
        (
            "f32 heavy 400",
            digest(&random_skewed::<f32>(400, 400, 6, 0.2, 30, 4)),
        ),
    ];
    check(
        "random_skewed",
        &actual,
        &[
            ("500 d8 s1", 0x6dcbbc6cd50251ab),
            ("500 d8 s2", 0x41cecdf7b990a3ae),
            ("500 d8 s3", 0x8b6257f0f14bb0cc),
            ("heavy 400 d6 x30", 0x8d849965e6449cbe),
            ("all heavy 120 d4 x40", 0x66fc08b62214c95a),
            ("tall 300x120", 0x42af9f6fe9eb6c94),
            ("wide 120x700", 0xc91bc16da43ade0c),
            ("f32 heavy 400", 0x3d93c660e07c4269),
        ],
    );
}

#[test]
fn power_law_is_pinned() {
    let actual = [
        (
            "1000 k200 e2.0 s1",
            digest(&power_law::<f64>(1000, 200, 2.0, 1)),
        ),
        (
            "1000 k200 e2.0 s2",
            digest(&power_law::<f64>(1000, 200, 2.0, 2)),
        ),
        (
            "1000 k200 e2.0 s3",
            digest(&power_law::<f64>(1000, 200, 2.0, 3)),
        ),
        (
            "dense 64 k64 e1.2",
            digest(&power_law::<f64>(64, 64, 1.2, 4)),
        ),
        (
            "heavy 2000 k400 e1.5",
            digest(&power_law::<f64>(2000, 400, 1.5, 5)),
        ),
        (
            "steep 500 k50 e3.5",
            digest(&power_law::<f64>(500, 50, 3.5, 6)),
        ),
        (
            "f32 1000 k200",
            digest(&power_law::<f32>(1000, 200, 2.0, 1)),
        ),
        ("f32 dense 64", digest(&power_law::<f32>(64, 64, 1.2, 4))),
    ];
    check(
        "power_law",
        &actual,
        &[
            ("1000 k200 e2.0 s1", 0x39cf2c05b32bdb70),
            ("1000 k200 e2.0 s2", 0x506ed94d861daf02),
            ("1000 k200 e2.0 s3", 0xb00c5bca89d50a04),
            ("dense 64 k64 e1.2", 0x5068983d80277365),
            ("heavy 2000 k400 e1.5", 0x4358f9e9a0f8b152),
            ("steep 500 k50 e3.5", 0xeea7e19a4cdb8540),
            ("f32 1000 k200", 0xafa39314d8a07342),
            ("f32 dense 64", 0xe599369fcac803a6),
        ],
    );
}

#[test]
fn banded_is_pinned() {
    let five = [-17, -1, 0, 1, 17];
    let actual = [
        (
            "300 five 0.8 s1",
            digest(&banded::<f64>(300, &five, 0.8, 1)),
        ),
        (
            "300 five 0.8 s2",
            digest(&banded::<f64>(300, &five, 0.8, 2)),
        ),
        (
            "300 five 0.8 s3",
            digest(&banded::<f64>(300, &five, 0.8, 3)),
        ),
        (
            "full 200 unsorted",
            digest(&banded::<f64>(200, &[5, -3, 0, 40], 1.0, 4)),
        ),
        (
            "repeated 150",
            digest(&banded::<f64>(150, &[0, 3, 0, -2, 3], 0.7, 5)),
        ),
        (
            "thrice 90",
            digest(&banded::<f64>(90, &[1, 1, -4, 1], 0.9, 6)),
        ),
        (
            "sparse 400 0.1",
            digest(&banded::<f64>(400, &[-399, -8, 0, 8, 399], 0.1, 7)),
        ),
        ("f32 300 five", digest(&banded::<f32>(300, &five, 0.8, 1))),
        (
            "f32 repeated",
            digest(&banded::<f32>(150, &[0, 3, 0, -2, 3], 0.7, 5)),
        ),
    ];
    check(
        "banded",
        &actual,
        &[
            ("300 five 0.8 s1", 0x0935b49f99ce4d2e),
            ("300 five 0.8 s2", 0x4726b44b24a0961e),
            ("300 five 0.8 s3", 0xcd40eba35ae4301b),
            ("full 200 unsorted", 0x0172955e0f3199cc),
            ("repeated 150", 0x8922d833317553ae),
            ("thrice 90", 0xcc770cc461fef7e5),
            ("sparse 400 0.1", 0xdb216b5e6ca84893),
            ("f32 300 five", 0x280f55c71b234807),
            ("f32 repeated", 0x6b9c4801606442ea),
        ],
    );
}

#[test]
fn block_generators_are_pinned() {
    let actual = [
        ("96 b4 x3 s1", digest(&block_sparse::<f64>(96, 4, 3, 1))),
        ("96 b4 x3 s2", digest(&block_sparse::<f64>(96, 4, 3, 2))),
        ("96 b4 x3 s3", digest(&block_sparse::<f64>(96, 4, 3, 3))),
        ("full 60 b3 x20", digest(&block_sparse::<f64>(60, 3, 20, 4))),
        ("b1 50 x5", digest(&block_sparse::<f64>(50, 1, 5, 5))),
        ("f32 96 b4 x3", digest(&block_sparse::<f32>(96, 4, 3, 1))),
        (
            "varied 240 b4 x6 s1",
            digest(&block_sparse_varied::<f64>(240, 4, 6, 1)),
        ),
        (
            "varied 240 b4 x6 s2",
            digest(&block_sparse_varied::<f64>(240, 4, 6, 2)),
        ),
        (
            "varied 120 b2 x5 s3",
            digest(&block_sparse_varied::<f64>(120, 2, 5, 3)),
        ),
        (
            "varied full 48 b8 x6",
            digest(&block_sparse_varied::<f64>(48, 8, 6, 4)),
        ),
        (
            "f32 varied 240",
            digest(&block_sparse_varied::<f32>(240, 4, 6, 1)),
        ),
    ];
    check(
        "block",
        &actual,
        &[
            ("96 b4 x3 s1", 0x33accf61f75b9728),
            ("96 b4 x3 s2", 0xbccb7fb3253eed6f),
            ("96 b4 x3 s3", 0xbe1911b3503280c9),
            ("full 60 b3 x20", 0xa0ff71920869476e),
            ("b1 50 x5", 0x0beaec4c800f1a93),
            ("f32 96 b4 x3", 0x82f9ab0dd19c5c24),
            ("varied 240 b4 x6 s1", 0x5f5056ed3ff53b76),
            ("varied 240 b4 x6 s2", 0x08502107a1a16606),
            ("varied 120 b2 x5 s3", 0xc4f003dfc251c97a),
            ("varied full 48 b8 x6", 0x43cb8af5ca443584),
            ("f32 varied 240", 0xc9cccb95a0dca9ac),
        ],
    );
}

#[test]
fn stencils_are_pinned() {
    let actual = [
        ("tridiagonal 1", digest(&tridiagonal::<f64>(1))),
        ("tridiagonal 257", digest(&tridiagonal::<f64>(257))),
        ("laplacian_1d 64", digest(&laplacian_1d::<f64>(64))),
        ("5pt 1x1", digest(&laplacian_2d_5pt::<f64>(1, 1))),
        ("5pt 13x11", digest(&laplacian_2d_5pt::<f64>(13, 11))),
        ("5pt 1x9", digest(&laplacian_2d_5pt::<f64>(1, 9))),
        ("9pt 12x12", digest(&laplacian_2d_9pt::<f64>(12, 12))),
        ("9pt 7x2", digest(&laplacian_2d_9pt::<f64>(7, 2))),
        ("9pt 1x1", digest(&laplacian_2d_9pt::<f64>(1, 1))),
        ("7pt 5x6x7", digest(&laplacian_3d_7pt::<f64>(5, 6, 7))),
        ("7pt 3x1x4", digest(&laplacian_3d_7pt::<f64>(3, 1, 4))),
        ("7pt 1x1x1", digest(&laplacian_3d_7pt::<f64>(1, 1, 1))),
        ("f32 5pt 13x11", digest(&laplacian_2d_5pt::<f32>(13, 11))),
        ("f32 9pt 12x12", digest(&laplacian_2d_9pt::<f32>(12, 12))),
        ("f32 7pt 5x6x7", digest(&laplacian_3d_7pt::<f32>(5, 6, 7))),
    ];
    check(
        "stencil",
        &actual,
        &[
            ("tridiagonal 1", 0xcf98894d7e1a7b24),
            ("tridiagonal 257", 0x1d1c3c9cf1a096fa),
            ("laplacian_1d 64", 0x622bab6a8658ef7b),
            ("5pt 1x1", 0xcfcee94d7e48adb4),
            ("5pt 13x11", 0x2bfba4ab5f201989),
            ("5pt 1x9", 0x820740b3d94313b4),
            ("9pt 12x12", 0x34bb146035b9bcde),
            ("9pt 7x2", 0x31607b7232d40477),
            ("9pt 1x1", 0xd004c94d7e7606c4),
            ("7pt 5x6x7", 0xd49e899223831f48),
            ("7pt 3x1x4", 0x8ae5913ed6b52f5f),
            ("7pt 1x1x1", 0xcfe9994d7e5eed7c),
            ("f32 5pt 13x11", 0x2bfba4ab5f201989),
            ("f32 9pt 12x12", 0x34bb146035b9bcde),
            ("f32 7pt 5x6x7", 0xd49e899223831f48),
        ],
    );
}

#[test]
fn small_corpora_are_pinned() {
    let actual = [
        (
            "small 60 s1",
            corpus_digest::<f64>(&CorpusSpec::small(60, 1)),
        ),
        (
            "small 60 s2",
            corpus_digest::<f64>(&CorpusSpec::small(60, 2)),
        ),
        (
            "small 60 s3",
            corpus_digest::<f64>(&CorpusSpec::small(60, 3)),
        ),
        (
            "f32 small 60 s1",
            corpus_digest::<f32>(&CorpusSpec::small(60, 1)),
        ),
    ];
    check(
        "corpus",
        &actual,
        &[
            ("small 60 s1", 0x8c194fa07f45e960),
            ("small 60 s2", 0xe866ec9be57c693c),
            ("small 60 s3", 0x5b918d32068ee90a),
            ("f32 small 60 s1", 0xb71c3011265b0309),
        ],
    );
}

/// The benchmark's pinned training corpus (`e2e/src/pinned.rs`): its
/// model and decision fixtures are functions of exactly these matrices.
/// A few seconds unoptimized, so it runs in release: `cargo test -p
/// smat-matrix --release -- --include-ignored`.
#[test]
#[ignore = "release-size corpus"]
fn benchmark_corpus_is_pinned() {
    let spec = CorpusSpec {
        count: 240,
        seed: 0x5AA7_E2E0,
        min_dim: 512,
        max_dim: 8192,
    };
    let actual = [("e2e 240", corpus_digest::<f64>(&spec))];
    check(
        "benchmark corpus",
        &actual,
        &[("e2e 240", 0x97e655984c241c0c)],
    );
}
