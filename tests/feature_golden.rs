//! Golden-value tests for the 11 Table-2 feature parameters: every
//! value asserted here is computed by hand from the matrix definition,
//! so a regression in any extraction formula fails loudly instead of
//! shifting model behavior silently.

use smat_features::{
    extract_features, extract_structure, fit_power_law_of_degrees, ATTRIBUTE_NAMES,
    R_NOT_SCALE_FREE,
};
use smat_matrix::Csr;

/// 4 x 6, 7 nonzeros:
///
/// ```text
///   c0 c1 c2 c3 c4 c5
/// r0  x  x  .  .  .  .      degree 2
/// r1  .  x  .  .  .  .      degree 1
/// r2  .  .  x  .  x  x      degree 3
/// r3  .  .  .  x  .  .      degree 1
/// ```
///
/// Occupied diagonals (offset = c - r): 0 (4 entries), +1, +2, +3 (one
/// each).
fn wide_example() -> Csr<f64> {
    Csr::from_triplets(
        4,
        6,
        &[
            (0, 0, 1.0),
            (0, 1, 2.0),
            (1, 1, 3.0),
            (2, 2, 4.0),
            (2, 4, 5.0),
            (2, 5, 6.0),
            (3, 3, 7.0),
        ],
    )
    .unwrap()
}

#[test]
fn all_eleven_parameters_on_the_wide_example() {
    let f = extract_features(&wide_example());
    assert_eq!(f.m, 4.0); // M
    assert_eq!(f.n, 6.0); // N
    assert_eq!(f.nnz, 7.0); // NNZ
    assert_eq!(f.aver_rd, 7.0 / 4.0); // aver_RD
    assert_eq!(f.max_rd, 3.0); // max_RD
                               // var_RD: degrees {2,1,3,1}, mean 1.75:
                               // (0.25^2 + 0.75^2 + 1.25^2 + 0.75^2) / 4 = 2.75 / 4.
    assert_eq!(f.var_rd, 0.6875);
    assert_eq!(f.ndiags, 4.0); // Ndiags: offsets {0, +1, +2, +3}
                               // NTdiags_ratio: offset 0 is fully occupied (4 of length
                               // min(4, 6) = 4); offsets +1 (1/4), +2 (1/4) and +3 (1 of length
                               // min(4, 6-3) = 3) all fall below 90% occupancy.
    assert_eq!(f.ntdiags_ratio, 0.25);
    assert_eq!(f.er_dia, 7.0 / (4.0 * 4.0)); // ER_DIA = NNZ / (Ndiags * M)
    assert_eq!(f.er_ell, 7.0 / (3.0 * 4.0)); // ER_ELL = NNZ / (max_RD * M)
                                             // R: only 3 distinct degrees {1, 2, 3} — below the scale-free
                                             // minimum of 4, so the sentinel is returned.
    assert_eq!(f.r, R_NOT_SCALE_FREE);
}

#[test]
fn attribute_array_order_matches_table2() {
    let f = extract_features(&wide_example());
    let a = f.as_array();
    assert_eq!(ATTRIBUTE_NAMES.len(), 11);
    let expected: [(&str, f64); 11] = [
        ("M", 4.0),
        ("N", 6.0),
        ("NNZ", 7.0),
        ("aver_RD", 1.75),
        ("max_RD", 3.0),
        ("var_RD", 0.6875),
        ("Ndiags", 4.0),
        ("NTdiags_ratio", 0.25),
        ("ER_DIA", 7.0 / 16.0),
        ("ER_ELL", 7.0 / 12.0),
        ("R", R_NOT_SCALE_FREE),
    ];
    for (i, (name, value)) in expected.iter().enumerate() {
        assert_eq!(ATTRIBUTE_NAMES[i], *name, "attribute {i} name");
        assert_eq!(a[i], *value, "attribute {i} ({name}) value");
    }
}

#[test]
fn true_diagonal_threshold_is_exactly_ninety_percent() {
    // 10 x 10. Main diagonal: 9 of 10 entries — exactly 90%, counts as
    // true. Superdiagonal: 8 of 9 entries — 88.9%, does not.
    let mut t: Vec<(usize, usize, f64)> =
        (0..10).filter(|&r| r != 4).map(|r| (r, r, 1.0)).collect();
    t.extend((0..9).filter(|&r| r != 7).map(|r| (r, r + 1, 1.0)));
    let m = Csr::<f64>::from_triplets(10, 10, &t).unwrap();
    let f = extract_structure(&m).features;
    assert_eq!(f.ndiags, 2.0);
    assert_eq!(
        f.ntdiags_ratio, 0.5,
        "only the 90%-occupied diagonal is true"
    );
}

#[test]
fn exact_power_law_recovers_the_exponent() {
    // Degree histogram count(k) = 512 * k^-3 at k = 1, 2, 4, 8: the
    // log-log points are exactly collinear, so the weighted
    // least-squares fit must return R = 3 to machine precision.
    let degrees = [(1usize, 512usize), (2, 64), (4, 8), (8, 1)];
    let it = degrees
        .iter()
        .flat_map(|&(k, count)| std::iter::repeat_n(k, count));
    let r = fit_power_law_of_degrees(it);
    assert!((r - 3.0).abs() < 1e-12, "fitted R = {r}");

    // The same distribution built as an actual matrix (row i gets its
    // histogram degree, entries packed at the row start) extracts the
    // same R through the public two-step pipeline.
    let mut triplets = Vec::new();
    let mut row = 0usize;
    for &(k, count) in &degrees {
        for _ in 0..count {
            for c in 0..k {
                triplets.push((row, c, 1.0));
            }
            row += 1;
        }
    }
    let m = Csr::<f64>::from_triplets(row, 8, &triplets).unwrap();
    let f = extract_features(&m);
    assert!((f.r - 3.0).abs() < 1e-12, "matrix-extracted R = {}", f.r);
    assert_eq!(f.m, 585.0);
    assert_eq!(f.nnz, (512 + 2 * 64 + 4 * 8 + 8) as f64);
    assert_eq!(f.max_rd, 8.0);
}

#[test]
fn lazy_r_is_a_faithful_second_step() {
    // The two-step split (structure first, R on demand) must agree with
    // the one-shot extraction on every parameter.
    let m = wide_example();
    let s = extract_structure(&m);
    assert_eq!(s.row_degrees, vec![2, 1, 3, 1]);
    let full = extract_features(&m);
    let stepped = s.with_power_law();
    assert_eq!(full, stepped);
}

/// The histogram `fit_power_law_of_degrees` kept before it counted
/// degrees in a dense vector: an ordered map, one entry per distinct
/// degree. The fit is the same; only the bins' container differs.
fn fit_power_law_btree_oracle(degrees: impl Iterator<Item = usize>) -> f64 {
    let mut hist = std::collections::BTreeMap::new();
    for d in degrees {
        if d > 0 {
            *hist.entry(d).or_insert(0usize) += 1;
        }
    }
    if hist.len() < smat_features::MIN_DISTINCT_DEGREES {
        return R_NOT_SCALE_FREE;
    }
    let pts: Vec<(f64, f64, f64)> = hist
        .iter()
        .map(|(&k, &c)| ((k as f64).ln(), (c as f64).ln(), c as f64))
        .collect();
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
    if r <= 0.0 || r2 < smat_features::MIN_FIT_QUALITY {
        return R_NOT_SCALE_FREE;
    }
    r
}

/// `degrees` fits to the same bits with the dense histogram as with
/// the ordered map.
fn assert_fit_matches_oracle(what: &str, degrees: &[usize]) {
    let dense = fit_power_law_of_degrees(degrees.iter().copied());
    let oracle = fit_power_law_btree_oracle(degrees.iter().copied());
    assert_eq!(
        dense.to_bits(),
        oracle.to_bits(),
        "{what}: {dense} vs {oracle}"
    );
}

fn row_degrees(m: &Csr<f64>) -> Vec<usize> {
    (0..m.rows()).map(|r| m.row_degree(r)).collect()
}

#[test]
fn dense_degree_histogram_fits_the_same_bits_as_the_ordered_map() {
    use smat_amg::laplacian::{laplacian_2d_9pt, laplacian_3d_7pt};
    use smat_amg::{setup, AmgConfig};
    use smat_matrix::gen::{generate_corpus, power_law, CorpusSpec};

    let corpus = generate_corpus::<f64>(&CorpusSpec {
        count: 40,
        seed: 11,
        min_dim: 64,
        max_dim: 3000,
    });
    let mut scale_free = 0;
    for entry in &corpus {
        let degrees = row_degrees(&entry.matrix);
        assert_fit_matches_oracle(&entry.name, &degrees);
        scale_free +=
            usize::from(fit_power_law_of_degrees(degrees.into_iter()) != R_NOT_SCALE_FREE);
    }
    assert!(scale_free > 0, "the corpus must exercise a fitted R");

    for (grid, a) in [
        ("7-pt 12^3", laplacian_3d_7pt::<f64>(12, 12, 12)),
        ("9-pt 40^2", laplacian_2d_9pt::<f64>(40, 40)),
    ] {
        let hierarchy = setup(a, &AmgConfig::default());
        for (at, level) in hierarchy.levels.iter().enumerate() {
            let mut ops = vec![&level.a];
            ops.extend(level.p.as_ref());
            ops.extend(level.r.as_ref());
            for op in ops {
                assert_fit_matches_oracle(&format!("{grid} level {at}"), &row_degrees(op));
            }
        }
    }

    assert_fit_matches_oracle("all rows empty", &[0; 100]);
    assert_fit_matches_oracle("three distinct degrees", &[1, 1, 2, 3, 3, 3, 0, 2]);
    // One row as wide as the matrix, above a power-law body.
    let graph = power_law::<f64>(2000, 300, 2.0, 5);
    let mut degrees = row_degrees(&graph);
    degrees.push(graph.cols());
    assert_fit_matches_oracle("a full row", &degrees);
}
