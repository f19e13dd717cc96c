//! Property-based tests over the storage formats and kernels: for
//! arbitrary sparse matrices, every conversion round-trips and every
//! kernel variant computes the same product as the reference CSR SpMV.

use proptest::prelude::*;
use smat_features::extract_features;
use smat_kernels::KernelLibrary;
use smat_matrix::utils::max_abs_diff;
use smat_matrix::{AnyMatrix, Coo, Csr, Format};

/// Strategy: an arbitrary small sparse matrix as (rows, cols, triplets).
fn arb_matrix() -> impl Strategy<Value = Csr<f64>> {
    (1usize..40, 1usize..40).prop_flat_map(|(rows, cols)| {
        let entry = (0..rows, 0..cols, -100i32..100).prop_map(|(r, c, v)| (r, c, v as f64 / 7.0));
        proptest::collection::vec(entry, 0..120).prop_map(move |triplets| {
            Csr::from_triplets(rows, cols, &triplets).expect("in-bounds triplets")
        })
    })
}

/// Strategy: a dense-ish vector matching a width.
fn arb_x(cols: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-50i32..50, cols)
        .prop_map(|v| v.into_iter().map(|i| i as f64 / 3.0).collect())
}

/// `m` with its explicitly stored zeros dropped: what a DIA, ELL or HYB
/// round trip gives back.
fn without_zeros(m: &Csr<f64>) -> Csr<f64> {
    let kept: Vec<(usize, usize, f64)> = m.iter().filter(|&(_, _, v)| v != 0.0).collect();
    Csr::from_triplets(m.rows(), m.cols(), &kept).expect("in-bounds triplets")
}

/// The shrunk counterexample persisted in `format_props.proptest-regressions`
/// (seed `cc 74b4b98c…`), pinned as an explicit case: a short-and-wide
/// matrix with an explicitly stored zero. The zero must round-trip
/// through COO verbatim, be pruned by DIA/ELL/HYB, and never perturb a
/// kernel's product.
fn regression_case_74b4b98c() -> Csr<f64> {
    let cols: [usize; 35] = [
        4, 6, 8, 16, 17, 18, 21, 22, 23, 27, 29, 30, 31, // row 0
        4, 5, 7, 19, 25, 26, 27, 31, // row 1
        2, 5, 6, 8, 9, 11, 12, 17, 20, 21, 24, 25, 27, 31, // row 2
    ];
    let sevenths: [f64; 35] = [
        -2.0, -20.0, -62.0, 89.0, -123.0, -77.0, 79.0, 77.0, 2.0, -59.0, -98.0, 18.0, 38.0, //
        38.0, 123.0, 84.0, -74.0, -74.0, 67.0, 61.0, 84.0, //
        -43.0, -58.0, 97.0, -43.0, 146.0, -144.0, 32.0, 79.0, 66.0, 93.0, 47.0, 0.0, -21.0, -12.0,
    ];
    let row_of = |k: usize| {
        if k < 13 {
            0
        } else if k < 21 {
            1
        } else {
            2
        }
    };
    let triplets: Vec<(usize, usize, f64)> = (0..35)
        .map(|k| (row_of(k), cols[k], sevenths[k] / 7.0))
        .collect();
    Csr::from_triplets(3, 33, &triplets).unwrap()
}

#[test]
fn regression_shrunk_case_74b4b98c_round_trips_and_multiplies() {
    let m = regression_case_74b4b98c();
    assert_eq!(m.nnz(), 35);
    assert_eq!(m.get(2, 25), Some(0.0), "the explicit zero is stored");

    // Conversion contract, exactly as conversions_round_trip asserts it.
    assert_eq!(Coo::from_csr(&m).to_csr(), m);
    let expected = without_zeros(&m);
    for format in [Format::Dia, Format::Ell, Format::Hyb] {
        if let Ok(any) = AnyMatrix::convert_from_csr(&m, format) {
            assert_eq!(any.to_csr(), expected, "{format} round trip");
        }
    }

    // Kernel contract, over the seeds the shrink search ran with.
    let lib = KernelLibrary::<f64>::new();
    for seed in [0u64, 1, 7, 999] {
        let x: Vec<f64> = (0..m.cols())
            .map(|i| (((i as u64 + 1) * (seed + 3)) % 17) as f64 - 8.0)
            .collect();
        let mut expect = vec![0.0; m.rows()];
        m.spmv(&x, &mut expect).unwrap();
        for format in Format::ALL {
            let Ok(any) = AnyMatrix::convert_from_csr(&m, format) else {
                continue;
            };
            for v in 0..lib.variant_count(format) {
                let mut y = vec![f64::NAN; m.rows()];
                lib.run(&any, v, &x, &mut y);
                assert!(
                    max_abs_diff(&y, &expect) < 1e-9,
                    "{format} variant {v} diverges on seed {seed}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn conversions_round_trip(m in arb_matrix()) {
        // COO always converts and preserves explicit zeros exactly.
        prop_assert_eq!(Coo::from_csr(&m).to_csr(), m.clone());
        // DIA/ELL may refuse on fill blow-up (nothing to check then) and
        // documentedly drop explicit stored zeros on the way back, so
        // compare against the zero-pruned matrix.
        let expected = without_zeros(&m);
        for format in [Format::Dia, Format::Ell, Format::Hyb] {
            if let Ok(any) = AnyMatrix::convert_from_csr(&m, format) {
                prop_assert_eq!(any.to_csr(), expected.clone(), "{} round trip", format);
            }
        }
    }

    #[test]
    fn every_kernel_matches_reference(m in arb_matrix(), seed in 0u64..1000) {
        let lib = KernelLibrary::<f64>::new();
        // Deterministic pseudo-random x from the seed.
        let x: Vec<f64> = (0..m.cols())
            .map(|i| (((i as u64 + 1) * (seed + 3)) % 17) as f64 - 8.0)
            .collect();
        let mut expect = vec![0.0; m.rows()];
        m.spmv(&x, &mut expect).unwrap();
        for format in Format::ALL {
            let Ok(any) = AnyMatrix::convert_from_csr(&m, format) else { continue };
            for v in 0..lib.variant_count(format) {
                let mut y = vec![f64::NAN; m.rows()];
                lib.run(&any, v, &x, &mut y);
                prop_assert!(
                    max_abs_diff(&y, &expect) < 1e-9,
                    "{} variant {} diverges", format, v
                );
            }
        }
    }

    #[test]
    fn transpose_is_involutive(m in arb_matrix()) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_spmv_is_adjoint(m in arb_matrix()) {
        // <A x, y> == <x, A^T y> for arbitrary x, y.
        let x: Vec<f64> = (0..m.cols()).map(|i| (i % 5) as f64 - 2.0).collect();
        let yv: Vec<f64> = (0..m.rows()).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut ax = vec![0.0; m.rows()];
        m.spmv(&x, &mut ax).unwrap();
        let at = m.transpose();
        let mut aty = vec![0.0; m.cols()];
        at.spmv(&yv, &mut aty).unwrap();
        let lhs: f64 = ax.iter().zip(&yv).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-6 * (1.0 + lhs.abs()));
    }

    #[test]
    fn features_are_well_defined(m in arb_matrix()) {
        let f = extract_features(&m);
        prop_assert_eq!(f.m as usize, m.rows());
        prop_assert_eq!(f.n as usize, m.cols());
        prop_assert_eq!(f.nnz as usize, m.nnz());
        prop_assert!(f.ntdiags_ratio >= 0.0 && f.ntdiags_ratio <= 1.0);
        prop_assert!(f.er_dia >= 0.0 && f.er_dia <= 1.0 + 1e-12);
        prop_assert!(f.er_ell >= 0.0 && f.er_ell <= 1.0 + 1e-12);
        prop_assert!(f.max_rd >= f.aver_rd - 1e-12);
        prop_assert!(f.var_rd >= 0.0);
        prop_assert!(f.r > 0.0);
    }

    #[test]
    fn spmv_is_linear((m, x) in arb_matrix().prop_flat_map(|m| {
        let cols = m.cols();
        (Just(m), arb_x(cols))
    })) {
        let mut y1 = vec![0.0; m.rows()];
        m.spmv(&x, &mut y1).unwrap();
        let x2: Vec<f64> = x.iter().map(|v| v * 2.0).collect();
        let mut y2 = vec![0.0; m.rows()];
        m.spmv(&x2, &mut y2).unwrap();
        for (a, b) in y1.iter().zip(&y2) {
            prop_assert!((2.0 * a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }
}
