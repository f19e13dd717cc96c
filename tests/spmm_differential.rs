//! Bitwise differential suite for the batched multi-RHS (SpMM) tier:
//! `spmm` at batch width `k` must equal `k` independent serial SpMV
//! calls *bit for bit* on exactly-representable (dyadic) inputs, for
//! every registered SpMM variant of all seven formats, planned and
//! unplanned, in both precisions.
//!
//! The register-tiled inner loops sum each row's products per RHS
//! column in the same left-to-right order as the basic SpMV kernel, so
//! on dyadic rationals — where every partial sum is exact — any
//! reassociation, FMA contraction, or tile/tail mix-up would show up
//! as a bitwise divergence. The sweep pins the interesting widths:
//! `k = 1` (degenerate batch), every step of the 8-4-2-1 tile ladder
//! alone (2, 4, 8) and combined (3, 5, 6, 7, 9, 12, 15).

use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;
use smat_kernels::{KernelId, KernelLibrary, Op};
use smat_matrix::gen::{banded, block_sparse, fixed_degree, power_law, random_uniform};
use smat_matrix::{AnyMatrix, Csr, Format, Scalar};

/// Quantizes values to multiples of 0.25 (see `plan_differential.rs`):
/// with a dyadic `x`, every product and partial sum is exactly
/// representable in both precisions, making `==` the right comparison.
fn dyadic<T: Scalar>(mut m: Csr<T>) -> Csr<T> {
    for v in m.values_mut() {
        let q = (v.to_f64() * 4.0).round().clamp(-32.0, 32.0) / 4.0;
        *v = T::from_f64(if q == 0.0 { 0.25 } else { q });
    }
    m
}

/// A row-major dyadic RHS block: element (c, j) at `c * k + j`, varying
/// in both the column index and the RHS index so a kernel that swapped
/// or duplicated RHS lanes cannot pass by accident.
fn dyadic_block<T: Scalar>(cols: usize, k: usize) -> Vec<T> {
    (0..cols * k)
        .map(|i| {
            let (c, j) = (i / k, i % k);
            T::from_f64(((c % 9) as f64 - 4.0) * 0.5 + (j as f64) * 0.25)
        })
        .collect()
}

/// `k` independent serial reference SpMV calls, gathered back into the
/// row-major block layout — the arbiter every tiled variant must match.
fn per_column_reference<T: Scalar>(m: &Csr<T>, x: &[T], k: usize) -> Vec<T> {
    let (rows, cols) = (m.rows(), m.cols());
    let mut out = vec![T::from_f64(f64::NAN); rows * k];
    let mut xj = vec![T::ZERO; cols];
    let mut yj = vec![T::from_f64(f64::NAN); rows];
    for j in 0..k {
        for c in 0..cols {
            xj[c] = x[c * k + j];
        }
        smat_kernels::reference::csrgemv_seq(m, &xj, &mut yj);
        for r in 0..rows {
            out[r * k + j] = yj[r];
        }
    }
    out
}

/// Shapes that stress the batched tier: empty rows (the tile loop must
/// still zero all k outputs), single-row / single-column degenerates,
/// nnz tails that break the unrolled inner loops, block formats, and a
/// completely empty matrix.
fn shapes<T: Scalar>() -> Vec<(&'static str, Csr<T>)> {
    vec![
        ("banded", dyadic(banded(120, &[-5, -1, 0, 1, 5], 0.9, 51))),
        ("fixed_degree", dyadic(fixed_degree(96, 90, 5, 1, 52))),
        ("tail_3", dyadic(fixed_degree(64, 64, 3, 0, 53))),
        ("tail_7", dyadic(fixed_degree(64, 64, 7, 0, 54))),
        ("random", dyadic(random_uniform(130, 130, 6, 55))),
        ("power_law", dyadic(power_law(150, 40, 2.0, 56))),
        ("block2", dyadic(block_sparse(96, 2, 6, 57))),
        ("block4", dyadic(block_sparse(96, 4, 3, 58))),
        ("one_by_n", dyadic(fixed_degree(1, 300, 11, 0, 59))),
        (
            "n_by_one",
            dyadic(
                Csr::from_triplets(
                    300,
                    1,
                    &[
                        (0, 0, T::from_f64(1.0)),
                        (7, 0, T::from_f64(1.0)),
                        (299, 0, T::from_f64(1.0)),
                    ],
                )
                .expect("in-bounds"),
            ),
        ),
        (
            "empty_rows",
            dyadic(
                Csr::from_triplets(
                    50,
                    50,
                    &[
                        (0, 3, T::from_f64(1.0)),
                        (10, 10, T::from_f64(2.0)),
                        (10, 40, T::from_f64(1.5)),
                        (49, 0, T::from_f64(0.5)),
                    ],
                )
                .expect("in-bounds"),
            ),
        ),
        ("empty", Csr::from_triplets(8, 8, &[]).expect("empty")),
    ]
}

/// Every SpMM variant of every format, at every interesting width,
/// planned and unplanned, bitwise against k independent SpMV calls.
fn sweep_spmm_equals_k_spmv<T: Scalar>() {
    let lib = KernelLibrary::<T>::new();
    let mut checked = 0usize;
    for (name, m) in shapes::<T>() {
        for format in Format::ALL {
            let Ok(any) = AnyMatrix::convert_from_csr_with(
                &m,
                format,
                &smat_matrix::ConversionLimits::unlimited(),
            ) else {
                continue;
            };
            for k in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15] {
                let x = dyadic_block::<T>(m.cols(), k);
                let expect = per_column_reference(&m, &x, k);
                for (v, info) in lib.spmm_variants(format).iter().enumerate() {
                    // NaN canary: every output element must be written,
                    // including all k lanes of empty rows.
                    let mut y = vec![T::from_f64(f64::NAN); m.rows() * k];
                    lib.run_spmm(&any, v, &x, &mut y, k);
                    assert!(
                        y == expect,
                        "{name}: {} at k={k} not bitwise-equal to k x spmv",
                        info.name
                    );
                    let plan = lib.plan_for(
                        &any,
                        KernelId {
                            op: Op::Spmm,
                            format,
                            variant: v,
                        },
                    );
                    let mut planned = vec![T::from_f64(f64::NAN); m.rows() * k];
                    lib.run_spmm_planned(&any, v, &plan, &x, &mut planned, k);
                    assert!(
                        planned == expect,
                        "{name}: {} planned at k={k} diverges from k x spmv",
                        info.name
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(
        checked >= 1000,
        "the sweep must cover the whole SpMM tier, got {checked}"
    );
}

#[test]
fn spmm_equals_k_independent_spmv_bitwise_f64() {
    sweep_spmm_equals_k_spmv::<f64>();
}

#[test]
fn spmm_equals_k_independent_spmv_bitwise_f32() {
    sweep_spmm_equals_k_spmv::<f32>();
}

/// The AVX2 SpMM backend must be bit-identical to the portable
/// register-tiled fallback on *arbitrary* values — the same
/// reduction-order contract as SpMV's SIMD tier (mul+add, no FMA,
/// identical tile and tail order). Without AVX2 both paths coincide
/// and the guarantee is a tautology, which is exactly what callers get.
#[test]
fn spmm_simd_backend_is_bit_identical_to_portable() {
    use smat_kernels::{simd, SimdBackend, Strategy};
    let lib = KernelLibrary::<f64>::new();
    let m = random_uniform::<f64>(200, 180, 7, 60);
    let any = AnyMatrix::Csr(m.clone());
    for k in [1usize, 3, 4, 6, 8, 9, 12, 15] {
        let x: Vec<f64> = (0..m.cols() * k)
            .map(|i| (i as f64 * 0.7312).sin() * 3.0)
            .collect();
        for (v, info) in lib.spmm_variants(Format::Csr).iter().enumerate() {
            if !info.strategies.contains(Strategy::Simd) {
                continue;
            }
            simd::set_backend(SimdBackend::Portable);
            let mut portable = vec![f64::NAN; m.rows() * k];
            lib.run_spmm(&any, v, &x, &mut portable, k);
            simd::set_backend(SimdBackend::Auto);
            let mut auto = vec![f64::NAN; m.rows() * k];
            lib.run_spmm(&any, v, &x, &mut auto, k);
            assert!(
                auto == portable,
                "{} at k={k} diverges between AVX2 and portable (active: {})",
                info.name,
                simd::active_backend()
            );
        }
    }
}

/// Strategy: an arbitrary small sparse matrix (same shape distribution
/// as `plan_differential.rs`, so proptest hunts the same degenerate
/// corners: empty rows, 1xN, Nx1, tails).
fn arb_matrix() -> impl PropStrategy<Value = Csr<f64>> {
    (1usize..36, 1usize..36).prop_flat_map(|(rows, cols)| {
        let entry = (0..rows, 0..cols, -90i32..90).prop_map(|(r, c, v)| (r, c, v as f64 / 11.0));
        proptest::collection::vec(entry, 0..100).prop_map(move |triplets| {
            Csr::from_triplets(rows, cols, &triplets).expect("in-bounds triplets")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary dyadic matrices and arbitrary widths: every SpMM
    /// variant stays bitwise equal to k independent reference SpMV
    /// calls, planned and unplanned.
    #[test]
    fn spmm_matches_k_spmv_on_arbitrary_matrices(m in arb_matrix(), k in 1usize..10) {
        let lib = KernelLibrary::<f64>::new();
        let m = dyadic(m);
        let x = dyadic_block::<f64>(m.cols(), k);
        let expect = per_column_reference(&m, &x, k);
        for format in Format::ALL {
            let Ok(any) = AnyMatrix::convert_from_csr_with(
                &m,
                format,
                &smat_matrix::ConversionLimits::unlimited(),
            ) else { continue };
            for v in 0..lib.spmm_variant_count(format) {
                let mut y = vec![f64::NAN; m.rows() * k];
                lib.run_spmm(&any, v, &x, &mut y, k);
                prop_assert!(
                    y == expect,
                    "{format} spmm variant {v} diverges at k={k} on {}x{} nnz={}",
                    m.rows(), m.cols(), m.nnz()
                );
                let plan = lib.plan_for(&any, KernelId { op: Op::Spmm, format, variant: v });
                let mut planned = vec![f64::NAN; m.rows() * k];
                lib.run_spmm_planned(&any, v, &plan, &x, &mut planned, k);
                prop_assert!(
                    planned == expect,
                    "{format} spmm variant {v} planned diverges at k={k}"
                );
            }
        }
    }
}
