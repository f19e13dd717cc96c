//! Differential suite for precomputed execution plans: replaying a
//! frozen [`ExecPlan`] must be *bitwise* indistinguishable from the
//! plan-per-call convenience dispatch (`run`), for every builtin
//! variant of every format — otherwise caching the plan inside a
//! tuning-cache entry would silently change results between a cold and
//! a warm run.
//!
//! Also pinned here: which variants are bit-identical to the serial
//! basic kernel (all parallel ones except the unrolled/blocked
//! accumulator shapes), stale plans staying correct, and user-registered
//! kernels ignoring plans entirely.

use proptest::prelude::*;
// `smat_kernels::Strategy` (the optimization lattice) shadows the
// glob-imported proptest trait of the same name; re-import the trait
// under an alias so its methods stay resolvable.
use proptest::strategy::Strategy as PropStrategy;
use smat_kernels::{ExecPlan, KernelId, KernelLibrary, Strategy, StrategySet};
use smat_matrix::gen::{
    banded, block_sparse, fixed_degree, laplacian_2d_9pt, power_law, random_skewed, random_uniform,
    tridiagonal,
};
use smat_matrix::{AnyMatrix, Csr, Format, Scalar};

/// A corpus spanning the generator archetypes, small enough to sweep
/// every (format, variant) pair in both precisions.
fn corpus<T: Scalar>() -> Vec<(&'static str, Csr<T>)> {
    vec![
        ("tridiagonal", tridiagonal(193)),
        ("banded", banded(240, &[-9, -1, 0, 1, 9], 0.8, 21)),
        ("fixed_degree", fixed_degree(150, 140, 5, 1, 22)),
        ("random_square", random_uniform(200, 200, 7, 23)),
        ("random_wide", random_uniform(90, 400, 4, 24)),
        ("power_law", power_law(300, 60, 2.0, 25)),
        ("skewed", random_skewed(250, 250, 4, 0.04, 30, 26)),
        ("block", block_sparse(192, 16, 3, 27)),
        ("stencil", laplacian_2d_9pt(13, 11)),
    ]
}

fn test_vector<T: Scalar>(cols: usize) -> Vec<T> {
    (0..cols)
        .map(|i| T::from_f64(((i % 13) as f64 - 6.0) * 0.4375))
        .collect()
}

/// `run_planned` with a fresh plan must produce bit-for-bit the same
/// output as `run` — same partition geometry, same accumulation order —
/// and so must the serial plan a degraded decision runs on: a plan only
/// says how rows fan out, never how a row is summed.
/// (Merge-path is the exception by design: its serial fallback is the
/// unsplit row order.)
fn sweep_planned_equals_unplanned<T: Scalar>() {
    let lib = KernelLibrary::<T>::new();
    for (name, m) in corpus::<T>() {
        let x = test_vector::<T>(m.cols());
        for format in Format::ALL {
            let Ok(any) = AnyMatrix::convert_from_csr(&m, format) else {
                continue; // conversion refused (fill limits)
            };
            for v in 0..lib.variant_count(format) {
                let plan = lib.plan_for(
                    &any,
                    KernelId {
                        op: smat_kernels::Op::Spmv,
                        format,
                        variant: v,
                    },
                );
                let mut unplanned = vec![T::from_f64(f64::NAN); m.rows()];
                lib.run(&any, v, &x, &mut unplanned);
                let mut planned = vec![T::from_f64(f64::NAN); m.rows()];
                lib.run_planned(&any, v, &plan, &x, &mut planned);
                assert!(
                    planned == unplanned,
                    "{name}: {format} variant {v} ({}) planned != unplanned",
                    lib.variants(format)[v].name
                );
                let info = lib.variants(format)[v];
                if !info.strategies.contains(Strategy::Merge) {
                    let mut serial = vec![T::from_f64(f64::NAN); m.rows()];
                    lib.run_planned(&any, v, &ExecPlan::serial(m.rows()), &x, &mut serial);
                    assert!(
                        serial == unplanned,
                        "{name}: {} differs under the serial plan",
                        info.name
                    );
                }
            }
        }
    }
}

#[test]
fn planned_equals_unplanned_bitwise_f64() {
    sweep_planned_equals_unplanned::<f64>();
}

#[test]
fn planned_equals_unplanned_bitwise_f32() {
    sweep_planned_equals_unplanned::<f32>();
}

/// Row-chunking never reorders a row's accumulation, so every parallel
/// variant that keeps the plain accumulator shape (no 4-way unroll, no
/// register blocking, no split-lane row dot) is bit-identical to its
/// format's serial basic
/// kernel — the property that makes plan caching safe to mix with
/// serial fallbacks (degraded mode) on the same matrix.
#[test]
fn plain_parallel_variants_are_bit_identical_to_serial_basic() {
    let lib = KernelLibrary::<f64>::new();
    let mut checked = 0usize;
    for (name, m) in corpus::<f64>() {
        let x = test_vector::<f64>(m.cols());
        for format in Format::ALL {
            let Ok(any) = AnyMatrix::convert_from_csr(&m, format) else {
                continue;
            };
            let mut basic = vec![f64::NAN; m.rows()];
            lib.run(&any, 0, &x, &mut basic);
            for (v, info) in lib.variants(format).iter().enumerate() {
                if !info.strategies.contains(Strategy::Parallel)
                    || info.strategies.contains(Strategy::Unroll)
                    || info.strategies.contains(Strategy::Block)
                    // Merge-path splits rows mid-stream and reassociates
                    // their sums, so it matches basic bitwise only on
                    // exactly-representable values — covered by the
                    // dyadic sweeps below, not by this corpus.
                    || info.strategies.contains(Strategy::Merge)
                {
                    continue;
                }
                let plan = lib.plan_for(
                    &any,
                    KernelId {
                        op: smat_kernels::Op::Spmv,
                        format,
                        variant: v,
                    },
                );
                let mut planned = vec![f64::NAN; m.rows()];
                lib.run_planned(&any, v, &plan, &x, &mut planned);
                assert!(
                    planned == basic,
                    "{name}: {} not bit-identical to {} basic",
                    info.name,
                    format
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 20, "the sweep must actually cover variants");
}

/// A stale plan (sized for a different thread count) stays *correct* —
/// its chunks still cover every row exactly once — it is merely
/// mis-sized. The runtime rebuilds stale plans opportunistically, but
/// correctness must never depend on that happening.
#[test]
fn stale_plans_stay_correct() {
    let lib = KernelLibrary::<f64>::new();
    let m = random_uniform::<f64>(300, 300, 8, 77);
    let any = AnyMatrix::Csr(m.clone());
    let x = test_vector::<f64>(m.cols());
    for v in 0..lib.variant_count(Format::Csr) {
        let id = KernelId {
            op: smat_kernels::Op::Spmv,
            format: Format::Csr,
            variant: v,
        };
        let mut plan = lib.plan_for(&any, id);
        let fresh_serial = plan.is_serial();
        plan.threads += 3; // as if the cache file came from another host
        assert_eq!(plan.is_stale(), !fresh_serial);
        let mut expect = vec![f64::NAN; m.rows()];
        lib.run(&any, v, &x, &mut expect);
        let mut y = vec![f64::NAN; m.rows()];
        lib.run_planned(&any, v, &plan, &x, &mut y);
        assert!(y == expect, "variant {v} wrong under a stale plan");
    }
}

/// User-registered kernels have no planned path: `run_planned` must
/// dispatch their raw fn pointer and ignore the plan entirely, even a
/// nonsensical one — the registry cannot know how a foreign kernel
/// partitions its work.
#[test]
fn registered_kernels_ignore_the_plan() {
    let mut lib = KernelLibrary::<f64>::new();
    fn doubled(m: &AnyMatrix<f64>, x: &[f64], y: &mut [f64]) {
        let mut tmp = vec![0.0; y.len()];
        m.spmv(x, &mut tmp).expect("dims checked by caller");
        for (o, t) in y.iter_mut().zip(&tmp) {
            *o = 2.0 * t;
        }
    }
    let id = lib.register(
        Format::Csr,
        "csr_doubled",
        [Strategy::Parallel].into_iter().collect::<StrategySet>(),
        doubled,
    );
    let m = random_uniform::<f64>(120, 120, 6, 5);
    let any = AnyMatrix::Csr(m.clone());
    let x = test_vector::<f64>(m.cols());
    let mut expect = vec![0.0; m.rows()];
    m.spmv(&x, &mut expect).unwrap();
    for v in expect.iter_mut() {
        *v *= 2.0;
    }
    // plan_for refuses to build a fan-out plan for a foreign kernel...
    let plan = lib.plan_for(&any, id);
    assert!(plan.is_serial());
    // ...and run_planned ignores even a malformed plan for it.
    let garbage = ExecPlan {
        bounds: vec![0, 7, 3],
        entry_bounds: None,
        threads: 99,
        policy: smat_kernels::ChunkPolicy::EqualRows,
    };
    let mut y = vec![f64::NAN; m.rows()];
    lib.run_planned(&any, id.variant, &garbage, &x, &mut y);
    assert!(y == expect, "registered kernel must run its raw fn pointer");
}

/// Quantizes a matrix's values to multiples of 0.25. Together with an
/// `x` of multiples of 0.5, every product is a small dyadic rational
/// and every partial sum is exactly representable in both precisions —
/// so *any* accumulation order (4-way, 8-way, AVX2 lanes, register
/// blocks) must produce bit-for-bit the reference result. This is what
/// lets the sweep below compare unrolled/SIMD/BCSR variants against
/// `reference::csrgemv_seq` with `==` instead of a tolerance.
fn dyadic<T: Scalar>(mut m: Csr<T>) -> Csr<T> {
    for v in m.values_mut() {
        let q = (v.to_f64() * 4.0).round().clamp(-32.0, 32.0) / 4.0;
        *v = T::from_f64(if q == 0.0 { 0.25 } else { q });
    }
    m
}

fn dyadic_vector<T: Scalar>(cols: usize) -> Vec<T> {
    (0..cols)
        .map(|i| T::from_f64(((i % 9) as f64 - 4.0) * 0.5))
        .collect()
}

/// Every variant of every format — including the SIMD and
/// register-blocked BCSR tiers added for the implementation-variant
/// scoreboard — is bitwise identical to the sequential CSR reference
/// on exactly-representable inputs, both planned and unplanned.
///
/// This is the reduction-order contract made testable: the split
/// accumulators sum *disjoint* subsets whose partial sums are exact
/// here, so a variant that reassociated into a different (rounding)
/// order, or an AVX2 path that used FMA, would diverge bitwise.
fn sweep_bitwise_vs_reference<T: Scalar>() {
    let lib = KernelLibrary::<T>::new();
    let shapes: Vec<(&'static str, Csr<T>)> = vec![
        ("tridiagonal", dyadic(tridiagonal(97))),
        ("banded", dyadic(banded(120, &[-5, -1, 0, 1, 5], 0.9, 31))),
        ("fixed_degree", dyadic(fixed_degree(96, 90, 5, 1, 32))),
        // nnz per row not a multiple of 4 or 8: exercises the scalar
        // tails of every unrolled and vector inner loop.
        ("tail_3", dyadic(fixed_degree(64, 64, 3, 0, 33))),
        ("tail_7", dyadic(fixed_degree(64, 64, 7, 0, 34))),
        ("tail_9", dyadic(fixed_degree(64, 64, 9, 0, 35))),
        ("random", dyadic(random_uniform(130, 130, 6, 36))),
        ("power_law", dyadic(power_law(150, 40, 2.0, 37))),
        ("skewed", dyadic(random_skewed(110, 110, 4, 0.05, 20, 38))),
        ("block2", dyadic(block_sparse(96, 2, 6, 39))),
        ("block4", dyadic(block_sparse(96, 4, 3, 40))),
        // Degenerate shapes: single row, single column, empty rows.
        ("one_by_n", dyadic(fixed_degree(1, 300, 11, 0, 41))),
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
    ];
    let mut new_tier_checked = 0usize;
    for (name, m) in shapes {
        let x = dyadic_vector::<T>(m.cols());
        let mut reference = vec![T::from_f64(f64::NAN); m.rows()];
        smat_kernels::reference::csrgemv_seq(&m, &x, &mut reference);
        for format in Format::ALL {
            let Ok(any) = AnyMatrix::convert_from_csr_with(
                &m,
                format,
                &smat_matrix::ConversionLimits::unlimited(),
            ) else {
                continue;
            };
            for (v, info) in lib.variants(format).iter().enumerate() {
                let mut y = vec![T::from_f64(f64::NAN); m.rows()];
                lib.run(&any, v, &x, &mut y);
                assert!(
                    y == reference,
                    "{name}: {} not bitwise-equal to the sequential reference",
                    info.name
                );
                let plan = lib.plan_for(
                    &any,
                    KernelId {
                        op: smat_kernels::Op::Spmv,
                        format,
                        variant: v,
                    },
                );
                let mut planned = vec![T::from_f64(f64::NAN); m.rows()];
                lib.run_planned(&any, v, &plan, &x, &mut planned);
                assert!(
                    planned == reference,
                    "{name}: {} planned diverges",
                    info.name
                );
                if info.strategies.contains(Strategy::Simd)
                    || matches!(format, Format::Bcsr2 | Format::Bcsr4)
                {
                    new_tier_checked += 1;
                }
            }
        }
    }
    assert!(
        new_tier_checked >= 100,
        "the sweep must cover the new variant tier, got {new_tier_checked}"
    );
}

/// The merge-path kernel at explicit plan widths. The generic sweeps
/// above only exercise the width `plan_for` picks on this machine;
/// here `build_plan_sized` pins widths 1, 2 and 4 — the realized
/// "thread counts" of the satellite contract — over the degenerate
/// dyadic shapes where mid-row splits actually occur (empty rows, one
/// long row, one column, nnz tails), and demands bit-identity with the
/// serial `csr_basic` output. The serial fix-up that adds chunk
/// carries in ascending order is what makes this hold at any width.
fn sweep_merge_matches_basic_across_widths<T: Scalar>() {
    use smat_kernels::ChunkPolicy;
    let lib = KernelLibrary::<T>::new();
    let merge = lib
        .variants(Format::Csr)
        .iter()
        .position(|info| info.name == "csr_merge")
        .expect("csr_merge is a builtin CSR variant");
    let shapes: Vec<(&'static str, Csr<T>)> = vec![
        ("one_by_n", dyadic(fixed_degree(1, 300, 11, 0, 41))),
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
        ("tail_3", dyadic(fixed_degree(64, 64, 3, 0, 33))),
        ("tail_7", dyadic(fixed_degree(64, 64, 7, 0, 34))),
        ("tail_9", dyadic(fixed_degree(64, 64, 9, 0, 35))),
        ("power_law", dyadic(power_law(150, 40, 2.0, 37))),
        ("empty", Csr::from_triplets(8, 8, &[]).expect("empty")),
    ];
    for (name, m) in shapes {
        let any = AnyMatrix::Csr(m.clone());
        let x = dyadic_vector::<T>(m.cols());
        let mut basic = vec![T::from_f64(f64::NAN); m.rows()];
        lib.run(&any, 0, &x, &mut basic);
        for width in [1usize, 2, 4] {
            let plan = lib.build_plan_sized(&any, ChunkPolicy::MergePath, width);
            assert_eq!(
                plan.policy,
                ChunkPolicy::MergePath,
                "{name}: policy recorded"
            );
            assert!(plan.chunks() <= width, "{name}: width overshoot");
            let mut y = vec![T::from_f64(f64::NAN); m.rows()];
            lib.run_planned(&any, merge, &plan, &x, &mut y);
            assert!(
                y == basic,
                "{name}: csr_merge at width {width} not bit-identical to csr_basic"
            );
        }
    }
}

#[test]
fn merge_path_matches_basic_across_widths_f64() {
    sweep_merge_matches_basic_across_widths::<f64>();
}

#[test]
fn merge_path_matches_basic_across_widths_f32() {
    sweep_merge_matches_basic_across_widths::<f32>();
}

#[test]
fn all_variants_bitwise_match_reference_f64() {
    sweep_bitwise_vs_reference::<f64>();
}

#[test]
fn all_variants_bitwise_match_reference_f32() {
    sweep_bitwise_vs_reference::<f32>();
}

/// The AVX2 backend must be bit-identical to the portable unrolled
/// fallback on *arbitrary* values, not just dyadic ones — the documented
/// reduction-order contract (same four partial sums, mul+add instead of
/// FMA, scalar tail into lane 0). On hardware without AVX2 both
/// configurations take the portable path and the test degenerates to a
/// tautology, which is exactly the guarantee callers get there.
fn sweep_simd_backends_agree<T: Scalar>() {
    use smat_kernels::{simd, SimdBackend};
    let lib = KernelLibrary::<T>::new();
    for (name, m) in corpus::<T>() {
        let x: Vec<T> = (0..m.cols())
            .map(|i| T::from_f64((i as f64 * 0.7312).sin() * 3.0))
            .collect();
        for format in Format::ALL {
            let Ok(any) = AnyMatrix::convert_from_csr_with(
                &m,
                format,
                &smat_matrix::ConversionLimits::unlimited(),
            ) else {
                continue;
            };
            for (v, info) in lib.variants(format).iter().enumerate() {
                if !info.strategies.contains(Strategy::Simd) {
                    continue;
                }
                simd::set_backend(SimdBackend::Portable);
                let mut portable = vec![T::from_f64(f64::NAN); m.rows()];
                lib.run(&any, v, &x, &mut portable);
                simd::set_backend(SimdBackend::Auto);
                let mut auto = vec![T::from_f64(f64::NAN); m.rows()];
                lib.run(&any, v, &x, &mut auto);
                assert!(
                    auto == portable,
                    "{name}: {} diverges between AVX2 and portable (active: {})",
                    info.name,
                    simd::active_backend()
                );
            }
        }
    }
}

#[test]
fn simd_backend_is_bit_identical_to_portable_f64() {
    sweep_simd_backends_agree::<f64>();
}

#[test]
fn simd_backend_is_bit_identical_to_portable_f32() {
    sweep_simd_backends_agree::<f32>();
}

/// Strategy: an arbitrary small sparse matrix.
fn arb_matrix() -> impl PropStrategy<Value = Csr<f64>> {
    (1usize..36, 1usize..36).prop_flat_map(|(rows, cols)| {
        let entry = (0..rows, 0..cols, -90i32..90).prop_map(|(r, c, v)| (r, c, v as f64 / 11.0));
        proptest::collection::vec(entry, 0..100).prop_map(move |triplets| {
            Csr::from_triplets(rows, cols, &triplets).expect("in-bounds triplets")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For arbitrary matrices — including empty, single-row, wide and
    /// tall shapes the deterministic corpus misses — planned dispatch
    /// is bitwise identical to unplanned, for every format and variant.
    #[test]
    fn planned_equals_unplanned_on_arbitrary_matrices(m in arb_matrix()) {
        let lib = KernelLibrary::<f64>::new();
        let x: Vec<f64> = (0..m.cols()).map(|i| (i as f64).sin()).collect();
        for format in Format::ALL {
            let Ok(any) = AnyMatrix::convert_from_csr(&m, format) else { continue };
            for v in 0..lib.variant_count(format) {
                let plan = lib.plan_for(&any, KernelId { op: smat_kernels::Op::Spmv, format, variant: v });
                let mut unplanned = vec![f64::NAN; m.rows()];
                lib.run(&any, v, &x, &mut unplanned);
                let mut planned = vec![f64::NAN; m.rows()];
                lib.run_planned(&any, v, &plan, &x, &mut planned);
                prop_assert!(
                    planned == unplanned,
                    "{format} variant {v} diverges on {}x{} nnz={}",
                    m.rows(), m.cols(), m.nnz()
                );
            }
        }
    }

    /// Arbitrary shapes with dyadic values: every variant — unrolled
    /// tails, SIMD lanes, BCSR edge blocks — stays bitwise equal to the
    /// sequential reference on the shapes proptest likes to find
    /// (empty rows, 1-row / 1-column matrices, nnz % 4 != 0 tails).
    #[test]
    fn variants_bitwise_match_reference_on_arbitrary_matrices(m in arb_matrix()) {
        let lib = KernelLibrary::<f64>::new();
        let m = dyadic(m);
        let x = dyadic_vector::<f64>(m.cols());
        let mut reference = vec![f64::NAN; m.rows()];
        smat_kernels::reference::csrgemv_seq(&m, &x, &mut reference);
        for format in Format::ALL {
            let Ok(any) = AnyMatrix::convert_from_csr_with(
                &m,
                format,
                &smat_matrix::ConversionLimits::unlimited(),
            ) else { continue };
            for v in 0..lib.variant_count(format) {
                let mut y = vec![f64::NAN; m.rows()];
                lib.run(&any, v, &x, &mut y);
                prop_assert!(
                    y == reference,
                    "{format} variant {v} not bitwise on {}x{} nnz={}",
                    m.rows(), m.cols(), m.nnz()
                );
            }
        }
    }
}
