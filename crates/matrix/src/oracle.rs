//! New conversions against the parent commit's: every one-pass routine
//! must build the identical struct, and refuse with the identical error,
//! as the routine it replaced (kept beside it as `*_oracle`).

use crate::gen::{
    banded, block_sparse, block_sparse_varied, fixed_degree, laplacian_1d, laplacian_2d_5pt,
    laplacian_2d_9pt, laplacian_3d_7pt, power_law, random_skewed, random_uniform, tridiagonal,
};
use crate::{Bcsr, ConversionLimits, Csr, Dia, Hyb, Result, Scalar};

/// One matrix per `gen` archetype, plus the shapes the generators never
/// produce: empty, rectangular both ways, a row count no block height
/// divides, one dense row, a single column.
fn matrices<T: Scalar>() -> Vec<Csr<T>> {
    let dense_row: Vec<(usize, usize, T)> = (0..97)
        .map(|c| (5, c, T::ONE))
        .chain((0..41).map(|r| (r, (r * 7) % 97, T::ONE + T::ONE)))
        .collect();
    vec![
        banded(300, &[-17, -1, 0, 1, 17], 0.8, 1),
        tridiagonal(257),
        block_sparse(96, 4, 3, 2),
        block_sparse_varied(120, 2, 5, 3),
        power_law(400, 80, 2.0, 4),
        random_uniform(211, 190, 6, 5),
        fixed_degree(150, 40, 5, 2, 6),
        random_skewed(301, 299, 6, 0.05, 12, 7),
        laplacian_1d(64),
        laplacian_2d_5pt(13, 11),
        laplacian_2d_9pt(12, 12),
        laplacian_3d_7pt(5, 6, 7),
        Csr::from_triplets(7, 5, &[]).expect("empty"),
        Csr::from_triplets(0, 0, &[]).expect("no rows"),
        Csr::from_triplets(3, 90, &[(0, 89, T::ONE), (2, 0, T::ONE), (2, 44, T::ONE)])
            .expect("wide"),
        Csr::from_triplets(90, 1, &[(0, 0, T::ONE), (89, 0, T::ONE)]).expect("tall"),
        Csr::from_triplets(41, 97, &dense_row).expect("dense row"),
    ]
}

/// Default, unlimited, a byte budget most conversions exceed, and fill
/// caps most conversions exceed.
fn limit_sets() -> [ConversionLimits; 4] {
    [
        ConversionLimits::default(),
        ConversionLimits::unlimited(),
        ConversionLimits {
            budget_bytes: Some(6_000),
            ..ConversionLimits::unlimited()
        },
        ConversionLimits {
            dia_fill_limit: 2,
            ell_fill_limit: 2,
            bcsr_fill_limit: 2,
            budget_bytes: None,
        },
    ]
}

/// `Ok` structs compare whole; refusals compare by their `Debug`
/// rendering (variant, format label and every number).
fn same<M: PartialEq + std::fmt::Debug>(new: Result<M>, old: Result<M>, what: &str) {
    match (new, old) {
        (Ok(new), Ok(old)) => assert!(new == old, "{what}: structs differ"),
        (new, old) => assert_eq!(
            format!("{:?}", new.err()),
            format!("{:?}", old.err()),
            "{what}"
        ),
    }
}

fn conversions_equal_the_parents<T: Scalar>() {
    let (mut built, mut refused) = (0, 0);
    for (i, m) in matrices::<T>().iter().enumerate() {
        for (l, limits) in limit_sets().iter().enumerate() {
            let what = |f: &str| format!("{f}, matrix {i}, limits {l}, {}", T::PRECISION_NAME);
            let hyb = Hyb::from_csr_with(m, limits);
            if hyb.is_ok() {
                built += 1;
            } else {
                refused += 1;
            }
            same(hyb, Hyb::from_csr_with_oracle(m, limits), &what("hyb"));
            same(
                Dia::from_csr_with(m, limits),
                Dia::from_csr_with_oracle(m, limits),
                &what("dia"),
            );
            for (br, bc) in [(2, 2), (4, 4), (3, 2), (1, 8), (8, 1)] {
                same(
                    Bcsr::from_csr_with(m, br, bc, limits),
                    Bcsr::from_csr_with_oracle(m, br, bc, limits),
                    &what(&format!("bcsr {br}x{bc}")),
                );
            }
        }
        // Explicit HYB widths: all spill, one slot, wider than any row.
        for width in [0, 1, 3, 1_000] {
            assert!(
                Hyb::from_csr_with_width(m, width) == Hyb::from_csr_with_width_oracle(m, width),
                "hyb width {width}, matrix {i}"
            );
        }
    }
    assert!(built > 0 && refused > 0, "both outcomes must be exercised");
}

#[test]
fn conversions_equal_the_parents_f64() {
    conversions_equal_the_parents::<f64>();
}

#[test]
fn conversions_equal_the_parents_f32() {
    conversions_equal_the_parents::<f32>();
}

/// The fill caps and the byte budget must each refuse something in
/// every format, or the refusal comparison above is vacuous.
#[test]
fn every_format_meets_both_refusals() {
    use crate::MatrixError::{BudgetExceeded, ConversionTooExpensive};
    let [_, _, tight_budget, tight_fill] = limit_sets();
    let scatter = random_uniform::<f64>(211, 190, 6, 5);
    assert!(matches!(
        Dia::from_csr_with(&scatter, &tight_fill),
        Err(ConversionTooExpensive { format: "DIA", .. })
    ));
    assert!(matches!(
        Bcsr::from_csr_with(&scatter, 4, 4, &tight_fill),
        Err(ConversionTooExpensive {
            format: "BCSR4",
            ..
        })
    ));
    assert!(matches!(
        Dia::from_csr_with(&scatter, &tight_budget),
        Err(BudgetExceeded { format: "DIA", .. })
    ));
    assert!(matches!(
        Bcsr::from_csr_with(&scatter, 2, 2, &tight_budget),
        Err(BudgetExceeded {
            format: "BCSR2",
            ..
        })
    ));
    assert!(matches!(
        Hyb::from_csr_with(&scatter, &tight_budget),
        Err(BudgetExceeded { format: "HYB", .. })
    ));
}
