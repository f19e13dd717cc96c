//! Fault-injection suite: every failure mode the tuning pipeline is
//! supposed to absorb, injected deliberately. The common contract under
//! test is *graceful degradation* — a poisoned input, a sabotaged
//! kernel, a tripped resource budget, or a corrupt artifact must yield
//! a usable (possibly untuned) SpMV or a clean error, never a panic or
//! a silently wrong tuned result.

use smat::{DecisionPath, Installation, Smat, SmatConfig, SmatError, Trainer};
use smat_kernels::{KernelLibrary, StrategySet};
use smat_matrix::gen::{fixed_degree, generate_corpus, random_uniform, tridiagonal, CorpusSpec};
use smat_matrix::io::read_matrix_market;
use smat_matrix::utils::max_abs_diff;
use smat_matrix::{AnyMatrix, Csr, Format, MatrixError};

fn train_engine_with(seed: u64, config: SmatConfig) -> Smat<f64> {
    let corpus = generate_corpus::<f64>(&CorpusSpec::small(120, seed));
    let matrices: Vec<&Csr<f64>> = corpus.iter().map(|e| &e.matrix).collect();
    let out = Trainer::new(SmatConfig::fast())
        .train(&matrices)
        .expect("training succeeds");
    Smat::with_config(out.model, config).expect("precision matches")
}

/// Degraded SpMV must equal the reference CSR result bit-for-bit (the
/// degraded path IS the reference kernel).
fn assert_usable(engine: &Smat<f64>, tuned: &smat::TunedSpmv<f64>, m: &Csr<f64>) {
    let x: Vec<f64> = (0..m.cols())
        .map(|i| 0.25 * ((i % 7) as f64) - 1.0)
        .collect();
    let mut y = vec![0.0; m.rows()];
    engine.spmv(tuned, &x, &mut y).expect("degraded SpMV runs");
    let mut expect = vec![0.0; m.rows()];
    m.spmv(&x, &mut expect).expect("reference SpMV runs");
    assert!(
        max_abs_diff(&y, &expect) < 1e-12,
        "degraded result diverges from reference"
    );
}

#[test]
fn nan_matrix_degrades_to_usable_reference_spmv() {
    let engine = train_engine_with(1, SmatConfig::fast());
    let mut m = tridiagonal::<f64>(400);
    m.values_mut()[11] = f64::NAN;
    let tuned = engine.prepare(&m);
    assert!(tuned.decision().is_degraded());
    assert_eq!(tuned.format(), Format::Csr);
    // Still runs end to end (NaN propagates arithmetically, no panic).
    let x = vec![1.0; 400];
    let mut y = vec![0.0; 400];
    engine.spmv(&tuned, &x, &mut y).unwrap();
    assert!(
        y.iter().any(|v| v.is_nan()),
        "poison must propagate, not vanish"
    );
}

#[test]
fn inf_matrix_degrades_and_reports_the_location() {
    let engine = train_engine_with(2, SmatConfig::fast());
    let mut m = random_uniform::<f64>(200, 200, 5, 3);
    m.values_mut()[0] = f64::NEG_INFINITY;
    let tuned = engine.prepare(&m);
    match tuned.decision() {
        DecisionPath::Degraded { reason } => {
            assert!(reason.contains("non-finite"), "reason: {reason}");
        }
        other => panic!("expected Degraded, got {other:?}"),
    }
}

#[test]
fn panicking_registered_kernel_prunes_the_candidate() {
    // Sabotage COO: the fallback then selects among the survivors.
    fn bad_coo(_: &AnyMatrix<f64>, _: &[f64], _: &mut [f64]) {
        panic!("injected COO fault");
    }
    let bad_variant = KernelLibrary::<f64>::new().variant_count(Format::Coo);
    let cfg = SmatConfig {
        confidence_threshold: 1.1, // force execute-and-measure
        ..SmatConfig::fast()
    };
    let engine = train_engine_with(3, cfg);
    let mut model = engine.model().clone();
    model.kernel_choice.set(Format::Coo, bad_variant);
    let mut engine =
        Smat::<f64>::with_config(model, engine.config().clone()).expect("precision matches");
    engine.library_mut().register(
        Format::Coo,
        "coo_injected_fault",
        StrategySet::default(),
        bad_coo,
    );
    let m = random_uniform::<f64>(300, 300, 6, 5);
    let tuned = engine.prepare(&m);
    match tuned.decision() {
        DecisionPath::Measured {
            candidates,
            failures,
        } => {
            assert!(
                candidates.iter().all(|&(f, _)| f != Format::Coo),
                "a panicking candidate must never be selectable"
            );
            assert!(
                failures
                    .iter()
                    .any(|(f, why)| *f == Format::Coo && why.contains("panicked")),
                "failures: {failures:?}"
            );
        }
        other => panic!("expected Measured with COO pruned, got {other:?}"),
    }
    assert_usable(&engine, &tuned, &m);
}

#[test]
fn all_candidates_panicking_degrades_not_aborts() {
    fn bad_csr(_: &AnyMatrix<f64>, _: &[f64], _: &mut [f64]) {
        panic!("injected CSR fault");
    }
    let bad_variant = KernelLibrary::<f64>::new().variant_count(Format::Csr);
    let cfg = SmatConfig {
        confidence_threshold: 1.1,
        fallback_formats: vec![Format::Csr], // single candidate, sabotaged
        ..SmatConfig::fast()
    };
    let engine = train_engine_with(4, cfg);
    let mut model = engine.model().clone();
    model.kernel_choice.set(Format::Csr, bad_variant);
    // No rule groups: a low-confidence rule match would join the
    // candidate set, and CSR must be the *only* candidate here.
    model.groups.groups.clear();
    let mut engine =
        Smat::<f64>::with_config(model, engine.config().clone()).expect("precision matches");
    engine.library_mut().register(
        Format::Csr,
        "csr_injected_fault",
        StrategySet::default(),
        bad_csr,
    );
    let m = random_uniform::<f64>(250, 250, 5, 7);
    let tuned = engine.prepare(&m);
    assert!(tuned.decision().is_degraded());
    assert_usable(&engine, &tuned, &m);
}

#[test]
fn ell_slab_over_the_byte_budget_is_pruned() {
    // Sixteen entries in every row: ELL's fill is exactly 1.0, so the
    // fill cap cannot be what refuses it, but the 4096 × 16 slab (values
    // plus column indices, 1 MiB) is far above a 64 KiB budget.
    let m = fixed_degree::<f64>(4096, 4096, 16, 0, 17);
    let cfg = SmatConfig {
        confidence_threshold: 1.1,
        conversion_budget_bytes: Some(64 * 1024),
        fallback_formats: vec![Format::Csr, Format::Coo, Format::Ell],
        ..SmatConfig::fast()
    };
    let engine = train_engine_with(5, cfg);
    let tuned = engine.prepare(&m);
    match tuned.decision() {
        DecisionPath::Measured {
            candidates,
            failures,
        } => {
            assert!(candidates.iter().any(|&(f, _)| f == Format::Csr));
            assert!(
                failures
                    .iter()
                    .any(|(f, why)| *f == Format::Ell && why.contains("budget")),
                "failures: {failures:?}"
            );
        }
        other => panic!("expected Measured with ELL pruned, got {other:?}"),
    }
    assert_ne!(tuned.format(), Format::Ell);
    assert_usable(&engine, &tuned, &m);
}

#[test]
fn truncated_and_garbage_mtx_files_error_cleanly() {
    // Garbage header.
    let err = read_matrix_market::<f64, _>("not a matrix market file".as_bytes()).unwrap_err();
    assert!(matches!(err, MatrixError::Parse { .. }), "got {err:?}");
    // Truncated entry list: header promises 3 entries, file holds 1.
    let truncated = "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1.0\n";
    let err = read_matrix_market::<f64, _>(truncated.as_bytes()).unwrap_err();
    assert!(matches!(err, MatrixError::Parse { .. }), "got {err:?}");
    // Garbage numeric payload.
    let garbage = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 banana\n";
    let err = read_matrix_market::<f64, _>(garbage.as_bytes()).unwrap_err();
    assert!(matches!(err, MatrixError::Parse { .. }), "got {err:?}");
}

#[test]
fn corrupt_install_artifact_is_rejected_then_regenerated() {
    let dir = std::env::temp_dir().join("smat_fault_injection");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("install_corrupt.json");
    std::fs::remove_file(&path).ok();

    let cfg = SmatConfig::fast();
    let install = Installation::run::<f64>(&cfg);
    install.save(&path).unwrap();
    assert!(Installation::load(&path).is_ok());

    // Bit-flip inside the payload (keeping the JSON parsable): nudge the
    // recorded probe dimension by one digit.
    let text = std::fs::read_to_string(&path).unwrap();
    let idx = text
        .find("\"probe_dim\"")
        .expect("payload carries probe_dim");
    let digit = text[idx..]
        .find(|c: char| c.is_ascii_digit())
        .map(|off| idx + off)
        .expect("a digit follows");
    let mut bytes = text.clone().into_bytes();
    bytes[digit] = if bytes[digit] == b'9' {
        b'1'
    } else {
        bytes[digit] + 1
    };
    let tampered = String::from_utf8(bytes).unwrap();
    assert_ne!(text, tampered);
    std::fs::write(&path, &tampered).unwrap();

    let err = Installation::load(&path).unwrap_err();
    assert!(matches!(err, SmatError::Corrupt { .. }), "got {err:?}");
    assert!(err.to_string().contains("checksum"), "got: {err}");

    // An engine pointed at the corrupt artifact regenerates it and
    // still prepares matrices normally.
    let engine_cfg = SmatConfig {
        install_path: Some(path.clone()),
        ..SmatConfig::fast()
    };
    let engine = train_engine_with(6, engine_cfg);
    assert!(
        !engine.installation_from_disk(),
        "corrupt artifact must not be adopted"
    );
    let m = tridiagonal::<f64>(300);
    let tuned = engine.prepare(&m);
    assert!(!tuned.decision().is_degraded());
    assert_usable(&engine, &tuned, &m);
    // The regenerated file verifies again.
    assert!(Installation::load(&path).is_ok());
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_install_artifact_regenerates() {
    let dir = std::env::temp_dir().join("smat_fault_injection");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("install_truncated.json");
    std::fs::remove_file(&path).ok();
    Installation::run::<f64>(&SmatConfig::fast())
        .save(&path)
        .unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() / 2]).unwrap();
    assert!(Installation::load(&path).is_err());
    let (fresh, from_disk) = Installation::load_or_run::<f64>(&path, &SmatConfig::fast()).unwrap();
    assert!(!from_disk);
    assert_eq!(fresh.precision, "double");
    assert!(Installation::load(&path).is_ok());
    std::fs::remove_file(&path).ok();
}

#[test]
fn degraded_decisions_never_poison_the_cache() {
    let engine = train_engine_with(7, SmatConfig::fast());
    let mut poisoned = tridiagonal::<f64>(350);
    poisoned.values_mut()[5] = f64::INFINITY;
    let healthy = tridiagonal::<f64>(350); // same structure, clean values
    assert!(engine.prepare(&poisoned).decision().is_degraded());
    let tuned = engine.prepare(&healthy);
    assert!(
        !tuned.decision().is_cached(),
        "a degraded decision must not be replayed"
    );
    assert!(!tuned.decision().is_degraded());
    // And the healthy decision does get cached for the next call.
    assert!(engine.prepare(&healthy).decision().is_cached());
}
