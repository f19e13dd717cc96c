//! Model persistence: the off-line stage runs once and its artifact is
//! reused across processes (the paper's "reusability" property).

use smat::{Smat, SmatConfig, TrainedModel, Trainer};
use smat_matrix::gen::{generate_corpus, random_uniform, tridiagonal, CorpusSpec};
use smat_matrix::Csr;

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("smat_persistence_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Held by every test that saves or loads an artifact. With
/// `--features failpoints` the registry is process-global and the
/// `failpoint_schedules` module scripts the sites every save passes
/// (`persist.write`, `persist.rename`, ...), so a save in a test running
/// beside it would fail on a schedule it never wrote: such tests
/// serialize through this lock and start from a clean registry. Without
/// the feature nothing can be scripted and the guard is empty.
struct ArtifactGuard {
    #[cfg(feature = "failpoints")]
    _held: std::sync::MutexGuard<'static, ()>,
}

fn exclusive_artifacts() -> ArtifactGuard {
    #[cfg(feature = "failpoints")]
    {
        use std::sync::{Mutex, PoisonError};
        static FAILPOINTS: Mutex<()> = Mutex::new(());
        let _held = FAILPOINTS.lock().unwrap_or_else(PoisonError::into_inner);
        smat_failpoints::reset();
        ArtifactGuard { _held }
    }
    #[cfg(not(feature = "failpoints"))]
    ArtifactGuard {}
}

#[test]
fn model_round_trips_through_json() {
    let _serial = exclusive_artifacts();
    let corpus = generate_corpus::<f64>(&CorpusSpec::small(100, 31));
    let matrices: Vec<&Csr<f64>> = corpus.iter().map(|e| &e.matrix).collect();
    let out = Trainer::new(SmatConfig::fast()).train(&matrices).unwrap();

    let path = temp_path("model_roundtrip.json");
    out.model.save(&path).unwrap();
    let loaded = TrainedModel::load(&path).unwrap();
    assert_eq!(loaded, out.model);
    std::fs::remove_file(&path).ok();
}

#[test]
fn reloaded_model_makes_identical_decisions() {
    let _serial = exclusive_artifacts();
    let corpus = generate_corpus::<f64>(&CorpusSpec::small(100, 32));
    let matrices: Vec<&Csr<f64>> = corpus.iter().map(|e| &e.matrix).collect();
    let out = Trainer::new(SmatConfig::fast()).train(&matrices).unwrap();

    let path = temp_path("model_decisions.json");
    out.model.save(&path).unwrap();
    let loaded = TrainedModel::load(&path).unwrap();

    let e1 = Smat::<f64>::with_config(out.model, SmatConfig::fast()).unwrap();
    let e2 = Smat::<f64>::with_config(loaded, SmatConfig::fast()).unwrap();

    // Rule-based decisions must be identical (measured fallbacks may
    // time differently, so compare on a matrix the rules should catch,
    // and otherwise compare the *predicted* formats).
    let m = tridiagonal::<f64>(4_000);
    let f = smat_features::extract_features(&m);
    let d1 = e1.model().predict(&f);
    let d2 = e2.model().predict(&f);
    assert_eq!(d1.format, d2.format);
    assert_eq!(d1.confidence, d2.confidence);
    assert_eq!(d1.matched, d2.matched);
    std::fs::remove_file(&path).ok();
}

/// The rules steer every decision, so the model file is sealed like the
/// other artifacts: edited after `save` — still valid JSON, the class
/// every unmatched matrix gets changed — it is refused, not loaded.
/// (The default class, not a rule threshold: the labels are measured
/// live, and under load a training run can end with no rule at all.)
#[test]
fn tampered_model_is_rejected_as_corrupt() {
    let _serial = exclusive_artifacts();
    let corpus = generate_corpus::<f64>(&CorpusSpec::small(100, 41));
    let matrices: Vec<&Csr<f64>> = corpus.iter().map(|e| &e.matrix).collect();
    let out = Trainer::new(SmatConfig::fast()).train(&matrices).unwrap();

    let path = temp_path("model_tampered.json");
    out.model.save(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let field = "\"default_class\": ";
    let at = text.find(field).expect("a ruleset names its default") + field.len();
    let end = at
        + text[at..]
            .find([',', '\n'])
            .expect("pretty JSON: one field a line");
    let class: usize = text[at..end].parse().expect("a class index");
    let tampered = format!("{}{}{}", &text[..at], (class + 1) % 7, &text[end..]);
    assert_ne!(text, tampered);
    std::fs::write(&path, tampered).unwrap();

    let err = TrainedModel::load(&path).unwrap_err();
    assert!(
        matches!(err, smat::SmatError::Corrupt { .. }),
        "got {err:?}"
    );
    assert!(err.to_string().contains("checksum mismatch"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn installation_round_trips_through_the_engine() {
    let _serial = exclusive_artifacts();
    let corpus = generate_corpus::<f64>(&CorpusSpec::small(100, 35));
    let matrices: Vec<&Csr<f64>> = corpus.iter().map(|e| &e.matrix).collect();
    let out = Trainer::new(SmatConfig::fast()).train(&matrices).unwrap();

    let path = temp_path("installation_roundtrip.json");
    std::fs::remove_file(&path).ok();
    let cfg = SmatConfig {
        install_path: Some(path.clone()),
        ..SmatConfig::fast()
    };

    // First engine: no file yet, so it runs the kernel search and
    // persists the table.
    let e1 = Smat::<f64>::with_config(out.model.clone(), cfg.clone()).unwrap();
    assert!(!e1.installation_from_disk());
    assert!(path.exists(), "installation must be persisted");
    let searched = e1.installation().unwrap().clone();

    // Second engine (a fresh "process"): reloads the identical choice
    // instead of re-searching.
    let e2 = Smat::<f64>::with_config(out.model.clone(), cfg).unwrap();
    assert!(e2.installation_from_disk());
    assert_eq!(e2.installation().unwrap(), &searched);
    assert_eq!(
        e2.model().kernel_choice,
        searched.kernel_choice,
        "the engine adopts the installed kernel choice"
    );
    assert_eq!(e1.model().kernel_choice, e2.model().kernel_choice);

    // The standalone loader agrees too.
    let direct = smat::Installation::load(&path).unwrap();
    assert_eq!(direct.kernel_choice, searched.kernel_choice);
    assert_eq!(direct.precision, "double");

    // An explicit preloaded installation takes the no-disk path.
    let e3 = Smat::<f64>::with_installation(out.model, SmatConfig::fast(), direct).unwrap();
    assert_eq!(e3.model().kernel_choice, searched.kernel_choice);
    std::fs::remove_file(&path).ok();
}

#[test]
fn installation_round_trips_with_a_quarantine_set() {
    let _serial = exclusive_artifacts();
    use smat_kernels::KernelId;
    use smat_matrix::Format;

    let mut install = smat::Installation::run::<f64>(&SmatConfig::fast());
    let benched = KernelId {
        op: smat_kernels::Op::Spmv,
        format: Format::Csr,
        variant: 1,
    };
    install.quarantined = vec![benched];
    let path = temp_path("installation_quarantine.json");
    install.save(&path).unwrap();
    let back = smat::Installation::load(&path).unwrap();
    assert_eq!(back, install);
    assert_eq!(back.quarantined, vec![benched]);

    // An engine adopting the artifact starts with the variant benched.
    let corpus = generate_corpus::<f64>(&CorpusSpec::small(100, 38));
    let matrices: Vec<&Csr<f64>> = corpus.iter().map(|e| &e.matrix).collect();
    let out = Trainer::new(SmatConfig::fast()).train(&matrices).unwrap();
    let engine = Smat::<f64>::with_installation(out.model, SmatConfig::fast(), back).unwrap();
    let report = engine.health_report();
    assert_eq!(report.quarantined_variants.len(), 1);
    assert_eq!(report.quarantined_variants[0].kernel, benched);
    assert_eq!(
        report.quarantined_variants[0].state,
        smat::BreakerState::Open
    );
    std::fs::remove_file(&path).ok();
}

/// A schema-3 artifact predates the `quarantined` field. The vendored
/// serde has no `#[serde(default)]`, so such a file fails
/// deserialization outright and `load_or_run` regenerates it at the
/// current schema instead of trusting a quarantine-blind table.
#[test]
fn schema_3_artifact_missing_the_quarantine_field_regenerates() {
    let _serial = exclusive_artifacts();
    let path = temp_path("installation_schema3.json");
    std::fs::remove_file(&path).ok();
    let cfg = SmatConfig::fast();
    let install = smat::Installation::run::<f64>(&cfg);
    install.save(&path).unwrap();

    // Rewrite the sealed file as its schema-3 ancestor: version stamp
    // rolled back, `quarantined` field absent (it is the payload's last
    // field, rendered inline as an empty array at two-space indent).
    let text = std::fs::read_to_string(&path).unwrap();
    let surgically = text
        .replacen(
            &format!("\"schema\": {}", smat::INSTALL_SCHEMA_VERSION),
            "\"schema\": 3",
            1,
        )
        .replacen(",\n    \"quarantined\": []", "", 1);
    assert_ne!(text, surgically, "both surgery targets must exist");
    assert!(!surgically.contains("quarantined"));
    std::fs::write(&path, surgically).unwrap();

    assert!(
        smat::Installation::load(&path).is_err(),
        "a quarantine-less artifact must fail deserialization"
    );
    let (fresh, from_disk) = smat::Installation::load_or_run::<f64>(&path, &cfg).unwrap();
    assert!(!from_disk, "the schema-3 artifact must regenerate");
    assert_eq!(fresh.schema, smat::INSTALL_SCHEMA_VERSION);
    assert!(fresh.quarantined.is_empty());
    assert_eq!(
        smat::Installation::load(&path).unwrap().schema,
        smat::INSTALL_SCHEMA_VERSION,
        "the regenerated artifact replaces the stale file"
    );
    std::fs::remove_file(&path).ok();
}

/// Persisted state addresses kernels by raw variant index, which only
/// means something against the tables it was recorded on. An artifact
/// resealed (valid checksum, current schema) under another library
/// digest — what a build with a row added or deleted would have
/// written — is refused by every door, never replayed.
#[test]
fn artifact_from_a_different_kernel_library_is_refused() {
    let _serial = exclusive_artifacts();
    let corpus = generate_corpus::<f64>(&CorpusSpec::small(100, 39));
    let matrices: Vec<&Csr<f64>> = corpus.iter().map(|e| &e.matrix).collect();
    let out = Trainer::new(SmatConfig::fast()).train(&matrices).unwrap();
    let path = temp_path("installation_foreign_digest.json");
    let cfg = SmatConfig {
        install_path: Some(path.clone()),
        ..SmatConfig::fast()
    };
    let live = smat_kernels::KernelLibrary::<f64>::new().digest();
    let mut foreign = smat::Installation::run::<f64>(&cfg);
    assert_eq!(foreign.library_digest, live);
    foreign.library_digest ^= 1;
    foreign.save(&path).unwrap();
    assert_eq!(
        smat::Installation::load(&path).unwrap(),
        foreign,
        "resealed: the checksum and schema checks pass"
    );

    // The engine regenerates instead of adopting it...
    let engine = Smat::<f64>::with_config(out.model.clone(), cfg).unwrap();
    assert!(!engine.installation_from_disk());
    assert_eq!(engine.installation().unwrap().library_digest, live);
    assert_eq!(
        smat::Installation::load(&path).unwrap().library_digest,
        live
    );
    // ...and handing it over explicitly is an error with a taxonomy.
    let err = Smat::<f64>::with_installation(out.model, SmatConfig::fast(), foreign).unwrap_err();
    assert_eq!(err.taxonomy(), "corrupt", "got {err}");
    assert!(err.to_string().contains("kernel library digest"), "{err}");
    std::fs::remove_file(&path).ok();
}

/// The cache-snapshot twin: an engine whose library grew a row seals
/// its snapshot under its own digest; a stock engine absorbs nothing
/// from it and tunes afresh.
#[test]
fn cache_snapshot_from_a_different_kernel_library_is_refused() {
    let _serial = exclusive_artifacts();
    let corpus = generate_corpus::<f64>(&CorpusSpec::small(100, 40));
    let matrices: Vec<&Csr<f64>> = corpus.iter().map(|e| &e.matrix).collect();
    let out = Trainer::new(SmatConfig::fast()).train(&matrices).unwrap();
    let m = random_uniform::<f64>(260, 260, 6, 23);

    let mut grown = Smat::<f64>::with_config(out.model.clone(), SmatConfig::fast()).unwrap();
    grown.library_mut().register(
        smat_matrix::Format::Csr,
        "csr_extra",
        smat_kernels::StrategySet::default(),
        |m, x, y| m.spmv(x, y).expect("sized vectors"),
    );
    grown.prepare(&m);
    let path = temp_path("cache_snapshot_foreign_digest.json");
    assert_eq!(grown.save_cache(&path).unwrap(), 1);
    assert_eq!(grown.load_cache(&path).unwrap(), 1, "its own digest loads");

    let stock = Smat::<f64>::with_config(out.model, SmatConfig::fast()).unwrap();
    let err = stock.load_cache(&path).unwrap_err();
    assert_eq!(err.taxonomy(), "corrupt", "got {err}");
    assert!(err.to_string().contains("kernel library digest"), "{err}");
    assert_eq!(stock.cache_stats().entries, 0, "nothing was absorbed");
    assert!(!stock.prepare(&m).decision().is_cached());
    std::fs::remove_file(&path).ok();
}

/// The snapshot's keys are fingerprints, and a fingerprint means
/// something only under the algorithm that computed it. A snapshot
/// sealed by the build before the lane-parallel fingerprint — stamped
/// with the bare kernel-library digest, checksum valid — is refused as
/// stale rather than absorbed as entries no matrix will ever hit.
#[test]
fn cache_snapshot_under_the_previous_fingerprint_stamp_is_refused() {
    let _serial = exclusive_artifacts();
    let corpus = generate_corpus::<f64>(&CorpusSpec::small(100, 41));
    let matrices: Vec<&Csr<f64>> = corpus.iter().map(|e| &e.matrix).collect();
    let out = Trainer::new(SmatConfig::fast()).train(&matrices).unwrap();
    let m = random_uniform::<f64>(240, 240, 5, 29);
    let engine = Smat::<f64>::with_config(out.model.clone(), SmatConfig::fast()).unwrap();
    engine.prepare(&m);
    let path = temp_path("cache_snapshot_previous_stamp.json");
    assert_eq!(engine.save_cache(&path).unwrap(), 1);

    // Reseal under the parent's stamp. The envelope is pretty JSON
    // `{"checksum": C, "payload": P}`; C is FNV-1a over P rendered
    // compactly, which is P's pretty text minus its whitespace (no
    // string in a snapshot contains any).
    let live = smat_kernels::KernelLibrary::<f64>::new().digest();
    let stamp = live ^ smat_matrix::StructuralFingerprint::ALGORITHM;
    let text = std::fs::read_to_string(&path).unwrap();
    let stale = text.replacen(
        &format!("\"library_digest\": {stamp}"),
        &format!("\"library_digest\": {live}"),
        1,
    );
    assert_ne!(text, stale, "the snapshot carries the folded stamp");
    let payload_at = stale.find("\"payload\": ").unwrap() + "\"payload\": ".len();
    let payload = &stale[payload_at..stale.rfind('}').unwrap()];
    let compact: String = payload.chars().filter(|c| !c.is_whitespace()).collect();
    let checksum = compact.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let checksum_at = stale.find("\"checksum\": ").unwrap() + "\"checksum\": ".len();
    let checksum_end = checksum_at + stale[checksum_at..].find(',').unwrap();
    let resealed = format!(
        "{}{checksum}{}",
        &stale[..checksum_at],
        &stale[checksum_end..]
    );
    std::fs::write(&path, resealed).unwrap();

    let fresh = Smat::<f64>::with_config(out.model, SmatConfig::fast()).unwrap();
    let err = fresh.load_cache(&path).unwrap_err();
    assert_eq!(err.taxonomy(), "corrupt", "got {err}");
    assert!(
        err.to_string().contains("kernel library digest"),
        "the stale-stamp refusal, not a checksum mismatch: {err}"
    );
    assert_eq!(fresh.cache_stats().entries, 0, "nothing was absorbed");
    std::fs::remove_file(&path).ok();
}

#[test]
fn model_json_is_human_inspectable() {
    let _serial = exclusive_artifacts();
    let corpus = generate_corpus::<f64>(&CorpusSpec::small(80, 33));
    let matrices: Vec<&Csr<f64>> = corpus.iter().map(|e| &e.matrix).collect();
    let out = Trainer::new(SmatConfig::fast()).train(&matrices).unwrap();

    let path = temp_path("model_inspect.json");
    out.model.save(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    // The serialized model names the attributes and classes it rules on.
    assert!(text.contains("NTdiags_ratio") || text.contains("attributes"));
    assert!(text.contains("DIA"));
    assert!(text.contains("kernel_choice"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn cache_snapshot_round_trips_between_engines() {
    let _serial = exclusive_artifacts();
    let corpus = generate_corpus::<f64>(&CorpusSpec::small(100, 36));
    let matrices: Vec<&Csr<f64>> = corpus.iter().map(|e| &e.matrix).collect();
    let out = Trainer::new(SmatConfig::fast()).train(&matrices).unwrap();

    let m1 = tridiagonal::<f64>(320);
    let m2 = random_uniform::<f64>(280, 280, 7, 19);
    let e1 = Smat::<f64>::with_config(out.model.clone(), SmatConfig::fast()).unwrap();
    e1.prepare(&m1);
    e1.prepare(&m2);

    let path = temp_path("cache_snapshot_roundtrip.json");
    assert_eq!(e1.save_cache(&path).unwrap(), 2);

    // A fresh engine (a new "process" with the same model) warm-starts
    // from the snapshot: both structures replay as cache hits and the
    // replayed decisions still compute correct products.
    let e2 = Smat::<f64>::with_config(out.model, SmatConfig::fast()).unwrap();
    assert_eq!(e2.load_cache(&path).unwrap(), 2);
    for m in [&m1, &m2] {
        let tuned = e2.prepare(m);
        assert!(tuned.decision().is_cached(), "got {:?}", tuned.decision());
        let x = vec![1.0; m.cols()];
        let mut y = vec![0.0; m.rows()];
        e2.spmv(&tuned, &x, &mut y).unwrap();
        let mut expect = vec![0.0; m.rows()];
        m.spmv(&x, &mut expect).unwrap();
        assert!(
            smat_matrix::utils::max_abs_diff(&y, &expect) < 1e-10,
            "warm-started decision computes a wrong product"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// Failpoint schedules over every persistence site must never leave a
/// *torn* artifact: after any scripted sequence of write/rename/save
/// failures, the file on disk is either absent or loads (checksum and
/// all), and no `.tmp` sibling survives a failed save. Requires
/// `--features failpoints`.
#[cfg(feature = "failpoints")]
mod failpoint_schedules {
    use super::*;
    use proptest::prelude::*;
    use smat::Installation;
    use std::sync::OnceLock;

    /// One kernel search shared across every proptest case. Carries a
    /// non-empty quarantine set so every torn-artifact case also
    /// exercises the schema-4 field.
    fn installation() -> &'static Installation {
        static INSTALL: OnceLock<Installation> = OnceLock::new();
        INSTALL.get_or_init(|| {
            let mut install = Installation::run::<f64>(&SmatConfig::fast());
            install.quarantined = vec![smat_kernels::KernelId {
                op: smat_kernels::Op::Spmv,
                format: smat_matrix::Format::Csr,
                variant: 1,
            }];
            install
        })
    }

    /// One trained engine with two resident cache entries, shared
    /// across every proptest case.
    fn engine() -> &'static Smat<f64> {
        static ENGINE: OnceLock<Smat<f64>> = OnceLock::new();
        ENGINE.get_or_init(|| {
            let corpus = generate_corpus::<f64>(&CorpusSpec::small(100, 37));
            let matrices: Vec<&Csr<f64>> = corpus.iter().map(|e| &e.matrix).collect();
            let out = Trainer::new(SmatConfig::fast()).train(&matrices).unwrap();
            let e = Smat::<f64>::with_config(out.model, SmatConfig::fast()).unwrap();
            e.prepare(&tridiagonal::<f64>(180));
            e.prepare(&random_uniform::<f64>(220, 220, 6, 23));
            e
        })
    }

    /// A random finite schedule: 1–3 steps of `fail`/`off`/`delay(1)`
    /// with small repeat counts, e.g. `2*fail->1*off->1*delay(1)`.
    /// Finite schedules exhaust to `off`, so every case also exercises
    /// the recovery path.
    fn arb_spec() -> impl Strategy<Value = String> {
        proptest::collection::vec((1u64..3, 0usize..3), 1..4).prop_map(|steps| {
            steps
                .into_iter()
                .map(|(n, action)| {
                    let action = ["fail", "off", "delay(1)"][action];
                    format!("{n}*{action}")
                })
                .collect::<Vec<_>>()
                .join("->")
        })
    }

    fn tmp_sibling(path: &std::path::Path) -> std::path::PathBuf {
        let mut s = path.as_os_str().to_owned();
        s.push(".tmp");
        std::path::PathBuf::from(s)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn install_artifacts_are_absent_or_valid_never_torn(
            (w1, r1, s1) in (arb_spec(), arb_spec(), arb_spec()),
            (w2, r2, s2) in (arb_spec(), arb_spec(), arb_spec()),
        ) {
            let _serial = exclusive_artifacts();
            let path = temp_path("fp_install_prop.json");
            std::fs::remove_file(&path).ok();
            let install = installation();

            // Fresh path: a chaos-scripted save either lands a fully
            // valid artifact or leaves nothing.
            {
                let _g1 = smat_failpoints::scoped("persist.write", &w1).unwrap();
                let _g2 = smat_failpoints::scoped("persist.rename", &r1).unwrap();
                let _g3 = smat_failpoints::scoped("install.save", &s1).unwrap();
                let _ = install.save(&path);
            }
            if path.exists() {
                prop_assert!(Installation::load(&path).is_ok(), "torn artifact");
            }
            prop_assert!(!tmp_sibling(&path).exists(), "leaked tmp file");

            // Overwrite path: with a valid artifact on disk, a failed
            // re-save must never destroy it (the rename is atomic).
            install.save(&path).unwrap();
            {
                let _g1 = smat_failpoints::scoped("persist.write", &w2).unwrap();
                let _g2 = smat_failpoints::scoped("persist.rename", &r2).unwrap();
                let _g3 = smat_failpoints::scoped("install.save", &s2).unwrap();
                let _ = install.save(&path);
            }
            let survivor = Installation::load(&path);
            prop_assert!(survivor.is_ok(), "existing artifact destroyed");
            prop_assert_eq!(
                &survivor.unwrap().quarantined,
                &install.quarantined,
                "the quarantine set must survive a failed re-save"
            );
            prop_assert!(!tmp_sibling(&path).exists(), "leaked tmp file");
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn cache_snapshots_are_absent_or_valid_never_torn(
            (w, r, c) in (arb_spec(), arb_spec(), arb_spec()),
        ) {
            let _serial = exclusive_artifacts();
            let path = temp_path("fp_cache_prop.json");
            std::fs::remove_file(&path).ok();
            let e = engine();
            {
                let _g1 = smat_failpoints::scoped("persist.write", &w).unwrap();
                let _g2 = smat_failpoints::scoped("persist.rename", &r).unwrap();
                let _g3 = smat_failpoints::scoped("cache.persist", &c).unwrap();
                let _ = e.save_cache(&path);
            }
            if path.exists() {
                // Checksum and precision verification both pass: the
                // snapshot is whole.
                prop_assert!(e.load_cache(&path).is_ok(), "torn snapshot");
            }
            prop_assert!(!tmp_sibling(&path).exists(), "leaked tmp file");
            std::fs::remove_file(&path).ok();
        }
    }
}

#[test]
fn ruleset_renders_as_if_then_sentences() {
    let corpus = generate_corpus::<f64>(&CorpusSpec::small(120, 34));
    let matrices: Vec<&Csr<f64>> = corpus.iter().map(|e| &e.matrix).collect();
    let out = Trainer::new(SmatConfig::fast()).train(&matrices).unwrap();
    let rendered = out.model.ruleset.to_string();
    assert!(rendered.contains("Default:"));
    if !out.model.ruleset.is_empty() {
        assert!(rendered.contains("IF"));
        assert!(rendered.contains("THEN"));
    }
}
