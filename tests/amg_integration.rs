//! Cross-crate integration: the AMG substrate driven through SMAT, the
//! paper's §7.4 scenario.

use smat::{Smat, SmatConfig, Trainer};
use smat_amg::{AmgConfig, AmgSolver, CycleConfig};
use smat_matrix::gen::{
    generate_corpus, laplacian_2d_9pt, laplacian_3d_7pt, Archetype, CorpusSpec,
};
use smat_matrix::{Csr, Format};

fn engine() -> Smat<f64> {
    let corpus = generate_corpus::<f64>(&CorpusSpec::small(120, 21));
    let matrices: Vec<&Csr<f64>> = corpus.iter().map(|e| &e.matrix).collect();
    let out = Trainer::new(SmatConfig::fast())
        .train(&matrices)
        .expect("training succeeds");
    Smat::with_config(out.model, SmatConfig::fast()).expect("precision matches")
}

/// An engine whose rules are fitted on labels that are a pure function
/// of each corpus matrix's archetype (as the end-to-end benchmark pins
/// its model): nothing is measured, so what the rules decide for a
/// structure does not move with the load on the host.
fn archetype_engine() -> Smat<f64> {
    let corpus = generate_corpus::<f64>(&CorpusSpec::small(120, 21));
    let attributes = smat_features::ATTRIBUTE_NAMES
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut database = smat_learn::Dataset::new(attributes, smat::class_names());
    for entry in &corpus {
        let label = match entry.archetype {
            Archetype::TrueDiagonal | Archetype::Stencil => Format::Dia,
            Archetype::UniformDegree => Format::Ell,
            Archetype::LowVarianceDegree => Format::Hyb,
            Archetype::PowerLawGraph => Format::Coo,
            Archetype::BlockSparse => Format::Bcsr4,
            _ => Format::Csr,
        };
        let features = smat_features::extract_features(&entry.matrix);
        database
            .push(features.as_array().to_vec(), label.index())
            .expect("feature vectors have the schema's arity");
    }
    let model = Trainer::new(SmatConfig::fast())
        .fit::<f64>(&database, smat_kernels::KernelChoice::basic())
        .expect("fitting succeeds");
    Smat::with_config(model, SmatConfig::fast()).expect("precision matches")
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| 0.5 + ((i * 31) % 11) as f64 * 0.1).collect()
}

#[test]
fn smat_amg_converges_identically_to_plain_amg() {
    let e = engine();
    let a = laplacian_2d_9pt::<f64>(40, 40);
    let n = a.rows();
    let cfg = AmgConfig::default();
    let cycle = CycleConfig::default();
    let plain = AmgSolver::new(a.clone(), &cfg, cycle);
    let tuned = AmgSolver::with_smat(a, &cfg, cycle, &e);

    let b = rhs(n);
    let mut x1 = vec![0.0; n];
    let mut x2 = vec![0.0; n];
    let s1 = plain.solve(&b, &mut x1, 1e-9, 100);
    let s2 = tuned.solve(&b, &mut x2, 1e-9, 100);
    assert!(s1.converged && s2.converged);
    // Same hierarchy, same smoother: iteration counts match and the
    // solutions agree to solver tolerance.
    assert_eq!(s1.iterations, s2.iterations);
    let diff = x1
        .iter()
        .zip(&x2)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(diff < 1e-6, "solutions diverged by {diff}");
}

#[test]
fn rs_7pt_pipeline_matches_paper_setup() {
    // Table 4's 7-point row, scaled down: Ruge–Stüben on a 3-D 7-point
    // Laplacian, Jacobi smoothing, SMAT-tuned operators.
    let e = engine();
    let a = laplacian_3d_7pt::<f64>(14, 14, 14);
    let n = a.rows();
    let solver = AmgSolver::with_smat(a, &AmgConfig::default(), CycleConfig::default(), &e);
    assert!(solver.hierarchy().num_levels() >= 2);
    let b = rhs(n);
    let mut x = vec![0.0; n];
    let stats = solver.solve(&b, &mut x, 1e-8, 100);
    assert!(stats.converged, "residuals {:?}", stats.residuals);
}

#[test]
fn amg_setup_reports_cache_traffic_and_resetup_hits() {
    let e = engine();
    let a = laplacian_2d_9pt::<f64>(32, 32);
    let n = a.rows();
    let cfg = AmgConfig::default();
    let cycle = CycleConfig::default();

    let plain = AmgSolver::new(a.clone(), &cfg, cycle);
    assert!(
        plain.setup_tuning_stats().is_none(),
        "plain setup never tunes"
    );

    let first = AmgSolver::with_smat(a.clone(), &cfg, cycle, &e);
    let stats = first
        .setup_tuning_stats()
        .expect("tuned setup reports stats");
    let prepares = stats.hits + stats.misses;
    assert!(prepares >= 3, "every grid/transfer operator is tuned");
    assert_eq!(stats.hits, 0, "a cold engine cannot hit");

    // Same operator again: identical hierarchy structure, so every
    // per-operator decision replays from the fingerprint cache.
    let second = AmgSolver::with_smat(a, &cfg, cycle, &e);
    let stats = second
        .setup_tuning_stats()
        .expect("tuned setup reports stats");
    assert_eq!(stats.hits + stats.misses, prepares);
    assert_eq!(stats.misses, 0, "warm re-setup must be all hits");

    // And the warm solver still converges like the cold one.
    let b = rhs(n);
    let mut x = vec![0.0; n];
    assert!(second.solve(&b, &mut x, 1e-9, 100).converged);
}

#[test]
fn per_level_formats_are_structurally_sane() {
    // Figure 1's qualitative claim: the hierarchy's operators differ
    // enough that per-level decisions vary, and the finest operator (a
    // pure 7-point stencil: constant degree, 7 true diagonals) is never
    // mistaken for a power-law COO matrix. Coarse operators may land on
    // any format — tiny half-dense matrices genuinely measure DIA-best —
    // but a DIA choice must always have survived the fill-limit guard.
    // The finest level's format is asserted, so it must be a rule's
    // decision: a live-trained model labels at 200 µs budgets and sends
    // the stencil to execute-and-measure on a busy host.
    let e = archetype_engine();
    let a = laplacian_3d_7pt::<f64>(12, 12, 12);
    let solver = AmgSolver::with_smat(a, &AmgConfig::default(), CycleConfig::default(), &e);
    let formats = solver.compiled().a_formats();
    assert_eq!(formats.len(), solver.hierarchy().num_levels());
    assert_ne!(
        formats[0],
        smat_matrix::Format::Coo,
        "a 7-point stencil is the opposite of a power-law graph"
    );
    for (lvl, f) in formats.iter().enumerate() {
        if *f == smat_matrix::Format::Dia {
            let level_a = &solver.hierarchy().levels[lvl].a;
            assert!(
                smat_matrix::Dia::from_csr(level_a).is_ok(),
                "level {lvl} DIA choice should be convertible under the fill limit"
            );
        }
    }
}
