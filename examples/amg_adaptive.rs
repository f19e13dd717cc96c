//! The paper's §7.4 scenario in miniature: an algebraic multigrid solve
//! where every grid/transfer operator is retuned per level by SMAT,
//! compared against the CSR-only hierarchy.
//!
//! Run with: `cargo run --release --example amg_adaptive`

use smat::{Smat, SmatConfig, Trainer};
use smat_amg::{AmgConfig, AmgSolver, CycleConfig};
use smat_matrix::gen::{generate_corpus, laplacian_2d_9pt, CorpusSpec};
use smat_matrix::Csr;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("training tuner...");
    let corpus = generate_corpus::<f64>(&CorpusSpec::small(200, 7));
    let matrices: Vec<&Csr<f64>> = corpus.iter().map(|e| &e.matrix).collect();
    let out = Trainer::new(SmatConfig::fast()).train(&matrices)?;
    let engine = Smat::new(out.model)?;

    let n = 120;
    let a = laplacian_2d_9pt::<f64>(n, n);
    let dim = a.rows();
    println!("9-point Laplacian on a {n}x{n} grid ({dim} unknowns)\n");

    let amg_cfg = AmgConfig::default();
    let cycle = CycleConfig::default();

    let plain = AmgSolver::new(a.clone(), &amg_cfg, cycle);
    let tuned = AmgSolver::with_smat(a, &amg_cfg, cycle, &engine);

    println!(
        "hierarchy: {} levels, dims {:?}",
        plain.hierarchy().num_levels(),
        plain.hierarchy().level_dims()
    );
    println!(
        "SMAT per-level A formats: {}",
        tuned
            .compiled()
            .a_formats()
            .iter()
            .map(|f| f.name())
            .collect::<Vec<_>>()
            .join(" -> ")
    );
    if let Some(cache) = tuned.setup_tuning_stats() {
        println!(
            "setup tuning cache: {} hits / {} misses (hit {:?}, miss {:?})",
            cache.hits, cache.misses, cache.hit_time, cache.miss_time
        );
    }

    // Re-running setup on the same operator replays every decision from
    // the engine's structural-fingerprint cache.
    let retuned = AmgSolver::with_smat(laplacian_2d_9pt::<f64>(n, n), &amg_cfg, cycle, &engine);
    if let Some(cache) = retuned.setup_tuning_stats() {
        println!(
            "re-setup tuning cache: {} hits / {} misses",
            cache.hits, cache.misses
        );
    }

    let b = vec![1.0; dim];
    for (label, solver) in [("CSR-only AMG", &plain), ("SMAT AMG   ", &tuned)] {
        let mut x = vec![0.0; dim];
        let t0 = Instant::now();
        let stats = solver.solve(&b, &mut x, 1e-8, 100);
        println!(
            "{label}: {} V-cycles, {:.1} ms, converged = {}, factor/cycle {:.3}",
            stats.iterations,
            t0.elapsed().as_secs_f64() * 1e3,
            stats.converged,
            stats.convergence_factor()
        );
    }
    println!("\n(the paper reports >20% solve-phase speedup from per-level retuning)");
    Ok(())
}
