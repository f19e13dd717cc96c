//! PageRank over a scale-free web graph — one of the data-intensive
//! workloads the paper's introduction motivates SMAT with. The power
//! iteration is SpMV-dominated; SMAT picks COO for the power-law
//! adjacency structure.
//!
//! Run with: `cargo run --release --example pagerank`

use smat::{Smat, SmatConfig, Trainer};
use smat_matrix::gen::{generate_corpus, power_law, CorpusSpec};
use smat_matrix::Csr;
use std::time::Instant;

/// Builds the column-stochastic transition matrix of a directed graph
/// given its adjacency structure: `P[j][i] = 1 / outdeg(i)` for each
/// edge `i -> j` (so ranks update as `r = P * r`).
fn transition_matrix(adj: &Csr<f64>) -> Csr<f64> {
    let n = adj.rows();
    let mut triplets = Vec::with_capacity(adj.nnz());
    for i in 0..n {
        let (cols, _) = adj.row(i);
        let w = 1.0 / cols.len().max(1) as f64;
        for &j in cols {
            triplets.push((j as usize, i, w));
        }
    }
    Csr::from_triplets(n, n, &triplets).expect("in-bounds edges")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("training tuner...");
    let corpus = generate_corpus::<f64>(&CorpusSpec::small(200, 3));
    let matrices: Vec<&Csr<f64>> = corpus.iter().map(|e| &e.matrix).collect();
    let out = Trainer::new(SmatConfig::fast()).train(&matrices)?;
    let engine = Smat::new(out.model)?;

    let n = 100_000;
    println!("building a {n}-page power-law web graph...");
    let adj = power_law::<f64>(n, 2_000, 2.1, 99);
    let p = transition_matrix(&adj);
    println!("graph: {} edges", p.nnz());

    let tuned = engine.prepare(&p);
    println!(
        "SMAT stored the transition matrix as {} (tuning took {:?})\n",
        tuned.format(),
        tuned.prepare_time()
    );

    // Power iteration with damping.
    let damping = 0.85;
    let teleport = (1.0 - damping) / n as f64;
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0; n];
    let t0 = Instant::now();
    let mut iterations = 0;
    loop {
        engine.spmv(&tuned, &rank, &mut next)?;
        let mut delta = 0.0f64;
        for v in next.iter_mut() {
            *v = damping * *v + teleport;
        }
        // Redistribute dangling mass so ranks stay a distribution.
        let total: f64 = next.iter().sum();
        let fix = (1.0 - total) / n as f64;
        for (nv, rv) in next.iter_mut().zip(&rank) {
            *nv += fix;
            delta += (*nv - rv).abs();
        }
        std::mem::swap(&mut rank, &mut next);
        iterations += 1;
        if delta < 1e-10 || iterations >= 200 {
            break;
        }
    }
    println!(
        "converged in {iterations} iterations, {:.1} ms total",
        t0.elapsed().as_secs_f64() * 1e3
    );

    let mut top: Vec<(usize, f64)> = rank.iter().copied().enumerate().collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("top 5 pages by rank:");
    for (page, score) in top.iter().take(5) {
        println!("  page {page:>6}: {score:.3e}");
    }
    let sum: f64 = rank.iter().sum();
    println!("rank mass (should be ~1): {sum:.6}");
    Ok(())
}
