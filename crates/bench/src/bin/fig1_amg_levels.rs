//! Figure 1: dynamic sparse matrix structures in the AMG solver and
//! their per-format SpMV performance.
//!
//! Builds the AMG hierarchy of a 3-D Laplacian, then measures the
//! basic-kernel SpMV throughput of every level's grid operator in all
//! four formats. The paper's observation: the fine levels favor DIA (or
//! COO), while coarser levels drift toward CSR as the operators fill in
//! and lose diagonal structure.

use smat::label_best_format;
use smat_amg::{setup, AmgConfig, Coarsening};
use smat_bench::{fmt_gflops, print_table};
use smat_features::extract_features;
use smat_kernels::{KernelChoice, KernelLibrary};
use smat_matrix::gen::laplacian_3d_7pt;
use smat_matrix::Format;
use std::time::Duration;

fn main() {
    let n = std::env::var("SMAT_FIG1_DIM")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40usize);
    println!("== Figure 1: per-level format performance in the AMG hierarchy ==");
    println!("(7-point Laplacian on a {n}^3 grid, CLJP coarsening)\n");

    let a = laplacian_3d_7pt::<f64>(n, n, n);
    let cfg = AmgConfig {
        coarsening: Coarsening::Cljp,
        ..AmgConfig::default()
    };
    let h = setup(a, &cfg);
    let lib = KernelLibrary::<f64>::new();

    let mut rows = Vec::new();
    for (lvl, level) in h.levels.iter().enumerate() {
        let (best, perf) = label_best_format(
            &lib,
            &KernelChoice::basic(),
            &level.a,
            Duration::from_millis(3),
        );
        let feats = extract_features(&level.a);
        let cell = |f: Format| {
            Some(perf[f.index()])
                .filter(|&g| g > 0.0)
                .map_or_else(|| "n/a".into(), fmt_gflops)
        };
        rows.push(vec![
            lvl.to_string(),
            level.a.rows().to_string(),
            level.a.nnz().to_string(),
            format!("{:.0}", feats.ndiags),
            format!("{:.2}", feats.er_dia),
            cell(Format::Dia),
            cell(Format::Ell),
            cell(Format::Csr),
            cell(Format::Coo),
            cell(Format::Hyb),
            best.name().to_string(),
        ]);
    }
    print_table(
        &[
            "level", "rows", "nnz", "Ndiags", "ER_DIA", "DIA", "ELL", "CSR", "COO", "HYB", "best",
        ],
        &rows,
    );
    println!("\npaper's shape: DIA/COO win on the fine (structured) levels; as coarse");
    println!("operators fill in (ER_DIA drops), CSR takes over — one static format");
    println!("cannot be right for the whole hierarchy.");
}
