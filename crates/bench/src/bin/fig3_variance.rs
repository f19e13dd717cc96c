//! Figure 3: performance variance among the four storage formats for the
//! 16 representative matrices.
//!
//! Prints each matrix's GFLOPS under DIA, ELL, CSR, COO (basic kernels,
//! like the paper's "without meticulous implementations") and the
//! max/min ratio — the paper reports gaps up to ~6x.

use smat::measure_formats;
use smat_bench::{fmt_gflops, print_table, representative_suite, suite_scale};
use smat_kernels::{KernelChoice, KernelLibrary};
use smat_matrix::Format;
use std::time::Duration;

fn main() {
    println!("== Figure 3: SpMV GFLOPS variance across basic formats (double precision) ==\n");
    let lib = KernelLibrary::<f64>::new();
    let suite = representative_suite::<f64>(suite_scale());
    let budget = Duration::from_millis(5);

    let mut rows = Vec::new();
    for e in &suite {
        let perf = measure_formats(&lib, &KernelChoice::basic(), &e.matrix, budget);
        let present: Vec<f64> = perf.iter().copied().filter(|&g| g > 0.0).collect();
        let max = present.iter().copied().fold(f64::MIN, f64::max);
        let min = present.iter().copied().fold(f64::MAX, f64::min);
        let cell = |f: Format| {
            Some(perf[f.index()])
                .filter(|&g| g > 0.0)
                .map_or_else(|| "n/a".into(), fmt_gflops)
        };
        rows.push(vec![
            format!("{:>2}", e.id),
            e.name.to_string(),
            format!("({})", e.paper_name),
            cell(Format::Dia),
            cell(Format::Ell),
            cell(Format::Csr),
            cell(Format::Coo),
            cell(Format::Hyb),
            format!("{:.1}x", max / min),
        ]);
    }
    print_table(
        &[
            "#",
            "matrix",
            "stands for",
            "DIA",
            "ELL",
            "CSR",
            "COO",
            "HYB",
            "max/min",
        ],
        &rows,
    );
    println!("\nPaper's observation: the largest gap between formats is about 6x,");
    println!("so committing to a single format leaves large factors on the table.");
}
