//! Table 1: application domains and the distribution of format affinity.
//!
//! Generates the synthetic corpus (UF-collection stand-in), measures
//! every matrix's best format exhaustively, and prints the domain ×
//! format counts plus the percentage row — the paper reports CSR 63%,
//! COO 21%, DIA 9%, ELL 7% over 2386 matrices.

use smat::{label_best_format, Trainer};
use smat_bench::{corpus_size, harness_config, print_table};
use smat_kernels::KernelLibrary;
use smat_matrix::gen::{generate_corpus, CorpusSpec};
use smat_matrix::Format;
use std::collections::BTreeMap;
use std::time::Duration;

fn main() {
    let count = corpus_size();
    println!(
        "== Table 1: format affinity across application domains ({count} synthetic matrices) ==\n"
    );
    let spec = CorpusSpec {
        count,
        seed: 0x7AB1E1,
        min_dim: 512,
        max_dim: 32_768,
    };
    let corpus = generate_corpus::<f64>(&spec);

    let lib = KernelLibrary::<f64>::new();
    let trainer = Trainer::new(harness_config());
    let (choice, _) = trainer.search_kernels(&lib);

    // domain -> winner counts, one per format in `Format::index` order.
    let mut table: BTreeMap<&'static str, [usize; Format::COUNT]> = BTreeMap::new();
    let mut totals = [0usize; Format::COUNT];
    for entry in &corpus {
        let (best, _) = label_best_format(&lib, &choice, &entry.matrix, Duration::from_millis(1));
        table.entry(entry.domain).or_default()[best.index()] += 1;
        totals[best.index()] += 1;
    }

    // One column per format, so every winner a row counts is shown.
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut order: Vec<(&str, [usize; Format::COUNT])> = table.into_iter().collect();
    order.sort_by_key(|(_, c)| std::cmp::Reverse(c.iter().sum::<usize>()));
    for (domain, counts) in order {
        let mut row = vec![domain.to_string()];
        row.extend(counts.iter().map(|n| n.to_string()));
        row.push(counts.iter().sum::<usize>().to_string());
        rows.push(row);
    }
    let total: usize = totals.iter().sum();
    let mut percentages = vec!["Percentage".to_string()];
    percentages.extend(
        totals
            .iter()
            .map(|&n| format!("{:.0}%", 100.0 * n as f64 / total as f64)),
    );
    percentages.push(total.to_string());
    rows.push(percentages);
    let mut headers = vec!["Application Domain"];
    headers.extend(Format::ALL.iter().map(|f| f.name()));
    headers.push("Total");
    print_table(&headers, &rows);
    println!("\nPaper's split over the UF collection: CSR 63%, COO 21%, DIA 9%, ELL 7%.");
}
