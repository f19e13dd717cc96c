//! §7.3 accuracy evaluation: train on most of the corpus, evaluate
//! prediction accuracy on the held-out matrices in both precisions.
//!
//! The paper reports 92% (SP) / 82% (DP) on the Intel platform and
//! 85% / 82% on AMD, over 331 held-out UF matrices.

use smat::{accuracy, Smat, Trainer};
use smat_bench::{corpus_size, harness_config, print_table};
use smat_features::extract_features;
use smat_kernels::measure_round_robin;
use smat_learn::ConfusionMatrix;
use smat_matrix::gen::{generate_corpus, CorpusSpec};
use smat_matrix::{Csr, Format, Scalar};
use std::hint::black_box;
use std::time::Duration;

fn evaluate<T: Scalar>(count: usize, seed: u64) -> (f64, Vec<Vec<String>>, String) {
    let spec = CorpusSpec {
        count,
        seed,
        min_dim: 512,
        max_dim: 32_768,
    };
    let corpus = generate_corpus::<T>(&spec);
    // Hold out ~14% like the paper (2055 train / 331 test).
    let n_test = (corpus.len() * 14 / 100).max(1);
    let (test, train) = corpus.split_at(n_test);

    let trainer = Trainer::new(harness_config());
    let matrices: Vec<&Csr<T>> = train.iter().map(|e| &e.matrix).collect();
    let out = trainer.train(&matrices).expect("non-empty corpus");
    let engine = Smat::with_config(out.model, harness_config()).expect("precision matches");

    let named: Vec<(String, &Csr<T>)> = test.iter().map(|e| (e.name.clone(), &e.matrix)).collect();
    let (acc, rows) = accuracy(&engine, &named, Duration::from_millis(1));

    // What rule tailoring buys at run time: the held-out matrices
    // classified through the full ordered ruleset vs the tailored groups.
    let model = engine.model();
    let features: Vec<_> = test
        .iter()
        .map(|e| extract_features(&e.matrix).as_array())
        .collect();
    let timed = measure_round_robin(
        2,
        |i| {
            for v in &features {
                if i == 0 {
                    black_box(model.ruleset.classify(v));
                } else {
                    black_box(model.groups.decide(v));
                }
            }
        },
        64..=64,
        Duration::ZERO,
        Duration::MAX,
        None,
    );
    let ns = |i: usize| timed[i].ok().unwrap_or_default().as_nanos() / features.len() as u128;
    let tailoring = format!(
        "classification: full ruleset ({} rules) {} ns vs tailored groups ({} rules) {} ns per matrix",
        model.ruleset.len(),
        ns(0),
        model.groups.rule_count(),
        ns(1)
    );

    // Confusion matrix over the held-out set.
    let mut counts = vec![vec![0usize; Format::COUNT]; Format::COUNT];
    for r in &rows {
        counts[r.best_format.index()][r.smat_format.index()] += 1;
    }
    let cm = ConfusionMatrix {
        classes: Format::ALL.iter().map(|f| f.name().to_string()).collect(),
        counts,
    };
    let mut table = Vec::new();
    for (i, f) in Format::ALL.iter().enumerate() {
        let mut row = vec![f.name().to_string()];
        row.extend((0..Format::COUNT).map(|j| cm.counts[i][j].to_string()));
        row.push(format!("{:.0}%", 100.0 * cm.recall(i)));
        table.push(row);
    }
    (acc, table, tailoring)
}

fn main() {
    let count = corpus_size();
    // One column per format, so the table tracks the format set.
    let headers: Vec<&str> = std::iter::once("actual\\SMAT")
        .chain(Format::ALL.map(Format::name))
        .chain(["recall"])
        .collect();
    println!("== §7.3 accuracy: SMAT prediction vs exhaustive best on held-out matrices ==");
    println!("(corpus: {count} matrices, 14% held out)\n");

    eprintln!("evaluating single precision...");
    let (acc_sp, cm_sp, tailoring_sp) = evaluate::<f32>(count, 0xACC);
    println!("single precision: accuracy {:.0}%", acc_sp * 100.0);
    println!("{tailoring_sp}");
    print_table(&headers, &cm_sp);
    println!();

    eprintln!("evaluating double precision...");
    let (acc_dp, cm_dp, tailoring_dp) = evaluate::<f64>(count, 0xACC);
    println!("double precision: accuracy {:.0}%", acc_dp * 100.0);
    println!("{tailoring_dp}");
    print_table(&headers, &cm_dp);

    println!("\npaper: 92% (SP) / 82% (DP) on Intel, 85% / 82% on AMD.");
    println!("note: our metric counts the *final* SMAT choice (prediction or fallback),");
    println!("like the paper's Table 3 'R/W' column.");
}
