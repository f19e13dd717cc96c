//! The paper's tables and figures as functions of one labelled run.
//!
//! A [`Run`] is the off-line stage done once per precision: one corpus,
//! one kernel search, one labelling, the paper's 86/14 split and one fit
//! on the train part. Table 1, Figure 6 and §7.3 read its labels, so a
//! matrix carries one label in all three; Figures 9 and 10 and Tables 3
//! and 4 use its engine. Figures 1 and 3 measure the basic kernels on the
//! AMG levels and on the suite and need no run.
//!
//! Each table returns a [`Report`]: the text it prints and the
//! paper-shape [`Claim`]s it checks, each held or not with its numbers.
//! An `Err` is a broken invariant, which a run must not print past.

use crate::{fmt_gflops, harness_config, render_table, SuiteEntry};
use smat::{label_best_format, measure_formats, tuned_gflops, AnalysisRow, Smat, Trainer};
use smat_amg::{setup, AmgConfig, AmgSolver, CompiledHierarchy, CycleConfig, Hierarchy};
use smat_features::{extract_features, FeatureVector, R_NOT_SCALE_FREE};
use smat_kernels::reference::best_of_reference;
use smat_kernels::{measure_round_robin, KernelChoice, KernelLibrary};
use smat_learn::{ConfusionMatrix, Dataset};
use smat_matrix::gen::{generate_corpus, laplacian_3d_7pt, CorpusEntry, CorpusSpec};
use smat_matrix::{Csr, Format, Scalar};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The corpus seed: both precisions label the same structures.
const CORPUS_SEED: u64 = 0x7AB1E1;

/// The formats the paper's Table 1 and Figure 3 are about.
const PAPER_FORMATS: [Format; 4] = [Format::Dia, Format::Ell, Format::Csr, Format::Coo];

/// What a table prints and the paper-shape claims it checks.
#[derive(Debug, Clone)]
pub struct Report {
    /// The table's text, as printed.
    pub text: String,
    /// The claims, in the order printed.
    pub claims: Vec<Claim>,
}

/// One paper-shape claim and whether this run reproduced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Stable name, e.g. `"Table 1: CSR > COO > {DIA, ELL}"`.
    pub name: String,
    /// Whether the claim held on this run's numbers.
    pub held: bool,
    /// The numbers it was decided on.
    pub numbers: String,
}

impl From<String> for Report {
    /// A report that checks no claim.
    fn from(text: String) -> Self {
        let claims = Vec::new();
        Self { text, claims }
    }
}

impl Claim {
    fn new(name: impl Into<String>, held: bool, numbers: String) -> Self {
        let name = name.into();
        Self {
            name,
            held,
            numbers,
        }
    }
}

/// The off-line stage, done once for one precision.
pub struct Run<T: Scalar> {
    /// The corpus, in generation order.
    corpus: Vec<CorpusEntry<T>>,
    /// One record per corpus matrix, in corpus order: its features and
    /// its measured best format.
    labels: Dataset,
    /// `corpus[..held_out]` is held out; the engine was fitted on the rest.
    held_out: usize,
    /// The engine fitted on the train part.
    pub engine: Smat<T>,
}

impl<T: Scalar> Run<T> {
    /// Generates a `count`-matrix corpus, searches the kernels once,
    /// labels every corpus matrix once and fits on the train part.
    pub fn build(count: usize) -> Self {
        let spec = CorpusSpec {
            count,
            seed: CORPUS_SEED,
            min_dim: 512,
            max_dim: 32_768,
        };
        let trainer = Trainer::new(harness_config());
        let lib = KernelLibrary::<T>::new();
        Self::from_steps(
            generate_corpus(&spec),
            || trainer.search_kernels(&lib).0,
            |choice, matrices| trainer.build_database(&lib, choice, matrices),
        )
    }

    /// The run from its two measured steps: `search` picks the kernels
    /// and `label` labels the given matrices, each called once.
    fn from_steps(
        corpus: Vec<CorpusEntry<T>>,
        search: impl FnOnce() -> KernelChoice,
        label: impl FnOnce(&KernelChoice, &[&Csr<T>]) -> Dataset,
    ) -> Self {
        let choice = search();
        let matrices: Vec<&Csr<T>> = corpus.iter().map(|e| &e.matrix).collect();
        let labels = label(&choice, &matrices);
        assert_eq!(labels.len(), corpus.len(), "one label per corpus matrix");
        // Hold out ~14% like the paper (2 055 train / 331 test).
        let held_out = (corpus.len() * 14 / 100).max(1);
        let train: Vec<usize> = (held_out..labels.len()).collect();
        let model = Trainer::new(harness_config())
            .fit::<T>(&labels.subset(&train), choice)
            .expect("a non-empty train part");
        let engine = Smat::with_config(model, harness_config()).expect("precision matches");
        Self {
            corpus,
            labels,
            held_out,
            engine,
        }
    }
}

/// The labelled feature vectors, partitioned by their label: Figure 6's
/// beneficial matrices.
fn partition(labels: &Dataset) -> [Vec<FeatureVector>; Format::COUNT] {
    let mut out: [Vec<FeatureVector>; Format::COUNT] = Default::default();
    for r in labels.records() {
        let values = r.values.as_slice().try_into().expect("11 attributes");
        out[r.label].push(FeatureVector::from_array(values));
    }
    out
}

/// Table 1's invariant: its per-format totals are the run's class
/// counts and Figure 6's partition sizes.
fn check_totals(totals: &[usize], classes: &[usize], partition: &[usize]) -> Result<(), String> {
    if totals == classes && totals == partition {
        Ok(())
    } else {
        Err(format!(
            "Table 1 totals {totals:?} differ from the class counts {classes:?} or Figure 6's partition {partition:?}"
        ))
    }
}

/// Table 1: application domain × measured best format over the corpus.
pub fn table1<T: Scalar>(run: &Run<T>) -> Result<Report, String> {
    let mut by_domain: BTreeMap<&str, [usize; Format::COUNT]> = BTreeMap::new();
    let mut totals = [0usize; Format::COUNT];
    for (entry, record) in run.corpus.iter().zip(run.labels.records()) {
        by_domain.entry(entry.domain).or_default()[record.label] += 1;
        totals[record.label] += 1;
    }
    let sizes = partition(&run.labels).map(|p| p.len());
    check_totals(&totals, &run.labels.class_counts(), &sizes)?;

    let mut order: Vec<_> = by_domain.into_iter().collect();
    order.sort_by_key(|(_, c)| std::cmp::Reverse(c.iter().sum::<usize>()));
    let total: usize = totals.iter().sum();
    let share = |n: usize| 100.0 * n as f64 / total.max(1) as f64;
    let mut rows: Vec<Vec<String>> = order
        .iter()
        .map(|(domain, counts)| {
            let cells = counts.iter().map(usize::to_string);
            let sum = counts.iter().sum::<usize>().to_string();
            std::iter::once(domain.to_string())
                .chain(cells)
                .chain([sum])
                .collect()
        })
        .collect();
    let percent = totals.iter().map(|&n| format!("{:.0}%", share(n)));
    rows.push(
        std::iter::once("Percentage".into())
            .chain(percent)
            .chain([total.to_string()])
            .collect(),
    );
    let mut headers = vec!["Application Domain"];
    headers.extend(Format::ALL.map(Format::name));
    headers.push("Total");

    let mut text = format!(
        "== Table 1: format affinity across application domains ({} synthetic matrices) ==\n\n",
        run.corpus.len()
    );
    text += &render_table(&headers, &rows);
    text += "\nPaper's split over the UF collection: CSR 63%, COO 21%, DIA 9%, ELL 7%.\n";
    let n = |f: Format| totals[f.index()];
    let held =
        n(Format::Csr) > n(Format::Coo) && n(Format::Coo) > n(Format::Dia).max(n(Format::Ell));
    let numbers = PAPER_FORMATS
        .map(|f| format!("{f} {:.0}%", share(n(f))))
        .join(", ");
    let claims = vec![Claim::new("Table 1: CSR > COO > {DIA, ELL}", held, numbers)];
    Ok(Report { text, claims })
}

/// Figure 6's histogram bins: the histogram's title, the format whose
/// winners it counts, and the bin's label and membership test.
type Bin = (
    &'static str,
    Format,
    &'static str,
    fn(&FeatureVector) -> bool,
);

#[rustfmt::skip]
const BINS: [Bin; 24] = [
    ("(a) DIA winners vs Ndiags", Format::Dia, "Ndiags in [0,10)", |f| f.ndiags < 10.0),
    ("(a) DIA winners vs Ndiags", Format::Dia, "Ndiags in [10,40)", |f| (10.0..40.0).contains(&f.ndiags)),
    ("(a) DIA winners vs Ndiags", Format::Dia, "Ndiags in [40,200)", |f| (40.0..200.0).contains(&f.ndiags)),
    ("(a) DIA winners vs Ndiags", Format::Dia, "Ndiags >= 200", |f| f.ndiags >= 200.0),
    ("(a) ELL winners vs max_RD", Format::Ell, "max_RD in [0,8)", |f| f.max_rd < 8.0),
    ("(a) ELL winners vs max_RD", Format::Ell, "max_RD in [8,32)", |f| (8.0..32.0).contains(&f.max_rd)),
    ("(a) ELL winners vs max_RD", Format::Ell, "max_RD in [32,128)", |f| (32.0..128.0).contains(&f.max_rd)),
    ("(a) ELL winners vs max_RD", Format::Ell, "max_RD >= 128", |f| f.max_rd >= 128.0),
    ("(b) DIA winners vs ER_DIA", Format::Dia, "ER_DIA in [0,0.5)", |f| f.er_dia < 0.5),
    ("(b) DIA winners vs ER_DIA", Format::Dia, "ER_DIA in [0.5,0.9)", |f| (0.5..0.9).contains(&f.er_dia)),
    ("(b) DIA winners vs ER_DIA", Format::Dia, "ER_DIA >= 0.9", |f| f.er_dia >= 0.9),
    ("(b) ELL winners vs ER_ELL", Format::Ell, "ER_ELL in [0,0.5)", |f| f.er_ell < 0.5),
    ("(b) ELL winners vs ER_ELL", Format::Ell, "ER_ELL in [0.5,0.9)", |f| (0.5..0.9).contains(&f.er_ell)),
    ("(b) ELL winners vs ER_ELL", Format::Ell, "ER_ELL >= 0.9", |f| f.er_ell >= 0.9),
    ("(c) DIA winners vs NTdiags_ratio", Format::Dia, "ratio in [0,0.3)", |f| f.ntdiags_ratio < 0.3),
    ("(c) DIA winners vs NTdiags_ratio", Format::Dia, "ratio in [0.3,0.7)", |f| (0.3..0.7).contains(&f.ntdiags_ratio)),
    ("(c) DIA winners vs NTdiags_ratio", Format::Dia, "ratio in [0.7,1.0]", |f| f.ntdiags_ratio >= 0.7),
    ("(d) ELL winners vs var_RD", Format::Ell, "var_RD in [0,0.5)", |f| f.var_rd < 0.5),
    ("(d) ELL winners vs var_RD", Format::Ell, "var_RD in [0.5,4)", |f| (0.5..4.0).contains(&f.var_rd)),
    ("(d) ELL winners vs var_RD", Format::Ell, "var_RD >= 4", |f| f.var_rd >= 4.0),
    ("(e) COO winners vs power-law R", Format::Coo, "R in [0,1)", |f| f.r < 1.0),
    ("(e) COO winners vs power-law R", Format::Coo, "R in [1,4]", |f| (1.0..=4.0).contains(&f.r)),
    ("(e) COO winners vs power-law R", Format::Coo, "R in (4,inf)", |f| f.r > 4.0 && f.r < R_NOT_SCALE_FREE),
    ("(e) COO winners vs power-law R", Format::Coo, "no power law", |f| f.r >= R_NOT_SCALE_FREE),
];

/// Figure 6(a–e): how each format's winners spread over the feature
/// intervals the paper histograms.
pub fn fig6<T: Scalar>(run: &Run<T>) -> Result<Report, String> {
    let winners = partition(&run.labels);
    let mut text = format!(
        "== Figure 6: beneficial-matrix distributions over parameter intervals ({} matrices) ==\n\n",
        run.corpus.len()
    );
    let counts = Format::ALL.map(|f| format!("{f} {}", winners[f.index()].len()));
    text += &format!("beneficial matrices: {}\n\n", counts.join(", "));
    for bins in BINS.chunk_by(|a, b| a.0 == b.0) {
        let (title, format) = (bins[0].0, bins[0].1);
        let data = &winners[format.index()];
        let rows: Vec<Vec<String>> = bins
            .iter()
            .map(|(_, _, label, inside)| {
                let n = data.iter().filter(|f| inside(f)).count();
                let share = 100.0 * n as f64 / data.len().max(1) as f64;
                vec![label.to_string(), n.to_string(), format!("{share:.0}%")]
            })
            .collect();
        let table = render_table(&["interval", "count", "share"], &rows);
        text += &format!("{title}\n{table}\n");
    }
    text += "Paper's reading: small Ndiags/max_RD, large ER_*/NTdiags_ratio and\n";
    text += "R in [1,4] are where DIA/ELL/COO matrices concentrate.\n";
    Ok(text.into())
}

/// One precision's held-out evaluation: per held-out matrix its stored
/// label and the engine's final choice, plus the tailoring timing line.
pub struct HeldOut {
    /// `"single"` or `"double"`.
    pub precision: &'static str,
    /// How many matrices the run held out.
    pub held_out: usize,
    /// `(label, SMAT's final format)` per held-out matrix.
    pub pairs: Vec<(Format, Format)>,
    /// The full-ruleset vs tailored-groups classification timing.
    pub tailoring: String,
}

/// Runs the engine over the held-out matrices (prediction or fallback,
/// as a user's `prepare` would) and times rule classification on them.
pub fn held_out<T: Scalar>(run: &Run<T>) -> HeldOut {
    let records = &run.labels.records()[..run.held_out];
    let pairs = run.corpus[..run.held_out]
        .iter()
        .zip(records)
        .map(|(e, r)| (Format::ALL[r.label], run.engine.prepare(&e.matrix).format()))
        .collect();
    // What rule tailoring buys at run time: the held-out matrices
    // classified through the full ordered ruleset vs the tailored groups.
    let model = run.engine.model();
    let timed = measure_round_robin(
        2,
        |i| {
            for r in records {
                if i == 0 {
                    black_box(model.ruleset.classify(&r.values));
                } else {
                    black_box(model.groups.decide(&r.values));
                }
            }
        },
        64..=64,
        Duration::ZERO,
        Duration::MAX,
        None,
    );
    let ns = |i: usize| timed[i].ok().unwrap_or_default().as_nanos() / records.len() as u128;
    let tailoring = format!(
        "classification: full ruleset ({} rules) {} ns vs tailored groups ({} rules) {} ns per matrix",
        model.ruleset.len(),
        ns(0),
        model.groups.rule_count(),
        ns(1)
    );
    HeldOut {
        precision: T::PRECISION_NAME,
        held_out: run.held_out,
        pairs,
        tailoring,
    }
}

/// §7.3's invariant: the confusion matrix counts every held-out matrix
/// once.
fn check_confusion(cm: &ConfusionMatrix, held_out: usize) -> Result<(), String> {
    let sum: usize = cm.counts.iter().flatten().sum();
    if sum == held_out {
        Ok(())
    } else {
        Err(format!(
            "the confusion matrix counts {sum} matrices, {held_out} were held out"
        ))
    }
}

/// §7.3: SMAT's final choice against the stored label on the held-out
/// matrices, one confusion matrix per precision.
pub fn accuracy(evals: &[HeldOut]) -> Result<Report, String> {
    let headers: Vec<&str> = std::iter::once("actual\\SMAT")
        .chain(Format::ALL.map(Format::name))
        .chain(["recall"])
        .collect();
    let mut text =
        "== §7.3 accuracy: SMAT's final choice vs the stored label on held-out matrices ==\n"
            .to_string();
    let mut claims = Vec::new();
    for eval in evals {
        let mut counts = vec![vec![0usize; Format::COUNT]; Format::COUNT];
        for &(label, smat) in &eval.pairs {
            counts[label.index()][smat.index()] += 1;
        }
        let classes = Format::ALL.iter().map(|f| f.name().to_string()).collect();
        let cm = ConfusionMatrix { classes, counts };
        check_confusion(&cm, eval.held_out)?;
        let rows: Vec<Vec<String>> = Format::ALL
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let cells = cm.counts[i].iter().map(usize::to_string);
                let recall = format!("{:.0}%", 100.0 * cm.recall(i));
                std::iter::once(f.name().to_string())
                    .chain(cells)
                    .chain([recall])
                    .collect()
            })
            .collect();
        let correct = eval.pairs.iter().filter(|(l, s)| l == s).count();
        let acc = correct as f64 / eval.pairs.len().max(1) as f64;
        let _ = writeln!(
            text,
            "\n{} precision: accuracy {:.0}% ({correct}/{} held out)",
            eval.precision,
            100.0 * acc,
            eval.pairs.len()
        );
        let _ = writeln!(text, "{}", eval.tailoring);
        text += &render_table(&headers, &rows);
        let name = format!("§7.3 {}: accuracy in [0.80, 1.0]", eval.precision);
        let numbers = format!("{:.0}% ({correct}/{})", 100.0 * acc, eval.pairs.len());
        claims.push(Claim::new(name, acc >= 0.80, numbers));
    }
    text += "\npaper: 92% (SP) / 82% (DP) on Intel, 85% / 82% on AMD.\n";
    text += "note: our metric counts the *final* SMAT choice (prediction or fallback),\n";
    text += "like the paper's Table 3 'R/W' column.\n";
    Ok(Report { text, claims })
}

/// Figure 1: the basic kernels' throughput in every format on every
/// level operator of a Ruge–Stüben hierarchy over the 7-point `n`³
/// Laplacian.
pub fn fig1(n: usize) -> Result<Report, String> {
    let h = setup(laplacian_3d_7pt::<f64>(n, n, n), &AmgConfig::default());
    let lib = KernelLibrary::<f64>::new();
    let rows: Vec<Vec<String>> = h
        .levels
        .iter()
        .enumerate()
        .map(|(lvl, level)| {
            let (best, perf) = label_best_format(
                &lib,
                &KernelChoice::basic(),
                &level.a,
                Duration::from_millis(3),
            );
            let feats = extract_features(&level.a);
            let mut row = vec![
                lvl.to_string(),
                level.a.rows().to_string(),
                level.a.nnz().to_string(),
                format!("{:.0}", feats.ndiags),
                format!("{:.2}", feats.er_dia),
            ];
            row.extend(perf.map(gflops_cell));
            row.push(best.name().to_string());
            row
        })
        .collect();
    let mut headers = vec!["level", "rows", "nnz", "Ndiags", "ER_DIA"];
    headers.extend(Format::ALL.map(Format::name));
    headers.push("best");
    let mut text =
        "== Figure 1: per-level format performance in the AMG hierarchy ==\n".to_string();
    text += &format!("(7-point Laplacian on a {n}^3 grid, Ruge-Stuben coarsening;\n");
    text += "the paper's hierarchy is CLJP's)\n\n";
    text += &render_table(&headers, &rows);
    text += "\npaper's shape: DIA/COO win on the fine (structured) levels; as coarse\n";
    text += "operators fill in (ER_DIA drops), CSR takes over — one static format\n";
    text += "cannot be right for the whole hierarchy.\n";
    Ok(text.into())
}

/// A throughput cell: `n/a` where the format was refused.
fn gflops_cell(g: f64) -> String {
    if g > 0.0 {
        fmt_gflops(g)
    } else {
        "n/a".into()
    }
}

/// Figure 3's measurements: the basic kernels' throughput in every
/// format, per suite matrix.
pub fn measure_fig3(suite: &[SuiteEntry<f64>]) -> Vec<[f64; Format::COUNT]> {
    let lib = KernelLibrary::<f64>::new();
    let budget = Duration::from_millis(5);
    suite
        .iter()
        .map(|e| measure_formats(&lib, &KernelChoice::basic(), &e.matrix, budget))
        .collect()
}

/// Figure 3: per-format throughput of the suite and each row's max/min
/// gap, over the same formats its columns show.
pub fn fig3(suite: &[SuiteEntry<f64>], perf: &[[f64; Format::COUNT]]) -> Result<Report, String> {
    let mut misses = Vec::new();
    let rows: Vec<Vec<String>> = suite
        .iter()
        .zip(perf)
        .map(|(e, perf)| {
            let present = perf.iter().copied().filter(|&g| g > 0.0);
            let (max, min) =
                present.fold((f64::MIN, f64::MAX), |(hi, lo), g| (hi.max(g), lo.min(g)));
            let winner = PAPER_FORMATS
                .into_iter()
                .max_by(|a, b| perf[a.index()].total_cmp(&perf[b.index()]))
                .expect("four formats");
            if winner != e.paper_format {
                misses.push(format!("#{} {winner} (paper {})", e.id, e.paper_format));
            }
            let mut row = vec![
                format!("{:>2}", e.id),
                e.name.to_string(),
                format!("({})", e.paper_name),
            ];
            row.extend(perf.map(gflops_cell));
            row.push(format!("{:.1}x", max / min));
            row
        })
        .collect();
    let mut headers = vec!["#", "matrix", "stands for"];
    headers.extend(Format::ALL.map(Format::name));
    headers.push("max/min");
    let mut text =
        "== Figure 3: SpMV GFLOPS variance across basic formats (double precision) ==\n\n"
            .to_string();
    text += &render_table(&headers, &rows);
    text += "\nPaper's observation: the largest gap between formats is about 6x,\n";
    text += "so committing to a single format leaves large factors on the table.\n";
    let won = rows.len() - misses.len();
    let numbers = format!(
        "{won}/{} rows won among DIA/ELL/CSR/COO by their block's format; misses: {misses:?}",
        rows.len()
    );
    let name = "Figure 3: block winners";
    let claims = vec![Claim::new(name, misses.is_empty(), numbers)];
    Ok(Report { text, claims })
}

/// One suite matrix under one precision's engine: Figures 9 and 10.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteRow {
    /// Suite row number.
    pub id: usize,
    /// Suite matrix name.
    pub name: &'static str,
    /// The format SMAT tuned it to.
    pub format: Format,
    /// The tuned SpMV's throughput.
    pub smat: f64,
    /// The best reference routine's throughput (the paper's MKL protocol).
    pub reference: f64,
    /// That routine's name.
    pub routine: &'static str,
}

/// Tunes every suite matrix with the engine and measures it beside the
/// MKL-style reference.
pub fn measure_suite<T: Scalar>(engine: &Smat<T>, suite: &[SuiteEntry<T>]) -> Vec<SuiteRow> {
    let budget = Duration::from_millis(5);
    suite
        .iter()
        .map(|e| {
            let tuned = engine.prepare(&e.matrix);
            let (reference, routine) = best_of_reference(&e.matrix, budget);
            SuiteRow {
                id: e.id,
                name: e.name,
                format: tuned.format(),
                smat: tuned_gflops(engine, &tuned, budget),
                reference,
                routine,
            }
        })
        .collect()
}

/// Figure 9: SMAT's tuned throughput on the suite, single beside double.
pub fn fig9(sp: &[SuiteRow], dp: &[SuiteRow]) -> Result<Report, String> {
    let rows: Vec<Vec<String>> = sp
        .iter()
        .zip(dp)
        .map(|(s, d)| {
            let (sf, df) = (s.format.to_string(), d.format.to_string());
            vec![
                format!("{:>2}", s.id),
                s.name.into(),
                sf,
                fmt_gflops(s.smat),
                df,
                fmt_gflops(d.smat),
            ]
        })
        .collect();
    let mut text = "== Figure 9: SMAT performance on the representative suite ==\n\n".to_string();
    text += &render_table(
        &["#", "matrix", "SP fmt", "SP GFLOPS", "DP fmt", "DP GFLOPS"],
        &rows,
    );
    let range = |rows: &[SuiteRow]| {
        rows.iter()
            .fold((0.0, f64::MAX), |(hi, lo): (f64, f64), r| {
                (hi.max(r.smat), lo.min(r.smat))
            })
    };
    let ((max_sp, min_sp), (max_dp, min_dp)) = (range(sp), range(dp));
    text += &format!("\npeak: {max_sp:.2} GFLOPS (SP), {max_dp:.2} GFLOPS (DP)\n");
    text += &format!(
        "variation across matrices: {:.1}x (SP), {:.1}x (DP) — paper reports up to ~5x\n",
        max_sp / min_sp,
        max_dp / min_dp
    );
    text += "paper's peaks on Xeon X5680: 51 GFLOPS (SP), 37 GFLOPS (DP)\n";
    Ok(text.into())
}

/// Figure 10: SMAT against the best MKL-style reference routine per
/// matrix, one table and one geometric-mean claim per precision.
pub fn fig10(precisions: &[(&str, &[SuiteRow])]) -> Result<Report, String> {
    let mut text = "== Figure 10: SMAT vs MKL-style reference library ==\n".to_string();
    let mut claims = Vec::new();
    for &(precision, rows) in precisions {
        let speedup = |r: &SuiteRow| r.smat / r.reference.max(1e-9);
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                let (smat, reference) = (fmt_gflops(r.smat), fmt_gflops(r.reference));
                let speedup = format!("{:.2}x", speedup(r));
                vec![
                    format!("{:>2}", r.id),
                    r.name.into(),
                    smat,
                    reference,
                    r.routine.into(),
                    speedup,
                ]
            })
            .collect();
        let headers = [
            "#",
            "matrix",
            "SMAT",
            "reference",
            "best routine",
            "speedup",
        ];
        text += &format!(
            "\n--- {precision} precision ---\n{}",
            render_table(&headers, &table)
        );
        let geo =
            (rows.iter().map(|r| speedup(r).ln()).sum::<f64>() / rows.len().max(1) as f64).exp();
        let max = rows.iter().map(speedup).fold(0.0, f64::max);
        text += &format!("geometric-mean speedup {geo:.2}x, max {max:.2}x\n");
        let name = format!("Figure 10 {precision}: geometric mean >= 1");
        claims.push(Claim::new(name, geo >= 1.0, format!("{geo:.2}x")));
    }
    text += "\npaper's numbers on Xeon X5680: average speedup 3.2x (SP) / 3.8x (DP),\n";
    text += "max 6.1x (SP) / 4.7x (DP). Our baseline shares our parallel CSR kernel,\n";
    text += "so expect smaller but same-shaped wins concentrated on the DIA/ELL/COO rows.\n";
    Ok(Report { text, claims })
}

/// Table 3's measurements: each suite matrix's decision analysis, from
/// a cold decision cache so every row shows a real `prepare`.
pub fn measure_table3(engine: &Smat<f64>, suite: &[SuiteEntry<f64>]) -> Vec<(usize, AnalysisRow)> {
    engine.clear_cache();
    suite
        .iter()
        .map(|e| {
            (
                e.id,
                smat::analyze(engine, e.name, &e.matrix, Duration::from_millis(4)),
            )
        })
        .collect()
}

/// Table 3's invariant: a row is right exactly when SMAT's format is the
/// measured best.
fn check_analysis(rows: &[(usize, AnalysisRow)]) -> Result<(), String> {
    match rows
        .iter()
        .find(|(_, r)| r.correct != (r.smat_format == r.best_format))
    {
        None => Ok(()),
        Some((id, r)) => Err(format!(
            "Table 3 row {id}: R/W disagrees with {} vs {}",
            r.smat_format, r.best_format
        )),
    }
}

/// The median of `v` (`None` when empty).
fn median(mut v: Vec<f64>) -> Option<f64> {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (n > 0).then(|| (v[(n - 1) / 2] + v[n / 2]) / 2.0)
}

/// Table 3: the on-line decision per suite matrix — prediction or
/// execute-and-measure, right or wrong, and its overhead in CSR SpMVs.
pub fn table3(rows: &[(usize, AnalysisRow)]) -> Result<Report, String> {
    check_analysis(rows)?;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(id, r)| {
            let model = r
                .model_prediction
                .map_or_else(|| "confidence < TH".into(), |f| f.to_string());
            let executed: Vec<&str> = r.executed.iter().map(|f| f.name()).collect();
            let executed = Some(executed.join("+")).filter(|e| !e.is_empty());
            let executed = executed.unwrap_or_else(|| "-".into());
            let rw = if r.correct { "R" } else { "W" };
            let (smat, best) = (r.smat_format.to_string(), r.best_format.to_string());
            vec![
                format!("{id:>2}"),
                r.name.clone(),
                model,
                executed,
                smat,
                best,
                rw.into(),
                format!("{:.2}", r.overhead),
            ]
        })
        .collect();
    let headers = [
        "#",
        "matrix",
        "model prediction",
        "execution",
        "SMAT format",
        "best format",
        "R/W",
        "overhead (xCSR-SpMV)",
    ];
    let mut text = "== Table 3: SMAT decision analysis (double precision) ==\n\n".to_string();
    text += &render_table(&headers, &table);
    let correct = rows.iter().filter(|(_, r)| r.correct).count();
    let n = rows.len();
    text += &format!(
        "\nsuite accuracy: {correct}/{n} = {:.0}%\n",
        100.0 * correct as f64 / n.max(1) as f64
    );
    text += "paper: confident predictions cost ~2-5 CSR-SpMVs of overhead; fallback\n";
    text += "(execute-measure) rows cost ~15-16x; exhaustive conversion search ~45x.\n";
    let overheads = |predicted: bool| {
        let v = rows
            .iter()
            .filter(|(_, r)| r.model_prediction.is_some() == predicted);
        median(v.map(|(_, r)| r.overhead).collect())
    };
    let (predicted, fallback) = (overheads(true), overheads(false));
    let cell = |m: Option<f64>| m.map_or_else(|| "none".into(), |m| format!("{m:.2}"));
    let numbers = format!(
        "median overhead predicted {} vs fallback {} (xCSR-SpMV)",
        cell(predicted),
        cell(fallback)
    );
    let held = matches!((predicted, fallback), (Some(p), Some(f)) if p < f);
    let name = "Table 3: predicted rows cheaper than fallback rows";
    let claims = vec![Claim::new(name, held, numbers)];
    Ok(Report { text, claims })
}

/// One V-cycle solve's outcome: milliseconds, cycles, converged.
type Solve = (f64, usize, bool);

/// The highest operator complexity Table 4 accepts.
const MAX_COMPLEXITY: f64 = 4.0;

/// Table 4's health invariant: the hierarchy stops coarsening before
/// the level cap, at operator complexity at most [`MAX_COMPLEXITY`]. A
/// speedup measured on a hierarchy that fails it says nothing about AMG.
fn check_health(label: &str, h: &Hierarchy<f64>, cfg: &AmgConfig) -> Result<(), String> {
    let (levels, complexity) = (h.num_levels(), h.operator_complexity());
    if levels >= cfg.max_levels || complexity > MAX_COMPLEXITY {
        return Err(format!(
            "Table 4 {label}: unhealthy hierarchy, {levels} levels (cap {}), \
             operator complexity {complexity:.2} (at most {MAX_COMPLEXITY})",
            cfg.max_levels
        ));
    }
    Ok(())
}

/// Table 4's invariant: both solvers converge in the same number of
/// V-cycles (they iterate on identical hierarchies).
fn check_solves(label: &str, plain: Solve, tuned: Solve) -> Result<(), String> {
    if !(plain.2 && tuned.2) {
        return Err(format!("Table 4 {label}: both solvers must converge"));
    }
    if plain.1 != tuned.1 {
        return Err(format!(
            "Table 4 {label}: {} plain vs {} tuned V-cycles",
            plain.1, tuned.1
        ));
    }
    Ok(())
}

fn solve(solver: &AmgSolver<f64>, n: usize) -> Solve {
    let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 13) % 7) as f64 * 0.1).collect();
    let mut x = vec![0.0; n];
    let t0 = Instant::now();
    let stats = solver.solve(&b, &mut x, 1e-8, 100);
    (
        t0.elapsed().as_secs_f64() * 1e3,
        stats.iterations,
        stats.converged,
    )
}

/// One Table 4 row: set-up, tuning and both solves on `a`.
fn amg_case(label: &str, a: Csr<f64>, engine: &Smat<f64>) -> Result<Vec<String>, String> {
    let n = a.rows();
    let cfg = AmgConfig::default();
    let cycle = CycleConfig::default();
    eprintln!("{label}: timing set-up ({n} rows)...");
    let t0 = Instant::now();
    let hierarchy = setup(a.clone(), &cfg);
    let hierarchy_ms = t0.elapsed().as_secs_f64() * 1e3;
    check_health(label, &hierarchy, &cfg)?;
    engine.clear_cache();
    let t0 = Instant::now();
    black_box(CompiledHierarchy::with_smat(&hierarchy, engine));
    let tuning_ms = t0.elapsed().as_secs_f64() * 1e3;

    let plain = AmgSolver::new(a.clone(), &cfg, cycle);
    let smart = AmgSolver::with_smat(a, &cfg, cycle, engine);
    let formats: Vec<&str> = smart
        .compiled()
        .a_formats()
        .iter()
        .map(|f| f.name())
        .collect();
    let (p, s) = (solve(&plain, n), solve(&smart, n));
    check_solves(label, p, s)?;
    Ok(vec![
        label.into(),
        n.to_string(),
        hierarchy.num_levels().to_string(),
        format!("{:.2}", hierarchy.operator_complexity()),
        format!("{hierarchy_ms:.0}"),
        format!("{tuning_ms:.0}"),
        format!("{:.0}", p.0),
        format!("{:.0}", s.0),
        format!("{:.2}", p.0 / s.0),
        p.1.to_string(),
        formats.join("->"),
    ])
}

/// Table 4: plain-CSR vs SMAT-tuned AMG on Ruge–Stüben hierarchies over
/// the 7-point `n7`³ and the 9-point `n9`² Laplacians.
pub fn table4(engine: &Smat<f64>, n7: usize, n9: usize) -> Result<Report, String> {
    use smat_matrix::gen::laplacian_2d_9pt;
    let rows = vec![
        amg_case("rugeL 7pt", laplacian_3d_7pt(n7, n7, n7), engine)?,
        amg_case("rugeL 9pt", laplacian_2d_9pt(n9, n9), engine)?,
    ];
    let headers = [
        "coarsen",
        "rows",
        "levels",
        "op. complexity",
        "hierarchy (ms)",
        "tuning (ms)",
        "Hypre-style AMG (ms)",
        "SMAT AMG (ms)",
        "speedup",
        "V-cycles",
        "A formats per level",
    ];
    let mut text = "== Table 4: SMAT-based AMG execution time (milliseconds) ==\n".to_string();
    text += &format!("(grids: 7-point {n7}^3, 9-point {n9}^2)\n\n");
    text += &render_table(&headers, &rows);
    text += "\npaper (Xeon X5680): cljp 7pt 50^3 3034 -> 2487 ms (1.22x);\n";
    text += "rugeL 9pt 500^2 388 -> 300 ms (1.29x).\n";
    text += "note: our 7pt row coarsens by Ruge-Stuben, the paper's by CLJP.\n";
    Ok(text.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_features::ATTRIBUTE_NAMES;
    use smat_matrix::gen::tridiagonal;
    use std::cell::Cell;

    const HB: usize = Format::COUNT;

    /// A run over a small corpus whose labels are `labels[i]`: fixed
    /// labels, deterministic features, no timing.
    fn hand_built(labels: &[Format]) -> Run<f64> {
        let corpus = generate_corpus(&CorpusSpec::small(labels.len(), 7));
        Run::from_steps(corpus, KernelChoice::basic, |_, matrices| {
            fixed(matrices, labels)
        })
    }

    fn fixed(matrices: &[&Csr<f64>], labels: &[Format]) -> Dataset {
        let attrs = ATTRIBUTE_NAMES.iter().map(|s| s.to_string()).collect();
        let mut ds = Dataset::new(attrs, smat::class_names());
        for (m, label) in matrices.iter().zip(labels) {
            ds.push(extract_features(m).as_array().to_vec(), label.index())
                .expect("arity");
        }
        ds
    }

    /// `n` labels per format, in `Format::ALL` order, interleaved so the
    /// held-out head sees several formats.
    fn labels(n: [usize; HB]) -> Vec<Format> {
        let mut left = n;
        let mut out = Vec::new();
        while left.iter().any(|&k| k > 0) {
            for (f, k) in Format::ALL.iter().zip(&mut left) {
                if *k > 0 {
                    *k -= 1;
                    out.push(*f);
                }
            }
        }
        out
    }

    #[test]
    fn a_run_searches_once_and_labels_each_corpus_matrix_once() {
        let corpus = generate_corpus::<f64>(&CorpusSpec::small(24, 3));
        let seen: Vec<*const Csr<f64>> = corpus.iter().map(|e| &e.matrix as *const _).collect();
        let (searches, labellings) = (Cell::new(0), Cell::new(0));
        let want = labels([2, 2, 10, 6, 2, 1, 1]);
        let run = Run::from_steps(
            corpus,
            || {
                searches.set(searches.get() + 1);
                KernelChoice::basic()
            },
            |_, matrices| {
                labellings.set(labellings.get() + 1);
                // Every corpus matrix, once each and in corpus order.
                let given: Vec<*const Csr<f64>> = matrices.iter().map(|m| *m as *const _).collect();
                assert_eq!(given, seen);
                fixed(matrices, &want)
            },
        );
        assert_eq!((searches.get(), labellings.get()), (1, 1));
        assert_eq!(run.labels.len(), 24);
        assert_eq!(run.held_out, 3);
        assert_eq!(run.engine.model().stats.train_size, 21);
    }

    #[test]
    fn table1_fig6_and_held_out_read_one_label_per_matrix() {
        let want = labels([2, 2, 10, 6, 2, 1, 1]);
        let run = hand_built(&want);
        let sizes = partition(&run.labels).map(|p| p.len());
        assert_eq!(sizes, [2, 2, 10, 6, 2, 1, 1]);
        let t1 = table1(&run).expect("invariants hold");
        assert!(t1.text.contains("Percentage"));
        let f6 = fig6(&run).expect("no invariant");
        assert!(f6
            .text
            .contains("DIA 2, ELL 2, CSR 10, COO 6, HYB 2, BCSR2 1, BCSR4 1"));
        let eval = held_out(&run);
        let stored: Vec<Format> = eval.pairs.iter().map(|p| p.0).collect();
        assert_eq!(stored, want[..run.held_out]);
    }

    #[test]
    fn table1_claim_holds_on_the_paper_order_only() {
        let run = hand_built(&labels([2, 2, 10, 6, 0, 0, 0]));
        let claim = &table1(&run).unwrap().claims[0];
        assert!(claim.held, "{claim:?}");
        assert_eq!(claim.numbers, "DIA 10%, ELL 10%, CSR 50%, COO 30%");
        // COO at or below ELL breaks the order.
        let run = hand_built(&labels([2, 6, 10, 2, 0, 0, 0]));
        assert!(!table1(&run).unwrap().claims[0].held);
    }

    #[test]
    fn table1_totals_must_match_classes_and_partition() {
        assert!(check_totals(&[1, 2], &[1, 2], &[1, 2]).is_ok());
        assert!(check_totals(&[1, 2], &[2, 1], &[1, 2]).is_err());
        assert!(check_totals(&[1, 2], &[1, 2], &[1, 1]).is_err());
    }

    fn eval(pairs: Vec<(Format, Format)>, held_out: usize) -> HeldOut {
        HeldOut {
            precision: "double",
            held_out,
            pairs,
            tailoring: String::new(),
        }
    }

    #[test]
    fn accuracy_claim_is_the_share_of_stored_labels_hit() {
        let (c, d) = (Format::Csr, Format::Dia);
        let hit4 = vec![(c, c), (c, c), (d, d), (d, d), (d, c)];
        let report = accuracy(&[eval(hit4, 5)]).unwrap();
        assert!(report.claims[0].held, "4/5 is 80%");
        assert!(report.text.contains("accuracy 80% (4/5 held out)"));
        let hit3 = vec![(c, c), (c, c), (d, d), (d, c), (d, c)];
        assert!(!accuracy(&[eval(hit3, 5)]).unwrap().claims[0].held);
    }

    #[test]
    fn confusion_rows_must_sum_to_the_held_out_count() {
        let pairs = vec![(Format::Csr, Format::Csr); 3];
        assert!(accuracy(&[eval(pairs.clone(), 3)]).is_ok());
        let err = accuracy(&[eval(pairs, 4)]).unwrap_err();
        assert!(err.contains("counts 3 matrices, 4 were held out"), "{err}");
    }

    fn entry(id: usize, paper_format: Format) -> SuiteEntry<f64> {
        SuiteEntry {
            id,
            name: "tiny",
            paper_name: "paper",
            area: "test",
            paper_format,
            matrix: tridiagonal(4),
        }
    }

    #[test]
    fn fig3_winners_and_gap_cover_every_printed_format() {
        let suite = [entry(1, Format::Dia), entry(2, Format::Coo)];
        // Row 1's slowest format is BCSR2, a column past the paper's four.
        let perf = [
            [4.0, 2.0, 2.0, 1.0, 2.0, 0.5, 0.0],
            [0.0, 0.0, 1.0, 2.0, 3.0, 1.0, 0.0],
        ];
        let report = fig3(&suite, &perf).unwrap();
        assert!(report.text.contains("8.0x"), "{}", report.text);
        assert!(report.text.contains("BCSR4"));
        // HYB is fastest on row 2, but the claim is among the paper's formats.
        assert!(report.claims[0].held);
        let suite = [entry(1, Format::Ell), entry(2, Format::Coo)];
        let claim = &fig3(&suite, &perf).unwrap().claims[0];
        assert!(!claim.held);
        assert!(
            claim.numbers.contains("#1 DIA (paper ELL)"),
            "{}",
            claim.numbers
        );
    }

    fn suite_row(id: usize, smat: f64, reference: f64) -> SuiteRow {
        SuiteRow {
            id,
            name: "tiny",
            format: Format::Csr,
            smat,
            reference,
            routine: "csrgemv",
        }
    }

    #[test]
    fn fig10_claim_is_the_geometric_mean_speedup() {
        let rows = [suite_row(1, 2.0, 1.0), suite_row(2, 1.0, 1.5)];
        let claim = &fig10(&[("single", &rows)]).unwrap().claims[0];
        assert!(claim.held, "sqrt(2 / 1.5) > 1");
        let rows = [suite_row(1, 1.0, 1.0), suite_row(2, 1.0, 1.5)];
        assert!(!fig10(&[("double", &rows)]).unwrap().claims[0].held);
    }

    #[test]
    fn fig9_prints_both_precisions() {
        let rows = [suite_row(1, 2.0, 1.0), suite_row(2, 0.5, 1.0)];
        let report = fig9(&rows, &rows).unwrap();
        assert!(report
            .text
            .contains("variation across matrices: 4.0x (SP), 4.0x (DP)"));
        assert!(report.claims.is_empty());
    }

    fn analysis(predicted: bool, overhead: f64, correct: bool) -> (usize, AnalysisRow) {
        let row = AnalysisRow {
            name: "tiny".into(),
            model_prediction: predicted.then_some(Format::Dia),
            executed: if predicted {
                vec![]
            } else {
                vec![Format::Csr, Format::Coo]
            },
            smat_format: Format::Dia,
            best_format: if correct { Format::Dia } else { Format::Csr },
            correct,
            overhead,
            smat_gflops: 1.0,
            format_gflops: [1.0; Format::COUNT],
        };
        (1, row)
    }

    #[test]
    fn table3_claim_compares_median_overheads() {
        let rows = [
            analysis(true, 3.0, true),
            analysis(true, 30.0, true),
            analysis(false, 15.0, false),
            analysis(false, 20.0, true),
        ];
        let claim = &table3(&rows).unwrap().claims[0];
        assert!(claim.held, "{claim:?}");
        let rows = [analysis(true, 30.0, true), analysis(false, 15.0, true)];
        assert!(!table3(&rows).unwrap().claims[0].held);
        // No fallback rows: the split cannot be shown.
        assert!(!table3(&[analysis(true, 1.0, true)]).unwrap().claims[0].held);
    }

    #[test]
    fn table3_right_or_wrong_must_match_the_formats() {
        let mut rows = [analysis(true, 3.0, true)];
        assert!(check_analysis(&rows).is_ok());
        rows[0].1.correct = false;
        assert!(table3(&rows).is_err());
    }

    #[test]
    fn table4_solves_must_converge_in_equal_cycles() {
        assert!(check_solves("t", (1.0, 9, true), (0.5, 9, true)).is_ok());
        assert!(check_solves("t", (1.0, 9, true), (0.5, 9, false)).is_err());
        assert!(check_solves("t", (1.0, 9, true), (0.5, 10, true)).is_err());
    }

    #[test]
    fn table4_hierarchies_must_be_healthy() {
        use smat_matrix::gen::laplacian_2d_5pt;
        let cfg = AmgConfig::default();
        let healthy = setup(laplacian_2d_5pt(24, 24), &cfg);
        assert!(check_health("t", &healthy, &cfg).is_ok());
        let capped = AmgConfig {
            max_levels: healthy.num_levels(),
            ..cfg
        };
        assert!(check_health("t", &healthy, &capped).is_err());
        // Four copies of one operator: complexity 4 holds, a fifth breaks it.
        let mut dense = healthy.clone();
        dense.levels = vec![dense.levels[0].clone(); 4];
        assert!(check_health("t", &dense, &cfg).is_ok());
        dense.levels.push(dense.levels[0].clone());
        assert!(check_health("t", &dense, &cfg).is_err());
    }

    #[test]
    fn fig1_and_table4_run_at_a_tiny_size() {
        let report = fig1(4).unwrap();
        assert!(report.text.contains("4^3 grid"));
        let run = hand_built(&labels([2, 2, 4, 2, 0, 0, 0]));
        let report = table4(&run.engine, 4, 8).unwrap();
        assert!(report.text.contains("rugeL 7pt") && report.text.contains("rugeL 9pt"));
    }

    #[test]
    fn render_table_pads_columns_to_the_widest_cell() {
        let text = render_table(&["a", "bb"], &[vec!["ccc".into(), "d".into()]]);
        assert_eq!(text, "a    bb\n---------\nccc  d\n");
    }
}
