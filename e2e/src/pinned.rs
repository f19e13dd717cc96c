//! The pinned tuner state every workload runs on.
//!
//! `Trainer::train` measures kernels and formats on the live machine,
//! so two processes given the same corpus get two different tuners
//! (different rules, different kernel table) and then differ by 2x on
//! the metrics this benchmark reports. The benchmark instead holds the
//! learned state fixed:
//!
//! * the **rules** come from `Trainer::fit` on a corpus generated from
//!   a constant seed whose labels are a pure function of each matrix's
//!   archetype, plus the suite's own feature vectors (at a constant
//!   seed) with their intended labels — nothing is measured;
//! * the **kernel table** is set by variant *name* from
//!   `fixtures/kernel_choice.txt`, the modal winner of several live
//!   searches on the builder's machine. An unknown name is an error,
//!   never a silent fallback to another kernel.
//!
//! `fixtures/expected_decisions.txt` records the `(format, kernel)`
//! this state yields for every named input; a run that decides
//! otherwise counts it in `core.decision_drift`.

use crate::inputs::{self, Scale};
use smat::{SmatConfig, TrainedModel, Trainer};
use smat_features::{extract_features, ATTRIBUTE_NAMES};
use smat_kernels::{KernelChoice, KernelLibrary};
use smat_learn::{Dataset, RuleGroups};
use smat_matrix::gen::{generate_corpus, Archetype, CorpusSpec};
use smat_matrix::Format;
use std::collections::BTreeMap;

pub const KERNEL_CHOICE_FIXTURE: &str = include_str!("../fixtures/kernel_choice.txt");
pub const EXPECTED_DECISIONS_FIXTURE: &str = include_str!("../fixtures/expected_decisions.txt");

/// Seed of the training corpus: a constant, *not* the workload seed.
const CORPUS_SEED: u64 = 0x5AA7_E2E0;
/// Constant seed of the suite copy whose feature vectors join the
/// training set, so the rules separate the suite's structures at any
/// workload seed.
const PINNED_SUITE_SEED: u64 = 0xA1;
/// Each suite row is pushed this many times, so a leaf holding only
/// suite rows is not pruned away as noise.
const SUITE_ROW_WEIGHT: usize = 3;

/// The label of a corpus matrix: a pure function of the generator that
/// produced it.
pub fn archetype_label(archetype: Archetype) -> Format {
    match archetype {
        Archetype::TrueDiagonal | Archetype::Stencil => Format::Dia,
        Archetype::UniformDegree => Format::Ell,
        Archetype::LowVarianceDegree => Format::Hyb,
        Archetype::PowerLawGraph => Format::Coo,
        Archetype::BlockSparse => Format::Bcsr4,
        _ => Format::Csr,
    }
}

/// Parses `fixtures/kernel_choice.txt`: one `FORMAT variant_name` pair
/// per line, `#` starts a comment. Every format must be named exactly
/// once and every name must exist in this build's kernel library.
pub fn parse_kernel_choice(text: &str, lib: &KernelLibrary<f64>) -> Result<KernelChoice, String> {
    let mut choice = KernelChoice::basic();
    let mut seen = [false; Format::COUNT];
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (format_name, variant_name) = line
            .split_once(char::is_whitespace)
            .ok_or_else(|| format!("kernel_choice.txt: malformed line {line:?}"))?;
        let variant_name = variant_name.trim();
        let format = Format::ALL
            .into_iter()
            .find(|f| f.name() == format_name)
            .ok_or_else(|| format!("kernel_choice.txt: unknown format {format_name:?}"))?;
        let variant = lib
            .variants(format)
            .iter()
            .position(|v| v.name == variant_name)
            .ok_or_else(|| {
                format!(
                    "kernel_choice.txt: the kernel library has no {format_name} variant named \
                     {variant_name:?}; re-run with --regen-fixtures after a library change"
                )
            })?;
        if std::mem::replace(&mut seen[format.index()], true) {
            return Err(format!("kernel_choice.txt: {format_name} named twice"));
        }
        choice.set(format, variant);
    }
    if let Some(missing) = Format::ALL.into_iter().find(|f| !seen[f.index()]) {
        return Err(format!("kernel_choice.txt: no line for {}", missing.name()));
    }
    Ok(choice)
}

/// Parses `fixtures/expected_decisions.txt`: `input FORMAT kernel` per
/// line.
pub fn parse_expected_decisions(text: &str) -> Result<BTreeMap<String, (String, String)>, String> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [input, format, kernel] = fields[..] else {
            return Err(format!("expected_decisions.txt: malformed line {line:?}"));
        };
        out.insert(input.to_string(), (format.to_string(), kernel.to_string()));
    }
    Ok(out)
}

/// The pinned model plus what building it cost, for `learn.fit_s`.
pub struct Pinned {
    pub model: TrainedModel,
    /// Seconds in `Trainer::fit` alone (corpus generation and feature
    /// extraction are reported by their own layers).
    pub fit_s: f64,
}

/// Builds the pinned model from the shipped kernel table.
pub fn pinned_model(scale: Scale) -> Result<Pinned, String> {
    pinned_model_with(scale, KERNEL_CHOICE_FIXTURE)
}

/// Builds the pinned model with the kernel table given as fixture text.
/// Deterministic: no kernel runs, and no clock is read on any path
/// that influences the result.
pub fn pinned_model_with(scale: Scale, kernel_choice: &str) -> Result<Pinned, String> {
    let corpus = generate_corpus::<f64>(&CorpusSpec {
        count: 240,
        seed: CORPUS_SEED,
        min_dim: 512,
        max_dim: 8192,
    });
    let attributes: Vec<String> = ATTRIBUTE_NAMES.iter().map(|s| s.to_string()).collect();
    let mut database = Dataset::new(attributes, smat::class_names());
    let mut push = |features: Vec<f64>, label: Format| {
        database
            .push(features, label.index())
            .expect("feature vectors have the schema's arity");
    };
    for entry in &corpus {
        push(
            extract_features(&entry.matrix).as_array().to_vec(),
            archetype_label(entry.archetype),
        );
    }
    let named = inputs::suite(PINNED_SUITE_SEED, scale)
        .into_iter()
        .chain(inputs::warm_matrices(PINNED_SUITE_SEED, scale));
    for input in named {
        let label = input.intended.expect("named inputs state their intent");
        let features = extract_features(&input.matrix).as_array().to_vec();
        for _ in 0..SUITE_ROW_WEIGHT {
            push(features.clone(), label);
        }
    }
    let lib = KernelLibrary::<f64>::new();
    let choice = parse_kernel_choice(kernel_choice, &lib)?;
    let t0 = std::time::Instant::now();
    let mut model = Trainer::new(SmatConfig::default())
        .fit::<f64>(&database, choice)
        .map_err(|e| format!("fitting the pinned model: {e}"))?;
    // Tailoring keeps the shortest rule prefix that matches the full
    // set's accuracy, which drops every rule of the majority class
    // (CSR): CSR-shaped inputs would then match nothing and always
    // take execute-and-measure, whose outcome differs from run to
    // run. The pinned model consults the full ordered ruleset.
    model.groups = RuleGroups::from_ruleset(&model.ruleset, &smat::group_class_order());
    let fit_s = t0.elapsed().as_secs_f64();
    Ok(Pinned { model, fit_s })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_fixtures_parse_against_this_library() {
        let lib = KernelLibrary::<f64>::new();
        let choice = parse_kernel_choice(KERNEL_CHOICE_FIXTURE, &lib).expect("fixture parses");
        for format in Format::ALL {
            assert!(choice.kernel(format).variant < lib.variant_count(format));
        }
        let expected = parse_expected_decisions(EXPECTED_DECISIONS_FIXTURE).expect("parses");
        for input in inputs::suite(1, Scale::Quick) {
            assert!(expected.contains_key(&input.name), "{} missing", input.name);
        }
    }

    #[test]
    fn unknown_variant_name_is_an_error_not_a_fallback() {
        let lib = KernelLibrary::<f64>::new();
        let text = KERNEL_CHOICE_FIXTURE.replace("csr_", "csr_no_such_");
        let err = parse_kernel_choice(&text, &lib).expect_err("must be refused");
        assert!(err.contains("no CSR variant named"), "{err}");
        let err = parse_kernel_choice("CSR csr_basic\n", &lib).expect_err("incomplete");
        assert!(err.contains("no line for"), "{err}");
    }

    #[test]
    fn labels_are_a_function_of_the_archetype_alone() {
        assert_eq!(archetype_label(Archetype::Stencil), Format::Dia);
        assert_eq!(archetype_label(Archetype::ScatteredDiagonal), Format::Csr);
        assert_eq!(archetype_label(Archetype::RandomUnstructured), Format::Csr);
        assert_eq!(archetype_label(Archetype::BlockSparse), Format::Bcsr4);
    }
}
