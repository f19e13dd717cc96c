//! The off-line stage of Figure 4: kernel search, feature-database
//! construction (training labels by exhaustive measurement), model
//! generation (tree → ruleset → ordering → tailoring → grouping).

use crate::config::SmatConfig;
use crate::error::{Result, SmatError};
use crate::model::{class_names, group_class_order, TrainStats, TrainedModel};
use smat_features::{extract_features, ATTRIBUTE_NAMES};
use smat_kernels::timing::{decide, gflops, measure_round_robin};
use smat_kernels::{measure_format, ExecPlan, KernelChoice, KernelLibrary, PerfTable, Planner};
use smat_learn::{
    order_by_contribution, tailor, Dataset, DecisionTree, RuleGroups, RuleSet, TreeParams,
    DEFAULT_TAILOR_TOLERANCE,
};
use smat_matrix::gen::{
    banded, block_sparse, fixed_degree, power_law, random_skewed, random_uniform,
};
use smat_matrix::{AnyMatrix, Csr, Format, Scalar};
use std::time::Duration;

/// Measures the chosen kernel of every format on `m` and returns the
/// per-format throughputs (0 for formats whose conversion was refused
/// or whose kernel panicked or overran
/// [`smat_kernels::DEFAULT_CANDIDATE_DEADLINE`]).
///
/// This is the ground-truth labeling step: the paper's "Best_Format"
/// target attribute comes from exactly this exhaustive measurement.
/// Every format `m` converts to is held at once and measured in one
/// round-robin ([`smat_kernels::measure_round_robin`]), so every kernel
/// execution is panic-isolated and deadlined and a single misbehaving
/// candidate cannot abort corpus labeling.
pub fn measure_formats<T: Scalar>(
    lib: &KernelLibrary<T>,
    choice: &KernelChoice,
    m: &Csr<T>,
    budget: Duration,
) -> [f64; Format::COUNT] {
    label_best_format(lib, choice, m, budget).1
}

/// The measured best format for `m` and [`measure_formats`]' numbers:
/// [`decide`] over one measurement of every format `m` converts to, so
/// CSR unless another format beats it by more than
/// [`smat_kernels::MARGIN`] (and CSR when nothing measured).
pub fn label_best_format<T: Scalar>(
    lib: &KernelLibrary<T>,
    choice: &KernelChoice,
    m: &Csr<T>,
    budget: Duration,
) -> (Format, [f64; Format::COUNT]) {
    // One planner for all of `m`'s conversions: the partitions are
    // either shape-only (equal rows) or specific to one format.
    let mut planner = Planner::new();
    let converted: Vec<(AnyMatrix<T>, usize, ExecPlan)> = Format::ALL
        .into_iter()
        .filter_map(|format| AnyMatrix::convert_from_csr(m, format).ok())
        .map(|any| {
            let kernel = choice.kernel(any.format());
            let plan = planner.plan_for(lib, &any, kernel);
            (any, kernel.variant, plan)
        })
        .collect();
    let x = vec![T::ONE; m.cols()];
    let mut y = vec![T::ZERO; m.rows()];
    let outcomes = measure_round_robin(
        converted.len(),
        |i| {
            let (any, variant, plan) = &converted[i];
            lib.run_planned(any, *variant, plan, &x, &mut y)
        },
        3..=32,
        budget,
        smat_kernels::DEFAULT_CANDIDATE_DEADLINE,
        None,
    );
    let mut perf = [0.0f64; Format::COUNT];
    for ((any, ..), outcome) in converted.iter().zip(&outcomes) {
        if let Some(floor) = outcome.ok() {
            perf[any.format().index()] = gflops(m.nnz(), floor);
        }
    }
    let csr = converted
        .iter()
        .position(|(any, ..)| any.format() == Format::Csr);
    let best = decide(&outcomes, csr).map_or(Format::Csr, |i| converted[i].0.format());
    (best, perf)
}

/// Everything the off-line stage produces.
#[derive(Debug, Clone)]
pub struct TrainingOutput {
    /// The trained model (rules + kernels).
    pub model: TrainedModel,
    /// The feature database the model was fitted on.
    pub database: Dataset,
    /// Perf tables from the kernel search (one per format probe).
    pub perf_tables: Vec<PerfTable>,
}

/// The off-line trainer.
#[derive(Debug, Clone, Default)]
pub struct Trainer {
    /// Tuning configuration.
    pub config: SmatConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: SmatConfig) -> Self {
        Self { config }
    }

    /// Runs the offline kernel search on one format-friendly probe
    /// matrix per format (each format is measured where it plausibly
    /// wins, so the scoreboard scores strategies under realistic access
    /// patterns).
    pub fn search_kernels<T: Scalar>(
        &self,
        lib: &KernelLibrary<T>,
    ) -> (KernelChoice, Vec<PerfTable>) {
        let n = self.config.probe_dim.max(64);
        let mut choice = KernelChoice::basic();
        let mut tables = Vec::with_capacity(Format::COUNT);
        for format in Format::ALL {
            let probe: Csr<T> = match format {
                Format::Dia => banded(n, &[-4, -2, -1, 0, 1, 2, 3, 5, 8], 1.0, 0xD1A),
                Format::Ell => fixed_degree(n, n, 16.min(n / 4).max(1), 0, 0xE11),
                Format::Csr => random_uniform(n, n, 16.min(n / 4).max(1), 0xC59),
                Format::Coo => power_law(n, (n / 8).clamp(8, 4096), 2.0, 0xC00),
                Format::Hyb => random_skewed(n, n, 12.min(n / 8).max(1), 0.04, 16, 0x44B),
                // Dense 2x2 / 4x4 block structure: the access pattern the
                // register-blocked tier is built for. Dimensions snapped
                // down to a block multiple (generator requirement).
                Format::Bcsr2 => block_sparse(n - n % 2, 2, 8.min(n / 4).max(1), 0xBC52),
                Format::Bcsr4 => block_sparse(n - n % 4, 4, 4.min(n / 8).max(1), 0xBC54),
            };
            let any = AnyMatrix::convert_from_csr(&probe, format)
                .expect("probe matrices convert to their own format");
            let table = measure_format(
                lib,
                &any,
                self.config.search_budget,
                self.config.candidate_deadline,
                &[],
            );
            choice.set(format, table.scoreboard().best_variant);
            tables.push(table);
        }
        (choice, tables)
    }

    /// Builds the feature database: one record per matrix, labeled with
    /// the measured best format.
    pub fn build_database<T: Scalar>(
        &self,
        lib: &KernelLibrary<T>,
        choice: &KernelChoice,
        matrices: &[&Csr<T>],
    ) -> Dataset {
        let attrs: Vec<String> = ATTRIBUTE_NAMES.iter().map(|s| s.to_string()).collect();
        let mut ds = Dataset::new(attrs, class_names());
        for m in matrices {
            let features = extract_features(m);
            let (label, _) = label_best_format(lib, choice, m, self.config.fallback_budget);
            ds.push(features.as_array().to_vec(), label.index())
                .expect("feature vector arity matches schema");
        }
        ds
    }

    /// The full off-line pipeline on an already-built feature database.
    ///
    /// # Errors
    ///
    /// Returns [`SmatError::Training`] if the database is empty.
    pub fn fit<T: Scalar>(
        &self,
        database: &Dataset,
        kernel_choice: KernelChoice,
    ) -> Result<TrainedModel> {
        if database.is_empty() {
            return Err(SmatError::Training("empty feature database".into()));
        }
        // Excluded attributes are constified rather than dropped so rule
        // indices stay aligned with full runtime feature vectors.
        let masked;
        let database = if self.config.excluded_attributes.is_empty() {
            database
        } else {
            masked = database.neutralize(&self.config.excluded_attributes);
            &masked
        };
        let tree = DecisionTree::fit(database, TreeParams::default());
        let raw = RuleSet::from_tree(&tree, database);
        let ordered = order_by_contribution(&raw, database);
        let train_accuracy = ordered.accuracy(database);
        let tailored = tailor(&ordered, database, DEFAULT_TAILOR_TOLERANCE);
        let tailored_accuracy = tailored.accuracy(database);
        let groups = RuleGroups::from_ruleset(&tailored, &group_class_order());
        let counts = database.class_counts();
        let mut label_counts = [0usize; Format::COUNT];
        label_counts.copy_from_slice(&counts[..Format::COUNT]);
        Ok(TrainedModel {
            precision: T::PRECISION_NAME.to_string(),
            ruleset: ordered,
            groups,
            kernel_choice,
            stats: TrainStats {
                train_size: database.len(),
                train_accuracy,
                tailored_accuracy,
                rules_total: raw.len(),
                rules_kept: tailored.len(),
                label_counts,
            },
        })
    }

    /// Extends an existing feature database with newly labeled matrices
    /// and refits the model — the paper's incremental-training claim
    /// ("open to add new matrices and corresponding records into the
    /// database to improve the prediction accuracy").
    ///
    /// # Errors
    ///
    /// Returns [`SmatError::Training`] if the merged database is empty
    /// or schemas mismatch.
    pub fn extend_and_refit<T: Scalar>(
        &self,
        database: &mut Dataset,
        kernel_choice: KernelChoice,
        new_matrices: &[&Csr<T>],
    ) -> Result<TrainedModel> {
        let lib = KernelLibrary::<T>::new();
        let additions = self.build_database(&lib, &kernel_choice, new_matrices);
        database
            .merge(&additions)
            .map_err(|e| SmatError::Training(e.to_string()))?;
        self.fit::<T>(database, kernel_choice)
    }

    /// End-to-end off-line stage: kernel search, database construction
    /// and model fitting.
    ///
    /// # Errors
    ///
    /// Returns [`SmatError::Training`] if `matrices` is empty.
    pub fn train<T: Scalar>(&self, matrices: &[&Csr<T>]) -> Result<TrainingOutput> {
        if matrices.is_empty() {
            return Err(SmatError::Training("no training matrices".into()));
        }
        let lib = KernelLibrary::<T>::new();
        let (choice, perf_tables) = self.search_kernels(&lib);
        let database = self.build_database(&lib, &choice, matrices);
        let model = self.fit::<T>(&database, choice)?;
        Ok(TrainingOutput {
            model,
            database,
            perf_tables,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_matrix::gen::{laplacian_2d_5pt, tridiagonal};

    fn trainer() -> Trainer {
        Trainer::new(SmatConfig::fast())
    }

    #[test]
    fn measure_formats_returns_positive_for_feasible() {
        let lib = KernelLibrary::<f64>::new();
        let m = tridiagonal::<f64>(2000);
        let perf = measure_formats(&lib, &KernelChoice::basic(), &m, Duration::from_micros(200));
        for f in Format::ALL {
            assert!(perf[f.index()] > 0.0, "{f} should be measurable");
        }
    }

    #[test]
    fn label_prefers_dia_on_strong_diagonal_matrix() {
        let lib = KernelLibrary::<f64>::new();
        let trainer = trainer();
        let (choice, _) = trainer.search_kernels(&lib);
        let m = laplacian_2d_5pt::<f64>(120, 120);
        let (label, perf) = label_best_format(&lib, &choice, &m, Duration::from_millis(2));
        // On a pure stencil, DIA or ELL should beat COO handily; assert
        // the weaker, machine-independent property.
        assert!(perf[label.index()] >= perf[Format::Coo.index()]);
    }

    #[test]
    fn train_produces_usable_model() {
        let trainer = trainer();
        let m1 = tridiagonal::<f64>(400);
        let m2 = random_uniform::<f64>(300, 300, 8, 1);
        let m3 = power_law::<f64>(300, 60, 2.0, 2);
        let m4 = fixed_degree::<f64>(300, 300, 6, 0, 3);
        let out = trainer
            .train(&[&m1, &m2, &m3, &m4, &m1, &m2, &m3, &m4])
            .unwrap();
        assert_eq!(out.database.len(), 8);
        assert_eq!(out.model.precision, "double");
        assert_eq!(out.perf_tables.len(), Format::COUNT);
        assert!(out.model.stats.train_accuracy > 0.0);
        // Model must answer any feature vector without panicking.
        let f = extract_features(&m3);
        let _ = out.model.predict(&f);
    }

    #[test]
    fn empty_training_set_errors() {
        let trainer = trainer();
        let err = trainer.train::<f64>(&[]).unwrap_err();
        assert!(matches!(err, SmatError::Training(_)));
    }

    #[test]
    fn excluded_attributes_never_appear_in_rules() {
        // Exclude the power-law attribute R (index 10): no learned rule
        // may test it, mirroring the paper's add/remove-parameter knob.
        let mut config = SmatConfig::fast();
        config.excluded_attributes = vec![10];
        let trainer = Trainer::new(config);
        let m1 = tridiagonal::<f64>(400);
        let m2 = random_uniform::<f64>(300, 300, 8, 1);
        let m3 = power_law::<f64>(300, 60, 2.0, 2);
        let out = trainer.train(&[&m1, &m2, &m3, &m1, &m2, &m3]).unwrap();
        for rule in &out.model.ruleset.rules {
            assert!(
                rule.conditions.iter().all(|c| c.attr != 10),
                "rule tests the excluded attribute R"
            );
        }
    }

    #[test]
    fn extend_and_refit_grows_the_database() {
        let trainer = trainer();
        let m1 = tridiagonal::<f64>(300);
        let m2 = random_uniform::<f64>(250, 250, 6, 1);
        let mut out = trainer.train(&[&m1, &m2]).unwrap();
        let before = out.database.len();
        let m3 = power_law::<f64>(300, 60, 2.0, 7);
        let model = trainer
            .extend_and_refit(
                &mut out.database,
                out.model.kernel_choice.clone(),
                &[&m3, &m3],
            )
            .unwrap();
        assert_eq!(out.database.len(), before + 2);
        assert_eq!(model.stats.train_size, before + 2);
    }

    #[test]
    fn fit_on_single_class_database_degenerates_gracefully() {
        let trainer = trainer();
        let attrs: Vec<String> = ATTRIBUTE_NAMES.iter().map(|s| s.to_string()).collect();
        let mut ds = Dataset::new(attrs, class_names());
        for i in 0..10 {
            ds.push(vec![i as f64; 11], Format::Csr.index()).unwrap();
        }
        let model = trainer.fit::<f32>(&ds, KernelChoice::basic()).unwrap();
        // Everything predicts CSR, whether by rule or default.
        let f = smat_features::FeatureVector::from_array([1.0; 11]);
        assert_eq!(model.predict(&f).format, Format::Csr);
        assert_eq!(model.precision, "single");
    }
}
