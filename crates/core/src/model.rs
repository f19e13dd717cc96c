//! The trained SMAT model: tailored rule groups plus the kernel choice —
//! everything the off-line stage of Figure 4 produces and the runtime
//! consumes.

use crate::config::GROUP_ORDER;
use crate::error::Result;
use crate::retry::RetryPolicy;
use crate::sealed;
use serde::{Deserialize, Serialize};
use smat_features::FeatureVector;
use smat_kernels::KernelChoice;
use smat_learn::{RuleGroups, RuleSet};
use smat_matrix::Format;
use std::path::Path;

/// Summary statistics of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainStats {
    /// Number of training matrices.
    pub train_size: usize,
    /// Ruleset accuracy on the training set, before tailoring.
    pub train_accuracy: f64,
    /// Ruleset accuracy of the tailored prefix on the training set.
    pub tailored_accuracy: f64,
    /// Rules extracted from the tree.
    pub rules_total: usize,
    /// Rules kept after tailoring.
    pub rules_kept: usize,
    /// Label distribution of the training set, indexed by
    /// [`Format::index`].
    pub label_counts: [usize; Format::COUNT],
}

/// A complete trained model (per numerical precision).
///
/// Serializable to JSON so the expensive off-line stage runs once per
/// machine and is then reused — the paper's "reusability" property.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainedModel {
    /// `"single"` or `"double"` — the paper trains one model per
    /// precision.
    pub precision: String,
    /// The full ordered ruleset (kept for inspection and ablations).
    pub ruleset: RuleSet,
    /// Tailored rules grouped in [`GROUP_ORDER`] — what the runtime
    /// consults.
    pub groups: RuleGroups,
    /// Kernel variant selected per format by the scoreboard search.
    pub kernel_choice: KernelChoice,
    /// Training statistics.
    pub stats: TrainStats,
}

impl TrainedModel {
    /// Predicts the best format for a feature vector via the grouped
    /// rules (no early-exit bookkeeping — the runtime handles lazy `R`).
    pub fn predict(&self, features: &FeatureVector) -> FormatDecision {
        let d = self.groups.decide(&features.as_array());
        FormatDecision {
            format: Format::from_index(d.class),
            confidence: d.confidence,
            matched: d.matched,
        }
    }

    /// Saves the model as pretty JSON, sealed with a content checksum
    /// and written atomically (see [`crate::sealed`]).
    ///
    /// # Errors
    ///
    /// Returns [`crate::SmatError::Persist`] on I/O or serialization
    /// failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        sealed::save(self, path.as_ref(), "model.save", RetryPolicy::default())
    }

    /// Loads a model saved by [`TrainedModel::save`], verifying its
    /// checksum: the rules steer every decision, so a file edited after
    /// it was saved is refused even when it still parses.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SmatError::Persist`] on I/O or deserialization
    /// failure, and [`crate::SmatError::Corrupt`] when the contents do
    /// not match the recorded checksum.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let policy = RetryPolicy::default();
        sealed::load("trained model", path.as_ref(), "model.load", policy)
    }
}

/// A format prediction with its confidence factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FormatDecision {
    /// Predicted storage format.
    pub format: Format,
    /// The matched group's confidence factor (0 when the default class
    /// answered).
    pub confidence: f64,
    /// Whether a rule matched (as opposed to the default class).
    pub matched: bool,
}

/// Class names for the learner's datasets, in [`Format::index`] order.
pub fn class_names() -> Vec<String> {
    Format::ALL.iter().map(|f| f.name().to_string()).collect()
}

/// The class-index consultation order corresponding to [`GROUP_ORDER`].
pub fn group_class_order() -> Vec<usize> {
    GROUP_ORDER.iter().map(|f| f.index()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_learn::{Condition, Op, Rule};

    fn tiny_model() -> TrainedModel {
        // One hand-built rule: Ndiags <= 10 -> DIA.
        let attrs: Vec<String> = smat_features::ATTRIBUTE_NAMES
            .iter()
            .map(|s| s.to_string())
            .collect();
        let rule = Rule {
            conditions: vec![Condition {
                attr: 6, // Ndiags
                op: Op::Le,
                threshold: 10.0,
            }],
            class: Format::Dia.index(),
            covered: 10,
            correct: 9,
        };
        let ruleset = RuleSet {
            rules: vec![rule],
            default_class: Format::Csr.index(),
            attributes: attrs,
            classes: class_names(),
        };
        let groups = RuleGroups::from_ruleset(&ruleset, &group_class_order());
        TrainedModel {
            precision: "double".into(),
            ruleset,
            groups,
            kernel_choice: KernelChoice::basic(),
            stats: TrainStats {
                train_size: 10,
                train_accuracy: 0.9,
                tailored_accuracy: 0.9,
                rules_total: 1,
                rules_kept: 1,
                label_counts: [10, 0, 0, 0, 0, 0, 0],
            },
        }
    }

    fn features(ndiags: f64) -> FeatureVector {
        FeatureVector {
            m: 100.0,
            n: 100.0,
            nnz: 500.0,
            aver_rd: 5.0,
            max_rd: 5.0,
            var_rd: 0.0,
            ndiags,
            ntdiags_ratio: 1.0,
            er_dia: 1.0,
            er_ell: 1.0,
            r: smat_features::R_NOT_SCALE_FREE,
        }
    }

    #[test]
    fn predict_follows_rules_and_default() {
        let m = tiny_model();
        let d = m.predict(&features(5.0));
        assert_eq!(d.format, Format::Dia);
        assert!(d.matched);
        assert!((d.confidence - 0.9).abs() < 1e-12);

        let d = m.predict(&features(50.0));
        assert_eq!(d.format, Format::Csr);
        assert!(!d.matched);
        assert_eq!(d.confidence, 0.0);
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("smat_core_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        let m = tiny_model();
        m.save(&path).unwrap();
        let back = TrainedModel::load(&path).unwrap();
        assert_eq!(back, m);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn class_order_matches_paper_plus_extension() {
        assert_eq!(group_class_order(), vec![0, 1, 4, 6, 5, 2, 3]);
        assert_eq!(
            class_names(),
            vec!["DIA", "ELL", "CSR", "COO", "HYB", "BCSR2", "BCSR4"]
        );
    }
}
