//! A compact decision-tree / ruleset learner — the SMAT reproduction's
//! stand-in for the closed-source C5.0 tool the paper uses (§5).
//!
//! The pipeline mirrors what SMAT needs from C5.0:
//!
//! 1. build a feature [`Dataset`] (the "matrix feature database");
//! 2. induce a [`DecisionTree`] with gain-ratio splits and pessimistic
//!    pruning (C4.5, the published core of C5.0);
//! 3. convert it to an IF-THEN [`RuleSet`] whose rules carry the paper's
//!    *confidence factor* (correct/covered on training data);
//! 4. order rules by estimated contribution, tailor to the accurate
//!    prefix, and group per class with early-exit consultation
//!    ([`order_by_contribution`], [`tailor`], [`RuleGroups`]).
//!
//! # Examples
//!
//! ```
//! use smat_learn::{Dataset, DecisionTree, RuleSet, TreeParams};
//!
//! let mut ds = Dataset::new(vec!["x".into()], vec!["neg".into(), "pos".into()]);
//! for i in -10..10 {
//!     ds.push(vec![i as f64], usize::from(i >= 0))?;
//! }
//! let tree = DecisionTree::fit(&ds, TreeParams::default());
//! let rules = RuleSet::from_tree(&tree, &ds);
//! assert_eq!(rules.classify(&[3.0]).0, 1);
//! assert!(rules.accuracy(&ds) == 1.0);
//! # Ok::<(), smat_learn::DatasetError>(())
//! ```

#![warn(missing_docs)]

mod dataset;
mod eval;
mod order;
mod prune;
mod rules;
mod serialize;
mod tree;

pub use dataset::{Dataset, DatasetError, Record};
pub use eval::{cross_validate, ConfusionMatrix, CrossValidation};
pub use order::{
    order_by_contribution, tailor, ClassGroup, GroupDecision, RuleGroups, DEFAULT_TAILOR_TOLERANCE,
};
pub use prune::pessimistic_errors;
pub use rules::{Condition, Op, Rule, RuleSet};
pub use serialize::{load_json, save_json, PersistError};
pub use tree::{DecisionTree, Node, NodeKind, TreeParams};
