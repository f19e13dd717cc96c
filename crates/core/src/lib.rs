//! SMAT: an input adaptive auto-tuner for sparse matrix-vector
//! multiplication — a Rust reproduction of Li, Tan, Chen & Sun,
//! PLDI 2013.
//!
//! SMAT gives users a *single* programming interface in CSR format and
//! automatically determines the optimal storage format (CSR, COO, DIA or
//! ELL) and kernel implementation for any input sparse matrix at
//! runtime:
//!
//! * **Off-line** ([`Trainer`]): the scoreboard kernel search picks the
//!   best implementation variant per format on this machine; a corpus of
//!   matrices is measured exhaustively to label the feature database; a
//!   decision tree → ruleset model (with per-rule confidence factors) is
//!   fitted, ordered, tailored and grouped. The result is a serializable
//!   [`TrainedModel`].
//! * **On-line** ([`Smat`]): feature extraction with the optimistic
//!   early exit (the power-law `R` is computed lazily), rule-group
//!   prediction, and an execute-and-measure fallback when confidence is
//!   below threshold.
//!
//! # Examples
//!
//! ```no_run
//! use smat::{Smat, SmatConfig, Trainer};
//! use smat_matrix::gen::{generate_corpus, CorpusSpec};
//!
//! // Off-line (once per machine): train on a corpus.
//! let corpus = generate_corpus::<f64>(&CorpusSpec::small(200, 42));
//! let matrices: Vec<_> = corpus.iter().map(|e| &e.matrix).collect();
//! let out = Trainer::new(SmatConfig::default()).train(&matrices)?;
//! out.model.save("smat-model.json")?;
//!
//! // On-line: tune any CSR matrix and multiply.
//! let engine = Smat::<f64>::new(out.model)?;
//! let a = &corpus[0].matrix;
//! let tuned = engine.prepare(a);
//! let x = vec![1.0; a.cols()];
//! let mut y = vec![0.0; a.rows()];
//! engine.spmv(&tuned, &x, &mut y)?;
//! println!("chose {} via {:?}", tuned.format(), tuned.decision());
//! # Ok::<(), smat::SmatError>(())
//! ```

#![warn(missing_docs)]

mod cache;
mod config;
mod error;
mod handles;
mod health;
mod install;
mod integrity;
mod interface;
mod lru;
mod model;
mod retry;
mod runtime;
mod sealed;
mod stats;
mod train;

pub use cache::CacheStats;
pub use config::{
    SmatConfig, BREAKER_BACKOFF_CALLS, BREAKER_THRESHOLD, GROUP_ORDER, PERSIST_BACKOFF,
    PERSIST_RETRIES, SINGLE_FLIGHT_WAIT,
};
pub use error::{Result, SmatError};
pub use handles::{HandleRegistry, HandleStats};
pub use health::{BreakerState, ExecIncident, FaultKind, HealthReport, QuarantinedVariant};
pub use install::{Installation, INSTALL_SCHEMA_VERSION};
pub use interface::{smat_dcsr_spmv, smat_scsr_spmv};
pub use model::{class_names, group_class_order, FormatDecision, TrainStats, TrainedModel};
pub use runtime::{DecisionPath, Smat, TunedSpmv};
pub use smat_kernels::ExecPlan;
pub use stats::{accuracy, analyze, basic_csr_time, tuned_gflops, AnalysisRow};
pub use train::{label_best_format, measure_formats, Trainer, TrainingOutput};
