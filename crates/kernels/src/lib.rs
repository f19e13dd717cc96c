//! The SpMV kernel library of the SMAT (PLDI'13) reproduction.
//!
//! This crate holds the architecture-level half of SMAT's co-tuning:
//!
//! * per-format kernel variants ([`csr`], [`coo`], [`dia`], [`ell`]):
//!   one planned entry point per format whose loop is derived from the
//!   optimization [`Strategy`] set (unrolling, multithreading, load
//!   balancing) of the table row being run;
//! * the [`KernelLibrary`] registry: that table, addressing every
//!   variant by `(op, format, index)`;
//! * the offline kernel [`search`]: performance-record table plus the
//!   paper's scoreboard algorithm (§5.2);
//! * MKL-style [`mod@reference`] baselines used by the Figure 10 comparison;
//! * the [`timing`] estimator every tuning measurement goes through —
//!   the search above, the runtime's execute-and-measure fallback and
//!   the training labels — and its one selection rule.
//!
//! # Examples
//!
//! Search for the best CSR kernel on this machine, then run it:
//!
//! ```
//! use smat_kernels::{measure_format, KernelLibrary, DEFAULT_CANDIDATE_DEADLINE};
//! use smat_matrix::{gen::random_uniform, AnyMatrix};
//! use std::time::Duration;
//!
//! let lib = KernelLibrary::<f64>::new();
//! let a = AnyMatrix::Csr(random_uniform::<f64>(500, 500, 8, 42));
//! let budget = Duration::from_millis(1);
//! let table = measure_format(&lib, &a, budget, DEFAULT_CANDIDATE_DEADLINE, &[]);
//!
//! let x = vec![1.0; 500];
//! let mut y = vec![0.0; 500];
//! lib.run(&a, table.scoreboard().best_variant, &x, &mut y);
//! assert!(y.iter().any(|&v| v != 0.0));
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod bcsr;
pub mod coo;
pub mod csr;
pub mod dia;
pub mod ell;
pub mod exec;
pub mod hyb;
pub mod partition;
pub mod plan;
pub mod reference;
pub mod registry;
mod scalar_cast;
pub mod search;
pub mod simd;
pub mod spmm;
pub mod strategy;
pub mod timing;

pub use plan::ExecPlan;
pub use registry::{ChunkPolicy, KernelFn, KernelId, KernelInfo, KernelLibrary, Op, Planner};
pub use search::{
    measure_format, measure_spmm, search_plan, search_spmm_plan, KernelChoice, PerfRecord,
    PerfTable, PlanSample, PlanSearch, RecordStatus, Scoreboard, DEFAULT_CANDIDATE_DEADLINE,
};
pub use simd::SimdBackend;
pub use strategy::{Strategy, StrategySet};
pub use timing::{decide, measure_round_robin, panic_message, MeasureOutcome, MARGIN};
