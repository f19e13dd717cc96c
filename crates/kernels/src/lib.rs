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
//! * [`timing`] helpers shared with the runtime's execute-and-measure
//!   fallback.
//!
//! # Examples
//!
//! Search for the best kernels on this machine, then run the chosen CSR
//! kernel:
//!
//! ```
//! use smat_kernels::{search_kernels, KernelLibrary};
//! use smat_matrix::{gen::random_uniform, AnyMatrix, Format};
//! use std::time::Duration;
//!
//! let lib = KernelLibrary::<f64>::new();
//! let probe = random_uniform::<f64>(500, 500, 8, 42);
//! let (choice, _tables) = search_kernels(&lib, &probe, Duration::from_millis(1));
//!
//! let x = vec![1.0; 500];
//! let mut y = vec![0.0; 500];
//! let a = AnyMatrix::Csr(probe);
//! lib.run(&a, choice.kernel(Format::Csr).variant, &x, &mut y);
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
    measure_format, measure_format_excluding, measure_spmm, measure_spmm_excluding, search_kernels,
    search_kernels_excluding, search_plan, search_spmm_plan, KernelChoice, PerfRecord, PerfTable,
    PlanSample, PlanSearch, RecordStatus, Scoreboard, DEFAULT_CANDIDATE_DEADLINE,
};
pub use simd::SimdBackend;
pub use strategy::{Strategy, StrategySet};
pub use timing::{measure_guarded, panic_message, MeasureOutcome};
