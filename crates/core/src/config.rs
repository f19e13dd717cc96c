//! Configuration of the SMAT auto-tuner.

use serde::{Deserialize, Serialize};
use smat_matrix::Format;
use std::time::Duration;

/// The format rule-group consultation order, extending the paper's §6
/// order (DIA first for its win margin, ELL for its regular behavior,
/// CSR because its parameters are already computed, COO last): the HYB
/// extension slots after ELL, whose features it shares; the BCSR
/// register-blocked formats come next (4x4 before 2x2 — the larger
/// block wins bigger when the structure supports it, and its stricter
/// fill guard makes a wrong match cheap to reject), both before the
/// CSR catch-all.
pub const GROUP_ORDER: [Format; Format::COUNT] = [
    Format::Dia,
    Format::Ell,
    Format::Hyb,
    Format::Bcsr4,
    Format::Bcsr2,
    Format::Csr,
    Format::Coo,
];

/// Consecutive contained execution faults after which a variant's
/// circuit breaker trips from `Closed` to `Open`: the variant is
/// quarantined and excluded from candidate sets.
pub const BREAKER_THRESHOLD: u32 = 3;

/// Initial backoff, counted in engine calls (`spmv` + `spmm`), before an
/// open breaker half-opens for a guarded re-probe. Each failed re-probe
/// doubles it (capped); a successful one closes the breaker.
pub const BREAKER_BACKOFF_CALLS: u64 = 32;

/// Extra attempts after the first failure when saving or loading a
/// tuning artifact (installation, cache snapshot, model) hits a
/// *transient* error (see [`crate::SmatError::is_transient`]). Permanent
/// errors are never retried.
pub const PERSIST_RETRIES: u32 = 2;

/// Base delay of the exponential backoff between persistence retries:
/// attempt `k` sleeps `PERSIST_BACKOFF * 2^k` plus up to 50%
/// deterministic jitter, so concurrent retriers decorrelate.
pub const PERSIST_BACKOFF: Duration = Duration::from_millis(20);

/// Longest a [`crate::Smat::prepare`] call waits on another thread's
/// in-flight tuning run for the same fingerprint before degrading to the
/// reference kernel. A request deadline
/// ([`crate::Smat::prepare_with_deadline`]) shortens it; nothing
/// lengthens it, so a waiter never blocks forever.
pub const SINGLE_FLIGHT_WAIT: Duration = Duration::from_secs(30);

/// Tuning knobs of the SMAT system. [`SmatConfig::default`] reproduces
/// the paper's setup. The fault layer's settings are constants
/// ([`BREAKER_THRESHOLD`], [`BREAKER_BACKOFF_CALLS`], [`PERSIST_RETRIES`],
/// [`PERSIST_BACKOFF`], [`SINGLE_FLIGHT_WAIT`]), not fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SmatConfig {
    /// Rule-group confidence below which the runtime falls back to
    /// execute-and-measure (the paper's "threshold").
    pub confidence_threshold: f64,
    /// Measurement budget per kernel variant during the offline search:
    /// the sampling time each candidate buys, with the samples of all of
    /// a format's variants interleaved round by round
    /// ([`smat_kernels::measure_round_robin`]).
    pub search_budget: Duration,
    /// Measurement budget per candidate format in the execute-and-measure
    /// fallback (and per format when labeling training matrices), with
    /// the candidates' samples interleaved round by round.
    pub fallback_budget: Duration,
    /// Formats benchmarked by the fallback. The paper's Table 3 runs
    /// "CSR+COO" (the two formats with cheap conversions); the predicted
    /// format, if any, is always added.
    pub fallback_formats: Vec<Format>,
    /// Hard deadline per measured candidate, on the time that candidate
    /// itself has run (probe plus samples; the other candidates' samples
    /// interleaved with them do not count). A candidate that exceeds it
    /// is abandoned and recorded as failed instead of stalling the
    /// tuning pipeline. The deadline is cooperative: it is checked
    /// before each sample.
    pub candidate_deadline: Duration,
    /// Upper bound, in bytes, on the estimated allocation of any single
    /// format conversion (DIA/ELL dense slabs, HYB split). Conversions
    /// whose up-front estimate exceeds it are refused before allocating
    /// and the candidate format is pruned. `None` means unlimited.
    pub conversion_budget_bytes: Option<usize>,
    /// Dimension of the per-format probe matrices used by the offline
    /// kernel search.
    pub probe_dim: usize,
    /// Feature attributes (by [`smat_features::ATTRIBUTE_NAMES`] index)
    /// excluded from the learning model — the paper's §3 knob for
    /// balancing "accuracy and training time" by removing parameters.
    pub excluded_attributes: Vec<usize>,
    /// Maximum number of tuning decisions retained in the
    /// structural-fingerprint cache (LRU). 0 disables caching, making
    /// every [`crate::Smat::prepare`] run the full Figure 7 pipeline.
    pub cache_capacity: usize,
    /// When set, [`crate::Smat`] loads the persisted installation
    /// (per-machine kernel-search tables) from this file — running and
    /// saving the search on first use — and adopts its
    /// [`smat_kernels::KernelChoice`] over the model's.
    pub install_path: Option<std::path::PathBuf>,
    /// Measurement budget per (policy, width) candidate during the plan
    /// search, with the candidates' samples interleaved round by round.
    /// The search extends the kernel scoreboard over chunk policy and
    /// fan-out width for a chosen parallel CSR kernel — only when the R
    /// feature reports a scale-free (power-law) row-degree distribution,
    /// the structures where uniform row splits lose.
    pub plan_search_budget: Duration,
    /// When `true`, [`crate::Smat::spmv`] scans the output vector for
    /// non-finite values after the planned dispatch and, if the inputs
    /// were finite, treats a poisoned product as a kernel fault:
    /// re-executed through the reference path and counted against the
    /// variant's circuit breaker. Off by default — the scan costs one
    /// pass over `y` per call.
    pub screen_outputs: bool,
}

impl Default for SmatConfig {
    fn default() -> Self {
        Self {
            confidence_threshold: 0.85,
            search_budget: Duration::from_millis(10),
            fallback_budget: Duration::from_millis(5),
            fallback_formats: vec![Format::Csr, Format::Coo],
            candidate_deadline: smat_kernels::DEFAULT_CANDIDATE_DEADLINE,
            conversion_budget_bytes: None,
            probe_dim: 20_000,
            excluded_attributes: Vec::new(),
            cache_capacity: 64,
            install_path: None,
            plan_search_budget: Duration::from_millis(2),
            screen_outputs: false,
        }
    }
}

impl SmatConfig {
    /// A configuration with tiny measurement budgets, for tests and
    /// quick demos.
    pub fn fast() -> Self {
        Self {
            search_budget: Duration::from_micros(200),
            fallback_budget: Duration::from_micros(200),
            candidate_deadline: Duration::from_millis(250),
            probe_dim: 1_500,
            plan_search_budget: Duration::from_micros(100),
            ..Self::default()
        }
    }

    /// The conversion limits implied by this configuration — the
    /// default fill caps plus the configured byte budget — ready for
    /// [`smat_matrix::AnyMatrix::convert_from_csr_with`].
    pub fn conversion_limits(&self) -> smat_matrix::ConversionLimits {
        smat_matrix::ConversionLimits {
            budget_bytes: self.conversion_budget_bytes,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_reproduces_paper_choices() {
        let c = SmatConfig::default();
        assert_eq!(c.fallback_formats, vec![Format::Csr, Format::Coo]);
        assert_eq!(GROUP_ORDER[0], Format::Dia);
        assert_eq!(GROUP_ORDER[3], Format::Bcsr4);
        assert_eq!(GROUP_ORDER[6], Format::Coo);
        assert_eq!(GROUP_ORDER.len(), Format::COUNT);
        assert!(c.confidence_threshold > 0.0 && c.confidence_threshold < 1.0);
    }

    #[test]
    fn fast_config_shrinks_budgets() {
        let c = SmatConfig::fast();
        assert!(c.search_budget < SmatConfig::default().search_budget);
        assert!(c.candidate_deadline < SmatConfig::default().candidate_deadline);
    }

    #[test]
    fn conversion_limits_mirror_config() {
        let c = SmatConfig {
            conversion_budget_bytes: Some(1 << 20),
            ..SmatConfig::default()
        };
        let limits = c.conversion_limits();
        assert_eq!(limits.budget_bytes, Some(1 << 20));
        let defaults = smat_matrix::ConversionLimits::default();
        assert_eq!(limits.ell_fill_limit, defaults.ell_fill_limit);
        assert_eq!(SmatConfig::default().conversion_limits(), defaults);
    }

    #[test]
    fn serde_round_trip() {
        let c = SmatConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: SmatConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
