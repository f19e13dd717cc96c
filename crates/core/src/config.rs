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

/// Tuning knobs of the SMAT system. [`SmatConfig::default`] reproduces
/// the paper's setup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SmatConfig {
    /// Rule-group confidence below which the runtime falls back to
    /// execute-and-measure (the paper's "threshold").
    pub confidence_threshold: f64,
    /// Measurement budget per kernel variant during the offline search.
    pub search_budget: Duration,
    /// Measurement budget per candidate format in the execute-and-measure
    /// fallback.
    pub fallback_budget: Duration,
    /// Formats benchmarked by the fallback. The paper's Table 3 runs
    /// "CSR+COO" (the two formats with cheap conversions); the predicted
    /// format, if any, is always added.
    pub fallback_formats: Vec<Format>,
    /// Hard wall-clock deadline per measured candidate (probe plus all
    /// timed repetitions). A candidate that exceeds it is abandoned and
    /// recorded as failed instead of stalling the tuning pipeline. The
    /// deadline is cooperative: it is checked between repetitions.
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
    /// Extra attempts after the first failure when persisting or
    /// loading tuning artifacts (installation files, cache snapshots)
    /// hits a *transient* error (see
    /// [`crate::SmatError::is_transient`]). 0 disables retrying;
    /// permanent errors are never retried.
    pub persist_retries: u32,
    /// Base delay of the exponential backoff between persistence
    /// retries. Attempt `k` sleeps `persist_backoff * 2^k` plus up to
    /// 50% deterministic jitter, so retry storms from concurrent
    /// processes decorrelate.
    pub persist_backoff: Duration,
    /// How long a [`crate::Smat::prepare`] call waits on another
    /// thread's in-flight tuning run for the same fingerprint before
    /// giving up and degrading to the reference kernel. Bounds the
    /// worst-case latency a waiter can ever see; it never blocks
    /// forever.
    pub single_flight_wait: Duration,
    /// Measurement budget per (policy, width) candidate during the plan
    /// search, which extends the kernel scoreboard over chunk policy and
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
    /// Consecutive contained execution faults after which a variant's
    /// circuit breaker trips from `Closed` to `Open` (the variant is
    /// quarantined and excluded from candidate sets).
    pub breaker_threshold: u32,
    /// Initial backoff, counted in engine `spmv` calls, before an open
    /// breaker half-opens for a guarded re-probe. Each failed re-probe
    /// doubles the backoff (capped); a successful one closes the
    /// breaker.
    pub breaker_backoff_calls: u64,
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
            persist_retries: 2,
            persist_backoff: Duration::from_millis(20),
            single_flight_wait: Duration::from_secs(30),
            plan_search_budget: Duration::from_millis(2),
            screen_outputs: false,
            breaker_threshold: 3,
            breaker_backoff_calls: 32,
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
            persist_backoff: Duration::from_millis(1),
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
