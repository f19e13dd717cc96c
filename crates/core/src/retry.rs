//! Retry with exponential backoff and jitter for artifact persistence.
//!
//! Tuning artifacts (installation tables, cache snapshots) live on
//! disk, and disk I/O fails transiently: a full partition gets space
//! back, a flaky network mount reconnects, a scripted failpoint turns
//! itself off. Operations classified transient by
//! [`SmatError::is_transient`] are retried a configured number of times
//! ([`crate::SmatConfig::persist_retries`]) with exponentially growing
//! sleeps; permanent errors (malformed JSON, checksum mismatches, bad
//! inputs) surface immediately because retrying cannot change them.
//!
//! The jitter is *deterministic* — a hash of the operation label and
//! attempt number — so backoff sequences decorrelate across concurrent
//! operations while every test run remains exactly reproducible.

use crate::error::SmatError;
use crate::integrity::fnv1a64;
use std::time::Duration;

/// Policy for one retried operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RetryPolicy {
    /// Extra attempts after the first failure (0 = no retrying).
    pub retries: u32,
    /// Base delay; attempt `k` (0-based) sleeps `base * 2^k` plus up to
    /// 50% jitter.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    /// The default [`crate::SmatConfig`]'s policy, for the save/load
    /// entry points that take no configuration.
    fn default() -> Self {
        Self::from_config(&crate::SmatConfig::default())
    }
}

impl RetryPolicy {
    /// The policy configured by a [`crate::SmatConfig`].
    pub fn from_config(config: &crate::SmatConfig) -> Self {
        RetryPolicy {
            retries: config.persist_retries,
            base_backoff: config.persist_backoff,
        }
    }

    /// The sleep before retry `attempt` (0-based) of the operation
    /// named `label`: `base * 2^attempt` plus up to 50% deterministic
    /// jitter derived from `(label, attempt)`.
    pub fn backoff(&self, label: &str, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(2u32.saturating_pow(attempt));
        // Hash-derived jitter fraction in [0, 0.5): decorrelates
        // concurrent retriers without nondeterminism.
        let hash = fnv1a64(format!("{label}#{attempt}").as_bytes());
        let fraction = (hash % 1000) as f64 / 2000.0;
        exp + exp.mul_f64(fraction)
    }
}

/// Runs `op`, retrying per `policy` while it fails with a *transient*
/// [`SmatError`]. Permanent errors and exhausted budgets surface the
/// last error unchanged. `label` names the operation for jitter
/// derivation (and reads well in logs and tests).
pub(crate) fn retry_transient<T>(
    policy: RetryPolicy,
    label: &str,
    mut op: impl FnMut() -> Result<T, SmatError>,
) -> Result<T, SmatError> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(value) => return Ok(value),
            Err(err) if err.is_transient() && attempt < policy.retries => {
                std::thread::sleep(policy.backoff(label, attempt));
                attempt += 1;
            }
            Err(err) => return Err(err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn policy() -> RetryPolicy {
        RetryPolicy {
            retries: 3,
            base_backoff: Duration::from_micros(10),
        }
    }

    fn transient() -> SmatError {
        SmatError::Persist(smat_learn::PersistError::Io(std::io::Error::other("flaky")))
    }

    fn permanent() -> SmatError {
        SmatError::Corrupt {
            what: "artifact".into(),
            detail: "checksum mismatch".into(),
        }
    }

    #[test]
    fn succeeds_after_transient_failures() {
        let calls = AtomicU32::new(0);
        let out = retry_transient(policy(), "t.retry", || {
            if calls.fetch_add(1, Ordering::Relaxed) < 2 {
                Err(transient())
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let calls = AtomicU32::new(0);
        let out: Result<(), _> = retry_transient(policy(), "t.permanent", || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(permanent())
        });
        assert_eq!(out.unwrap_err().taxonomy(), "corrupt");
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn budget_exhaustion_surfaces_the_last_error() {
        let calls = AtomicU32::new(0);
        let out: Result<(), _> = retry_transient(policy(), "t.exhaust", || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(transient())
        });
        assert!(out.unwrap_err().is_transient());
        // 1 initial + 3 retries.
        assert_eq!(calls.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn zero_retries_means_one_attempt() {
        let p = RetryPolicy {
            retries: 0,
            base_backoff: Duration::from_micros(1),
        };
        let calls = AtomicU32::new(0);
        let out: Result<(), _> = retry_transient(p, "t.zero", || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(transient())
        });
        assert!(out.is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter() {
        let p = RetryPolicy {
            retries: 5,
            base_backoff: Duration::from_millis(10),
        };
        for attempt in 0..4 {
            let exp = Duration::from_millis(10 * (1 << attempt));
            let d = p.backoff("op", attempt);
            assert!(d >= exp, "attempt {attempt}: {d:?} below base {exp:?}");
            assert!(
                d <= exp.mul_f64(1.5),
                "attempt {attempt}: {d:?} above 150% of {exp:?}"
            );
        }
        // Deterministic: same label and attempt, same delay.
        assert_eq!(p.backoff("op", 1), p.backoff("op", 1));
        // Different labels decorrelate.
        assert_ne!(p.backoff("op-a", 1), p.backoff("op-b", 1));
    }
}
