//! Retry with exponential backoff and jitter for artifact persistence.
//!
//! Tuning artifacts (installation tables, cache snapshots) live on
//! disk, and disk I/O fails transiently: a full partition gets space
//! back, a flaky network mount reconnects, a scripted failpoint turns
//! itself off. Operations classified transient by
//! [`SmatError::is_transient`] are retried [`PERSIST_RETRIES`] times
//! with exponentially growing sleeps from [`PERSIST_BACKOFF`]; permanent
//! errors (malformed JSON, checksum mismatches, bad inputs) surface
//! immediately because retrying cannot change them.
//!
//! The jitter is *deterministic* — a hash of the operation label and
//! attempt number — so backoff sequences decorrelate across concurrent
//! operations while every test run remains exactly reproducible.

use crate::config::{PERSIST_BACKOFF, PERSIST_RETRIES};
use crate::error::SmatError;
use crate::integrity::fnv1a64;
use std::time::Duration;

/// The sleep before retry `attempt` (0-based) of the operation named
/// `label`: `PERSIST_BACKOFF * 2^attempt` plus up to 50% deterministic
/// jitter derived from `(label, attempt)`.
fn backoff(label: &str, attempt: u32) -> Duration {
    let exp = PERSIST_BACKOFF.saturating_mul(2u32.saturating_pow(attempt));
    // Hash-derived jitter fraction in [0, 0.5): decorrelates
    // concurrent retriers without nondeterminism.
    let hash = fnv1a64(format!("{label}#{attempt}").as_bytes());
    let fraction = (hash % 1000) as f64 / 2000.0;
    exp + exp.mul_f64(fraction)
}

/// Runs `op`, retrying up to [`PERSIST_RETRIES`] times while it fails
/// with a *transient* [`SmatError`]. Permanent errors and exhausted
/// retries surface the last error unchanged. `label` names the
/// operation for jitter derivation (and reads well in logs and tests).
pub(crate) fn retry_transient<T>(
    label: &str,
    mut op: impl FnMut() -> Result<T, SmatError>,
) -> Result<T, SmatError> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(value) => return Ok(value),
            Err(err) if err.is_transient() && attempt < PERSIST_RETRIES => {
                std::thread::sleep(backoff(label, attempt));
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
        let out = retry_transient("t.retry", || {
            if calls.fetch_add(1, Ordering::Relaxed) < PERSIST_RETRIES {
                Err(transient())
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(calls.load(Ordering::Relaxed), 1 + PERSIST_RETRIES);
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let calls = AtomicU32::new(0);
        let out: Result<(), _> = retry_transient("t.permanent", || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(permanent())
        });
        assert_eq!(out.unwrap_err().taxonomy(), "corrupt");
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn budget_exhaustion_surfaces_the_last_error() {
        let calls = AtomicU32::new(0);
        let out: Result<(), _> = retry_transient("t.exhaust", || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(transient())
        });
        assert!(out.unwrap_err().is_transient());
        assert_eq!(calls.load(Ordering::Relaxed), 1 + PERSIST_RETRIES);
    }

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter() {
        for attempt in 0..4 {
            let exp = PERSIST_BACKOFF * (1 << attempt);
            let d = backoff("op", attempt);
            assert!(d >= exp, "attempt {attempt}: {d:?} below base {exp:?}");
            assert!(
                d <= exp.mul_f64(1.5),
                "attempt {attempt}: {d:?} above 150% of {exp:?}"
            );
        }
        // Deterministic: same label and attempt, same delay.
        assert_eq!(backoff("op", 1), backoff("op", 1));
        // Different labels decorrelate.
        assert_ne!(backoff("op-a", 1), backoff("op-b", 1));
    }
}
