//! Tunables of one [`crate::Server`].

use std::path::PathBuf;
use std::time::Duration;

/// Configuration of the serving loop. Everything has a production-ish
/// default; tests shrink the limits to force each policy to fire.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Tuning runs allowed at once: the admission gate's permits. Each
    /// runs on the connection thread of the request it serves.
    pub workers: usize,
    /// Bound on requests waiting for a permit. A full line sheds with
    /// retry-after; it never buffers unboundedly.
    pub queue_capacity: usize,
    /// Line length at which the degradation ladder kicks in: with this
    /// many waiting, new requests are served immediately through the
    /// reference serial CSR path (counted degraded) instead of joining
    /// the line.
    pub degrade_watermark: usize,
    /// Deadline applied to requests that do not carry `deadline_ms`.
    pub default_deadline: Duration,
    /// Upper clamp on client-supplied deadlines.
    pub max_deadline: Duration,
    /// Token-bucket refill rate per tenant, in requests per second.
    pub tenant_rate: f64,
    /// Token-bucket burst capacity per tenant.
    pub tenant_burst: f64,
    /// Hard cap on one line-delimited frame. A connection exceeding it
    /// is answered with an error and closed.
    pub max_frame_bytes: usize,
    /// Poll granularity of blocking socket reads; also bounds how
    /// stale the drain flag can be observed by a connection thread.
    pub read_timeout: Duration,
    /// Wall-clock budget to complete one started frame. A client that
    /// dribbles bytes slower than this is disconnected (slow-loris
    /// defense).
    pub frame_timeout: Duration,
    /// Retry hint returned with queue-full / drain sheds.
    pub shed_retry_after: Duration,
    /// When set, the tuning-cache snapshot is persisted here during
    /// graceful shutdown (and preloaded at startup if present).
    pub cache_snapshot: Option<PathBuf>,
    /// Prepared-matrix handles the daemon keeps resident (`0` disables
    /// the handle registry entirely: every handle request misses).
    pub handle_capacity: usize,
    /// Estimated resident-byte budget of the daemon's handle registry
    /// (`0` means unbounded; entry capacity still applies).
    pub handle_budget_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            degrade_watermark: 48,
            default_deadline: Duration::from_secs(5),
            max_deadline: Duration::from_secs(30),
            tenant_rate: 50.0,
            tenant_burst: 100.0,
            max_frame_bytes: 8 << 20,
            read_timeout: Duration::from_millis(25),
            frame_timeout: Duration::from_secs(10),
            shed_retry_after: Duration::from_millis(250),
            cache_snapshot: None,
            handle_capacity: 32,
            handle_budget_bytes: 256 << 20,
        }
    }
}

impl ServeConfig {
    /// Normalizes nonsensical values (zero workers/capacity) up to the
    /// smallest functional configuration instead of deadlocking.
    pub fn normalized(mut self) -> Self {
        self.workers = self.workers.max(1);
        self.queue_capacity = self.queue_capacity.max(1);
        self.degrade_watermark = self.degrade_watermark.clamp(1, self.queue_capacity);
        self.max_frame_bytes = self.max_frame_bytes.max(64);
        if self.read_timeout.is_zero() {
            self.read_timeout = Duration::from_millis(25);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_repairs_degenerate_limits() {
        let c = ServeConfig {
            workers: 0,
            queue_capacity: 0,
            degrade_watermark: 0,
            max_frame_bytes: 1,
            read_timeout: Duration::ZERO,
            ..ServeConfig::default()
        }
        .normalized();
        assert_eq!(c.workers, 1);
        assert_eq!(c.queue_capacity, 1);
        assert_eq!(c.degrade_watermark, 1);
        assert!(c.max_frame_bytes >= 64);
        assert!(!c.read_timeout.is_zero());
    }

    #[test]
    fn watermark_never_exceeds_capacity() {
        let c = ServeConfig {
            queue_capacity: 4,
            degrade_watermark: 100,
            ..ServeConfig::default()
        }
        .normalized();
        assert_eq!(c.degrade_watermark, 4);
    }
}
