//! Admission control: per-tenant token buckets and the tuning gate.
//!
//! Both are deliberately boring. The gate is a `Mutex` around a count
//! and a line of tickets, with a condvar — contention on it is one
//! lock per cold request, dwarfed by the tuning work behind it — and
//! the buckets are a lazily-refilled map. What matters is the *shape*:
//! admission can only ever say yes (a permit, at once or after a
//! bounded wait in a bounded line) or no-with-retry-after; there is no
//! path that buffers without bound or blocks a client past its deadline.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Most tenants budgeted at once: the names are client-chosen, so the
/// map they key must not grow with what clients send.
const TENANT_BOUND: usize = 1024;

/// Per-tenant token buckets: `burst` capacity refilled at `rate`
/// tokens per second. A request takes one token; an empty bucket
/// yields the wait until one token will be available, for the
/// response's `retry_after_ms` hint.
#[derive(Debug)]
pub struct TokenBuckets {
    rate: f64,
    burst: f64,
    buckets: Mutex<HashMap<String, Bucket>>,
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    refilled: Instant,
}

impl TokenBuckets {
    /// Buckets with the given refill rate (tokens/second) and burst
    /// capacity. Non-positive values disable budgeting: every take
    /// succeeds.
    pub fn new(rate: f64, burst: f64) -> Self {
        TokenBuckets {
            rate,
            burst,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Whether budgeting is enabled at all. NaN rates or bursts
    /// compare false and land on unlimited.
    fn unlimited(&self) -> bool {
        let enabled = self.rate > 0.0 && self.burst >= 1.0;
        !enabled
    }

    /// What `bucket` holds at `now`.
    fn level(&self, bucket: &Bucket, now: Instant) -> f64 {
        let elapsed = now.saturating_duration_since(bucket.refilled).as_secs_f64();
        (bucket.tokens + elapsed * self.rate).min(self.burst)
    }

    /// Takes one token from `tenant`'s bucket; a tenant not seen before
    /// has a full one. At [`TENANT_BOUND`] buckets, those that have
    /// refilled to `burst` are dropped first — a full bucket is what an
    /// unseen tenant gets, so nothing is forgotten — and if all of them
    /// are still owed tokens the newcomer is refused: neither a spent
    /// budget nor the bound gives way to a client inventing names.
    ///
    /// # Errors
    ///
    /// Returns the duration after which a retry can succeed when the
    /// bucket is empty or the map is full.
    pub fn try_take(&self, tenant: &str) -> Result<(), Duration> {
        if self.unlimited() {
            return Ok(());
        }
        let now = Instant::now();
        let mut map = self.buckets.lock().unwrap_or_else(PoisonError::into_inner);
        if !map.contains_key(tenant) {
            if map.len() >= TENANT_BOUND {
                map.retain(|_, bucket| self.level(bucket, now) < self.burst);
                if map.len() >= TENANT_BOUND {
                    return Err(Duration::from_secs_f64(1.0 / self.rate));
                }
            }
            let full = Bucket {
                tokens: self.burst,
                refilled: now,
            };
            map.insert(tenant.to_string(), full);
        }
        let bucket = map.get_mut(tenant).expect("found or just inserted");
        bucket.tokens = self.level(bucket, now);
        bucket.refilled = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - bucket.tokens;
            Err(Duration::from_secs_f64(deficit / self.rate))
        }
    }
}

/// Why [`Gate::enter`] gave no permit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refused {
    /// The line is at its bound: shed.
    Full,
    /// The deadline passed in line; the caller has left it, unstarted.
    Expired,
}

/// The tuning gate: at most `permits` holders at once and at most
/// `max_waiters` callers in line behind them, admitted strictly in
/// arrival order. A caller waits on its own thread — there is nobody
/// to hand the work to — and never past its deadline.
#[derive(Debug)]
pub struct Gate {
    permits: usize,
    max_waiters: usize,
    state: Mutex<GateState>,
    /// Signalled when the head of the line may have become admissible.
    turn: Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    running: usize,
    /// Tickets of the callers in line, oldest first.
    line: VecDeque<u64>,
    next_ticket: u64,
}

/// One of a [`Gate`]'s permits, given back on drop — so also when the
/// holder unwinds.
#[derive(Debug)]
pub struct Permit<'a>(&'a Gate);

impl Gate {
    /// A gate of `permits` permits with room for `max_waiters` in line
    /// (each at least one).
    pub fn new(permits: usize, max_waiters: usize) -> Self {
        Gate {
            permits: permits.max(1),
            max_waiters: max_waiters.max(1),
            state: Mutex::default(),
            turn: Condvar::new(),
        }
    }

    /// Callers in line right now.
    pub fn waiters(&self) -> usize {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.line.len()
    }

    /// Takes a permit: at once when one is free and nobody is in line,
    /// otherwise after every earlier arrival. `queued` is told the
    /// line's length, the caller included, if it has to join it.
    ///
    /// # Errors
    ///
    /// [`Refused::Full`], without waiting, when the line is at its
    /// bound; [`Refused::Expired`] when `deadline` comes first.
    pub fn enter(
        &self,
        deadline: Instant,
        queued: impl FnOnce(usize),
    ) -> Result<Permit<'_>, Refused> {
        // Every update leaves the counts valid at every step, so a
        // poisoned lock is recovered, not propagated.
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let must_wait = state.running >= self.permits || !state.line.is_empty();
        if must_wait && state.line.len() >= self.max_waiters {
            return Err(Refused::Full);
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.line.push_back(ticket);
        if must_wait {
            queued(state.line.len());
        }
        loop {
            if state.running < self.permits && state.line.front() == Some(&ticket) {
                state.line.pop_front();
                state.running += 1;
                if !state.line.is_empty() {
                    // Two permits may have come back together, and the
                    // new head looked while this caller was still it.
                    self.turn.notify_all();
                }
                return Ok(Permit(self));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                state.line.retain(|&t| t != ticket);
                self.turn.notify_all();
                return Err(Refused::Expired);
            }
            let woken = self.turn.wait_timeout(state, left);
            state = woken.unwrap_or_else(PoisonError::into_inner).0;
        }
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.running -= 1;
        if !state.line.is_empty() {
            self.0.turn.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn bucket_sheds_when_empty_and_refills() {
        // A token every 50 ms: the three takes fit in one even when
        // the suite's other tests have the cores.
        let b = TokenBuckets::new(20.0, 2.0);
        assert!(b.try_take("t").is_ok());
        assert!(b.try_take("t").is_ok());
        let retry = b.try_take("t").expect_err("burst of 2 exhausted");
        assert!(retry <= Duration::from_millis(50), "retry hint: {retry:?}");
        thread::sleep(retry + Duration::from_millis(5));
        assert!(b.try_take("t").is_ok(), "bucket refills at 20/s");
    }

    #[test]
    fn buckets_are_per_tenant() {
        let b = TokenBuckets::new(0.001, 1.0);
        assert!(b.try_take("a").is_ok());
        assert!(b.try_take("a").is_err());
        assert!(b.try_take("b").is_ok(), "tenant b has its own budget");
    }

    #[test]
    fn zero_rate_disables_budgeting() {
        let b = TokenBuckets::new(0.0, 0.0);
        for _ in 0..100 {
            assert!(b.try_take("t").is_ok());
        }
    }

    fn tenants_held(b: &TokenBuckets) -> usize {
        b.buckets.lock().unwrap().len()
    }

    /// A client inventing a tenant per frame cannot grow the map, and
    /// cannot push a spent budget out of it either.
    #[test]
    fn tenant_map_is_bounded_and_keeps_spent_budgets() {
        let b = TokenBuckets::new(0.001, 1.0);
        assert!(b.try_take("spent").is_ok());
        assert!(b.try_take("spent").is_err());
        let admitted = (0..50_000)
            .filter(|i| b.try_take(&format!("invented-{i}")).is_ok())
            .count();
        assert_eq!(admitted, TENANT_BOUND - 1, "one bucket each, none refills");
        assert_eq!(tenants_held(&b), TENANT_BOUND);
        assert!(
            b.try_take("spent").is_err(),
            "still refused after the flood"
        );
    }

    /// Buckets that have refilled are what the bound reclaims: tenants
    /// that come and go are all served.
    #[test]
    fn refilled_buckets_make_room_for_new_tenants() {
        // A token every nanosecond: a bucket is full again by the time
        // anyone looks.
        let b = TokenBuckets::new(1e9, 1.0);
        for i in 0..50_000 {
            assert!(b.try_take(&format!("passing-{i}")).is_ok(), "tenant {i}");
            assert!(tenants_held(&b) <= TENANT_BOUND);
        }
    }

    const FAR: Duration = Duration::from_secs(60);

    fn enter(gate: &Gate, within: Duration) -> Result<Permit<'_>, Refused> {
        gate.enter(Instant::now() + within, |_| {})
    }

    /// Blocks until `n` callers stand in line: the tests order their
    /// threads by what the gate reports, not by sleeping.
    fn await_waiters(gate: &Gate, n: usize) {
        let patience = Instant::now() + FAR;
        while gate.waiters() != n {
            assert!(Instant::now() < patience, "never saw {n} in line");
            thread::yield_now();
        }
    }

    #[test]
    fn gate_bounds_holders_and_waiters_and_refuses_when_full() {
        let gate = Gate::new(1, 2);
        let holders = AtomicUsize::new(0);
        let depths = thread::scope(|s| {
            let held = enter(&gate, FAR).expect("a free permit is taken at once");
            assert_eq!(gate.waiters(), 0, "the holder is not in line");
            let waiters = [1, 2].map(|expect_depth| {
                let waiter = s.spawn(|| {
                    let mut depth = 0;
                    let permit = gate.enter(Instant::now() + FAR, |d| depth = d);
                    let _permit = permit.expect("admitted once the holder leaves");
                    assert_eq!(holders.fetch_add(1, Ordering::SeqCst), 0, "one permit");
                    thread::yield_now();
                    holders.fetch_sub(1, Ordering::SeqCst);
                    depth
                });
                await_waiters(&gate, expect_depth);
                waiter
            });
            assert_eq!(enter(&gate, FAR).unwrap_err(), Refused::Full);
            assert_eq!(gate.waiters(), 2, "a refused caller never joined");
            drop(held);
            waiters.map(|waiter| waiter.join().unwrap())
        });
        assert_eq!(depths, [1, 2], "each waiter was told the line it joined");
        assert_eq!(gate.waiters(), 0);
        assert!(enter(&gate, FAR).is_ok(), "the permit came back");
    }

    #[test]
    fn release_wakes_a_waiter() {
        let gate = Gate::new(1, 4);
        thread::scope(|s| {
            let held = enter(&gate, FAR).unwrap();
            let waiter = s.spawn(|| enter(&gate, FAR).is_ok());
            await_waiters(&gate, 1);
            drop(held);
            assert!(
                waiter.join().unwrap(),
                "woken by the release, not a timeout"
            );
        });
    }

    /// The gate has no "closed": whoever joined the line gets a permit
    /// once those ahead are done, with no new arrival to push it along
    /// — which is all a drain needs.
    #[test]
    fn everyone_in_line_is_admitted_once_arrivals_stop() {
        let gate = Gate::new(2, 8);
        let ran = AtomicUsize::new(0);
        thread::scope(|s| {
            let held = [enter(&gate, FAR).unwrap(), enter(&gate, FAR).unwrap()];
            for _ in 0..8 {
                s.spawn(|| {
                    let _permit = enter(&gate, FAR).expect("in line, so admitted");
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            }
            await_waiters(&gate, 8);
            drop(held);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 8);
        assert_eq!(gate.waiters(), 0);
    }

    #[test]
    fn waiters_are_admitted_in_arrival_order() {
        let gate = Gate::new(1, 16);
        let order = Mutex::new(Vec::new());
        thread::scope(|s| {
            let held = enter(&gate, FAR).unwrap();
            for i in 0..16 {
                let (gate, order) = (&gate, &order);
                s.spawn(move || {
                    let _permit = enter(gate, FAR).unwrap();
                    order.lock().unwrap().push(i);
                });
                // Caller `i` is in line before caller `i + 1` exists.
                await_waiters(gate, i + 1);
            }
            drop(held);
        });
        assert_eq!(order.into_inner().unwrap(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn expired_waiter_never_starts_and_frees_its_place() {
        let gate = Gate::new(1, 2);
        thread::scope(|s| {
            let held = enter(&gate, FAR).unwrap();
            let hurried = s.spawn(|| enter(&gate, Duration::from_millis(100)).map(drop));
            await_waiters(&gate, 1);
            let patient = s.spawn(|| enter(&gate, FAR).is_ok());
            await_waiters(&gate, 2);
            // The permit is held throughout: the head of the line gives
            // up on its own, and only it.
            assert_eq!(hurried.join().unwrap(), Err(Refused::Expired));
            assert_eq!(gate.waiters(), 1);
            let latecomer = s.spawn(|| enter(&gate, FAR).is_ok());
            await_waiters(&gate, 2);
            drop(held);
            assert!(patient.join().unwrap(), "the next in line moved up");
            assert!(latecomer.join().unwrap(), "into the place that was freed");
        });
    }

    #[test]
    fn panic_under_a_permit_releases_it() {
        let gate = Arc::new(Gate::new(1, 1));
        let doomed = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || {
                let _permit = enter(&gate, FAR).unwrap();
                panic!("poisoned request");
            })
        };
        assert!(doomed.join().is_err());
        assert!(
            enter(&gate, Duration::ZERO).is_ok(),
            "the unwound holder's permit is free, with no wait"
        );
    }
}
