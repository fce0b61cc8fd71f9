//! The shared virtual clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The simulation epoch: 2023-05-15 00:00:00 UTC (the paper's measurement
/// month), in seconds. Matches `ede_zone::signer::SIM_NOW`.
pub const SIM_EPOCH_SECS: u64 = 1_684_108_800;

/// A cloneable handle to the simulation clock (milliseconds).
///
/// The clock never reads the host's time; it only moves when the
/// transport charges latency or a timeout. Cloned handles share state, so
/// every component of one simulation sees one timeline.
#[derive(Clone, Debug)]
pub struct SimClock {
    millis: Arc<AtomicU64>,
}

impl Default for SimClock {
    fn default() -> Self {
        Self::new()
    }
}

impl SimClock {
    /// A clock starting at the simulation epoch.
    pub fn new() -> Self {
        SimClock {
            millis: Arc::new(AtomicU64::new(SIM_EPOCH_SECS * 1000)),
        }
    }

    /// Current simulated time in milliseconds since the Unix epoch.
    pub fn now_millis(&self) -> u64 {
        self.millis.load(Ordering::Relaxed)
    }

    /// Current simulated time in whole seconds (the resolution DNS TTLs
    /// and RRSIG windows use).
    pub fn now_secs(&self) -> u32 {
        (self.now_millis() / 1000) as u32
    }

    /// Advance the clock by `ms` milliseconds.
    pub fn advance_millis(&self, ms: u64) {
        self.millis.fetch_add(ms, Ordering::Relaxed);
    }

    /// Advance the clock by whole seconds (used by cache-expiry tests and
    /// the serve-stale scenarios).
    pub fn advance_secs(&self, secs: u64) {
        self.advance_millis(secs * 1000);
    }

    /// Advance the clock *to* `deadline_ms`, if that instant is in the
    /// future; a deadline already in the past leaves the clock alone.
    ///
    /// Unlike [`advance_millis`], exchanges that threads run at once
    /// overlap in virtual time: each moves time to its own absolute
    /// deadline (a monotonic maximum) instead of adding its latency.
    /// Returns the clock value after the call.
    ///
    /// The clock is read first and written only when the deadline is
    /// ahead of it: in a world that charges no latency every exchange
    /// ends on "now", and a write per exchange would take the line
    /// every reader of the clock shares away from all of them.
    ///
    /// [`advance_millis`]: SimClock::advance_millis
    pub fn advance_to_millis(&self, deadline_ms: u64) -> u64 {
        let now = self.now_millis();
        if deadline_ms <= now {
            return now;
        }
        self.millis
            .fetch_max(deadline_ms, Ordering::Relaxed)
            .max(deadline_ms)
    }
}

impl ede_trace::TraceClock for SimClock {
    fn trace_now_millis(&self) -> u64 {
        self.now_millis()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_sim_epoch() {
        let c = SimClock::new();
        assert_eq!(c.now_secs() as u64, SIM_EPOCH_SECS);
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance_secs(90);
        assert_eq!(b.now_secs() as u64, SIM_EPOCH_SECS + 90);
    }

    #[test]
    fn advance_to_is_monotonic() {
        let c = SimClock::new();
        let start = c.now_millis();
        assert_eq!(c.advance_to_millis(start + 50), start + 50);
        assert_eq!(c.now_millis(), start + 50);
        // A deadline in the past does not rewind.
        assert_eq!(c.advance_to_millis(start + 10), start + 50);
        assert_eq!(c.now_millis(), start + 50);
        // Advancing to "now" is a no-op.
        assert_eq!(c.advance_to_millis(start + 50), start + 50);
        assert_eq!(c.now_millis(), start + 50);
    }

    #[test]
    fn millisecond_resolution() {
        let c = SimClock::new();
        c.advance_millis(999);
        assert_eq!(c.now_secs() as u64, SIM_EPOCH_SECS);
        c.advance_millis(1);
        assert_eq!(c.now_secs() as u64, SIM_EPOCH_SECS + 1);
    }
}
