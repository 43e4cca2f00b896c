//! The time seam: a [`Clock`] trait the soak/driver layers stamp time
//! through, so the same workload code runs against wall time in
//! production and against a manually advanced (or fully simulated)
//! clock in deterministic tests.
//!
//! Nothing in the store's *protocol* layer reads time: a shard core
//! serves each call as one critical section, with no timeouts or spin
//! bounds. Wall time enters only where workloads are paced and
//! latencies are stamped ([`drive_clients`](crate::soak::drive_clients)),
//! and that is exactly the surface this trait abstracts. `ff-dst`'s
//! whole-system simulator keeps its own logical clock and calls the
//! store synchronously, so it never needs one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond clock.
pub trait Clock: Send + Sync {
    /// Nanoseconds since this clock's origin. Monotonic.
    fn now_nanos(&self) -> u64;
}

/// The production clock: monotonic wall time since construction.
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }

    /// The instant this clock counts from.
    pub fn origin(&self) -> Instant {
        self.origin
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A manually advanced clock: time moves only when a test (or a
/// simulator) says so.
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// A clock stopped at zero.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Advance by `nanos`.
    pub fn advance(&self, nanos: u64) {
        self.nanos.fetch_add(nanos, Ordering::SeqCst);
    }

    /// Jump to an absolute reading (must not move backwards).
    pub fn set(&self, nanos: u64) {
        self.nanos.fetch_max(nanos, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_moves_only_on_demand() {
        let c = ManualClock::new();
        assert_eq!(c.now_nanos(), 0);
        c.advance(5);
        assert_eq!(c.now_nanos(), 5);
        c.set(3); // never backwards
        assert_eq!(c.now_nanos(), 5);
        c.set(9);
        assert_eq!(c.now_nanos(), 9);
    }
}
