//! Monotonic nanosecond clocks, injectable so windowed monitors, the
//! shard supervisor and their tests control time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond clock. Injectable so tests and soaks control
/// time; production uses [`MonotonicClock`].
pub trait Clock: Send + Sync {
    /// Nanoseconds since the clock's epoch. Must be non-decreasing.
    fn now_ns(&self) -> u64;
}

/// Wall clock: nanoseconds since construction.
#[derive(Debug)]
pub struct MonotonicClock {
    epoch: Instant,
}

impl MonotonicClock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }
}

/// A hand-cranked clock for deterministic soaks and proptests.
#[derive(Debug, Default)]
pub struct ManualClock {
    now_ns: AtomicU64,
}

impl ManualClock {
    /// A clock parked at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Jumps the clock to an absolute nanosecond timestamp.
    pub fn set(&self, ns: u64) {
        self.now_ns.store(ns, Ordering::SeqCst);
    }

    /// Advances the clock by `ns` and returns the new timestamp.
    pub fn advance(&self, ns: u64) -> u64 {
        self.now_ns.fetch_add(ns, Ordering::SeqCst) + ns
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::SeqCst)
    }
}
