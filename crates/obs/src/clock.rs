//! The telemetry clock.
//!
//! Everything in the simulation runs on virtual time, so trace
//! timestamps must come from the simulation clock — never the OS — or
//! traces stop being bit-reproducible. [`ManualClock`] is that clock:
//! the simulator advances it, and every event and span reads it. The
//! real proxy stamps its measurements on the same clock, so a harness
//! that drives it can pin them.

use std::sync::atomic::{AtomicU64, Ordering};

/// A manually-driven clock: the simulation advances it explicitly.
#[derive(Debug, Default)]
pub struct ManualClock(AtomicU64);

impl ManualClock {
    /// A clock at time zero.
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Current time in microseconds since simulation start.
    pub fn now_us(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Move the clock to `us` (monotone: earlier values are ignored).
    pub fn set_us(&self, us: u64) {
        self.0.fetch_max(us, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_is_monotone() {
        let c = ManualClock::new();
        assert_eq!(c.now_us(), 0);
        c.set_us(100);
        c.set_us(40); // ignored: time does not go backwards
        assert_eq!(c.now_us(), 100);
    }
}
