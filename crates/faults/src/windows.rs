//! Seed-deterministic outage windows.
//!
//! An [`OutageSchedule`] is a precomputed, sorted list of `[start, end)`
//! downtime windows over a horizon. Holding times alternate between
//! "up" and "down" phases with exponentially distributed durations, all
//! drawn from a labelled [`DetRng`] fork — so two schedules generated
//! with the same seed and label are identical, and adding a schedule
//! for a new component never perturbs existing ones.

use csaw_simnet::rng::DetRng;
use csaw_simnet::time::{SimDuration, SimTime};

/// Alternating up/down windows over a horizon, queryable by instant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OutageSchedule {
    /// Sorted, non-overlapping `[start, end)` downtime windows.
    windows: Vec<(SimTime, SimTime)>,
}

/// Exponential holding time with the given mean (inverse-CDF sampling
/// from one uniform draw; mean 0 yields the zero span).
fn exp_duration(rng: &mut DetRng, mean: SimDuration) -> SimDuration {
    if mean.is_zero() {
        return SimDuration::ZERO;
    }
    // 1 - u is in (0, 1], so ln is finite and non-positive.
    let u = rng.f64();
    mean.mul_f64(-(1.0 - u).ln())
}

impl OutageSchedule {
    /// Generate alternating up/down phases until `horizon`. `label`
    /// names the faulted component (e.g. `"store-ingest"`,
    /// `"collector-b"`): schedules with different labels are
    /// independent streams of the same seed.
    pub fn generate(
        seed: u64,
        label: &str,
        horizon: SimDuration,
        mean_up: SimDuration,
        mean_down: SimDuration,
    ) -> OutageSchedule {
        let mut rng = DetRng::new(seed).fork(label);
        let mut windows = Vec::new();
        if mean_down.is_zero() {
            return OutageSchedule { windows };
        }
        let mut t = SimTime::ZERO + exp_duration(&mut rng, mean_up);
        while t < SimTime::ZERO + horizon {
            // Downtime of at least 1 µs so the window is observable.
            let down = exp_duration(&mut rng, mean_down).max(SimDuration::from_micros(1));
            let end = t.saturating_add(down);
            windows.push((t, end));
            t = end + exp_duration(&mut rng, mean_up).max(SimDuration::from_micros(1));
        }
        OutageSchedule { windows }
    }

    /// A schedule from explicit windows (sorted internally).
    pub fn from_windows(mut windows: Vec<(SimTime, SimTime)>) -> OutageSchedule {
        windows.sort();
        OutageSchedule { windows }
    }

    /// Is the component down at `now`?
    pub fn is_down(&self, now: SimTime) -> bool {
        // Binary search for the last window starting at or before `now`.
        let i = self.windows.partition_point(|(start, _)| *start <= now);
        i > 0 && now < self.windows[i - 1].1
    }

    /// The downtime windows, sorted.
    pub fn windows(&self) -> &[(SimTime, SimTime)] {
        &self.windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let mk = || {
            OutageSchedule::generate(
                7,
                "store-ingest",
                SimDuration::from_secs(3_600),
                SimDuration::from_secs(300),
                SimDuration::from_secs(60),
            )
        };
        assert_eq!(mk(), mk());
        assert!(!mk().windows().is_empty());
    }

    #[test]
    fn labels_are_independent_streams() {
        let a = OutageSchedule::generate(
            7,
            "collector-a",
            SimDuration::from_secs(3_600),
            SimDuration::from_secs(300),
            SimDuration::from_secs(60),
        );
        let b = OutageSchedule::generate(
            7,
            "collector-b",
            SimDuration::from_secs(3_600),
            SimDuration::from_secs(300),
            SimDuration::from_secs(60),
        );
        assert_ne!(a, b);
    }

    #[test]
    fn is_down_matches_windows() {
        let s = OutageSchedule::from_windows(vec![
            (SimTime::from_secs(10), SimTime::from_secs(20)),
            (SimTime::from_secs(50), SimTime::from_secs(55)),
        ]);
        assert!(!s.is_down(SimTime::from_secs(5)));
        assert!(s.is_down(SimTime::from_secs(10)));
        assert!(s.is_down(SimTime::from_secs(19)));
        assert!(!s.is_down(SimTime::from_secs(20)));
        assert!(s.is_down(SimTime::from_secs(52)));
        assert!(!s.is_down(SimTime::from_secs(100)));
    }

    #[test]
    fn zero_mean_down_is_always_up() {
        let s = OutageSchedule::generate(
            1,
            "x",
            SimDuration::from_secs(1_000),
            SimDuration::from_secs(10),
            SimDuration::ZERO,
        );
        assert!(s.windows().is_empty());
        assert!(!s.is_down(SimTime::from_secs(500)));
    }
}
