//! The trial loop every `exp` sweep runs on.
//!
//! A sweep is a list of **independent trials** (seed × config point),
//! each a [`TrialSpec`] at the same position as its case in the sweep's
//! case list, and a closure that runs one given that position. [`map`]
//! runs them one after another, in list order, and returns their values
//! in that order:
//!
//! - every trial draws from its own RNG, derived from the trial seed
//!   alone ([`TrialSpec::rng`]) — never from a shared stream, so adding
//!   or reordering a case moves only that case's draws;
//! - every trial runs under its own observability scope: a fresh
//!   [`csaw_obs::Registry`] (merged into the caller's after the trial),
//!   a fresh virtual clock starting at zero, and a fresh
//!   [`csaw_obs::Timeline`] inheriting the caller's window
//!   configuration. Its events, telemetry frames included, go straight
//!   to the caller's sink, so a `--trace-out x.jsonl` stream grows
//!   while the sweep runs.
//!
//! # Minimal sweep
//!
//! ```
//! use csaw_bench::runner::{self, TrialSpec};
//!
//! /// Monte-Carlo mean of x² over uniform x — one trial per sample.
//! fn mean_of_squares(seed: u64) -> f64 {
//!     let specs: Vec<TrialSpec> = (0..8)
//!         .map(|i| TrialSpec::forked("mean-of-squares", seed, i))
//!         .collect();
//!     let squares = runner::map(&specs, |_, spec| {
//!         let x = spec.rng().f64();
//!         x * x
//!     });
//!     squares.iter().sum::<f64>() / squares.len() as f64
//! }
//!
//! assert_eq!(mean_of_squares(1), mean_of_squares(1), "a pure function of the seed");
//! ```

use csaw_obs::clock::ManualClock;
use csaw_obs::scope::{self, ObsCtx};
use csaw_simnet::rng::{fnv1a, DetRng};
use std::sync::Arc;

/// One independent unit of experiment work: the trial's private RNG
/// seed. Its case is the one at the same position in the sweep's case
/// list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialSpec {
    /// The trial's RNG seed. Trials must draw only from RNGs derived
    /// from this seed; sharing a stream across trials would make one
    /// case's output depend on the cases before it.
    pub seed: u64,
}

impl TrialSpec {
    /// A spec whose seed is splitmix-forked from
    /// `(experiment, exp_seed, ordinal)`, `ordinal` being the case's
    /// position — the default for new decompositions.
    pub fn forked(experiment: &str, exp_seed: u64, ordinal: u64) -> TrialSpec {
        TrialSpec {
            seed: fork_seed(exp_seed, experiment, ordinal),
        }
    }

    /// A spec with an explicit seed — for experiments that predate the
    /// runner and must keep their historical RNG streams (and therefore
    /// their published reference numbers) bit-stable.
    pub fn salted(seed: u64) -> TrialSpec {
        TrialSpec { seed }
    }

    /// The trial's private generator.
    pub fn rng(&self) -> DetRng {
        DetRng::new(self.seed)
    }
}

/// Derive a trial seed from `(exp_seed, experiment, ordinal)`: FNV-1a
/// over the experiment name folded with the ordinal, finished with two
/// SplitMix64 rounds. Labelled forking means adding a trial to one
/// experiment never perturbs another's draws.
pub fn fork_seed(exp_seed: u64, experiment: &str, ordinal: u64) -> u64 {
    let h = fnv1a(experiment.as_bytes());
    let mut x = exp_seed ^ h.rotate_left(17) ^ ordinal.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut out = 0u64;
    for _ in 0..2 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        out = z ^ (z >> 31);
    }
    out
}

/// Run `run(i, spec)` for each spec in list order, `i` its position,
/// each trial under its own observability scope; return the trial
/// values in that order.
///
/// After each trial its registry merges into the caller's, the caller's
/// clock advances to the trial's end time if that is later, and, when
/// the caller's
/// timeline is configured, its `runner.trials.merged` counter counts
/// the trial.
///
/// Contract: `run` must be a pure function of the spec, whatever it
/// captured by shared reference, and the trial-scoped observability
/// context — no state carried from one trial to the next, no draws
/// from an RNG owned by another trial.
pub fn map<T>(specs: &[TrialSpec], run: impl Fn(usize, &TrialSpec) -> T) -> Vec<T> {
    let parent = scope::current();
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let ctx = Arc::new(
                ObsCtx::new()
                    .with_clock(Arc::new(ManualClock::new()))
                    .with_sink(parent.sink.clone())
                    .with_verbose(parent.verbose)
                    // Trials inherit the caller's perf-attribution mode,
                    // so a perf-enabled sweep sees into the locks its
                    // trials build.
                    .with_perf(parent.perf_mode())
                    .with_timeline(Arc::new(parent.timeline.child())),
            );
            let value = {
                let _guard = scope::install(ctx.clone());
                run(i, spec)
            };
            // End-of-run close: the runner owns the final flush so every
            // trial leaves exactly one partial last window. Trial bodies
            // must not flush themselves. No-op when windowing is off.
            ctx.flush_timeline();
            parent.registry.merge_from(&ctx.registry);
            if parent.timeline.enabled() {
                parent.timeline.counter("runner.trials.merged", &[]).inc();
            }
            parent.clock.set_us(ctx.clock.now_us());
            value
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_obs::sink::BufferSink;

    /// A synthetic sweep exercising every scope surface: events,
    /// counters, histograms, gauges, per-trial clocks.
    fn synthetic(seed: u64, trials: u64) -> Vec<u64> {
        let specs: Vec<TrialSpec> = (0..trials)
            .map(|i| TrialSpec::forked("synthetic", seed, i))
            .collect();
        map(&specs, |i, spec| {
            let draw = spec.rng().range_u64(0, 1_000);
            let ordinal = i as u64;
            csaw_obs::advance_clock_us(1_000 * (ordinal + 1));
            csaw_obs::event!("synthetic.trial", ordinal = ordinal, draw = draw);
            csaw_obs::inc("synthetic.trials");
            csaw_obs::observe_us("synthetic.draw", draw);
            csaw_obs::current().registry.gauge("synthetic.net").add(1);
            draw
        })
    }

    /// A fresh scope recording into a buffer, installed until the guard
    /// drops.
    fn buffered() -> (Arc<ObsCtx>, Arc<BufferSink>, scope::ScopeGuard) {
        let buf = Arc::new(BufferSink::new());
        let ctx = Arc::new(
            ObsCtx::new()
                .with_clock(Arc::new(ManualClock::new()))
                .with_sink(buf.clone()),
        );
        let guard = scope::install(ctx.clone());
        (ctx, buf, guard)
    }

    #[test]
    fn events_arrive_in_list_order() {
        let (_ctx, buf, _guard) = buffered();
        let _ = synthetic(7, 12);
        let ordinals: Vec<u64> = buf
            .take()
            .iter()
            .map(|e| {
                e.to_json()
                    .get("fields")
                    .and_then(|f| f.get("ordinal"))
                    .and_then(|o| o.as_u64())
                    .expect("ordinal field")
            })
            .collect();
        assert_eq!(ordinals, (0..12).collect::<Vec<u64>>());
    }

    #[test]
    fn a_trial_streams_into_the_callers_sink() {
        let (_ctx, buf, _guard) = buffered();
        let specs: Vec<TrialSpec> = (0..2u64).map(TrialSpec::salted).collect();
        // Each trial records one event and returns what the caller's
        // sink held when it started: the second trial must already see
        // the first trial's event there, not wait for the sweep to end.
        let seen = map(&specs, |i, _| {
            let before = buf.len();
            csaw_obs::event!("streamed", ordinal = i as u64);
            before
        });
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn parent_clock_advances_to_trial_maximum() {
        let ctx = Arc::new(ObsCtx::new().with_clock(Arc::new(ManualClock::new())));
        let _guard = scope::install(ctx.clone());
        let _ = synthetic(1, 5);
        // Trial k sets its clock to 1000·(k+1); the merged maximum is
        // the last trial's.
        assert_eq!(ctx.clock.now_us(), 5_000);
    }

    #[test]
    fn metrics_totals_match_trial_count() {
        let ctx = Arc::new(ObsCtx::new().with_clock(Arc::new(ManualClock::new())));
        let _guard = scope::install(ctx.clone());
        let _ = synthetic(3, 9);
        assert_eq!(ctx.registry.counter("synthetic.trials").get(), 9);
        assert_eq!(ctx.registry.histogram("synthetic.draw").count(), 9);
        assert_eq!(ctx.registry.gauge("synthetic.net").get(), 9);
    }

    #[test]
    fn perf_off_leaves_no_runner_or_lock_metrics() {
        let ctx = Arc::new(ObsCtx::new().with_clock(Arc::new(ManualClock::new())));
        let _guard = scope::install(ctx.clone());
        let _ = synthetic(5, 6);
        let snap = ctx.registry.snapshot().to_string_compact();
        assert!(
            !snap.contains("runner.") && !snap.contains("lock."),
            "perf-off runs must not grow new metric families: {snap}"
        );
    }

    #[test]
    fn trial_timelines_inherit_config_and_close_their_frames() {
        use csaw_obs::timeseries::FRAME_EVENT;
        use csaw_obs::{SloSet, WindowCfg};

        let (ctx, buf, _guard) = buffered();
        ctx.timeline.configure(WindowCfg {
            window_us: 1_000,
            retain: 8,
            slos: Arc::new(SloSet::default()),
        });
        // One windowed counter sample per trial, then a step past a
        // window boundary, so every trial emits frames.
        let specs: Vec<TrialSpec> = (0..6u64)
            .map(|i| TrialSpec::forked("windowed", 9, i))
            .collect();
        map(&specs, |i, _| {
            let ctx = scope::current();
            assert!(
                ctx.timeline.enabled(),
                "trial timeline must inherit the parent window config"
            );
            ctx.timeline
                .counter("trial.work", &[("o", &i.to_string())])
                .inc();
            // Crosses the 1 ms boundary (closes window 0), leaves a
            // partial window for the runner's end-of-run flush.
            csaw_obs::advance_clock_us(1_500);
        });
        let frames: Vec<String> = buf
            .take()
            .into_iter()
            .filter(|e| e.name == FRAME_EVENT)
            .map(|e| e.to_json().to_string_compact())
            .collect();
        // 6 trials × (1 boundary close + 1 end-of-run flush) = 12 frames.
        assert_eq!(frames.len(), 12, "frames:\n{}", frames.join("\n"));
        assert!(frames.iter().any(|f| f.contains("trial.work{o=3}")));
    }

    #[test]
    fn merge_feeds_runner_series_into_parent_timeline() {
        use csaw_obs::{SloSet, WindowCfg};
        let ctx = Arc::new(ObsCtx::new().with_clock(Arc::new(ManualClock::new())));
        ctx.timeline.configure(WindowCfg {
            window_us: 1_000_000,
            retain: 4,
            slos: Arc::new(SloSet::default()),
        });
        let _guard = scope::install(ctx.clone());
        let _ = synthetic(4, 5);
        ctx.flush_timeline();
        let frames = ctx.timeline.recent_frames();
        let merged: u64 = frames
            .iter()
            .map(|f| f.family_count("runner.trials.merged"))
            .sum();
        assert_eq!(merged, 5, "one merge per trial");
    }

    #[test]
    fn fork_seed_separates_experiments_and_ordinals() {
        let a = fork_seed(1, "fig5a", 0);
        assert_eq!(a, fork_seed(1, "fig5a", 0), "deterministic");
        assert_ne!(a, fork_seed(1, "fig5a", 1), "ordinal-sensitive");
        assert_ne!(a, fork_seed(1, "fig5b", 0), "label-sensitive");
        assert_ne!(a, fork_seed(2, "fig5a", 0), "seed-sensitive");
    }

    #[test]
    fn empty_trial_list_reduces_empty() {
        let values: Vec<u64> = map(&[], |_, _| unreachable!("no trials"));
        assert_eq!(values.len(), 0);
    }
}
