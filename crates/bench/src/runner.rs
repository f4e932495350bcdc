//! The deterministic parallel trial executor every `exp` sweep runs
//! on.
//!
//! A sweep is a list of **independent trials** (seed × config point),
//! each a [`TrialSpec`], and a closure that runs one. [`map`] fans the
//! trials across `jobs` worker threads pulling from one shared queue (an
//! idle worker takes the next un-run trial), yet its observable output
//! is **byte-identical to a serial run**:
//!
//! - every trial draws from its own RNG, derived from the trial seed
//!   alone ([`TrialSpec::rng`]) — never from a shared stream;
//! - every trial runs under its own observability arena (fresh
//!   [`csaw_obs::Registry`], fresh virtual clock, a fresh
//!   [`csaw_obs::Timeline`] inheriting the caller's window
//!   configuration, and a [`csaw_obs::BufferSink`] capturing its
//!   events — telemetry frames included);
//! - after the worker barrier the arenas are folded into the caller's
//!   scope in **trial-ordinal order**: registries merge (addition
//!   commutes), buffered events replay into the real sink, and the
//!   caller's virtual clock advances to the trial maximum.
//!
//! Worker scheduling therefore affects wall-clock time and nothing
//! else. `--jobs 1` and `--jobs 64` write the same bytes.
//!
//! # Minimal sweep
//!
//! ```
//! use csaw_bench::runner::{self, TrialSpec};
//!
//! /// Monte-Carlo mean of x² over uniform x — one trial per sample.
//! fn mean_of_squares(seed: u64, jobs: usize) -> f64 {
//!     let specs: Vec<TrialSpec> = (0..8)
//!         .map(|i| TrialSpec::forked("mean-of-squares", seed, i, format!("sample-{i}")))
//!         .collect();
//!     let squares = runner::map(&specs, jobs, |spec| {
//!         let x = spec.rng().f64();
//!         x * x
//!     });
//!     squares.iter().sum::<f64>() / squares.len() as f64
//! }
//!
//! let serial = mean_of_squares(1, 1);
//! let parallel = mean_of_squares(1, 4);
//! assert_eq!(serial, parallel, "jobs must not change the result");
//! ```

use csaw_obs::clock::ManualClock;
use csaw_obs::contention::PerfMode;
use csaw_obs::metrics::Registry;
use csaw_obs::scope::{self, ObsCtx};
use csaw_obs::sink::{BufferSink, Sink};
use csaw_obs::timeseries::Timeline;
use csaw_obs::Event;
use csaw_simnet::rng::{fnv1a, DetRng};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// One independent unit of experiment work.
///
/// The spec carries everything a worker needs: a merge position
/// (`ordinal`), a human-readable `label` for progress/timing output,
/// and the trial's private RNG `seed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialSpec {
    /// Merge position: results are combined in ascending ordinal order
    /// after the barrier, whatever order workers finished in.
    pub ordinal: u64,
    /// Human-readable config-point label (`"TCP/IP × parallel"`).
    pub label: String,
    /// The trial's RNG seed. Trials must draw only from RNGs derived
    /// from this seed; sharing a stream across trials would make the
    /// output depend on execution order.
    pub seed: u64,
}

impl TrialSpec {
    /// A spec whose seed is splitmix-forked from
    /// `(experiment, exp_seed, ordinal)` — the default for new
    /// decompositions.
    pub fn forked(
        experiment: &str,
        exp_seed: u64,
        ordinal: u64,
        label: impl Into<String>,
    ) -> TrialSpec {
        TrialSpec {
            ordinal,
            label: label.into(),
            seed: fork_seed(exp_seed, experiment, ordinal),
        }
    }

    /// A spec with an explicit seed — for experiments that predate the
    /// runner and must keep their historical RNG streams (and therefore
    /// their published reference numbers) bit-stable.
    pub fn salted(seed: u64, ordinal: u64, label: impl Into<String>) -> TrialSpec {
        TrialSpec {
            ordinal,
            label: label.into(),
            seed,
        }
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

/// Everything a trial leaves behind: its value plus its observability
/// arena, carried back to the merge step.
struct TrialResult<T> {
    value: T,
    events: Vec<Event>,
    registry: Arc<Registry>,
    clock_us: u64,
}

fn run_one<T, F>(
    spec: &TrialSpec,
    run: &F,
    enabled: bool,
    verbose: bool,
    perf: PerfMode,
    parent_timeline: &Timeline,
) -> TrialResult<T>
where
    F: Fn(&TrialSpec) -> T,
{
    let sink = Arc::new(BufferSink::new(enabled));
    let ctx = Arc::new(
        ObsCtx::new()
            .with_clock(Arc::new(ManualClock::new()))
            .with_sink(sink.clone() as Arc<dyn Sink>)
            .with_verbose(verbose)
            // Trials inherit the caller's perf-attribution mode, so a
            // perf-enabled sweep sees into the locks its trials build.
            .with_perf(perf)
            // ... and the caller's window configuration, on a private
            // timeline: frames close into the trial's BufferSink, so
            // they replay in ordinal order like every other event.
            .with_timeline(Arc::new(parent_timeline.child())),
    );
    let value = {
        let _guard = scope::install(ctx.clone());
        run(spec)
    };
    // End-of-run close: the runner owns the final flush so every trial
    // leaves exactly one partial last window. Trial bodies must not
    // flush themselves. No-op when windowing is off.
    ctx.flush_timeline();
    TrialResult {
        value,
        events: sink.take(),
        registry: ctx.registry.clone(),
        clock_us: ctx.clock.now_us(),
    }
}

/// Run `run` once per spec across `jobs` workers, fold the per-trial
/// arenas into the calling scope in ordinal order, and return the trial
/// values in that order.
///
/// Contract: `run` must be a pure function of the spec, whatever it
/// captured by shared reference, and the trial-scoped observability
/// context — no shared mutable state, no draws from an RNG owned by
/// another trial. `jobs ≤ 1` runs serially on the calling thread —
/// through the *same* per-trial arena path, which is what makes the
/// byte-equality guarantee structural rather than aspirational.
pub fn map<T, F>(specs: &[TrialSpec], jobs: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(&TrialSpec) -> T + Sync,
{
    let parent = scope::current();
    let enabled = parent.sink.enabled();
    let verbose = parent.verbose;
    let perf = parent.perf_mode();
    let timeline = parent.timeline.clone();
    let jobs = jobs.max(1).min(specs.len().max(1));

    let mut slots: Vec<Option<TrialResult<T>>> = if jobs <= 1 {
        specs
            .iter()
            .map(|s| Some(run_one(s, &run, enabled, verbose, perf, &timeline)))
            .collect()
    } else {
        // One shared work deque: each idle worker takes the next un-run
        // trial from the front. Assignment of trials to workers is
        // nondeterministic; nothing downstream can see it.
        let queue = Mutex::new((0..specs.len()).collect::<VecDeque<_>>());
        let slots: Vec<Mutex<Option<TrialResult<T>>>> =
            specs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|sc| {
            for _ in 0..jobs {
                sc.spawn(|| loop {
                    let claimed = queue.lock().unwrap_or_else(|e| e.into_inner()).pop_front();
                    let Some(i) = claimed else { break };
                    let result = run_one(&specs[i], &run, enabled, verbose, perf, &timeline);
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
            .collect()
    };

    // The barrier is behind us; merge in ordinal order (stable on list
    // position for equal ordinals).
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by_key(|&i| specs[i].ordinal);
    let mut values = Vec::with_capacity(specs.len());
    for i in order {
        let r = slots[i]
            .take()
            .expect("worker barrier guarantees every trial ran");
        parent.registry.merge_from(&r.registry);
        if enabled {
            for e in &r.events {
                parent.sink.record(e);
            }
        }
        // Runner's own windowed series, recorded here rather than on
        // the worker threads: the merge loop runs on the caller thread
        // in ordinal order, so the count is a pure function of the
        // trial list and the jobs-independence guarantee holds.
        if timeline.enabled() {
            timeline.counter("runner.trials.merged", &[]).inc();
        }
        parent.clock.set_us(r.clock_us);
        values.push(r.value);
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic sweep exercising every arena surface: events,
    /// counters, histograms, gauges, per-trial clocks — with per-trial
    /// busy-work skew so workers finish far out of ordinal order.
    fn synthetic(seed: u64, trials: u64, jobs: usize) -> Vec<u64> {
        let specs: Vec<TrialSpec> = (0..trials)
            .map(|i| TrialSpec::forked("synthetic", seed, i, format!("t{i}")))
            .collect();
        map(&specs, jobs, |spec| {
            let mut rng = spec.rng();
            // Adversarial interleaving: early ordinals do the most
            // work, so under parallel execution they finish *last* and
            // a naive completion-order merge would invert the stream.
            let spin = (trials - spec.ordinal) * 40_000;
            let mut acc = spec.seed;
            for _ in 0..spin {
                acc = acc.rotate_left(7) ^ 0x9e37;
            }
            std::hint::black_box(acc);
            let draw = rng.range_u64(0, 1_000);
            csaw_obs::advance_clock_us(1_000 * (spec.ordinal + 1));
            csaw_obs::event!("synthetic.trial", ordinal = spec.ordinal, draw = draw);
            csaw_obs::inc("synthetic.trials");
            csaw_obs::observe_us("synthetic.draw", draw);
            csaw_obs::current().registry.gauge("synthetic.net").add(1);
            draw
        })
    }

    /// Run the synthetic experiment under a fresh scope; return the
    /// reduced output, the replayed event stream rendered to JSON, and
    /// the metrics snapshot.
    fn run_instrumented(jobs: usize) -> (Vec<u64>, String, String) {
        let buf = Arc::new(BufferSink::new(true));
        let ctx = Arc::new(
            ObsCtx::new()
                .with_clock(Arc::new(ManualClock::new()))
                .with_sink(buf.clone()),
        );
        let _guard = scope::install(ctx.clone());
        let out = synthetic(7, 12, jobs);
        let events: Vec<String> = buf
            .take()
            .into_iter()
            .map(|e| e.to_json().to_string_compact())
            .collect();
        let snapshot = ctx.registry.snapshot().to_string_pretty();
        (out, events.join("\n"), snapshot)
    }

    #[test]
    fn parallel_output_is_byte_identical_to_serial() {
        let (out1, events1, snap1) = run_instrumented(1);
        for jobs in [4, 16] {
            let (out, events, snap) = run_instrumented(jobs);
            assert_eq!(out, out1, "jobs={jobs}: reduced output diverged");
            assert_eq!(events, events1, "jobs={jobs}: event stream diverged");
            assert_eq!(snap, snap1, "jobs={jobs}: metrics snapshot diverged");
        }
    }

    #[test]
    fn events_replay_in_ordinal_order() {
        let (_, events, _) = run_instrumented(16);
        let ordinals: Vec<u64> = events
            .lines()
            .map(|l| {
                let v = csaw_obs::JsonValue::parse(l).expect("event json");
                v.get("fields")
                    .and_then(|f| f.get("ordinal"))
                    .and_then(|o| o.as_u64())
                    .expect("ordinal field")
            })
            .collect();
        assert_eq!(ordinals, (0..12).collect::<Vec<u64>>());
    }

    #[test]
    fn parent_clock_advances_to_trial_maximum() {
        let ctx = Arc::new(ObsCtx::new().with_clock(Arc::new(ManualClock::new())));
        let _guard = scope::install(ctx.clone());
        let _ = synthetic(1, 5, 4);
        // Trial k sets its clock to 1000·(k+1); the merged maximum is
        // the last trial's.
        assert_eq!(ctx.clock.now_us(), 5_000);
    }

    #[test]
    fn metrics_totals_match_trial_count() {
        let ctx = Arc::new(ObsCtx::new().with_clock(Arc::new(ManualClock::new())));
        let _guard = scope::install(ctx.clone());
        let _ = synthetic(3, 9, 16);
        assert_eq!(ctx.registry.counter("synthetic.trials").get(), 9);
        assert_eq!(ctx.registry.histogram("synthetic.draw").count(), 9);
        assert_eq!(ctx.registry.gauge("synthetic.net").get(), 9);
    }

    #[test]
    fn out_of_order_ordinals_merge_by_ordinal_not_position() {
        // Listed high-to-low: merge order must follow ordinals.
        let specs: Vec<TrialSpec> = (0..6u64)
            .rev()
            .map(|i| TrialSpec::salted(i, i, format!("r{i}")))
            .collect();
        assert_eq!(
            map(&specs, 4, |spec| spec.ordinal * 10),
            vec![0, 10, 20, 30, 40, 50]
        );
    }

    #[test]
    fn perf_off_leaves_no_runner_or_lock_metrics() {
        let ctx = Arc::new(ObsCtx::new().with_clock(Arc::new(ManualClock::new())));
        let _guard = scope::install(ctx.clone());
        let _ = synthetic(5, 6, 4);
        let snap = ctx.registry.snapshot().to_string_compact();
        assert!(
            !snap.contains("runner.") && !snap.contains("lock."),
            "perf-off runs must not grow new metric families: {snap}"
        );
    }

    #[test]
    fn trial_timelines_inherit_config_and_replay_frames_byte_identically() {
        use csaw_obs::timeseries::FRAME_EVENT;
        use csaw_obs::{SloSet, WindowCfg};

        /// Records one windowed counter sample per trial and advances
        /// past a window boundary, so every trial emits frames.
        fn windowed(jobs: usize) {
            let specs: Vec<TrialSpec> = (0..6u64)
                .map(|i| TrialSpec::forked("windowed", 9, i, format!("w{i}")))
                .collect();
            map(&specs, jobs, |spec| {
                let ctx = scope::current();
                assert!(
                    ctx.timeline.enabled(),
                    "trial timeline must inherit the parent window config"
                );
                ctx.timeline
                    .counter("trial.work", &[("o", &spec.ordinal.to_string())])
                    .inc();
                // Crosses the 1 ms boundary (closes window 0), leaves a
                // partial window for the runner's end-of-run flush.
                csaw_obs::advance_clock_us(1_500);
            });
        }

        let run_at = |jobs: usize| -> String {
            let buf = Arc::new(BufferSink::new(true));
            let ctx = Arc::new(
                ObsCtx::new()
                    .with_clock(Arc::new(ManualClock::new()))
                    .with_sink(buf.clone()),
            );
            ctx.timeline.configure(WindowCfg {
                window_us: 1_000,
                retain: 8,
                slos: Arc::new(SloSet::default()),
            });
            let _guard = scope::install(ctx.clone());
            windowed(jobs);
            buf.take()
                .into_iter()
                .filter(|e| e.name == FRAME_EVENT)
                .map(|e| e.to_json().to_string_compact())
                .collect::<Vec<_>>()
                .join("\n")
        };

        let serial = run_at(1);
        // 6 trials × (1 boundary close + 1 end-of-run flush) = 12 frames.
        assert_eq!(serial.lines().count(), 12, "frames:\n{serial}");
        assert!(serial.contains("trial.work{o=3}"));
        assert_eq!(run_at(4), serial, "frames must not depend on jobs");
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
        let _ = synthetic(4, 5, 4);
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
        let values: Vec<u64> = map(&[], 8, |_| unreachable!("no trials"));
        assert_eq!(values.len(), 0);
    }
}
