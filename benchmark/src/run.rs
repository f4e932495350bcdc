//! One run of one workload: repeated set-up, warm-up rounds, then
//! fixed-size rounds of calibrated phases until the time budget is
//! spent; and the accounting every workload shares.

use crate::calib::Calibrator;
use crate::estimator::{median, Sample};
use crate::trace::Tracer;
use csaw::global::IngestReceipt;
use std::collections::BTreeMap;
use std::time::Instant;

/// Rounds run and thrown away before measuring (caches fill, pools
/// connect, the allocator's arenas grow).
pub const WARMUP_ROUNDS: usize = 2;
/// Never report a median of fewer rounds than this.
pub const MIN_ROUNDS: usize = 10;
/// Nor spend more than this many, however fast the host.
pub const MAX_ROUNDS: usize = 400;
/// How many times the one-time set-up is built, to report its median.
pub const SETUP_REPEATS: usize = 5;

/// The three throughput slots every workload fills (see README: which
/// phase of which workload lands in which).
pub const WRITE: &str = "write_reports_per_s";
/// See [`WRITE`].
pub const READ: &str = "read_records_per_s";
/// See [`WRITE`].
pub const FOCUS: &str = "focus_ops_per_s";

/// Operation accounting and the span buffer: what a timed phase may
/// touch while the [`Run`] itself is borrowed by the phase timer.
#[derive(Debug)]
pub struct Ops {
    /// Spans (off in the untraced run).
    pub tracer: Tracer,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations refused, errored or never accepted, and failed checks.
    pub failed: u64,
    /// The first few failure descriptions, for the report.
    pub failures: Vec<String>,
}

impl Ops {
    fn new(tracer: Tracer) -> Ops {
        Ops {
            tracer,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Count one operation that succeeded.
    #[inline]
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Count one operation or check; a false `ok` is a failure.
    #[inline]
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Count one post: the receipt must account for every submitted
    /// report exactly once.
    #[inline]
    pub fn receipt(&mut self, submitted: usize, r: &IngestReceipt) {
        let covered = r.accepted + r.rejected + r.deferred();
        self.check(covered == submitted, || {
            format!("receipt covers {covered} of {submitted} reports")
        });
    }
}

/// A run's accumulators.
#[derive(Debug)]
pub struct Run {
    /// Op counts and spans.
    pub ops: Ops,
    /// Seed-pure counts the workload publishes (must repeat exactly).
    pub counts: BTreeMap<&'static str, u64>,
    calib: Calibrator,
    /// The calibration that ended the previous phase, if no untimed
    /// work has run since.
    adjacent: Option<f64>,
    calibs_ms: Vec<f64>,
    recording: bool,
    phases: BTreeMap<&'static str, Vec<Sample>>,
    round_fixture_secs: f64,
    round_calibs: Vec<f64>,
    /// Per-round fixture rebuilds and one-time set-ups, as samples of
    /// one unit of work each.
    fixtures: Vec<Sample>,
    setups: Vec<Sample>,
    rounds: usize,
}

impl Run {
    /// A fresh run; `tracer` decides whether spans are recorded.
    pub fn new(tracer: Tracer) -> Run {
        Run {
            ops: Ops::new(tracer),
            counts: BTreeMap::new(),
            calib: Calibrator::new(),
            adjacent: None,
            calibs_ms: Vec::new(),
            recording: true,
            phases: BTreeMap::new(),
            round_fixture_secs: 0.0,
            round_calibs: Vec::new(),
            fixtures: Vec::new(),
            setups: Vec::new(),
            rounds: 0,
        }
    }

    fn calibrate(&mut self) -> f64 {
        let ms = self.calib.run();
        self.calibs_ms.push(ms);
        self.round_calibs.push(ms);
        ms
    }

    /// Build the workload's one-time fixtures [`SETUP_REPEATS`] times,
    /// each between two calibrations, and keep the last build.
    pub fn setup<T>(&mut self, mut build: impl FnMut(&mut Ops) -> T) -> T {
        let mut last = None;
        let mut before = self.calibrate();
        for _ in 0..SETUP_REPEATS {
            // Tear the previous build down outside the timed region.
            drop(last.take());
            let t0 = Instant::now();
            let built = build(&mut self.ops);
            let secs = t0.elapsed().as_secs_f64();
            let after = self.calibrate();
            self.setups.push(Sample {
                work: 1.0,
                secs,
                calib_ms: (before + after) / 2.0,
            });
            before = after;
            last = Some(built);
        }
        self.adjacent = None;
        last.expect("SETUP_REPEATS is at least 1")
    }

    /// Untimed per-round fixture work (fresh stores, registrations,
    /// batch copies). Its time is part of `setup_s`.
    pub fn fixture<T>(&mut self, f: impl FnOnce(&mut Ops) -> T) -> T {
        let t0 = Instant::now();
        let out = f(&mut self.ops);
        self.round_fixture_secs += t0.elapsed().as_secs_f64();
        self.adjacent = None;
        out
    }

    /// Untimed per-round output checks. Not set-up, not measured.
    pub fn verify<T>(&mut self, f: impl FnOnce(&mut Ops) -> T) -> T {
        let out = f(&mut self.ops);
        self.adjacent = None;
        out
    }

    /// One timed phase: a calibration on each side, and `f` returns the
    /// units of work it completed.
    pub fn phase(&mut self, metric: &'static str, f: impl FnOnce(&mut Ops) -> f64) {
        let before = match self.adjacent.take() {
            Some(ms) => ms,
            None => self.calibrate(),
        };
        let span = self.ops.tracer.begin(metric, self.rounds as u64);
        let t0 = Instant::now();
        let work = f(&mut self.ops);
        let secs = t0.elapsed().as_secs_f64();
        self.ops.tracer.end(span, work as u64);
        let after = self.calibrate();
        self.adjacent = Some(after);
        if self.recording {
            self.phases.entry(metric).or_default().push(Sample {
                work,
                secs,
                calib_ms: (before + after) / 2.0,
            });
        }
    }

    /// Publish a seed-pure count. It must not change from round to
    /// round (every round replays the same inputs on fresh state).
    pub fn count(&mut self, key: &'static str, value: u64) {
        if let Some(prev) = self.counts.insert(key, value) {
            if prev != value {
                self.ops.check(false, || {
                    format!("count {key} changed between rounds: {prev} -> {value}")
                });
            }
        }
    }

    /// Close the round: fold its fixture time into the set-up series.
    fn end_round(&mut self) {
        if self.recording && !self.round_calibs.is_empty() {
            self.fixtures.push(Sample {
                work: 1.0,
                secs: self.round_fixture_secs,
                calib_ms: median(&self.round_calibs),
            });
            self.rounds += 1;
        }
        self.round_fixture_secs = 0.0;
        self.round_calibs.clear();
        self.adjacent = None;
    }

    /// Warm up, then run `round` until `seconds` of wall time are spent
    /// (at least [`MIN_ROUNDS`], at most [`MAX_ROUNDS`]).
    pub fn rounds(&mut self, seconds: f64, mut round: impl FnMut(&mut Run)) {
        self.recording = false;
        for _ in 0..WARMUP_ROUNDS {
            round(self);
            self.end_round();
        }
        self.recording = true;
        let t0 = Instant::now();
        while self.rounds < MAX_ROUNDS
            && (self.rounds < MIN_ROUNDS || t0.elapsed().as_secs_f64() < seconds)
        {
            round(self);
            self.end_round();
        }
    }

    /// Measured rounds so far.
    pub fn round_count(&self) -> usize {
        self.rounds
    }

    /// The samples of one phase.
    pub fn samples(&self, metric: &str) -> &[Sample] {
        self.phases.get(metric).map_or(&[], Vec::as_slice)
    }

    /// Forget every sample and set-up time (the traced run measures the
    /// same loop twice, once per tracer state).
    pub fn reset_samples(&mut self) {
        self.phases.clear();
        self.fixtures.clear();
        self.rounds = 0;
    }

    /// Every calibration of the run, ms.
    pub fn calibrations_ms(&self) -> &[f64] {
        &self.calibs_ms
    }

    /// `setup_s`: the median one-time set-up plus the median per-round
    /// fixture rebuild — what it takes to get one round ready from
    /// nothing — on the reference host.
    pub fn setup_secs(&self) -> f64 {
        let normalised =
            |v: &[Sample]| median(&v.iter().map(Sample::normalised_secs).collect::<Vec<_>>());
        normalised(&self.setups) + normalised(&self.fixtures)
    }

    /// The same as the clock saw it.
    pub fn raw_setup_secs(&self) -> f64 {
        let raw = |v: &[Sample]| median(&v.iter().map(|s| s.secs).collect::<Vec<_>>());
        raw(&self.setups) + raw(&self.fixtures)
    }
}

/// Peak resident set of this process, MB (`VmHWM`); 0 where `/proc`
/// has no such line.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_record_only_after_warmup_and_share_calibrations() {
        let mut run = Run::new(Tracer::off());
        let mut calls = 0;
        run.rounds(0.0, |r| {
            calls += 1;
            r.fixture(|_| ());
            r.phase(WRITE, |ops| {
                ops.ok();
                10.0
            });
            r.phase(READ, |_| 5.0);
        });
        assert_eq!(calls, WARMUP_ROUNDS + MIN_ROUNDS);
        assert_eq!(run.round_count(), MIN_ROUNDS);
        assert_eq!(run.samples(WRITE).len(), MIN_ROUNDS);
        assert_eq!(run.samples(READ).len(), MIN_ROUNDS);
        assert_eq!(run.ops.attempted, calls as u64);
        // Two phases share the calibration between them: 3 per round.
        assert_eq!(run.calibrations_ms().len(), calls * 3);
        assert!(run.setup_secs() >= 0.0);
    }

    #[test]
    fn receipt_identity_is_checked() {
        let mut ops = Ops::new(Tracer::off());
        let good = IngestReceipt {
            accepted: 3,
            rejected: 1,
            rejected_indices: vec![0],
            deferred_indices: vec![],
        };
        ops.receipt(4, &good);
        assert_eq!((ops.attempted, ops.failed), (1, 0));
        ops.receipt(5, &good);
        assert_eq!((ops.attempted, ops.failed), (2, 1));
        assert_eq!(ops.failures.len(), 1);
    }

    #[test]
    fn peak_rss_is_readable_here() {
        assert!(peak_rss_mb() > 0.0);
    }
}
