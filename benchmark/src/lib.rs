//! The repo benchmark: four long closed-loop workloads, end-to-end
//! metrics normalised by an adjacent calibration kernel, and an
//! outside-in per-layer cost ledger. See `README.md` beside this crate
//! for the method, the metric tables and the recorded spreads.
//!
//! Nothing outside `benchmark/` knows this crate exists: every layer is
//! measured from outside, by timing calls into its public functions.

// `unsafe` is denied crate-wide; the one exception is the hand-made
// system call in [`affinity`], which opts in locally.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod affinity;
pub mod calib;
pub mod cli;
pub mod estimator;
pub mod gen;
pub mod ledger;
pub mod metrics;
pub mod run;
pub mod trace;
pub mod workloads;

use estimator::{normalised_median, raw_median};
use metrics::{Measured, END_TO_END};
use run::{Run, FOCUS, READ, WRITE};
use std::collections::BTreeMap;
use std::path::PathBuf;
use trace::Tracer;
use workloads::Workload;

/// Where the benchmark writes: span files and the replication
/// workload's temporary logs. Inside the benchmark's own directory, so
/// a run touches nothing else in the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What one run of one workload produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The workload's name.
    pub workload: &'static str,
    /// The seed its inputs came from.
    pub seed: u64,
    /// The contract's metrics: end-to-end for an untraced run, per-layer
    /// for a traced one.
    pub metrics: Vec<Measured>,
    /// Qualifying numbers printed beside them (raw medians, rounds).
    pub notes: Vec<(String, f64)>,
    /// Seed-pure counts: two runs with one seed must agree exactly.
    pub counts: BTreeMap<&'static str, u64>,
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Whether every operation succeeded and every output check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON result the contract asks for.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The human-readable report: every metric by name with its unit.
    pub fn render(&self) -> String {
        let mut out = format!("== {} (seed {}) ==\n", self.workload, self.seed);
        for m in &self.metrics {
            out.push_str(&format!("  {:<44} {:>16.4} {}\n", m.name, m.value, m.unit));
        }
        for (name, value) in &self.notes {
            out.push_str(&format!("  {:<44} {:>16.4}\n", name, value));
        }
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        out.push_str(&format!("  counts: {}\n", counts.join(" ")));
        out.push_str(&format!(
            "  attempted {} failed {} failed_ops_share {}\n",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        ));
        for f in &self.failures {
            out.push_str(&format!("  FAILED: {f}\n"));
        }
        out
    }
}

/// A finite number as JSON (Rust prints the shortest text that reads
/// back to the same `f64`, so no digit is lost).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn finish_outcome<W: Workload>(
    seed: u64,
    run: Run,
    metrics: Vec<Measured>,
    notes: Vec<(String, f64)>,
) -> Outcome {
    Outcome {
        workload: W::NAME,
        seed,
        metrics,
        notes,
        counts: run.counts,
        attempted: run.ops.attempted,
        failed: run.ops.failed,
        failures: run.ops.failures,
    }
}

/// The untraced run: the only source of end-to-end numbers.
pub fn run_untraced<W: Workload>(seed: u64, seconds: f64) -> Outcome {
    let mut run = Run::new(Tracer::off());
    let mut workload = run.setup(|ops| W::setup(seed, ops));
    run.rounds(seconds, |r| workload.round(r));
    workload.finish(&mut run);

    let mut values = BTreeMap::new();
    let mut notes = vec![("rounds".to_string(), run.round_count() as f64)];
    for slot in [WRITE, READ, FOCUS] {
        values.insert(slot, normalised_median(run.samples(slot)));
        notes.push((format!("raw.{slot}"), raw_median(run.samples(slot))));
    }
    values.insert("setup_s", run.setup_secs());
    notes.push(("raw.setup_s".to_string(), run.raw_setup_secs()));
    values.insert("peak_rss_mb", run::peak_rss_mb());
    notes.push((
        "host.calib_ms.p50".to_string(),
        estimator::median(run.calibrations_ms()),
    ));
    let metrics = metrics::fill(&END_TO_END, &values);
    finish_outcome::<W>(seed, run, metrics, notes)
}

/// The traced run: the source of every per-layer metric.
///
/// First the workload's own loop, untraced and then with one span per
/// operation, for `trace.overhead_share`; then the layer-by-layer
/// ledger, which is the same for every workload. All spans go to
/// `out/trace-<workload>.jsonl`.
pub fn run_traced<W: Workload>(seed: u64, seconds: f64) -> Outcome {
    let path = out_dir().join(format!("trace-{}.jsonl", W::NAME));
    let _ = std::fs::remove_file(&path);
    let mut run = Run::new(Tracer::on());
    run.ops.tracer.set_on(false);
    let mut workload = run.setup(|ops| W::setup(seed, ops));
    // The ledger needs a fixed ~9 s; the two loops share what is left.
    let share = (seconds - 9.0).max(2.0) / 2.0;
    run.rounds(share, |r| workload.round(r));
    let slots = [WRITE, READ, FOCUS];
    let untraced = slots.map(|s| normalised_median(run.samples(s)));
    let raw = slots.map(|s| raw_median(run.samples(s)));
    let raw_setup = run.raw_setup_secs();
    run.reset_samples();
    run.ops.tracer.set_on(true);
    run.rounds(share, |r| workload.round(r));
    let traced = slots.map(|s| normalised_median(run.samples(s)));
    workload.finish(&mut run);
    let kept: f64 =
        traced.iter().zip(untraced).map(|(t, u)| t / u).sum::<f64>() / slots.len() as f64;
    let spans_ok = run.ops.tracer.flush_jsonl(&path);

    let mut values = ledger::measure(seed, &mut run);
    let ledger_ok = run.ops.tracer.flush_jsonl(&path);
    run.ops.check(spans_ok.is_ok() && ledger_ok.is_ok(), || {
        format!(
            "cannot write {}: {:?} {:?}",
            path.display(),
            spans_ok.err(),
            ledger_ok.err()
        )
    });
    values.insert("trace.overhead_share", 1.0 - kept);
    values.insert("raw.write_reports_per_s", raw[0]);
    values.insert("raw.read_records_per_s", raw[1]);
    values.insert("raw.focus_ops_per_s", raw[2]);
    values.insert("raw.setup_s", raw_setup);
    // What the ledger measured beside the table: sample counts and the
    // highest percentile each latency sample supports.
    let mut notes: Vec<(String, f64)> = values
        .iter()
        .filter(|(name, _)| metrics::PER_LAYER.iter().all(|d| d.name != **name))
        .map(|(name, value)| (name.to_string(), *value))
        .collect();
    notes.push((
        "rounds (each of untraced, traced)".to_string(),
        run.round_count() as f64,
    ));
    let metrics = metrics::fill(&metrics::PER_LAYER, &values);
    finish_outcome::<W>(seed, run, metrics, notes)
}
