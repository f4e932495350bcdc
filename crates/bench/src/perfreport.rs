//! Attribution and regression-gating over benchmark scorecards — the
//! logic behind `report perf` (sibling of [`crate::tracereport`]).
//!
//! Two jobs:
//!
//! - [`attribution`]: render a per-phase table answering "where did the
//!   ingest wall time go?" from one scorecard — thread-seconds split
//!   into batch building, per-lock-family wait/hold, non-lock ingest
//!   compute, and the harness/idle remainder. This is the evidence the
//!   ROADMAP's scaling work is gated on: lock-bound shows up as wait%,
//!   allocation-bound as allocs/report.
//! - [`compare`]: diff a fresh scorecard against the checked-in
//!   baseline. Deterministic fields must match exactly (allocator
//!   counts get a ±20% band for toolchain drift); timing fields get a
//!   caller-chosen relative tolerance plus a small absolute slack so
//!   µs-scale percentiles don't gate on scheduler jitter.
//! - [`health`]: absolute fitness checks on one scorecard, independent
//!   of any baseline — the highest-thread-count row's lock-wait
//!   fraction must stay under [`HEALTH_MAX_LOCK_WAIT_FRACTION`] of its
//!   attributed thread-seconds, and 1→8-thread scaling must reach
//!   [`HEALTH_MIN_SCALING`]× (skipped with a note when the card's
//!   recording host lacked the cores to express parallelism at all).

use crate::scorecard::Scorecard;
use csaw_obs::json::JsonValue;

/// Relative band for allocator counts inside the deterministic section:
/// exact equality is the rule for every other key, but alloc counts move
/// when the standard library's container growth policies do, and a
/// toolchain bump should not read as a correctness mismatch.
const ALLOC_BAND: f64 = 0.20;

/// Absolute slack (µs) on lookup-latency comparisons — p50s of a few µs
/// would otherwise fail on a single timer-granularity blip.
const LOOKUP_SLACK_US: f64 = 100.0;

/// Absolute slack (ns) on micro-benchmark comparisons.
const MICRO_SLACK_NS: f64 = 50.0;

/// [`health`]: ceiling on the highest-thread-count row's summed
/// lock-wait as a fraction of attributed thread-seconds
/// (`build_s + call_s`). Past this, ingest is lock-bound and the
/// batch-per-shard design has regressed.
pub const HEALTH_MAX_LOCK_WAIT_FRACTION: f64 = 0.20;

/// [`health`]: floor on `reports_per_sec` scaling from the 1-thread
/// row to the [`HEALTH_SCALING_THREADS`]-thread row.
pub const HEALTH_MIN_SCALING: f64 = 3.0;

/// [`health`]: the thread count the scaling floor is measured at.
pub const HEALTH_SCALING_THREADS: u64 = 8;

/// Render the per-phase ingest attribution table for one scorecard.
///
/// For every timing row that carries perf data (`--perf wall` runs),
/// the denominator is `threads × ingest_secs` thread-seconds and the
/// components are: batch build (workload synthesis on the harness
/// side), per-family lock wait and hold, ingest compute (in-call time
/// not spent in any timed lock), and the remainder (harness loop
/// overhead plus scheduler idle). `attributed` is the fraction of
/// thread-seconds directly measured inside the worker loop
/// (build + call) — the acceptance bar for the telemetry layer.
pub fn attribution(card: &Scorecard) -> String {
    let mut out = format!("perf-report: {} seed {}\n", card.experiment, card.seed);
    let rows = card
        .timing
        .get("rows")
        .and_then(JsonValue::as_arr)
        .map(<[JsonValue]>::to_vec)
        .unwrap_or_default();
    if rows.is_empty() {
        out.push_str("no timing rows in this scorecard\n");
    }
    for row in &rows {
        let threads = row
            .get("threads")
            .and_then(JsonValue::as_u64)
            .unwrap_or(1)
            .max(1);
        let ingest_s = row
            .get("ingest_secs")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        let total = (threads as f64) * ingest_s;
        let (Some(build_s), Some(call_s)) = (
            row.get("build_s").and_then(JsonValue::as_f64),
            row.get("call_s").and_then(JsonValue::as_f64),
        ) else {
            out.push_str(&format!(
                "threads={threads}: no attribution data (rerun with --perf wall)\n"
            ));
            continue;
        };

        let mut components: Vec<(String, f64)> = vec![("batch build (harness)".into(), build_s)];
        let mut in_call_lock_s = 0.0;
        if let Some(locks) = row.get("locks").and_then(JsonValue::as_obj) {
            for (name, l) in locks {
                let wait_s = l.get("wait_us").and_then(JsonValue::as_f64).unwrap_or(0.0) / 1e6;
                let hold_s = l.get("hold_us").and_then(JsonValue::as_f64).unwrap_or(0.0) / 1e6;
                in_call_lock_s += wait_s + hold_s;
                components.push((format!("lock wait {name}"), wait_s));
                components.push((format!("lock hold {name}"), hold_s));
            }
        }
        components.push((
            "ingest compute (non-lock)".into(),
            (call_s - in_call_lock_s).max(0.0),
        ));
        components.push((
            "harness/idle remainder".into(),
            (total - build_s - call_s).max(0.0),
        ));

        let attributed_pct = if total > 0.0 {
            (build_s + call_s) / total * 100.0
        } else {
            0.0
        };
        out.push_str(&format!(
            "\nthreads={threads}  ingest_s={ingest_s:.3}  thread_s={total:.3}  attributed={attributed_pct:.1}%\n"
        ));
        for (name, secs) in &components {
            let pct = if total > 0.0 {
                secs / total * 100.0
            } else {
                0.0
            };
            out.push_str(&format!("  {name:<42} {secs:>9.3}s  {pct:>5.1}%\n"));
        }
        if let (Some(allocs), Some(bytes)) = (
            row.get("allocs").and_then(JsonValue::as_u64),
            row.get("alloc_bytes").and_then(JsonValue::as_u64),
        ) {
            out.push_str(&format!(
                "  allocator: {allocs} events, {bytes} bytes during ingest\n"
            ));
        }
    }
    if let Some(micro) = card.timing.get("micro").and_then(JsonValue::as_obj) {
        out.push_str("\nmicro-benchmarks (ns/iter):\n");
        for (name, ns) in micro {
            let ns = ns.as_u64().unwrap_or(0);
            out.push_str(&format!("  {name:<32} {ns:>12}\n"));
        }
    }
    out
}

/// The outcome of diffing a scorecard against a baseline: what must
/// fail CI ([`Comparison::deterministic_mismatches`] — exit 4 — and
/// [`Comparison::timing_regressions`] — exit 3) and what is merely
/// informational.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Seed-pure fields that differ — a correctness/determinism bug, not
    /// a perf regression.
    pub deterministic_mismatches: Vec<String>,
    /// Timing fields outside the tolerance band.
    pub timing_regressions: Vec<String>,
    /// Non-gating observations (benches missing from a filtered run,
    /// improvements worth noticing).
    pub notes: Vec<String>,
}

impl Comparison {
    /// True when nothing gating was found.
    pub fn ok(&self) -> bool {
        self.deterministic_mismatches.is_empty() && self.timing_regressions.is_empty()
    }

    /// Human-readable verdict block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.deterministic_mismatches {
            out.push_str(&format!("DETERMINISM MISMATCH: {m}\n"));
        }
        for r in &self.timing_regressions {
            out.push_str(&format!("TIMING REGRESSION: {r}\n"));
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        if self.ok() {
            out.push_str("perf-report: within tolerance of baseline\n");
        }
        out
    }
}

/// Numeric leaf comparison with a relative band plus absolute slack.
fn outside_band(cur: f64, base: f64, rel: f64, abs: f64) -> bool {
    (cur - base).abs() > base.abs() * rel + abs
}

/// Recursively diff the deterministic sections. Exact equality except
/// keys mentioning `alloc`, which get [`ALLOC_BAND`].
fn diff_deterministic(path: &str, cur: &JsonValue, base: &JsonValue, out: &mut Comparison) {
    match (cur.as_obj(), base.as_obj()) {
        (Some(c), Some(b)) => {
            let keys: std::collections::BTreeSet<&String> = c.keys().chain(b.keys()).collect();
            for k in keys {
                let p = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                match (c.get(k), b.get(k)) {
                    (Some(cv), Some(bv)) => diff_deterministic(&p, cv, bv, out),
                    (Some(_), None) => out
                        .deterministic_mismatches
                        .push(format!("{p}: present only in current")),
                    (None, Some(_)) => out
                        .deterministic_mismatches
                        .push(format!("{p}: present only in baseline")),
                    (None, None) => unreachable!(),
                }
            }
            return;
        }
        (None, None) => {}
        _ => {
            out.deterministic_mismatches
                .push(format!("{path}: shape differs"));
            return;
        }
    }
    if let (Some(c), Some(b)) = (cur.as_arr(), base.as_arr()) {
        if c.len() != b.len() {
            out.deterministic_mismatches.push(format!(
                "{path}: {} entries vs {} in baseline",
                c.len(),
                b.len()
            ));
            return;
        }
        for (i, (cv, bv)) in c.iter().zip(b).enumerate() {
            diff_deterministic(&format!("{path}[{i}]"), cv, bv, out);
        }
        return;
    }
    if path.contains("alloc") {
        let (c, b) = (
            cur.as_f64().unwrap_or(f64::NAN),
            base.as_f64().unwrap_or(f64::NAN),
        );
        if !(c.is_finite() && b.is_finite()) || outside_band(c, b, ALLOC_BAND, 2.0) {
            out.deterministic_mismatches.push(format!(
                "{path}: {} vs baseline {} (±{:.0}% band)",
                cur.to_string_compact(),
                base.to_string_compact(),
                ALLOC_BAND * 100.0
            ));
        }
        return;
    }
    if cur.to_string_compact() != base.to_string_compact() {
        out.deterministic_mismatches.push(format!(
            "{path}: {} vs baseline {}",
            cur.to_string_compact(),
            base.to_string_compact()
        ));
    }
}

/// Index timing rows by their `threads` value.
fn rows_by_threads(timing: &JsonValue) -> Vec<(u64, JsonValue)> {
    timing
        .get("rows")
        .and_then(JsonValue::as_arr)
        .map(|rows| {
            rows.iter()
                .filter_map(|r| {
                    r.get("threads")
                        .and_then(JsonValue::as_u64)
                        .map(|t| (t, r.clone()))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Compare `current` against `baseline`.
///
/// Gating rules: identity and the deterministic section must match (see
/// `diff_deterministic`); per matched thread count,
/// `reports_per_sec` must stay ≥ `baseline × (1 − tolerance)` and the
/// lookup percentiles ≤ `baseline × (1 + tolerance)` plus slack;
/// micro-bench ns/iter likewise. Wait/hold sums are diagnostics, never
/// gates — they move with machine load and that is exactly what they
/// are for.
pub fn compare(current: &Scorecard, baseline: &Scorecard, tolerance: f64) -> Comparison {
    let mut out = Comparison::default();
    if current.experiment != baseline.experiment {
        out.deterministic_mismatches.push(format!(
            "experiment: {:?} vs baseline {:?}",
            current.experiment, baseline.experiment
        ));
    }
    if current.seed != baseline.seed {
        out.deterministic_mismatches.push(format!(
            "seed: {} vs baseline {}",
            current.seed, baseline.seed
        ));
    }
    diff_deterministic(
        "deterministic",
        &current.deterministic,
        &baseline.deterministic,
        &mut out,
    );

    let cur_rows = rows_by_threads(&current.timing);
    for (threads, base_row) in rows_by_threads(&baseline.timing) {
        let Some((_, cur_row)) = cur_rows.iter().find(|(t, _)| *t == threads) else {
            out.timing_regressions
                .push(format!("timing row for {threads} thread(s) missing"));
            continue;
        };
        let f = |row: &JsonValue, key: &str| row.get(key).and_then(JsonValue::as_f64);
        if let (Some(c), Some(b)) = (
            f(cur_row, "reports_per_sec"),
            f(&base_row, "reports_per_sec"),
        ) {
            if c < b * (1.0 - tolerance) {
                out.timing_regressions.push(format!(
                    "threads={threads} reports_per_sec {c:.0} < {b:.0} × (1 − {tolerance})"
                ));
            } else if c > b * (1.0 + tolerance) {
                out.notes.push(format!(
                    "threads={threads} reports_per_sec improved: {c:.0} vs {b:.0}"
                ));
            }
        }
        for key in ["lookup_p50_us", "lookup_p99_us"] {
            if let (Some(c), Some(b)) = (f(cur_row, key), f(&base_row, key)) {
                if c > b * (1.0 + tolerance) + LOOKUP_SLACK_US {
                    out.timing_regressions.push(format!(
                        "threads={threads} {key} {c:.0}µs > {b:.0}µs × (1 + {tolerance}) + {LOOKUP_SLACK_US:.0}µs"
                    ));
                }
            }
        }
    }

    let micro = |card: &Scorecard| {
        card.timing
            .get("micro")
            .and_then(JsonValue::as_obj)
            .cloned()
            .unwrap_or_default()
    };
    let cur_micro = micro(current);
    for (name, base_ns) in micro(baseline) {
        let Some(base_ns) = base_ns.as_f64() else {
            continue;
        };
        match cur_micro.get(&name).and_then(JsonValue::as_f64) {
            None => out
                .notes
                .push(format!("micro {name}: not measured in current run")),
            Some(c) if c > base_ns * (1.0 + tolerance) + MICRO_SLACK_NS => {
                out.timing_regressions.push(format!(
                    "micro {name} {c:.0}ns > {base_ns:.0}ns × (1 + {tolerance}) + {MICRO_SLACK_NS:.0}ns"
                ));
            }
            Some(_) => {}
        }
    }
    out
}

/// The outcome of the absolute health gate: hard failures plus
/// non-gating context.
#[derive(Debug, Default)]
pub struct Health {
    /// Violations of the fitness floors — each one fails the gate.
    pub violations: Vec<String>,
    /// Non-gating context (skipped checks and why).
    pub notes: Vec<String>,
}

impl Health {
    /// True when no floor was breached.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable verdict block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!("HEALTH VIOLATION: {v}\n"));
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        if self.ok() {
            out.push_str("perf-report: scorecard is healthy\n");
        }
        out
    }
}

/// Absolute fitness checks on one scorecard (no baseline involved):
///
/// - **lock-wait fraction** — the summed per-family `wait_us` must stay
///   under [`HEALTH_MAX_LOCK_WAIT_FRACTION`] of the attributed
///   thread-seconds (`build_s + call_s`); more than that and the
///   writers are spending their concurrency budget queueing on the
///   store's locks;
/// - **parallel scaling** — `reports_per_sec` at
///   [`HEALTH_SCALING_THREADS`] threads must be at least
///   [`HEALTH_MIN_SCALING`]× the 1-thread row's.
///
/// Both checks respect the card's recorded `timing.host_threads`: a
/// machine cannot demonstrate parallel speedup it has no cores for, and
/// when threads outnumber cores, lock wait measures the OS scheduler's
/// time-slicing (a descheduled lock holder parks every other writer for
/// a whole quantum), not the store. So the wait check runs on the
/// *widest row the host could actually run concurrently*, and the
/// scaling check is skipped with a note on hosts narrower than
/// [`HEALTH_SCALING_THREADS`] — the gate bites exactly on hosts
/// (reference machine, CI runners) wide enough to express contention.
///
/// Cards without the relevant rows fail loudly: a gate that silently
/// passes on an empty card would defeat its purpose.
pub fn health(card: &Scorecard) -> Health {
    let mut out = Health::default();
    let rows = rows_by_threads(&card.timing);
    let Some((widest, _)) = rows.iter().max_by_key(|(t, _)| *t).cloned() else {
        out.violations
            .push("no timing rows to gate on (rerun exp_scale with a scorecard)".into());
        return out;
    };
    let host_threads = card
        .timing
        .get("host_threads")
        .and_then(JsonValue::as_u64)
        .unwrap_or(u64::MAX); // older cards: assume wide, keep the gate strict

    // Lock-wait fraction on the widest genuinely-concurrent row.
    let Some((hi_threads, hi_row)) = rows
        .iter()
        .filter(|(t, _)| *t <= host_threads)
        .max_by_key(|(t, _)| *t)
        .cloned()
    else {
        out.violations.push(format!(
            "no timing row at ≤ {host_threads} threads to gate lock-wait on"
        ));
        return out;
    };
    if hi_threads < widest {
        out.notes.push(format!(
            "lock-wait gated at {hi_threads} thread(s): rows above the host's \
             {host_threads} core(s) measure time-slicing, not the store"
        ));
    }
    let f = |row: &JsonValue, key: &str| row.get(key).and_then(JsonValue::as_f64);
    match (f(&hi_row, "build_s"), f(&hi_row, "call_s")) {
        (Some(build_s), Some(call_s)) if build_s + call_s > 0.0 => {
            let attributed = build_s + call_s;
            let wait_s = hi_row
                .get("locks")
                .and_then(JsonValue::as_obj)
                .map(|locks| {
                    locks
                        .values()
                        .filter_map(|l| l.get("wait_us").and_then(JsonValue::as_f64))
                        .sum::<f64>()
                        / 1e6
                })
                .unwrap_or(0.0);
            let frac = wait_s / attributed;
            if frac > HEALTH_MAX_LOCK_WAIT_FRACTION {
                out.violations.push(format!(
                    "threads={hi_threads} lock-wait fraction {:.1}% > {:.0}% of attributed \
                     thread-seconds ({wait_s:.3}s waiting / {attributed:.3}s attributed)",
                    frac * 100.0,
                    HEALTH_MAX_LOCK_WAIT_FRACTION * 100.0
                ));
            }
        }
        _ => out.violations.push(format!(
            "threads={hi_threads} row has no attribution data (rerun with --perf wall)"
        )),
    }

    // 1→N scaling, when the recording host could express it.
    let one = rows.iter().find(|(t, _)| *t == 1).map(|(_, r)| r.clone());
    let wide = rows
        .iter()
        .find(|(t, _)| *t == HEALTH_SCALING_THREADS)
        .map(|(_, r)| r.clone());
    match (one, wide) {
        (Some(one), Some(wide)) => {
            if host_threads < HEALTH_SCALING_THREADS {
                out.notes.push(format!(
                    "scaling check skipped: card was recorded on a {host_threads}-thread host, \
                     which cannot express {HEALTH_SCALING_THREADS}-thread speedup"
                ));
            } else if let (Some(b), Some(w)) =
                (f(&one, "reports_per_sec"), f(&wide, "reports_per_sec"))
            {
                if b <= 0.0 || w / b < HEALTH_MIN_SCALING {
                    out.violations.push(format!(
                        "1→{HEALTH_SCALING_THREADS}-thread scaling {:.2}× < {HEALTH_MIN_SCALING}× \
                         ({w:.0} vs {b:.0} reports/s)",
                        if b > 0.0 { w / b } else { 0.0 }
                    ));
                }
            } else {
                out.violations.push(
                    "scaling rows are missing reports_per_sec; cannot verify the floor".into(),
                );
            }
        }
        _ => out.violations.push(format!(
            "scaling check needs timing rows at 1 and {HEALTH_SCALING_THREADS} threads"
        )),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn card_with_timing() -> Scorecard {
        let mut card = Scorecard::new("exp_scale", 1);
        card.deterministic.set("accepted", 400u64);
        card.deterministic.set("allocs_per_report", 100u64);
        let mut row = JsonValue::obj();
        row.set("threads", 1u64);
        row.set("ingest_secs", 1.0);
        row.set("reports_per_sec", 1000.0);
        row.set("lookup_p50_us", 10u64);
        row.set("lookup_p99_us", 50u64);
        row.set("build_s", 0.2);
        row.set("call_s", 0.78);
        let mut locks = JsonValue::obj();
        let mut l = JsonValue::obj();
        l.set("contended", 3u64);
        l.set("wait_us", 100_000u64);
        l.set("hold_us", 300_000u64);
        locks.set("store.shard.records.write", l);
        row.set("locks", locks);
        card.timing.set("rows", vec![row]);
        card.set_micro(&[("url_parse".into(), 200u64)]);
        card
    }

    #[test]
    fn attribution_names_every_component_and_coverage() {
        let text = attribution(&card_with_timing());
        assert!(text.contains("attributed=98.0%"), "{text}");
        assert!(text.contains("batch build (harness)"));
        assert!(text.contains("lock wait store.shard.records.write"));
        assert!(text.contains("lock hold store.shard.records.write"));
        assert!(text.contains("ingest compute (non-lock)"));
        assert!(text.contains("harness/idle remainder"));
        assert!(text.contains("url_parse"));
    }

    #[test]
    fn attribution_degrades_gracefully_without_perf_rows() {
        let mut card = Scorecard::new("exp_scale", 1);
        let mut row = JsonValue::obj();
        row.set("threads", 2u64);
        row.set("ingest_secs", 0.5);
        card.timing.set("rows", vec![row]);
        let text = attribution(&card);
        assert!(text.contains("no attribution data"), "{text}");
        assert!(attribution(&Scorecard::new("x", 1)).contains("no timing rows"));
    }

    #[test]
    fn identical_cards_compare_clean() {
        let card = card_with_timing();
        let c = compare(&card, &card, 0.25);
        assert!(c.ok(), "{:?}", c);
        assert!(c.render().contains("within tolerance"));
    }

    #[test]
    fn deterministic_drift_is_a_mismatch_but_allocs_get_a_band() {
        let base = card_with_timing();
        let mut cur = base.clone();
        cur.deterministic.set("allocs_per_report", 110u64); // within ±20%
        assert!(compare(&cur, &base, 0.25).ok());
        cur.deterministic.set("allocs_per_report", 200u64); // outside
        let c = compare(&cur, &base, 0.25);
        assert_eq!(c.deterministic_mismatches.len(), 1, "{:?}", c);
        let mut cur = base.clone();
        cur.deterministic.set("accepted", 401u64);
        let c = compare(&cur, &base, 0.25);
        assert!(!c.ok());
        assert!(
            c.deterministic_mismatches[0].contains("accepted"),
            "{:?}",
            c
        );
    }

    #[test]
    fn timing_regressions_respect_tolerance() {
        let base = card_with_timing();
        let mut cur = base.clone();
        // 20% slower throughput passes a 25% band, fails a 10% one.
        let mut rows = cur.timing.get("rows").unwrap().as_arr().unwrap().to_vec();
        rows[0].set("reports_per_sec", 800.0);
        cur.timing.set("rows", rows);
        assert!(compare(&cur, &base, 0.25).ok());
        let c = compare(&cur, &base, 0.10);
        assert_eq!(c.timing_regressions.len(), 1, "{:?}", c);
        assert!(c.timing_regressions[0].contains("reports_per_sec"));
    }

    /// A card shaped like a real exp_scale run on a wide host: healthy
    /// 1→8 scaling and a quiet lock profile at 8 threads.
    fn healthy_card() -> Scorecard {
        let mut card = Scorecard::new("exp_scale", 1);
        card.timing.set("host_threads", 16u64);
        let mut rows = Vec::new();
        for (threads, rps, wait_us) in [(1u64, 250_000.0, 10_000u64), (8, 1_000_000.0, 100_000)] {
            let mut row = JsonValue::obj();
            row.set("threads", threads);
            row.set("ingest_secs", 1.0);
            row.set("reports_per_sec", rps);
            row.set("build_s", 0.5);
            row.set("call_s", threads as f64 - 0.6);
            let mut locks = JsonValue::obj();
            let mut l = JsonValue::obj();
            l.set("wait_us", wait_us);
            l.set("hold_us", 300_000u64);
            locks.set("store.shard.records.write", l);
            row.set("locks", locks);
            rows.push(row);
        }
        card.timing.set("rows", rows);
        card
    }

    #[test]
    fn health_passes_a_quiet_scaling_card() {
        let h = health(&healthy_card());
        assert!(h.ok(), "{:?}", h);
        assert!(h.render().contains("healthy"));
    }

    #[test]
    fn health_fails_on_lock_wait_fraction() {
        let mut card = healthy_card();
        let mut rows = card.timing.get("rows").unwrap().as_arr().unwrap().to_vec();
        // 8-thread row: 2.5 of 7.9 attributed thread-seconds waiting.
        let mut locks = JsonValue::obj();
        let mut l = JsonValue::obj();
        l.set("wait_us", 2_500_000u64);
        locks.set("store.ledger.keys.write", l);
        rows[1].set("locks", locks);
        card.timing.set("rows", rows);
        let h = health(&card);
        assert_eq!(h.violations.len(), 1, "{:?}", h);
        assert!(h.violations[0].contains("lock-wait fraction"), "{:?}", h);
        // The same noisy 8-thread row on a 4-core host is time-slicing
        // noise, not store contention: the gate drops to the widest
        // genuinely-concurrent row (here 1 thread) and notes it.
        card.timing.set("host_threads", 4u64);
        let h = health(&card);
        assert!(h.ok(), "{:?}", h);
        assert!(
            h.notes.iter().any(|n| n.contains("lock-wait gated at 1")),
            "{:?}",
            h
        );
    }

    #[test]
    fn health_fails_on_poor_scaling_but_skips_on_narrow_hosts() {
        let mut card = healthy_card();
        let mut rows = card.timing.get("rows").unwrap().as_arr().unwrap().to_vec();
        rows[1].set("reports_per_sec", 500_000.0); // 2× at 8 threads
        card.timing.set("rows", rows);
        let h = health(&card);
        assert_eq!(h.violations.len(), 1, "{:?}", h);
        assert!(h.violations[0].contains("scaling"), "{:?}", h);
        // Same card recorded on a 2-thread host: the scaling floor is
        // physically unreachable there, so it's a note, not a failure.
        card.timing.set("host_threads", 2u64);
        let h = health(&card);
        assert!(h.ok(), "{:?}", h);
        assert!(h.notes.iter().any(|n| n.contains("skipped")), "{:?}", h);
    }

    #[test]
    fn health_fails_loudly_on_cards_it_cannot_judge() {
        let empty = Scorecard::new("exp_scale", 1);
        assert!(!health(&empty).ok());
        // Rows without perf attribution must not pass silently.
        let mut card = healthy_card();
        let mut rows = card.timing.get("rows").unwrap().as_arr().unwrap().to_vec();
        for r in &mut rows {
            let mut stripped = JsonValue::obj();
            stripped.set("threads", r.get("threads").unwrap().clone());
            stripped.set("reports_per_sec", r.get("reports_per_sec").unwrap().clone());
            *r = stripped;
        }
        card.timing.set("rows", rows);
        let h = health(&card);
        assert!(
            h.violations.iter().any(|v| v.contains("no attribution")),
            "{:?}",
            h
        );
    }

    #[test]
    fn missing_micro_is_a_note_and_slower_micro_gates() {
        let base = card_with_timing();
        let mut cur = base.clone();
        cur.timing.set("micro", JsonValue::obj());
        let c = compare(&cur, &base, 0.25);
        assert!(c.ok());
        assert!(c.notes.iter().any(|n| n.contains("url_parse")), "{:?}", c);
        let mut cur = base.clone();
        cur.set_micro(&[("url_parse".into(), 2000u64)]);
        assert!(!compare(&cur, &base, 0.25).ok());
    }
}
