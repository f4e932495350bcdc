//! Attribution and determinism diffing over benchmark scorecards — the
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
//!   baseline. Identity and the deterministic section must match
//!   exactly (allocator counts get a ±20% band for toolchain drift).
//!
//! Nothing here judges a timing field: the card's `timing` section is
//! rendered, never gated. Timing has one home — `benchmark/` and
//! `BENCH_history.jsonl`, appended, host-stamped, ten alternating pairs.

use crate::scorecard::Scorecard;
use csaw_obs::json::JsonValue;

/// Relative band for allocator counts inside the deterministic section:
/// exact equality is the rule for every other key, but alloc counts move
/// when the standard library's container growth policies do, and a
/// toolchain bump should not read as a correctness mismatch.
const ALLOC_BAND: f64 = 0.20;

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
    out
}

/// The outcome of diffing a scorecard against a baseline: what must
/// fail CI ([`Comparison::deterministic_mismatches`] — exit 4) and what
/// is merely informational.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Seed-pure fields that differ — a correctness/determinism bug.
    pub deterministic_mismatches: Vec<String>,
    /// Non-gating observations (allocator counts one card lacks because
    /// it was recorded without the counting allocator).
    pub notes: Vec<String>,
}

impl Comparison {
    /// True when nothing gating was found.
    pub fn ok(&self) -> bool {
        self.deterministic_mismatches.is_empty()
    }

    /// Human-readable verdict block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.deterministic_mismatches {
            out.push_str(&format!("DETERMINISM MISMATCH: {m}\n"));
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        if self.ok() {
            out.push_str("perf-report: deterministic section matches the baseline\n");
        }
        out
    }
}

/// Numeric leaf comparison with a relative band plus absolute slack.
fn outside_band(cur: f64, base: f64, rel: f64, abs: f64) -> bool {
    (cur - base).abs() > base.abs() * rel + abs
}

/// Recursively diff the deterministic sections. Exact equality except
/// keys mentioning `alloc`: two present values get [`ALLOC_BAND`], and
/// one present only on one side is a note — the counting allocator is a
/// cargo feature (`perf-telemetry`), so its absence says how the card
/// was built, not what the code did.
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
                    (cv, _) => {
                        let side = if cv.is_some() { "current" } else { "baseline" };
                        if p.contains("alloc") {
                            out.notes.push(format!(
                                "{p}: present only in {side} — allocator counts need a \
                                 --features perf-telemetry build; not compared"
                            ));
                        } else {
                            out.deterministic_mismatches
                                .push(format!("{p}: present only in {side}"));
                        }
                    }
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

/// Compare `current` against `baseline`: identity and the
/// deterministic section must match (see `diff_deterministic`). The
/// timing sections are not read — throughput, latency and wait/hold sums
/// move with the machine, and a band wide enough to survive that passes
/// anything; timing regressions are the repo benchmark's to find.
pub fn compare(current: &Scorecard, baseline: &Scorecard) -> Comparison {
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
        let c = compare(&card, &card);
        assert!(c.ok(), "{:?}", c);
        assert!(c.render().contains("matches the baseline"));
    }

    #[test]
    fn deterministic_drift_is_a_mismatch_but_allocs_get_a_band() {
        let base = card_with_timing();
        let mut cur = base.clone();
        cur.deterministic.set("allocs_per_report", 110u64); // within ±20%
        assert!(compare(&cur, &base).ok());
        cur.deterministic.set("allocs_per_report", 200u64); // outside
        let c = compare(&cur, &base);
        assert_eq!(c.deterministic_mismatches.len(), 1, "{:?}", c);
        let mut cur = base.clone();
        cur.deterministic.set("accepted", 401u64);
        let c = compare(&cur, &base);
        assert!(!c.ok());
        assert!(
            c.deterministic_mismatches[0].contains("accepted"),
            "{:?}",
            c
        );
    }

    #[test]
    fn timing_only_differences_compare_clean() {
        let base = card_with_timing();
        let mut cur = base.clone();
        let mut rows = cur.timing.get("rows").unwrap().as_arr().unwrap().to_vec();
        rows[0].set("reports_per_sec", 100.0); // 10× slower
        cur.timing.set("rows", rows);
        let c = compare(&cur, &base);
        assert!(c.ok(), "{:?}", c);
        assert!(c.deterministic_mismatches.is_empty() && c.notes.is_empty());
    }

    #[test]
    fn one_sided_allocator_keys_are_a_note() {
        // One card from a stock build, one from --features perf-telemetry:
        // the missing allocator count is a build difference, either way
        // round; any other one-sided key is still a mismatch.
        let with = card_with_timing();
        let mut without = with.clone();
        without.deterministic = JsonValue::obj();
        without.deterministic.set("accepted", 400u64);
        for (cur, base, side) in [(&without, &with, "baseline"), (&with, &without, "current")] {
            let c = compare(cur, base);
            assert!(c.ok(), "{:?}", c);
            assert_eq!(c.notes.len(), 1, "{:?}", c);
            assert!(c.notes[0].contains("allocs_per_report"), "{:?}", c);
            assert!(c.notes[0].contains(side), "{:?}", c);
            assert!(c.notes[0].contains("perf-telemetry"), "{:?}", c);
            assert!(c.render().contains("note: "), "{}", c.render());
        }
        let mut extra = with.clone();
        extra.deterministic.set("records", 7u64);
        let c = compare(&extra, &with);
        assert_eq!(c.deterministic_mismatches.len(), 1, "{:?}", c);
        assert!(c.deterministic_mismatches[0].contains("records: present only in current"));
    }
}
