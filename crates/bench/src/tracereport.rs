//! Trace analysis behind `report trace`.
//!
//! Consumes the JSONL events `--trace-out x.jsonl` streams (the Chrome
//! trace `--trace-out x.json` writes is for viewers, not for this) and
//! reconstructs the per-fetch span trees the client emits (`fetch` roots with `fetch.detect`,
//! `fetch.circum`, `fetch.transfer` children; see
//! `csaw::tracing`). From those it renders:
//!
//! - per-fetch **waterfalls** (detect/circum/transfer segments on a
//!   shared scale);
//! - a **PLT-decomposition table** (mean/p50/p99 per leg, plus each
//!   leg's share of total PLT);
//! - a **regression verdict** against a baseline trace: p50/p99 of
//!   total PLT compared leg-for-leg, with a configurable threshold.
//!
//! The invariant checked throughout: a fetch's children sum to its
//! root duration within [`SUM_TOLERANCE_US`]. A trace violating that is
//! malformed — the emitter constructs `transfer` as the exact
//! remainder, so any drift means the tree was truncated or corrupted.

use csaw_obs::json::JsonValue;
use csaw_obs::metrics::Histogram;
use std::collections::BTreeMap;

/// Children must sum to the root PLT within this many microseconds.
pub const SUM_TOLERANCE_US: u64 = 1;

/// One event parsed back out of a JSONL trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct RawEvent {
    /// Event name (`fetch`, `fetch.detect`, `simnet.flow`, ...).
    pub name: String,
    /// Start timestamp (µs, virtual time).
    pub ts_us: u64,
    /// Duration for span events; `None` for instants.
    pub dur_us: Option<u64>,
    /// Trace id (16-char hex) when the event was inside a trace.
    pub trace: Option<String>,
    /// Span id (16-char hex).
    pub span: Option<String>,
    /// Parent span id, absent on roots.
    pub parent: Option<String>,
    /// Remaining structured fields (`url`, `transport`, `ok`, ...).
    pub fields: BTreeMap<String, JsonValue>,
}

fn str_field(v: &JsonValue, key: &str) -> Option<String> {
    v.get(key).and_then(|s| s.as_str()).map(str::to_string)
}

/// The one JSONL line reader under `report`: each non-blank line of
/// `text` parsed as JSON, paired with its 1-based line number; a
/// malformed line is `Err("line N: …")`.
pub fn jsonl_values(text: &str) -> impl Iterator<Item = Result<(usize, JsonValue), String>> + '_ {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| match JsonValue::parse(line) {
            Ok(v) => Ok((i + 1, v)),
            Err(e) => Err(format!("line {}: {e:?}", i + 1)),
        })
}

/// Parse the JSONL stream `JsonlSink` writes (`Event::to_json`, one
/// compact object per line).
pub fn parse_jsonl(text: &str) -> Result<Vec<RawEvent>, String> {
    let mut out = Vec::new();
    for item in jsonl_values(text) {
        let (lineno, v) = item?;
        let name = str_field(&v, "event").ok_or_else(|| format!("line {lineno}: no event"))?;
        let ts_us = v
            .get("ts_us")
            .and_then(|t| t.as_u64())
            .ok_or_else(|| format!("line {lineno}: no ts_us"))?;
        let mut fields = BTreeMap::new();
        if let Some(f) = v.get("fields").and_then(|f| f.as_obj()) {
            for (k, val) in f {
                fields.insert(k.clone(), val.clone());
            }
        }
        out.push(RawEvent {
            name,
            ts_us,
            dur_us: v.get("dur_us").and_then(|d| d.as_u64()),
            trace: str_field(&v, "trace"),
            span: str_field(&v, "span"),
            parent: str_field(&v, "parent"),
            fields,
        });
    }
    Ok(out)
}

/// One reconstructed fetch tree: the root `fetch` span and its three
/// decomposition children.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchRecord {
    /// Trace id (hex).
    pub trace: String,
    /// Root start (µs, virtual time).
    pub start_us: u64,
    /// Root duration: the user-visible PLT (µs).
    pub total_us: u64,
    /// `fetch.detect` duration (µs).
    pub detect_us: u64,
    /// `fetch.circum` duration (µs).
    pub circum_us: u64,
    /// `fetch.transfer` duration (µs).
    pub transfer_us: u64,
    /// Whether the page was ultimately served (`ok` field on the root).
    pub ok: bool,
    /// Fetched URL (root `url` field).
    pub url: String,
    /// Serving transport (root `transport` field).
    pub transport: String,
}

impl FetchRecord {
    /// Sum of the three decomposition legs.
    pub fn children_sum_us(&self) -> u64 {
        self.detect_us + self.circum_us + self.transfer_us
    }

    /// Absolute difference between the children sum and the root PLT.
    pub fn sum_error_us(&self) -> u64 {
        self.children_sum_us().abs_diff(self.total_us)
    }
}

/// Group events by trace id and reconstruct one [`FetchRecord`] per
/// `fetch` root, in deterministic `(start_us, trace)` order.
pub fn fetch_records(events: &[RawEvent]) -> Vec<FetchRecord> {
    let mut by_trace: BTreeMap<&str, FetchRecord> = BTreeMap::new();
    // Roots first, so children always find their record.
    for e in events {
        if e.name != "fetch" || e.dur_us.is_none() {
            continue;
        }
        let Some(trace) = e.trace.as_deref() else {
            continue;
        };
        by_trace.insert(
            trace,
            FetchRecord {
                trace: trace.to_string(),
                start_us: e.ts_us,
                total_us: e.dur_us.unwrap_or(0),
                detect_us: 0,
                circum_us: 0,
                transfer_us: 0,
                ok: e
                    .fields
                    .get("ok")
                    .and_then(|v| v.as_bool())
                    .unwrap_or(false),
                url: e
                    .fields
                    .get("url")
                    .and_then(|v| v.as_str())
                    .unwrap_or("")
                    .to_string(),
                transport: e
                    .fields
                    .get("transport")
                    .and_then(|v| v.as_str())
                    .unwrap_or("")
                    .to_string(),
            },
        );
    }
    for e in events {
        let (Some(trace), Some(dur)) = (e.trace.as_deref(), e.dur_us) else {
            continue;
        };
        let Some(rec) = by_trace.get_mut(trace) else {
            continue;
        };
        match e.name.as_str() {
            "fetch.detect" => rec.detect_us += dur,
            "fetch.circum" => rec.circum_us += dur,
            "fetch.transfer" => rec.transfer_us += dur,
            _ => {}
        }
    }
    let mut recs: Vec<FetchRecord> = by_trace.into_values().collect();
    recs.sort_by(|a, b| (a.start_us, &a.trace).cmp(&(b.start_us, &b.trace)));
    recs
}

/// Fetches whose children do not sum to the root within
/// [`SUM_TOLERANCE_US`] — one description per violation.
pub fn sum_violations(recs: &[FetchRecord]) -> Vec<String> {
    recs.iter()
        .filter(|r| r.sum_error_us() > SUM_TOLERANCE_US)
        .map(|r| {
            format!(
                "trace {}: children sum {}us != root {}us (error {}us)",
                r.trace,
                r.children_sum_us(),
                r.total_us,
                r.sum_error_us()
            )
        })
        .collect()
}

/// Percentile summary over one decomposition leg.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegStats {
    /// Sample count.
    pub n: usize,
    /// Mean (µs).
    pub mean_us: f64,
    /// Median (µs).
    pub p50_us: f64,
    /// 99th percentile (µs).
    pub p99_us: f64,
}

/// Summarise raw µs samples via the shared [`Histogram`] quantile
/// sketch (log-bucketed: exact below 64 µs, ≤ ~1.6 % above — plenty
/// inside the decomposition table's ms-level resolution).
pub fn leg_stats(samples: &[u64]) -> LegStats {
    if samples.is_empty() {
        return LegStats {
            n: 0,
            mean_us: 0.0,
            p50_us: 0.0,
            p99_us: 0.0,
        };
    }
    let h = Histogram::default();
    for &s in samples {
        h.observe_us(s);
    }
    LegStats {
        n: samples.len(),
        mean_us: samples.iter().sum::<u64>() as f64 / samples.len() as f64,
        p50_us: h.p50_us().unwrap_or(0) as f64,
        p99_us: h.p99_us().unwrap_or(0) as f64,
    }
}

fn ms(us: f64) -> f64 {
    us / 1_000.0
}

/// The PLT-decomposition table: one row per leg (detection,
/// circumvention setup, transfer) plus the total, each with
/// mean/p50/p99 in ms and the leg's share of mean total PLT.
pub fn decomposition_table(recs: &[FetchRecord]) -> String {
    let leg = |f: fn(&FetchRecord) -> u64| -> LegStats {
        leg_stats(&recs.iter().map(f).collect::<Vec<u64>>())
    };
    let detect = leg(|r| r.detect_us);
    let circum = leg(|r| r.circum_us);
    let transfer = leg(|r| r.transfer_us);
    let total = leg(|r| r.total_us);
    let served = recs.iter().filter(|r| r.ok).count();
    let mut out = format!(
        "PLT decomposition ({} fetches, {} served, {} failed)\n",
        recs.len(),
        served,
        recs.len() - served
    );
    out.push_str(&format!(
        "  {:<14}{:>12}{:>12}{:>12}{:>9}\n",
        "leg", "mean(ms)", "p50(ms)", "p99(ms)", "share"
    ));
    for (label, s) in [
        ("detection", detect),
        ("circum setup", circum),
        ("transfer", transfer),
        ("total PLT", total),
    ] {
        let share = if total.mean_us > 0.0 {
            100.0 * s.mean_us / total.mean_us
        } else {
            0.0
        };
        out.push_str(&format!(
            "  {:<14}{:>12.3}{:>12.3}{:>12.3}{:>8.1}%\n",
            label,
            ms(s.mean_us),
            ms(s.p50_us),
            ms(s.p99_us),
            share
        ));
    }
    out
}

/// Per-fetch waterfalls for the first `limit` fetches: a fixed-width
/// bar per fetch split into `d`/`c`/`t` segments (detection,
/// circumvention setup, transfer) on the fetch's own scale.
pub fn waterfall(recs: &[FetchRecord], limit: usize) -> String {
    const WIDTH: usize = 48;
    let mut out = String::from("Waterfalls (d=detect c=circum-setup t=transfer)\n");
    for r in recs.iter().take(limit) {
        let total = r.total_us.max(1);
        let seg = |us: u64| (us as f64 / total as f64 * WIDTH as f64).round() as usize;
        let (d, c) = (seg(r.detect_us), seg(r.circum_us));
        let t = WIDTH.saturating_sub(d + c);
        let bar: String = "d".repeat(d) + &"c".repeat(c) + &"t".repeat(t);
        out.push_str(&format!(
            "  {} {:<10} {:>10.3}ms [{bar}] {}\n",
            &r.trace,
            r.transport,
            ms(r.total_us as f64),
            if r.ok { "ok" } else { "FAILED" },
        ));
    }
    if recs.len() > limit {
        out.push_str(&format!("  ... {} more fetches\n", recs.len() - limit));
    }
    out
}

/// Baseline-vs-current comparison of one leg.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegDelta {
    /// Baseline stats.
    pub base: LegStats,
    /// Current stats.
    pub cur: LegStats,
    /// p50 change, percent of baseline (positive = slower).
    pub p50_delta_pct: f64,
    /// p99 change, percent of baseline.
    pub p99_delta_pct: f64,
}

fn delta_pct(base: f64, cur: f64) -> f64 {
    if base > 0.0 {
        (cur - base) / base * 100.0
    } else {
        0.0
    }
}

impl LegDelta {
    fn of(base: LegStats, cur: LegStats) -> LegDelta {
        LegDelta {
            base,
            cur,
            p50_delta_pct: delta_pct(base.p50_us, cur.p50_us),
            p99_delta_pct: delta_pct(base.p99_us, cur.p99_us),
        }
    }
}

/// The regression verdict over total PLT, with per-leg deltas for
/// attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Total-PLT delta — the gating leg.
    pub total: LegDelta,
    /// Per-leg deltas: (label, delta), for the report body.
    pub legs: Vec<(String, LegDelta)>,
    /// Allowed worsening (%) before the gate fails.
    pub threshold_pct: f64,
    /// True when total p50 or p99 worsened beyond the threshold.
    pub regressed: bool,
}

/// Compare current fetches against a baseline. The gate fails when
/// total-PLT p50 *or* p99 is more than `threshold_pct` percent slower
/// than the baseline; per-leg deltas attribute the change.
pub fn compare(base: &[FetchRecord], cur: &[FetchRecord], threshold_pct: f64) -> Verdict {
    let stats = |recs: &[FetchRecord], f: fn(&FetchRecord) -> u64| -> LegStats {
        leg_stats(&recs.iter().map(f).collect::<Vec<u64>>())
    };
    let total = LegDelta::of(stats(base, |r| r.total_us), stats(cur, |r| r.total_us));
    let legs = vec![
        (
            "detection".to_string(),
            LegDelta::of(stats(base, |r| r.detect_us), stats(cur, |r| r.detect_us)),
        ),
        (
            "circum setup".to_string(),
            LegDelta::of(stats(base, |r| r.circum_us), stats(cur, |r| r.circum_us)),
        ),
        (
            "transfer".to_string(),
            LegDelta::of(
                stats(base, |r| r.transfer_us),
                stats(cur, |r| r.transfer_us),
            ),
        ),
    ];
    let regressed = total.p50_delta_pct > threshold_pct || total.p99_delta_pct > threshold_pct;
    Verdict {
        total,
        legs,
        threshold_pct,
        regressed,
    }
}

impl Verdict {
    /// Text rendering of the verdict and per-leg attribution.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Regression gate (threshold {:.1}%): {}\n",
            self.threshold_pct,
            if self.regressed { "FAIL" } else { "PASS" }
        );
        out.push_str(&format!(
            "  {:<14}{:>12}{:>12}{:>9}{:>12}{:>12}{:>9}\n",
            "leg", "base p50", "cur p50", "Δp50", "base p99", "cur p99", "Δp99"
        ));
        let mut rows: Vec<(&str, &LegDelta)> = vec![("total PLT", &self.total)];
        for (label, d) in &self.legs {
            rows.push((label, d));
        }
        for (label, d) in rows {
            out.push_str(&format!(
                "  {:<14}{:>10.3}ms{:>10.3}ms{:>8.1}%{:>10.3}ms{:>10.3}ms{:>8.1}%\n",
                label,
                ms(d.base.p50_us),
                ms(d.cur.p50_us),
                d.p50_delta_pct,
                ms(d.base.p99_us),
                ms(d.cur.p99_us),
                d.p99_delta_pct
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jsonl_fetch(trace: &str, ts: u64, detect: u64, circum: u64, transfer: u64) -> String {
        let total = detect + circum + transfer;
        let mut lines = Vec::new();
        for (name, off, dur) in [
            ("fetch.detect", 0, detect),
            ("fetch.circum", detect, circum),
            ("fetch.transfer", detect + circum, transfer),
        ] {
            lines.push(format!(
                r#"{{"dur_us":{dur},"event":"{name}","parent":"{trace}","span":"00000000000000aa","trace":"{trace}","ts_us":{}}}"#,
                ts + off
            ));
        }
        lines.push(format!(
            r#"{{"dur_us":{total},"event":"fetch","fields":{{"ok":true,"transport":"tor","url":"http://x/"}},"span":"{trace}","trace":"{trace}","ts_us":{ts}}}"#
        ));
        lines.join("\n") + "\n"
    }

    #[test]
    fn jsonl_roundtrip_reconstructs_fetches() {
        let text = jsonl_fetch("0000000000000001", 100, 10, 20, 30)
            + &jsonl_fetch("0000000000000002", 500, 5, 0, 45);
        let events = parse_jsonl(&text).unwrap();
        let recs = fetch_records(&events);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].detect_us, 10);
        assert_eq!(recs[0].circum_us, 20);
        assert_eq!(recs[0].transfer_us, 30);
        assert_eq!(recs[0].total_us, 60);
        assert_eq!(recs[0].sum_error_us(), 0);
        assert!(recs[0].ok);
        assert_eq!(recs[0].transport, "tor");
        assert!(sum_violations(&recs).is_empty());
    }

    #[test]
    fn one_line_without_trailing_newline_is_jsonl() {
        let text = jsonl_fetch("0000000000000004", 0, 1, 2, 3);
        let root = text.lines().last().unwrap();
        let events = parse_jsonl(root).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(fetch_records(&events).len(), 1);
    }

    #[test]
    fn chrome_document_is_a_parse_error_on_line_1() {
        let chrome = csaw_obs::chrome::render_chrome_trace(&[csaw_obs::Event::point("x", 1)]);
        let err = parse_jsonl(&chrome).unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn sum_violation_detected_beyond_tolerance() {
        let mut text = jsonl_fetch("0000000000000003", 0, 10, 0, 10);
        // Corrupt the root: claim 25us total against 20us of children.
        text = text.replace(
            r#""dur_us":20,"event":"fetch""#,
            r#""dur_us":25,"event":"fetch""#,
        );
        let recs = fetch_records(&parse_jsonl(&text).unwrap());
        assert_eq!(recs[0].sum_error_us(), 5);
        assert_eq!(sum_violations(&recs).len(), 1);
    }

    #[test]
    fn self_comparison_passes_and_slowdown_fails() {
        let text: String = (0..20u64)
            .map(|i| jsonl_fetch(&format!("{:016x}", i + 1), i * 100, 10, 5, 100 + i))
            .collect();
        let recs = fetch_records(&parse_jsonl(&text).unwrap());
        let same = compare(&recs, &recs, 10.0);
        assert!(!same.regressed, "{}", same.render());

        // Inject a 50% slowdown on every total.
        let slow: Vec<FetchRecord> = recs
            .iter()
            .map(|r| FetchRecord {
                total_us: r.total_us * 3 / 2,
                transfer_us: r.transfer_us + r.total_us / 2,
                ..r.clone()
            })
            .collect();
        let v = compare(&recs, &slow, 10.0);
        assert!(v.regressed, "{}", v.render());
        assert!(v.total.p50_delta_pct > 40.0);
        // Attribution: the transfer leg carries the regression.
        let transfer = &v.legs.iter().find(|(l, _)| l == "transfer").unwrap().1;
        assert!(transfer.p50_delta_pct > 40.0);
    }

    #[test]
    fn tables_render_without_panicking_on_empty_input() {
        let recs: Vec<FetchRecord> = Vec::new();
        assert!(decomposition_table(&recs).contains("0 fetches"));
        assert!(waterfall(&recs, 5).contains("Waterfalls"));
        let v = compare(&recs, &recs, 10.0);
        assert!(!v.regressed);
    }
}
