//! A declarative, deterministic SLO engine over telemetry frames.
//!
//! Rules are evaluated by the [`Timeline`](crate::timeseries::Timeline)
//! at every window close, against the retained frame history (oldest
//! first, the just-closed frame last). Evaluation is a pure function of
//! the frames, so an offline consumer (`report health`) re-running the
//! same rules over exported frames reaches byte-identical verdicts.
//!
//! Rule kinds cover the health properties the C-Saw pipeline cares
//! about (§6–7 of the paper: coverage, freshness, delivery under
//! churn):
//!
//! - [`SloKind::DeliveryRatioMin`] — multi-window burn check: everything
//!   queued up to `lag` windows ago must be delivered by now. Two rules
//!   with different lags give the classic fast/slow burn pair.
//! - [`SloKind::QuantileMaxUs`] — a histogram family's per-window p99
//!   must stay under a ceiling (per label: staleness per AS, detection
//!   latency).
//! - [`SloKind::GaugeLastMax`] — a gauge family must not sit above a
//!   ceiling at `windows` consecutive window closes (queue backlogs are
//!   allowed to spike, not to persist).
//! - [`SloKind::CoverageMin`] — when a counter family shows activity
//!   globally, every label ever seen must reach a per-window minimum
//!   (an AS going dark while others report is a violation; a globally
//!   idle window is not).

use crate::event::Event;
use crate::json::JsonValue;
use crate::timeseries::{key_in_family, Frame};

/// What a rule checks. See the module docs for the semantics of each.
#[derive(Debug, Clone)]
pub enum SloKind {
    /// `sum(good over all frames) / sum(total over frames[..len-lag])`
    /// must be at least `min`. Skipped until `lag + 1` frames exist or
    /// while the denominator is zero.
    DeliveryRatioMin {
        /// Counter family counting completions (e.g. reports posted).
        good: String,
        /// Counter family counting intake (e.g. reports queued).
        total: String,
        /// Minimum acceptable ratio.
        min: f64,
        /// Settling allowance, in windows: intake newer than this is
        /// not yet expected to have completed.
        lag: usize,
    },
    /// Every labelled series of `family` with samples in the newest
    /// frame must have `p99 <= max_us`.
    QuantileMaxUs {
        /// Histogram family (label-expanded).
        family: String,
        /// Ceiling on the per-window p99, µs.
        max_us: u64,
    },
    /// A labelled gauge must not read above `max` at the close of
    /// `windows` consecutive windows (see [`SloRule::windows`]).
    GaugeLastMax {
        /// Gauge family (label-expanded).
        family: String,
        /// Highest acceptable close-of-window level.
        max: i64,
    },
    /// When `family` has any activity in the newest window, every label
    /// seen anywhere in the retained history must count at least `min`
    /// in that window.
    CoverageMin {
        /// Counter family (label-expanded).
        family: String,
        /// Per-label minimum per active window.
        min: u64,
    },
}

/// A named rule: a kind plus the number of windows it looks at.
#[derive(Debug, Clone)]
pub struct SloRule {
    /// Stable rule name (what `report health --expect` matches).
    pub name: String,
    /// Windows of history the rule needs before it can fire. For
    /// [`SloKind::GaugeLastMax`] this is the consecutive-breach length;
    /// for [`SloKind::DeliveryRatioMin`] it is `lag + 1`.
    pub windows: usize,
    /// The check itself.
    pub kind: SloKind,
}

/// One rule breach at one window close.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Name of the breached rule.
    pub rule: String,
    /// The concrete series key that breached (or the family for
    /// aggregate rules).
    pub series: String,
    /// Start of the window that closed, µs.
    pub win_start_us: u64,
    /// End of the window that closed, µs.
    pub win_end_us: u64,
    /// Windows of history the verdict used.
    pub windows: usize,
    /// Observed value (ratio, level, or µs depending on the rule).
    pub value: f64,
    /// The configured threshold it crossed.
    pub threshold: f64,
    /// Run label of the closing frame.
    pub run: String,
}

/// The event name violations are emitted under.
pub const VIOLATION_EVENT: &str = "slo.violation";

impl Violation {
    /// The violation as an `slo.violation` [`Event`].
    pub fn to_event(&self) -> Event {
        Event {
            ts_us: self.win_end_us,
            name: VIOLATION_EVENT.to_string(),
            dur_us: None,
            fields: vec![
                ("rule", JsonValue::from(self.rule.as_str())),
                ("series", JsonValue::from(self.series.as_str())),
                ("win_start_us", JsonValue::from(self.win_start_us)),
                ("win_end_us", JsonValue::from(self.win_end_us)),
                ("windows", JsonValue::from(self.windows)),
                ("value", JsonValue::from(self.value)),
                ("threshold", JsonValue::from(self.threshold)),
                ("run", JsonValue::from(self.run.as_str())),
            ],
            trace: None,
        }
    }

    /// Rebuild a violation from an event's JSON form. Returns `None`
    /// for lines that are not `slo.violation` events.
    pub fn parse(line: &JsonValue) -> Option<Violation> {
        if line.get("event").and_then(JsonValue::as_str) != Some(VIOLATION_EVENT) {
            return None;
        }
        let f = line.get("fields")?;
        let s = |k: &str| f.get(k).and_then(JsonValue::as_str).map(str::to_string);
        Some(Violation {
            rule: s("rule")?,
            series: s("series")?,
            win_start_us: f.get("win_start_us").and_then(JsonValue::as_u64)?,
            win_end_us: f.get("win_end_us").and_then(JsonValue::as_u64)?,
            windows: f.get("windows").and_then(JsonValue::as_u64)? as usize,
            value: f.get("value").and_then(JsonValue::as_f64)?,
            threshold: f.get("threshold").and_then(JsonValue::as_f64)?,
            run: s("run").unwrap_or_default(),
        })
    }
}

/// An ordered set of SLO rules.
#[derive(Debug, Clone, Default)]
pub struct SloSet {
    /// The rules, evaluated in order at every window close.
    pub rules: Vec<SloRule>,
}

impl SloSet {
    /// The C-Saw pipeline rule set: report delivery (fast + slow burn),
    /// per-AS blocked-list staleness, persistent client queue backlog,
    /// per-AS measurement coverage, and detection-latency p99. The
    /// series names match what `csaw`/`csaw-store` instrumentation
    /// exports (see EXPERIMENTS.md "Health timelines").
    pub fn csaw_default() -> SloSet {
        SloSet {
            rules: vec![
                SloRule {
                    name: "report.delivery.fast".into(),
                    windows: 2,
                    kind: SloKind::DeliveryRatioMin {
                        good: "client.reports.posted".into(),
                        total: "client.reports.queued".into(),
                        min: 0.90,
                        lag: 1,
                    },
                },
                SloRule {
                    name: "report.delivery.slow".into(),
                    windows: 4,
                    kind: SloKind::DeliveryRatioMin {
                        good: "client.reports.posted".into(),
                        total: "client.reports.queued".into(),
                        min: 0.99,
                        lag: 3,
                    },
                },
                SloRule {
                    name: "store.staleness.p99".into(),
                    windows: 1,
                    kind: SloKind::QuantileMaxUs {
                        family: "store.ingest.staleness_us".into(),
                        max_us: 4 * 3_600 * 1_000_000, // 4 virtual hours
                    },
                },
                SloRule {
                    name: "client.queue.drain".into(),
                    windows: 2,
                    kind: SloKind::GaugeLastMax {
                        family: "client.report_queue_depth".into(),
                        max: 0,
                    },
                },
                SloRule {
                    name: "client.coverage".into(),
                    windows: 1,
                    kind: SloKind::CoverageMin {
                        family: "client.fetches".into(),
                        min: 1,
                    },
                },
                SloRule {
                    name: "client.detect.p99".into(),
                    windows: 1,
                    kind: SloKind::QuantileMaxUs {
                        family: "client.detect_latency_us".into(),
                        max_us: 60 * 1_000_000, // Table 5 ladders stay under a minute
                    },
                },
            ],
        }
    }

    /// Evaluate every rule against `frames` (oldest first; the newest
    /// frame is the one that just closed). Pure: same frames, same
    /// verdicts. Returns the violations attributable to the newest
    /// frame only — callers invoke this once per close.
    pub fn evaluate(&self, frames: &[Frame]) -> Vec<Violation> {
        let Some(newest) = frames.last() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for rule in &self.rules {
            match &rule.kind {
                SloKind::DeliveryRatioMin {
                    good,
                    total,
                    min,
                    lag,
                } => {
                    if frames.len() < lag + 1 {
                        continue;
                    }
                    let good_sum: u64 = frames.iter().map(|f| f.family_count(good)).sum();
                    let total_sum: u64 = frames[..frames.len() - lag]
                        .iter()
                        .map(|f| f.family_count(total))
                        .sum();
                    if total_sum == 0 {
                        continue;
                    }
                    let ratio = good_sum as f64 / total_sum as f64;
                    if ratio < *min {
                        out.push(violation(rule, good, newest, ratio, *min));
                    }
                }
                SloKind::QuantileMaxUs { family, max_us } => {
                    for (key, sample) in &newest.series {
                        if !key_in_family(key, family) {
                            continue;
                        }
                        if let Some(p99) = sample.p99_us() {
                            if p99 > *max_us {
                                out.push(violation(rule, key, newest, p99 as f64, *max_us as f64));
                            }
                        }
                    }
                }
                SloKind::GaugeLastMax { family, max } => {
                    let w = rule.windows.max(1);
                    if frames.len() < w {
                        continue;
                    }
                    let tail = &frames[frames.len() - w..];
                    for (key, sample) in &newest.series {
                        if !key_in_family(key, family) {
                            continue;
                        }
                        let Some(last) = sample.gauge_last() else {
                            continue;
                        };
                        let breached_throughout = tail.iter().all(|f| {
                            f.series
                                .get(key)
                                .and_then(|s| s.gauge_last())
                                .is_some_and(|v| v > *max)
                        });
                        if breached_throughout {
                            out.push(violation(rule, key, newest, last as f64, *max as f64));
                        }
                    }
                }
                SloKind::CoverageMin { family, min } => {
                    if newest.family_count(family) == 0 {
                        continue; // globally idle window: nothing to cover
                    }
                    // Labels ever seen across the retained history.
                    let mut labels: Vec<&str> = Vec::new();
                    for f in frames {
                        for key in f.series.keys() {
                            if key_in_family(key, family) && !labels.contains(&key.as_str()) {
                                labels.push(key);
                            }
                        }
                    }
                    for key in labels {
                        let n = newest.series.get(key).and_then(|s| s.count()).unwrap_or(0);
                        if n < *min {
                            out.push(violation(rule, key, newest, n as f64, *min as f64));
                        }
                    }
                }
            }
        }
        out
    }
}

fn violation(
    rule: &SloRule,
    series: &str,
    newest: &Frame,
    value: f64,
    threshold: f64,
) -> Violation {
    Violation {
        rule: rule.name.clone(),
        series: series.to_string(),
        win_start_us: newest.start_us,
        win_end_us: newest.end_us,
        windows: rule.windows,
        value,
        threshold,
        run: newest.run.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::SeriesSample;

    fn frame(start_us: u64, end_us: u64, series: &[(&str, SeriesSample)]) -> Frame {
        Frame {
            start_us,
            end_us,
            run: "test".into(),
            skipped: 0,
            series: series
                .iter()
                .map(|(k, s)| (k.to_string(), s.clone()))
                .collect(),
        }
    }

    fn delivery_rule(min: f64, lag: usize) -> SloSet {
        SloSet {
            rules: vec![SloRule {
                name: "d".into(),
                windows: lag + 1,
                kind: SloKind::DeliveryRatioMin {
                    good: "posted".into(),
                    total: "queued".into(),
                    min,
                    lag,
                },
            }],
        }
    }

    #[test]
    fn empty_history_yields_no_verdicts() {
        assert!(SloSet::csaw_default().evaluate(&[]).is_empty());
    }

    #[test]
    fn delivery_skips_until_lag_then_fires_on_shortfall() {
        let s = delivery_rule(0.9, 1);
        let w0 = frame(
            0,
            100,
            &[
                ("queued", SeriesSample::Count(50)),
                ("posted", SeriesSample::Count(5)),
            ],
        );
        // One frame: lag 1 needs two.
        assert!(s.evaluate(std::slice::from_ref(&w0)).is_empty());
        let w1 = frame(
            100,
            200,
            &[
                ("queued", SeriesSample::Count(0)),
                ("posted", SeriesSample::Count(10)),
            ],
        );
        let v = s.evaluate(&[w0.clone(), w1.clone()]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "d");
        assert!((v[0].value - 15.0 / 50.0).abs() < 1e-9);
        assert_eq!(v[0].win_start_us, 100);
        // Full recovery: 50 posted by the next close.
        let w2 = frame(200, 300, &[("posted", SeriesSample::Count(35))]);
        assert!(s.evaluate(&[w0, w1, w2]).is_empty());
    }

    #[test]
    fn delivery_skips_with_zero_denominator() {
        let s = delivery_rule(0.9, 1);
        let quiet = frame(0, 100, &[("posted", SeriesSample::Count(0))]);
        let quiet2 = frame(100, 200, &[("posted", SeriesSample::Count(0))]);
        assert!(s.evaluate(&[quiet, quiet2]).is_empty());
    }

    fn digest(count: u64, p99_us: u64) -> SeriesSample {
        SeriesSample::Digest {
            count,
            sum_us: p99_us * count,
            min_us: p99_us,
            max_us: p99_us,
            p50_us: p99_us,
            p90_us: p99_us,
            p99_us,
        }
    }

    #[test]
    fn quantile_rule_fires_per_label() {
        let s = SloSet {
            rules: vec![SloRule {
                name: "stale".into(),
                windows: 1,
                kind: SloKind::QuantileMaxUs {
                    family: "stale_us".into(),
                    max_us: 1_000,
                },
            }],
        };
        let f = frame(
            0,
            100,
            &[
                ("stale_us{asn=1}", digest(4, 500)),
                ("stale_us{asn=2}", digest(4, 5_000)),
                ("stale_us{asn=3}", digest(0, 9_999)), // empty: no verdict
                ("other_us{asn=9}", digest(1, 9_999)), // different family
            ],
        );
        let v = s.evaluate(&[f]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].series, "stale_us{asn=2}");
        assert_eq!(v[0].value, 5_000.0);
    }

    #[test]
    fn gauge_rule_requires_consecutive_breaches() {
        let s = SloSet {
            rules: vec![SloRule {
                name: "drain".into(),
                windows: 2,
                kind: SloKind::GaugeLastMax {
                    family: "depth".into(),
                    max: 0,
                },
            }],
        };
        let spike = frame(
            0,
            100,
            &[(
                "depth{c=a}",
                SeriesSample::Gauge {
                    last: 7,
                    min: 0,
                    max: 7,
                },
            )],
        );
        // One breached close is a spike, not a violation.
        assert!(s.evaluate(std::slice::from_ref(&spike)).is_empty());
        let drained = frame(
            100,
            200,
            &[(
                "depth{c=a}",
                SeriesSample::Gauge {
                    last: 0,
                    min: 0,
                    max: 7,
                },
            )],
        );
        assert!(s.evaluate(&[spike.clone(), drained]).is_empty());
        let still_backed_up = frame(
            100,
            200,
            &[(
                "depth{c=a}",
                SeriesSample::Gauge {
                    last: 3,
                    min: 3,
                    max: 7,
                },
            )],
        );
        let v = s.evaluate(&[spike, still_backed_up]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].value, 3.0);
    }

    #[test]
    fn coverage_fires_for_dark_labels_only_when_globally_active() {
        let s = SloSet {
            rules: vec![SloRule {
                name: "cov".into(),
                windows: 1,
                kind: SloKind::CoverageMin {
                    family: "fetches".into(),
                    min: 1,
                },
            }],
        };
        let both = frame(
            0,
            100,
            &[
                ("fetches{asn=1}", SeriesSample::Count(3)),
                ("fetches{asn=2}", SeriesSample::Count(2)),
            ],
        );
        assert!(s.evaluate(std::slice::from_ref(&both)).is_empty());
        // AS 2 goes dark while AS 1 keeps measuring.
        let dark = frame(
            100,
            200,
            &[
                ("fetches{asn=1}", SeriesSample::Count(3)),
                ("fetches{asn=2}", SeriesSample::Count(0)),
            ],
        );
        let v = s.evaluate(&[both.clone(), dark]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].series, "fetches{asn=2}");
        // Globally idle window: not a coverage violation.
        let idle = frame(
            200,
            300,
            &[
                ("fetches{asn=1}", SeriesSample::Count(0)),
                ("fetches{asn=2}", SeriesSample::Count(0)),
            ],
        );
        assert!(s.evaluate(&[both, idle]).is_empty());
    }

    #[test]
    fn violation_event_roundtrips() {
        let v = Violation {
            rule: "r".into(),
            series: "s{a=1}".into(),
            win_start_us: 100,
            win_end_us: 200,
            windows: 2,
            value: 0.5,
            threshold: 0.9,
            run: "rate=0.6".into(),
        };
        let parsed = Violation::parse(&v.to_event().to_json()).unwrap();
        assert_eq!(parsed, v);
        assert!(Violation::parse(&Event::point("x", 1).to_json()).is_none());
    }
}
