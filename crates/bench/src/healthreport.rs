//! Offline health-timeline analysis behind `report health`.
//!
//! Consumes the JSONL event stream `--trace-out x.jsonl` writes (the
//! same file `report trace` reads), uses its `ts.frame` and
//! `slo.violation` events, skips every other event, and renders, per
//! run label:
//!
//! - a **delivery timeline**: per window, reports queued / posted /
//!   failed, the cumulative delivery ratio, the summed client queue
//!   depth at window close, and the detection-latency p99;
//! - a **per-AS staleness timeline**: the `store.ingest.staleness_us`
//!   p99 per AS label, per window — the freshness signal behind the
//!   paper's "how stale is the blocked list a client downloads";
//! - the **SLO verdicts**: every `slo.violation` the deterministic
//!   rule engine emitted at window close.
//!
//! The analysis is read-only re-presentation: verdicts were already
//! decided (deterministically) when the windows closed. `--gate` turns
//! "any violation" into a non-zero exit for CI; `--expect` inverts the
//! check for fault-injection legs that must alert (a chaos run at 60 %
//! fault rate that does *not* fire the delivery SLO is a bug in the
//! alerting, not a healthy run).

use crate::cli::{exit, Verdict};
use crate::tracereport::jsonl_values;
use csaw_obs::slo::Violation;
use csaw_obs::timeseries::{key_in_family, Frame};
use std::collections::BTreeSet;

/// The frames and violations parsed out of a JSONL event stream.
#[derive(Debug, Clone, Default)]
pub struct HealthInput {
    /// Telemetry frames, in file order (trial order: the runner runs a
    /// sweep's trials one after another).
    pub frames: Vec<Frame>,
    /// SLO violations, in emission order.
    pub violations: Vec<Violation>,
}

impl HealthInput {
    /// Distinct run labels, in first-seen frame order.
    pub fn runs(&self) -> Vec<&str> {
        let mut runs: Vec<&str> = Vec::new();
        for f in &self.frames {
            if !runs.contains(&f.run.as_str()) {
                runs.push(&f.run);
            }
        }
        runs
    }

    /// Frames belonging to `run`, in file order.
    pub fn frames_for(&self, run: &str) -> Vec<&Frame> {
        self.frames.iter().filter(|f| f.run == run).collect()
    }

    /// Distinct names of rules that fired, sorted.
    pub fn rules_violated(&self) -> Vec<&str> {
        let set: BTreeSet<&str> = self.violations.iter().map(|v| v.rule.as_str()).collect();
        set.into_iter().collect()
    }

    /// Expected rule names that never fired (the `--expect` check).
    pub fn missing_expected(&self, expected: &[String]) -> Vec<String> {
        let fired: BTreeSet<&str> = self.violations.iter().map(|v| v.rule.as_str()).collect();
        expected
            .iter()
            .filter(|r| !fired.contains(r.as_str()))
            .cloned()
            .collect()
    }
}

/// Parse a JSONL event stream. Events that are neither `ts.frame` nor
/// `slo.violation` are skipped; a line that is not a JSON event (a
/// Chrome trace, say) is an error.
pub fn parse_jsonl(text: &str) -> Result<HealthInput, String> {
    let mut input = HealthInput::default();
    for item in jsonl_values(text) {
        let (_, _, v) = item?;
        if let Some(f) = Frame::parse(&v) {
            input.frames.push(f);
        } else if let Some(viol) = Violation::parse(&v) {
            input.violations.push(viol);
        }
    }
    Ok(input)
}

/// Sum of close-of-window gauge levels across a label family; `None`
/// when the frame has no series in the family.
fn gauge_sum(f: &Frame, family: &str) -> Option<i64> {
    let mut sum = None;
    for (k, s) in &f.series {
        if key_in_family(k, family) {
            if let Some(last) = s.gauge_last() {
                *sum.get_or_insert(0) += last;
            }
        }
    }
    sum
}

/// Largest p99 across a digest family's labels; `None` when no label
/// saw samples this window.
fn digest_p99(f: &Frame, family: &str) -> Option<u64> {
    f.series
        .iter()
        .filter(|(k, _)| key_in_family(k, family))
        .filter_map(|(_, s)| s.p99_us())
        .max()
}

/// Format a window as `[start,end)` in whole virtual hours when every
/// boundary is hour-aligned, else in seconds.
fn window_label(start_us: u64, end_us: u64, hour_aligned: bool) -> String {
    if hour_aligned {
        format!(
            "[{:>4},{:>4})h",
            start_us / 3_600_000_000,
            end_us / 3_600_000_000
        )
    } else {
        format!("[{:>7},{:>7})s", start_us / 1_000_000, end_us / 1_000_000)
    }
}

fn all_hour_aligned(frames: &[&Frame]) -> bool {
    frames
        .iter()
        .all(|f| f.start_us % 3_600_000_000 == 0 && f.end_us % 3_600_000_000 == 0)
}

/// Render one run's delivery + staleness timelines.
fn render_run(input: &HealthInput, run: &str) -> String {
    let frames = input.frames_for(run);
    let hour = all_hour_aligned(&frames);
    let shown = if run.is_empty() { "(main)" } else { run };
    let mut out = format!("run {shown}: {} window(s)\n", frames.len());

    // Delivery timeline.
    out.push_str(&format!(
        "  {:<13} {:>7} {:>7} {:>7} {:>9} {:>8} {:>12}\n",
        "window", "queued", "posted", "failed", "delivery", "q.depth", "detect_p99ms"
    ));
    let (mut cq, mut cp) = (0u64, 0u64);
    for f in &frames {
        cq += f.family_count("client.reports.queued");
        cp += f.family_count("client.reports.posted");
        let delivery = if cq == 0 {
            "-".to_string()
        } else {
            format!("{:.3}", cp as f64 / cq as f64)
        };
        let depth = gauge_sum(f, "client.report_queue_depth")
            .map(|d| d.to_string())
            .unwrap_or_else(|| "-".into());
        let detect = digest_p99(f, "client.detect_latency_us")
            .map(|us| format!("{:.1}", us as f64 / 1e3))
            .unwrap_or_else(|| "-".into());
        out.push_str(&format!(
            "  {:<13} {:>7} {:>7} {:>7} {:>9} {:>8} {:>12}\n",
            window_label(f.start_us, f.end_us, hour),
            f.family_count("client.reports.queued"),
            f.family_count("client.reports.posted"),
            f.family_count("client.reports.failed"),
            delivery,
            depth,
            detect,
        ));
    }

    // Per-AS staleness timeline, only when the store side reported any.
    let stale_keys: Vec<&String> = {
        let mut set = BTreeSet::new();
        for f in &frames {
            for k in f.series.keys() {
                if key_in_family(k, "store.ingest.staleness_us") {
                    set.insert(k);
                }
            }
        }
        set.into_iter().collect()
    };
    if !stale_keys.is_empty() {
        out.push_str("  per-AS ingest staleness p99 (s):\n");
        out.push_str(&format!("  {:<13}", "window"));
        for k in &stale_keys {
            let label = k
                .rsplit_once('{')
                .map(|(_, l)| l.trim_end_matches('}'))
                .unwrap_or(k);
            out.push_str(&format!(" {label:>12}"));
        }
        out.push('\n');
        for f in &frames {
            out.push_str(&format!(
                "  {:<13}",
                window_label(f.start_us, f.end_us, hour)
            ));
            for k in &stale_keys {
                let cell = f
                    .series
                    .get(*k)
                    .and_then(|s| s.p99_us())
                    .map(|us| format!("{:.1}", us as f64 / 1e6))
                    .unwrap_or_else(|| "-".into());
                out.push_str(&format!(" {cell:>12}"));
            }
            out.push('\n');
        }
    }
    out
}

/// The full report: per-run timelines, the violation list, and a final
/// verdict line.
pub fn render(input: &HealthInput) -> String {
    let mut out = String::from("health-report: windowed telemetry timelines\n\n");
    for run in input.runs() {
        out.push_str(&render_run(input, run));
        out.push('\n');
    }
    if input.violations.is_empty() {
        out.push_str("SLO violations: none\n");
    } else {
        out.push_str(&format!("SLO violations ({}):\n", input.violations.len()));
        for v in &input.violations {
            let run = if v.run.is_empty() { "(main)" } else { &v.run };
            out.push_str(&format!(
                "  {:<13} {:<22} {:<40} value {:.3} vs {:.3}  run {}\n",
                window_label(
                    v.win_start_us,
                    v.win_end_us,
                    v.win_start_us % 3_600_000_000 == 0
                ),
                v.rule,
                v.series,
                v.value,
                v.threshold,
                run,
            ));
        }
    }
    out.push_str(&format!("{}\n", verdict(input)));
    out
}

/// One-line verdict: `health: OK ...` or `health: FAIL ...`.
pub fn verdict(input: &HealthInput) -> String {
    if input.violations.is_empty() {
        format!(
            "health: OK — {} window(s), no SLO violations",
            input.frames.len()
        )
    } else {
        format!(
            "health: FAIL — {} violation(s) across rules: {}",
            input.violations.len(),
            input.rules_violated().join(", ")
        )
    }
}

/// The `--gate` verdict. A run passes only on evidence: no frames at
/// all (an empty file, a trace of a run that never opened a telemetry
/// window) is unusable input, not a healthy run.
pub fn gate(input: &HealthInput) -> Verdict {
    if input.frames.is_empty() {
        Err((
            exit::NO_EVIDENCE,
            "no telemetry frames found (was the run windowed?)".to_string(),
        ))
    } else if !input.violations.is_empty() {
        Err((exit::GATE, "SLO violation(s) present".to_string()))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_obs::timeseries::SeriesSample;
    use std::collections::BTreeMap;

    fn frame(run: &str, w: u64, series: &[(&str, SeriesSample)]) -> Frame {
        Frame {
            start_us: w * 3_600_000_000,
            end_us: (w + 1) * 3_600_000_000,
            run: run.into(),
            skipped: 0,
            series: series
                .iter()
                .map(|(k, s)| (k.to_string(), s.clone()))
                .collect(),
        }
    }

    fn sample_lines() -> String {
        let f0 = frame(
            "rate=0.6",
            0,
            &[
                ("client.reports.queued{x=a}", SeriesSample::Count(10)),
                ("client.reports.posted", SeriesSample::Count(2)),
                (
                    "client.report_queue_depth{client=1}",
                    SeriesSample::Gauge {
                        last: 8,
                        min: 0,
                        max: 10,
                    },
                ),
                (
                    "store.ingest.staleness_us{asn=7}",
                    SeriesSample::Digest {
                        count: 2,
                        sum_us: 4_000_000,
                        min_us: 1_000_000,
                        max_us: 3_000_000,
                        p50_us: 1_000_000,
                        p90_us: 3_000_000,
                        p99_us: 3_000_000,
                    },
                ),
            ],
        );
        let f1 = frame(
            "rate=0.6",
            1,
            &[
                ("client.reports.queued{x=a}", SeriesSample::Count(0)),
                ("client.reports.posted", SeriesSample::Count(5)),
            ],
        );
        let v = Violation {
            rule: "report.delivery.fast".into(),
            series: "client.reports.posted".into(),
            win_start_us: 3_600_000_000,
            win_end_us: 7_200_000_000,
            windows: 2,
            value: 0.7,
            threshold: 0.9,
            run: "rate=0.6".into(),
        };
        [
            f0.to_event().to_json().to_string_compact(),
            // Unrelated events are tolerated and skipped.
            r#"{"event":"progress","ts_us":1,"fields":{"msg":"x"}}"#.to_string(),
            f1.to_event().to_json().to_string_compact(),
            v.to_event().to_json().to_string_compact(),
        ]
        .join("\n")
    }

    #[test]
    fn parses_frames_violations_and_skips_noise() {
        let input = parse_jsonl(&sample_lines()).unwrap();
        assert_eq!(input.frames.len(), 2);
        assert_eq!(input.violations.len(), 1);
        assert_eq!(input.runs(), vec!["rate=0.6"]);
        assert!(parse_jsonl("not json").is_err());
        // A Chrome trace is one JSON object, but not an event.
        let chrome = csaw_obs::chrome::render_chrome_trace(&[]);
        assert_eq!(parse_jsonl(&chrome).unwrap_err(), "line 1: not an event");
    }

    #[test]
    fn render_shows_delivery_staleness_and_verdict() {
        let input = parse_jsonl(&sample_lines()).unwrap();
        let text = render(&input);
        assert!(text.contains("run rate=0.6: 2 window(s)"), "{text}");
        // Cumulative delivery: 2/10 after window 0, 7/10 after window 1.
        assert!(text.contains("0.200"), "{text}");
        assert!(text.contains("0.700"), "{text}");
        assert!(text.contains("asn=7"), "{text}");
        assert!(text.contains("3.0"), "staleness p99 secs: {text}");
        assert!(text.contains("report.delivery.fast"), "{text}");
        assert!(text.contains("health: FAIL"), "{text}");
    }

    #[test]
    fn clean_input_verdicts_ok() {
        let mut input = parse_jsonl(&sample_lines()).unwrap();
        input.violations.clear();
        assert!(verdict(&input).starts_with("health: OK"));
        assert!(render(&input).contains("SLO violations: none"));
    }

    #[test]
    fn gate_needs_frames_before_it_can_pass() {
        let mut input = parse_jsonl(&sample_lines()).unwrap();
        assert_eq!(gate(&input).unwrap_err().0, exit::GATE);
        input.violations.clear();
        assert_eq!(gate(&input), Ok(()));
        // An empty file, or a trace stream with no `ts.frame` line.
        for text in ["", r#"{"event":"progress","ts_us":1,"fields":{"msg":"x"}}"#] {
            let empty = parse_jsonl(text).unwrap();
            assert_eq!(gate(&empty).unwrap_err().0, exit::NO_EVIDENCE, "{text:?}");
            assert!(
                render(&empty).contains("0 window(s)"),
                "rendering stays fine"
            );
        }
    }

    #[test]
    fn expect_reports_missing_rules() {
        let input = parse_jsonl(&sample_lines()).unwrap();
        assert!(input
            .missing_expected(&["report.delivery.fast".into()])
            .is_empty());
        assert_eq!(
            input.missing_expected(&["client.coverage".into()]),
            vec!["client.coverage".to_string()]
        );
    }

    #[test]
    fn second_aligned_windows_render_in_seconds() {
        let f = Frame {
            start_us: 0,
            end_us: 5_000_000,
            run: String::new(),
            skipped: 0,
            series: BTreeMap::from([("client.reports.queued".to_string(), SeriesSample::Count(1))]),
        };
        let input = HealthInput {
            frames: vec![f],
            violations: vec![],
        };
        let text = render(&input);
        assert!(text.contains(")s"), "{text}");
        assert!(
            text.contains("(main)"),
            "empty run label placeholder: {text}"
        );
    }
}
