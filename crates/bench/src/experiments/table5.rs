//! Table 5: average blocking-detection time per mechanism.
//!
//! Paper values (average of 50 runs):
//!
//! | mechanism                          | avg detect (s) |
//! |------------------------------------|----------------|
//! | TCP/IP                             | 21             |
//! | DNS ("Server Failure")             | 10.6           |
//! | DNS ("Server Refused")             | 0.025          |
//! | HTTP (block page)                  | 1.8            |
//! | TCP/IP + DNS (multi-stage)         | 32.7           |

use crate::experiments::Outcome;
use crate::runner::{self, TrialSpec};
use crate::worlds::YOUTUBE;
use csaw::measure::{measure_direct, MeasuredStatus};
use csaw_censor::blocking::{DnsTamper, HttpAction, IpAction, TlsAction};
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::SimDuration;
use csaw_simnet::topology::Asn;
use csaw_webproto::url::Url;

/// One mechanism's detection-time row.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectRow {
    /// Mechanism label (paper's wording).
    pub label: String,
    /// Paper's average (s).
    pub paper_s: f64,
    /// Our measured average (s).
    pub measured_s: f64,
    /// Runs averaged.
    pub runs: usize,
}

/// The experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5 {
    /// All five rows.
    pub rows: Vec<DetectRow>,
}

/// The five mechanisms with the paper's reference averages.
fn cases() -> Vec<(&'static str, f64, DnsTamper, IpAction, HttpAction)> {
    vec![
        (
            "TCP/IP",
            21.0,
            DnsTamper::None,
            IpAction::Drop,
            HttpAction::None,
        ),
        (
            "DNS (Response: \"Server Failure\")",
            10.6,
            DnsTamper::Servfail,
            IpAction::None,
            HttpAction::None,
        ),
        (
            "DNS (Response: \"Server Refused\")",
            0.025,
            DnsTamper::Refused,
            IpAction::None,
            HttpAction::None,
        ),
        (
            "HTTP (Block Page)",
            1.8,
            DnsTamper::None,
            IpAction::None,
            HttpAction::BlockPageRedirect,
        ),
        (
            "TCP/IP + DNS",
            32.7,
            DnsTamper::Servfail,
            IpAction::Drop,
            HttpAction::None,
        ),
    ]
}

/// Run 50 detection trials per mechanism: one runner trial each, on
/// its historical `seed ^ paper_s.to_bits()` stream.
pub fn run(seed: u64) -> Table5 {
    let cases = cases();
    let specs: Vec<TrialSpec> = cases
        .iter()
        .map(|(_, paper_s, ..)| TrialSpec::salted(seed ^ paper_s.to_bits()))
        .collect();
    let rows = runner::map(&specs, |i, spec| {
        let (label, paper_s, dns, ip, http) = cases[i];
        let url = Url::parse(&format!("http://{YOUTUBE}/")).expect("static URL");
        let policy = csaw_censor::single_mechanism(label, YOUTUBE, dns, ip, http, TlsAction::None);
        let world = crate::worlds::single_isp_world(Asn(5000), "T5-ISP", policy);
        let provider = world.access.providers()[0].clone();
        let mut rng = DetRng::new(spec.seed);
        let runs = 50;
        let mut total = SimDuration::ZERO;
        let mut detected = 0usize;
        for _ in 0..runs {
            let m = measure_direct(&world, &provider, &url, Some(360_000), &mut rng);
            if m.status == MeasuredStatus::Blocked {
                total += m.detection_time;
                detected += 1;
            }
        }
        assert!(detected > 0, "{label}: nothing detected");
        DetectRow {
            label: label.to_string(),
            paper_s,
            measured_s: total.as_secs_f64() / detected as f64,
            runs: detected,
        }
    });
    Table5 { rows }
}

impl Table5 {
    /// A row by label prefix.
    pub fn row(&self, prefix: &str) -> &DetectRow {
        self.rows
            .iter()
            .find(|r| r.label.starts_with(prefix))
            .expect("row exists")
    }
}

impl Outcome for Table5 {
    fn render(&self) -> String {
        let mut out = String::from("Table 5: avg blocking-detection time (paper vs measured)\n");
        out.push_str(&format!(
            "  {:<36}{:>10}{:>12}\n",
            "mechanism", "paper(s)", "measured(s)"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<36}{:>10.3}{:>12.3}\n",
                r.label, r.paper_s, r.measured_s
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_runs_detected() {
        let t = run(43);
        for r in &t.rows {
            assert_eq!(r.runs, 50, "{}", r.label);
        }
    }
}
