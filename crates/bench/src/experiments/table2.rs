//! Table 2: ping latencies from the vantage point to the static proxies
//! (and to YouTube). Our topology pins these by construction; the
//! experiment *measures* them over the simulated paths and checks the
//! round trip matches the paper's numbers.

use crate::experiments::Outcome;
use crate::runner::{self, TrialSpec};
use crate::worlds::{clean_world, static_proxies};
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::SimDuration;

/// One measured row.
#[derive(Debug, Clone, PartialEq)]
pub struct PingRow {
    /// Proxy label.
    pub label: String,
    /// Paper's reported average ping RTT (ms).
    pub paper_ms: u64,
    /// Measured average RTT over the simulated path (ms).
    pub measured_ms: u64,
}

/// The experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// All rows, including the YouTube baseline.
    pub rows: Vec<PingRow>,
}

/// Paper values for the proxies it names (France rows are ours; the paper
/// plots France proxies in Fig. 1a without listing their pings).
fn paper_value(label: &str) -> Option<u64> {
    match label {
        "UK" => Some(228),
        "Netherlands" => Some(172),
        "Japan" => Some(387),
        "US-1" => Some(329),
        "US-2" => Some(429),
        "US-3" => Some(160),
        "Germany-1" => Some(309),
        "Germany-2" => Some(174),
        _ => None,
    }
}

/// Run the ping sweep: 50 echo samples per destination, WAN component
/// only (the paper pings from the measurement host, we exclude the local
/// access hop jitter by averaging). One runner trial per destination
/// (the ten proxies plus the YouTube baseline), each drawing its RTT
/// samples from a runner-forked stream.
pub fn run(seed: u64, jobs: usize) -> Table2 {
    let proxies = static_proxies();
    let specs: Vec<TrialSpec> = proxies
        .iter()
        .map(|p| p.label.as_str())
        .chain(["YouTube"])
        .enumerate()
        .map(|(i, label)| TrialSpec::forked("table2", seed, i as u64, label))
        .collect();
    let rows = runner::map(&specs, jobs, |spec| {
        let world = clean_world();
        let provider = world.access.providers()[0].clone();
        let mut rng = DetRng::new(spec.seed);
        let (label, site, paper_ms) = match proxies.get(spec.ordinal as usize) {
            Some(p) => (p.label.clone(), p.site, paper_value(&p.label).unwrap_or(0)),
            None => {
                // YouTube baseline (paper: 186 ms).
                let yt = world.site(crate::worlds::YOUTUBE).expect("youtube exists");
                ("YouTube".to_string(), yt.location, 186)
            }
        };
        let path = world.path_to_site(&provider, site);
        let n = 50;
        let total_us: u64 = (0..n).map(|_| path.sample_rtt(&mut rng).as_micros()).sum();
        // Remove the access hop (2 × 8 ms) the paper's ping excludes by
        // being measured from the campus border.
        let avg =
            SimDuration::from_micros(total_us / n).saturating_sub(SimDuration::from_millis(16));
        PingRow {
            label,
            paper_ms,
            measured_ms: avg.as_millis(),
        }
    });
    Table2 { rows }
}

impl Outcome for Table2 {
    fn render(&self) -> String {
        let mut out = String::from("Table 2: avg ping RTT to static proxies (paper vs measured)\n");
        out.push_str(&format!(
            "  {:<14}{:>10}{:>12}\n",
            "proxy", "paper(ms)", "measured(ms)"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<14}{:>10}{:>12}\n",
                r.label,
                if r.paper_ms == 0 {
                    "-".to_string()
                } else {
                    r.paper_ms.to_string()
                },
                r.measured_ms
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_rtts_match_paper_within_10pct() {
        let t = run(7, 1);
        for r in &t.rows {
            if r.paper_ms == 0 {
                continue;
            }
            let err = (r.measured_ms as f64 - r.paper_ms as f64).abs() / r.paper_ms as f64;
            assert!(
                err < 0.10,
                "{}: measured {} vs paper {} ({:.1}% off)",
                r.label,
                r.measured_ms,
                r.paper_ms,
                err * 100.0
            );
        }
    }

    #[test]
    fn includes_youtube_baseline() {
        let t = run(8, 1);
        assert!(t
            .rows
            .iter()
            .any(|r| r.label == "YouTube" && r.paper_ms == 186));
        assert_eq!(t.rows.len(), 11);
    }
}
