//! Table 1: filtering mechanisms of ISP-A vs ISP-B, as *measured* by the
//! C-Saw detector (the paper presents the censor-side truth; we recover
//! it from client-side observations, which is the stronger statement).

use crate::experiments::Outcome;
use crate::runner::{self, TrialSpec};
use crate::worlds::{single_isp_world, PORN_PAGE, YOUTUBE};
use csaw::measure::{measure_direct, DetectConfig, MeasuredStatus};
use csaw_censor::blocking::{BlockingType, Stage};
use csaw_simnet::rng::DetRng;
use csaw_simnet::topology::Asn;
use csaw_webproto::url::Url;

/// One measured cell of the table.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// ISP label.
    pub isp: String,
    /// Target label ("YouTube" / "Rest").
    pub target: String,
    /// Mechanisms observed across trials (deduplicated, sorted).
    pub mechanisms: Vec<BlockingType>,
}

/// The experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// All four cells.
    pub cells: Vec<Cell>,
}

fn configs() -> [(&'static str, Asn, csaw_censor::policy::CensorPolicy); 2] {
    [
        ("ISP-A", Asn(45595), csaw_censor::isp_a()),
        ("ISP-B", Asn(17557), csaw_censor::isp_b()),
    ]
}

fn targets() -> [(&'static str, String); 2] {
    [
        ("YouTube", format!("http://{YOUTUBE}/")),
        (
            "Rest (Social, Porn, Political, ..)",
            format!("http://{PORN_PAGE}/"),
        ),
    ]
}

/// Run the Table 1 measurement: several trials per (ISP, target), union
/// of observed mechanisms (ISP-B's DNS stage engages probabilistically,
/// so one trial may see only part of the multi-stage setup). One runner
/// trial per cell, each on the historical per-ISP `seed ^ asn` stream.
pub fn run(seed: u64, jobs: usize) -> Table1 {
    let (configs, targets) = (configs(), targets());
    let mut specs = Vec::new();
    for (i, (isp, asn, _)) in configs.iter().enumerate() {
        for (j, (target, _)) in targets.iter().enumerate() {
            specs.push(TrialSpec::salted(
                seed ^ asn.0 as u64,
                (i * 2 + j) as u64,
                format!("{isp} × {target}"),
            ));
        }
    }
    let cells = runner::map(&specs, jobs, |spec| {
        let (isp, asn, policy) = &configs[spec.ordinal as usize / 2];
        let (target, url_s) = &targets[spec.ordinal as usize % 2];
        let world = single_isp_world(*asn, isp, policy.clone());
        let url = Url::parse(url_s).expect("static URL");
        let mut mechanisms: Vec<BlockingType> = Vec::new();
        let mut rng = DetRng::new(spec.seed);
        for _ in 0..20 {
            let provider = world.access.providers()[0].clone();
            let m = measure_direct(
                &world,
                &provider,
                &url,
                Some(360_000),
                &DetectConfig::default(),
                &mut rng,
            );
            if m.status == MeasuredStatus::Blocked {
                for s in m.stages {
                    if !mechanisms.contains(&s) {
                        mechanisms.push(s);
                    }
                }
            }
        }
        // Probe the HTTPS side too (Table 1 distinguishes HTTP-only
        // from HTTP+HTTPS blocking).
        let https_url = Url::parse(&url_s.replace("http://", "https://")).expect("static");
        for _ in 0..10 {
            let provider = world.access.providers()[0].clone();
            let m = measure_direct(
                &world,
                &provider,
                &https_url,
                Some(360_000),
                &DetectConfig::default(),
                &mut rng,
            );
            if m.status == MeasuredStatus::Blocked {
                for s in m.stages {
                    if s.stage() == Stage::Tls && !mechanisms.contains(&s) {
                        mechanisms.push(s);
                    }
                }
            }
        }
        mechanisms.sort();
        Cell {
            isp: isp.to_string(),
            target: target.to_string(),
            mechanisms,
        }
    });
    Table1 { cells }
}

impl Table1 {
    /// A cell by (ISP, target prefix).
    pub fn cell(&self, isp: &str, target_prefix: &str) -> &Cell {
        self.cells
            .iter()
            .find(|c| c.isp == isp && c.target.starts_with(target_prefix))
            .expect("cell exists")
    }
}

impl Outcome for Table1 {
    /// Text rendering in the paper's layout.
    fn render(&self) -> String {
        let mut out =
            String::from("Table 1: measured filtering mechanisms (client-side recovery)\n");
        for c in &self.cells {
            let mechs: Vec<String> = c.mechanisms.iter().map(|m| m.to_string()).collect();
            out.push_str(&format!(
                "  {:<6} | {:<36} | {}\n",
                c.isp,
                c.target,
                if mechs.is_empty() {
                    "no blocking observed".to_string()
                } else {
                    mechs.join(" + ")
                }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_the_paper_matrix() {
        let t = run(1, 1);
        // ISP-A, YouTube: HTTP blocking -> block page, no DNS/TLS stages.
        let c = t.cell("ISP-A", "YouTube");
        assert!(c.mechanisms.contains(&BlockingType::HttpBlockPageRedirect));
        assert!(c.mechanisms.iter().all(|m| m.stage() == Stage::Http));
        // ISP-B, YouTube: multi-stage — DNS hijack + HTTP drop + SNI drop.
        let c = t.cell("ISP-B", "YouTube");
        assert!(
            c.mechanisms.contains(&BlockingType::DnsHijack),
            "{:?}",
            c.mechanisms
        );
        assert!(
            c.mechanisms.contains(&BlockingType::HttpDrop),
            "{:?}",
            c.mechanisms
        );
        assert!(
            c.mechanisms.contains(&BlockingType::SniDrop),
            "{:?}",
            c.mechanisms
        );
        // ISP-A rest: block page via redirect; ISP-B rest: inline page.
        let c = t.cell("ISP-A", "Rest");
        assert_eq!(c.mechanisms, vec![BlockingType::HttpBlockPageRedirect]);
        let c = t.cell("ISP-B", "Rest");
        assert!(
            c.mechanisms.contains(&BlockingType::HttpBlockPageInline),
            "{:?}",
            c.mechanisms
        );
        assert!(!c.mechanisms.iter().any(|m| m.stage() == Stage::Dns));
    }

    #[test]
    fn render_mentions_both_isps() {
        let t = run(2, 1);
        let s = t.render();
        assert!(s.contains("ISP-A") && s.contains("ISP-B"));
    }
}
