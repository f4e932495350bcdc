//! Figure 1: the case-study comparisons motivating data-driven
//! circumvention (§2.3). Three panels, 200 back-to-back runs each:
//!
//! - **(a)** HTTPS/Domain-Fronting vs ten static proxies, YouTube
//!   homepage (~360 KB) on ISP-B;
//! - **(b)** direct HTTPS vs Tor (grouped by exit-relay location),
//!   YouTube homepage on ISP-A;
//! - **(c)** Lantern vs "IP as hostname" for a keyword-filtered porn page
//!   (~50 KB) — Lantern ≈1.5× slower.

use crate::runner::{self, Experiment, TrialSpec};
use crate::stats::Cdf;
use crate::worlds::{single_isp_world, static_proxies, FRONT, PORN_PAGE, YOUTUBE};
use csaw_circumvent::lantern::LanternClient;
use csaw_circumvent::tor::TorClient;
use csaw_circumvent::transports::{
    DomainFronting, FetchCtx, HttpsUpgrade, IpAsHostname, Transport,
};
use csaw_circumvent::world::World;
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::{Asn, Region};
use csaw_webproto::url::Url;
use std::collections::HashMap;

/// Number of back-to-back runs per series (the paper uses 200).
pub const RUNS: usize = 200;

/// One panel's series set.
#[derive(Debug, Clone, PartialEq)]
pub struct Panel {
    /// Panel label.
    pub title: String,
    /// PLT CDFs per series.
    pub series: Vec<Cdf>,
}

impl Panel {
    /// A series by label.
    pub fn series(&self, label: &str) -> &Cdf {
        self.series
            .iter()
            .find(|c| c.label == label)
            .unwrap_or_else(|| panic!("series {label} missing"))
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        format!("{}\n{}", self.title, Cdf::render_table(&self.series))
    }
}

fn ctx(world: &World) -> FetchCtx {
    FetchCtx {
        now: SimTime::ZERO,
        provider: world.access.providers()[0].clone(),
    }
}

fn sample_plts(
    world: &World,
    transport: &mut dyn Transport,
    url: &Url,
    runs: usize,
    rng: &mut DetRng,
    advance_clock: bool,
) -> Vec<SimDuration> {
    let mut out = Vec::with_capacity(runs);
    let mut c = ctx(world);
    for i in 0..runs {
        if advance_clock {
            // Back-to-back runs over ~2 hours: Tor rotates circuits.
            c.now = SimTime::from_secs((i as u64) * 35);
        }
        let r = transport.fetch(world, &c, url, rng);
        if let Some(plt) = r.fetch().genuine_plt() {
            out.push(plt);
        }
    }
    out
}

/// The three case-study panels, each decomposed into one trial per
/// tool/proxy series with runner-forked RNG streams. A trial returns a
/// *list* of CDFs because the Tor series of panel (b) splits by exit
/// region only after its runs complete.
enum PanelExp {
    /// (a): HTTPS/DF vs static proxies on ISP-B.
    A,
    /// (b): direct HTTPS vs Tor by exit region on ISP-A.
    B,
    /// (c): Lantern vs "IP as hostname" on a keyword filter.
    C,
}

impl PanelExp {
    fn name(&self) -> &'static str {
        match self {
            PanelExp::A => "fig1a",
            PanelExp::B => "fig1b",
            PanelExp::C => "fig1c",
        }
    }

    fn series_labels(&self) -> Vec<String> {
        match self {
            PanelExp::A => {
                let mut labels = vec!["HTTPS/DF".to_string()];
                labels.extend(static_proxies().into_iter().map(|p| p.label));
                labels
            }
            PanelExp::B => vec!["HTTPS".to_string(), "Tor".to_string()],
            PanelExp::C => vec!["IP as hostname".to_string(), "Lantern".to_string()],
        }
    }
}

/// One Fig. 1 panel as a runner experiment: `which` picks the panel,
/// and each series runs as its own trial.
pub struct Fig1Exp {
    which: PanelExp,
    seed: u64,
}

impl Fig1Exp {
    fn world(&self) -> World {
        match self.which {
            PanelExp::A => single_isp_world(csaw_censor::ISP_B_ASN, "ISP-B", csaw_censor::isp_b()),
            PanelExp::B => single_isp_world(csaw_censor::ISP_A_ASN, "ISP-A", csaw_censor::isp_a()),
            PanelExp::C => {
                single_isp_world(Asn(6500), "ISP-KW", csaw_censor::keyword_filter(&["adult"]))
            }
        }
    }

    fn url(&self) -> Url {
        let raw = match self.which {
            PanelExp::A => format!("https://{YOUTUBE}/"),
            PanelExp::B => format!("http://{YOUTUBE}/"),
            PanelExp::C => format!("http://{PORN_PAGE}/"),
        };
        Url::parse(&raw).expect("static URL")
    }
}

impl Experiment for Fig1Exp {
    type Trial = Vec<Cdf>;
    type Output = Panel;

    fn name(&self) -> &'static str {
        self.which.name()
    }

    fn trials(&self) -> Vec<TrialSpec> {
        self.which
            .series_labels()
            .into_iter()
            .enumerate()
            .map(|(i, label)| TrialSpec::forked(self.name(), self.seed, i as u64, label))
            .collect()
    }

    fn run_trial(&self, spec: &TrialSpec) -> Vec<Cdf> {
        let world = self.world();
        let url = self.url();
        let mut rng = DetRng::new(spec.seed);
        match (&self.which, spec.ordinal) {
            (PanelExp::A, 0) => {
                let mut df = DomainFronting::via(FRONT);
                vec![Cdf::of(
                    "HTTPS/DF",
                    &sample_plts(&world, &mut df, &url, RUNS, &mut rng, false),
                )]
            }
            (PanelExp::A, i) => {
                let mut proxy = static_proxies()
                    .into_iter()
                    .nth(i as usize - 1)
                    .expect("proxy index in range");
                let label = proxy.label.clone();
                vec![Cdf::of(
                    &label,
                    &sample_plts(&world, &mut proxy, &url, RUNS, &mut rng, false),
                )]
            }
            (PanelExp::B, 0) => {
                let mut https = HttpsUpgrade::default();
                vec![Cdf::of(
                    "HTTPS",
                    &sample_plts(&world, &mut https, &url, RUNS, &mut rng, false),
                )]
            }
            (PanelExp::B, _) => {
                // Tor, isolating runs per unique circuit's exit location.
                let mut tor = TorClient::new();
                let mut by_exit: HashMap<Region, Vec<SimDuration>> = HashMap::new();
                let c0 = ctx(&world);
                for i in 0..RUNS {
                    let c = FetchCtx {
                        now: SimTime::from_secs((i as u64) * 35),
                        provider: c0.provider.clone(),
                    };
                    let r = tor.fetch(&world, &c, &url, &mut rng);
                    let exit = tor.exit_region().expect("circuit open after fetch");
                    if let Some(plt) = r.fetch().genuine_plt() {
                        by_exit.entry(exit).or_default().push(plt);
                    }
                }
                let mut exits: Vec<(Region, Vec<SimDuration>)> = by_exit.into_iter().collect();
                exits.sort_by_key(|(r, _)| format!("{r:?}"));
                exits
                    .into_iter()
                    .filter(|(_, plts)| plts.len() >= 5)
                    .map(|(region, plts)| Cdf::of(&format!("Tor exit {region:?}"), &plts))
                    .collect()
            }
            (PanelExp::C, 0) => {
                let mut iph = IpAsHostname::default();
                vec![Cdf::of(
                    "IP as hostname",
                    &sample_plts(&world, &mut iph, &url, RUNS, &mut rng, false),
                )]
            }
            (PanelExp::C, _) => {
                let mut lantern = LanternClient::new();
                vec![Cdf::of(
                    "Lantern",
                    &sample_plts(&world, &mut lantern, &url, RUNS, &mut rng, false),
                )]
            }
        }
    }

    fn reduce(&self, trials: Vec<Vec<Cdf>>) -> Panel {
        let title = match self.which {
            PanelExp::A => "Figure 1a: HTTPS/DF vs static proxies (YouTube ~360KB, ISP-B)",
            PanelExp::B => "Figure 1b: HTTPS vs Tor by exit location (YouTube, ISP-A)",
            PanelExp::C => "Figure 1c: Lantern vs IP-as-hostname (porn page ~50KB, keyword filter)",
        };
        Panel {
            title: title.into(),
            series: trials.into_iter().flatten().collect(),
        }
    }
}

/// Figure 1a: HTTPS/DF vs static proxies on ISP-B.
pub fn run_1a(seed: u64, jobs: usize) -> Panel {
    let which = PanelExp::A;
    runner::run(&Fig1Exp { which, seed }, jobs)
}

/// Figure 1b: direct HTTPS vs Tor, grouped by exit region.
pub fn run_1b(seed: u64, jobs: usize) -> Panel {
    let which = PanelExp::B;
    runner::run(&Fig1Exp { which, seed }, jobs)
}

/// Figure 1c: Lantern vs "IP as hostname" on a keyword filter.
pub fn run_1c(seed: u64, jobs: usize) -> Panel {
    let which = PanelExp::C;
    runner::run(&Fig1Exp { which, seed }, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1a_df_beats_every_proxy_median() {
        let p = run_1a(1, 1);
        let df = p.series("HTTPS/DF").median();
        for s in &p.series {
            if s.label == "HTTPS/DF" {
                continue;
            }
            assert!(
                df < s.median(),
                "DF median {df:.2}s not better than {} ({:.2}s)",
                s.label,
                s.median()
            );
        }
        // Flaky proxies show wide spread: p95 ≫ median for Germany-1.
        let g1 = p.series("Germany-1");
        assert!(
            g1.pct(95.0) > g1.median() * 1.6,
            "Germany-1 spread too tight"
        );
    }

    #[test]
    fn fig1b_https_beats_every_tor_exit() {
        let p = run_1b(2, 1);
        let https = p.series("HTTPS").median();
        let tor_series: Vec<&Cdf> = p
            .series
            .iter()
            .filter(|s| s.label.starts_with("Tor exit"))
            .collect();
        assert!(
            tor_series.len() >= 3,
            "want several exit groups, got {}",
            tor_series.len()
        );
        for s in tor_series {
            assert!(
                https < s.median() * 0.8,
                "HTTPS {https:.2}s vs {} {:.2}s",
                s.label,
                s.median()
            );
        }
    }

    #[test]
    fn fig1c_lantern_about_1_5x_slower() {
        let p = run_1c(3, 1);
        let iph = p.series("IP as hostname").median();
        let lantern = p.series("Lantern").median();
        let ratio = lantern / iph;
        assert!(
            (1.3..=3.5).contains(&ratio),
            "Lantern/IPH ratio {ratio:.2} (iph {iph:.2}s, lantern {lantern:.2}s)"
        );
    }

    #[test]
    fn panels_render() {
        let p = run_1c(4, 1);
        let s = p.render();
        assert!(s.contains("Lantern") && s.contains("IP as hostname"));
    }
}
