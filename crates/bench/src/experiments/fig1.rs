//! Figure 1: the case-study comparisons motivating data-driven
//! circumvention (§2.3). Three panels, 200 back-to-back runs each:
//!
//! - **(a)** HTTPS/Domain-Fronting vs ten static proxies, YouTube
//!   homepage (~360 KB) on ISP-B;
//! - **(b)** direct HTTPS vs Tor (grouped by exit-relay location),
//!   YouTube homepage on ISP-A;
//! - **(c)** Lantern vs "IP as hostname" for a keyword-filtered porn page
//!   (~50 KB) — Lantern ≈1.5× slower.

use crate::runner::{self, TrialSpec};
use crate::stats::{Cdf, Panel};
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

fn ctx(world: &World) -> FetchCtx {
    FetchCtx {
        now: SimTime::ZERO,
        provider: world.access.providers()[0].clone(),
    }
}

/// One tool's series: [`RUNS`] back-to-back fetches of `url` through
/// `transport`, as the single-CDF list a panel trial returns.
fn series(
    label: &str,
    transport: &mut dyn Transport,
    world: &World,
    url: &Url,
    rng: &mut DetRng,
) -> Vec<Cdf> {
    let c = ctx(world);
    let plts: Vec<SimDuration> = (0..RUNS)
        .filter_map(|_| transport.fetch(world, &c, url, rng).genuine_plt())
        .collect();
    vec![Cdf::of(label, &plts)]
}

/// One case-study panel's series: one runner trial per tool/proxy
/// (`tools` of them), on streams forked from `(name, seed, ordinal)`.
/// Each trial builds its own `world`, and `run_series(world, url,
/// ordinal, rng)` returns a *list* of CDFs because the Tor series of
/// panel (b) splits by exit region only after its runs complete.
fn panel_series(
    name: &str,
    seed: u64,
    tools: u64,
    world: impl Fn() -> World,
    url: String,
    run_series: impl Fn(&World, &Url, usize, &mut DetRng) -> Vec<Cdf>,
) -> Vec<Cdf> {
    let specs: Vec<TrialSpec> = (0..tools)
        .map(|i| TrialSpec::forked(name, seed, i))
        .collect();
    let url = Url::parse(&url).expect("static URL");
    let series = runner::map(&specs, |i, spec| {
        run_series(&world(), &url, i, &mut DetRng::new(spec.seed))
    });
    series.into_iter().flatten().collect()
}

/// Figure 1a: HTTPS/DF vs static proxies on ISP-B.
pub fn run_1a(seed: u64) -> Panel {
    let proxies = static_proxies();
    let series = panel_series(
        "fig1a",
        seed,
        1 + proxies.len() as u64,
        || single_isp_world(csaw_censor::ISP_B_ASN, "ISP-B", csaw_censor::isp_b()),
        format!("https://{YOUTUBE}/"),
        |world, url, i, rng| match i {
            0 => series("HTTPS/DF", &mut DomainFronting::via(FRONT), world, url, rng),
            i => {
                let mut proxy = proxies[i - 1].clone();
                series(&proxy.label.clone(), &mut proxy, world, url, rng)
            }
        },
    );
    Panel {
        title: "Figure 1a: HTTPS/DF vs static proxies (YouTube ~360KB, ISP-B)".into(),
        series,
    }
}

/// Figure 1b: direct HTTPS vs Tor, grouped by exit region.
pub fn run_1b(seed: u64) -> Panel {
    let series = panel_series(
        "fig1b",
        seed,
        2,
        || single_isp_world(csaw_censor::ISP_A_ASN, "ISP-A", csaw_censor::isp_a()),
        format!("http://{YOUTUBE}/"),
        |world, url, i, rng| {
            if i == 0 {
                return series("HTTPS", &mut HttpsUpgrade::default(), world, url, rng);
            }
            // Tor, isolating runs per unique circuit's exit location.
            let mut tor = TorClient::new();
            let mut by_exit: HashMap<Region, Vec<SimDuration>> = HashMap::new();
            let c0 = ctx(world);
            for i in 0..RUNS {
                let c = FetchCtx {
                    now: SimTime::from_secs((i as u64) * 35),
                    provider: c0.provider.clone(),
                };
                let r = tor.fetch(world, &c, url, rng);
                let exit = tor.exit_region().expect("circuit open after fetch");
                if let Some(plt) = r.genuine_plt() {
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
        },
    );
    Panel {
        title: "Figure 1b: HTTPS vs Tor by exit location (YouTube, ISP-A)".into(),
        series,
    }
}

/// Figure 1c: Lantern vs "IP as hostname" on a keyword filter.
pub fn run_1c(seed: u64) -> Panel {
    let series = panel_series(
        "fig1c",
        seed,
        2,
        || single_isp_world(Asn(6500), "ISP-KW", csaw_censor::keyword_filter(&["adult"])),
        format!("http://{PORN_PAGE}/"),
        |world, url, i, rng| match i {
            0 => series(
                "IP as hostname",
                &mut IpAsHostname::default(),
                world,
                url,
                rng,
            ),
            _ => series("Lantern", &mut LanternClient::new(), world, url, rng),
        },
    );
    Panel {
        title: "Figure 1c: Lantern vs IP-as-hostname (porn page ~50KB, keyword filter)".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Outcome;

    #[test]
    fn fig1a_df_beats_every_proxy_median() {
        let p = run_1a(1);
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
        let p = run_1b(2);
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
        let p = run_1c(3);
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
        let p = run_1c(4);
        let s = p.render();
        assert!(s.contains("Lantern") && s.contains("IP as hostname"));
    }
}
