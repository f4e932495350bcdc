//! Figure 7: C-Saw vs Lantern vs Tor (§7.3).
//!
//! - **(a)** a DNS-blocked page: C-Saw detects the mechanism and applies
//!   the public-DNS local fix; Lantern and Tor pay relay costs on every
//!   fetch;
//! - **(b)** an unblocked page: C-Saw simply goes direct;
//! - **(c)** multi-stage (IP + DNS) blocking, where no local fix works:
//!   "C-Saw (w/ Lantern)" vs "C-Saw (w/ Tor)" isolates the relay choice —
//!   Lantern's single hop beats Tor's three.

use crate::runner::{self, TrialSpec};
use crate::stats::{Cdf, Panel};
use crate::worlds::{single_isp_world, YOUTUBE};
use csaw::client::CsawClient;
use csaw::config::CsawConfig;
use csaw_censor::blocking::{DnsTamper, HttpAction, IpAction, TlsAction};
use csaw_circumvent::lantern::LanternClient;
use csaw_circumvent::tor::TorClient;
use csaw_circumvent::transports::{FetchCtx, Transport};
use csaw_circumvent::world::World;
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use csaw_webproto::url::Url;

/// Accesses per series.
pub const RUNS: usize = 200;

/// PLTs for a raw transport (Lantern/Tor baselines).
fn transport_plts(
    world: &World,
    transport: &mut dyn Transport,
    url: &Url,
    rng: &mut DetRng,
) -> Vec<SimDuration> {
    let provider = world.access.providers()[0].clone();
    let mut out = Vec::new();
    for i in 0..RUNS {
        let ctx = FetchCtx {
            now: SimTime::from_secs(i as u64 * 20),
            provider: provider.clone(),
        };
        let r = transport.fetch(world, &ctx, url, rng);
        if let Some(plt) = r.genuine_plt() {
            out.push(plt);
        }
    }
    out
}

/// PLTs through a full C-Saw client (its first access measures; steady
/// state uses whatever strategy it learned).
fn csaw_plts(world: &World, client: &mut CsawClient, url: &Url) -> Vec<SimDuration> {
    let mut out = Vec::new();
    for i in 0..RUNS {
        let now = SimTime::from_secs(i as u64 * 20);
        let r = client.request(world, url, now);
        if let Some(plt) = r.plt {
            out.push(plt);
        }
    }
    out
}

/// A Fig. 7a/7b comparison panel: one runner trial per tool series
/// (C-Saw, Lantern, Tor) on a stream forked from `(name, seed, ordinal)`,
/// each fetching YouTube in its own `world()`.
fn comparison_panel(name: &str, title: &str, seed: u64, world: impl Fn() -> World) -> Panel {
    let labels = ["C-Saw", "Lantern", "Tor"];
    let specs: Vec<TrialSpec> = (0..labels.len() as u64)
        .map(|i| TrialSpec::forked(name, seed, i))
        .collect();
    let series = runner::map(&specs, |i, spec| {
        let world = world();
        let url = Url::parse(&format!("http://{YOUTUBE}/")).expect("static URL");
        let plts = match i {
            0 => {
                let mut client = CsawClient::new(CsawConfig::default(), None, spec.seed);
                csaw_plts(&world, &mut client, &url)
            }
            1 => {
                let mut rng = DetRng::new(spec.seed);
                transport_plts(&world, &mut LanternClient::new(), &url, &mut rng)
            }
            _ => {
                let mut rng = DetRng::new(spec.seed);
                transport_plts(&world, &mut TorClient::new(), &url, &mut rng)
            }
        };
        Cdf::of(labels[i], &plts)
    });
    Panel {
        title: title.into(),
        series,
    }
}

/// Fig. 7a: DNS-blocked page.
pub fn run_7a(seed: u64) -> Panel {
    let title = "Figure 7a: blocked page (DNS blocking)";
    comparison_panel("fig7a", title, seed, || {
        let policy = csaw_censor::single_mechanism(
            "F7A",
            YOUTUBE,
            DnsTamper::Nxdomain,
            IpAction::None,
            HttpAction::None,
            TlsAction::None,
        );
        single_isp_world(Asn(5500), "F7A-ISP", policy)
    })
}

/// Fig. 7b: unblocked page.
pub fn run_7b(seed: u64) -> Panel {
    let title = "Figure 7b: unblocked page";
    comparison_panel("fig7b", title, seed, crate::worlds::clean_world)
}

/// Fig. 7c: multi-stage blocking; C-Saw's relay restricted to Lantern vs
/// to Tor — one runner trial per relay restriction, with the historical
/// `seed ^ 1` / `seed ^ 2` client seeds.
pub fn run_7c(seed: u64) -> Panel {
    let labels = ["C-Saw (w/ Lantern)", "C-Saw (w/ Tor)"];
    let specs = [TrialSpec::salted(seed ^ 1), TrialSpec::salted(seed ^ 2)];
    let series = runner::map(&specs, |i, spec| {
        let policy = csaw_censor::single_mechanism(
            "F7C",
            YOUTUBE,
            DnsTamper::HijackTo("10.66.66.66".parse().expect("static")),
            IpAction::Drop,
            HttpAction::None,
            TlsAction::None,
        );
        let world = single_isp_world(Asn(5600), "F7C-ISP", policy);
        let url = Url::parse(&format!("http://{YOUTUBE}/")).expect("static URL");
        let relay: Box<dyn Transport + Send> = if i == 0 {
            Box::new(LanternClient::new())
        } else {
            Box::new(TorClient::new())
        };
        let mut client =
            CsawClient::new(CsawConfig::default(), None, spec.seed).with_transports(vec![
                Box::new(csaw_circumvent::transports::PublicDns),
                Box::new(csaw_circumvent::transports::HttpsUpgrade { public_dns: true }),
                relay,
            ]);
        Cdf::of(labels[i], &csaw_plts(&world, &mut client, &url))
    });
    Panel {
        title: "Figure 7c: multi-stage blocking (IP + DNS), relay choice".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7a_csaw_beats_lantern_beats_tor() {
        let p = run_7a(71);
        let csaw = p.series("C-Saw").median();
        let lantern = p.series("Lantern").median();
        let tor = p.series("Tor").median();
        assert!(csaw < lantern, "csaw {csaw:.2} vs lantern {lantern:.2}");
        assert!(lantern < tor, "lantern {lantern:.2} vs tor {tor:.2}");
        // Headline: C-Saw improves average PLT by up to 48% over Lantern
        // and 63% over Tor — check we're in that ballpark or better.
        let vs_lantern = crate::stats::reduction_pct(lantern, csaw);
        let vs_tor = crate::stats::reduction_pct(tor, csaw);
        assert!(vs_lantern >= 30.0, "vs lantern {vs_lantern:.1}%");
        assert!(vs_tor >= 40.0, "vs tor {vs_tor:.1}%");
    }

    #[test]
    fn fig7b_direct_wins_unblocked() {
        let p = run_7b(72);
        let csaw = p.series("C-Saw").median();
        let lantern = p.series("Lantern").median();
        let tor = p.series("Tor").median();
        assert!(csaw < lantern && csaw < tor);
    }

    #[test]
    fn fig7c_lantern_relay_beats_tor_relay() {
        let p = run_7c(73);
        let l = p.series("C-Saw (w/ Lantern)").median();
        let t = p.series("C-Saw (w/ Tor)").median();
        assert!(l < t, "lantern-relay {l:.2} vs tor-relay {t:.2}");
    }
}
