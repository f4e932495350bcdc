//! A simulated Lantern client.
//!
//! Lantern (§2.2) routes through a network of HTTPS proxies discovered via
//! *trust relationships* rather than performance: you relay through people
//! (and infrastructure) you — or your friends — trust. The paper's Fig. 1c
//! observation is that this costs real latency: trust-constrained relays
//! are often geographically poor choices, giving ~1.5× longer PLTs than a
//! direct-style fix. Unlike Tor it uses a single relay hop and provides no
//! anonymity, so it sits between local fixes and Tor in the PLT ordering
//! (Fig. 7).

use crate::fetch::{relay_fetch, FetchReport};
use crate::transports::{FetchCtx, Transport, TransportKind};
use crate::world::World;
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::SimDuration;
use csaw_simnet::topology::{Region, Site};
use csaw_webproto::url::Url;

/// A proxy reachable through the trust graph.
#[derive(Debug, Clone, PartialEq)]
pub struct LanternProxy {
    /// Who runs it, for reporting.
    pub label: String,
    /// Where it runs.
    pub site: Site,
    /// Hops through the trust graph to reach this proxy (1 = a direct
    /// friend). Selection prefers closer trust, not closer geography.
    pub trust_distance: u32,
    /// Fraction of time the proxy is actually up (volunteers churn).
    pub availability: f64,
}

/// The default trust neighbourhood: the nearest *trusted* proxies are far
/// away (diaspora friends in the US and Canada), while geographically
/// better proxies sit deeper in the trust graph — the structural reason
/// Lantern's paths are long.
pub fn default_trust_network() -> Vec<LanternProxy> {
    vec![
        LanternProxy {
            label: "friend-us-west".into(),
            site: Site::in_region(Region::UsWest),
            trust_distance: 1,
            availability: 0.95,
        },
        LanternProxy {
            label: "friend-canada".into(),
            site: Site::in_region(Region::Canada),
            trust_distance: 1,
            availability: 0.9,
        },
        LanternProxy {
            label: "fof-us-east".into(),
            site: Site::in_region(Region::UsEast),
            trust_distance: 2,
            availability: 0.9,
        },
        LanternProxy {
            label: "fof-germany".into(),
            site: Site::in_region(Region::Germany),
            trust_distance: 2,
            availability: 0.85,
        },
        LanternProxy {
            label: "distant-netherlands".into(),
            site: Site::in_region(Region::Netherlands),
            trust_distance: 3,
            availability: 0.8,
        },
    ]
}

/// A simulated Lantern client.
#[derive(Debug, Clone)]
pub struct LanternClient {
    proxies: Vec<LanternProxy>,
    /// HTTPS-proxy handshake overhead per fetch.
    pub per_fetch_overhead: SimDuration,
    /// Label of the last proxy used (telemetry).
    pub last_proxy: Option<String>,
}

impl LanternClient {
    /// A client over the default trust network.
    pub fn new() -> LanternClient {
        LanternClient::with_proxies(default_trust_network())
    }

    /// A client over a custom trust network.
    pub fn with_proxies(proxies: Vec<LanternProxy>) -> LanternClient {
        assert!(!proxies.is_empty(), "lantern needs at least one proxy");
        LanternClient {
            proxies,
            per_fetch_overhead: SimDuration::from_millis(60),
            last_proxy: None,
        }
    }

    /// The trust network.
    pub fn proxies(&self) -> &[LanternProxy] {
        &self.proxies
    }

    /// Select a proxy: lowest trust distance first (that's Lantern's
    /// discovery order), skipping proxies that are down right now;
    /// ties broken deterministically by label. `None` when every proxy
    /// is down this round.
    pub fn select_proxy(&mut self, rng: &mut DetRng) -> Option<&LanternProxy> {
        let mut candidates: Vec<&LanternProxy> = self.proxies.iter().collect();
        candidates.sort_by(|a, b| {
            a.trust_distance
                .cmp(&b.trust_distance)
                .then_with(|| a.label.cmp(&b.label))
        });
        let chosen = candidates
            .into_iter()
            .find(|p| rng.chance(p.availability))?;
        self.last_proxy = Some(chosen.label.clone());
        Some(chosen)
    }
}

impl Default for LanternClient {
    fn default() -> Self {
        LanternClient::new()
    }
}

impl Transport for LanternClient {
    fn name(&self) -> &str {
        "lantern"
    }
    fn kind(&self) -> TransportKind {
        TransportKind::Relay
    }
    fn anonymous(&self) -> bool {
        false // the paper is explicit: Lantern trades anonymity for speed
    }
    fn fetch(&mut self, world: &World, ctx: &FetchCtx, url: &Url, rng: &mut DetRng) -> FetchReport {
        let overhead = self.per_fetch_overhead;
        let Some(site) = self.select_proxy(rng).map(|p| p.site) else {
            return FetchReport::failed(
                crate::outcome::FailureKind::TransportUnavailable,
                SimDuration::ZERO,
            );
        };
        let mut report = relay_fetch(world, &ctx.provider, &[site], url, overhead, rng);
        report.elapsed += overhead;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transports::{Direct, FetchCtx};
    use crate::world::{SiteSpec, World};
    use csaw_simnet::time::SimTime;
    use csaw_simnet::topology::{AccessNetwork, Asn, Provider};

    fn setup() -> (World, FetchCtx) {
        let provider = Provider::new(Asn(1), "isp");
        let access = AccessNetwork::single(provider.clone());
        let w = World::builder(access)
            .site(
                SiteSpec::new("porn-site.example", Site::in_region(Region::Netherlands))
                    .serves_by_ip(true)
                    .default_page(50_000, 4),
            )
            .build();
        (
            w,
            FetchCtx {
                now: SimTime::ZERO,
                provider,
            },
        )
    }

    #[test]
    fn selection_prefers_trusted_over_near() {
        let mut l = LanternClient::new();
        let mut rng = DetRng::new(1);
        let mut first_choice_counts = std::collections::HashMap::new();
        for _ in 0..200 {
            let p = l.select_proxy(&mut rng).unwrap().label.clone();
            *first_choice_counts.entry(p).or_insert(0usize) += 1;
        }
        // friend-canada sorts before friend-us-west at distance 1; with
        // 90% availability it should win most rounds even though the
        // Netherlands proxy is geographically closest to the vantage.
        let canada = first_choice_counts
            .get("friend-canada")
            .copied()
            .unwrap_or(0);
        let nl = first_choice_counts
            .get("distant-netherlands")
            .copied()
            .unwrap_or(0);
        assert!(canada > 150, "canada {canada}");
        assert!(nl < 10, "nl {nl}");
    }

    #[test]
    fn lantern_slower_than_direct_faster_than_it_would_be_via_many_hops() {
        let (w, ctx) = setup();
        let mut rng = DetRng::new(2);
        let url = Url::parse("http://porn-site.example/").unwrap();
        let d = Direct.fetch(&w, &ctx, &url, &mut rng);
        let mut l = LanternClient::new();
        let r = l.fetch(&w, &ctx, &url, &mut rng);
        assert!(r.outcome.is_genuine_page());
        // The Fig. 1c shape: ~1.5x or worse vs the direct-style fetch.
        assert!(
            r.elapsed.as_micros() as f64 >= d.elapsed.as_micros() as f64 * 1.3,
            "lantern {} vs direct {}",
            r.elapsed,
            d.elapsed
        );
        assert!(l.last_proxy.is_some());
    }

    #[test]
    fn all_proxies_down_is_unavailable() {
        let proxies = vec![LanternProxy {
            label: "dead".into(),
            site: Site::in_region(Region::UsWest),
            trust_distance: 1,
            availability: 0.0,
        }];
        let mut l = LanternClient::with_proxies(proxies);
        let (w, ctx) = setup();
        let mut rng = DetRng::new(3);
        let url = Url::parse("http://porn-site.example/").unwrap();
        let r = l.fetch(&w, &ctx, &url, &mut rng);
        assert_eq!(
            r.outcome.failure(),
            Some(crate::outcome::FailureKind::TransportUnavailable)
        );
    }

    #[test]
    fn a_down_round_is_unavailable_after_a_successful_one() {
        let proxies = vec![LanternProxy {
            label: "flaky".into(),
            site: Site::in_region(Region::UsWest),
            trust_distance: 1,
            availability: 0.5,
        }];
        let mut l = LanternClient::with_proxies(proxies);
        let mut rng = DetRng::new(3);
        let up = (0..100)
            .filter(|_| l.select_proxy(&mut rng).is_some())
            .count();
        // A proxy that is up half the time serves about half the rounds;
        // an earlier success must not stand in for a round it is down.
        assert!((30..=70).contains(&up), "up {up} of 100");
        assert!(l.last_proxy.is_some());
    }

    #[test]
    fn not_anonymous() {
        assert!(!LanternClient::new().anonymous());
    }
}
