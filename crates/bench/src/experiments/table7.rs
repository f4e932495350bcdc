//! Table 7: the pilot deployment study (§7.4).
//!
//! 123 consenting users behind 16 ASes browse their natural mix of
//! clean and censored sites for three months; the global DB accumulates
//! crowdsourced measurements. Paper's aggregates:
//!
//! | metric | paper |
//! |---|---|
//! | users | 123 |
//! | unique blocked URLs accessed | 997 |
//! | unique blocked domains | 420 |
//! | unique ASes | 16 |
//! | distinct blocking types | 5 |
//! | URLs with DNS blocking | 376 |
//! | URLs with TCP connect timeout | 114 |
//! | URLs with block page | 475 |
//! | unique updates | 1787 |
//!
//! The universe is constructed to the paper's published totals (420
//! domains / 997 URLs / mechanism proportions); what the experiment
//! *validates* is that the full pipeline — browsing, detection,
//! aggregation, reporting, voting, per-AS downloads — recovers those
//! numbers at the server.

use crate::workload::{pilot_universe, Zipf};
use crate::worlds::pilot_asns;
use csaw::client::CsawClient;
use csaw::config::{CsawConfig, RedundancyMode};
use csaw::global::{DeploymentStats, ServerDb};
use csaw_censor::blocking::{DnsTamper, HttpAction, IpAction};
use csaw_censor::policy::{CensorPolicy, CensorRule, TargetMatcher};
use csaw_circumvent::world::{SiteSpec, World};
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::{AccessNetwork, Asn, Provider, Region, Site};

/// The experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct Table7 {
    /// Server-side aggregates after the study.
    pub stats: DeploymentStats,
}

/// Mechanism classes assigned across blocked domains, tuned to the
/// paper's URL-level proportions (376 DNS / 114 TCP / 475 block page of
/// 997, remainder HTTP-drop).
fn mechanism_for(domain_idx: usize, n_domains: usize) -> (DnsTamper, IpAction, HttpAction) {
    // Permute the index first: the URL universe gives low-index domains
    // more URLs (round-robin spill), and mechanism shares are specified
    // over *URLs*, so assignment must be independent of index order.
    let j = (domain_idx * 17 + 5) % n_domains;
    let u = (j as f64 + 0.5) / n_domains as f64;
    let domain_idx = j;
    if u < 0.377 {
        (DnsTamper::Nxdomain, IpAction::None, HttpAction::None)
    } else if u < 0.377 + 0.114 {
        (DnsTamper::None, IpAction::Drop, HttpAction::None)
    } else if u < 0.377 + 0.114 + 0.477 {
        if domain_idx.is_multiple_of(2) {
            (
                DnsTamper::None,
                IpAction::None,
                HttpAction::BlockPageRedirect,
            )
        } else {
            (DnsTamper::None, IpAction::None, HttpAction::BlockPageInline)
        }
    } else {
        (DnsTamper::None, IpAction::None, HttpAction::Drop)
    }
}

/// Build the pilot world: every blocked/clean domain as a site, one
/// censor policy shared by all 16 ASes (nation-wide blacklist, per-AS
/// enforcement), multihomed access across all ASes so each client's
/// flows stay within its own AS via single-provider sub-worlds.
pub fn pilot_world(asn: Asn, universe: &crate::workload::PilotUniverse) -> World {
    let provider = Provider::new(asn, format!("pilot-{asn}"));
    let mut builder = World::builder(AccessNetwork::single(provider));
    for d in &universe.blocked_domains {
        builder =
            builder.site(SiteSpec::new(d, Site::in_region(Region::UsEast)).default_page(90_000, 5));
    }
    for d in &universe.clean_domains {
        builder =
            builder.site(SiteSpec::new(d, Site::in_region(Region::UsEast)).default_page(70_000, 4));
    }
    let mut policy = CensorPolicy::new(format!("censor-{asn}"));
    for (i, d) in universe.blocked_domains.iter().enumerate() {
        let (dns, ip, http) = mechanism_for(i, universe.blocked_domains.len());
        policy = policy.with_rule(
            CensorRule::target(TargetMatcher::DomainSuffix(d.clone()))
                .dns(dns)
                .ip(ip)
                .http(http),
        );
    }
    builder.censor(asn, policy).build()
}

/// Run the pilot study. `users` defaults to the paper's 123; smaller
/// values are used by the quick integration tests.
pub fn run(seed: u64, users: usize) -> Table7 {
    let universe = pilot_universe(420, 997, 60);
    let asns = pilot_asns();
    let server = ServerDb::builder(seed)
        .registrar(csaw::global::RegistrarConfig {
            max_risk: 0.7,
            max_per_window: usize::MAX,
            window: SimDuration::from_secs(60),
        })
        .build()
        .expect("default store config is valid");
    // One world per AS (clients in the same AS share it).
    let worlds: Vec<World> = asns.iter().map(|a| pilot_world(*a, &universe)).collect();
    let zipf_blocked = Zipf::new(universe.blocked_urls.len(), 0.9);
    let zipf_clean = Zipf::new(universe.clean_urls.len(), 0.9);

    // Fast client config: serial redundancy keeps the hot loop cheap and
    // the measurement outcomes identical.
    let cfg = CsawConfig {
        redundancy: RedundancyMode::Serial,
        revalidate_p: 0.05,
        ..CsawConfig::default()
    };

    let per_client = universe.blocked_urls.len().div_ceil(users);
    let mut rng = DetRng::new(seed ^ 0x717);
    for u in 0..users {
        let asn = asns[u % asns.len()];
        let world = &worlds[u % asns.len()];
        let mut client = CsawClient::new(cfg, None, seed ^ (u as u64) << 4);
        client
            .register(&server, asn, SimTime::from_secs(u as u64), 0.1)
            .expect("registration passes the gate");
        let mut now = SimTime::from_secs(1_000 + u as u64 * 10);
        // Deterministic slice: guarantees full coverage of the 997 URLs
        // across the population (the paper's users *did* visit them).
        let lo = u * per_client;
        let hi = ((u + 1) * per_client).min(universe.blocked_urls.len());
        for idx in lo..hi {
            now += SimDuration::from_secs(40);
            client.request(world, &universe.blocked_urls[idx], now);
        }
        // Plus natural Zipf browsing over the whole mix.
        for _ in 0..20 {
            now += SimDuration::from_secs(30);
            let url = if rng.chance(0.4) {
                &universe.blocked_urls[zipf_blocked.sample(&mut rng)]
            } else {
                &universe.clean_urls[zipf_clean.sample(&mut rng)]
            };
            client.request(world, url, now);
        }
        client.post_reports(&server, now);
    }
    Table7 {
        stats: server.stats(),
    }
}

impl Table7 {
    /// Text rendering in the paper's layout.
    pub fn render(&self) -> String {
        let s = &self.stats;
        let rows = [
            ("No. of users", s.clients.to_string(), "123"),
            (
                "No. of unique blocked URLs accessed",
                s.unique_blocked_urls.to_string(),
                "997",
            ),
            (
                "No. of unique blocked domains accessed",
                s.unique_blocked_domains.to_string(),
                "420",
            ),
            ("No. of unique ASes", s.unique_ases.to_string(), "16"),
            (
                "Distinct types of blocking observed",
                s.distinct_blocking_types.to_string(),
                "5",
            ),
            (
                "No. of URLs experiencing DNS blocking",
                s.urls_dns_blocked.to_string(),
                "376",
            ),
            (
                "No. of URLs experiencing TCP connection timeout",
                s.urls_tcp_timeout.to_string(),
                "114",
            ),
            (
                "No. of URLs for which a block page was returned",
                s.urls_block_page.to_string(),
                "475",
            ),
            (
                "No. of unique updates",
                s.unique_updates.to_string(),
                "1787",
            ),
        ];
        let mut out = String::from("Table 7: deployment study (measured vs paper)\n");
        for (label, got, paper) in rows {
            out.push_str(&format!("  {label:<50}{got:>8}  (paper: {paper})\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down pilot (24 users) exercising the full pipeline; the
    /// 123-user run happens in `exp table7` / integration tests.
    #[test]
    fn mini_pilot_recovers_structure() {
        let t = run(77, 24);
        let s = &t.stats;
        assert_eq!(s.clients, 24);
        assert_eq!(s.unique_ases, 16);
        assert_eq!(s.distinct_blocking_types, 5, "paper reports exactly 5");
        // Full URL coverage via the deterministic slices.
        assert!(
            s.unique_blocked_urls >= 950,
            "unique blocked URLs {}",
            s.unique_blocked_urls
        );
        assert!(
            s.unique_blocked_domains >= 400,
            "domains {}",
            s.unique_blocked_domains
        );
        // Mechanism proportions in the paper's ballpark.
        let total = s.unique_blocked_urls as f64;
        let dns = s.urls_dns_blocked as f64 / total;
        let tcp = s.urls_tcp_timeout as f64 / total;
        let bp = s.urls_block_page as f64 / total;
        assert!((0.30..=0.45).contains(&dns), "dns {dns:.2}");
        assert!((0.06..=0.18).contains(&tcp), "tcp {tcp:.2}");
        assert!((0.40..=0.55).contains(&bp), "bp {bp:.2}");
        assert!(s.unique_updates >= 997);
    }

    #[test]
    fn mechanism_assignment_proportions() {
        let n = 420;
        let mut dns = 0;
        let mut tcp = 0;
        let mut bp = 0;
        for i in 0..n {
            let (d, ip, http) = mechanism_for(i, n);
            if d.is_active() {
                dns += 1;
            } else if ip.is_active() {
                tcp += 1;
            } else if http.serves_block_page() {
                bp += 1;
            }
        }
        assert!((dns as f64 / n as f64 - 0.377).abs() < 0.02);
        assert!((tcp as f64 / n as f64 - 0.114).abs() < 0.02);
        assert!((bp as f64 / n as f64 - 0.477).abs() < 0.02);
    }
}
