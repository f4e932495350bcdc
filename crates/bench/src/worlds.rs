//! Standard experiment worlds.
//!
//! Every experiment builds its topology from these helpers so the
//! geography (anchored on the paper's Table 2 latencies), the page sizes
//! (YouTube homepage ~360 KB, the Fig. 1c porn page ~50 KB, the Fig. 5
//! 95 KB / 316 KB pages) and the censor profiles stay consistent across
//! tables and figures.

use csaw_censor::blocking::Category;
use csaw_censor::policy::CensorPolicy;
use csaw_circumvent::transports::StaticProxy;
use csaw_circumvent::world::{SiteSpec, World};
use csaw_simnet::time::SimDuration;
use csaw_simnet::topology::{AccessNetwork, Asn, Provider, Region, Site};

/// The front domain available in all worlds that include a CDN.
pub const FRONT: &str = "cdn-front.example";

/// Hostname of the YouTube stand-in.
pub const YOUTUBE: &str = "www.youtube.com";

/// Hostname of the Fig. 1c porn-page stand-in (~50 KB).
pub const PORN_PAGE: &str = "adult-content.example";

/// Hostname of the small unblocked page (95 KB, Fig. 5b).
pub const SMALL_PAGE: &str = "small.example";

/// Hostname of the larger unblocked page (316 KB, Fig. 5c).
pub const LARGE_PAGE: &str = "large.example";

/// Base sites present in every standard world.
fn standard_sites(
    builder: csaw_circumvent::world::WorldBuilder,
) -> csaw_circumvent::world::WorldBuilder {
    builder
        .site(
            // Table 2: ping to YouTube from the vantage was 186 ms.
            SiteSpec::new(YOUTUBE, Site::at_vantage_rtt(Region::UsEast, 186))
                .category(Category::Video)
                .frontable(true)
                .serves_by_ip(true)
                .default_page(360_000, 20),
        )
        .site(SiteSpec::new(FRONT, Site::in_region(Region::Singapore)))
        .site(
            SiteSpec::new(PORN_PAGE, Site::in_region(Region::Netherlands))
                .category(Category::Porn)
                .serves_by_ip(true)
                .default_page(50_000, 4),
        )
        .site(
            SiteSpec::new(SMALL_PAGE, Site::in_region(Region::UsEast))
                .serves_by_ip(true)
                .default_page(95_000, 6),
        )
        .site(
            SiteSpec::new(LARGE_PAGE, Site::in_region(Region::UsEast))
                .serves_by_ip(true)
                .default_page(316_000, 14),
        )
        .site(
            SiteSpec::new("twitter.com", Site::in_region(Region::UsEast))
                .category(Category::Social)
                .frontable(true)
                .default_page(250_000, 16),
        )
        .site(
            SiteSpec::new("instagram.com", Site::in_region(Region::UsEast))
                .category(Category::Social)
                .frontable(true)
                .default_page(300_000, 18),
        )
}

/// A single-homed world behind one censoring ISP.
pub fn single_isp_world(asn: Asn, name: &str, policy: CensorPolicy) -> World {
    let provider = Provider::new(asn, name);
    let access = AccessNetwork::single(provider);
    standard_sites(World::builder(access))
        .censor(asn, policy)
        .build()
}

/// A world with no censorship (control condition).
pub fn clean_world() -> World {
    let provider = Provider::new(Asn(64500), "ISP-CLEAN");
    standard_sites(World::builder(AccessNetwork::single(provider))).build()
}

/// The paper's case-study vantage: a University multihomed over ISP-A and
/// ISP-B (§2.3), each with its Table 1 policy.
pub fn multihomed_university_world() -> World {
    let a = Provider::new(csaw_censor::ISP_A_ASN, "ISP-A");
    let b = Provider::new(csaw_censor::ISP_B_ASN, "ISP-B");
    let access = AccessNetwork::multihomed(vec![(a, 1.0), (b, 1.0)]);
    standard_sites(World::builder(access))
        .censor(csaw_censor::ISP_A_ASN, csaw_censor::isp_a())
        .censor(csaw_censor::ISP_B_ASN, csaw_censor::isp_b())
        .build()
}

/// The ten static proxies of Figure 1a / Table 2, with the paper's
/// measured RTTs. Germany-1, UK and Japan are flaky (wide PLT variance —
/// "either real-time on-path congestion or high load at the proxy").
pub fn static_proxies() -> Vec<StaticProxy> {
    let flaky = |p: StaticProxy| p.congested(0.35, SimDuration::from_secs(6));
    vec![
        flaky(StaticProxy::at(
            "UK",
            Site::at_vantage_rtt(Region::UnitedKingdom, 228),
        )),
        StaticProxy::at(
            "Netherlands",
            Site::at_vantage_rtt(Region::Netherlands, 172),
        ),
        flaky(StaticProxy::at(
            "Japan",
            Site::at_vantage_rtt(Region::Japan, 387),
        )),
        StaticProxy::at("US-1", Site::at_vantage_rtt(Region::UsCentral, 329)),
        StaticProxy::at("US-2", Site::at_vantage_rtt(Region::UsWest, 429)),
        StaticProxy::at("US-3", Site::at_vantage_rtt(Region::UsEast, 160)),
        flaky(StaticProxy::at(
            "Germany-1",
            Site::at_vantage_rtt(Region::Germany, 309),
        )),
        StaticProxy::at("Germany-2", Site::at_vantage_rtt(Region::Germany, 174)),
        StaticProxy::at("France-1", Site::at_vantage_rtt(Region::France, 210)),
        StaticProxy::at("France-2", Site::at_vantage_rtt(Region::France, 250)),
    ]
}

/// The 16 ASes of the pilot study (Table 7), AS numbers drawn from the
/// paper's §7.5 snapshot plus plausible Pakistani ASNs.
pub fn pilot_asns() -> Vec<Asn> {
    vec![
        Asn(17557),
        Asn(38193),
        Asn(59257),
        Asn(45773),
        Asn(9541),
        Asn(23674),
        Asn(45595),
        Asn(132165),
        Asn(58895),
        Asn(38710),
        Asn(7590),
        Asn(138423),
        Asn(136030),
        Asn(24499),
        Asn(45669),
        Asn(138827),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_worlds_have_the_anchors() {
        let w = clean_world();
        for host in [YOUTUBE, FRONT, PORN_PAGE, SMALL_PAGE, LARGE_PAGE] {
            assert!(w.site(host).is_some(), "{host} missing");
        }
        let yt = w.site(YOUTUBE).unwrap();
        assert!(yt.frontable);
        // 360 KB ± wobble.
        let url = csaw_webproto::Url::parse("http://www.youtube.com/").unwrap();
        let page = yt.page_for(&url);
        assert!((page.total_bytes() as i64 - 360_000).abs() < 80_000);
    }

    #[test]
    fn ten_proxies_three_flaky() {
        let ps = static_proxies();
        assert_eq!(ps.len(), 10);
        let flaky = ps.iter().filter(|p| p.congestion_p > 0.0).count();
        assert_eq!(flaky, 3);
    }

    #[test]
    fn sixteen_pilot_asns_distinct() {
        let asns = pilot_asns();
        assert_eq!(asns.len(), 16);
        let distinct: std::collections::HashSet<Asn> = asns.iter().copied().collect();
        assert_eq!(distinct.len(), 16);
    }

    #[test]
    fn multihomed_world_flags() {
        let w = multihomed_university_world();
        assert!(w.access.providers().len() > 1);
        assert!(w.censor(csaw_censor::ISP_A_ASN).is_some());
        assert!(w.censor(csaw_censor::ISP_B_ASN).is_some());
    }
}
