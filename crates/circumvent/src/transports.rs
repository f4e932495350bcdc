//! Circumvention transports.
//!
//! Every way the paper fetches a page is a [`Transport`]:
//!
//! | Transport | Paper reference | Defeats |
//! |---|---|---|
//! | [`Direct`] | baseline | nothing |
//! | [`PublicDns`] | §2.2 "Public DNS Servers" | resolver-side DNS tampering |
//! | [`HttpsUpgrade`] | §2.3 "using HTTPS in ISP-A" | HTTP-only filtering |
//! | [`DomainFronting`] | §2.2, Fig. 1a | DNS + SNI + HTTP filtering |
//! | [`IpAsHostname`] | Fig. 1c | DNS + keyword filtering |
//! | [`StaticProxy`] | Fig. 1a | everything, at distance cost |
//! | [`Vpn`] | §2.2 | everything, at tunnel cost |
//! | `TorClient` (see [`crate::tor`]) | §2.2 | everything + anonymity, slow |
//! | `LanternClient` (see [`crate::lantern`]) | §2.2 | everything, trust-routed |
//!
//! The *local fixes* (public DNS, HTTPS, fronting, IP-as-hostname) are the
//! heart of C-Saw's performance story: they avoid relays entirely, so PLT
//! stays near the direct path's.

use crate::fetch::{direct_like_fetch, DirectOpts, FetchReport};
use crate::outcome::FailureKind;
use crate::world::{DnsServer, World};
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::{Provider, Site};
use csaw_webproto::url::Url;

/// Coarse transport class, used by C-Saw's selection policy
/// (local fixes are always preferred over relays, §4.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// The unmodified direct path.
    Direct,
    /// A non-relay fix (public DNS, HTTPS, fronting, IP-as-hostname).
    LocalFix,
    /// A relay-based approach (proxy, VPN, Lantern, Tor).
    Relay,
}

/// Per-fetch context a transport may need.
#[derive(Debug, Clone)]
pub struct FetchCtx {
    /// Current virtual time (Tor uses it for circuit rotation).
    pub now: SimTime,
    /// The provider carrying this flow (multihomed networks vary this).
    pub provider: Provider,
}

/// A way to fetch a URL.
pub trait Transport {
    /// Stable identifier (used as the moving-average key and in reports).
    fn name(&self) -> &str;
    /// Classification for the selection policy.
    fn kind(&self) -> TransportKind;
    /// Does this transport hide the user from the censor? (C-Saw's
    /// anonymity-preferring configuration only uses transports where this
    /// is true, §4.4.)
    fn anonymous(&self) -> bool {
        false
    }
    /// Fetch the page.
    fn fetch(&mut self, world: &World, ctx: &FetchCtx, url: &Url, rng: &mut DetRng) -> FetchReport;
}

/// The unmodified direct path.
#[derive(Debug, Clone, Default)]
pub struct Direct;

impl Transport for Direct {
    fn name(&self) -> &str {
        "direct"
    }
    fn kind(&self) -> TransportKind {
        TransportKind::Direct
    }
    fn fetch(&mut self, world: &World, ctx: &FetchCtx, url: &Url, rng: &mut DetRng) -> FetchReport {
        direct_like_fetch(world, &ctx.provider, url, &DirectOpts::default(), rng)
    }
}

/// Direct path, resolving through a public resolver (the Fig. 4 "GDNS").
#[derive(Debug, Clone, Default)]
pub struct PublicDns;

impl Transport for PublicDns {
    fn name(&self) -> &str {
        "public-dns"
    }
    fn kind(&self) -> TransportKind {
        TransportKind::LocalFix
    }
    fn fetch(&mut self, world: &World, ctx: &FetchCtx, url: &Url, rng: &mut DetRng) -> FetchReport {
        let opts = DirectOpts {
            dns: DnsServer::Public,
            // A C-Saw-operated fix recognizes forged private-space
            // resolutions instead of connecting into a black hole.
            reject_private_resolution: true,
            ..DirectOpts::default()
        };
        direct_like_fetch(world, &ctx.provider, url, &opts, rng)
    }
}

/// Direct path resolving through a public resolver with Hold-On
/// (§2.2): survives on-path DNS *injection* that defeats plain public
/// DNS, at the cost of a hold window per lookup.
#[derive(Debug, Clone, Default)]
pub struct HoldOnDns;

impl Transport for HoldOnDns {
    fn name(&self) -> &str {
        "hold-on-dns"
    }
    fn kind(&self) -> TransportKind {
        TransportKind::LocalFix
    }
    fn fetch(&mut self, world: &World, ctx: &FetchCtx, url: &Url, rng: &mut DetRng) -> FetchReport {
        let opts = DirectOpts {
            dns: DnsServer::PublicHoldOn,
            reject_private_resolution: true,
            ..DirectOpts::default()
        };
        direct_like_fetch(world, &ctx.provider, url, &opts, rng)
    }
}

/// Upgrade the fetch to HTTPS (works where only plaintext HTTP is
/// filtered — ISP-A in the case study).
#[derive(Debug, Clone, Default)]
pub struct HttpsUpgrade {
    /// Also resolve via public DNS (combined fix for DNS + HTTP filtering).
    pub public_dns: bool,
}

impl Transport for HttpsUpgrade {
    fn name(&self) -> &str {
        "https"
    }
    fn kind(&self) -> TransportKind {
        TransportKind::LocalFix
    }
    fn fetch(&mut self, world: &World, ctx: &FetchCtx, url: &Url, rng: &mut DetRng) -> FetchReport {
        // HTTPS requires origin support.
        if let Some(name) = url.dns_name() {
            if let Some(site) = world.site(name) {
                if !site.https {
                    return FetchReport::failed(
                        FailureKind::TransportUnavailable,
                        SimDuration::ZERO,
                    );
                }
            }
        }
        let opts = DirectOpts {
            dns: if self.public_dns {
                DnsServer::Public
            } else {
                DnsServer::IspLocal
            },
            force_https: true,
            reject_private_resolution: true,
            ..DirectOpts::default()
        };
        direct_like_fetch(world, &ctx.provider, url, &opts, rng)
    }
}

/// Domain fronting through a CDN front-end: the censor sees DNS + SNI for
/// the front; the blocked destination rides in the encrypted Host header.
#[derive(Debug, Clone)]
pub struct DomainFronting {
    /// The innocuous front domain (must exist in the world).
    pub front: String,
}

impl DomainFronting {
    /// Front through the given domain.
    pub fn via(front: &str) -> DomainFronting {
        DomainFronting {
            front: front.to_string(),
        }
    }
}

impl Transport for DomainFronting {
    fn name(&self) -> &str {
        "domain-fronting"
    }
    fn kind(&self) -> TransportKind {
        TransportKind::LocalFix
    }
    fn fetch(&mut self, world: &World, ctx: &FetchCtx, url: &Url, rng: &mut DetRng) -> FetchReport {
        // Fronting requires the destination to be served via a
        // fronting-capable CDN.
        let frontable = url
            .dns_name()
            .and_then(|n| world.site(n))
            .map(|s| s.frontable)
            .unwrap_or(false);
        if !frontable {
            return FetchReport::failed(FailureKind::TransportUnavailable, SimDuration::ZERO);
        }
        let opts = DirectOpts {
            dns: DnsServer::IspLocal,
            force_https: true,
            front: Some(self.front.clone()),
            ..DirectOpts::default()
        };
        direct_like_fetch(world, &ctx.provider, url, &opts, rng)
    }
}

/// Address the origin by literal IP, defeating DNS tampering and keyword
/// filters (Fig. 1c). The true address is obtained out-of-band (C-Saw
/// carries it in the global DB); here we model that with one
/// Hold-On-hardened public lookup on first use, then cache — a plain
/// lookup would let an on-path injector poison the very fix that's
/// supposed to evade it.
#[derive(Debug, Clone, Default)]
pub struct IpAsHostname {
    cache: std::collections::HashMap<String, std::net::Ipv4Addr>,
}

impl Transport for IpAsHostname {
    fn name(&self) -> &str {
        "ip-as-hostname"
    }
    fn kind(&self) -> TransportKind {
        TransportKind::LocalFix
    }
    fn fetch(&mut self, world: &World, ctx: &FetchCtx, url: &Url, rng: &mut DetRng) -> FetchReport {
        let Some(name) = url.dns_name() else {
            // Already an IP URL: just go direct.
            return direct_like_fetch(world, &ctx.provider, url, &DirectOpts::default(), rng);
        };
        let Some(site) = world.site(name) else {
            return FetchReport::failed(FailureKind::DnsNxdomain, SimDuration::ZERO);
        };
        if !site.serves_by_ip {
            return FetchReport::failed(FailureKind::TransportUnavailable, SimDuration::ZERO);
        }
        let mut lookup_cost = SimDuration::ZERO;
        let ip = match self.cache.get(name) {
            Some(ip) => *ip,
            None => {
                let (obs, t) = world.dns_lookup(&ctx.provider, name, DnsServer::PublicHoldOn, rng);
                lookup_cost = t;
                match obs.resolved_addr() {
                    // Never cache (or use) a resolution pointing into
                    // private space — that's the injector talking.
                    Some(ip) if !csaw_webproto::dns::is_private_or_reserved(ip) => {
                        self.cache.insert(name.to_string(), ip);
                        ip
                    }
                    Some(_) | None => {
                        return FetchReport::failed(FailureKind::DnsForgedResolution, t)
                    }
                }
            }
        };
        let ip_url = url.with_ip_host(ip);
        let mut report =
            direct_like_fetch(world, &ctx.provider, &ip_url, &DirectOpts::default(), rng);
        report.elapsed += lookup_cost;
        report
    }
}

/// A static HTTP(S) proxy at a fixed location (the Fig. 1a/Table 2
/// proxies). Optionally congested — the paper observed Germany-1, UK and
/// Japan proxies with wildly varying PLTs.
#[derive(Debug, Clone)]
pub struct StaticProxy {
    /// Label used in reports, e.g. "Netherlands".
    pub label: String,
    /// Where the proxy is.
    pub site: Site,
    /// Probability a given fetch hits queueing/congestion at the proxy.
    pub congestion_p: f64,
    /// Maximum extra delay congestion adds.
    pub congestion_max: SimDuration,
}

impl StaticProxy {
    /// A well-behaved proxy at a location.
    pub fn at(label: &str, site: Site) -> StaticProxy {
        StaticProxy {
            label: label.to_string(),
            site,
            congestion_p: 0.0,
            congestion_max: SimDuration::ZERO,
        }
    }

    /// Make the proxy flaky (load/congestion spikes).
    pub fn congested(mut self, p: f64, max: SimDuration) -> StaticProxy {
        self.congestion_p = p.clamp(0.0, 1.0);
        self.congestion_max = max;
        self
    }
}

impl Transport for StaticProxy {
    fn name(&self) -> &str {
        &self.label
    }
    fn kind(&self) -> TransportKind {
        TransportKind::Relay
    }
    fn fetch(&mut self, world: &World, ctx: &FetchCtx, url: &Url, rng: &mut DetRng) -> FetchReport {
        let mut report = crate::fetch::relay_fetch(
            world,
            &ctx.provider,
            &[self.site],
            url,
            SimDuration::from_millis(10),
            rng,
        );
        if self.congestion_p > 0.0 && rng.chance(self.congestion_p) {
            report.elapsed += SimDuration::from_micros(
                rng.range_u64(0, self.congestion_max.as_micros().max(1) + 1),
            );
        }
        report
    }
}

/// A VPN tunnel to an exit outside the censored region. Like a static
/// proxy, plus per-packet tunnel overhead.
#[derive(Debug, Clone)]
pub struct Vpn {
    /// Exit location.
    pub site: Site,
}

impl Transport for Vpn {
    fn name(&self) -> &str {
        "vpn"
    }
    fn kind(&self) -> TransportKind {
        TransportKind::Relay
    }
    fn fetch(&mut self, world: &World, ctx: &FetchCtx, url: &Url, rng: &mut DetRng) -> FetchReport {
        crate::fetch::relay_fetch(
            world,
            &ctx.provider,
            &[self.site],
            url,
            SimDuration::from_millis(30), // tunnel setup/crypto overhead
            rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{SiteSpec, World};
    use csaw_censor::profiles;
    use csaw_simnet::topology::{AccessNetwork, Asn, Region};

    fn setup(policy: csaw_censor::CensorPolicy, asn: Asn) -> (World, FetchCtx) {
        let provider = Provider::new(asn, "isp");
        let access = AccessNetwork::single(provider.clone());
        let w = World::builder(access)
            .site(
                SiteSpec::new("www.youtube.com", Site::at_vantage_rtt(Region::UsEast, 186))
                    .category(csaw_censor::Category::Video)
                    .frontable(true)
                    .serves_by_ip(true)
                    .default_page(360_000, 20),
            )
            .site(SiteSpec::new(
                "cdn-front.example",
                Site::in_region(Region::Singapore),
            ))
            .site(
                SiteSpec::new("porn-site.example", Site::in_region(Region::Netherlands))
                    .category(csaw_censor::Category::Porn)
                    .serves_by_ip(true)
                    .default_page(50_000, 4),
            )
            .censor(asn, policy)
            .build();
        let ctx = FetchCtx {
            now: SimTime::ZERO,
            provider,
        };
        (w, ctx)
    }

    #[test]
    fn https_defeats_isp_a() {
        let (w, ctx) = setup(profiles::isp_a(), profiles::ISP_A_ASN);
        let mut rng = DetRng::new(1);
        let url = Url::parse("http://www.youtube.com/").unwrap();
        let direct = Direct.fetch(&w, &ctx, &url, &mut rng);
        assert!(direct
            .outcome
            .page()
            .map(|p| p.truth_block_page)
            .unwrap_or(false));
        let https = HttpsUpgrade::default().fetch(&w, &ctx, &url, &mut rng);
        assert!(https.outcome.is_genuine_page());
    }

    #[test]
    fn fronting_defeats_isp_b() {
        let (w, ctx) = setup(profiles::isp_b(), profiles::ISP_B_ASN);
        let mut rng = DetRng::new(2);
        let url = Url::parse("https://www.youtube.com/").unwrap();
        let plain = HttpsUpgrade { public_dns: true }.fetch(&w, &ctx, &url, &mut rng);
        assert_eq!(plain.outcome.failure(), Some(FailureKind::TlsTimeout));
        let fronted = DomainFronting::via("cdn-front.example").fetch(&w, &ctx, &url, &mut rng);
        assert!(fronted.outcome.is_genuine_page(), "{:?}", fronted.outcome);
    }

    #[test]
    fn fronting_unavailable_for_non_cdn_sites() {
        let (w, ctx) = setup(profiles::clean(), Asn(1));
        let mut rng = DetRng::new(3);
        let url = Url::parse("https://porn-site.example/").unwrap();
        let r = DomainFronting::via("cdn-front.example").fetch(&w, &ctx, &url, &mut rng);
        assert_eq!(r.outcome.failure(), Some(FailureKind::TransportUnavailable));
    }

    #[test]
    fn ip_hostname_defeats_keyword_filter_and_caches() {
        let (w, ctx) = setup(profiles::keyword_filter(&["porn"]), Asn(3));
        let mut rng = DetRng::new(4);
        let url = Url::parse("http://porn-site.example/").unwrap();
        // Direct: block page (keyword in hostname).
        let direct = Direct.fetch(&w, &ctx, &url, &mut rng);
        assert!(direct
            .outcome
            .page()
            .map(|p| p.truth_block_page)
            .unwrap_or(false));
        // IP-as-hostname sails through.
        let mut iph = IpAsHostname::default();
        let first = iph.fetch(&w, &ctx, &url, &mut rng);
        assert!(first.outcome.is_genuine_page(), "{:?}", first.outcome);
        let second = iph.fetch(&w, &ctx, &url, &mut rng);
        assert!(second.outcome.is_genuine_page());
        // Cached lookups shave the public-DNS RTT; compare medians of many
        // samples to dodge jitter.
        let mut firsts = Vec::new();
        let mut seconds = Vec::new();
        for i in 0..30 {
            let mut fresh = IpAsHostname::default();
            let mut r = DetRng::new(100 + i);
            firsts.push(fresh.fetch(&w, &ctx, &url, &mut r).elapsed);
            seconds.push(fresh.fetch(&w, &ctx, &url, &mut r).elapsed);
        }
        firsts.sort();
        seconds.sort();
        assert!(seconds[15] <= firsts[15]);
    }

    #[test]
    fn public_dns_fixes_isp_b_dns_but_not_http() {
        let (w, ctx) = setup(profiles::isp_b(), profiles::ISP_B_ASN);
        let mut rng = DetRng::new(5);
        let url = Url::parse("http://www.youtube.com/").unwrap();
        // Public DNS resolves truthfully, but the HTTP drop stage still
        // kills the plaintext fetch.
        let r = PublicDns.fetch(&w, &ctx, &url, &mut rng);
        assert_eq!(r.outcome.failure(), Some(FailureKind::HttpGetTimeout));
    }

    #[test]
    fn static_proxy_and_vpn_bypass_everything_slowly() {
        let (w, ctx) = setup(profiles::isp_b(), profiles::ISP_B_ASN);
        let mut rng = DetRng::new(6);
        let url = Url::parse("http://www.youtube.com/").unwrap();
        let mut proxy = StaticProxy::at(
            "Netherlands",
            Site::at_vantage_rtt(Region::Netherlands, 172),
        );
        let p = proxy.fetch(&w, &ctx, &url, &mut rng);
        assert!(p.outcome.is_genuine_page());
        let mut vpn = Vpn {
            site: Site::in_region(Region::Germany),
        };
        let v = vpn.fetch(&w, &ctx, &url, &mut rng);
        assert!(v.outcome.is_genuine_page());
        // Both slower than an uncensored direct fetch would be.
        let (w_clean, ctx_clean) = setup(profiles::clean(), Asn(99));
        let d = Direct.fetch(&w_clean, &ctx_clean, &url, &mut rng);
        assert!(p.elapsed > d.elapsed);
        assert!(v.elapsed > d.elapsed);
    }

    #[test]
    fn congested_proxy_has_fatter_tail() {
        let (w, ctx) = setup(profiles::clean(), Asn(9));
        let url = Url::parse("http://www.youtube.com/").unwrap();
        let site = Site::at_vantage_rtt(Region::Germany, 309);
        let sample = |proxy: &mut StaticProxy, seed: u64| -> Vec<SimDuration> {
            let mut rng = DetRng::new(seed);
            (0..60)
                .map(|_| proxy.fetch(&w, &ctx, &url, &mut rng).elapsed)
                .collect()
        };
        let mut calm = StaticProxy::at("calm", site);
        let mut flaky = StaticProxy::at("flaky", site).congested(0.5, SimDuration::from_secs(5));
        let mut a = sample(&mut calm, 42);
        let mut b = sample(&mut flaky, 42);
        a.sort();
        b.sort();
        assert!(b[54] > a[54], "p90 flaky {} <= calm {}", b[54], a[54]);
    }

    #[test]
    fn hold_on_survives_on_path_injection() {
        // An injecting censor that also poisons public-resolver answers:
        // plain public DNS eats the forged record; Hold-On waits for the
        // genuine one.
        let (mut w, ctx) = setup(
            csaw_censor::single_mechanism(
                "injector",
                "www.youtube.com",
                csaw_censor::DnsTamper::HijackTo("10.9.9.9".parse().unwrap()),
                csaw_censor::IpAction::None,
                csaw_censor::HttpAction::None,
                csaw_censor::TlsAction::None,
            ),
            Asn(41),
        );
        w.set_public_dns_intercepted(true);
        let mut rng = DetRng::new(15);
        let url = Url::parse("http://www.youtube.com/").unwrap();
        // Plain public DNS: forged answer -> connect to a black hole.
        let mut long_stalls = 0;
        for _ in 0..5 {
            let r = PublicDns.fetch(&w, &ctx, &url, &mut rng);
            if !r.outcome.is_genuine_page() || r.elapsed >= SimDuration::from_secs(21) {
                long_stalls += 1;
            }
        }
        assert!(long_stalls >= 4, "injection should defeat plain public DNS");
        // Hold-On: genuine page, every time, at a bounded extra cost.
        for _ in 0..5 {
            let r = HoldOnDns.fetch(&w, &ctx, &url, &mut rng);
            assert!(r.outcome.is_genuine_page(), "{:?}", r.outcome);
            assert!(r.elapsed < SimDuration::from_secs(10), "{}", r.elapsed);
        }
        // Against query *dropping* Hold-On is powerless, as documented.
        let (w2, ctx2) = setup(
            csaw_censor::single_mechanism(
                "dropper",
                "www.youtube.com",
                csaw_censor::DnsTamper::Drop,
                csaw_censor::IpAction::None,
                csaw_censor::HttpAction::None,
                csaw_censor::TlsAction::None,
            ),
            Asn(42),
        );
        let mut w2 = w2;
        w2.set_public_dns_intercepted(true);
        let r = HoldOnDns.fetch(&w2, &ctx2, &url, &mut rng);
        assert!(!r.outcome.is_genuine_page());
    }

    #[test]
    fn fronted_fetch_carries_the_whole_page() {
        let (w, ctx) = setup(profiles::isp_b(), profiles::ISP_B_ASN);
        let mut rng = DetRng::new(14);
        let url = Url::parse("https://www.youtube.com/").unwrap();
        let r = DomainFronting::via("cdn-front.example").fetch(&w, &ctx, &url, &mut rng);
        let page = r.outcome.page().expect("fronted page delivered");
        assert!(!page.truth_block_page);
        // Resources rode the front too: total far exceeds the base doc.
        assert!(page.bytes > 150_000, "{}", page.bytes);
        assert!(r.resource_failures.is_empty(), "{:?}", r.resource_failures);
    }

    #[test]
    fn transport_kinds() {
        assert_eq!(Direct.kind(), TransportKind::Direct);
        assert_eq!(PublicDns.kind(), TransportKind::LocalFix);
        assert_eq!(HttpsUpgrade::default().kind(), TransportKind::LocalFix);
        assert_eq!(DomainFronting::via("x").kind(), TransportKind::LocalFix);
        assert_eq!(IpAsHostname::default().kind(), TransportKind::LocalFix);
        assert_eq!(
            StaticProxy::at("x", Site::in_region(Region::Japan)).kind(),
            TransportKind::Relay
        );
        assert_eq!(
            Vpn {
                site: Site::in_region(Region::Japan)
            }
            .kind(),
            TransportKind::Relay
        );
    }
}
