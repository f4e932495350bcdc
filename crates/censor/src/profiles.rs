//! Ready-made censor profiles.
//!
//! [`isp_a`] and [`isp_b`] reproduce Table 1 of the paper — the two large
//! Pakistani ISPs of the §2.3 case study:
//!
//! | Target            | ISP-A                               | ISP-B                                                  |
//! |-------------------|-------------------------------------|--------------------------------------------------------|
//! | YouTube           | HTTP blocking → block-page redirect | DNS → local host; HTTP/HTTPS → request dropped         |
//! | Rest (social/porn/political/…) | HTTP blocking → block-page redirect | HTTP blocking → block page via iframe     |
//!
//! [`event_blocking_2017`] reproduces the §7.5 "C-Saw in the wild"
//! snapshot: between Nov 25–28 2017, Twitter and Instagram were blocked
//! differently by different ASes (HTTP GET timeout on AS 38193, block page
//! on AS 17557, DNS blocking on AS 38193/59257/45773).

use crate::blocking::{Category, DnsTamper, HttpAction, IpAction, TlsAction};
use crate::policy::{CensorPolicy, CensorRule, TargetMatcher};
use csaw_simnet::topology::Asn;
use std::net::Ipv4Addr;

/// Canonical AS number used for ISP-A in experiments.
pub const ISP_A_ASN: Asn = Asn(45595);
/// Canonical AS number used for ISP-B in experiments.
pub const ISP_B_ASN: Asn = Asn(17557);

/// The local host ISP-B resolves blocked names to (a private address
/// inside the ISP — connecting to it goes nowhere useful).
pub fn isp_b_dns_sinkhole() -> Ipv4Addr {
    "10.10.34.36".parse().expect("static address")
}

/// ISP-A (Table 1): pure HTTP-level blocking with a redirect to a block
/// page, for YouTube and everything else on the blacklist. No DNS or
/// HTTPS interference — which is why plain HTTPS is a working local-fix
/// on this ISP.
pub fn isp_a() -> CensorPolicy {
    CensorPolicy::new("ISP-A")
        .with_rule(
            CensorRule::target(TargetMatcher::DomainSuffix("youtube.com".into()))
                .http(HttpAction::BlockPageRedirect),
        )
        .with_rule(
            CensorRule::target(TargetMatcher::Category(Category::Social))
                .http(HttpAction::BlockPageRedirect),
        )
        .with_rule(
            CensorRule::target(TargetMatcher::Category(Category::Porn))
                .http(HttpAction::BlockPageRedirect),
        )
        .with_rule(
            CensorRule::target(TargetMatcher::Category(Category::Political))
                .http(HttpAction::BlockPageRedirect),
        )
        .with_rule(
            CensorRule::target(TargetMatcher::Category(Category::Religious))
                .http(HttpAction::BlockPageRedirect),
        )
}

/// ISP-B (Table 1): multi-stage blocking for YouTube — DNS answers forged
/// to a local host *and*, for flows that slip past DNS (e.g. cached or
/// alternate resolutions), both HTTP and HTTPS requests are dropped. The
/// DNS stage engages for most flows (load balancing across filtering
/// devices); the rest of the blacklist gets an in-band block page.
pub fn isp_b() -> CensorPolicy {
    CensorPolicy::new("ISP-B")
        .with_rule(
            CensorRule::target(TargetMatcher::DomainSuffix("youtube.com".into()))
                .dns(DnsTamper::HijackTo(isp_b_dns_sinkhole()))
                .dns_p(0.8)
                .http(HttpAction::Drop)
                .tls(TlsAction::Drop),
        )
        .with_rule(
            CensorRule::target(TargetMatcher::Category(Category::Social))
                .http(HttpAction::BlockPageInline),
        )
        .with_rule(
            CensorRule::target(TargetMatcher::Category(Category::Porn))
                .http(HttpAction::BlockPageInline),
        )
        .with_rule(
            CensorRule::target(TargetMatcher::Category(Category::Political))
                .http(HttpAction::BlockPageInline),
        )
        .with_rule(
            CensorRule::target(TargetMatcher::Category(Category::Religious))
                .http(HttpAction::BlockPageInline),
        )
}

/// A keyword-filtering ISP: blocks plaintext HTTP whose host or path
/// contains a blacklisted keyword. The "IP as hostname" trick (Fig. 1c)
/// specifically defeats this profile.
pub fn keyword_filter(keywords: &[&str]) -> CensorPolicy {
    let mut p = CensorPolicy::new("ISP-KW");
    for k in keywords {
        p = p.with_rule(
            CensorRule::target(TargetMatcher::Keyword(k.to_ascii_lowercase()))
                .http(HttpAction::BlockPageRedirect),
        );
    }
    p
}

/// An ISP that does not censor at all (control condition).
pub fn clean() -> CensorPolicy {
    CensorPolicy::new("ISP-CLEAN")
}

/// A resourceful, GFW-style censor (the paper's §8 contrast to Pakistani
/// ISPs: "censors in several countries are neither as resourceful nor
/// motivated as the censors in countries like China"): on-path DNS
/// injection that poisons even public-resolver answers, RST injection on
/// blacklisted SNI, and plaintext HTTP resets. Pair with
/// `World::set_public_dns_intercepted(true)`.
pub fn resourceful(domains: &[&str]) -> CensorPolicy {
    let mut p = CensorPolicy::new("ISP-GFW");
    for d in domains {
        p = p.with_rule(
            CensorRule::target(TargetMatcher::DomainSuffix(d.to_string()))
                .dns(DnsTamper::HijackTo("10.99.99.99".parse().expect("static")))
                .http(HttpAction::Rst)
                .tls(TlsAction::Rst),
        );
    }
    p
}

/// How a given AS blocked a service during the Nov 2017 event (§7.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventBlocking {
    /// HTTP GET silently dropped (`HTTP_GET_TIMEOUT`).
    HttpGetTimeout,
    /// Block page served (`HTTP_GET_BLOCKPAGE`).
    HttpBlockPage,
    /// DNS blocking.
    Dns,
}

/// The §7.5 event matrix: `(ASN, service domain, mechanism)` rows exactly
/// as the paper's snapshot reports them.
pub fn event_matrix_2017() -> Vec<(Asn, &'static str, EventBlocking)> {
    vec![
        (Asn(38193), "twitter.com", EventBlocking::HttpGetTimeout),
        (Asn(17557), "twitter.com", EventBlocking::HttpBlockPage),
        (Asn(38193), "instagram.com", EventBlocking::Dns),
        (Asn(59257), "instagram.com", EventBlocking::Dns),
        (Asn(45773), "instagram.com", EventBlocking::Dns),
    ]
}

/// Build the policy an AS applied during the Nov 2017 event, layered on
/// top of an existing base policy.
pub fn event_blocking_2017(asn: Asn, base: CensorPolicy) -> CensorPolicy {
    let mut p = base;
    for (who, domain, how) in event_matrix_2017() {
        if who != asn {
            continue;
        }
        let rule = CensorRule::target(TargetMatcher::DomainSuffix(domain.to_string()));
        let rule = match how {
            EventBlocking::HttpGetTimeout => rule.http(HttpAction::Drop).tls(TlsAction::Drop),
            EventBlocking::HttpBlockPage => rule.http(HttpAction::BlockPageInline),
            EventBlocking::Dns => rule.dns(DnsTamper::Nxdomain).tls(TlsAction::Drop),
        };
        p = p.with_rule(rule);
    }
    p
}

/// A policy exercising exactly one blocking mechanism against one domain —
/// the workhorse for Table 5 and the Figure 5a sweeps.
pub fn single_mechanism(
    name: &str,
    domain: &str,
    dns: DnsTamper,
    ip: IpAction,
    http: HttpAction,
    tls: TlsAction,
) -> CensorPolicy {
    CensorPolicy::new(name).with_rule(
        CensorRule::target(TargetMatcher::DomainSuffix(domain.to_string()))
            .dns(dns)
            .ip(ip)
            .http(http)
            .tls(tls),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_simnet::DetRng;
    use csaw_webproto::url::Url;

    #[test]
    fn isp_a_is_http_only() {
        let pol = isp_a();
        let mut rng = DetRng::new(1);
        let yt = Url::parse("http://www.youtube.com/watch").unwrap();
        assert_eq!(
            pol.on_http_request(&yt, Some(Category::Video), &mut rng),
            HttpAction::BlockPageRedirect
        );
        // No DNS or TLS interference: HTTPS is a local-fix here.
        assert_eq!(
            pol.on_dns_query("www.youtube.com", Some(Category::Video), &mut rng),
            DnsTamper::None
        );
        assert_eq!(
            pol.on_tls_hello(Some("www.youtube.com"), Some(Category::Video), &mut rng),
            TlsAction::None
        );
    }

    #[test]
    fn isp_b_is_multi_stage_for_youtube() {
        let pol = isp_b();
        let mut rng = DetRng::new(2);
        // DNS hijacks most flows (p = 0.8).
        let mut hijacked = 0;
        for _ in 0..1_000 {
            if pol
                .on_dns_query("www.youtube.com", Some(Category::Video), &mut rng)
                .is_active()
            {
                hijacked += 1;
            }
        }
        assert!((700..=900).contains(&hijacked), "hijacked {hijacked}");
        // HTTP and HTTPS stages both drop.
        let yt = Url::parse("http://www.youtube.com/").unwrap();
        assert_eq!(
            pol.on_http_request(&yt, Some(Category::Video), &mut rng),
            HttpAction::Drop
        );
        assert_eq!(
            pol.on_tls_hello(Some("www.youtube.com"), Some(Category::Video), &mut rng),
            TlsAction::Drop
        );
        // Other content: inline block page, DNS untouched.
        let porn = Url::parse("http://adult.example/").unwrap();
        assert_eq!(
            pol.on_http_request(&porn, Some(Category::Porn), &mut rng),
            HttpAction::BlockPageInline
        );
        assert_eq!(
            pol.on_dns_query("adult.example", Some(Category::Porn), &mut rng),
            DnsTamper::None
        );
    }

    #[test]
    fn keyword_profile_defeated_by_ip_hostname() {
        let pol = keyword_filter(&["forbidden"]);
        let mut rng = DetRng::new(3);
        let named = Url::parse("http://forbidden-site.example/").unwrap();
        assert!(matches!(
            pol.on_http_request(&named, None, &mut rng),
            HttpAction::BlockPageRedirect | HttpAction::BlockPageInline
        ));
        let by_ip = named.with_ip_host("93.184.216.34".parse().unwrap());
        assert_eq!(
            pol.on_http_request(&by_ip, None, &mut rng),
            HttpAction::None
        );
    }

    #[test]
    fn clean_profile_blocks_nothing() {
        let pol = clean();
        let mut rng = DetRng::new(4);
        let u = Url::parse("http://anything.example/").unwrap();
        assert_eq!(pol.on_http_request(&u, None, &mut rng), HttpAction::None);
        assert_eq!(
            pol.on_dns_query("anything.example", None, &mut rng),
            DnsTamper::None
        );
    }

    #[test]
    fn resourceful_profile_hits_every_plaintext_stage() {
        let pol = resourceful(&["blocked.example"]);
        let mut rng = DetRng::new(9);
        assert!(pol
            .on_dns_query("www.blocked.example", None, &mut rng)
            .is_active());
        assert_eq!(
            pol.on_tls_hello(Some("blocked.example"), None, &mut rng),
            TlsAction::Rst
        );
        let u = Url::parse("http://blocked.example/").unwrap();
        assert_eq!(pol.on_http_request(&u, None, &mut rng), HttpAction::Rst);
        // Unlisted domains untouched.
        assert!(!pol.on_dns_query("fine.example", None, &mut rng).is_active());
    }

    #[test]
    fn event_matrix_applied_per_as() {
        let mut rng = DetRng::new(5);
        let as38193 = event_blocking_2017(Asn(38193), clean());
        let as17557 = event_blocking_2017(Asn(17557), clean());
        let as59257 = event_blocking_2017(Asn(59257), clean());
        let tw = Url::parse("http://twitter.com/").unwrap();
        // AS 38193: Twitter GET dropped, Instagram DNS-blocked.
        assert_eq!(
            as38193.on_http_request(&tw, Some(Category::Social), &mut rng),
            HttpAction::Drop
        );
        assert_eq!(
            as38193.on_dns_query("instagram.com", Some(Category::Social), &mut rng),
            DnsTamper::Nxdomain
        );
        // AS 17557: Twitter gets a block page; Instagram untouched there.
        assert_eq!(
            as17557.on_http_request(&tw, Some(Category::Social), &mut rng),
            HttpAction::BlockPageInline
        );
        assert_eq!(
            as17557.on_dns_query("instagram.com", Some(Category::Social), &mut rng),
            DnsTamper::None
        );
        // AS 59257: only Instagram DNS.
        assert_eq!(
            as59257.on_http_request(&tw, Some(Category::Social), &mut rng),
            HttpAction::None
        );
        assert_eq!(
            as59257.on_dns_query("instagram.com", Some(Category::Social), &mut rng),
            DnsTamper::Nxdomain
        );
    }

    #[test]
    fn single_mechanism_builder() {
        let pol = single_mechanism(
            "T5",
            "victim.example",
            DnsTamper::None,
            IpAction::Drop,
            HttpAction::None,
            TlsAction::None,
        );
        assert_eq!(pol.rules().len(), 1);
        assert_eq!(
            pol.rules()[0].target,
            TargetMatcher::DomainSuffix("victim.example".into())
        );
    }
}
