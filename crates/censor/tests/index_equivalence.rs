//! Compiled policy ↔ linear scan equivalence.
//!
//! `CensorPolicy` used to walk every rule at every decision point; it now
//! indexes `DomainSuffix` rules by domain and visits only the rules that
//! can match the visible name. Which rule wins and how many `DetRng`
//! draws a decision makes are part of the determinism contract (same seed
//! ⇒ byte-identical experiment output), so this test replays randomized
//! policies and names against the old scan, kept here as an executable
//! specification, and requires the same action **and the same generator
//! state afterwards** at every decision point.

use csaw_censor::{
    Category, CensorPolicy, CensorRule, DnsTamper, HttpAction, IpAction, TargetMatcher, TlsAction,
    UdpAction,
};
use csaw_simnet::DetRng;
use csaw_webproto::url::{Host, Scheme, Url};
use std::collections::HashSet;
use std::net::Ipv4Addr;

// --- the old implementation, over `policy.rules()` ------------------------

fn matches_name(target: &TargetMatcher, name: &str, category: Option<Category>) -> bool {
    match target {
        TargetMatcher::DomainSuffix(d) => {
            let name = name.to_ascii_lowercase();
            name == *d || name.ends_with(&format!(".{d}"))
        }
        TargetMatcher::Keyword(k) => name.to_ascii_lowercase().contains(k.as_str()),
        TargetMatcher::Category(c) => category == Some(*c),
        TargetMatcher::UrlPrefix(u) => {
            u.is_base() && u.host().to_string() == name.to_ascii_lowercase()
        }
    }
}

fn matches_url(target: &TargetMatcher, url: &Url, category: Option<Category>) -> bool {
    match target {
        TargetMatcher::UrlPrefix(prefix) => url.is_derived_from(prefix),
        TargetMatcher::Keyword(k) => {
            url.host().to_string().contains(k.as_str())
                || url.path().to_ascii_lowercase().contains(k.as_str())
        }
        TargetMatcher::DomainSuffix(_) | TargetMatcher::Category(_) => {
            matches_name(target, &url.host().to_string(), category)
        }
    }
}

/// Every decision point as a scan of all rules in order.
struct Scan<'a> {
    rules: &'a [CensorRule],
    ip_blacklist: HashSet<Ipv4Addr>,
}

impl Scan<'_> {
    fn materialize_ips(
        &mut self,
        hosts: &[(String, Option<Category>)],
        resolve: impl Fn(&str) -> Option<Ipv4Addr>,
    ) {
        for (host, category) in hosts {
            let targeted = self
                .rules
                .iter()
                .any(|r| r.ip.is_active() && matches_name(&r.target, host, *category));
            if targeted {
                if let Some(ip) = resolve(host) {
                    self.ip_blacklist.insert(ip);
                }
            }
        }
    }

    fn on_dns_query(&self, qname: &str, category: Option<Category>, rng: &mut DetRng) -> DnsTamper {
        for r in self.rules {
            if r.dns.is_active() && matches_name(&r.target, qname, category) && rng.chance(r.dns_p)
            {
                return r.dns;
            }
        }
        DnsTamper::None
    }

    fn on_tcp_connect(&self, dst: Ipv4Addr, rng: &mut DetRng) -> IpAction {
        if !self.ip_blacklist.contains(&dst) {
            return IpAction::None;
        }
        for r in self.rules {
            if r.ip.is_active() && rng.chance(r.ip_p) {
                return r.ip;
            }
        }
        IpAction::None
    }

    fn on_tls_hello(
        &self,
        sni: Option<&str>,
        category: Option<Category>,
        rng: &mut DetRng,
    ) -> TlsAction {
        let Some(sni) = sni else {
            return TlsAction::None;
        };
        for r in self.rules {
            if r.tls.is_active() && matches_name(&r.target, sni, category) && rng.chance(r.tls_p) {
                return r.tls;
            }
        }
        TlsAction::None
    }

    fn on_udp_flow(&self, host: &str, category: Option<Category>, rng: &mut DetRng) -> UdpAction {
        for r in self.rules {
            if r.udp.is_active() && matches_name(&r.target, host, category) && rng.chance(r.udp_p) {
                return r.udp;
            }
        }
        UdpAction::None
    }

    fn on_http_request(
        &self,
        url: &Url,
        category: Option<Category>,
        rng: &mut DetRng,
    ) -> HttpAction {
        for r in self.rules {
            if r.http.is_active() && matches_url(&r.target, url, category) && rng.chance(r.http_p) {
                return r.http;
            }
        }
        HttpAction::None
    }
}

// --- generators -----------------------------------------------------------

/// Few labels, so generated names and rule domains collide often; some
/// are in upper case (rule targets are normalised, names are folded).
const LABELS: &[&str] = &[
    "a", "b", "c", "www", "cdn", "Video", "news", "xvid", "com", "ORG", "net", "zz", "10", "1",
];
const KEYWORDS: &[&str] = &["vid", "XV", "a.b", "ws", "10.", ".", "", "banned", "q"];
const PATHS: &[&str] = &[
    "/",
    "/banned",
    "/banned/page.html",
    "/XviD/a",
    "/a/b/c",
    "/news",
];
const CATEGORIES: &[Category] = &[Category::Video, Category::News, Category::Porn];

fn pick<'a, T: ?Sized>(rng: &mut DetRng, xs: &[&'a T]) -> &'a T {
    xs[rng.index(xs.len())]
}

/// One to four labels; sometimes empty, dot-leading or dot-trailing.
fn domain(rng: &mut DetRng) -> String {
    let mut d = match rng.index(40) {
        0 => return String::new(),
        1 => ".".to_string(),
        _ => String::new(),
    };
    for i in 0..1 + rng.index(4) {
        if i > 0 {
            d.push('.');
        }
        d.push_str(pick(rng, LABELS));
    }
    if rng.chance(0.05) {
        d.push('.');
    }
    d
}

fn address(rng: &mut DetRng) -> Ipv4Addr {
    Ipv4Addr::new(10, 1, rng.index(3) as u8, rng.index(4) as u8)
}

/// A host as a censor may see it: a generated domain in mixed case, an
/// IP literal, or a name under a TLD no rule mentions.
fn name(rng: &mut DetRng) -> String {
    match rng.index(10) {
        0 => address(rng).to_string(),
        1 => format!("{}.unknown-tld", domain(rng)),
        2 => domain(rng).to_ascii_uppercase(),
        _ => domain(rng),
    }
}

fn url(rng: &mut DetRng, host: &str) -> Url {
    // `Host::Name` built directly: `Host::parse` would reject the empty,
    // dot-edged and upper-case hosts the matchers must still agree on.
    let host = match host.parse::<Ipv4Addr>() {
        Ok(ip) => Host::Ip(ip),
        Err(_) => Host::Name(host.to_string()),
    };
    let scheme = if rng.chance(0.8) {
        Scheme::Http
    } else {
        Scheme::Https
    };
    let port = rng.chance(0.1).then_some(8080);
    let query = rng.chance(0.1).then_some("k=v");
    Url::from_parts(scheme, host, port, pick(rng, PATHS), query)
}

fn probability(rng: &mut DetRng) -> f64 {
    [0.0, 0.3, 0.7, 1.0, 1.0, 1.0][rng.index(6)]
}

fn rule(rng: &mut DetRng, index: usize) -> CensorRule {
    let target = match rng.index(10) {
        0 => TargetMatcher::Keyword(pick(rng, KEYWORDS).to_string()),
        1 => TargetMatcher::Category(CATEGORIES[rng.index(CATEGORIES.len())]),
        2 => {
            let host = name(rng).to_ascii_lowercase();
            TargetMatcher::UrlPrefix(url(rng, &host))
        }
        _ => TargetMatcher::DomainSuffix(domain(rng)),
    };
    // A per-rule sinkhole tells first-match winners apart.
    let hijack = Ipv4Addr::new(127, 0, (index >> 8) as u8, index as u8);
    let mut r = CensorRule::target(target);
    if rng.chance(0.5) {
        r = r
            .dns([DnsTamper::HijackTo(hijack), DnsTamper::Nxdomain][rng.index(2)])
            .dns_p(probability(rng));
    }
    if rng.chance(0.3) {
        r = r
            .ip([IpAction::Drop, IpAction::Rst][rng.index(2)])
            .ip_p(probability(rng));
    }
    if rng.chance(0.5) {
        let actions = [
            HttpAction::Drop,
            HttpAction::Rst,
            HttpAction::BlockPageRedirect,
            HttpAction::BlockPageInline,
        ];
        r = r.http(actions[rng.index(4)]).http_p(probability(rng));
    }
    if rng.chance(0.5) {
        r = r
            .tls([TlsAction::Drop, TlsAction::Rst][rng.index(2)])
            .tls_p(probability(rng));
    }
    if rng.chance(0.3) {
        r = r
            .udp([UdpAction::Drop, UdpAction::Throttle][rng.index(2)])
            .udp_p(probability(rng));
    }
    r
}

/// Run `decide` on two copies of one generator; the actions and the
/// generator states must agree.
fn same<A: PartialEq + std::fmt::Debug>(
    what: &str,
    flows: &DetRng,
    index: impl FnOnce(&mut DetRng) -> A,
    scan: impl FnOnce(&mut DetRng) -> A,
) {
    let (mut a, mut b) = (flows.clone(), flows.clone());
    assert_eq!(index(&mut a), scan(&mut b), "{what}: action");
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}: draws made");
}

#[test]
fn every_decision_point_matches_the_scan() {
    let (policies, names_per_policy) = if cfg!(debug_assertions) {
        (40, 25)
    } else {
        (100, 200)
    };
    let mut rng = DetRng::new(0x1dec5);
    let mut cases = 0u32;
    let mut engaged = 0u32;
    for p in 0..policies {
        // Empty, tiny and pilot-sized-and-beyond policies.
        let n_rules = match p {
            0 => 0,
            1..=4 => p,
            _ => rng.index(601),
        };
        let mut policy = CensorPolicy::new("generated");
        for i in 0..n_rules {
            policy = policy.with_rule(rule(&mut rng, i));
        }
        let mut scan = Scan {
            rules: policy.rules(),
            ip_blacklist: HashSet::new(),
        };

        // Blacklist compilation over a deployment's hosts, some of which
        // do not resolve.
        let hosts: Vec<(String, Option<Category>)> = (0..60)
            .map(|_| {
                let category = rng
                    .chance(0.3)
                    .then(|| CATEGORIES[rng.index(CATEGORIES.len())]);
                (name(&mut rng), category)
            })
            .collect();
        let resolve = |h: &str| {
            let i = hosts.iter().position(|(host, _)| host == h)?;
            (i % 5 != 0).then(|| Ipv4Addr::new(10, 2, 0, i as u8))
        };
        scan.materialize_ips(&hosts, resolve);
        let mut compiled = policy.clone();
        compiled.materialize_ips(&hosts, resolve);
        // A blacklisted address draws for the IP rules (there is at
        // least one); any other address draws nothing.
        for (i, host) in hosts.iter().enumerate() {
            let ip = Ipv4Addr::new(10, 2, 0, i as u8);
            same(
                &format!("policy {p}: blacklist entry for {host:?}"),
                &DetRng::new(i as u64),
                |r| compiled.on_tcp_connect(ip, r),
                |r| scan.on_tcp_connect(ip, r),
            );
        }

        for _ in 0..names_per_policy {
            let host = name(&mut rng);
            let category = rng
                .chance(0.3)
                .then(|| CATEGORIES[rng.index(CATEGORIES.len())]);
            let request = url(&mut rng, &host);
            let dst = Ipv4Addr::new(10, 2, 0, rng.index(64) as u8);
            let flows = DetRng::new(rng.range_u64(0, u64::MAX));
            let what = format!("policy {p} ({n_rules} rules), name {host:?}, url {request}");

            same(
                &format!("{what}: dns"),
                &flows,
                |r| compiled.on_dns_query(&host, category, r),
                |r| scan.on_dns_query(&host, category, r),
            );
            same(
                &format!("{what}: tcp {dst}"),
                &flows,
                |r| compiled.on_tcp_connect(dst, r),
                |r| scan.on_tcp_connect(dst, r),
            );
            let sni = rng.chance(0.9).then_some(host.as_str());
            same(
                &format!("{what}: tls"),
                &flows,
                |r| compiled.on_tls_hello(sni, category, r),
                |r| scan.on_tls_hello(sni, category, r),
            );
            same(
                &format!("{what}: udp"),
                &flows,
                |r| compiled.on_udp_flow(&host, category, r),
                |r| scan.on_udp_flow(&host, category, r),
            );
            same(
                &format!("{what}: http"),
                &flows,
                |r| compiled.on_http_request(&request, category, r),
                |r| scan.on_http_request(&request, category, r),
            );
            cases += 1;
            let mut r = flows.clone();
            if scan.on_dns_query(&host, category, &mut r).is_active()
                || scan.on_http_request(&request, category, &mut r).is_active()
            {
                engaged += 1;
            }
        }
    }
    assert_eq!(cases, policies as u32 * names_per_policy);
    // The generators must not drift into names no rule ever matches.
    assert!(
        engaged * 4 > cases,
        "only {engaged} of {cases} cases engaged a rule"
    );
}
