//! Censor policies: who gets blocked, how, at which stage.
//!
//! A [`CensorPolicy`] models the filtering configuration of one censoring
//! ISP. It is a list of [`CensorRule`]s, each pairing a [`TargetMatcher`]
//! (which traffic) with per-stage actions (what happens to it). The
//! decision functions mirror the interception points of a real middlebox:
//! DNS queries, TCP connects, TLS ClientHellos, and plaintext HTTP
//! requests — each sees only the fields genuinely visible at that layer.
//!
//! Multi-stage blocking (Table 1's ISP-B: DNS hijack *and* HTTP/HTTPS
//! drop) is expressed by a rule activating several stages; per-stage
//! engage probabilities model the load-balanced filtering the paper
//! describes ("usually carried out to load balance traffic across
//! filtering devices").

use crate::blocking::{Category, DnsTamper, HttpAction, IpAction, TlsAction, UdpAction};
use csaw_simnet::DetRng;
use csaw_webproto::url::{Host, Url};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

/// Which traffic a rule applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetMatcher {
    /// Host equals the domain or is a subdomain of it
    /// (`youtube.com` matches `www.youtube.com`).
    DomainSuffix(String),
    /// URL is the given URL or derived from it (segment-wise path prefix).
    /// Only effective at the HTTP stage, where paths are visible.
    UrlPrefix(Url),
    /// Substring match over the visible name (host/SNI/qname) or, at the
    /// HTTP stage, the path — classic keyword filtering. "IP as hostname"
    /// defeats this because the IP form contains no keyword.
    Keyword(String),
    /// All sites the deployment tags with this category.
    Category(Category),
}

/// `s` in ASCII lower case, borrowed when it already is.
fn lower(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

/// What one decision point can see of a flow, lower-cased once so that no
/// rule has to: the name (qname, SNI, service host or URL host), the
/// destination's category and, at the HTTP stage only, the request URL.
struct Visible<'a> {
    name: Cow<'a, str>,
    category: Option<Category>,
    url: Option<&'a Url>,
    path: OnceCell<Cow<'a, str>>,
}

impl<'a> Visible<'a> {
    /// A name-only stage: DNS, TLS, UDP, and blacklist compilation.
    fn name(name: &'a str, category: Option<Category>) -> Visible<'a> {
        Visible {
            name: lower(name),
            category,
            url: None,
            path: OnceCell::new(),
        }
    }

    /// The HTTP stage: host and path are both in the clear.
    fn url(url: &'a Url, category: Option<Category>) -> Visible<'a> {
        let name = match url.host() {
            Host::Name(n) => lower(n),
            Host::Ip(ip) => Cow::Owned(ip.to_string()),
        };
        Visible {
            name,
            category,
            url: Some(url),
            path: OnceCell::new(),
        }
    }

    /// Does `target` (already normalised by [`CensorPolicy::with_rule`])
    /// cover this flow?
    fn matches(&self, target: &TargetMatcher) -> bool {
        let name: &str = &self.name;
        match (target, self.url) {
            (TargetMatcher::DomainSuffix(d), _) => name
                .strip_suffix(d.as_str())
                .is_some_and(|sub| sub.is_empty() || sub.ends_with('.')),
            (TargetMatcher::Category(c), _) => self.category == Some(*c),
            (TargetMatcher::Keyword(k), None) => name.contains(k.as_str()),
            (TargetMatcher::Keyword(k), Some(url)) => {
                // The host as the URL carries it; the path folded to
                // lower case.
                let host = url.host().name().unwrap_or(name);
                host.contains(k.as_str())
                    || self
                        .path
                        .get_or_init(|| lower(url.path()))
                        .contains(k.as_str())
            }
            // URL prefixes need a path; a bare name can only match if the
            // prefix is a base URL on the same host.
            (TargetMatcher::UrlPrefix(prefix), None) => {
                prefix.is_base()
                    && match prefix.host() {
                        Host::Name(n) => n == name,
                        Host::Ip(ip) => ip.to_string() == name,
                    }
            }
            (TargetMatcher::UrlPrefix(prefix), Some(url)) => url.is_derived_from(prefix),
        }
    }
}

/// One filtering rule: a target plus the action taken at each stage.
/// `*_p` fields are per-flow engage probabilities (1.0 = always); they
/// model load-balanced multi-stage deployments where only a fraction of
/// flows traverse a given filtering device.
#[derive(Debug, Clone, PartialEq)]
pub struct CensorRule {
    /// Which traffic this rule covers.
    pub target: TargetMatcher,
    /// DNS-stage action.
    pub dns: DnsTamper,
    /// Probability the DNS stage engages for a given flow.
    pub dns_p: f64,
    /// IP-stage action (requires the destination IP to be blacklisted —
    /// see [`CensorPolicy::materialize_ips`]).
    pub ip: IpAction,
    /// Probability the IP stage engages.
    pub ip_p: f64,
    /// HTTP-stage action.
    pub http: HttpAction,
    /// Probability the HTTP stage engages.
    pub http_p: f64,
    /// TLS-stage action.
    pub tls: TlsAction,
    /// Probability the TLS stage engages.
    pub tls_p: f64,
    /// UDP-stage action (non-web services).
    pub udp: UdpAction,
    /// Probability the UDP stage engages.
    pub udp_p: f64,
}

impl CensorRule {
    /// A rule with no actions (builder seed).
    pub fn target(target: TargetMatcher) -> CensorRule {
        CensorRule {
            target,
            dns: DnsTamper::None,
            dns_p: 1.0,
            ip: IpAction::None,
            ip_p: 1.0,
            http: HttpAction::None,
            http_p: 1.0,
            tls: TlsAction::None,
            tls_p: 1.0,
            udp: UdpAction::None,
            udp_p: 1.0,
        }
    }

    /// Builder: set the DNS action.
    pub fn dns(mut self, t: DnsTamper) -> CensorRule {
        self.dns = t;
        self
    }

    /// Builder: set the DNS engage probability.
    pub fn dns_p(mut self, p: f64) -> CensorRule {
        self.dns_p = p.clamp(0.0, 1.0);
        self
    }

    /// Builder: set the IP action.
    pub fn ip(mut self, a: IpAction) -> CensorRule {
        self.ip = a;
        self
    }

    /// Builder: set the IP engage probability.
    pub fn ip_p(mut self, p: f64) -> CensorRule {
        self.ip_p = p.clamp(0.0, 1.0);
        self
    }

    /// Builder: set the HTTP action.
    pub fn http(mut self, a: HttpAction) -> CensorRule {
        self.http = a;
        self
    }

    /// Builder: set the HTTP engage probability.
    pub fn http_p(mut self, p: f64) -> CensorRule {
        self.http_p = p.clamp(0.0, 1.0);
        self
    }

    /// Builder: set the TLS action.
    pub fn tls(mut self, a: TlsAction) -> CensorRule {
        self.tls = a;
        self
    }

    /// Builder: set the TLS engage probability.
    pub fn tls_p(mut self, p: f64) -> CensorRule {
        self.tls_p = p.clamp(0.0, 1.0);
        self
    }

    /// Builder: set the UDP action.
    pub fn udp(mut self, a: UdpAction) -> CensorRule {
        self.udp = a;
        self
    }

    /// Builder: set the UDP engage probability.
    pub fn udp_p(mut self, p: f64) -> CensorRule {
        self.udp_p = p.clamp(0.0, 1.0);
        self
    }
}

/// The filtering configuration of one censoring ISP.
///
/// `rules` is the source of truth and its order is behaviour: at every
/// decision point the first rule, in insertion order, for which
/// `stage active && target matches && rng.chance(p)` holds wins, and
/// `chance` draws from the flow's [`DetRng`] only when the first two
/// hold. The policy is *compiled* as rules enter it — `DomainSuffix`
/// rules indexed by domain, everything else listed — so a decision visits
/// only the rules that can match the visible name, but it visits them in
/// rule order and evaluates that same condition. **Draw-order invariant:**
/// a decision makes exactly the draws, in exactly the order, that a scan
/// of all rules would make; seeds, first-match winners and golden outputs
/// do not depend on the index (`tests/index_equivalence.rs` holds the
/// scan and checks this).
#[derive(Debug, Clone, Default)]
pub struct CensorPolicy {
    /// Display name (e.g. "ISP-A").
    pub name: String,
    rules: Vec<CensorRule>,
    /// `DomainSuffix` rules by domain, rule indices ascending.
    by_domain: HashMap<String, Vec<usize>>,
    /// Every rule that is not a `DomainSuffix`, ascending: these are
    /// candidates for any name.
    unindexed: Vec<usize>,
    /// Rules with an active IP action, ascending.
    ip_active: Vec<usize>,
    /// Destination addresses subject to IP-stage actions. Populated by
    /// [`CensorPolicy::materialize_ips`] from the deployment's host→IP
    /// map, the way real censors compile hostname blacklists into router
    /// ACLs.
    ip_blacklist: HashSet<Ipv4Addr>,
    /// Where HTTP-stage redirects send the client.
    pub block_page_location: String,
}

impl CensorPolicy {
    /// An empty (non-censoring) policy.
    pub fn new(name: impl Into<String>) -> CensorPolicy {
        CensorPolicy {
            name: name.into(),
            block_page_location: "http://block.invalid/".to_string(),
            ..CensorPolicy::default()
        }
    }

    /// Add a rule. `DomainSuffix` and `Keyword` targets are folded to
    /// ASCII lower case here, because every decision point compares them
    /// with a lower-cased name.
    pub fn with_rule(mut self, mut rule: CensorRule) -> CensorPolicy {
        let index = self.rules.len();
        match &mut rule.target {
            TargetMatcher::DomainSuffix(d) => {
                d.make_ascii_lowercase();
                self.by_domain.entry(d.clone()).or_default().push(index);
            }
            TargetMatcher::Keyword(k) => {
                k.make_ascii_lowercase();
                self.unindexed.push(index);
            }
            TargetMatcher::UrlPrefix(_) | TargetMatcher::Category(_) => self.unindexed.push(index),
        }
        if rule.ip.is_active() {
            self.ip_active.push(index);
        }
        self.rules.push(rule);
        self
    }

    /// Iterate over rules (read-only).
    pub fn rules(&self) -> &[CensorRule] {
        &self.rules
    }

    /// The rules that can match the lower-cased `name`, in rule order:
    /// the `DomainSuffix` rules for the name itself and for each suffix
    /// after a `.` (the empty suffix after a trailing dot included),
    /// merged with every unindexed rule. A superset of the matching
    /// rules; [`Visible::matches`] still decides.
    fn candidates<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a CensorRule> + 'a {
        let mut hits: Vec<usize> = Vec::new();
        let suffixes = name.match_indices('.').map(|(dot, _)| &name[dot + 1..]);
        for domain in std::iter::once(name).chain(suffixes) {
            if let Some(indices) = self.by_domain.get(domain) {
                hits.extend_from_slice(indices);
            }
        }
        hits.sort_unstable();
        let mut indexed = hits.into_iter().peekable();
        let mut unindexed = self.unindexed.iter().copied().peekable();
        std::iter::from_fn(move || match (indexed.peek(), unindexed.peek()) {
            (Some(a), Some(b)) if a < b => indexed.next(),
            (_, Some(_)) => unindexed.next(),
            (_, None) => indexed.next(),
        })
        .map(|i| &self.rules[i])
    }

    /// Compile host-level rules into an IP blacklist using the
    /// deployment's resolver. Call once after the world's addresses are
    /// assigned. `resolve` maps a hostname to its true address(es).
    pub fn materialize_ips<F>(&mut self, hosts: &[(String, Option<Category>)], resolve: F)
    where
        F: Fn(&str) -> Option<Ipv4Addr>,
    {
        for (host, category) in hosts {
            let seen = Visible::name(host, *category);
            let targeted = self
                .candidates(&seen.name)
                .any(|r| r.ip.is_active() && seen.matches(&r.target));
            if targeted {
                if let Some(ip) = resolve(host) {
                    self.ip_blacklist.insert(ip);
                }
            }
        }
    }

    // --- middlebox decision points -------------------------------------

    /// DNS interception: what happens to a query for `qname`?
    pub fn on_dns_query(
        &self,
        qname: &str,
        category: Option<Category>,
        rng: &mut DetRng,
    ) -> DnsTamper {
        let seen = Visible::name(qname, category);
        for r in self.candidates(&seen.name) {
            if r.dns.is_active() && seen.matches(&r.target) && rng.chance(r.dns_p) {
                return r.dns;
            }
        }
        DnsTamper::None
    }

    /// TCP interception: what happens to a connect to `dst`?
    ///
    /// Real IP blocking doesn't know hostnames — only the compiled
    /// blacklist. The first rule with an active IP action supplies the
    /// action/probability once the address matches.
    pub fn on_tcp_connect(&self, dst: Ipv4Addr, rng: &mut DetRng) -> IpAction {
        if !self.ip_blacklist.contains(&dst) {
            return IpAction::None;
        }
        for r in self.ip_active.iter().map(|&i| &self.rules[i]) {
            if rng.chance(r.ip_p) {
                return r.ip;
            }
        }
        IpAction::None
    }

    /// TLS interception: what happens to a ClientHello bearing `sni`?
    pub fn on_tls_hello(
        &self,
        sni: Option<&str>,
        category: Option<Category>,
        rng: &mut DetRng,
    ) -> TlsAction {
        let Some(sni) = sni else {
            return TlsAction::None; // nothing visible to match on
        };
        let seen = Visible::name(sni, category);
        for r in self.candidates(&seen.name) {
            if r.tls.is_active() && seen.matches(&r.target) && rng.chance(r.tls_p) {
                return r.tls;
            }
        }
        TlsAction::None
    }

    /// UDP interception: what happens to datagrams toward the service at
    /// `service_host`? Deep packet inspection classifies non-web apps by
    /// endpoint (we model that as the service's hostname + category; the
    /// wire reality is IP/port signatures compiled from the same intent).
    pub fn on_udp_flow(
        &self,
        service_host: &str,
        category: Option<Category>,
        rng: &mut DetRng,
    ) -> UdpAction {
        let seen = Visible::name(service_host, category);
        for r in self.candidates(&seen.name) {
            if r.udp.is_active() && seen.matches(&r.target) && rng.chance(r.udp_p) {
                return r.udp;
            }
        }
        UdpAction::None
    }

    /// HTTP interception: what happens to a plaintext request for `url`?
    pub fn on_http_request(
        &self,
        url: &Url,
        category: Option<Category>,
        rng: &mut DetRng,
    ) -> HttpAction {
        let seen = Visible::url(url, category);
        for r in self.candidates(&seen.name) {
            if r.http.is_active() && seen.matches(&r.target) && rng.chance(r.http_p) {
                return r.http;
            }
        }
        HttpAction::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn rng() -> DetRng {
        DetRng::new(7)
    }

    #[test]
    fn domain_suffix_matches_subdomains() {
        let m = TargetMatcher::DomainSuffix("youtube.com".into());
        let sees = |name| Visible::name(name, None).matches(&m);
        assert!(sees("youtube.com"));
        assert!(sees("www.youtube.com"));
        assert!(sees("WWW.YOUTUBE.COM"));
        assert!(!sees("notyoutube.com"));
        assert!(!sees("youtube.com.evil.net"));
    }

    #[test]
    fn keyword_matches_host_and_path() {
        let m = TargetMatcher::Keyword("xvid".into());
        let sees = |u: &str| Visible::url(&url(u), None).matches(&m);
        assert!(sees("http://xvideos.example/"));
        assert!(sees("http://mirror.example/xvid/page"));
        assert!(sees("http://mirror.example/XVID/page"));
        assert!(!sees("http://10.1.2.3/page"));
    }

    #[test]
    fn url_prefix_http_only_semantics() {
        let m = TargetMatcher::UrlPrefix(url("http://foo.com/banned"));
        assert!(Visible::url(&url("http://foo.com/banned/page.html"), None).matches(&m));
        assert!(!Visible::url(&url("http://foo.com/other"), None).matches(&m));
        // At name-only stages a non-base prefix cannot match.
        assert!(!Visible::name("foo.com", None).matches(&m));
        let base = TargetMatcher::UrlPrefix(url("http://foo.com/"));
        assert!(Visible::name("foo.com", None).matches(&base));
    }

    /// The index is only a pre-filter: nested and duplicate domains, a
    /// keyword rule between them, and the first in *rule* order wins.
    #[test]
    fn index_visits_candidates_in_rule_order() {
        let rule = |t, a| CensorRule::target(t).http(a);
        let pol = CensorPolicy::new("isp")
            .with_rule(rule(
                TargetMatcher::DomainSuffix("other.org".into()),
                HttpAction::Rst,
            ))
            .with_rule(rule(TargetMatcher::DomainSuffix("b.c".into()), HttpAction::Rst).http_p(0.0))
            .with_rule(rule(TargetMatcher::Keyword("zzz".into()), HttpAction::Rst))
            .with_rule(rule(
                TargetMatcher::DomainSuffix("a.b.c".into()),
                HttpAction::BlockPageInline,
            ))
            .with_rule(rule(TargetMatcher::Keyword("a.b".into()), HttpAction::Drop))
            .with_rule(rule(
                TargetMatcher::DomainSuffix("b.c".into()),
                HttpAction::Drop,
            ));
        let order: Vec<usize> = pol
            .candidates("x.a.b.c")
            .map(|r| pol.rules.iter().position(|q| std::ptr::eq(q, r)).unwrap())
            .collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
        let mut r = rng();
        assert_eq!(
            pol.on_http_request(&url("http://x.a.b.c/"), None, &mut r),
            HttpAction::BlockPageInline
        );
        assert_eq!(
            pol.on_http_request(&url("http://b.c/"), None, &mut r),
            HttpAction::Drop
        );
    }

    /// Targets written in upper case used to match nothing: names are
    /// lower-cased before comparison and the targets were not.
    #[test]
    fn upper_case_domain_target_matches_at_every_stage() {
        let pol = CensorPolicy::new("isp").with_rule(
            CensorRule::target(TargetMatcher::DomainSuffix("YouTube.COM".into()))
                .dns(DnsTamper::Nxdomain)
                .ip(IpAction::Drop)
                .tls(TlsAction::Rst)
                .http(HttpAction::Drop)
                .udp(UdpAction::Drop),
        );
        stages_fire(pol, "www.youtube.com", "http://www.youtube.com/watch");
    }

    #[test]
    fn upper_case_keyword_target_matches_at_every_stage() {
        let pol = CensorPolicy::new("isp").with_rule(
            CensorRule::target(TargetMatcher::Keyword("XVID".into()))
                .dns(DnsTamper::Nxdomain)
                .ip(IpAction::Drop)
                .tls(TlsAction::Rst)
                .http(HttpAction::Drop)
                .udp(UdpAction::Drop),
        );
        let mut r = rng();
        // The path is only visible to the HTTP stage.
        assert_eq!(
            pol.on_http_request(&url("http://mirror.example/XviD/1"), None, &mut r),
            HttpAction::Drop
        );
        stages_fire(pol, "XVideos.example", "http://xvideos.example/");
    }

    /// A rule with every stage active fires at every decision point for
    /// `name` / `http_url`.
    fn stages_fire(mut pol: CensorPolicy, name: &str, http_url: &str) {
        let mut r = rng();
        assert_eq!(pol.on_dns_query(name, None, &mut r), DnsTamper::Nxdomain);
        assert_eq!(pol.on_tls_hello(Some(name), None, &mut r), TlsAction::Rst);
        assert_eq!(pol.on_udp_flow(name, None, &mut r), UdpAction::Drop);
        assert_eq!(
            pol.on_http_request(&url(http_url), None, &mut r),
            HttpAction::Drop
        );
        let addr: Ipv4Addr = "93.184.216.34".parse().unwrap();
        pol.materialize_ips(&[(name.to_string(), None)], |_| Some(addr));
        assert_eq!(pol.on_tcp_connect(addr, &mut r), IpAction::Drop);
    }

    #[test]
    fn dns_decision_respects_rules() {
        let hijack: Ipv4Addr = "10.10.34.34".parse().unwrap();
        let pol = CensorPolicy::new("isp").with_rule(
            CensorRule::target(TargetMatcher::DomainSuffix("youtube.com".into()))
                .dns(DnsTamper::HijackTo(hijack)),
        );
        let mut r = rng();
        assert_eq!(
            pol.on_dns_query("www.youtube.com", None, &mut r),
            DnsTamper::HijackTo(hijack)
        );
        assert_eq!(
            pol.on_dns_query("example.com", None, &mut r),
            DnsTamper::None
        );
    }

    #[test]
    fn ip_stage_requires_materialized_blacklist() {
        let mut pol = CensorPolicy::new("isp").with_rule(
            CensorRule::target(TargetMatcher::DomainSuffix("blocked.com".into()))
                .ip(IpAction::Drop),
        );
        let addr: Ipv4Addr = "93.184.216.34".parse().unwrap();
        let mut r = rng();
        // Before compilation: no IP knowledge, no action.
        assert_eq!(pol.on_tcp_connect(addr, &mut r), IpAction::None);
        pol.materialize_ips(&[("blocked.com".to_string(), None)], |h| {
            (h == "blocked.com").then_some(addr)
        });
        assert_eq!(pol.on_tcp_connect(addr, &mut r), IpAction::Drop);
    }

    #[test]
    fn tls_matches_sni_only() {
        let pol = CensorPolicy::new("isp").with_rule(
            CensorRule::target(TargetMatcher::DomainSuffix("youtube.com".into()))
                .tls(TlsAction::Drop),
        );
        let mut r = rng();
        assert_eq!(
            pol.on_tls_hello(Some("www.youtube.com"), None, &mut r),
            TlsAction::Drop
        );
        // Fronted SNI sails through.
        assert_eq!(
            pol.on_tls_hello(Some("google.com"), None, &mut r),
            TlsAction::None
        );
        // No SNI, nothing to match.
        assert_eq!(pol.on_tls_hello(None, None, &mut r), TlsAction::None);
    }

    #[test]
    fn http_block_page() {
        let pol = CensorPolicy::new("isp").with_rule(
            CensorRule::target(TargetMatcher::Category(Category::Porn))
                .http(HttpAction::BlockPageRedirect),
        );
        let mut r = rng();
        assert_eq!(
            pol.on_http_request(&url("http://adult.example/x"), Some(Category::Porn), &mut r),
            HttpAction::BlockPageRedirect
        );
        assert_eq!(
            pol.on_http_request(&url("http://adult.example/x"), Some(Category::News), &mut r),
            HttpAction::None
        );
    }

    #[test]
    fn engage_probability_splits_flows() {
        let pol = CensorPolicy::new("isp").with_rule(
            CensorRule::target(TargetMatcher::DomainSuffix("yt.com".into()))
                .dns(DnsTamper::Nxdomain)
                .dns_p(0.5),
        );
        let mut r = rng();
        let mut hits = 0;
        for _ in 0..2_000 {
            if pol.on_dns_query("yt.com", None, &mut r).is_active() {
                hits += 1;
            }
        }
        let frac = hits as f64 / 2_000.0;
        assert!((frac - 0.5).abs() < 0.05, "frac {frac}");
    }

    #[test]
    fn first_matching_rule_wins() {
        let pol = CensorPolicy::new("isp")
            .with_rule(
                CensorRule::target(TargetMatcher::DomainSuffix("a.com".into()))
                    .http(HttpAction::Rst),
            )
            .with_rule(
                CensorRule::target(TargetMatcher::Keyword("a.com".into())).http(HttpAction::Drop),
            );
        let mut r = rng();
        assert_eq!(
            pol.on_http_request(&url("http://a.com/"), None, &mut r),
            HttpAction::Rst
        );
    }
}
