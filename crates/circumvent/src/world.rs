//! The simulated internet, from one client network's point of view.
//!
//! A [`World`] owns the origin servers (with their pages, addresses and
//! geography), the DNS truth, the per-AS censor policies, and the client's
//! access network. It exposes the *primitive protocol operations* a client
//! can perform — DNS lookup, TCP connect, TLS handshake, HTTP exchange —
//! each applying the relevant censor stage exactly where a real middlebox
//! would sit. [`crate::fetch`] composes them into a page fetch, which is
//! what the transports and C-Saw's measurement module (Fig. 4 of the
//! paper) call; besides it only `IpAsHostname`'s out-of-band lookup
//! touches a primitive directly.
//!
//! Timing constants are calibrated against Table 5 of the paper; see
//! [`DnsTiming`] and `csaw_simnet::tcp::TcpConfig`.

use crate::outcome::FailureKind;
use csaw_censor::blocking::{Category, DnsTamper, HttpAction, IpAction, TlsAction, UdpAction};
use csaw_censor::policy::CensorPolicy;
use csaw_simnet::link::{Link, Path};
use csaw_simnet::rng::DetRng;
use csaw_simnet::tcp::{self, ConnectOutcome, TcpConfig};
use csaw_simnet::time::SimDuration;
use csaw_simnet::topology::{AccessNetwork, Asn, Provider, Region, Site};
use csaw_webproto::dns::{DnsObservation, DnsResponse, Rcode};
use csaw_webproto::page::{Markup, PageSizes, Resource, WebPage};
use csaw_webproto::url::Url;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// What an AS without block-page markup of its own serves.
const DEFAULT_BLOCK_PAGE: &str = "<html><body><h1>Access Denied</h1><p>blocked</p></body></html>";
/// What an origin that does not serve by IP answers a literal-IP request.
const BAD_REQUEST: &str = "<html><body><h1>400 Bad Request</h1></body></html>";

/// DNS timing knobs, calibrated to Table 5:
/// REFUSED surfaces in one resolver RTT (25 ms), SERVFAIL only after the
/// resolver's upstream retry ladder (10.6 s), and a black-holed query
/// stalls the stub for its full retry budget.
#[derive(Debug, Clone, Copy)]
pub struct DnsTiming {
    /// Round trip to the ISP's local resolver.
    pub local_rtt: SimDuration,
    /// Round trip to a public/global resolver (farther away).
    pub public_rtt: SimDuration,
    /// Delay before a SERVFAIL surfaces (resolver retries upstream first).
    pub servfail_delay: SimDuration,
    /// Total time the stub waits on a black-holed query before giving up.
    pub blackhole_total: SimDuration,
}

impl Default for DnsTiming {
    fn default() -> Self {
        DnsTiming {
            local_rtt: SimDuration::from_millis(25),
            public_rtt: SimDuration::from_millis(60),
            servfail_delay: SimDuration::from_millis(10_600),
            blackhole_total: SimDuration::from_secs(8),
        }
    }
}

/// Which resolver a lookup goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsServer {
    /// The ISP's resolver — subject to the censor's DNS stage.
    IspLocal,
    /// A public resolver (the paper's "Global DNS" / GDNS in Fig. 4) —
    /// bypasses resolver-side tampering. (On-path injection against
    /// public resolvers exists in the wild; it is modelled by the
    /// [`CensorPolicy`] only when a deployment opts in via
    /// [`World::set_public_dns_intercepted`].)
    Public,
    /// A public resolver with **Hold-On** (Duan et al., cited in §2.2):
    /// instead of accepting the first answer, the stub keeps listening
    /// for a hold window. An on-path injector's forged answer arrives
    /// *early* (it is closer than the real resolver); the genuine answer
    /// lands at the resolver's true RTT and wins. Defeats injection at
    /// the cost of the hold window; useless against query *dropping*.
    PublicHoldOn,
}

/// An origin server in the world.
#[derive(Debug, Clone)]
pub struct SiteEntry {
    /// Hostname (lowercase); shared with the described markup of every
    /// page the site serves.
    pub host: Arc<str>,
    /// True address.
    pub ip: Ipv4Addr,
    /// Geography.
    pub location: Site,
    /// Content category (what censor category-rules match on).
    pub category: Option<Category>,
    /// Does the origin serve HTTPS? (HTTPS local-fix requires it.)
    pub https: bool,
    /// Is the origin reachable through a fronting-capable CDN?
    pub frontable: bool,
    /// Does the origin answer requests addressed by literal IP
    /// (`Host: <ip>`)? Required for the "IP as hostname" fix.
    pub serves_by_ip: bool,
    /// Explicit pages by path; other paths are synthesized on demand.
    pub pages: HashMap<String, WebPage>,
    /// Size used when synthesizing a page for an unlisted path.
    pub default_page_bytes: u64,
    /// Resource count for synthesized pages.
    pub default_resources: usize,
    /// UDP application port, if this site also runs a non-web service
    /// (messaging/voice — the §8 extension).
    pub udp_port: Option<u16>,
}

impl SiteEntry {
    /// The page served for `url` (explicit, or synthesized from the site
    /// defaults — deterministic per path).
    pub fn page_for(&self, url: &Url) -> WebPage {
        if let Some(p) = self.pages.get(url.path()) {
            return p.clone();
        }
        WebPage::synthetic(url.clone(), self.default_page_bytes, self.default_resources)
    }

    /// The sizes of [`SiteEntry::page_for`]'s page, without building it.
    pub fn page_sizes(&self, url: &Url) -> PageSizes<'_> {
        match self.pages.get(url.path()) {
            Some(p) => PageSizes::Listed(p),
            None => PageSizes::Synthetic {
                total_bytes: self.default_page_bytes,
                n_resources: self.default_resources,
            },
        }
    }
}

/// The result of a TLS handshake attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlsStep {
    /// Handshake completed.
    Established,
    /// ClientHello (or ServerHello) never got through.
    Timeout,
    /// Reset on SNI match.
    Reset,
}

/// The result of probing a UDP application service (§8 non-web
/// filtering): a round-trip reply, a throttled (unusably slow) reply, or
/// silence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdpStep {
    /// The service answered normally.
    Reply {
        /// Application round-trip time.
        rtt: SimDuration,
    },
    /// Datagrams trickle through, but the session is unusable.
    Throttled {
        /// Effective (inflated) round-trip time.
        rtt: SimDuration,
    },
    /// Nothing came back before the app gave up.
    Timeout,
    /// The host runs no UDP service.
    NoService,
}

/// The result of a single HTTP request/response on an established
/// connection.
#[derive(Debug, Clone, PartialEq)]
pub enum HttpStep {
    /// A document came back.
    Response {
        /// Bytes of the returned document.
        bytes: u64,
        /// Its markup (block pages carry the censor's page; genuine
        /// documents carry synthesized site markup, described rather
        /// than rendered).
        html: Markup,
        /// Ground truth: was this the censor's block page?
        truth_block_page: bool,
        /// Did the response arrive via an HTTP redirect bounce? (A real
        /// client observes the 302; censors use it to reach block-page
        /// servers.)
        redirected: bool,
        /// What the document embeds, in document order. Empty for a block
        /// page, an error page and a resource exchange.
        resources: Vec<Resource>,
    },
    /// Nothing came back before the GET timeout.
    Timeout,
    /// Connection reset after the request.
    Reset,
}

/// The simulated internet.
#[derive(Debug, Clone)]
pub struct World {
    /// Every site once; the two indexes point into it, so a name or an
    /// address reaches its entry in one hash lookup.
    sites: Vec<SiteEntry>,
    by_host: HashMap<String, usize>,
    by_ip: HashMap<Ipv4Addr, usize>,
    censors: HashMap<Asn, CensorPolicy>,
    block_pages: HashMap<Asn, Arc<str>>,
    /// The client's attachment.
    pub access: AccessNetwork,
    /// Where the client lives.
    pub client_region: Region,
    /// TCP timing model.
    pub tcp: TcpConfig,
    /// DNS timing model.
    pub dns: DnsTiming,
    /// How long a stalled TLS handshake takes to give up.
    pub tls_timeout: SimDuration,
    /// Think time of ISP block-page servers (they are usually overloaded
    /// filter boxes; contributes to Table 5's 1.8 s block-page figure).
    pub block_page_server_delay: SimDuration,
    /// ASes whose censor also tampers with queries to *public* resolvers.
    public_dns_intercepted: bool,
}

impl World {
    /// Start building a world around the given access network.
    pub fn builder(access: AccessNetwork) -> WorldBuilder {
        WorldBuilder {
            world: World {
                sites: Vec::new(),
                by_host: HashMap::new(),
                by_ip: HashMap::new(),
                censors: HashMap::new(),
                block_pages: HashMap::new(),
                access,
                client_region: Region::Pakistan,
                tcp: TcpConfig::default(),
                dns: DnsTiming::default(),
                tls_timeout: SimDuration::from_secs(21),
                block_page_server_delay: SimDuration::from_millis(800),
                public_dns_intercepted: false,
            },
            next_ip: 1,
        }
    }

    /// Look up a site by hostname. A name that is already lower case —
    /// every [`Url`] host is — is looked up as it is.
    pub fn site(&self, host: &str) -> Option<&SiteEntry> {
        let i = if host.bytes().any(|b| b.is_ascii_uppercase()) {
            self.by_host.get(&host.to_ascii_lowercase())
        } else {
            self.by_host.get(host)
        };
        i.map(|&i| &self.sites[i])
    }

    /// Look up a site by address.
    pub fn site_by_ip(&self, ip: Ipv4Addr) -> Option<&SiteEntry> {
        self.by_ip.get(&ip).map(|&i| &self.sites[i])
    }

    /// The true address of a hostname (what an untampered resolver says).
    pub fn resolve_true(&self, host: &str) -> Option<Ipv4Addr> {
        self.site(host).map(|s| s.ip)
    }

    /// The censor policy of a provider's AS, if it censors.
    pub fn censor(&self, asn: Asn) -> Option<&CensorPolicy> {
        self.censors.get(&asn)
    }

    /// Opt in to on-path interception of public-resolver queries.
    pub fn set_public_dns_intercepted(&mut self, yes: bool) {
        self.public_dns_intercepted = yes;
    }

    /// Replace/insert a censor policy at runtime (used by the §7.5
    /// "in the wild" experiment, where blocking switched on mid-run).
    pub fn install_censor(&mut self, asn: Asn, mut policy: CensorPolicy) {
        let hosts: Vec<(String, Option<Category>)> = self
            .sites
            .iter()
            .map(|s| (s.host.to_string(), s.category))
            .collect();
        let resolve = |h: &str| self.by_host.get(h).map(|&i| self.sites[i].ip);
        policy.materialize_ips(&hosts, resolve);
        self.block_pages.entry(asn).or_insert_with(|| {
            // Always a phase-1-catchable family.
            csaw_blockpage::corpus_47()[(asn.0 as usize) % 38]
                .html
                .as_str()
                .into()
        });
        self.censors.insert(asn, policy);
    }

    /// The site category visible to a censor for `name` (censors classify
    /// by destination, which we model as the site's own category tag).
    fn category_of(&self, name: &str) -> Option<Category> {
        self.site(name).and_then(|s| s.category)
    }

    // --- primitive protocol operations ---------------------------------

    /// DNS lookup for `qname` through the given resolver, via `provider`.
    ///
    /// Returns what the client observes and how long it took.
    pub fn dns_lookup(
        &self,
        provider: &Provider,
        qname: &str,
        server: DnsServer,
        rng: &mut DetRng,
    ) -> (DnsObservation, SimDuration) {
        let (rtt, tampered) = match server {
            DnsServer::IspLocal => (self.dns.local_rtt, true),
            DnsServer::Public => (self.dns.public_rtt, self.public_dns_intercepted),
            // Hold-On survives *injection*: the forged early answer is
            // discarded and the genuine one (at true resolver RTT) is
            // kept. Query dropping still wins against it, so that tamper
            // stays effective below.
            DnsServer::PublicHoldOn => (self.dns.public_rtt, self.public_dns_intercepted),
        };
        let jittered = |rng: &mut DetRng, base: SimDuration| {
            base + SimDuration::from_micros(rng.range_u64(0, base.as_micros().max(2) / 4))
        };
        if tampered {
            if let Some(policy) = self.censors.get(&provider.asn) {
                let tamper = policy.on_dns_query(qname, self.category_of(qname), rng);
                // Hold-On filters forged *responses*; it cannot conjure a
                // response the censor swallowed.
                let injected_response = !matches!(tamper, DnsTamper::None | DnsTamper::Drop);
                if server == DnsServer::PublicHoldOn && injected_response {
                    // Wait out the hold window, then accept the genuine
                    // answer that arrived at the resolver's honest RTT.
                    let hold = rtt * 2;
                    return match self.resolve_true(qname) {
                        Some(ip) => (
                            DnsObservation::Response(DnsResponse::answer(ip)),
                            rtt + hold,
                        ),
                        None => (
                            DnsObservation::Response(DnsResponse::error(Rcode::NxDomain)),
                            rtt + hold,
                        ),
                    };
                }
                match tamper {
                    DnsTamper::None => {}
                    DnsTamper::Drop => {
                        return (DnsObservation::NoResponse, self.dns.blackhole_total);
                    }
                    DnsTamper::HijackTo(ip) => {
                        return (
                            DnsObservation::Response(DnsResponse::answer(ip)),
                            jittered(rng, rtt),
                        );
                    }
                    DnsTamper::Nxdomain => {
                        return (
                            DnsObservation::Response(DnsResponse::error(Rcode::NxDomain)),
                            jittered(rng, rtt),
                        );
                    }
                    DnsTamper::Servfail => {
                        return (
                            DnsObservation::Response(DnsResponse::error(Rcode::ServFail)),
                            self.dns.servfail_delay
                                + SimDuration::from_micros(rng.range_u64(0, 400_000)),
                        );
                    }
                    DnsTamper::Refused => {
                        return (
                            DnsObservation::Response(DnsResponse::error(Rcode::Refused)),
                            jittered(rng, rtt),
                        );
                    }
                }
            }
        }
        match self.resolve_true(qname) {
            Some(ip) => (
                DnsObservation::Response(DnsResponse::answer(ip)),
                jittered(rng, rtt),
            ),
            None => (
                DnsObservation::Response(DnsResponse::error(Rcode::NxDomain)),
                jittered(rng, rtt),
            ),
        }
    }

    /// Network path from the client, through `provider`, to a site.
    pub fn path_to_site(&self, provider: &Provider, site: Site) -> Path {
        self.access.path_to(provider, self.client_region, site)
    }

    /// Network path from the client to `dst`, the site an address
    /// resolved to (an in-country path for an unknown or sinkhole
    /// address, `None`).
    fn path_to_dst(&self, provider: &Provider, dst: Option<&SiteEntry>) -> Path {
        let site = dst.map_or_else(|| Site::in_region(self.client_region), |s| s.location);
        self.path_to_site(provider, site)
    }

    /// TCP connect to `dst` via `provider`, with the censor's IP stage
    /// applied. Unknown addresses (DNS sinkholes, forged answers) behave
    /// as black holes.
    pub fn tcp_connect(
        &self,
        provider: &Provider,
        dst: Ipv4Addr,
        rng: &mut DetRng,
    ) -> (ConnectOutcome, SimDuration) {
        let site = self.site_by_ip(dst);
        if let Some(policy) = self.censors.get(&provider.asn) {
            match policy.on_tcp_connect(dst, rng) {
                IpAction::None => {}
                IpAction::Drop => {
                    let o = tcp::connect_blackholed(&self.tcp);
                    return (o, o.elapsed());
                }
                IpAction::Rst => {
                    let path = self.path_to_dst(provider, site);
                    let o = tcp::connect_reset(&path, rng);
                    return (o, o.elapsed());
                }
            }
        }
        if site.is_none() {
            // Sinkhole or bogus address: nothing answers.
            let o = tcp::connect_blackholed(&self.tcp);
            return (o, o.elapsed());
        }
        let path = self.path_to_dst(provider, site);
        let o = tcp::connect(&path, &self.tcp, rng);
        (o, o.elapsed())
    }

    /// TLS handshake on an established connection to `dst`, presenting
    /// `sni`. The censor's TLS stage sees exactly the SNI.
    pub fn tls_handshake(
        &self,
        provider: &Provider,
        dst: Ipv4Addr,
        sni: Option<&str>,
        rng: &mut DetRng,
    ) -> (TlsStep, SimDuration) {
        if let Some(policy) = self.censors.get(&provider.asn) {
            let cat = sni.and_then(|s| self.category_of(s));
            match policy.on_tls_hello(sni, cat, rng) {
                TlsAction::None => {}
                TlsAction::Drop => return (TlsStep::Timeout, self.tls_timeout),
                TlsAction::Rst => {
                    let path = self.path_to_dst(provider, self.site_by_ip(dst));
                    return (TlsStep::Reset, path.sample_rtt(rng));
                }
            }
        }
        // Two round trips of handshake (TLS 1.2-era, matching the paper's
        // timeframe).
        let path = self.path_to_dst(provider, self.site_by_ip(dst));
        let t = path.sample_rtt(rng) + path.sample_rtt(rng);
        (TlsStep::Established, t)
    }

    /// One HTTP request/response on an established connection to `dst`.
    ///
    /// `via_tls` controls whether the censor's HTTP stage can see the
    /// request (it cannot see inside TLS). `fronted_backend` carries the
    /// encrypted Host header when domain fronting: the *front* terminates
    /// TLS and relays to the named backend.
    ///
    /// `response_override` forces the size of the returned document (used
    /// by the browser model to fetch individual page resources).
    #[allow(clippy::too_many_arguments)] // mirrors the wire-level request surface
    pub fn http_exchange(
        &self,
        provider: &Provider,
        dst: Ipv4Addr,
        url: &Url,
        via_tls: bool,
        fronted_backend: Option<&str>,
        response_override: Option<u64>,
        rng: &mut DetRng,
    ) -> (HttpStep, SimDuration) {
        // The connected address's site, resolved once: the censor's
        // fallback category, the origin and the path all come from it.
        let at_dst = self.site_by_ip(dst);
        // Censor HTTP stage: plaintext only.
        if !via_tls {
            if let Some(policy) = self.censors.get(&provider.asn) {
                let cat = url
                    .dns_name()
                    .and_then(|h| self.category_of(h))
                    .or_else(|| at_dst.and_then(|s| s.category));
                match policy.on_http_request(url, cat, rng) {
                    HttpAction::None => {}
                    HttpAction::Drop => {
                        return (HttpStep::Timeout, self.tcp.http_timeout);
                    }
                    HttpAction::Rst => {
                        let path = self.path_to_dst(provider, at_dst);
                        return (HttpStep::Reset, path.sample_rtt(rng));
                    }
                    HttpAction::BlockPageRedirect => {
                        return self.serve_block_page(provider, at_dst, true, rng);
                    }
                    HttpAction::BlockPageInline => {
                        return self.serve_block_page(provider, at_dst, false, rng);
                    }
                }
            }
        }
        // Identify the serving site: fronted requests resolve the backend
        // name; otherwise the connected address identifies the origin.
        let site = match fronted_backend {
            Some(backend) => self.site(backend),
            None => at_dst,
        };
        let Some(site) = site else {
            return (HttpStep::Timeout, self.tcp.http_timeout);
        };
        // "IP as hostname" requires origin cooperation.
        if url.host().is_ip() && fronted_backend.is_none() && !site.serves_by_ip {
            return (
                HttpStep::Response {
                    bytes: 512,
                    html: Markup::from_static(BAD_REQUEST),
                    truth_block_page: false,
                    redirected: false,
                    resources: Vec::new(),
                },
                self.path_to_dst(provider, at_dst).sample_rtt(rng),
            );
        }
        // A resource exchange knows its size; only the base document asks
        // the site what it serves at this URL.
        let (bytes, resources) = match response_override {
            Some(bytes) => (bytes, Vec::new()),
            None => {
                let page = site.page_for(url);
                (page.html_bytes, page.resources)
            }
        };
        let mut path = self.path_to_dst(provider, at_dst);
        if fronted_backend.is_some() {
            // Front relays to the backend origin over the CDN backbone.
            // NOTE: `site` above is already the *backend* (a fronted
            // request resolves the backend name), so this link joins the
            // backend to itself — always the intra-region constant, never
            // the front → backend distance the `.min(30)` cap was written
            // for. `GOLDEN_seed1.json` pins the value (fig1a's
            // domain-fronting series); changing it is a re-bless with a
            // paper-claim judgement, listed under ROADMAP's claims gate.
            let region = site.location.region;
            let extra = Link::wan(SimDuration::from_millis(
                region.one_way_ms_to(region).min(30),
            ));
            path = path.then(extra);
        }
        let (step, elapsed) = match tcp::exchange(&path, bytes, &self.tcp, rng) {
            tcp::ExchangeOutcome::Done { elapsed } => (
                HttpStep::Response {
                    bytes,
                    html: if response_override.is_none() {
                        Markup::synthetic(site.host.clone(), bytes.min(64_000) as usize)
                    } else {
                        Markup::default()
                    },
                    truth_block_page: false,
                    redirected: false,
                    resources,
                },
                elapsed,
            ),
            tcp::ExchangeOutcome::GetTimeout { elapsed } => (HttpStep::Timeout, elapsed),
            tcp::ExchangeOutcome::ResetMidFlight { elapsed } => (HttpStep::Reset, elapsed),
        };
        (step, elapsed)
    }

    /// Probe a UDP application service on the direct path (§8 non-web
    /// filtering). Apps ship their endpoints, so no DNS round is modelled;
    /// the censor's UDP stage classifies the flow by service endpoint.
    pub fn udp_exchange(
        &self,
        provider: &Provider,
        service_host: &str,
        rng: &mut DetRng,
    ) -> (UdpStep, SimDuration) {
        let Some(site) = self.site(service_host) else {
            return (UdpStep::NoService, SimDuration::ZERO);
        };
        if site.udp_port.is_none() {
            return (UdpStep::NoService, SimDuration::ZERO);
        }
        let path = self.path_to_site(provider, site.location);
        if let Some(policy) = self.censors.get(&provider.asn) {
            match policy.on_udp_flow(service_host, site.category, rng) {
                UdpAction::None => {}
                UdpAction::Drop => {
                    // App-level retry ladder: ~3 probes a second apart.
                    return (UdpStep::Timeout, SimDuration::from_secs(3));
                }
                UdpAction::Throttle => {
                    let rtt = path.sample_rtt(rng).mul_f64(8.0)
                        + SimDuration::from_millis(rng.range_u64(500, 2_000));
                    return (UdpStep::Throttled { rtt }, rtt);
                }
            }
        }
        let rtt = path.sample_rtt(rng);
        (UdpStep::Reply { rtt }, rtt)
    }

    /// Probe the same UDP service through a relay tunnel (VPN/proxy —
    /// how messaging apps are circumvented in practice). The censor sees
    /// only the first hop.
    pub fn udp_exchange_via(
        &self,
        provider: &Provider,
        relay: csaw_simnet::topology::Site,
        service_host: &str,
        rng: &mut DetRng,
    ) -> (UdpStep, SimDuration) {
        let Some(site) = self.site(service_host) else {
            return (UdpStep::NoService, SimDuration::ZERO);
        };
        if site.udp_port.is_none() {
            return (UdpStep::NoService, SimDuration::ZERO);
        }
        let to_relay = self.path_to_site(provider, relay);
        let leg_ms = relay.region.one_way_ms_to(site.location.region);
        let leg = Path::single(Link::wan(
            SimDuration::from_millis(leg_ms) + site.location.extra_one_way,
        ));
        let full = to_relay.join(&leg);
        let rtt = full.sample_rtt(rng) + SimDuration::from_millis(30); // tunnel overhead
        (UdpStep::Reply { rtt }, rtt)
    }

    /// Deliver the censor's block page, optionally via a 302 redirect
    /// bounce to the ISP's block-page server.
    fn serve_block_page(
        &self,
        provider: &Provider,
        dst: Option<&SiteEntry>,
        via_redirect: bool,
        rng: &mut DetRng,
    ) -> (HttpStep, SimDuration) {
        let html = match self.block_pages.get(&provider.asn) {
            Some(html) => Markup::from(html.clone()),
            None => Markup::from_static(DEFAULT_BLOCK_PAGE),
        };
        let bytes = html.len() as u64;
        // The injected response (302 or inline page) arrives on the
        // original connection in about one path RTT.
        let orig_path = self.path_to_dst(provider, dst);
        let mut elapsed = orig_path.sample_rtt(rng);
        if via_redirect {
            // Follow the redirect: resolve + connect + fetch from the
            // in-ISP block-page server, which adds its think time.
            let bp_path = self.access.path_to(
                provider,
                self.client_region,
                Site::in_region(self.client_region),
            );
            elapsed += self.dns.local_rtt;
            elapsed += bp_path.sample_rtt(rng); // connect
            elapsed += self.block_page_server_delay;
            match tcp::exchange(&bp_path, bytes, &self.tcp, rng) {
                tcp::ExchangeOutcome::Done { elapsed: e } => elapsed += e,
                tcp::ExchangeOutcome::GetTimeout { elapsed: e }
                | tcp::ExchangeOutcome::ResetMidFlight { elapsed: e } => elapsed += e,
            }
        } else {
            elapsed += self.block_page_server_delay / 4;
        }
        (
            HttpStep::Response {
                bytes,
                html,
                truth_block_page: true,
                redirected: via_redirect,
                resources: Vec::new(),
            },
            elapsed,
        )
    }
}

/// Incremental construction of a [`World`].
#[derive(Debug)]
pub struct WorldBuilder {
    world: World,
    next_ip: u32,
}

impl WorldBuilder {
    /// Add a site; address assignment is deterministic in insertion order.
    pub fn site(mut self, spec: SiteSpec) -> Self {
        let ip = Ipv4Addr::new(
            203,
            0,
            (113 + self.next_ip / 250) as u8,
            (self.next_ip % 250 + 1) as u8,
        );
        self.next_ip += 1;
        let host = spec.host.to_ascii_lowercase();
        let entry = SiteEntry {
            host: host.as_str().into(),
            ip,
            location: spec.location,
            category: spec.category,
            https: spec.https,
            frontable: spec.frontable,
            serves_by_ip: spec.serves_by_ip,
            pages: spec.pages,
            default_page_bytes: spec.default_page_bytes,
            default_resources: spec.default_resources,
            udp_port: spec.udp_port,
        };
        // A host added again replaces its entry; its old address still
        // reaches it.
        let w = &mut self.world;
        let i = match w.by_host.get(&host) {
            Some(&i) => {
                w.sites[i] = entry;
                i
            }
            None => {
                w.sites.push(entry);
                w.by_host.insert(host, w.sites.len() - 1);
                w.sites.len() - 1
            }
        };
        w.by_ip.insert(ip, i);
        self
    }

    /// Install a censor for an AS (IP blacklists are compiled at build).
    pub fn censor(mut self, asn: Asn, policy: CensorPolicy) -> Self {
        self.world.censors.insert(asn, policy);
        self
    }

    /// Finish: compile censor IP blacklists and default block pages.
    pub fn build(mut self) -> World {
        for (asn, policy) in std::mem::take(&mut self.world.censors) {
            self.world.install_censor(asn, policy);
        }
        self.world
    }
}

/// Declarative description of a site for [`WorldBuilder::site`].
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// Hostname.
    pub host: String,
    /// Geography.
    pub location: Site,
    /// Content category.
    pub category: Option<Category>,
    /// HTTPS support.
    pub https: bool,
    /// Reachable through a fronting-capable CDN.
    pub frontable: bool,
    /// Answers when addressed by literal IP.
    pub serves_by_ip: bool,
    /// Explicit pages by path.
    pub pages: HashMap<String, WebPage>,
    /// Default synthesized page size.
    pub default_page_bytes: u64,
    /// Default synthesized resource count.
    pub default_resources: usize,
    /// UDP application port (non-web service), if any.
    pub udp_port: Option<u16>,
}

impl SiteSpec {
    /// A site with sensible defaults: HTTPS-capable, not frontable, does
    /// not serve by IP, 100 KB pages with 8 resources.
    pub fn new(host: &str, location: Site) -> SiteSpec {
        SiteSpec {
            host: host.to_string(),
            location,
            category: None,
            https: true,
            frontable: false,
            serves_by_ip: false,
            pages: HashMap::new(),
            default_page_bytes: 100_000,
            default_resources: 8,
            udp_port: None,
        }
    }

    /// Builder: category tag.
    pub fn category(mut self, c: Category) -> Self {
        self.category = Some(c);
        self
    }

    /// Builder: fronting support.
    pub fn frontable(mut self, yes: bool) -> Self {
        self.frontable = yes;
        self
    }

    /// Builder: serves by literal IP.
    pub fn serves_by_ip(mut self, yes: bool) -> Self {
        self.serves_by_ip = yes;
        self
    }

    /// Builder: default page size/resource count.
    pub fn default_page(mut self, bytes: u64, resources: usize) -> Self {
        self.default_page_bytes = bytes;
        self.default_resources = resources;
        self
    }

    /// Builder: add an explicit page at its URL's path.
    pub fn page(mut self, page: WebPage) -> Self {
        self.pages.insert(page.url.path().to_string(), page);
        self
    }

    /// Builder: the site also runs a UDP application service.
    pub fn udp_service(mut self, port: u16) -> Self {
        self.udp_port = Some(port);
        self
    }
}

/// Map a failed protocol step to the failure the client reports.
pub fn connect_failure(outcome: ConnectOutcome) -> Option<FailureKind> {
    match outcome {
        ConnectOutcome::Established { .. } => None,
        ConnectOutcome::Timeout { .. } => Some(FailureKind::ConnectTimeout),
        ConnectOutcome::Reset { .. } => Some(FailureKind::ConnectReset),
    }
}

/// Map a DNS observation to a failure, if it is one. A forged resolution
/// is *not* a failure at this layer — the client only discovers it later.
pub fn dns_failure(obs: &DnsObservation) -> Option<FailureKind> {
    match obs {
        DnsObservation::NoResponse => Some(FailureKind::DnsNoResponse),
        DnsObservation::Response(r) => match r.rcode {
            Rcode::NoError => None,
            Rcode::NxDomain => Some(FailureKind::DnsNxdomain),
            Rcode::ServFail => Some(FailureKind::DnsServfail),
            Rcode::Refused => Some(FailureKind::DnsRefused),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_censor::profiles;
    use csaw_simnet::topology::Provider;

    fn test_world(policy: CensorPolicy, asn: Asn) -> (World, Provider) {
        let provider = Provider::new(asn, "test-isp");
        let access = AccessNetwork::single(provider.clone());
        let w = World::builder(access)
            .site(
                SiteSpec::new("www.youtube.com", Site::at_vantage_rtt(Region::UsEast, 186))
                    .category(Category::Video)
                    .frontable(true)
                    .default_page(360_000, 20),
            )
            .site(SiteSpec::new(
                "example.com",
                Site::in_region(Region::UsEast),
            ))
            .censor(asn, policy)
            .build();
        (w, provider)
    }

    #[test]
    fn clean_dns_resolves_truthfully() {
        let (w, p) = test_world(profiles::clean(), Asn(100));
        let mut rng = DetRng::new(1);
        let (obs, t) = w.dns_lookup(&p, "example.com", DnsServer::IspLocal, &mut rng);
        assert_eq!(obs.resolved_addr(), w.resolve_true("example.com"));
        assert!(t >= w.dns.local_rtt && t < w.dns.local_rtt * 2);
    }

    #[test]
    fn isp_b_hijacks_youtube_dns_but_public_is_clean() {
        let (w, p) = test_world(profiles::isp_b(), profiles::ISP_B_ASN);
        let mut rng = DetRng::new(2);
        let mut hijacks = 0;
        for _ in 0..200 {
            let (obs, _) = w.dns_lookup(&p, "www.youtube.com", DnsServer::IspLocal, &mut rng);
            if obs.resolved_addr() == Some(profiles::isp_b_dns_sinkhole()) {
                hijacks += 1;
            }
        }
        assert!(hijacks > 120, "hijacks {hijacks}"); // dns_p = 0.8
                                                     // Public DNS bypasses resolver tampering.
        let (obs, _) = w.dns_lookup(&p, "www.youtube.com", DnsServer::Public, &mut rng);
        assert_eq!(obs.resolved_addr(), w.resolve_true("www.youtube.com"));
    }

    #[test]
    fn sinkhole_connect_blackholes_for_full_ladder() {
        let (w, p) = test_world(profiles::isp_b(), profiles::ISP_B_ASN);
        let mut rng = DetRng::new(3);
        let (o, t) = w.tcp_connect(&p, profiles::isp_b_dns_sinkhole(), &mut rng);
        assert!(!matches!(o, ConnectOutcome::Established { .. }));
        assert_eq!(t, SimDuration::from_secs(21));
    }

    #[test]
    fn servfail_takes_ten_seconds() {
        let pol = profiles::single_mechanism(
            "t",
            "www.youtube.com",
            DnsTamper::Servfail,
            IpAction::None,
            HttpAction::None,
            TlsAction::None,
        );
        let (w, p) = test_world(pol, Asn(5));
        let mut rng = DetRng::new(4);
        let (obs, t) = w.dns_lookup(&p, "www.youtube.com", DnsServer::IspLocal, &mut rng);
        assert_eq!(dns_failure(&obs), Some(FailureKind::DnsServfail));
        assert!(t >= SimDuration::from_millis(10_600) && t <= SimDuration::from_millis(11_100));
    }

    #[test]
    fn refused_is_fast() {
        let pol = profiles::single_mechanism(
            "t",
            "www.youtube.com",
            DnsTamper::Refused,
            IpAction::None,
            HttpAction::None,
            TlsAction::None,
        );
        let (w, p) = test_world(pol, Asn(5));
        let mut rng = DetRng::new(5);
        let (obs, t) = w.dns_lookup(&p, "www.youtube.com", DnsServer::IspLocal, &mut rng);
        assert_eq!(dns_failure(&obs), Some(FailureKind::DnsRefused));
        assert!(t < SimDuration::from_millis(50), "{t}");
    }

    #[test]
    fn http_drop_burns_get_timeout() {
        let (w, p) = test_world(profiles::isp_b(), profiles::ISP_B_ASN);
        let mut rng = DetRng::new(6);
        let ip = w.resolve_true("www.youtube.com").unwrap();
        let url = Url::parse("http://www.youtube.com/").unwrap();
        let (step, t) = w.http_exchange(&p, ip, &url, false, None, None, &mut rng);
        assert_eq!(step, HttpStep::Timeout);
        assert_eq!(t, w.tcp.http_timeout);
    }

    #[test]
    fn tls_sees_only_sni() {
        let (w, p) = test_world(profiles::isp_b(), profiles::ISP_B_ASN);
        let mut rng = DetRng::new(7);
        let ip = w.resolve_true("www.youtube.com").unwrap();
        let (step, t) = w.tls_handshake(&p, ip, Some("www.youtube.com"), &mut rng);
        assert_eq!(step, TlsStep::Timeout);
        assert_eq!(t, w.tls_timeout);
        // Fronted SNI passes.
        let (step, _) = w.tls_handshake(&p, ip, Some("cdn-front.example"), &mut rng);
        assert_eq!(step, TlsStep::Established);
    }

    #[test]
    fn https_hides_http_stage_from_censor() {
        let (w, p) = test_world(profiles::isp_a(), profiles::ISP_A_ASN);
        let mut rng = DetRng::new(8);
        let ip = w.resolve_true("www.youtube.com").unwrap();
        let url = Url::parse("https://www.youtube.com/").unwrap();
        // via_tls = true: the censor's HTTP stage can't see it.
        let (step, _) = w.http_exchange(&p, ip, &url, true, None, None, &mut rng);
        assert!(matches!(
            step,
            HttpStep::Response {
                truth_block_page: false,
                ..
            }
        ));
        // Plaintext gets the block page.
        let url_http = Url::parse("http://www.youtube.com/").unwrap();
        let (step, t) = w.http_exchange(&p, ip, &url_http, false, None, None, &mut rng);
        match step {
            HttpStep::Response {
                truth_block_page, ..
            } => assert!(truth_block_page),
            other => panic!("{other:?}"),
        }
        // Redirect bounce + server think time makes this slower than a
        // plain small fetch but far faster than a timeout.
        assert!(
            t > SimDuration::from_millis(800) && t < SimDuration::from_secs(5),
            "{t}"
        );
    }

    #[test]
    fn block_page_html_is_classifiable() {
        let (w, p) = test_world(profiles::isp_a(), profiles::ISP_A_ASN);
        let mut rng = DetRng::new(8);
        let ip = w.resolve_true("www.youtube.com").unwrap();
        let url = Url::parse("http://www.youtube.com/").unwrap();
        let (step, _) = w.http_exchange(&p, ip, &url, false, None, None, &mut rng);
        let HttpStep::Response {
            html,
            truth_block_page: true,
            ..
        } = step
        else {
            panic!("{step:?}")
        };
        let verdict =
            csaw_blockpage::phase1_markup(&html, &csaw_blockpage::Phase1Config::default());
        assert_eq!(verdict, csaw_blockpage::Phase1Verdict::BlockPage);
    }

    #[test]
    fn install_censor_mid_run_compiles_ips() {
        let (mut w, p) = test_world(profiles::clean(), Asn(42));
        let mut rng = DetRng::new(9);
        let ip = w.resolve_true("example.com").unwrap();
        let (o, _) = w.tcp_connect(&p, ip, &mut rng);
        assert!(matches!(o, ConnectOutcome::Established { .. }));
        // Now block example.com at the IP layer.
        let pol = profiles::single_mechanism(
            "evt",
            "example.com",
            DnsTamper::None,
            IpAction::Drop,
            HttpAction::None,
            TlsAction::None,
        );
        w.install_censor(Asn(42), pol);
        let (o, t) = w.tcp_connect(&p, ip, &mut rng);
        assert!(!matches!(o, ConnectOutcome::Established { .. }));
        assert_eq!(t, SimDuration::from_secs(21));
    }

    #[test]
    fn unknown_name_is_honest_nxdomain() {
        let (w, p) = test_world(profiles::clean(), Asn(1));
        let mut rng = DetRng::new(10);
        let (obs, _) = w.dns_lookup(&p, "no-such-host.example", DnsServer::IspLocal, &mut rng);
        assert_eq!(dns_failure(&obs), Some(FailureKind::DnsNxdomain));
    }

    #[test]
    fn ip_as_hostname_requires_origin_support() {
        let access = AccessNetwork::single(Provider::new(Asn(9), "isp"));
        let w = World::builder(access)
            .site(SiteSpec::new("byip.example", Site::in_region(Region::UsEast)).serves_by_ip(true))
            .site(SiteSpec::new(
                "noip.example",
                Site::in_region(Region::UsEast),
            ))
            .build();
        let p = w.access.providers()[0].clone();
        let mut rng = DetRng::new(11);
        let ip_yes = w.resolve_true("byip.example").unwrap();
        let ip_no = w.resolve_true("noip.example").unwrap();
        let u_yes = Url::parse(&format!("http://{ip_yes}/")).unwrap();
        let u_no = Url::parse(&format!("http://{ip_no}/")).unwrap();
        let (s, _) = w.http_exchange(&p, ip_yes, &u_yes, false, None, None, &mut rng);
        assert!(
            matches!(s, HttpStep::Response { truth_block_page: false, bytes, .. } if bytes > 1000)
        );
        let (s, _) = w.http_exchange(&p, ip_no, &u_no, false, None, None, &mut rng);
        assert!(
            matches!(s, HttpStep::Response { bytes, .. } if bytes == 512),
            "origin without IP-hosting answers 400"
        );
    }
}
