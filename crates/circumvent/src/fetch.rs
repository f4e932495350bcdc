//! Page-fetch pipelines: the browser model over the world's primitives.
//!
//! Two fetch shapes cover every circumvention mechanism in the paper:
//!
//! - [`direct_like_fetch`]: the client talks to the origin itself —
//!   possibly with a different resolver (public DNS), scheme (HTTPS
//!   upgrade), SNI (domain fronting) or host form (IP as hostname). The
//!   censor sees every stage it would see in reality.
//! - [`relay_fetch`]: the client tunnels through one or more relays
//!   (static proxy, VPN, Lantern, Tor); the censor sees only the first
//!   hop, and PLT comes from the composed path.
//!
//! Page load time follows a browser model: the base document first, then
//! embedded resources over up to [`BROWSER_LANES`] parallel persistent
//! connections per host; cross-host (CDN) resources pay their own DNS +
//! connect — and face the censor on direct-ish fetches, which is exactly
//! how the paper's pilot study discovered CDN blocking (§7.4).

use crate::outcome::{FailureKind, Fetch, FetchOutcome, PageResult};
use crate::world::{dns_failure, DnsServer, HttpStep, TlsStep, World};
use csaw_simnet::rng::DetRng;
use csaw_simnet::tcp::ConnectOutcome;
use csaw_simnet::time::SimDuration;
use csaw_simnet::topology::{Provider, Site};
use csaw_webproto::dns::{is_private_or_reserved, DnsObservation};
use csaw_webproto::page::WebPage;
use csaw_webproto::url::{Scheme, Url};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Parallel persistent connections a browser opens per host.
pub const BROWSER_LANES: usize = 6;

/// One protocol step observed during a fetch. C-Saw's detector classifies
/// a failed direct fetch from this trace (Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// A DNS lookup.
    Dns {
        /// Which resolver was asked.
        server: DnsServer,
        /// What came back.
        obs: DnsObservation,
        /// How long it took.
        elapsed: SimDuration,
    },
    /// A TCP connect attempt.
    Connect {
        /// Destination address.
        dst: Ipv4Addr,
        /// Outcome.
        outcome: ConnectOutcome,
        /// How long it took.
        elapsed: SimDuration,
    },
    /// A TLS handshake attempt.
    Tls {
        /// Outcome.
        step: TlsStep,
        /// How long it took.
        elapsed: SimDuration,
    },
    /// An HTTP exchange for the base document.
    Http {
        /// Outcome summary (`Response`/`Timeout`/`Reset`).
        ok: bool,
        /// Whether the response was a block page (ground truth; the
        /// detector uses the HTML, not this flag).
        truth_block_page: bool,
        /// Response size, 0 on failure.
        bytes: u64,
        /// How long it took.
        elapsed: SimDuration,
    },
}

/// A completed fetch plus everything the measurement layer wants to know.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchReport {
    /// Overall outcome (page with *total* bytes, or first-failure kind).
    pub outcome: FetchOutcome,
    /// Page load time (or time burned until failure).
    pub elapsed: SimDuration,
    /// The protocol steps taken for the base document.
    pub trace: Vec<Step>,
    /// Resources that failed to load (URL + failure) — blocked CDNs show
    /// up here.
    pub resource_failures: Vec<(Url, FailureKind)>,
}

impl FetchReport {
    fn failed(kind: FailureKind, elapsed: SimDuration, trace: Vec<Step>) -> FetchReport {
        FetchReport {
            outcome: FetchOutcome::Failed(kind),
            elapsed,
            trace,
            resource_failures: Vec::new(),
        }
    }

    /// Collapse to the simple [`Fetch`] view.
    pub fn fetch(&self) -> Fetch {
        Fetch {
            outcome: self.outcome.clone(),
            elapsed: self.elapsed,
        }
    }
}

/// What name the TLS SNI carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SniMode {
    /// The destination hostname (normal HTTPS).
    HostName,
    /// A front domain (domain fronting).
    Front(String),
    /// No SNI extension.
    Omit,
}

/// Options shaping a direct-style fetch.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectOpts {
    /// Which resolver to use for named hosts.
    pub dns: DnsServer,
    /// Upgrade the URL to HTTPS before fetching.
    pub force_https: bool,
    /// SNI behaviour for HTTPS fetches.
    pub sni: SniMode,
    /// Domain fronting: connect to this front host; the real destination
    /// rides in the encrypted Host header.
    pub front: Option<String>,
    /// Give up early on resolutions pointing at private/reserved space
    /// (C-Saw's detector shortcut; plain browsers burn the full connect
    /// timeout instead).
    pub reject_private_resolution: bool,
}

impl Default for DirectOpts {
    fn default() -> Self {
        DirectOpts {
            dns: DnsServer::IspLocal,
            force_https: false,
            sni: SniMode::HostName,
            front: None,
            reject_private_resolution: false,
        }
    }
}

/// Fetch a page directly from the origin (modulo DNS/scheme/SNI options).
pub fn direct_like_fetch(
    world: &World,
    provider: &Provider,
    url: &Url,
    opts: &DirectOpts,
    rng: &mut DetRng,
) -> FetchReport {
    let url = if opts.force_https {
        url.with_scheme(Scheme::Https)
    } else {
        url.clone()
    };
    let mut trace = Vec::new();
    let mut elapsed = SimDuration::ZERO;

    // --- name resolution -------------------------------------------------
    // Fronted fetches resolve the *front*; IP-hosts need no DNS at all.
    let connect_ip: Ipv4Addr = if let Some(front) = &opts.front {
        // The front is a well-known CDN name; blocking it is the
        // collateral damage censors avoid, so its resolution follows the
        // censor's (non-)rules like any other name.
        let (obs, t) = world.dns_lookup(provider, front, opts.dns, rng);
        elapsed += t;
        trace.push(Step::Dns {
            server: opts.dns,
            obs: obs.clone(),
            elapsed: t,
        });
        match obs.resolved_addr() {
            Some(a) => a,
            None => return FetchReport::failed(FailureKind::TransportUnavailable, elapsed, trace),
        }
    } else {
        match url.host() {
            csaw_webproto::url::Host::Ip(ip) => *ip,
            csaw_webproto::url::Host::Name(name) => {
                let (obs, t) = world.dns_lookup(provider, name, opts.dns, rng);
                elapsed += t;
                trace.push(Step::Dns {
                    server: opts.dns,
                    obs: obs.clone(),
                    elapsed: t,
                });
                match obs.resolved_addr() {
                    Some(a) => {
                        if opts.reject_private_resolution && is_private_or_reserved(a) {
                            // Forged resolution recognized instantly.
                            return FetchReport::failed(
                                FailureKind::DnsForgedResolution,
                                elapsed,
                                trace,
                            );
                        }
                        a
                    }
                    None => {
                        let kind = dns_failure(&obs).unwrap_or(FailureKind::DnsNoResponse);
                        return FetchReport::failed(kind, elapsed, trace);
                    }
                }
            }
        }
    };

    // --- transport establishment -----------------------------------------
    let (conn, t) = world.tcp_connect(provider, connect_ip, rng);
    elapsed += t;
    trace.push(Step::Connect {
        dst: connect_ip,
        outcome: conn,
        elapsed: t,
    });
    if let Some(kind) = crate::world::connect_failure(conn) {
        return FetchReport::failed(kind, elapsed, trace);
    }

    let https = url.scheme() == Scheme::Https || opts.front.is_some();
    if https {
        let sni: Option<&str> = match (&opts.front, &opts.sni) {
            (Some(front), _) => Some(front.as_str()),
            (None, SniMode::HostName) => url.dns_name(),
            (None, SniMode::Front(f)) => Some(f.as_str()),
            (None, SniMode::Omit) => None,
        };
        let (step, t) = world.tls_handshake(provider, connect_ip, sni, rng);
        elapsed += t;
        trace.push(Step::Tls { step, elapsed: t });
        match step {
            TlsStep::Established => {}
            TlsStep::Timeout => {
                return FetchReport::failed(FailureKind::TlsTimeout, elapsed, trace)
            }
            TlsStep::Reset => return FetchReport::failed(FailureKind::TlsReset, elapsed, trace),
        }
    }

    // --- base document ----------------------------------------------------
    let backend = opts.front.as_ref().and_then(|_| url.dns_name());
    let (http, t) = world.http_exchange(provider, connect_ip, &url, https, backend, None, rng);
    elapsed += t;
    let (base_bytes, base_html, truth_block_page, redirected) = match http {
        HttpStep::Response {
            bytes,
            html,
            truth_block_page,
            redirected,
        } => {
            trace.push(Step::Http {
                ok: true,
                truth_block_page,
                bytes,
                elapsed: t,
            });
            (bytes, html, truth_block_page, redirected)
        }
        HttpStep::Timeout => {
            trace.push(Step::Http {
                ok: false,
                truth_block_page: false,
                bytes: 0,
                elapsed: t,
            });
            return FetchReport::failed(FailureKind::HttpGetTimeout, elapsed, trace);
        }
        HttpStep::Reset => {
            trace.push(Step::Http {
                ok: false,
                truth_block_page: false,
                bytes: 0,
                elapsed: t,
            });
            return FetchReport::failed(FailureKind::HttpReset, elapsed, trace);
        }
    };

    // A block page has no resources to fetch; it *is* the document.
    if truth_block_page {
        return FetchReport {
            outcome: FetchOutcome::Page(PageResult {
                bytes: base_bytes,
                html: base_html,
                truth_block_page: true,
                redirected,
            }),
            elapsed,
            trace,
            resource_failures: Vec::new(),
        };
    }

    // --- embedded resources -------------------------------------------
    let page = match url.dns_name() {
        Some(name) => world.site(name).map(|s| s.page_for(&url)),
        None => world.site_by_ip(connect_ip).map(|s| s.page_for(&url)),
    };
    let mut total_bytes = base_bytes;
    let mut resource_failures = Vec::new();
    if let Some(page) = page {
        let (res_time, res_bytes, failures) =
            fetch_resources_direct(world, provider, &page, &url, https, opts, connect_ip, rng);
        elapsed += res_time;
        total_bytes += res_bytes;
        resource_failures = failures;
    }

    FetchReport {
        outcome: FetchOutcome::Page(PageResult {
            bytes: total_bytes,
            html: base_html,
            truth_block_page: false,
            redirected,
        }),
        elapsed,
        trace,
        resource_failures,
    }
}

/// Fetch a page's embedded resources on the direct path: same-host
/// resources reuse the existing connection pool; cross-host (CDN)
/// resources pay DNS + connect and face the censor.
#[allow(clippy::too_many_arguments)]
fn fetch_resources_direct(
    world: &World,
    provider: &Provider,
    page: &WebPage,
    page_url: &Url,
    https: bool,
    opts: &DirectOpts,
    base_ip: Ipv4Addr,
    rng: &mut DetRng,
) -> (SimDuration, u64, Vec<(Url, FailureKind)>) {
    // Host groups in name order: the draws below depend on it.
    let mut by_host: BTreeMap<String, Vec<&csaw_webproto::page::Resource>> = BTreeMap::new();
    for r in &page.resources {
        by_host.entry(r.url.host().to_string()).or_default().push(r);
    }
    let mut failures = Vec::new();
    let mut total_bytes = 0u64;
    let mut host_times: Vec<SimDuration> = Vec::new();
    let page_host = page_url.host().to_string();
    for (host, resources) in &by_host {
        let host = host.as_str();
        let mut setup = SimDuration::ZERO;
        let ip = if host == page_host {
            Some(base_ip)
        } else {
            // Cross-host: resolve + connect, censored like any flow.
            let (obs, t) = world.dns_lookup(provider, host, opts.dns, rng);
            setup += t;
            match obs.resolved_addr() {
                Some(a) => {
                    let (conn, t) = world.tcp_connect(provider, a, rng);
                    setup += t;
                    if let Some(kind) = crate::world::connect_failure(conn) {
                        for r in resources {
                            failures.push((r.url.clone(), kind));
                        }
                        host_times.push(setup);
                        continue;
                    }
                    if https {
                        let (tls, t) = world.tls_handshake(provider, a, Some(host), rng);
                        setup += t;
                        if tls != TlsStep::Established {
                            let kind = if tls == TlsStep::Reset {
                                FailureKind::TlsReset
                            } else {
                                FailureKind::TlsTimeout
                            };
                            for r in resources {
                                failures.push((r.url.clone(), kind));
                            }
                            host_times.push(setup);
                            continue;
                        }
                    }
                    Some(a)
                }
                None => {
                    let kind = dns_failure(&obs).unwrap_or(FailureKind::DnsNoResponse);
                    for r in resources {
                        failures.push((r.url.clone(), kind));
                    }
                    host_times.push(setup);
                    continue;
                }
            }
        };
        let Some(ip) = ip else { continue };
        // Exchange each resource; spread across parallel lanes.
        let mut times = Vec::with_capacity(resources.len());
        for r in resources {
            let (step, t) = world.http_exchange(
                provider,
                ip,
                &r.url,
                https,
                opts.front.as_ref().and_then(|_| r.url.dns_name()),
                Some(r.bytes),
                rng,
            );
            match step {
                HttpStep::Response { bytes, .. } => {
                    total_bytes += bytes;
                    times.push(t);
                }
                HttpStep::Timeout => {
                    failures.push((r.url.clone(), FailureKind::HttpGetTimeout));
                    times.push(t);
                }
                HttpStep::Reset => {
                    failures.push((r.url.clone(), FailureKind::HttpReset));
                    times.push(t);
                }
            }
        }
        host_times.push(setup + lanes_time(&times, BROWSER_LANES));
    }
    // Host groups load in parallel.
    let t = host_times
        .into_iter()
        .fold(SimDuration::ZERO, SimDuration::max);
    (t, total_bytes, failures)
}

/// Fetch a page through a chain of relays. The censor sees only the first
/// hop (assumed unblocked unless the caller excluded the transport); every
/// stage after that is tunneled. PLT comes from the composed path.
pub fn relay_fetch(
    world: &World,
    provider: &Provider,
    legs: &[Site],
    url: &Url,
    per_hop_overhead: SimDuration,
    rng: &mut DetRng,
) -> FetchReport {
    assert!(!legs.is_empty(), "a relay fetch needs at least one relay");
    let Some(name) = url.dns_name() else {
        return FetchReport::failed(
            FailureKind::TransportUnavailable,
            SimDuration::ZERO,
            Vec::new(),
        );
    };
    let Some(origin) = world.site(name) else {
        return FetchReport::failed(
            FailureKind::DnsNxdomain,
            per_hop_overhead * legs.len() as u64,
            Vec::new(),
        );
    };

    // Compose the path: client -> leg1 -> leg2 -> ... -> origin.
    let mut path = world.path_to_site(provider, legs[0]);
    let mut prev = legs[0];
    for leg in &legs[1..] {
        let ms = prev.region.one_way_ms_to(leg.region);
        path = path.join(&csaw_simnet::link::Path::single(
            csaw_simnet::link::Link::wan(SimDuration::from_millis(ms) + leg.extra_one_way),
        ));
        prev = *leg;
    }
    let ms = prev.region.one_way_ms_to(origin.location.region);
    path = path.join(&csaw_simnet::link::Path::single(
        csaw_simnet::link::Link::wan(SimDuration::from_millis(ms) + origin.location.extra_one_way),
    ));

    let mut elapsed = per_hop_overhead * legs.len() as u64;
    let mut trace = Vec::new();

    // Circuit/tunnel establishment: one composed-path round trip, plus a
    // TLS-grade handshake to the first relay.
    let conn = csaw_simnet::tcp::connect(&path, &world.tcp, rng);
    elapsed += conn.elapsed();
    trace.push(Step::Connect {
        dst: origin.ip,
        outcome: conn,
        elapsed: conn.elapsed(),
    });
    if let Some(kind) = crate::world::connect_failure(conn) {
        return FetchReport::failed(kind, elapsed, trace);
    }

    // Base document.
    let page = origin.page_for(url);
    let base = csaw_simnet::tcp::exchange(&path, page.html_bytes, &world.tcp, rng);
    elapsed += base.elapsed();
    let ok = base.is_done();
    trace.push(Step::Http {
        ok,
        truth_block_page: false,
        bytes: if ok { page.html_bytes } else { 0 },
        elapsed: base.elapsed(),
    });
    if !ok {
        return FetchReport::failed(FailureKind::HttpGetTimeout, elapsed, trace);
    }

    // Resources: all tunneled through the same circuit; cross-host
    // resources are resolved at the exit, uncensored.
    let mut times = Vec::with_capacity(page.resources.len());
    let mut total_bytes = page.html_bytes;
    for r in &page.resources {
        let ex = csaw_simnet::tcp::exchange(&path, r.bytes, &world.tcp, rng);
        times.push(ex.elapsed());
        if ex.is_done() {
            total_bytes += r.bytes;
        }
    }
    elapsed += lanes_time(&times, BROWSER_LANES);

    FetchReport {
        outcome: FetchOutcome::Page(PageResult {
            bytes: total_bytes,
            html: csaw_webproto::synth_html(&origin.host, page.html_bytes.min(64_000) as usize),
            truth_block_page: false,
            redirected: false,
        }),
        elapsed,
        trace,
        resource_failures: Vec::new(),
    }
}

/// Greedy longest-processing-time assignment of transfer times onto
/// `lanes` parallel lanes; returns the makespan.
pub fn lanes_time(times: &[SimDuration], lanes: usize) -> SimDuration {
    if times.is_empty() {
        return SimDuration::ZERO;
    }
    let lanes = lanes.max(1);
    let mut sorted: Vec<SimDuration> = times.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut load = vec![SimDuration::ZERO; lanes];
    for t in sorted {
        let (i, _) = load
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| **l)
            .expect("lanes >= 1");
        load[i] += t;
    }
    load.into_iter().fold(SimDuration::ZERO, SimDuration::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{SiteSpec, World};
    use csaw_censor::profiles;
    use csaw_simnet::topology::{AccessNetwork, Asn, Region};

    fn world(policy: csaw_censor::CensorPolicy, asn: Asn) -> (World, Provider) {
        let provider = Provider::new(asn, "isp");
        let access = AccessNetwork::single(provider.clone());
        let w = World::builder(access)
            .site(
                SiteSpec::new("www.youtube.com", Site::at_vantage_rtt(Region::UsEast, 186))
                    .category(csaw_censor::Category::Video)
                    .frontable(true)
                    .default_page(360_000, 20),
            )
            .site(
                SiteSpec::new("cdn-front.example", Site::in_region(Region::Singapore))
                    .frontable(true),
            )
            .site(
                SiteSpec::new("example.com", Site::in_region(Region::UsEast))
                    .default_page(95_000, 6),
            )
            .censor(asn, policy)
            .build();
        (w, provider)
    }

    #[test]
    fn clean_direct_fetch_succeeds() {
        let (w, p) = world(profiles::clean(), Asn(1));
        let mut rng = DetRng::new(1);
        let url = Url::parse("http://example.com/").unwrap();
        let r = direct_like_fetch(&w, &p, &url, &DirectOpts::default(), &mut rng);
        assert!(r.outcome.is_genuine_page(), "{:?}", r.outcome);
        assert!(r.resource_failures.is_empty());
        // PLT sane: sub-10s for a 95 KB page.
        assert!(r.elapsed < SimDuration::from_secs(10), "{}", r.elapsed);
        assert!(r.elapsed > SimDuration::from_millis(100));
        // Total bytes include resources.
        assert!(r.outcome.page().unwrap().bytes > 60_000);
    }

    #[test]
    fn isp_a_block_page_on_http_https_clean() {
        let (w, p) = world(profiles::isp_a(), profiles::ISP_A_ASN);
        let mut rng = DetRng::new(2);
        let url = Url::parse("http://www.youtube.com/").unwrap();
        let r = direct_like_fetch(&w, &p, &url, &DirectOpts::default(), &mut rng);
        let page = r.outcome.page().expect("block page is a page");
        assert!(page.truth_block_page);
        // HTTPS local-fix works on ISP-A.
        let opts = DirectOpts {
            force_https: true,
            ..DirectOpts::default()
        };
        let r = direct_like_fetch(&w, &p, &url, &opts, &mut rng);
        assert!(r.outcome.is_genuine_page(), "{:?}", r.outcome);
    }

    #[test]
    fn isp_b_needs_fronting_for_youtube() {
        let (w, p) = world(profiles::isp_b(), profiles::ISP_B_ASN);
        let mut rng = DetRng::new(3);
        let url = Url::parse("https://www.youtube.com/").unwrap();
        // Plain HTTPS: SNI blocked (TLS drop) — after public DNS resolves
        // truthfully the TLS stage still kills it.
        let opts = DirectOpts {
            dns: DnsServer::Public,
            ..DirectOpts::default()
        };
        let r = direct_like_fetch(&w, &p, &url, &opts, &mut rng);
        assert_eq!(r.outcome.failure(), Some(FailureKind::TlsTimeout));
        // Fronted: SNI names the front; sails through.
        let opts = DirectOpts {
            dns: DnsServer::Public,
            front: Some("cdn-front.example".into()),
            ..DirectOpts::default()
        };
        let r = direct_like_fetch(&w, &p, &url, &opts, &mut rng);
        assert!(r.outcome.is_genuine_page(), "{:?}", r.outcome);
    }

    #[test]
    fn private_resolution_shortcut() {
        let (w, p) = world(profiles::isp_b(), profiles::ISP_B_ASN);
        let mut rng = DetRng::new(4);
        let url = Url::parse("http://www.youtube.com/").unwrap();
        // Plain browser: hijacked answer -> 21 s connect black hole.
        let naive = DirectOpts::default();
        let mut saw_long = false;
        for _ in 0..10 {
            let r = direct_like_fetch(&w, &p, &url, &naive, &mut rng);
            if r.elapsed >= SimDuration::from_secs(21) {
                saw_long = true;
            }
        }
        assert!(
            saw_long,
            "hijack should cause long stalls for naive fetches"
        );
        // Detector shortcut: reject private resolutions instantly.
        let smart = DirectOpts {
            reject_private_resolution: true,
            ..DirectOpts::default()
        };
        let mut saw_fast_fail = false;
        for _ in 0..10 {
            let r = direct_like_fetch(&w, &p, &url, &smart, &mut rng);
            if r.outcome.failure().is_some() && r.elapsed < SimDuration::from_millis(200) {
                saw_fast_fail = true;
            }
        }
        assert!(saw_fast_fail);
    }

    #[test]
    fn relay_fetch_succeeds_but_slower_than_direct() {
        let (w, p) = world(profiles::clean(), Asn(1));
        let mut rng = DetRng::new(5);
        let url = Url::parse("http://example.com/").unwrap();
        let direct = direct_like_fetch(&w, &p, &url, &DirectOpts::default(), &mut rng);
        let relayed = relay_fetch(
            &w,
            &p,
            &[
                Site::in_region(Region::Germany),
                Site::in_region(Region::UsWest),
            ],
            &url,
            SimDuration::from_millis(20),
            &mut rng,
        );
        assert!(relayed.outcome.is_genuine_page());
        assert!(
            relayed.elapsed > direct.elapsed,
            "relay {} <= direct {}",
            relayed.elapsed,
            direct.elapsed
        );
    }

    #[test]
    fn relay_unknown_host_fails() {
        let (w, p) = world(profiles::clean(), Asn(1));
        let mut rng = DetRng::new(6);
        let url = Url::parse("http://nowhere.example/").unwrap();
        let r = relay_fetch(
            &w,
            &p,
            &[Site::in_region(Region::Germany)],
            &url,
            SimDuration::ZERO,
            &mut rng,
        );
        assert_eq!(r.outcome.failure(), Some(FailureKind::DnsNxdomain));
    }

    #[test]
    fn lanes_makespan() {
        let ms = |x| SimDuration::from_millis(x);
        // 4 equal tasks on 2 lanes: 2 rounds.
        assert_eq!(lanes_time(&[ms(10); 4], 2), ms(20));
        // One big task dominates.
        assert_eq!(lanes_time(&[ms(100), ms(10), ms(10)], 2), ms(100));
        // Empty.
        assert_eq!(lanes_time(&[], 6), SimDuration::ZERO);
        // More lanes than tasks: max task.
        assert_eq!(lanes_time(&[ms(5), ms(7)], 6), ms(7));
    }

    #[test]
    fn trace_records_steps() {
        let (w, p) = world(profiles::clean(), Asn(1));
        let mut rng = DetRng::new(7);
        let url = Url::parse("https://example.com/").unwrap();
        let r = direct_like_fetch(&w, &p, &url, &DirectOpts::default(), &mut rng);
        let kinds: Vec<&str> = r
            .trace
            .iter()
            .map(|s| match s {
                Step::Dns { .. } => "dns",
                Step::Connect { .. } => "connect",
                Step::Tls { .. } => "tls",
                Step::Http { .. } => "http",
            })
            .collect();
        assert_eq!(kinds, vec!["dns", "connect", "tls", "http"]);
    }
}
