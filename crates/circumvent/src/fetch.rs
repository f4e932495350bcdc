//! Page-fetch pipelines: the browser model over the world's primitives.
//!
//! Two fetch shapes cover every circumvention mechanism in the paper:
//!
//! - [`direct_like_fetch`]: the client talks to the origin itself —
//!   possibly with a different resolver (public DNS), scheme (HTTPS
//!   upgrade), SNI (domain fronting) or host form (IP as hostname). The
//!   censor sees every stage it would see in reality.
//! - [`relay_fetch`]: the client tunnels through one or more relays
//!   (static proxy, Lantern, Tor); the censor sees only the first
//!   hop, and PLT comes from the composed path.
//!
//! A direct-style fetch climbs one connection ladder — `resolve` (DNS
//! lookup), then `connect` (TCP connect, then TLS when the page is
//! HTTPS) — written once and walked by two callers: the base document,
//! and every cross-host (CDN) group of embedded resources, which pays its
//! own DNS + connect and faces the censor there — exactly how the paper's
//! pilot study discovered CDN blocking (§7.4). Where the two differ (a
//! front that does not resolve, the private-space shortcut, whose connect
//! time the report carries) is spelled out at the call, not inside the
//! ladder.
//!
//! Page load time follows a browser model: the base document first, then
//! the resources it embeds over up to [`BROWSER_LANES`] parallel
//! persistent connections per host, host groups in parallel.

use crate::outcome::{FailureKind, FetchOutcome, PageResult};
use crate::world::{connect_failure, dns_failure, DnsServer, HttpStep, TlsStep, World};
use csaw_simnet::link::Link;
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::SimDuration;
use csaw_simnet::topology::{Provider, Site};
use csaw_webproto::dns::is_private_or_reserved;
use csaw_webproto::page::{Markup, Resource};
use csaw_webproto::url::{Host, Scheme, Url};
use std::borrow::Cow;
use std::net::Ipv4Addr;

/// Parallel persistent connections a browser opens per host.
pub const BROWSER_LANES: usize = 6;

/// A completed fetch plus everything the measurement layer wants to know.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchReport {
    /// Overall outcome (page with *total* bytes, or first-failure kind).
    pub outcome: FetchOutcome,
    /// Page load time (or time burned until failure).
    pub elapsed: SimDuration,
    /// The base document's TCP connect time (attempted, if it failed),
    /// zero when the fetch never got that far: the set-up leg of the
    /// redundancy engine's PLT decomposition.
    pub connect: SimDuration,
    /// Resources that failed to load (URL + failure) — blocked CDNs show
    /// up here.
    pub resource_failures: Vec<(Url, FailureKind)>,
}

impl FetchReport {
    /// A fetch that failed with `kind` after `elapsed`, before any
    /// connect.
    pub fn failed(kind: FailureKind, elapsed: SimDuration) -> FetchReport {
        FetchReport {
            outcome: FetchOutcome::Failed(kind),
            elapsed,
            connect: SimDuration::ZERO,
            resource_failures: Vec::new(),
        }
    }

    /// PLT if a genuine page was delivered (the metric used in every PLT
    /// figure; block pages and failures don't count as loads).
    pub fn genuine_plt(&self) -> Option<SimDuration> {
        self.outcome.is_genuine_page().then_some(self.elapsed)
    }
}

/// Options shaping a direct-style fetch.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectOpts {
    /// Which resolver to use for named hosts.
    pub dns: DnsServer,
    /// Upgrade the URL to HTTPS before fetching.
    pub force_https: bool,
    /// Domain fronting: connect to this front host and present it as the
    /// SNI; the real destination rides in the encrypted Host header.
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
            front: None,
            reject_private_resolution: false,
        }
    }
}

/// What one walk down the connection ladder has cost so far, and its
/// TCP connect time once it has tried one.
#[derive(Default)]
struct Walk {
    elapsed: SimDuration,
    connect: SimDuration,
}

/// First rung: look `name` up through `dns`. With `reject_private`, an
/// answer in private/reserved space is a forgery recognised on the spot.
fn resolve(
    world: &World,
    provider: &Provider,
    name: &str,
    dns: DnsServer,
    reject_private: bool,
    walk: &mut Walk,
    rng: &mut DetRng,
) -> Result<Ipv4Addr, FailureKind> {
    let (obs, t) = world.dns_lookup(provider, name, dns, rng);
    walk.elapsed += t;
    match obs.resolved_addr() {
        Some(a) if reject_private && is_private_or_reserved(a) => {
            Err(FailureKind::DnsForgedResolution)
        }
        Some(a) => Ok(a),
        None => Err(dns_failure(&obs).unwrap_or(FailureKind::DnsNoResponse)),
    }
}

/// Second rung: TCP connect to `ip`, then — for HTTPS — a TLS handshake
/// presenting `sni`.
fn connect(
    world: &World,
    provider: &Provider,
    ip: Ipv4Addr,
    https: bool,
    sni: Option<&str>,
    walk: &mut Walk,
    rng: &mut DetRng,
) -> Result<(), FailureKind> {
    let (outcome, t) = world.tcp_connect(provider, ip, rng);
    walk.elapsed += t;
    walk.connect = t;
    if let Some(kind) = connect_failure(outcome) {
        return Err(kind);
    }
    if https {
        let (step, t) = world.tls_handshake(provider, ip, sni, rng);
        walk.elapsed += t;
        match step {
            TlsStep::Established => {}
            TlsStep::Timeout => return Err(FailureKind::TlsTimeout),
            TlsStep::Reset => return Err(FailureKind::TlsReset),
        }
    }
    Ok(())
}

/// Fetch a page directly from the origin (modulo DNS/scheme/SNI options).
pub fn direct_like_fetch(
    world: &World,
    provider: &Provider,
    url: &Url,
    opts: &DirectOpts,
    rng: &mut DetRng,
) -> FetchReport {
    let mut base = Walk::default();
    let page = fetch_page(world, provider, url, opts, &mut base, rng);
    let (outcome, resource_failures) = match page {
        Ok((page, failures)) => (FetchOutcome::Page(page), failures),
        Err(kind) => (FetchOutcome::Failed(kind), Vec::new()),
    };
    FetchReport {
        outcome,
        elapsed: base.elapsed,
        connect: base.connect,
        resource_failures,
    }
}

/// The base document, then what it embeds. `base` carries the time and
/// connect time out whether or not a page does.
fn fetch_page(
    world: &World,
    provider: &Provider,
    url: &Url,
    opts: &DirectOpts,
    base: &mut Walk,
    rng: &mut DetRng,
) -> Result<(PageResult, Vec<(Url, FailureKind)>), FailureKind> {
    let url = if opts.force_https {
        Cow::Owned(url.with_scheme(Scheme::Https))
    } else {
        Cow::Borrowed(url)
    };
    let ip = match (&opts.front, url.host()) {
        // The front is a well-known CDN name; blocking it is the
        // collateral damage censors avoid, so its resolution follows the
        // censor's (non-)rules like any other name — and a front that
        // does not resolve is no transport at all.
        (Some(front), _) => resolve(world, provider, front, opts.dns, false, base, rng)
            .map_err(|_| FailureKind::TransportUnavailable)?,
        (None, Host::Ip(ip)) => *ip,
        (None, Host::Name(name)) => {
            let shortcut = opts.reject_private_resolution;
            resolve(world, provider, name, opts.dns, shortcut, base, rng)?
        }
    };
    let https = url.scheme() == Scheme::Https || opts.front.is_some();
    let sni = opts.front.as_deref().or(url.dns_name());
    connect(world, provider, ip, https, sni, base, rng)?;

    let backend = opts.front.as_ref().and_then(|_| url.dns_name());
    let (http, t) = world.http_exchange(provider, ip, &url, https, backend, None, rng);
    base.elapsed += t;
    let (mut page, resources) = match http {
        HttpStep::Response {
            bytes,
            html,
            truth_block_page,
            redirected,
            resources,
        } => (
            PageResult {
                bytes,
                html,
                truth_block_page,
                redirected,
            },
            resources,
        ),
        HttpStep::Timeout => return Err(FailureKind::HttpGetTimeout),
        HttpStep::Reset => return Err(FailureKind::HttpReset),
    };

    let (res_time, res_bytes, failures) =
        fetch_resources(world, provider, &resources, &url, https, opts, ip, rng);
    base.elapsed += res_time;
    page.bytes += res_bytes;
    Ok((page, failures))
}

/// Fetch the resources a document embeds: same-host resources reuse the
/// existing connection pool; each cross-host (CDN) group walks the ladder
/// itself, censored like any flow, and its connect time is not the base
/// document's.
#[allow(clippy::too_many_arguments)]
fn fetch_resources(
    world: &World,
    provider: &Provider,
    resources: &[Resource],
    page_url: &Url,
    https: bool,
    opts: &DirectOpts,
    base_ip: Ipv4Addr,
    rng: &mut DetRng,
) -> (SimDuration, u64, Vec<(Url, FailureKind)>) {
    // Host groups in name order (the draws below depend on it), each in
    // document order.
    let mut by_host: Vec<(Cow<'_, str>, &Resource)> = resources
        .iter()
        .map(|r| (host_key(r.url.host()), r))
        .collect();
    by_host.sort_by(|a, b| a.0.cmp(&b.0));
    let page_host = host_key(page_url.host());
    let mut failures = Vec::new();
    let mut total_bytes = 0u64;
    // Host groups load in parallel: the page waits for the slowest.
    let mut slowest = SimDuration::ZERO;
    let mut times = Vec::with_capacity(resources.len());
    for group in by_host.chunk_by(|a, b| a.0 == b.0) {
        let host = &group[0].0;
        let mut setup = Walk::default();
        let reached = if *host == page_host {
            Ok(base_ip)
        } else {
            resolve(world, provider, host, opts.dns, false, &mut setup, rng).and_then(|ip| {
                connect(world, provider, ip, https, Some(host), &mut setup, rng).map(|()| ip)
            })
        };
        let ip = match reached {
            Ok(ip) => ip,
            Err(kind) => {
                failures.extend(group.iter().map(|(_, r)| (r.url.clone(), kind)));
                slowest = slowest.max(setup.elapsed);
                continue;
            }
        };
        // Exchange each resource; spread across parallel lanes.
        times.clear();
        for (_, r) in group {
            let (step, t) = world.http_exchange(
                provider,
                ip,
                &r.url,
                https,
                opts.front.as_ref().and_then(|_| r.url.dns_name()),
                Some(r.bytes),
                rng,
            );
            times.push(t);
            match step {
                HttpStep::Response { bytes, .. } => total_bytes += bytes,
                HttpStep::Timeout => failures.push((r.url.clone(), FailureKind::HttpGetTimeout)),
                HttpStep::Reset => failures.push((r.url.clone(), FailureKind::HttpReset)),
            }
        }
        slowest = slowest.max(setup.elapsed + lanes_time::<BROWSER_LANES>(&mut times));
    }
    (slowest, total_bytes, failures)
}

/// A host as the resource walk groups and orders it: its name, or its
/// address written out.
fn host_key(host: &Host) -> Cow<'_, str> {
    match host {
        Host::Name(name) => Cow::Borrowed(name),
        Host::Ip(ip) => Cow::Owned(ip.to_string()),
    }
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
        return FetchReport::failed(FailureKind::TransportUnavailable, SimDuration::ZERO);
    };
    let Some(origin) = world.site(name) else {
        return FetchReport::failed(
            FailureKind::DnsNxdomain,
            per_hop_overhead * legs.len() as u64,
        );
    };

    // Compose the path: client -> leg1 -> leg2 -> ... -> origin.
    let mut path = world.path_to_site(provider, legs[0]);
    let mut prev = legs[0];
    for hop in legs[1..].iter().chain([&origin.location]) {
        let ms = prev.region.one_way_ms_to(hop.region);
        path = path.then(Link::wan(SimDuration::from_millis(ms) + hop.extra_one_way));
        prev = *hop;
    }

    let mut elapsed = per_hop_overhead * legs.len() as u64;

    // Circuit/tunnel establishment: one composed-path round trip, plus a
    // TLS-grade handshake to the first relay.
    let conn = csaw_simnet::tcp::connect(&path, &world.tcp, rng);
    let connect = conn.elapsed();
    elapsed += connect;
    let failed = |kind, elapsed| FetchReport {
        connect,
        ..FetchReport::failed(kind, elapsed)
    };
    if let Some(kind) = connect_failure(conn) {
        return failed(kind, elapsed);
    }

    // Base document: the relay needs the page's sizes, not its URLs.
    let sizes = origin.page_sizes(url);
    let html_bytes = sizes.html_bytes();
    let base = csaw_simnet::tcp::exchange(&path, html_bytes, &world.tcp, rng);
    elapsed += base.elapsed();
    if !base.is_done() {
        return failed(FailureKind::HttpGetTimeout, elapsed);
    }

    // Resources: all tunneled through the same circuit; cross-host
    // resources are resolved at the exit, uncensored.
    let resources = sizes.resource_bytes();
    let mut times = Vec::with_capacity(resources.len());
    let mut total_bytes = html_bytes;
    for bytes in resources {
        let ex = csaw_simnet::tcp::exchange(&path, bytes, &world.tcp, rng);
        times.push(ex.elapsed());
        if ex.is_done() {
            total_bytes += bytes;
        }
    }
    elapsed += lanes_time::<BROWSER_LANES>(&mut times);

    FetchReport {
        outcome: FetchOutcome::Page(PageResult {
            bytes: total_bytes,
            html: Markup::synthetic(origin.host.clone(), html_bytes.min(64_000) as usize),
            truth_block_page: false,
            redirected: false,
        }),
        elapsed,
        connect,
        resource_failures: Vec::new(),
    }
}

/// Greedy longest-processing-time assignment of transfer times onto
/// `LANES` parallel lanes, kept on the stack; returns the makespan.
/// Sorts `times`, longest first, in place.
pub fn lanes_time<const LANES: usize>(times: &mut [SimDuration]) -> SimDuration {
    const { assert!(LANES > 0, "a browser needs at least one lane") };
    times.sort_unstable_by(|a, b| b.cmp(a));
    let mut load = [SimDuration::ZERO; LANES];
    for &t in times.iter() {
        *load.iter_mut().min().expect("LANES > 0") += t;
    }
    load.into_iter().fold(SimDuration::ZERO, SimDuration::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{SiteSpec, World};
    use csaw_censor::{profiles, DnsTamper, HttpAction, IpAction, TlsAction};
    use csaw_simnet::topology::{AccessNetwork, Asn, Region};
    use csaw_webproto::page::WebPage;

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
        assert_eq!(lanes_time::<2>(&mut [ms(10); 4]), ms(20));
        // One big task dominates.
        assert_eq!(lanes_time::<2>(&mut [ms(10), ms(100), ms(10)]), ms(100));
        // Empty.
        assert_eq!(lanes_time::<6>(&mut []), SimDuration::ZERO);
        // More lanes than tasks: max task.
        assert_eq!(lanes_time::<6>(&mut [ms(5), ms(7)]), ms(7));
        // Longest first: 7 + 3 on one lane, 5 + 4 + 1 on the other.
        assert_eq!(
            lanes_time::<2>(&mut [ms(3), ms(4), ms(5), ms(7), ms(1)]),
            ms(10)
        );
    }

    #[test]
    fn genuine_plt_only_for_real_pages() {
        let (w, p) = world(profiles::isp_a(), profiles::ISP_A_ASN);
        let mut rng = DetRng::new(9);
        let opts = DirectOpts::default();
        let ok = Url::parse("http://example.com/").unwrap();
        let r = direct_like_fetch(&w, &p, &ok, &opts, &mut rng);
        assert_eq!(r.genuine_plt(), Some(r.elapsed));
        let blocked = Url::parse("http://www.youtube.com/").unwrap();
        let r = direct_like_fetch(&w, &p, &blocked, &opts, &mut rng);
        assert!(r.outcome.page().is_some());
        assert_eq!(r.genuine_plt(), None, "a block page is not a load");
        let failed = FetchReport::failed(FailureKind::HttpGetTimeout, SimDuration::from_secs(30));
        assert_eq!(failed.genuine_plt(), None);
    }

    #[test]
    fn an_error_document_has_no_resources() {
        // example.com does not serve by IP: the 400 it answers is the whole
        // page, whatever the real page at that path embeds.
        let (w, p) = world(profiles::clean(), Asn(1));
        let ip = w.resolve_true("example.com").unwrap();
        let url = Url::parse(&format!("http://{ip}/")).unwrap();
        let mut rng = DetRng::new(8);
        let r = direct_like_fetch(&w, &p, &url, &DirectOpts::default(), &mut rng);
        assert_eq!(r.outcome.page().expect("the 400 is a document").bytes, 512);
        assert!(r.resource_failures.is_empty());
        // Nothing was drawn after the document: connect + one exchange.
        let mut only_the_document = DetRng::new(8);
        w.tcp_connect(&p, ip, &mut only_the_document);
        w.http_exchange(&p, ip, &url, false, None, None, &mut only_the_document);
        assert_eq!(
            rng.range_u64(0, 1 << 63),
            only_the_document.range_u64(0, 1 << 63)
        );
    }

    /// Two pages of `media.example` embedding resources from
    /// `cdn.example`: `/` keeps five of eight on its own host, `/cdn-only`
    /// none.
    fn cdn_pages() -> (WebPage, WebPage) {
        let url = |path: &str| Url::parse(&format!("http://media.example{path}")).unwrap();
        let on_cdn = |mut page: WebPage, n: usize| {
            let start = page.resources.len() - n;
            for (i, r) in page.resources[start..].iter_mut().enumerate() {
                r.url = Url::parse(&format!("http://cdn.example/static/r{i}.bin")).unwrap();
            }
            page
        };
        (
            on_cdn(WebPage::synthetic(url("/"), 60_000, 8), 3),
            on_cdn(WebPage::synthetic(url("/cdn-only"), 60_000, 8), 8),
        )
    }

    /// A world serving [`cdn_pages`], plus `/bare`: the same document
    /// embedding nothing.
    fn cdn_world(policy: csaw_censor::CensorPolicy) -> (World, Provider) {
        let (mixed, cdn_only) = cdn_pages();
        let bare_url = Url::parse("http://media.example/bare").unwrap();
        let bare = WebPage::synthetic(bare_url, mixed.html_bytes, 0);
        let provider = Provider::new(Asn(2), "isp");
        let w = World::builder(AccessNetwork::single(provider.clone()))
            .site(
                SiteSpec::new("media.example", Site::in_region(Region::Germany))
                    .page(mixed)
                    .page(cdn_only)
                    .page(bare),
            )
            .site(SiteSpec::new(
                "cdn.example",
                Site::in_region(Region::Netherlands),
            ))
            .censor(Asn(2), policy)
            .build();
        (w, provider)
    }

    /// The ladder's second caller: a cross-host group blocked at `rung`
    /// fails every resource of that host with `kind`, costs the page what
    /// a fetch of that host stopped at the same rung costs, and leaves the
    /// base connect time and the same-host resources alone.
    fn cross_host_group_fails_at(
        scheme: &str,
        dns: DnsTamper,
        ip: IpAction,
        tls: TlsAction,
        kind: FailureKind,
    ) {
        let policy =
            profiles::single_mechanism("rung", "cdn.example", dns, ip, HttpAction::None, tls);
        let (w, p) = cdn_world(policy);
        let url = |path: &str| Url::parse(&format!("{scheme}://media.example{path}")).unwrap();
        // C-Saw's shortcut is the base lookup's alone: a CDN name hijacked
        // into private space still burns the connect ladder.
        let opts = DirectOpts {
            reject_private_resolution: true,
            ..DirectOpts::default()
        };
        // The document alone, then — from the draws it left off at — the
        // CDN host fetched as a base document: the ladder's first caller.
        let mut rng = DetRng::new(11);
        let bare = direct_like_fetch(&w, &p, &url("/bare"), &opts, &mut rng);
        assert!(bare.outcome.is_genuine_page(), "{:?}", bare.outcome);
        let cdn_url = Url::parse(&format!("{scheme}://cdn.example/")).unwrap();
        let ladder = direct_like_fetch(&w, &p, &cdn_url, &DirectOpts::default(), &mut rng);
        assert_eq!(ladder.outcome.failure(), Some(kind));

        let (mixed, cdn_page) = cdn_pages();
        let r = direct_like_fetch(&w, &p, &url("/cdn-only"), &opts, &mut DetRng::new(11));
        let expected: Vec<(Url, FailureKind)> = cdn_page
            .resources
            .iter()
            .map(|res| (res.url.clone(), kind))
            .collect();
        assert_eq!(r.resource_failures, expected);
        assert_eq!(r.elapsed, bare.elapsed + ladder.elapsed);
        assert_eq!(
            r.connect, bare.connect,
            "a cross-host connect is not the base's"
        );
        assert_eq!(r.outcome.page().unwrap().bytes, cdn_page.html_bytes);

        let r = direct_like_fetch(&w, &p, &url("/"), &opts, &mut DetRng::new(11));
        assert_eq!(r.resource_failures, expected[..3]);
        assert_eq!(r.connect, bare.connect);
        let same_host: u64 = mixed.resources[..5].iter().map(|res| res.bytes).sum();
        assert_eq!(
            r.outcome.page().unwrap().bytes,
            mixed.html_bytes + same_host
        );
        // Host groups load in parallel: the page waits for the slower of
        // the failed ladder and the same-host transfers, not their sum.
        let resources_time = r.elapsed - bare.elapsed;
        assert!(resources_time >= ladder.elapsed);
        if ladder.elapsed >= SimDuration::from_secs(8) {
            assert_eq!(resources_time, ladder.elapsed);
        }
    }

    #[test]
    fn cross_host_dns_failure_marks_the_group() {
        let hijack = DnsTamper::HijackTo("10.9.9.9".parse().unwrap());
        for (dns, kind) in [
            (DnsTamper::Drop, FailureKind::DnsNoResponse),
            (DnsTamper::Nxdomain, FailureKind::DnsNxdomain),
            (DnsTamper::Servfail, FailureKind::DnsServfail),
            (DnsTamper::Refused, FailureKind::DnsRefused),
            (hijack, FailureKind::ConnectTimeout),
        ] {
            cross_host_group_fails_at("http", dns, IpAction::None, TlsAction::None, kind);
        }
    }

    #[test]
    fn cross_host_connect_failure_marks_the_group() {
        for (ip, kind) in [
            (IpAction::Drop, FailureKind::ConnectTimeout),
            (IpAction::Rst, FailureKind::ConnectReset),
        ] {
            cross_host_group_fails_at("http", DnsTamper::None, ip, TlsAction::None, kind);
        }
    }

    #[test]
    fn cross_host_tls_failure_marks_the_group() {
        for (tls, kind) in [
            (TlsAction::Drop, FailureKind::TlsTimeout),
            (TlsAction::Rst, FailureKind::TlsReset),
        ] {
            cross_host_group_fails_at("https", DnsTamper::None, IpAction::None, tls, kind);
        }
    }

    #[test]
    fn connect_time_is_the_base_documents() {
        let (w, p) = world(profiles::clean(), Asn(1));
        let mut rng = DetRng::new(7);
        let url = Url::parse("https://example.com/").unwrap();
        let r = direct_like_fetch(&w, &p, &url, &DirectOpts::default(), &mut rng);
        assert!(r.outcome.is_genuine_page(), "{:?}", r.outcome);
        assert!(r.connect > SimDuration::ZERO);
        assert!(r.connect < r.elapsed, "{} vs {}", r.connect, r.elapsed);
        // An NXDOMAIN ends the walk before any connect.
        let nowhere = Url::parse("https://nowhere.example/").unwrap();
        let r = direct_like_fetch(&w, &p, &nowhere, &DirectOpts::default(), &mut rng);
        assert_eq!(r.outcome.failure(), Some(FailureKind::DnsNxdomain));
        assert_eq!(r.connect, SimDuration::ZERO);
    }
}
