//! Direct-style fetch ↔ recorded draws.
//!
//! Every direct-style transport (and C-Saw's detector on top of them) is
//! a composition of the world's DNS → connect → TLS → HTTP primitives,
//! and what a fetch reports *and how many `DetRng` draws it makes* are
//! part of the determinism contract (same seed ⇒ byte-identical
//! experiment output). This test replays a grid of worlds, censor
//! policies, URLs and seeds through each transport, folds the `Debug`
//! rendering of every report's fields and the generator's next draw into
//! one digest per transport, and compares it with a constant recorded
//! from the implementation this file was first written against. A
//! refactor of the fetch pipeline keeps every constant; a deliberate
//! behaviour change re-blesses exactly the rows it names (the failure
//! message prints the recomputed table).

use csaw::measure::{measure_direct, DirectMeasurement};
use csaw_censor::{profiles, CensorPolicy, DnsTamper, HttpAction, IpAction, TlsAction};
use csaw_circumvent::fetch::FetchReport;
use csaw_circumvent::transports::{
    Direct, DomainFronting, FetchCtx, HoldOnDns, HttpsUpgrade, IpAsHostname, PublicDns, Transport,
};
use csaw_circumvent::world::{SiteSpec, World};
use csaw_simnet::rng::{fnv1a, fnv1a_fold, DetRng};
use csaw_simnet::time::SimTime;
use csaw_simnet::topology::{AccessNetwork, Asn, Provider, Region, Site};
use csaw_webproto::page::WebPage;
use csaw_webproto::url::{Scheme, Url};
use std::net::Ipv4Addr;

const SEEDS: u64 = 16;
const FRONT: &str = "cdn-front.example";
/// The origin the mechanism sweep aims at: HTTPS-capable, frontable,
/// serves by IP, and its page embeds resources from [`CDN`].
const MEDIA: &str = "media.example";
const CDN: &str = "cdn.example";
/// Origins that answer a literal-IP request with `400 Bad Request`.
const NOT_BY_IP: [&str; 4] = ["plain.example", "legacy.example", "www.youtube.com", FRONT];

fn world(asn: Asn, policy: CensorPolicy, public_dns_intercepted: bool) -> (World, FetchCtx) {
    let provider = Provider::new(asn, "isp");
    let media_url = Url::parse(&format!("http://{MEDIA}/")).unwrap();
    // The last three of its eight resources live on the CDN.
    let mut media = WebPage::synthetic(media_url, 12_000, 8);
    for (i, r) in media.resources[5..].iter_mut().enumerate() {
        r.url = Url::parse(&format!("http://{CDN}/static/r{i}.bin")).unwrap();
    }
    let mut w = World::builder(AccessNetwork::single(provider.clone()))
        // A same-host page.
        .site(
            SiteSpec::new("plain.example", Site::in_region(Region::UsEast)).default_page(95_000, 6),
        )
        // A page with CDN resources.
        .site(
            SiteSpec::new(MEDIA, Site::in_region(Region::Germany))
                .category(csaw_censor::Category::Social)
                .frontable(true)
                .serves_by_ip(true)
                .page(media),
        )
        .site(SiteSpec::new(CDN, Site::in_region(Region::Netherlands)))
        // An HTTPS-less origin.
        .site(SiteSpec {
            https: false,
            ..SiteSpec::new("legacy.example", Site::in_region(Region::Pakistan))
                .default_page(20_000, 2)
        })
        // A frontable origin and its front.
        .site(
            SiteSpec::new("www.youtube.com", Site::at_vantage_rtt(Region::UsEast, 186))
                .category(csaw_censor::Category::Video)
                .frontable(true)
                .default_page(360_000, 20),
        )
        .site(SiteSpec::new(FRONT, Site::in_region(Region::Singapore)).frontable(true))
        // A `serves_by_ip` origin.
        .site(
            SiteSpec::new("porn-site.example", Site::in_region(Region::Netherlands))
                .category(csaw_censor::Category::Porn)
                .serves_by_ip(true)
                .default_page(50_000, 4),
        )
        .censor(asn, policy)
        .build();
    w.set_public_dns_intercepted(public_dns_intercepted);
    let ctx = FetchCtx {
        now: SimTime::ZERO,
        provider,
    };
    (w, ctx)
}

fn named_urls(host: &str) -> Vec<Url> {
    ["http://{}/", "https://{}/", "http://{}/watch?v=1"]
        .iter()
        .map(|form| Url::parse(&form.replace("{}", host)).unwrap())
        .collect()
}

fn ip_url(w: &World, host: &str) -> Url {
    Url::parse(&format!("http://{}/", w.resolve_true(host).unwrap())).unwrap()
}

/// The four ready-made profiles, each under its own AS.
fn profile_policies() -> Vec<(Asn, CensorPolicy)> {
    vec![
        (Asn(7), profiles::clean()),
        (profiles::ISP_A_ASN, profiles::isp_a()),
        (profiles::ISP_B_ASN, profiles::isp_b()),
        (Asn(3), profiles::keyword_filter(&["porn", "watch"])),
    ]
}

/// `single_mechanism` aimed at `domain`: every IP and HTTP action under
/// each of the given DNS and TLS ones.
fn mechanism_sweep(domain: &str, dns: &[DnsTamper], tls: &[TlsAction]) -> Vec<CensorPolicy> {
    let ip = [IpAction::None, IpAction::Drop, IpAction::Rst];
    let http = [
        HttpAction::None,
        HttpAction::Drop,
        HttpAction::Rst,
        HttpAction::BlockPageRedirect,
        HttpAction::BlockPageInline,
    ];
    let mut out = Vec::new();
    for d in dns {
        for i in ip {
            for h in http {
                for t in tls {
                    out.push(profiles::single_mechanism("sweep", domain, *d, i, h, *t));
                }
            }
        }
    }
    out
}

const EVERY_DNS_TAMPER: [DnsTamper; 6] = [
    DnsTamper::None,
    DnsTamper::Drop,
    DnsTamper::HijackTo(Ipv4Addr::new(10, 9, 9, 9)),
    DnsTamper::Nxdomain,
    DnsTamper::Servfail,
    DnsTamper::Refused,
];
const EVERY_TLS_ACTION: [TlsAction; 3] = [TlsAction::None, TlsAction::Drop, TlsAction::Rst];

/// One row of the table: something that fetches `url` and renders what
/// it saw.
type Subject = Box<dyn FnMut(&World, &FetchCtx, &Url, &mut DetRng) -> String>;
type MakeSubject = fn() -> Subject;

fn transport<T: Transport + 'static>(mut t: T) -> Subject {
    Box::new(move |w, ctx, url, rng| report_fields(&t.fetch(w, ctx, url, rng)))
}

/// Every field of a transport's report, destructured so that a field
/// added to [`FetchReport`] has to be added here too.
fn report_fields(r: &FetchReport) -> String {
    let FetchReport {
        outcome,
        elapsed,
        connect,
        resource_failures,
    } = r;
    format!("{outcome:?} {elapsed:?} {connect:?} {resource_failures:?}")
}

/// Every field of a direct-path measurement, destructured likewise.
fn measurement_fields(m: &DirectMeasurement) -> String {
    let DirectMeasurement {
        status,
        stages,
        detection_time,
        elapsed,
        page_bytes,
        phase1_flagged,
    } = m;
    format!("{status:?} {stages:?} {detection_time:?} {elapsed:?} {page_bytes:?} {phase1_flagged}")
}

/// The rows, in table order. A subject is made fresh per (world, seed),
/// so `IpAsHostname`'s cache is exercised within a seed's URL list only.
fn subjects() -> Vec<(&'static str, MakeSubject)> {
    vec![
        ("direct", || transport(Direct)),
        ("public-dns", || transport(PublicDns)),
        ("hold-on-dns", || transport(HoldOnDns)),
        ("https", || transport(HttpsUpgrade { public_dns: false })),
        ("https+public-dns", || {
            transport(HttpsUpgrade { public_dns: true })
        }),
        ("domain-fronting", || transport(DomainFronting::via(FRONT))),
        ("ip-as-hostname", || transport(IpAsHostname::default())),
        ("measure-direct", || {
            let mut phase2 = true;
            Box::new(move |w, ctx, url, rng| {
                // Alternate phase 2 off / on (a 100 KB circumvention copy).
                phase2 = !phase2;
                let circ_bytes = phase2.then_some(100_000);
                measurement_fields(&measure_direct(w, &ctx.provider, url, circ_bytes, rng))
            })
        }),
    ]
}

struct Row {
    digest: u64,
    fetches: u64,
}

/// Fetch every URL under every seed with each subject, folding the
/// rendering and the generator's next draw into that subject's row.
fn replay(rows: &mut [Row], w: &World, ctx: &FetchCtx, urls: &[Url]) {
    for (row, (_, make)) in rows.iter_mut().zip(subjects()) {
        for seed in 0..SEEDS {
            let mut subject = make();
            let mut rng = DetRng::new(seed);
            for url in urls {
                let seen = subject(w, ctx, url, &mut rng);
                let next = rng.clone().range_u64(0, 1 << 63);
                row.digest = fnv1a_fold(row.digest, seen.as_bytes());
                row.digest = fnv1a_fold(row.digest, &next.to_le_bytes());
                row.fetches += 1;
            }
        }
    }
}

fn new_rows() -> Vec<Row> {
    subjects()
        .iter()
        .map(|_| Row {
            digest: fnv1a(b"fetch_equivalence"),
            fetches: 0,
        })
        .collect()
}

fn check(table: &str, rows: &[Row], want: &[u64]) {
    let got: Vec<u64> = rows.iter().map(|r| r.digest).collect();
    for ((name, _), row) in subjects().iter().zip(rows) {
        assert!(
            row.fetches >= 5_000,
            "{table}/{name}: only {} fetches",
            row.fetches
        );
    }
    let rendered: Vec<String> = subjects()
        .iter()
        .zip(&got)
        .map(|((name, _), d)| format!("    {d:#018x}, // {name}"))
        .collect();
    assert_eq!(
        got,
        want,
        "{table}: a fetch reported or drew differently; recomputed table:\n{}",
        rendered.join("\n")
    );
}

/// Everything except literal-IP requests to origins that do not serve by
/// IP: held fixed through any refactor of the fetch pipeline.
#[test]
fn every_transport_reports_and_draws_what_it_did() {
    let mut rows = new_rows();
    for intercepted in [false, true] {
        // Ready-made profiles: every origin, every URL form.
        for (asn, policy) in profile_policies() {
            let (w, ctx) = world(asn, policy, intercepted);
            let mut urls = Vec::new();
            for host in [
                "plain.example",
                MEDIA,
                "legacy.example",
                "www.youtube.com",
                "porn-site.example",
                "nowhere.example",
            ] {
                urls.extend(named_urls(host));
            }
            urls.push(ip_url(&w, MEDIA));
            urls.push(ip_url(&w, "porn-site.example"));
            replay(&mut rows, &w, &ctx, &urls);
        }
        // Every mechanism combination, aimed at the origin and at the
        // CDN its page embeds.
        for domain in [MEDIA, CDN] {
            for policy in mechanism_sweep(domain, &EVERY_DNS_TAMPER, &EVERY_TLS_ACTION) {
                let (w, ctx) = world(Asn(9), policy, intercepted);
                let mut urls = named_urls(MEDIA);
                urls[2] = ip_url(&w, MEDIA);
                replay(&mut rows, &w, &ctx, &urls);
            }
        }
    }
    check(
        "main",
        &rows,
        &[
            0xc893da3cb5468a28, // direct
            0x29dcb32ef227ae53, // public-dns
            0x8bba2b20725356d2, // hold-on-dns
            0x2581bcbcc9085db4, // https
            0x3036b201c45fb25f, // https+public-dns
            0x0324f64e3c845334, // domain-fronting
            0x2a49f6633c73dcfc, // ip-as-hostname
            0x5e64d30f3eded5e9, // measure-direct
        ],
    );
}

/// Literal-IP requests to origins without `serves_by_ip`: the one place
/// the pipeline's behaviour was deliberately changed after this file was
/// written (an error document embeds nothing), in a row of its own so a
/// re-bless of it cannot hide a change anywhere else.
#[test]
fn literal_ip_to_an_origin_that_does_not_serve_by_ip() {
    let mut rows = new_rows();
    for intercepted in [false, true] {
        // A literal-IP request never asks a resolver.
        let mut policies = profile_policies();
        policies.extend(
            mechanism_sweep("plain.example", &[DnsTamper::None], &EVERY_TLS_ACTION)
                .into_iter()
                .map(|p| (Asn(9), p)),
        );
        for (asn, policy) in policies {
            let (w, ctx) = world(asn, policy, intercepted);
            let urls: Vec<Url> = NOT_BY_IP
                .iter()
                .flat_map(|h| {
                    let http = ip_url(&w, h);
                    let https = http.with_scheme(Scheme::Https);
                    [http, https]
                })
                .collect();
            replay(&mut rows, &w, &ctx, &urls);
        }
    }
    check(
        "literal-ip",
        &rows,
        &[
            0x5fbe86b60dcec168, // direct
            0x5fbe86b60dcec168, // public-dns
            0x5fbe86b60dcec168, // hold-on-dns
            0x00de48eda88924a8, // https
            0x00de48eda88924a8, // https+public-dns
            0x102dc8897ad09af4, // domain-fronting
            0x5fbe86b60dcec168, // ip-as-hostname
            0xd6efaa12537cc640, // measure-direct
        ],
    );
}
