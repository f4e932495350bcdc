//! End-to-end tests of the real-socket proxy over 127.0.0.1: browser →
//! C-Saw proxy → censoring middlebox → origin, all actual TCP, with the
//! proxy's client registered at, and posting to, a live `csaw-dbserver`.

use csaw::client::CsawClient;
use csaw::config::CsawConfig;
use csaw::global::{ConfidenceFilter, GlobalApi, RemoteDb, ServerDb};
use csaw::local::{LocalRecord, Status};
use csaw_censor::BlockingType;
use csaw_dbserver::{spawn_dbserver, DbServerConfig, DbServerHandle};
use csaw_proxy::testbed::{
    spawn_middlebox, spawn_origin, MbAction, MbPolicy, OriginConfig, TestResolver,
};
use csaw_proxy::{spawn_proxy, CsawProxy, ProxyConfig};
use csaw_simnet::time::SimTime;
use csaw_simnet::topology::Asn;
use csaw_webproto::bytes::BytesMut;
use csaw_webproto::codec::{read_response, write_request};
use csaw_webproto::http::{Method, Request, Response};
use csaw_webproto::url::Url;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const ASN: Asn = Asn(17557);

struct Testbed {
    proxy: CsawProxy,
    middlebox: csaw_proxy::Middlebox,
    resolver: Arc<TestResolver>,
    remote: RemoteDb,
    _db: DbServerHandle,
    _origins: Vec<csaw_proxy::Origin>,
}

fn testbed() -> Testbed {
    testbed_on(ServerDb::builder(5).build().unwrap())
}

/// The testbed with `server` behind its `csaw-dbserver`. Its middlebox
/// block-pages `video-site.test` from the start.
fn testbed_on(server: ServerDb) -> Testbed {
    let blocked = spawn_origin(OriginConfig::new("blocked.test", 50_000).page(
        "/small",
        "<html><body>tiny real page with plenty of words in it</body></html>",
    ))
    .unwrap();
    let clean = spawn_origin(OriginConfig::new("clean.test", 30_000)).unwrap();
    let video = spawn_origin(OriginConfig::new("video-site.test", 60_000)).unwrap();
    let mut policy = MbPolicy {
        block_page_html: "<html><head><title>Blocked</title></head><body><h1>Access Denied</h1>\
             <p>restricted by court order</p></body></html>"
            .into(),
        ..Default::default()
    };
    policy.routes.insert("blocked.test".into(), blocked.addr);
    policy.routes.insert("clean.test".into(), clean.addr);
    policy.routes.insert("video-site.test".into(), video.addr);
    policy
        .actions
        .insert("video-site.test".into(), MbAction::BlockPage);
    let middlebox = spawn_middlebox(policy).unwrap();
    let resolver = Arc::new(TestResolver::new());
    resolver.insert("blocked.test", middlebox.addr, blocked.addr);
    resolver.insert("clean.test", middlebox.addr, clean.addr);
    resolver.insert("video-site.test", middlebox.addr, video.addr);
    let db = spawn_dbserver(Arc::new(server), DbServerConfig::default()).unwrap();
    let remote = RemoteDb::new(db.addr());
    let mut client = CsawClient::new(CsawConfig::default(), None, 1);
    client.register(&remote, ASN, SimTime::ZERO, 0.0).unwrap();
    let proxy = spawn_proxy(
        Arc::clone(&resolver),
        client,
        ProxyConfig {
            get_timeout: Duration::from_millis(400),
            asn: ASN,
        },
    )
    .unwrap();
    Testbed {
        proxy,
        middlebox,
        resolver,
        remote,
        _db: db,
        _origins: vec![blocked, clean, video],
    }
}

fn browse(proxy: &CsawProxy, host: &str) -> Response {
    let mut s = TcpStream::connect(proxy.addr).unwrap();
    let url = Url::parse(&format!("http://{host}/")).unwrap();
    write_request(&mut s, &Request::get(&url)).unwrap();
    let mut buf = BytesMut::new();
    read_response(&mut s, &mut buf).unwrap()
}

/// The proxy client's local-DB record for a host at time zero.
fn record(proxy: &CsawProxy, host: &str) -> Option<LocalRecord> {
    let url = Url::parse(&format!("http://{host}/")).unwrap();
    proxy
        .client()
        .local_db
        .lookup(&url, SimTime::ZERO)
        .record
        .cloned()
}

fn stages(proxy: &CsawProxy, host: &str) -> Vec<BlockingType> {
    let r = record(proxy, host).expect("host measured");
    assert_eq!(r.status, Status::Blocked, "{r:?}");
    r.stages
}

#[test]
fn clean_host_served_direct() {
    let tb = testbed();
    let r = browse(&tb.proxy, "clean.test");
    assert_eq!(r.status, 200);
    assert!(r.body.len() > 25_000);
    assert_eq!(
        record(&tb.proxy, "clean.test").map(|r| r.status),
        Some(Status::NotBlocked)
    );
    assert_eq!(tb.proxy.client().pending_reports(), 0);
}

#[test]
fn block_page_detected_and_circumvented() {
    let tb = testbed();
    tb.middlebox.set_action("blocked.test", MbAction::BlockPage);
    let r = browse(&tb.proxy, "blocked.test");
    let body = String::from_utf8_lossy(&r.body);
    assert!(
        !body.contains("Access Denied"),
        "user must get the genuine page, got block page"
    );
    assert!(r.body.len() > 25_000, "genuine page is large");
    assert_eq!(
        stages(&tb.proxy, "blocked.test"),
        [BlockingType::HttpBlockPageInline]
    );
}

#[test]
fn dropped_get_detected_and_circumvented() {
    let tb = testbed();
    tb.middlebox
        .set_action("blocked.test", MbAction::DropRequest);
    let r = browse(&tb.proxy, "blocked.test");
    assert_eq!(r.status, 200);
    assert!(r.body.len() > 25_000);
    assert_eq!(stages(&tb.proxy, "blocked.test"), [BlockingType::HttpDrop]);
}

#[test]
fn reset_detected_and_circumvented() {
    let tb = testbed();
    tb.middlebox.set_action("blocked.test", MbAction::Reset);
    let r = browse(&tb.proxy, "blocked.test");
    assert_eq!(r.status, 200);
    assert_eq!(stages(&tb.proxy, "blocked.test"), [BlockingType::HttpRst]);
}

#[test]
fn direct_connect_failure_is_ip_rst_on_a_host_seen_clean() {
    // Regression: a refused direct connect on a host already measured
    // clean was recorded as `HttpRst`, where a first visit records the
    // same failure as `IpRst`.
    let tb = testbed();
    browse(&tb.proxy, "clean.test");
    let closed = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let clean_path = tb.resolver.resolve("clean.test").unwrap().clean;
    tb.resolver.insert("clean.test", closed, clean_path);
    let r = browse(&tb.proxy, "clean.test");
    assert_eq!(r.status, 200, "served over the clean path");
    assert_eq!(stages(&tb.proxy, "clean.test"), [BlockingType::IpRst]);
}

#[test]
fn mid_run_blocking_event_caught_by_inline_measurement() {
    let tb = testbed();
    // Phase 1: clean. Establishes NotBlocked status.
    let r = browse(&tb.proxy, "blocked.test");
    assert!(r.body.len() > 25_000);
    assert_eq!(
        record(&tb.proxy, "blocked.test").map(|r| r.status),
        Some(Status::NotBlocked)
    );
    // Phase 2: the censor switches on (the §7.5 event).
    tb.middlebox.set_action("blocked.test", MbAction::BlockPage);
    let r = browse(&tb.proxy, "blocked.test");
    let body = String::from_utf8_lossy(&r.body);
    assert!(
        !body.contains("Access Denied"),
        "served genuine content after refresh"
    );
    assert_eq!(
        stages(&tb.proxy, "blocked.test"),
        [BlockingType::HttpBlockPageInline]
    );
    // Phase 3: subsequent requests go straight to circumvention.
    let r = browse(&tb.proxy, "blocked.test");
    assert!(r.body.len() > 25_000);
}

/// Post the proxy client's queue to the live server and read back what
/// the server answers for the proxy's AS.
fn post_and_read_blocked(tb: &Testbed) -> Vec<(String, Vec<BlockingType>)> {
    let mut client = tb.proxy.client();
    assert_eq!(client.post_reports(&tb.remote, SimTime::from_secs(1)), 1);
    assert!(client.reports_balanced(), "{:?}", client.stats);
    tb.remote
        .blocked_for_as(ASN, &ConfidenceFilter::default())
        .unwrap()
        .into_iter()
        .map(|r| (r.url, r.stages))
        .collect()
}

#[test]
fn measurement_log_exports_reports() {
    let tb = testbed();
    tb.middlebox.set_action("blocked.test", MbAction::BlockPage);
    browse(&tb.proxy, "blocked.test");
    assert_eq!(
        post_and_read_blocked(&tb),
        [(
            "http://blocked.test/".to_string(),
            vec![BlockingType::HttpBlockPageInline]
        )]
    );
}

#[test]
fn concurrent_browsers_share_measurements() {
    let tb = testbed();
    tb.middlebox
        .set_action("blocked.test", MbAction::DropRequest);
    // Ten concurrent browsers hit the blocked host at once.
    let mut handles = Vec::new();
    for _ in 0..10 {
        let addr = tb.proxy.addr;
        handles.push(std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let url = Url::parse("http://blocked.test/").unwrap();
            write_request(&mut s, &Request::get(&url)).unwrap();
            let mut buf = BytesMut::new();
            read_response(&mut s, &mut buf).unwrap()
        }));
    }
    for h in handles {
        let r = h.join().unwrap();
        assert_eq!(r.status, 200);
        assert!(r.body.len() > 25_000);
    }
    // Blocked regardless of interleaving, and reported exactly once.
    assert_eq!(stages(&tb.proxy, "blocked.test"), [BlockingType::HttpDrop]);
    assert_eq!(tb.proxy.client().pending_reports(), 1);
}

#[test]
fn absolute_form_targets_are_rewritten() {
    // Browsers talking to a forward proxy send absolute-form targets
    // ("GET http://host/path HTTP/1.1"); upstreams expect origin-form.
    let tb = testbed();
    let mut s = TcpStream::connect(tb.proxy.addr).unwrap();
    let mut req = Request::get(&Url::parse("http://clean.test/some/page").unwrap());
    req.target = "http://clean.test/some/page".to_string();
    write_request(&mut s, &req).unwrap();
    let mut buf = BytesMut::new();
    let resp = read_response(&mut s, &mut buf).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.len() > 25_000, "origin served the page");
}

#[test]
fn https_scheme_is_preserved_in_reports() {
    // A browser asking the proxy for an https URL (absolute-form
    // target) must see that scheme in the posted report — a censor
    // blocking https://host but not http://host is a distinct record.
    let tb = testbed();
    tb.middlebox.set_action("blocked.test", MbAction::BlockPage);
    let mut s = TcpStream::connect(tb.proxy.addr).unwrap();
    let mut req = Request::get(&Url::parse("http://blocked.test/").unwrap());
    req.target = "https://blocked.test/".to_string();
    write_request(&mut s, &req).unwrap();
    let mut buf = BytesMut::new();
    let r = read_response(&mut s, &mut buf).unwrap();
    assert_eq!(r.status, 200, "circumvented copy served");
    let blocked = post_and_read_blocked(&tb);
    assert_eq!(blocked.len(), 1);
    assert_eq!(blocked[0].0, "https://blocked.test/");
}

#[test]
fn measurements_are_stamped_on_the_obs_clock() {
    // The pipeline runs on virtual time; a proxy spawned inside an
    // observability scope must stamp measurements from that scope's
    // clock, not from a private wall-clock epoch — and expire them on
    // that clock too.
    let clock = Arc::new(csaw_obs::clock::ManualClock::new());
    clock.set_us(1_234_567);
    let ctx = Arc::new(csaw_obs::scope::ObsCtx::new().with_clock(clock.clone()));
    let _g = csaw_obs::scope::install(ctx.clone());
    let tb = testbed();
    tb.middlebox.set_action("blocked.test", MbAction::BlockPage);
    browse(&tb.proxy, "blocked.test");
    let url = Url::parse("http://blocked.test/").unwrap();
    let now = SimTime::from_micros(1_234_567);
    let rec = tb.proxy.client().local_db.lookup(&url, now).record.cloned();
    assert_eq!(rec.map(|r| r.measured_at), Some(now));
    // Past the record TTL the host reads unmeasured, so the next visit
    // races both paths again.
    clock.set_us((now + csaw::config::RECORD_TTL).as_micros());
    browse(&tb.proxy, "blocked.test");
    assert_eq!(ctx.registry.counter("proxy.redundant_requests").get(), 2);
}

#[test]
fn a_post_is_never_sent_down_both_paths() {
    // §4.3.1: a request that is not safe to duplicate takes one path,
    // even to a host never measured; a GET to such a host races both.
    let ctx = Arc::new(csaw_obs::scope::ObsCtx::new());
    let _g = csaw_obs::scope::install(ctx.clone());
    let tb = testbed();
    let redundant = || ctx.registry.counter("proxy.redundant_requests").get();
    let mut s = TcpStream::connect(tb.proxy.addr).unwrap();
    let mut post = Request::get(&Url::parse("http://clean.test/").unwrap());
    post.method = Method::Post;
    write_request(&mut s, &post).unwrap();
    let r = read_response(&mut s, &mut BytesMut::new()).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(redundant(), 0, "the POST reached the origin twice");
    browse(&tb.proxy, "blocked.test");
    assert_eq!(redundant(), 1);
}

#[test]
fn a_clean_post_measures_its_host() {
    // A POST to an unmeasured host goes direct with in-line detection; a
    // clean answer records the host clean, so the next GET does not race
    // both paths to measure it again.
    let ctx = Arc::new(csaw_obs::scope::ObsCtx::new());
    let _g = csaw_obs::scope::install(ctx.clone());
    let tb = testbed();
    let mut s = TcpStream::connect(tb.proxy.addr).unwrap();
    let mut post = Request::get(&Url::parse("http://clean.test/").unwrap());
    post.method = Method::Post;
    write_request(&mut s, &post).unwrap();
    let r = read_response(&mut s, &mut BytesMut::new()).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(
        record(&tb.proxy, "clean.test").map(|r| r.status),
        Some(Status::NotBlocked)
    );
    assert_eq!(browse(&tb.proxy, "clean.test").status, 200);
    assert_eq!(
        ctx.registry.counter("proxy.redundant_requests").get(),
        0,
        "the GET raced both paths to a measured host"
    );
}

#[test]
fn a_synced_verdict_skips_the_race() {
    // Algorithm 1 consults the synced global view before any
    // first-contact measurement: a host the DB already lists as blocked
    // for the proxy's AS is served by circumvention alone on its first
    // visit, with no copy down the censored path.
    let ctx = Arc::new(csaw_obs::scope::ObsCtx::new());
    let _g = csaw_obs::scope::install(ctx.clone());
    let server = ServerDb::builder(5).build().unwrap();
    let mut peer = CsawClient::new(CsawConfig::default(), None, 2);
    peer.register(&server, ASN, SimTime::ZERO, 0.0).unwrap();
    let url = Url::parse("http://video-site.test/").unwrap();
    peer.record_verdict(
        &url,
        ASN,
        SimTime::ZERO,
        vec![BlockingType::HttpBlockPageInline],
    );
    assert_eq!(peer.post_reports(&server, SimTime::ZERO), 1);
    let tb = testbed_on(server);
    let r = browse(&tb.proxy, "video-site.test");
    assert_eq!(r.status, 200);
    assert!(
        !String::from_utf8_lossy(&r.body).contains("Access Denied"),
        "user must get the genuine page, got block page"
    );
    assert!(r.body.len() > 50_000, "genuine page is large");
    let counter = |name| ctx.registry.counter(name).get();
    assert_eq!(
        counter("proxy.redundant_requests"),
        0,
        "raced a listed host"
    );
    assert_eq!(counter("proxy.circumvention_only"), 1);
}

#[test]
fn proxy_spans_reach_the_spawners_sink() {
    // Regression: handler threads did not inherit the spawner's scope,
    // so each request's span went to the handler thread's null sink.
    let sink = Arc::new(csaw_obs::BufferSink::new());
    let ctx = Arc::new(csaw_obs::ObsCtx::new().with_sink(sink.clone()));
    let _g = csaw_obs::install(ctx);
    let tb = testbed();
    sink.take();
    browse(&tb.proxy, "clean.test");
    let spans = sink
        .take()
        .into_iter()
        .filter(|e| e.name == "proxy.request" && e.dur_us.is_some())
        .count();
    assert_eq!(spans, 1);
}

#[test]
fn shutdown_does_not_race_arriving_clients() {
    // Regression: the old accept loop checked `stop` only after a
    // blocking accept() returned, so Drop had to inject a wake-up
    // connection that raced real clients arriving at shutdown. Drop
    // while a swarm of clients is mid-connect: it must return promptly
    // (the harness timeout is the failure detector) and never panic.
    for _ in 0..10 {
        let tb = testbed();
        let addr = tb.proxy.addr;
        let hammering: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        let _ = TcpStream::connect(addr);
                    }
                })
            })
            .collect();
        drop(tb);
        for h in hammering {
            h.join().unwrap();
        }
    }
}

#[test]
fn garbage_input_does_not_wedge_the_proxy() {
    use std::io::Write;
    let tb = testbed();
    // A client that speaks nonsense gets dropped...
    let mut bad = TcpStream::connect(tb.proxy.addr).unwrap();
    bad.write_all(b"\x16\x03\x01\x02\x00garbage not http at all\r\n\r\n")
        .unwrap();
    bad.flush().unwrap();
    drop(bad);
    // ...and the proxy keeps serving everyone else.
    let r = browse(&tb.proxy, "clean.test");
    assert_eq!(r.status, 200);
}

#[test]
fn missing_host_header_is_a_client_error() {
    let tb = testbed();
    let mut s = TcpStream::connect(tb.proxy.addr).unwrap();
    let mut req = Request::get(&Url::parse("http://clean.test/").unwrap());
    req.headers.remove("Host");
    write_request(&mut s, &req).unwrap();
    let mut buf = BytesMut::new();
    let resp = read_response(&mut s, &mut buf).unwrap();
    assert_eq!(resp.status, 400);
}

#[test]
fn unresolvable_host_is_bad_gateway() {
    let tb = testbed();
    let r = browse(&tb.proxy, "not-in-resolver.test");
    assert_eq!(r.status, 502);
}
