//! End-to-end tests of the real-socket proxy over 127.0.0.1: browser →
//! C-Saw proxy → censoring middlebox → origin, all actual TCP.

use csaw_proxy::codec::{read_response, write_request};
use csaw_proxy::testbed::{
    spawn_middlebox, spawn_origin, MbAction, MbPolicy, OriginConfig, TestResolver,
};
use csaw_proxy::{spawn_proxy, CsawProxy, HostStatus, ProxyConfig, ProxySignature};
use csaw_webproto::bytes::BytesMut;
use csaw_webproto::http::{Request, Response};
use csaw_webproto::url::Url;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

struct Testbed {
    proxy: CsawProxy,
    middlebox: csaw_proxy::Middlebox,
    _origins: Vec<csaw_proxy::Origin>,
}

fn testbed() -> Testbed {
    let blocked = spawn_origin(OriginConfig::new("blocked.test", 50_000).page(
        "/small",
        "<html><body>tiny real page with plenty of words in it</body></html>",
    ))
    .unwrap();
    let clean = spawn_origin(OriginConfig::new("clean.test", 30_000)).unwrap();
    let mut policy = MbPolicy {
        block_page_html: "<html><head><title>Blocked</title></head><body><h1>Access Denied</h1>\
             <p>restricted by court order</p></body></html>"
            .into(),
        ..Default::default()
    };
    policy.routes.insert("blocked.test".into(), blocked.addr);
    policy.routes.insert("clean.test".into(), clean.addr);
    let middlebox = spawn_middlebox(policy).unwrap();
    let resolver = Arc::new(TestResolver::new());
    resolver.insert("blocked.test", middlebox.addr, blocked.addr);
    resolver.insert("clean.test", middlebox.addr, clean.addr);
    let proxy = spawn_proxy(
        Arc::clone(&resolver),
        ProxyConfig {
            get_timeout: Duration::from_millis(400),
            ..ProxyConfig::default()
        },
    )
    .unwrap();
    Testbed {
        proxy,
        middlebox,
        _origins: vec![blocked, clean],
    }
}

fn browse(proxy: &CsawProxy, host: &str) -> Response {
    let mut s = TcpStream::connect(proxy.addr).unwrap();
    let url = Url::parse(&format!("http://{host}/")).unwrap();
    write_request(&mut s, &Request::get(&url)).unwrap();
    let mut buf = BytesMut::new();
    read_response(&mut s, &mut buf).unwrap()
}

#[test]
fn clean_host_served_direct() {
    let tb = testbed();
    let r = browse(&tb.proxy, "clean.test");
    assert_eq!(r.status, 200);
    assert!(r.body.len() > 25_000);
    assert_eq!(tb.proxy.host_status("clean.test"), HostStatus::NotBlocked);
    assert!(tb.proxy.measurements().is_empty());
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
    match tb.proxy.host_status("blocked.test") {
        HostStatus::Blocked(sig) => assert_eq!(sig, ProxySignature::BlockPage),
        other => panic!("status {other:?}"),
    }
}

#[test]
fn dropped_get_detected_and_circumvented() {
    let tb = testbed();
    tb.middlebox
        .set_action("blocked.test", MbAction::DropRequest);
    let r = browse(&tb.proxy, "blocked.test");
    assert_eq!(r.status, 200);
    assert!(r.body.len() > 25_000);
    match tb.proxy.host_status("blocked.test") {
        HostStatus::Blocked(sig) => assert_eq!(sig, ProxySignature::GetTimeout),
        other => panic!("status {other:?}"),
    }
}

#[test]
fn reset_detected_and_circumvented() {
    let tb = testbed();
    tb.middlebox.set_action("blocked.test", MbAction::Reset);
    let r = browse(&tb.proxy, "blocked.test");
    assert_eq!(r.status, 200);
    match tb.proxy.host_status("blocked.test") {
        HostStatus::Blocked(sig) => assert_eq!(sig, ProxySignature::ConnectionReset),
        other => panic!("status {other:?}"),
    }
}

#[test]
fn mid_run_blocking_event_caught_by_inline_measurement() {
    let tb = testbed();
    // Phase 1: clean. Establishes NotBlocked status.
    let r = browse(&tb.proxy, "blocked.test");
    assert!(r.body.len() > 25_000);
    assert_eq!(tb.proxy.host_status("blocked.test"), HostStatus::NotBlocked);
    // Phase 2: the censor switches on (the §7.5 event).
    tb.middlebox.set_action("blocked.test", MbAction::BlockPage);
    let r = browse(&tb.proxy, "blocked.test");
    let body = String::from_utf8_lossy(&r.body);
    assert!(
        !body.contains("Access Denied"),
        "served genuine content after refresh"
    );
    assert!(matches!(
        tb.proxy.host_status("blocked.test"),
        HostStatus::Blocked(ProxySignature::BlockPage)
    ));
    // Phase 3: subsequent requests go straight to circumvention.
    let r = browse(&tb.proxy, "blocked.test");
    assert!(r.body.len() > 25_000);
}

#[test]
fn measurement_log_exports_reports() {
    let tb = testbed();
    tb.middlebox.set_action("blocked.test", MbAction::BlockPage);
    browse(&tb.proxy, "blocked.test");
    let reports = tb.proxy.to_reports(17557);
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].url, "http://blocked.test/");
    assert_eq!(reports[0].asn, 17557);
    // The wire format round-trips into the (simulated) server.
    let wire = csaw::global::Report::encode_batch(&reports);
    let server = csaw::global::ServerDb::builder(5).build().unwrap();
    let uuid = server
        .register(csaw_simnet::SimTime::from_secs(1), 0.0)
        .unwrap();
    let batch = csaw::global::Batch::new(
        uuid,
        csaw::global::Report::decode_batch(&wire).unwrap(),
        csaw_simnet::SimTime::from_secs(2),
    );
    let receipt = server.ingest(batch).unwrap();
    assert_eq!(receipt.accepted, 1);
    assert_eq!(server.stats().unique_blocked_urls, 1);
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
    // The status converged to Blocked regardless of interleaving.
    assert!(matches!(
        tb.proxy.host_status("blocked.test"),
        HostStatus::Blocked(_)
    ));
}

#[test]
fn absolute_form_targets_are_rewritten() {
    // Browsers talking to a forward proxy send absolute-form targets
    // ("GET http://host/path HTTP/1.1"); upstreams expect origin-form.
    let tb = testbed();
    let mut s = TcpStream::connect(tb.proxy.addr).unwrap();
    let mut req = Request::get(&Url::parse("http://clean.test/some/page").unwrap());
    req.target = "http://clean.test/some/page".to_string();
    csaw_proxy::codec::write_request(&mut s, &req).unwrap();
    let mut buf = BytesMut::new();
    let resp = csaw_proxy::codec::read_response(&mut s, &mut buf).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.len() > 25_000, "origin served the page");
}

#[test]
fn https_scheme_is_preserved_in_reports() {
    // A browser asking the proxy for an https URL (absolute-form
    // target) must see that scheme in the exported report — a censor
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
    let reports = tb.proxy.to_reports(17557);
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].url, "https://blocked.test/");
}

#[test]
fn measurements_are_stamped_on_the_obs_clock() {
    // The pipeline runs on virtual time; a proxy spawned inside an
    // observability scope must stamp measurements from that scope's
    // clock, not from a private wall-clock epoch.
    let clock = Arc::new(csaw_obs::clock::ManualClock::new());
    clock.set_us(1_234_567);
    let ctx = Arc::new(csaw_obs::scope::ObsCtx::new().with_clock(clock.clone()));
    let _g = csaw_obs::scope::install(ctx);
    let tb = testbed();
    tb.middlebox.set_action("blocked.test", MbAction::BlockPage);
    browse(&tb.proxy, "blocked.test");
    let ms = tb.proxy.measurements();
    assert_eq!(ms.len(), 1);
    assert_eq!(ms[0].measured_at_us, 1_234_567);
    assert_eq!(tb.proxy.to_reports(1)[0].measured_at_us, 1_234_567);
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
    csaw_proxy::codec::write_request(&mut s, &req).unwrap();
    let mut buf = BytesMut::new();
    let resp = csaw_proxy::codec::read_response(&mut s, &mut buf).unwrap();
    assert_eq!(resp.status, 400);
}

#[test]
fn unresolvable_host_is_bad_gateway() {
    let tb = testbed();
    let r = browse(&tb.proxy, "not-in-resolver.test");
    assert_eq!(r.status, 502);
}
