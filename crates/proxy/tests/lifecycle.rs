//! The servers' lifecycle as a client sees it: the proxy and the
//! testbed run in the observability scope of whoever spawned them, and
//! dropping one closes every connection it holds.

use csaw::client::CsawClient;
use csaw::config::CsawConfig;
use csaw_obs::ObsCtx;
use csaw_proxy::testbed::{
    spawn_middlebox, spawn_origin, MbAction, MbPolicy, OriginConfig, TestResolver,
};
use csaw_proxy::{spawn_proxy, ProxyConfig};
use csaw_webproto::bytes::BytesMut;
use csaw_webproto::codec::{read_response, write_request};
use csaw_webproto::http::{Request, Response};
use csaw_webproto::url::Url;
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn get(stream: &mut TcpStream, url: &str) -> Response {
    write_request(stream, &Request::get(&Url::parse(url).unwrap())).unwrap();
    read_response(stream, &mut BytesMut::new()).unwrap()
}

/// What a client's next read returns once its server is gone: `Ok(0)`
/// when the server closed the connection, `WouldBlock` when something
/// still holds it open.
fn read_after_drop(stream: &mut TcpStream) -> std::io::Result<usize> {
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    stream.read(&mut [0u8; 64])
}

fn middlebox_to(origin: SocketAddr) -> csaw_proxy::Middlebox {
    let mut policy = MbPolicy::default();
    policy.routes.insert("ok.test".into(), origin);
    policy.routes.insert("bad.test".into(), origin);
    spawn_middlebox(policy).unwrap()
}

#[test]
fn the_testbed_counts_in_the_spawners_scope() {
    let ctx = Arc::new(ObsCtx::new());
    let _scope = csaw_obs::install(Arc::clone(&ctx));
    let origin = spawn_origin(OriginConfig::new("ok.test", 1_000)).unwrap();
    let middlebox = middlebox_to(origin.addr);
    let mut s = TcpStream::connect(middlebox.addr).unwrap();
    assert_eq!(get(&mut s, "http://ok.test/").status, 200);
    assert_eq!(ctx.registry.counter("middlebox.requests").get(), 1);
}

#[test]
fn dropping_an_origin_closes_an_idle_connection() {
    let origin = spawn_origin(OriginConfig::new("ok.test", 1_000)).unwrap();
    let mut s = TcpStream::connect(origin.addr).unwrap();
    assert_eq!(get(&mut s, "http://ok.test/").status, 200);
    drop(origin);
    assert_eq!(read_after_drop(&mut s).unwrap(), 0);
}

#[test]
fn dropping_a_middlebox_closes_a_swallowed_request() {
    let origin = spawn_origin(OriginConfig::new("ok.test", 1_000)).unwrap();
    let middlebox = middlebox_to(origin.addr);
    middlebox.set_action("bad.test", MbAction::DropRequest);
    let mut s = TcpStream::connect(middlebox.addr).unwrap();
    assert_eq!(get(&mut s, "http://ok.test/").status, 200);
    write_request(
        &mut s,
        &Request::get(&Url::parse("http://bad.test/").unwrap()),
    )
    .unwrap();
    s.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let swallowed = s.read(&mut [0u8; 64]).unwrap_err();
    assert_eq!(swallowed.kind(), std::io::ErrorKind::WouldBlock);
    drop(middlebox);
    assert_eq!(read_after_drop(&mut s).unwrap(), 0);
}

#[test]
fn dropping_the_proxy_closes_an_idle_browser_connection() {
    let client = CsawClient::new(CsawConfig::default(), None, 1);
    let proxy = spawn_proxy(
        Arc::new(TestResolver::new()),
        client,
        ProxyConfig::default(),
    )
    .unwrap();
    let mut s = TcpStream::connect(proxy.addr).unwrap();
    // No Host header: answered 400 without leaving the proxy.
    let mut req = Request::get(&Url::parse("http://ok.test/").unwrap());
    req.headers.remove("Host");
    write_request(&mut s, &req).unwrap();
    let resp = read_response(&mut s, &mut BytesMut::new()).unwrap();
    assert_eq!(resp.status, 400);
    drop(proxy);
    assert_eq!(read_after_drop(&mut s).unwrap(), 0);
}
