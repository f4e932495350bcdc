//! The real-socket demo: a C-Saw proxy on 127.0.0.1, a censoring
//! middlebox, and origin servers — all actual TCP, no simulation.
//!
//! A raw "browser" sends requests through the proxy. The first visit to
//! the blocked site races redundant requests over the censored and clean
//! paths, detects the block page, and serves the genuine content; the
//! proxy's client then posts its report to a live `csaw-dbserver`, and
//! the server's `BLOCKED` answer for the AS is printed. Exits 1 if the
//! censored site is not in that answer.
//!
//! ```sh
//! cargo run --example real_proxy
//! ```

use csaw::client::CsawClient;
use csaw::config::CsawConfig;
use csaw::global::{ConfidenceFilter, GlobalApi, RemoteDb, ServerDb};
use csaw_dbserver::{spawn_dbserver, DbServerConfig};
use csaw_proxy::testbed::{
    spawn_middlebox, spawn_origin, MbAction, MbPolicy, OriginConfig, TestResolver,
};
use csaw_proxy::{spawn_proxy, ProxyConfig};
use csaw_simnet::time::SimTime;
use csaw_simnet::topology::Asn;
use csaw_webproto::bytes::BytesMut;
use csaw_webproto::codec::{read_response, write_request};
use csaw_webproto::http::Request;
use csaw_webproto::url::Url;
use std::net::TcpStream;
use std::sync::Arc;

const ASN: Asn = Asn(17557);

fn main() -> std::io::Result<()> {
    // Origins: one censored site, one clean site.
    let blocked_origin = spawn_origin(OriginConfig::new("video-site.test", 60_000))?;
    let clean_origin = spawn_origin(OriginConfig::new("news-site.test", 40_000))?;

    // The censoring middlebox: block-pages the video site, passes news.
    let mut policy = MbPolicy {
        block_page_html: "<html><head><title>Blocked</title></head><body><h1>Access Denied</h1>\
             <p>This website is restricted by order of the regulator.</p></body></html>"
            .into(),
        ..Default::default()
    };
    policy
        .routes
        .insert("video-site.test".into(), blocked_origin.addr);
    policy
        .routes
        .insert("news-site.test".into(), clean_origin.addr);
    policy
        .actions
        .insert("video-site.test".into(), MbAction::BlockPage);
    let middlebox = spawn_middlebox(policy)?;

    // The resolver: direct path via the middlebox, clean path straight
    // to the origin (standing in for a circumvention tunnel's exit).
    let resolver = Arc::new(TestResolver::new());
    resolver.insert("video-site.test", middlebox.addr, blocked_origin.addr);
    resolver.insert("news-site.test", middlebox.addr, clean_origin.addr);

    // The global DB on a real socket, and the proxy's client registered
    // there.
    let db = spawn_dbserver(
        Arc::new(ServerDb::builder(1).build().expect("in-memory server")),
        DbServerConfig::default(),
    )?;
    let remote = RemoteDb::new(db.addr());
    let mut client = CsawClient::new(CsawConfig::default(), None, 1);
    client
        .register(&remote, ASN, SimTime::ZERO, 0.0)
        .expect("registration");

    // The C-Saw proxy.
    let cfg = ProxyConfig {
        asn: ASN,
        ..ProxyConfig::default()
    };
    let proxy = spawn_proxy(Arc::clone(&resolver), client, cfg)?;
    println!("C-Saw proxy listening on {}\n", proxy.addr);

    // A raw browser.
    let fetch = |host: &str| -> std::io::Result<_> {
        let mut s = TcpStream::connect(proxy.addr)?;
        let url = Url::parse(&format!("http://{host}/")).expect("static URL");
        write_request(&mut s, &Request::get(&url))?;
        let mut buf = BytesMut::new();
        read_response(&mut s, &mut buf)
    };

    for (label, host) in [
        ("clean site            ", "news-site.test"),
        ("censored site, visit 1", "video-site.test"),
        ("censored site, visit 2", "video-site.test"),
    ] {
        let resp = fetch(host)?;
        let body = String::from_utf8_lossy(&resp.body);
        let verdict = if body.contains("Access Denied") {
            "BLOCK PAGE (!)"
        } else {
            "genuine content"
        };
        println!(
            "GET http://{host}/ [{label}] -> {} bytes, {}",
            resp.body.len(),
            verdict
        );
    }

    let posted = proxy.client().post_reports(&remote, SimTime::from_secs(1));
    println!(
        "\nPosted {posted} report(s) to the global DB at {}",
        db.addr()
    );
    let blocked = remote
        .blocked_for_as(ASN, &ConfidenceFilter::default())
        .map_err(|e| std::io::Error::other(format!("{e:?}")))?;
    println!("BLOCKED answer for AS{}:", ASN.0);
    for r in &blocked {
        println!("  {} blocked ({:?})", r.url, r.stages);
    }
    if !blocked.iter().any(|r| r.url == "http://video-site.test/") {
        eprintln!("the censored site is missing from the BLOCKED answer");
        std::process::exit(1);
    }
    Ok(())
}
