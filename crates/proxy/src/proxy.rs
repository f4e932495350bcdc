//! The local C-Saw proxy over real sockets.
//!
//! This is the paper's client-side proxy (§4.3, §6) reduced to its
//! network essentials and run against the localhost testbed: browsers
//! connect to it, and each request goes down the road its client's
//! [`CsawClient::road`] names — Algorithm 1's one decision. A host known
//! blocked, in the local DB or in the synced global view, is fetched
//! over the circumvention path (straight to the origin) alone; a first
//! visit triggers **redundant requests** (that path and the direct path
//! through the censoring middlebox; a POST, which must not reach the
//! origin twice, takes the direct path alone); the direct response
//! passes through the simulated client's 2-phase detector
//! ([`classify_page`]), and the user is served the best copy.
//!
//! The proxy keeps no books of its own. Its verdicts live in the
//! [`CsawClient`] it was handed — local DB, per-provider store and
//! report queue, written by [`CsawClient::record_verdict`] — and leave
//! through that client's [`CsawClient::post_reports`]. A verdict is per
//! host, recorded at `scheme://host/` with the scheme the browser used,
//! and stamped on the observability clock. Records expire after
//! [`csaw::config::RECORD_TTL`] on that same clock; nothing advances it
//! on its own, so an embedder that wants real times drives it with
//! `set_us`.

use crate::testbed::resolver::TestResolver;
use csaw::client::{CsawClient, Road};
use csaw::local::Status;
use csaw::measure::{classify_page, failure_to_blocking};
use csaw_censor::BlockingType;
use csaw_circumvent::outcome::FailureKind;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use csaw_webproto::bytes::BytesMut;
use csaw_webproto::codec::{read_request, read_response, write_request, write_response};
use csaw_webproto::http::{Request, Response};
use csaw_webproto::server::{serve, Server};
use csaw_webproto::url::{Scheme, Url};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Proxy configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProxyConfig {
    /// GET timeout on the direct path (short in tests; the paper's
    /// deployments use browser-scale timeouts).
    pub get_timeout: Duration,
    /// The AS the proxy measures from, stamped on every verdict.
    pub asn: Asn,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            get_timeout: Duration::from_millis(500),
            asn: Asn(0),
        }
    }
}

#[derive(Debug)]
struct ProxyState {
    resolver: Arc<TestResolver>,
    cfg: ProxyConfig,
    client: Mutex<CsawClient>,
    // Monotone request ordinal feeding PROXY-stream trace-id derivation.
    req_seq: AtomicU64,
}

/// A running local proxy.
#[derive(Debug)]
pub struct CsawProxy {
    /// The address browsers point at.
    pub addr: SocketAddr,
    state: Arc<ProxyState>,
    _server: Server,
}

impl CsawProxy {
    /// The client holding the proxy's verdicts, locked. Every request's
    /// status read and verdict write takes the same lock, so hold the
    /// guard briefly.
    pub fn client(&self) -> MutexGuard<'_, CsawClient> {
        self.state.client.lock().unwrap()
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// One single-path fetch; a failure names the stage it happened at.
fn fetch_one(addr: SocketAddr, req: &Request, timeout: Duration) -> Result<Response, FailureKind> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout).map_err(|e| {
        if is_timeout(&e) {
            FailureKind::ConnectTimeout
        } else {
            FailureKind::ConnectReset
        }
    })?;
    let http = |e: io::Error| {
        if is_timeout(&e) {
            FailureKind::HttpGetTimeout
        } else {
            FailureKind::HttpReset
        }
    };
    stream.set_read_timeout(Some(timeout)).map_err(http)?;
    write_request(&mut stream, req).map_err(http)?;
    read_response(&mut stream, &mut BytesMut::new()).map_err(http)
}

/// Spawn the proxy on an ephemeral 127.0.0.1 port. `client` (built and,
/// if it is to post, registered by the caller) keeps the verdicts.
/// Handler threads run in the spawner's observability scope.
pub fn spawn_proxy(
    resolver: Arc<TestResolver>,
    client: CsawClient,
    cfg: ProxyConfig,
) -> io::Result<CsawProxy> {
    let state = Arc::new(ProxyState {
        resolver,
        cfg,
        client: Mutex::new(client),
        req_seq: AtomicU64::new(0),
    });
    let server = serve("csaw-proxy", crate::WRITE_TIMEOUT, {
        let state = Arc::clone(&state);
        move |browser| handle_browser(browser, &state)
    })?;
    Ok(CsawProxy {
        addr: server.addr(),
        state,
        _server: server,
    })
}

/// Now on the observability clock.
fn obs_now() -> SimTime {
    SimTime::from_micros(csaw_obs::current().clock.now_us())
}

/// Rewrite an absolute-form target (`GET http://host/path`, what a
/// browser sends a forward proxy) to the origin form upstreams expect,
/// and return the scheme the browser asked for: a verdict must not
/// collapse `https://host` into `http://host`.
fn origin_form(req: &mut Request) -> Scheme {
    let (scheme, rest) = if let Some(rest) = req.target.strip_prefix("https://") {
        (Scheme::Https, rest)
    } else if let Some(rest) = req.target.strip_prefix("http://") {
        (Scheme::Http, rest)
    } else {
        return Scheme::Http;
    };
    req.target = rest.find('/').map_or("/", |i| &rest[i..]).to_string();
    scheme
}

fn handle_browser(browser: &mut TcpStream, state: &ProxyState) {
    let mut buf = BytesMut::new();
    while let Ok(Some(mut req)) = read_request(browser, &mut buf) {
        csaw_obs::inc("proxy.requests");
        let scheme = origin_form(&mut req);
        let Some(url) = req
            .host()
            .and_then(|host| Url::parse(&format!("{}://{host}/", scheme.as_str())).ok())
        else {
            let _ = write_response(browser, &Response::error(400, "Bad Request"));
            continue;
        };
        // Each proxied request is one causal tree on the PROXY stream.
        // The ordinal (not wall clock) feeds id derivation, matching the
        // simulation's determinism contract; the span guard measures the
        // request on the context's clock.
        let obs_ctx = csaw_obs::current();
        let _root = obs_ctx.sink.enabled().then(|| {
            let seq = state.req_seq.fetch_add(1, Ordering::Relaxed);
            csaw_obs::trace::root(
                csaw_obs::trace::derive(0, csaw_obs::trace::stream::PROXY, seq),
                obs_ctx.clock.now_us(),
            )
        });
        let mut span = csaw_obs::span("proxy.request");
        let host = url.host().to_string();
        span.field("host", host.as_str());
        let resp = serve_url(state, &host, &url, &req);
        span.field("status", resp.status as u64);
        drop(span);
        if write_response(browser, &resp).is_err() {
            return;
        }
    }
}

/// The 2-phase detector's stages for a direct-path document; phase 2
/// runs when the clean copy arrived.
fn detect(direct: &Response, clean: Option<&Response>) -> Vec<BlockingType> {
    let html = String::from_utf8_lossy(&direct.body);
    classify_page(
        direct.body.len() as u64,
        &html.as_ref().into(),
        false,
        SimDuration::ZERO,
        clean.map(|c| c.body.len() as u64),
    )
    .stages
}

/// The stage a direct-path socket failure evidences.
fn failure_stages(kind: FailureKind) -> Vec<BlockingType> {
    vec![failure_to_blocking(kind).expect("socket failures name a stage")]
}

/// Record a verdict for `url` (blocked when `stages` is non-empty)
/// unless the host is already held blocked: the check and the write
/// share one lock hold, so of several concurrent first visits only the
/// first records — the rest observed the same event.
fn record(state: &ProxyState, url: &Url, stages: Vec<BlockingType>) {
    let now = obs_now();
    let mut client = state.client.lock().unwrap();
    if client.local_db.lookup(url, now).status == Status::Blocked {
        return;
    }
    for s in &stages {
        csaw_obs::inc(&format!("proxy.blocked.{}", s.name()));
    }
    client.record_verdict(url, state.cfg.asn, now, stages);
}

/// The error a browser sees when no path delivered.
fn gateway_error(kind: FailureKind) -> Response {
    match kind {
        FailureKind::ConnectTimeout | FailureKind::HttpGetTimeout => {
            Response::error(504, "Gateway Timeout")
        }
        _ => Response::error(502, "Bad Gateway"),
    }
}

fn serve_url(state: &ProxyState, host: &str, url: &Url, req: &Request) -> Response {
    let Some(res) = state.resolver.resolve(host) else {
        return Response::error(502, "Unresolvable");
    };
    let timeout = state.cfg.get_timeout;
    let clean = || fetch_one(res.clean, req, timeout * 4);
    let road = state
        .client
        .lock()
        .unwrap()
        .road(url, req.method, obs_now());
    match road {
        Road::Circumvent(_) => {
            // Known blocked: circumvention path only.
            csaw_obs::inc("proxy.circumvention_only");
            clean().unwrap_or_else(|_| Response::error(504, "Circumvention Failed"))
        }
        // Selective redundancy: direct only, but measured in-line, which
        // catches fresh censorship (Scenario B) and re-fetches clean. A
        // clean answer is a verdict too: it measures a host a POST
        // reached first.
        Road::Direct(_) => match fetch_one(res.direct, req, timeout) {
            Ok(direct) => {
                let stages = detect(&direct, None);
                let blocked = !stages.is_empty();
                record(state, url, stages);
                if !blocked {
                    return direct;
                }
                clean().unwrap_or(direct)
            }
            Err(kind) => {
                record(state, url, failure_stages(kind));
                clean().unwrap_or_else(|_| gateway_error(kind))
            }
        },
        Road::Measure => {
            // Redundant requests: both paths race (parallel mode).
            csaw_obs::inc("proxy.redundant_requests");
            let (direct, clean) = std::thread::scope(|s| {
                let direct = s.spawn(|| fetch_one(res.direct, req, timeout));
                let clean = clean().ok();
                let direct = direct.join().unwrap_or(Err(FailureKind::ConnectReset));
                (direct, clean)
            });
            match (direct, clean) {
                (Ok(direct), clean) => {
                    let stages = detect(&direct, clean.as_ref());
                    let blocked = !stages.is_empty();
                    record(state, url, stages);
                    match clean {
                        Some(clean) if blocked => clean,
                        _ => direct,
                    }
                }
                (Err(kind), Some(clean)) => {
                    record(state, url, failure_stages(kind));
                    clean
                }
                // Both paths dead: a network problem; stay unmeasured.
                (Err(kind), None) => gateway_error(kind),
            }
        }
    }
}
