//! The local C-Saw proxy over real sockets.
//!
//! This is the paper's client-side proxy (§4.3, §6) reduced to its
//! network essentials and run against the localhost testbed: browsers
//! connect to it, every URL's first visit triggers **redundant requests**
//! (direct path through the censoring middlebox, circumvention path
//! straight to the origin), responses pass through the 2-phase
//! block-page detector, the user is served the best copy, and every
//! verdict lands in a measurement log exportable as global-DB reports.

use crate::acceptor::Acceptor;
use crate::codec::{read_request, read_response, write_request, write_response};
use crate::testbed::resolver::TestResolver;
use csaw::global::Report;
use csaw_blockpage::{phase1_html, phase2, Phase1Config, Phase1Verdict, Phase2Config};
use csaw_obs::clock::Clock;
use csaw_obs::metrics::Registry;
use csaw_webproto::bytes::BytesMut;
use csaw_webproto::http::{Request, Response};
use csaw_webproto::url::Scheme;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// How a host's blocking manifested on the direct path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProxySignature {
    /// A block page was served.
    BlockPage,
    /// The GET never got a response.
    GetTimeout,
    /// The connection was reset mid-exchange.
    ConnectionReset,
    /// The direct path would not even connect.
    ConnectFailed,
}

impl ProxySignature {
    /// The blocking-type this signature evidences, for global-DB reports.
    pub fn blocking_type(self) -> csaw_censor::BlockingType {
        match self {
            ProxySignature::BlockPage => csaw_censor::BlockingType::HttpBlockPageInline,
            ProxySignature::GetTimeout => csaw_censor::BlockingType::HttpDrop,
            ProxySignature::ConnectionReset => csaw_censor::BlockingType::HttpRst,
            ProxySignature::ConnectFailed => csaw_censor::BlockingType::IpRst,
        }
    }

    /// Metrics label for this signature.
    fn metric_name(self) -> &'static str {
        match self {
            ProxySignature::BlockPage => "block_page",
            ProxySignature::GetTimeout => "get_timeout",
            ProxySignature::ConnectionReset => "connection_reset",
            ProxySignature::ConnectFailed => "connect_failed",
        }
    }
}

/// One measurement the proxy made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxyMeasurement {
    /// The affected host.
    pub host: String,
    /// Scheme the browser used for the blocked fetch. Reports must
    /// carry the *observed* URL — a censor that blocks `https://host`
    /// but not `http://host` is a different record.
    pub scheme: Scheme,
    /// What was observed.
    pub signature: ProxySignature,
    /// Measurement time (`T_m`) in µs on the observability clock — the
    /// same virtual clock the rest of the pipeline runs on, so reports
    /// exported from a simulation timeline sort correctly against
    /// simulated ones. (Embedders running on wall time install a wall
    /// clock in the obs scope and get wall µs.)
    pub measured_at_us: u64,
}

/// Blocking status the proxy tracks per host (its in-memory local DB).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostStatus {
    /// Never measured.
    NotMeasured,
    /// Direct path blocked.
    Blocked(ProxySignature),
    /// Direct path clean.
    NotBlocked,
}

/// Proxy configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProxyConfig {
    /// GET timeout on the direct path (short in tests; the paper's
    /// deployments use browser-scale timeouts).
    pub get_timeout: Duration,
    /// Phase-1 classifier thresholds.
    pub phase1: Phase1Config,
    /// Phase-2 size-comparison threshold.
    pub phase2: Phase2Config,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            get_timeout: Duration::from_millis(500),
            phase1: Phase1Config::default(),
            phase2: Phase2Config::default(),
        }
    }
}

#[derive(Debug)]
struct ProxyState {
    resolver: Arc<TestResolver>,
    cfg: ProxyConfig,
    status: RwLock<HashMap<String, HostStatus>>,
    measurements: Mutex<Vec<ProxyMeasurement>>,
    // Captured at spawn time so handler threads (which don't inherit the
    // spawner's thread-local observability scope) report into the same
    // registry — and stamp measurements from the same clock — the
    // embedding experiment installed.
    obs: Arc<Registry>,
    clock: Arc<dyn Clock>,
    // Monotone request ordinal feeding PROXY-stream trace-id derivation.
    req_seq: AtomicU64,
}

/// A running local proxy.
#[derive(Debug)]
pub struct CsawProxy {
    /// The address browsers point at.
    pub addr: SocketAddr,
    state: Arc<ProxyState>,
    _acceptor: Acceptor,
}

impl CsawProxy {
    /// Current status of a host.
    pub fn host_status(&self, host: &str) -> HostStatus {
        self.state
            .status
            .read()
            .unwrap()
            .get(&host.to_ascii_lowercase())
            .copied()
            .unwrap_or(HostStatus::NotMeasured)
    }

    /// Snapshot of the measurement log.
    pub fn measurements(&self) -> Vec<ProxyMeasurement> {
        self.state.measurements.lock().unwrap().clone()
    }

    /// Export the log as global-DB reports (host-level URLs, observed
    /// scheme, obs-clock timestamps).
    pub fn to_reports(&self, asn: u32) -> Vec<Report> {
        self.measurements()
            .into_iter()
            .map(|m| Report {
                url: format!("{}://{}/", m.scheme.as_str(), m.host),
                asn,
                measured_at_us: m.measured_at_us,
                stages: vec![m.signature.blocking_type()],
            })
            .collect()
    }
}

/// Outcome of one single-path fetch attempt.
enum PathFetch {
    Ok(Response),
    Timeout,
    Reset,
    ConnectFailed,
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn fetch_one(addr: SocketAddr, req: &Request, timeout: Duration) -> PathFetch {
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, timeout) else {
        return PathFetch::ConnectFailed; // refused/unreachable/timed out
    };
    if stream.set_read_timeout(Some(timeout)).is_err() {
        return PathFetch::Reset;
    }
    if write_request(&mut stream, req).is_err() {
        return PathFetch::Reset;
    }
    let mut buf = BytesMut::new();
    match read_response(&mut stream, &mut buf) {
        Ok(resp) => PathFetch::Ok(resp),
        Err(e) if is_timeout(&e) => PathFetch::Timeout,
        Err(_) => PathFetch::Reset,
    }
}

/// Spawn the proxy on an ephemeral 127.0.0.1 port.
pub fn spawn_proxy(resolver: Arc<TestResolver>, cfg: ProxyConfig) -> std::io::Result<CsawProxy> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let obs_ctx = csaw_obs::scope::current();
    let state = Arc::new(ProxyState {
        resolver,
        cfg,
        status: RwLock::new(HashMap::new()),
        measurements: Mutex::new(Vec::new()),
        obs: obs_ctx.registry.clone(),
        clock: obs_ctx.clock.clone(),
        req_seq: AtomicU64::new(0),
    });
    let state2 = Arc::clone(&state);
    let acceptor = Acceptor::spawn(listener, move |stream| {
        handle_browser(stream, Arc::clone(&state2))
    })?;
    Ok(CsawProxy {
        addr,
        state,
        _acceptor: acceptor,
    })
}

fn handle_browser(mut browser: TcpStream, state: Arc<ProxyState>) {
    let mut buf = BytesMut::new();
    while let Ok(Some(req)) = read_request(&mut browser, &mut buf) {
        state.obs.counter("proxy.requests").inc();
        let Some(host) = req.host() else {
            let _ = write_response(&mut browser, &Response::error(400, "Bad Request"));
            continue;
        };
        // Each proxied request is one causal tree on the PROXY stream.
        // The ordinal (not wall clock) feeds id derivation, matching the
        // simulation's determinism contract; the span guard measures the
        // request on the context (wall) clock.
        let obs_ctx = csaw_obs::scope::current();
        let _root = obs_ctx.sink.enabled().then(|| {
            let seq = state.req_seq.fetch_add(1, Ordering::Relaxed);
            csaw_obs::trace::root(
                csaw_obs::trace::derive(0, csaw_obs::trace::stream::PROXY, seq),
                obs_ctx.clock.now_us(),
            )
        });
        let mut span = csaw_obs::event::span("proxy.request");
        span.field("host", host.as_str());
        // Rewrite absolute-form targets to origin-form for upstreams,
        // remembering the scheme the browser asked for — reports must
        // not collapse `https://host` into `http://host`.
        let mut upstream_req = req.clone();
        let mut scheme = Scheme::Http;
        let absolute = match upstream_req.target.strip_prefix("http://") {
            Some(rest) => Some(rest),
            None => {
                let rest = upstream_req.target.strip_prefix("https://");
                if rest.is_some() {
                    scheme = Scheme::Https;
                }
                rest
            }
        };
        if let Some(rest) = absolute {
            upstream_req.target = match rest.find('/') {
                Some(i) => rest[i..].to_string(),
                None => "/".to_string(),
            };
        }
        let resp = serve_url(&state, &host, scheme, &upstream_req);
        span.field("status", resp.status as u64);
        drop(span);
        if write_response(&mut browser, &resp).is_err() {
            return;
        }
    }
}

fn record(state: &ProxyState, host: &str, scheme: Scheme, sig: ProxySignature) {
    // Check-and-set under the write lock: concurrent first visits race
    // their measurements, but only the first one gets to log (the rest
    // observed the same event).
    {
        let mut status = state.status.write().unwrap();
        if matches!(status.get(host), Some(HostStatus::Blocked(_))) {
            return;
        }
        status.insert(host.to_string(), HostStatus::Blocked(sig));
    }
    state
        .obs
        .counter(&format!("proxy.blocked.{}", sig.metric_name()))
        .inc();
    state.measurements.lock().unwrap().push(ProxyMeasurement {
        host: host.to_string(),
        scheme,
        signature: sig,
        measured_at_us: state.clock.now_us(),
    });
}

fn serve_url(state: &ProxyState, host: &str, scheme: Scheme, req: &Request) -> Response {
    let Some(res) = state.resolver.resolve(host) else {
        return Response::error(502, "Unresolvable");
    };
    let status = state
        .status
        .read()
        .unwrap()
        .get(host)
        .copied()
        .unwrap_or(HostStatus::NotMeasured);
    let timeout = state.cfg.get_timeout;
    match status {
        HostStatus::Blocked(_) => {
            // Known blocked: circumvention path only.
            state.obs.counter("proxy.circumvention_only").inc();
            match fetch_one(res.clean, req, timeout * 4) {
                PathFetch::Ok(r) => r,
                _ => Response::error(504, "Circumvention Failed"),
            }
        }
        HostStatus::NotBlocked => {
            // Selective redundancy: direct only, but measured in-line.
            match fetch_one(res.direct, req, timeout) {
                PathFetch::Ok(r) => {
                    let html = String::from_utf8_lossy(&r.body);
                    if phase1_html(&html, &state.cfg.phase1) == Phase1Verdict::BlockPage {
                        // Fresh censorship (Scenario B): re-fetch clean.
                        record(state, host, scheme, ProxySignature::BlockPage);
                        match fetch_one(res.clean, req, timeout * 4) {
                            PathFetch::Ok(clean) => clean,
                            _ => r,
                        }
                    } else {
                        r
                    }
                }
                PathFetch::Timeout => {
                    record(state, host, scheme, ProxySignature::GetTimeout);
                    match fetch_one(res.clean, req, timeout * 4) {
                        PathFetch::Ok(r) => r,
                        _ => Response::error(504, "Gateway Timeout"),
                    }
                }
                PathFetch::Reset | PathFetch::ConnectFailed => {
                    record(state, host, scheme, ProxySignature::ConnectionReset);
                    match fetch_one(res.clean, req, timeout * 4) {
                        PathFetch::Ok(r) => r,
                        _ => Response::error(502, "Bad Gateway"),
                    }
                }
            }
        }
        HostStatus::NotMeasured => {
            // Redundant requests: both paths race (parallel mode).
            state.obs.counter("proxy.redundant_requests").inc();
            let direct_req = req.clone();
            let direct_addr = res.direct;
            let direct_handle =
                std::thread::spawn(move || fetch_one(direct_addr, &direct_req, timeout));
            let clean = fetch_one(res.clean, req, timeout * 4);
            let direct = direct_handle.join().unwrap_or(PathFetch::ConnectFailed);
            let clean_resp = match clean {
                PathFetch::Ok(r) => Some(r),
                _ => None,
            };
            match direct {
                PathFetch::Ok(direct_resp) => {
                    let html = String::from_utf8_lossy(&direct_resp.body);
                    let flagged = phase1_html(&html, &state.cfg.phase1) == Phase1Verdict::BlockPage;
                    let confirmed = match (&flagged, &clean_resp) {
                        (true, Some(c)) => phase2(
                            direct_resp.body.len() as u64,
                            c.body.len() as u64,
                            &state.cfg.phase2,
                        ),
                        (true, None) => true,
                        (false, Some(c)) => {
                            // Phase-2 catches portal-style evaders.
                            phase2(
                                direct_resp.body.len() as u64,
                                c.body.len() as u64,
                                &state.cfg.phase2,
                            )
                        }
                        (false, None) => false,
                    };
                    if confirmed {
                        record(state, host, scheme, ProxySignature::BlockPage);
                        clean_resp.unwrap_or(direct_resp)
                    } else {
                        state
                            .status
                            .write()
                            .unwrap()
                            .insert(host.to_string(), HostStatus::NotBlocked);
                        direct_resp
                    }
                }
                PathFetch::Timeout => {
                    if let Some(c) = clean_resp {
                        record(state, host, scheme, ProxySignature::GetTimeout);
                        c
                    } else {
                        // Both paths dead: network problem; stay unmeasured.
                        Response::error(504, "Gateway Timeout")
                    }
                }
                PathFetch::Reset => {
                    if let Some(c) = clean_resp {
                        record(state, host, scheme, ProxySignature::ConnectionReset);
                        c
                    } else {
                        Response::error(502, "Bad Gateway")
                    }
                }
                PathFetch::ConnectFailed => {
                    if let Some(c) = clean_resp {
                        record(state, host, scheme, ProxySignature::ConnectFailed);
                        c
                    } else {
                        Response::error(502, "Bad Gateway")
                    }
                }
            }
        }
    }
}
