//! The censoring middlebox: a TCP forwarder that inspects HTTP requests
//! and applies per-host blocking actions — the testbed's stand-in for a
//! filtering ISP.
//!
//! Actions mirror the paper's §2.1 HTTP-level taxonomy: pass, silently
//! drop the request (client burns its GET timeout), inject a reset, or
//! serve a block page. Actions are runtime-mutable so tests can flip
//! blocking on mid-run (the §7.5 "in the wild" situation).

use csaw_webproto::bytes::BytesMut;
use csaw_webproto::codec::{read_request, read_response, write_request, write_response};
use csaw_webproto::http::Response;
use csaw_webproto::server::{serve, Server};
use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, RwLock};

/// What the middlebox does to requests for a host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MbAction {
    /// Forward untouched.
    Pass,
    /// Swallow the request; never respond.
    DropRequest,
    /// Kill the connection (RST-ish: abortive close).
    Reset,
    /// Serve the configured block page.
    BlockPage,
}

/// Runtime-mutable middlebox policy.
#[derive(Debug, Default)]
pub struct MbPolicy {
    /// host → upstream origin address.
    pub routes: HashMap<String, SocketAddr>,
    /// host → action (missing = Pass).
    pub actions: HashMap<String, MbAction>,
    /// Block-page markup.
    pub block_page_html: String,
}

/// A running middlebox.
#[derive(Debug)]
pub struct Middlebox {
    /// The address clients' "direct path" connects to.
    pub addr: SocketAddr,
    policy: Arc<RwLock<MbPolicy>>,
    _server: Server,
}

impl Middlebox {
    /// Change the action for a host at runtime.
    pub fn set_action(&self, host: &str, action: MbAction) {
        self.policy
            .write()
            .unwrap()
            .actions
            .insert(host.to_ascii_lowercase(), action);
    }
}

/// Spawn a middlebox with an initial policy.
pub fn spawn_middlebox(initial: MbPolicy) -> std::io::Result<Middlebox> {
    let policy = Arc::new(RwLock::new(initial));
    let server = serve("csaw-middlebox", crate::WRITE_TIMEOUT, {
        let policy = Arc::clone(&policy);
        move |client| handle_conn(client, &policy)
    })?;
    Ok(Middlebox {
        addr: server.addr(),
        policy,
        _server: server,
    })
}

fn handle_conn(client: &mut TcpStream, policy: &RwLock<MbPolicy>) {
    let mut buf = BytesMut::new();
    while let Ok(Some(req)) = read_request(client, &mut buf) {
        csaw_obs::inc("middlebox.requests");
        let host = req.host().unwrap_or_default();
        let (action, upstream, block_html) = {
            let p = policy.read().unwrap();
            (
                p.actions.get(&host).cloned().unwrap_or(MbAction::Pass),
                p.routes.get(&host).copied(),
                p.block_page_html.clone(),
            )
        };
        match action {
            MbAction::Pass => {
                let Some(upstream) = upstream else {
                    let _ = write_response(client, &Response::error(502, "Bad Gateway"));
                    continue;
                };
                // Forward request, relay one response.
                match TcpStream::connect(upstream) {
                    Ok(mut up) => {
                        if write_request(&mut up, &req).is_err() {
                            let _ = write_response(client, &Response::error(502, "Bad Gateway"));
                            continue;
                        }
                        let mut ubuf = BytesMut::new();
                        match read_response(&mut up, &mut ubuf) {
                            Ok(resp) => {
                                if write_response(client, &resp).is_err() {
                                    return;
                                }
                            }
                            Err(_) => {
                                let _ =
                                    write_response(client, &Response::error(502, "Bad Gateway"));
                            }
                        }
                    }
                    Err(_) => {
                        let _ = write_response(client, &Response::error(502, "Bad Gateway"));
                    }
                }
            }
            MbAction::DropRequest => {
                // Swallow: never answer, keep the socket open so the
                // client times out exactly like against a silent censor.
                // Park until the client gives up and closes.
                csaw_obs::inc("middlebox.dropped");
                let mut sink = [0u8; 1024];
                while let Ok(n) = client.read(&mut sink) {
                    if n == 0 {
                        break;
                    }
                }
                return;
            }
            MbAction::Reset => {
                // Kill the connection after seeing the request. The peer
                // observes the stream dying mid-exchange; whether the
                // kernel emits FIN or RST, the client-visible signature is
                // the same "connection reset by censor" failure.
                csaw_obs::inc("middlebox.reset");
                return;
            }
            MbAction::BlockPage => {
                csaw_obs::inc("middlebox.block_pages");
                let resp = Response::ok_html(block_html);
                if write_response(client, &resp).is_err() {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::origin::{spawn_origin, OriginConfig};
    use csaw_webproto::http::Request;
    use csaw_webproto::url::Url;
    use std::time::Duration;

    fn fetch_via(mb: SocketAddr, url: &str, timeout: Duration) -> Result<Response, &'static str> {
        let mut s = TcpStream::connect(mb).map_err(|_| "connect")?;
        s.set_read_timeout(Some(timeout)).unwrap();
        let url = Url::parse(url).unwrap();
        write_request(&mut s, &Request::get(&url)).map_err(|_| "write")?;
        let mut buf = BytesMut::new();
        match read_response(&mut s, &mut buf) {
            Ok(r) => Ok(r),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Err("timeout")
            }
            Err(_) => Err("reset"),
        }
    }

    #[test]
    fn pass_drop_reset_blockpage() {
        let origin = spawn_origin(OriginConfig::new("ok.test", 5_000)).unwrap();
        let blocked_origin = spawn_origin(OriginConfig::new("bad.test", 5_000)).unwrap();
        let mut policy = MbPolicy {
            block_page_html:
                "<html><body><h1>Access Denied</h1><p>blocked by order</p></body></html>".into(),
            ..Default::default()
        };
        policy.routes.insert("ok.test".into(), origin.addr);
        policy.routes.insert("bad.test".into(), blocked_origin.addr);
        let mb = spawn_middlebox(policy).unwrap();

        // Pass.
        let r = fetch_via(mb.addr, "http://ok.test/", Duration::from_secs(2)).unwrap();
        assert_eq!(r.status, 200);
        assert!(r.body.len() > 4_000);

        // Block page.
        mb.set_action("bad.test", MbAction::BlockPage);
        let r = fetch_via(mb.addr, "http://bad.test/", Duration::from_secs(2)).unwrap();
        assert!(std::str::from_utf8(&r.body)
            .unwrap()
            .contains("Access Denied"));

        // Drop: times out.
        mb.set_action("bad.test", MbAction::DropRequest);
        let e = fetch_via(mb.addr, "http://bad.test/", Duration::from_millis(300));
        assert_eq!(e.unwrap_err(), "timeout");

        // Reset: connection dies.
        mb.set_action("bad.test", MbAction::Reset);
        let e = fetch_via(mb.addr, "http://bad.test/", Duration::from_secs(2));
        assert_eq!(e.unwrap_err(), "reset");

        // Flip back to pass mid-run (the §7.5 unblocking event).
        mb.set_action("bad.test", MbAction::Pass);
        let r = fetch_via(mb.addr, "http://bad.test/", Duration::from_secs(2)).unwrap();
        assert_eq!(r.status, 200);
    }

    #[test]
    fn unrouted_host_is_bad_gateway() {
        let mb = spawn_middlebox(MbPolicy::default()).unwrap();
        let r = fetch_via(mb.addr, "http://nowhere.test/", Duration::from_secs(2)).unwrap();
        assert_eq!(r.status, 502);
    }
}
