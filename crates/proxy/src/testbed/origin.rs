//! A threaded HTTP/1.1 origin server for the localhost testbed.
//!
//! Serves configurable pages with `Content-Length`, keep-alive style,
//! binding an ephemeral 127.0.0.1 port. Stands in for the censored
//! destination sites; the "circumvention path" in the testbed is a
//! direct connection here, the "direct path" goes through the
//! censoring middlebox.

use csaw_webproto::bytes::BytesMut;
use csaw_webproto::codec::{read_request, write_response};
use csaw_webproto::http::Response;
use csaw_webproto::server::{serve, Server};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};

/// A running origin server.
#[derive(Debug)]
pub struct Origin {
    /// The hostname this origin serves.
    pub host: String,
    /// Bound address.
    pub addr: SocketAddr,
    _server: Server,
}

/// Configuration for an origin.
#[derive(Debug, Clone)]
pub struct OriginConfig {
    /// Hostname (used to synthesize default pages).
    pub host: String,
    /// Explicit pages by path.
    pub pages: HashMap<String, String>,
    /// Size of synthesized pages for unlisted paths.
    pub default_page_bytes: usize,
}

impl OriginConfig {
    /// An origin serving synthesized pages of the given size.
    pub fn new(host: &str, default_page_bytes: usize) -> OriginConfig {
        OriginConfig {
            host: host.to_string(),
            pages: HashMap::new(),
            default_page_bytes,
        }
    }

    /// Add an explicit page.
    pub fn page(mut self, path: &str, html: &str) -> OriginConfig {
        self.pages.insert(path.to_string(), html.to_string());
        self
    }
}

/// Spawn an origin server on an ephemeral port.
pub fn spawn_origin(cfg: OriginConfig) -> std::io::Result<Origin> {
    let host = cfg.host.clone();
    let server = serve("csaw-origin", crate::WRITE_TIMEOUT, move |stream| {
        serve_pages(stream, &cfg)
    })?;
    Ok(Origin {
        host,
        addr: server.addr(),
        _server: server,
    })
}

/// Keep-alive loop: serve requests until the peer closes.
fn serve_pages(stream: &mut TcpStream, cfg: &OriginConfig) {
    let mut buf = BytesMut::new();
    while let Ok(Some(req)) = read_request(stream, &mut buf) {
        let path = req.target.split('?').next().unwrap_or("/").to_string();
        let html = cfg
            .pages
            .get(&path)
            .cloned()
            .unwrap_or_else(|| csaw_webproto::synth_html(&cfg.host, cfg.default_page_bytes));
        let resp = Response::ok_html(html);
        if write_response(stream, &resp).is_err() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_webproto::codec::{read_response, write_request};
    use csaw_webproto::http::Request;
    use csaw_webproto::url::Url;

    #[test]
    fn serves_default_and_explicit_pages() {
        let origin = spawn_origin(
            OriginConfig::new("site.test", 20_000)
                .page("/hello", "<html><body>explicit</body></html>"),
        )
        .unwrap();
        let mut s = TcpStream::connect(origin.addr).unwrap();
        let mut buf = BytesMut::new();

        let url = Url::parse("http://site.test/hello").unwrap();
        write_request(&mut s, &Request::get(&url)).unwrap();
        let r = read_response(&mut s, &mut buf).unwrap();
        assert!(std::str::from_utf8(&r.body).unwrap().contains("explicit"));

        // Keep-alive: second request on the same connection.
        let url = Url::parse("http://site.test/other").unwrap();
        write_request(&mut s, &Request::get(&url)).unwrap();
        let r = read_response(&mut s, &mut buf).unwrap();
        assert!(r.body.len() >= 18_000, "{}", r.body.len());
    }
}
