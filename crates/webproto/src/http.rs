//! HTTP/1.1 message model with a byte-level codec.
//!
//! The simulation layers use the structured types; the real-socket proxy
//! crate (`csaw-proxy`) uses [`Request::encode`]/[`Response::encode`] and
//! the incremental parsers to speak actual HTTP/1.1 on localhost. The
//! codec supports what a censorship-measurement proxy needs: request
//! lines, case-insensitive headers, `Content-Length` bodies, and status
//! lines. Chunked transfer encoding is deliberately out of scope (origin
//! servers in the testbed always send `Content-Length`).

use crate::bytes::Bytes;
use std::fmt;

use crate::url::{Scheme, Url};

/// HTTP request methods the model supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Idempotent fetch — safe to duplicate across paths.
    Get,
    /// State-changing — C-Saw never duplicates POSTs (§4.3.1 footnote).
    Post,
    /// Used by clients speaking to forward proxies for HTTPS tunnelling.
    Connect,
    /// HEAD — metadata-only probe.
    Head,
}

impl Method {
    /// The method token.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Connect => "CONNECT",
            Method::Head => "HEAD",
        }
    }

    /// Parse a method token.
    pub fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "CONNECT" => Some(Method::Connect),
            "HEAD" => Some(Method::Head),
            _ => None,
        }
    }

    /// May this request be safely sent redundantly on several paths?
    pub fn safe_to_duplicate(self) -> bool {
        matches!(self, Method::Get | Method::Head)
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A case-insensitive multimap of headers preserving insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    entries: Vec<(String, String)>,
}

impl Headers {
    /// Empty header set.
    pub fn new() -> Headers {
        Headers::default()
    }

    /// Append a header.
    pub fn insert(&mut self, name: &str, value: &str) {
        self.entries
            .push((name.to_string(), value.trim().to_string()));
    }

    /// First value for a name (case-insensitive).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Replace all values of a name with one value.
    pub fn set(&mut self, name: &str, value: &str) {
        self.entries.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
        self.insert(name, value);
    }

    /// Remove all values of a name.
    pub fn remove(&mut self, name: &str) {
        self.entries.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
    }

    /// Iterate over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Number of header lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no headers are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request target: path + optional query (origin-form), or authority
    /// for CONNECT.
    pub target: String,
    /// Headers, including `Host`.
    pub headers: Headers,
    /// Body bytes (empty for GET/HEAD).
    pub body: Bytes,
}

impl Request {
    /// Build a GET for a URL (origin-form target + Host header), as a
    /// browser or proxy would emit it.
    pub fn get(url: &Url) -> Request {
        let mut headers = Headers::new();
        let host_val = if url.port() == url.scheme().default_port() {
            url.host().to_string()
        } else {
            format!("{}:{}", url.host(), url.port())
        };
        headers.insert("Host", &host_val);
        headers.insert("User-Agent", "csaw/0.1");
        headers.insert("Accept", "*/*");
        headers.insert("Connection", "keep-alive");
        let target = match url.query() {
            Some(q) => format!("{}?{}", url.path(), q),
            None => url.path().to_string(),
        };
        Request {
            method: Method::Get,
            target,
            headers,
            body: Bytes::new(),
        }
    }

    /// The Host header value (without port), if present.
    pub fn host(&self) -> Option<String> {
        self.headers
            .get("Host")
            .map(|h| h.split(':').next().unwrap_or(h).to_ascii_lowercase())
    }

    /// Reconstruct the URL this request addresses, given the scheme of the
    /// carrying connection. Returns `None` when Host is missing/invalid.
    pub fn url(&self, scheme: Scheme) -> Option<Url> {
        let host_hdr = self.headers.get("Host")?;
        let full = format!("{}://{}{}", scheme.as_str(), host_hdr, self.target);
        Url::parse(&full).ok()
    }

    /// Serialize to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256 + self.body.len());
        out.extend_from_slice(self.method.as_str().as_bytes());
        out.push(b' ');
        out.extend_from_slice(self.target.as_bytes());
        out.extend_from_slice(b" HTTP/1.1\r\n");
        let mut wrote_cl = false;
        for (n, v) in self.headers.iter() {
            if n.eq_ignore_ascii_case("content-length") {
                wrote_cl = true;
            }
            out.extend_from_slice(n.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(v.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        if !self.body.is_empty() && !wrote_cl {
            out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }

    /// Parse a complete request from a buffer. Returns the request and the
    /// number of bytes consumed, or `Ok(None)` if more bytes are needed.
    pub fn parse(buf: &[u8]) -> Result<Option<(Request, usize)>, HttpParseError> {
        let Some(head_end) = find_head_end(buf) else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| HttpParseError::NotUtf8)?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().ok_or(HttpParseError::BadStartLine)?;
        let mut parts = request_line.split(' ');
        let method = Method::parse(parts.next().unwrap_or("")).ok_or(HttpParseError::BadMethod)?;
        let target = parts
            .next()
            .filter(|t| !t.is_empty())
            .ok_or(HttpParseError::BadStartLine)?
            .to_string();
        let version = parts.next().ok_or(HttpParseError::BadStartLine)?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpParseError::BadVersion);
        }
        let headers = parse_headers(lines)?;
        let body_len = content_length(&headers)?;
        let total = head_end + 4 + body_len;
        if buf.len() < total {
            return Ok(None);
        }
        let body = Bytes::copy_from_slice(&buf[head_end + 4..total]);
        Ok(Some((
            Request {
                method,
                target,
                headers,
                body,
            },
            total,
        )))
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code, e.g. 200.
    pub status: u16,
    /// Reason phrase, e.g. "OK".
    pub reason: String,
    /// Headers.
    pub headers: Headers,
    /// Body bytes.
    pub body: Bytes,
}

impl Response {
    /// A 200 OK with an HTML body.
    pub fn ok_html(body: impl Into<Bytes>) -> Response {
        let body = body.into();
        let mut headers = Headers::new();
        headers.insert("Content-Type", "text/html; charset=utf-8");
        headers.insert("Content-Length", &body.len().to_string());
        Response {
            status: 200,
            reason: "OK".into(),
            headers,
            body,
        }
    }

    /// A redirect (302) to a location — censors use these to bounce
    /// clients to block-page servers.
    pub fn redirect(location: &str) -> Response {
        let mut headers = Headers::new();
        headers.insert("Location", location);
        headers.insert("Content-Length", "0");
        Response {
            status: 302,
            reason: "Found".into(),
            headers,
            body: Bytes::new(),
        }
    }

    /// A plain error response.
    pub fn error(status: u16, reason: &str) -> Response {
        let body = Bytes::from(format!(
            "<html><body><h1>{status} {reason}</h1></body></html>"
        ));
        let mut headers = Headers::new();
        headers.insert("Content-Type", "text/html");
        headers.insert("Content-Length", &body.len().to_string());
        Response {
            status,
            reason: reason.into(),
            headers,
            body,
        }
    }

    /// Serialize to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        out.extend_from_slice(format!("HTTP/1.1 {} {}\r\n", self.status, self.reason).as_bytes());
        let mut wrote_cl = false;
        for (n, v) in self.headers.iter() {
            if n.eq_ignore_ascii_case("content-length") {
                wrote_cl = true;
            }
            out.extend_from_slice(n.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(v.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        if !wrote_cl {
            out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }

    /// Parse a complete response from a buffer. Returns the response and
    /// bytes consumed, or `Ok(None)` if more bytes are needed.
    pub fn parse(buf: &[u8]) -> Result<Option<(Response, usize)>, HttpParseError> {
        let Some(head_end) = find_head_end(buf) else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| HttpParseError::NotUtf8)?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().ok_or(HttpParseError::BadStartLine)?;
        let mut parts = status_line.splitn(3, ' ');
        let version = parts.next().ok_or(HttpParseError::BadStartLine)?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpParseError::BadVersion);
        }
        let status: u16 = parts
            .next()
            .ok_or(HttpParseError::BadStartLine)?
            .parse()
            .map_err(|_| HttpParseError::BadStatus)?;
        let reason = parts.next().unwrap_or("").to_string();
        let headers = parse_headers(lines)?;
        let body_len = content_length(&headers)?;
        let total = head_end + 4 + body_len;
        if buf.len() < total {
            return Ok(None);
        }
        let body = Bytes::copy_from_slice(&buf[head_end + 4..total]);
        Ok(Some((
            Response {
                status,
                reason,
                headers,
                body,
            },
            total,
        )))
    }
}

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpParseError {
    /// Header section was not valid UTF-8.
    NotUtf8,
    /// Malformed request/status line.
    BadStartLine,
    /// Unknown method token.
    BadMethod,
    /// Unsupported HTTP version.
    BadVersion,
    /// Unparseable status code.
    BadStatus,
    /// Malformed header line.
    BadHeader,
    /// Content-Length present but not a number.
    BadContentLength,
}

impl fmt::Display for HttpParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for HttpParseError {}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_headers<'a>(lines: impl Iterator<Item = &'a str>) -> Result<Headers, HttpParseError> {
    let mut headers = Headers::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or(HttpParseError::BadHeader)?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpParseError::BadHeader);
        }
        headers.insert(name, value);
    }
    Ok(headers)
}

fn content_length(headers: &Headers) -> Result<usize, HttpParseError> {
    match headers.get("Content-Length") {
        None => Ok(0),
        Some(v) => v
            .trim()
            .parse()
            .map_err(|_| HttpParseError::BadContentLength),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_builder_sets_host() {
        let u = Url::parse("http://www.foo.com/a?x=1").unwrap();
        let r = Request::get(&u);
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.target, "/a?x=1");
        assert_eq!(r.headers.get("Host"), Some("www.foo.com"));
        assert_eq!(r.host().as_deref(), Some("www.foo.com"));
        assert_eq!(r.url(Scheme::Http), Some(u));
    }

    #[test]
    fn nondefault_port_in_host_header() {
        let u = Url::parse("http://foo.com:8080/").unwrap();
        let r = Request::get(&u);
        assert_eq!(r.headers.get("Host"), Some("foo.com:8080"));
        assert_eq!(r.url(Scheme::Http), Some(u));
    }

    #[test]
    fn request_roundtrip() {
        let u = Url::parse("http://example.com/path/page.html?q=v").unwrap();
        let req = Request::get(&u);
        let wire = req.encode();
        let (parsed, used) = Request::parse(&wire).unwrap().unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(parsed, req);
    }

    #[test]
    fn request_with_body_roundtrip() {
        let mut req = Request::get(&Url::parse("http://x.com/post").unwrap());
        req.method = Method::Post;
        req.body = Bytes::from_static(b"k=v&a=b");
        let wire = req.encode();
        let (parsed, _) = Request::parse(&wire).unwrap().unwrap();
        assert_eq!(parsed.body, req.body);
        assert_eq!(
            parsed.headers.get("Content-Length"),
            Some("7"),
            "encoder adds Content-Length"
        );
    }

    #[test]
    fn incremental_parse_needs_more() {
        let u = Url::parse("http://example.com/").unwrap();
        let wire = Request::get(&u).encode();
        for cut in [0, 5, wire.len() - 1] {
            assert_eq!(Request::parse(&wire[..cut]).unwrap(), None, "cut {cut}");
        }
        assert!(Request::parse(&wire).unwrap().is_some());
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::ok_html("<html><body>hi</body></html>");
        let wire = resp.encode();
        let (parsed, used) = Response::parse(&wire).unwrap().unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.body, resp.body);
    }

    #[test]
    fn response_body_split_across_reads() {
        let resp = Response::ok_html("0123456789");
        let wire = resp.encode();
        // Header complete but body truncated -> needs more.
        let head_end = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        assert_eq!(Response::parse(&wire[..head_end + 3]).unwrap(), None);
        let (parsed, _) = Response::parse(&wire).unwrap().unwrap();
        assert_eq!(parsed.body.len(), 10);
    }

    #[test]
    fn redirect_detection() {
        let r = Response::redirect("http://blockpage.isp.pk/");
        assert_eq!(r.status, 302);
        assert_eq!(r.headers.get("Location"), Some("http://blockpage.isp.pk/"));
    }

    #[test]
    fn header_case_insensitivity_and_set() {
        let mut h = Headers::new();
        h.insert("Content-Type", "text/html");
        assert_eq!(h.get("content-type"), Some("text/html"));
        h.set("CONTENT-TYPE", "image/png");
        assert_eq!(h.get("Content-Type"), Some("image/png"));
        assert_eq!(h.len(), 1);
        h.remove("content-type");
        assert!(h.is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            Request::parse(b"BREW /pot HTTP/1.1\r\n\r\n"),
            Err(HttpParseError::BadMethod)
        ));
        assert!(matches!(
            Request::parse(b"GET / SPDY/9\r\n\r\n"),
            Err(HttpParseError::BadVersion)
        ));
        assert!(matches!(
            Response::parse(b"HTTP/1.1 abc OK\r\n\r\n"),
            Err(HttpParseError::BadStatus)
        ));
        assert!(matches!(
            Response::parse(b"HTTP/1.1 200 OK\r\nContent-Length: banana\r\n\r\n"),
            Err(HttpParseError::BadContentLength)
        ));
    }

    #[test]
    fn pipelined_requests_parse_sequentially() {
        let a = Request::get(&Url::parse("http://x.com/first").unwrap());
        let b = Request::get(&Url::parse("http://x.com/second").unwrap());
        let mut wire = a.encode();
        wire.extend_from_slice(&b.encode());
        let (p1, used1) = Request::parse(&wire).unwrap().unwrap();
        assert_eq!(p1.target, "/first");
        let (p2, used2) = Request::parse(&wire[used1..]).unwrap().unwrap();
        assert_eq!(p2.target, "/second");
        assert_eq!(used1 + used2, wire.len());
    }

    #[test]
    fn post_not_safe_to_duplicate() {
        assert!(Method::Get.safe_to_duplicate());
        assert!(Method::Head.safe_to_duplicate());
        assert!(!Method::Post.safe_to_duplicate());
    }
}
