//! A from-scratch URL type tailored to C-Saw's needs.
//!
//! C-Saw's local database is keyed by URL and relies on structural
//! relationships between URLs (§4.4 "Managing the database size"):
//!
//! - the **base URL** `http://www.foo.com/` versus **derived URLs** such as
//!   `http://www.foo.com/a.html`;
//! - **longest-prefix matching** over path segments to find the most
//!   specific blocking record for a derived URL;
//! - **hostname-level aggregation** for DNS/IP/SNI blocking, where the
//!   censor cannot see paths at all;
//! - the **"IP as hostname"** circumvention trick (Figure 1c), which
//!   requires hosts to be either names or literal IPv4 addresses.
//!
//! Only `http` and `https` schemes exist in this model — the paper is
//! about web censorship.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// URL scheme. The model covers web traffic only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scheme {
    /// Plaintext HTTP — the censor sees the full request line and headers.
    Http,
    /// HTTPS — the censor sees only the TLS SNI (and the IP).
    Https,
}

impl Scheme {
    /// Default port for the scheme.
    pub fn default_port(self) -> u16 {
        match self {
            Scheme::Http => 80,
            Scheme::Https => 443,
        }
    }

    /// Scheme keyword as it appears in a URL.
    pub fn as_str(self) -> &'static str {
        match self {
            Scheme::Http => "http",
            Scheme::Https => "https",
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A host: either a DNS name or a literal IPv4 address.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Host {
    /// A DNS hostname, stored lowercase.
    Name(String),
    /// A literal IPv4 address (the "IP as hostname" form).
    Ip(Ipv4Addr),
}

impl Host {
    /// Parse a host component; a well-formed dotted quad becomes an IP.
    pub fn parse(s: &str) -> Result<Host, UrlParseError> {
        let scan = Scan::of(s.as_bytes());
        // A `/`, `?` or `#` ends the scan; no host may hold one.
        let bits = if scan.end < s.len() {
            class::NOT_NAME | class::NOT_QUAD
        } else {
            scan.bits
        };
        Ok(Host::of(s, check_host(s, bits)?))
    }

    /// The host a checked component names: its address, or the name
    /// lower-cased.
    fn of(s: &str, ip: Option<Ipv4Addr>) -> Host {
        match ip {
            Some(ip) => Host::Ip(ip),
            None => Host::Name(s.to_ascii_lowercase()),
        }
    }

    /// Is this a literal IP host?
    pub fn is_ip(&self) -> bool {
        matches!(self, Host::Ip(_))
    }

    /// The DNS name if this is a named host.
    pub fn name(&self) -> Option<&str> {
        match self {
            Host::Name(n) => Some(n),
            Host::Ip(_) => None,
        }
    }

    /// Registrable-domain heuristic: the last two labels, or the last
    /// three when the penultimate label is a well-known second-level
    /// registry label (`co`, `com`, `net`, `org`, `gov`, `edu`, `ac`).
    /// IPs return their dotted form.
    ///
    /// Example: `video.cdn.foo.com` → `foo.com`; `www.bbc.co.uk` →
    /// `bbc.co.uk`.
    pub fn registrable_domain(&self) -> String {
        match self {
            Host::Ip(ip) => ip.to_string(),
            Host::Name(n) => {
                let labels: Vec<&str> = n.split('.').collect();
                if labels.len() <= 2 {
                    return n.clone();
                }
                let second_level = matches!(
                    labels[labels.len() - 2],
                    "co" | "com" | "net" | "org" | "gov" | "edu" | "ac"
                );
                let keep = if second_level && labels.len() >= 3 {
                    3
                } else {
                    2
                };
                labels[labels.len() - keep..].join(".")
            }
        }
    }
}

/// Byte classes of the URL scanner: what each byte rules out, one
/// table entry per byte.
mod class {
    /// Not in a host name: anything but ASCII alphanumerics, `-`, `.`
    /// and `_`.
    pub const NOT_NAME: u8 = 1;
    /// Not in a dotted quad: anything but ASCII digits and `.`.
    pub const NOT_QUAD: u8 = 2;
    /// `.`, which a host name may not hold twice in a row.
    pub const DOT: u8 = 4;
    /// `:`, `/`, `?` or `#`: the scanner stops to look.
    pub const STOP: u8 = 8;

    pub const OF: [u8; 256] = {
        let mut t = [NOT_NAME | NOT_QUAD; 256];
        let mut b = 0;
        while b < 256 {
            let c = b as u8;
            if matches!(c, b':' | b'/' | b'?' | b'#') {
                t[b] = STOP | NOT_NAME | NOT_QUAD;
            } else if c == b'.' {
                t[b] = DOT;
            } else if c.is_ascii_digit() {
                t[b] = 0;
            } else if c.is_ascii_alphanumeric() || matches!(c, b'-' | b'_') {
                t[b] = NOT_QUAD;
            }
            b += 1;
        }
        t
    };
}

/// What one forward pass learns about an authority (`host[:port]`):
/// where it ends, where its last `:` is, and what its bytes rule out.
/// Every host rule but the two edge dots is decided here, so the host's
/// bytes are read once.
struct Scan {
    /// Offset of the first `/`, `?` or `#`, or the input's length.
    end: usize,
    /// The last `:` before `end`, with the class bits of the bytes
    /// before it: the host's, if a port follows.
    colon: Option<(usize, u8)>,
    /// The class bits of every byte before `end`, OR-ed, with
    /// [`class::NOT_NAME`] added for a `..`.
    bits: u8,
}

impl Scan {
    /// Whole 8-byte chunks that hold no stop byte are classified without
    /// a branch per byte; from the first chunk that holds one, the scan
    /// goes byte by byte.
    fn of(bytes: &[u8]) -> Scan {
        use class::{DOT, NOT_NAME, OF, STOP};
        // A `..` is `DOT` in two neighbours' classes; shifted, it is
        // `NOT_NAME`.
        const _: () = assert!(DOT >> 2 == NOT_NAME);
        let mut bits = 0u8;
        let mut prev = 0u8;
        let mut i = 0;
        while let Some(chunk) = bytes[i..].first_chunk::<8>() {
            let (mut any, mut pairs, mut last) = (0u8, 0u8, prev);
            for &b in chunk {
                let c = OF[usize::from(b)];
                any |= c;
                pairs |= c & last;
                last = c;
            }
            if any & STOP != 0 {
                break;
            }
            bits |= any | (pairs & DOT) >> 2;
            prev = last;
            i += 8;
        }
        let mut scan = Scan {
            end: bytes.len(),
            colon: None,
            bits,
        };
        for (j, &b) in bytes[i..].iter().enumerate() {
            let c = OF[usize::from(b)];
            if c & STOP != 0 {
                if b != b':' {
                    scan.end = i + j;
                    break;
                }
                scan.colon = Some((i + j, scan.bits));
            }
            scan.bits |= c | (c & prev & DOT) >> 2;
            prev = c;
        }
        scan
    }
}

/// Validate `host`, whose bytes' classes OR to `bits`: `Some(ip)` for a
/// well-formed dotted quad, `None` for a valid name. A name's bytes are
/// tested as they are — ASCII classes are case-blind — so nothing is
/// lower-cased to find out whether it may be.
fn check_host(host: &str, bits: u8) -> Result<Option<Ipv4Addr>, UrlParseError> {
    if host.is_empty() {
        return Err(UrlParseError::EmptyHost);
    }
    if bits & class::NOT_QUAD == 0 {
        if let Ok(ip) = host.parse::<Ipv4Addr>() {
            return Ok(Some(ip));
        }
    }
    if bits & class::NOT_NAME != 0 || host.starts_with('.') || host.ends_with('.') {
        return Err(UrlParseError::BadHost(host.to_string()));
    }
    Ok(None)
}

/// A host as a base key writes it: a name (lower-cased on the way) or
/// an address.
enum HostText<'a> {
    Name(&'a str),
    Ip(Ipv4Addr),
}

/// Write `{scheme}://{host}[:{port}]/` over `out`: the one rendering of
/// a base URL's string key. `port` is the URL's explicit port, dropped
/// here when it is `scheme`'s default.
fn write_base(out: &mut String, scheme: Scheme, host: HostText<'_>, port: Option<u16>) {
    use fmt::Write;
    out.clear();
    out.push_str(scheme.as_str());
    out.push_str("://");
    match host {
        HostText::Name(name) => {
            let from = out.len();
            out.push_str(name);
            out[from..].make_ascii_lowercase();
        }
        HostText::Ip(ip) => {
            let _ = write!(out, "{ip}");
        }
    }
    if let Some(p) = port.filter(|p| *p != scheme.default_port()) {
        let _ = write!(out, ":{p}");
    }
    out.push('/');
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Host::Name(n) => f.write_str(n),
            Host::Ip(ip) => write!(f, "{ip}"),
        }
    }
}

/// Errors from URL parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UrlParseError {
    /// Missing or unrecognized scheme prefix.
    BadScheme,
    /// Host component was empty.
    EmptyHost,
    /// Host contained invalid characters or structure.
    BadHost(String),
    /// Port was present but not a valid u16.
    BadPort(String),
}

impl fmt::Display for UrlParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UrlParseError::BadScheme => write!(f, "expected http:// or https:// scheme"),
            UrlParseError::EmptyHost => write!(f, "empty host"),
            UrlParseError::BadHost(h) => write!(f, "invalid host: {h:?}"),
            UrlParseError::BadPort(p) => write!(f, "invalid port: {p:?}"),
        }
    }
}

impl std::error::Error for UrlParseError {}

/// A parsed, normalized web URL.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Url {
    scheme: Scheme,
    host: Host,
    /// Explicit port, if different from the scheme default.
    port: Option<u16>,
    /// Always begins with `/`. Normalized: no empty inner segments.
    path: String,
    /// Query string without the leading `?`, if any.
    query: Option<String>,
}

/// A URL string cut at its authority, borrowed from the input: what
/// [`Url::parse`], [`Url::check`] and [`Url::base_key`] all start from,
/// so the set of accepted strings is written once. The host is already
/// validated; path, query and fragment are still uncut in `tail`,
/// because nothing in them can make a URL fail to parse.
struct Split<'a> {
    scheme: Scheme,
    host: &'a str,
    /// The host's address when it is a dotted quad.
    ip: Option<Ipv4Addr>,
    port: Option<u16>,
    /// What follows the authority: empty, or from a `/`, `?` or `#`.
    tail: &'a str,
}

impl<'a> Split<'a> {
    /// Trim `s`, then read its scheme and, in one forward pass, its
    /// authority: host, last `:` and port. A non-numeric or out-of-range
    /// port is reported before anything about the host.
    fn of(s: &'a str) -> Result<Split<'a>, UrlParseError> {
        let s = s.trim();
        let (scheme, rest) = if let Some(r) = s.strip_prefix("https://") {
            (Scheme::Https, r)
        } else if let Some(r) = s.strip_prefix("http://") {
            (Scheme::Http, r)
        } else {
            return Err(UrlParseError::BadScheme);
        };
        let scan = Scan::of(rest.as_bytes());
        let (authority, tail) = rest.split_at(scan.end);
        // An empty port leaves the `:` in the host, which rejects it.
        let (host, bits, port) = match scan.colon {
            Some((c, host_bits)) if c + 1 < authority.len() => {
                let p = &authority[c + 1..];
                // `u16::from_str` takes a leading `+`; a port is digits.
                let digits = p.bytes().all(|b| b.is_ascii_digit());
                let port = p
                    .parse::<u16>()
                    .ok()
                    .filter(|_| digits)
                    .ok_or_else(|| UrlParseError::BadPort(p.to_string()))?;
                (&authority[..c], host_bits, Some(port))
            }
            _ => (authority, scan.bits, None),
        };
        Ok(Split {
            scheme,
            host,
            ip: check_host(host, bits)?,
            port,
            tail,
        })
    }

    /// The path (`/` when there is none) and the query; the fragment is
    /// dropped.
    fn path_and_query(&self) -> (&'a str, Option<&'a str>) {
        let tail = self.tail.find('#').map_or(self.tail, |i| &self.tail[..i]);
        let (path, query) = match tail.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (tail, None),
        };
        (if path.is_empty() { "/" } else { path }, query)
    }

    /// The port a parsed URL keeps: none when it is the scheme's default.
    fn port(&self) -> Option<u16> {
        self.port.filter(|p| *p != self.scheme.default_port())
    }
}

impl Url {
    /// Parse a URL string. Accepts `http://` and `https://` URLs with an
    /// optional port, path and query. Fragments are stripped (a censor
    /// never sees them — they stay in the browser).
    pub fn parse(s: &str) -> Result<Url, UrlParseError> {
        let split = Split::of(s)?;
        let (path, query) = split.path_and_query();
        Ok(Url {
            scheme: split.scheme,
            host: Host::of(split.host, split.ip),
            // Drop an explicit default port during normalization.
            port: split.port(),
            path: normalize_path(path),
            query: query.filter(|q| !q.is_empty()).map(str::to_string),
        })
    }

    /// Would [`Url::parse`] accept `s`? The same answer and the same
    /// error, without building the URL: nothing is allocated for a URL
    /// that parses, and the path and query are never read.
    pub fn check(s: &str) -> Result<(), UrlParseError> {
        Split::of(s).map(|_| ())
    }

    /// Write `Url::parse(s)?.base_string(scheme)` over `out` without
    /// building the URL: the same key, or the same error with `out`
    /// left as it was. Only the scheme and authority are read, and
    /// nothing is allocated once `out` has room for the key.
    pub fn base_key(s: &str, scheme: Scheme, out: &mut String) -> Result<(), UrlParseError> {
        let split = Split::of(s)?;
        let host = match split.ip {
            Some(ip) => HostText::Ip(ip),
            None => HostText::Name(split.host),
        };
        write_base(out, scheme, host, split.port());
        Ok(())
    }

    /// Construct from parts (used by generators and tests).
    pub fn from_parts(
        scheme: Scheme,
        host: Host,
        port: Option<u16>,
        path: &str,
        query: Option<&str>,
    ) -> Url {
        Url {
            scheme,
            host,
            port: port.filter(|p| *p != scheme.default_port()),
            path: normalize_path(path),
            query: query.map(str::to_string).filter(|q| !q.is_empty()),
        }
    }

    /// The scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The host.
    pub fn host(&self) -> &Host {
        &self.host
    }

    /// The effective port (explicit, or the scheme default).
    pub fn port(&self) -> u16 {
        self.port.unwrap_or_else(|| self.scheme.default_port())
    }

    /// The normalized path (always starts with `/`).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The query string without `?`, if present.
    pub fn query(&self) -> Option<&str> {
        self.query.as_deref()
    }

    /// Path split into segments; the base path `/` has no segments.
    pub fn path_segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|seg| !seg.is_empty()).collect()
    }

    /// Is this a **base URL** in the paper's sense: the root of a host,
    /// e.g. `http://www.foo.com/` (no path beyond `/`, no query)?
    pub fn is_base(&self) -> bool {
        self.path == "/" && self.query.is_none()
    }

    /// The base URL of this URL: same scheme/host/port, path `/`.
    pub fn base(&self) -> Url {
        Url {
            scheme: self.scheme,
            host: self.host.clone(),
            port: self.port,
            path: "/".to_string(),
            query: None,
        }
    }

    /// Is `self` derived from `other` — same scheme/host/port, and
    /// `other`'s path segments are a (proper or equal) prefix of ours?
    /// Every URL is derived from its own base.
    pub fn is_derived_from(&self, other: &Url) -> bool {
        if self.scheme != other.scheme || self.host != other.host || self.port != other.port {
            return false;
        }
        let mine = self.path_segments();
        let theirs = other.path_segments();
        if theirs.len() > mine.len() {
            return false;
        }
        mine.iter().zip(theirs.iter()).all(|(a, b)| a == b)
    }

    /// Same URL under a different scheme (used when an HTTPS local-fix
    /// upgrades an HTTP URL: the resource identity is unchanged).
    ///
    /// A URL on its scheme's default port moves to the *new* scheme's
    /// default port — upgrading `http://h/` yields `https://h/` (port 443),
    /// which is what a real protocol upgrade does. An explicit non-default
    /// port is preserved.
    pub fn with_scheme(&self, scheme: Scheme) -> Url {
        let mut u = self.clone();
        u.scheme = scheme;
        u.port = u.port.filter(|p| *p != scheme.default_port());
        u
    }

    /// The same resource addressed by literal IP instead of hostname —
    /// the Figure 1c "IP as hostname" circumvention.
    pub fn with_ip_host(&self, ip: Ipv4Addr) -> Url {
        let mut u = self.clone();
        u.host = Host::Ip(ip);
        u
    }

    /// Hostname for DNS resolution (None when the host is a literal IP —
    /// no lookup needed, which is exactly why IP-as-hostname defeats DNS
    /// and keyword filters).
    pub fn dns_name(&self) -> Option<&str> {
        self.host.name()
    }

    /// The aggregation key for non-HTTP blocking (DNS/IP/SNI all act on
    /// the host, not the path): scheme + host + port with path `/`.
    pub fn host_key(&self) -> Url {
        self.base()
    }

    /// `self.base().with_scheme(scheme).to_string()`, written straight
    /// into one `String`: the string key of this URL's base under
    /// `scheme`.
    pub fn base_string(&self, scheme: Scheme) -> String {
        // scheme, "://", the host (at most 15 bytes as an IP), ":port", "/".
        let host_len = self.host.name().map_or(15, str::len);
        let mut s = String::with_capacity(scheme.as_str().len() + 3 + host_len + 7);
        self.base_string_into(scheme, &mut s);
        s
    }

    /// [`Url::base_string`] written over `out`, which keeps its room.
    pub fn base_string_into(&self, scheme: Scheme, out: &mut String) {
        let host = match &self.host {
            Host::Name(n) => HostText::Name(n),
            Host::Ip(ip) => HostText::Ip(*ip),
        };
        write_base(out, scheme, host, self.port);
    }

    /// The URL of `name` in this URL's directory — its path up to and
    /// including the last `/` — on the same scheme, host and port, with
    /// no query. `name` is written straight after the directory, which
    /// is already normalised; it must be a relative path of non-empty,
    /// non-`.` segments, so the result needs no second pass.
    pub fn in_dir(&self, name: impl fmt::Display) -> Url {
        use fmt::Write;
        let dir = &self.path[..=self.path.rfind('/').expect("a path starts with `/`")];
        let mut path = String::with_capacity(dir.len() + 16);
        path.push_str(dir);
        let _ = write!(path, "{name}");
        debug_assert_eq!(normalize_path(&path), path, "not a normalised name");
        Url {
            scheme: self.scheme,
            host: self.host.clone(),
            port: self.port,
            path,
            query: None,
        }
    }
}

/// Normalize a path: ensure leading `/`, collapse duplicate slashes,
/// resolve `.` segments (but keep `..` literally — we model, not a
/// browser; censors match textually).
fn normalize_path(p: &str) -> String {
    let mut out = String::with_capacity(p.len().max(1));
    out.push('/');
    for seg in p.split('/') {
        if seg.is_empty() || seg == "." {
            continue;
        }
        if !out.ends_with('/') {
            out.push('/');
        }
        out.push_str(seg);
    }
    out
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}", self.scheme, self.host)?;
        if let Some(p) = self.port {
            write!(f, ":{p}")?;
        }
        f.write_str(&self.path)?;
        if let Some(q) = &self.query {
            write!(f, "?{q}")?;
        }
        Ok(())
    }
}

impl FromStr for Url {
    type Err = UrlParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Url::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple() {
        let u = Url::parse("http://www.foo.com/a.html").unwrap();
        assert_eq!(u.scheme(), Scheme::Http);
        assert_eq!(u.host().to_string(), "www.foo.com");
        assert_eq!(u.port(), 80);
        assert_eq!(u.path(), "/a.html");
        assert_eq!(u.query(), None);
    }

    #[test]
    fn parses_everything() {
        let u = Url::parse("https://Example.COM:8443/a/b/c?x=1&y=2#frag").unwrap();
        assert_eq!(u.scheme(), Scheme::Https);
        assert_eq!(u.host().name(), Some("example.com"));
        assert_eq!(u.port(), 8443);
        assert_eq!(u.path(), "/a/b/c");
        assert_eq!(u.query(), Some("x=1&y=2"));
        assert_eq!(u.to_string(), "https://example.com:8443/a/b/c?x=1&y=2");
    }

    #[test]
    fn default_port_normalized_away() {
        let u = Url::parse("http://foo.com:80/x").unwrap();
        assert_eq!(u.to_string(), "http://foo.com/x");
        let u = Url::parse("https://foo.com:443/").unwrap();
        assert_eq!(u.to_string(), "https://foo.com/");
        // Non-default port survives.
        let u = Url::parse("http://foo.com:8080/").unwrap();
        assert_eq!(u.to_string(), "http://foo.com:8080/");
    }

    #[test]
    fn no_path_means_root() {
        let u = Url::parse("http://foo.com").unwrap();
        assert_eq!(u.path(), "/");
        assert!(u.is_base());
    }

    #[test]
    fn ip_hosts() {
        let u = Url::parse("http://93.184.216.34/page").unwrap();
        assert!(u.host().is_ip());
        assert_eq!(u.dns_name(), None);
        let named = Url::parse("http://foo.com/page").unwrap();
        let as_ip = named.with_ip_host("10.0.0.1".parse().unwrap());
        assert_eq!(as_ip.to_string(), "http://10.0.0.1/page");
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(Url::parse("ftp://x/"), Err(UrlParseError::BadScheme));
        assert_eq!(Url::parse("http://"), Err(UrlParseError::EmptyHost));
        assert!(matches!(
            Url::parse("http://bad host/"),
            Err(UrlParseError::BadHost(_))
        ));
        assert!(matches!(
            Url::parse("http://foo.com:notaport/"),
            Err(UrlParseError::BadPort(_))
        ));
        assert!(matches!(
            Url::parse("http://..foo.com/"),
            Err(UrlParseError::BadHost(_))
        ));
    }

    #[test]
    fn base_and_derived() {
        let base = Url::parse("http://www.foo.com/").unwrap();
        let derived = Url::parse("http://www.foo.com/a/b.html").unwrap();
        let other_host = Url::parse("http://bar.com/a/b.html").unwrap();
        assert!(base.is_base());
        assert!(!derived.is_base());
        assert_eq!(derived.base(), base);
        assert!(derived.is_derived_from(&base));
        assert!(derived.is_derived_from(&derived));
        assert!(!base.is_derived_from(&derived));
        assert!(!other_host.is_derived_from(&base));
    }

    #[test]
    fn prefix_semantics_are_segment_wise() {
        let a = Url::parse("http://x.com/ab").unwrap();
        let b = Url::parse("http://x.com/abc").unwrap();
        // "/ab" is a *string* prefix of "/abc" but not a segment prefix.
        assert!(!b.is_derived_from(&a));
        let c = Url::parse("http://x.com/ab/c").unwrap();
        assert!(c.is_derived_from(&a));
    }

    #[test]
    fn path_normalization() {
        let u = Url::parse("http://x.com//a///b/./c").unwrap();
        assert_eq!(u.path(), "/a/b/c");
        assert_eq!(u.path_segments(), vec!["a", "b", "c"]);
    }

    #[test]
    fn scheme_swap_keeps_identity() {
        let u = Url::parse("http://foo.com/a?q=1").unwrap();
        let s = u.with_scheme(Scheme::Https);
        assert_eq!(s.to_string(), "https://foo.com/a?q=1");
        assert_eq!(s.with_scheme(Scheme::Http), u);
        // Port normalization across schemes: http://h:443/ -> https keeps
        // the default-for-https port implicit.
        let odd = Url::parse("http://foo.com:443/").unwrap();
        assert_eq!(
            odd.with_scheme(Scheme::Https).to_string(),
            "https://foo.com/"
        );
    }

    #[test]
    fn registrable_domain_heuristic() {
        let h = |s: &str| Host::parse(s).unwrap().registrable_domain();
        assert_eq!(h("www.foo.com"), "foo.com");
        assert_eq!(h("video.cdn.foo.com"), "foo.com");
        assert_eq!(h("foo.com"), "foo.com");
        assert_eq!(h("www.bbc.co.uk"), "bbc.co.uk");
        assert_eq!(h("localhost"), "localhost");
        assert_eq!(
            Host::Ip("1.2.3.4".parse().unwrap()).registrable_domain(),
            "1.2.3.4"
        );
    }

    #[test]
    fn almost_ip_hosts_stay_names() {
        // Dotted quads that aren't valid IPv4 parse as hostnames.
        for h in ["999.1.1.1", "1.2.3.4.5", "1.2.3", "01a.2.3.4"] {
            let host = Host::parse(h).unwrap();
            assert!(!host.is_ip(), "{h} misparsed as IP");
        }
        assert!(Host::parse("255.255.255.255").unwrap().is_ip());
    }

    #[test]
    fn base_string_is_the_rendered_base() {
        for s in [
            "http://foo.com/a/b?q=1",
            "https://foo.com/",
            "https://foo.com:8443/x",
            "https://foo.com:80/x",
            "http://foo.com:443/x",
            "http://10.1.2.3:8080/p",
        ] {
            let u = Url::parse(s).unwrap();
            for scheme in [Scheme::Http, Scheme::Https] {
                assert_eq!(
                    u.base_string(scheme),
                    u.base().with_scheme(scheme).to_string(),
                    "{s} under {scheme}"
                );
            }
        }
    }

    #[test]
    fn in_dir_keeps_the_origin_and_drops_the_query() {
        let u = Url::parse("http://x.com:8080/a/b?q=1").unwrap();
        assert_eq!(
            u.in_dir("assets/r0.bin").to_string(),
            "http://x.com:8080/a/assets/r0.bin"
        );
        let root = Url::parse("https://x.com/").unwrap();
        assert_eq!(
            root.in_dir(format_args!("r{}.bin", 7)),
            Url::parse("https://x.com/r7.bin").unwrap()
        );
    }

    #[test]
    fn display_parse_roundtrip() {
        for s in [
            "http://foo.com/",
            "https://a.b.c.d.com/x/y/z?q=2",
            "http://10.1.2.3:8080/p",
            "https://foo.com/a%20b",
        ] {
            let u = Url::parse(s).unwrap();
            let r = Url::parse(&u.to_string()).unwrap();
            assert_eq!(u, r, "roundtrip of {s}");
        }
    }
}
