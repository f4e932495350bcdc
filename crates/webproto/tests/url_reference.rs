//! Differential test of the URL scanner against the splitter it
//! replaced.
//!
//! `Url::parse`, `Url::check` and `Url::base_key` start from one forward
//! pass over the authority. [`reference`] keeps the grammar as it was
//! written before — trim, cut the fragment, the query and the path off
//! the whole string, then split host and port at the last `:` and
//! validate the host — as the specification. Over the generated URLs of
//! `proptest_url.rs`, every truncation and single-byte mutation of them,
//! and generated mixes of awkward parts (upper-case and near-IP hosts,
//! edge ports, a `?` or `#` before the first `/`, dots, `_`, `@`, ASCII
//! and non-ASCII whitespace), this test requires
//!
//! 1. `parse` == the reference, on the value and on the error;
//! 2. `check` == `parse`, error included;
//! 3. `base_key(s, scheme, ..)` == `parse(s).map(|u| u.base_string(scheme))`
//!    for both schemes, with the buffer left as it was on an error.

mod support;

use csaw_webproto::url::{Scheme, Url, UrlParseError};
use support::{rand_hostname, rand_path, rand_url, TestRng, CASES};

/// The splitter, host check and parse as they were before the one-pass
/// scanner, kept as they were.
mod reference {
    use csaw_webproto::url::{Host, Scheme, Url, UrlParseError};
    use std::net::Ipv4Addr;

    fn check_host(s: &str) -> Result<Option<Ipv4Addr>, UrlParseError> {
        if s.is_empty() {
            return Err(UrlParseError::EmptyHost);
        }
        if let Ok(ip) = s.parse::<Ipv4Addr>() {
            return Ok(Some(ip));
        }
        let valid = s
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_'));
        if !valid || s.starts_with('.') || s.ends_with('.') || s.contains("..") {
            return Err(UrlParseError::BadHost(s.to_string()));
        }
        Ok(None)
    }

    struct Split<'a> {
        scheme: Scheme,
        host: &'a str,
        port: Option<u16>,
        path: &'a str,
        query: Option<&'a str>,
    }

    fn split(s: &str) -> Result<Split<'_>, UrlParseError> {
        let s = s.trim();
        let (scheme, rest) = if let Some(r) = s.strip_prefix("https://") {
            (Scheme::Https, r)
        } else if let Some(r) = s.strip_prefix("http://") {
            (Scheme::Http, r)
        } else {
            return Err(UrlParseError::BadScheme);
        };
        let rest = rest.split('#').next().unwrap_or(rest);
        let (authority_path, query) = match rest.split_once('?') {
            Some((ap, q)) => (ap, Some(q)),
            None => (rest, None),
        };
        let (authority, path) = match authority_path.find('/') {
            Some(i) => (&authority_path[..i], &authority_path[i..]),
            None => (authority_path, "/"),
        };
        let (host, port) = match authority.rsplit_once(':') {
            Some((h, p)) if !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit()) => {
                let port: u16 = p
                    .parse()
                    .map_err(|_| UrlParseError::BadPort(p.to_string()))?;
                (h, Some(port))
            }
            Some((_, p)) if p.bytes().any(|b| !b.is_ascii_digit()) && !p.is_empty() => {
                return Err(UrlParseError::BadPort(p.to_string()));
            }
            _ => (authority, None),
        };
        Ok(Split {
            scheme,
            host,
            port,
            path,
            query,
        })
    }

    /// `Url::parse` as it was: `from_parts` drops a default port and an
    /// empty query and normalises the path exactly as `parse` did.
    pub fn parse(s: &str) -> Result<Url, UrlParseError> {
        let split = split(s)?;
        let host = match check_host(split.host)? {
            Some(ip) => Host::Ip(ip),
            None => Host::Name(split.host.to_ascii_lowercase()),
        };
        Ok(Url::from_parts(
            split.scheme,
            host,
            split.port,
            split.path,
            split.query,
        ))
    }
}

/// Hold `s` to all three requirements. Returns whether it parsed.
fn agree(s: &str) -> bool {
    let parsed = Url::parse(s);
    assert_eq!(parsed, reference::parse(s), "parse of {s:?}");
    assert_eq!(
        Url::check(s),
        parsed.as_ref().map(|_| ()).map_err(Clone::clone),
        "check of {s:?}"
    );
    for scheme in [Scheme::Http, Scheme::Https] {
        let mut key = String::from("left as it was");
        let got = Url::base_key(s, scheme, &mut key).map(|()| key.clone());
        let want: Result<String, UrlParseError> = parsed
            .as_ref()
            .map(|u| u.base_string(scheme))
            .map_err(Clone::clone);
        assert_eq!(got, want, "base_key of {s:?} under {scheme}");
        if got.is_err() {
            assert_eq!(key, "left as it was", "base_key wrote on an error: {s:?}");
        }
    }
    parsed.is_ok()
}

/// Hosts a mutation puts in place of a generated one.
const HOSTS: &[&str] = &[
    "EXAMPLE.COM",
    "Mixed.Case-Host.Org",
    "1.2.3.4",
    "255.255.255.255",
    "0.0.0.0",
    "256.1.1.1",
    "1.2.3",
    "1.2.3.4.5",
    "01.2.3.4",
    "1..2.3",
    "1.2.3.4.",
    ".1.2.3.4",
    "1.2.3.x",
    "..foo.com",
    ".foo.com",
    "foo.com.",
    "foo..com",
    ".",
    "..",
    "under_score.com",
    "_",
    "user@host.com",
    "@",
    "exämple.com",
    "例え.jp",
    "host with space",
    // `..`, `:` and a last `.` either side of the scanner's 8-byte
    // chunk edges.
    "abcdefg..hijklmnopq.com",
    "abcdefgh..ijklmnopq.com",
    "abcdefghijklmno..pq.com",
    "abcdefg.hijklmno.",
    "abcdefghijklmnop.",
    "abcdefg:h",
    "abcdefgh:ijklmnop:q",
    "100.200.100.200",
    "100.200.100.2000",
    "",
];

/// Ports (with their `:`) a mutation appends to the host.
const PORTS: &[&str] = &[
    "",
    ":0",
    ":80",
    ":443",
    ":8080",
    ":65535",
    ":65536",
    ":99999999999",
    ":",
    "::80",
    ":8a",
    ":+80",
    ":-1",
    ": 80",
    ":080",
    ":٣",
];

/// What a mutation puts between the authority and the path.
const SEPARATORS: &[&str] = &["", "?", "#", "?q=1", "#frag", "?x#y", "#x?y", "?/", "#/"];

/// Whitespace a mutation wraps the URL in: ASCII, and Unicode that
/// `str::trim` does and does not strip.
const PADS: &[&str] = &[
    "", " ", "\t", "\n", "\r\n ", "\u{a0}", "\u{2003}", "\u{3000}", "\u{85}", "\u{feff}",
    "\u{200b}",
];

const SCHEMES: &[&str] = &[
    "http://", "https://", "HTTP://", "http:/", "ftp://", "http:://", "",
];

/// A URL assembled from awkward parts.
fn awkward(rng: &mut TestRng) -> String {
    let pick = |rng: &mut TestRng, xs: &[&'static str]| xs[rng.index(xs.len())];
    let scheme = if rng.index(4) == 0 {
        pick(rng, SCHEMES)
    } else {
        pick(rng, &SCHEMES[..2])
    };
    let host = if rng.chance() {
        pick(rng, HOSTS).to_string()
    } else {
        let h = rand_hostname(rng);
        // Upper-case some of it.
        h.chars()
            .map(|c| {
                if rng.chance() {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect()
    };
    let port = pick(rng, PORTS);
    let sep = pick(rng, SEPARATORS);
    let path = if rng.chance() {
        rand_path(rng)
    } else {
        String::new()
    };
    let (lead, trail) = (pick(rng, PADS), pick(rng, PADS));
    format!("{lead}{scheme}{host}{port}{sep}{path}{trail}")
}

/// Every truncation of `s` and every replacement of one of its bytes by
/// a byte of each class the grammar treats apart, plus a non-ASCII
/// character and whitespace.
fn mutations(s: &str) -> Vec<String> {
    const BYTES: &[u8] = b":/?#.-_ aZ09%@\t\x7f";
    let mut out: Vec<String> = s.char_indices().map(|(i, _)| s[..i].to_string()).collect();
    for (i, c) in s.char_indices() {
        let at = i..i + c.len_utf8();
        for b in BYTES {
            let mut m = s.to_string();
            m.replace_range(at.clone(), std::str::from_utf8(&[*b]).unwrap());
            out.push(m);
        }
        for r in ["é", "\u{a0}", &c.to_ascii_uppercase().to_string()] {
            let mut m = s.to_string();
            m.replace_range(at.clone(), r);
            out.push(m);
        }
    }
    out
}

#[test]
fn generated_urls_and_their_mutations_agree() {
    let mut rng = TestRng(0x5eed_0043);
    let mut parsed = 0usize;
    let mut total = 0usize;
    for _ in 0..CASES {
        let s = rand_url(&mut rng).to_string();
        for m in std::iter::once(s.clone()).chain(mutations(&s)) {
            parsed += usize::from(agree(&m));
            total += 1;
        }
    }
    // Both sides of the grammar are exercised, not one.
    assert!(
        parsed > total / 4 && parsed < total,
        "{parsed} of {total} parsed"
    );
}

#[test]
fn awkward_urls_and_their_mutations_agree() {
    let mut rng = TestRng(0x5eed_0044);
    let mut parsed = 0usize;
    let mut total = 0usize;
    for _ in 0..CASES * 4 {
        let s = awkward(&mut rng);
        parsed += usize::from(agree(&s));
        total += 1;
        for m in mutations(&s) {
            parsed += usize::from(agree(&m));
            total += 1;
        }
    }
    assert!(
        parsed > total / 10 && parsed < total,
        "{parsed} of {total} parsed"
    );
}

#[test]
fn every_awkward_part_agrees_alone() {
    for host in HOSTS {
        for port in PORTS {
            for sep in SEPARATORS {
                for scheme in &SCHEMES[..2] {
                    agree(&format!("{scheme}{host}{port}{sep}/a/b"));
                    agree(&format!("{scheme}{host}{port}{sep}"));
                }
            }
        }
    }
    for lead in PADS {
        for trail in PADS {
            agree(&format!("{lead}http://Foo.com:80/x{trail}"));
            agree(&format!("{lead}https://foo.com{trail}"));
            agree(&format!("{lead}https://1.2.3.4:{trail}"));
        }
    }
}
