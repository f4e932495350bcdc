//! Randomized tests for the URL type — the data structure underneath
//! C-Saw's local database keys and aggregation.
//!
//! Originally property-based; now driven by a small local xorshift so
//! the crate stays dependency-free. Every case derives from a fixed
//! seed, so failures reproduce exactly.

mod support;

use csaw_webproto::url::{Scheme, Url};
use support::{rand_hostname, rand_url, TestRng, CASES};

/// Display → parse is the identity on normalized URLs.
#[test]
fn display_parse_roundtrip() {
    let mut rng = TestRng(0x5eed_0001);
    for case in 0..CASES {
        let u = rand_url(&mut rng);
        let s = u.to_string();
        let parsed = Url::parse(&s).expect("displayed URL must reparse");
        assert_eq!(parsed, u, "case {case}: {s}");
    }
}

/// Every URL is derived from its own base, and `base()` is idempotent.
#[test]
fn base_is_ancestor_and_idempotent() {
    let mut rng = TestRng(0x5eed_0002);
    for case in 0..CASES {
        let u = rand_url(&mut rng);
        let b = u.base();
        assert!(b.is_base(), "case {case}");
        assert!(u.is_derived_from(&b), "case {case}");
        assert_eq!(b.base(), b.clone(), "case {case}");
        // The base preserves identity components.
        assert_eq!(b.scheme(), u.scheme(), "case {case}");
        assert_eq!(b.host(), u.host(), "case {case}");
        assert_eq!(b.port(), u.port(), "case {case}");
    }
}

/// Derivation is reflexive and transitive along path prefixes.
#[test]
fn derivation_prefix_chain() {
    let mut rng = TestRng(0x5eed_0003);
    for case in 0..CASES {
        let u = rand_url(&mut rng);
        assert!(u.is_derived_from(&u), "case {case}");
        // Build each ancestor by truncating path segments; all must be
        // ancestors of u, and each deeper one derived from each shallower.
        let segs = u
            .path_segments()
            .into_iter()
            .map(str::to_string)
            .collect::<Vec<_>>();
        let mut ancestors = vec![u.base()];
        for k in 1..=segs.len() {
            let path = format!("/{}", segs[..k].join("/"));
            ancestors.push(Url::from_parts(
                u.scheme(),
                u.host().clone(),
                Some(u.port()),
                &path,
                None,
            ));
        }
        for (i, a) in ancestors.iter().enumerate() {
            assert!(
                u.is_derived_from(a),
                "case {case}: u not derived from ancestor {i}"
            );
            for b in &ancestors[..=i] {
                assert!(a.is_derived_from(b), "case {case}");
            }
        }
    }
}

/// Scheme swapping: default ports map to the new scheme's default,
/// explicit non-default ports are preserved; host/path untouched.
#[test]
fn scheme_swap_port_semantics() {
    let mut rng = TestRng(0x5eed_0004);
    for case in 0..CASES {
        let u = rand_url(&mut rng);
        let swapped = u.with_scheme(Scheme::Https);
        if u.port() == u.scheme().default_port() || u.port() == Scheme::Https.default_port() {
            assert_eq!(swapped.port(), Scheme::Https.default_port(), "case {case}");
        } else {
            assert_eq!(swapped.port(), u.port(), "case {case}");
        }
        assert_eq!(swapped.host(), u.host(), "case {case}");
        assert_eq!(swapped.path(), u.path(), "case {case}");
    }
}

/// `check` answers exactly what `parse` answers, error included.
fn assert_check_is_parse(s: &str) {
    assert_eq!(Url::check(s), Url::parse(s).map(|_| ()), "input {s:?}");
}

/// `check` is `parse` without the URL: on every generated URL, every
/// truncation of it, every single-byte replacement in it, and hand cases
/// for each rule of the accept set.
#[test]
fn check_agrees_with_parse() {
    // Bytes a mutation writes: every class the splitter and the host
    // rules treat differently, plus upper case and a non-ASCII lead byte.
    const MUTATIONS: &[u8] = b":/?#.-_ aZ09%@\x7f";
    let mut rng = TestRng(0x5eed_0006);
    for _ in 0..CASES {
        let s = rand_url(&mut rng).to_string();
        assert_check_is_parse(&s);
        for end in 0..=s.len() {
            assert_check_is_parse(&s[..end]);
        }
        for i in 0..s.len() {
            let upper = s.as_bytes()[i].to_ascii_uppercase();
            for b in MUTATIONS.iter().copied().chain([upper]) {
                let mut bytes = s.clone().into_bytes();
                bytes[i] = b;
                assert_check_is_parse(std::str::from_utf8(&bytes).expect("ASCII in, ASCII out"));
            }
            let mut with_non_ascii = s.clone();
            with_non_ascii.replace_range(i..=i, "é");
            assert_check_is_parse(&with_non_ascii);
        }
    }
    for s in [
        "not a url at all",
        "",
        "http://",
        "https://",
        "ftp://x/",
        "http://..foo.com/",
        "http://.foo.com/",
        "http://foo.com./",
        "http://foo.com:65535/",
        "http://foo.com:65536/",
        "http://foo.com:8a/",
        "http://foo.com:/",
        "http://:80/",
        "http://Example.COM/A",
        "http://EXAMPLE.com:8080/",
        "http://exämple.com/",
        "http://例え.jp/",
        "http://93.184.216.34/page",
        "http://255.255.255.255/",
        "http://256.1.1.1/",
        "http://1.2.3/",
        "http://foo.com/a#frag",
        "http://foo.com#frag:99x",
        "http://foo.com/?",
        "http://foo.com?q=1/2",
        "http://foo.com/a?q=1#f",
        "  http://foo.com/  ",
        "\thttps://foo.com:443/x\n",
        " not a url ",
        "http://bad host/",
        "http://under_score.com/",
    ] {
        assert_check_is_parse(s);
    }
}

/// Parsing is total over displayed forms with odd-but-legal inputs:
/// extra slashes collapse, dot segments vanish.
#[test]
fn normalization_stable() {
    let mut rng = TestRng(0x5eed_0005);
    for case in 0..CASES {
        let host = rand_hostname(&mut rng);
        let n = rng.index(4);
        let segs: Vec<String> = (0..n)
            .map(|_| rng.string(b"abcdefghijklmnopqrstuvwxyz0123456789", 1, 6))
            .collect();
        let messy = format!("http://{}//{}/.", host, segs.join("//"));
        let u = Url::parse(&messy).unwrap();
        let clean = Url::parse(&u.to_string()).unwrap();
        assert_eq!(u, clean, "case {case}: {messy}");
    }
}
