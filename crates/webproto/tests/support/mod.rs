//! Seeded generators of URLs and their parts, shared by the URL tests.
#![allow(dead_code)]

use csaw_webproto::url::{Host, Scheme, Url};

/// Cases per randomized test.
pub const CASES: usize = 300;

/// Minimal deterministic generator (xorshift64*), local to these tests so
/// `csaw-webproto` keeps zero dependencies (`csaw-simnet` depends on us,
/// so borrowing its `DetRng` would be a cycle).
pub struct TestRng(pub u64);

impl TestRng {
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn index(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn chance(&mut self) -> bool {
        self.next() & 1 == 1
    }

    pub fn string(&mut self, alphabet: &[u8], min: usize, max: usize) -> String {
        let n = self.index(max - min + 1) + min;
        (0..n)
            .map(|_| alphabet[self.index(alphabet.len())] as char)
            .collect()
    }
}

pub fn rand_label(rng: &mut TestRng) -> String {
    // [a-z][a-z0-9-]{0,8}[a-z0-9]
    let first = rng.string(b"abcdefghijklmnopqrstuvwxyz", 1, 1);
    let mid = rng.string(b"abcdefghijklmnopqrstuvwxyz0123456789-", 0, 8);
    let last = rng.string(b"abcdefghijklmnopqrstuvwxyz0123456789", 1, 1);
    format!("{first}{mid}{last}")
}

pub fn rand_hostname(rng: &mut TestRng) -> String {
    let n = rng.index(3) + 1;
    (0..n)
        .map(|_| rand_label(rng))
        .collect::<Vec<_>>()
        .join(".")
}

pub fn rand_path(rng: &mut TestRng) -> String {
    let n = rng.index(5);
    format!(
        "/{}",
        (0..n)
            .map(|_| rng.string(
                b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-",
                1,
                10
            ))
            .collect::<Vec<_>>()
            .join("/")
    )
}

pub fn rand_url(rng: &mut TestRng) -> Url {
    let scheme = if rng.chance() {
        Scheme::Https
    } else {
        Scheme::Http
    };
    let host = rand_hostname(rng);
    let port = if rng.chance() {
        Some((rng.index(60000 - 1024) + 1024) as u16)
    } else {
        None
    };
    let path = rand_path(rng);
    let query = if rng.chance() {
        Some(format!(
            "{}={}",
            rng.string(b"abcdefghijklmnopqrstuvwxyz", 1, 1),
            rng.string(b"0123456789", 1, 4)
        ))
    } else {
        None
    };
    Url::from_parts(
        scheme,
        Host::parse(&host).unwrap(),
        port,
        &path,
        query.as_deref(),
    )
}
