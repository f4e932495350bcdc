//! Cross-crate randomized tests on the system's core invariants.
//!
//! These were originally property-based tests; they are driven by the
//! workspace's own deterministic [`DetRng`] so the whole suite runs
//! hermetically (and reproducibly: every case derives from a fixed
//! seed, so a failure message's case index pinpoints the exact input).

use csaw::global::{Batch, Report, ShardedStore, StorageBackend, Uuid};
use csaw::local::{LocalDb, Status};
use csaw_censor::blocking::BlockingType;
use csaw_simnet::tcp::{transfer_time, TcpConfig};
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use csaw_simnet::DetRng;
use csaw_webproto::url::{Host, Scheme, Url};

const CASES: usize = 200;

fn rand_string(rng: &mut DetRng, alphabet: &[u8], min: usize, max: usize) -> String {
    let n = rng.index(max - min + 1) + min;
    (0..n)
        .map(|_| alphabet[rng.index(alphabet.len())] as char)
        .collect()
}

fn rand_url(rng: &mut DetRng) -> Url {
    let scheme = if rng.chance(0.5) {
        Scheme::Https
    } else {
        Scheme::Http
    };
    let n_labels = rng.index(2) + 1;
    let host = format!(
        "{}.example",
        (0..n_labels)
            .map(|_| rand_string(rng, b"abcdefghijklmnopqrstuvwxyz", 2, 8))
            .collect::<Vec<_>>()
            .join(".")
    );
    let n_segs = rng.index(4);
    let path = format!(
        "/{}",
        (0..n_segs)
            .map(|_| rand_string(rng, b"abcdefghijklmnopqrstuvwxyz0123456789", 1, 8))
            .collect::<Vec<_>>()
            .join("/")
    );
    Url::from_parts(scheme, Host::parse(&host).unwrap(), None, &path, None)
}

fn rand_blocking(rng: &mut DetRng) -> BlockingType {
    BlockingType::ALL[rng.index(BlockingType::ALL.len())]
}

/// Aggregation invariant: after recording any sequence of measurements,
/// looking up a URL that was *directly measured as blocked* must never
/// read NotBlocked before its record expires (censorship evidence is
/// only discarded by fresher contradicting evidence, which this
/// sequence doesn't produce for distinct URLs).
#[test]
fn blocked_verdicts_never_silently_vanish() {
    let mut rng = DetRng::new(0xb10c);
    for case in 0..CASES {
        let n = rng.index(19) + 1;
        let urls: Vec<(Url, BlockingType)> = (0..n)
            .map(|_| (rand_url(&mut rng), rand_blocking(&mut rng)))
            .collect();
        let mut db = LocalDb::new(SimDuration::from_secs(3600));
        let now = SimTime::from_secs(1);
        for (u, bt) in &urls {
            db.record_measurement(u, Asn(1), now, Status::Blocked, vec![*bt]);
        }
        for (u, _) in &urls {
            let got = db.lookup(u, now).status;
            assert_eq!(got, Status::Blocked, "case {case}: lost verdict for {u}");
        }
    }
}

/// Aggregation never stores more records than the non-aggregating
/// baseline.
#[test]
fn aggregation_is_a_compression() {
    let mut rng = DetRng::new(0xa66);
    for case in 0..CASES {
        let n = rng.index(29) + 1;
        let items: Vec<(Url, bool)> = (0..n)
            .map(|_| (rand_url(&mut rng), rng.chance(0.5)))
            .collect();
        let mut agg = LocalDb::new(SimDuration::from_secs(3600));
        let mut raw = LocalDb::without_aggregation(SimDuration::from_secs(3600));
        let now = SimTime::from_secs(1);
        for (u, blocked) in &items {
            let (status, stages) = if *blocked {
                (Status::Blocked, vec![BlockingType::HttpDrop])
            } else {
                (Status::NotBlocked, vec![])
            };
            agg.record_measurement(u, Asn(1), now, status, stages.clone());
            raw.record_measurement(u, Asn(1), now, status, stages);
        }
        assert!(
            agg.record_count() <= raw.record_count(),
            "case {case}: aggregated {} > raw {}",
            agg.record_count(),
            raw.record_count()
        );
    }
}

/// Vote conservation: a client spends exactly one unit of vote no
/// matter how many URLs it reports.
#[test]
fn vote_mass_is_conserved() {
    let mut rng = DetRng::new(0x107e);
    for case in 0..CASES {
        let n_urls = rng.index(199) + 1;
        let client = rng.range_u64(0, 50);
        let store = ShardedStore::new(16).unwrap();
        let urls: Vec<(String, Asn)> = (0..n_urls)
            .map(|i| (format!("http://u{i}.example/"), Asn(1)))
            .collect();
        let reports = urls
            .iter()
            .map(|(url, asn)| Report {
                url: url.clone(),
                asn: asn.0,
                measured_at_us: 1,
                stages: vec![BlockingType::HttpDrop],
            })
            .collect();
        let batch = Batch::new(Uuid::from_raw(client), reports, SimTime::ZERO);
        store.ingest(&batch).unwrap();
        let ledger = store.ledger();
        let total: f64 = urls.iter().map(|(u, a)| ledger.tally(u, *a).s).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "case {case}: total vote {total}"
        );
    }
}

/// Transfer-time monotonicity: more bytes or more RTT never loads
/// faster.
#[test]
fn transfer_time_monotone() {
    let mut rng = DetRng::new(0x7cf);
    for case in 0..CASES {
        let size_a = rng.range_u64(1, 5_000_000);
        let size_b = rng.range_u64(1, 5_000_000);
        let rtt_ms = rng.range_u64(5, 500);
        let bw_mbps = rng.range_u64(1, 200);
        let cfg = TcpConfig::default();
        let rtt = SimDuration::from_millis(rtt_ms);
        let bw = bw_mbps * 1_000_000;
        let (lo, hi) = if size_a <= size_b {
            (size_a, size_b)
        } else {
            (size_b, size_a)
        };
        assert!(
            transfer_time(lo, rtt, bw, &cfg) <= transfer_time(hi, rtt, bw, &cfg),
            "case {case}: size monotonicity"
        );
        // RTT monotonicity at fixed size, up to the documented one-round
        // discretization slack (a larger RTT enlarges the BDP cap and can
        // save one slow-start round).
        let rtt2 = rtt + SimDuration::from_millis(50);
        let t1 = transfer_time(size_a, rtt, bw, &cfg);
        let t2 = transfer_time(size_a, rtt2, bw, &cfg);
        assert!(
            t2 + rtt2 >= t1,
            "case {case}: t1={t1}, t2={t2}, rtt2={rtt2}"
        );
    }
}

/// The phase-1 classifier never flags large, link-rich real pages
/// regardless of the words they contain.
#[test]
fn phase1_structure_gate_holds() {
    let mut rng = DetRng::new(0x9a7e);
    for case in 0..CASES {
        let size_kb = rng.index(180) + 20;
        let word = rand_string(&mut rng, b"abcdefghijklmnopqrstuvwxyz", 4, 10);
        let mut html = csaw_webproto::synth_html("Any Site", size_kb * 1024);
        // Adversarial: inject blocking vocabulary into the body.
        html.push_str(&format!(
            "<p>the {word} site was blocked and access denied by court order</p></html>"
        ));
        let v = csaw_blockpage::phase1_html(&html, &csaw_blockpage::Phase1Config::default());
        assert_eq!(v, csaw_blockpage::Phase1Verdict::Normal, "case {case}");
    }
}

/// Expiry is total: after the TTL passes, every lookup reads
/// NotMeasured and purging removes every record.
#[test]
fn expiry_is_total() {
    let mut rng = DetRng::new(0xdead);
    for case in 0..CASES {
        let n = rng.index(14) + 1;
        let urls: Vec<Url> = (0..n).map(|_| rand_url(&mut rng)).collect();
        let ttl_s = rng.range_u64(10, 1000);
        let mut db = LocalDb::new(SimDuration::from_secs(ttl_s));
        let t0 = SimTime::from_secs(5);
        for u in &urls {
            db.record_measurement(u, Asn(1), t0, Status::Blocked, vec![BlockingType::HttpDrop]);
        }
        let later = t0 + SimDuration::from_secs(ttl_s) + SimDuration::from_secs(1);
        for u in &urls {
            assert_eq!(
                db.lookup(u, later).status,
                Status::NotMeasured,
                "case {case}"
            );
        }
        db.purge_expired(later);
        assert_eq!(db.record_count(), 0, "case {case}");
    }
}

/// Longest-prefix matching agrees with a naive scan over all records.
#[test]
fn lpm_matches_naive_scan() {
    use csaw::local::{LocalRecord, PathTrie};
    let mut rng = DetRng::new(0x19e);
    let rand_segs = |rng: &mut DetRng, max_len: usize| -> Vec<String> {
        let n = rng.index(max_len + 1);
        (0..n).map(|_| rand_string(rng, b"ab", 1, 2)).collect()
    };
    for case in 0..CASES {
        let n_records = rng.index(11) + 1;
        let records: Vec<(Vec<String>, bool)> = (0..n_records)
            .map(|_| (rand_segs(&mut rng, 3), rng.chance(0.5)))
            .collect();
        let query = rand_segs(&mut rng, 4);
        let mk_url =
            |segs: &[String]| Url::parse(&format!("http://h.example/{}", segs.join("/"))).unwrap();
        let mut trie = PathTrie::new();
        let mut naive: Vec<(Vec<String>, Status)> = Vec::new();
        for (segs, blocked) in &records {
            let status = if *blocked {
                Status::Blocked
            } else {
                Status::NotBlocked
            };
            let rec = match status {
                Status::Blocked => LocalRecord::blocked(
                    mk_url(segs),
                    Asn(1),
                    SimTime::ZERO,
                    vec![BlockingType::HttpDrop],
                ),
                _ => LocalRecord::not_blocked(mk_url(segs), Asn(1), SimTime::ZERO),
            };
            trie.insert(segs, rec);
            // Later inserts at the same path replace earlier ones,
            // mirroring the trie's semantics.
            naive.retain(|(s, _)| s != segs);
            naive.push((segs.clone(), status));
        }
        // Naive LPM: the record with the longest path that is a
        // segment-prefix of the query.
        let expected = naive
            .iter()
            .filter(|(s, _)| s.len() <= query.len() && query[..s.len()] == s[..])
            .max_by_key(|(s, _)| s.len())
            .map(|(_, st)| *st);
        let got = trie.lpm(&query).map(|r| r.status);
        assert_eq!(
            got, expected,
            "case {case}: records {records:?}, query {query:?}"
        );
    }
}

/// Censor policies are pure data + deterministic decisions: two
/// independently-constructed copies of the same deployment make
/// identical decisions under identical randomness (deployments ship
/// rule sets as data; this is the property that makes that sound).
#[test]
fn censor_policy_decisions_are_reproducible() {
    let policy = csaw_censor::isp_b();
    let copy = csaw_censor::isp_b();
    assert_eq!(copy.rules(), policy.rules());
    assert_eq!(copy.name, policy.name);
    let mut r1 = DetRng::new(5);
    let mut r2 = DetRng::new(5);
    for host in ["www.youtube.com", "example.com", "adult.example"] {
        assert_eq!(
            policy.on_dns_query(host, None, &mut r1),
            copy.on_dns_query(host, None, &mut r2),
            "{host}"
        );
    }
}
