//! Concurrency and determinism tests for the sharded store.
//!
//! The store's contract is that concurrent ingestion from disjoint
//! clients *commutes*: whatever the interleaving, the quiescent state
//! (record key set, per-key tallies, voter counts) equals a serial
//! reference run, and every batch's receipt (accepted/rejected/deferred
//! indices) is byte-identical to the one the serial run produced. These
//! tests drive N writer threads through interleaved updates and
//! revocations over the per-shard grouped ingest path and compare
//! against the single-threaded model, then check that the shard count
//! (1/4/16) is invisible in the final state.

use csaw_censor::blocking::BlockingType;
use csaw_simnet::time::SimTime;
use csaw_simnet::topology::Asn;
use csaw_store::{
    Batch, ConfidenceFilter, IngestReceipt, Report, ShardedStore, StorageBackend, Uuid,
};

const THREADS: usize = 16;
const CLIENTS_PER_THREAD: usize = 24;
const URLS: usize = 40;
const ASNS: u32 = 6;

/// One scripted operation against the store.
#[derive(Clone)]
enum Op {
    Post(Batch),
    Revoke(Uuid),
}

fn report(url_idx: usize, asn: u32, at: u64) -> Report {
    Report {
        url: format!("http://site{url_idx}.example.org/"),
        asn,
        measured_at_us: at,
        stages: vec![if url_idx.is_multiple_of(2) {
            BlockingType::DnsNxdomain
        } else {
            BlockingType::HttpDrop
        }],
    }
}

/// The scripted per-thread op sequence. Threads own disjoint clients,
/// so ops from different threads commute; within a thread, program
/// order is preserved by the runner. A deterministic xorshift drives
/// URL/AS choices so the script is a pure function of its indices.
fn ops_for_thread(t: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut x = (0x9e37_79b9u64 ^ ((t as u64) << 32)) | 0x1234_5678;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for c in 0..CLIENTS_PER_THREAD {
        let uuid = Uuid::from_raw((t * CLIENTS_PER_THREAD + c + 1) as u64);
        // Two posts per client, interleaved with other clients' ops.
        for round in 0..2u64 {
            let n = 2 + (next() % 3) as usize;
            let reports: Vec<Report> = (0..n)
                .map(|i| {
                    report(
                        (next() as usize) % URLS,
                        (next() as u32) % ASNS,
                        round * 100 + i as u64,
                    )
                })
                .collect();
            ops.push(Op::Post(Batch::new(
                uuid,
                reports,
                SimTime::from_secs(1 + round),
            )));
        }
        // Every third client is revoked after posting; every ninth is
        // revoked *between* its posts by splicing the revoke earlier.
        if c.is_multiple_of(3) {
            ops.push(Op::Revoke(uuid));
        }
        if c.is_multiple_of(9) && ops.len() >= 2 {
            let last_post = ops.len() - 2;
            ops.insert(last_post, Op::Revoke(uuid));
        }
    }
    ops
}

fn apply(store: &ShardedStore, op: &Op) -> Option<IngestReceipt> {
    match op {
        Op::Post(b) => Some(store.ingest(b).expect("scripted batches are well-formed")),
        Op::Revoke(u) => {
            store.revoke(*u);
            None
        }
    }
}

/// One thread's receipt stream, rendered to bytes. Threads own disjoint
/// clients and the runner preserves per-thread program order, so this
/// stream must not depend on cross-thread interleaving at all.
fn receipt_stream(store: &ShardedStore, t: usize) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for op in ops_for_thread(t) {
        if let Some(r) = apply(store, &op) {
            writeln!(
                out,
                "a={} r={} rej={:?} def={:?}",
                r.accepted, r.rejected, r.rejected_indices, r.deferred_indices
            )
            .expect("write to String cannot fail");
        }
    }
    out
}

/// Order-independent projection of the store's quiescent state.
#[derive(Debug, PartialEq)]
struct StateDigest {
    records: usize,
    voters: usize,
    /// Per-AS blocked URL lists under the default filter.
    blocked: Vec<Vec<String>>,
    /// Per-key (n, s-rounded) tallies over the whole keyspace.
    tallies: Vec<(String, u32, usize, u64)>,
}

fn digest(store: &ShardedStore) -> StateDigest {
    let filter = ConfidenceFilter::default();
    let blocked = (0..ASNS)
        .map(|a| {
            store
                .blocked_for_as(Asn(a), &filter)
                .expect("memory backend reads are infallible")
                .into_iter()
                .map(|r| r.url)
                .collect()
        })
        .collect();
    let mut tallies = Vec::new();
    for u in 0..URLS {
        for a in 0..ASNS {
            let url = format!("http://site{u}.example.org/");
            let t = store.tally(&url, Asn(a));
            if t.n > 0 {
                // Quantize s: float summation over UUID-sorted voters is
                // deterministic, but guard the comparison at 1e-9 anyway.
                tallies.push((url.clone(), a, t.n, (t.s * 1e9).round() as u64));
            }
        }
    }
    StateDigest {
        records: store.record_count(),
        voters: store.ledger().voter_count(),
        blocked,
        tallies,
    }
}

fn serial_reference(shards: usize) -> (StateDigest, Vec<String>) {
    let store = ShardedStore::new(shards).expect("shard count is valid");
    let receipts = (0..THREADS).map(|t| receipt_stream(&store, t)).collect();
    (digest(&store), receipts)
}

#[test]
fn concurrent_run_matches_serial_reference() {
    let (reference, ref_receipts) = serial_reference(16);
    // Repeat to give racy interleavings a few chances to show up.
    for round in 0..3 {
        let store = ShardedStore::new(16).expect("shard count is valid");
        let mut receipts: Vec<String> = vec![String::new(); THREADS];
        std::thread::scope(|s| {
            for (t, slot) in receipts.iter_mut().enumerate() {
                let store = &store;
                s.spawn(move || {
                    *slot = receipt_stream(store, t);
                });
            }
        });
        assert_eq!(
            digest(&store),
            reference,
            "round {round}: concurrent state diverged from serial reference"
        );
        for t in 0..THREADS {
            assert_eq!(
                receipts[t], ref_receipts[t],
                "round {round}: thread {t} receipts diverged from serial reference"
            );
        }
    }
}

#[test]
fn final_state_identical_across_shard_counts() {
    let (one, r1) = serial_reference(1);
    let (four, r4) = serial_reference(4);
    let (sixteen, r16) = serial_reference(16);
    assert_eq!(one, four, "1-shard vs 4-shard state differs");
    assert_eq!(one, sixteen, "1-shard vs 16-shard state differs");
    assert_eq!(r1, r4, "receipts must not depend on shard count");
    assert_eq!(r1, r16, "receipts must not depend on shard count");
    // Sanity: the script actually produced work, including revocations.
    assert!(one.records > 0 && one.voters > 0);
    assert!(
        one.voters < THREADS * CLIENTS_PER_THREAD,
        "revocations must have removed some voters"
    );
}

#[test]
fn contention_metrics_deterministic_and_forced_waits_visible() {
    use csaw_obs::{install, ObsCtx, PerfMode};
    use std::sync::Arc;

    // Virtual perf mode: acquisition counts are exact and a serial
    // replay of the same script yields the identical snapshot — the
    // contention layer must not break the determinism contract.
    let counts = |jobs_serial: bool| -> String {
        let ctx = Arc::new(ObsCtx::new().with_perf(PerfMode::Virtual));
        let _g = install(ctx.clone());
        let store = ShardedStore::new(16).expect("shard count is valid");
        if jobs_serial {
            for t in 0..THREADS {
                for op in ops_for_thread(t) {
                    apply(&store, &op);
                }
            }
        } else {
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let store = &store;
                    let ctx = ctx.clone();
                    s.spawn(move || {
                        let _g = install(ctx);
                        for op in ops_for_thread(t) {
                            apply(store, &op);
                        }
                    });
                }
            });
        }
        // Counts only: `contended` and wait histograms legitimately
        // differ between a serial and a racing run even in virtual time.
        let snap = ctx.registry.snapshot();
        let counters = snap.get("counters").expect("snapshot has counters");
        [
            "lock.store.shard.records.write.acquires",
            "lock.store.ledger.clients.write.acquires",
            "lock.store.ledger.keys.write.acquires",
        ]
        .iter()
        .map(|k| {
            format!(
                "{k}={}",
                counters.get(k).and_then(|v| v.as_u64()).unwrap_or(0)
            )
        })
        .collect::<Vec<_>>()
        .join(",")
    };
    let serial = counts(true);
    let parallel = counts(false);
    assert_eq!(
        serial, parallel,
        "virtual-mode acquisition counts must not depend on interleaving"
    );
    assert!(
        !serial.contains("=0"),
        "script must actually exercise the instrumented locks: {serial}"
    );

    // Monotonic perf mode, 8 writers hammering a single shard: the
    // wait histogram must show real queuing on the one write lock.
    // Retried because on a single-core box a whole writer loop can fit
    // inside one scheduler timeslice and never collide.
    let batches_per_thread = 400u64;
    let mut saw_contention = false;
    for _attempt in 0..5 {
        let ctx = Arc::new(ObsCtx::new().with_perf(PerfMode::Monotonic));
        let store = {
            let _g = install(ctx.clone());
            ShardedStore::new(1).expect("shard count is valid")
        };
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let store = &store;
                s.spawn(move || {
                    for c in 0..batches_per_thread {
                        let uuid = Uuid::from_raw(10_000 + t * 10_000 + c);
                        let b = Batch::new(
                            uuid,
                            (0..8).map(|i| report(i, 1, c)).collect(),
                            SimTime::from_secs(1),
                        );
                        store.ingest(&b).expect("well-formed batch");
                    }
                });
            }
        });
        let reg = &ctx.registry;
        assert_eq!(
            reg.counter("lock.store.shard.records.write.acquires").get(),
            8 * batches_per_thread,
            "every batch takes the single shard's write lock exactly once"
        );
        if reg
            .counter("lock.store.shard.records.write.contended")
            .get()
            > 0
            && reg
                .histogram("lock.store.shard.records.write.wait_us")
                .sum_us()
                > 0
        {
            saw_contention = true;
            break;
        }
    }
    assert!(
        saw_contention,
        "8 writers on 1 shard must record contention and nonzero wait"
    );
}

/// Readers racing writers through the snapshot cache never miss an
/// acknowledged report: each writer ingests fresh URLs for its own AS
/// and publishes how many `ingest` calls have returned; a reader that
/// saw count `k` before calling `blocked_for_as` must get at least `k`
/// of that writer's URLs back.
#[test]
fn cache_reads_never_miss_an_acknowledged_report() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    const WRITERS: usize = 2;
    const READERS: usize = 2;
    const REPORTS_PER_WRITER: usize = 300;
    let filter = ConfidenceFilter {
        min_clients: 1,
        min_avg_vote: 0.0,
    };
    let writer_asn = |w: usize| 100 + w as u32;
    // Each round is a few milliseconds; repeat to give the race
    // windows a few chances to open.
    for round in 0..10 {
        let store = ShardedStore::new(8).expect("shard count is valid");
        let acked: Vec<AtomicUsize> = (0..WRITERS).map(|_| AtomicUsize::new(0)).collect();
        let writing = AtomicBool::new(true);
        let start = std::sync::Barrier::new(WRITERS + READERS);
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (store, acked, start) = (&store, &acked, &start);
                    s.spawn(move || {
                        start.wait();
                        for i in 0..REPORTS_PER_WRITER {
                            let b = Batch::new(
                                Uuid::from_raw((w * REPORTS_PER_WRITER + i + 1) as u64),
                                vec![Report {
                                    url: format!("http://w{w}-{i}.example.org/"),
                                    ..report(0, writer_asn(w), i as u64)
                                }],
                                SimTime::from_secs(1),
                            );
                            assert_eq!(store.ingest(&b).expect("well-formed batch").accepted, 1);
                            // Pairs with the readers' Acquire: a count a
                            // reader sees was stored after `ingest` returned.
                            acked[w].store(i + 1, Ordering::Release);
                        }
                    })
                })
                .collect();
            for _ in 0..READERS {
                let (store, acked, writing, filter) = (&store, &acked, &writing, &filter);
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    let mut reads = 0usize;
                    while writing.load(Ordering::Acquire) || reads == 0 {
                        for (w, count) in acked.iter().enumerate() {
                            let k = count.load(Ordering::Acquire);
                            let seen = store
                                .blocked_for_as(Asn(writer_asn(w)), filter)
                                .expect("memory backend reads are infallible")
                                .len();
                            assert!(
                                seen >= k,
                                "writer {w} had {k} reports acknowledged, a later read saw {seen}"
                            );
                        }
                        reads += 1;
                    }
                });
            }
            // Stop the readers before a writer's panic propagates, or the
            // scope would wait on them for ever.
            let joined: Vec<_> = writers.into_iter().map(|h| h.join()).collect();
            writing.store(false, Ordering::Release);
            for j in joined {
                j.expect("writer thread");
            }
        });
        for w in 0..WRITERS {
            let all = store
                .blocked_for_as(Asn(writer_asn(w)), &filter)
                .expect("memory backend reads are infallible");
            assert_eq!(all.len(), REPORTS_PER_WRITER, "round {round}: writer {w}");
        }
    }
}

#[test]
fn concurrent_revocations_and_posts_leave_no_ghost_votes() {
    let store = ShardedStore::new(8).expect("shard count is valid");
    // Half the clients post then get revoked by a rival thread; the
    // revoked clients must contribute zero vote mass at quiescence.
    let n_clients = 32usize;
    std::thread::scope(|s| {
        let store = &store;
        s.spawn(move || {
            for c in 0..n_clients {
                let uuid = Uuid::from_raw(1_000 + c as u64);
                let b = Batch::new(
                    uuid,
                    vec![report(c % URLS, (c as u32) % ASNS, c as u64)],
                    SimTime::from_secs(1),
                );
                store.ingest(&b).expect("well-formed batch");
            }
        });
        s.spawn(move || {
            for c in 0..n_clients {
                if c.is_multiple_of(2) {
                    store.revoke(Uuid::from_raw(1_000 + c as u64));
                }
            }
        });
    });
    // Re-revoke serially: after quiescence the evens are certainly out.
    for c in (0..n_clients).step_by(2) {
        store.revoke(Uuid::from_raw(1_000 + c as u64));
    }
    for c in 0..n_clients {
        let uuid = Uuid::from_raw(1_000 + c as u64);
        let mass = store.ledger().client_vote_mass(uuid);
        if c.is_multiple_of(2) {
            assert_eq!(mass, 0.0, "revoked client {c} still has vote mass");
            assert_eq!(store.ledger().report_count(uuid), 0);
        } else {
            assert!(mass > 0.0, "surviving client {c} lost its vote");
        }
    }
}
