//! `ingest_inproc` — the store with nothing in front of it.
//!
//! Why: `csaw-store` and `csaw::global::server` do all the work here
//! and almost none elsewhere (in-process ingest runs an order of
//! magnitude faster than the same posts over the socket, so the store
//! is a few percent of `wire_mixed`). A store change must move this
//! workload; a wire, WAL or simulator change must leave it flat.
//!
//! Round: two fresh 16-shard servers, 25,000 clients registered on each
//! (set-up). `write` posts the 25,000 four-report batches on one
//! thread; `read` makes 256 `blocked_for_as` calls on the store just
//! written (each of 64 ASes: one cold call, three warm) — reads beside
//! writes on the same shards, so a write-path gain that costs snapshot
//! recompute shows; `focus` repeats the ingest on the second server
//! from two threads, so a lock change moves it and not `write`.

use super::{memory_server, register_all, Workload};
use crate::gen;
use crate::run::{Ops, Run, FOCUS, READ, WRITE};
use csaw::global::{Batch, ConfidenceFilter, ServerDb};
use csaw_simnet::topology::Asn;

/// The workload's name.
pub const NAME: &str = "ingest_inproc";
/// Clients (and batches) per round.
pub const CLIENTS: usize = 25_000;
const SHARDS: usize = 16;
const WARM_LOOKUPS: usize = 3;

/// One-time fixtures: the batches, generated once under the identities
/// every fresh same-seed server hands out.
#[derive(Debug)]
pub struct IngestInproc {
    seed: u64,
    batches: Vec<Batch>,
}

/// Post `batches` to `server`; returns (accepted, rejected, failures).
fn ingest_all(server: &ServerDb, batches: Vec<Batch>, ops: &mut Ops, base: u64) -> (u64, u64) {
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for (i, batch) in batches.into_iter().enumerate() {
        let n = batch.len();
        let result = ops
            .tracer
            .span("csaw.server.ingest", base + i as u64, n as u64, |_| {
                server.ingest(batch)
            });
        match result {
            Ok(receipt) => {
                ops.receipt(n, &receipt);
                accepted += receipt.accepted as u64;
                rejected += receipt.rejected as u64;
            }
            Err(e) => ops.check(false, || format!("ingest {i} failed: {e}")),
        }
    }
    (accepted, rejected)
}

impl Workload for IngestInproc {
    const NAME: &'static str = NAME;

    fn setup(seed: u64, ops: &mut Ops) -> IngestInproc {
        let server = memory_server(seed, SHARDS);
        let uuids = register_all(&server, CLIENTS, ops);
        let batches = uuids
            .iter()
            .enumerate()
            .map(|(i, &uuid)| gen::batch_for(seed, i, uuid))
            .collect();
        IngestInproc { seed, batches }
    }

    fn round(&mut self, run: &mut Run) {
        let seed = self.seed;
        let master = &self.batches;
        let (one, two, batches_one, batches_two) = run.fixture(|ops| {
            let one = memory_server(seed, SHARDS);
            let two = memory_server(seed, SHARDS);
            let ids = register_all(&one, CLIENTS, ops);
            register_all(&two, CLIENTS, ops);
            ops.check(
                ids.first() == master.first().map(|b| &b.client)
                    && ids.last() == master.last().map(|b| &b.client),
                || "a fresh same-seed server handed out different identities".into(),
            );
            (one, two, master.clone(), master.clone())
        });
        let op_base = (run.round_count() * CLIENTS) as u64;

        let mut single = (0, 0);
        run.phase(WRITE, |ops| {
            single = ingest_all(&one, batches_one, ops, op_base);
            (CLIENTS * gen::REPORTS_PER_BATCH) as f64
        });

        let filter = ConfidenceFilter::default();
        let mut served_cold = 0usize;
        run.phase(READ, |ops| {
            let mut served = 0usize;
            for asn in 0..gen::ASNS {
                let cold = ops
                    .tracer
                    .span("store.sharded.blocked_cold", asn as u64, 1, |_| {
                        one.blocked_for_as(Asn(asn), &filter)
                    });
                let cold_len = cold.as_ref().map_or(usize::MAX, Vec::len);
                ops.check(cold.is_ok(), || format!("cold lookup AS{asn} failed"));
                served_cold += cold.map_or(0, |v| v.len());
                served += cold_len;
                for _ in 0..WARM_LOOKUPS {
                    let warm = ops
                        .tracer
                        .span("store.sharded.blocked_warm", asn as u64, 1, |_| {
                            one.blocked_for_as(Asn(asn), &filter)
                        });
                    let warm_len = warm.map_or(usize::MAX, |v| v.len());
                    ops.check(warm_len == cold_len, || {
                        format!("AS{asn}: warm lookup served {warm_len} records, cold {cold_len}")
                    });
                    served += warm_len;
                }
            }
            served as f64
        });

        let mut multi = (0, 0);
        run.phase(FOCUS, |ops| {
            let mut halves = batches_two;
            let second = halves.split_off(CLIENTS / 2);
            let two = &two;
            let results: Vec<(u64, u64, u64)> = std::thread::scope(|s| {
                let handles: Vec<_> = [halves, second]
                    .into_iter()
                    .map(|part| {
                        s.spawn(move || {
                            let (mut acc, mut rej, mut bad) = (0u64, 0u64, 0u64);
                            for batch in part {
                                let n = batch.len();
                                match two.ingest(batch) {
                                    Ok(r) if r.accepted + r.rejected + r.deferred() == n => {
                                        acc += r.accepted as u64;
                                        rej += r.rejected as u64;
                                    }
                                    _ => bad += 1,
                                }
                            }
                            (acc, rej, bad)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("ingest thread panicked"))
                    .collect()
            });
            for (acc, rej, bad) in results {
                multi.0 += acc;
                multi.1 += rej;
                ops.attempted += CLIENTS as u64 / 2;
                ops.failed += bad;
            }
            CLIENTS as f64
        });

        let records = one.store().record_count();
        let records_two = two.store().record_count();
        run.verify(|ops| {
            let garbage = gen::garbage_clients(0, CLIENTS) as u64;
            let reports = (CLIENTS * gen::REPORTS_PER_BATCH) as u64;
            ops.check(single == (reports - garbage, garbage), || {
                format!(
                    "one thread accepted/rejected {single:?}, want ({}, {garbage})",
                    reports - garbage
                )
            });
            ops.check(multi == single, || {
                format!("two threads accepted/rejected {multi:?}, one thread {single:?}")
            });
            ops.check(records_two == records, || {
                format!("two threads left {records_two} records, one thread {records}")
            });
            ops.check(served_cold == records, || {
                format!("the 64 AS lists hold {served_cold} records, the store {records}")
            });
        });
        run.count("accepted", single.0);
        run.count("rejected", single.1);
        run.count("records", records as u64);
    }

    fn finish(self, _run: &mut Run) {}
}
