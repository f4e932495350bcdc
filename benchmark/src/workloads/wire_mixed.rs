//! `wire_mixed` — the socketed deployment.
//!
//! Why: `csaw_store::net` + `csaw_obs::json` + `csaw_webproto::codec` +
//! the `csaw-dbserver` reactor do most of the work, and the three
//! phases pull their costs apart: `write` (four-report posts) pays per
//! report and per frame, `focus` (one-report Encore probes) pays almost
//! only per frame, `read` (blocked-list downloads of ~100 KB) pays per
//! byte. A store change must leave this nearly flat; a codec, JSON or
//! reactor change must move it and leave `ingest_inproc` flat.
//!
//! One default-config `csaw-dbserver` over a server pre-populated
//! in-process with 12,500 clients' batches, one `RemoteDb`, one
//! generator thread. Round: `write` 1,000 closed-loop posts from
//! clients registered over the socket in set-up; `focus` 1,000 Encore
//! probe posts; `read` 2 list downloads, interleaved with the writes
//! that invalidate their snapshots. Every round re-posts the same keys
//! at a later post time, so the store (and the lists) stop growing
//! after the warm-up rounds.

use super::{memory_server, post_until_settled, register_all, PostTotals, Workload};
use crate::gen;
use crate::run::{Ops, Run, FOCUS, READ, WRITE};
use csaw::encore::{EncoreConfig, EncoreSource};
use csaw::global::{Batch, ConfidenceFilter, GlobalApi, GlobalRecord, RemoteDb, ServerDb, Uuid};
use csaw_dbserver::{spawn_dbserver, DbServerConfig, DbServerHandle};
use csaw_simnet::time::SimTime;
use csaw_simnet::topology::Asn;
use csaw_store::net::{DbRequest, DbResponse};
use std::sync::Arc;

/// The workload's name.
pub const NAME: &str = "wire_mixed";
/// Clients whose batches are in the store before the socket opens.
pub const PREPOPULATED: usize = 12_500;
/// Four-report posts per round.
pub const POSTS: usize = 1_000;
/// One-report probe posts per round.
pub const PROBES: usize = 1_000;
/// Distinct probe identities (each posts `PROBES / PROBE_CLIENTS` times a round).
const PROBE_CLIENTS: usize = 250;
/// Blocked-list downloads per round.
pub const SYNCS: usize = 2;
/// The AS every probe reports from.
const PROBE_ASN: u32 = 1;

/// The running deployment.
#[derive(Debug)]
pub struct WireMixed {
    server: Arc<ServerDb>,
    handle: DbServerHandle,
    remote: RemoteDb,
    post_batches: Vec<Batch>,
    encore: EncoreSource,
    probe_ids: Vec<Uuid>,
    round: u64,
    totals: PostTotals,
    probe_totals: PostTotals,
    downloads: u64,
}

impl WireMixed {
    /// Where the server listens.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.handle.addr()
    }

    /// The reactor's counters right now.
    pub fn server_stats(&self) -> csaw_dbserver::DbServerStats {
        self.handle.stats()
    }
}

impl Workload for WireMixed {
    const NAME: &'static str = NAME;

    fn setup(seed: u64, ops: &mut Ops) -> WireMixed {
        let server = Arc::new(memory_server(seed, 16));
        let resident = register_all(server.as_ref(), PREPOPULATED, ops);
        for (i, &uuid) in resident.iter().enumerate() {
            let r = server.ingest(gen::batch_for(seed, i, uuid));
            ops.check(r.is_ok(), || format!("pre-population batch {i} refused"));
        }
        let handle =
            spawn_dbserver(Arc::clone(&server), DbServerConfig::default()).expect("loopback bind");
        // Generator and reactor on different cores, as in deployment.
        crate::affinity::split_from("csaw-dbserver");
        let remote = RemoteDb::new(handle.addr());
        let posters: Vec<Uuid> = (0..POSTS)
            .filter_map(|i| {
                let r = remote.register(SimTime::from_secs((PREPOPULATED + i) as u64), 0.0);
                ops.check(r.is_ok(), || {
                    format!("socket registration {i} refused: {r:?}")
                });
                r.ok()
            })
            .collect();
        let post_batches = posters
            .iter()
            .enumerate()
            .map(|(i, &uuid)| gen::batch_for(seed, PREPOPULATED + i, uuid))
            .collect();
        let encore = EncoreSource::new(
            seed,
            EncoreConfig {
                probes: PROBE_CLIENTS,
                probes_per_client: PROBES / PROBE_CLIENTS,
                targets: (0..256).map(gen::pool_url).collect(),
                asn: PROBE_ASN,
            },
        );
        let probe_ids = (0..PROBE_CLIENTS)
            .filter_map(|p| {
                let r = encore.register(&remote, p, SimTime::from_secs(p as u64));
                ops.check(r.is_ok(), || {
                    format!("probe registration {p} refused: {r:?}")
                });
                r.ok()
            })
            .collect();
        WireMixed {
            server,
            handle,
            remote,
            post_batches,
            encore,
            probe_ids,
            round: 0,
            totals: PostTotals::default(),
            probe_totals: PostTotals::default(),
            downloads: 0,
        }
    }

    fn round(&mut self, run: &mut Run) {
        self.round += 1;
        let round = self.round;
        // A later post time each round: the same keys, freshly written.
        let now = SimTime::from_secs(100_000 + round);
        let master = &self.post_batches;
        let outgoing: Vec<Batch> = run.fixture(|_| {
            master
                .iter()
                .map(|b| Batch::new(b.client, b.reports().to_vec(), now))
                .collect()
        });

        let remote = &self.remote;
        let totals = &mut self.totals;
        let before = *totals;
        run.phase(WRITE, |ops| {
            for (i, batch) in outgoing.into_iter().enumerate() {
                let op = round * POSTS as u64 + i as u64;
                post_until_settled(
                    remote,
                    &master[i],
                    batch,
                    "dbserver.post_rtt",
                    op,
                    ops,
                    totals,
                );
            }
            (POSTS * gen::REPORTS_PER_BATCH) as f64
        });
        let posted = (
            totals.accepted - before.accepted,
            totals.rejected - before.rejected,
        );

        let encore = &self.encore;
        let probe_ids = &self.probe_ids;
        let probe_totals = &mut self.probe_totals;
        run.phase(FOCUS, |ops| {
            for k in 0..PROBES {
                let p = k % PROBE_CLIENTS;
                let probe_round = round as usize * (PROBES / PROBE_CLIENTS) + k / PROBE_CLIENTS;
                let Some(&uuid) = probe_ids.get(p) else {
                    ops.check(false, || format!("probe {p} never registered"));
                    continue;
                };
                // An all-deferred receipt defers the probe's only
                // report: post the same probe again.
                for attempt in 0..64 {
                    let result = ops.tracer.span("dbserver.probe_rtt", k as u64, 1, |_| {
                        encore.post(remote, p, probe_round, uuid, now)
                    });
                    probe_totals.posts += 1;
                    match result {
                        Ok(receipt) => {
                            ops.receipt(1, &receipt);
                            probe_totals.accepted += receipt.accepted as u64;
                            probe_totals.rejected += receipt.rejected as u64;
                            if receipt.deferred_indices.is_empty() {
                                break;
                            }
                            ops.check(attempt < 63, || "a probe was deferred 64 times".into());
                        }
                        Err(e) => {
                            ops.check(false, || format!("probe post failed: {e}"));
                            break;
                        }
                    }
                }
            }
            PROBES as f64
        });

        let filter = ConfidenceFilter::default();
        let mut pulled: Vec<(Asn, Vec<GlobalRecord>)> = Vec::with_capacity(SYNCS);
        run.phase(READ, |ops| {
            let mut records = 0usize;
            for k in 0..SYNCS {
                let asn = Asn(((round as usize * SYNCS + k) % gen::ASNS as usize) as u32);
                let result = ops.tracer.span("dbserver.sync_rtt", asn.0 as u64, 1, |_| {
                    remote.blocked_for_as(asn, &filter)
                });
                match result {
                    Ok(list) => {
                        ops.ok();
                        records += list.len();
                        pulled.push((asn, list));
                    }
                    Err(e) => ops.check(false, || format!("download AS{} failed: {e}", asn.0)),
                }
            }
            records as f64
        });
        self.downloads += SYNCS as u64;

        // The generator is the only writer and it is idle now, so the
        // store is exactly what the downloads saw.
        let server = &self.server;
        run.verify(|ops| {
            for (asn, list) in &pulled {
                let local = server.blocked_for_as(*asn, &filter);
                ops.check(local.as_ref() == Ok(list), || {
                    format!(
                        "AS{}: socket download ({} records) differs from the in-process list",
                        asn.0,
                        list.len()
                    )
                });
            }
        });

        let garbage = gen::garbage_clients(PREPOPULATED, PREPOPULATED + POSTS) as u64;
        run.count("post_accepted_per_round", posted.0);
        run.count("post_rejected_per_round", posted.1);
        run.verify(|ops| {
            ops.check(posted.1 == garbage, || {
                format!(
                    "{} reports rejected in a round, {garbage} are garbage",
                    posted.1
                )
            });
        });
        if !run.counts.contains_key("post_wire_bytes") {
            let bytes: usize = outgoing_wire_bytes(master, now);
            run.count("post_wire_bytes", bytes as u64);
        }
    }

    fn finish(self, run: &mut Run) {
        let WireMixed {
            handle,
            totals,
            probe_totals,
            downloads,
            remote,
            ..
        } = self;
        // Close the pooled connections first so the drain sees quiet sockets.
        drop(remote);
        let stats = handle.drain();
        crate::affinity::release();
        let sent = totals.posts + probe_totals.posts;
        let accepted = totals.accepted + probe_totals.accepted;
        let rejected = totals.rejected + probe_totals.rejected;
        let ops = &mut run.ops;
        ops.check(stats.protocol_errors == 0, || {
            format!("server counted {} protocol errors", stats.protocol_errors)
        });
        ops.check(stats.posts == sent, || {
            format!("server saw {} posts, clients sent {sent}", stats.posts)
        });
        ops.check(stats.reports_accepted == accepted, || {
            format!(
                "server accepted {}, receipts say {accepted}",
                stats.reports_accepted
            )
        });
        ops.check(stats.reports_rejected == rejected, || {
            format!(
                "server rejected {}, receipts say {rejected}",
                stats.reports_rejected
            )
        });
        ops.check(stats.blocked_queries == downloads, || {
            format!(
                "server served {} downloads, clients made {downloads}",
                stats.blocked_queries
            )
        });
        ops.check(stats.frames_in == stats.frames_out, || {
            format!(
                "{} frames in, {} frames out",
                stats.frames_in, stats.frames_out
            )
        });
    }
}

/// Exact frame bytes (request + receipt) of one round's posts.
fn outgoing_wire_bytes(master: &[Batch], now: SimTime) -> usize {
    master
        .iter()
        .map(|b| {
            let rejected_indices: Vec<usize> = (0..b.len())
                .filter(|&i| !b.reports()[i].url.starts_with("http://"))
                .collect();
            let request = DbRequest::Post {
                client: b.client,
                posted_at: now,
                reports: b.reports().to_vec(),
            };
            let receipt = DbResponse::Receipt(csaw::global::IngestReceipt {
                accepted: b.len() - rejected_indices.len(),
                rejected: rejected_indices.len(),
                rejected_indices,
                deferred_indices: Vec::new(),
            });
            request.to_frame().encode().len() + receipt.to_frame().encode().len()
        })
        .sum()
}
