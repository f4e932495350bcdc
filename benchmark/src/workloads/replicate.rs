//! `replicate` — durability and replication.
//!
//! Why: `csaw_store::wal`, `JsonlStore`, `csaw-replica` and the
//! reactor's `SHIP` op are exercised nowhere else. A WAL-format or
//! shipping change must move this workload and leave the other three
//! flat; a store change moves `write` here only as far as the journal
//! and the disk log leave it room.
//!
//! Round: a fresh leader `ServerDb` over
//! `ReplicatedStore(JsonlStore(log, 8 shards))`, a fresh 4-shard
//! replica behind its own `csaw-dbserver`, and one untimed one-batch
//! ingest + `ship_round` to open the link (set-up). `write` ingests 512
//! batches on the leader and flushes the log (journal + disk append +
//! shard ingest); `focus` is one `WalShipper::ship_round` (two 256-line
//! `SHIP` frames, parsed and applied line by line on the replica);
//! `read` is `JsonlStore::open` on the flushed log (recovery). Every
//! round then checks, untimed, that leader, replica and reopened store
//! have one fingerprint.

use super::{memory_server, open_registrar, register_all, Workload};
use crate::gen;
use crate::out_dir;
use crate::run::{Ops, Run, FOCUS, READ, WRITE};
use csaw::global::{Batch, JsonlStore, ServerDb, StorageBackend};
use csaw_dbserver::{spawn_dbserver, DbServerConfig, DbServerHandle};
use csaw_replica::{fingerprint_of, ReplicatedStore, WalShipper};
use csaw_simnet::time::SimTime;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The workload's name.
pub const NAME: &str = "replicate";
/// Batches the leader ingests (and WAL lines it ships) per round.
pub const BATCHES: usize = 512;
const LEADER_SHARDS: usize = 8;
const REPLICA_SHARDS: usize = 4;

/// One-time fixtures: the batches and where the logs go.
#[derive(Debug)]
pub struct Replicate {
    seed: u64,
    /// `BATCHES` timed batches, then the one that opens the link.
    batches: Vec<Batch>,
    dir: PathBuf,
    round: u64,
}

/// A fresh leader and replica with the link between them open.
#[derive(Debug)]
pub struct Pair {
    /// The journalled, disk-logged leader.
    pub leader: ServerDb,
    /// The replica's server (read it to check convergence).
    pub replica: Arc<ServerDb>,
    /// The replica's reactor.
    pub handle: DbServerHandle,
    /// Ships the leader's log to the replica.
    pub shipper: WalShipper,
    /// The batches still to ingest (the opener is gone).
    pub batches: Vec<Batch>,
}

impl Pair {
    /// Build both sides over a fresh log at `log`, register the clients
    /// of `batches` on the leader, and open the link by ingesting and
    /// shipping the last batch.
    pub fn build(
        seed: u64,
        log: &Path,
        mut batches: Vec<Batch>,
        now: SimTime,
        ops: &mut Ops,
    ) -> Pair {
        let _ = std::fs::remove_file(log);
        let disk = JsonlStore::open(log, LEADER_SHARDS).expect("fresh log opens");
        let source = Arc::new(ReplicatedStore::new(Arc::new(disk)));
        let leader = ServerDb::builder(seed)
            .registrar(open_registrar())
            .backend(Arc::clone(&source) as Arc<dyn StorageBackend>)
            .build()
            .expect("custom backend builds");
        let replica = Arc::new(memory_server(seed, REPLICA_SHARDS));
        let handle =
            spawn_dbserver(Arc::clone(&replica), DbServerConfig::default()).expect("loopback bind");
        // Leader and replica reactor on different cores, as in deployment.
        crate::affinity::split_from("csaw-dbserver");
        let mut shipper = WalShipper::new(Arc::clone(&source));
        shipper.add_region("r0", handle.addr(), SimTime::ZERO);
        register_all(&leader, batches.len(), ops);
        let opener = batches.pop().expect("the opener is the last batch");
        let opened = leader.ingest(opener).is_ok()
            && shipper.ship_round(now, |_| true).iter().all(|l| l.synced);
        ops.check(opened, || "the link did not open".into());
        Pair {
            leader,
            replica,
            handle,
            shipper,
            batches,
        }
    }
}

impl Workload for Replicate {
    const NAME: &'static str = NAME;

    fn setup(seed: u64, ops: &mut Ops) -> Replicate {
        let scratch = memory_server(seed, LEADER_SHARDS);
        let uuids = register_all(&scratch, BATCHES + 1, ops);
        let batches = uuids
            .iter()
            .enumerate()
            .map(|(i, &uuid)| gen::batch_for(seed, i, uuid))
            .collect();
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("the benchmark's out directory is writable");
        Replicate {
            seed,
            batches,
            dir,
            round: 0,
        }
    }

    fn round(&mut self, run: &mut Run) {
        self.round += 1;
        let seed = self.seed;
        let master = &self.batches;
        let log = self.dir.join(format!("leader-{}.jsonl", self.round));
        let now = SimTime::from_secs(self.round);

        let pair = run.fixture(|ops| Pair::build(seed, &log, master.clone(), now, ops));
        let Pair {
            leader,
            replica,
            handle,
            mut shipper,
            batches,
        } = pair;
        let op_base = self.round * BATCHES as u64;

        let mut accepted = 0u64;
        run.phase(WRITE, |ops| {
            for (i, batch) in batches.into_iter().enumerate() {
                let n = batch.len();
                let result = ops.tracer.span(
                    "replica.leader.ingest",
                    op_base + i as u64,
                    n as u64,
                    |_| leader.ingest(batch),
                );
                match result {
                    Ok(receipt) => {
                        ops.receipt(n, &receipt);
                        accepted += receipt.accepted as u64;
                    }
                    Err(e) => ops.check(false, || format!("leader ingest {i} failed: {e}")),
                }
            }
            let flushed = leader.store().flush();
            ops.check(flushed.is_ok(), || format!("log flush failed: {flushed:?}"));
            (BATCHES * gen::REPORTS_PER_BATCH) as f64
        });

        run.phase(FOCUS, |ops| {
            let status = ops
                .tracer
                .span("replica.ship.round", op_base, BATCHES as u64, |_| {
                    shipper.ship_round(now, |_| true)
                });
            ops.check(status.iter().all(|l| l.synced && l.lag == 0), || {
                format!("replica did not catch up: {status:?}")
            });
            BATCHES as f64
        });

        let mut reopened = None;
        run.phase(READ, |ops| {
            let store = ops
                .tracer
                .span("store.jsonl.open", op_base, BATCHES as u64 + 1, |_| {
                    JsonlStore::open(&log, LEADER_SHARDS)
                });
            ops.check(store.is_ok(), || {
                format!("log replay failed: {:?}", store.as_ref().err())
            });
            let records = store.as_ref().map_or(0, |s| s.record_count());
            reopened = store.ok();
            records as f64
        });

        let wal_bytes = std::fs::metadata(&log).map_or(0, |m| m.len());
        let records = leader.store().record_count();
        run.verify(|ops| {
            let want = fingerprint_of(leader.store());
            let shipped = fingerprint_of(replica.store());
            ops.check(shipped == want, || {
                format!("replica fingerprint {shipped} != leader {want}")
            });
            let replayed = reopened.as_ref().map(|s| fingerprint_of(s));
            ops.check(replayed.as_deref() == Some(want.as_str()), || {
                format!("reopened fingerprint {replayed:?} != leader {want}")
            });
            // Stops the replica's reactor and waits for its thread.
            let stats = handle.drain();
            ops.check(stats.protocol_errors == 0, || {
                format!("replica counted {} protocol errors", stats.protocol_errors)
            });
            ops.check(stats.wal_applied_seq == BATCHES as u64 + 1, || {
                format!(
                    "replica applied {} lines of {}",
                    stats.wal_applied_seq,
                    BATCHES + 1
                )
            });
            drop(reopened);
            let _ = std::fs::remove_file(&log);
        });
        run.count("leader_accepted", accepted);
        run.count("records", records as u64);
        run.count("wal_bytes", wal_bytes);
    }

    fn finish(self, _run: &mut Run) {
        crate::affinity::release();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
