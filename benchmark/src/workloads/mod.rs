//! The four workloads. Each exists because it makes one group of
//! layers do nearly all the work and leaves the others idle, so a
//! change to one layer moves one workload and the bypassing ones stay
//! flat. All loops are closed (a caller waits for its reply before the
//! next request), driven by one generator thread (two in
//! `ingest_inproc`'s `focus` phase only) over loopback: the sandbox has
//! two cores and the server's reactor thread needs the other.

pub mod ingest_inproc;
pub mod pilot_browse;
pub mod replicate;
pub mod wire_mixed;

use crate::run::{Ops, Run};
use csaw::global::{Batch, GlobalApi, RegistrarConfig, Report, ServerDb, Uuid};
use csaw_simnet::time::{SimDuration, SimTime};

/// Name and one-line reason of every workload, in run order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        ingest_inproc::NAME,
        "store writes and reads with no socket, JSON or WAL: csaw-store and csaw::global::server do all the work",
    ),
    (
        wire_mixed::NAME,
        "one dbserver over loopback: 4-report posts, 1-report Encore probes and list downloads separate per-report, per-frame and per-byte wire cost",
    ),
    (
        replicate::NAME,
        "journalled leader over a disk log, WAL shipping to a socketed replica, log replay: the only user of csaw_store::wal, csaw-replica and SHIP",
    ),
    (
        pilot_browse::NAME,
        "123 simulated clients browse, post and sync in-process: the simulator stack works, store and sockets nearly idle",
    ),
];

/// A workload the generic driver can run.
pub trait Workload: Sized {
    /// The name `--workload` selects it by.
    const NAME: &'static str;
    /// Build the one-time fixtures from the seed.
    fn setup(seed: u64, ops: &mut Ops) -> Self;
    /// One round: per-round fixtures, the timed phases, output checks.
    fn round(&mut self, run: &mut Run);
    /// End-of-run reconciliation and teardown; every thread the
    /// workload started has ended when this returns.
    fn finish(self, run: &mut Run);
}

/// A registrar that admits the whole synthetic population at once.
pub fn open_registrar() -> RegistrarConfig {
    RegistrarConfig {
        max_risk: 1.0,
        max_per_window: usize::MAX,
        window: SimDuration::from_secs(60),
    }
}

/// An in-memory server with an open registrar.
pub fn memory_server(seed: u64, shards: usize) -> ServerDb {
    ServerDb::builder(seed)
        .shards(shards)
        .registrar(open_registrar())
        .build()
        .expect("a positive shard count is a valid store config")
}

/// Register clients `0..n` in index order. UUIDs derive from (time,
/// counter, salt), so equal seeds give equal identities on every fresh
/// server — batches can be generated once and replayed each round.
pub fn register_all<G: GlobalApi + ?Sized>(api: &G, n: usize, ops: &mut Ops) -> Vec<Uuid> {
    (0..n)
        .filter_map(|i| {
            let r = api.register(SimTime::from_secs(i as u64), 0.0);
            ops.check(r.is_ok(), || format!("registration {i} refused: {r:?}"));
            r.ok()
        })
        .collect()
}

/// Running totals of what the servers said they did with our posts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PostTotals {
    /// Post requests sent (resubmissions included).
    pub posts: u64,
    /// Reports accepted.
    pub accepted: u64,
    /// Reports rejected by sanitization.
    pub rejected: u64,
}

/// Post `first` (a copy of `master`) and keep resubmitting exactly the
/// deferred reports until none are left. A transport or server error
/// fails the op.
pub fn post_until_settled<G: GlobalApi + ?Sized>(
    api: &G,
    master: &Batch,
    first: Batch,
    span: &'static str,
    op: u64,
    ops: &mut Ops,
    totals: &mut PostTotals,
) {
    let posted_at = first.posted_at;
    // Reports of the submission in flight; empty means `master`'s.
    let mut current: Vec<Report> = Vec::new();
    let mut next = Some(first);
    // A deferral is bounded backpressure, not loss; but a server that
    // defers forever must not hang the benchmark.
    for _attempt in 0..64 {
        let Some(batch) = next.take() else { return };
        let submitted = batch.len();
        let result = ops
            .tracer
            .span(span, op, submitted as u64, |_| api.ingest(batch));
        totals.posts += 1;
        let receipt = match result {
            Ok(receipt) => receipt,
            Err(e) => {
                ops.check(false, || format!("post failed: {e}"));
                return;
            }
        };
        ops.receipt(submitted, &receipt);
        totals.accepted += receipt.accepted as u64;
        totals.rejected += receipt.rejected as u64;
        if receipt.deferred_indices.is_empty() {
            return;
        }
        let base = if current.is_empty() {
            master.reports()
        } else {
            &current
        };
        let deferred: Vec<Report> = receipt
            .deferred_indices
            .iter()
            .filter_map(|&i| base.get(i).cloned())
            .collect();
        next = Some(Batch::new(master.client, deferred.clone(), posted_at));
        current = deferred;
    }
    ops.check(false, || {
        "a batch was deferred 64 times and never accepted".into()
    });
}
