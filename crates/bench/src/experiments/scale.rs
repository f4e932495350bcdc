//! `exp scale` — the million-client ingestion harness for the sharded
//! global store.
//!
//! The paper's server must absorb crowdsourced updates from an open
//! population (§5); this extension checks that the lock-striped
//! [`ShardedStore`](csaw::global::StorageBackend) loses nothing when that
//! population is driven hard: `--clients` synthetic clients (default
//! one million) each post one report batch from `--threads` concurrent
//! writers, then `--lookups` `blocked_for_as` calls read the store's
//! blocked-list cache back. Under `--transport tcp` the same workload is
//! posted a second time, to a real `csaw-dbserver` over loopback.
//!
//! The workload is a *pure function of (seed, client index)*: every
//! client's batch is derived from its own forked RNG, so the final
//! store state is identical no matter how clients are partitioned
//! across threads — the concurrency tests in `crates/store` and this
//! module's tests assert exactly this. Every 16th client salts one
//! garbage-URL report into its batch to keep the sanitization/reject
//! path on the hot loop.
//!
//! Everything printed is a count, deterministic in the seed except the
//! socketed pass's deferral retries. Timing lives in the repo benchmark
//! (`ingest_inproc`, `wire_mixed`); under `--perf wall` the store's
//! timed locks record their acquisitions, contention and wait/hold sums
//! into the `--metrics-out` snapshot.

use crate::cli::{ExpCli, Flags, Verdict};
use crate::fleet;
use csaw::global::{Batch, ConfidenceFilter, GlobalApi, RemoteDb, Report, ServerDb, Uuid};
use csaw_censor::blocking::BlockingType;
use csaw_dbserver::{spawn_dbserver, DbServerConfig};
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use std::sync::Arc;

/// Reports per client batch (the paper's clients post small batches).
pub const REPORTS_PER_CLIENT: usize = 4;

/// Every n-th client includes one garbage report (rejected path).
const GARBAGE_EVERY: usize = 16;

/// Shard count for the store under test.
pub const SHARDS: usize = 16;

/// URL pool size (keys collide across clients, as in deployment).
pub const URLS: usize = 10_000;

/// Number of distinct ASes the population reports from.
pub const ASNS: u32 = 64;

/// Harness knobs (see [`FLAGS`]).
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Synthetic client population; each posts one batch.
    pub clients: usize,
    /// Concurrent writer threads posting the population.
    pub threads: usize,
    /// `blocked_for_as` calls after the in-process ingest.
    pub lookups: usize,
}

impl Default for ScaleConfig {
    fn default() -> ScaleConfig {
        ScaleConfig {
            clients: 1_000_000,
            threads: 4,
            lookups: 10_000,
        }
    }
}

/// What one ingest pass (in-process or socketed) added up to.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Writer threads that posted the population.
    pub threads: usize,
    /// Reports the store accepted (deterministic in the seed).
    pub accepted: u64,
    /// Reports rejected by sanitization (deterministic in the seed).
    pub rejected: u64,
    /// Records in the store after the pass (deterministic in the seed).
    pub records: usize,
    /// Batch resubmissions triggered by deferred receipts. Only a
    /// socketed server defers, and how often depends on scheduling;
    /// every deferral is retried, so this counts extra round trips, not
    /// losses.
    pub deferral_retries: u64,
}

/// The harness result: the in-process pass, plus the socketed one under
/// `--transport tcp`.
#[derive(Debug, Clone)]
pub struct Scale {
    /// The configuration that was run.
    pub cfg: ScaleConfig,
    /// The in-process pass.
    pub pass: Pass,
    /// The socketed pass, when run.
    pub socket: Option<Pass>,
}

/// The batch client `idx` posts — a pure function of `(seed, idx)`, so
/// the aggregate workload is independent of thread partitioning.
pub fn batch_for(seed: u64, idx: usize, uuid: Uuid) -> Batch {
    let mut rng = DetRng::new(seed ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let stages = [
        BlockingType::DnsNxdomain,
        BlockingType::IpDrop,
        BlockingType::HttpDrop,
        BlockingType::HttpBlockPageRedirect,
    ];
    let mut reports = Vec::with_capacity(REPORTS_PER_CLIENT);
    let asn = rng.range_u64(0, ASNS as u64) as u32;
    for r in 0..REPORTS_PER_CLIENT {
        let garbage = idx.is_multiple_of(GARBAGE_EVERY) && r == 0;
        let url = if garbage {
            // Fails `Url::parse` in the store's sanitizer.
            "not a url at all".to_string()
        } else {
            format!("http://blocked{}.example.net/", rng.index(URLS))
        };
        reports.push(Report {
            url,
            asn,
            measured_at_us: (idx as u64) * 1_000 + r as u64,
            stages: vec![stages[rng.index(stages.len())]],
        });
    }
    Batch::new(uuid, reports, SimTime::from_secs(1_000 + idx as u64))
}

/// A fresh store under test behind an open registrar.
fn fresh_server(seed: u64) -> ServerDb {
    ServerDb::builder(seed)
        .shards(SHARDS)
        .registrar(fleet::open_registrar(SimDuration::from_secs(60)))
        .build()
        .expect("scale harness store config is valid")
}

/// Register the whole population in index order. Registration stays
/// sequential: UUID assignment is order-dependent, and identical
/// ordering keeps the socketed store state byte-comparable with the
/// in-process pass's.
fn register_all(api: &impl GlobalApi, cfg: &ScaleConfig) -> Vec<Uuid> {
    (0..cfg.clients)
        .map(|i| {
            api.register(SimTime::from_secs(i as u64), 0.0)
                .expect("open registrar accepts the population")
        })
        .collect()
}

/// Post every client's batch to `api` from `cfg.threads` writers and
/// sum the receipts as `[accepted, rejected, deferral retries]`. Each
/// batch goes out as [`batch_for`] built it; only deferred indices are
/// resubmitted, so an accepted or rejected report is never posted
/// twice.
fn post_all(api: &impl GlobalApi, seed: u64, cfg: &ScaleConfig, uuids: &[Uuid]) -> [u64; 3] {
    fleet::fan_out(cfg.clients, cfg.threads, |chunk| {
        let (mut acc, mut rej, mut retries) = (0u64, 0u64, 0u64);
        for idx in chunk {
            let mut batch = batch_for(seed, idx, uuids[idx]);
            loop {
                let posted_at = batch.posted_at;
                let sent = batch.reports().to_vec();
                let receipt = api.ingest(batch).expect("post");
                assert_eq!(
                    receipt.accepted + receipt.rejected + receipt.deferred(),
                    sent.len(),
                    "receipt must cover every index"
                );
                acc += receipt.accepted as u64;
                rej += receipt.rejected as u64;
                if receipt.deferred_indices.is_empty() {
                    break;
                }
                retries += 1;
                let deferred = receipt.deferred_indices.iter().map(|&i| sent[i].clone());
                batch = Batch::new(uuids[idx], deferred.collect(), posted_at);
            }
        }
        [acc, rej, retries]
    })
}

/// The in-process pass: a fresh store, `cfg.threads` writers, then the
/// read workload. `seed` fixes the workload; `cfg` sizes it.
pub fn run_with(seed: u64, cfg: ScaleConfig) -> Scale {
    let server = fresh_server(seed);
    let uuids = register_all(&server, &cfg);
    csaw_obs::event::progress(&format!(
        "exp_scale: ingesting {} clients on {} thread(s)",
        cfg.clients, cfg.threads
    ));
    let [accepted, rejected, deferral_retries] = post_all(&server, seed, &cfg, &uuids);

    // The read workload behind `--perf wall`'s read-lock attribution:
    // repeat lookups (cache hits) alternate with a stricter filter
    // (rebuilds) so both ends of the blocked-list cache are exercised.
    let filter = ConfidenceFilter::default();
    let strict = ConfidenceFilter::strict(2, 0.0);
    for i in 0..cfg.lookups {
        let asn = Asn((i as u32) % ASNS);
        let f = if i % 8 == 0 { &strict } else { &filter };
        // A small population may report from none of the ASes walked,
        // so serving nothing is an answer, not an error.
        std::hint::black_box(
            server
                .blocked_for_as(asn, f)
                .expect("the in-memory store cannot fail a download"),
        );
    }

    Scale {
        pass: Pass {
            threads: cfg.threads,
            accepted,
            rejected,
            records: server.store().record_count(),
            deferral_retries,
        },
        socket: None,
        cfg,
    }
}

/// The socketed pass: spawn a real `csaw-dbserver` on loopback, post
/// the same seed-pure workload through the [`RemoteDb`] connection
/// pool, reconcile every receipt exactly (accepted + rejected must
/// cover every submitted report), then gracefully drain the server and
/// cross-check its counters against the client side. Panics on any
/// silent loss.
pub fn run_socketed(seed: u64, cfg: &ScaleConfig, server_cfg: DbServerConfig) -> Pass {
    let server = Arc::new(fresh_server(seed));
    let handle = spawn_dbserver(Arc::clone(&server), server_cfg).expect("loopback bind");
    let remote = RemoteDb::new(handle.addr());

    csaw_obs::event::progress(&format!(
        "exp_scale: registering {} clients over tcp",
        cfg.clients
    ));
    let uuids = register_all(&remote, cfg);
    csaw_obs::event::progress(&format!(
        "exp_scale: posting over tcp on {} thread(s)",
        cfg.threads
    ));
    let [accepted, rejected, deferral_retries] = post_all(&remote, seed, cfg, &uuids);

    // Graceful drain, then reconcile: client-side receipt totals, the
    // server's own counters, and the store must all agree exactly.
    let stats = handle.drain();
    assert_eq!(
        accepted + rejected,
        (cfg.clients * REPORTS_PER_CLIENT) as u64,
        "receipt reconciliation: every submitted report must be \
         accepted or rejected exactly once (deferred = resubmitted)"
    );
    assert_eq!(
        stats.reports_accepted, accepted,
        "server-side accept counter must match client receipts"
    );
    assert_eq!(
        stats.reports_rejected, rejected,
        "server-side reject counter must match client receipts"
    );
    assert_eq!(
        stats.protocol_errors, 0,
        "clean runs have no protocol errors"
    );

    Pass {
        threads: cfg.threads,
        accepted,
        rejected,
        records: server.store().record_count(),
        deferral_retries,
    }
}

/// The value flags `exp scale` reads.
pub const FLAGS: &[(&str, &str)] = &[
    ("--clients", "reporting clients to ingest (default 1000000)"),
    ("--threads", "concurrent writer threads (default 4)"),
    (
        "--lookups",
        "read-path lookups after ingest (default 10000)",
    ),
    (
        "--transport",
        "also run the socketed pass: 'in-process' (default) or 'tcp'",
    ),
];

/// `exp scale`: the in-process pass, plus the socketed pass under
/// `--transport tcp`. It prints its counts and writes no file of its
/// own; lock attribution is `--perf wall --metrics-out m.json`. There
/// is no verdict to gate on: either pass panics on any reconciliation
/// failure (silent loss), which exits nonzero — that is the CI gate.
pub fn harness(cli: &ExpCli, flags: &Flags) -> (String, Verdict) {
    let defaults = ScaleConfig::default();
    let cfg = ScaleConfig {
        clients: flags.numeric("--clients", defaults.clients),
        threads: flags.numeric("--threads", defaults.threads),
        lookups: flags.numeric("--lookups", defaults.lookups),
    };
    // Zero of any of these leaves a pass with nothing to do, which the
    // library asserts against; reject it as a usage error here.
    for (flag, value) in [
        ("--clients", cfg.clients),
        ("--lookups", cfg.lookups),
        ("--threads", cfg.threads),
    ] {
        if value == 0 {
            flags.die(&format!("{flag} must be at least 1"));
        }
    }
    let transport = flags.get("--transport").unwrap_or("in-process");
    if !matches!(transport, "in-process" | "tcp") {
        flags.die(&format!(
            "--transport must be 'in-process' or 'tcp', got {transport:?}"
        ));
    }
    let mut result = run_with(cli.seed, cfg.clone());
    if transport == "tcp" {
        result.socket = Some(run_socketed(cli.seed, &cfg, DbServerConfig::default()));
    }
    (result.render(), Ok(()))
}

impl Pass {
    /// One line of counts: `label`, then what the receipts added up to.
    fn render(&self, label: &str, posted: usize) -> String {
        format!(
            "{label} ({} threads): {} accepted + {} rejected = {posted} posted, \
             {} records, {} deferral retries\n",
            self.threads, self.accepted, self.rejected, self.records, self.deferral_retries,
        )
    }
}

impl Scale {
    /// Text rendering: the workload, then one line per pass.
    pub fn render(&self) -> String {
        let posted = self.cfg.clients * REPORTS_PER_CLIENT;
        let mut out = format!(
            "exp_scale: {} clients x {} reports, {} shards, {} URLs, {} ASes, {} lookups\n",
            self.cfg.clients, REPORTS_PER_CLIENT, SHARDS, URLS, ASNS, self.cfg.lookups,
        );
        out.push_str(&self.pass.render("in-process", posted));
        if let Some(sck) = &self.socket {
            out.push_str(&sck.render("socketed over tcp loopback", posted));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_obs::{install, ObsCtx, PerfMode};

    fn tiny() -> ScaleConfig {
        ScaleConfig {
            clients: 400,
            threads: 1,
            lookups: 40,
        }
    }

    /// The store's final state must not depend on how the writers were
    /// scheduled: same seed, same counts, whatever the thread count —
    /// and the rendering is a pure function of the seed.
    #[test]
    fn deterministic_counts_and_thread_invariance() {
        let counts = |threads: usize| {
            let p = run_with(9, ScaleConfig { threads, ..tiny() }).pass;
            (p.accepted, p.rejected, p.records)
        };
        let (accepted, rejected, records) = counts(1);
        assert_eq!(accepted + rejected, (400 * REPORTS_PER_CLIENT) as u64);
        // Every 16th client contributes exactly one garbage report.
        assert_eq!(rejected, 400 / GARBAGE_EVERY as u64);
        assert!(records > 0);
        for threads in [2, 4] {
            assert_eq!(
                counts(threads),
                (accepted, rejected, records),
                "{threads} writers"
            );
        }
        let render = || {
            run_with(
                9,
                ScaleConfig {
                    threads: 2,
                    ..tiny()
                },
            )
            .render()
        };
        assert_eq!(render(), render());
    }

    #[test]
    fn perf_off_registers_no_lock_metric() {
        let ctx = Arc::new(ObsCtx::new());
        let _g = install(ctx.clone());
        run_with(9, tiny());
        let snap = ctx.registry.snapshot().to_string_compact();
        assert!(!snap.contains("lock."), "perf off, yet: {snap}");
    }

    /// The write locks one ingest takes, per family, over the 10k-client
    /// smoke workload: one `clients` stripe per batch, and one `keys`
    /// stripe and one record shard per (batch, touched shard) pair. A
    /// batch that took a shard or stripe write lock twice would raise a
    /// count; so would a lock taken per report instead of per shard.
    #[test]
    fn each_batch_takes_each_write_lock_once_at_every_thread_count() {
        let acquires = |threads: usize| {
            let ctx = Arc::new(ObsCtx::new().with_perf(PerfMode::Monotonic));
            let _g = install(ctx.clone());
            let cfg = ScaleConfig {
                clients: 10_000,
                lookups: 1_000,
                threads,
            };
            run_with(1, cfg);
            [
                "store.ledger.clients.write",
                "store.ledger.keys.write",
                "store.shard.records.write",
            ]
            .map(|family| {
                let name = format!("lock.{family}.acquires");
                (family, ctx.registry.counter(&name).get())
            })
        };
        for threads in [1, 4] {
            assert_eq!(
                acquires(threads),
                [
                    ("store.ledger.clients.write", 10_000),
                    ("store.ledger.keys.write", 35_976),
                    ("store.shard.records.write", 35_976),
                ],
                "{threads} writer thread(s)"
            );
        }
    }

    #[test]
    fn socketed_phase_reconciles_and_is_seed_pure() {
        // max_posts_in_flight: 1 makes concurrent posters hit the
        // backpressure path — deferrals must resubmit, never lose.
        let run = || {
            let cfg = ScaleConfig {
                threads: 4,
                ..tiny()
            };
            let sck = run_socketed(
                13,
                &cfg,
                DbServerConfig {
                    max_posts_in_flight: 1,
                },
            );
            let mut scale = run_with(13, cfg);
            assert_eq!(
                (sck.accepted, sck.rejected, sck.records),
                (scale.pass.accepted, scale.pass.rejected, scale.pass.records),
                "socketed store state must match the in-process store state"
            );
            let counts = (sck.accepted, sck.rejected, sck.records);
            scale.socket = Some(sck);
            assert!(scale.render().contains("socketed over tcp loopback"));
            counts
        };
        assert_eq!(run(), run(), "socketed counts must be seed-pure");
    }
}
