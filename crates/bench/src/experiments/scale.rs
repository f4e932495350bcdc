//! `exp scale` — the million-client ingestion harness for the sharded
//! global store.
//!
//! The paper's server must absorb crowdsourced updates from an open
//! population (§5); this extension measures how the lock-striped
//! [`ShardedStore`](csaw::global::StorageBackend) behaves when that
//! population is driven hard: `--clients` synthetic clients (default
//! one million) each post one report batch, from 1..=8 concurrent
//! writer threads, against a fresh store per thread count.
//!
//! What is measured, per thread count:
//!
//! - sustained ingest throughput (reports/s, wall clock) while all
//!   threads hammer `ServerDb::ingest` concurrently;
//! - post-ingest `blocked_for_as` lookup latency (p50/p99 over
//!   `--lookups` calls), exercising the per-shard snapshot cache;
//! - parallel efficiency relative to the single-thread run.
//!
//! The workload is a *pure function of (seed, client index)*: every
//! client's batch is derived from its own forked RNG, so the final
//! store state is identical no matter how clients are partitioned
//! across threads — the concurrency tests in `crates/store` assert
//! exactly this, and [`run_with`] re-checks it via `record_count` across
//! thread counts. Every 16th client salts one garbage-URL report into
//! its batch to keep the sanitization/reject path on the hot loop.
//!
//! Throughput numbers are wall-clock and therefore machine-dependent;
//! EXPERIMENTS.md records the reference environment alongside the
//! numbers. Everything else (accepted/rejected counts, record counts,
//! lookup result sizes) is deterministic in the seed. Under `--perf
//! wall` the store's timed locks record their acquisitions, contention
//! and wait/hold sums into the `--metrics-out` snapshot.

use crate::cli::{ExpCli, Flags, Verdict};
use crate::fleet;
use crate::scorecard::Scorecard;
use csaw::global::{Batch, ConfidenceFilter, GlobalApi, RemoteDb, Report, ServerDb, Uuid};
use csaw_censor::blocking::BlockingType;
use csaw_dbserver::{spawn_dbserver, DbServerConfig};
use csaw_obs::json::JsonValue;
use csaw_obs::slo::SloSet;
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use std::sync::Arc;
use std::time::Instant;

/// Reports per client batch (the paper's clients post small batches).
const REPORTS_PER_CLIENT: usize = 4;

/// Every n-th client includes one garbage report (rejected path).
const GARBAGE_EVERY: usize = 16;

/// Harness knobs (see [`FLAGS`] for the ones `exp scale` exposes).
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Synthetic client population; each posts one batch.
    pub clients: usize,
    /// Writer-thread counts to sweep (a fresh store per entry).
    pub threads: Vec<usize>,
    /// Shard count for the store under test.
    pub shards: usize,
    /// URL pool size (keys collide across clients, as in deployment).
    pub urls: usize,
    /// Number of distinct ASes the population reports from.
    pub asns: u32,
    /// `blocked_for_as` calls in the lookup-latency phase.
    pub lookups: usize,
}

impl Default for ScaleConfig {
    fn default() -> ScaleConfig {
        ScaleConfig {
            clients: 1_000_000,
            threads: vec![1, 2, 4, 8],
            shards: 16,
            urls: 10_000,
            asns: 64,
            lookups: 10_000,
        }
    }
}

/// One row of the sweep: a thread count and what it achieved.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Writer threads used for the ingest phase.
    pub threads: usize,
    /// Wall-clock ingest time in seconds.
    pub ingest_secs: f64,
    /// Sustained ingest throughput, reports per second.
    pub reports_per_sec: f64,
    /// Reports accepted by the store (deterministic in the seed).
    pub accepted: u64,
    /// Reports rejected by sanitization (deterministic in the seed).
    pub rejected: u64,
    /// Records in the store after ingest (thread-count independent).
    pub records: usize,
    /// Median `blocked_for_as` latency, µs.
    pub lookup_p50_us: u64,
    /// 99th-percentile `blocked_for_as` latency, µs.
    pub lookup_p99_us: u64,
}

/// The full sweep result.
#[derive(Debug, Clone)]
pub struct Scale {
    /// The configuration that was run.
    pub cfg: ScaleConfig,
    /// One row per thread count, in sweep order.
    pub rows: Vec<ScaleRow>,
    /// Result of the socketed phase (`--transport tcp`), when run.
    pub socket: Option<SocketScale>,
}

/// What the socketed phase achieved: the same workload posted to a
/// real `csaw-dbserver` over loopback TCP through the [`RemoteDb`]
/// pool, with exact receipt reconciliation.
///
/// `accepted`/`rejected`/`records` are seed-pure (deferrals only delay
/// a report, they never change whether it is ultimately accepted) and
/// land in the scorecard; everything wall-clock or scheduling-dependent
/// (throughput, request latency, deferral retries) is only printed.
#[derive(Debug, Clone)]
pub struct SocketScale {
    /// Posting threads sharing the connection pool.
    pub threads: usize,
    /// Reports submitted (clients × reports-per-client).
    pub posted_reports: u64,
    /// Reports the server accepted (deterministic in the seed).
    pub accepted: u64,
    /// Reports rejected by sanitization (deterministic in the seed).
    pub rejected: u64,
    /// Records in the store after the run (deterministic in the seed).
    pub records: usize,
    /// Batch resubmissions triggered by deferred receipts (backpressure
    /// is bounded and explicit — every deferral is retried, so this
    /// counts extra round trips, not losses). Timing-dependent.
    pub deferred_retries: u64,
    /// Sustained socketed ingest throughput, reports per second
    /// (registration excluded).
    pub reports_per_sec: f64,
    /// Median request round-trip latency, µs.
    pub req_p50_us: u64,
    /// 99th-percentile request round-trip latency, µs.
    pub req_p99_us: u64,
}

/// The batch client `idx` posts — a pure function of `(seed, idx)`, so
/// the aggregate workload is independent of thread partitioning.
pub fn batch_for(seed: u64, idx: usize, uuid: Uuid, cfg: &ScaleConfig) -> Batch {
    let mut rng = DetRng::new(seed ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let stages = [
        BlockingType::DnsNxdomain,
        BlockingType::IpDrop,
        BlockingType::HttpDrop,
        BlockingType::HttpBlockPageRedirect,
    ];
    let mut reports = Vec::with_capacity(REPORTS_PER_CLIENT);
    let asn = rng.range_u64(0, cfg.asns as u64) as u32;
    for r in 0..REPORTS_PER_CLIENT {
        let garbage = idx.is_multiple_of(GARBAGE_EVERY) && r == 0;
        let url = if garbage {
            // Fails `Url::parse` in the store's sanitizer.
            "not a url at all".to_string()
        } else {
            format!("http://blocked{}.example.net/", rng.index(cfg.urls))
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
fn fresh_server(seed: u64, cfg: &ScaleConfig) -> ServerDb {
    ServerDb::builder(seed)
        .shards(cfg.shards)
        .registrar(fleet::open_registrar(SimDuration::from_secs(60)))
        .build()
        .expect("scale harness store config is valid")
}

/// Register the whole population in index order. Registration stays
/// sequential (and untimed): UUID assignment is order-dependent, and
/// identical ordering keeps the socketed store state byte-comparable
/// with the in-process phase's.
fn register_all(api: &impl GlobalApi, cfg: &ScaleConfig) -> Vec<Uuid> {
    (0..cfg.clients)
        .map(|i| {
            api.register(SimTime::from_secs(i as u64), 0.0)
                .expect("open registrar accepts the population")
        })
        .collect()
}

/// Run the sweep. `seed` fixes the workload; `cfg` sizes it.
pub fn run_with(seed: u64, cfg: ScaleConfig) -> Scale {
    let mut rows = Vec::with_capacity(cfg.threads.len());
    for &threads in &cfg.threads {
        csaw_obs::event::progress(&format!(
            "exp_scale: ingesting {} clients on {} thread(s)",
            cfg.clients, threads
        ));
        rows.push(run_one(seed, &cfg, threads));
    }
    // The store's final state must not depend on how the writers were
    // scheduled: same seed, same records, whatever the thread count.
    if let Some(first) = rows.first() {
        for r in &rows {
            assert_eq!(
                r.records, first.records,
                "store state diverged across thread counts"
            );
            assert_eq!(r.accepted, first.accepted);
            assert_eq!(r.rejected, first.rejected);
        }
    }
    Scale {
        cfg,
        rows,
        socket: None,
    }
}

/// The socketed phase: spawn a real `csaw-dbserver` on loopback, post
/// the same seed-pure workload through the [`RemoteDb`] connection
/// pool from `threads` posting threads, reconcile every receipt
/// exactly (accepted + rejected must cover every submitted report —
/// deferred indices are resubmitted until they land), then gracefully
/// drain the server and cross-check its counters against the client
/// side. Panics on any silent loss.
pub fn run_socketed(
    seed: u64,
    cfg: &ScaleConfig,
    threads: usize,
    server_cfg: DbServerConfig,
) -> SocketScale {
    let server = Arc::new(fresh_server(seed, cfg));
    let handle = spawn_dbserver(Arc::clone(&server), server_cfg).expect("loopback bind");
    let remote = RemoteDb::new(handle.addr());

    csaw_obs::event::progress(&format!(
        "exp_scale: registering {} clients over tcp",
        cfg.clients
    ));
    let uuids = register_all(&remote, cfg);

    csaw_obs::event::progress(&format!(
        "exp_scale: posting over tcp on {threads} thread(s)"
    ));
    let lat = csaw_obs::metrics::Histogram::default();
    let started = Instant::now();
    let [accepted, rejected, retries] = fleet::fan_out(cfg.clients, threads, |chunk| {
        let (mut acc, mut rej, mut retries) = (0u64, 0u64, 0u64);
        for idx in chunk {
            let uuid = uuids[idx];
            let template = batch_for(seed, idx, uuid, cfg);
            let posted_at = template.posted_at;
            let mut reports = template.reports().to_vec();
            loop {
                let t0 = Instant::now();
                let receipt = remote
                    .ingest(Batch::new(uuid, reports.clone(), posted_at))
                    .expect("socketed post");
                lat.observe_us(t0.elapsed().as_micros() as u64);
                assert_eq!(
                    receipt.accepted + receipt.rejected + receipt.deferred(),
                    reports.len(),
                    "receipt must cover every index"
                );
                acc += receipt.accepted as u64;
                rej += receipt.rejected as u64;
                if receipt.deferred_indices.is_empty() {
                    break;
                }
                // Resubmit exactly the deferred reports —
                // accepted/rejected ones must not repeat.
                retries += 1;
                reports = receipt
                    .deferred_indices
                    .iter()
                    .map(|&i| reports[i].clone())
                    .collect();
            }
        }
        [acc, rej, retries]
    });
    let ingest_secs = started.elapsed().as_secs_f64();
    csaw_obs::observe_secs("exp.scale.socket_ingest", ingest_secs);

    // Graceful drain, then reconcile: client-side receipt totals, the
    // server's own counters, and the store must all agree exactly.
    let stats = handle.drain();
    let posted_reports = (cfg.clients * REPORTS_PER_CLIENT) as u64;
    assert_eq!(
        accepted + rejected,
        posted_reports,
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

    SocketScale {
        threads,
        posted_reports,
        accepted,
        rejected,
        records: server.store().record_count(),
        deferred_retries: retries,
        reports_per_sec: posted_reports as f64 / ingest_secs.max(1e-9),
        req_p50_us: lat.p50_us().unwrap_or(0),
        req_p99_us: lat.p99_us().unwrap_or(0),
    }
}

/// One sweep point: a fresh store, `threads` concurrent writers.
fn run_one(seed: u64, cfg: &ScaleConfig, threads: usize) -> ScaleRow {
    let server = fresh_server(seed, cfg);
    let uuids = register_all(&server, cfg);

    let started = Instant::now();
    let [accepted, rejected] = fleet::fan_out(cfg.clients, threads, |chunk| {
        let (mut acc, mut rej) = (0u64, 0u64);
        for idx in chunk {
            let batch = batch_for(seed, idx, uuids[idx], cfg);
            let receipt = server.ingest(batch).expect("registered client");
            acc += receipt.accepted as u64;
            rej += receipt.rejected as u64;
        }
        [acc, rej]
    });
    let ingest_secs = started.elapsed().as_secs_f64();
    let total_reports = (cfg.clients * REPORTS_PER_CLIENT) as f64;
    csaw_obs::observe_secs("exp.scale.ingest", ingest_secs);

    // Lookup phase: hammer the per-AS snapshot path. Alternate between
    // repeat lookups (cache hits) and a rotating confidence filter
    // (forcing recomputes) so both ends of the cache show up in p50/p99.
    let filter = ConfidenceFilter::default();
    let strict = ConfidenceFilter::strict(2, 0.0);
    // Row-local histogram (not the scope registry's — that one keeps
    // accumulating across sweep rows): the shared log-bucketed quantile
    // sketch replaces the old hand-rolled nearest-rank percentile.
    let lat = csaw_obs::metrics::Histogram::default();
    for i in 0..cfg.lookups {
        let asn = Asn((i as u32) % cfg.asns);
        let f = if i % 8 == 0 { &strict } else { &filter };
        let t0 = Instant::now();
        // A small population may report from none of the ASes walked,
        // so serving nothing is an answer, not an error.
        std::hint::black_box(
            server
                .blocked_for_as(asn, f)
                .expect("the in-memory store cannot fail a download"),
        );
        let us = t0.elapsed().as_micros() as u64;
        lat.observe_us(us);
        csaw_obs::observe_us("exp.scale.lookup", us);
    }

    ScaleRow {
        threads,
        ingest_secs,
        reports_per_sec: total_reports / ingest_secs.max(1e-9),
        accepted,
        rejected,
        records: server.store().record_count(),
        lookup_p50_us: lat.p50_us().unwrap_or(0),
        lookup_p99_us: lat.p99_us().unwrap_or(0),
    }
}

/// The value flags `exp scale` reads.
pub const FLAGS: &[(&str, &str)] = &[
    ("--clients", "reporting clients to ingest (default 1000000)"),
    (
        "--threads",
        "comma list of writer-thread counts (default 1,2,4,8)",
    ),
    ("--shards", "store shard count (default 16)"),
    ("--lookups", "read-path lookups to time (default 10000)"),
    (
        "--transport",
        "also run the socketed phase: 'in-process' (default) or 'tcp'",
    ),
];

/// `exp scale`: the ingest sweep, plus the socketed phase under
/// `--transport tcp`. It prints its table and writes no file of its
/// own; lock attribution is `--perf wall --metrics-out m.json`. There
/// is no verdict to gate on: the socketed phase panics on any
/// reconciliation failure (silent loss), which exits nonzero — that is
/// the CI gate.
pub fn harness(cli: &ExpCli, flags: &Flags) -> (String, Verdict) {
    // This harness runs on wall clock (the virtual clock never moves),
    // so windows are off unless --window is given; when on, the ingest
    // coverage rule still applies to the single close-of-run window.
    cli.default_window(0.0, Arc::new(SloSet::ingest_default()));
    let defaults = ScaleConfig::default();
    let cfg = ScaleConfig {
        clients: flags.numeric("--clients", defaults.clients),
        threads: flags.list("--threads").unwrap_or(defaults.threads),
        shards: flags.numeric("--shards", defaults.shards),
        lookups: flags.numeric("--lookups", defaults.lookups),
        ..defaults
    };
    // Zero of any of these leaves a phase with nothing to do, which the
    // library asserts against; reject it as a usage error here.
    for (flag, value) in [
        ("--clients", cfg.clients),
        ("--shards", cfg.shards),
        ("--lookups", cfg.lookups),
        ("--threads", cfg.threads.iter().copied().min().unwrap_or(0)),
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
        let threads = cfg.threads.iter().copied().max().unwrap_or(1);
        let server = DbServerConfig::default();
        result.socket = Some(run_socketed(cli.seed, &cfg, threads, server));
    }
    (result.render(), Ok(()))
}

impl Scale {
    /// Text rendering: one row per thread count plus efficiency.
    pub fn render(&self) -> String {
        let mut out = format!(
            "exp_scale: {} clients x {} reports, {} shards, {} URLs, {} ASes\n\
             {:>7}  {:>10}  {:>12}  {:>10}  {:>9}  {:>9}  {:>8}  {:>8}\n",
            self.cfg.clients,
            REPORTS_PER_CLIENT,
            self.cfg.shards,
            self.cfg.urls,
            self.cfg.asns,
            "threads",
            "ingest_s",
            "reports/s",
            "accepted",
            "rejected",
            "records",
            "p50_us",
            "p99_us",
        );
        let base = self.rows.first().map(|r| r.reports_per_sec);
        for r in &self.rows {
            out.push_str(&format!(
                "{:>7}  {:>10.3}  {:>12.0}  {:>10}  {:>9}  {:>9}  {:>8}  {:>8}\n",
                r.threads,
                r.ingest_secs,
                r.reports_per_sec,
                r.accepted,
                r.rejected,
                r.records,
                r.lookup_p50_us,
                r.lookup_p99_us,
            ));
        }
        if let Some(base) = base {
            let eff: Vec<String> = self
                .rows
                .iter()
                .map(|r| {
                    format!(
                        "{}T={:.2}",
                        r.threads,
                        r.reports_per_sec / (base * r.threads as f64)
                    )
                })
                .collect();
            out.push_str(&format!(
                "parallel efficiency vs 1 thread: {}\n",
                eff.join("  ")
            ));
        }
        if let Some(sck) = &self.socket {
            out.push_str(&format!(
                "socketed (tcp loopback, {} threads): {:.0} reports/s, \
                 req p50 {}µs p99 {}µs, {} accepted + {} rejected = {} posted, \
                 {} deferral retries\n",
                sck.threads,
                sck.reports_per_sec,
                sck.req_p50_us,
                sck.req_p99_us,
                sck.accepted,
                sck.rejected,
                sck.posted_reports,
                sck.deferred_retries,
            ));
        }
        out
    }

    /// The seed-pure scorecard of this sweep, whose fingerprint is the
    /// golden manifest's `exp scale` row: the config echo, each row's
    /// accepted/rejected/record counts, and the socketed phase's
    /// receipt totals and store state. Two same-seed runs of the same
    /// build agree byte-for-byte; nothing wall-clock is in it.
    pub fn scorecard(&self, seed: u64) -> Scorecard {
        let mut card = Scorecard::new("exp_scale", seed);
        let mut config = JsonValue::obj();
        config.set("clients", self.cfg.clients);
        config.set("reports_per_client", REPORTS_PER_CLIENT);
        config.set("shards", self.cfg.shards);
        config.set("urls", self.cfg.urls);
        config.set("asns", self.cfg.asns);
        config.set("lookups", self.cfg.lookups);
        let rows: Vec<JsonValue> = self
            .rows
            .iter()
            .map(|r| {
                let mut d = JsonValue::obj();
                d.set("threads", r.threads);
                d.set("accepted", r.accepted);
                d.set("rejected", r.rejected);
                d.set("records", r.records);
                d
            })
            .collect();
        card.deterministic.set("config", config);
        card.deterministic.set("rows", rows);
        if let Some(sck) = &self.socket {
            let mut d = JsonValue::obj();
            d.set("threads", sck.threads);
            d.set("posted_reports", sck.posted_reports);
            d.set("accepted", sck.accepted);
            d.set("rejected", sck.rejected);
            d.set("records", sck.records);
            card.deterministic.set("socket", d);
        }
        card
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_obs::{install, ObsCtx, PerfMode};

    fn tiny() -> ScaleConfig {
        ScaleConfig {
            clients: 400,
            threads: vec![1, 2],
            shards: 4,
            urls: 64,
            asns: 8,
            lookups: 40,
        }
    }

    #[test]
    fn deterministic_counts_and_thread_invariance() {
        let s = run_with(9, tiny());
        assert_eq!(s.rows.len(), 2);
        let total = (400 * REPORTS_PER_CLIENT) as u64;
        for r in &s.rows {
            assert_eq!(r.accepted + r.rejected, total);
            // Every 16th client contributes exactly one garbage report.
            assert_eq!(r.rejected, 400 / GARBAGE_EVERY as u64);
            assert!(r.records > 0);
            assert!(r.reports_per_sec > 0.0);
        }
        // run_with itself asserts cross-thread-count equality; re-run
        // with the same seed and check run-to-run determinism too.
        let s2 = run_with(9, tiny());
        assert_eq!(s.rows[0].accepted, s2.rows[0].accepted);
        assert_eq!(s.rows[0].records, s2.rows[0].records);
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
                threads: vec![threads],
                ..ScaleConfig::default()
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
            let cfg = tiny();
            let sck = run_socketed(
                13,
                &cfg,
                4,
                DbServerConfig {
                    max_posts_in_flight: 1,
                },
            );
            assert_eq!(
                sck.accepted + sck.rejected,
                (cfg.clients * REPORTS_PER_CLIENT) as u64
            );
            assert_eq!(sck.rejected, (cfg.clients / GARBAGE_EVERY) as u64);
            assert!(sck.records > 0);
            let mut scale = run_with(
                13,
                ScaleConfig {
                    threads: vec![1],
                    ..cfg
                },
            );
            let in_process_records = scale.rows[0].records;
            assert_eq!(
                sck.records, in_process_records,
                "socketed store state must match the in-process store state"
            );
            scale.socket = Some(sck);
            assert!(scale.render().contains("socketed (tcp loopback"));
            scale.scorecard(13)
        };
        let (a, b) = (run(), run());
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "socket deterministic section must be seed-pure"
        );
        assert!(a.fingerprint().contains("socket"));
        assert!(
            !a.fingerprint().contains("req_p99_us"),
            "socket latency stays out of the fingerprint"
        );
    }

    #[test]
    fn render_has_a_row_per_thread_count() {
        let s = run_with(5, tiny());
        let text = s.render();
        assert!(text.contains("reports/s"));
        assert!(text.contains("parallel efficiency"));
        assert_eq!(text.lines().count(), 2 + s.rows.len() + 1);
    }
}
