//! `exp splitbrain`: replica convergence through a partition.
//!
//! The replicated global DB (`csaw-replica`) claims that a leader and
//! its per-region read replicas converge to byte-identical states no
//! matter how the WAL shipping links fail, because the shipped state is
//! a join-semilattice and the shipping protocol is idempotent. This
//! experiment puts that claim under a deterministic split-brain:
//!
//! - a leader [`ReplicatedStore`] serves the full ingest pipeline —
//!   C-Saw clients browsing a censored world plus an Encore-style
//!   cross-origin probe population (~10× the client count, single
//!   reachability reports) posting through the *same*
//!   `GlobalApi::ingest` path;
//! - N per-region replicas, each a real `csaw-dbserver` over its own
//!   `ShardedStore` (deliberately different shard counts),
//!   receive the leader's WAL over SHIP/ACK frames every
//!   half hour of virtual time;
//! - in the `split` scenario an [`OutageSchedule`] partitions the
//!   leader from region `r0` mid-ingest; posts keep landing at the
//!   leader, `r0`'s lag and staleness gauges climb, and the
//!   `replica.staleness` SLO must fire;
//! - on heal, shipping resumes from the last acked position and every
//!   replica must reach the leader's exact fingerprint — which also
//!   equals the fingerprint of the `baseline` scenario that never
//!   partitioned, since both scenarios ingest the identical workload.
//!
//! Zero silent loss is machine-checked exactly as in the chaos sweep:
//! every client's accounting identity, every Encore receipt
//! reconciling to one accepted report, and the leader's record count
//! equalling the number of distinct `(url, asn)` keys ever posted.

use crate::cli::{exit, ExpCli, Flags, Verdict};
use crate::fleet::{self, Fleet};
use crate::runner::{self, TrialSpec};
use csaw::config::CsawConfig;
use csaw::encore::{EncoreConfig, EncoreSource};
use csaw::global::{ConfidenceFilter, GlobalApi, RemoteDb, ServerDb};
use csaw_censor::profiles;
use csaw_dbserver::{spawn_dbserver, DbServerConfig, DbServerHandle};
use csaw_faults::OutageSchedule;
use csaw_obs::slo::{SloKind, SloRule, SloSet};
use csaw_obs::timeseries::WindowCfg;
use csaw_replica::{ReplicatedStore, StoreState, WalShipper};
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_store::{Decorator, ShardedStore};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Full C-Saw clients browsing the censored world.
const CLIENTS: usize = 4;

/// Unique blocked URLs each full client accesses.
const URLS_PER_CLIENT: usize = 5;

/// Encore probe identities per full client (the ~10× modality).
const ENCORE_FACTOR: usize = 10;

/// Reports each Encore probe posts over the horizon.
const ENCORE_ROUNDS: usize = 2;

/// Virtual seconds between WAL shipping rounds.
const SHIP_EVERY_S: u64 = 1_800;

/// Shipping steps in the ingest horizon after the browse burst (12
/// virtual hours).
const STEPS: u64 = 12 * 3_600 / SHIP_EVERY_S;

/// Partition window for the `split` scenario, virtual seconds
/// (absolute, leader ↔ region `r0` only).
const PARTITION_S: (u64, u64) = (3 * 3_600, 9 * 3_600);

/// One scenario's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitBrainRow {
    /// `baseline` (no partition) or `split`.
    pub scenario: String,
    /// Reports queued across all full clients.
    pub queued: u64,
    /// Reports the leader durably accepted from full clients.
    pub posted: u64,
    /// Reports accepted from the Encore probe population.
    pub encore_posted: u64,
    /// WAL lines the leader journalled (== what replicas must apply).
    pub leader_seq: u64,
    /// Distinct records in the leader store at quiescence.
    pub store_records: usize,
    /// Worst per-link lag seen at any shipping round, WAL lines.
    pub peak_lag: u64,
    /// Worst per-link staleness seen at any shipping round, seconds.
    pub peak_staleness_s: u64,
    /// Shipping rounds needed after the horizon until every replica
    /// was fully synced.
    pub heal_rounds: u64,
    /// Records served from region `r0` through the socketed
    /// `GlobalApi` read path after heal.
    pub replica_records: usize,
    /// Did every replica reach the leader's exact fingerprint (and
    /// their fold-merge equal the leader's state, and the replica
    /// read path serve the leader's blocked set)?
    pub converged: bool,
    /// The converged state fingerprint (leader == every replica).
    pub fingerprint: String,
    /// Zero-silent-loss accounting: client identities, Encore receipt
    /// reconciliation, and the distinct-key record count all exact.
    pub accounted: bool,
}

/// The experiment result: one row per scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitBrain {
    /// `baseline` then `split`.
    pub rows: Vec<SplitBrainRow>,
}

/// The SLO set the split-brain run is gated on: the full C-Saw
/// pipeline rules plus a replication-staleness ceiling — no replica
/// may close a window more than four virtual hours behind its last
/// full sync. The partition scenario must fire it; baseline must not.
pub fn slo_set() -> SloSet {
    let mut set = SloSet::csaw_default();
    set.rules.push(SloRule {
        name: "replica.staleness".into(),
        windows: 1,
        kind: SloKind::GaugeLastMax {
            family: "replica.staleness_us".into(),
            max: 4 * 3_600 * 1_000_000,
        },
    });
    set
}

/// A replica region: the backing store (kept for state capture) and
/// the live dbserver in front of it.
struct RegionHandle {
    store: Arc<ShardedStore>,
    server: DbServerHandle,
}

fn run_scenario(seed: u64, region_count: usize, partitioned: bool) -> SplitBrainRow {
    let scenario = if partitioned { "split" } else { "baseline" };
    csaw_obs::current()
        .timeline
        .set_run(&format!("scenario={scenario}"));
    let world = fleet::world();
    let asn = profiles::ISP_A_ASN;

    // Leader: the ship-log journalling wrapper over the sharded store,
    // fronted by the full server (registration gate + receipts). The
    // registrar is permissive because the Encore population registers
    // ~10× more identities than the default per-window cap allows.
    let leader = Arc::new(ReplicatedStore::new(Arc::new(
        ShardedStore::new(8).expect("shard count"),
    )));
    let server = ServerDb::builder(seed)
        .backend(leader.clone())
        .registrar(fleet::open_registrar(SimDuration::from_secs(3_600)))
        .build()
        .expect("store config");

    // Replicas: one real dbserver per region, each over its own store
    // with a different shard count — convergence must not depend on
    // physical layout. The shipper gates region r0 on the partition.
    let regions: Vec<RegionHandle> = (0..region_count)
        .map(|r| {
            let store = Arc::new(ShardedStore::new(4 + r).expect("shard count"));
            let rdb = ServerDb::builder(seed ^ (r as u64 + 1))
                .backend(store.clone())
                .build()
                .expect("replica store config");
            let server = spawn_dbserver(Arc::new(rdb), DbServerConfig::default())
                .expect("replica server spawn");
            RegionHandle { store, server }
        })
        .collect();
    let mut shipper = WalShipper::new(leader.clone());
    for (r, region) in regions.iter().enumerate() {
        shipper.add_region(&format!("r{r}"), region.server.addr(), SimTime::ZERO);
    }
    let partition = OutageSchedule::from_windows(if partitioned {
        vec![(
            SimTime::from_secs(PARTITION_S.0),
            SimTime::from_secs(PARTITION_S.1),
        )]
    } else {
        Vec::new()
    });

    // Every distinct (url, asn) key ever accepted — the store must
    // hold exactly this many records at quiescence.
    let mut expected: BTreeSet<(String, u32)> = BTreeSet::new();
    let mut accounted = true;

    // Phase 1: registrations — full clients one per virtual second,
    // then the Encore probe population right after.
    let mut fleet = Fleet::register(&server, seed, CLIENTS, CsawConfig::default());

    // Encore targets overlap the full-client URL space — two URLs of
    // each of the first two clients: probe votes corroborate and
    // overwrite client records — plus probe-only URLs.
    let mut targets: Vec<String> = Vec::new();
    for idx in 0..2 {
        for u in 0..2 {
            targets.push(fleet::browse_url(idx, u));
        }
    }
    for e in 0..4 {
        targets.push(format!("http://encore-{e}.example/"));
    }
    let encore = EncoreSource::new(
        seed ^ 0xE7C0,
        EncoreConfig {
            probes: CLIENTS * ENCORE_FACTOR,
            probes_per_client: ENCORE_ROUNDS,
            targets,
            asn: asn.0,
        },
    );
    let probe_uuids: Vec<csaw_store::Uuid> = (0..encore.probe_count())
        .map(|p| {
            let t = SimTime::from_secs((CLIENTS + p) as u64);
            csaw_obs::advance_clock_us(t.as_micros());
            encore.register(&server, p, t).expect("probe registration")
        })
        .collect();

    // Phase 2: browse sessions in global virtual-time order. Every URL
    // is censored, so each visit queues one report.
    let browse_end = fleet.browse(&world, URLS_PER_CLIENT, |_, url| {
        expected.insert((url.to_string(), asn.0));
    });

    // Phase 3: the ingest horizon. Every `SHIP_EVERY_S` step drains
    // full-client queues, posts the step's slice of Encore probes, and
    // runs a shipping round — with region r0 gated on the partition.
    let mut encore_posted = 0u64;
    let mut peak_lag = 0u64;
    let mut peak_staleness_us = 0u64;
    let mut track = |statuses: &[csaw_replica::LinkStatus]| {
        for s in statuses {
            peak_lag = peak_lag.max(s.lag);
            peak_staleness_us = peak_staleness_us.max(s.staleness_us);
        }
    };
    for step in 1..=STEPS {
        let now = browse_end + SimDuration::from_secs(SHIP_EVERY_S * step);
        csaw_obs::advance_clock_us(now.as_micros());
        fleet.post_pending(&server, now);
        for (p, &probe_uuid) in probe_uuids.iter().enumerate() {
            for round in 0..ENCORE_ROUNDS {
                if 1 + ((p + round * encore.probe_count()) as u64) % STEPS != step {
                    continue;
                }
                let batch = encore.probe_batch(p, round, probe_uuid, now);
                let url = batch.reports()[0].url.clone();
                let receipt = server.ingest(batch).expect("probe post");
                accounted &= receipt.accepted == 1;
                encore_posted += receipt.accepted as u64;
                expected.insert((url, asn.0));
            }
        }
        let statuses = shipper.ship_round(now, |i| !(i == 0 && partition.is_down(now)));
        track(&statuses);
    }

    // Phase 4: heal — keep shipping until every replica acks the full
    // log. A handful of rounds must suffice; a scenario that cannot
    // converge within the cap reports `converged: false` below.
    let mut heal_rounds = 0u64;
    for round in 1..=64u64 {
        let now = browse_end + SimDuration::from_secs(SHIP_EVERY_S * (STEPS + round));
        csaw_obs::advance_clock_us(now.as_micros());
        let statuses = shipper.ship_round(now, |_| true);
        track(&statuses);
        heal_rounds = round;
        if statuses.iter().all(|s| s.synced) {
            break;
        }
    }

    // Accounting: the chaos invariants, extended with the Encore
    // receipts (already folded in above) and the distinct-key count.
    let acct = fleet.accounting();
    let (queued, posted) = (acct.queued, acct.posted);
    accounted &= acct.balanced && acct.pending == 0;
    accounted &= queued == (CLIENTS * URLS_PER_CLIENT) as u64;
    accounted &= posted == queued;
    accounted &= encore_posted == encore.total_reports() as u64;
    let store_records = leader.inner().record_count();
    accounted &= store_records == expected.len();

    // Convergence: every replica must hold the leader's exact
    // fingerprint, their fold-merge must equal the leader's state, and
    // the socketed read path from region r0 must serve the leader's
    // blocked set.
    let leader_state = StoreState::capture(leader.inner());
    let fingerprint = leader_state.fingerprint();
    let mut fold = StoreState::default();
    let mut converged = true;
    for region in &regions {
        let state = StoreState::capture(&*region.store);
        converged &= state.fingerprint() == fingerprint;
        fold.merge(&state);
    }
    converged &= fold == leader_state;

    let blocked_keys = |recs: &[csaw_store::GlobalRecord]| -> Vec<(String, u32)> {
        let mut keys: Vec<(String, u32)> = recs.iter().map(|r| (r.url.clone(), r.asn.0)).collect();
        keys.sort();
        keys
    };
    let remote = RemoteDb::new(regions[0].server.addr());
    let served = remote
        .blocked_for_as(asn, &ConfidenceFilter::default())
        .expect("replica read path");
    let local = leader
        .inner()
        .blocked_for_as(asn, &ConfidenceFilter::default())
        .expect("the in-memory backend cannot fail");
    converged &= blocked_keys(&served) == blocked_keys(&local);
    let replica_records = served.len();
    for region in regions {
        region.server.drain();
    }

    SplitBrainRow {
        scenario: scenario.to_string(),
        queued,
        posted,
        encore_posted,
        leader_seq: leader.leader_seq(),
        store_records,
        peak_lag,
        peak_staleness_s: peak_staleness_us / 1_000_000,
        heal_rounds,
        replica_records,
        converged,
        fingerprint,
        accounted,
    }
}

/// Run both scenarios, `baseline` then `split`, with one runner trial
/// each over `regions` read replicas (region `r0` is the partitioned
/// one). Both trials use the raw experiment seed so they ingest the
/// identical workload — the partitioned scenario must converge to the
/// baseline's fingerprint.
pub fn run(seed: u64, regions: usize) -> SplitBrain {
    let specs = [TrialSpec::salted(seed); 2];
    let rows = runner::map(&specs, |i, _| run_scenario(seed, regions, i == 1));
    SplitBrain { rows }
}

/// The value flags `exp splitbrain` reads.
pub const FLAGS: &[(&str, &str)] = &[("--regions", "per-region dbserver replicas (default 2)")];

/// `exp splitbrain`: run the baseline and partitioned scenarios and
/// gate on silent loss (correctness) and on every replica reaching the
/// leader's fingerprint after the partition heals.
pub fn harness(cli: &ExpCli, flags: &Flags) -> (String, Verdict) {
    let regions = flags.numeric("--regions", 2);
    if regions == 0 {
        flags.die("--regions needs at least one region");
    }

    // Virtual-hour windows like the chaos sweep's, with the
    // replica-staleness rule on top: the partitioned scenario must trip
    // it.
    cli.ctx()
        .timeline
        .configure(WindowCfg::from_secs(3_600.0, Arc::new(slo_set())));

    let result = run(cli.seed, regions);
    let verdict = if result.silent_loss() {
        Err((
            exit::CORRECTNESS,
            "SILENT LOSS detected — a report vanished en route".to_string(),
        ))
    } else if result.not_converged() {
        Err((
            exit::NOT_CONVERGED,
            "replicas did NOT converge after the partition healed".to_string(),
        ))
    } else {
        Ok(())
    };
    (result.render(), verdict)
}

impl SplitBrain {
    /// True when any scenario lost a report (accounting identity,
    /// receipt reconciliation, or the distinct-key count broken).
    pub fn silent_loss(&self) -> bool {
        self.rows.iter().any(|r| !r.accounted)
    }

    /// True when any scenario failed to converge after heal.
    pub fn not_converged(&self) -> bool {
        self.rows.iter().any(|r| !r.converged)
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "exp_chaos --split-brain: replica convergence through a partition\n\
             (leader WAL shipped to per-region dbservers over SHIP/ACK; the split\n\
             scenario cuts region r0 mid-ingest, then heals and must converge)\n\n\
             scenario  queued  posted  encore  wal  records  lag^  stale^(s)  heal  served  converged  accounted  fingerprint\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<8} {:>7}  {:>6}  {:>6}  {:>4}  {:>7}  {:>4}  {:>9}  {:>4}  {:>6}  {:>9}  {:>9}  {}\n",
                r.scenario,
                r.queued,
                r.posted,
                r.encore_posted,
                r.leader_seq,
                r.store_records,
                r.peak_lag,
                r.peak_staleness_s,
                r.heal_rounds,
                r.replica_records,
                if r.converged { "yes" } else { "NO" },
                if r.accounted { "yes" } else { "NO" },
                r.fingerprint,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_scenarios_converge_to_the_same_fingerprint() {
        let result = run(1, 2);
        assert!(!result.silent_loss(), "{}", result.render());
        assert!(!result.not_converged(), "{}", result.render());
        let [baseline, split] = &result.rows[..] else {
            panic!("expected two rows");
        };
        // Identical workload, so healing must erase the partition
        // entirely — down to the exact same state fingerprint.
        assert_eq!(baseline.fingerprint, split.fingerprint);
        // The partition actually bit: region r0 fell hours behind.
        assert!(split.peak_staleness_s > baseline.peak_staleness_s);
        assert!(split.peak_lag > baseline.peak_lag);
        assert!(split.peak_staleness_s > 4 * 3_600);
    }

    /// Both scenarios under `exp splitbrain`'s hour windows and SLO set.
    fn windowed_run(seed: u64) -> (String, Vec<String>) {
        crate::fleet::tests::windowed_run(slo_set(), || {
            run(seed, 2);
        })
    }

    #[test]
    fn the_partition_fires_the_staleness_slo_and_baseline_does_not() {
        let (frames, viols) = windowed_run(1);
        assert!(!frames.is_empty(), "windowed run must emit frames");
        let staleness: Vec<&String> = viols
            .iter()
            .filter(|v| v.contains("replica.staleness"))
            .collect();
        assert!(
            !staleness.is_empty(),
            "the partition must fire the staleness SLO: {viols:?}"
        );
        assert!(
            staleness.iter().all(|v| v.contains("scenario=split")),
            "only the split scenario may breach staleness: {staleness:?}"
        );
        assert!(
            staleness.iter().all(|v| v.contains("r0")),
            "only the partitioned region may breach: {staleness:?}"
        );
    }
}
