//! `exp chaos`: upload-pipeline delivery under injected faults.
//!
//! The paper's measurement value chain is only as good as the reports
//! that actually reach the global DB. This experiment arms the
//! deterministic fault layer (`csaw-faults`) against the store — write
//! failures, torn batches, download outages — plus client-side wire
//! corruption, and sweeps the fault rate. For each rate it reports the
//! delivery ratio, how stale records were by the time they landed
//! (posted − measured), and the client-side failure accounting.
//!
//! Each trial is processed in **global virtual-time order** (client
//! registrations, then time-sorted browse sessions, then round-robin
//! drain rounds), advancing the scope clock at every step. That drives
//! the windowed telemetry timeline, one window per virtual hour:
//! per-window delivery, staleness, and backoff series with
//! `run=rate=<r>` labels, plus `slo.violation` events from the
//! `SloSet::csaw_default` rules — the lines of the `--trace-out
//! x.jsonl` stream that `report health` renders and gates on.
//!
//! Two invariants are machine-checked ([`harness`] fails its verdict
//! when either breaks, which is what the CI chaos job runs):
//!
//! - **zero silent loss**: `queued == posted + dropped + quarantined +
//!   pending` on every client, and the store holds exactly one record
//!   per report marked posted (URLs are unique per client);
//! - **determinism**: the rendered output and the full event stream are
//!   a pure function of the seed — `GOLDEN_seed1.json` pins both.

use crate::cli::{exit, ExpCli, Flags, Verdict};
use crate::fleet::{self, Fleet};
use crate::runner::{self, TrialSpec};
use csaw::client::WireFault;
use csaw::config::CsawConfig;
use csaw::global::{ConfidenceFilter, ServerDb};
use csaw_censor::profiles;
use csaw_faults::{FaultProfile, FaultyBackend, OutageSchedule};
use csaw_obs::slo::SloSet;
use csaw_obs::timeseries::WindowCfg;
use csaw_simnet::time::SimDuration;
use csaw_store::{Decorator, ShardedStore};
use std::sync::Arc;

/// Clients per fault rate.
const CLIENTS: usize = 6;

/// Unique blocked URLs each client accesses (== reports queued, absent
/// drops).
const URLS_PER_CLIENT: usize = 8;

/// Experiment shape.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Store-fault probabilities to sweep (write failure; torn writes
    /// and wire corruption are derived fractions of it).
    pub fault_rates: Vec<f64>,
    /// Post opportunities each client gets after its browsing burst.
    pub drain_rounds: usize,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            fault_rates: vec![0.0, 0.1, 0.3, 0.5],
            drain_rounds: 24,
        }
    }
}

/// One swept fault rate.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRow {
    /// Injected write-failure probability.
    pub fault_rate: f64,
    /// Reports ever queued across all clients.
    pub queued: u64,
    /// Reports the server durably accepted.
    pub posted: u64,
    /// Reports evicted by the queue bound.
    pub dropped: u64,
    /// Reports quarantined (permanent rejects).
    pub quarantined: u64,
    /// Reports re-queued after torn writes.
    pub requeued: u64,
    /// Reports still pending when the horizon ran out.
    pub pending: u64,
    /// Failed post attempts (each armed a backoff).
    pub post_failures: u64,
    /// posted / queued.
    pub delivery_ratio: f64,
    /// Mean staleness of landed records, seconds (posted − measured).
    pub mean_staleness_s: f64,
    /// Records in the store at quiescence.
    pub store_records: usize,
    /// Did every client's accounting identity hold, with the store
    /// record count matching `posted`?
    pub accounted: bool,
}

/// The experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct Chaos {
    /// One row per swept fault rate.
    pub rows: Vec<ChaosRow>,
}

fn run_rate(seed: u64, cfg: &ChaosConfig, rate: f64) -> ChaosRow {
    // Frames closed during this trial carry the swept rate as their run
    // label, so `report health` can attribute verdicts to config points.
    csaw_obs::current()
        .timeline
        .set_run(&format!("rate={rate}"));
    let world = fleet::world();
    let inner = Arc::new(ShardedStore::new(8).expect("shard count"));
    // The store also suffers hour-scale ingest outages so backoff gets
    // exercised on top of per-batch coin flips.
    let outages = OutageSchedule::generate(
        seed ^ 0xFA17,
        "chaos-ingest",
        SimDuration::from_secs(48 * 3600),
        SimDuration::from_secs(6 * 3600),
        SimDuration::from_secs((1.0 + rate * 3_600.0) as u64),
    );
    let faulty = Arc::new(FaultyBackend::new(
        inner,
        FaultProfile {
            write_fail_p: rate,
            torn_write_p: rate / 2.0,
            ingest_outages: Some(outages),
            ..FaultProfile::none()
        },
        seed ^ (rate * 1e4) as u64,
    ));
    let server = ServerDb::builder(seed)
        .backend(faulty.clone())
        .build()
        .expect("store config");

    // The trial is processed in global virtual-time order — every step
    // advances the scope clock (and with it the telemetry timeline), so
    // windowed series see queueing, failures, and recovery in the order
    // a wall-clock deployment would, not client-by-client.

    // Phase 1: registrations, one client per virtual second. A slice of
    // posts is corrupted on the wire too (transient: the reports
    // themselves are fine, so retries recover them).
    let backoff = CsawConfig {
        report_backoff_base: SimDuration::from_secs(60),
        report_backoff_max: SimDuration::from_secs(1_800),
        ..Default::default()
    };
    let mut fleet = Fleet::register(&server, seed, CLIENTS, backoff);
    for (idx, c) in fleet.clients.iter_mut().enumerate() {
        c.arm_wire_fault(WireFault::new(rate / 4.0, seed ^ (idx as u64) << 3));
    }

    // Phase 2: browse sessions, globally time-sorted.
    let browse_end = fleet.browse(&world, URLS_PER_CLIENT, |now, _| faulty.set_now(now));

    // Phase 3: drain rounds, round-robin — every client still pending
    // gets one post opportunity per round, 2 000 s apart (longer than
    // the 1 800 s backoff cap, so no round is wasted on a cooldown).
    for r in 0..cfg.drain_rounds {
        if fleet.clients.iter().all(|c| c.pending_reports() == 0) {
            break;
        }
        let now = browse_end + SimDuration::from_secs(2_000 * (r as u64 + 1));
        csaw_obs::advance_clock_us(now.as_micros());
        faulty.set_now(now);
        fleet.post_pending(&server, now);
    }
    let acct = fleet.accounting();

    // Staleness over everything that landed. URLs are unique per
    // client, so the record count must equal the posted count — a
    // record marked posted but missing (loss) or present twice
    // (duplicate) both break the equality.
    let store_records = faulty.inner().record_count();
    let accounted = acct.balanced && store_records as u64 == acct.posted;
    let recs = faulty
        .inner()
        .blocked_for_as(profiles::ISP_A_ASN, &ConfidenceFilter::default())
        .expect("the wrapped in-memory backend cannot fail");
    let mean_staleness_s = if recs.is_empty() {
        0.0
    } else {
        let total: u64 = recs
            .iter()
            .map(|r| r.posted_at.duration_since(r.measured_at).as_micros())
            .sum();
        total as f64 / recs.len() as f64 / 1e6
    };

    ChaosRow {
        fault_rate: rate,
        queued: acct.queued,
        posted: acct.posted,
        dropped: acct.dropped,
        quarantined: acct.quarantined,
        requeued: acct.requeued,
        pending: acct.pending,
        post_failures: acct.post_failures,
        delivery_ratio: if acct.queued == 0 {
            1.0
        } else {
            acct.posted as f64 / acct.queued as f64
        },
        mean_staleness_s,
        store_records,
        accounted,
    }
}

/// Run the sweep, one runner trial per fault rate. `run_rate` already
/// salts every internal stream with the rate, so each trial carries the
/// raw experiment seed.
pub fn run(seed: u64, cfg: &ChaosConfig) -> Chaos {
    let specs = vec![TrialSpec::salted(seed); cfg.fault_rates.len()];
    let rows = runner::map(&specs, |i, spec| {
        run_rate(spec.seed, cfg, cfg.fault_rates[i])
    });
    Chaos { rows }
}

/// The value flags `exp chaos` reads.
pub const FLAGS: &[(&str, &str)] = &[
    ("--rounds", "post opportunities per client (default 24)"),
    (
        "--fault-rates",
        "comma list of rates (default 0.0,0.1,0.3,0.5)",
    ),
];

/// `exp chaos`: sweep the fault rates and gate on the two invariants —
/// silent loss (a client's accounting identity broke, a receipt failed
/// to reconcile, or the store's record count disagrees with the posted
/// counters) is a correctness failure; a delivery ratio under 1.0 (a
/// report still pending when the drain rounds ran out) is a delivery
/// failure.
pub fn harness(cli: &ExpCli, flags: &Flags) -> (String, Verdict) {
    let defaults = ChaosConfig::default();
    let cfg = ChaosConfig {
        fault_rates: flags.list("--fault-rates").unwrap_or(defaults.fault_rates),
        drain_rounds: flags.numeric("--rounds", defaults.drain_rounds),
    };
    if let Some(bad) = cfg.fault_rates.iter().find(|r| !(0.0..=1.0).contains(*r)) {
        flags.die(&format!(
            "--fault-rates are probabilities in [0, 1], got {bad}"
        ));
    }
    // Virtual-hour health windows with the full C-Saw SLO set: the
    // chaos sweep advances the shared clock, so delivery-ratio and
    // staleness timelines come out per virtual hour of the run.
    cli.ctx().timeline.configure(WindowCfg::from_secs(
        3_600.0,
        Arc::new(SloSet::csaw_default()),
    ));

    let result = run(cli.seed, &cfg);
    let verdict = if result.silent_loss() {
        Err((
            exit::CORRECTNESS,
            "SILENT LOSS detected — accounting identity broken".to_string(),
        ))
    } else if let Some(row) = result.rows.iter().find(|r| r.delivery_ratio < 1.0 - 1e-9) {
        Err((
            exit::DELIVERY,
            format!(
                "delivery ratio {:.3} at fault rate {:.2} under 1.0",
                row.delivery_ratio, row.fault_rate
            ),
        ))
    } else {
        Ok(())
    };
    (result.render(), verdict)
}

impl Chaos {
    /// True when any row shows silent loss (accounting identity or the
    /// store/posted equality broken).
    pub fn silent_loss(&self) -> bool {
        self.rows.iter().any(|r| !r.accounted)
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "exp chaos: report delivery under injected store faults\n\
             (write-fail p = rate, torn-write p = rate/2, wire-corrupt p = rate/4,\n\
             plus seeded ingest outages; clients retry with exponential backoff)\n\n\
             rate   queued  posted  requeued  dropped  quar  pending  failures  delivery  staleness(s)  accounted\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<6.2} {:>6}  {:>6}  {:>8}  {:>7}  {:>4}  {:>7}  {:>8}  {:>8.3}  {:>12.1}  {}\n",
                r.fault_rate,
                r.queued,
                r.posted,
                r.requeued,
                r.dropped,
                r.quarantined,
                r.pending,
                r.post_failures,
                r.delivery_ratio,
                r.mean_staleness_s,
                if r.accounted { "yes" } else { "NO" },
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ChaosConfig {
        ChaosConfig {
            fault_rates: vec![0.0, 0.3],
            drain_rounds: 20,
        }
    }

    #[test]
    fn no_silent_loss_at_thirty_percent() {
        let c = run(1, &quick_cfg());
        assert!(!c.silent_loss(), "{}", c.render());
        // With enough drain rounds every report lands.
        for row in &c.rows {
            assert_eq!(row.pending, 0, "{}", c.render());
            assert!((row.delivery_ratio - 1.0).abs() < 1e-9);
        }
        // The faulted row actually saw failures and later staleness.
        assert!(c.rows[1].post_failures > 0);
        assert!(c.rows[1].mean_staleness_s >= c.rows[0].mean_staleness_s);
    }

    /// The sweep under `exp chaos`'s hour windows and SLO set.
    fn windowed_run(seed: u64, cfg: &ChaosConfig) -> (String, Vec<String>) {
        crate::fleet::tests::windowed_run(SloSet::csaw_default(), || {
            run(seed, cfg);
        })
    }

    #[test]
    fn delivery_slo_fires_at_sixty_percent_and_not_at_zero() {
        let cfg_at = |rate: f64| ChaosConfig {
            fault_rates: vec![rate],
            ..quick_cfg()
        };
        // Healthy leg: every report lands within the first window, so
        // no rule may fire — a false alarm here is an alerting bug.
        let (frames, clean) = windowed_run(1, &cfg_at(0.0));
        assert!(!frames.is_empty(), "windowed sweep must emit frames");
        assert!(
            clean.is_empty(),
            "no faults must mean no violations: {clean:?}"
        );
        // Faulted leg: 60 % write failures stretch delivery over many
        // windows, so the fast delivery-ratio rule must alert, tagged
        // with the trial's run label.
        let (_, viols) = windowed_run(1, &cfg_at(0.6));
        assert!(
            viols.iter().any(|v| v.contains("report.delivery.fast")),
            "60 % faults must fire the delivery SLO: {viols:?}"
        );
        assert!(
            viols.iter().all(|v| v.contains("rate=0.6")),
            "violations must carry the trial run label: {viols:?}"
        );
    }
}
