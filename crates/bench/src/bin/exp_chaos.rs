//! Fault-injection sweep over the report upload pipeline.
//!
//! ```text
//! exp_chaos [--clients N] [--urls N] [--rounds N] [--fault-rates 0.0,0.3]
//!           [--min-delivery F]
//! exp_chaos --split-brain REGIONS [--clients N] [--urls N] [--bench-out PATH]
//! ```
//!
//! Without `--split-brain`, sweeps injected store/wire fault rates and
//! checks delivery. With `--split-brain REGIONS`, runs the replicated
//! global DB instead: a leader ships its WAL to `REGIONS` per-region
//! dbserver replicas, a partition cuts region r0 mid-ingest, and after
//! heal every replica must converge to the leader's exact state
//! fingerprint (see `csaw_bench::experiments::splitbrain`).
//!
//! Exit status:
//!
//! - `0` — all rows accounted, delivery ratio at or above the bound
//!   (and, under `--split-brain`, every replica converged);
//! - `4` — silent loss (a client's accounting identity broke, a
//!   receipt failed to reconcile, or the store's record count
//!   disagrees with the posted counters);
//! - `5` — delivery ratio fell below `--min-delivery` (default 1.0:
//!   with the default drain horizon every report must land);
//! - `6` — a replica failed to reach the leader's fingerprint after
//!   the partition healed.
//!
//! The CI chaos jobs run both modes twice and diff the stdout: same
//! seed ⇒ byte-identical output.

use csaw_bench::experiments::chaos::{self, ChaosConfig};
use csaw_bench::experiments::splitbrain::{self, SplitBrainConfig};
use csaw_bench::healthreport::{self, HealthInput};
use csaw_obs::slo::SloSet;
use std::sync::Arc;

fn numeric<T: std::str::FromStr>(
    extras: &std::collections::HashMap<String, String>,
    flag: &str,
    default: T,
) -> T {
    match extras.get(flag) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("exp_chaos: bad value for {flag}: {v:?}");
            std::process::exit(2);
        }),
    }
}

fn main() {
    let (cli, extras) = csaw_bench::cli::ExpCli::parse_with_extras(&[
        ("--clients", "clients per fault rate (default 6)"),
        ("--urls", "unique blocked URLs per client (default 8)"),
        ("--rounds", "post opportunities per client (default 24)"),
        (
            "--fault-rates",
            "comma list of rates (default 0.0,0.1,0.3,0.5)",
        ),
        (
            "--min-delivery",
            "fail below this delivery ratio (default 1.0)",
        ),
        (
            "--split-brain",
            "run the replica convergence experiment over N regions",
        ),
        (
            "--bench-out",
            "split-brain scorecard path ('none' disables; default none)",
        ),
    ]);

    if extras.contains_key("--split-brain") {
        run_split_brain(cli, &extras);
        return;
    }

    let mut cfg = ChaosConfig {
        clients: numeric(&extras, "--clients", ChaosConfig::default().clients),
        urls_per_client: numeric(&extras, "--urls", ChaosConfig::default().urls_per_client),
        drain_rounds: numeric(&extras, "--rounds", ChaosConfig::default().drain_rounds),
        ..ChaosConfig::default()
    };
    if let Some(list) = extras.get("--fault-rates") {
        cfg.fault_rates = list
            .split(',')
            .map(|r| {
                r.trim().parse().unwrap_or_else(|_| {
                    eprintln!("exp_chaos: bad --fault-rates entry {r:?}");
                    std::process::exit(2);
                })
            })
            .collect();
        if cfg.fault_rates.is_empty() {
            eprintln!("exp_chaos: --fault-rates needs at least one rate");
            std::process::exit(2);
        }
    }
    let min_delivery: f64 = numeric(&extras, "--min-delivery", 1.0);

    // Virtual-hour health windows with the full C-Saw SLO set: the
    // chaos sweep advances the shared clock, so delivery-ratio and
    // staleness timelines come out per virtual hour of the run.
    cli.default_window(3_600.0, Arc::new(SloSet::csaw_default()));

    let result = chaos::run_jobs(cli.seed, &cfg, cli.jobs);
    println!("{}", result.render());
    cli.finish();

    if result.silent_loss() {
        eprintln!("exp_chaos: SILENT LOSS detected — accounting identity broken");
        std::process::exit(4);
    }
    if let Some(row) = result
        .rows
        .iter()
        .find(|r| r.delivery_ratio < min_delivery - 1e-9)
    {
        eprintln!(
            "exp_chaos: delivery ratio {:.3} at fault rate {:.2} below bound {:.3}",
            row.delivery_ratio, row.fault_rate, min_delivery
        );
        std::process::exit(5);
    }
}

fn run_split_brain(
    cli: csaw_bench::cli::ExpCli,
    extras: &std::collections::HashMap<String, String>,
) {
    let regions: usize = numeric(extras, "--split-brain", SplitBrainConfig::default().regions);
    if regions == 0 {
        eprintln!("exp_chaos: --split-brain needs at least one region");
        std::process::exit(2);
    }
    let cfg = SplitBrainConfig {
        clients: numeric(extras, "--clients", SplitBrainConfig::default().clients),
        urls_per_client: numeric(
            extras,
            "--urls",
            SplitBrainConfig::default().urls_per_client,
        ),
        regions,
        ..SplitBrainConfig::default()
    };

    // Same virtual-hour windows, but with the replica-staleness rule
    // on top: the partitioned scenario must trip it.
    cli.default_window(3_600.0, Arc::new(splitbrain::slo_set()));

    let result = splitbrain::run_jobs(cli.seed, &cfg, cli.jobs);
    println!("{}", result.render());

    match extras.get("--bench-out").map(String::as_str) {
        None | Some("none") => {}
        Some(path) => {
            let mut card = result.scorecard(&cfg, cli.seed);
            // Close the open telemetry window so the scorecard's health
            // section sees the run's series (finish() flushes again).
            cli.ctx().flush_timeline();
            let timeline = &cli.ctx().timeline;
            if timeline.enabled() {
                card.health = healthreport::health_json(&HealthInput {
                    frames: timeline.recent_frames(),
                    violations: timeline.violations(),
                });
            }
            let path = std::path::PathBuf::from(path);
            if let Err(e) = card.write(&path) {
                eprintln!("exp_chaos: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("exp_chaos: scorecard -> {}", path.display());
        }
    }
    cli.finish();

    if result.silent_loss() {
        eprintln!("exp_chaos: SILENT LOSS detected — a report vanished en route");
        std::process::exit(4);
    }
    if result.not_converged() {
        eprintln!("exp_chaos: replicas did NOT converge after the partition healed");
        std::process::exit(6);
    }
}
