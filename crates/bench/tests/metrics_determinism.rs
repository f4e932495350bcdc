//! Telemetry determinism: the metrics snapshot is a pure function of
//! the experiment seed. Two same-seed runs — each under its own fresh
//! observability scope — must serialize to byte-identical JSON.

use csaw_obs::clock::ManualClock;
use csaw_obs::scope::{self, ObsCtx};
use std::sync::Arc;

/// Run Table 5 under a fresh registry and return the snapshot JSON.
fn run_table5_snapshot(seed: u64) -> String {
    let ctx = Arc::new(ObsCtx::new().with_clock(Arc::new(ManualClock::new())));
    let _guard = scope::install(ctx.clone());
    let _ = csaw_bench::experiments::table5::run(seed);
    ctx.registry.snapshot().to_string_pretty()
}

#[test]
fn same_seed_runs_emit_byte_identical_metrics() {
    let a = run_table5_snapshot(1);
    let b = run_table5_snapshot(1);
    assert_eq!(a, b, "same-seed snapshots must be byte-identical");
    // Sanity: the snapshot actually contains the detection histograms.
    assert!(a.contains("detect.time_s"), "{a}");
}

#[test]
fn different_seeds_differ() {
    let a = run_table5_snapshot(1);
    let b = run_table5_snapshot(2);
    assert_ne!(a, b, "different seeds should perturb detection times");
}

#[test]
fn snapshot_medians_match_table5() {
    let ctx = Arc::new(ObsCtx::new().with_clock(Arc::new(ManualClock::new())));
    let _guard = scope::install(ctx.clone());
    let _ = csaw_bench::experiments::table5::run(1);
    let med = |name: &str| {
        ctx.registry
            .histogram(name)
            .quantile_us(0.5)
            .unwrap_or_else(|| panic!("no samples in {name}")) as f64
            / 1e6
    };
    // Paper's Table 5 values, with the tolerance EXPERIMENTS.md allows
    // (histogram buckets quantize to ~0.4% on top of the simulation).
    assert!((med("detect.time_s.IpDrop") - 21.0).abs() < 1.0);
    assert!((med("detect.time_s.DnsServfail") - 10.6).abs() < 1.0);
    assert!(med("detect.time_s.DnsRefused") < 0.1);
    assert!((med("detect.time_s.HttpBlockPageRedirect") - 1.8).abs() < 1.0);
    assert!((med("detect.time_s.DnsServfail+IpDrop") - 32.7).abs() < 2.0);
}
