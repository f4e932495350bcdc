//! What a stored report allocates.
//!
//! Every report the server accepts becomes one record and one §5 vote,
//! and Encore-style probes bring ≈10× the interactive clients at one
//! report per post, so the store's per-report cost bounds how many
//! clients one server can take. This binary counts every allocation with
//! `csaw_perf_alloc::CountingAlloc` as its global allocator and ingests
//! `exp scale`'s smoke workload — 10k clients × 4 reports from a
//! 10k-URL × 64-AS pool, every 16th client carrying one unparsable URL —
//! into a 16-shard `ShardedStore`, one batch at a time. Batches are
//! built before counting starts, so only the store's own allocations are
//! counted (record, interned key, client key set, voter list, map
//! growth, the batch plan). It is the only test in this binary, so
//! nothing else allocates while it counts.

use csaw_bench::experiments::scale::{batch_for, ScaleConfig};
use csaw_perf_alloc::{snapshot, CountingAlloc};
use csaw_store::{Batch, ShardedStore, StorageBackend, Uuid};
use std::time::Instant;

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

const SEED: u64 = 1;
const CLIENTS: usize = 10_000;
/// Allocation events per report (accepted or rejected): 4.69 measured,
/// 6.89 when every map hashed the URL itself and a voter set was a
/// `HashSet`.
const MAX_ALLOCS: f64 = 5.4;
/// Bytes requested per report: 928 measured, 1,005 before.
const MAX_BYTES: f64 = 1_070.0;

#[test]
fn an_ingested_report_allocates_within_budget() {
    let cfg = ScaleConfig {
        clients: CLIENTS,
        ..ScaleConfig::default()
    };
    let batches: Vec<Batch> = (0..CLIENTS)
        .map(|i| batch_for(SEED, i, Uuid::from_raw(i as u64 + 1), &cfg))
        .collect();
    let reports: usize = batches.iter().map(Batch::len).sum();
    let store = ShardedStore::new(cfg.shards).expect("16 shards is a valid store");

    let (allocs_before, bytes_before) = snapshot();
    let started = Instant::now();
    let mut accepted = 0usize;
    for batch in &batches {
        accepted += store
            .ingest(batch)
            .expect("the memory store accepts")
            .accepted;
    }
    let wall = started.elapsed();
    let (allocs_after, bytes_after) = snapshot();

    assert_eq!(reports, 40_000, "the smoke workload's report count");
    assert_eq!(
        accepted,
        reports - CLIENTS / 16,
        "one garbage URL per 16 clients"
    );
    let allocs = (allocs_after - allocs_before) as f64 / reports as f64;
    let bytes = (bytes_after - bytes_before) as f64 / reports as f64;
    println!(
        "{reports} reports: {allocs:.2} allocations and {bytes:.0} bytes per report \
         ({:.0} ns per report in this build)",
        wall.as_secs_f64() * 1e9 / reports as f64
    );
    assert!(
        allocs <= MAX_ALLOCS,
        "{allocs:.2} allocations per report (budget {MAX_ALLOCS})"
    );
    assert!(
        bytes <= MAX_BYTES,
        "{bytes:.0} bytes per report (budget {MAX_BYTES})"
    );
}
