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
//! growth, the batch plan).
//!
//! The second test puts the same batches through the replicating
//! leader's stack, `ReplicatedStore(JsonlStore)`, and counts what the
//! two journals add: one WAL line encoded per batch, the ship log's
//! growing buffer, the file log's buffered append.
//!
//! The two tests take one lock for their whole run, so nothing else in
//! this binary allocates while either counts.

use csaw_bench::experiments::scale::{batch_for, SHARDS};
use csaw_perf_alloc::{snapshot, CountingAlloc};
use csaw_store::{Batch, JsonlStore, ReplicatedStore, ShardedStore, StorageBackend, Uuid};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const SEED: u64 = 1;
const CLIENTS: usize = 10_000;
/// Allocation events per report (accepted or rejected): 4.81 measured,
/// 4.69 before each shard partitioned its records by AS, 6.89 when
/// every map hashed the URL itself and a voter set was a `HashSet`.
const MAX_ALLOCS: f64 = 5.4;
/// Bytes requested per report: 908 measured, 928 before the AS
/// partitions, 1,005 before prehashed keys.
const MAX_BYTES: f64 = 1_070.0;
/// The same through both journals: 7.06 measured, 9.95 when each
/// journal encoded the batch itself and the ship log held one block
/// per line.
const MAX_JOURNALLED_ALLOCS: f64 = 7.6;
/// Bytes requested per report through both journals: 1,556 measured,
/// 1,490 before the ship log was one buffer. The ship log's one buffer counts its full size at each
/// doubling, which per-line blocks did not.
const MAX_JOURNALLED_BYTES: f64 = 1_700.0;

/// `exp scale`'s smoke batches, built before anything is counted.
fn scale_batches() -> Vec<Batch> {
    (0..CLIENTS)
        .map(|i| batch_for(SEED, i, Uuid::from_raw(i as u64 + 1)))
        .collect()
}

#[test]
fn an_ingested_report_allocates_within_budget() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let batches = scale_batches();
    let reports: usize = batches.iter().map(Batch::len).sum();
    let store = ShardedStore::new(SHARDS).expect("16 shards is a valid store");

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

#[test]
fn a_journalled_report_allocates_within_budget_and_both_logs_agree() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let batches = scale_batches();
    let reports: usize = batches.iter().map(Batch::len).sum();
    let path = std::env::temp_dir().join(format!(
        "csaw-ingest-alloc-budget-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let disk = JsonlStore::open(&path, SHARDS).expect("a fresh log opens");
    let leader = ReplicatedStore::new(Arc::new(disk));

    let (allocs_before, bytes_before) = snapshot();
    for batch in &batches {
        leader.ingest(batch).expect("the journalled store accepts");
    }
    let (allocs_after, bytes_after) = snapshot();
    leader.flush().expect("the log flushes");

    let allocs = (allocs_after - allocs_before) as f64 / reports as f64;
    let bytes = (bytes_after - bytes_before) as f64 / reports as f64;
    println!(
        "{reports} journalled reports: {allocs:.2} allocations and {bytes:.0} bytes per report \
         (budget {MAX_JOURNALLED_ALLOCS} and {MAX_JOURNALLED_BYTES})"
    );

    // The ship log and the file hold the same lines, byte for byte.
    let file = std::fs::read_to_string(&path).expect("the log reads back");
    let _ = std::fs::remove_file(&path);
    let shipped = leader.lines_from(0, usize::MAX);
    assert_eq!(shipped.len(), CLIENTS);
    assert!(
        file.lines().eq(shipped.iter().map(String::as_str)),
        "the ship log and the file log differ"
    );
    assert_eq!(
        file.len(),
        shipped.iter().map(|l| l.len() + 1).sum::<usize>()
    );

    assert!(
        allocs <= MAX_JOURNALLED_ALLOCS,
        "{allocs:.2} allocations per journalled report (budget {MAX_JOURNALLED_ALLOCS})"
    );
    assert!(
        bytes <= MAX_JOURNALLED_BYTES,
        "{bytes:.0} bytes per journalled report (budget {MAX_JOURNALLED_BYTES})"
    );
}
