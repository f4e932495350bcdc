//! What merging a synced blocked list allocates.
//!
//! A client checks its copy of its AS's blocked list before any
//! first-contact measurement (§4.2), and every periodic pull rebuilds
//! that copy, so the merge's per-record cost is paid on every record of
//! every pull. This binary counts every allocation with
//! `csaw_perf_alloc::CountingAlloc` as its global allocator, runs the
//! seed-1 pilot round (browse, post, one sync to warm each client's
//! view), then counts a second sync of all 123 clients and holds the
//! allocations per pulled record to a budget. The count includes the
//! in-process server's copy of each list it hands out. It is the only
//! test in this binary, so nothing else allocates while it counts.

mod pilot;

use csaw_perf_alloc::{snapshot, CountingAlloc};
use pilot::Pilot;
use std::time::Instant;

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Allocation events per record of a warm sync: 2.06 measured, nearly
/// all of them the server's copy of the record (its URL and stage
/// list); 6.44 when the merge parsed every record into a `Url` and
/// rendered its base as a fresh key.
const MAX_ALLOCS: f64 = 2.3;

/// Run one sync of every client; returns the records pulled and the
/// allocations and bytes requested per record.
fn counted_sync(pilot: &mut Pilot) -> (u64, f64, f64) {
    let (allocs_before, bytes_before) = snapshot();
    let records = pilot.sync();
    let (allocs_after, bytes_after) = snapshot();
    let per_record = |n: u64| n as f64 / records as f64;
    (
        records,
        per_record(allocs_after - allocs_before),
        per_record(bytes_after - bytes_before),
    )
}

#[test]
fn a_synced_record_allocates_within_budget() {
    let mut pilot = Pilot::new();
    pilot.browse();
    pilot.post();
    let (first, first_allocs, _) = counted_sync(&mut pilot);
    println!("first sync, views empty: {first_allocs:.2} allocations per record");

    let started = Instant::now();
    let (records, allocs, bytes) = counted_sync(&mut pilot);
    let wall = started.elapsed();
    assert_eq!(records, first, "nothing was posted between the two syncs");
    assert!(
        records > 10_000,
        "{records} records is not the pilot's list"
    );
    println!(
        "{records} records: {allocs:.2} allocations and {bytes:.0} bytes per record \
         ({:.0} ns per record in this build)",
        wall.as_secs_f64() * 1e9 / records as f64
    );
    assert!(
        allocs <= MAX_ALLOCS,
        "{allocs:.2} allocations per record (budget {MAX_ALLOCS})"
    );
}
