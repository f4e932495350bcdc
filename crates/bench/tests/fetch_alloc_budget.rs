//! What a simulated fetch allocates.
//!
//! The pilot deployment (Table 7: 123 users behind 16 ASes browsing the
//! 997 blocked URLs plus a Zipf mix) is the simulator's widest workload,
//! and its per-request cost bounds how large a deployment the
//! experiments can simulate. This binary counts every allocation with
//! `csaw_perf_alloc::CountingAlloc` as its global allocator, runs the
//! seed-1 browse loop once (3,457 requests, the benchmark's `focus`
//! phase) and holds the allocations and bytes requested per request to
//! a budget. It is the only test in this binary, so nothing else
//! allocates while it counts.

mod pilot;

use csaw_perf_alloc::{snapshot, CountingAlloc};
use pilot::Pilot;
use std::time::Instant;

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Allocation events per request: 39.1 measured, 44.2 when a local-DB
/// lookup built its host key and path segments and cloned the record it
/// found, and a synced-view lookup built its key.
const MAX_ALLOCS: f64 = 43.0;
/// Bytes requested per request: 2,880 measured, 3,008 before.
const MAX_BYTES: f64 = 3_170.0;

#[test]
fn a_pilot_request_allocates_within_budget() {
    let mut pilot = Pilot::new();
    let (allocs_before, bytes_before) = snapshot();
    let started = Instant::now();
    let requests = pilot.browse();
    let wall = started.elapsed();
    let (allocs_after, bytes_after) = snapshot();

    assert_eq!(requests, 3_457, "the focus loop's request count");
    let allocs = (allocs_after - allocs_before) as f64 / requests as f64;
    let bytes = (bytes_after - bytes_before) as f64 / requests as f64;
    println!(
        "{requests} requests: {allocs:.1} allocations and {bytes:.0} bytes per request \
         ({:.2} µs per request in this build)",
        wall.as_secs_f64() * 1e6 / requests as f64
    );
    assert!(
        allocs <= MAX_ALLOCS,
        "{allocs:.1} allocations per request (budget {MAX_ALLOCS})"
    );
    assert!(
        bytes <= MAX_BYTES,
        "{bytes:.0} bytes per request (budget {MAX_BYTES})"
    );
}
