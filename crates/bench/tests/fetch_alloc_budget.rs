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

use csaw::client::CsawClient;
use csaw::config::{CsawConfig, RedundancyMode};
use csaw::global::{RegistrarConfig, ServerDb};
use csaw_bench::experiments::table7::pilot_world;
use csaw_bench::workload::{pilot_universe, Zipf};
use csaw_bench::worlds::pilot_asns;
use csaw_circumvent::world::World;
use csaw_perf_alloc::{snapshot, CountingAlloc};
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::{SimDuration, SimTime};
use std::time::Instant;

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

const SEED: u64 = 1;
const USERS: usize = 123;
const ZIPF_REQUESTS: usize = 20;
/// Allocation events per request.
const MAX_ALLOCS: f64 = 70.0;
/// Bytes requested per request.
const MAX_BYTES: f64 = 8.0 * 1024.0;

#[test]
fn a_pilot_request_allocates_within_budget() {
    let universe = pilot_universe(420, 997, 60);
    let asns = pilot_asns();
    let worlds: Vec<World> = asns.iter().map(|a| pilot_world(*a, &universe)).collect();
    let server = ServerDb::builder(SEED)
        .registrar(RegistrarConfig {
            max_risk: 0.7,
            max_per_window: usize::MAX,
            window: SimDuration::from_secs(60),
        })
        .build()
        .expect("the default store config is valid");
    let cfg = CsawConfig {
        redundancy: RedundancyMode::Serial,
        revalidate_p: 0.05,
        ..CsawConfig::default()
    };
    let mut clients: Vec<CsawClient> = (0..USERS)
        .map(|u| {
            let mut client = CsawClient::new(cfg, None, SEED ^ ((u as u64) << 4));
            client
                .register(
                    &server,
                    asns[u % asns.len()],
                    SimTime::from_secs(u as u64),
                    0.1,
                )
                .expect("registration passes the gate");
            client
        })
        .collect();
    let zipf_blocked = Zipf::new(universe.blocked_urls.len(), 0.9);
    let zipf_clean = Zipf::new(universe.clean_urls.len(), 0.9);
    let urls = &universe.blocked_urls;
    let per_client = urls.len().div_ceil(USERS);
    let mut rng = DetRng::new(SEED ^ 0x717);

    let (allocs_before, bytes_before) = snapshot();
    let started = Instant::now();
    let mut requests = 0u64;
    for (u, client) in clients.iter_mut().enumerate() {
        let world = &worlds[u % worlds.len()];
        let mut now = SimTime::from_secs(1_000 + u as u64 * 10);
        let slice = (u * per_client).min(urls.len())..((u + 1) * per_client).min(urls.len());
        for url in &urls[slice] {
            now += SimDuration::from_secs(40);
            client.request(world, url, now);
            requests += 1;
        }
        for _ in 0..ZIPF_REQUESTS {
            now += SimDuration::from_secs(30);
            let url = if rng.chance(0.4) {
                &urls[zipf_blocked.sample(&mut rng)]
            } else {
                &universe.clean_urls[zipf_clean.sample(&mut rng)]
            };
            client.request(world, url, now);
            requests += 1;
        }
    }
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
