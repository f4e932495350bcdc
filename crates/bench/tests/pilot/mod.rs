//! The seed-1 pilot round that the allocation budgets count: the
//! Table 7 deployment (123 users behind 16 ASes) browsing the 997
//! blocked URLs plus a Zipf mix — the benchmark's `pilot_browse` round
//! — with its post and sync steps, so a budget can count any one of
//! them alone. Each budget binary uses only its part of it.
#![allow(dead_code)]

use csaw::client::CsawClient;
use csaw::config::{CsawConfig, RedundancyMode};
use csaw::global::{RegistrarConfig, ServerDb};
use csaw_bench::experiments::table7::pilot_world;
use csaw_bench::workload::{pilot_universe, PilotUniverse, Zipf};
use csaw_bench::worlds::pilot_asns;
use csaw_circumvent::world::World;
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;

const SEED: u64 = 1;
const USERS: usize = 123;
const ZIPF_REQUESTS: usize = 20;

/// The deployment: one server, its registered clients, and each
/// client's clock.
pub struct Pilot {
    universe: PilotUniverse,
    asns: Vec<Asn>,
    worlds: Vec<World>,
    server: ServerDb,
    clients: Vec<CsawClient>,
    clocks: Vec<SimTime>,
    zipf_blocked: Zipf,
    zipf_clean: Zipf,
}

impl Pilot {
    /// Build the worlds and the server and register every client (each
    /// registration syncs once, against a list still empty).
    pub fn new() -> Pilot {
        let universe = pilot_universe(420, 997, 60);
        let asns = pilot_asns();
        let worlds = asns.iter().map(|a| pilot_world(*a, &universe)).collect();
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
        let clients = (0..USERS)
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
        Pilot {
            zipf_blocked: Zipf::new(universe.blocked_urls.len(), 0.9),
            zipf_clean: Zipf::new(universe.clean_urls.len(), 0.9),
            universe,
            asns,
            worlds,
            server,
            clients,
            clocks: (0..USERS)
                .map(|u| SimTime::from_secs(1_000 + u as u64 * 10))
                .collect(),
        }
    }

    /// Every client browses its slice of the blocked URLs, then 20 Zipf
    /// requests. Returns the number of requests.
    pub fn browse(&mut self) -> u64 {
        let urls = &self.universe.blocked_urls;
        let per_client = urls.len().div_ceil(USERS);
        let mut rng = DetRng::new(SEED ^ 0x717);
        let mut requests = 0u64;
        for (u, client) in self.clients.iter_mut().enumerate() {
            let world = &self.worlds[u % self.worlds.len()];
            let now = &mut self.clocks[u];
            let slice = (u * per_client).min(urls.len())..((u + 1) * per_client).min(urls.len());
            for url in &urls[slice] {
                *now += SimDuration::from_secs(40);
                client.request(world, url, *now);
                requests += 1;
            }
            for _ in 0..ZIPF_REQUESTS {
                *now += SimDuration::from_secs(30);
                let url = if rng.chance(0.4) {
                    &urls[self.zipf_blocked.sample(&mut rng)]
                } else {
                    &self.universe.clean_urls[self.zipf_clean.sample(&mut rng)]
                };
                client.request(world, url, *now);
                requests += 1;
            }
        }
        requests
    }

    /// Every client posts its queued reports. Returns how many the
    /// server accepted.
    pub fn post(&mut self) -> usize {
        self.clients
            .iter_mut()
            .zip(&self.clocks)
            .map(|(client, now)| client.post_reports(&self.server, *now))
            .sum()
    }

    /// Every client pulls its AS's blocked list. Returns the number of
    /// records pulled.
    pub fn sync(&mut self) -> u64 {
        let mut pulled = 0u64;
        for (u, client) in self.clients.iter_mut().enumerate() {
            let asn = self.asns[u % self.asns.len()];
            pulled += client
                .sync_global(&self.server, &[asn], self.clocks[u])
                .expect("the in-process server answers") as u64;
        }
        pulled
    }
}
