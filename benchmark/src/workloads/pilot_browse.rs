//! `pilot_browse` — the simulation stack with the store nearly idle.
//!
//! Why: `csaw-simnet`, `csaw-censor`, `csaw-circumvent`,
//! `csaw-blockpage` and `csaw::local`/`measure`/`circum` do the work
//! here; the global DB sees a few thousand reports and no socket. A
//! store or wire change must leave this flat; a simulator change must
//! move only this.
//!
//! Set-up builds `pilot_universe(420, 997, 60)` and the 16 per-AS
//! worlds through public APIs (the Table 7 deployment). Round: a fresh
//! in-process server and 123 serial-redundancy clients (set-up);
//! `focus` has every client browse its slice of the 997 blocked URLs
//! plus 20 Zipf requests; `write` has every client `post_reports`;
//! `read` has every client `sync_global` its AS's blocked list. The
//! round must reproduce Table 7's aggregates.

use super::Workload;
use crate::run::{Ops, Run, FOCUS, READ, WRITE};
use csaw::client::CsawClient;
use csaw::config::{CsawConfig, RedundancyMode};
use csaw::global::{RegistrarConfig, ServerDb};
use csaw_bench::workload::{pilot_universe, PilotUniverse, Zipf};
use csaw_bench::worlds::pilot_asns;
use csaw_censor::blocking::{DnsTamper, HttpAction, IpAction};
use csaw_censor::policy::{CensorPolicy, CensorRule, TargetMatcher};
use csaw_circumvent::world::{SiteSpec, World};
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::{AccessNetwork, Asn, Provider, Region, Site};

/// The workload's name.
pub const NAME: &str = "pilot_browse";
/// The pilot's population.
pub const USERS: usize = 123;
const ZIPF_REQUESTS: usize = 20;

/// Blocking mechanism of blocked domain `idx`: the paper's URL-level
/// shares (376 DNS / 114 TCP / 475 block page of 997, the rest HTTP
/// drop), spread independently of index order.
fn mechanism_for(idx: usize, n: usize) -> (DnsTamper, IpAction, HttpAction) {
    let j = (idx * 17 + 5) % n;
    let u = (j as f64 + 0.5) / n as f64;
    if u < 0.377 {
        (DnsTamper::Nxdomain, IpAction::None, HttpAction::None)
    } else if u < 0.377 + 0.114 {
        (DnsTamper::None, IpAction::Drop, HttpAction::None)
    } else if u < 0.377 + 0.114 + 0.477 {
        let page = if j.is_multiple_of(2) {
            HttpAction::BlockPageRedirect
        } else {
            HttpAction::BlockPageInline
        };
        (DnsTamper::None, IpAction::None, page)
    } else {
        (DnsTamper::None, IpAction::None, HttpAction::Drop)
    }
}

/// One AS's world: every site of the universe, one nation-wide
/// blacklist enforced by this AS's censor.
pub fn pilot_world(asn: Asn, universe: &PilotUniverse) -> World {
    let provider = Provider::new(asn, format!("pilot-{asn}"));
    let mut builder = World::builder(AccessNetwork::single(provider));
    for d in &universe.blocked_domains {
        builder =
            builder.site(SiteSpec::new(d, Site::in_region(Region::UsEast)).default_page(90_000, 5));
    }
    for d in &universe.clean_domains {
        builder =
            builder.site(SiteSpec::new(d, Site::in_region(Region::UsEast)).default_page(70_000, 4));
    }
    let mut policy = CensorPolicy::new(format!("censor-{asn}"));
    for (i, d) in universe.blocked_domains.iter().enumerate() {
        let (dns, ip, http) = mechanism_for(i, universe.blocked_domains.len());
        policy = policy.with_rule(
            CensorRule::target(TargetMatcher::DomainSuffix(d.clone()))
                .dns(dns)
                .ip(ip)
                .http(http),
        );
    }
    builder.censor(asn, policy).build()
}

/// The pilot's client configuration (`table7`'s: serial redundancy).
pub fn pilot_config() -> CsawConfig {
    CsawConfig {
        redundancy: RedundancyMode::Serial,
        revalidate_p: 0.05,
        ..CsawConfig::default()
    }
}

/// The pilot's server: default gate, unlimited registrations a window.
pub fn pilot_server(seed: u64) -> ServerDb {
    ServerDb::builder(seed)
        .registrar(RegistrarConfig {
            max_risk: 0.7,
            max_per_window: usize::MAX,
            window: SimDuration::from_secs(60),
        })
        .build()
        .expect("the default store config is valid")
}

/// One-time fixtures.
pub struct PilotBrowse {
    seed: u64,
    /// The 420-domain / 997-URL universe.
    universe: PilotUniverse,
    /// The 16 ASes.
    asns: Vec<Asn>,
    /// One world per AS.
    worlds: Vec<World>,
    zipf_blocked: Zipf,
    zipf_clean: Zipf,
}

impl Workload for PilotBrowse {
    const NAME: &'static str = NAME;

    fn setup(seed: u64, _ops: &mut Ops) -> PilotBrowse {
        let universe = pilot_universe(420, 997, 60);
        let asns = pilot_asns();
        let worlds = asns.iter().map(|a| pilot_world(*a, &universe)).collect();
        PilotBrowse {
            seed,
            zipf_blocked: Zipf::new(universe.blocked_urls.len(), 0.9),
            zipf_clean: Zipf::new(universe.clean_urls.len(), 0.9),
            universe,
            asns,
            worlds,
        }
    }

    fn round(&mut self, run: &mut Run) {
        let seed = self.seed;
        let asns = &self.asns;
        let (server, mut clients) = run.fixture(|ops| {
            let server = pilot_server(seed);
            let clients: Vec<CsawClient> = (0..USERS)
                .map(|u| {
                    let mut client =
                        CsawClient::new(pilot_config(), None, seed ^ ((u as u64) << 4));
                    let r = client.register(
                        &server,
                        asns[u % asns.len()],
                        SimTime::from_secs(u as u64),
                        0.1,
                    );
                    ops.check(r.is_ok(), || format!("client {u} failed the gate: {r:?}"));
                    client
                })
                .collect();
            (server, clients)
        });
        let mut clocks: Vec<SimTime> = (0..USERS)
            .map(|u| SimTime::from_secs(1_000 + u as u64 * 10))
            .collect();

        let urls = &self.universe.blocked_urls;
        let per_client = urls.len().div_ceil(USERS);
        let mut requests = 0u64;
        run.phase(FOCUS, |ops| {
            let mut rng = DetRng::new(seed ^ 0x717);
            for (u, client) in clients.iter_mut().enumerate() {
                let world = &self.worlds[u % self.worlds.len()];
                let now = &mut clocks[u];
                // A deterministic slice each: together the population
                // visits all 997 URLs, as the paper's users did.
                let slice =
                    (u * per_client).min(urls.len())..((u + 1) * per_client).min(urls.len());
                for url in &urls[slice] {
                    *now += SimDuration::from_secs(40);
                    let at = *now;
                    ops.tracer.span("csaw.client.request", requests, 1, |_| {
                        client.request(world, url, at)
                    });
                    ops.ok();
                    requests += 1;
                }
                for _ in 0..ZIPF_REQUESTS {
                    *now += SimDuration::from_secs(30);
                    let url = if rng.chance(0.4) {
                        &urls[self.zipf_blocked.sample(&mut rng)]
                    } else {
                        &self.universe.clean_urls[self.zipf_clean.sample(&mut rng)]
                    };
                    let at = *now;
                    ops.tracer.span("csaw.client.request", requests, 1, |_| {
                        client.request(world, url, at)
                    });
                    ops.ok();
                    requests += 1;
                }
            }
            requests as f64
        });

        let mut posted = 0u64;
        run.phase(WRITE, |ops| {
            for (u, client) in clients.iter_mut().enumerate() {
                let queued = client.pending_reports();
                let accepted =
                    ops.tracer
                        .span("csaw.client.post_reports", u as u64, queued as u64, |_| {
                            client.post_reports(&server, clocks[u])
                        });
                ops.check(accepted == queued && client.pending_reports() == 0, || {
                    format!("client {u}: {accepted} of {queued} queued reports accepted")
                });
                posted += accepted as u64;
            }
            posted as f64
        });

        let mut pulled = 0u64;
        run.phase(READ, |ops| {
            for (u, client) in clients.iter_mut().enumerate() {
                let asn = asns[u % asns.len()];
                let result = ops
                    .tracer
                    .span("csaw.client.sync_global", u as u64, 1, |_| {
                        client.sync_global(&server, &[asn], clocks[u])
                    });
                ops.check(result.is_ok(), || {
                    format!("client {u} sync failed: {result:?}")
                });
                pulled += result.unwrap_or(0) as u64;
            }
            pulled as f64
        });

        let stats = server.stats();
        run.verify(|ops| {
            let got = (
                stats.clients,
                stats.unique_blocked_urls,
                stats.unique_blocked_domains,
                stats.unique_ases,
                stats.distinct_blocking_types,
            );
            ops.check(got == (USERS, 997, 420, 16, 5), || {
                format!("Table 7 aggregates (users, URLs, domains, ASes, types) = {got:?}")
            });
        });
        run.count("requests", requests);
        run.count("reports_posted", posted);
        run.count("records_synced", pulled);
        run.count("unique_updates", stats.unique_updates);
    }

    fn finish(self, _run: &mut Run) {}
}
