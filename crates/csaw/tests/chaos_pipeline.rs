//! End-to-end chaos test for the upload pipeline.
//!
//! Concurrent clients push reports through a shared [`ServerDb`] whose
//! backend fails ~30% of ingests outright and tears another slice of
//! them mid-batch. The pipeline's contract under that abuse:
//!
//! - **zero silent loss** — every report a client ever queued is
//!   eventually posted, or shows up explicitly in the drop/quarantine
//!   counters (the accounting identity);
//! - **no phantom posts** — nothing is marked posted that the store
//!   did not durably accept: the store's record count must equal the
//!   sum of per-client `reports_posted` (every report uses a unique
//!   URL, so dedup cannot mask a mismatch in either direction).

use csaw::client::CsawClient;
use csaw::config::CsawConfig;
use csaw::global::ServerDb;
use csaw_censor::{profiles, Category};
use csaw_circumvent::world::{SiteSpec, World};
use csaw_faults::{FaultProfile, FaultyBackend};
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::{AccessNetwork, Provider, Region, Site};
use csaw_store::{Decorator, ShardedStore};
use csaw_webproto::url::Url;
use std::sync::Arc;

const CLIENTS: usize = 8;
const URLS_PER_CLIENT: usize = 6;
const MAX_ROUNDS: usize = 60;

fn build_world() -> World {
    let provider = Provider::new(profiles::ISP_A_ASN, "isp");
    let access = AccessNetwork::single(provider);
    World::builder(access)
        .site(
            SiteSpec::new("www.youtube.com", Site::at_vantage_rtt(Region::UsEast, 186))
                .category(Category::Video)
                .frontable(true)
                .serves_by_ip(true)
                .default_page(360_000, 20),
        )
        .site(SiteSpec::new(
            "cdn-front.example",
            Site::in_region(Region::Singapore),
        ))
        .censor(profiles::ISP_A_ASN, profiles::isp_a())
        .build()
}

#[test]
fn chaotic_backend_never_loses_or_duplicates_reports() {
    let inner = Arc::new(ShardedStore::new(8).unwrap());
    let faulty = Arc::new(FaultyBackend::new(
        inner,
        FaultProfile {
            write_fail_p: 0.30,
            torn_write_p: 0.20,
            ..FaultProfile::none()
        },
        0xC5A0,
    ));
    let server = Arc::new(
        ServerDb::builder(0xC5A0)
            .backend(faulty.clone())
            .build()
            .unwrap(),
    );

    let totals: Vec<(u64, u64, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|idx| {
                let server = Arc::clone(&server);
                s.spawn(move || {
                    let w = build_world();
                    let mut c = CsawClient::new(
                        // Short backoff keeps the virtual-time walk small.
                        CsawConfig {
                            report_backoff_base: SimDuration::from_secs(30),
                            report_backoff_max: SimDuration::from_secs(600),
                            ..Default::default()
                        },
                        Some("cdn-front.example"),
                        1_000 + idx as u64,
                    );
                    c.register(&*server, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
                        .unwrap();
                    // Unique URLs per client: any report both lost and
                    // counted (or posted twice) shifts the global record
                    // count and is caught below.
                    let mut now = SimTime::from_secs(1);
                    for u in 0..URLS_PER_CLIENT {
                        let url =
                            Url::parse(&format!("http://www.youtube.com/c{idx}/u{u}")).unwrap();
                        c.request(&w, &url, now);
                        now += SimDuration::from_secs(10);
                    }
                    assert!(c.pending_reports() > 0, "censored fetches queued reports");
                    // Retry until drained; each round waits out the
                    // backoff ceiling. P(60 consecutive injected
                    // failures) ≈ 0.3^60 — effectively never.
                    for _ in 0..MAX_ROUNDS {
                        if c.pending_reports() == 0 {
                            break;
                        }
                        now += SimDuration::from_secs(700);
                        c.post_reports(&*server, now);
                    }
                    assert_eq!(
                        c.pending_reports(),
                        0,
                        "queue drained despite 30% failures + torn writes"
                    );
                    assert_eq!(c.stats.reports_quarantined, 0, "no poison injected");
                    assert!(
                        c.reports_balanced(),
                        "accounting identity at quiescence: {:?}",
                        c.stats
                    );
                    (c.stats.reports_posted, c.stats.reports_requeued, idx)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let posted: u64 = totals.iter().map(|(p, _, _)| p).sum();
    assert_eq!(
        posted,
        (CLIENTS * URLS_PER_CLIENT) as u64,
        "every queued report delivered exactly once"
    );
    // No phantom posts: the store holds exactly one record per posted
    // report (URLs are unique, so neither loss nor duplication hides).
    assert_eq!(
        faulty.inner().record_count(),
        posted as usize,
        "store records == reports marked posted"
    );
    // The chaos actually bit: faults were injected and some batches tore.
    let snap = faulty.snapshot();
    assert!(snap.write_failures > 0, "fault injection exercised");
    let requeued: u64 = totals.iter().map(|(_, r, _)| r).sum();
    assert_eq!(
        requeued, snap.deferred_reports,
        "every report the store deferred was re-queued by its client"
    );
}

/// Collector blockage driven by a seeded outage schedule: while every
/// collector is down the batch stays queued (backoff armed, nothing
/// lost); once the schedule lifts, the same queue drains through
/// whichever collector came back.
#[test]
fn collector_outage_defers_but_never_drops() {
    use csaw::global::CollectorSet;
    use csaw_faults::OutageSchedule;

    let server = ServerDb::builder(0xB10C).build().unwrap();
    let w = build_world();
    let mut c = CsawClient::new(
        CsawConfig {
            report_backoff_base: SimDuration::from_secs(30),
            report_backoff_max: SimDuration::from_secs(300),
            ..Default::default()
        },
        Some("cdn-front.example"),
        9_001,
    );
    c.register(&server, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
        .unwrap();
    let url = Url::parse("http://www.youtube.com/outage").unwrap();
    c.request(&w, &url, SimTime::from_secs(1));
    let queued = c.pending_reports();
    assert!(queued >= 1);

    // One schedule per collector, all three down over the same window —
    // a censor blacklisting the hidden-service set at once.
    let ids = [
        "collector-a.onion",
        "collector-b.onion",
        "collector-c.onion",
    ];
    let schedules: Vec<OutageSchedule> = ids
        .iter()
        .map(|_| {
            OutageSchedule::from_windows(vec![(SimTime::from_secs(0), SimTime::from_secs(5_000))])
        })
        .collect();

    let mut collectors = CollectorSet::default_set();
    let mut delivered = 0;
    let mut now = SimTime::from_secs(10);
    for _ in 0..30 {
        // Arm reachability from the schedules at the current instant.
        for (id, sched) in ids.iter().zip(&schedules) {
            collectors.set_reachable(id, !sched.is_down(now));
        }
        if let Ok(receipt) = c.post_reports_via(&collectors, &server, now) {
            delivered += receipt.ingest.accepted;
        }
        if c.pending_reports() == 0 {
            break;
        }
        now += SimDuration::from_secs(400);
    }
    assert_eq!(delivered, queued, "queue drained after the outage lifted");
    assert_eq!(c.pending_reports(), 0);
    assert!(
        c.stats.post_failures >= 1,
        "the blockage window cost at least one failed attempt"
    );
    assert!(
        c.reports_balanced(),
        "zero silent loss through the collector outage"
    );
}
