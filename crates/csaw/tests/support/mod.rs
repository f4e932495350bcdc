//! One scenario for every report sink: a seeded client browses a
//! censored site in three waves, posting between them and then until
//! its queue is empty, against a server whose backend refuses some
//! batches outright, tears others, and rejects marked reports. Whatever
//! carries the posts — the in-process server, the collector tier, a
//! socket — the client and the store must end up in the same state.
//!
//! Shared by `post_sinks.rs` here and in `csaw-dbserver`'s tests (by
//! `#[path]`), so it uses public API only.
#![allow(dead_code)]

use csaw::client::{ClientStats, CsawClient};
use csaw::config::CsawConfig;
use csaw::global::{Collector, CollectorSet, GlobalApi, ServerDb};
use csaw_censor::{profiles, Category};
use csaw_circumvent::world::{SiteSpec, World};
use csaw_faults::{FaultProfile, FaultyBackend};
use csaw_replica::fingerprint_of;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::{AccessNetwork, Provider, Region, Site};
use csaw_store::{Batch, Decorator, IngestReceipt, ShardedStore, StorageBackend, StoreError};
use csaw_webproto::url::Url;
use std::sync::Arc;

/// Makes the store's sanitizer reject every report whose URL is marked
/// `/reject/`, by stripping its stages on the way in.
#[derive(Debug)]
struct RejectMarked(FaultyBackend);

impl Decorator for RejectMarked {
    fn inner(&self) -> &dyn StorageBackend {
        &self.0
    }

    fn on_ingest(&self, batch: &Batch) -> Result<IngestReceipt, StoreError> {
        let mut reports = batch.reports().to_vec();
        for r in reports.iter_mut().filter(|r| r.url.contains("/reject/")) {
            r.stages.clear();
        }
        self.0
            .ingest(&Batch::new(batch.client, reports, batch.posted_at))
    }
}

/// A fresh server over the scenario's fault stack, and the store at the
/// bottom of it.
pub fn rig() -> (Arc<ServerDb>, Arc<ShardedStore>) {
    let store = Arc::new(ShardedStore::new(4).unwrap());
    let profile = FaultProfile::none()
        .with_write_fail_p(0.3)
        .with_torn_write_p(0.5);
    let faulty = FaultyBackend::new(store.clone(), profile, 0x51AC);
    let server = ServerDb::builder(0x51AC)
        .backend(Arc::new(RejectMarked(faulty)))
        .build()
        .unwrap();
    (Arc::new(server), store)
}

/// A collector tier that adds no latency, so a relayed batch is stamped
/// exactly like a direct one.
pub fn instant_collectors() -> CollectorSet {
    CollectorSet::new(vec![Collector {
        id: "collector-x.onion".into(),
        reachable: true,
        latency: SimDuration::ZERO,
    }])
}

fn world() -> World {
    let provider = Provider::new(profiles::ISP_A_ASN, "isp");
    World::builder(AccessNetwork::single(provider))
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

/// Where the scenario left the client and the store.
#[derive(Debug, PartialEq)]
pub struct Outcome {
    pub stats: ClientStats,
    pub store: String,
}

/// Run the scenario, posting through `post`, and check the accounting
/// identity at the end.
pub fn run<G: GlobalApi + ?Sized>(
    server: &G,
    store: &dyn StorageBackend,
    mut post: impl FnMut(&mut CsawClient, SimTime),
) -> Outcome {
    let w = world();
    let cfg = CsawConfig {
        report_backoff_base: SimDuration::from_secs(30),
        report_backoff_max: SimDuration::from_secs(600),
        report_backoff_jitter: 0.1,
        ..Default::default()
    };
    let mut c = CsawClient::new(cfg, Some("cdn-front.example"), 77);
    c.register(server, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
        .unwrap();
    let mut now = SimTime::from_secs(1);
    for wave in 0..3 {
        for u in 0..4 {
            let kind = if u == 2 { "reject" } else { "ok" };
            let url = format!("http://www.youtube.com/{kind}/{wave}/{u}");
            c.request(&w, &Url::parse(&url).unwrap(), now);
            now += SimDuration::from_secs(10);
        }
        // One attempt between waves; it may land inside a backoff.
        post(&mut c, now);
    }
    for _ in 0..60 {
        if c.pending_reports() == 0 {
            break;
        }
        now = c.next_report_at().map_or(now, |at| at.max(now)) + SimDuration::from_secs(1);
        post(&mut c, now);
    }
    assert_eq!(c.pending_reports(), 0, "queue drained: {:?}", c.stats);
    assert!(c.reports_balanced(), "accounting identity: {:?}", c.stats);
    Outcome {
        stats: c.stats,
        store: fingerprint_of(store),
    }
}

/// The reference: posts go straight to the in-process server. Also
/// checks that the scenario exercises every verdict.
pub fn in_process() -> Outcome {
    let (server, store) = rig();
    let out = run(&*server, &*store, |c, now| {
        c.post_reports(&*server, now);
    });
    assert_eq!(out.stats.reports_queued, 12);
    assert_eq!(
        out.stats.reports_quarantined, 3,
        "the marked reports were rejected"
    );
    assert!(
        out.stats.post_failures >= 1,
        "a batch bounced: {:?}",
        out.stats
    );
    assert!(
        out.stats.reports_requeued >= 1,
        "a batch tore: {:?}",
        out.stats
    );
    assert_eq!(store.record_count() as u64, out.stats.reports_posted);
    out
}
