//! The client's local copy of the global DB (§4.2): per-AS blocked lists
//! pulled on a timer, consulted by Algorithm 1 before any first-contact
//! measurement.

use super::{elapsed, ClientStats, Telemetry};
use crate::global::{ConfidenceFilter, GlobalApi, StoreError};
use csaw_censor::blocking::BlockingType;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use csaw_webproto::url::{Scheme, Url};
use std::collections::HashMap;

/// The synced view: blocking stages per normalized URL, the confidence
/// filter the pulls apply, and when the last successful pull ran.
#[derive(Debug, Default)]
pub(super) struct SyncView {
    view: HashMap<String, Vec<BlockingType>>,
    confidence: ConfidenceFilter,
    last_sync: Option<SimTime>,
}

impl SyncView {
    /// Use a stricter confidence filter for subsequent pulls.
    pub(super) fn set_confidence(&mut self, f: ConfidenceFilter) {
        self.confidence = f;
    }

    /// Normalized view key for a URL: base, http scheme.
    fn key(url: &Url) -> String {
        url.base_string(Scheme::Http)
    }

    /// Blocking stages the view reports for a URL, if any.
    pub(super) fn lookup(&self, url: &Url) -> Option<&Vec<BlockingType>> {
        self.view.get(&Self::key(url))
    }

    /// Whether the periodic pull is due at `now`.
    pub(super) fn due(&self, now: SimTime, every: SimDuration) -> bool {
        elapsed(self.last_sync, every, now)
    }

    /// Pull the per-AS blocked lists from the server. Builds the fresh
    /// view off to the side and swaps it in only once every pull
    /// succeeded — a transiently unavailable backend must never wipe the
    /// cached view (stale blocked-list data still routes around
    /// censorship; an empty one sends every request down the direct
    /// path). On failure the cached view and `last_sync` are kept, so
    /// the next tick retries. Returns the number of records pulled.
    pub(super) fn sync<G: GlobalApi + ?Sized>(
        &mut self,
        stats: &mut ClientStats,
        ts: &Telemetry,
        server: &G,
        asns: &[Asn],
        now: SimTime,
    ) -> Result<usize, StoreError> {
        let mut fresh: HashMap<String, Vec<BlockingType>> = HashMap::new();
        let mut pulled = 0usize;
        for asn in asns {
            let recs = match server.blocked_for_as(*asn, &self.confidence) {
                Ok(r) => r,
                Err(e) => {
                    stats.sync_failures += 1;
                    ts.emit(|t, _| t.counter("client.sync.failed", &[]).inc());
                    csaw_obs::event!("client.sync.failed", asn = asn.0 as u64);
                    return Err(e);
                }
            };
            for rec in recs {
                pulled += 1;
                if let Ok(u) = Url::parse(&rec.url) {
                    let entry = fresh.entry(Self::key(&u)).or_default();
                    for s in &rec.stages {
                        if !entry.contains(s) {
                            entry.push(*s);
                        }
                    }
                }
            }
        }
        self.view = fresh;
        self.last_sync = Some(now);
        ts.emit(|t, _| t.counter("client.sync.ok", &[]).inc());
        Ok(pulled)
    }
}

#[cfg(test)]
mod tests {
    use crate::client::testkit::{build_world, client};
    use crate::global::ServerDb;
    use csaw_censor::profiles;
    use csaw_faults::{FaultProfile, FaultyBackend, OutageSchedule};
    use csaw_simnet::time::SimTime;
    use csaw_store::ShardedStore;
    use csaw_webproto::url::Url;
    use std::sync::Arc;

    #[test]
    fn global_db_roundtrip_seeds_other_clients() {
        let w = build_world(profiles::isp_a(), profiles::ISP_A_ASN);
        let server = ServerDb::builder(99).build().unwrap();
        // Client 1 discovers the blocking and reports it.
        let mut c1 = client(3);
        c1.register(&server, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
            .unwrap();
        let url = Url::parse("http://www.youtube.com/").unwrap();
        c1.request(&w, &url, SimTime::from_secs(1));
        let posted = c1.post_reports(&server, SimTime::from_secs(2));
        assert!(posted >= 1, "posted {posted}");
        // Client 2 syncs and skips the expensive first-measurement round.
        let mut c2 = client(4);
        c2.register(&server, profiles::ISP_A_ASN, SimTime::from_secs(3), 0.0)
            .unwrap();
        assert!(c2.global_lookup(&url).is_some(), "global view has the URL");
        let r = c2.request(&w, &url, SimTime::from_secs(4));
        assert_eq!(r.transport, "https", "straight to the local fix");
        assert_eq!(c2.stats.measurements, 0, "no redundant round needed");
        assert!(r.plt.is_some());
    }

    #[test]
    fn sync_failure_preserves_cached_view() {
        let w = build_world(profiles::isp_a(), profiles::ISP_A_ASN);
        let inner = Arc::new(ShardedStore::new(8).unwrap());
        // Downloads fail between t=100s and t=200s.
        let faulty = Arc::new(FaultyBackend::new(
            inner,
            FaultProfile::none().with_download_outages(OutageSchedule::from_windows(vec![(
                SimTime::from_secs(100),
                SimTime::from_secs(200),
            )])),
            23,
        ));
        let server = ServerDb::builder(23)
            .backend(faulty.clone())
            .build()
            .unwrap();
        // Seed the global DB through a reporting client.
        let mut c1 = client(46);
        c1.register(&server, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
            .unwrap();
        let url = Url::parse("http://www.youtube.com/").unwrap();
        c1.request(&w, &url, SimTime::from_secs(1));
        assert!(c1.post_reports(&server, SimTime::from_secs(2)) >= 1);
        // A second client syncs while the backend is healthy...
        let mut c2 = client(47);
        c2.register(&server, profiles::ISP_A_ASN, SimTime::from_secs(3), 0.0)
            .unwrap();
        assert!(c2.global_lookup(&url).is_some());
        // ...then the backend goes down; the pull fails but the cached
        // view survives.
        faulty.set_now(SimTime::from_secs(150));
        let err = c2.sync_global(&server, &[profiles::ISP_A_ASN], SimTime::from_secs(150));
        assert!(err.is_err());
        assert_eq!(c2.stats.sync_failures, 1);
        assert!(
            c2.global_lookup(&url).is_some(),
            "failed pull must not wipe the cached view"
        );
        // Back up: the next pull refreshes normally.
        faulty.set_now(SimTime::from_secs(300));
        assert!(c2
            .sync_global(&server, &[profiles::ISP_A_ASN], SimTime::from_secs(300))
            .is_ok());
        assert!(c2.global_lookup(&url).is_some());
    }
}
