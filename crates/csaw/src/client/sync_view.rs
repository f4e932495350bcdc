//! The client's local copy of the global DB (§4.2): per-AS blocked lists
//! pulled on a timer, consulted by Algorithm 1 before any first-contact
//! measurement.

use super::{elapsed, ClientStats, Telemetry};
use crate::global::{ConfidenceFilter, GlobalApi, StoreError};
use csaw_censor::blocking::BlockingType;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use csaw_webproto::url::{Scheme, Url};
use std::cell::RefCell;
use std::collections::HashMap;

/// The scheme every view key is written under: a verdict on a host
/// holds for both schemes.
const KEY_SCHEME: Scheme = Scheme::Http;

thread_local! {
    /// The buffer [`SyncView::lookup`] writes its key into, so a lookup
    /// allocates nothing once the thread's first one has sized it.
    static LOOKUP_KEY: RefCell<String> = const { RefCell::new(String::new()) };
}

/// The synced view: blocking stages per base URL, the confidence
/// filter the pulls apply, and when the last successful pull ran.
///
/// A record's key is its URL's base under `http`
/// (`Url::parse(url)?.base_string(Scheme::Http)`: lower-case host, the
/// port only when it is neither the URL's scheme default nor 80, path
/// `/`), so every URL on a host shares the stages any URL of that host
/// was listed with.
#[derive(Debug, Default)]
pub(super) struct SyncView {
    view: HashMap<String, Vec<BlockingType>>,
    last_sync: Option<SimTime>,
}

/// Add the stages not yet in `entry`, in the record's order.
fn merge(entry: &mut Vec<BlockingType>, stages: &[BlockingType]) {
    for s in stages {
        if !entry.contains(s) {
            entry.push(*s);
        }
    }
}

/// What [`merge`] makes of `stages` into an empty list, in place: the
/// first of each stage, in order.
fn dedup(mut stages: Vec<BlockingType>) -> Vec<BlockingType> {
    let mut kept = 0;
    for i in 0..stages.len() {
        let s = stages[i];
        if !stages[..kept].contains(&s) {
            stages[kept] = s;
            kept += 1;
        }
    }
    stages.truncate(kept);
    stages
}

impl SyncView {
    /// Blocking stages the view reports for a URL, if any.
    pub(super) fn lookup(&self, url: &Url) -> Option<&Vec<BlockingType>> {
        LOOKUP_KEY.with_borrow_mut(|key| {
            url.base_string_into(KEY_SCHEME, key);
            self.view.get(key.as_str())
        })
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
    /// the next tick retries. Returns the number of records pulled,
    /// those whose URL does not parse included.
    pub(super) fn sync<G: GlobalApi + ?Sized>(
        &mut self,
        stats: &mut ClientStats,
        ts: &Telemetry,
        server: &G,
        asns: &[Asn],
        now: SimTime,
    ) -> Result<usize, StoreError> {
        let mut lists = Vec::with_capacity(asns.len());
        for asn in asns {
            match server.blocked_for_as(*asn, &ConfidenceFilter::default()) {
                Ok(recs) => lists.push(recs),
                Err(e) => {
                    stats.sync_failures += 1;
                    ts.emit(|t, _| t.counter("client.sync.failed", &[]).inc());
                    csaw_obs::event!("client.sync.failed", asn = asn.0 as u64);
                    return Err(e);
                }
            }
        }
        // Every pull succeeded, so the cached view is replaced. Each
        // record's key is written into one buffer and looked up by
        // `&str`. A base new to this pull takes the cached view's key
        // and stage list if it held the base, else the buffer and the
        // record's own stage list, and the record's URL buffer becomes
        // the next key buffer: the merge allocates nothing per record.
        // The fresh view is sized for the larger of the cached view and
        // the pull (an upper bound on its bases), so it never grows.
        // Keys come from a server, so the maps keep std's seeded hasher.
        let mut old = std::mem::take(&mut self.view);
        let records: usize = lists.iter().map(Vec::len).sum();
        let mut fresh: HashMap<String, Vec<BlockingType>> =
            HashMap::with_capacity(old.len().max(records));
        let mut key = String::new();
        for rec in lists.into_iter().flatten() {
            if Url::base_key(&rec.url, KEY_SCHEME, &mut key).is_err() {
                continue;
            }
            if let Some(entry) = fresh.get_mut(key.as_str()) {
                merge(entry, &rec.stages);
                continue;
            }
            let cached = if old.is_empty() {
                None
            } else {
                old.remove_entry(key.as_str())
            };
            let (k, entry) = match cached {
                Some((k, mut entry)) => {
                    entry.clear();
                    merge(&mut entry, &rec.stages);
                    (k, entry)
                }
                None => (std::mem::replace(&mut key, rec.url), dedup(rec.stages)),
            };
            fresh.insert(k, entry);
        }
        self.view = fresh;
        self.last_sync = Some(now);
        ts.emit(|t, _| t.counter("client.sync.ok", &[]).inc());
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use crate::client::testkit::{build_world, client};
    use crate::global::{ConfidenceFilter, GlobalApi, RegistrationError, ServerDb, StoreError};
    use csaw_censor::blocking::BlockingType;
    use csaw_censor::profiles;
    use csaw_faults::{FaultProfile, FaultyBackend, OutageSchedule};
    use csaw_simnet::time::SimTime;
    use csaw_simnet::topology::Asn;
    use csaw_store::{Batch, GlobalRecord, IngestReceipt, ShardedStore, Uuid};
    use csaw_webproto::url::{Scheme, Url};
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};

    /// A server that hands out fixed lists, any URL in them, and fails
    /// the pull of an AS it has no list for.
    struct FixedLists(Mutex<HashMap<Asn, Vec<GlobalRecord>>>);

    impl GlobalApi for FixedLists {
        fn register(&self, _: SimTime, _: f64) -> Result<Uuid, RegistrationError> {
            Err(RegistrationError::Unavailable)
        }

        fn ingest(&self, _: Batch) -> Result<IngestReceipt, StoreError> {
            Err(StoreError::Unavailable("fixed lists take no reports"))
        }

        fn blocked_for_as(
            &self,
            asn: Asn,
            _: &ConfidenceFilter,
        ) -> Result<Vec<GlobalRecord>, StoreError> {
            let lists = self.0.lock().unwrap();
            lists
                .get(&asn)
                .cloned()
                .ok_or(StoreError::Unavailable("no list for this AS"))
        }
    }

    fn record(url: &str, stages: &[BlockingType]) -> GlobalRecord {
        GlobalRecord {
            url: url.to_string(),
            asn: Asn(1),
            measured_at: SimTime::ZERO,
            stages: stages.to_vec(),
            posted_at: SimTime::ZERO,
            reporter: Uuid::from_raw(1),
        }
    }

    /// The merge as it was written first: parse every record into a
    /// `Url` and key it by its rendered base under `http`.
    fn parse_merge(lists: &[&Vec<GlobalRecord>]) -> (HashMap<String, Vec<BlockingType>>, usize) {
        let mut view: HashMap<String, Vec<BlockingType>> = HashMap::new();
        let mut pulled = 0;
        for recs in lists {
            for rec in recs.iter() {
                pulled += 1;
                if let Ok(u) = Url::parse(&rec.url) {
                    let entry = view.entry(u.base_string(Scheme::Http)).or_default();
                    for s in &rec.stages {
                        if !entry.contains(s) {
                            entry.push(*s);
                        }
                    }
                }
            }
        }
        (view, pulled)
    }

    #[test]
    fn merge_matches_the_parse_based_merge() {
        use BlockingType::{DnsHijack, HttpDrop, IpDrop, SniDrop};
        let first: Vec<GlobalRecord> = vec![
            record("http://Video.Example/watch?v=1", &[DnsHijack]),
            record("https://video.example:443/a/b", &[SniDrop, DnsHijack]),
            record("http://video.example:80/", &[HttpDrop]),
            record("  http://VIDEO.example#frag/x ", &[IpDrop, HttpDrop]),
            record("http://video.example:443/", &[HttpDrop]),
            record("https://video.example:80/p", &[SniDrop]),
            record("http://10.1.2.3:8080/p?q", &[IpDrop]),
            record("http://10.1.2.3:08080/", &[DnsHijack]),
            record("http://news.example?q=1/2", &[]),
            record("http://news.example/", &[HttpDrop]),
            record(
                "http://twice.example/a",
                &[HttpDrop, DnsHijack, HttpDrop, DnsHijack],
            ),
            record("http://twice.example/b", &[SniDrop, DnsHijack, SniDrop]),
            record("ftp://video.example/", &[HttpDrop]),
            record("http://bad host/", &[HttpDrop]),
            record("http://video.example:99999/", &[HttpDrop]),
            record("http://..video.example/", &[HttpDrop]),
            record("http://video.example:/", &[HttpDrop]),
            record("", &[HttpDrop]),
            record("\u{a0}https://gone.example/\u{3000}", &[SniDrop]),
        ];
        // The second pull drops a base, re-orders a stage list, adds a
        // base and lists one under a second AS.
        let second_a: Vec<GlobalRecord> = vec![
            record("https://video.example/", &[HttpDrop, SniDrop]),
            record("HTTP://video.example/x", &[DnsHijack]),
            record("http://fresh.example:8443/", &[IpDrop, IpDrop]),
            record("http://twice.example/", &[SniDrop, HttpDrop, SniDrop]),
            record("not a url", &[IpDrop]),
        ];
        let second_b: Vec<GlobalRecord> = vec![
            record("http://news.example/deep/page", &[SniDrop, HttpDrop]),
            record("http://video.example/", &[IpDrop]),
        ];
        let probes: Vec<Url> = [
            "http://video.example/",
            "https://video.example/any/path",
            "http://video.example:443/",
            "https://video.example:80/",
            "http://10.1.2.3:8080/",
            "https://10.1.2.3:8080/x",
            "http://news.example/",
            "https://gone.example/",
            "http://fresh.example:8443/",
            "http://twice.example/x",
            "http://unlisted.example/",
        ]
        .iter()
        .map(|s| Url::parse(s).unwrap())
        .collect();

        let server = FixedLists(Mutex::new(HashMap::from([
            (Asn(1), first.clone()),
            (Asn(2), second_b.clone()),
        ])));
        let mut c = client(5);
        let check = |c: &crate::client::CsawClient,
                     pulled: usize,
                     lists: &[&Vec<GlobalRecord>],
                     when: &str| {
            let (want, want_pulled) = parse_merge(lists);
            assert_eq!(pulled, want_pulled, "{when}: records pulled");
            assert_eq!(c.view.view, want, "{when}: keys and stage order");
            for u in &probes {
                assert_eq!(
                    c.global_lookup(u),
                    want.get(&u.base_string(Scheme::Http)),
                    "{when}: lookup of {u}"
                );
            }
        };

        let pulled = c
            .sync_global(&server, &[Asn(1)], SimTime::from_secs(1))
            .unwrap();
        check(&c, pulled, &[&first], "first pull");

        // A pull that fails on its second AS keeps the view it had.
        server.0.lock().unwrap().remove(&Asn(2));
        server.0.lock().unwrap().insert(Asn(1), second_a.clone());
        assert!(c
            .sync_global(&server, &[Asn(1), Asn(2)], SimTime::from_secs(2))
            .is_err());
        check(&c, pulled, &[&first], "after a failed pull");

        server.0.lock().unwrap().insert(Asn(2), second_b.clone());
        let pulled = c
            .sync_global(&server, &[Asn(1), Asn(2)], SimTime::from_secs(3))
            .unwrap();
        check(&c, pulled, &[&second_a, &second_b], "second pull");
    }

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
            FaultProfile {
                download_outages: Some(OutageSchedule::from_windows(vec![(
                    SimTime::from_secs(100),
                    SimTime::from_secs(200),
                )])),
                ..FaultProfile::none()
            },
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
