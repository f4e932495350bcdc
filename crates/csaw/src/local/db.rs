//! The local database (§4.1, §4.4).
//!
//! An in-memory structure keyed by URL, with the three behaviours the
//! paper builds on top of plain storage:
//!
//! 1. **Aggregation** (§4.4 "Managing the database size"): host-level
//!    blocking (DNS/IP/SNI) stores one record at the base URL; HTTP
//!    blocking stores at the base if the base itself is blocked, at the
//!    derived URL otherwise; *unblocked* findings collapse to a single
//!    base-URL record. Figure 6b measures the ~55% record saving.
//! 2. **Longest-prefix matching**: the status of a derived URL is decided
//!    by its most specific recorded ancestor.
//! 3. **Expiry**: records older than the TTL read as not-measured, which
//!    re-triggers measurement (churn Scenario A).
//!
//! Status is scheme-insensitive by design: records are keyed on
//! (host, effective port, path), because the censor mechanisms that
//! differ by scheme are captured in the record's `stages`, not in its
//! identity.

use crate::local::record::{LocalRecord, Status};
use crate::local::trie::{PathTrie, ROOT};
use csaw_censor::blocking::BlockingType;
use csaw_obs::json::JsonValue;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use csaw_store::StoreError;
use csaw_webproto::url::{Host, Url};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Host-level key: hostname (or IP literal) plus port. The two web
/// default ports (80/443) collapse to `None` so that the same resource
/// fetched over HTTP and HTTPS shares one identity — scheme is a
/// *transport* question, recorded in `stages`, not an identity question.
#[derive(Debug, Clone)]
struct HostKey {
    host: Host,
    port: Option<u16>,
}

impl HostKey {
    fn of(url: &Url) -> HostKey {
        HostKey {
            host: url.host().clone(),
            port: host_port(url),
        }
    }
}

/// The port part of `url`'s host key.
fn host_port(url: &Url) -> Option<u16> {
    Some(url.port()).filter(|p| *p != 80 && *p != 443)
}

/// A host key's parts by reference: what the map hashes and compares,
/// so a lookup borrows the URL's host instead of building a key.
trait KeyParts {
    fn parts(&self) -> (&Host, Option<u16>);
}

impl KeyParts for HostKey {
    fn parts(&self) -> (&Host, Option<u16>) {
        (&self.host, self.port)
    }
}

impl KeyParts for (&Host, Option<u16>) {
    fn parts(&self) -> (&Host, Option<u16>) {
        *self
    }
}

impl<'a> Borrow<dyn KeyParts + 'a> for HostKey {
    fn borrow(&self) -> &(dyn KeyParts + 'a) {
        self
    }
}

impl Hash for dyn KeyParts + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for dyn KeyParts + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn KeyParts + '_ {}

impl Hash for HostKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for HostKey {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for HostKey {}

/// The client's local measurement database.
///
/// Serializes to a portable form (the host map as a pair list, since
/// JSON map keys must be strings) so a client can persist its
/// measurements across restarts.
#[derive(Debug, Clone)]
pub struct LocalDb {
    hosts: HashMap<HostKey, PathTrie>,
    /// Aggregation on (the paper's design) or off (the Fig. 6b baseline).
    pub aggregate: bool,
    /// Record TTL.
    pub ttl: SimDuration,
}

/// What a lookup reports, borrowed from the database.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lookup<'a> {
    /// Status after TTL filtering (NotMeasured when nothing live).
    pub status: Status,
    /// The matched record (most specific live ancestor), if any.
    pub record: Option<&'a LocalRecord>,
}

impl LocalDb {
    /// An aggregating database with the given record TTL.
    pub fn new(ttl: SimDuration) -> LocalDb {
        LocalDb {
            hosts: HashMap::new(),
            aggregate: true,
            ttl,
        }
    }

    /// A non-aggregating database (stores every URL verbatim); the
    /// baseline for Figure 6b.
    pub fn without_aggregation(ttl: SimDuration) -> LocalDb {
        LocalDb {
            hosts: HashMap::new(),
            aggregate: false,
            ttl,
        }
    }

    /// The URL's path segments, borrowed.
    fn segs(url: &Url) -> impl Iterator<Item = &str> + Clone {
        url.path().split('/').filter(|seg| !seg.is_empty())
    }

    /// The trie of `url`'s host key, found by borrowing the URL's host.
    fn trie(&self, url: &Url) -> Option<&PathTrie> {
        self.hosts
            .get(&(url.host(), host_port(url)) as &dyn KeyParts)
    }

    /// Look up the blocking status of a URL at time `now`. Nothing is
    /// allocated: the host key and the path segments are borrowed from
    /// `url`, and the record from the database.
    ///
    /// Telemetry: `local_db.hits` counts lookups answered by a live
    /// record, `local_db.misses` the rest — the hit rate is the fraction
    /// of page loads that skip the measurement machinery entirely.
    pub fn lookup(&self, url: &Url, now: SimTime) -> Lookup<'_> {
        let miss = || {
            csaw_obs::inc("local_db.misses");
            Lookup {
                status: Status::NotMeasured,
                record: None,
            }
        };
        let Some(trie) = self.trie(url) else {
            return miss();
        };
        let segs = Self::segs(url);
        let record = if self.aggregate {
            trie.lpm(segs)
        } else {
            trie.get(segs)
        };
        match record {
            Some(r) if r.is_live(now, self.ttl) => {
                csaw_obs::inc("local_db.hits");
                Lookup {
                    status: r.status,
                    record: Some(r),
                }
            }
            _ => miss(),
        }
    }

    /// Record a measurement, applying the aggregation rules. What is
    /// allocated is what is stored: records, and the keys of a host or
    /// path segment not held yet.
    pub fn record_measurement(
        &mut self,
        url: &Url,
        asn: Asn,
        now: SimTime,
        status: Status,
        stages: Vec<BlockingType>,
    ) {
        debug_assert!(
            status != Status::NotMeasured,
            "store real measurements only"
        );
        let key = (url.host(), host_port(url));
        if !self.hosts.contains_key(&key as &dyn KeyParts) {
            self.hosts.insert(HostKey::of(url), PathTrie::new());
        }
        let trie = self
            .hosts
            .get_mut(&key as &dyn KeyParts)
            .expect("inserted above");
        let segs = Self::segs(url);

        if !self.aggregate {
            let rec = match status {
                Status::Blocked => LocalRecord::blocked(url.clone(), asn, now, stages),
                _ => LocalRecord::not_blocked(url.clone(), asn, now),
            };
            trie.insert(segs, rec);
            return;
        }

        match status {
            Status::Blocked => {
                let rec = LocalRecord::blocked(url.clone(), asn, now, stages);
                if rec.has_host_level_stage() || url.is_base() {
                    // Rule 2 (DNS/IP/SNI) and rule 1a (base blocked):
                    // one record at the base covers the host; everything
                    // else is subsumed.
                    let base_rec = LocalRecord::blocked(url.base(), asn, now, rec.stages);
                    *trie = PathTrie::new();
                    trie.insert(ROOT, base_rec);
                } else {
                    // Rule 1b: a blocked derived URL gets its own record;
                    // the base's status (if known) stays as-is.
                    trie.insert(segs, rec);
                }
            }
            Status::NotBlocked | Status::NotMeasured => {
                let governing = trie
                    .lpm(segs.clone())
                    .map(|g| (g.status, g.has_host_level_stage()));
                match governing {
                    // Fresh reachability against a *host-level* block
                    // (DNS/IP/SNI): those mechanisms key on the host, so a
                    // single successful measurement proves the whole host
                    // was whitelisted (churn Scenario A observed early).
                    Some((Status::Blocked, true)) => {
                        *trie = PathTrie::new();
                        trie.insert(ROOT, LocalRecord::not_blocked(url.base(), asn, now));
                    }
                    // Fresh reachability against an HTTP-level block:
                    // override the exact path; if an ancestor blocked
                    // record still governs, leave a specific not-blocked
                    // record so LPM resolves this subtree correctly.
                    Some((Status::Blocked, false)) => {
                        trie.remove(segs.clone());
                        let still_blocked = trie
                            .lpm(segs.clone())
                            .map(|r| r.status == Status::Blocked)
                            .unwrap_or(false);
                        if still_blocked {
                            trie.insert(segs, LocalRecord::not_blocked(url.clone(), asn, now));
                        } else {
                            trie.retain(|r| r.status == Status::Blocked);
                            if trie.get(ROOT).is_none() {
                                trie.insert(ROOT, LocalRecord::not_blocked(url.base(), asn, now));
                            }
                        }
                    }
                    // Rule 1c: a URL found uncensored collapses to a
                    // single not-blocked record at the base — but more
                    // specific *blocked* records must survive (rules b+c
                    // collectively; that's why lookup uses LPM).
                    _ => {
                        trie.retain(|r| r.status == Status::Blocked);
                        if trie.get(ROOT).is_none() {
                            trie.insert(ROOT, LocalRecord::not_blocked(url.base(), asn, now));
                        }
                    }
                }
            }
        }
    }

    /// Total records stored (Fig. 6b's metric).
    pub fn record_count(&self) -> usize {
        self.hosts.values().map(PathTrie::len).sum()
    }

    /// Drop expired records entirely (periodic housekeeping; lookups
    /// already treat them as not-measured).
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        let ttl = self.ttl;
        let mut removed = 0;
        self.hosts.retain(|_, trie| {
            removed += trie.retain(|r| r.is_live(now, ttl));
            !trie.is_empty()
        });
        removed
    }

    /// All live blocked records (for analytics/tests).
    pub fn blocked_records(&self, now: SimTime) -> Vec<LocalRecord> {
        let mut out = Vec::new();
        for trie in self.hosts.values() {
            trie.for_each(&mut |r| {
                if r.status == Status::Blocked && r.is_live(now, self.ttl) {
                    out.push(r.clone());
                }
            });
        }
        out.sort_by(|a, b| a.url.cmp(&b.url));
        out
    }

    /// Encode the database for persistence across client restarts. The
    /// host map serializes as a pair list sorted by (host, port) — JSON
    /// map keys must be strings, and sorting keeps snapshots
    /// deterministic.
    pub fn to_json(&self) -> JsonValue {
        let mut pairs: Vec<(String, Option<u16>, &PathTrie)> = self
            .hosts
            .iter()
            .map(|(k, trie)| (k.host.to_string(), k.port, trie))
            .collect();
        pairs.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        let hosts = pairs
            .into_iter()
            .map(|(host, port, trie)| {
                let mut key = JsonValue::obj();
                key.set("host", host);
                match port {
                    Some(p) => key.set("port", u64::from(p)),
                    None => key.set("port", JsonValue::Null),
                }
                JsonValue::Arr(vec![key, trie.to_json()])
            })
            .collect::<Vec<_>>();
        let mut v = JsonValue::obj();
        v.set("aggregate", self.aggregate);
        v.set("ttl_us", self.ttl.as_micros());
        v.set("hosts", hosts);
        v
    }

    /// [`LocalDb::to_json`] as a string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// Decode a persisted database.
    pub fn from_json(v: &JsonValue) -> Option<LocalDb> {
        let aggregate = v.get("aggregate")?.as_bool()?;
        let ttl = SimDuration::from_micros(v.get("ttl_us")?.as_u64()?);
        let mut hosts = HashMap::new();
        for pair in v.get("hosts")?.as_arr()? {
            let [key, trie] = pair.as_arr()? else {
                return None;
            };
            let host = Host::parse(key.get("host")?.as_str()?).ok()?;
            let port = match key.get("port")? {
                JsonValue::Null => None,
                p => Some(u16::try_from(p.as_u64()?).ok()?),
            };
            hosts.insert(HostKey { host, port }, PathTrie::from_json(trie)?);
        }
        Some(LocalDb {
            hosts,
            aggregate,
            ttl,
        })
    }

    /// Parse and decode a persisted database from JSON text. Garbage is
    /// the store's unified [`StoreError::Corrupt`], never a panic.
    pub fn from_json_str(s: &str) -> Result<LocalDb, StoreError> {
        let v = JsonValue::parse(s)
            .map_err(|e| StoreError::Corrupt(format!("local DB snapshot: {e}")))?;
        LocalDb::from_json(&v)
            .ok_or_else(|| StoreError::Corrupt("malformed local DB snapshot".to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn db() -> LocalDb {
        LocalDb::new(SimDuration::from_secs(3600))
    }

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn unknown_is_not_measured() {
        let d = db();
        let l = d.lookup(&url("http://foo.com/x"), T0);
        assert_eq!(l.status, Status::NotMeasured);
        assert!(l.record.is_none());
    }

    #[test]
    fn rule_1a_base_blocked_covers_derived() {
        let mut d = db();
        d.record_measurement(
            &url("http://www.foo.com/"),
            Asn(1),
            T0,
            Status::Blocked,
            vec![BlockingType::HttpBlockPageRedirect],
        );
        assert_eq!(d.record_count(), 1);
        assert_eq!(
            d.lookup(&url("http://www.foo.com/a.html"), T0).status,
            Status::Blocked
        );
        assert_eq!(
            d.lookup(&url("http://www.foo.com/deep/b.html"), T0).status,
            Status::Blocked
        );
    }

    #[test]
    fn rule_1b_derived_blocked_is_specific() {
        let mut d = db();
        d.record_measurement(
            &url("http://foo.com/banned/page"),
            Asn(1),
            T0,
            Status::Blocked,
            vec![BlockingType::HttpDrop],
        );
        assert_eq!(
            d.lookup(&url("http://foo.com/banned/page"), T0).status,
            Status::Blocked
        );
        // Its descendants inherit via LPM...
        assert_eq!(
            d.lookup(&url("http://foo.com/banned/page/sub"), T0).status,
            Status::Blocked
        );
        // ...but the base and siblings are unknown.
        assert_eq!(
            d.lookup(&url("http://foo.com/"), T0).status,
            Status::NotMeasured
        );
        assert_eq!(
            d.lookup(&url("http://foo.com/other"), T0).status,
            Status::NotMeasured
        );
    }

    #[test]
    fn rule_1c_unblocked_collapses_to_base_keeping_blocked() {
        let mut d = db();
        d.record_measurement(
            &url("http://foo.com/banned"),
            Asn(1),
            T0,
            Status::Blocked,
            vec![BlockingType::HttpDrop],
        );
        // Now several pages found fine.
        for p in ["/a", "/b/c", "/d"] {
            d.record_measurement(
                &url(&format!("http://foo.com{p}")),
                Asn(1),
                T0,
                Status::NotBlocked,
                vec![],
            );
        }
        // One base record + one blocked derived record.
        assert_eq!(d.record_count(), 2);
        assert_eq!(
            d.lookup(&url("http://foo.com/a"), T0).status,
            Status::NotBlocked
        );
        assert_eq!(
            d.lookup(&url("http://foo.com/banned"), T0).status,
            Status::Blocked,
            "blocked derived record must survive unblocked collapsing"
        );
        assert_eq!(
            d.lookup(&url("http://foo.com/banned/x"), T0).status,
            Status::Blocked
        );
    }

    #[test]
    fn rule_2_host_level_blocking_single_record() {
        let mut d = db();
        // A derived URL found DNS-blocked aggregates to the base.
        d.record_measurement(
            &url("http://video.foo.com/watch/abc"),
            Asn(1),
            T0,
            Status::Blocked,
            vec![BlockingType::DnsHijack],
        );
        assert_eq!(d.record_count(), 1);
        assert_eq!(
            d.lookup(&url("http://video.foo.com/"), T0).status,
            Status::Blocked
        );
        assert_eq!(
            d.lookup(&url("http://video.foo.com/anything"), T0).status,
            Status::Blocked
        );
    }

    #[test]
    fn scheme_insensitive_keys() {
        let mut d = db();
        d.record_measurement(
            &url("http://foo.com/"),
            Asn(1),
            T0,
            Status::Blocked,
            vec![BlockingType::HttpDrop],
        );
        assert_eq!(
            d.lookup(&url("https://foo.com/"), T0).status,
            Status::Blocked,
            "https lookup hits the same record"
        );
        // But an explicit odd port is a different key.
        assert_eq!(
            d.lookup(&url("http://foo.com:8080/"), T0).status,
            Status::NotMeasured
        );
    }

    #[test]
    fn expiry_reads_as_not_measured_and_purges() {
        let mut d = LocalDb::new(SimDuration::from_secs(100));
        d.record_measurement(
            &url("http://foo.com/"),
            Asn(1),
            T0,
            Status::Blocked,
            vec![BlockingType::HttpDrop],
        );
        let later = SimTime::from_secs(101);
        assert_eq!(
            d.lookup(&url("http://foo.com/"), later).status,
            Status::NotMeasured
        );
        assert_eq!(d.record_count(), 1, "record still stored");
        let purged = d.purge_expired(later);
        assert_eq!(purged, 1);
        assert_eq!(d.record_count(), 0);
    }

    #[test]
    fn non_aggregating_stores_everything() {
        let mut d = LocalDb::without_aggregation(SimDuration::from_secs(3600));
        for p in ["/", "/a", "/b", "/a/c"] {
            d.record_measurement(
                &url(&format!("http://foo.com{p}")),
                Asn(1),
                T0,
                Status::NotBlocked,
                vec![],
            );
        }
        assert_eq!(d.record_count(), 4);
        // Exact-match lookup: derived URL without its own record is
        // unknown even though the base is recorded.
        assert_eq!(
            d.lookup(&url("http://foo.com/zzz"), T0).status,
            Status::NotMeasured
        );
    }

    #[test]
    fn aggregation_saves_records_vs_baseline() {
        let mut agg = db();
        let mut raw = LocalDb::without_aggregation(SimDuration::from_secs(3600));
        // A browse session: 20 pages on one unblocked site.
        for i in 0..20 {
            let u = url(&format!("http://news.example/story/{i}"));
            agg.record_measurement(&u, Asn(1), T0, Status::NotBlocked, vec![]);
            raw.record_measurement(&u, Asn(1), T0, Status::NotBlocked, vec![]);
        }
        assert_eq!(agg.record_count(), 1);
        assert_eq!(raw.record_count(), 20);
    }

    #[test]
    fn rehit_after_block_update_refreshes_base() {
        let mut d = db();
        // DNS blocking first...
        d.record_measurement(
            &url("http://x.com/p"),
            Asn(1),
            T0,
            Status::Blocked,
            vec![BlockingType::DnsNxdomain],
        );
        // ...then the censor whitelists; after expiry remeasurement says fine.
        d.record_measurement(
            &url("http://x.com/p"),
            Asn(2),
            SimTime::from_secs(10),
            Status::NotBlocked,
            vec![],
        );
        assert_eq!(
            d.lookup(&url("http://x.com/q"), SimTime::from_secs(10))
                .status,
            Status::NotBlocked
        );
        assert_eq!(d.record_count(), 1);
        let rec = d
            .lookup(&url("http://x.com/q"), SimTime::from_secs(10))
            .record
            .unwrap();
        assert_eq!(rec.asn, Asn(2));
    }
}
