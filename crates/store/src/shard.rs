//! The in-memory sharded store: lock-striped record shards and one
//! blocked-list cache.
//!
//! The URL×ASN keyspace is split across N shards by the stable FNV key
//! hash ([`crate::hash`]). Each shard holds its slice of the records
//! behind its own `RwLock`, so writers on different shards — and all
//! readers — proceed in parallel; there is **no global lock anywhere**
//! on the ingest or lookup path. Within a shard the records are
//! partitioned by AS — AS → (URL, AS) key → record — so an AS's blocked
//! list costs that AS's records, not the whole shard's; a partition
//! exists only while it holds a record.
//!
//! Ingestion builds a `BatchPlan` before any lock is taken: every
//! report is sanitized (its URL checked, not built), its (URL, AS) key
//! built once by the vote ledger — the URL interned as an `Arc<str>`
//! and hashed once with the ledger's keyed SipHash — its
//! [`GlobalRecord`] fully constructed, and the whole batch stably
//! sorted by (destination shard, AS). The lock phase then walks the
//! plan run by run — each touched shard's write lock is acquired
//! exactly once per batch and each touched partition looked up once per
//! (shard, AS) run, and because the vote ledger stripes with the same
//! FNV hash, the same shard runs drive the ledger's grouped update (see
//! [`crate::ledger`] for the lock-order discipline and the key layout).
//! The plan is the batch's arena: the key backs the record map, the
//! client's report set, and the voter index, so the per-report cost is
//! reference counts, not string copies, and no map re-hashes a URL when
//! it grows.
//!
//! Reads are served from one store-wide cache keyed on (confidence
//! filter, AS), a map behind its own `RwLock` that holds each finished,
//! URL-sorted blocked list. An entry is valid while the ledger's vote
//! epoch and every shard's write generation are unchanged; all of them
//! are read before a list is built, so a stale list is never served — a
//! racing miss only changes who pays the rebuild. A hit holds the read
//! lock for one lookup and clones the list. A miss, with no cache lock
//! held, walks the AS's partition in every shard, tallying each
//! partition's keys in one ledger pass (one read of the shard's key
//! stripe, which is the record shard by construction, and one per
//! client stripe), appends the passing records to one list and sorts it
//! once by URL; it then inserts the list under the write lock. A write
//! to any one shard the list spans rebuilds the whole list.

use crate::backend::StorageBackend;
use crate::batch::{Batch, IngestReceipt};
use crate::error::StoreError;
use crate::ledger::{ConfidenceFilter, Key, KeyMap, Tally, VoteLedger};
use crate::record::{GlobalRecord, Uuid};
use csaw_obs::contention::{RwStats, TimedRwLock};
use csaw_obs::metrics::{Counter, Gauge, Histogram};
use csaw_obs::timeseries::Timeline;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Distinct confidence filters the store caches lists for before its
/// cache is reset — the deployed system sees a handful, so this bound
/// only guards against pathological filter churn. It does not bound
/// ASes: a filter keeps one list per AS, at most a copy of the store's
/// records.
const CACHE_FILTER_CAP: usize = 64;

/// Confidence-filter cache key → AS → blocked list.
type CacheMap = HashMap<(usize, u64), HashMap<Asn, CacheEntry>>;
/// AS → (URL, AS) key → record.
type Partitions = HashMap<Asn, KeyMap<GlobalRecord>>;

/// One AS's blocked list under one filter, and the markers it was
/// built under.
#[derive(Debug)]
struct CacheEntry {
    epoch: u64,
    /// Every shard's write generation, in shard order.
    generations: Box<[u64]>,
    records: Arc<Vec<GlobalRecord>>,
}

#[derive(Debug)]
struct Shard {
    records: TimedRwLock<Partitions>,
    /// Bumped after every mutation of `records`.
    generation: AtomicU64,
}

impl Shard {
    /// All shards share one `store.shard.records` stats family —
    /// contention is a property of the store, not of a single stripe
    /// (stats are `None` when perf attribution is off).
    fn new(records: Option<Arc<RwStats>>) -> Shard {
        Shard {
            records: TimedRwLock::with_stats(records, Partitions::new()),
            generation: AtomicU64::new(0),
        }
    }
}

/// Pre-resolved metric handles: the ingest path must not take the
/// registry mutex per batch. Resolved once from the observability scope
/// that is current when the store is built.
#[derive(Debug)]
struct StoreMetrics {
    batches: Arc<Counter>,
    accepted: Arc<Counter>,
    rejected: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    records: Arc<Gauge>,
    batch_size: Arc<Histogram>,
    shard_records: Vec<Arc<Gauge>>,
    /// The windowed timeline of the context that built the store —
    /// captured here (like the metric handles) so worker threads
    /// ingesting on behalf of this store feed the right timeline.
    timeline: Arc<Timeline>,
}

impl StoreMetrics {
    fn resolve(shards: usize) -> StoreMetrics {
        let reg = &csaw_obs::current().registry;
        StoreMetrics {
            batches: reg.counter("store.ingest.batches"),
            accepted: reg.counter("store.ingest.accepted"),
            rejected: reg.counter("store.ingest.rejected"),
            cache_hits: reg.counter("store.cache.hits"),
            cache_misses: reg.counter("store.cache.misses"),
            records: reg.gauge("store.records"),
            batch_size: reg.histogram("store.ingest.batch_size"),
            shard_records: (0..shards)
                .map(|i| reg.gauge(&format!("store.shard.{i:02}.records")))
                .collect(),
            timeline: csaw_obs::current().timeline.clone(),
        }
    }
}

/// One planned, sanitized batch: everything ingest needs, built before
/// any lock is taken. Entries are stably sorted by (destination shard,
/// AS) so the lock phase walks contiguous runs.
struct BatchPlan {
    /// `(shard, key, record)` in batch order within each (shard, AS) run.
    entries: Vec<(u32, Key, GlobalRecord)>,
    rejected_indices: Vec<usize>,
}

impl BatchPlan {
    /// Plan `batch` for a store striped like `ledger`, whose
    /// [`VoteLedger::key`] builds (and hashes) every key.
    fn build(batch: &Batch, ledger: &VoteLedger) -> BatchPlan {
        let mut entries: Vec<(u32, Key, GlobalRecord)> = Vec::with_capacity(batch.len());
        let mut rejected_indices = Vec::new();
        for (idx, r) in batch.reports().iter().enumerate() {
            if !Batch::storable(r) {
                rejected_indices.push(idx);
                continue;
            }
            // The key's URL is the one string this report interns: it is
            // shared by the record map, the ledger's client set and the
            // voter index, and hashed once for all three. (The record
            // itself keeps an owned String so `GlobalRecord` stays a
            // plain wire-friendly value type.)
            let asn = Asn(r.asn);
            let key = ledger.key(&r.url, asn);
            let record = GlobalRecord {
                url: r.url.clone(),
                asn,
                measured_at: SimTime::from_micros(r.measured_at_us),
                stages: r.stages.clone(),
                posted_at: batch.posted_at,
                reporter: batch.client,
            };
            entries.push((ledger.stripe(&key) as u32, key, record));
        }
        // Stable: within a (shard, AS) run, batch order is preserved, so
        // a duplicate key later in the batch overwrites the earlier one
        // exactly as a per-report loop would.
        entries.sort_by_key(|(s, _, r)| (*s, r.asn));
        BatchPlan {
            entries,
            rejected_indices,
        }
    }

    fn accepted(&self) -> usize {
        self.entries.len()
    }
}

/// The in-memory sharded measurement store.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Box<[Shard]>,
    ledger: VoteLedger,
    /// Blocked-list cache (see the module docs). A plain `RwLock`, not a
    /// `TimedRwLock`: a new lock family would change the seed-pure lock
    /// counts that
    /// `scale::tests::each_batch_takes_each_write_lock_once_at_every_thread_count`
    /// pins.
    cache: RwLock<CacheMap>,
    metrics: StoreMetrics,
    /// Live record count maintained by delta at every mutation, so
    /// `record_count` is one atomic load — the per-batch gauge update
    /// used to take every shard's read lock and dominated read-side
    /// contention at 8 writers.
    live_records: AtomicI64,
}

impl ShardedStore {
    /// A store striped `shards` ways. Errors on zero shards rather than
    /// panicking later on the ingest path.
    pub fn new(shards: usize) -> Result<ShardedStore, StoreError> {
        if shards == 0 {
            return Err(StoreError::InvalidConfig("shard count must be >= 1"));
        }
        let record_stats = RwStats::resolve("store.shard.records");
        Ok(ShardedStore {
            shards: (0..shards)
                .map(|_| Shard::new(record_stats.clone()))
                .collect(),
            ledger: VoteLedger::with_shards(shards),
            cache: RwLock::new(CacheMap::new()),
            metrics: StoreMetrics::resolve(shards),
            live_records: AtomicI64::new(0),
        })
    }

    /// Drop every record `keep` turns down, shard by shard, and every
    /// partition left empty; returns how many records went.
    fn retain_records(&self, keep: impl Fn(&GlobalRecord) -> bool) -> usize {
        let mut removed = 0usize;
        for (i, shard) in self.shards.iter().enumerate() {
            let mut gone = 0usize;
            shard.records.write().retain(|_, part| {
                let before = part.len();
                part.retain(|_, r| keep(r));
                gone += before - part.len();
                !part.is_empty()
            });
            if gone > 0 {
                shard.generation.fetch_add(1, Ordering::AcqRel);
                self.apply_record_delta(i, -(gone as i64));
                removed += gone;
            }
        }
        removed
    }

    /// Every shard's write generation, in shard order.
    fn generations(&self) -> impl Iterator<Item = u64> + '_ {
        self.shards
            .iter()
            .map(|s| s.generation.load(Ordering::Acquire))
    }

    /// `asn`'s records whose tallies pass `filter`, from every shard,
    /// sorted by URL. A URL is unique within one AS, so the unstable
    /// sort's order is the only order.
    fn build_list(&self, asn: Asn, filter: &ConfidenceFilter) -> Vec<GlobalRecord> {
        let mut out: Vec<GlobalRecord> = Vec::new();
        for (idx, shard) in self.shards.iter().enumerate() {
            let recs = shard.records.read();
            let Some(part) = recs.get(&asn) else {
                continue;
            };
            let tallies = self.ledger.tally_keys(idx, part.keys());
            out.extend(
                part.values()
                    .zip(tallies)
                    .filter(|(_, t)| filter.passes(t))
                    .map(|(r, _)| r.clone()),
            );
        }
        out.sort_unstable_by(|a, b| a.url.cmp(&b.url));
        out
    }

    fn apply_record_delta(&self, shard_idx: usize, delta: i64) {
        if delta != 0 {
            self.live_records.fetch_add(delta, Ordering::AcqRel);
            self.metrics.shard_records[shard_idx].add(delta);
            self.metrics.records.add(delta);
        }
    }
}

impl StorageBackend for ShardedStore {
    fn ingest(&self, batch: &Batch) -> Result<IngestReceipt, StoreError> {
        debug_assert_eq!(self.shards.len(), self.ledger.key_stripes());
        // Phase 0, lock-free: sanitize, intern, hash, construct and group.
        let plan = BatchPlan::build(batch, &self.ledger);
        let accepted = plan.accepted();
        // Phase 1: records, one write acquisition per touched shard.
        // The plan is consumed run by run; keys survive (Arc clones)
        // into the ledger phase, still grouped — the ledger stripes
        // with the same hash and stripe count.
        let mut ledger_keys: Vec<(u32, Key)> = Vec::with_capacity(accepted);
        // Windowed health series, collected lock-free while the plan is
        // consumed and recorded after the lock phase. `track` is false
        // whenever no timeline is configured, which keeps the ingest
        // hot path free of the extra bookkeeping.
        let track = self.metrics.timeline.enabled();
        let mut touched_shards: Vec<u32> = Vec::new();
        let mut per_as: BTreeMap<u32, (u64, Vec<u64>)> = BTreeMap::new();
        let mut it = plan.entries.into_iter().peekable();
        while let Some(s) = it.peek().map(|(s, _, _)| *s) {
            let shard = &self.shards[s as usize];
            let mut delta = 0i64;
            if track {
                touched_shards.push(s);
            }
            {
                let mut recs = shard.records.write();
                while let Some(asn) = it.peek().filter(|e| e.0 == s).map(|e| e.2.asn) {
                    let part = recs.entry(asn).or_default();
                    while it.peek().is_some_and(|e| e.0 == s && e.2.asn == asn) {
                        let (_, key, record) = it.next().expect("peeked entry exists");
                        ledger_keys.push((s, key.clone()));
                        if track {
                            let staleness = record
                                .posted_at
                                .as_micros()
                                .saturating_sub(record.measured_at.as_micros());
                            let e = per_as.entry(asn.0).or_default();
                            e.0 += 1;
                            e.1.push(staleness);
                        }
                        if part.insert(key, record).is_none() {
                            delta += 1;
                        }
                    }
                }
            }
            shard.generation.fetch_add(1, Ordering::AcqRel);
            self.apply_record_delta(s as usize, delta);
        }
        // Phase 2: votes, one write acquisition per touched stripe.
        self.ledger
            .add_client_keys_grouped(batch.client, ledger_keys);
        self.metrics.batches.inc();
        self.metrics.accepted.add(accepted as u64);
        self.metrics.rejected.add((batch.len() - accepted) as u64);
        self.metrics.batch_size.observe_us(batch.len() as u64);
        if track {
            let tl = &self.metrics.timeline;
            for s in touched_shards {
                tl.counter("store.ingest.batches", &[("shard", &format!("{s:02}"))])
                    .inc();
            }
            for (asn, (n, staleness)) in per_as {
                let asl = asn.to_string();
                tl.counter("store.ingest.accepted", &[("asn", &asl)]).add(n);
                let h = tl.hist("store.ingest.staleness_us", &[("asn", &asl)]);
                for st in staleness {
                    h.observe_us(st);
                }
            }
        }
        Ok(IngestReceipt {
            accepted,
            rejected: batch.len() - accepted,
            rejected_indices: plan.rejected_indices,
            deferred_indices: Vec::new(),
        })
    }

    /// Served from the store's list cache (see the module docs): a hit
    /// is one clone of the cached list; a miss rebuilds it from `asn`'s
    /// partition in every shard, sorts it once and caches it.
    fn blocked_for_as(
        &self,
        asn: Asn,
        filter: &ConfidenceFilter,
    ) -> Result<Vec<GlobalRecord>, StoreError> {
        let fk = filter.cache_key();
        // Read validity markers *before* building: a write landing
        // mid-build leaves the entry marked stale, so the worst case is
        // an extra rebuild, never a stale serve.
        let epoch = self.ledger.epoch();
        // A poisoned cache is still a valid cache: every entry is
        // checked against its markers before it is served.
        let hit = self
            .cache
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&fk)
            .and_then(|by_as| by_as.get(&asn))
            .filter(|e| e.epoch == epoch && e.generations.iter().copied().eq(self.generations()))
            .map(|e| Arc::clone(&e.records));
        // Hits and misses count one per shard the list spans, the scale
        // `store.cache.*` is pinned at in the golden manifest.
        if let Some(records) = hit {
            self.metrics.cache_hits.add(self.shards.len() as u64);
            return Ok(records.as_ref().clone());
        }
        self.metrics.cache_misses.add(self.shards.len() as u64);
        let generations = self.generations().collect();
        let records = self.build_list(asn, filter);
        let out = records.clone();
        // A racing miss on the same key may overwrite this entry with an
        // older one; its only cost is a rebuild on the next read.
        let mut cache = self.cache.write().unwrap_or_else(PoisonError::into_inner);
        if !cache.contains_key(&fk) && cache.len() >= CACHE_FILTER_CAP {
            cache.clear();
        }
        cache.entry(fk).or_default().insert(
            asn,
            CacheEntry {
                epoch,
                generations,
                records: Arc::new(records),
            },
        );
        Ok(out)
    }

    fn tally(&self, url: &str, asn: Asn) -> Tally {
        self.ledger.tally(url, asn)
    }

    fn revoke(&self, client: Uuid) {
        self.ledger.revoke(client);
    }

    fn remove_reporter_records(&self, client: Uuid) -> usize {
        self.retain_records(|r| r.reporter != client)
    }

    fn expire_records(&self, now: SimTime, max_age: SimDuration) -> usize {
        self.retain_records(|r| now.duration_since(r.posted_at) < max_age)
    }

    fn record_count(&self) -> usize {
        self.live_records.load(Ordering::Acquire).max(0) as usize
    }

    fn for_each_record(&self, f: &mut dyn FnMut(&GlobalRecord)) {
        for shard in self.shards.iter() {
            let recs = shard.records.read();
            for r in recs.values().flat_map(KeyMap::values) {
                f(r);
            }
        }
    }

    fn ledger(&self) -> &VoteLedger {
        &self.ledger
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Report;
    use csaw_censor::blocking::BlockingType;
    use csaw_obs::scope::{self, ObsCtx};

    fn report(url: &str, asn: u32) -> Report {
        Report {
            url: url.into(),
            asn,
            measured_at_us: 1,
            stages: vec![BlockingType::HttpDrop],
        }
    }

    fn batch(client: u64, urls: &[&str], asn: u32, t: u64) -> Batch {
        Batch::new(
            Uuid::from_raw(client),
            urls.iter().map(|u| report(u, asn)).collect(),
            SimTime::from_secs(t),
        )
    }

    #[test]
    fn ingest_sanitizes_and_counts() {
        let s = ShardedStore::new(4).unwrap();
        let mut b = batch(1, &["http://a.com/", "http://b.com/"], 1, 5);
        b = Batch::new(
            b.client,
            b.reports()
                .iter()
                .cloned()
                .chain([report("not a url", 1)])
                .collect(),
            b.posted_at,
        );
        let r = s.ingest(&b).unwrap();
        assert_eq!(
            r,
            IngestReceipt {
                accepted: 2,
                rejected: 1,
                rejected_indices: vec![2],
                deferred_indices: vec![],
            }
        );
        assert_eq!(s.record_count(), 2);
        assert_eq!(s.tally("http://a.com/", Asn(1)).n, 1);
    }

    #[test]
    fn duplicate_key_in_one_batch_keeps_the_later_report() {
        // The plan's stable sort must preserve batch order within a
        // shard run: the second report for the same (URL, AS) wins.
        let s = ShardedStore::new(4).unwrap();
        let b = Batch::new(
            Uuid::from_raw(1),
            vec![
                Report {
                    measured_at_us: 11,
                    ..report("http://dup.com/", 1)
                },
                Report {
                    measured_at_us: 22,
                    ..report("http://dup.com/", 1)
                },
            ],
            SimTime::from_secs(1),
        );
        assert_eq!(s.ingest(&b).unwrap().accepted, 2);
        assert_eq!(s.record_count(), 1);
        let mut seen = Vec::new();
        s.for_each_record(&mut |r| seen.push(r.measured_at));
        assert_eq!(seen, [SimTime::from_micros(22)]);
    }

    #[test]
    fn zero_shards_is_a_config_error_not_a_panic() {
        assert_eq!(
            ShardedStore::new(0).unwrap_err(),
            StoreError::InvalidConfig("shard count must be >= 1")
        );
    }

    #[test]
    fn blocked_view_is_sorted_and_filtered() {
        let s = ShardedStore::new(16).unwrap();
        for (c, url) in [
            (1, "http://z.com/"),
            (2, "http://a.com/"),
            (3, "http://m.com/"),
        ] {
            s.ingest(&batch(c, &[url], 9, 1)).unwrap();
        }
        let v = s
            .blocked_for_as(Asn(9), &ConfidenceFilter::default())
            .unwrap();
        let urls: Vec<&str> = v.iter().map(|r| r.url.as_str()).collect();
        assert_eq!(urls, ["http://a.com/", "http://m.com/", "http://z.com/"]);
        assert!(s
            .blocked_for_as(Asn(1), &ConfidenceFilter::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn cache_hits_until_invalidated_by_write_or_vote_change() {
        let ctx = Arc::new(ObsCtx::new());
        let _g = scope::install(ctx.clone());
        let s = ShardedStore::new(2).unwrap();
        s.ingest(&batch(1, &["http://a.com/"], 1, 1)).unwrap();
        let f = ConfidenceFilter::default();
        let misses = || ctx.registry.counter("store.cache.misses").get();
        let hits = || ctx.registry.counter("store.cache.hits").get();
        s.blocked_for_as(Asn(1), &f).unwrap(); // cold: 2 shard misses
        assert_eq!((misses(), hits()), (2, 0));
        s.blocked_for_as(Asn(1), &f).unwrap(); // warm: 2 shard hits
        assert_eq!((misses(), hits()), (2, 2));
        // A write invalidates (vote epoch moved: every shard recomputes).
        s.ingest(&batch(2, &["http://b.com/"], 1, 2)).unwrap();
        s.blocked_for_as(Asn(1), &f).unwrap();
        assert_eq!(misses(), 4);
        // Revocation moves the vote epoch too.
        s.blocked_for_as(Asn(1), &f).unwrap();
        let h0 = hits();
        s.revoke(Uuid::from_raw(2));
        s.blocked_for_as(Asn(1), &f).unwrap();
        assert_eq!(hits(), h0, "post-revoke read must not be served from cache");
        // The same client re-posting a key it holds moves no vote, so the
        // epoch stays put, but its shard's generation moves: the next
        // read rebuilds and serves the later measurement.
        let generations = || s.generations().collect::<Vec<u64>>();
        let (e0, g0, m0) = (s.ledger.epoch(), generations(), misses());
        let repost = Report {
            measured_at_us: 7,
            ..report("http://a.com/", 1)
        };
        s.ingest(&Batch::new(
            Uuid::from_raw(1),
            vec![repost],
            SimTime::from_secs(3),
        ))
        .unwrap();
        assert_eq!(s.ledger.epoch(), e0);
        let moved = generations()
            .iter()
            .zip(&g0)
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(moved, 1);
        let v = s.blocked_for_as(Asn(1), &f).unwrap();
        assert_eq!(misses(), m0 + 2);
        let got: Vec<(&str, SimTime)> = v.iter().map(|r| (r.url.as_str(), r.measured_at)).collect();
        assert_eq!(got, [("http://a.com/", SimTime::from_micros(7))]);
    }

    #[test]
    fn filters_that_pass_alike_share_one_cache_entry() {
        let ctx = Arc::new(ObsCtx::new());
        let _g = scope::install(ctx.clone());
        let s = ShardedStore::new(2).unwrap();
        s.ingest(&batch(1, &["http://a.com/"], 1, 1)).unwrap();
        let counts = || {
            let reg = &ctx.registry;
            (
                reg.counter("store.cache.hits").get(),
                reg.counter("store.cache.misses").get(),
            )
        };
        // Every `min_avg_vote <= 0.0` ignores vote mass.
        s.blocked_for_as(Asn(1), &ConfidenceFilter::strict(1, 0.0))
            .unwrap();
        assert_eq!(counts(), (0, 2));
        s.blocked_for_as(Asn(1), &ConfidenceFilter::strict(1, -0.0))
            .unwrap();
        assert_eq!(counts(), (2, 2));
        s.blocked_for_as(Asn(1), &ConfidenceFilter::strict(1, -3.0))
            .unwrap();
        assert_eq!(counts(), (4, 2));
    }

    #[test]
    fn cache_keeps_every_as_and_resets_on_a_new_filter_past_the_cap() {
        let ctx = Arc::new(ObsCtx::new());
        let _g = scope::install(ctx.clone());
        let s = ShardedStore::new(2).unwrap();
        for asn in 0..100u32 {
            s.ingest(&batch(asn.into(), &["http://a.com/"], asn, 1))
                .unwrap();
        }
        let counts = || {
            let reg = &ctx.registry;
            (
                reg.counter("store.cache.hits").get(),
                reg.counter("store.cache.misses").get(),
            )
        };
        let f = ConfidenceFilter::default();
        let pass = || {
            for asn in 0..100 {
                s.blocked_for_as(Asn(asn), &f).unwrap();
            }
        };
        pass();
        assert_eq!(counts(), (0, 200));
        // A second pass with no write between: every shard read hits.
        pass();
        assert_eq!(counts(), (200, 200));
        // 64 distinct filters (the default is `strict(1, 0.0)`) fit...
        for k in 2..=64 {
            s.blocked_for_as(Asn(0), &ConfidenceFilter::strict(k, 0.0))
                .unwrap();
        }
        s.blocked_for_as(Asn(5), &f).unwrap();
        assert_eq!(counts(), (202, 200 + 2 * 63));
        // ...and a 65th resets the cache.
        s.blocked_for_as(Asn(0), &ConfidenceFilter::strict(65, 0.0))
            .unwrap();
        s.blocked_for_as(Asn(5), &f).unwrap();
        assert_eq!(counts(), (202, 200 + 2 * 63 + 4));
    }

    #[test]
    fn an_emptied_partition_goes_and_a_later_ingest_is_served() {
        let s = ShardedStore::new(4).unwrap();
        s.ingest(&batch(1, &["http://a.com/", "http://b.com/"], 7, 10))
            .unwrap();
        s.ingest(&batch(2, &["http://c.com/"], 8, 90)).unwrap();
        let partitions = |asn: u32| -> usize {
            s.shards
                .iter()
                .filter(|sh| sh.records.read().contains_key(&Asn(asn)))
                .count()
        };
        let urls = |asn: u32| -> Vec<String> {
            s.blocked_for_as(Asn(asn), &ConfidenceFilter::default())
                .unwrap()
                .into_iter()
                .map(|r| r.url)
                .collect()
        };
        assert_eq!(urls(7), ["http://a.com/", "http://b.com/"]);
        assert!(partitions(7) >= 1);
        // Removing AS 7's last records drops its partitions.
        assert_eq!(s.remove_reporter_records(Uuid::from_raw(1)), 2);
        assert_eq!(partitions(7), 0);
        assert!(urls(7).is_empty());
        // So does expiring AS 8's last record.
        assert_eq!(urls(8), ["http://c.com/"]);
        assert_eq!(
            s.expire_records(SimTime::from_secs(200), SimDuration::from_secs(50)),
            1
        );
        assert_eq!((partitions(8), s.record_count()), (0, 0));
        assert!(urls(8).is_empty());
        // A later ingest into AS 7 builds a partition and is served.
        s.ingest(&batch(3, &["http://d.com/"], 7, 300)).unwrap();
        assert_eq!(partitions(7), 1);
        assert_eq!(urls(7), ["http://d.com/"]);
    }

    #[test]
    fn ingest_feeds_windowed_health_series() {
        use csaw_obs::timeseries::WindowCfg;
        use csaw_obs::SloSet;
        let ctx = Arc::new(ObsCtx::new());
        ctx.timeline.configure(WindowCfg {
            window_us: 1_000_000,
            retain: 8,
            slos: Arc::new(SloSet::empty()),
        });
        let _g = scope::install(ctx.clone());
        let s = ShardedStore::new(4).unwrap();
        // Two ASes in one batch; posted_at = 5 s, measured_at = 1 µs.
        let b = Batch::new(
            Uuid::from_raw(1),
            vec![report("http://a.com/", 1), report("http://b.com/", 2)],
            SimTime::from_secs(5),
        );
        s.ingest(&b).unwrap();
        ctx.flush_timeline();
        let f = &ctx.timeline.recent_frames()[0];
        assert_eq!(f.family_count("store.ingest.accepted"), 2);
        assert_eq!(f.series["store.ingest.accepted{asn=1}"].count(), Some(1));
        assert_eq!(f.series["store.ingest.accepted{asn=2}"].count(), Some(1));
        assert!(f.family_count("store.ingest.batches") >= 1);
        // Staleness digest = posted_at − measured_at ≈ 5 s.
        let stale = f.series["store.ingest.staleness_us{asn=1}"]
            .p99_us()
            .expect("staleness digest recorded");
        assert!((stale as f64 - 5e6).abs() / 5e6 < 0.05, "{stale}");
    }

    #[test]
    fn expire_and_remove_reporter_update_counts() {
        let s = ShardedStore::new(4).unwrap();
        s.ingest(&batch(1, &["http://a.com/", "http://b.com/"], 1, 10))
            .unwrap();
        s.ingest(&batch(2, &["http://c.com/"], 1, 90)).unwrap();
        assert_eq!(s.remove_reporter_records(Uuid::from_raw(1)), 2);
        assert_eq!(s.record_count(), 1);
        assert_eq!(
            s.expire_records(SimTime::from_secs(200), SimDuration::from_secs(50)),
            1
        );
        assert_eq!(s.record_count(), 0);
    }

    #[test]
    fn shard_count_independent_results() {
        let views: Vec<Vec<String>> = [1usize, 4, 16]
            .iter()
            .map(|&n| {
                let s = ShardedStore::new(n).unwrap();
                for c in 0..10u64 {
                    s.ingest(&batch(
                        c,
                        &[
                            format!("http://site-{}.com/", c % 4).as_str(),
                            format!("http://site-{}.com/", (c + 1) % 4).as_str(),
                        ],
                        1,
                        c,
                    ))
                    .unwrap();
                }
                s.blocked_for_as(Asn(1), &ConfidenceFilter::strict(2, 0.1))
                    .unwrap()
                    .iter()
                    .map(|r| r.url.clone())
                    .collect()
            })
            .collect();
        assert_eq!(views[0], views[1]);
        assert_eq!(views[1], views[2]);
        assert!(!views[0].is_empty());
    }
}
