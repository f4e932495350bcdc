//! The voting mechanism (§5 "Interfering with C-Saw measurements"),
//! sharded for concurrent ingestion.
//!
//! Each client holds **one unit of vote**, spread evenly over the `d`
//! blocked URLs it currently reports: `v_{i,j,k} = 1/d` for blocked URL
//! `j` from client AS `k`. The server keeps, per (URL, AS):
//!
//! - `s_{j,k}`: the sum of votes, and
//! - `n_{j,k}`: the number of distinct clients voting,
//!
//! as robustness estimates. Consumers distrust entries with large `n`
//! but small `s` (vote mass diluted over huge report sets — the
//! signature of spamming clients) and entries with small `n` (too few
//! independent witnesses). Inspired by PageRank, per the paper.
//!
//! ## Concurrency
//!
//! The ledger is striped two ways: client → report-set maps are sharded
//! by UUID, and the inverted (URL, AS) → voters index is sharded by the
//! stable FNV key hash. No operation ever holds locks from both families
//! at once (writers update the client side, release, then the key side),
//! so writers on different clients and readers tallying different keys
//! proceed in parallel and no lock-order deadlock exists. Between the
//! two phases of a write a tally may observe the voter on one side only;
//! the store is eventually consistent mid-batch and exact at quiescence,
//! which is what the determinism tests pin down.
//!
//! Every write path **groups its keys by destination stripe before
//! taking any lock**: a batch that touches `k` keys across `m` stripes
//! acquires `m` key-index write locks, not `k`. At deployment batch
//! sizes this collapses the `store.ledger.keys` lock traffic by the
//! mean batch size, which is what un-serializes parallel ingestion;
//! `scale::tests::each_batch_takes_each_write_lock_once_at_every_thread_count`
//! pins the count. The read side groups too: a blocked-list rebuild
//! tallies all of one shard's keys for an AS with
//! `VoteLedger::tally_keys`, one read of that stripe and one per client
//! stripe, not one per key and voter.
//!
//! ## Keys
//!
//! A (URL, AS) key is hashed **once**, by the ledger's `key`, and
//! carries that hash with it: `Key { hash, url: Arc<str>, asn }`. The
//! record map, every client's key set and the voter index all hash a key
//! by reading its `hash` field (a private pass-through hasher), so a
//! report's URL is hashed by SipHash once however many maps it lands in
//! and however often they grow, and the interned `Arc<str>` makes
//! spreading it across them reference-count bumps, not string copies.
//! The hash is keyed by a `RandomState` the ledger owns: a client cannot
//! choose URLs that collide in one bucket (§5's adversarial reporters).
//! Shard and stripe *placement* is a different hash, the stable FNV-1a
//! of [`crate::hash`], because a replayed log must land every key on the
//! same shard in every process.
//!
//! A key's voters are a `Vec<Uuid>`. Every path that adds a voter has
//! just inserted that key into the client's key set, so a (client, key)
//! pair is pushed only when it is new; removal drops every occurrence,
//! and every tally sorts its voters and sums each distinct one once, so
//! a duplicate left by a revoke racing an ingest never counts twice.
//!
//! A global *vote epoch* increments whenever any client's vote spread
//! changes (its `1/d` weights moved). The store's blocked-list cache
//! keys on it: a cached confidence-filtered list is valid only while
//! the vote epoch and every shard's write generation are unchanged.

use crate::hash::key_shard;
use crate::record::Uuid;
use csaw_obs::contention::{RwStats, TimedRwLock};
use csaw_simnet::topology::Asn;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Aggregated vote state for one (URL, AS).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Tally {
    /// Sum of votes, `s_{j,k}`.
    pub s: f64,
    /// Distinct voting clients, `n_{j,k}`.
    pub n: usize,
}

impl Tally {
    /// Average vote mass per voter (`s/n`), 0 when nobody voted.
    pub fn avg_vote(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.s / self.n as f64
        }
    }
}

/// Confidence thresholds for consuming crowdsourced measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceFilter {
    /// Minimum distinct voters.
    pub min_clients: usize,
    /// Minimum average vote per voter — guards against vote dilution by
    /// clients spraying thousands of URLs.
    pub min_avg_vote: f64,
}

impl Default for ConfidenceFilter {
    fn default() -> Self {
        ConfidenceFilter {
            min_clients: 1,
            min_avg_vote: 0.0,
        }
    }
}

impl ConfidenceFilter {
    /// A stricter filter for adversarial settings.
    pub fn strict(min_clients: usize, min_avg_vote: f64) -> ConfidenceFilter {
        ConfidenceFilter {
            min_clients,
            min_avg_vote,
        }
    }

    /// Does a tally pass this filter?
    pub fn passes(&self, t: &Tally) -> bool {
        t.n >= self.min_clients && (self.min_avg_vote <= 0.0 || t.avg_vote() >= self.min_avg_vote)
    }

    /// A stable cache key for the blocked-list cache (`f64` has no
    /// `Hash`; the bit pattern does). Filters that [`Self::passes`]
    /// treats alike share a key: every `min_avg_vote <= 0.0` ignores
    /// vote mass, so all of them key as `0.0`.
    pub(crate) fn cache_key(&self) -> (usize, u64) {
        let v = self.min_avg_vote;
        let v = if v <= 0.0 { 0.0 } else { v };
        (self.min_clients, v.to_bits())
    }
}

/// An interned, prehashed (URL, AS) vote key, built only by
/// [`VoteLedger::key`]. `Arc<str>` lets one URL allocation back the
/// record map, the client report set, and the voter index; `hash` is
/// what all three hash it by (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct Key {
    hash: u64,
    url: Arc<str>,
    asn: Asn,
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.hash == other.hash && self.asn == other.asn && self.url == other.url
    }
}

impl Eq for Key {}

/// The hasher of every map keyed by [`Key`]: it hands back the hash the
/// key already carries.
#[derive(Debug, Default)]
pub(crate) struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only a prehashed `Key` is hashed by `PassThrough`");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// A map keyed by prehashed (URL, AS) keys.
pub(crate) type KeyMap<V> = HashMap<Key, V, BuildHasherDefault<PassThrough>>;
type KeySet = HashSet<Key, BuildHasherDefault<PassThrough>>;
type ClientShard = TimedRwLock<HashMap<Uuid, KeySet>>;
type KeyIndexShard = TimedRwLock<KeyMap<Vec<Uuid>>>;

/// The server-side vote ledger, lock-striped for concurrent writers.
#[derive(Debug)]
pub struct VoteLedger {
    /// client → its current (URL, AS) report set, sharded by UUID.
    client_shards: Box<[ClientShard]>,
    /// (URL, AS) → voting clients, sharded by the FNV key hash.
    key_shards: Box<[KeyIndexShard]>,
    /// Keys the in-map hash of every [`Key`] (see the module docs).
    hasher: RandomState,
    /// Bumped whenever any client's vote spread changes.
    epoch: AtomicU64,
}

impl Default for VoteLedger {
    fn default() -> Self {
        VoteLedger::with_shards(16)
    }
}

impl VoteLedger {
    /// An empty ledger with the default stripe count.
    pub fn new() -> VoteLedger {
        VoteLedger::default()
    }

    /// An empty ledger striped `n` ways (`n` is clamped to ≥ 1).
    pub fn with_shards(n: usize) -> VoteLedger {
        let n = n.max(1);
        // Stripes share one stats family per side (clients vs. the key
        // index): contention is per-structure, not per-stripe. `None`
        // (free) unless the current scope opted into perf attribution.
        let client_stats = RwStats::resolve("store.ledger.clients");
        let key_stats = RwStats::resolve("store.ledger.keys");
        VoteLedger {
            client_shards: (0..n)
                .map(|_| TimedRwLock::with_stats(client_stats.clone(), HashMap::new()))
                .collect(),
            key_shards: (0..n)
                .map(|_| TimedRwLock::with_stats(key_stats.clone(), KeyMap::default()))
                .collect(),
            hasher: RandomState::new(),
            epoch: AtomicU64::new(0),
        }
    }

    /// The key of (`url`, `asn`), hashed: the one place a key is built,
    /// and the one SipHash of its URL.
    pub(crate) fn key(&self, url: &str, asn: Asn) -> Key {
        Key {
            hash: self.hasher.hash_one((url, asn)),
            url: Arc::from(url),
            asn,
        }
    }

    /// Number of key-index stripes (matches the store's record shards
    /// when built through [`crate::ShardedStore`], so a batch grouped by
    /// record shard is already grouped by ledger stripe).
    pub(crate) fn key_stripes(&self) -> usize {
        self.key_shards.len()
    }

    fn client_stripe(&self, c: Uuid) -> usize {
        (c.raw() % self.client_shards.len() as u64) as usize
    }

    fn client_shard(&self, c: Uuid) -> &ClientShard {
        &self.client_shards[self.client_stripe(c)]
    }

    /// The key-index stripe `key` lives in (its record shard, when built
    /// through [`crate::ShardedStore`]).
    pub(crate) fn stripe(&self, key: &Key) -> usize {
        key_shard(&key.url, key.asn, self.key_shards.len())
    }

    /// The current vote epoch (see the module docs).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Remove `client` from the voter index of every key in `removed`.
    /// Called with no client lock held. Keys are grouped by destination
    /// stripe first so each touched stripe's write lock is taken exactly
    /// once.
    fn remove_from_key_index(&self, client: Uuid, removed: KeySet) {
        let mut ops: Vec<(usize, Key)> =
            removed.into_iter().map(|k| (self.stripe(&k), k)).collect();
        ops.sort_by_key(|(s, _)| *s);
        let mut it = ops.into_iter().peekable();
        while let Some(s) = it.peek().map(|(s, _)| *s) {
            let mut shard = self.key_shards[s].write();
            while it.peek().map(|(s, _)| *s) == Some(s) {
                let (_, key) = it.next().expect("peeked entry exists");
                if let Some(voters) = shard.get_mut(&key) {
                    voters.retain(|c| *c != client);
                    if voters.is_empty() {
                        shard.remove(&key);
                    }
                }
            }
        }
    }

    /// Ingest-path fast lane: add pre-interned keys to `client`'s report
    /// set and the voter index. `keys` must be sorted by stripe index
    /// (as produced by the store's batch plan, whose record-shard
    /// grouping coincides with the ledger stripes); each run of equal
    /// indices is applied under one key-shard write acquisition.
    pub(crate) fn add_client_keys_grouped(&self, client: Uuid, keys: Vec<(u32, Key)>) {
        debug_assert!(
            keys.windows(2).all(|w| w[0].0 <= w[1].0),
            "keys not grouped"
        );
        let added: Vec<(u32, Key)> = {
            let mut shard = self.client_shard(client).write();
            let set = shard.entry(client).or_insert_with(|| {
                KeySet::with_capacity_and_hasher(keys.len(), Default::default())
            });
            keys.into_iter()
                .filter(|(_, k)| set.insert(k.clone()))
                .collect()
        };
        if added.is_empty() {
            return;
        }
        let mut it = added.into_iter().peekable();
        while let Some(s) = it.peek().map(|(s, _)| *s) {
            let mut shard = self.key_shards[s as usize].write();
            while it.peek().map(|(s, _)| *s) == Some(s) {
                let (_, key) = it.next().expect("peeked entry exists");
                shard.entry(key).or_default().push(client);
            }
        }
        self.bump_epoch();
    }

    /// Revoke a client entirely (malicious-user eviction, §5).
    pub fn revoke(&self, client: Uuid) {
        let removed = {
            let mut shard = self.client_shard(client).write();
            shard.remove(&client)
        };
        let Some(removed) = removed else { return };
        if removed.is_empty() {
            return;
        }
        self.remove_from_key_index(client, removed);
        self.bump_epoch();
    }

    /// A client's current report-set size `d` (0 when absent).
    pub fn report_count(&self, client: Uuid) -> usize {
        self.client_shard(client)
            .read()
            .get(&client)
            .map(HashSet::len)
            .unwrap_or(0)
    }

    /// Current tally for a (URL, AS).
    ///
    /// `O(voters of that key)`, not `O(all clients)`: the inverted index
    /// names the voters, and each contributes `1/d` from its shard.
    /// Voters are visited in sorted UUID order, each once, so the float
    /// sum is independent of the order they voted in.
    pub fn tally(&self, url: &str, asn: Asn) -> Tally {
        self.tally_key(&self.key(url, asn))
    }

    /// [`VoteLedger::tally`] of a key already built.
    pub(crate) fn tally_key(&self, key: &Key) -> Tally {
        let mut voters: Vec<Uuid> = match self.key_shards[self.stripe(key)].read().get(key) {
            Some(v) => v.clone(),
            None => return Tally::default(),
        };
        voters.sort_unstable();
        sum_votes(&voters, |c| self.report_count(c))
    }

    /// [`VoteLedger::tally_key`] of every key in `keys`, in order, all of
    /// which live in key-index stripe `stripe`. One pass: the stripe is
    /// read once, each distinct voter's `d` is read once (one read lock
    /// per client stripe), and each key is summed by the loop
    /// `tally_key` uses, so every tally is bit-identical to its own.
    pub(crate) fn tally_keys<'k>(
        &self,
        stripe: usize,
        keys: impl IntoIterator<Item = &'k Key>,
    ) -> Vec<Tally> {
        // Every key's voters, back to back; `ends[i]` closes key `i`'s run.
        let mut voters: Vec<Uuid> = Vec::new();
        let mut ends: Vec<usize> = Vec::new();
        {
            let index = self.key_shards[stripe].read();
            for key in keys {
                debug_assert_eq!(self.stripe(key), stripe, "key outside the stripe");
                if let Some(v) = index.get(key) {
                    voters.extend_from_slice(v);
                }
                ends.push(voters.len());
            }
        }
        // Each distinct voter's `d`, in (client stripe, voter) order: one
        // read lock per client stripe, and the same order serves the
        // lookups below. `d[i]` is `distinct[i]`'s.
        let key = |c: Uuid| (self.client_stripe(c), c);
        let mut distinct: Vec<(usize, Uuid)> = voters.iter().map(|c| key(*c)).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let mut d: Vec<usize> = Vec::with_capacity(distinct.len());
        for run in distinct.chunk_by(|a, b| a.0 == b.0) {
            let clients = self.client_shards[run[0].0].read();
            d.extend(
                run.iter()
                    .map(|(_, c)| clients.get(c).map_or(0, HashSet::len)),
            );
        }
        let d_of = |c: Uuid| d[distinct.binary_search(&key(c)).expect("voter read")];
        let mut start = 0;
        ends.into_iter()
            .map(|end| {
                let run = &mut voters[start..end];
                start = end;
                run.sort_unstable();
                sum_votes(run, d_of)
            })
            .collect()
    }

    /// Per-client report-set sizes (reputation auditing input). Walks
    /// the stripes one read lock at a time — no global lock.
    pub fn client_report_sizes(&self) -> Vec<(Uuid, usize)> {
        let mut out = Vec::new();
        for shard in self.client_shards.iter() {
            let g = shard.read();
            out.extend(g.iter().map(|(c, set)| (*c, set.len())));
        }
        out.sort_by_key(|(c, _)| *c);
        out
    }

    /// The (URL, AS) pairs a client currently reports.
    pub fn client_urls(&self, client: Uuid) -> Vec<(String, Asn)> {
        let mut out: Vec<(String, Asn)> = self
            .client_shard(client)
            .read()
            .get(&client)
            .map(|set| set.iter().map(|k| (k.url.to_string(), k.asn)).collect())
            .unwrap_or_default();
        out.sort();
        out
    }
}

/// The tally of `voters`, sorted by UUID: each distinct voter adds 1 to
/// `n` and `1/d` to `s`, in UUID order, so the float sum does not depend
/// on the order the votes arrived in. A duplicate (left by a revoke
/// racing an ingest) counts once; a voter with `d = 0` not at all.
fn sum_votes(voters: &[Uuid], d_of: impl Fn(Uuid) -> usize) -> Tally {
    let mut t = Tally::default();
    let mut last = None;
    for &c in voters {
        if last == Some(c) {
            continue;
        }
        last = Some(c);
        let d = d_of(c);
        if d > 0 {
            t.n += 1;
            t.s += 1.0 / d as f64;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Batch, Report, ShardedStore, StorageBackend};
    use csaw_censor::blocking::BlockingType;
    use csaw_simnet::time::SimTime;

    fn uuid(n: u64) -> Uuid {
        Uuid::from_raw(n)
    }

    /// `client` reports `urls` through the store's ingest path, the one
    /// way votes reach the ledger.
    fn vote(s: &ShardedStore, client: Uuid, urls: impl IntoIterator<Item = (String, Asn)>) {
        let reports = urls
            .into_iter()
            .map(|(url, asn)| Report {
                url,
                asn: asn.0,
                measured_at_us: 1,
                stages: vec![BlockingType::HttpDrop],
            })
            .collect();
        s.ingest(&Batch::new(client, reports, SimTime::ZERO))
            .unwrap();
    }

    #[test]
    fn vote_spreads_evenly() {
        let s = ShardedStore::new(16).unwrap();
        let l = s.ledger();
        vote(
            &s,
            uuid(1),
            [
                ("http://a.com/".to_string(), Asn(10)),
                ("http://b.com/".to_string(), Asn(10)),
            ],
        );
        let ta = l.tally("http://a.com/", Asn(10));
        assert_eq!(ta.n, 1);
        assert!((ta.s - 0.5).abs() < 1e-9);
    }

    #[test]
    fn vote_mass_conserved() {
        let s = ShardedStore::new(16).unwrap();
        let l = s.ledger();
        for d in [1usize, 3, 10, 100] {
            // Each client's own URLs: its tallies sum to its vote alone.
            let urls: Vec<(String, Asn)> = (0..d)
                .map(|i| (format!("http://site{i}.d{d}.com/"), Asn(1)))
                .collect();
            vote(&s, uuid(d as u64), urls.clone());
            let mass: f64 = urls.iter().map(|(u, a)| l.tally(u, *a).s).sum();
            assert!((mass - 1.0).abs() < 1e-9, "d={d}");
        }
    }

    #[test]
    fn many_honest_clients_beat_one_spammer() {
        let s = ShardedStore::new(16).unwrap();
        let l = s.ledger();
        // 10 honest clients each report the same 2 genuinely blocked URLs.
        for c in 0..10 {
            vote(
                &s,
                uuid(c),
                [
                    ("http://blocked-1.com/".to_string(), Asn(1)),
                    ("http://blocked-2.com/".to_string(), Asn(1)),
                ],
            );
        }
        // One spammer reports 1000 fake URLs.
        let fakes: Vec<(String, Asn)> = (0..1000)
            .map(|i| (format!("http://fake{i}.com/"), Asn(1)))
            .collect();
        vote(&s, uuid(99), fakes);

        let honest = l.tally("http://blocked-1.com/", Asn(1));
        let fake = l.tally("http://fake1.com/", Asn(1));
        assert_eq!(honest.n, 10);
        assert!((honest.s - 5.0).abs() < 1e-9);
        assert_eq!(fake.n, 1);
        assert!(fake.s < 0.01);
        // The paper's consumption rule separates them cleanly.
        let filter = ConfidenceFilter::strict(2, 0.1);
        assert!(filter.passes(&honest));
        assert!(!filter.passes(&fake));
    }

    #[test]
    fn vote_dilution_signature() {
        // Colluding clients each spraying many URLs have large n but tiny
        // average vote.
        let s = ShardedStore::new(16).unwrap();
        let l = s.ledger();
        for c in 0..20 {
            let urls: Vec<(String, Asn)> = (0..500)
                .map(|i| (format!("http://fake{i}.com/"), Asn(1)))
                .collect();
            vote(&s, uuid(c), urls);
        }
        let t = l.tally("http://fake0.com/", Asn(1));
        assert_eq!(t.n, 20);
        assert!(t.avg_vote() < 0.01);
        assert!(!ConfidenceFilter::strict(2, 0.1).passes(&t));
    }

    #[test]
    fn revocation_removes_influence() {
        let s = ShardedStore::new(16).unwrap();
        let l = s.ledger();
        vote(&s, uuid(1), [("http://x.com/".to_string(), Asn(1))]);
        assert_eq!(l.tally("http://x.com/", Asn(1)).n, 1);
        l.revoke(uuid(1));
        assert_eq!(l.tally("http://x.com/", Asn(1)).n, 0);
        assert!(l.client_report_sizes().is_empty());
    }

    #[test]
    fn incremental_reports_respread() {
        let s = ShardedStore::new(16).unwrap();
        let l = s.ledger();
        vote(&s, uuid(1), [("http://a.com/".to_string(), Asn(1))]);
        assert!((l.tally("http://a.com/", Asn(1)).s - 1.0).abs() < 1e-9);
        vote(&s, uuid(1), [("http://b.com/".to_string(), Asn(1))]);
        assert!((l.tally("http://a.com/", Asn(1)).s - 0.5).abs() < 1e-9);
        assert!((l.tally("http://b.com/", Asn(1)).s - 0.5).abs() < 1e-9);
    }

    #[test]
    fn per_as_tallies_are_separate() {
        let s = ShardedStore::new(16).unwrap();
        let l = s.ledger();
        vote(&s, uuid(1), [("http://x.com/".to_string(), Asn(1))]);
        assert_eq!(l.tally("http://x.com/", Asn(2)).n, 0);
    }

    #[test]
    fn epoch_moves_only_on_spread_changes() {
        let s = ShardedStore::new(16).unwrap();
        let l = s.ledger();
        let e0 = l.epoch();
        vote(&s, uuid(1), [("http://a.com/".to_string(), Asn(1))]);
        let e1 = l.epoch();
        assert!(e1 > e0);
        // Re-adding the same URL is a no-op: 1/d unchanged, caches stay valid.
        vote(&s, uuid(1), [("http://a.com/".to_string(), Asn(1))]);
        assert_eq!(l.epoch(), e1);
        l.revoke(uuid(1));
        assert!(l.epoch() > e1);
        // Revoking an absent client is a no-op.
        let e2 = l.epoch();
        l.revoke(uuid(42));
        assert_eq!(l.epoch(), e2);
    }

    #[test]
    fn a_voter_left_behind_by_a_revoke_race_counts_once() {
        // An ingest that has added a key to the client's set, released
        // that lock and not yet pushed the voter can lose a race with a
        // revoke: the revoke clears the set and finds nobody to remove,
        // then the push lands. Replay that interleaving by hand.
        let s = ShardedStore::new(4).unwrap();
        let l = s.ledger();
        let url = "http://raced.com/";
        let key = l.key(url, Asn(1));
        l.key_shards[l.stripe(&key)]
            .write()
            .entry(key)
            .or_default()
            .push(uuid(1));
        // The client posts the key again: new to its (empty) set, so it
        // is pushed a second time.
        vote(&s, uuid(1), [(url.to_string(), Asn(1))]);
        vote(&s, uuid(2), [(url.to_string(), Asn(1))]);
        let t = l.tally(url, Asn(1));
        assert_eq!(t.n, 2);
        assert_eq!(t.s.to_bits(), 2.0f64.to_bits());
        // A revoke drops every occurrence.
        l.revoke(uuid(1));
        assert_eq!(l.tally(url, Asn(1)).n, 1);
        let key = l.key(url, Asn(1));
        assert_eq!(l.key_shards[l.stripe(&key)].read()[&key], [uuid(2)]);
    }

    #[test]
    fn tally_keys_equals_tally_bit_for_bit() {
        use csaw_simnet::rng::DetRng;
        for seed in 1..=8u64 {
            let mut rng = DetRng::new(seed);
            let s = ShardedStore::new(4).unwrap();
            let l = s.ledger();
            let pool: Vec<(String, Asn)> = (0..40)
                .map(|i| (format!("http://t{i}.com/"), Asn(i % 2)))
                .collect();
            // 40 clients cover every client stripe; each reports the
            // popular key plus up to 15 drawn ones, so `d` varies and so
            // does the number of voters per key.
            for c in 0..40u64 {
                let n = 1 + rng.index(15);
                let urls: Vec<(String, Asn)> = std::iter::once(pool[0].clone())
                    .chain((0..n).map(|_| pool[1 + rng.index(30)].clone()))
                    .collect();
                vote(&s, uuid(c), urls);
            }
            // A lone voter on two keys nobody else draws.
            vote(&s, uuid(99), [pool[35].clone(), pool[36].clone()]);
            for c in (0..40u64).filter(|c| c % 7 == seed % 7) {
                l.revoke(uuid(c));
            }
            // The revoke race of `a_voter_left_behind_by_a_revoke_race_counts_once`:
            // client 3's voter is pushed twice on the popular key.
            l.revoke(uuid(3));
            let raced = l.key(&pool[0].0, pool[0].1);
            l.key_shards[l.stripe(&raced)]
                .write()
                .entry(raced)
                .or_default()
                .push(uuid(3));
            vote(&s, uuid(3), [pool[0].clone()]);
            let keys: Vec<Key> = pool.iter().map(|(u, a)| l.key(u, *a)).collect();
            let mut seen = Vec::new();
            for stripe in 0..l.key_stripes() {
                let mine: Vec<&Key> = keys.iter().filter(|k| l.stripe(k) == stripe).collect();
                let got = l.tally_keys(stripe, mine.iter().copied());
                assert_eq!(got.len(), mine.len());
                for (key, t) in mine.iter().zip(got) {
                    let want = l.tally_key(key);
                    assert_eq!(t.n, want.n, "seed {seed}: n of {}", key.url);
                    assert_eq!(
                        t.s.to_bits(),
                        want.s.to_bits(),
                        "seed {seed}: s of {}",
                        key.url
                    );
                    seen.push(t.n);
                }
            }
            // Keys with no voter (t31..t39 are never drawn), one voter
            // (client 99's) and many are all in the comparison.
            assert!(
                seen.contains(&0) && seen.contains(&1),
                "seed {seed}: {seen:?}"
            );
            assert!(seen.iter().any(|n| *n >= 20), "seed {seed}: {seen:?}");
        }
    }

    #[test]
    fn single_stripe_ledger_matches_striped() {
        // Same event sequence, shard counts 1 and 16: identical tallies.
        let a = ShardedStore::new(1).unwrap();
        let b = ShardedStore::new(16).unwrap();
        for l in [&a, &b] {
            for c in 0..50u64 {
                let urls: Vec<(String, Asn)> = (0..(c % 7 + 1))
                    .map(|i| {
                        (
                            format!("http://s{}.com/", (c + i) % 23),
                            Asn((c % 3) as u32),
                        )
                    })
                    .collect();
                vote(l, uuid(c), urls);
            }
            for c in (0..50u64).step_by(5) {
                l.revoke(uuid(c));
            }
        }
        let (a, b) = (a.ledger(), b.ledger());
        assert_eq!(a.client_report_sizes(), b.client_report_sizes());
        for i in 0..23 {
            for asn in 0..3u32 {
                let (ta, tb) = (
                    a.tally(&format!("http://s{i}.com/"), Asn(asn)),
                    b.tally(&format!("http://s{i}.com/"), Asn(asn)),
                );
                assert_eq!(ta.n, tb.n, "s{i} asn{asn}");
                assert!((ta.s - tb.s).abs() < 1e-12, "s{i} asn{asn}");
            }
        }
    }
}
