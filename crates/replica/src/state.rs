//! Join-semilattice capture of a store's logical state.
//!
//! [`StoreState`] reduces a [`StorageBackend`] to the two maps that
//! fully determine its observable behaviour:
//!
//! - **records**: `(url, asn) → RecordVersion` — the live measurement
//!   per key. Merging takes the pointwise maximum under a *total*
//!   order on versions (`posted_at`, then `measured_at`, then
//!   reporter, then stages), so merge never has to break a tie
//!   arbitrarily: last-writer-wins with a deterministic tiebreak.
//! - **votes**: `client → {(url, asn)}` — the ledger's client
//!   report-sets. A client's vote weight is `1/d` where `d` is its
//!   set size, and a tally sorts voters before the float sum, so the
//!   whole ledger is a pure function of this map. Merging unions the
//!   sets pointwise.
//!
//! Both operations are joins on lattices (max over a total order, set
//! union), so `merge` is commutative, associative, and idempotent by
//! construction — property-tested over DetRng-generated states in
//! `tests/merge_laws.rs`. Non-monotone mutations (revoke, expire,
//! reporter removal) are deliberately *outside* the lattice: they ship
//! through the ordered WAL (see [`crate::ship`]) and every replica
//! applies them at the same log position.

use csaw_simnet::rng::fnv1a;
use csaw_store::StorageBackend;
use std::collections::{BTreeMap, BTreeSet};

/// The version of one `(url, asn)` record that competes in merges.
///
/// Ordered lexicographically field-by-field; [`StoreState::merge`]
/// keeps the maximum, so the freshest post wins and exact ties (same
/// post time) resolve deterministically by measurement time, then
/// reporter id, then stages.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RecordVersion {
    /// When the batch carrying this record was posted (`T_p`), µs.
    pub posted_at_us: u64,
    /// When the client measured the blocking event, µs.
    pub measured_at_us: u64,
    /// Raw UUID of the reporting client.
    pub reporter: u64,
    /// Blocking-stage names, in report order.
    pub stages: Vec<String>,
}

/// A store's logical state as a mergeable value.
///
/// Two backends with equal `StoreState` captures answer every tally
/// and every `blocked_for_as` query identically, whatever their shard
/// counts or ingest interleavings were.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreState {
    /// Live records keyed by `(url, asn)`.
    pub records: BTreeMap<(String, u32), RecordVersion>,
    /// The vote ledger: each client's reported `(url, asn)` set.
    pub votes: BTreeMap<u64, BTreeSet<(String, u32)>>,
}

impl StoreState {
    /// Capture a backend's current logical state.
    pub fn capture(backend: &dyn StorageBackend) -> StoreState {
        let mut records = BTreeMap::new();
        backend.for_each_record(&mut |r| {
            records.insert(
                (r.url.clone(), r.asn.0),
                RecordVersion {
                    posted_at_us: r.posted_at.as_micros(),
                    measured_at_us: r.measured_at.as_micros(),
                    reporter: r.reporter.raw(),
                    stages: r.stages.iter().map(|s| s.name().to_string()).collect(),
                },
            );
        });
        let ledger = backend.ledger();
        let mut votes = BTreeMap::new();
        for (client, _) in ledger.client_report_sizes() {
            let set: BTreeSet<(String, u32)> = ledger
                .client_urls(client)
                .into_iter()
                .map(|(u, a)| (u, a.0))
                .collect();
            if !set.is_empty() {
                votes.insert(client.raw(), set);
            }
        }
        StoreState { records, votes }
    }

    /// Join `other` into `self`: records take the pointwise maximum
    /// version, vote sets union pointwise. Commutative, associative,
    /// idempotent.
    pub fn merge(&mut self, other: &StoreState) {
        for (key, version) in &other.records {
            match self.records.get_mut(key) {
                Some(mine) if *mine >= *version => {}
                Some(mine) => *mine = version.clone(),
                None => {
                    self.records.insert(key.clone(), version.clone());
                }
            }
        }
        for (client, set) in &other.votes {
            self.votes
                .entry(*client)
                .or_default()
                .extend(set.iter().cloned());
        }
    }

    /// Canonical one-line-per-entry rendering: every record, then every
    /// vote edge, in `BTreeMap` (byte-sorted) order. Equal states render
    /// identically whatever their history.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        for ((url, asn), v) in &self.records {
            out.push_str(&format!(
                "record {url}|{asn}|{}|{}|{:016x}|{}\n",
                v.posted_at_us,
                v.measured_at_us,
                v.reporter,
                v.stages.join("+"),
            ));
        }
        for (client, set) in &self.votes {
            for (url, asn) in set {
                out.push_str(&format!("vote {client:016x}|{url}|{asn}\n"));
            }
        }
        out
    }

    /// 16-hex-digit FNV-1a digest of [`StoreState::canonical`]. Two
    /// replicas converged iff their fingerprints are byte-identical.
    pub fn fingerprint(&self) -> String {
        format!("{:016x}", fnv1a(self.canonical().as_bytes()))
    }

    /// Total vote edges (for reporting; not part of the lattice).
    pub fn vote_edges(&self) -> usize {
        self.votes.values().map(BTreeSet::len).sum()
    }

    /// Clients currently voting.
    pub fn voter_count(&self) -> usize {
        self.votes.len()
    }
}

/// Convenience: capture and fingerprint in one call.
pub fn fingerprint_of(backend: &dyn StorageBackend) -> String {
    StoreState::capture(backend).fingerprint()
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_censor::blocking::BlockingType;
    use csaw_simnet::time::SimTime;
    use csaw_store::{Batch, Report, ShardedStore, Uuid};

    fn batch(client: u64, url: &str, t: u64) -> Batch {
        Batch::new(
            Uuid::from_raw(client),
            vec![Report {
                url: url.into(),
                asn: 9,
                measured_at_us: t,
                stages: vec![BlockingType::HttpDrop],
            }],
            SimTime::from_micros(t),
        )
    }

    #[test]
    fn capture_is_shard_count_independent() {
        let a = ShardedStore::new(2).unwrap();
        let b = ShardedStore::new(16).unwrap();
        for s in [&a, &b] {
            for c in 0..8u64 {
                s.ingest(&batch(c, &format!("http://u{}.com/", c % 3), 10 + c))
                    .unwrap();
            }
        }
        assert_eq!(StoreState::capture(&a), StoreState::capture(&b));
        assert_eq!(
            StoreState::capture(&a).fingerprint(),
            StoreState::capture(&b).fingerprint()
        );
    }

    #[test]
    fn merge_prefers_the_newer_post() {
        let old = ShardedStore::new(2).unwrap();
        old.ingest(&batch(1, "http://x.com/", 100)).unwrap();
        let new = ShardedStore::new(2).unwrap();
        new.ingest(&batch(2, "http://x.com/", 200)).unwrap();
        let mut merged = StoreState::capture(&old);
        merged.merge(&StoreState::capture(&new));
        let v = merged.records.get(&("http://x.com/".into(), 9)).unwrap();
        assert_eq!(v.reporter, 2);
        assert_eq!(v.posted_at_us, 200);
        // Both voters survive the merge.
        assert_eq!(merged.voter_count(), 2);
        assert_eq!(merged.vote_edges(), 2);
    }

    #[test]
    fn fingerprint_distinguishes_vote_sets() {
        let a = ShardedStore::new(2).unwrap();
        a.ingest(&batch(1, "http://x.com/", 100)).unwrap();
        let b = ShardedStore::new(2).unwrap();
        b.ingest(&batch(1, "http://x.com/", 100)).unwrap();
        b.ingest(&batch(2, "http://x.com/", 100)).unwrap();
        assert_ne!(
            fingerprint_of(&a),
            fingerprint_of(&b),
            "extra voter must change the fingerprint"
        );
    }

    #[test]
    fn revoked_clients_leave_the_capture() {
        let s = ShardedStore::new(2).unwrap();
        s.ingest(&batch(1, "http://x.com/", 100)).unwrap();
        s.ingest(&batch(2, "http://y.com/", 100)).unwrap();
        s.revoke(Uuid::from_raw(2));
        let cap = StoreState::capture(&s);
        assert_eq!(cap.voter_count(), 1);
        assert!(cap.votes.contains_key(&1));
    }
}
