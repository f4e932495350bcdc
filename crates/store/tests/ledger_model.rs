//! The store and its vote ledger against a naive model.
//!
//! The ledger keeps each (URL, AS) key's voters as a list that a voter
//! joins only when the key is new to its report set, hashes every key
//! once, and shares that key with the record map. None of that may be
//! visible: seeded op sequences run against a `ShardedStore` and against
//! a model made of ordered maps — (URL, AS) → voter set, client → key
//! set, (URL, AS) → record — and after every op the two must agree on
//! every tally (`n` and the bits of `s`), every client's URLs and report
//! size, the voter count, the record set and the per-AS blocked lists.
//!
//! The key pool holds one URL under two ASes, URLs that differ only in
//! case (distinct keys: the store keys the string it was sent), and two
//! strings the sanitizer rejects; batches draw from it with replacement,
//! so one batch often repeats a key. Every sequence also runs a scripted
//! prefix: a duplicate key in one batch, a revoke and a re-add.

use csaw_censor::blocking::BlockingType;
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use csaw_store::{
    Batch, ConfidenceFilter, GlobalRecord, Report, ShardedStore, StorageBackend, Tally, Uuid,
};
use csaw_webproto::url::Url;
use std::collections::{BTreeMap, BTreeSet};

const URLS: [&str; 8] = [
    "http://a.example/",
    "http://A.example/",
    "http://b.example/x",
    "http://B.EXAMPLE/x",
    "https://c.example:8443/",
    "http://d.example/?q=1",
    "not a url",
    "http://bad host/",
];
const ASNS: [u32; 3] = [1, 2, 7];
const CLIENTS: u64 = 6;
const SEEDS: u64 = 12;
const OPS: usize = 150;

type ModelKey = (String, Asn);

/// One operation on the store.
#[derive(Debug, Clone)]
enum Op {
    Ingest(Batch),
    AddUrls(Uuid, Vec<ModelKey>),
    Revoke(Uuid),
    RemoveReporter(Uuid),
    Expire(SimTime, SimDuration),
}

/// The naive reference: ordered maps, no striping, no hashing.
#[derive(Default)]
struct Model {
    voters: BTreeMap<ModelKey, BTreeSet<Uuid>>,
    clients: BTreeMap<Uuid, BTreeSet<ModelKey>>,
    records: BTreeMap<ModelKey, GlobalRecord>,
}

impl Model {
    fn add(&mut self, client: Uuid, keys: impl IntoIterator<Item = ModelKey>) {
        let set = self.clients.entry(client).or_default();
        for key in keys {
            if set.insert(key.clone()) {
                self.voters.entry(key).or_default().insert(client);
            }
        }
    }

    fn drop_client(&mut self, client: Uuid) {
        for key in self.clients.remove(&client).unwrap_or_default() {
            let voters = self.voters.get_mut(&key).expect("indexed key");
            voters.remove(&client);
            if voters.is_empty() {
                self.voters.remove(&key);
            }
        }
    }

    /// Apply `op`; returns what the store must return for it.
    fn apply(&mut self, op: &Op) -> String {
        match op {
            Op::Ingest(batch) => {
                let mut accepted = Vec::new();
                let mut rejected = Vec::new();
                for (i, r) in batch.reports().iter().enumerate() {
                    if r.stages.is_empty() || Url::parse(&r.url).is_err() {
                        rejected.push(i);
                        continue;
                    }
                    let key = (r.url.clone(), Asn(r.asn));
                    self.records.insert(
                        key.clone(),
                        GlobalRecord {
                            url: r.url.clone(),
                            asn: Asn(r.asn),
                            measured_at: SimTime::from_micros(r.measured_at_us),
                            stages: r.stages.clone(),
                            posted_at: batch.posted_at,
                            reporter: batch.client,
                        },
                    );
                    accepted.push(key);
                }
                let n = accepted.len();
                self.add(batch.client, accepted);
                format!("accepted {n}, rejected {rejected:?}")
            }
            Op::AddUrls(client, keys) => {
                self.add(*client, keys.iter().cloned());
                String::new()
            }
            Op::Revoke(client) => {
                self.drop_client(*client);
                String::new()
            }
            Op::RemoveReporter(client) => {
                let before = self.records.len();
                self.records.retain(|_, r| r.reporter != *client);
                format!("removed {}", before - self.records.len())
            }
            Op::Expire(now, max_age) => {
                let before = self.records.len();
                self.records
                    .retain(|_, r| now.duration_since(r.posted_at) < *max_age);
                format!("expired {}", before - self.records.len())
            }
        }
    }

    /// `s` summed over the voters in UUID order, as the ledger sums it.
    fn tally(&self, key: &ModelKey) -> Tally {
        let mut t = Tally::default();
        for c in self.voters.get(key).into_iter().flatten() {
            t.n += 1;
            t.s += 1.0 / self.clients[c].len() as f64;
        }
        t
    }
}

fn apply(store: &ShardedStore, op: &Op) -> String {
    let ledger = store.ledger();
    match op {
        Op::Ingest(batch) => {
            let r = store
                .ingest(batch)
                .expect("the memory store accepts writes");
            format!("accepted {}, rejected {:?}", r.accepted, r.rejected_indices)
        }
        Op::AddUrls(client, keys) => {
            ledger.add_client_urls(*client, keys.iter().map(|(u, a)| (u.clone(), *a)));
            String::new()
        }
        Op::Revoke(client) => {
            store.revoke(*client);
            String::new()
        }
        Op::RemoveReporter(client) => {
            format!("removed {}", store.remove_reporter_records(*client))
        }
        Op::Expire(now, max_age) => format!("expired {}", store.expire_records(*now, *max_age)),
    }
}

fn every_key() -> impl Iterator<Item = ModelKey> {
    URLS.iter()
        .flat_map(|u| ASNS.iter().map(move |a| (u.to_string(), Asn(*a))))
}

/// Every observable the two must agree on, after `step`.
fn assert_agree(store: &ShardedStore, model: &Model, step: &str) {
    let ledger = store.ledger();
    for key in every_key() {
        let (got, want) = (ledger.tally(&key.0, key.1), model.tally(&key));
        assert_eq!(got.n, want.n, "{step}: n of {key:?}");
        assert_eq!(got.s.to_bits(), want.s.to_bits(), "{step}: s of {key:?}");
    }
    for c in 0..CLIENTS {
        let client = Uuid::from_raw(c);
        let want: Vec<ModelKey> = model
            .clients
            .get(&client)
            .map(|set| set.iter().cloned().collect())
            .unwrap_or_default();
        assert_eq!(ledger.client_urls(client), want, "{step}: urls of {c}");
    }
    let sizes: Vec<(Uuid, usize)> = model.clients.iter().map(|(c, s)| (*c, s.len())).collect();
    assert_eq!(ledger.client_report_sizes(), sizes, "{step}: report sizes");
    assert_eq!(ledger.voter_count(), model.clients.len(), "{step}: voters");

    let mut records: Vec<GlobalRecord> = Vec::new();
    store.for_each_record(&mut |r| records.push(r.clone()));
    records.sort_by(|a, b| (&a.url, a.asn).cmp(&(&b.url, b.asn)));
    let want: Vec<GlobalRecord> = model.records.values().cloned().collect();
    assert_eq!(records, want, "{step}: records");
    assert_eq!(store.record_count(), want.len(), "{step}: record count");

    for filter in [
        ConfidenceFilter::default(),
        ConfidenceFilter::strict(2, 0.3),
    ] {
        for asn in ASNS.map(Asn) {
            let got = store
                .blocked_for_as(asn, &filter)
                .expect("the memory store serves reads");
            let want: Vec<GlobalRecord> = model
                .records
                .iter()
                .filter(|((_, a), _)| *a == asn)
                .filter(|(key, _)| filter.passes(&model.tally(key)))
                .map(|(_, r)| r.clone())
                .collect();
            assert_eq!(
                got, want,
                "{step}: blocked list of {asn:?} under {filter:?}"
            );
        }
    }
}

fn pick_keys(rng: &mut DetRng, max: usize) -> Vec<ModelKey> {
    (0..rng.index(max + 1))
        .map(|_| {
            (
                URLS[rng.index(URLS.len())].to_string(),
                Asn(ASNS[rng.index(ASNS.len())]),
            )
        })
        .collect()
}

fn report(key: &ModelKey, at: u64, staged: bool) -> Report {
    Report {
        url: key.0.clone(),
        asn: key.1 .0,
        measured_at_us: at,
        stages: if staged {
            vec![BlockingType::HttpDrop]
        } else {
            Vec::new()
        },
    }
}

/// The ops every sequence starts with: a batch repeating one key (and
/// one URL under a second AS, and its upper-case twin), a revoke of that
/// client, and the same key re-added by a fresh batch.
fn scripted() -> Vec<Op> {
    let a1 = ("http://a.example/".to_string(), Asn(1));
    let a2 = ("http://a.example/".to_string(), Asn(2));
    let upper = ("http://A.example/".to_string(), Asn(1));
    let c = Uuid::from_raw(0);
    vec![
        Op::Ingest(Batch::new(
            c,
            vec![
                report(&a1, 1, true),
                report(&a1, 2, true),
                report(&a2, 3, true),
                report(&upper, 4, true),
            ],
            SimTime::from_secs(10),
        )),
        Op::Ingest(Batch::new(
            Uuid::from_raw(1),
            vec![report(&a1, 5, true)],
            SimTime::from_secs(11),
        )),
        Op::Revoke(c),
        Op::Ingest(Batch::new(
            c,
            vec![report(&a1, 6, true), report(&a1, 7, true)],
            SimTime::from_secs(12),
        )),
        Op::AddUrls(c, vec![a2.clone(), a2]),
    ]
}

fn random_op(rng: &mut DetRng, step: u64) -> Op {
    let client = Uuid::from_raw(rng.index(CLIENTS as usize) as u64);
    match rng.index(10) {
        0..=3 => {
            let reports = pick_keys(rng, 5)
                .iter()
                .enumerate()
                .map(|(i, k)| report(k, step * 10 + i as u64, !rng.chance(0.1)))
                .collect();
            Op::Ingest(Batch::new(client, reports, SimTime::from_secs(100 + step)))
        }
        4 | 5 => Op::AddUrls(client, pick_keys(rng, 4)),
        6 | 7 => Op::Revoke(client),
        8 => Op::RemoveReporter(client),
        _ => Op::Expire(
            SimTime::from_secs(100 + step),
            SimDuration::from_secs(rng.range_u64(1, 60)),
        ),
    }
}

#[test]
fn store_and_ledger_match_the_naive_model() {
    for seed in 1..=SEEDS {
        let shards = [1, 4, 16][(seed % 3) as usize];
        let store = ShardedStore::new(shards).expect("shard count is valid");
        let mut model = Model::default();
        let mut rng = DetRng::new(seed);
        let ops = scripted()
            .into_iter()
            .chain((0..OPS as u64).map(|step| random_op(&mut rng, step)));
        for (i, op) in ops.enumerate() {
            let step = format!("seed {seed}, {shards} shards, op {i} {op:?}");
            assert_eq!(apply(&store, &op), model.apply(&op), "{step}: result");
            assert_agree(&store, &model, &step);
        }
    }
}
