//! Property tests for the semilattice laws of [`StoreState::merge`],
//! over DetRng-generated store states: commutativity, associativity,
//! idempotence, and replay-vs-merge equivalence (applying a leader's
//! WAL to a replica yields exactly the state merging the leader's
//! capture would).

use csaw_censor::blocking::BlockingType;
use csaw_replica::StoreState;
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_store::{Batch, Report, ShardedStore, StorageBackend, Uuid};
use std::sync::Arc;

const STAGES: [BlockingType; 4] = [
    BlockingType::DnsNoResponse,
    BlockingType::HttpDrop,
    BlockingType::IpRst,
    BlockingType::HttpBlockPageRedirect,
];

/// Build a store with a DetRng-driven history of ingests and the
/// occasional revocation, then capture its state. `label` forks the rng
/// so each generated state is independent but reproducible.
fn random_state(seed: u64, label: &str) -> StoreState {
    let mut rng = DetRng::new(seed).fork(label);
    let store = ShardedStore::new(1 + rng.index(8)).unwrap();
    let batches = 4 + rng.index(12);
    for b in 0..batches {
        let client = Uuid::from_raw(1 + rng.range_u64(1, 9));
        let n_reports = 1 + rng.index(4);
        let reports = (0..n_reports)
            .map(|_| Report {
                url: format!("http://u{}.example/", rng.index(10)),
                asn: 9 + rng.index(3) as u32,
                measured_at_us: rng.range_u64(1, 1_000_000),
                stages: vec![STAGES[rng.index(STAGES.len())]],
            })
            .collect();
        let posted = SimTime::from_micros(1_000_000 + 1_000 * b as u64);
        store.ingest(&Batch::new(client, reports, posted)).unwrap();
        if rng.chance(0.15) {
            store.revoke(Uuid::from_raw(1 + rng.range_u64(1, 9)));
        }
    }
    StoreState::capture(&store)
}

fn merged(a: &StoreState, b: &StoreState) -> StoreState {
    let mut m = a.clone();
    m.merge(b);
    m
}

#[test]
fn merge_is_commutative() {
    for seed in 1..=20u64 {
        let a = random_state(seed, "a");
        let b = random_state(seed, "b");
        let ab = merged(&a, &b);
        let ba = merged(&b, &a);
        assert_eq!(ab, ba, "a∨b != b∨a at seed {seed}");
        assert_eq!(ab.fingerprint(), ba.fingerprint());
    }
}

#[test]
fn merge_is_associative() {
    for seed in 1..=20u64 {
        let a = random_state(seed, "a");
        let b = random_state(seed, "b");
        let c = random_state(seed, "c");
        let left = merged(&merged(&a, &b), &c);
        let right = merged(&a, &merged(&b, &c));
        assert_eq!(left, right, "(a∨b)∨c != a∨(b∨c) at seed {seed}");
    }
}

#[test]
fn merge_is_idempotent() {
    for seed in 1..=20u64 {
        let a = random_state(seed, "a");
        assert_eq!(merged(&a, &a), a, "a∨a != a at seed {seed}");
        let b = random_state(seed, "b");
        let ab = merged(&a, &b);
        assert_eq!(merged(&ab, &b), ab, "(a∨b)∨b != a∨b at seed {seed}");
        assert_eq!(merged(&ab, &a), ab, "(a∨b)∨a != a∨b at seed {seed}");
    }
}

#[test]
fn empty_state_is_the_identity() {
    for seed in 1..=10u64 {
        let a = random_state(seed, "a");
        let empty = StoreState::default();
        assert_eq!(merged(&a, &empty), a);
        assert_eq!(merged(&empty, &a), a);
    }
}

/// WAL replay on a replica equals merging the leader's state: run a
/// DetRng-driven mutation history (ingests, revokes, expiries) through
/// a [`csaw_replica::ReplicatedStore`], replay its journal into a
/// replica with a different shard count, and compare captures — and
/// check that merging the leader's capture into an empty state gives
/// the same value.
#[test]
fn replay_equals_merge() {
    for seed in 1..=10u64 {
        let mut rng = DetRng::new(seed).fork("replay");
        let leader = csaw_replica::ReplicatedStore::new(Arc::new(ShardedStore::new(4).unwrap()));
        for b in 0..20u64 {
            let client = Uuid::from_raw(1 + rng.range_u64(1, 7));
            let reports = (0..1 + rng.index(3))
                .map(|_| Report {
                    url: format!("http://u{}.example/", rng.index(8)),
                    asn: 5,
                    measured_at_us: rng.range_u64(1, 500_000),
                    stages: vec![STAGES[rng.index(STAGES.len())]],
                })
                .collect();
            leader
                .ingest(&Batch::new(
                    client,
                    reports,
                    SimTime::from_micros(1_000_000 + 10_000 * b),
                ))
                .unwrap();
            if rng.chance(0.1) {
                leader.revoke(Uuid::from_raw(1 + rng.range_u64(1, 7)));
            }
            if rng.chance(0.05) {
                leader.expire_records(
                    SimTime::from_micros(2_000_000),
                    SimDuration::from_micros(1_900_000),
                );
            }
        }

        let replica = ShardedStore::new(11).unwrap();
        for line in leader.lines_from(0, usize::MAX) {
            csaw_store::wal::replay_line(&replica, &line).unwrap();
        }
        let leader_state = StoreState::capture(&leader);
        let replica_state = StoreState::capture(&replica);
        assert_eq!(
            leader_state, replica_state,
            "replayed replica diverged at seed {seed}"
        );

        let mut from_empty = StoreState::default();
        from_empty.merge(&leader_state);
        assert_eq!(from_empty, leader_state);
        assert_eq!(
            from_empty.fingerprint(),
            replica_state.fingerprint(),
            "fingerprints diverged at seed {seed}"
        );
    }
}
