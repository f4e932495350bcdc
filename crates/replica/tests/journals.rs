//! The journalling decorator, one table for both journals: the file
//! log ([`JsonlStore`]) and the ship log ([`ReplicatedStore`]) must
//! hold exactly the [`wal`] encoding of every mutation their backend
//! took, and replaying either must reproduce the leader.

use csaw_censor::blocking::BlockingType;
use csaw_faults::{FaultProfile, FaultyBackend};
use csaw_replica::{fingerprint_of, ReplicatedStore, StoreState};
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_store::{wal, Batch, JsonlStore, Report, ShardedStore, StorageBackend, Uuid};
use std::sync::Arc;

fn batch(client: u64, urls: &[&str], t: u64) -> Batch {
    Batch::new(
        Uuid::from_raw(client),
        urls.iter()
            .map(|u| Report {
                url: (*u).into(),
                asn: 9,
                measured_at_us: t,
                stages: vec![BlockingType::HttpDrop],
            })
            .collect(),
        SimTime::from_micros(t),
    )
}

/// One mutation of the mixed sequence both journals see.
enum Op {
    Ingest(Batch),
    Revoke(Uuid),
    RemoveReporter(Uuid),
    Expire(SimTime, SimDuration),
}

impl Op {
    fn apply(&self, to: &dyn StorageBackend) {
        match self {
            Op::Ingest(b) => {
                to.ingest(b).unwrap();
            }
            Op::Revoke(c) => to.revoke(*c),
            Op::RemoveReporter(c) => {
                to.remove_reporter_records(*c);
            }
            Op::Expire(now, max_age) => {
                to.expire_records(*now, *max_age);
            }
        }
    }

    fn line(&self) -> String {
        match self {
            Op::Ingest(b) => wal::ingest_line(b),
            Op::Revoke(c) => wal::revoke_line(*c),
            Op::RemoveReporter(c) => wal::remove_reporter_line(*c),
            Op::Expire(now, max_age) => wal::expire_line(*now, *max_age),
        }
    }
}

fn mixed_ops() -> Vec<Op> {
    vec![
        Op::Ingest(batch(1, &["http://a.com/", "http://b.com/"], 10)),
        Op::Ingest(batch(2, &["http://b.com/", "not a url"], 20)),
        Op::Ingest(batch(3, &["http://c.com/"], 30)),
        Op::Revoke(Uuid::from_raw(2)),
        Op::RemoveReporter(Uuid::from_raw(3)),
        Op::Ingest(batch(4, &["http://d.com/"], 90_000_000)),
        Op::Expire(SimTime::from_secs(100), SimDuration::from_secs(99)),
    ]
}

#[test]
fn both_journals_hold_the_wal_encoding_and_replay_to_the_leader() {
    let ops = mixed_ops();
    let expected: Vec<String> = ops.iter().map(Op::line).collect();

    let path = std::env::temp_dir().join(format!("csaw-journals-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let on_disk = JsonlStore::open(&path, 4).unwrap();
    let in_memory = ReplicatedStore::new(Arc::new(ShardedStore::new(4).unwrap()));
    for op in &ops {
        op.apply(&on_disk);
        op.apply(&in_memory);
    }
    on_disk.flush().unwrap();

    // Line for line, both logs are the codec's output.
    let file = std::fs::read_to_string(&path).unwrap();
    assert_eq!(file.lines().collect::<Vec<_>>(), expected);
    assert_eq!(in_memory.leader_seq(), expected.len() as u64);
    assert_eq!(in_memory.lines_from(0, usize::MAX), expected);

    // Both leaders hold the same state, and each log replays to it:
    // the file through `open`, the ship log line by line into a store
    // striped differently.
    let leader = StoreState::capture(&in_memory);
    assert_eq!(StoreState::capture(&on_disk), leader);
    let reopened = JsonlStore::open(&path, 7).unwrap();
    assert_eq!(fingerprint_of(&reopened), leader.fingerprint());
    let replica = ShardedStore::new(7).unwrap();
    for line in in_memory.lines_from(0, usize::MAX) {
        wal::replay_line(&replica, &line).unwrap();
    }
    assert_eq!(StoreState::capture(&replica), leader);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_mutation_the_leader_refused_is_never_shipped() {
    let refusing = |p: f64, seed: u64| {
        let store: Arc<dyn StorageBackend> = Arc::new(ShardedStore::new(4).unwrap());
        let profile = FaultProfile {
            write_fail_p: p,
            ..FaultProfile::none()
        };
        ReplicatedStore::new(Arc::new(FaultyBackend::new(store, profile, seed)))
    };

    let leader = refusing(1.0, 1);
    assert!(leader.ingest(&batch(1, &["http://a.com/"], 10)).is_err());
    assert_eq!(leader.leader_seq(), 0, "a refused batch is not in the log");
    assert!(leader.lines_from(0, usize::MAX).is_empty());

    // Half the batches bounce: the replica must end up with exactly the
    // ones the leader took.
    let leader = refusing(0.5, 2);
    let mut refused = 0;
    for c in 0..40u64 {
        let url = format!("http://u{}.com/", c % 7);
        refused += leader.ingest(&batch(c, &[&url], 100 + c)).is_err() as u64;
        if c % 9 == 0 {
            leader.revoke(Uuid::from_raw(c));
        }
    }
    assert!(refused > 0 && refused < 40, "a mixed run, got {refused}");
    assert_eq!(leader.leader_seq(), 40 - refused + 5);
    let replica = ShardedStore::new(3).unwrap();
    for line in leader.lines_from(0, usize::MAX) {
        wal::replay_line(&replica, &line).unwrap();
    }
    assert_eq!(fingerprint_of(&replica), fingerprint_of(&leader));
}
