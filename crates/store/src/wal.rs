//! The write-ahead-log line codec: one compact JSON object per
//! mutating store operation.
//!
//! The journalling store ([`Journaled`](crate::backend::Journaled))
//! records one of these lines per mutation — to disk ahead of the
//! apply as a `JsonlStore`, to memory as a `ReplicatedStore` — and
//! `csaw-replica` ships the very same lines from a leader to its
//! per-region read replicas (the `SHIP` op in [`crate::net`]). "The
//! very same" holds byte for byte: a stack of journals encodes each
//! mutation once and every journal records that one line, and a `SHIP`
//! frame carries the lines verbatim, behind their lengths, not
//! re-escaped as JSON strings. Keeping the codec public and in one
//! place guarantees the durable log and the replication stream can
//! never drift apart: a replica replaying shipped lines runs the exact
//! code `JsonlStore::open` runs on restart.
//!
//! Client UUIDs are encoded as 16-hex-digit strings — a reader that
//! holds JSON numbers as f64 would round raw 64-bit ids. Times are
//! integer microseconds, written and read digit for digit.
//!
//! # Line formats
//!
//! Keys are written in sorted order and read in any order:
//!
//! ```text
//! {"client":"<16hex>","op":"ingest","posted_at_us":N,"reports":[...]}
//! {"client":"<16hex>","op":"revoke"}
//! {"client":"<16hex>","op":"remove_reporter"}
//! {"max_age_us":N,"now_us":N,"op":"expire"}
//! ```
//!
//! # Example
//!
//! Encoding a batch and replaying it into a fresh store reproduces the
//! ingest exactly:
//!
//! ```
//! use csaw_store::batch::Batch;
//! use csaw_store::record::{Report, Uuid};
//! use csaw_store::shard::ShardedStore;
//! use csaw_store::wal;
//! use csaw_store::StorageBackend;
//! use csaw_censor::blocking::BlockingType;
//! use csaw_simnet::time::SimTime;
//!
//! let batch = Batch::new(
//!     Uuid::from_raw(7),
//!     vec![Report {
//!         url: "http://blocked.example/".into(),
//!         asn: 17557,
//!         measured_at_us: 1_000_000,
//!         stages: vec![BlockingType::HttpDrop],
//!     }],
//!     SimTime::from_secs(2),
//! );
//! let line = wal::ingest_line(&batch);
//! let store = ShardedStore::new(4).unwrap();
//! wal::replay_line(&store, &line).unwrap();
//! assert_eq!(store.record_count(), 1);
//! ```

use crate::backend::StorageBackend;
use crate::batch::Batch;
use crate::error::StoreError;
use crate::record::{Poison, Report, Uuid};
use csaw_obs::json::{JsonError, JsonReader, JsonWriter};
use csaw_simnet::time::{SimDuration, SimTime};
use std::borrow::Cow;

/// One line: the object `fields` writes. Keys go out sorted, as the
/// tree-backed writer emitted them, so the log format did not move.
fn line(fields: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    fields(&mut w);
    w.end_object();
    w.finish()
}

/// A line about one client: `client`, `op`, then whatever `rest` adds.
fn client_line(op: &str, client: Uuid, rest: impl FnOnce(&mut JsonWriter)) -> String {
    line(|w| {
        w.key("client");
        client.write_json(w);
        w.key("op");
        w.str(op);
        rest(w);
    })
}

/// Encode one ingested batch as a WAL line (no trailing newline).
pub fn ingest_line(batch: &Batch) -> String {
    client_line("ingest", batch.client, |w| {
        w.key("posted_at_us");
        w.u64(batch.posted_at.as_micros());
        w.key("reports");
        Report::write_array(batch.reports(), w);
    })
}

/// Encode a vote revocation as a WAL line.
pub fn revoke_line(client: Uuid) -> String {
    client_line("revoke", client, |_| {})
}

/// Encode a reporter-record removal as a WAL line.
pub fn remove_reporter_line(client: Uuid) -> String {
    client_line("remove_reporter", client, |_| {})
}

/// Encode a record-expiry sweep as a WAL line.
pub fn expire_line(now: SimTime, max_age: SimDuration) -> String {
    line(|w| {
        w.key("max_age_us");
        w.u64(max_age.as_micros());
        w.key("now_us");
        w.u64(now.as_micros());
        w.key("op");
        w.str("expire");
    })
}

/// What each key of a line held, whatever the line's `op`: keys may
/// come in any order, so which of them matter is only known at the end.
/// `None` is a key that was missing or held the wrong type.
#[derive(Default)]
struct Fields<'a> {
    op: Option<Cow<'a, str>>,
    /// Outer `None`: no `client` key; inner `None`: not a hex string.
    client: Option<Option<Uuid>>,
    posted_at_us: Option<u64>,
    reports: Option<Result<Vec<Report>, Poison>>,
    now_us: Option<u64>,
    max_age_us: Option<u64>,
}

impl<'a> Fields<'a> {
    fn read(text: &'a str) -> Result<Fields<'a>, JsonError> {
        let mut f = Fields::default();
        let mut r = JsonReader::new(text);
        if r.object()? {
            while let Some(key) = r.key()? {
                match &*key {
                    "op" => f.op = r.str()?,
                    "client" => f.client = Some(Uuid::read_json(&mut r)?),
                    "posted_at_us" => f.posted_at_us = r.u64()?,
                    "reports" => f.reports = Report::read_array(&mut r)?,
                    "now_us" => f.now_us = r.u64()?,
                    "max_age_us" => f.max_age_us = r.u64()?,
                    _ => r.skip()?,
                }
            }
        }
        r.end()?;
        Ok(f)
    }

    fn client(&self) -> Result<Uuid, StoreError> {
        self.client
            .ok_or_else(|| corrupt("missing client"))?
            .ok_or_else(|| corrupt("client must be a 16-hex-digit string"))
    }
}

fn corrupt(msg: &str) -> StoreError {
    StoreError::Corrupt(msg.into())
}

/// Apply one WAL line to a backend through the normal mutation paths.
///
/// This is the single replay routine shared by `JsonlStore::open`
/// (restart recovery) and the replica side of WAL shipping. A
/// truncated or hand-edited line is [`StoreError::Corrupt`]; the
/// backend is left untouched by a line that fails to parse. (No strict
/// prefix of a line parses: every line ends in the `}` that closes it.)
///
/// Note: replaying an `ingest` line bypasses registration checks by
/// design — the leader already gated the original post, and a replica
/// must accept whatever the ordered log says happened.
pub fn replay_line(backend: &dyn StorageBackend, line: &str) -> Result<(), StoreError> {
    let f = Fields::read(line).map_err(|e| StoreError::Corrupt(format!("not JSON: {e}")))?;
    match f.op.as_deref().ok_or_else(|| corrupt("missing op"))? {
        "ingest" => {
            let client = f.client()?;
            let posted_at = f
                .posted_at_us
                .map(SimTime::from_micros)
                .ok_or_else(|| corrupt("missing posted_at_us"))?;
            let reports = f
                .reports
                .ok_or_else(|| corrupt("missing reports"))?
                .map_err(|(_, reason)| StoreError::Wire(reason))?;
            backend.ingest(&Batch::new(client, reports, posted_at))?;
        }
        "revoke" => backend.revoke(f.client()?),
        "remove_reporter" => {
            backend.remove_reporter_records(f.client()?);
        }
        "expire" => {
            let now = f
                .now_us
                .map(SimTime::from_micros)
                .ok_or_else(|| corrupt("missing now_us"))?;
            let max_age = f
                .max_age_us
                .map(SimDuration::from_micros)
                .ok_or_else(|| corrupt("missing max_age_us"))?;
            backend.expire_records(now, max_age);
        }
        other => {
            return Err(StoreError::Corrupt(format!("unknown op {other:?}")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::ConfidenceFilter;
    use crate::shard::ShardedStore;
    use csaw_censor::blocking::BlockingType;
    use csaw_simnet::topology::Asn;

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
    fn every_op_roundtrips_through_replay() {
        let store = ShardedStore::new(4).unwrap();
        replay_line(&store, &ingest_line(&batch(1, "http://a.com/", 10))).unwrap();
        replay_line(&store, &ingest_line(&batch(2, "http://a.com/", 20))).unwrap();
        replay_line(&store, &ingest_line(&batch(3, "http://b.com/", 30))).unwrap();
        assert_eq!(store.record_count(), 2);
        replay_line(&store, &revoke_line(Uuid::from_raw(3))).unwrap();
        assert_eq!(store.tally("http://b.com/", Asn(9)).n, 0);
        replay_line(&store, &remove_reporter_line(Uuid::from_raw(3))).unwrap();
        assert_eq!(store.record_count(), 1);
        replay_line(
            &store,
            &expire_line(SimTime::from_secs(100), SimDuration::from_secs(1)),
        )
        .unwrap();
        assert_eq!(store.record_count(), 0);
    }

    #[test]
    fn expire_times_above_two_to_the_53_replay_exactly() {
        // A record posted at `big - 1` µs is 1 µs old at `big` and 2 µs
        // old at `big + 1`: a 2 µs expiry tells the two apart only if
        // no number was rounded on the way through the log.
        let big = u64::MAX - 1;
        let store = ShardedStore::new(2).unwrap();
        replay_line(&store, &ingest_line(&batch(1, "http://a.com/", big - 1))).unwrap();
        let line = expire_line(SimTime::from_micros(big), SimDuration::from_micros(2));
        assert_eq!(
            line,
            "{\"max_age_us\":2,\"now_us\":18446744073709551614,\"op\":\"expire\"}"
        );
        replay_line(&store, &line).unwrap();
        assert_eq!(store.record_count(), 1);
        replay_line(
            &store,
            &expire_line(SimTime::from_micros(big + 1), SimDuration::from_micros(2)),
        )
        .unwrap();
        assert_eq!(store.record_count(), 0);
    }

    #[test]
    fn garbage_lines_are_corrupt_not_panics() {
        let store = ShardedStore::new(2).unwrap();
        for bad in [
            "not json",
            "{}",
            "{\"op\":\"nope\"}",
            "{\"op\":\"ingest\"}",
            "{\"op\":\"ingest\",\"client\":\"zz\",\"posted_at_us\":1,\"reports\":[]}",
            "{\"op\":\"expire\",\"now_us\":1}",
        ] {
            assert!(
                matches!(replay_line(&store, bad), Err(StoreError::Corrupt(_))),
                "line {bad:?} should be Corrupt"
            );
        }
        assert_eq!(store.record_count(), 0);
    }

    #[test]
    fn replayed_state_matches_direct_ingest() {
        let direct = ShardedStore::new(4).unwrap();
        let replayed = ShardedStore::new(4).unwrap();
        for c in 0..6u64 {
            let b = batch(c, &format!("http://u{}.com/", c % 3), 100 + c);
            direct.ingest(&b).unwrap();
            replay_line(&replayed, &ingest_line(&b)).unwrap();
        }
        assert_eq!(direct.record_count(), replayed.record_count());
        let filter = ConfidenceFilter::strict(1, 0.0);
        assert_eq!(
            direct.blocked_for_as(Asn(9), &filter).unwrap(),
            replayed.blocked_for_as(Asn(9), &filter).unwrap()
        );
    }
}
