//! The storage backend trait, its decorators, and the journalling store.
//!
//! [`StorageBackend`] is *the* composition point of the global DB:
//! `ServerDb` is a registration/accounting façade over one
//! `Arc<dyn StorageBackend>`, the in-memory [`ShardedStore`] is the
//! leaf, and every other layer — the journalling [`Journaled`] store
//! here (on disk as [`JsonlStore`], in memory as [`ReplicatedStore`]),
//! fault injection in `csaw-faults` — is a [`Decorator`] of the same
//! trait, stacked in whatever order the deployment needs.
//!
//! The journal is a write-ahead log in the literal sense: every
//! mutating operation is encoded as one [`crate::wal`] line and handed
//! to the journal around its application to the wrapped backend, and
//! [`JsonlStore::open`] rebuilds the store by replaying the log through
//! the exact same code paths. The line codec lives in [`crate::wal`],
//! so restart replay and WAL shipping (`csaw-replica`) share it.

use crate::batch::{Batch, IngestReceipt};
use crate::error::StoreError;
use crate::ledger::{ConfidenceFilter, Tally, VoteLedger};
use crate::record::{GlobalRecord, Uuid};
use crate::shard::ShardedStore;
use crate::wal;
use csaw_obs::contention::TimedMutex;
use csaw_obs::metrics::Counter;
use csaw_obs::timeseries::Timeline;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// What a global measurement store must provide. Object-safe so the
/// server can hold `Arc<dyn StorageBackend>` and backends can be
/// swapped without touching the front-end.
///
/// This trait is the one place layers compose. A leaf store
/// ([`ShardedStore`]) implements it directly; a layer that wraps
/// another backend implements [`Decorator`] instead — naming the
/// wrapped backend and overriding only the calls it intercepts — and
/// gets this trait from the blanket impl, so pass-through delegation is
/// written once, below, not once per wrapper.
///
/// Every method takes `&self`: backends are internally synchronized and
/// shared across ingestion threads.
pub trait StorageBackend: Send + Sync + fmt::Debug {
    /// Ingest one client's report batch. Never panics on garbage input;
    /// unsalvageable reports are counted in the receipt's `rejected`.
    fn ingest(&self, batch: &Batch) -> Result<IngestReceipt, StoreError>;

    /// [`StorageBackend::ingest`], given the batch's [`wal::ingest_line`]
    /// already encoded: a journalling layer records `line` instead of
    /// encoding the batch again. Backends that keep no journal ignore
    /// it, which is the default.
    fn ingest_encoded(&self, batch: &Batch, line: &str) -> Result<IngestReceipt, StoreError> {
        let _ = line;
        self.ingest(batch)
    }

    /// Confidence-filtered snapshot of blocked URLs for one AS, sorted
    /// by URL.
    ///
    /// Fallible by design: backends that can be transiently unreachable
    /// (fault injection, remote stores) surface a failed download as an
    /// error the caller can see — not an empty list that silently wipes
    /// a client's cached view. In-memory backends never fail.
    fn blocked_for_as(
        &self,
        asn: Asn,
        filter: &ConfidenceFilter,
    ) -> Result<Vec<GlobalRecord>, StoreError>;

    /// Vote tally for one (URL, AS) key.
    fn tally(&self, url: &str, asn: Asn) -> Tally;

    /// Retract every vote a client has cast (reputation revocation).
    fn revoke(&self, client: Uuid);

    /// Drop every record a client reported; returns how many.
    fn remove_reporter_records(&self, client: Uuid) -> usize;

    /// Drop records older than `max_age` at time `now`; returns how many.
    fn expire_records(&self, now: SimTime, max_age: SimDuration) -> usize;

    /// Number of live records.
    fn record_count(&self) -> usize;

    /// Visit every live record (shard by shard; no global lock).
    fn for_each_record(&self, f: &mut dyn FnMut(&GlobalRecord));

    /// The vote ledger backing this store.
    fn ledger(&self) -> &VoteLedger;

    /// How many shards the keyspace is striped over.
    fn shard_count(&self) -> usize;

    /// Flush any buffered durable state. No-op for memory backends.
    fn flush(&self) -> Result<(), StoreError> {
        Ok(())
    }
}

/// A backend layer wrapped around another backend.
///
/// Implement this instead of [`StorageBackend`]: name the wrapped
/// backend and override the `on_*` hook of each call the layer
/// intercepts. Every hook defaults to passing the call through, and
/// the calls no layer has a reason to intercept (`tally`,
/// `record_count`, `for_each_record`, `ledger`, `shard_count`) have no
/// hook at all.
pub trait Decorator: Send + Sync + fmt::Debug {
    /// The wrapped backend.
    fn inner(&self) -> &dyn StorageBackend;

    /// [`StorageBackend::ingest`] as this layer sees it.
    fn on_ingest(&self, batch: &Batch) -> Result<IngestReceipt, StoreError> {
        self.inner().ingest(batch)
    }

    /// [`StorageBackend::ingest_encoded`] as this layer sees it. The
    /// default is this layer's own [`Decorator::on_ingest`], which drops
    /// the line: a layer may change what reaches the backend below it
    /// (`csaw-faults` tears batches), and a line handed on must describe
    /// what is applied. A layer that applies the batch unchanged may
    /// pass the line down.
    fn on_ingest_encoded(&self, batch: &Batch, line: &str) -> Result<IngestReceipt, StoreError> {
        let _ = line;
        self.on_ingest(batch)
    }

    /// [`StorageBackend::blocked_for_as`] as this layer sees it.
    fn on_blocked_for_as(
        &self,
        asn: Asn,
        filter: &ConfidenceFilter,
    ) -> Result<Vec<GlobalRecord>, StoreError> {
        self.inner().blocked_for_as(asn, filter)
    }

    /// [`StorageBackend::revoke`] as this layer sees it.
    fn on_revoke(&self, client: Uuid) {
        self.inner().revoke(client)
    }

    /// [`StorageBackend::remove_reporter_records`] as this layer sees it.
    fn on_remove_reporter_records(&self, client: Uuid) -> usize {
        self.inner().remove_reporter_records(client)
    }

    /// [`StorageBackend::expire_records`] as this layer sees it.
    fn on_expire_records(&self, now: SimTime, max_age: SimDuration) -> usize {
        self.inner().expire_records(now, max_age)
    }

    /// [`StorageBackend::flush`] as this layer sees it.
    fn on_flush(&self) -> Result<(), StoreError> {
        self.inner().flush()
    }
}

impl<D: Decorator> StorageBackend for D {
    fn ingest(&self, batch: &Batch) -> Result<IngestReceipt, StoreError> {
        self.on_ingest(batch)
    }

    fn ingest_encoded(&self, batch: &Batch, line: &str) -> Result<IngestReceipt, StoreError> {
        self.on_ingest_encoded(batch, line)
    }

    fn blocked_for_as(
        &self,
        asn: Asn,
        filter: &ConfidenceFilter,
    ) -> Result<Vec<GlobalRecord>, StoreError> {
        self.on_blocked_for_as(asn, filter)
    }

    fn tally(&self, url: &str, asn: Asn) -> Tally {
        self.inner().tally(url, asn)
    }

    fn revoke(&self, client: Uuid) {
        self.on_revoke(client)
    }

    fn remove_reporter_records(&self, client: Uuid) -> usize {
        self.on_remove_reporter_records(client)
    }

    fn expire_records(&self, now: SimTime, max_age: SimDuration) -> usize {
        self.on_expire_records(now, max_age)
    }

    fn record_count(&self) -> usize {
        self.inner().record_count()
    }

    fn for_each_record(&self, f: &mut dyn FnMut(&GlobalRecord)) {
        self.inner().for_each_record(f)
    }

    fn ledger(&self) -> &VoteLedger {
        self.inner().ledger()
    }

    fn shard_count(&self) -> usize {
        self.inner().shard_count()
    }

    fn flush(&self) -> Result<(), StoreError> {
        self.on_flush()
    }
}

/// Where a [`Journaled`] store's WAL lines go.
pub trait Journal: Send + Sync + fmt::Debug {
    /// When an `ingest` is recorded relative to its application.
    ///
    /// `true` is a durable log: the line is recorded *before* the batch
    /// is applied, and a refused record refuses the ingest — the store
    /// never holds what its log does not. `false` is a ship log: the
    /// line is recorded only once the wrapped backend took the batch —
    /// a replica never applies a mutation the leader refused.
    const WRITE_AHEAD: bool;

    /// Record one WAL line (no trailing newline).
    fn record(&self, line: &str) -> Result<(), StoreError>;

    /// Push buffered lines to their destination.
    fn flush(&self) -> Result<(), StoreError> {
        Ok(())
    }
}

/// The journalling decorator: every mutation of the wrapped backend is
/// encoded as one [`crate::wal`] line and recorded in the journal `J`.
///
/// Two journals exist. [`JsonlStore`] appends to a file, ahead of every
/// apply; [`JsonlStore::open`] replays the file through the normal
/// ingest/revoke/expire paths, so a reopened store is state-identical
/// to the one that wrote the log (stable FNV shard placement makes
/// replay land every key on the same shard). [`ReplicatedStore`] keeps
/// the lines in memory for `csaw-replica`'s `WalShipper` to stream.
///
/// A batch is encoded once per stack: the outermost journal encodes it
/// and hands the line down through [`StorageBackend::ingest_encoded`],
/// so a `ReplicatedStore` over a `JsonlStore` records one line twice,
/// not two encodings of one batch.
///
/// `revoke`, `remove_reporter_records` and `expire_records` cannot
/// refuse, so they are applied even when the journal refuses their
/// line; every refused line counts into `store.wal.append_failed` and
/// emits a `store.wal.append_failed` event — a log that silently
/// diverges from memory is the failure replay cannot see. An `ingest`
/// that comes back `Ok` with deferred indices (a torn write below) is
/// journalled whole; the log and the store agree again once the client
/// resubmits the deferred reports, as its receipt tells it to.
#[derive(Debug)]
pub struct Journaled<J> {
    inner: Arc<dyn StorageBackend>,
    journal: J,
}

impl<J: Journal> Journaled<J> {
    fn record(&self, line: &str) -> Result<(), StoreError> {
        self.journal.record(line).inspect_err(|e| {
            csaw_obs::inc("store.wal.append_failed");
            csaw_obs::event!("store.wal.append_failed", error = e.to_string());
        })
    }
}

impl<J: Journal> Decorator for Journaled<J> {
    fn inner(&self) -> &dyn StorageBackend {
        &*self.inner
    }

    fn on_ingest(&self, batch: &Batch) -> Result<IngestReceipt, StoreError> {
        self.on_ingest_encoded(batch, &wal::ingest_line(batch))
    }

    fn on_ingest_encoded(&self, batch: &Batch, line: &str) -> Result<IngestReceipt, StoreError> {
        if J::WRITE_AHEAD {
            self.record(line)?;
        }
        // The journal's lock is never held across the apply.
        let receipt = self.inner.ingest_encoded(batch, line)?;
        if !J::WRITE_AHEAD {
            self.record(line)?;
        }
        Ok(receipt)
    }

    fn on_revoke(&self, client: Uuid) {
        let _ = self.record(&wal::revoke_line(client));
        self.inner.revoke(client);
    }

    fn on_remove_reporter_records(&self, client: Uuid) -> usize {
        let _ = self.record(&wal::remove_reporter_line(client));
        self.inner.remove_reporter_records(client)
    }

    fn on_expire_records(&self, now: SimTime, max_age: SimDuration) -> usize {
        let _ = self.record(&wal::expire_line(now, max_age));
        self.inner.expire_records(now, max_age)
    }

    fn on_flush(&self) -> Result<(), StoreError> {
        self.journal.flush()?;
        self.inner.flush()
    }
}

/// The on-disk journal: an append-only JSONL file, one line per
/// mutating operation, buffered until [`StorageBackend::flush`]. Its
/// counters are resolved once, from the observability scope current at
/// [`JsonlStore::open`].
#[derive(Debug)]
pub struct FileLog {
    path: PathBuf,
    log: TimedMutex<BufWriter<File>>,
    appends: Arc<Counter>,
    bytes: Arc<Counter>,
    timeline: Arc<Timeline>,
}

impl Journal for FileLog {
    const WRITE_AHEAD: bool = true;

    fn record(&self, line: &str) -> Result<(), StoreError> {
        {
            let mut log = self.log.lock();
            log.write_all(line.as_bytes())
                .and_then(|()| log.write_all(b"\n"))
                .map_err(|e| StoreError::io(&self.path, e))?;
        }
        self.appends.inc();
        self.bytes.add(line.len() as u64 + 1);
        // Windowed WAL lag signal: appends per window on the timeline.
        if self.timeline.enabled() {
            self.timeline.counter("store.wal.appends", &[]).inc();
        }
        Ok(())
    }

    fn flush(&self) -> Result<(), StoreError> {
        let mut log = self.log.lock();
        log.flush().map_err(|e| StoreError::io(&self.path, e))
    }
}

/// The in-memory sharded store behind an append-only JSONL write-ahead
/// log on disk.
pub type JsonlStore = Journaled<FileLog>;

impl Journaled<FileLog> {
    /// Open (or create) a log at `path` over a fresh `shards`-way store,
    /// replaying any existing operations.
    ///
    /// A last line that lacks its newline and does not replay is a write
    /// a crash tore: it is dropped, cut off the file (so the next append
    /// starts a line of its own) and counted in
    /// `store.wal.torn_tail_dropped`. Any other line that does not replay
    /// is [`StoreError::Corrupt`] with its line number.
    pub fn open(path: &Path, shards: usize) -> Result<JsonlStore, StoreError> {
        let io = |e| StoreError::io(path, e);
        let inner = ShardedStore::new(shards)?;
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)
            .map_err(io)?;
        match replay_log(&file, path, &inner)? {
            Tail::Clean => {}
            Tail::Unterminated => file.write_all(b"\n").map_err(io)?,
            Tail::Torn { keep } => {
                csaw_obs::inc("store.wal.torn_tail_dropped");
                file.set_len(keep).map_err(io)?;
            }
        }
        let obs = csaw_obs::current();
        Ok(Journaled {
            inner: Arc::new(inner),
            journal: FileLog {
                path: path.to_path_buf(),
                log: TimedMutex::new("store.wal.log", BufWriter::new(file)),
                appends: obs.registry.counter("store.wal.appends"),
                bytes: obs.registry.counter("store.wal.bytes"),
                timeline: obs.timeline.clone(),
            },
        })
    }
}

/// How a replayed log ends.
enum Tail {
    /// In a newline, or empty.
    Clean,
    /// In a line that replayed but lacks its newline.
    Unterminated,
    /// In a fragment that lacks its newline and does not replay; the
    /// lines before it are the first `keep` bytes.
    Torn {
        /// Length of the log's replayed prefix.
        keep: u64,
    },
}

/// Replay the log in `file` into `store`, one reused line buffer at a
/// time.
fn replay_log(file: &File, path: &Path, store: &dyn StorageBackend) -> Result<Tail, StoreError> {
    let mut reader = BufReader::new(file);
    let mut buf = Vec::new();
    let (mut keep, mut no) = (0u64, 0usize);
    loop {
        buf.clear();
        let n = reader
            .read_until(b'\n', &mut buf)
            .map_err(|e| StoreError::io(path, e))?;
        if n == 0 {
            return Ok(Tail::Clean);
        }
        no += 1;
        let terminated = buf.ends_with(b"\n");
        let replayed = std::str::from_utf8(&buf)
            .map_err(|_| StoreError::Corrupt("not UTF-8".into()))
            .and_then(|text| {
                let text = text.strip_suffix('\n').unwrap_or(text);
                let text = text.strip_suffix('\r').unwrap_or(text);
                if text.trim().is_empty() {
                    return Ok(());
                }
                wal::replay_line(store, text)
            });
        match (replayed, terminated) {
            (Ok(()), true) => keep += n as u64,
            (Ok(()), false) => return Ok(Tail::Unterminated),
            (Err(_), false) => return Ok(Tail::Torn { keep }),
            (Err(e), true) => return Err(StoreError::Corrupt(format!("line {no}: {e}"))),
        }
    }
}

/// The in-memory journal a leader keeps for WAL shipping: line `n` of
/// the log is sequence number `n`.
pub struct ShipLog {
    lines: Mutex<ShipLines>,
    appends: Arc<Counter>,
}

/// The ship log's lines back to back in one buffer. One growing
/// allocation, not one per line: a log of lines each copied to its own
/// exact-size block left the heap fragmented, and measurably slowed the
/// allocations of whatever ran after the log was dropped.
#[derive(Default)]
struct ShipLines {
    text: String,
    /// Where line `n` ends in `text`.
    ends: Vec<usize>,
}

impl ShipLines {
    fn line(&self, n: usize) -> &str {
        let start = n.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.text[start..self.ends[n]]
    }
}

impl fmt::Debug for ShipLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lines = self.lines.lock().expect("wal lock poisoned").ends.len();
        f.debug_struct("ShipLog").field("lines", &lines).finish()
    }
}

impl Journal for ShipLog {
    const WRITE_AHEAD: bool = false;

    fn record(&self, line: &str) -> Result<(), StoreError> {
        {
            let mut log = self.lines.lock().expect("wal lock poisoned");
            log.text.push_str(line);
            let end = log.text.len();
            log.ends.push(end);
        }
        self.appends.inc();
        Ok(())
    }
}

/// A leader-side wrapper that journals every mutation its backend took
/// into an in-memory WAL for `csaw-replica`'s `WalShipper` to stream.
pub type ReplicatedStore = Journaled<ShipLog>;

impl Journaled<ShipLog> {
    /// Wrap a backend; the log starts empty at sequence 0. Its counter
    /// is resolved from the observability scope current here.
    pub fn new(inner: Arc<dyn StorageBackend>) -> ReplicatedStore {
        Journaled {
            inner,
            journal: ShipLog {
                lines: Mutex::default(),
                appends: csaw_obs::current().registry.counter("replica.wal.appends"),
            },
        }
    }

    /// Total WAL lines written so far (the next line gets this seq).
    pub fn leader_seq(&self) -> u64 {
        self.journal
            .lines
            .lock()
            .expect("wal lock poisoned")
            .ends
            .len() as u64
    }

    /// Up to `max` log lines starting at `from_seq`, in log order.
    pub fn lines_from(&self, from_seq: u64, max: usize) -> Vec<String> {
        let wal = self.journal.lines.lock().expect("wal lock poisoned");
        let len = wal.ends.len();
        let from = usize::try_from(from_seq).map_or(len, |n| n.min(len));
        let to = from.saturating_add(max).min(len);
        (from..to).map(|n| wal.line(n).to_owned()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Report;
    use csaw_censor::blocking::BlockingType;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "csaw-store-test-{}-{name}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn batch(client: u64, url: &str, asn: u32, t: u64) -> Batch {
        Batch::new(
            Uuid::from_raw(client),
            vec![Report {
                url: url.into(),
                asn,
                measured_at_us: t,
                stages: vec![BlockingType::HttpDrop],
            }],
            SimTime::from_micros(t),
        )
    }

    #[test]
    fn replay_restores_records_and_votes() {
        let path = tmp("replay");
        {
            let s = JsonlStore::open(&path, 4).unwrap();
            s.ingest(&batch(0xdead_beef_dead_beef, "http://a.com/", 7, 10))
                .unwrap();
            s.ingest(&batch(2, "http://a.com/", 7, 20)).unwrap();
            s.ingest(&batch(3, "http://b.com/", 7, 30)).unwrap();
            s.revoke(Uuid::from_raw(3));
            s.flush().unwrap();
        }
        let s = JsonlStore::open(&path, 4).unwrap();
        assert_eq!(s.record_count(), 2);
        let t = s.tally("http://a.com/", Asn(7));
        assert_eq!(t.n, 2);
        assert_eq!(
            s.tally("http://b.com/", Asn(7)).n,
            0,
            "revoked vote replayed"
        );
        // Full-range UUID survives the hex round-trip.
        assert_eq!(
            s.ledger()
                .client_urls(Uuid::from_raw(0xdead_beef_dead_beef))
                .len(),
            1
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_is_shard_count_independent_in_content() {
        let path = tmp("shards");
        {
            let s = JsonlStore::open(&path, 16).unwrap();
            for c in 0..20u64 {
                s.ingest(&batch(c, &format!("http://s{}.com/", c % 5), 1, c))
                    .unwrap();
            }
            s.flush().unwrap();
        }
        // Reopen with a different stripe width: same logical state.
        let s = JsonlStore::open(&path, 3).unwrap();
        assert_eq!(s.shard_count(), 3);
        assert_eq!(s.record_count(), 5);
        let v = s
            .blocked_for_as(Asn(1), &ConfidenceFilter::strict(2, 0.0))
            .unwrap();
        assert_eq!(v.len(), 5);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_line_is_an_error_with_line_number() {
        let path = tmp("corrupt");
        std::fs::write(&path, "{\"op\":\"ingest\"}\n").unwrap();
        let err = JsonlStore::open(&path, 2).unwrap_err();
        match err {
            StoreError::Corrupt(msg) => assert!(msg.contains("line 1"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::write(&path, "not json at all\n").unwrap();
        assert!(JsonlStore::open(&path, 2).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_torn_last_line_is_dropped_and_the_next_append_starts_a_line() {
        use csaw_obs::scope::{self, ObsCtx};
        let ctx = Arc::new(ObsCtx::new());
        let _g = scope::install(ctx.clone());
        let dropped = || ctx.registry.counter("store.wal.torn_tail_dropped").get();
        let path = tmp("torn");
        let first = wal::ingest_line(&batch(1, "http://a.com/", 7, 10));
        let second = wal::ingest_line(&batch(2, "http://b.com/", 7, 20));

        // Half of the second line made it to disk.
        std::fs::write(&path, format!("{first}\n{}", &second[..40])).unwrap();
        let s = JsonlStore::open(&path, 2).unwrap();
        assert_eq!((s.record_count(), dropped()), (1, 1));
        s.ingest(&batch(3, "http://c.com/", 7, 30)).unwrap();
        s.flush().unwrap();
        drop(s);
        let s = JsonlStore::open(&path, 2).unwrap();
        assert_eq!((s.record_count(), dropped()), (2, 1));
        drop(s);

        // All of it but the newline: the line stands, and is ended.
        std::fs::write(&path, format!("{first}\n{second}")).unwrap();
        let s = JsonlStore::open(&path, 2).unwrap();
        s.revoke(Uuid::from_raw(1));
        s.flush().unwrap();
        assert_eq!((s.record_count(), dropped()), (2, 1));
        let text = std::fs::read_to_string(&path).unwrap();
        let revoke = wal::revoke_line(Uuid::from_raw(1));
        assert_eq!(text, format!("{first}\n{second}\n{revoke}\n"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn expire_survives_replay() {
        let path = tmp("expire");
        {
            let s = JsonlStore::open(&path, 2).unwrap();
            s.ingest(&batch(1, "http://old.com/", 1, 1_000_000))
                .unwrap();
            s.ingest(&batch(2, "http://new.com/", 1, 60_000_000))
                .unwrap();
            assert_eq!(
                s.expire_records(SimTime::from_secs(61), SimDuration::from_secs(30)),
                1
            );
            s.flush().unwrap();
        }
        let s = JsonlStore::open(&path, 2).unwrap();
        assert_eq!(s.record_count(), 1);
        let mut urls = Vec::new();
        s.for_each_record(&mut |r| urls.push(r.url.clone()));
        assert_eq!(urls, ["http://new.com/"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lines_from_windows_the_log() {
        let leader = ReplicatedStore::new(Arc::new(ShardedStore::new(2).unwrap()));
        for c in 0..5u64 {
            leader
                .ingest(&batch(c, &format!("http://u{c}.com/"), 9, c + 1))
                .unwrap();
        }
        assert_eq!(leader.leader_seq(), 5);
        assert_eq!(leader.lines_from(0, 2).len(), 2);
        assert_eq!(leader.lines_from(3, 10).len(), 2);
        assert_eq!(leader.lines_from(5, 10).len(), 0);
        assert_eq!(leader.lines_from(99, 10).len(), 0);
        assert_eq!(leader.lines_from(u64::MAX, usize::MAX).len(), 0);
        let lines: Vec<String> = (1..3u64)
            .map(|c| wal::ingest_line(&batch(c, &format!("http://u{c}.com/"), 9, c + 1)))
            .collect();
        assert_eq!(leader.lines_from(1, 2), lines);
    }

    /// A journal whose destination is gone.
    #[derive(Debug)]
    struct Refusing<const WRITE_AHEAD: bool>;

    impl<const WRITE_AHEAD: bool> Journal for Refusing<WRITE_AHEAD> {
        const WRITE_AHEAD: bool = WRITE_AHEAD;

        fn record(&self, _line: &str) -> Result<(), StoreError> {
            Err(StoreError::Unavailable("journal refused"))
        }
    }

    #[test]
    fn refused_lines_are_counted_and_only_a_write_ahead_ingest_is_refused() {
        use csaw_obs::scope::{self, ObsCtx};
        let ctx = Arc::new(ObsCtx::new());
        let _g = scope::install(ctx.clone());
        let failed = || ctx.registry.counter("store.wal.append_failed").get();

        let ahead = Journaled {
            inner: Arc::new(ShardedStore::new(2).unwrap()),
            journal: Refusing::<true>,
        };
        // Never hold what the log does not: the batch is not applied.
        assert_eq!(
            ahead.ingest(&batch(1, "http://a.com/", 7, 10)),
            Err(StoreError::Unavailable("journal refused"))
        );
        assert_eq!((ahead.record_count(), failed()), (0, 1));

        // The mutations that cannot refuse are applied regardless — and
        // the divergence is counted, not silent.
        let behind = Journaled {
            inner: Arc::new(ShardedStore::new(2).unwrap()),
            journal: Refusing::<false>,
        };
        behind
            .inner
            .ingest(&batch(1, "http://a.com/", 7, 10))
            .unwrap();
        behind.revoke(Uuid::from_raw(1));
        assert_eq!(behind.tally("http://a.com/", Asn(7)).n, 0);
        assert_eq!(behind.remove_reporter_records(Uuid::from_raw(1)), 1);
        behind.expire_records(SimTime::from_secs(1), SimDuration::from_secs(1));
        assert_eq!(failed(), 4);
    }
}
