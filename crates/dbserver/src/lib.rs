//! # csaw-dbserver — the global DB served over real sockets
//!
//! The paper's server_DB was a hosted service reached over the network
//! (MongoLab/Heroku); this crate is our reproduction of that deployment
//! shape: a standalone TCP server that fronts a [`ServerDb`] with the
//! length-framed wire protocol from [`csaw_store::net`], carried by the
//! shared incremental codec in [`csaw_webproto::codec`].
//!
//! ## Threads, not polling
//!
//! The workspace is hermetic (no `mio`, no `libc`), and the one thing
//! `std::net` does without polling is block. So nothing here sleeps, or
//! spins for longer than one look, while idle:
//!
//! 1. One **acceptor** thread (named `csaw-dbserver`) blocks in
//!    `accept` and spawns one thread per connection.
//! 2. Each **connection** thread waits for bytes with
//!    [`csaw_webproto::codec::read_looking`], decodes every complete
//!    frame they finish, executes each through the shared `Service`,
//!    and answers them in order with one `write_all`. The wait looks
//!    for the peer's bytes for
//!    [`LOOK_BEFORE_BLOCK`](csaw_webproto::codec::LOOK_BEFORE_BLOCK)
//!    without sleeping before it blocks in `read`: a closed-loop
//!    client's next request is usually already on its way. The client
//!    end (`RemoteDb`, the WAL shipper) waits for each answer the same
//!    way, so on a loopback round trip neither side usually pays a
//!    futex wake-up.
//! 3. **Execution** is transport-free: `Service::handle` maps one
//!    request frame to one response and touches no socket, so any
//!    number of connection threads run it at once over the lock-striped
//!    [`ServerDb`]. `Post` requests beyond the in-flight bound are
//!    answered with an all-`deferred_indices` receipt instead of being
//!    dropped — the client-side reconciliation (PR 4's contract)
//!    re-queues exactly those reports.
//!
//! ## Graceful drain
//!
//! [`DbServerHandle::drain`] stops accepting, shuts down the read half
//! of every open connection — bytes the server had already received
//! are still served and their responses written, then the connection
//! thread sees end-of-stream — and joins every thread. A batch whose
//! receipt was sent is never lost; a client whose request had not fully
//! arrived sees a closed connection — an explicit error on its side,
//! never a silent drop. A peer that stops reading cannot hold a drain
//! up: accepted sockets carry a write timeout, and a write that times
//! out closes the connection.
//!
//! Stop and drain set their flag *first* and then wake the blocked
//! acceptor with a loopback connect; the acceptor re-checks the flag
//! after *every* `accept`. So it does not matter whose connection wakes
//! it: if a client's connect is accepted in place of the wake-up, the
//! acceptor still sees the flag and leaves, and the unaccepted wake-up
//! is reset with the listener. (The proxy's historical shutdown race
//! checked the flag only before blocking.)
//!
//! ## Replication (`SHIP`/`SHIP_ACK`)
//!
//! A dbserver can also act as a **read replica**: a leader streams its
//! WAL over [`csaw_store::net::op::SHIP`] frames, and the server
//! applies each line through [`csaw_store::wal::replay_line`] — the
//! same code path `JsonlStore::open` replays on restart. The server
//! tracks how many lines it has applied (`wal_applied_seq`, one
//! shipment at a time under a lock) and acks that position after every
//! shipment, which makes the protocol idempotent: a re-shipped overlap
//! is skipped, and a shipment that starts *beyond* the applied position
//! is refused by acking the true position so the leader rewinds. A
//! `SHIP` frame that does not decode (see [`csaw_store::net`] for its
//! length-prefixed layout) is a protocol error and applies nothing.
//! Replayed ingests bypass the registrar by design — the leader already
//! gated the original post.
//!
//! ## Example
//!
//! Spawn a server over a fresh in-memory DB and query it over a real
//! socket:
//!
//! ```
//! use csaw::global::ServerDb;
//! use csaw_dbserver::{spawn_dbserver, DbServerConfig};
//! use csaw_store::net::{DbRequest, DbResponse};
//! use csaw_store::ConfidenceFilter;
//! use csaw_simnet::topology::Asn;
//! use csaw_webproto::bytes::BytesMut;
//! use csaw_webproto::codec::{read_frame, write_frame};
//! use std::net::TcpStream;
//! use std::sync::Arc;
//!
//! let server = Arc::new(ServerDb::builder(1).build()?);
//! let handle = spawn_dbserver(server, DbServerConfig::default())?;
//! let mut stream = TcpStream::connect(handle.addr())?;
//! let req = DbRequest::Blocked { asn: Asn(1), filter: ConfidenceFilter::default() };
//! write_frame(&mut stream, &req.to_frame())?;
//! let mut buf = BytesMut::new();
//! let frame = read_frame(&mut stream, &mut buf)?.expect("server must respond");
//! let resp = DbResponse::from_frame(&frame)?;
//! assert!(matches!(resp, DbResponse::Records(ref r) if r.is_empty()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use csaw::global::ServerDb;
use csaw_store::net::{DbRequest, DbResponse};
use csaw_store::Batch;
use csaw_webproto::bytes::BytesMut;
use csaw_webproto::codec::{decode_frame, read_looking, Frame};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a response write may make no progress before the
/// connection is given up on — the same 10 s `RemoteDb` waits on its
/// side. Without it a peer that stops reading would pin its thread in
/// `write_all`, and [`DbServerHandle::drain`] with it, forever. (This
/// crate's unit tests wait it out, so they get a short one.)
const WRITE_TIMEOUT: Duration = Duration::from_millis(if cfg!(test) { 300 } else { 10_000 });

/// The server's one setting.
#[derive(Debug, Clone)]
pub struct DbServerConfig {
    /// Maximum `Post` requests executing at once, over all
    /// connections. A post that arrives while this many are inside
    /// `ingest` receives an all-deferred receipt (bounded backpressure,
    /// never a silent drop).
    pub max_posts_in_flight: usize,
}

impl Default for DbServerConfig {
    fn default() -> Self {
        DbServerConfig {
            max_posts_in_flight: 1024,
        }
    }
}

/// Monotone counters published by the connection threads. Snapshot
/// with [`DbServerHandle::stats`].
#[derive(Debug, Default)]
struct AtomicStats {
    connections_accepted: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    registers: AtomicU64,
    posts: AtomicU64,
    blocked_queries: AtomicU64,
    ship_requests: AtomicU64,
    wal_lines_applied: AtomicU64,
    wal_applied_seq: AtomicU64,
    batches_ingested: AtomicU64,
    batches_deferred: AtomicU64,
    reports_accepted: AtomicU64,
    reports_rejected: AtomicU64,
    reports_deferred: AtomicU64,
    protocol_errors: AtomicU64,
    passes: AtomicU64,
    passes_with_requests: AtomicU64,
}

/// A point-in-time copy of the server's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections_accepted: u64,
    /// Request frames decoded.
    pub frames_in: u64,
    /// Response frames written.
    pub frames_out: u64,
    /// `Register` requests served.
    pub registers: u64,
    /// `Post` requests received (ingested + deferred).
    pub posts: u64,
    /// `Blocked` download requests served.
    pub blocked_queries: u64,
    /// `Ship` (WAL replication) requests received.
    pub ship_requests: u64,
    /// WAL lines applied through the replication path.
    pub wal_lines_applied: u64,
    /// The replica's current WAL position (lines applied in total).
    pub wal_applied_seq: u64,
    /// Batches actually handed to `ingest`.
    pub batches_ingested: u64,
    /// Batches answered with an all-deferred backpressure receipt.
    pub batches_deferred: u64,
    /// Reports accepted across all ingested batches.
    pub reports_accepted: u64,
    /// Reports rejected by sanitization across all ingested batches.
    pub reports_rejected: u64,
    /// Reports deferred (backend + backpressure) across all receipts.
    pub reports_deferred: u64,
    /// Frames or payloads that failed to decode.
    pub protocol_errors: u64,
    /// Socket reads that returned bytes, over all connections. An idle
    /// server adds none.
    pub passes: u64,
    /// Those reads whose bytes completed at least one request frame.
    pub passes_with_requests: u64,
}

impl AtomicStats {
    fn snapshot(&self) -> DbServerStats {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        DbServerStats {
            connections_accepted: get(&self.connections_accepted),
            frames_in: get(&self.frames_in),
            frames_out: get(&self.frames_out),
            registers: get(&self.registers),
            posts: get(&self.posts),
            blocked_queries: get(&self.blocked_queries),
            ship_requests: get(&self.ship_requests),
            wal_lines_applied: get(&self.wal_lines_applied),
            wal_applied_seq: get(&self.wal_applied_seq),
            batches_ingested: get(&self.batches_ingested),
            batches_deferred: get(&self.batches_deferred),
            reports_accepted: get(&self.reports_accepted),
            reports_rejected: get(&self.reports_rejected),
            reports_deferred: get(&self.reports_deferred),
            protocol_errors: get(&self.protocol_errors),
            passes: get(&self.passes),
            passes_with_requests: get(&self.passes_with_requests),
        }
    }
}

/// What the handle has asked of the acceptor.
const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPING: u8 = 2;

/// Handle to a running [`spawn_dbserver`] server. Dropping it stops
/// the server immediately; call [`DbServerHandle::drain`] first for a
/// graceful shutdown.
#[derive(Debug)]
pub struct DbServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    asked: Arc<AtomicU8>,
    join: Option<JoinHandle<()>>,
}

impl DbServerHandle {
    /// The loopback address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot the server's counters.
    pub fn stats(&self) -> DbServerStats {
        self.service.stats.snapshot()
    }

    /// Graceful drain: stop accepting, serve every fully-received
    /// request, write all responses, close, and join every thread.
    pub fn drain(mut self) -> DbServerStats {
        self.shut_down(DRAINING);
        self.service.stats.snapshot()
    }

    /// Flag first, then wake: the acceptor is blocked in `accept` and
    /// re-checks the flag after every connection, whoever sent it.
    fn shut_down(&mut self, how: u8) {
        let Some(join) = self.join.take() else {
            return;
        };
        self.asked.store(how, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        let _ = join.join();
    }
}

impl Drop for DbServerHandle {
    fn drop(&mut self) {
        self.shut_down(STOPPING);
    }
}

/// Bind a loopback listener and serve `server` over the wire protocol
/// from background threads.
pub fn spawn_dbserver(server: Arc<ServerDb>, cfg: DbServerConfig) -> io::Result<DbServerHandle> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let asked = Arc::new(AtomicU8::new(RUNNING));
    let service = Arc::new(Service {
        server,
        cfg,
        stats: AtomicStats::default(),
        wal_seq: Mutex::new(0),
        posts_in_flight: AtomicUsize::new(0),
    });
    // Inherit the spawner's observability scope: metrics the server
    // emits (store ingest, WAL replays) land in the same context as the
    // experiment trial that spawned it, not the process-global one.
    let ctx = csaw_obs::current();
    let join = std::thread::Builder::new()
        .name("csaw-dbserver".into())
        .spawn({
            let (service, asked) = (Arc::clone(&service), Arc::clone(&asked));
            move || {
                let _scope = csaw_obs::install(ctx);
                accept_loop(listener, service, &asked)
            }
        })?;
    Ok(DbServerHandle {
        addr,
        service,
        asked,
        join: Some(join),
    })
}

/// Accept until asked to leave, one thread per connection; then close
/// the listener, end every connection and join its thread.
fn accept_loop(listener: TcpListener, service: Arc<Service>, asked: &AtomicU8) {
    // The acceptor's half of each live connection (to shut it down
    // from here) and the thread serving the other half.
    let mut conns: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    let how = loop {
        let accepted = listener.accept();
        let how = asked.load(Ordering::SeqCst);
        if how != RUNNING {
            break how;
        }
        conns.retain(|(_, thread)| !thread.is_finished());
        let Ok((mut stream, _)) = accepted else {
            // Out of descriptors, most likely: closing connections
            // frees some, spinning on the error does not.
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        let _ = stream.set_nodelay(true);
        let (Ok(()), Ok(ours)) = (
            stream.set_write_timeout(Some(WRITE_TIMEOUT)),
            stream.try_clone(),
        ) else {
            continue;
        };
        service
            .stats
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        // Spawned from this thread so that connection threads inherit
        // its CPU mask as well as its observability scope.
        let spawned = std::thread::Builder::new()
            .name("csaw-dbserver-conn".into())
            .spawn({
                let (service, ctx) = (Arc::clone(&service), csaw_obs::current());
                move || {
                    let _scope = csaw_obs::install(ctx);
                    service.serve(&mut stream);
                    // The acceptor holds the other handle to this
                    // socket, so dropping ours would not close it.
                    let _ = stream.shutdown(Shutdown::Both);
                }
            });
        if let Ok(thread) = spawned {
            conns.push((ours, thread));
        }
    };
    drop(listener);
    // Drain closes only the read half: bytes already received are
    // still served and answered, then the thread reads end-of-stream.
    // Partial frames belong to requests that never fully arrived;
    // their senders observe the close as an explicit error.
    let half = if how == DRAINING {
        Shutdown::Read
    } else {
        Shutdown::Both
    };
    for (ours, _) in &conns {
        let _ = ours.shutdown(half);
    }
    for (_, thread) in conns {
        let _ = thread.join();
    }
}

/// Everything a request needs and no socket: shared by every
/// connection thread, and drivable without one.
#[derive(Debug)]
struct Service {
    server: Arc<ServerDb>,
    cfg: DbServerConfig,
    stats: AtomicStats,
    /// WAL lines applied via `Ship` so far — the replica's position.
    /// Held for a whole shipment, so connections shipping overlapping
    /// ranges apply each line once; `stats.wal_applied_seq` mirrors it
    /// for observers.
    wal_seq: Mutex<u64>,
    /// `Post` requests inside `ingest` right now.
    posts_in_flight: AtomicUsize,
}

impl Service {
    /// One connection, until the peer closes, the server shuts the
    /// socket down, framing is lost or a write fails.
    fn serve(&self, stream: &mut TcpStream) {
        let mut rbuf = BytesMut::new();
        let mut chunk = [0u8; 16 * 1024];
        let mut out = Vec::new();
        loop {
            let n = match read_looking(stream, &mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => n,
            };
            rbuf.extend_from_slice(&chunk[..n]);
            self.stats.passes.fetch_add(1, Ordering::Relaxed);
            let (mut requests, mut framing_lost) = (false, false);
            while !framing_lost {
                let resp = match decode_frame(&mut rbuf) {
                    Ok(Some(frame)) => {
                        self.stats.frames_in.fetch_add(1, Ordering::Relaxed);
                        requests = true;
                        self.handle(&frame)
                    }
                    Ok(None) => break,
                    Err(_) => {
                        // Answer with a protocol error, then close.
                        self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        framing_lost = true;
                        DbResponse::Error {
                            code: "frame".into(),
                            detail: "unframeable bytes; closing".into(),
                            index: None,
                        }
                    }
                };
                out.extend_from_slice(&resp.to_frame().encode());
                self.stats.frames_out.fetch_add(1, Ordering::Relaxed);
            }
            if requests {
                self.stats
                    .passes_with_requests
                    .fetch_add(1, Ordering::Relaxed);
            }
            if !out.is_empty() {
                // A write that times out (the peer stopped reading)
                // fails here like any other: the connection is done.
                if stream.write_all(&out).is_err() {
                    return;
                }
                out.clear();
            }
            if framing_lost {
                return;
            }
        }
    }

    /// Serve one request frame. `Post` requests beyond the in-flight
    /// bound get an all-deferred receipt.
    fn handle(&self, frame: &Frame) -> DbResponse {
        match DbRequest::from_frame(frame) {
            Ok(DbRequest::Register { now, risk }) => {
                self.stats.registers.fetch_add(1, Ordering::Relaxed);
                match self.server.register(now, risk) {
                    Ok(uuid) => DbResponse::Registered(uuid),
                    Err(e) => DbResponse::Error {
                        code: e.code().into(),
                        detail: "registration gate".into(),
                        index: None,
                    },
                }
            }
            Ok(DbRequest::Post {
                client,
                posted_at,
                reports,
            }) => {
                self.stats.posts.fetch_add(1, Ordering::Relaxed);
                let ahead = self.posts_in_flight.fetch_add(1, Ordering::SeqCst);
                let resp = if ahead >= self.cfg.max_posts_in_flight {
                    // Bounded backpressure: refuse explicitly. The
                    // receipt names every index as deferred, so the
                    // client re-queues exactly these reports.
                    self.stats.batches_deferred.fetch_add(1, Ordering::Relaxed);
                    self.stats
                        .reports_deferred
                        .fetch_add(reports.len() as u64, Ordering::Relaxed);
                    DbResponse::Receipt(csaw_store::IngestReceipt {
                        accepted: 0,
                        rejected: 0,
                        rejected_indices: Vec::new(),
                        deferred_indices: (0..reports.len()).collect(),
                    })
                } else {
                    let batch = Batch::new(client, reports, posted_at);
                    match self.server.ingest(batch) {
                        Ok(receipt) => {
                            self.stats.batches_ingested.fetch_add(1, Ordering::Relaxed);
                            self.stats
                                .reports_accepted
                                .fetch_add(receipt.accepted as u64, Ordering::Relaxed);
                            self.stats
                                .reports_rejected
                                .fetch_add(receipt.rejected as u64, Ordering::Relaxed);
                            self.stats
                                .reports_deferred
                                .fetch_add(receipt.deferred() as u64, Ordering::Relaxed);
                            DbResponse::Receipt(receipt)
                        }
                        Err(e) => DbResponse::from_store_error(&e),
                    }
                };
                self.posts_in_flight.fetch_sub(1, Ordering::SeqCst);
                resp
            }
            Ok(DbRequest::Blocked { asn, filter }) => {
                self.stats.blocked_queries.fetch_add(1, Ordering::Relaxed);
                match self.server.blocked_for_as(asn, &filter) {
                    Ok(records) => DbResponse::Records(records),
                    Err(e) => DbResponse::from_store_error(&e),
                }
            }
            Ok(DbRequest::Ship { from_seq, lines }) => {
                self.stats.ship_requests.fetch_add(1, Ordering::Relaxed);
                self.apply_shipment(from_seq, &lines)
            }
            Err(e) => {
                self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                DbResponse::from_store_error(&e)
            }
        }
    }

    /// Apply one `Ship`ped run of WAL lines, idempotently.
    ///
    /// - `from_seq > wal_seq`: a gap — refuse by acking the true
    ///   position, so the leader rewinds and re-ships from there.
    /// - `from_seq <= wal_seq`: skip the already-applied overlap (a
    ///   re-shipped chunk after a lost ack), apply the rest in order
    ///   through [`csaw_store::wal::replay_line`].
    ///
    /// A line that fails to replay stops the shipment at that point and
    /// reports the error; the applied prefix stays applied, and the
    /// next shipment resumes after it.
    fn apply_shipment(&self, from_seq: u64, lines: &[String]) -> DbResponse {
        let mut wal_seq = self
            .wal_seq
            .lock()
            .expect("a shipment panicked mid-apply; the position is unknown");
        if from_seq > *wal_seq {
            return DbResponse::ShipAck {
                applied_seq: *wal_seq,
            };
        }
        let skip = (*wal_seq - from_seq) as usize;
        let mut failure = None;
        for line in lines.iter().skip(skip) {
            match csaw_store::wal::replay_line(self.server.store(), line) {
                Ok(()) => {
                    *wal_seq += 1;
                    self.stats.wal_lines_applied.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        self.stats
            .wal_applied_seq
            .store(*wal_seq, Ordering::Relaxed);
        match failure {
            None => DbResponse::ShipAck {
                applied_seq: *wal_seq,
            },
            Some(e) => {
                self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                DbResponse::from_store_error(&e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw::global::RegistrarConfig;
    use csaw_simnet::time::{SimDuration, SimTime};
    use csaw_simnet::topology::Asn;
    use csaw_store::net::op;
    use csaw_store::{ConfidenceFilter, Report, Uuid};
    use csaw_webproto::codec::{read_frame, write_frame};
    use std::io::Read;

    fn permissive_server() -> Arc<ServerDb> {
        Arc::new(
            ServerDb::builder(7)
                .shards(4)
                .registrar(RegistrarConfig {
                    max_risk: 1.0,
                    max_per_window: usize::MAX,
                    window: SimDuration::from_secs(3600),
                })
                .build()
                .unwrap(),
        )
    }

    fn call(stream: &mut TcpStream, buf: &mut BytesMut, req: &DbRequest) -> DbResponse {
        write_frame(stream, &req.to_frame()).unwrap();
        let frame = read_frame(stream, buf).unwrap().unwrap();
        DbResponse::from_frame(&frame).unwrap()
    }

    fn report(url: &str) -> Report {
        Report {
            url: url.into(),
            asn: 17557,
            measured_at_us: 1_000,
            stages: vec![csaw_censor::blocking::BlockingType::HttpDrop],
        }
    }

    #[test]
    fn register_post_download_over_the_wire() {
        let server = permissive_server();
        let handle = spawn_dbserver(Arc::clone(&server), DbServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut buf = BytesMut::new();

        let uuid = match call(
            &mut stream,
            &mut buf,
            &DbRequest::Register {
                now: SimTime::from_secs(1),
                risk: 0.0,
            },
        ) {
            DbResponse::Registered(u) => u,
            other => panic!("expected Registered, got {other:?}"),
        };

        let receipt = match call(
            &mut stream,
            &mut buf,
            &DbRequest::Post {
                client: uuid,
                posted_at: SimTime::from_secs(2),
                reports: vec![report("http://blocked.example/"), report("garbage url")],
            },
        ) {
            DbResponse::Receipt(r) => r,
            other => panic!("expected Receipt, got {other:?}"),
        };
        assert_eq!(receipt.accepted, 1);
        assert_eq!(receipt.rejected_indices, vec![1]);

        match call(
            &mut stream,
            &mut buf,
            &DbRequest::Blocked {
                asn: Asn(17557),
                filter: ConfidenceFilter::default(),
            },
        ) {
            DbResponse::Records(records) => {
                assert_eq!(records.len(), 1);
                assert_eq!(records[0].url, "http://blocked.example/");
                assert_eq!(records[0].reporter, uuid);
            }
            other => panic!("expected Records, got {other:?}"),
        }

        let stats = handle.drain();
        assert_eq!(stats.batches_ingested, 1);
        assert_eq!(stats.reports_accepted, 1);
        assert_eq!(stats.reports_rejected, 1);
        assert_eq!(server.store().record_count(), 1);
    }

    #[test]
    fn unknown_client_error_crosses_the_wire() {
        let handle = spawn_dbserver(permissive_server(), DbServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut buf = BytesMut::new();
        match call(
            &mut stream,
            &mut buf,
            &DbRequest::Post {
                client: Uuid::from_raw(99),
                posted_at: SimTime::ZERO,
                reports: vec![report("http://x.example/")],
            },
        ) {
            DbResponse::Error { code, .. } => assert_eq!(code, "unknown_client"),
            other => panic!("expected Error, got {other:?}"),
        }
    }

    #[test]
    fn backpressure_bound_defers_instead_of_dropping() {
        let server = permissive_server();
        let uuid = server.register(SimTime::ZERO, 0.0).unwrap();
        let handle = spawn_dbserver(
            Arc::clone(&server),
            DbServerConfig {
                max_posts_in_flight: 0,
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut buf = BytesMut::new();
        match call(
            &mut stream,
            &mut buf,
            &DbRequest::Post {
                client: uuid,
                posted_at: SimTime::ZERO,
                reports: vec![report("http://a.example/"), report("http://b.example/")],
            },
        ) {
            DbResponse::Receipt(r) => {
                assert_eq!(r.accepted, 0);
                assert_eq!(r.rejected, 0);
                assert_eq!(r.deferred_indices, vec![0, 1]);
            }
            other => panic!("expected Receipt, got {other:?}"),
        }
        let stats = handle.drain();
        assert_eq!(stats.batches_deferred, 1);
        assert_eq!(stats.reports_deferred, 2);
        assert_eq!(server.store().record_count(), 0);
    }

    #[test]
    fn unframeable_bytes_get_error_then_close() {
        let handle = spawn_dbserver(permissive_server(), DbServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // A zero length header is invalid at the framing layer.
        stream.write_all(&[0, 0, 0, 0]).unwrap();
        let mut buf = BytesMut::new();
        let frame = read_frame(&mut stream, &mut buf).unwrap().unwrap();
        assert_eq!(frame.op, op::ERROR);
        match DbResponse::from_frame(&frame).unwrap() {
            DbResponse::Error { code, .. } => assert_eq!(code, "frame"),
            other => panic!("expected Error, got {other:?}"),
        }
        // And the server closes the connection afterwards.
        assert_eq!(read_frame(&mut stream, &mut buf).unwrap(), None);
    }

    #[test]
    fn drain_answers_inflight_requests_and_loses_nothing() {
        let server = permissive_server();
        let uuid = server.register(SimTime::ZERO, 0.0).unwrap();
        let handle = spawn_dbserver(Arc::clone(&server), DbServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut buf = BytesMut::new();
        // Round-trip once so the connection is accepted (drain stops
        // accepting; it only owes receipts to established connections).
        match call(
            &mut stream,
            &mut buf,
            &DbRequest::Blocked {
                asn: Asn(1),
                filter: ConfidenceFilter::default(),
            },
        ) {
            DbResponse::Records(r) => assert!(r.is_empty()),
            other => panic!("expected Records, got {other:?}"),
        }
        // Land a full request, then immediately drain. The receipt must
        // still arrive: the batch was in flight when drain began.
        let req = DbRequest::Post {
            client: uuid,
            posted_at: SimTime::from_secs(1),
            reports: vec![report("http://inflight.example/")],
        };
        write_frame(&mut stream, &req.to_frame()).unwrap();
        let stats = handle.drain();
        let frame = read_frame(&mut stream, &mut buf).unwrap().unwrap();
        match DbResponse::from_frame(&frame).unwrap() {
            DbResponse::Receipt(r) => assert_eq!(r.accepted, 1),
            other => panic!("expected Receipt, got {other:?}"),
        }
        assert_eq!(read_frame(&mut stream, &mut buf).unwrap(), None);
        assert_eq!(stats.reports_accepted, 1);
        assert_eq!(server.store().record_count(), 1);
    }

    #[test]
    fn torn_request_across_many_writes_reassembles() {
        let server = permissive_server();
        let uuid = server.register(SimTime::ZERO, 0.0).unwrap();
        let handle = spawn_dbserver(Arc::clone(&server), DbServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let wire = DbRequest::Post {
            client: uuid,
            posted_at: SimTime::from_secs(1),
            reports: vec![report("http://torn.example/")],
        }
        .to_frame()
        .encode();
        for byte in &wire {
            stream.write_all(std::slice::from_ref(byte)).unwrap();
            stream.flush().unwrap();
        }
        let mut buf = BytesMut::new();
        let frame = read_frame(&mut stream, &mut buf).unwrap().unwrap();
        match DbResponse::from_frame(&frame).unwrap() {
            DbResponse::Receipt(r) => assert_eq!(r.accepted, 1),
            other => panic!("expected Receipt, got {other:?}"),
        }
        drop(handle);
    }

    fn wal_line(client: u64, url: &str, t: u64) -> String {
        csaw_store::wal::ingest_line(&Batch::new(
            Uuid::from_raw(client),
            vec![report(url)],
            SimTime::from_micros(t),
        ))
    }

    #[test]
    fn shipped_wal_lines_apply_and_ack() {
        let server = permissive_server();
        let handle = spawn_dbserver(Arc::clone(&server), DbServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut buf = BytesMut::new();

        match call(
            &mut stream,
            &mut buf,
            &DbRequest::Ship {
                from_seq: 0,
                lines: vec![
                    wal_line(1, "http://a.example/", 10),
                    wal_line(2, "http://b.example/", 20),
                ],
            },
        ) {
            DbResponse::ShipAck { applied_seq } => assert_eq!(applied_seq, 2),
            other => panic!("expected ShipAck, got {other:?}"),
        }

        // Replicated ingests serve reads exactly like local ones —
        // note the reporters never registered with *this* server.
        match call(
            &mut stream,
            &mut buf,
            &DbRequest::Blocked {
                asn: Asn(17557),
                filter: ConfidenceFilter::default(),
            },
        ) {
            DbResponse::Records(records) => assert_eq!(records.len(), 2),
            other => panic!("expected Records, got {other:?}"),
        }

        let stats = handle.drain();
        assert_eq!(stats.ship_requests, 1);
        assert_eq!(stats.wal_lines_applied, 2);
        assert_eq!(stats.wal_applied_seq, 2);
        assert_eq!(server.store().record_count(), 2);
    }

    #[test]
    fn reshipped_overlap_is_skipped_idempotently() {
        let server = permissive_server();
        let handle = spawn_dbserver(Arc::clone(&server), DbServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut buf = BytesMut::new();
        let lines = vec![
            wal_line(1, "http://a.example/", 10),
            wal_line(2, "http://b.example/", 20),
            wal_line(3, "http://c.example/", 30),
        ];

        match call(
            &mut stream,
            &mut buf,
            &DbRequest::Ship {
                from_seq: 0,
                lines: lines[..2].to_vec(),
            },
        ) {
            DbResponse::ShipAck { applied_seq } => assert_eq!(applied_seq, 2),
            other => panic!("expected ShipAck, got {other:?}"),
        }
        // Re-ship the whole run from 0 (as after a lost ack): only the
        // unseen tail may apply.
        match call(
            &mut stream,
            &mut buf,
            &DbRequest::Ship {
                from_seq: 0,
                lines: lines.clone(),
            },
        ) {
            DbResponse::ShipAck { applied_seq } => assert_eq!(applied_seq, 3),
            other => panic!("expected ShipAck, got {other:?}"),
        }

        let stats = handle.drain();
        assert_eq!(stats.wal_lines_applied, 3, "overlap must not re-apply");
        assert_eq!(server.store().record_count(), 3);
        assert_eq!(server.store().tally("http://a.example/", Asn(17557)).n, 1);
    }

    #[test]
    fn gap_shipment_is_refused_with_the_true_position() {
        let server = permissive_server();
        let handle = spawn_dbserver(Arc::clone(&server), DbServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut buf = BytesMut::new();
        match call(
            &mut stream,
            &mut buf,
            &DbRequest::Ship {
                from_seq: 5,
                lines: vec![wal_line(1, "http://late.example/", 10)],
            },
        ) {
            DbResponse::ShipAck { applied_seq } => assert_eq!(applied_seq, 0),
            other => panic!("expected ShipAck, got {other:?}"),
        }
        assert_eq!(server.store().record_count(), 0, "gap must not apply");
    }

    #[test]
    fn corrupt_wal_line_reports_error_and_keeps_the_prefix() {
        let server = permissive_server();
        let handle = spawn_dbserver(Arc::clone(&server), DbServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut buf = BytesMut::new();
        match call(
            &mut stream,
            &mut buf,
            &DbRequest::Ship {
                from_seq: 0,
                lines: vec![
                    wal_line(1, "http://good.example/", 10),
                    "not json".to_string(),
                    wal_line(2, "http://never.example/", 20),
                ],
            },
        ) {
            DbResponse::Error { code, .. } => assert_eq!(code, "corrupt"),
            other => panic!("expected Error, got {other:?}"),
        }
        // The applied prefix survives; the poison line and its tail do
        // not, and the position reflects exactly what applied.
        let stats = handle.stats();
        assert_eq!(stats.wal_applied_seq, 1);
        assert_eq!(server.store().record_count(), 1);
        drop(handle);
    }

    #[test]
    fn a_malformed_ship_frame_is_a_protocol_error_and_applies_nothing() {
        let server = permissive_server();
        let handle = spawn_dbserver(Arc::clone(&server), DbServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut buf = BytesMut::new();
        let good = DbRequest::Ship {
            from_seq: 0,
            lines: vec![wal_line(1, "http://good.example/", 10)],
        };
        match call(&mut stream, &mut buf, &good) {
            DbResponse::ShipAck { applied_seq } => assert_eq!(applied_seq, 1),
            other => panic!("expected ShipAck, got {other:?}"),
        }
        // The next shipment, cut one byte short, then with a line that is
        // not UTF-8: neither may apply a line or move the position.
        let next = DbRequest::Ship {
            from_seq: 1,
            lines: vec![
                wal_line(2, "http://next.example/", 20),
                wal_line(3, "http://last.example/", 30),
            ],
        }
        .to_frame();
        let mut cut = next.clone();
        cut.payload.pop();
        let mut not_utf8 = next;
        let last = not_utf8.payload.len() - 2;
        not_utf8.payload[last] = 0xff;
        for bad in [cut, not_utf8] {
            write_frame(&mut stream, &bad).unwrap();
            let frame = read_frame(&mut stream, &mut buf).unwrap().unwrap();
            match DbResponse::from_frame(&frame).unwrap() {
                DbResponse::Error { code, .. } => assert_eq!(code, "wire"),
                other => panic!("expected Error, got {other:?}"),
            }
        }
        let stats = handle.drain();
        assert_eq!(stats.protocol_errors, 2);
        assert_eq!((stats.ship_requests, stats.wal_applied_seq), (1, 1));
        assert_eq!(server.store().record_count(), 1);
    }

    #[test]
    fn drop_stops_the_reactor_even_with_live_connections() {
        let handle = spawn_dbserver(permissive_server(), DbServerConfig::default()).unwrap();
        let addr = handle.addr();
        let _idle = TcpStream::connect(addr).unwrap();
        // Must join promptly: the idle peer's connection is shut down,
        // not waited on. The listener is gone: a fresh connect must fail
        // or be reset on first use.
        drop(handle);
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut s) => {
                let mut buf = BytesMut::new();
                assert!(matches!(read_frame(&mut s, &mut buf), Err(_) | Ok(None)));
            }
        }
    }

    #[test]
    fn idle_server_does_no_work() {
        let handle = spawn_dbserver(permissive_server(), DbServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut buf = BytesMut::new();
        // One round trip, so the connection's thread exists and is back
        // waiting for the next request.
        call(
            &mut stream,
            &mut buf,
            &DbRequest::Blocked {
                asn: Asn(1),
                filter: ConfidenceFilter::default(),
            },
        );
        let before = handle.stats();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(handle.stats(), before, "nothing arrived, nothing ran");
        assert_eq!(before.passes, 1);
        assert_eq!(before.passes_with_requests, 1);
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let server = permissive_server();
        let uuid = server.register(SimTime::ZERO, 0.0).unwrap();
        let handle = spawn_dbserver(Arc::clone(&server), DbServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let blocked = DbRequest::Blocked {
            asn: Asn(17557),
            filter: ConfidenceFilter::default(),
        };
        // The download before the post must not see it, the one after
        // must: three frames in one write, executed in arrival order.
        let mut wire = blocked.to_frame().encode();
        wire.extend(
            DbRequest::Post {
                client: uuid,
                posted_at: SimTime::from_secs(1),
                reports: vec![report("http://pipelined.example/")],
            }
            .to_frame()
            .encode(),
        );
        wire.extend(blocked.to_frame().encode());
        stream.write_all(&wire).unwrap();

        let mut buf = BytesMut::new();
        let mut next = || {
            let frame = read_frame(&mut stream, &mut buf).unwrap().unwrap();
            DbResponse::from_frame(&frame).unwrap()
        };
        assert!(matches!(next(), DbResponse::Records(r) if r.is_empty()));
        assert!(matches!(next(), DbResponse::Receipt(r) if r.accepted == 1));
        assert!(matches!(next(), DbResponse::Records(r) if r.len() == 1));
        let stats = handle.drain();
        assert_eq!((stats.frames_in, stats.frames_out), (3, 3));
    }

    #[test]
    fn concurrent_posts_and_overlapping_shipments_apply_exactly_once() {
        const POSTERS: usize = 8;
        const BATCHES: usize = 25;
        const WAL_LINES: usize = 60;

        let server = permissive_server();
        let reference = permissive_server();
        let uuids: Vec<Uuid> = (0..POSTERS)
            .map(|p| {
                let now = SimTime::from_secs(p as u64);
                let uuid = server.register(now, 0.0).unwrap();
                assert_eq!(reference.register(now, 0.0).unwrap(), uuid);
                uuid
            })
            .collect();
        let batch = |p: usize, b: usize| {
            let mut reports = vec![report(&format!("http://posted.example/p{p}/b{b}"))];
            if b.is_multiple_of(5) {
                reports.push(report("garbage url"));
            }
            Batch::new(uuids[p], reports, SimTime::from_secs(100))
        };
        let lines: Vec<String> = (0..WAL_LINES)
            .map(|i| wal_line(1000 + i as u64, &format!("http://shipped.example/{i}"), 10))
            .collect();

        // The serial reference: the same posts and the same log, one
        // at a time, in process.
        let mut expected = (0, 0);
        for p in 0..POSTERS {
            for b in 0..BATCHES {
                let receipt = reference.ingest(batch(p, b)).unwrap();
                expected = (expected.0 + receipt.accepted, expected.1 + receipt.rejected);
            }
        }
        for line in &lines {
            csaw_store::wal::replay_line(reference.store(), line).unwrap();
        }

        let handle = spawn_dbserver(Arc::clone(&server), DbServerConfig::default()).unwrap();
        let addr = handle.addr();
        // Every connection is open before any request is sent.
        let start = std::sync::Barrier::new(POSTERS + 2);
        let got = std::thread::scope(|s| {
            let posters: Vec<_> = (0..POSTERS)
                .map(|p| {
                    let (start, batch) = (&start, &batch);
                    s.spawn(move || {
                        let mut stream = TcpStream::connect(addr).unwrap();
                        let mut buf = BytesMut::new();
                        start.wait();
                        let mut got = (0, 0);
                        for b in 0..BATCHES {
                            let sent = batch(p, b);
                            let req = DbRequest::Post {
                                client: sent.client,
                                posted_at: sent.posted_at,
                                reports: sent.reports().to_vec(),
                            };
                            match call(&mut stream, &mut buf, &req) {
                                DbResponse::Receipt(r) => {
                                    assert_eq!(
                                        r.accepted + r.rejected + r.deferred(),
                                        sent.reports().len(),
                                        "receipt must cover every index"
                                    );
                                    assert_eq!(r.deferred(), 0);
                                    got = (got.0 + r.accepted, got.1 + r.rejected);
                                }
                                other => panic!("expected Receipt, got {other:?}"),
                            }
                        }
                        got
                    })
                })
                .collect();
            // Two leaders' worth of shippers, each walking the whole
            // log from 0 in its own chunk size: every line is offered
            // at least twice, in overlapping ranges.
            let shippers: Vec<_> = [7usize, 5]
                .into_iter()
                .map(|chunk| {
                    let (start, lines) = (&start, &lines);
                    s.spawn(move || {
                        let mut stream = TcpStream::connect(addr).unwrap();
                        let mut buf = BytesMut::new();
                        start.wait();
                        let mut pos = 0usize;
                        while pos < WAL_LINES {
                            let req = DbRequest::Ship {
                                from_seq: pos as u64,
                                lines: lines[pos..(pos + chunk).min(WAL_LINES)].to_vec(),
                            };
                            match call(&mut stream, &mut buf, &req) {
                                DbResponse::ShipAck { applied_seq } => {
                                    assert!(applied_seq as usize >= pos, "position went back");
                                    pos = applied_seq as usize;
                                }
                                other => panic!("expected ShipAck, got {other:?}"),
                            }
                        }
                    })
                })
                .collect();
            for shipper in shippers {
                shipper.join().unwrap();
            }
            posters
                .into_iter()
                .map(|h| h.join().unwrap())
                .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
        });

        let stats = handle.drain();
        assert_eq!(got, expected, "receipts match the serial run");
        assert_eq!(stats.reports_accepted, expected.0 as u64);
        assert_eq!(stats.reports_rejected, expected.1 as u64);
        assert_eq!(stats.wal_lines_applied, WAL_LINES as u64, "once each");
        assert_eq!(stats.wal_applied_seq, WAL_LINES as u64);
        assert_eq!(stats.protocol_errors, 0);
        assert_eq!(
            csaw_replica::fingerprint_of(server.store()),
            csaw_replica::fingerprint_of(reference.store()),
            "any interleaving leaves the serial run's store"
        );
    }

    #[test]
    fn drain_returns_when_a_peer_never_reads() {
        let server = permissive_server();
        let uuid = server.register(SimTime::ZERO, 0.0).unwrap();
        let reports: Vec<Report> = (0..8000)
            .map(|i| report(&format!("http://listed.example/{i}")))
            .collect();
        server
            .ingest(Batch::new(uuid, reports, SimTime::from_secs(1)))
            .unwrap();
        let blocked = DbRequest::Blocked {
            asn: Asn(17557),
            filter: ConfidenceFilter::default(),
        };
        let list_bytes = DbResponse::Records(
            server
                .blocked_for_as(Asn(17557), &ConfidenceFilter::default())
                .unwrap(),
        )
        .to_frame()
        .encode()
        .len();
        // Loopback buffers hold ≈4 MB for a peer that never reads; ask
        // for three times that.
        let asks = (12 << 20) / list_bytes + 1;

        let handle = spawn_dbserver(Arc::clone(&server), DbServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // Round-trip once so the connection is accepted before drain.
        let empty = DbRequest::Blocked {
            asn: Asn(1),
            filter: ConfidenceFilter::default(),
        };
        call(&mut stream, &mut BytesMut::new(), &empty);
        let wire = blocked.to_frame().encode().repeat(asks);
        stream.write_all(&wire).unwrap();

        let stats = handle.drain();
        assert_eq!(stats.blocked_queries, 1 + asks as u64);
        // Only now does the peer read: what the server got out before
        // it gave up, and not the whole answer.
        let (mut received, mut chunk) = (0usize, [0u8; 64 * 1024]);
        while let Ok(n @ 1..) = stream.read(&mut chunk) {
            received += n;
        }
        assert!(received < asks * list_bytes, "nothing was ever stuck");
    }

    #[test]
    fn service_answers_frames_without_a_socket() {
        let server = permissive_server();
        let uuid = server.register(SimTime::ZERO, 0.0).unwrap();
        let service = Service {
            server,
            cfg: DbServerConfig::default(),
            stats: AtomicStats::default(),
            wal_seq: Mutex::new(0),
            posts_in_flight: AtomicUsize::new(0),
        };
        let post = DbRequest::Post {
            client: uuid,
            posted_at: SimTime::from_secs(1),
            reports: vec![report("http://direct.example/")],
        };
        match service.handle(&post.to_frame()) {
            DbResponse::Receipt(r) => assert_eq!(r.accepted, 1),
            other => panic!("expected Receipt, got {other:?}"),
        }
        match service.handle(&Frame::new(0xEE, b"{}".to_vec())) {
            DbResponse::Error { .. } => {}
            other => panic!("expected Error, got {other:?}"),
        }
        let stats = service.stats.snapshot();
        assert_eq!((stats.posts, stats.protocol_errors), (1, 1));
        assert_eq!(service.posts_in_flight.load(Ordering::SeqCst), 0);
    }
}
