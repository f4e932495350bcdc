//! # csaw-dbserver — the global DB served over real sockets
//!
//! The paper's server_DB was a hosted service reached over the network
//! (MongoLab/Heroku); this crate is our reproduction of that deployment
//! shape: a standalone TCP server that fronts a [`ServerDb`] with the
//! length-framed wire protocol from [`csaw_store::net`], carried by the
//! shared incremental codec in [`csaw_webproto::codec`].
//!
//! ## The reactor
//!
//! The workspace is hermetic (no `mio`, no `libc`), so the event loop
//! is a hand-rolled readiness loop over `std::net` sockets set
//! non-blocking — the same shape as an epoll reactor, with `WouldBlock`
//! standing in for "not ready":
//!
//! 1. **Accept** every pending connection (unless draining).
//! 2. **Read** whatever bytes each connection has, into its per-
//!    connection [`BytesMut`], and decode complete frames.
//! 3. **Execute** the pass's decoded requests. Concurrent `Post`
//!    requests are batched into consecutive `ingest(Batch)` calls;
//!    requests beyond the per-pass backpressure bound are answered with
//!    an all-`deferred_indices` receipt instead of being dropped — the
//!    client-side reconciliation (PR 4's contract) re-queues exactly
//!    those reports.
//! 4. **Write** each connection's pending response bytes until the
//!    socket pushes back.
//! 5. Park briefly when a full pass made no progress.
//!
//! ## Graceful drain
//!
//! [`DbServerHandle::drain`] stops accepting, keeps serving until the
//! open sockets go quiet (every in-flight batch gets its receipt),
//! flushes all response buffers, then closes. A batch whose receipt was
//! sent is never lost;
//! a client whose request had not fully arrived sees a closed
//! connection — an explicit error on its side, never a silent drop.
//! The accept path checks the stop/drain flags *before* blocking on
//! `accept` (the non-blocking listener makes the check race-free),
//! which is the corrected version of the proxy's historical shutdown
//! race.
//!
//! ## Replication (`SHIP`/`SHIP_ACK`)
//!
//! A dbserver can also act as a **read replica**: a leader streams its
//! WAL over [`csaw_store::net::op::SHIP`] frames, and the reactor
//! applies each line through [`csaw_store::wal::replay_line`] — the
//! same code path `JsonlStore::open` replays on restart. The reactor
//! tracks how many lines it has applied (`wal_applied_seq`) and acks
//! that position after every shipment, which makes the protocol
//! idempotent: a re-shipped overlap is skipped, and a shipment that
//! starts *beyond* the applied position is refused by acking the true
//! position so the leader rewinds. Replayed ingests bypass the
//! registrar by design — the leader already gated the original post.
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

use csaw::global::{RegistrationError, ServerDb};
use csaw_store::net::{DbRequest, DbResponse};
use csaw_store::Batch;
use csaw_webproto::bytes::BytesMut;
use csaw_webproto::codec::{decode_frame, frame_ready, Frame};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for the reactor.
#[derive(Debug, Clone)]
pub struct DbServerConfig {
    /// Maximum `Post` requests ingested per reactor pass. Requests
    /// beyond this bound in a single pass receive an all-deferred
    /// receipt (bounded backpressure, never a silent drop).
    pub max_batches_per_pass: usize,
    /// How long to park when a full pass made no progress.
    pub idle_park: Duration,
}

impl Default for DbServerConfig {
    fn default() -> Self {
        DbServerConfig {
            max_batches_per_pass: 1024,
            idle_park: Duration::from_micros(100),
        }
    }
}

/// Monotone counters published by the reactor thread. Snapshot with
/// [`DbServerHandle::stats`].
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
    max_requests_per_pass: AtomicU64,
}

/// A point-in-time copy of the server's counters.
///
/// `requests_per_pass` ratios are the batch-coalescing signal: how many
/// concurrent client requests one reactor pass turned into consecutive
/// `ingest` calls.
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
    /// Reactor passes run.
    pub passes: u64,
    /// Passes that decoded at least one request.
    pub passes_with_requests: u64,
    /// Most requests decoded in a single pass (peak coalescing).
    pub max_requests_per_pass: u64,
}

impl DbServerStats {
    /// Mean requests per pass that had any — the coalescing factor.
    pub fn mean_requests_per_busy_pass(&self) -> f64 {
        if self.passes_with_requests == 0 {
            0.0
        } else {
            (self.frames_in as f64) / (self.passes_with_requests as f64)
        }
    }
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
            max_requests_per_pass: get(&self.max_requests_per_pass),
        }
    }
}

/// Handle to a running [`spawn_dbserver`] reactor. Dropping it stops
/// the server immediately; call [`DbServerHandle::drain`] first for a
/// graceful shutdown.
#[derive(Debug)]
pub struct DbServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    stats: Arc<AtomicStats>,
    join: Option<JoinHandle<()>>,
}

impl DbServerHandle {
    /// The loopback address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot the reactor's counters.
    pub fn stats(&self) -> DbServerStats {
        self.stats.snapshot()
    }

    /// Graceful drain: stop accepting, serve every fully-received
    /// request, flush all responses, close, and join the reactor.
    pub fn drain(mut self) -> DbServerStats {
        self.draining.store(true, Ordering::SeqCst);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        self.stats.snapshot()
    }
}

impl Drop for DbServerHandle {
    fn drop(&mut self) {
        // Hard stop: the flag is checked every pass, and accept never
        // blocks, so no wake-up connection is needed (and none can be
        // stolen by a concurrent client — the proxy's historical race).
        self.stop.store(true, Ordering::SeqCst);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Per-connection state: the non-blocking stream plus its incremental
/// read buffer and pending write bytes.
struct Conn {
    stream: TcpStream,
    rbuf: BytesMut,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Peer closed its write side (or errored); drop once flushed.
    peer_closed: bool,
    /// Unrecoverable framing/socket error; drop once flushed.
    poisoned: bool,
}

impl Conn {
    fn pending_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }
}

/// Bind a loopback listener and run the reactor on a background
/// thread, serving `server` over the wire protocol.
pub fn spawn_dbserver(server: Arc<ServerDb>, cfg: DbServerConfig) -> io::Result<DbServerHandle> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let draining = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(AtomicStats::default());
    let reactor = Reactor {
        server,
        cfg,
        listener,
        stop: Arc::clone(&stop),
        draining: Arc::clone(&draining),
        stats: Arc::clone(&stats),
        conns: Vec::new(),
        wal_seq: 0,
    };
    // Inherit the spawner's observability scope: metrics the server
    // emits (store ingest, WAL replays) land in the same context as the
    // experiment trial that spawned it, not the process-global one.
    let ctx = csaw_obs::current();
    let join = std::thread::Builder::new()
        .name("csaw-dbserver".into())
        .spawn(move || {
            let _scope = csaw_obs::install(ctx);
            reactor.run()
        })?;
    Ok(DbServerHandle {
        addr,
        stop,
        draining,
        stats,
        join: Some(join),
    })
}

struct Reactor {
    server: Arc<ServerDb>,
    cfg: DbServerConfig,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    stats: Arc<AtomicStats>,
    conns: Vec<Conn>,
    /// WAL lines applied via `Ship` so far — the replica's position.
    /// Plain (non-atomic) because only the reactor thread touches it;
    /// `stats.wal_applied_seq` mirrors it for observers.
    wal_seq: u64,
}

impl Reactor {
    fn run(mut self) {
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            let draining = self.draining.load(Ordering::SeqCst);
            self.stats.passes.fetch_add(1, Ordering::Relaxed);

            let mut progress = false;
            if !draining {
                progress |= self.accept_pass();
            }
            let requests = self.read_pass(&mut progress);
            if !requests.is_empty() {
                self.stats
                    .passes_with_requests
                    .fetch_add(1, Ordering::Relaxed);
                self.stats
                    .max_requests_per_pass
                    .fetch_max(requests.len() as u64, Ordering::Relaxed);
                self.execute_pass(requests);
                progress = true;
            }
            progress |= self.write_pass();
            self.conns
                .retain(|c| !((c.peer_closed || c.poisoned) && !c.pending_write()));

            // Drain completes when a whole pass went quiet: nothing was
            // read, every response is flushed, and no fully-received
            // request is still undecoded. Partial frames in a read
            // buffer belong to requests that never fully arrived; their
            // senders observe the close as an explicit error.
            if draining && !progress && self.drained() {
                return;
            }
            if !progress {
                std::thread::sleep(self.cfg.idle_park);
            }
        }
    }

    /// All responses flushed and no complete request frame buffered.
    fn drained(&mut self) -> bool {
        for c in &mut self.conns {
            if c.pending_write() {
                return false;
            }
            if !c.poisoned {
                if let Ok(true) = frame_ready(&c.rbuf) {
                    return false;
                }
            }
        }
        true
    }

    fn accept_pass(&mut self) -> bool {
        let mut any = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.stats
                        .connections_accepted
                        .fetch_add(1, Ordering::Relaxed);
                    self.conns.push(Conn {
                        stream,
                        rbuf: BytesMut::new(),
                        wbuf: Vec::new(),
                        wpos: 0,
                        peer_closed: false,
                        poisoned: false,
                    });
                    any = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return any,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return any,
            }
        }
    }

    /// Read available bytes and decode complete frames into a pass-
    /// local request list.
    fn read_pass(&mut self, progress: &mut bool) -> Vec<(usize, Frame)> {
        let mut requests = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        for (idx, conn) in self.conns.iter_mut().enumerate() {
            if conn.poisoned {
                continue;
            }
            if !conn.peer_closed {
                loop {
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => {
                            conn.peer_closed = true;
                            break;
                        }
                        Ok(n) => {
                            conn.rbuf.extend_from_slice(&chunk[..n]);
                            *progress = true;
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            conn.peer_closed = true;
                            break;
                        }
                    }
                }
            }
            loop {
                match decode_frame(&mut conn.rbuf) {
                    Ok(Some(frame)) => {
                        self.stats.frames_in.fetch_add(1, Ordering::Relaxed);
                        requests.push((idx, frame));
                    }
                    Ok(None) => break,
                    Err(_) => {
                        // Framing is lost: answer with a protocol error
                        // and close after the flush.
                        self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        let resp = DbResponse::Error {
                            code: "frame".into(),
                            detail: "unframeable bytes; closing".into(),
                            index: None,
                        };
                        conn.wbuf.extend_from_slice(&resp.to_frame().encode());
                        self.stats.frames_out.fetch_add(1, Ordering::Relaxed);
                        conn.poisoned = true;
                        break;
                    }
                }
            }
        }
        requests
    }

    /// Serve the pass's requests in arrival order. `Post` requests
    /// beyond the backpressure bound get an all-deferred receipt.
    fn execute_pass(&mut self, requests: Vec<(usize, Frame)>) {
        let mut posts_this_pass = 0usize;
        for (idx, frame) in requests {
            let resp = match DbRequest::from_frame(&frame) {
                Ok(DbRequest::Register { now, risk }) => {
                    self.stats.registers.fetch_add(1, Ordering::Relaxed);
                    match self.server.register(now, risk) {
                        Ok(uuid) => DbResponse::Registered(uuid),
                        Err(e) => DbResponse::Error {
                            code: match e {
                                RegistrationError::RiskRejected => "risk_rejected".into(),
                                RegistrationError::RateLimited => "rate_limited".into(),
                                RegistrationError::Unavailable => "unavailable".into(),
                            },
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
                    if posts_this_pass >= self.cfg.max_batches_per_pass {
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
                        posts_this_pass += 1;
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
                    }
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
            };
            let conn = &mut self.conns[idx];
            conn.wbuf.extend_from_slice(&resp.to_frame().encode());
            self.stats.frames_out.fetch_add(1, Ordering::Relaxed);
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
    fn apply_shipment(&mut self, from_seq: u64, lines: &[String]) -> DbResponse {
        if from_seq > self.wal_seq {
            return DbResponse::ShipAck {
                applied_seq: self.wal_seq,
            };
        }
        let skip = (self.wal_seq - from_seq) as usize;
        let mut failure = None;
        for line in lines.iter().skip(skip) {
            match csaw_store::wal::replay_line(self.server.store(), line) {
                Ok(()) => {
                    self.wal_seq += 1;
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
            .store(self.wal_seq, Ordering::Relaxed);
        match failure {
            None => DbResponse::ShipAck {
                applied_seq: self.wal_seq,
            },
            Some(e) => {
                self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                DbResponse::from_store_error(&e)
            }
        }
    }

    fn write_pass(&mut self) -> bool {
        let mut any = false;
        for conn in &mut self.conns {
            while conn.pending_write() {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => {
                        conn.poisoned = true;
                        break;
                    }
                    Ok(n) => {
                        conn.wpos += n;
                        any = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.poisoned = true;
                        break;
                    }
                }
            }
            if !conn.pending_write() && !conn.wbuf.is_empty() {
                conn.wbuf.clear();
                conn.wpos = 0;
            }
        }
        any
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
                max_batches_per_pass: 0,
                ..DbServerConfig::default()
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
    fn drop_stops_the_reactor_even_with_live_connections() {
        let handle = spawn_dbserver(permissive_server(), DbServerConfig::default()).unwrap();
        let addr = handle.addr();
        let _idle = TcpStream::connect(addr).unwrap();
        drop(handle); // must join promptly, no wake-up connect needed
                      // The listener is gone: a fresh connect must fail or be reset
                      // on first use.
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut s) => {
                let mut buf = BytesMut::new();
                assert!(matches!(read_frame(&mut s, &mut buf), Err(_) | Ok(None)));
            }
        }
    }
}
