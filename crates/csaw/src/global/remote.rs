//! Transport abstraction over the global DB: one trait, two homes.
//!
//! [`GlobalApi`] is the surface a client needs from the server —
//! register, post a batch, download blocked records. The in-process
//! [`ServerDb`] implements it directly; [`RemoteDb`] implements it over
//! TCP against a `csaw-dbserver` instance, speaking the length-framed
//! wire protocol from [`csaw_store::net`] through a small connection
//! pool. `CsawClient::post_reports`/`sync_global` are generic over the
//! trait, so the same client code runs in-process in the simulator and
//! over real sockets in the scale harness.
//!
//! Transport failures surface as [`StoreError::Unavailable`] (posting,
//! syncing) or [`RegistrationError::Unavailable`] (registering) —
//! exactly the retryable-error shapes the client's backoff and
//! receipt-reconciliation paths already handle. Nothing is silently
//! dropped: a batch whose receipt never arrived is still queued on the
//! client.

use crate::global::server::{RegistrationError, ServerDb};
use csaw_simnet::time::SimTime;
use csaw_simnet::topology::Asn;
use csaw_store::net::{DbRequest, DbResponse};
use csaw_store::{Batch, ConfidenceFilter, GlobalRecord, IngestReceipt, StoreError, Uuid};
use csaw_webproto::codec::FrameClient;
use std::io;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Duration;

/// What a client needs from the global DB, wherever it lives.
pub trait GlobalApi: Send + Sync {
    /// Register a new client UUID (the "No CAPTCHA reCAPTCHA" gate).
    fn register(&self, now: SimTime, risk_score: f64) -> Result<Uuid, RegistrationError>;

    /// Post a report batch; the receipt reconciles every index.
    fn ingest(&self, batch: Batch) -> Result<IngestReceipt, StoreError>;

    /// Download the blocked records visible from an AS.
    fn blocked_for_as(
        &self,
        asn: Asn,
        filter: &ConfidenceFilter,
    ) -> Result<Vec<GlobalRecord>, StoreError>;
}

impl GlobalApi for ServerDb {
    fn register(&self, now: SimTime, risk_score: f64) -> Result<Uuid, RegistrationError> {
        ServerDb::register(self, now, risk_score)
    }

    fn ingest(&self, batch: Batch) -> Result<IngestReceipt, StoreError> {
        ServerDb::ingest(self, batch)
    }

    fn blocked_for_as(
        &self,
        asn: Asn,
        filter: &ConfidenceFilter,
    ) -> Result<Vec<GlobalRecord>, StoreError> {
        ServerDb::blocked_for_as(self, asn, filter)
    }
}

/// A TCP client for `csaw-dbserver` with a checkout/return connection
/// pool. Shareable across threads (`&RemoteDb` posts concurrently —
/// each in-flight request owns a pooled connection exclusively).
#[derive(Debug)]
pub struct RemoteDb {
    addr: SocketAddr,
    idle: Mutex<Vec<FrameClient>>,
    max_idle: usize,
    /// Applied to reads and writes alike.
    timeout: Duration,
}

impl RemoteDb {
    /// A pool that will connect lazily to `addr`.
    pub fn new(addr: SocketAddr) -> RemoteDb {
        RemoteDb {
            addr,
            idle: Mutex::new(Vec::new()),
            max_idle: 16,
            timeout: Duration::from_secs(10),
        }
    }

    /// Cap the number of idle connections kept for reuse.
    pub fn with_max_idle(mut self, n: usize) -> RemoteDb {
        self.max_idle = n;
        self
    }

    /// Per-request timeout, applied to reads and to writes alike: a
    /// server that stops answering *or* stops reading surfaces as
    /// [`StoreError::Unavailable`], not a deadlock.
    pub fn with_read_timeout(mut self, t: Duration) -> RemoteDb {
        self.timeout = t;
        self
    }

    /// The server address this pool talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Idle connections currently pooled (telemetry/tests).
    pub fn idle_connections(&self) -> usize {
        self.idle.lock().unwrap().len()
    }

    fn checkout(&self) -> io::Result<FrameClient> {
        if let Some(conn) = self.idle.lock().unwrap().pop() {
            return Ok(conn);
        }
        FrameClient::connect(self.addr, self.timeout)
    }

    fn put_back(&self, conn: FrameClient) {
        let mut idle = self.idle.lock().unwrap();
        if idle.len() < self.max_idle {
            idle.push(conn);
        }
    }

    /// One request/response exchange. The connection returns to the
    /// pool only after a clean roundtrip; any transport error drops it
    /// (its framing state is unknown) and surfaces as `Unavailable` —
    /// the caller's retry path, not the pool, owns resubmission.
    fn call(&self, req: &DbRequest) -> Result<DbResponse, StoreError> {
        let mut conn = self
            .checkout()
            .map_err(|_| StoreError::Unavailable("global DB server unreachable"))?;
        let frame = conn
            .call(&req.to_frame())
            .map_err(|_| StoreError::Unavailable("global DB connection failed"))?
            .ok_or(StoreError::Unavailable("global DB closed the connection"))?;
        let resp = DbResponse::from_frame(&frame)?;
        self.put_back(conn);
        Ok(resp)
    }

    fn unexpected(resp: &DbResponse) -> StoreError {
        StoreError::Corrupt(format!("unexpected response from global DB: {resp:?}"))
    }
}

impl GlobalApi for RemoteDb {
    fn register(&self, now: SimTime, risk_score: f64) -> Result<Uuid, RegistrationError> {
        let resp = self
            .call(&DbRequest::Register {
                now,
                risk: risk_score,
            })
            .map_err(|_| RegistrationError::Unavailable)?;
        match resp {
            DbResponse::Registered(uuid) => Ok(uuid),
            DbResponse::Error { code, .. } => Err(RegistrationError::from_code(&code)),
            _ => Err(RegistrationError::Unavailable),
        }
    }

    fn ingest(&self, batch: Batch) -> Result<IngestReceipt, StoreError> {
        let resp = self.call(&DbRequest::Post {
            client: batch.client,
            posted_at: batch.posted_at,
            reports: batch.into_reports(),
        })?;
        match resp {
            DbResponse::Receipt(receipt) => Ok(receipt),
            DbResponse::Error {
                code,
                detail,
                index,
            } => Err(DbResponse::to_store_error(&code, &detail, index)),
            other => Err(Self::unexpected(&other)),
        }
    }

    fn blocked_for_as(
        &self,
        asn: Asn,
        filter: &ConfidenceFilter,
    ) -> Result<Vec<GlobalRecord>, StoreError> {
        let resp = self.call(&DbRequest::Blocked {
            asn,
            filter: *filter,
        })?;
        match resp {
            DbResponse::Records(records) => Ok(records),
            DbResponse::Error {
                code,
                detail,
                index,
            } => Err(DbResponse::to_store_error(&code, &detail, index)),
            other => Err(Self::unexpected(&other)),
        }
    }
}
