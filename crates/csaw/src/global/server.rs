//! The server_DB front-end: registration, update ingestion, per-AS
//! downloads, voting, and deployment-study analytics (§4.2, §5,
//! Table 7).
//!
//! Storage lives in [`csaw_store`]: one internally-synchronized
//! `Arc<dyn StorageBackend>` (the in-memory sharded store by default;
//! journalling, replication and fault injection are decorators of the
//! same trait, stacked by the caller and passed to
//! [`ServerDbBuilder::backend`]). This type is the thin front-end over
//! it — registration gating, the client set, and the legacy `global.*`
//! telemetry — and every method takes `&self`, so one `ServerDb` can be
//! shared across ingestion threads.
//!
//! Construction goes through [`ServerDbBuilder`] (salt, registrar
//! config, shard count or backend) — it is the only way to build a
//! server. Ingestion goes through [`ServerDb::ingest`] with a [`Batch`];
//! reads go through the fallible [`ServerDb::blocked_for_as`].

use csaw_censor::blocking::{BlockingType, Stage};
use csaw_obs::metrics::{Counter, Gauge};
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use csaw_store::{
    Batch, ConfidenceFilter, GlobalRecord, IngestReceipt, ShardedStore, StorageBackend, StoreError,
    Tally, Uuid, VoteLedger,
};
use csaw_webproto::url::Url;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Registration failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegistrationError {
    /// The risk-analysis engine flagged the attempt ("No CAPTCHA
    /// reCAPTCHA"'s adaptive gate, §5).
    RiskRejected,
    /// Too many registrations in the current window (automated
    /// fake-identity farming).
    RateLimited,
    /// The server could not be reached (socket transport only; the
    /// in-process server never returns this). Retrying later is
    /// reasonable — the gate never saw the attempt.
    Unavailable,
}

impl RegistrationError {
    /// The wire code a `DbResponse::Error` carries for this error.
    pub fn code(self) -> &'static str {
        match self {
            RegistrationError::RiskRejected => "risk_rejected",
            RegistrationError::RateLimited => "rate_limited",
            RegistrationError::Unavailable => "unavailable",
        }
    }

    /// The error a wire code names; a code this build does not know is
    /// `Unavailable`, the retryable shape.
    pub fn from_code(code: &str) -> RegistrationError {
        match code {
            "risk_rejected" => RegistrationError::RiskRejected,
            "rate_limited" => RegistrationError::RateLimited,
            _ => RegistrationError::Unavailable,
        }
    }
}

/// Registration gate configuration.
#[derive(Debug, Clone, Copy)]
pub struct RegistrarConfig {
    /// Risk scores above this are rejected (0 = reject everyone,
    /// 1 = accept everyone).
    pub max_risk: f64,
    /// Maximum registrations per window.
    pub max_per_window: usize,
    /// Window length.
    pub window: SimDuration,
}

impl Default for RegistrarConfig {
    fn default() -> Self {
        RegistrarConfig {
            max_risk: 0.7,
            max_per_window: 20,
            window: SimDuration::from_secs(60),
        }
    }
}

/// Builder for [`ServerDb`]: salt, registration gate, and either a
/// shard count for the default in-memory store or a caller-built
/// backend.
///
/// ```
/// use csaw::global::{ServerDb, RegistrarConfig};
///
/// let server = ServerDb::builder(7)
///     .shards(8)
///     .registrar(RegistrarConfig::default())
///     .build()
///     .unwrap();
/// assert_eq!(server.store().shard_count(), 8);
/// ```
#[derive(Debug)]
pub struct ServerDbBuilder {
    salt: u64,
    registrar: RegistrarConfig,
    shards: usize,
    backend: Option<Arc<dyn StorageBackend>>,
}

impl ServerDbBuilder {
    /// A builder with the default gate, 16 shards, and the in-memory
    /// backend.
    pub fn new(salt: u64) -> ServerDbBuilder {
        ServerDbBuilder {
            salt,
            registrar: RegistrarConfig::default(),
            shards: 16,
            backend: None,
        }
    }

    /// Override the registration gate.
    pub fn registrar(mut self, cfg: RegistrarConfig) -> ServerDbBuilder {
        self.registrar = cfg;
        self
    }

    /// Stripe the store `n` ways (ignored for a custom backend).
    pub fn shards(mut self, n: usize) -> ServerDbBuilder {
        self.shards = n;
        self
    }

    /// Use a caller-provided backend (e.g. a
    /// [`JsonlStore`](csaw_store::JsonlStore) opened on a log file).
    pub fn backend(mut self, backend: Arc<dyn StorageBackend>) -> ServerDbBuilder {
        self.backend = Some(backend);
        self
    }

    /// Build the server. Zero shards is an error, not a panic.
    pub fn build(self) -> Result<ServerDb, StoreError> {
        let backend = match self.backend {
            Some(b) => b,
            None => Arc::new(ShardedStore::new(self.shards)?),
        };
        Ok(ServerDb {
            salt: self.salt,
            registrar: self.registrar,
            backend,
            reg: Mutex::new(RegState {
                uuid_counter: 0,
                window_start: SimTime::ZERO,
                window_count: 0,
            }),
            clients: RwLock::new(HashSet::new()),
            updates_accepted: AtomicU64::new(0),
            m: ServerMetrics::resolve(),
        })
    }
}

/// Registration state (UUID counter + rate-limit window), serialized
/// behind one small mutex — registration is the cold path.
#[derive(Debug)]
struct RegState {
    uuid_counter: u64,
    window_start: SimTime,
    window_count: usize,
}

/// Pre-resolved legacy `global.*` metric handles (hot paths must not
/// take the registry mutex per batch).
#[derive(Debug)]
struct ServerMetrics {
    register_accepted: Arc<Counter>,
    register_risk_rejected: Arc<Counter>,
    register_rate_limited: Arc<Counter>,
    clients: Arc<Gauge>,
    post_batches: Arc<Counter>,
    post_accepted: Arc<Counter>,
    post_dropped: Arc<Counter>,
    post_unknown: Arc<Counter>,
    records: Arc<Gauge>,
    downloads: Arc<Counter>,
    downloads_served: Arc<Counter>,
    downloads_failed: Arc<Counter>,
    revocations: Arc<Counter>,
}

impl ServerMetrics {
    fn resolve() -> ServerMetrics {
        let reg = &csaw_obs::current().registry;
        ServerMetrics {
            register_accepted: reg.counter("global.register.accepted"),
            register_risk_rejected: reg.counter("global.register.risk_rejected"),
            register_rate_limited: reg.counter("global.register.rate_limited"),
            clients: reg.gauge("global.clients"),
            post_batches: reg.counter("global.post.batches"),
            post_accepted: reg.counter("global.post.reports_accepted"),
            post_dropped: reg.counter("global.post.reports_dropped"),
            post_unknown: reg.counter("global.post.unknown_client"),
            records: reg.gauge("global.records"),
            downloads: reg.counter("global.downloads"),
            downloads_served: reg.counter("global.downloads.records_served"),
            downloads_failed: reg.counter("global.downloads.failed"),
            revocations: reg.counter("global.revocations"),
        }
    }
}

/// The global measurement server (server_DB front-end + global_DB).
///
/// Shareable across threads: registration is mutex-serialized, the
/// client set is behind an `RwLock`, and everything else is the
/// backend's lock-striped state.
#[derive(Debug)]
pub struct ServerDb {
    salt: u64,
    registrar: RegistrarConfig,
    backend: Arc<dyn StorageBackend>,
    reg: Mutex<RegState>,
    clients: RwLock<HashSet<Uuid>>,
    updates_accepted: AtomicU64,
    m: ServerMetrics,
}

impl ServerDb {
    /// Start building a server with the given salt (determinism).
    pub fn builder(salt: u64) -> ServerDbBuilder {
        ServerDbBuilder::new(salt)
    }

    /// The storage backend (shard counts, direct scans, flushing).
    pub fn store(&self) -> &dyn StorageBackend {
        self.backend.as_ref()
    }

    /// Register a new client. `risk_score` comes from the CAPTCHA/risk
    /// engine (0 = certainly human, 1 = certainly bot).
    pub fn register(&self, now: SimTime, risk_score: f64) -> Result<Uuid, RegistrationError> {
        let uuid = {
            let mut reg = self.reg.lock().unwrap();
            if now.duration_since(reg.window_start) >= self.registrar.window {
                reg.window_start = now;
                reg.window_count = 0;
            }
            if risk_score > self.registrar.max_risk {
                self.m.register_risk_rejected.inc();
                return Err(RegistrationError::RiskRejected);
            }
            if reg.window_count >= self.registrar.max_per_window {
                self.m.register_rate_limited.inc();
                return Err(RegistrationError::RateLimited);
            }
            reg.window_count += 1;
            reg.uuid_counter += 1;
            Uuid::derive(now, reg.uuid_counter, self.salt)
        };
        let mut clients = self.clients.write().unwrap();
        clients.insert(uuid);
        self.m.register_accepted.inc();
        self.m.clients.set(clients.len() as i64);
        Ok(uuid)
    }

    /// Number of registered clients.
    pub fn client_count(&self) -> usize {
        self.clients.read().unwrap().len()
    }

    /// Total updates accepted (Table 7's "No. of unique updates").
    pub fn updates_accepted(&self) -> u64 {
        self.updates_accepted.load(Ordering::Relaxed)
    }

    /// The single ingestion entry point: validate the client, hand the
    /// batch to the backend, account the receipt. Never panics on
    /// garbage — unknown clients and undecodable wire are error values,
    /// unsalvageable reports are counted in the receipt's `rejected`.
    pub fn ingest(&self, batch: Batch) -> Result<IngestReceipt, StoreError> {
        if !self.clients.read().unwrap().contains(&batch.client) {
            self.m.post_unknown.inc();
            return Err(StoreError::UnknownClient);
        }
        let receipt = self.backend.ingest(&batch)?;
        // Lands inside the client's report-post trace when one is active
        // (simulation: ingest runs on the poster's thread).
        csaw_obs::event!(
            "store.ingest",
            accepted = receipt.accepted as u64,
            rejected = receipt.rejected as u64
        );
        self.updates_accepted
            .fetch_add(receipt.accepted as u64, Ordering::Relaxed);
        self.m.post_batches.inc();
        self.m.post_accepted.add(receipt.accepted as u64);
        self.m.post_dropped.add(receipt.rejected as u64);
        self.m.records.set(self.backend.record_count() as i64);
        Ok(receipt)
    }

    /// The blocked-URL list for an AS, filtered by vote confidence —
    /// what clients download at initialization and on every sync.
    /// Served from the backend's blocked-list cache.
    ///
    /// Fallible by design: backend unavailability (fault-injection
    /// windows, a remote store's outage) surfaces as an error instead
    /// of an empty list, so a client's sync can distinguish "nothing
    /// blocked" from "could not ask". The built-in in-memory backend
    /// never fails.
    pub fn blocked_for_as(
        &self,
        asn: Asn,
        filter: &ConfidenceFilter,
    ) -> Result<Vec<GlobalRecord>, StoreError> {
        self.m.downloads.inc();
        match self.backend.blocked_for_as(asn, filter) {
            Ok(out) => {
                self.m.downloads_served.add(out.len() as u64);
                Ok(out)
            }
            Err(e) => {
                self.m.downloads_failed.inc();
                Err(e)
            }
        }
    }

    /// Vote tally for a (URL, AS) — exposed for analytics.
    pub fn tally(&self, url: &str, asn: Asn) -> Tally {
        self.backend.tally(url, asn)
    }

    /// Evict a client and its votes (reputation enforcement, §5).
    pub fn revoke(&self, client: Uuid) {
        {
            let mut clients = self.clients.write().unwrap();
            if clients.remove(&client) {
                self.m.revocations.inc();
                self.m.clients.set(clients.len() as i64);
            }
        }
        self.backend.revoke(client);
    }

    /// Read access to the vote ledger (analytics, auditing).
    pub fn ledger(&self) -> &VoteLedger {
        self.backend.ledger()
    }

    /// Run a behavioral reputation audit and revoke every flagged client
    /// along with its records (§5's "revoke UUIDs of malicious users").
    /// The audit walks the ledger stripe by stripe — no global lock.
    pub fn audit_and_revoke(
        &self,
        cfg: &crate::global::reputation::ReputationConfig,
    ) -> Vec<crate::global::reputation::Flag> {
        let flags = crate::global::reputation::audit(self.backend.ledger(), cfg);
        for f in &flags {
            self.revoke(f.client);
            self.backend.remove_reporter_records(f.client);
        }
        if !flags.is_empty() {
            self.m.records.set(self.backend.record_count() as i64);
        }
        flags
    }

    /// Drop global records older than `max_age` (the global DB tracks
    /// *current* censorship; §4.4 churn).
    pub fn expire_records(&self, now: SimTime, max_age: SimDuration) -> usize {
        let removed = self.backend.expire_records(now, max_age);
        if removed > 0 {
            self.m.records.set(self.backend.record_count() as i64);
        }
        removed
    }

    /// Deployment-study analytics (Table 7).
    pub fn stats(&self) -> DeploymentStats {
        let mut domains = HashSet::new();
        let mut ases = HashSet::new();
        let mut types = HashSet::new();
        let mut dns_urls = HashSet::new();
        let mut tcp_urls = HashSet::new();
        let mut blockpage_urls = HashSet::new();
        let mut urls = HashSet::new();
        self.backend.for_each_record(&mut |r| {
            urls.insert(r.url.clone());
            ases.insert(r.asn);
            if let Ok(u) = Url::parse(&r.url) {
                domains.insert(u.host().registrable_domain());
            }
            for s in &r.stages {
                types.insert(*s);
                match s {
                    BlockingType::HttpBlockPageRedirect | BlockingType::HttpBlockPageInline => {
                        blockpage_urls.insert(r.url.clone());
                    }
                    BlockingType::IpDrop => {
                        tcp_urls.insert(r.url.clone());
                    }
                    _ if s.stage() == Stage::Dns => {
                        dns_urls.insert(r.url.clone());
                    }
                    _ => {}
                }
            }
        });
        DeploymentStats {
            clients: self.client_count(),
            unique_blocked_urls: urls.len(),
            unique_blocked_domains: domains.len(),
            unique_ases: ases.len(),
            distinct_blocking_types: types.len(),
            urls_dns_blocked: dns_urls.len(),
            urls_tcp_timeout: tcp_urls.len(),
            urls_block_page: blockpage_urls.len(),
            unique_updates: self.updates_accepted(),
        }
    }
}

/// The Table 7 aggregate view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeploymentStats {
    /// Registered clients ("No. of users").
    pub clients: usize,
    /// Unique blocked URLs accessed.
    pub unique_blocked_urls: usize,
    /// Unique blocked domains accessed.
    pub unique_blocked_domains: usize,
    /// Unique ASes reporting.
    pub unique_ases: usize,
    /// Distinct blocking mechanisms observed.
    pub distinct_blocking_types: usize,
    /// URLs experiencing DNS blocking.
    pub urls_dns_blocked: usize,
    /// URLs experiencing TCP connection timeouts.
    pub urls_tcp_timeout: usize,
    /// URLs for which a block page was returned.
    pub urls_block_page: usize,
    /// Unique updates accepted.
    pub unique_updates: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_store::Report;

    /// A server with the default gate and in-memory backend.
    fn server(salt: u64) -> ServerDb {
        ServerDb::builder(salt)
            .build()
            .expect("default builder config is valid")
    }

    /// Test shorthand over the first-class `ingest`/`blocked_for_as`
    /// API: post parsed reports (returning the accepted count) and read
    /// a blocked list from the never-failing in-memory backend.
    trait ServerTestExt {
        fn post(&self, c: Uuid, reports: &[Report], now: SimTime) -> Result<usize, StoreError>;
        fn blocked(&self, asn: Asn, filter: &ConfidenceFilter) -> Vec<GlobalRecord>;
    }

    impl ServerTestExt for ServerDb {
        fn post(&self, c: Uuid, reports: &[Report], now: SimTime) -> Result<usize, StoreError> {
            self.ingest(Batch::new(c, reports.to_vec(), now))
                .map(|r| r.accepted)
        }
        fn blocked(&self, asn: Asn, filter: &ConfidenceFilter) -> Vec<GlobalRecord> {
            self.blocked_for_as(asn, filter)
                .expect("in-memory backend reads are infallible")
        }
    }

    fn report(url: &str, asn: u32, stage: BlockingType) -> Report {
        Report {
            url: url.into(),
            asn,
            measured_at_us: 123,
            stages: vec![stage],
        }
    }

    #[test]
    fn register_and_post_flow() {
        let s = server(7);
        let c = s.register(SimTime::from_secs(1), 0.1).unwrap();
        let n = s
            .post(
                c,
                &[report("http://x.com/", 17557, BlockingType::DnsHijack)],
                SimTime::from_secs(2),
            )
            .unwrap();
        assert_eq!(n, 1);
        let list = s.blocked(Asn(17557), &ConfidenceFilter::default());
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].url, "http://x.com/");
        assert_eq!(list[0].posted_at, SimTime::from_secs(2));
        assert_eq!(list[0].reporter, c);
        // Other ASes see nothing.
        assert!(s.blocked(Asn(1), &ConfidenceFilter::default()).is_empty());
    }

    #[test]
    fn unknown_client_rejected() {
        let s = server(7);
        let err = s.post(Uuid::from_raw(99), &[], SimTime::ZERO);
        assert_eq!(err, Err(StoreError::UnknownClient));
    }

    #[test]
    fn malformed_wire_rejected_and_garbage_urls_dropped() {
        let s = server(7);
        let c = s.register(SimTime::ZERO, 0.0).unwrap();
        assert!(Report::decode_batch("garbage").is_err());
        let n = s
            .post(
                c,
                &[
                    report("not a url", 1, BlockingType::HttpDrop),
                    report("http://ok.com/", 1, BlockingType::HttpDrop),
                ],
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn ingest_receipt_reports_both_sides() {
        let s = ServerDb::builder(7).shards(4).build().unwrap();
        let c = s.register(SimTime::ZERO, 0.0).unwrap();
        let receipt = s
            .ingest(Batch::new(
                c,
                vec![
                    report("http://ok.com/", 1, BlockingType::HttpDrop),
                    report("garbage", 1, BlockingType::HttpDrop),
                ],
                SimTime::ZERO,
            ))
            .unwrap();
        assert_eq!(
            receipt,
            IngestReceipt {
                accepted: 1,
                rejected: 1,
                rejected_indices: vec![1],
                deferred_indices: vec![],
            }
        );
        assert_eq!(s.updates_accepted(), 1);
    }

    #[test]
    fn risk_gate_and_rate_limit() {
        let s = ServerDb::builder(7)
            .registrar(RegistrarConfig {
                max_risk: 0.5,
                max_per_window: 2,
                window: SimDuration::from_secs(60),
            })
            .build()
            .unwrap();
        assert_eq!(
            s.register(SimTime::ZERO, 0.9),
            Err(RegistrationError::RiskRejected)
        );
        s.register(SimTime::ZERO, 0.1).unwrap();
        s.register(SimTime::ZERO, 0.1).unwrap();
        assert_eq!(
            s.register(SimTime::from_secs(1), 0.1),
            Err(RegistrationError::RateLimited)
        );
        // New window resets the budget.
        assert!(s.register(SimTime::from_secs(61), 0.1).is_ok());
        assert_eq!(s.client_count(), 3);
    }

    #[test]
    fn confidence_filter_hides_lone_spam() {
        let s = server(7);
        let honest1 = s.register(SimTime::ZERO, 0.0).unwrap();
        let honest2 = s.register(SimTime::ZERO, 0.0).unwrap();
        let spammer = s.register(SimTime::ZERO, 0.0).unwrap();
        for c in [honest1, honest2] {
            s.post(
                c,
                &[report("http://real.com/", 1, BlockingType::HttpDrop)],
                SimTime::ZERO,
            )
            .unwrap();
        }
        let fakes: Vec<Report> = (0..200)
            .map(|i| report(&format!("http://fake{i}.com/"), 1, BlockingType::HttpDrop))
            .collect();
        s.post(spammer, &fakes, SimTime::ZERO).unwrap();
        let strict = ConfidenceFilter::strict(2, 0.1);
        let visible = s.blocked(Asn(1), &strict);
        assert_eq!(visible.len(), 1);
        assert_eq!(visible[0].url, "http://real.com/");
        // Unfiltered view contains everything (for analytics).
        assert_eq!(s.blocked(Asn(1), &ConfidenceFilter::default()).len(), 201);
    }

    #[test]
    fn revocation_hides_reports() {
        let s = server(7);
        let c = s.register(SimTime::ZERO, 0.0).unwrap();
        s.post(
            c,
            &[report("http://x.com/", 1, BlockingType::HttpDrop)],
            SimTime::ZERO,
        )
        .unwrap();
        s.revoke(c);
        let strict = ConfidenceFilter::strict(1, 0.01);
        assert!(s.blocked(Asn(1), &strict).is_empty());
        // And the client can no longer post.
        assert_eq!(
            s.post(c, &[], SimTime::ZERO),
            Err(StoreError::UnknownClient)
        );
    }

    #[test]
    fn stats_cover_table7_dimensions() {
        let s = server(7);
        let c = s.register(SimTime::ZERO, 0.0).unwrap();
        s.post(
            c,
            &[
                report("http://a.foo.com/x", 1, BlockingType::DnsHijack),
                report("http://b.foo.com/", 1, BlockingType::IpDrop),
                report("http://bar.com/", 2, BlockingType::HttpBlockPageInline),
            ],
            SimTime::ZERO,
        )
        .unwrap();
        let st = s.stats();
        assert_eq!(st.clients, 1);
        assert_eq!(st.unique_blocked_urls, 3);
        assert_eq!(st.unique_blocked_domains, 2); // foo.com, bar.com
        assert_eq!(st.unique_ases, 2);
        assert_eq!(st.distinct_blocking_types, 3);
        assert_eq!(st.urls_dns_blocked, 1);
        assert_eq!(st.urls_tcp_timeout, 1);
        assert_eq!(st.urls_block_page, 1);
        assert_eq!(st.unique_updates, 3);
    }

    #[test]
    fn repost_after_expiry_restores_visibility() {
        let s = server(7);
        let c = s.register(SimTime::ZERO, 0.0).unwrap();
        let r = report("http://x.com/", 1, BlockingType::HttpDrop);
        s.post(c, std::slice::from_ref(&r), SimTime::ZERO).unwrap();
        s.expire_records(SimTime::from_secs(100), SimDuration::from_secs(50));
        assert!(s.blocked(Asn(1), &ConfidenceFilter::default()).is_empty());
        // Fresh censorship re-reported after expiry shows up again.
        s.post(c, &[r], SimTime::from_secs(101)).unwrap();
        let list = s.blocked(Asn(1), &ConfidenceFilter::default());
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].posted_at, SimTime::from_secs(101));
    }

    #[test]
    fn record_expiry() {
        let s = server(7);
        let c = s.register(SimTime::ZERO, 0.0).unwrap();
        s.post(
            c,
            &[report("http://x.com/", 1, BlockingType::HttpDrop)],
            SimTime::ZERO,
        )
        .unwrap();
        let removed = s.expire_records(SimTime::from_secs(100), SimDuration::from_secs(50));
        assert_eq!(removed, 1);
        assert!(s.blocked(Asn(1), &ConfidenceFilter::default()).is_empty());
    }

    #[test]
    fn builder_jsonl_backend_survives_reopen() {
        let mut path = std::env::temp_dir();
        path.push(format!("csaw-server-wal-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let open = || {
            let log = csaw_store::JsonlStore::open(&path, 16).unwrap();
            ServerDb::builder(7).backend(Arc::new(log)).build().unwrap()
        };
        let c;
        {
            let s = open();
            c = s.register(SimTime::ZERO, 0.0).unwrap();
            s.post(
                c,
                &[report("http://x.com/", 1, BlockingType::HttpDrop)],
                SimTime::from_secs(2),
            )
            .unwrap();
            s.store().flush().unwrap();
        }
        // Reopening replays the log: records and votes are back. (The
        // client set is front-end state; re-registration is separate.)
        let s = open();
        assert_eq!(s.store().record_count(), 1);
        assert_eq!(s.tally("http://x.com/", Asn(1)).n, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shared_across_threads_with_plain_refs() {
        let s = ServerDb::builder(7).shards(4).build().unwrap();
        let mut uuids = Vec::new();
        for i in 0..4u64 {
            uuids.push(s.register(SimTime::from_secs(i), 0.0).unwrap());
        }
        std::thread::scope(|scope| {
            for (t, &c) in uuids.iter().enumerate() {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..50u64 {
                        s.post(
                            c,
                            &[report(
                                &format!("http://t{t}-{i}.com/"),
                                1,
                                BlockingType::HttpDrop,
                            )],
                            SimTime::from_secs(i),
                        )
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(s.updates_accepted(), 200);
        assert_eq!(s.store().record_count(), 200);
        assert_eq!(s.blocked(Asn(1), &ConfidenceFilter::default()).len(), 200);
    }
}
