//! The C-Saw client: Algorithm 1 plus the periodic workflow (§3, §4).
//!
//! [`CsawClient`] composes three owners of state, each in its own file:
//!
//! - the **fetch path** (`fetch.rs`: transport selector, redundant
//!   transport, detector and load models, the request RNG) runs
//!   Algorithm 1 for every [`CsawClient::request`]: a URL known blocked —
//!   locally, or through the synced global view — is served through the
//!   selector's best transport, with probability-`p` direct-path
//!   revalidation for relay transports (local fixes measure the direct
//!   path for free) and every-`n`-th-access exploration; a not-measured
//!   URL gets redundant requests (direct + circumvention) and in-line
//!   detection; a not-blocked URL goes direct with in-line detection —
//!   which is how fresh censorship (churn Scenario B) is caught
//!   immediately. A request that must not be copied (POST) takes the
//!   same road minus the two copies;
//! - the **report queue** (`report_queue.rs`: pending and quarantined
//!   reports, the backoff gate, the post ordinal) holds every blocked
//!   verdict until a post delivers it — over Tor; only blocked URLs, no
//!   PII — and accounts for each one;
//! - the **sync view** (`sync_view.rs`: the per-AS blocked lists last
//!   pulled from the global DB), swapped only on a successful pull.
//!
//! [`CsawClient::tick`] runs the background workflow: periodic sync,
//! report posting, record expiry (churn Scenario A). The client itself
//! keeps what all three borrow — configuration, counters, identity, the
//! trace seed and the health timeline — and what it has measured (local
//! DB, per-provider observations, multihoming detection).

mod fetch;
mod report_queue;
mod sync_view;

pub use report_queue::WireFault;

use crate::config::{CsawConfig, UserPreference};
use crate::global::{
    Batch, GlobalApi, IngestReceipt, RegistrationError, StoreError, SubmitError, SubmitReceipt,
    Uuid,
};
use crate::local::{LocalDb, Status};
use crate::multihoming::{MultihomingManager, PerProviderBlocking, ASN_PROBE_INTERVAL};
use csaw_censor::blocking::BlockingType;
use csaw_circumvent::transports::Transport;
use csaw_circumvent::world::World;
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use csaw_webproto::url::Url;
use fetch::{Books, FetchPath};
use report_queue::{PostCtx, ReportQueue};
use std::borrow::Borrow;
use std::sync::Arc;
use sync_view::SyncView;

/// Counters a deployment study reads off a client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Total user requests.
    pub requests: u64,
    /// Served straight from the direct path.
    pub served_direct: u64,
    /// Served through a circumvention transport.
    pub served_circumvention: u64,
    /// Requests that failed entirely.
    pub failed: u64,
    /// Fresh measurements performed (redundant-request rounds).
    pub measurements: u64,
    /// Probability-p direct-path revalidations.
    pub revalidations: u64,
    /// Reports posted to the global DB.
    pub reports_posted: u64,
    /// Blocked verdicts recorded locally.
    pub blocked_recorded: u64,
    /// Reports ever placed on the pending queue (one side of the
    /// accounting identity, [`CsawClient::reports_balanced`]).
    pub reports_queued: u64,
    /// Reports evicted oldest-first by the queue bound.
    pub reports_dropped: u64,
    /// Reports quarantined because the server permanently rejected
    /// them (sanitization: no parseable URL, or no blocking stage).
    pub reports_quarantined: u64,
    /// Reports re-queued after a partial acceptance (deferred by the
    /// server; they remain pending, so they are *not* part of the
    /// identity above).
    pub reports_requeued: u64,
    /// Failed post attempts (transport/server errors; each schedules a
    /// backoff).
    pub post_failures: u64,
    /// Failed global-DB sync pulls (the cached view was kept).
    pub sync_failures: u64,
}

/// What one user request produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// User-perceived PLT (None if nothing usable arrived).
    pub plt: Option<SimDuration>,
    /// Transport that served the content ("direct" for the direct path).
    pub transport: String,
    /// The URL's status in the local DB after this request.
    pub status_after: Status,
    /// Whether this request triggered a fresh measurement.
    pub measured: bool,
}

/// What the client tells the observability layer apart by: the seed its
/// causal trace ids derive from, and the windowed health timeline of the
/// context that built it (captured once, so background ticks feed the
/// right timeline; inert unless the host configured windows).
struct Telemetry {
    /// The client's RNG seed, so same-seed runs trace byte-identically.
    trace_seed: u64,
    timeline: Arc<csaw_obs::Timeline>,
    /// Low-cardinality per-client label for windowed gauges
    /// (`client=<seed hex>`).
    label: String,
}

impl Telemetry {
    /// Run `f` against the timeline and the client label — only when
    /// windows are being collected, so an unwatched client pays one
    /// check and formats no labels.
    fn emit(&self, f: impl FnOnce(&csaw_obs::Timeline, &str)) {
        if self.timeline.enabled() {
            f(&self.timeline, &self.label);
        }
    }
}

/// Whether a periodic job last run at `last` is due again at `now`.
fn elapsed(last: Option<SimTime>, every: SimDuration, now: SimTime) -> bool {
    last.is_none_or(|t| now.duration_since(t) >= every)
}

/// A C-Saw client instance.
pub struct CsawClient {
    /// Configuration.
    pub cfg: CsawConfig,
    /// The local measurement database.
    pub local_db: LocalDb,
    /// Per-provider blocking observations (multihoming strategy input).
    pub per_provider: PerProviderBlocking,
    /// Multihoming detector.
    pub multihoming: MultihomingManager,
    /// Counters.
    pub stats: ClientStats,
    fetch: FetchPath,
    reports: ReportQueue,
    view: SyncView,
    uuid: Option<Uuid>,
    ts: Telemetry,
}

impl std::fmt::Debug for CsawClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsawClient")
            .field("uuid", &self.uuid)
            .field("stats", &self.stats)
            .field("records", &self.local_db.record_count())
            .finish()
    }
}

impl CsawClient {
    /// A client with the standard transport registry. `front` is the
    /// domain-fronting front domain available in the deployment, if any.
    pub fn new(cfg: CsawConfig, front: Option<&str>, seed: u64) -> CsawClient {
        CsawClient {
            local_db: LocalDb::new(cfg.record_ttl),
            per_provider: PerProviderBlocking::new(),
            multihoming: MultihomingManager::new(ASN_PROBE_INTERVAL * 3),
            stats: ClientStats::default(),
            fetch: FetchPath::new(&cfg, front, seed),
            reports: ReportQueue::new(seed),
            view: SyncView::default(),
            uuid: None,
            ts: Telemetry {
                trace_seed: seed,
                timeline: csaw_obs::current().timeline.clone(),
                label: format!("{seed:x}"),
            },
            cfg,
        }
    }

    /// Replace the whole transport registry (e.g. "C-Saw with Lantern"
    /// vs. "C-Saw with Tor" in Fig. 7c).
    pub fn with_transports(mut self, transports: Vec<Box<dyn Transport + Send>>) -> CsawClient {
        self.fetch.set_transports(&self.cfg, transports);
        self
    }

    /// This client's UUID, if registered.
    pub fn uuid(&self) -> Option<Uuid> {
        self.uuid
    }

    /// Register with the server (initialization; the paper gates this
    /// with "No CAPTCHA reCAPTCHA" — `risk_score` is that engine's
    /// output) and download the blocked list for `asn`.
    ///
    /// Generic over [`GlobalApi`]: `server` may be the in-process
    /// [`crate::global::ServerDb`] or a [`crate::global::RemoteDb`] socket pool.
    pub fn register<G: GlobalApi + ?Sized>(
        &mut self,
        server: &G,
        asn: Asn,
        now: SimTime,
        risk_score: f64,
    ) -> Result<Uuid, RegistrationError> {
        let uuid = server.register(now, risk_score)?;
        self.uuid = Some(uuid);
        // Registration stands even if the first pull fails — the client
        // starts with an empty cached view and retries on the next tick.
        let _ = self.sync_global(server, &[asn], now);
        Ok(uuid)
    }

    /// Blocking stages the global view reports for a URL, if any.
    pub fn global_lookup(&self, url: &Url) -> Option<&Vec<BlockingType>> {
        self.view.lookup(url)
    }

    /// Pull the per-AS blocked lists from the server; the cached view is
    /// swapped only once every pull succeeded, so a failed pull keeps it
    /// (and counts in [`ClientStats::sync_failures`]). Returns the
    /// number of records pulled.
    pub fn sync_global<G: GlobalApi + ?Sized>(
        &mut self,
        server: &G,
        asns: &[Asn],
        now: SimTime,
    ) -> Result<usize, StoreError> {
        self.view.sync(&mut self.stats, &self.ts, server, asns, now)
    }

    /// Handle one user request (Algorithm 1). GETs may be duplicated
    /// across paths; see [`CsawClient::request_method`] for POSTs.
    pub fn request(&mut self, world: &World, url: &Url, now: SimTime) -> RequestOutcome {
        self.request_method(world, url, csaw_webproto::Method::Get, now)
    }

    /// Handle one user request with an explicit method. Non-idempotent
    /// requests (POST) are **never duplicated** (§4.3.1's footnote: "To
    /// avoid multiple writes, HTTP POST requests are not duplicated"):
    /// they take the same road as a GET — local DB, global view,
    /// multihoming union, transport selection — but an unmeasured URL is
    /// fetched on a single path with in-line detection instead of the
    /// redundant-request round, and a relay-served one is never
    /// revalidated on the direct path.
    pub fn request_method(
        &mut self,
        world: &World,
        url: &Url,
        method: csaw_webproto::Method,
        now: SimTime,
    ) -> RequestOutcome {
        self.ts.emit(|t, _| {
            t.counter("client.fetch.method", &[("method", method.as_str())])
                .inc()
        });
        let (books, fetch) = self.books();
        fetch.request(books, world, url, method.safe_to_duplicate(), now)
    }

    /// Record a verdict measured outside [`CsawClient::request`] — the
    /// real-socket proxy measures on its own sockets — into the books a
    /// simulated fetch writes: blocked when `stages` is non-empty (local
    /// DB, per-provider store, report queue), clear otherwise.
    pub fn record_verdict(&mut self, url: &Url, asn: Asn, now: SimTime, stages: Vec<BlockingType>) {
        let (mut books, _) = self.books();
        if stages.is_empty() {
            books.record_clear(url, asn, now);
        } else {
            books.record_blocked(url, asn, now, stages);
        }
    }

    /// What a verdict reads and writes, beside the fetch path.
    fn books(&mut self) -> (Books<'_>, &mut FetchPath) {
        let books = Books {
            cfg: &self.cfg,
            stats: &mut self.stats,
            ts: &self.ts,
            local_db: &mut self.local_db,
            per_provider: &mut self.per_provider,
            multihoming: &mut self.multihoming,
            view: &self.view,
            reports: &mut self.reports,
        };
        (books, &mut self.fetch)
    }

    /// Periodic background work: global sync, report posting, expiry.
    /// Call on whatever cadence the host loop uses; internal intervals
    /// gate the actual work.
    pub fn tick<G: GlobalApi + ?Sized>(&mut self, world: &World, server: &G, now: SimTime) {
        if self.view.due(now, self.cfg.sync_interval) {
            let asns: Vec<Asn> = world.access.providers().iter().map(|p| p.asn).collect();
            // A failed pull keeps the cached view; `last_sync` is not
            // advanced, so the next tick retries.
            let _ = self.sync_global(server, &asns, now);
        }
        if self.reports.take_turn(now, self.cfg.report_interval) {
            self.post_reports(server, now);
        }
        self.local_db.purge_expired(now);
    }

    /// One post attempt through `send`, which also gets the request RNG
    /// (the collector tier draws its fail-over order from that stream).
    /// `None` when unregistered, gated, or the queue is empty.
    fn post_with<R: Borrow<IngestReceipt>, E: From<StoreError>>(
        &mut self,
        now: SimTime,
        send: impl FnOnce(Batch, &mut DetRng) -> Result<R, E>,
    ) -> Option<Result<R, E>> {
        let cx = PostCtx {
            cfg: &self.cfg,
            stats: &mut self.stats,
            ts: &self.ts,
            uuid: self.uuid?,
            now,
        };
        let rng = self.fetch.rng();
        self.reports.post_once(cx, |batch| send(batch, rng))
    }

    /// Push pending blocked-URL reports to the server (carried over Tor
    /// in the paper; content is identical either way — no PII on the
    /// wire by construction). Returns how many the server accepted.
    pub fn post_reports<G: GlobalApi + ?Sized>(&mut self, server: &G, now: SimTime) -> usize {
        self.post_with(now, |batch, _| server.ingest(batch))
            .and_then(Result::ok)
            .map_or(0, |receipt| receipt.accepted)
    }

    /// Post pending reports through the distributed collector tier (§5's
    /// OONI-style hidden-service collectors) instead of a direct server
    /// connection. On total collector blockage the batch stays queued for
    /// the next attempt; with nothing to send, or inside the backoff a
    /// failed attempt armed, the receipt is empty.
    pub fn post_reports_via<G: GlobalApi + ?Sized>(
        &mut self,
        collectors: &crate::global::CollectorSet,
        server: &G,
        now: SimTime,
    ) -> Result<SubmitReceipt, SubmitError> {
        if self.uuid.is_none() {
            return Err(SubmitError::Rejected(StoreError::UnknownClient));
        }
        self.post_with(now, |batch, rng| collectors.submit(server, batch, rng))
            .unwrap_or_else(|| Ok(SubmitReceipt::default()))
    }

    /// Anonymity-preferring clients must never leak through non-anonymous
    /// transports — surfaced for tests/audits.
    pub fn preference(&self) -> UserPreference {
        self.cfg.preference
    }

    /// Reports still waiting for a successful post.
    pub fn pending_reports(&self) -> usize {
        self.reports.pending()
    }

    /// The accounting identity, which must hold at every quiescent
    /// point — any gap is silent loss: `reports_queued ==
    /// reports_posted + reports_dropped + reports_quarantined +
    /// pending_reports()`.
    pub fn reports_balanced(&self) -> bool {
        self.reports.balanced(&self.stats)
    }

    /// When the next post attempt may run, if backoff is armed.
    pub fn next_report_at(&self) -> Option<SimTime> {
        self.reports.next_report_at()
    }

    /// Arm deterministic wire corruption on the report post path (chaos
    /// experiments only).
    pub fn arm_wire_fault(&mut self, fault: WireFault) {
        self.reports.arm_wire_fault(fault);
    }
}

/// World and client builders the three owners' tests share.
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use csaw_circumvent::world::SiteSpec;
    use csaw_simnet::topology::{AccessNetwork, Provider, Region, Site};

    pub(crate) fn build_world(policy: csaw_censor::CensorPolicy, asn: Asn) -> World {
        let provider = Provider::new(asn, "isp");
        let access = AccessNetwork::single(provider);
        World::builder(access)
            .site(
                SiteSpec::new("www.youtube.com", Site::at_vantage_rtt(Region::UsEast, 186))
                    .category(csaw_censor::Category::Video)
                    .frontable(true)
                    .serves_by_ip(true)
                    .default_page(360_000, 20),
            )
            .site(SiteSpec::new(
                "cdn-front.example",
                Site::in_region(Region::Singapore),
            ))
            .site(
                SiteSpec::new("news.example", Site::in_region(Region::UsEast))
                    .default_page(95_000, 6),
            )
            .censor(asn, policy)
            .build()
    }

    pub(crate) fn client(seed: u64) -> CsawClient {
        CsawClient::new(CsawConfig::default(), Some("cdn-front.example"), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{build_world, client};
    use super::*;
    use crate::global::ServerDb;
    use csaw_censor::profiles;

    #[test]
    fn tick_syncs_and_reports() {
        let w = build_world(profiles::isp_a(), profiles::ISP_A_ASN);
        let server = ServerDb::builder(11).build().unwrap();
        let mut c = client(9);
        c.register(&server, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
            .unwrap();
        let url = Url::parse("http://www.youtube.com/").unwrap();
        c.request(&w, &url, SimTime::from_secs(1));
        assert!(server.stats().unique_blocked_urls == 0);
        c.tick(&w, &server, SimTime::from_secs(1_000));
        assert!(
            server.stats().unique_blocked_urls >= 1,
            "tick posted reports"
        );
        assert!(c.stats.reports_posted >= 1);
    }

    #[test]
    fn request_and_post_feed_windowed_health_series() {
        use csaw_obs::{SloSet, WindowCfg};
        let ctx = Arc::new(csaw_obs::ObsCtx::new());
        ctx.timeline.configure(WindowCfg {
            window_us: 3_600_000_000, // 1 h windows
            retain: 8,
            slos: Arc::new(SloSet::empty()),
        });
        let _g = csaw_obs::scope::install(ctx.clone());
        let w = build_world(profiles::isp_a(), profiles::ISP_A_ASN);
        let server = ServerDb::builder(55).build().unwrap();
        let mut c = client(55);
        c.register(&server, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
            .unwrap();
        let url = Url::parse("http://www.youtube.com/").unwrap();
        c.request(&w, &url, SimTime::from_secs(1));
        let posted = c.post_reports(&server, SimTime::from_secs(2));
        assert!(posted >= 1);
        ctx.flush_timeline();
        let f = &ctx.timeline.recent_frames()[0];
        let asn = profiles::ISP_A_ASN.0.to_string();
        assert_eq!(
            f.series[&format!("client.fetches{{asn={asn}}}")].count(),
            Some(1)
        );
        assert_eq!(f.series["client.fetch.method{method=GET}"].count(), Some(1));
        assert_eq!(f.family_count("client.reports.queued"), posted as u64);
        assert_eq!(f.family_count("client.reports.posted"), posted as u64);
        assert!(
            f.series["client.detect_latency_us"].p99_us().is_some(),
            "in-line detection recorded a latency digest"
        );
        // The queue drained: the per-client depth gauge closed at zero.
        let depth = f
            .series
            .iter()
            .find(|(k, _)| k.starts_with("client.report_queue_depth{"))
            .map(|(_, s)| s.gauge_last().unwrap())
            .expect("queue depth gauge present");
        assert_eq!(depth, 0);
        assert_eq!(f.family_count("client.sync.ok"), 1, "registration synced");
    }
}
