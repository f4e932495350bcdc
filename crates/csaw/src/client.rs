//! The C-Saw client: Algorithm 1 plus the periodic workflow (§3, §4).
//!
//! Every user request flows through [`CsawClient::request`]:
//!
//! - **not-measured** URLs get redundant requests (direct + circumvention)
//!   and in-line detection; the result lands in the local DB and, if
//!   blocked, in the pending-report queue;
//! - **blocked** URLs are served through the selector's best transport,
//!   with probability-`p` direct-path revalidation (for relay transports —
//!   local fixes measure the direct path for free) and every-`n`-th-access
//!   exploration;
//! - **not-blocked** URLs go direct with in-line detection — which is how
//!   fresh censorship (churn Scenario B) is caught immediately.
//!
//! [`CsawClient::tick`] runs the background workflow: periodic global-DB
//! sync (per-AS blocked list download), report posting (over Tor; only
//! blocked URLs, no PII), record expiry (churn Scenario A), and
//! egress-ASN probing (multihoming detection).

use crate::circum::Selector;
use crate::config::{CsawConfig, UserPreference};
use crate::global::{
    Batch, ConfidenceFilter, GlobalApi, IngestReceipt, PostError, Report, SubmitError,
    SubmitReceipt, Uuid,
};
use crate::local::{LocalDb, Status};
use crate::measure::{
    fetch_with_redundancy, measure_direct, DetectConfig, MeasuredStatus, ServedFrom,
};
use crate::multihoming::{MultihomingManager, PerProviderBlocking};
use csaw_censor::blocking::BlockingType;
use csaw_circumvent::transports::{FetchCtx, Transport, TransportKind};
use csaw_circumvent::world::World;
use csaw_simnet::load::LoadModel;
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use csaw_webproto::url::{Scheme, Url};
use std::collections::HashMap;
use std::sync::Arc;

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
    /// Reports ever placed on the pending queue. The accounting
    /// identity `reports_queued == reports_posted + reports_dropped +
    /// reports_quarantined + pending` must hold at every quiescent
    /// point — any gap is silent loss.
    pub reports_queued: u64,
    /// Reports evicted oldest-first by the queue bound.
    pub reports_dropped: u64,
    /// Reports quarantined as poison (named undecodable by the post's
    /// wire decode) or permanently rejected by the server.
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

/// Deterministic wire-level corruption for chaos experiments: with
/// probability `corrupt_p` per post attempt the encoded batch is
/// truncated in flight, so the server-side decode fails the way a
/// half-closed Tor stream would make it fail. Draws come from a
/// dedicated labelled fork, so arming this never perturbs any other
/// stream of the same seed.
#[derive(Debug, Clone)]
pub struct WireFault {
    corrupt_p: f64,
    rng: DetRng,
}

impl WireFault {
    /// A wire fault with the given per-attempt corruption probability
    /// (clamped to `[0, 1]`).
    pub fn new(corrupt_p: f64, seed: u64) -> WireFault {
        WireFault {
            corrupt_p: corrupt_p.clamp(0.0, 1.0),
            rng: DetRng::new(seed).fork("wire-fault"),
        }
    }

    /// Maybe corrupt one encoded batch in place. Returns whether it did.
    /// Exactly one RNG draw per call, hit or miss — the stream length
    /// never depends on outcomes, which keeps same-seed runs aligned.
    fn corrupt(&mut self, wire: &mut String) -> bool {
        if !self.rng.chance(self.corrupt_p) {
            return false;
        }
        let mut keep = wire.len() / 2;
        while keep > 0 && !wire.is_char_boundary(keep) {
            keep -= 1;
        }
        wire.truncate(keep);
        true
    }
}

/// What a sink's receipt says about the batch it carried: how many
/// reports were accepted, which batch indices were permanently
/// rejected, and which were deferred.
trait Verdicts {
    fn verdicts(&self) -> (usize, &[usize], &[usize]);
}

impl Verdicts for IngestReceipt {
    fn verdicts(&self) -> (usize, &[usize], &[usize]) {
        (
            self.accepted,
            &self.rejected_indices,
            &self.deferred_indices,
        )
    }
}

impl Verdicts for SubmitReceipt {
    fn verdicts(&self) -> (usize, &[usize], &[usize]) {
        (
            self.accepted,
            &self.rejected_indices,
            &self.deferred_indices,
        )
    }
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
    selector: Selector,
    redundant: Box<dyn Transport + Send>,
    detect_cfg: DetectConfig,
    load: LoadModel,
    rng: DetRng,
    uuid: Option<Uuid>,
    global_view: HashMap<String, Vec<BlockingType>>,
    confidence: ConfidenceFilter,
    last_sync: Option<SimTime>,
    last_report: Option<SimTime>,
    /// Reports queued for the next post, keyed on the *accessed* URL
    /// (the deployment study counts accessed URLs, not aggregated
    /// records — aggregation is a memory optimization, not a reporting
    /// one).
    report_queue: Vec<Report>,
    reported: HashMap<(String, u32), Vec<BlockingType>>,
    /// Reports pulled out of the queue because they can never be
    /// delivered: the wire decode named them undecodable (poison) or
    /// the server permanently rejected them. Kept for audit rather
    /// than dropped.
    quarantined: Vec<Report>,
    /// Consecutive failed post attempts (resets on success).
    post_failstreak: u32,
    /// Earliest time the next post attempt may run (exponential
    /// backoff; `None` = no backoff pending).
    next_report_at: Option<SimTime>,
    /// Backoff jitter draws come from a dedicated fork so arming or
    /// clearing backoff never perturbs the request-path RNG stream.
    backoff_rng: DetRng,
    /// Optional injected wire corruption (chaos experiments).
    wire_fault: Option<WireFault>,
    /// Seed for deriving causal trace ids (the client's RNG seed, so
    /// same-seed runs produce byte-identical traces).
    trace_seed: u64,
    /// Ordinal of the next user fetch (trace-id derivation input).
    fetch_seq: u64,
    /// Ordinal of the next report post (trace-id derivation input).
    report_seq: u64,
    /// The windowed timeline of the context that built the client
    /// (captured once, like the trace seed, so background ticks feed
    /// the right timeline). Inert unless the host configured windows.
    timeline: Arc<csaw_obs::Timeline>,
    /// Low-cardinality per-client label for windowed gauges
    /// (`client=<seed hex>`).
    ts_label: String,
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
        let rng = DetRng::new(seed);
        let backoff_rng = rng.fork("report-backoff");
        let selector =
            Selector::standard(front, cfg.explore_every, cfg.plt_ewma_alpha, cfg.preference);
        // Tor carries the redundant copy for unmeasured URLs (and the
        // measurement reports) — except for anonymity-only users, where
        // it is also the only serving transport.
        let redundant: Box<dyn Transport + Send> = Box::new(csaw_circumvent::tor::TorClient::new());
        CsawClient {
            local_db: LocalDb::new(cfg.record_ttl),
            per_provider: PerProviderBlocking::new(),
            multihoming: MultihomingManager::new(cfg.asn_probe_interval * 3),
            stats: ClientStats::default(),
            selector,
            redundant,
            detect_cfg: DetectConfig::default(),
            load: LoadModel::default(),
            rng,
            uuid: None,
            global_view: HashMap::new(),
            confidence: ConfidenceFilter::default(),
            last_sync: None,
            last_report: None,
            report_queue: Vec::new(),
            reported: HashMap::new(),
            quarantined: Vec::new(),
            post_failstreak: 0,
            next_report_at: None,
            backoff_rng,
            wire_fault: None,
            trace_seed: seed,
            fetch_seq: 0,
            report_seq: 0,
            timeline: csaw_obs::current().timeline.clone(),
            ts_label: format!("{seed:x}"),
            cfg,
        }
    }

    /// Use a custom transport for the redundant copy (experiments swap in
    /// Lantern here for Fig. 7c).
    pub fn with_redundant_transport(mut self, t: Box<dyn Transport + Send>) -> CsawClient {
        self.redundant = t;
        self
    }

    /// Replace the whole transport registry (e.g. "C-Saw with Lantern"
    /// vs. "C-Saw with Tor" in Fig. 7c).
    pub fn with_transports(mut self, transports: Vec<Box<dyn Transport + Send>>) -> CsawClient {
        self.selector = Selector::new(
            transports,
            self.cfg.explore_every,
            self.cfg.plt_ewma_alpha,
            self.cfg.preference,
        );
        self
    }

    /// Use a stricter confidence filter when consuming the global DB.
    pub fn with_confidence(mut self, f: ConfidenceFilter) -> CsawClient {
        self.confidence = f;
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
    ) -> Result<Uuid, crate::global::RegistrationError> {
        let uuid = server.register(now, risk_score)?;
        self.uuid = Some(uuid);
        // Registration stands even if the first pull fails — the client
        // starts with an empty cached view and retries on the next tick.
        let _ = self.sync_global(server, &[asn], now);
        Ok(uuid)
    }

    /// Normalized global-view key for a URL: base, http scheme.
    fn global_key(url: &Url) -> String {
        url.base().with_scheme(Scheme::Http).to_string()
    }

    /// Blocking stages the global view reports for a URL, if any.
    pub fn global_lookup(&self, url: &Url) -> Option<&Vec<BlockingType>> {
        self.global_view.get(&Self::global_key(url))
    }

    /// Pull the per-AS blocked lists from the server. Builds the fresh
    /// view off to the side and swaps it in only once every pull
    /// succeeded — a transiently unavailable backend must never wipe the
    /// cached view (stale blocked-list data still routes around
    /// censorship; an empty one sends every request down the direct
    /// path). On failure the cached view and `last_sync` are kept, so
    /// the next tick retries. Returns the number of records pulled.
    pub fn sync_global<G: GlobalApi + ?Sized>(
        &mut self,
        server: &G,
        asns: &[Asn],
        now: SimTime,
    ) -> Result<usize, crate::global::StoreError> {
        let mut fresh: HashMap<String, Vec<BlockingType>> = HashMap::new();
        let mut pulled = 0usize;
        for asn in asns {
            let recs = match server.blocked_for_as(*asn, &self.confidence) {
                Ok(r) => r,
                Err(e) => {
                    self.stats.sync_failures += 1;
                    if self.timeline.enabled() {
                        self.timeline.counter("client.sync.failed", &[]).inc();
                    }
                    csaw_obs::event!("client.sync.failed", asn = asn.0 as u64);
                    return Err(e);
                }
            };
            for rec in recs {
                pulled += 1;
                if let Ok(u) = Url::parse(&rec.url) {
                    let entry = fresh.entry(Self::global_key(&u)).or_default();
                    for s in &rec.stages {
                        if !entry.contains(s) {
                            entry.push(*s);
                        }
                    }
                }
            }
        }
        self.global_view = fresh;
        self.last_sync = Some(now);
        if self.timeline.enabled() {
            self.timeline.counter("client.sync.ok", &[]).inc();
        }
        Ok(pulled)
    }

    /// Handle one user request (Algorithm 1). GETs may be duplicated
    /// across paths; see [`CsawClient::request_method`] for POSTs.
    pub fn request(&mut self, world: &World, url: &Url, now: SimTime) -> RequestOutcome {
        self.request_method(world, url, csaw_webproto::Method::Get, now)
    }

    /// Handle one user request with an explicit method. Non-idempotent
    /// requests (POST) are **never duplicated** (§4.3.1's footnote: "To
    /// avoid multiple writes, HTTP POST requests are not duplicated"):
    /// an unmeasured URL is fetched on a single path with in-line
    /// detection instead of the redundant-request round.
    pub fn request_method(
        &mut self,
        world: &World,
        url: &Url,
        method: csaw_webproto::Method,
        now: SimTime,
    ) -> RequestOutcome {
        // One trace per user fetch: the root frame stays open for the
        // whole request, so every span the pipeline emits (detection,
        // circumvention attempts, simnet flows, store lookups) lands in
        // this fetch's tree. Derivation is (seed, FETCH stream, ordinal)
        // — never wall clock — so same-seed runs trace identically.
        let _root = csaw_obs::scope::current().sink.enabled().then(|| {
            let r = csaw_obs::trace::fetch_root(self.trace_seed, self.fetch_seq, now.as_micros());
            self.fetch_seq += 1;
            r
        });
        if self.timeline.enabled() {
            self.timeline
                .counter("client.fetch.method", &[("method", method.as_str())])
                .inc();
        }
        if !method.safe_to_duplicate() {
            return self.request_unduplicated(world, url, now);
        }
        self.request_inner(world, url, now)
    }

    /// Windowed per-AS fetch coverage: one count per user request, in
    /// the AS the request actually egressed through.
    fn ts_count_fetch(&self, asn: Asn) {
        if self.timeline.enabled() {
            self.timeline
                .counter("client.fetches", &[("asn", &asn.0.to_string())])
                .inc();
        }
    }

    /// Single-path handling for non-duplicable methods.
    fn request_unduplicated(&mut self, world: &World, url: &Url, now: SimTime) -> RequestOutcome {
        self.stats.requests += 1;
        let provider = world.access.pick_provider(&mut self.rng).clone();
        self.ts_count_fetch(provider.asn);
        self.multihoming.probe(now, provider.asn);
        let ctx = FetchCtx { now, provider };
        let lookup = self.local_db.lookup(url, now);
        if lookup.status == Status::Blocked {
            // Known blocked: the write goes through circumvention — one
            // path, no duplication.
            let stages = lookup.record.map(|r| r.stages).unwrap_or_default();
            return self.serve_blocked(world, &ctx, url, stages, now, false);
        }
        // Unknown or reachable: single direct attempt with in-line
        // detection, but no redundant copy (the copy is what §4.3.1
        // forbids for writes).
        let m = measure_direct(
            world,
            &ctx.provider,
            url,
            None,
            &self.detect_cfg,
            &mut self.rng,
        );
        match m.status {
            MeasuredStatus::NotBlocked => {
                self.local_db.record_measurement(
                    url,
                    ctx.provider.asn,
                    now,
                    Status::NotBlocked,
                    vec![],
                );
                self.stats.served_direct += 1;
                Self::emit_direct_tree(url, now, &m);
                RequestOutcome {
                    plt: Some(m.elapsed),
                    transport: "direct".into(),
                    status_after: Status::NotBlocked,
                    measured: lookup.status == Status::NotMeasured,
                }
            }
            MeasuredStatus::Blocked => self.circumvent_after_detection(world, &ctx, url, &m, now),
            MeasuredStatus::Inconclusive => {
                self.stats.failed += 1;
                Self::emit_direct_tree(url, now, &m);
                RequestOutcome {
                    plt: None,
                    transport: "direct".into(),
                    status_after: lookup.status,
                    measured: false,
                }
            }
        }
    }

    /// Emit the fetch span tree for a direct-path-only request: all the
    /// user's wait is the transfer leg when the page arrived, or the
    /// detection leg when the measurement ended without a page.
    fn emit_direct_tree(url: &Url, now: SimTime, m: &crate::measure::DirectMeasurement) {
        if !crate::tracing::tracing_fetch() {
            return;
        }
        let b = match m.status {
            MeasuredStatus::NotBlocked => crate::tracing::FetchBreakdown::served(
                m.elapsed,
                SimDuration::ZERO,
                SimDuration::ZERO,
            ),
            _ => crate::tracing::FetchBreakdown::failed(m.elapsed, SimDuration::ZERO),
        };
        crate::tracing::emit_fetch_tree(now.as_micros(), b, url, "direct");
    }

    /// Serve a URL whose blocking was just detected in-line: record the
    /// verdict, circumvent, and emit the fetch tree (detection leg = the
    /// in-line detection time, setup leg = the selector's dead ends).
    fn circumvent_after_detection(
        &mut self,
        world: &World,
        ctx: &FetchCtx,
        url: &Url,
        m: &crate::measure::DirectMeasurement,
        now: SimTime,
    ) -> RequestOutcome {
        self.record_blocked(url, ctx.provider.asn, now, m.stages.clone());
        // In-line detection latency: user-request to blocked-verdict,
        // the windowed counterpart of Table 5's detection ladder.
        if self.timeline.enabled() {
            self.timeline
                .hist("client.detect_latency_us", &[])
                .observe_us(m.detection_time.as_micros());
        }
        // Circumvention starts on the waterfall after detection.
        csaw_obs::trace::set_cursor_us(now.as_micros() + m.detection_time.as_micros());
        let fetched = self
            .selector
            .fetch_blocked(world, ctx, url, &m.stages, &mut self.rng);
        let plt = fetched
            .report
            .outcome
            .is_genuine_page()
            .then(|| m.detection_time + fetched.report.elapsed);
        if crate::tracing::tracing_fetch() {
            let b = match plt {
                Some(p) => {
                    crate::tracing::FetchBreakdown::served(p, m.detection_time, fetched.wasted)
                }
                None => crate::tracing::FetchBreakdown::failed(
                    m.elapsed,
                    fetched.wasted + fetched.report.elapsed,
                ),
            };
            crate::tracing::emit_fetch_tree(now.as_micros(), b, url, &fetched.transport);
        }
        if plt.is_some() {
            self.stats.served_circumvention += 1;
        } else {
            self.stats.failed += 1;
        }
        RequestOutcome {
            plt,
            transport: fetched.transport,
            status_after: Status::Blocked,
            measured: true,
        }
    }

    fn request_inner(&mut self, world: &World, url: &Url, now: SimTime) -> RequestOutcome {
        self.stats.requests += 1;
        let provider = world.access.pick_provider(&mut self.rng).clone();
        self.ts_count_fetch(provider.asn);
        self.multihoming.probe(now, provider.asn);
        let ctx = FetchCtx { now, provider };
        let lookup = self.local_db.lookup(url, now);
        match lookup.status {
            Status::NotMeasured => {
                // Consult the local copy of the global DB first.
                if let Some(stages) = self.global_lookup(url).cloned() {
                    return self.serve_blocked(world, &ctx, url, stages, now, true);
                }
                self.measure_and_serve(world, &ctx, url, now)
            }
            Status::Blocked => {
                let key = url.base().to_string();
                let stages = if self.multihoming.multihomed {
                    let union = self.per_provider.strict_union(&key);
                    if union.is_empty() {
                        lookup.record.map(|r| r.stages).unwrap_or_default()
                    } else {
                        union
                    }
                } else {
                    lookup.record.map(|r| r.stages).unwrap_or_default()
                };
                self.serve_blocked(world, &ctx, url, stages, now, false)
            }
            Status::NotBlocked => {
                // Direct path with in-line detection (Scenario B safety
                // net: "the proxy always measures the direct path").
                let m = measure_direct(
                    world,
                    &ctx.provider,
                    url,
                    None,
                    &self.detect_cfg,
                    &mut self.rng,
                );
                match m.status {
                    MeasuredStatus::NotBlocked => {
                        self.local_db.record_measurement(
                            url,
                            ctx.provider.asn,
                            now,
                            Status::NotBlocked,
                            vec![],
                        );
                        self.stats.served_direct += 1;
                        Self::emit_direct_tree(url, now, &m);
                        RequestOutcome {
                            plt: Some(m.elapsed),
                            transport: "direct".into(),
                            status_after: Status::NotBlocked,
                            measured: false,
                        }
                    }
                    MeasuredStatus::Blocked => {
                        // Fresh censorship discovered mid-browsing.
                        self.circumvent_after_detection(world, &ctx, url, &m, now)
                    }
                    MeasuredStatus::Inconclusive => {
                        self.stats.failed += 1;
                        Self::emit_direct_tree(url, now, &m);
                        RequestOutcome {
                            plt: None,
                            transport: "direct".into(),
                            status_after: Status::NotBlocked,
                            measured: false,
                        }
                    }
                }
            }
        }
    }

    /// Serve a URL known (locally or globally) to be blocked.
    fn serve_blocked(
        &mut self,
        world: &World,
        ctx: &FetchCtx,
        url: &Url,
        stages: Vec<BlockingType>,
        now: SimTime,
        from_global: bool,
    ) -> RequestOutcome {
        // Known-blocked: no detection leg — circumvention starts at the
        // request's start on the waterfall.
        csaw_obs::trace::set_cursor_us(now.as_micros());
        let fetched = self
            .selector
            .fetch_blocked(world, ctx, url, &stages, &mut self.rng);
        let wasted = fetched.wasted;
        let (report, name, transport_kind) = (fetched.report, fetched.transport, fetched.kind);
        // Failed local fixes evidenced additional blocking stages
        // (multi-stage discovery): fold them into what we record and
        // report, so the next visit — here or at any synced peer —
        // skips the dead ends.
        let mut stages = stages;
        for bt in fetched.observed_stages {
            if !stages.contains(&bt) {
                stages.push(bt);
            }
        }
        let genuine = report.outcome.is_genuine_page();
        let mut plt = genuine.then_some(report.elapsed);

        // Probability-p direct-path revalidation. Local fixes already
        // exercise the direct path ("measured by default without
        // generating any extra traffic" — §7.1); relays need a probe,
        // which costs client load and can bump the PLT (Table 6).
        let mut measured = false;
        if transport_kind == TransportKind::Relay && self.rng.chance(self.cfg.revalidate_p) {
            measured = true;
            self.stats.revalidations += 1;
            let circ_bytes = report.outcome.page().map(|p| p.bytes);
            let m = measure_direct(
                world,
                &ctx.provider,
                url,
                circ_bytes,
                &self.detect_cfg,
                &mut self.rng,
            );
            // The concurrent probe taxes the user fetch.
            if let Some(p) = plt {
                plt = Some(self.load.inflate(p, 2, &mut self.rng));
            }
            match m.status {
                MeasuredStatus::Blocked => {
                    self.record_blocked(url, ctx.provider.asn, now, m.stages);
                }
                MeasuredStatus::NotBlocked => {
                    // Whitelisted (or the global report was false): flip.
                    self.local_db.record_measurement(
                        url,
                        ctx.provider.asn,
                        now,
                        Status::NotBlocked,
                        vec![],
                    );
                }
                MeasuredStatus::Inconclusive => {}
            }
        } else if !from_global {
            // Keep the local record fresh on the served mechanisms.
            self.record_blocked(url, ctx.provider.asn, now, stages.clone());
        } else {
            // First sight of a global-DB entry through this client: seed
            // the local DB so subsequent lookups hit locally.
            self.record_blocked(url, ctx.provider.asn, now, stages.clone());
        }

        if genuine {
            self.stats.served_circumvention += 1;
        } else {
            self.stats.failed += 1;
        }
        if crate::tracing::tracing_fetch() {
            // No detection leg (the URL was already known blocked); the
            // setup leg is the selector's dead ends, and the transfer
            // remainder absorbs any revalidation load inflation.
            let b = match plt {
                Some(p) => crate::tracing::FetchBreakdown::served(p, SimDuration::ZERO, wasted),
                None => crate::tracing::FetchBreakdown::failed(
                    SimDuration::ZERO,
                    wasted + report.elapsed,
                ),
            };
            crate::tracing::emit_fetch_tree(now.as_micros(), b, url, &name);
        }
        RequestOutcome {
            plt,
            transport: name,
            status_after: self.local_db.lookup(url, now).status,
            measured,
        }
    }

    /// First-contact measurement with redundant requests (Algorithm 1
    /// lines 3–5).
    fn measure_and_serve(
        &mut self,
        world: &World,
        ctx: &FetchCtx,
        url: &Url,
        now: SimTime,
    ) -> RequestOutcome {
        self.stats.measurements += 1;
        let out = fetch_with_redundancy(
            world,
            ctx,
            url,
            self.cfg.redundancy,
            self.redundant.as_mut(),
            &self.detect_cfg,
            &self.load,
            &mut self.rng,
        );
        let status_after = match out.measurement.status {
            MeasuredStatus::Blocked => {
                self.record_blocked(url, ctx.provider.asn, now, out.measurement.stages.clone());
                // First-contact detection latency (the redundant-round
                // counterpart of the in-line detection ladder).
                if self.timeline.enabled() {
                    self.timeline
                        .hist("client.detect_latency_us", &[])
                        .observe_us(out.measurement.detection_time.as_micros());
                }
                Status::Blocked
            }
            MeasuredStatus::NotBlocked => {
                self.local_db.record_measurement(
                    url,
                    ctx.provider.asn,
                    now,
                    Status::NotBlocked,
                    vec![],
                );
                Status::NotBlocked
            }
            MeasuredStatus::Inconclusive => Status::NotMeasured,
        };
        let transport = match out.served_from {
            ServedFrom::Direct => "direct".to_string(),
            ServedFrom::Circumvention | ServedFrom::CircumventionAfterRefresh => {
                self.redundant.name().to_string()
            }
            ServedFrom::Nothing => "none".to_string(),
        };
        match out.served_from {
            ServedFrom::Direct => self.stats.served_direct += 1,
            ServedFrom::Circumvention | ServedFrom::CircumventionAfterRefresh => {
                self.stats.served_circumvention += 1
            }
            ServedFrom::Nothing => self.stats.failed += 1,
        }
        RequestOutcome {
            plt: out.user_plt,
            transport,
            status_after,
            measured: true,
        }
    }

    fn record_blocked(&mut self, url: &Url, asn: Asn, now: SimTime, stages: Vec<BlockingType>) {
        if stages.is_empty() {
            return;
        }
        self.per_provider
            .record(&url.base().to_string(), asn, &stages);
        // Queue a report for the accessed URL (re-queued whenever the
        // observed mechanism set changes — multi-stage discovery flows
        // to the crowd).
        let mut sorted = stages.clone();
        sorted.sort();
        sorted.dedup();
        let key = (url.to_string(), asn.0);
        if self.reported.get(&key) != Some(&sorted) {
            if self.report_queue.len() >= self.cfg.report_queue_cap {
                // Bounded queue: evict oldest-first and *account* for it.
                // Forgetting its `reported` entry lets the observation
                // re-queue the next time the URL is seen blocked.
                let victim = self.report_queue.remove(0);
                self.reported.remove(&(victim.url.clone(), victim.asn));
                self.stats.reports_dropped += 1;
                csaw_obs::event!(
                    "report.drop_oldest",
                    queue_cap = self.cfg.report_queue_cap as u64
                );
            }
            self.reported.insert(key, sorted.clone());
            self.report_queue.push(Report {
                url: url.to_string(),
                asn: asn.0,
                measured_at_us: now.as_micros(),
                stages: sorted,
            });
            self.stats.reports_queued += 1;
            if self.timeline.enabled() {
                self.timeline.counter("client.reports.queued", &[]).inc();
                self.ts_set_queue_depth();
            }
        }
        self.local_db
            .record_measurement(url, asn, now, Status::Blocked, stages);
        self.stats.blocked_recorded += 1;
    }

    /// Periodic background work: global sync, report posting, expiry.
    /// Call on whatever cadence the host loop uses; internal intervals
    /// gate the actual work.
    pub fn tick<G: GlobalApi + ?Sized>(&mut self, world: &World, server: &G, now: SimTime) {
        let due = |last: Option<SimTime>, every: SimDuration| match last {
            None => true,
            Some(t) => now.duration_since(t) >= every,
        };
        if due(self.last_sync, self.cfg.sync_interval) {
            let asns: Vec<Asn> = world.access.providers().iter().map(|p| p.asn).collect();
            // A failed pull keeps the cached view; `last_sync` is not
            // advanced, so the next tick retries.
            let _ = self.sync_global(server, &asns, now);
        }
        if due(self.last_report, self.cfg.report_interval) && self.backoff_clear(now) {
            self.post_reports(server, now);
            self.last_report = Some(now);
        }
        self.local_db.purge_expired(now);
    }

    /// Whether the post path is out of backoff at `now`.
    fn backoff_clear(&self, now: SimTime) -> bool {
        self.next_report_at.is_none_or(|at| now >= at)
    }

    /// Windowed per-client queue-depth gauge (call only when the
    /// timeline is enabled).
    fn ts_set_queue_depth(&self) {
        self.timeline
            .gauge("client.report_queue_depth", &[("client", &self.ts_label)])
            .set(self.report_queue.len() as i64);
    }

    /// Register a failed post attempt: deterministic exponential backoff
    /// with ±jitter. Delay doubles per consecutive failure from
    /// `report_backoff_base` up to `report_backoff_max`; the jitter draw
    /// comes from the dedicated backoff fork, so same-seed runs schedule
    /// identical retries while distinct clients decorrelate.
    fn bump_backoff(&mut self, now: SimTime) {
        self.stats.post_failures += 1;
        let exp = self.post_failstreak.min(20);
        self.post_failstreak = self.post_failstreak.saturating_add(1);
        let base = self.cfg.report_backoff_base.as_micros().max(1);
        let max = self.cfg.report_backoff_max.as_micros().max(base);
        let raw = base.saturating_mul(1u64 << exp).min(max);
        let swing = 2.0 * self.backoff_rng.f64() - 1.0;
        let factor = 1.0 + self.cfg.report_backoff_jitter * swing;
        let delay = ((raw as f64 * factor) as u64).max(1);
        self.next_report_at = Some(now + SimDuration::from_micros(delay));
        if self.timeline.enabled() {
            self.timeline.counter("client.reports.failed", &[]).inc();
            self.timeline
                .gauge("client.backoff_streak", &[("client", &self.ts_label)])
                .set(self.post_failstreak as i64);
        }
        csaw_obs::event!(
            "report.backoff",
            failstreak = self.post_failstreak as u64,
            delay_us = delay
        );
    }

    /// A post attempt succeeded: clear any pending backoff.
    fn reset_backoff(&mut self) {
        self.post_failstreak = 0;
        self.next_report_at = None;
        if self.timeline.enabled() {
            self.timeline
                .gauge("client.backoff_streak", &[("client", &self.ts_label)])
                .set(0);
        }
    }

    /// Pull one report out of the queue for good: it can never be
    /// delivered. Kept for audit rather than dropped.
    fn quarantine(&mut self, r: Report) {
        self.stats.reports_quarantined += 1;
        csaw_obs::event!("report.quarantine", asn = r.asn as u64);
        self.quarantined.push(r);
    }

    /// Split the drained batch according to the server's per-report
    /// verdicts: permanently rejected indices are quarantined (futile to
    /// resend), deferred indices go back on the queue (the store never
    /// attempted them), everything else is marked posted. Exactly the
    /// accepted reports count toward `reports_posted` — nothing is
    /// marked posted that the server did not take.
    fn reconcile_receipt(
        &mut self,
        drained: Vec<Report>,
        rejected_indices: &[usize],
        deferred_indices: &[usize],
    ) {
        let mut posted_now = 0u64;
        for (i, r) in drained.into_iter().enumerate() {
            if rejected_indices.contains(&i) {
                self.quarantine(r);
            } else if deferred_indices.contains(&i) {
                self.stats.reports_requeued += 1;
                self.report_queue.push(r);
            } else {
                if let Ok(u) = Url::parse(&r.url) {
                    self.local_db.mark_posted(&u);
                }
                self.stats.reports_posted += 1;
                posted_now += 1;
            }
        }
        if self.timeline.enabled() {
            self.timeline
                .counter("client.reports.posted", &[])
                .add(posted_now);
            self.ts_set_queue_depth();
        }
    }

    /// One post attempt, whatever carries it: the gate, the causal
    /// trace, the wire round trip, the send, and the queue bookkeeping
    /// that follows from its receipt. `send` takes the cut batch to
    /// [`GlobalApi::ingest`] — directly, or with collector fail-over in
    /// front. `None` means no attempt was made or nothing was sendable.
    fn post_once<R: Verdicts, E: From<PostError>>(
        &mut self,
        now: SimTime,
        send: impl FnOnce(Batch, &mut DetRng) -> Result<R, E>,
    ) -> Option<Result<R, E>> {
        let uuid = self.uuid?;
        if self.report_queue.is_empty() || !self.backoff_clear(now) {
            return None;
        }
        // A report post is its own causal tree (REPORT stream, so ids
        // never collide with fetch traces from the same seed): the
        // server's ingest events land under this root. The ordinal
        // advances on every attempt whether or not a sink is listening —
        // instrumented and bare runs of the same seed must derive the
        // same ids for the same attempts.
        let queued = self.report_queue.len();
        let ordinal = self.report_seq;
        self.report_seq += 1;
        let _root = csaw_obs::scope::current().sink.enabled().then(|| {
            csaw_obs::trace::root(
                csaw_obs::trace::derive(self.trace_seed, csaw_obs::trace::stream::REPORT, ordinal),
                now.as_micros(),
            )
        });
        let outcome = self.cut_and_deliver(uuid, now, true, send);
        // The trace closes on **every** exit path — a root left dangling
        // turns into a truncated causal tree that the `report trace` gate
        // flags as a lost report.
        let accepted = match &outcome {
            Some(Ok(receipt)) => Some(receipt.verdicts().0),
            _ => None,
        };
        csaw_obs::trace::complete_active(
            "report.post",
            now.as_micros(),
            0,
            &[
                ("queued", csaw_obs::json::JsonValue::from(queued as u64)),
                (
                    "accepted",
                    csaw_obs::json::JsonValue::from(accepted.unwrap_or(0) as u64),
                ),
                ("ok", csaw_obs::json::JsonValue::from(accepted.is_some())),
            ],
        );
        outcome
    }

    /// Cut the queue into one wire batch and deliver it. An armed
    /// [`WireFault`] sees the first cut of an attempt only: a re-cut
    /// after a quarantine is the same attempt, and the fault stream
    /// draws once per attempt.
    fn cut_and_deliver<R: Verdicts, E: From<PostError>>(
        &mut self,
        uuid: Uuid,
        now: SimTime,
        first_cut: bool,
        send: impl FnOnce(Batch, &mut DetRng) -> Result<R, E>,
    ) -> Option<Result<R, E>> {
        if self.report_queue.is_empty() {
            return None;
        }
        // Wire round trip: encode, (Tor carries it), the batch owns the
        // server-side decode. Chaos runs corrupt the wire here.
        let mut wire = Report::encode_batch(&self.report_queue);
        let fault = self.wire_fault.as_mut().filter(|_| first_cut);
        let corrupted = fault.is_some_and(|f| f.corrupt(&mut wire));
        if corrupted {
            csaw_obs::event!(
                "fault.wire.corrupt",
                queued = self.report_queue.len() as u64
            );
        }
        self.deliver(uuid, &wire, corrupted, now, send)
    }

    /// Decode one cut of the queue, send it, and reconcile the queue
    /// with the receipt. One undeliverable report must never pin the
    /// queue: when the decode of a wire nothing corrupted names a poison
    /// index, that report is quarantined and the rest is cut again in
    /// the same attempt. Any other failure — of a corrupted wire, of the
    /// send — is transient: every report stays queued and backoff arms.
    fn deliver<R: Verdicts, E: From<PostError>>(
        &mut self,
        uuid: Uuid,
        wire: &str,
        corrupted: bool,
        now: SimTime,
        send: impl FnOnce(Batch, &mut DetRng) -> Result<R, E>,
    ) -> Option<Result<R, E>> {
        let sent = match Batch::from_wire(uuid, wire, now) {
            Ok(batch) => send(batch, &mut self.rng),
            Err(PostError::Malformed { index, .. })
                if !corrupted && index < self.report_queue.len() =>
            {
                let poison = self.report_queue.remove(index);
                self.quarantine(poison);
                return self.cut_and_deliver(uuid, now, false, send);
            }
            Err(e) => Err(e.into()),
        };
        match &sent {
            Ok(receipt) => {
                let (_, rejected, deferred) = receipt.verdicts();
                let drained = std::mem::take(&mut self.report_queue);
                self.reconcile_receipt(drained, rejected, deferred);
                self.reset_backoff();
            }
            Err(_) => self.bump_backoff(now),
        }
        Some(sent)
    }

    /// Push pending blocked-URL reports to the server (carried over Tor
    /// in the paper; content is identical either way — no PII on the
    /// wire by construction). Returns how many the server accepted.
    pub fn post_reports<G: GlobalApi + ?Sized>(&mut self, server: &G, now: SimTime) -> usize {
        self.post_once(now, |batch, _| server.ingest(batch))
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
            return Err(SubmitError::Rejected(PostError::UnknownClient));
        }
        self.post_once(now, |batch, rng| collectors.submit(server, batch, rng))
            .unwrap_or_else(|| Ok(SubmitReceipt::empty()))
    }

    /// Anonymity-preferring clients must never leak through non-anonymous
    /// transports — surfaced for tests/audits.
    pub fn preference(&self) -> UserPreference {
        self.cfg.preference
    }

    /// Reports still waiting for a successful post.
    pub fn pending_reports(&self) -> usize {
        self.report_queue.len()
    }

    /// Reports pulled aside as undeliverable — kept for audit, counted
    /// in [`ClientStats::reports_quarantined`].
    pub fn quarantined_reports(&self) -> &[Report] {
        &self.quarantined
    }

    /// When the next post attempt may run, if backoff is armed.
    pub fn next_report_at(&self) -> Option<SimTime> {
        self.next_report_at
    }

    /// Arm deterministic wire corruption on the report post path (chaos
    /// experiments only).
    pub fn arm_wire_fault(&mut self, fault: WireFault) {
        self.wire_fault = Some(fault);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::ServerDb;
    use csaw_censor::profiles;
    use csaw_circumvent::world::SiteSpec;
    use csaw_simnet::topology::{AccessNetwork, Provider, Region, Site};

    fn build_world(policy: csaw_censor::CensorPolicy, asn: Asn) -> World {
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

    fn client(seed: u64) -> CsawClient {
        CsawClient::new(CsawConfig::default(), Some("cdn-front.example"), seed)
    }

    #[test]
    fn unblocked_urls_served_direct_and_recorded() {
        let w = build_world(profiles::clean(), Asn(1));
        let mut c = client(1);
        let url = Url::parse("http://news.example/").unwrap();
        let r1 = c.request(&w, &url, SimTime::from_secs(1));
        assert!(r1.measured, "first contact measures");
        assert_eq!(r1.status_after, Status::NotBlocked);
        assert!(r1.plt.is_some());
        // Second request: straight direct path, no fresh measurement round.
        let r2 = c.request(&w, &url, SimTime::from_secs(2));
        assert!(!r2.measured);
        assert_eq!(r2.transport, "direct");
        assert_eq!(c.stats.measurements, 1);
    }

    #[test]
    fn blocked_url_measured_then_local_fixed() {
        let w = build_world(profiles::isp_a(), profiles::ISP_A_ASN);
        let mut c = client(2);
        let url = Url::parse("http://www.youtube.com/").unwrap();
        let r1 = c.request(&w, &url, SimTime::from_secs(1));
        assert_eq!(r1.status_after, Status::Blocked);
        assert!(r1.plt.is_some(), "redundant copy served the user");
        // Subsequent requests ride the HTTPS local fix and get fast PLTs.
        let r2 = c.request(&w, &url, SimTime::from_secs(10));
        assert_eq!(r2.transport, "https");
        assert!(
            r2.plt.unwrap() < r1.plt.unwrap(),
            "{:?} vs {:?}",
            r2.plt,
            r1.plt
        );
        assert!(c.stats.blocked_recorded >= 1);
    }

    #[test]
    fn global_db_roundtrip_seeds_other_clients() {
        let w = build_world(profiles::isp_a(), profiles::ISP_A_ASN);
        let server = ServerDb::builder(99).build().unwrap();
        // Client 1 discovers the blocking and reports it.
        let mut c1 = client(3);
        c1.register(&server, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
            .unwrap();
        let url = Url::parse("http://www.youtube.com/").unwrap();
        c1.request(&w, &url, SimTime::from_secs(1));
        let posted = c1.post_reports(&server, SimTime::from_secs(2));
        assert!(posted >= 1, "posted {posted}");
        // Client 2 syncs and skips the expensive first-measurement round.
        let mut c2 = client(4);
        c2.register(&server, profiles::ISP_A_ASN, SimTime::from_secs(3), 0.0)
            .unwrap();
        assert!(c2.global_lookup(&url).is_some(), "global view has the URL");
        let r = c2.request(&w, &url, SimTime::from_secs(4));
        assert_eq!(r.transport, "https", "straight to the local fix");
        assert_eq!(c2.stats.measurements, 0, "no redundant round needed");
        assert!(r.plt.is_some());
    }

    #[test]
    fn scenario_b_fresh_censorship_caught_inline() {
        let mut w = build_world(profiles::clean(), Asn(42));
        let mut c = client(5);
        let url = Url::parse("http://news.example/").unwrap();
        let r = c.request(&w, &url, SimTime::from_secs(1));
        assert_eq!(r.status_after, Status::NotBlocked);
        // The censor switches on mid-run (the §7.5 situation).
        w.install_censor(
            Asn(42),
            profiles::single_mechanism(
                "event",
                "news.example",
                csaw_censor::DnsTamper::None,
                csaw_censor::IpAction::None,
                csaw_censor::HttpAction::BlockPageInline,
                csaw_censor::TlsAction::None,
            ),
        );
        let r = c.request(&w, &url, SimTime::from_secs(10));
        assert_eq!(
            r.status_after,
            Status::Blocked,
            "in-line detection caught it"
        );
        assert!(r.plt.is_some(), "user still served via circumvention");
        assert_ne!(r.transport, "direct");
    }

    #[test]
    fn anonymity_preference_only_uses_tor() {
        let w = build_world(profiles::isp_a(), profiles::ISP_A_ASN);
        let cfg = CsawConfig::default().with_preference(UserPreference::Anonymity);
        let mut c = CsawClient::new(cfg, Some("cdn-front.example"), 6);
        let url = Url::parse("http://www.youtube.com/").unwrap();
        c.request(&w, &url, SimTime::from_secs(1));
        for t in 2..8 {
            let r = c.request(&w, &url, SimTime::from_secs(t));
            assert_eq!(r.transport, "tor", "anonymous transport only");
        }
    }

    #[test]
    fn revalidation_discovers_whitelisting() {
        // Start blocked (IP drop -> relay needed so revalidation fires),
        // then unblock; with p=1 revalidation flips the record quickly.
        let mut w = build_world(
            profiles::single_mechanism(
                "ipblock",
                "www.youtube.com",
                csaw_censor::DnsTamper::None,
                csaw_censor::IpAction::Drop,
                csaw_censor::HttpAction::None,
                csaw_censor::TlsAction::None,
            ),
            Asn(9),
        );
        let cfg = CsawConfig::default().with_revalidate_p(1.0);
        // No fronting available => relays carry the blocked URL.
        let mut c = CsawClient::new(cfg, None, 7);
        let url = Url::parse("http://www.youtube.com/").unwrap();
        let r = c.request(&w, &url, SimTime::from_secs(1));
        assert_eq!(r.status_after, Status::Blocked);
        // Unblock and request again: the p=1 probe sees the clean path.
        w.remove_censor(Asn(9));
        let r = c.request(&w, &url, SimTime::from_secs(100));
        assert_eq!(
            r.status_after,
            Status::NotBlocked,
            "revalidation flipped it"
        );
        assert!(c.stats.revalidations >= 1);
        // Next request goes direct.
        let r = c.request(&w, &url, SimTime::from_secs(200));
        assert_eq!(r.transport, "direct");
    }

    #[test]
    fn expiry_retriggers_measurement() {
        let w = build_world(profiles::clean(), Asn(1));
        let cfg = CsawConfig::default().with_record_ttl(SimDuration::from_secs(100));
        let mut c = CsawClient::new(cfg, None, 8);
        let url = Url::parse("http://news.example/").unwrap();
        c.request(&w, &url, SimTime::from_secs(1));
        assert_eq!(c.stats.measurements, 1);
        c.request(&w, &url, SimTime::from_secs(50));
        assert_eq!(c.stats.measurements, 1, "fresh record, no remeasure");
        c.request(&w, &url, SimTime::from_secs(200));
        assert_eq!(c.stats.measurements, 2, "expired record remeasured");
    }

    #[test]
    fn posts_are_never_duplicated() {
        let w = build_world(profiles::clean(), Asn(1));
        let mut c = client(31);
        let url = Url::parse("http://news.example/submit").unwrap();
        // A POST to an unmeasured URL: served directly, no redundant
        // round (stats.measurements stays zero).
        let r = c.request_method(&w, &url, csaw_webproto::Method::Post, SimTime::from_secs(1));
        assert_eq!(r.transport, "direct");
        assert!(r.plt.is_some());
        assert_eq!(c.stats.measurements, 0, "no redundant copy for writes");
        // A POST to a known-blocked URL still goes through circumvention
        // (one path).
        let w2 = build_world(profiles::isp_a(), profiles::ISP_A_ASN);
        let mut c2 = client(32);
        let yt = Url::parse("http://www.youtube.com/comment").unwrap();
        c2.request(&w2, &yt, SimTime::from_secs(1)); // GET measures
        let r = c2.request_method(
            &w2,
            &yt,
            csaw_webproto::Method::Post,
            SimTime::from_secs(10),
        );
        assert_ne!(r.transport, "direct");
        assert!(r.plt.is_some());
    }

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

    // ---- upload-pipeline failure semantics -------------------------------

    use csaw_faults::{FaultProfile, FaultyBackend, OutageSchedule};
    use csaw_store::ShardedStore;
    use std::sync::Arc;

    /// A server whose backend fails every ingest.
    fn broken_server(salt: u64) -> (ServerDb, Arc<FaultyBackend>) {
        let inner = Arc::new(ShardedStore::new(8).unwrap());
        let faulty = Arc::new(FaultyBackend::new(
            inner,
            FaultProfile::none().with_write_fail_p(1.0),
            salt,
        ));
        let server = ServerDb::builder(salt)
            .backend(faulty.clone())
            .build()
            .unwrap();
        (server, faulty)
    }

    fn accounting_holds(c: &CsawClient) {
        assert_eq!(
            c.stats.reports_queued,
            c.stats.reports_posted
                + c.stats.reports_dropped
                + c.stats.reports_quarantined
                + c.pending_reports() as u64,
            "accounting identity violated: {:?} pending={}",
            c.stats,
            c.pending_reports()
        );
    }

    #[test]
    fn failed_ingest_keeps_queue_closes_trace_and_arms_backoff() {
        let sink = Arc::new(csaw_obs::sink::RingSink::new(256));
        let _g = csaw_obs::scope::install(Arc::new(
            csaw_obs::scope::ObsCtx::new().with_sink(sink.clone()),
        ));
        let w = build_world(profiles::isp_a(), profiles::ISP_A_ASN);
        let (server, _faulty) = broken_server(7);
        let mut c = client(40);
        c.register(&server, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
            .unwrap();
        let url = Url::parse("http://www.youtube.com/").unwrap();
        c.request(&w, &url, SimTime::from_secs(1));
        let pending = c.pending_reports();
        assert!(pending >= 1);
        let posted = c.post_reports(&server, SimTime::from_secs(2));
        assert_eq!(posted, 0);
        assert_eq!(c.pending_reports(), pending, "queue survives the failure");
        assert_eq!(c.stats.post_failures, 1);
        assert!(
            c.next_report_at() > Some(SimTime::from_secs(2)),
            "backoff armed"
        );
        // The REPORT trace root closed with ok=false — no dangling root.
        let events = sink.drain();
        let post = events
            .iter()
            .find(|e| e.name == "report.post")
            .expect("report.post completion emitted on the failure path");
        let ok = post
            .fields
            .iter()
            .find(|(k, _)| *k == "ok")
            .map(|(_, v)| v.clone());
        assert_eq!(ok, Some(csaw_obs::json::JsonValue::from(false)));
        accounting_holds(&c);
    }

    #[test]
    fn backoff_gates_retries_then_delivers() {
        let w = build_world(profiles::isp_a(), profiles::ISP_A_ASN);
        let inner = Arc::new(ShardedStore::new(8).unwrap());
        // Ingest is down for the first 1000 simulated seconds.
        let faulty = Arc::new(FaultyBackend::new(
            inner,
            FaultProfile::none().with_ingest_outages(OutageSchedule::from_windows(vec![(
                SimTime::ZERO,
                SimTime::from_secs(1_000),
            )])),
            5,
        ));
        let server = ServerDb::builder(5)
            .backend(faulty.clone())
            .build()
            .unwrap();
        let mut c = client(41);
        c.register(&server, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
            .unwrap();
        let url = Url::parse("http://www.youtube.com/").unwrap();
        c.request(&w, &url, SimTime::from_secs(1));
        assert_eq!(c.post_reports(&server, SimTime::from_secs(2)), 0);
        let next = c.next_report_at().expect("backoff armed");
        // Attempts inside the backoff window are no-ops: no RNG draws,
        // no failure counter movement.
        assert_eq!(c.post_reports(&server, SimTime::from_secs(3)), 0);
        assert_eq!(c.stats.post_failures, 1, "gated attempt is free");
        // Consecutive failures stretch the delay (exponential).
        let failed_at = next;
        assert_eq!(c.post_reports(&server, failed_at), 0);
        let next2 = c.next_report_at().unwrap();
        assert!(
            next2.duration_since(failed_at) > next.duration_since(SimTime::from_secs(2)),
            "second delay longer than first"
        );
        // After the outage the queued report lands and backoff resets.
        let after = SimTime::from_secs(2_000);
        let posted = c.post_reports(&server, after);
        assert!(posted >= 1);
        assert_eq!(c.next_report_at(), None, "backoff cleared on success");
        assert_eq!(c.pending_reports(), 0);
        accounting_holds(&c);
    }

    #[test]
    fn timestamp_beyond_f64_exact_range_is_delivered_not_quarantined() {
        let w = build_world(profiles::isp_a(), profiles::ISP_A_ASN);
        let server = ServerDb::builder(13).build().unwrap();
        let mut c = client(42);
        c.register(&server, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
            .unwrap();
        let url = Url::parse("http://www.youtube.com/").unwrap();
        c.request(&w, &url, SimTime::from_secs(1));
        let healthy = c.pending_reports();
        assert!(healthy >= 1);
        // A timestamp above 2^53 is not an f64-exact integer. It used
        // to fail the JSON wire round-trip and was quarantined as
        // poison; the wire now carries integers digit for digit, so
        // the report is delivered like any other.
        let odd = (1 << 53) + 1;
        c.report_queue.push(Report {
            url: "http://late.example/".into(),
            asn: profiles::ISP_A_ASN.0,
            measured_at_us: odd,
            stages: vec![BlockingType::HttpDrop],
        });
        c.stats.reports_queued += 1;
        let posted = c.post_reports(&server, SimTime::from_secs(2));
        assert_eq!(posted, healthy + 1, "every report delivered");
        assert_eq!(c.stats.reports_quarantined, 0);
        assert_eq!(c.pending_reports(), 0);
        let stored = server
            .blocked_for_as(profiles::ISP_A_ASN, &ConfidenceFilter::default())
            .unwrap();
        let late = stored
            .iter()
            .find(|r| r.url == "http://late.example/")
            .expect("the report was stored");
        assert_eq!(late.measured_at.as_micros(), odd);
        accounting_holds(&c);
    }

    #[test]
    fn partial_receipt_requeues_deferred_and_quarantines_rejected() {
        let mut c = client(43);
        let mk = |u: &str| Report {
            url: u.into(),
            asn: 1,
            measured_at_us: 1,
            stages: vec![BlockingType::HttpDrop],
        };
        let drained = vec![
            mk("http://a.example/"),
            mk("http://b.example/"),
            mk("http://c.example/"),
        ];
        c.stats.reports_queued = 3;
        // Server verdict: index 0 accepted, 1 permanently rejected,
        // 2 never attempted (torn write).
        c.reconcile_receipt(drained, &[1], &[2]);
        assert_eq!(c.stats.reports_posted, 1);
        assert_eq!(c.stats.reports_quarantined, 1);
        assert_eq!(c.stats.reports_requeued, 1);
        assert_eq!(c.pending_reports(), 1, "only the deferred report re-queued");
        assert_eq!(c.report_queue[0].url, "http://c.example/");
        assert_eq!(c.quarantined_reports()[0].url, "http://b.example/");
        accounting_holds(&c);
    }

    #[test]
    fn report_seq_advances_without_sink() {
        // No sink installed: trace ids must still advance identically,
        // or instrumented and bare runs of the same seed diverge.
        let w = build_world(profiles::isp_a(), profiles::ISP_A_ASN);
        let (broken, _) = broken_server(17);
        let good = ServerDb::builder(17).build().unwrap();
        let mut c = client(44);
        c.register(&broken, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
            .unwrap();
        let url = Url::parse("http://www.youtube.com/").unwrap();
        c.request(&w, &url, SimTime::from_secs(1));
        assert_eq!(c.report_seq, 0);
        c.post_reports(&broken, SimTime::from_secs(2)); // fails
        assert_eq!(c.report_seq, 1, "failed attempt advances the ordinal");
        c.uuid = good.register(SimTime::from_secs(3), 0.0).ok();
        // Wait out the backoff the failure armed, then succeed.
        c.post_reports(&good, SimTime::from_secs(10_000));
        assert_eq!(c.report_seq, 2, "ordinal advances with no sink installed");
    }

    #[test]
    fn queue_cap_drops_oldest_and_accounts() {
        let cfg = CsawConfig::default().with_report_queue_cap(2);
        let mut c = CsawClient::new(cfg, None, 45);
        let asn = Asn(1);
        for (i, u) in [
            "http://a.example/",
            "http://b.example/",
            "http://c.example/",
        ]
        .iter()
        .enumerate()
        {
            let url = Url::parse(u).unwrap();
            c.record_blocked(
                &url,
                asn,
                SimTime::from_secs(i as u64 + 1),
                vec![BlockingType::HttpDrop],
            );
        }
        assert_eq!(c.pending_reports(), 2, "bounded at the cap");
        assert_eq!(c.stats.reports_queued, 3);
        assert_eq!(c.stats.reports_dropped, 1);
        assert_eq!(c.report_queue[0].url, "http://b.example/", "oldest evicted");
        accounting_holds(&c);
        // The dropped observation may re-queue: its `reported` entry is
        // forgotten along with the report.
        let a = Url::parse("http://a.example/").unwrap();
        c.record_blocked(
            &a,
            asn,
            SimTime::from_secs(10),
            vec![BlockingType::HttpDrop],
        );
        assert_eq!(c.stats.reports_queued, 4, "dropped report re-queued");
        accounting_holds(&c);
    }

    #[test]
    fn sync_failure_preserves_cached_view() {
        let w = build_world(profiles::isp_a(), profiles::ISP_A_ASN);
        let inner = Arc::new(ShardedStore::new(8).unwrap());
        // Downloads fail between t=100s and t=200s.
        let faulty = Arc::new(FaultyBackend::new(
            inner,
            FaultProfile::none().with_download_outages(OutageSchedule::from_windows(vec![(
                SimTime::from_secs(100),
                SimTime::from_secs(200),
            )])),
            23,
        ));
        let server = ServerDb::builder(23)
            .backend(faulty.clone())
            .build()
            .unwrap();
        // Seed the global DB through a reporting client.
        let mut c1 = client(46);
        c1.register(&server, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
            .unwrap();
        let url = Url::parse("http://www.youtube.com/").unwrap();
        c1.request(&w, &url, SimTime::from_secs(1));
        assert!(c1.post_reports(&server, SimTime::from_secs(2)) >= 1);
        // A second client syncs while the backend is healthy...
        let mut c2 = client(47);
        c2.register(&server, profiles::ISP_A_ASN, SimTime::from_secs(3), 0.0)
            .unwrap();
        assert!(c2.global_lookup(&url).is_some());
        // ...then the backend goes down; the pull fails but the cached
        // view survives.
        faulty.set_now(SimTime::from_secs(150));
        let err = c2.sync_global(&server, &[profiles::ISP_A_ASN], SimTime::from_secs(150));
        assert!(err.is_err());
        assert_eq!(c2.stats.sync_failures, 1);
        assert!(
            c2.global_lookup(&url).is_some(),
            "failed pull must not wipe the cached view"
        );
        // Back up: the next pull refreshes normally.
        faulty.set_now(SimTime::from_secs(300));
        assert!(c2
            .sync_global(&server, &[profiles::ISP_A_ASN], SimTime::from_secs(300))
            .is_ok());
        assert!(c2.global_lookup(&url).is_some());
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

    #[test]
    fn post_reports_via_marks_only_accepted() {
        let w = build_world(profiles::isp_a(), profiles::ISP_A_ASN);
        let server = ServerDb::builder(29).build().unwrap();
        let collectors = crate::global::CollectorSet::default_set();
        let mut c = client(48);
        c.register(&server, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
            .unwrap();
        let url = Url::parse("http://www.youtube.com/").unwrap();
        c.request(&w, &url, SimTime::from_secs(1));
        let pending = c.pending_reports() as u64;
        let receipt = c
            .post_reports_via(&collectors, &server, SimTime::from_secs(2))
            .unwrap();
        assert_eq!(receipt.accepted as u64, pending);
        assert_eq!(c.stats.reports_posted, pending);
        assert_eq!(c.pending_reports(), 0);
        accounting_holds(&c);
        // All collectors blocked: the queue survives and backoff arms.
        let mut blocked = crate::global::CollectorSet::default_set();
        for id in [
            "collector-a.onion",
            "collector-b.onion",
            "collector-c.onion",
        ] {
            blocked.set_reachable(id, false);
        }
        c.request(
            &w,
            &Url::parse("http://www.youtube.com/2").unwrap(),
            SimTime::from_secs(10),
        );
        let before = c.pending_reports();
        assert!(before >= 1);
        let err = c.post_reports_via(&blocked, &server, SimTime::from_secs(11));
        assert!(err.is_err());
        assert_eq!(c.pending_reports(), before, "batch stays queued");
        assert_eq!(c.stats.post_failures, 1);
        accounting_holds(&c);
    }

    #[test]
    fn via_collectors_honours_backoff_and_traces_every_attempt() {
        let sink = Arc::new(csaw_obs::sink::RingSink::new(1024));
        let _g = csaw_obs::scope::install(Arc::new(
            csaw_obs::scope::ObsCtx::new().with_sink(sink.clone()),
        ));
        let w = build_world(profiles::isp_a(), profiles::ISP_A_ASN);
        let server = ServerDb::builder(31).build().unwrap();
        let mut collectors = crate::global::CollectorSet::default_set();
        let ids = [
            "collector-a.onion",
            "collector-b.onion",
            "collector-c.onion",
        ];
        for id in ids {
            collectors.set_reachable(id, false);
        }
        let mut c = client(49);
        c.register(&server, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
            .unwrap();
        let url = Url::parse("http://www.youtube.com/").unwrap();
        c.request(&w, &url, SimTime::from_secs(1));
        let pending = c.pending_reports();
        assert!(pending >= 1);
        sink.drain();
        let posts = |sink: &csaw_obs::sink::RingSink| -> Vec<bool> {
            sink.drain()
                .iter()
                .filter(|e| e.name == "report.post")
                .map(|e| {
                    let ok = e.fields.iter().find(|(k, _)| *k == "ok");
                    ok.expect("a closed root says how it ended").1
                        == csaw_obs::json::JsonValue::from(true)
                })
                .collect()
        };

        // Total blockage: a real attempt. It fails, arms backoff, and
        // its trace root closes with ok=false.
        let err = c.post_reports_via(&collectors, &server, SimTime::from_secs(2));
        assert_eq!(err, Err(SubmitError::AllCollectorsBlocked));
        assert_eq!((c.report_seq, c.stats.post_failures), (1, 1));
        let retry_at = c.next_report_at().expect("backoff armed");
        assert_eq!(posts(&sink), [false]);

        // Inside the backoff, even with the tier back: not an attempt.
        for id in ids {
            collectors.set_reachable(id, true);
        }
        let before = c.stats;
        let gated = c.post_reports_via(&collectors, &server, SimTime::from_secs(3));
        assert_eq!(gated, Ok(SubmitReceipt::empty()));
        assert_eq!(c.stats, before, "a gated attempt leaves the stats alone");
        assert_eq!((c.report_seq, c.pending_reports()), (1, pending));
        assert_eq!(c.next_report_at(), Some(retry_at));
        assert_eq!(posts(&sink), [] as [bool; 0], "no attempt, no trace root");

        // Past it: the queue drains under a second, closed, ok=true root.
        let receipt = c.post_reports_via(&collectors, &server, retry_at).unwrap();
        assert_eq!(receipt.accepted, pending);
        assert_eq!((c.report_seq, c.pending_reports()), (2, 0));
        assert_eq!(c.next_report_at(), None);
        assert_eq!(posts(&sink), [true]);
        accounting_holds(&c);
    }

    #[test]
    fn armed_wire_fault_reaches_the_collector_path() {
        let w = build_world(profiles::isp_a(), profiles::ISP_A_ASN);
        let server = ServerDb::builder(37).build().unwrap();
        let collectors = crate::global::CollectorSet::default_set();
        let mut c = client(50);
        c.register(&server, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
            .unwrap();
        c.request(
            &w,
            &Url::parse("http://www.youtube.com/").unwrap(),
            SimTime::from_secs(1),
        );
        let pending = c.pending_reports();
        c.arm_wire_fault(WireFault::new(1.0, 50));
        let err = c.post_reports_via(&collectors, &server, SimTime::from_secs(2));
        assert!(
            matches!(err, Err(SubmitError::Rejected(PostError::Wire(_)))),
            "{err:?}"
        );
        // The wire failed, not the reports: transient.
        assert_eq!(c.pending_reports(), pending);
        assert_eq!(c.stats.reports_quarantined, 0);
        assert_eq!(c.stats.post_failures, 1);
        accounting_holds(&c);
    }

    #[test]
    fn poison_on_an_untouched_wire_is_quarantined_and_the_rest_delivered() {
        let server = ServerDb::builder(41).build().unwrap();
        let mut c = client(51);
        c.uuid = server.register(SimTime::ZERO, 0.0).ok();
        let mk = |u: &str| Report {
            url: u.into(),
            asn: 1,
            measured_at_us: 1,
            stages: vec![BlockingType::HttpDrop],
        };
        c.report_queue = vec![
            mk("http://a.example/"),
            mk("http://b.example/"),
            mk("http://c.example/"),
        ];
        c.stats.reports_queued = 3;
        // No encoder output fails to decode (`wire_codec.rs` proves it),
        // so splice the poison in by hand: element 1 loses its stages.
        let wire = Report::encode_batch(&c.report_queue);
        let one = Report::encode_batch(&c.report_queue[1..2]);
        let element = &one[1..one.len() - 1];
        let spliced = wire.replace(element, "{\"url\":\"http://b.example/\"}");
        assert_ne!(spliced, wire);
        let uuid = c.uuid.unwrap();
        let send = |batch: Batch, _: &mut DetRng| server.ingest(batch);
        let now = SimTime::from_secs(2);

        // A wire the fault injector corrupted proves nothing about the
        // reports: transient, everything stays queued.
        let sent = c.deliver(uuid, &spliced, true, now, send);
        assert!(matches!(
            sent,
            Some(Err(PostError::Malformed { index: 1, .. }))
        ));
        assert_eq!((c.pending_reports(), c.stats.reports_quarantined), (3, 0));
        assert_eq!(c.stats.post_failures, 1);

        // Untouched, the same wire names a poison report: exactly that
        // one is quarantined and the rest lands in the same call.
        let sent = c.deliver(uuid, &spliced, false, now, send);
        assert_eq!(sent.unwrap().unwrap().accepted, 2);
        assert_eq!(c.quarantined_reports(), [mk("http://b.example/")]);
        assert_eq!(c.stats.reports_posted, 2);
        assert_eq!(c.pending_reports(), 0);
        assert_eq!(server.stats().unique_blocked_urls, 2);
        accounting_holds(&c);
    }
}
