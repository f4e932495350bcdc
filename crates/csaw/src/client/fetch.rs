//! The fetch path: Algorithm 1 (§4.3), written once.
//!
//! [`Books::road`] decides, per user request, between the four roads the
//! paper describes (blocked locally, blocked in the synced global view,
//! unmeasured, last seen reachable), and [`FetchPath::request`] walks the
//! road it names; the real-socket proxy reads the same decision through
//! `CsawClient::road`. `copyable` (§4.3.1's footnote: "To avoid multiple
//! writes, HTTP POST requests are not duplicated") switches off exactly
//! the two places a request is copied onto a second path: the
//! first-contact redundant round and the probability-`p` direct-path
//! revalidation. Everything else — the local and global lookups, the
//! multihoming strict union, transport selection — is the same road for
//! a request that may be copied and one that may not.

use super::report_queue::ReportQueue;
use super::sync_view::SyncView;
use super::{ClientStats, RequestOutcome, Road, Telemetry};
use crate::circum::Selector;
use crate::config::{CsawConfig, EXPLORE_EVERY};
use crate::global::Report;
use crate::local::{LocalDb, LocalRecord, Status};
use crate::measure::{
    fetch_with_redundancy, measure_direct, DirectMeasurement, MeasuredStatus, ServedFrom,
};
use crate::multihoming::{MultihomingManager, PerProviderBlocking};
use crate::tracing::{emit_fetch_tree, FetchBreakdown};
use csaw_censor::blocking::BlockingType;
use csaw_circumvent::tor::TorClient;
use csaw_circumvent::transports::{FetchCtx, Transport, TransportKind};
use csaw_circumvent::world::World;
use csaw_simnet::load::LoadModel;
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use csaw_webproto::url::Url;

/// What one request reads and writes outside the fetch path: the
/// client's configuration, counters and telemetry, what it has measured
/// (local DB, per-provider observations, the multihoming latch), the
/// synced global view, and the report queue a blocked verdict lands on.
pub(super) struct Books<'a> {
    pub cfg: &'a CsawConfig,
    pub stats: &'a mut ClientStats,
    pub ts: &'a Telemetry,
    pub local_db: &'a mut LocalDb,
    pub per_provider: &'a mut PerProviderBlocking,
    pub multihoming: &'a mut MultihomingManager,
    pub view: &'a SyncView,
    pub reports: &'a mut ReportQueue,
}

impl Books<'_> {
    /// Algorithm 1's road for a request to `url` at `now`: known blocked
    /// in the local DB (stages from [`Books::blocked_stages`]) or, for a
    /// URL never measured here, in the synced global view; otherwise the
    /// redundant round for a first contact that may be copied, and the
    /// direct path with in-line detection for the rest.
    pub(super) fn road(&self, url: &Url, copyable: bool, now: SimTime) -> Road {
        let lookup = self.local_db.lookup(url, now);
        match lookup.status {
            Status::Blocked => Road::Circumvent(self.blocked_stages(url, lookup.record)),
            Status::NotMeasured => match self.view.lookup(url) {
                Some(stages) => Road::Circumvent(stages.clone()),
                None if copyable => Road::Measure,
                None => Road::Direct(Status::NotMeasured),
            },
            Status::NotBlocked => Road::Direct(Status::NotBlocked),
        }
    }

    /// The mechanism set to circumvent for a URL the local DB holds as
    /// blocked: on a multihomed network the strict union across
    /// providers (blocking differs per ISP, and the flow may land on
    /// any of them), otherwise what the record says.
    fn blocked_stages(&self, url: &Url, record: Option<&LocalRecord>) -> Vec<BlockingType> {
        if self.multihoming.multihomed {
            let union = self
                .per_provider
                .strict_union(&url.base_string(url.scheme()));
            if !union.is_empty() {
                return union;
            }
        }
        record.map(|r| r.stages.clone()).unwrap_or_default()
    }

    /// Record a blocked verdict: per provider, on the report queue (for
    /// the accessed URL), and in the local DB.
    pub(super) fn record_blocked(
        &mut self,
        url: &Url,
        asn: Asn,
        now: SimTime,
        stages: Vec<BlockingType>,
    ) {
        if stages.is_empty() {
            return;
        }
        self.per_provider
            .record(&url.base_string(url.scheme()), asn, &stages);
        self.reports.enqueue(
            self.stats,
            self.ts,
            Report {
                url: url.to_string(),
                asn: asn.0,
                measured_at_us: now.as_micros(),
                stages: stages.clone(),
            },
        );
        self.local_db
            .record_measurement(url, asn, now, Status::Blocked, stages);
        self.stats.blocked_recorded += 1;
    }

    /// Record that the direct path served the URL.
    pub(super) fn record_clear(&mut self, url: &Url, asn: Asn, now: SimTime) {
        self.local_db
            .record_measurement(url, asn, now, Status::NotBlocked, vec![]);
    }

    /// Windowed detection latency: user request to blocked verdict, the
    /// counterpart of Table 5's detection ladder.
    fn ts_detect_latency(&self, d: SimDuration) {
        self.ts.emit(|t, _| {
            t.hist("client.detect_latency_us", &[])
                .observe_us(d.as_micros())
        });
    }
}

/// The machinery a request runs on: the transport selector, the
/// transport carrying the redundant copy, the detector and load models,
/// the request RNG, and the ordinal of the next fetch.
pub(super) struct FetchPath {
    selector: Selector,
    redundant: TorClient,
    load: LoadModel,
    rng: DetRng,
    /// Ordinal of the next user fetch (trace-id derivation input).
    fetch_seq: u64,
}

impl FetchPath {
    /// The standard transport registry (`front` is the domain-fronting
    /// front domain available in the deployment, if any), Tor for the
    /// redundant copy, and the request RNG seeded with `seed`.
    pub(super) fn new(cfg: &CsawConfig, front: Option<&str>, seed: u64) -> FetchPath {
        FetchPath {
            selector: Selector::standard(front, cfg.preference),
            // Tor carries the redundant copy for unmeasured URLs (and the
            // measurement reports) — except for anonymity-only users,
            // where it is also the only serving transport.
            redundant: TorClient::new(),
            load: LoadModel::default(),
            rng: DetRng::new(seed),
            fetch_seq: 0,
        }
    }

    /// Replace the whole transport registry.
    pub(super) fn set_transports(
        &mut self,
        cfg: &CsawConfig,
        transports: Vec<Box<dyn Transport + Send>>,
    ) {
        self.selector = Selector::new(transports, EXPLORE_EVERY, cfg.preference);
    }

    /// The request RNG, for the one draw outside a fetch that shares its
    /// stream: the collector tier's fail-over order.
    pub(super) fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    /// Handle one user request (Algorithm 1). `copyable` says whether
    /// the request may be duplicated across paths (module docs).
    pub(super) fn request(
        &mut self,
        mut bk: Books<'_>,
        world: &World,
        url: &Url,
        copyable: bool,
        now: SimTime,
    ) -> RequestOutcome {
        // One trace per user fetch: the root frame stays open for the
        // whole request, so every span the pipeline emits (detection,
        // circumvention attempts, simnet flows, store lookups) lands in
        // this fetch's tree. Derivation is (seed, FETCH stream, ordinal)
        // — never wall clock — so same-seed runs trace identically, and
        // the ordinal advances whether or not a sink is listening, so
        // instrumented and bare runs number the same fetch the same.
        let ordinal = self.fetch_seq;
        self.fetch_seq += 1;
        let _root = csaw_obs::scope::current()
            .sink
            .enabled()
            .then(|| csaw_obs::trace::fetch_root(bk.ts.trace_seed, ordinal, now.as_micros()));
        bk.stats.requests += 1;
        let provider = world.access.pick_provider(&mut self.rng).clone();
        // Windowed per-AS fetch coverage: one count per user request, in
        // the AS the request actually egressed through.
        bk.ts.emit(|t, _| {
            t.counter("client.fetches", &[("asn", &provider.asn.0.to_string())])
                .inc()
        });
        bk.multihoming.probe(now, provider.asn);
        let ctx = FetchCtx { now, provider };
        match bk.road(url, copyable, now) {
            Road::Circumvent(stages) => {
                self.serve_blocked(&mut bk, world, &ctx, url, stages, copyable)
            }
            Road::Measure => self.measure_and_serve(&mut bk, world, &ctx, url),
            Road::Direct(prior) => self.direct_with_detection(&mut bk, world, &ctx, url, prior),
        }
    }

    /// Direct path with in-line detection — the road for a URL last seen
    /// reachable (Scenario B safety net: "the proxy always measures the
    /// direct path", which is how fresh censorship is caught
    /// mid-browsing) and for an unmeasured URL whose request must not be
    /// copied. `prior` is the URL's status going in.
    fn direct_with_detection(
        &mut self,
        bk: &mut Books<'_>,
        world: &World,
        ctx: &FetchCtx,
        url: &Url,
        prior: Status,
    ) -> RequestOutcome {
        let m = measure_direct(world, &ctx.provider, url, None, &mut self.rng);
        let (plt, status_after) = match m.status {
            MeasuredStatus::Blocked => {
                return self.circumvent_after_detection(bk, world, ctx, url, &m)
            }
            MeasuredStatus::NotBlocked => {
                bk.record_clear(url, ctx.provider.asn, ctx.now);
                bk.stats.served_direct += 1;
                (Some(m.elapsed), Status::NotBlocked)
            }
            MeasuredStatus::Inconclusive => {
                bk.stats.failed += 1;
                (None, prior)
            }
        };
        // All the user's wait is the transfer leg when the page arrived,
        // or the detection leg when the measurement ended without one.
        let b = match plt {
            Some(p) => FetchBreakdown::served(p, SimDuration::ZERO, SimDuration::ZERO),
            None => FetchBreakdown::failed(m.elapsed, SimDuration::ZERO),
        };
        emit_fetch_tree(ctx.now.as_micros(), b, url, "direct");
        RequestOutcome {
            plt,
            transport: "direct".into(),
            status_after,
            measured: plt.is_some() && prior == Status::NotMeasured,
        }
    }

    /// Serve a URL whose blocking was just detected in-line: record the
    /// verdict, circumvent, and emit the fetch tree (detection leg = the
    /// in-line detection time, setup leg = the selector's dead ends).
    fn circumvent_after_detection(
        &mut self,
        bk: &mut Books<'_>,
        world: &World,
        ctx: &FetchCtx,
        url: &Url,
        m: &DirectMeasurement,
    ) -> RequestOutcome {
        let now = ctx.now;
        bk.record_blocked(url, ctx.provider.asn, now, m.stages.clone());
        bk.ts_detect_latency(m.detection_time);
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
        let b = match plt {
            Some(p) => FetchBreakdown::served(p, m.detection_time, fetched.wasted),
            None => FetchBreakdown::failed(m.elapsed, fetched.wasted + fetched.report.elapsed),
        };
        emit_fetch_tree(now.as_micros(), b, url, &fetched.transport);
        if plt.is_some() {
            bk.stats.served_circumvention += 1;
        } else {
            bk.stats.failed += 1;
        }
        RequestOutcome {
            plt,
            transport: fetched.transport,
            status_after: Status::Blocked,
            measured: true,
        }
    }

    /// Serve a URL known (locally or globally) to be blocked.
    fn serve_blocked(
        &mut self,
        bk: &mut Books<'_>,
        world: &World,
        ctx: &FetchCtx,
        url: &Url,
        mut stages: Vec<BlockingType>,
        copyable: bool,
    ) -> RequestOutcome {
        let now = ctx.now;
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
        // which costs client load and can bump the PLT (Table 6). The
        // probe is a second copy of the request, so a request that may
        // not be copied draws nothing and sends nothing.
        let measured = copyable
            && transport_kind == TransportKind::Relay
            && self.rng.chance(bk.cfg.revalidate_p);
        if measured {
            bk.stats.revalidations += 1;
            let circ_bytes = report.outcome.page().map(|p| p.bytes);
            let m = measure_direct(world, &ctx.provider, url, circ_bytes, &mut self.rng);
            // The concurrent probe taxes the user fetch.
            if let Some(p) = plt {
                plt = Some(self.load.inflate(p, 2, &mut self.rng));
            }
            match m.status {
                MeasuredStatus::Blocked => {
                    bk.record_blocked(url, ctx.provider.asn, now, m.stages);
                }
                // Whitelisted (or the global report was false): flip.
                MeasuredStatus::NotBlocked => bk.record_clear(url, ctx.provider.asn, now),
                MeasuredStatus::Inconclusive => {}
            }
        } else {
            // Keep the local record fresh on the served mechanisms (and
            // seed it on first sight of a global-DB entry, so subsequent
            // lookups hit locally).
            bk.record_blocked(url, ctx.provider.asn, now, stages);
        }

        if genuine {
            bk.stats.served_circumvention += 1;
        } else {
            bk.stats.failed += 1;
        }
        // No detection leg (the URL was already known blocked); the
        // setup leg is the selector's dead ends, and the transfer
        // remainder absorbs any revalidation load inflation.
        let b = match plt {
            Some(p) => FetchBreakdown::served(p, SimDuration::ZERO, wasted),
            None => FetchBreakdown::failed(SimDuration::ZERO, wasted + report.elapsed),
        };
        emit_fetch_tree(now.as_micros(), b, url, &name);
        RequestOutcome {
            plt,
            transport: name,
            status_after: bk.local_db.lookup(url, now).status,
            measured,
        }
    }

    /// First-contact measurement with redundant requests (Algorithm 1
    /// lines 3–5).
    fn measure_and_serve(
        &mut self,
        bk: &mut Books<'_>,
        world: &World,
        ctx: &FetchCtx,
        url: &Url,
    ) -> RequestOutcome {
        bk.stats.measurements += 1;
        let out = fetch_with_redundancy(
            world,
            ctx,
            url,
            bk.cfg.redundancy,
            &mut self.redundant,
            &self.load,
            &mut self.rng,
        );
        let status_after = match out.measurement.status {
            MeasuredStatus::Blocked => {
                bk.record_blocked(url, ctx.provider.asn, ctx.now, out.measurement.stages);
                bk.ts_detect_latency(out.measurement.detection_time);
                Status::Blocked
            }
            MeasuredStatus::NotBlocked => {
                bk.record_clear(url, ctx.provider.asn, ctx.now);
                Status::NotBlocked
            }
            MeasuredStatus::Inconclusive => Status::NotMeasured,
        };
        let transport = match out.served_from {
            ServedFrom::Direct => {
                bk.stats.served_direct += 1;
                "direct"
            }
            ServedFrom::Circumvention | ServedFrom::CircumventionAfterRefresh => {
                bk.stats.served_circumvention += 1;
                self.redundant.name()
            }
            ServedFrom::Nothing => {
                bk.stats.failed += 1;
                "none"
            }
        };
        RequestOutcome {
            plt: out.user_plt,
            transport: transport.to_string(),
            status_after,
            measured: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::client::testkit::{build_world, client};
    use crate::client::CsawClient;
    use crate::config::{CsawConfig, UserPreference, RECORD_TTL};
    use crate::global::ServerDb;
    use crate::local::Status;
    use csaw_censor::blocking::BlockingType;
    use csaw_censor::profiles;
    use csaw_simnet::time::SimTime;
    use csaw_simnet::topology::Asn;
    use csaw_webproto::url::Url;
    use csaw_webproto::Method;

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
        let cfg = CsawConfig {
            preference: UserPreference::Anonymity,
            ..Default::default()
        };
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
        let cfg = CsawConfig {
            revalidate_p: 1.0,
            ..Default::default()
        };
        // No fronting available => relays carry the blocked URL.
        let mut c = CsawClient::new(cfg, None, 7);
        let url = Url::parse("http://www.youtube.com/").unwrap();
        let r = c.request(&w, &url, SimTime::from_secs(1));
        assert_eq!(r.status_after, Status::Blocked);
        // Unblock and request again: the p=1 probe sees the clean path.
        w.install_censor(Asn(9), csaw_censor::clean());
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
        let mut c = CsawClient::new(CsawConfig::default(), None, 8);
        let url = Url::parse("http://news.example/").unwrap();
        let first = SimTime::from_secs(1);
        c.request(&w, &url, first);
        assert_eq!(c.stats.measurements, 1);
        c.request(&w, &url, first + RECORD_TTL / 2);
        assert_eq!(c.stats.measurements, 1, "fresh record, no remeasure");
        c.request(&w, &url, first + RECORD_TTL * 2);
        assert_eq!(c.stats.measurements, 2, "expired record remeasured");
    }

    #[test]
    fn posts_are_never_duplicated() {
        let w = build_world(profiles::clean(), Asn(1));
        let mut c = client(31);
        let url = Url::parse("http://news.example/submit").unwrap();
        // A POST to an unmeasured URL: served directly, no redundant
        // round (stats.measurements stays zero).
        let r = c.request_method(&w, &url, Method::Post, SimTime::from_secs(1));
        assert_eq!(r.transport, "direct");
        assert!(r.plt.is_some());
        assert_eq!(c.stats.measurements, 0, "no redundant copy for writes");
        // A POST to a known-blocked URL still goes through circumvention
        // (one path).
        let w2 = build_world(profiles::isp_a(), profiles::ISP_A_ASN);
        let mut c2 = client(32);
        let yt = Url::parse("http://www.youtube.com/comment").unwrap();
        c2.request(&w2, &yt, SimTime::from_secs(1)); // GET measures
        let r = c2.request_method(&w2, &yt, Method::Post, SimTime::from_secs(10));
        assert_ne!(r.transport, "direct");
        assert!(r.plt.is_some());
    }

    /// A world whose only censor drops YouTube's address, and a client
    /// with no front: only relays carry the blocked URL.
    fn ip_drop_world(asn: Asn) -> csaw_circumvent::world::World {
        build_world(
            profiles::single_mechanism(
                "ipblock",
                "www.youtube.com",
                csaw_censor::DnsTamper::None,
                csaw_censor::IpAction::Drop,
                csaw_censor::HttpAction::None,
                csaw_censor::TlsAction::None,
            ),
            asn,
        )
    }

    #[test]
    fn a_relay_served_post_is_not_copied_onto_the_direct_path() {
        let w = ip_drop_world(Asn(9));
        let cfg = CsawConfig {
            revalidate_p: 1.0,
            ..Default::default()
        };
        let mut c = CsawClient::new(cfg, None, 33);
        let url = Url::parse("http://www.youtube.com/comment").unwrap();
        let r = c.request(&w, &url, SimTime::from_secs(1)); // GET measures
        assert_eq!(r.status_after, Status::Blocked);
        let before = c.stats.revalidations;
        let r = c.request_method(&w, &url, Method::Post, SimTime::from_secs(10));
        assert!(r.plt.is_some());
        assert_ne!(r.transport, "direct");
        assert_eq!(c.stats.revalidations, before, "no probe beside a write");
        assert!(!r.measured);
        // The same client's next GET does draw the p = 1 revalidation.
        let r = c.request(&w, &url, SimTime::from_secs(20));
        assert!(r.measured);
        assert_eq!(c.stats.revalidations, before + 1);
    }

    #[test]
    fn a_post_honours_the_synced_global_view() {
        let w = build_world(profiles::isp_a(), profiles::ISP_A_ASN);
        let server = ServerDb::builder(99).build().unwrap();
        let mut c1 = client(34);
        c1.register(&server, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
            .unwrap();
        let url = Url::parse("http://www.youtube.com/").unwrap();
        c1.request(&w, &url, SimTime::from_secs(1));
        assert!(c1.post_reports(&server, SimTime::from_secs(2)) >= 1);
        let mut c2 = client(35);
        c2.register(&server, profiles::ISP_A_ASN, SimTime::from_secs(3), 0.0)
            .unwrap();
        let r = c2.request_method(&w, &url, Method::Post, SimTime::from_secs(4));
        assert_eq!(r.transport, "https", "straight to the local fix");
        assert!(!r.measured, "no detection ladder on the direct path first");
        assert_eq!(c2.stats.measurements, 0);
        assert!(r.plt.is_some());
    }

    #[test]
    fn a_multihomed_post_circumvents_the_strict_union() {
        // The censor only hijacks DNS; the client's books say a second
        // provider also filters HTTP. Against the DNS-only record the
        // selector opens with public DNS, against the union with HTTPS.
        let asn = Asn(7);
        let w = build_world(
            profiles::single_mechanism(
                "dns",
                "www.youtube.com",
                csaw_censor::DnsTamper::HijackTo(std::net::Ipv4Addr::new(10, 0, 0, 1)),
                csaw_censor::IpAction::None,
                csaw_censor::HttpAction::None,
                csaw_censor::TlsAction::None,
            ),
            asn,
        );
        let url = Url::parse("http://www.youtube.com/").unwrap();
        let seeded = |seed| {
            let mut c = client(seed);
            c.local_db.record_measurement(
                &url,
                asn,
                SimTime::from_secs(1),
                Status::Blocked,
                vec![BlockingType::DnsHijack],
            );
            let key = url.base().to_string();
            c.per_provider.record(&key, asn, &[BlockingType::DnsHijack]);
            c.per_provider
                .record(&key, Asn(8), &[BlockingType::HttpDrop]);
            c.multihoming.multihomed = true;
            c
        };
        let got = seeded(36).request(&w, &url, SimTime::from_secs(2));
        let posted = seeded(36).request_method(&w, &url, Method::Post, SimTime::from_secs(2));
        assert_eq!(got.transport, "https", "the union opens with HTTPS");
        assert_eq!(posted, got, "a write takes the same road as a read");
    }

    #[test]
    fn fetch_seq_advances_without_sink() {
        // No sink installed: the fetch ordinal must still advance, or a
        // client that fetched before a sink was installed numbers its
        // first traced fetch 0 and collides with its own bare twin.
        let w = build_world(profiles::clean(), Asn(1));
        let mut c = client(37);
        let url = Url::parse("http://news.example/").unwrap();
        assert_eq!(c.fetch.fetch_seq, 0);
        c.request(&w, &url, SimTime::from_secs(1));
        c.request_method(&w, &url, Method::Post, SimTime::from_secs(2));
        assert_eq!(c.fetch.fetch_seq, 2, "ordinal advances with no sink");
    }
}
