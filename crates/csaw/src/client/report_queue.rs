//! The client's pending-report queue and the post path that drains it
//! (§4.2): bounded enqueue, the backoff gate, the send, and the
//! bookkeeping that follows from a receipt.
//!
//! Every report ever queued is posted, dropped at the bound,
//! quarantined or still pending — any gap is silent loss — and
//! [`ReportQueue::balanced`] is that identity's only spelling.

use super::{elapsed, ClientStats, Telemetry};
use crate::config::CsawConfig;
use crate::global::{Batch, IngestReceipt, Report, StoreError, Uuid, WireError};
use csaw_censor::blocking::BlockingType;
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::{SimDuration, SimTime};
use std::borrow::Borrow;
use std::collections::HashMap;

/// Deterministic wire-level corruption for chaos experiments: with
/// probability `corrupt_p` per post attempt the batch is corrupted in
/// flight, so the attempt fails with [`StoreError::Wire`] the way a
/// half-closed Tor stream would make it fail, and nothing reaches the
/// server. Draws come from a dedicated labelled fork, so arming this
/// never perturbs any other stream of the same seed.
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

    /// Whether this attempt's batch is corrupted in flight. Exactly one
    /// RNG draw per call, hit or miss — the stream length never depends
    /// on outcomes, which keeps same-seed runs aligned.
    fn hits(&mut self) -> bool {
        self.rng.chance(self.corrupt_p)
    }
}

/// What one post attempt borrows from the client: configuration,
/// counters and telemetry, its identity and the time of the attempt.
pub(super) struct PostCtx<'a> {
    pub cfg: &'a CsawConfig,
    pub stats: &'a mut ClientStats,
    pub ts: &'a Telemetry,
    pub uuid: Uuid,
    pub now: SimTime,
}

/// The pending-report queue and everything that decides when and how it
/// drains.
#[derive(Debug)]
pub(super) struct ReportQueue {
    /// Reports queued for the next post, keyed on the *accessed* URL
    /// (the deployment study counts accessed URLs, not aggregated
    /// records — aggregation is a memory optimization, not a reporting
    /// one).
    queue: Vec<Report>,
    /// The mechanism set last queued per (URL, AS): an observation that
    /// repeats it is not queued again.
    reported: HashMap<(String, u32), Vec<BlockingType>>,
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
    /// Ordinal of the next report post (trace-id derivation input).
    report_seq: u64,
    /// When the periodic workflow last took its turn to post.
    last_report: Option<SimTime>,
}

impl ReportQueue {
    /// An empty queue for the client seeded with `seed`.
    pub(super) fn new(seed: u64) -> ReportQueue {
        ReportQueue {
            queue: Vec::new(),
            reported: HashMap::new(),
            post_failstreak: 0,
            next_report_at: None,
            backoff_rng: DetRng::new(seed).fork("report-backoff"),
            wire_fault: None,
            report_seq: 0,
            last_report: None,
        }
    }

    /// Reports still waiting for a successful post.
    pub(super) fn pending(&self) -> usize {
        self.queue.len()
    }

    /// When the next post attempt may run, if backoff is armed.
    pub(super) fn next_report_at(&self) -> Option<SimTime> {
        self.next_report_at
    }

    /// Arm deterministic wire corruption on the post path.
    pub(super) fn arm_wire_fault(&mut self, fault: WireFault) {
        self.wire_fault = Some(fault);
    }

    /// The accounting identity over `stats` and this queue's pending
    /// count.
    pub(super) fn balanced(&self, stats: &ClientStats) -> bool {
        stats.reports_queued
            == stats.reports_posted
                + stats.reports_dropped
                + stats.reports_quarantined
                + self.queue.len() as u64
    }

    /// Queue a report for one blocked observation — unless the same
    /// mechanism set is already queued or posted for its (URL, AS); a
    /// changed set re-queues, so multi-stage discovery flows to the
    /// crowd. At the bound the *oldest* report is evicted and counted.
    pub(super) fn enqueue(
        &mut self,
        cfg: &CsawConfig,
        stats: &mut ClientStats,
        ts: &Telemetry,
        mut report: Report,
    ) {
        report.stages.sort();
        report.stages.dedup();
        let key = (report.url.clone(), report.asn);
        if self.reported.get(&key) == Some(&report.stages) {
            return;
        }
        // A cap below 1 could never hold the report that triggers the drop.
        let cap = cfg.report_queue_cap.max(1);
        if self.queue.len() >= cap {
            // Bounded queue: evict oldest-first and *account* for it.
            // Forgetting its `reported` entry lets the observation
            // re-queue the next time the URL is seen blocked.
            let victim = self.queue.remove(0);
            self.reported.remove(&(victim.url, victim.asn));
            stats.reports_dropped += 1;
            csaw_obs::event!("report.drop_oldest", queue_cap = cap as u64);
        }
        self.reported.insert(key, report.stages.clone());
        self.queue.push(report);
        stats.reports_queued += 1;
        ts.emit(|t, _| t.counter("client.reports.queued", &[]).inc());
        self.ts_set_queue_depth(ts);
    }

    /// The periodic workflow's turn: true (and stamped) when a post is
    /// due at `now` and the path is out of backoff.
    pub(super) fn take_turn(&mut self, now: SimTime, every: SimDuration) -> bool {
        let due = elapsed(self.last_report, every, now) && self.backoff_clear(now);
        if due {
            self.last_report = Some(now);
        }
        due
    }

    /// Whether the post path is out of backoff at `now`.
    fn backoff_clear(&self, now: SimTime) -> bool {
        self.next_report_at.is_none_or(|at| now >= at)
    }

    /// Windowed per-client queue-depth gauge.
    fn ts_set_queue_depth(&self, ts: &Telemetry) {
        ts.emit(|t, client| {
            t.gauge("client.report_queue_depth", &[("client", client)])
                .set(self.queue.len() as i64)
        });
    }

    /// Register a failed post attempt: deterministic exponential backoff
    /// with ±jitter. Delay doubles per consecutive failure from
    /// `report_backoff_base` up to `report_backoff_max`; the jitter draw
    /// comes from the dedicated backoff fork, so same-seed runs schedule
    /// identical retries while distinct clients decorrelate.
    fn bump_backoff(&mut self, cx: &mut PostCtx<'_>) {
        cx.stats.post_failures += 1;
        let exp = self.post_failstreak.min(20);
        self.post_failstreak = self.post_failstreak.saturating_add(1);
        let base = cx.cfg.report_backoff_base.as_micros().max(1);
        let max = cx.cfg.report_backoff_max.as_micros().max(base);
        let raw = base.saturating_mul(1u64 << exp).min(max);
        let swing = 2.0 * self.backoff_rng.f64() - 1.0;
        let factor = 1.0 + cx.cfg.report_backoff_jitter.clamp(0.0, 1.0) * swing;
        let delay = ((raw as f64 * factor) as u64).max(1);
        self.next_report_at = Some(cx.now + SimDuration::from_micros(delay));
        cx.ts.emit(|t, client| {
            t.counter("client.reports.failed", &[]).inc();
            t.gauge("client.backoff_streak", &[("client", client)])
                .set(self.post_failstreak as i64);
        });
        csaw_obs::event!(
            "report.backoff",
            failstreak = self.post_failstreak as u64,
            delay_us = delay
        );
    }

    /// A post attempt succeeded: clear any pending backoff.
    fn reset_backoff(&mut self, ts: &Telemetry) {
        self.post_failstreak = 0;
        self.next_report_at = None;
        ts.emit(|t, client| {
            t.gauge("client.backoff_streak", &[("client", client)])
                .set(0)
        });
    }

    /// Pull one report out of the queue for good: it can never be
    /// delivered. Counted and traced, not kept.
    fn quarantine(&mut self, stats: &mut ClientStats, r: Report) {
        stats.reports_quarantined += 1;
        csaw_obs::event!("report.quarantine", asn = r.asn as u64);
    }

    /// Split the posted queue according to the server's per-report
    /// verdicts: permanently rejected indices are quarantined (futile to
    /// resend), deferred indices go back on the queue (the store never
    /// attempted them), everything else counts as posted. Exactly the
    /// accepted reports count toward `reports_posted` — nothing counts
    /// as posted that the server did not take.
    fn reconcile_receipt(&mut self, cx: &mut PostCtx<'_>, receipt: &IngestReceipt) {
        let mut posted_now = 0u64;
        for (i, r) in std::mem::take(&mut self.queue).into_iter().enumerate() {
            if receipt.rejected_indices.contains(&i) {
                self.quarantine(cx.stats, r);
            } else if receipt.deferred_indices.contains(&i) {
                cx.stats.reports_requeued += 1;
                self.queue.push(r);
            } else {
                cx.stats.reports_posted += 1;
                posted_now += 1;
            }
        }
        cx.ts
            .emit(|t, _| t.counter("client.reports.posted", &[]).add(posted_now));
        self.ts_set_queue_depth(cx.ts);
    }

    /// One post attempt, whatever carries it: the gate, the causal
    /// trace, the send, and the queue bookkeeping that follows from its
    /// receipt. `send` takes the queue as one [`Batch`] to
    /// [`crate::global::GlobalApi::ingest`] — directly, or with collector
    /// fail-over in front — and answers with that call's
    /// [`IngestReceipt`] or something that carries it. `None` means no
    /// attempt was made: the queue was empty or backoff is armed.
    pub(super) fn post_once<R: Borrow<IngestReceipt>, E: From<StoreError>>(
        &mut self,
        mut cx: PostCtx<'_>,
        send: impl FnOnce(Batch) -> Result<R, E>,
    ) -> Option<Result<R, E>> {
        let now = cx.now;
        if self.queue.is_empty() || !self.backoff_clear(now) {
            return None;
        }
        // A report post is its own causal tree (REPORT stream, so ids
        // never collide with fetch traces from the same seed): the
        // server's ingest events land under this root. The ordinal
        // advances on every attempt whether or not a sink is listening —
        // instrumented and bare runs of the same seed must derive the
        // same ids for the same attempts.
        let queued = self.queue.len();
        let ordinal = self.report_seq;
        self.report_seq += 1;
        let _root = csaw_obs::scope::current().sink.enabled().then(|| {
            csaw_obs::trace::root(
                csaw_obs::trace::derive(cx.ts.trace_seed, csaw_obs::trace::stream::REPORT, ordinal),
                now.as_micros(),
            )
        });
        let outcome = self.deliver(&mut cx, send);
        // The trace closes on **every** exit path — a root left dangling
        // turns into a truncated causal tree that the `report trace` gate
        // flags as a lost report.
        let accepted = outcome.as_ref().ok().map(|r| r.borrow().accepted);
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
        Some(outcome)
    }

    /// Send the whole queue as one batch and reconcile the queue with
    /// the receipt. An armed [`WireFault`] draws once per attempt; a hit
    /// fails the attempt before `send` is called. A failure — of the
    /// wire, of the send — is transient: every report stays queued and
    /// backoff arms.
    fn deliver<R: Borrow<IngestReceipt>, E: From<StoreError>>(
        &mut self,
        cx: &mut PostCtx<'_>,
        send: impl FnOnce(Batch) -> Result<R, E>,
    ) -> Result<R, E> {
        let sent = if self.wire_fault.as_mut().is_some_and(WireFault::hits) {
            csaw_obs::event!("fault.wire.corrupt", queued = self.queue.len() as u64);
            Err(StoreError::Wire(WireError::Shape("batch corrupted in flight")).into())
        } else {
            send(Batch::new(cx.uuid, self.queue.clone(), cx.now))
        };
        match &sent {
            Ok(receipt) => {
                self.reconcile_receipt(cx, receipt.borrow());
                self.reset_backoff(cx.ts);
            }
            Err(_) => self.bump_backoff(cx),
        }
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::testkit::client;
    use crate::client::{CsawClient, Telemetry};
    use crate::config::CsawConfig;
    use crate::global::{ConfidenceFilter, ServerDb, SubmitError, SubmitReceipt};
    use csaw_censor::profiles;
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
        assert!(
            c.reports_balanced(),
            "accounting identity violated: {:?} pending={}",
            c.stats,
            c.pending_reports()
        );
    }

    /// One blocked observation of `url`, as a censored fetch reports it.
    fn report(url: &str) -> Report {
        Report {
            url: url.into(),
            asn: profiles::ISP_A_ASN.0,
            measured_at_us: 1_000_000,
            stages: vec![BlockingType::HttpDrop],
        }
    }

    fn enqueue(c: &mut CsawClient, report: Report) {
        c.reports.enqueue(&c.cfg, &mut c.stats, &c.ts, report);
    }

    /// Seed the queue directly: no world, no fetch.
    fn seed(c: &mut CsawClient, url: &str) {
        enqueue(c, report(url));
    }

    /// A registered client's queue beside what one post attempt borrows.
    fn parts(c: &mut CsawClient, now: SimTime) -> (&mut ReportQueue, PostCtx<'_>) {
        let cx = PostCtx {
            cfg: &c.cfg,
            stats: &mut c.stats,
            ts: &c.ts,
            uuid: c.uuid.expect("registered"),
            now,
        };
        (&mut c.reports, cx)
    }

    fn receipt(accepted: usize, rejected: &[usize], deferred: &[usize]) -> IngestReceipt {
        IngestReceipt {
            accepted,
            rejected: rejected.len(),
            rejected_indices: rejected.to_vec(),
            deferred_indices: deferred.to_vec(),
        }
    }

    #[test]
    fn the_identity_holds_through_every_verdict_with_no_world_and_no_server() {
        let cfg = CsawConfig {
            report_queue_cap: 3,
            ..Default::default()
        };
        let mut stats = ClientStats::default();
        let ts = Telemetry {
            trace_seed: 52,
            timeline: csaw_obs::current().timeline.clone(),
            label: "52".into(),
        };
        let mut q = ReportQueue::new(52);
        let uuid = Uuid::derive(SimTime::ZERO, 0, 52);
        macro_rules! cx {
            ($now:expr) => {
                PostCtx {
                    cfg: &cfg,
                    stats: &mut stats,
                    ts: &ts,
                    uuid,
                    now: $now,
                }
            };
        }
        // Four observations against a bound of three: the oldest drops.
        for u in ["/a", "/b", "/c", "/d"] {
            let r = report(&format!("http://x.example{u}"));
            q.enqueue(&cfg, &mut stats, &ts, r);
        }
        assert_eq!((q.pending(), stats.reports_dropped), (3, 1));
        assert!(q.balanced(&stats));
        // The send fails: everything stays queued, backoff arms, and an
        // attempt inside the backoff is not an attempt.
        let t = SimTime::from_secs(10);
        let sent = q.post_once(cx!(t), |_| {
            Err::<IngestReceipt, _>(StoreError::Unavailable("down"))
        });
        assert!(matches!(sent, Some(Err(StoreError::Unavailable(_)))));
        assert!(q
            .post_once(cx!(t), |_| Ok::<_, StoreError>(receipt(3, &[], &[])))
            .is_none());
        assert_eq!((q.pending(), stats.post_failures), (3, 1));
        assert!(q.balanced(&stats));
        // Past it, a mixed receipt: /b posted, /c rejected, /d deferred.
        let t = q.next_report_at().expect("backoff armed");
        let sent = q.post_once(cx!(t), |batch| {
            assert_eq!(batch.len(), 3);
            Ok::<_, StoreError>(receipt(1, &[1], &[2]))
        });
        assert!(matches!(sent, Some(Ok(_))));
        assert_eq!(
            (
                stats.reports_posted,
                stats.reports_quarantined,
                stats.reports_requeued
            ),
            (1, 1, 1)
        );
        assert_eq!(q.queue[0].url, "http://x.example/d");
        assert!(q.balanced(&stats));
        // The deferred report lands on the next attempt.
        let sent = q.post_once(cx!(t), |_| Ok::<_, StoreError>(receipt(1, &[], &[])));
        assert!(matches!(sent, Some(Ok(_))));
        assert_eq!((q.pending(), stats.reports_posted, q.report_seq), (0, 2, 3));
        assert!(q.balanced(&stats));
        assert_eq!(stats.reports_queued, 4);
    }

    #[test]
    fn failed_ingest_keeps_queue_closes_trace_and_arms_backoff() {
        let sink = Arc::new(csaw_obs::sink::BufferSink::new(true));
        let _g = csaw_obs::scope::install(Arc::new(
            csaw_obs::scope::ObsCtx::new().with_sink(sink.clone()),
        ));
        let (server, _faulty) = broken_server(7);
        let mut c = client(40);
        c.register(&server, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
            .unwrap();
        seed(&mut c, "http://www.youtube.com/");
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
        let events = sink.take();
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
        seed(&mut c, "http://www.youtube.com/");
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
        let server = ServerDb::builder(13).build().unwrap();
        let mut c = client(42);
        c.register(&server, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
            .unwrap();
        seed(&mut c, "http://www.youtube.com/");
        let healthy = c.pending_reports();
        assert!(healthy >= 1);
        // A timestamp above 2^53 is not an f64-exact integer; the post
        // hands it over as it is, and the store keeps it digit for
        // digit, so the report is delivered like any other.
        let odd = (1 << 53) + 1;
        enqueue(
            &mut c,
            Report {
                measured_at_us: odd,
                ..report("http://late.example/")
            },
        );
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
        c.uuid = Some(Uuid::derive(SimTime::ZERO, 0, 43));
        for u in [
            "http://a.example/",
            "http://b.example/",
            "http://c.example/",
        ] {
            seed(&mut c, u);
        }
        // Server verdict: index 0 accepted, 1 permanently rejected,
        // 2 never attempted (torn write).
        let verdict = IngestReceipt {
            accepted: 1,
            rejected: 1,
            rejected_indices: vec![1],
            deferred_indices: vec![2],
        };
        let sent = c.post_with(SimTime::from_secs(2), |_, _| Ok::<_, StoreError>(verdict));
        assert!(matches!(sent, Some(Ok(_))));
        assert_eq!(c.stats.reports_posted, 1);
        assert_eq!(c.stats.reports_quarantined, 1);
        assert_eq!(c.stats.reports_requeued, 1);
        assert_eq!(c.pending_reports(), 1, "only the deferred report re-queued");
        assert_eq!(c.reports.queue[0].url, "http://c.example/");
        accounting_holds(&c);
    }

    #[test]
    fn report_seq_advances_without_sink() {
        // No sink installed: trace ids must still advance identically,
        // or instrumented and bare runs of the same seed diverge.
        let (broken, _) = broken_server(17);
        let good = ServerDb::builder(17).build().unwrap();
        let mut c = client(44);
        c.register(&broken, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
            .unwrap();
        seed(&mut c, "http://www.youtube.com/");
        assert_eq!(c.reports.report_seq, 0);
        c.post_reports(&broken, SimTime::from_secs(2)); // fails
        assert_eq!(
            c.reports.report_seq, 1,
            "failed attempt advances the ordinal"
        );
        c.uuid = good.register(SimTime::from_secs(3), 0.0).ok();
        // Wait out the backoff the failure armed, then succeed.
        c.post_reports(&good, SimTime::from_secs(10_000));
        assert_eq!(
            c.reports.report_seq, 2,
            "ordinal advances with no sink installed"
        );
    }

    #[test]
    fn queue_cap_drops_oldest_and_accounts() {
        let cfg = CsawConfig {
            report_queue_cap: 2,
            ..Default::default()
        };
        let mut c = CsawClient::new(cfg, None, 45);
        for u in [
            "http://a.example/",
            "http://b.example/",
            "http://c.example/",
        ] {
            seed(&mut c, u);
        }
        assert_eq!(c.pending_reports(), 2, "bounded at the cap");
        assert_eq!(c.stats.reports_queued, 3);
        assert_eq!(c.stats.reports_dropped, 1);
        assert_eq!(
            c.reports.queue[0].url, "http://b.example/",
            "oldest evicted"
        );
        accounting_holds(&c);
        // The dropped observation may re-queue: its `reported` entry is
        // forgotten along with the report.
        seed(&mut c, "http://a.example/");
        assert_eq!(c.stats.reports_queued, 4, "dropped report re-queued");
        accounting_holds(&c);
        // A repeat of a queued observation does not.
        seed(&mut c, "http://a.example/");
        assert_eq!(c.stats.reports_queued, 4);
    }

    #[test]
    fn a_zero_queue_cap_holds_one_report() {
        // The cap is a public field: a 0 reads as 1 where it is used,
        // instead of evicting from an empty queue.
        let cfg = CsawConfig {
            report_queue_cap: 0,
            ..Default::default()
        };
        let mut c = CsawClient::new(cfg, None, 46);
        for u in ["http://a.example/", "http://b.example/"] {
            let url = csaw_webproto::url::Url::parse(u).unwrap();
            c.record_verdict(
                &url,
                profiles::ISP_A_ASN,
                SimTime::from_secs(1),
                vec![BlockingType::HttpDrop],
            );
        }
        assert_eq!(c.pending_reports(), 1);
        assert_eq!(c.stats.reports_dropped, 1);
        assert_eq!(c.reports.queue[0].url, "http://b.example/");
        accounting_holds(&c);
    }

    #[test]
    fn out_of_range_backoff_settings_are_tamed_where_read() {
        // A ceiling below the base reads as the base and a jitter of 3 as
        // 1, so every first retry waits at most twice the base.
        let cfg = CsawConfig {
            report_backoff_base: SimDuration::from_secs(60),
            report_backoff_max: SimDuration::from_secs(10),
            report_backoff_jitter: 3.0,
            ..Default::default()
        };
        let (server, _faulty) = broken_server(8);
        let now = SimTime::from_secs(2);
        for s in 0..16 {
            let mut c = CsawClient::new(cfg, None, 60 + s);
            c.register(&server, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
                .unwrap();
            seed(&mut c, "http://www.youtube.com/");
            assert_eq!(c.post_reports(&server, now), 0);
            let wait = c
                .next_report_at()
                .expect("backoff armed")
                .duration_since(now);
            assert!(wait <= SimDuration::from_secs(120), "seed {s}: {wait}");
        }
    }

    #[test]
    fn post_reports_via_marks_only_accepted() {
        let server = ServerDb::builder(29).build().unwrap();
        let collectors = crate::global::CollectorSet::default_set();
        let mut c = client(48);
        c.register(&server, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
            .unwrap();
        seed(&mut c, "http://www.youtube.com/");
        let pending = c.pending_reports() as u64;
        let receipt = c
            .post_reports_via(&collectors, &server, SimTime::from_secs(2))
            .unwrap();
        assert_eq!(receipt.ingest.accepted as u64, pending);
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
        seed(&mut c, "http://www.youtube.com/2");
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
        let sink = Arc::new(csaw_obs::sink::BufferSink::new(true));
        let _g = csaw_obs::scope::install(Arc::new(
            csaw_obs::scope::ObsCtx::new().with_sink(sink.clone()),
        ));
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
        seed(&mut c, "http://www.youtube.com/");
        let pending = c.pending_reports();
        assert!(pending >= 1);
        sink.take();
        let posts = |sink: &csaw_obs::sink::BufferSink| -> Vec<bool> {
            sink.take()
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
        assert_eq!((c.reports.report_seq, c.stats.post_failures), (1, 1));
        let retry_at = c.next_report_at().expect("backoff armed");
        assert_eq!(posts(&sink), [false]);

        // Inside the backoff, even with the tier back: not an attempt.
        for id in ids {
            collectors.set_reachable(id, true);
        }
        let before = c.stats;
        let gated = c.post_reports_via(&collectors, &server, SimTime::from_secs(3));
        assert_eq!(gated, Ok(SubmitReceipt::default()));
        assert_eq!(c.stats, before, "a gated attempt leaves the stats alone");
        assert_eq!((c.reports.report_seq, c.pending_reports()), (1, pending));
        assert_eq!(c.next_report_at(), Some(retry_at));
        assert_eq!(posts(&sink), [] as [bool; 0], "no attempt, no trace root");

        // Past it: the queue drains under a second, closed, ok=true root.
        let receipt = c.post_reports_via(&collectors, &server, retry_at).unwrap();
        assert_eq!(receipt.ingest.accepted, pending);
        assert_eq!((c.reports.report_seq, c.pending_reports()), (2, 0));
        assert_eq!(c.next_report_at(), None);
        assert_eq!(posts(&sink), [true]);
        accounting_holds(&c);
    }

    #[test]
    fn armed_wire_fault_reaches_the_collector_path() {
        let server = ServerDb::builder(37).build().unwrap();
        let collectors = crate::global::CollectorSet::default_set();
        let mut c = client(50);
        c.register(&server, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
            .unwrap();
        seed(&mut c, "http://www.youtube.com/");
        let pending = c.pending_reports();
        c.arm_wire_fault(WireFault::new(1.0, 50));
        let err = c.post_reports_via(&collectors, &server, SimTime::from_secs(2));
        assert!(
            matches!(err, Err(SubmitError::Rejected(StoreError::Wire(_)))),
            "{err:?}"
        );
        // The wire failed, not the reports: transient.
        assert_eq!(c.pending_reports(), pending);
        assert_eq!(c.stats.reports_quarantined, 0);
        assert_eq!(c.stats.post_failures, 1);
        accounting_holds(&c);
    }

    #[test]
    fn send_gets_the_queue_in_order_stamped_now() {
        let mut c = client(51);
        let uuid = Uuid::derive(SimTime::ZERO, 0, 51);
        c.uuid = Some(uuid);
        let urls = [
            "http://a.example/",
            "http://b.example/",
            "http://c.example/",
        ];
        for u in urls {
            seed(&mut c, u);
        }
        let queued = c.reports.queue.clone();
        assert!(queued.iter().map(|r| &r.url).eq(urls));
        let now = SimTime::from_secs(7);
        let (q, cx) = parts(&mut c, now);
        let sent = q.post_once(cx, |batch| {
            assert_eq!(batch, Batch::new(uuid, queued, now));
            Ok::<_, StoreError>(receipt(3, &[], &[]))
        });
        assert!(matches!(sent, Some(Ok(_))));
        assert_eq!((c.pending_reports(), c.stats.reports_posted), (0, 3));
        accounting_holds(&c);
    }

    #[test]
    fn a_wire_fault_fails_the_attempt_before_send() {
        let mut c = client(52);
        c.uuid = Some(Uuid::derive(SimTime::ZERO, 0, 52));
        seed(&mut c, "http://a.example/");
        seed(&mut c, "http://b.example/");
        let before = c.reports.queue.clone();
        c.arm_wire_fault(WireFault::new(1.0, 52));
        let now = SimTime::from_secs(2);
        let (q, cx) = parts(&mut c, now);
        let sent = q.post_once(cx, |_| -> Result<IngestReceipt, StoreError> {
            panic!("a corrupted batch reached send")
        });
        assert!(matches!(sent, Some(Err(StoreError::Wire(_)))), "{sent:?}");
        assert_eq!(c.reports.queue, before, "the queue is untouched");
        assert_eq!(c.stats.post_failures, 1);
        assert!(c.next_report_at() > Some(now), "backoff armed");
        accounting_holds(&c);
    }

    #[test]
    fn the_wire_fault_draws_once_per_attempt() {
        const SEED: u64 = 53;
        const ATTEMPTS: usize = 64;
        let mut c = client(SEED);
        c.uuid = Some(Uuid::derive(SimTime::ZERO, 0, SEED));
        seed(&mut c, "http://a.example/");
        c.arm_wire_fault(WireFault::new(0.5, SEED));
        let mut expected = DetRng::new(SEED).fork("wire-fault");
        let mut now = SimTime::from_secs(1);
        let mut hits = 0;
        for attempt in 0..ATTEMPTS {
            let mut reached_send = false;
            let (q, cx) = parts(&mut c, now);
            let sent = q.post_once(cx, |_| {
                reached_send = true;
                Err::<IngestReceipt, _>(StoreError::Unavailable("down"))
            });
            assert!(sent.is_some(), "attempt {attempt} was gated");
            let hit = expected.chance(0.5);
            assert_eq!(!reached_send, hit, "attempt {attempt}");
            hits += usize::from(hit);
            now = c.next_report_at().expect("every attempt failed");
        }
        assert!(0 < hits && hits < ATTEMPTS, "{hits} hits");
        assert_eq!(c.stats.post_failures, ATTEMPTS as u64);
    }
}
