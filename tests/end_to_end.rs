//! Cross-crate integration tests: full client ↔ server ↔ world loops in
//! virtual time.

use csaw::prelude::*;
use csaw_censor::blocking::{DnsTamper, HttpAction, IpAction, TlsAction};
use csaw_censor::profiles;
use csaw_circumvent::world::{SiteSpec, World};
use csaw_simnet::prelude::*;
use csaw_webproto::Url;

fn url(s: &str) -> Url {
    s.parse().expect("static URL")
}

/// Test shorthand over the first-class server API: post parsed reports
/// (returning the accepted count) and read a blocked list from the
/// never-failing in-memory backend.
trait ServerTestExt {
    fn post(
        &self,
        c: csaw::global::Uuid,
        reports: &[csaw::global::Report],
        now: SimTime,
    ) -> Result<usize, csaw::global::StoreError>;
    fn blocked(&self, asn: Asn, filter: &ConfidenceFilter) -> Vec<csaw::global::GlobalRecord>;
}

impl ServerTestExt for ServerDb {
    fn post(
        &self,
        c: csaw::global::Uuid,
        reports: &[csaw::global::Report],
        now: SimTime,
    ) -> Result<usize, csaw::global::StoreError> {
        self.ingest(csaw::global::Batch::new(c, reports.to_vec(), now))
            .map(|r| r.accepted)
    }
    fn blocked(&self, asn: Asn, filter: &ConfidenceFilter) -> Vec<csaw::global::GlobalRecord> {
        self.blocked_for_as(asn, filter)
            .expect("in-memory backend reads are infallible")
    }
}

fn youtube_world(policy: csaw_censor::CensorPolicy, asn: Asn) -> World {
    let provider = Provider::new(asn, "isp");
    World::builder(AccessNetwork::single(provider))
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
        .censor(asn, policy)
        .build()
}

/// The headline loop: measurement → report → crowdsourced benefit,
/// with a spam client failing to poison the well.
#[test]
fn crowdsourcing_with_spam_resistance() {
    let world = youtube_world(profiles::isp_a(), profiles::ISP_A_ASN);
    let server = ServerDb::builder(1).build().unwrap();
    let yt = url("http://www.youtube.com/");

    // Three honest pioneers measure and report.
    for seed in 0..3 {
        let mut c = CsawClient::new(CsawConfig::default(), Some("cdn-front.example"), seed);
        c.register(&server, profiles::ISP_A_ASN, SimTime::from_secs(seed), 0.05)
            .unwrap();
        c.request(&world, &yt, SimTime::from_secs(10 + seed));
        assert!(c.post_reports(&server, SimTime::from_secs(20 + seed)) >= 1);
    }

    // A spammer floods 500 fake URLs.
    let spammer = server.register(SimTime::from_secs(50), 0.3).unwrap();
    let fakes: Vec<csaw::global::Report> = (0..500)
        .map(|i| csaw::global::Report {
            url: format!("http://innocent-{i}.example/"),
            asn: profiles::ISP_A_ASN.0,
            measured_at_us: 0,
            stages: vec![csaw_censor::BlockingType::HttpDrop],
        })
        .collect();
    server
        .post(spammer, &fakes, SimTime::from_secs(51))
        .unwrap();

    // A strict confidence filter keeps only the real entry.
    let strict = ConfidenceFilter::strict(2, 0.2);
    let listed = server.blocked_for_as(profiles::ISP_A_ASN, &strict).unwrap();
    assert!(
        listed.iter().any(|r| r.url == "http://www.youtube.com/"),
        "real entry visible"
    );
    assert!(
        listed
            .iter()
            .all(|r| !r.url.starts_with("http://innocent-")),
        "spam filtered by vote confidence"
    );
    // A newcomer syncs the list.
    let mut newbie = CsawClient::new(CsawConfig::default(), Some("cdn-front.example"), 99);
    newbie
        .register(&server, profiles::ISP_A_ASN, SimTime::from_secs(60), 0.05)
        .unwrap();
    assert!(newbie.global_lookup(&yt).is_some(), "real entry visible");
    // And the first visit skips the measurement round entirely.
    let r = newbie.request(&world, &yt, SimTime::from_secs(70));
    assert_eq!(newbie.stats.measurements, 0);
    assert_eq!(r.transport, "https");
}

/// Churn Scenario A (§4.4): blocked → whitelisted, observed after expiry.
#[test]
fn churn_blocked_to_unblocked_via_expiry() {
    let mut world = youtube_world(profiles::isp_a(), profiles::ISP_A_ASN);
    let cfg = CsawConfig {
        revalidate_p: 0.0, // isolate the expiry path
        ..Default::default()
    };
    let mut c = CsawClient::new(cfg, Some("cdn-front.example"), 5);
    let yt = url("http://www.youtube.com/");
    let r = c.request(&world, &yt, SimTime::from_secs(10));
    assert_eq!(r.status_after, Status::Blocked);

    // The censor whitelists YouTube (the January 2016 event).
    world.install_censor(profiles::ISP_A_ASN, profiles::clean());

    // Before expiry the client still circumvents (stale record).
    let r = c.request(&world, &yt, SimTime::from_secs(100));
    assert_ne!(r.transport, "direct");

    // After expiry the record reads not-measured; redundant requests
    // re-measure and discover the whitelisting.
    let ttl = csaw::config::RECORD_TTL;
    let r = c.request(&world, &yt, SimTime::from_secs(1_000) + ttl);
    assert!(r.measured);
    assert_eq!(r.status_after, Status::NotBlocked);
    let r = c.request(&world, &yt, SimTime::from_secs(1_100) + ttl);
    assert_eq!(r.transport, "direct");
}

/// Churn Scenario B (§4.4): unblocked → blocked, caught in-line because
/// the direct path is always measured.
#[test]
fn churn_unblocked_to_blocked_inline() {
    let mut world = youtube_world(profiles::clean(), Asn(77));
    let mut c = CsawClient::new(CsawConfig::default(), Some("cdn-front.example"), 6);
    let yt = url("http://www.youtube.com/");
    let r = c.request(&world, &yt, SimTime::from_secs(10));
    assert_eq!(r.status_after, Status::NotBlocked);

    world.install_censor(
        Asn(77),
        profiles::single_mechanism(
            "evt",
            "www.youtube.com",
            DnsTamper::None,
            IpAction::None,
            HttpAction::BlockPageInline,
            TlsAction::None,
        ),
    );
    let r = c.request(&world, &yt, SimTime::from_secs(50));
    assert_eq!(
        r.status_after,
        Status::Blocked,
        "caught on the very next visit"
    );
    assert!(r.plt.is_some(), "user still served");
}

/// Multihoming (§4.4): after detection, the strategy stops oscillating —
/// requests succeed no matter which provider carries the flow.
#[test]
fn multihoming_strategy_converges() {
    let world = csaw_bench::worlds::multihomed_university_world();
    let mut c = CsawClient::new(
        CsawConfig {
            revalidate_p: 0.0,
            ..Default::default()
        },
        Some(csaw_bench::worlds::FRONT),
        7,
    );
    let yt = url("http://www.youtube.com/");
    let mut served = 0;
    let mut failed = 0;
    for i in 0..30u64 {
        let r = c.request(&world, &yt, SimTime::from_secs(30 * (i + 1)));
        if r.plt.is_some() {
            served += 1;
        } else {
            failed += 1;
        }
    }
    assert!(c.multihoming.multihomed, "two providers must be detected");
    assert!(
        served >= 28,
        "steady service expected, got {served} served / {failed} failed"
    );
    // Per-provider observations exist once a provider has carried a
    // blocked flow.
    let seen = c.per_provider.strict_union(&yt.base().to_string());
    assert!(!seen.is_empty(), "no provider observed a mechanism");
}

/// The pilot study's CDN discovery (§7.4): a page's CDN-hosted resources
/// face the censor on the direct path, and the failures are visible.
#[test]
fn cdn_blocking_surfaces_in_resource_failures() {
    use csaw_circumvent::fetch::{direct_like_fetch, DirectOpts};
    use csaw_webproto::page::WebPage;

    let provider = Provider::new(Asn(88), "isp");
    // The last four of the page's ten resources live on the CDN.
    let mut page = WebPage::synthetic(url("http://news.pk/"), 200_000, 10);
    for (i, r) in page.resources[6..].iter_mut().enumerate() {
        r.url = url(&format!("http://cdn.blocked.example/static/r{i}.bin"));
    }
    let world = World::builder(AccessNetwork::single(provider.clone()))
        .site(
            SiteSpec::new("news.pk", Site::in_region(Region::Pakistan))
                .page(page)
                .default_page(200_000, 0),
        )
        .site(
            SiteSpec::new("cdn.blocked.example", Site::in_region(Region::UsEast))
                .category(csaw_censor::Category::Cdn),
        )
        .censor(
            Asn(88),
            profiles::single_mechanism(
                "cdn-censor",
                "cdn.blocked.example",
                DnsTamper::Nxdomain,
                IpAction::None,
                HttpAction::None,
                TlsAction::None,
            ),
        )
        .build();
    let mut rng = DetRng::new(1);
    let report = direct_like_fetch(
        &world,
        &provider,
        &url("http://news.pk/"),
        &DirectOpts::default(),
        &mut rng,
    );
    // The page itself loads...
    assert!(report.outcome.is_genuine_page());
    // ...but the CDN resources failed with a DNS signature.
    assert_eq!(
        report.resource_failures.len(),
        4,
        "{:?}",
        report.resource_failures
    );
    for (u, kind) in &report.resource_failures {
        assert_eq!(u.host().to_string(), "cdn.blocked.example");
        assert_eq!(*kind, csaw_circumvent::FailureKind::DnsNxdomain);
    }
}

/// Anonymity-preferring users never touch non-anonymous transports, even
/// when those would be faster (§4.4).
#[test]
fn anonymity_preference_is_absolute() {
    let world = youtube_world(profiles::isp_b(), profiles::ISP_B_ASN);
    let cfg = CsawConfig {
        preference: UserPreference::Anonymity,
        ..Default::default()
    };
    let mut c = CsawClient::new(cfg, Some("cdn-front.example"), 8);
    let yt = url("http://www.youtube.com/");
    for i in 0..10u64 {
        let r = c.request(&world, &yt, SimTime::from_secs(60 * (i + 1)));
        assert!(
            r.transport == "tor" || r.transport == "none",
            "visit {i} leaked through {}",
            r.transport
        );
    }
}

/// Determinism: the same seed reproduces the same run bit-for-bit.
#[test]
fn runs_are_deterministic() {
    let run = |seed: u64| -> Vec<(Option<u64>, String)> {
        let world = youtube_world(profiles::isp_b(), profiles::ISP_B_ASN);
        let mut c = CsawClient::new(CsawConfig::default(), Some("cdn-front.example"), seed);
        (0..8u64)
            .map(|i| {
                let r = c.request(
                    &world,
                    &url("http://www.youtube.com/"),
                    SimTime::from_secs(30 * (i + 1)),
                );
                (r.plt.map(|p| p.as_micros()), r.transport)
            })
            .collect()
    };
    assert_eq!(run(1234), run(1234));
    assert_ne!(run(1234), run(4321), "different seeds explore differently");
}

/// Mobility (§8 "Can C-Saw work with mobile users?"): when the user's AS
/// changes, the next sync pulls the new AS's blocked list and the client
/// adapts without remeasuring what the crowd already knows.
#[test]
fn mobility_between_ases() {
    // Two cities: home AS censors YouTube at the HTTP level; travel AS
    // censors it at the DNS level.
    let home_asn = Asn(1111);
    let travel_asn = Asn(2222);
    let home = youtube_world(
        profiles::single_mechanism(
            "home",
            "www.youtube.com",
            DnsTamper::None,
            IpAction::None,
            HttpAction::BlockPageRedirect,
            TlsAction::None,
        ),
        home_asn,
    );
    let travel = youtube_world(
        profiles::single_mechanism(
            "travel",
            "www.youtube.com",
            DnsTamper::Nxdomain,
            IpAction::None,
            HttpAction::None,
            TlsAction::None,
        ),
        travel_asn,
    );
    let server = ServerDb::builder(2).build().unwrap();
    // The crowd already measured both ASes.
    let mut scout_home = CsawClient::new(CsawConfig::default(), Some("cdn-front.example"), 21);
    scout_home
        .register(&server, home_asn, SimTime::from_secs(1), 0.0)
        .unwrap();
    scout_home.request(
        &home,
        &url("http://www.youtube.com/"),
        SimTime::from_secs(5),
    );
    scout_home.post_reports(&server, SimTime::from_secs(6));
    let mut scout_travel = CsawClient::new(CsawConfig::default(), Some("cdn-front.example"), 22);
    scout_travel
        .register(&server, travel_asn, SimTime::from_secs(2), 0.0)
        .unwrap();
    scout_travel.request(
        &travel,
        &url("http://www.youtube.com/"),
        SimTime::from_secs(7),
    );
    scout_travel.post_reports(&server, SimTime::from_secs(8));

    // The mobile user starts at home...
    let mut user = CsawClient::new(CsawConfig::default(), Some("cdn-front.example"), 23);
    user.register(&server, home_asn, SimTime::from_secs(100), 0.0)
        .unwrap();
    let r = user.request(
        &home,
        &url("http://www.youtube.com/"),
        SimTime::from_secs(110),
    );
    assert_eq!(r.transport, "https", "home fix for HTTP blocking");
    assert_eq!(user.stats.measurements, 0);

    // ...then travels: the periodic sync against the new AS's world pulls
    // the travel blocked-list (sync keys on the world's providers).
    user.sync_global(&server, &[travel_asn], SimTime::from_secs(1_000))
        .expect("travel sync succeeds");
    // Local records from home have host-level identity; travel mechanisms
    // differ, so the lookup hits the (synced) global view... after the
    // stale local record expires or is revalidated. Force a fresh client
    // state read by expiring home records.
    user.local_db.ttl = SimDuration::from_secs(1);
    user.local_db.purge_expired(SimTime::from_secs(2_000));
    let r = user.request(
        &travel,
        &url("http://www.youtube.com/"),
        SimTime::from_secs(2_010),
    );
    assert!(
        r.plt.is_some(),
        "served in the travel AS without a fresh measurement round"
    );
    assert_eq!(user.stats.measurements, 0, "crowd knowledge reused");
}

/// §5's reputation loop: the server audits behaviour, revokes the
/// spammer, and its pollution disappears from what clients download.
#[test]
fn reputation_audit_cleans_the_global_db() {
    let server = ServerDb::builder(3).build().unwrap();
    // 10 honest clients report the same small genuinely-blocked set.
    for i in 0..10u64 {
        let c = server.register(SimTime::from_secs(i), 0.0).unwrap();
        let reports: Vec<csaw::global::Report> = (0..5)
            .map(|k| csaw::global::Report {
                url: format!("http://blocked-{k}.example/"),
                asn: 1,
                measured_at_us: 0,
                stages: vec![csaw_censor::BlockingType::DnsNxdomain],
            })
            .collect();
        server
            .post(c, &reports, SimTime::from_secs(i + 10))
            .unwrap();
    }
    // The spammer floods 400 fakes.
    let spammer = server.register(SimTime::from_secs(30), 0.3).unwrap();
    let fakes: Vec<csaw::global::Report> = (0..400)
        .map(|i| csaw::global::Report {
            url: format!("http://fake-{i}.example/"),
            asn: 1,
            measured_at_us: 0,
            stages: vec![csaw_censor::BlockingType::HttpDrop],
        })
        .collect();
    server
        .post(spammer, &fakes, SimTime::from_secs(31))
        .unwrap();
    assert_eq!(server.stats().unique_blocked_urls, 405);

    let flags = server.audit_and_revoke(&csaw::global::ReputationConfig::default());
    assert_eq!(flags.len(), 1);
    assert_eq!(flags[0].client, spammer);
    // The fakes are gone even under the *default* (permissive) filter.
    let visible = server.blocked(Asn(1), &ConfidenceFilter::default());
    assert_eq!(visible.len(), 5, "{:?}", visible.len());
    assert!(visible.iter().all(|r| r.url.starts_with("http://blocked-")));
    // And the spammer can't come back under the same UUID.
    assert!(server.post(spammer, &[], SimTime::from_secs(40)).is_err());
}

/// Collector failover end to end: a client behind a censor that blocked
/// two of three collectors still gets its reports through.
#[test]
fn collector_failover_delivers_reports() {
    use csaw::global::{CollectorSet, SubmitError};
    let server = ServerDb::builder(4).build().unwrap();
    let client = server.register(SimTime::from_secs(1), 0.0).unwrap();
    let mut set = CollectorSet::default_set();
    set.set_reachable("collector-a.onion", false);
    set.set_reachable("collector-c.onion", false);
    let mut rng = DetRng::new(9);
    let reports = vec![csaw::global::Report {
        url: "http://blocked.example/".into(),
        asn: 17557,
        measured_at_us: 5,
        stages: vec![csaw_censor::BlockingType::SniDrop],
    }];
    let batch = |at| csaw::global::Batch::new(client, reports.clone(), SimTime::from_secs(at));
    let receipt = set
        .submit(&server, batch(10), &mut rng)
        .expect("one collector still reachable");
    assert_eq!(receipt.via, "collector-b.onion");
    assert_eq!(server.stats().unique_blocked_urls, 1);
    // Censor completes the sweep: now submission fails loudly (the
    // client keeps the batch queued for later).
    set.set_reachable("collector-b.onion", false);
    let err = set.submit(&server, batch(20), &mut rng).unwrap_err();
    assert_eq!(err, SubmitError::AllCollectorsBlocked);
}

/// An event-driven session: browse events and background ticks flow
/// through the simnet discrete-event scheduler, exactly how a long-lived
/// deployment runs (requests, periodic syncs and report posts interleaved
/// on one virtual clock).
#[test]
fn event_driven_session_via_scheduler() {
    #[derive(Debug)]
    enum Ev {
        Browse(&'static str),
        Tick,
    }
    let world = youtube_world(profiles::isp_a(), profiles::ISP_A_ASN);
    let server = ServerDb::builder(12).build().unwrap();
    let mut client = CsawClient::new(CsawConfig::default(), Some("cdn-front.example"), 13);
    client
        .register(&server, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
        .unwrap();

    let mut sched: Scheduler<Ev> = Scheduler::new();
    for i in 0..20u64 {
        sched.schedule(
            SimTime::from_secs(30 + i * 45),
            Ev::Browse("http://www.youtube.com/"),
        );
    }
    sched.schedule(SimTime::from_secs(400), Ev::Tick);
    sched.schedule(SimTime::from_secs(800), Ev::Tick);

    let mut served = 0;
    let dispatched = sched.run_until(SimTime::from_secs(1_000), |now, ev, _s| match ev {
        Ev::Browse(u) => {
            let r = client.request(&world, &url(u), now);
            if r.plt.is_some() {
                served += 1;
            }
        }
        Ev::Tick => client.tick(&world, &server, now),
    });
    assert_eq!(dispatched, 22);
    assert!(served >= 19, "served {served}");
    // The ticks carried the discovery to the server.
    assert!(server.stats().unique_blocked_urls >= 1);
    assert_eq!(sched.now(), SimTime::from_secs(1_000));
}

/// The client-level collector path: reports queue through the hidden-
/// service tier, survive total blockage, and drain on recovery.
#[test]
fn client_posts_reports_via_collectors() {
    use csaw::global::{CollectorSet, SubmitError};
    let world = youtube_world(profiles::isp_a(), profiles::ISP_A_ASN);
    let server = ServerDb::builder(21).build().unwrap();
    let mut client = CsawClient::new(CsawConfig::default(), Some("cdn-front.example"), 33);
    client
        .register(&server, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
        .unwrap();
    client.request(
        &world,
        &url("http://www.youtube.com/"),
        SimTime::from_secs(5),
    );

    let mut set = CollectorSet::default_set();
    for id in [
        "collector-a.onion",
        "collector-b.onion",
        "collector-c.onion",
    ] {
        set.set_reachable(id, false);
    }
    // Total blockage: the batch stays queued.
    let err = client
        .post_reports_via(&set, &server, SimTime::from_secs(10))
        .unwrap_err();
    assert_eq!(err, SubmitError::AllCollectorsBlocked);
    assert_eq!(server.stats().unique_blocked_urls, 0);

    // One collector recovers: once the backoff the failure armed has
    // run out, the same queue drains.
    set.set_reachable("collector-b.onion", true);
    let retry_at = client.next_report_at().expect("the failure armed backoff");
    assert!(retry_at > SimTime::from_secs(20));
    let receipt = client.post_reports_via(&set, &server, retry_at).unwrap();
    assert!(receipt.ingest.accepted >= 1);
    assert_eq!(receipt.via, "collector-b.onion");
    assert!(server.stats().unique_blocked_urls >= 1);

    // Queue drained: a second post is a no-op.
    let receipt = client
        .post_reports_via(&set, &server, retry_at + SimDuration::from_secs(10))
        .unwrap();
    assert_eq!(receipt.ingest.accepted, 0);
}

/// Multi-stage discovery through failed local fixes: a client whose
/// record only names part of ISP-B's blocking pays once to discover the
/// TLS stage (the HTTPS fix dies), learns from the failure, re-reports
/// the enriched stage set, and never retries the dead end.
#[test]
fn failed_fixes_teach_missing_stages() {
    let world = youtube_world(profiles::isp_b(), profiles::ISP_B_ASN);
    let server = ServerDb::builder(31).build().unwrap();
    // Seed the global DB with a *partial* report (DNS + HTTP only — no
    // TLS stage), as an early scout might have filed.
    let scout = server.register(SimTime::ZERO, 0.0).unwrap();
    server
        .post(
            scout,
            &[csaw::global::Report {
                url: "http://www.youtube.com/".into(),
                asn: profiles::ISP_B_ASN.0,
                measured_at_us: 0,
                stages: vec![
                    csaw_censor::BlockingType::DnsHijack,
                    csaw_censor::BlockingType::HttpDrop,
                ],
            }],
            SimTime::from_secs(1),
        )
        .unwrap();

    let cfg = CsawConfig {
        revalidate_p: 0.0,
        ..Default::default()
    };
    let mut c = CsawClient::new(cfg, Some("cdn-front.example"), 37);
    c.register(&server, profiles::ISP_B_ASN, SimTime::from_secs(5), 0.0)
        .unwrap();
    let yt = url("http://www.youtube.com/");

    // Visit 1: the record says DNS+HTTP, so the HTTPS fix is tried and
    // dies on the unknown TLS stage (21 s) before a working fix lands.
    let r1 = c.request(&world, &yt, SimTime::from_secs(10));
    assert!(r1.plt.is_some());
    // The failure taught the client the TLS stage.
    let rec = c
        .local_db
        .lookup(&yt, SimTime::from_secs(11))
        .record
        .expect("recorded");
    assert!(
        rec.stages.contains(&csaw_censor::BlockingType::SniDrop),
        "learned stages: {:?}",
        rec.stages
    );

    // Visit 2+: no more 21 s dead ends.
    let r2 = c.request(&world, &yt, SimTime::from_secs(60));
    assert!(
        r2.plt.unwrap() < SimDuration::from_secs(10),
        "visit 2 still paying dead ends: {:?}",
        r2.plt
    );
    assert!(r2.plt.unwrap() < r1.plt.unwrap());

    // And the enriched stage set flowed back to the crowd.
    c.post_reports(&server, SimTime::from_secs(70));
    let list = server.blocked(profiles::ISP_B_ASN, &ConfidenceFilter::default());
    let entry = list
        .iter()
        .find(|r| r.url == "http://www.youtube.com/")
        .expect("entry exists");
    assert!(
        entry.stages.contains(&csaw_censor::BlockingType::SniDrop),
        "crowd got the update: {:?}",
        entry.stages
    );
}

/// Scheduler stress: 100k events with interleaved re-scheduling stay
/// ordered and deterministic.
#[test]
fn scheduler_stress_100k_events() {
    let mut s: Scheduler<u64> = Scheduler::new();
    let mut rng = DetRng::new(77);
    for i in 0..100_000u64 {
        s.schedule(SimTime::from_micros(rng.range_u64(0, 1_000_000)), i);
    }
    let mut last = SimTime::ZERO;
    let mut count = 0u64;
    let mut spawned = 0u64;
    while let Some((t, _ev)) = s.next() {
        assert!(t >= last, "time went backwards");
        last = t;
        count += 1;
        // Handlers occasionally schedule follow-ups (bounded).
        if spawned < 5_000 && count.is_multiple_of(40) {
            spawned += 1;
            s.schedule(t + SimDuration::from_micros(17), 1_000_000 + spawned);
        }
    }
    assert_eq!(count, 100_000 + spawned);
    assert_eq!(s.pending(), 0);
}
