//! `RemoteDb` against a live `csaw-dbserver`: the same `GlobalApi`
//! calls that run in-process must round-trip over real sockets, the
//! pool must reuse connections, transport failures must surface as
//! retryable `Unavailable` errors, and a full `CsawClient` must be
//! able to register, post, and sync through the socket transport
//! without its accounting identity noticing the difference.

use csaw::client::CsawClient;
use csaw::config::CsawConfig;
use csaw::global::RegistrarConfig;
use csaw::global::{GlobalApi, RegistrationError, RemoteDb, ServerDb};
use csaw_censor::{profiles, Category};
use csaw_circumvent::world::{SiteSpec, World};
use csaw_dbserver::{spawn_dbserver, DbServerConfig};
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::{AccessNetwork, Asn, Provider, Region, Site};
use csaw_store::net::{DbRequest, DbResponse};
use csaw_store::{Batch, ConfidenceFilter, IngestReceipt, Report, StoreError, Uuid};
use csaw_webproto::bytes::BytesMut;
use csaw_webproto::codec::{decode_frame, read_some, write_frame};
use csaw_webproto::url::Url;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn report(url: &str) -> Report {
    Report {
        url: url.into(),
        asn: 17557,
        measured_at_us: 1_000,
        stages: vec![csaw_censor::blocking::BlockingType::HttpDrop],
    }
}

fn open_filter() -> ConfidenceFilter {
    ConfidenceFilter {
        min_clients: 1,
        min_avg_vote: 0.0,
    }
}

/// The trait surface round-trips over sockets, and sequential calls
/// reuse one pooled connection rather than reconnecting per request.
#[test]
fn remote_roundtrip_reuses_pooled_connection() {
    let server = permissive_server();
    let handle = spawn_dbserver(Arc::clone(&server), DbServerConfig::default()).unwrap();
    let remote = RemoteDb::new(handle.addr());

    let uuid = remote.register(SimTime::from_secs(1), 0.0).unwrap();
    let receipt = remote
        .ingest(Batch::new(
            uuid,
            vec![report("http://blocked.example/a")],
            SimTime::from_secs(2),
        ))
        .unwrap();
    assert_eq!(receipt.accepted, 1);
    assert_eq!(receipt.rejected, 0);
    assert!(receipt.deferred_indices.is_empty());

    let records = remote
        .blocked_for_as(csaw_simnet::topology::Asn(17557), &open_filter())
        .unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].url, "http://blocked.example/a");
    assert_eq!(records[0].reporter, uuid);

    // Three sequential calls, one connection: each checkout drained the
    // pool and each clean roundtrip returned it.
    assert_eq!(remote.idle_connections(), 1);

    let stats = handle.drain();
    assert_eq!(stats.connections_accepted, 1);
    assert_eq!(stats.frames_in, 3);
    assert_eq!(stats.frames_out, 3);
}

/// Server-side registration policy crosses the wire as the matching
/// `RegistrationError`, not as a transport failure.
#[test]
fn registration_policy_errors_cross_the_wire() {
    let server = Arc::new(
        ServerDb::builder(7)
            .registrar(RegistrarConfig {
                max_risk: 0.5,
                max_per_window: usize::MAX,
                window: SimDuration::from_secs(3600),
            })
            .build()
            .unwrap(),
    );
    let handle = spawn_dbserver(server, DbServerConfig::default()).unwrap();
    let remote = RemoteDb::new(handle.addr());

    assert_eq!(
        remote.register(SimTime::from_secs(1), 0.9),
        Err(RegistrationError::RiskRejected)
    );
    drop(handle);
}

/// A registration window that is full crosses the wire as
/// `RateLimited`, and the next window registers again.
#[test]
fn rate_limited_registration_crosses_the_wire() {
    let server = Arc::new(
        ServerDb::builder(7)
            .registrar(RegistrarConfig {
                max_risk: 1.0,
                max_per_window: 1,
                window: SimDuration::from_secs(60),
            })
            .build()
            .unwrap(),
    );
    let handle = spawn_dbserver(server, DbServerConfig::default()).unwrap();
    let remote = RemoteDb::new(handle.addr());

    assert!(remote.register(SimTime::from_secs(1), 0.0).is_ok());
    assert_eq!(
        remote.register(SimTime::from_secs(2), 0.0),
        Err(RegistrationError::RateLimited)
    );
    assert!(remote.register(SimTime::from_secs(61), 0.0).is_ok());
    drop(handle);
}

/// A dead server surfaces as `Unavailable` — the retryable shape the
/// client's backoff path owns — never a panic or a hang.
#[test]
fn dead_server_surfaces_unavailable() {
    let handle = spawn_dbserver(permissive_server(), DbServerConfig::default()).unwrap();
    let addr = handle.addr();
    handle.drain();

    let remote = RemoteDb::new(addr);
    assert_eq!(
        remote.register(SimTime::from_secs(1), 0.0),
        Err(RegistrationError::Unavailable)
    );
    match remote.blocked_for_as(csaw_simnet::topology::Asn(1), &open_filter()) {
        Err(StoreError::Unavailable(_)) => {}
        other => panic!("expected Unavailable, got {other:?}"),
    }
    assert_eq!(remote.idle_connections(), 0, "failed conns are not pooled");
}

/// A server that accepts and then never reads fills the socket's
/// buffers; the post must give up after the timeout, not block in
/// `write` for ever.
#[test]
fn server_that_never_reads_surfaces_unavailable() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (release, held) = std::sync::mpsc::channel::<()>();
    let deaf = std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        let _ = held.recv(); // keep the socket open and unread
        drop(conn);
    });

    let remote = RemoteDb::new(addr).with_read_timeout(Duration::from_millis(200));
    // ~16 MB on the wire: more than loopback send and receive buffers
    // hold between them (4 MB + an unread receive window).
    let long_url = format!("http://blocked.example/{}", "x".repeat(4096));
    let reports = vec![report(&long_url); 4000];
    match remote.ingest(Batch::new(Uuid::from_raw(1), reports, SimTime::ZERO)) {
        Err(StoreError::Unavailable(_)) => {}
        other => panic!("expected Unavailable, got {other:?}"),
    }
    assert_eq!(remote.idle_connections(), 0, "failed conns are not pooled");
    drop(release);
    deaf.join().unwrap();
}

/// A peer that accepts and never answers: the call gives up after the
/// pool's timeout — which the look before blocking neither cuts short
/// nor stretches by more than the stated slack — as a retryable
/// `Unavailable`, and the connection is not pooled.
#[test]
fn a_silent_peer_times_out_as_unavailable() {
    const TIMEOUT: Duration = Duration::from_millis(100);
    const SLACK: Duration = Duration::from_millis(400);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (release, held) = std::sync::mpsc::channel::<()>();
    let silent = std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        let _ = held.recv();
        drop(conn);
    });

    let remote = RemoteDb::new(addr).with_read_timeout(TIMEOUT);
    let start = Instant::now();
    let result = remote.blocked_for_as(Asn(1), &open_filter());
    let waited = start.elapsed();
    assert!(
        matches!(result, Err(StoreError::Unavailable(_))),
        "expected Unavailable, got {result:?}"
    );
    // The kernel may round the timeout to its tick.
    assert!(
        waited >= TIMEOUT - Duration::from_millis(5) && waited < TIMEOUT + SLACK,
        "gave up after {waited:?}"
    );
    assert_eq!(remote.idle_connections(), 0, "failed conns are not pooled");
    drop(release);
    silent.join().unwrap();
}

/// A peer that answers well after the look: the blocking fallback
/// still delivers the receipt, the connection goes back to the pool,
/// and the next call reuses it (the peer accepts only once).
#[test]
fn a_late_answer_is_delivered_and_the_connection_pooled() {
    const LATE: Duration = Duration::from_millis(5);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let slow = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut buf = BytesMut::new();
        for _ in 0..2 {
            let frame = loop {
                if let Some(frame) = decode_frame(&mut buf).unwrap() {
                    break frame;
                }
                assert!(
                    read_some(&mut stream, &mut buf).unwrap() > 0,
                    "client closed"
                );
            };
            let Ok(DbRequest::Post { reports, .. }) = DbRequest::from_frame(&frame) else {
                panic!("expected a POST frame");
            };
            std::thread::sleep(LATE);
            let receipt = IngestReceipt {
                accepted: reports.len(),
                ..IngestReceipt::default()
            };
            write_frame(&mut stream, &DbResponse::Receipt(receipt).to_frame()).unwrap();
        }
    });

    let remote = RemoteDb::new(addr).with_read_timeout(Duration::from_secs(5));
    for posted_at in 1..=2 {
        let start = Instant::now();
        let receipt = remote
            .ingest(Batch::new(
                Uuid::from_raw(1),
                vec![report("http://late.example/")],
                SimTime::from_secs(posted_at),
            ))
            .unwrap();
        assert!(start.elapsed() >= LATE);
        assert_eq!(receipt.accepted, 1);
        assert_eq!(remote.idle_connections(), 1, "the connection is back");
    }
    slow.join().unwrap();
}

/// Concurrent posters share the pool: every batch gets a receipt and
/// the pool never grows beyond its cap.
#[test]
fn concurrent_posts_share_the_pool() {
    const POSTERS: usize = 8;
    const BATCHES_PER_POSTER: usize = 10;

    let server = permissive_server();
    let handle = spawn_dbserver(Arc::clone(&server), DbServerConfig::default()).unwrap();
    let remote = RemoteDb::new(handle.addr()).with_max_idle(4);

    let accepted: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..POSTERS)
            .map(|p| {
                let remote = &remote;
                s.spawn(move || {
                    let uuid = remote
                        .register(SimTime::from_secs(1 + p as u64), 0.0)
                        .unwrap();
                    let mut accepted = 0usize;
                    for b in 0..BATCHES_PER_POSTER {
                        let receipt = remote
                            .ingest(Batch::new(
                                uuid,
                                vec![report(&format!("http://blocked.example/p{p}/b{b}"))],
                                SimTime::from_secs(10),
                            ))
                            .unwrap();
                        assert_eq!(
                            (receipt.rejected, receipt.deferred()),
                            (0, 0),
                            "every report stored"
                        );
                        accepted += receipt.accepted;
                    }
                    accepted
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    assert_eq!(accepted, POSTERS * BATCHES_PER_POSTER);
    assert!(remote.idle_connections() <= 4, "pool respects its cap");
    let stats = handle.drain();
    assert_eq!(
        stats.reports_accepted,
        (POSTERS * BATCHES_PER_POSTER) as u64
    );
}

/// A blocked list as large as the benchmark's largest frame crosses the
/// socket in several reads on both ends and arrives as the in-process
/// list, record for record.
#[test]
fn a_large_download_equals_the_in_process_list() {
    use csaw_censor::blocking::BlockingType;
    const RECORDS: usize = 1_750;

    let server = permissive_server();
    let handle = spawn_dbserver(Arc::clone(&server), DbServerConfig::default()).unwrap();
    let remote = RemoteDb::new(handle.addr());
    for c in 0..7u64 {
        let uuid = remote.register(SimTime::from_secs(1 + c), 0.0).unwrap();
        let reports = (0..RECORDS as u64 / 7)
            .map(|i| {
                let n = c * 1_000 + i;
                let kinds = BlockingType::ALL.len() as u64;
                Report {
                    url: format!("http://blocked{n}.example/{}", "p/".repeat(n as usize % 40)),
                    measured_at_us: 1_000 + n,
                    stages: (0..=n % 3)
                        .map(|k| BlockingType::ALL[((n + k) % kinds) as usize])
                        .collect(),
                    ..report("")
                }
            })
            .collect();
        let receipt = remote
            .ingest(Batch::new(uuid, reports, SimTime::from_secs(10 + c)))
            .unwrap();
        assert_eq!(receipt.accepted, RECORDS / 7);
    }

    let local = server.blocked_for_as(Asn(17557), &open_filter()).unwrap();
    assert_eq!(local.len(), RECORDS);
    let frame_bytes = DbResponse::Records(local.clone()).to_frame().encode().len();
    assert!(frame_bytes > 4 * 16 * 1024, "{frame_bytes} bytes");
    let downloaded = remote.blocked_for_as(Asn(17557), &open_filter()).unwrap();
    assert_eq!(downloaded, local);
    handle.drain();
}

fn build_world() -> World {
    let provider = Provider::new(profiles::ISP_A_ASN, "isp");
    let access = AccessNetwork::single(provider);
    World::builder(access)
        .site(
            SiteSpec::new("www.youtube.com", Site::at_vantage_rtt(Region::UsEast, 186))
                .category(Category::Video)
                .frontable(true)
                .serves_by_ip(true)
                .default_page(360_000, 20),
        )
        .site(SiteSpec::new(
            "cdn-front.example",
            Site::in_region(Region::Singapore),
        ))
        .censor(profiles::ISP_A_ASN, profiles::isp_a())
        .build()
}

/// A full `CsawClient` — register, censored fetches, `post_reports`,
/// `sync_global` — running entirely over the socket transport. The
/// client code is byte-identical to the in-process path; only the `&G`
/// it is handed differs.
#[test]
fn csaw_client_runs_end_to_end_over_sockets() {
    let server = permissive_server();
    let handle = spawn_dbserver(Arc::clone(&server), DbServerConfig::default()).unwrap();
    let remote = RemoteDb::new(handle.addr());

    let w = build_world();
    let mut c = CsawClient::new(
        CsawConfig {
            report_backoff_base: SimDuration::from_secs(30),
            report_backoff_max: SimDuration::from_secs(600),
            report_backoff_jitter: 0.1,
            ..Default::default()
        },
        Some("cdn-front.example"),
        42,
    );
    c.register(&remote, profiles::ISP_A_ASN, SimTime::ZERO, 0.0)
        .unwrap();

    let mut now = SimTime::from_secs(1);
    for u in 0..5 {
        let url = Url::parse(&format!("http://www.youtube.com/watch/u{u}")).unwrap();
        c.request(&w, &url, now);
        now += SimDuration::from_secs(10);
    }
    assert!(c.pending_reports() > 0, "censored fetches queued reports");

    for _ in 0..20 {
        if c.pending_reports() == 0 {
            break;
        }
        now += SimDuration::from_secs(700);
        c.post_reports(&remote, now);
    }
    assert_eq!(c.pending_reports(), 0, "queue drained over sockets");
    assert_eq!(c.stats.reports_quarantined, 0, "no poison injected");
    assert!(
        c.reports_balanced(),
        "accounting identity holds over the socket transport: {:?}",
        c.stats
    );

    // The posted records are now downloadable — through the same pool.
    let synced = c.sync_global(&remote, &[profiles::ISP_A_ASN], now).unwrap();
    assert!(synced > 0, "downloaded the records this client posted");

    // And the server behind the socket really holds them.
    let stats = handle.drain();
    assert_eq!(stats.reports_accepted, c.stats.reports_posted);
    assert_eq!(
        server.store().record_count(),
        c.stats.reports_posted as usize
    );
}
