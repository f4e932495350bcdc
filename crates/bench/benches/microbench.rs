//! Micro-benchmarks for the hot paths of the reproduction: URL parsing,
//! local-DB longest-prefix matching, the phase-1 block-page classifier,
//! the censor's decision, a direct page fetch, vote tallying, the Fig. 4
//! detector, the TCP transfer model, and the simnet event loop. These are
//! the operations a deployed C-Saw proxy (and its simulator) runs on every
//! request.
//!
//! Hand-rolled harness (`harness = false`): each benchmark is calibrated
//! to a target wall time, then timed over a fixed iteration count and
//! reported as ns/iter with a best-of-runs summary. Numbers print to
//! stdout only; the tracked per-layer figures for the same hot paths are
//! `BENCHMARK.json`'s `per_layer` rows.
//!
//! ```sh
//! cargo bench -p csaw-bench
//! # filter: cargo bench -p csaw-bench -- event_loop
//! ```

use csaw::global::{Uuid, VoteLedger};
use csaw::local::{LocalDb, Status};
use csaw::measure::{measure_direct, DetectConfig};
use csaw_blockpage::{phase1_html, Phase1Config};
use csaw_censor::blocking::BlockingType;
use csaw_simnet::event::Scheduler;
use csaw_simnet::rng::DetRng;
use csaw_simnet::tcp::{transfer_time, TcpConfig};
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use csaw_webproto::url::Url;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time `f` adaptively: calibrate the iteration count to ~10ms batches,
/// then report the fastest batch (ns per iteration) over ~300ms of
/// timed batches.
///
/// Minimum-of-many-small-batches instead of an average over a few long
/// runs: the CI hosts are shared VMs whose throughput drifts by tens of
/// percent over hundreds of milliseconds (hypervisor steal), and an
/// average folds that interference into the result. The fastest batch
/// is still a full-batch average — never a single-iteration time — so
/// it estimates steady-state cost, not a lucky cache hit.
fn bench<R>(name: &str, filter: Option<&str>, mut f: impl FnMut() -> R) {
    if let Some(pat) = filter {
        if !name.contains(pat) {
            return;
        }
    }
    // Calibrate: start at 1 iter, double until the batch takes ≥ 10ms.
    let mut iters: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let dt = t0.elapsed();
        if dt >= Duration::from_millis(10) || iters >= 1 << 30 {
            // Scale to ~10ms per timed batch.
            let per_iter = dt.as_nanos().max(1) / iters as u128;
            iters = (10_000_000 / per_iter).max(1) as u64;
            break;
        }
        iters *= 2;
    }
    let mut best = u128::MAX;
    for _ in 0..30 {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        best = best.min(t0.elapsed().as_nanos() / iters as u128);
    }
    println!("{name:<32} {best:>12} ns/iter  ({iters} iters/batch)");
}

fn bench_url_parse(filter: Option<&str>) {
    bench("url_parse", filter, || {
        Url::parse(black_box(
            "https://video.cdn.example.com:8443/watch/v/abc123?t=42&list=x",
        ))
        .unwrap()
    });
}

fn bench_local_db_lpm(filter: Option<&str>) {
    let mut db = LocalDb::new(SimDuration::from_secs(3600));
    for i in 0..500 {
        let url = Url::parse(&format!(
            "http://site{}.example/sec{}/page{}",
            i % 50,
            i % 7,
            i
        ))
        .unwrap();
        let status = if i % 3 == 0 {
            Status::Blocked
        } else {
            Status::NotBlocked
        };
        let stages = if status == Status::Blocked {
            vec![BlockingType::HttpDrop]
        } else {
            vec![]
        };
        db.record_measurement(&url, Asn(1), SimTime::ZERO, status, stages);
    }
    let probe = Url::parse("http://site7.example/sec3/page17/deeper/path").unwrap();
    bench("local_db_lookup_lpm", filter, || {
        db.lookup(black_box(&probe), SimTime::ZERO)
    });
}

fn bench_phase1(filter: Option<&str>) {
    let cfg = Phase1Config::default();
    let block_page = &csaw_blockpage::corpus_47()[0].html;
    let real_page = csaw_webproto::synth_html("News", 95_000);
    bench("phase1_block_page", filter, || {
        phase1_html(black_box(block_page), &cfg)
    });
    bench("phase1_real_95kb", filter, || {
        phase1_html(black_box(&real_page), &cfg)
    });
}

/// The per-layer ledger's `censor.decide_ns` probe: one DNS and one HTTP
/// decision against a blacklist the size of the pilot's (420 domains).
fn bench_censor_decide(filter: Option<&str>) {
    use csaw_censor::{CensorPolicy, CensorRule, DnsTamper, HttpAction, TargetMatcher};
    let universe = csaw_bench::workload::pilot_universe(420, 997, 60);
    let mut policy = CensorPolicy::new("pilot");
    for (i, d) in universe.blocked_domains.iter().enumerate() {
        let rule = CensorRule::target(TargetMatcher::DomainSuffix(d.clone()));
        policy = policy.with_rule(if i % 2 == 0 {
            rule.dns(DnsTamper::Nxdomain)
        } else {
            rule.http(HttpAction::BlockPageInline)
        });
    }
    let urls = &universe.blocked_urls;
    let mut rng = DetRng::new(3);
    let mut i = 0usize;
    bench("censor_decide_pilot_420", filter, || {
        let url = black_box(&urls[i % urls.len()]);
        i += 1;
        (
            policy.on_dns_query(url.dns_name().unwrap_or(""), None, &mut rng),
            policy.on_http_request(url, None, &mut rng),
        )
    });
}

/// A whole direct page fetch (base document + resources) in a world
/// with no censor rules: what the flow model itself costs.
fn bench_direct_fetch(filter: Option<&str>) {
    use csaw_circumvent::transports::{Direct, FetchCtx, Transport};
    let world = csaw_bench::worlds::clean_world();
    let ctx = FetchCtx {
        now: SimTime::from_secs(100),
        provider: world.access.providers()[0].clone(),
    };
    let url = Url::parse(&format!("http://{}/", csaw_bench::worlds::YOUTUBE)).unwrap();
    let mut rng = DetRng::new(4);
    let mut direct = Direct;
    bench("direct_fetch_clean_world", filter, || {
        direct.fetch(black_box(&world), &ctx, &url, &mut rng)
    });
}

fn bench_vote_tally(filter: Option<&str>) {
    let ledger = VoteLedger::new();
    for client in 0..200u64 {
        let urls: Vec<(String, Asn)> = (0..20)
            .map(|i| {
                (
                    format!("http://blocked{}.example/", (client + i) % 300),
                    Asn(1),
                )
            })
            .collect();
        ledger.set_client_report(Uuid::from_raw(client), urls);
    }
    bench("vote_tally", filter, || {
        ledger.tally(black_box("http://blocked42.example/"), Asn(1))
    });
}

fn bench_detector(filter: Option<&str>) {
    let world =
        csaw_bench::worlds::single_isp_world(csaw_censor::ISP_A_ASN, "ISP-A", csaw_censor::isp_a());
    let provider = world.access.providers()[0].clone();
    let url = Url::parse("http://www.youtube.com/").unwrap();
    let mut rng = DetRng::new(1);
    bench("detector_blocked_page", filter, || {
        measure_direct(
            black_box(&world),
            &provider,
            &url,
            Some(360_000),
            &DetectConfig::default(),
            &mut rng,
        )
    });
}

fn bench_transfer_model(filter: Option<&str>) {
    let cfg = TcpConfig::default();
    bench("transfer_time_360kb", filter, || {
        transfer_time(
            black_box(360_000),
            SimDuration::from_millis(186),
            20_000_000,
            &cfg,
        )
    });
}

fn bench_local_db_insert(filter: Option<&str>) {
    let mut db = LocalDb::new(SimDuration::from_secs(3600));
    let urls: Vec<Url> = (0..64)
        .map(|i| Url::parse(&format!("http://s{}.example/p/{i}", i % 8)).unwrap())
        .collect();
    let mut i = 0usize;
    bench("local_db_record_aggregated", filter, || {
        let u = &urls[i % urls.len()];
        i += 1;
        let blocked = i.is_multiple_of(3);
        let (status, stages) = if blocked {
            (Status::Blocked, vec![BlockingType::HttpDrop])
        } else {
            (Status::NotBlocked, vec![])
        };
        db.record_measurement(black_box(u), Asn(1), SimTime::ZERO, status, stages);
    });
}

fn bench_redundancy_parallel(filter: Option<&str>) {
    use csaw::config::RedundancyMode;
    use csaw::measure::fetch_with_redundancy;
    use csaw_circumvent::transports::FetchCtx;
    let world =
        csaw_bench::worlds::single_isp_world(csaw_censor::ISP_A_ASN, "ISP-A", csaw_censor::isp_a());
    let provider = world.access.providers()[0].clone();
    let url = Url::parse("http://www.youtube.com/").unwrap();
    let mut rng = DetRng::new(2);
    let mut tor = csaw_circumvent::tor::TorClient::new();
    let ctx = FetchCtx {
        now: SimTime::ZERO,
        provider: provider.clone(),
    };
    bench("redundant_fetch_parallel", filter, || {
        fetch_with_redundancy(
            black_box(&world),
            &ctx,
            &url,
            RedundancyMode::Parallel,
            &mut tor,
            &DetectConfig::default(),
            &csaw_simnet::load::LoadModel::default(),
            &mut rng,
        )
    });
}

/// The simnet event loop with the default (null-sink) observability
/// context: 10k events dispatched through `run_until`, including a
/// re-schedule per event. This is the workload behind the csaw-obs
/// "≤ 5% overhead with the null sink" acceptance criterion.
fn bench_event_loop(filter: Option<&str>) {
    bench("simnet_event_loop_10k", filter, || {
        let mut s: Scheduler<u64> = Scheduler::new();
        let mut rng = DetRng::new(42);
        for i in 0..10_000u64 {
            s.schedule(SimTime::from_micros(rng.range_u64(0, 1_000_000)), i);
        }
        let mut acc = 0u64;
        s.run_until(SimTime::from_secs(2), |_, e, sched| {
            acc = acc.wrapping_add(e);
            if e % 64 == 0 {
                sched.schedule(SimTime::from_secs(3), e); // past horizon: stays queued
            }
        });
        acc
    });
}

fn main() {
    // cargo bench passes `--bench`; a bare argument is the name filter;
    // there are no flags.
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        eprintln!("microbench: unknown flag {flag:?} (a bare argument is the name filter)");
        std::process::exit(2);
    }
    let filter = args.first().map(String::as_str);
    println!("{:<32} {:>12}", "benchmark", "time");
    bench_url_parse(filter);
    bench_local_db_lpm(filter);
    bench_phase1(filter);
    bench_censor_decide(filter);
    bench_direct_fetch(filter);
    bench_vote_tally(filter);
    bench_detector(filter);
    bench_transfer_model(filter);
    bench_local_db_insert(filter);
    bench_redundancy_parallel(filter);
    bench_event_loop(filter);
}
