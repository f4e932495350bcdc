//! The outside-in cost ledger: one number per layer boundary.
//!
//! The benchmark replays each kind of operation step by step, calling
//! every layer's public function on the same seeded inputs and recording
//! one span per call; every per-layer metric is then derived from those
//! spans (or from `DbServerStats`, or from the counting allocator). No
//! layer is instrumented from inside: spans inside the program are a
//! later change.
//!
//! `dbserver.residual_us_per_post` is what no layer accounts for: the
//! mean real socket round trip of a four-report post minus the summed
//! in-process cost of the layers it passes through (request encode,
//! framing, decode, ingest, receipt encode, framing, decode). It is
//! system calls, the loopback stack, reactor pass scheduling and
//! `idle_park`.

use crate::estimator::{coefficient_of_variation, median, Latencies};
use crate::gen;
use crate::out_dir;
use crate::run::Run;
use crate::trace::Tracer;
use crate::workloads::pilot_browse::{pilot_config, pilot_server, pilot_world};
use crate::workloads::replicate::Pair;
use crate::workloads::wire_mixed::WireMixed;
use crate::workloads::{memory_server, register_all, Workload};
use csaw::client::CsawClient;
use csaw::encore::{EncoreConfig, EncoreSource};
use csaw::global::{
    Batch, ConfidenceFilter, GlobalRecord, IngestReceipt, JsonlStore, Report, ShardedStore,
    StorageBackend, Uuid,
};
use csaw::local::{LocalDb, Status};
use csaw_blockpage::classifier::{detect, Phase1Config, Phase2Config};
use csaw_censor::blocking::BlockingType;
use csaw_circumvent::transports::{Direct, DomainFronting, FetchCtx, Transport};
use csaw_circumvent::{LanternClient, TorClient};
use csaw_obs::json::JsonValue;
use csaw_replica::{ReplicatedStore, StoreState};
use csaw_simnet::event::Scheduler;
use csaw_simnet::rng::DetRng;
use csaw_simnet::tcp::{transfer_time, TcpConfig};
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use csaw_store::net::{DbRequest, DbResponse};
use csaw_store::wal;
use csaw_webproto::bytes::BytesMut;
use csaw_webproto::codec::decode_frame;
use csaw_webproto::url::Url;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::TcpStream;
use std::sync::Arc;

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Calls folded into one span where a single call is cheaper than a
/// clock reading.
const FOLD: usize = 32;

/// The latencies of the spans called `span`, in units of `unit_ns`
/// nanoseconds. Beside the table's percentiles (`<family>.p50`, …) the
/// report gets the sample count and the highest percentile the sample
/// supports, as `<family>.n`, `<family>.tail_pct`, `<family>.tail`.
fn latencies(
    t: &Tracer,
    span: &str,
    unit_ns: f64,
    v: &mut Values,
    extras: [&'static str; 3],
) -> Latencies {
    let l = Latencies::new(t.durations_ns(span).iter().map(|ns| ns / unit_ns).collect());
    v.insert(extras[0], l.n() as f64);
    v.insert(extras[1], l.tail_pct());
    v.insert(extras[2], l.at(l.tail_pct()));
    l
}

/// One span around `n` calls of `f`, `work` = `n`.
fn folded<T>(t: &mut Tracer, name: &'static str, op: u64, n: usize, mut f: impl FnMut(usize) -> T) {
    t.span(name, op, n as u64, |_| {
        for i in 0..n {
            black_box(f(i));
        }
    });
}

/// `n` synthetic blocked-list records, as a download would carry them.
fn records(seed: u64, n: usize) -> Vec<GlobalRecord> {
    let mut rng = DetRng::new(seed ^ 0x07ec_07d5);
    (0..n)
        .map(|i| GlobalRecord {
            url: gen::pool_url(rng.index(gen::URLS)),
            asn: Asn(7),
            measured_at: SimTime::from_micros(1_000_000 + i as u64),
            stages: vec![BlockingType::HttpDrop],
            posted_at: SimTime::from_secs(2_000 + i as u64),
            reporter: Uuid::from_raw(rng.range_u64(1, u64::MAX)),
        })
        .collect()
}

/// `csaw_obs::json`, `csaw_webproto::codec` and `csaw_store::net` on
/// frames of the sizes the wire carries.
fn codec_layers(seed: u64, run: &mut Run, v: &mut Values) {
    let t = &mut run.ops.tracer;
    // JSON parse cost per byte at three payload sizes: it is not flat.
    for (name, n_records, reps) in [
        ("obs.json.parse.1k", 7usize, 400usize),
        ("obs.json.parse.16k", 110, 40),
        ("obs.json.parse.256k", 1_750, 2),
    ] {
        let frame = DbResponse::Records(records(seed, n_records)).to_frame();
        let text = String::from_utf8(frame.payload).expect("frames carry UTF-8 JSON");
        for rep in 0..reps {
            let parsed = t.span(name, rep as u64, text.len() as u64, |_| {
                JsonValue::parse(&text)
            });
            black_box(parsed.is_ok());
        }
    }
    v.insert(
        "obs.json.parse_ns_per_byte.1k",
        t.ns_per_work("obs.json.parse.1k"),
    );
    v.insert(
        "obs.json.parse_ns_per_byte.16k",
        t.ns_per_work("obs.json.parse.16k"),
    );
    v.insert(
        "obs.json.parse_ns_per_byte.256k",
        t.ns_per_work("obs.json.parse.256k"),
    );

    let list = records(seed, 110);
    let value = JsonValue::parse(
        std::str::from_utf8(&DbResponse::Records(list).to_frame().payload).expect("UTF-8"),
    )
    .expect("our own encoding parses");
    for rep in 0..40 {
        let len = value.to_string_compact().len();
        let text = t.span("obs.json.write", rep, len as u64, |_| {
            value.to_string_compact()
        });
        black_box(text);
    }
    v.insert(
        "obs.json.write_ns_per_byte",
        t.ns_per_work("obs.json.write"),
    );

    // A four-report post and its receipt, layer by layer.
    let posts: Vec<DbRequest> = (0..512)
        .map(|i| DbRequest::Post {
            client: Uuid::from_raw(1 + i as u64),
            posted_at: SimTime::from_secs(100_000),
            reports: gen::reports_for(seed, i),
        })
        .collect();
    let receipt = DbResponse::Receipt(IngestReceipt {
        accepted: 4,
        rejected: 0,
        rejected_indices: Vec::new(),
        deferred_indices: Vec::new(),
    });
    let mut frame_bytes = 0usize;
    for (i, post) in posts.iter().enumerate() {
        let op = i as u64;
        let reports = gen::REPORTS_PER_BATCH as u64;
        let request = t.span("store.net.post_encode", op, reports, |_| post.to_frame());
        let reply = t.span("store.net.receipt_encode", op, 1, |_| receipt.to_frame());
        let wire = t.span("webproto.codec.encode", op, 2, |_| {
            (request.encode(), reply.encode())
        });
        frame_bytes += wire.0.len() + wire.1.len();
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&wire.0);
        buf.extend_from_slice(&wire.1);
        let (request, reply) = t.span("webproto.codec.decode", op, 2, |_| {
            (decode_frame(&mut buf), decode_frame(&mut buf))
        });
        let (Ok(Some(request)), Ok(Some(reply))) = (request, reply) else {
            panic!("our own frames must decode");
        };
        let decoded = t.span("store.net.post_decode", op, reports, |_| {
            DbRequest::from_frame(&request)
        });
        black_box(decoded.is_ok());
        let decoded = t.span("store.net.receipt_decode", op, 1, |_| {
            DbResponse::from_frame(&reply)
        });
        black_box(decoded.is_ok());
    }
    v.insert(
        "webproto.codec.encode_ns_per_frame",
        t.ns_per_work("webproto.codec.encode"),
    );
    v.insert(
        "webproto.codec.decode_ns_per_frame",
        t.ns_per_work("webproto.codec.decode"),
    );
    v.insert(
        "store.net.post_encode_ns_per_report",
        t.ns_per_work("store.net.post_encode"),
    );
    v.insert(
        "store.net.post_decode_ns_per_report",
        t.ns_per_work("store.net.post_decode"),
    );
    v.insert(
        "store.net.receipt_codec_ns",
        t.mean_ns("store.net.receipt_encode") + t.mean_ns("store.net.receipt_decode"),
    );
    v.insert(
        "store.net.post_frame_bytes_per_report",
        frame_bytes as f64 / (posts.len() * gen::REPORTS_PER_BATCH) as f64,
    );

    // A blocked-list download of the size `wire_mixed` pulls.
    let list = records(seed, 750);
    let response = DbResponse::Records(list);
    let mut frame_len = 0usize;
    for rep in 0..3u64 {
        let frame = t.span("store.net.records_encode", rep, 750, |_| {
            response.to_frame()
        });
        frame_len = frame.encode().len();
        let decoded = t.span("store.net.records_decode", rep, 750, |_| {
            DbResponse::from_frame(&frame)
        });
        black_box(decoded.is_ok());
    }
    v.insert(
        "store.net.records_encode_ns_per_record",
        t.ns_per_work("store.net.records_encode"),
    );
    v.insert(
        "store.net.records_decode_ns_per_record",
        t.ns_per_work("store.net.records_decode"),
    );
    v.insert(
        "store.net.records_frame_bytes_per_record",
        frame_len as f64 / 750.0,
    );

    // The largest frame the codec sees, per KB.
    let big = DbResponse::Records(records(seed, 1_750))
        .to_frame()
        .encode();
    for rep in 0..8u64 {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&big);
        let kb = (big.len() / 1024) as u64;
        let frame = t.span("webproto.codec.decode.256k", rep, kb, |_| {
            decode_frame(&mut buf)
        });
        black_box(frame.is_ok());
    }
    v.insert(
        "webproto.codec.decode_ns_per_kb.256k",
        t.ns_per_work("webproto.codec.decode.256k"),
    );

    // A full SHIP chunk: 256 WAL lines.
    let lines: Vec<String> = (0..256)
        .map(|i| wal::ingest_line(&gen::batch_for(seed, i, Uuid::from_raw(1 + i as u64))))
        .collect();
    let ship = DbRequest::Ship { from_seq: 0, lines };
    for rep in 0..2u64 {
        let frame = t.span("store.net.ship_encode", rep, 256, |_| ship.to_frame());
        let decoded = t.span("store.net.ship_decode", rep, 256, |_| {
            DbRequest::from_frame(&frame)
        });
        black_box(decoded.is_ok());
    }
    v.insert(
        "store.net.ship_encode_ns_per_line",
        t.ns_per_work("store.net.ship_encode"),
    );
    v.insert(
        "store.net.ship_decode_ns_per_line",
        t.ns_per_work("store.net.ship_decode"),
    );

    let urls: Vec<String> = (0..FOLD).map(gen::pool_url).collect();
    for rep in 0..64 {
        folded(t, "webproto.url.parse", rep, FOLD, |i| {
            Url::parse(&urls[i]).is_ok()
        });
    }
    v.insert("webproto.url.parse_ns", t.ns_per_work("webproto.url.parse"));
}

/// `csaw_store::shard`/`ledger`/`wal`/`backend`, `csaw::global::server`
/// and `csaw_replica` on the write and read paths.
fn store_layers(seed: u64, run: &mut Run, v: &mut Values) {
    let t = &mut run.ops.tracer;
    const N: usize = 4_000;
    let reports = gen::REPORTS_PER_BATCH as u64;
    let batches: Vec<Batch> = (0..N)
        .map(|i| gen::batch_for(seed, i, Uuid::from_raw(1 + i as u64)))
        .collect();

    // The sharded store alone, with the allocator counted around it.
    let store = ShardedStore::new(16).expect("16 shards is a valid config");
    let (allocs0, bytes0) = csaw_perf_alloc::snapshot();
    for (i, batch) in batches.iter().enumerate() {
        let r = t.span("store.sharded.ingest", i as u64, reports, |_| {
            store.ingest(batch)
        });
        black_box(r.is_ok());
    }
    let (allocs1, bytes1) = csaw_perf_alloc::snapshot();
    let total_reports = (N * gen::REPORTS_PER_BATCH) as f64;
    v.insert(
        "store.sharded.ingest_ns_per_report",
        t.ns_per_work("store.sharded.ingest"),
    );
    v.insert(
        "store.allocs_per_report",
        (allocs1 - allocs0) as f64 / total_reports,
    );
    v.insert(
        "store.alloc_bytes_per_report",
        (bytes1 - bytes0) as f64 / total_reports,
    );

    let keys: Vec<(String, Asn)> = batches
        .iter()
        .take(FOLD)
        .map(|b| (b.reports()[1].url.clone(), Asn(b.reports()[1].asn)))
        .collect();
    for rep in 0..64 {
        folded(t, "store.ledger.tally", rep, FOLD, |i| {
            store.ledger().tally(&keys[i].0, keys[i].1).n
        });
    }
    v.insert("store.ledger.tally_ns", t.ns_per_work("store.ledger.tally"));

    // Reads beside writes: a write to the AS, then a cold and a warm read.
    let filter = ConfidenceFilter::default();
    for asn in 0..gen::ASNS {
        let touch = Batch::new(
            Uuid::from_raw(900_000 + asn as u64),
            vec![Report {
                url: gen::pool_url(asn as usize),
                asn,
                measured_at_us: 5,
                stages: vec![BlockingType::IpDrop],
            }],
            SimTime::from_secs(9_000),
        );
        black_box(store.ingest(&touch).is_ok());
        let cold = t.span("store.sharded.blocked_cold", asn as u64, 1, |_| {
            store.blocked_for_as(Asn(asn), &filter)
        });
        black_box(cold.is_ok());
        let warm = t.span("store.sharded.blocked_warm", asn as u64, 1, |_| {
            store.blocked_for_as(Asn(asn), &filter)
        });
        black_box(warm.is_ok());
    }
    v.insert(
        "store.sharded.blocked_cold_us",
        t.mean_ns("store.sharded.blocked_cold") / 1e3,
    );
    v.insert(
        "store.sharded.blocked_warm_us",
        t.mean_ns("store.sharded.blocked_warm") / 1e3,
    );

    // Convergence check cost, per thousand records.
    let krecords = store.record_count() as f64 / 1e3;
    let state = t.span(
        "replica.state.capture",
        0,
        store.record_count() as u64,
        |_| StoreState::capture(&store),
    );
    let print = t.span(
        "replica.state.fingerprint",
        0,
        store.record_count() as u64,
        |_| state.fingerprint(),
    );
    black_box(print);
    v.insert(
        "replica.state.capture_us_per_krecord",
        t.mean_ns("replica.state.capture") / 1e3 / krecords,
    );
    v.insert(
        "replica.state.fingerprint_us_per_krecord",
        t.mean_ns("replica.state.fingerprint") / 1e3 / krecords,
    );

    // The server front-end over the same store shape.
    let server = memory_server(seed, 16);
    for rep in 0..(N / FOLD) {
        folded(t, "csaw.server.register", rep as u64, FOLD, |i| {
            server
                .register(SimTime::from_secs((rep * FOLD + i) as u64), 0.0)
                .is_ok()
        });
    }
    v.insert(
        "csaw.server.register_ns",
        t.ns_per_work("csaw.server.register"),
    );
    let fresh = memory_server(seed, 16);
    let ids = register_all(&fresh, N, &mut run.ops);
    let t = &mut run.ops.tracer;
    for (i, &uuid) in ids.iter().enumerate() {
        let batch = gen::batch_for(seed, i, uuid);
        let r = t.span("csaw.server.ingest", i as u64, reports, |_| {
            fresh.ingest(batch)
        });
        black_box(r.is_ok());
    }
    v.insert(
        "csaw.server.ingest_ns_per_report",
        t.ns_per_work("csaw.server.ingest"),
    );
    // The reject path alone: batches of nothing but unparsable URLs.
    for (i, &uuid) in ids.iter().enumerate().take(1_000) {
        let garbage = (0..gen::REPORTS_PER_BATCH)
            .map(|r| Report {
                url: format!("not a url at all {i} {r}"),
                asn: 3,
                measured_at_us: 1,
                stages: vec![BlockingType::HttpDrop],
            })
            .collect();
        let batch = Batch::new(uuid, garbage, SimTime::from_secs(1));
        let r = t.span("csaw.server.sanitize", i as u64, reports, |_| {
            fresh.ingest(batch)
        });
        black_box(r.is_ok());
    }
    v.insert(
        "csaw.server.sanitize_ns_per_report",
        t.ns_per_work("csaw.server.sanitize"),
    );

    // The WAL line codec, then the durable and journalled stores around
    // the same batches: each wrapper's own cost is its call minus the
    // calls it makes.
    let mut wal_bytes = 0usize;
    let lines: Vec<String> = batches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let line = t.span("store.wal.ingest_line", i as u64, reports, |_| {
                wal::ingest_line(b)
            });
            wal_bytes += line.len() + 1;
            line
        })
        .collect();
    let replayed = ShardedStore::new(8).expect("8 shards is a valid config");
    for (i, line) in lines.iter().enumerate() {
        let r = t.span("store.wal.replay_line", i as u64, reports, |_| {
            wal::replay_line(&replayed, line)
        });
        black_box(r.is_ok());
    }
    v.insert(
        "store.wal.ingest_line_ns_per_report",
        t.ns_per_work("store.wal.ingest_line"),
    );
    v.insert(
        "store.wal.replay_line_ns_per_report",
        t.ns_per_work("store.wal.replay_line"),
    );
    v.insert(
        "store.wal.bytes_per_report",
        wal_bytes as f64 / total_reports,
    );

    let plain = ShardedStore::new(8).expect("8 shards is a valid config");
    for (i, batch) in batches.iter().enumerate() {
        let r = t.span("store.sharded.ingest.8", i as u64, reports, |_| {
            plain.ingest(batch)
        });
        black_box(r.is_ok());
    }
    let dir = out_dir().join(format!("tmp-ledger-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("the benchmark's out directory is writable");
    let open = |name: &str| {
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        JsonlStore::open(&path, 8).expect("fresh log opens")
    };
    let durable = open("durable.jsonl");
    for (i, batch) in batches.iter().enumerate() {
        let r = t.span("store.jsonl.ingest", i as u64, reports, |_| {
            durable.ingest(batch)
        });
        black_box(r.is_ok());
    }
    black_box(durable.flush().is_ok());
    let journalled = ReplicatedStore::new(Arc::new(open("journalled.jsonl")));
    for (i, batch) in batches.iter().enumerate() {
        let r = t.span("replica.journalled.ingest", i as u64, reports, |_| {
            journalled.ingest(batch)
        });
        black_box(r.is_ok());
    }
    drop((durable, journalled));
    let _ = std::fs::remove_dir_all(&dir);
    let jsonl = t.ns_per_work("store.jsonl.ingest");
    v.insert(
        "store.jsonl.append_ns_per_report",
        (jsonl - t.ns_per_work("store.wal.ingest_line") - t.ns_per_work("store.sharded.ingest.8"))
            .max(0.0),
    );
    v.insert(
        "replica.journal_ns_per_report",
        (t.ns_per_work("replica.journalled.ingest") - jsonl).max(0.0),
    );
}

/// The real socket: `RemoteDb` against a `csaw-dbserver`, through
/// `wire_mixed`'s own rounds, with one span per round trip.
fn socket_layers(seed: u64, run: &mut Run, v: &mut Values) {
    run.ops.tracer.set_on(false);
    let mut wire = WireMixed::setup(seed, &mut run.ops);
    // One round unrecorded: connections open, lists reach their size.
    wire.round(run);
    let before = wire.server_stats();
    run.ops.tracer.set_on(true);
    for _ in 0..2 {
        wire.round(run);
    }
    let stats = wire.server_stats();
    let addr = wire.addr();
    for i in 0..50 {
        let c = run
            .ops
            .tracer
            .span("dbserver.connect", i, 1, |_| TcpStream::connect(addr));
        run.ops.check(c.is_ok(), || "connect failed".into());
    }
    wire.finish(run);

    let t = &run.ops.tracer;
    let post = latencies(
        t,
        "dbserver.post_rtt",
        1e3,
        v,
        [
            "dbserver.post_rtt_us.n",
            "dbserver.post_rtt_us.tail_pct",
            "dbserver.post_rtt_us.tail",
        ],
    );
    v.insert("dbserver.post_rtt_us.p50", post.at(50.0));
    v.insert("dbserver.post_rtt_us.p99", post.at(99.0));
    let probe = latencies(
        t,
        "dbserver.probe_rtt",
        1e3,
        v,
        [
            "dbserver.probe_rtt_us.n",
            "dbserver.probe_rtt_us.tail_pct",
            "dbserver.probe_rtt_us.tail",
        ],
    );
    v.insert("dbserver.probe_rtt_us.p50", probe.at(50.0));
    let sync = latencies(
        t,
        "dbserver.sync_rtt",
        1e6,
        v,
        [
            "dbserver.sync_rtt_ms.n",
            "dbserver.sync_rtt_ms.tail_pct",
            "dbserver.sync_rtt_ms.tail",
        ],
    );
    v.insert("dbserver.sync_rtt_ms.p50", sync.at(50.0));
    v.insert("dbserver.connect_us", t.mean_ns("dbserver.connect") / 1e3);
    let frames = (stats.frames_in - before.frames_in).max(1) as f64;
    let busy = (stats.passes_with_requests - before.passes_with_requests).max(1) as f64;
    v.insert("dbserver.requests_per_busy_pass", frames / busy);
    v.insert(
        "dbserver.passes_per_request",
        (stats.passes - before.passes) as f64 / frames,
    );
    v.insert("dbserver.batches_deferred", stats.batches_deferred as f64);

    // What the layers a post passes through cost in-process, and what
    // is left of the real round trip once they are paid.
    let rtt_us = t.mean_ns("dbserver.post_rtt") / 1e3;
    let per_report = gen::REPORTS_PER_BATCH as f64;
    let layers_us = (per_report
        * (v["store.net.post_encode_ns_per_report"]
            + v["store.net.post_decode_ns_per_report"]
            + v["csaw.server.ingest_ns_per_report"])
        + v["store.net.receipt_codec_ns"]
        + 2.0
            * (v["webproto.codec.encode_ns_per_frame"] + v["webproto.codec.decode_ns_per_frame"]))
        / 1e3;
    v.insert("dbserver.residual_us_per_post", rtt_us - layers_us);
    v.insert(
        "dbserver.residual_share_post",
        (rtt_us - layers_us) / rtt_us,
    );
}

/// WAL shipping one 256-line chunk at a time, so each `SHIP` round trip
/// (encode, send, parse, apply line by line, ack) is one span.
fn shipping_layers(seed: u64, run: &mut Run, v: &mut Values) {
    let scratch = memory_server(seed, 8);
    // Four full chunks and the batch that opens the link.
    let ids = register_all(&scratch, 4 * 256 + 1, &mut run.ops);
    let batches: Vec<Batch> = ids
        .iter()
        .enumerate()
        .map(|(i, &uuid)| gen::batch_for(seed, i, uuid))
        .collect();
    let dir = out_dir().join(format!("tmp-ledger-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("the benchmark's out directory is writable");
    let log = dir.join("ship.jsonl");
    let now = SimTime::from_secs(1);
    let mut pair = Pair::build(seed, &log, batches, now, &mut run.ops);
    for (k, chunk) in pair.batches.chunks(256).enumerate() {
        for batch in chunk {
            let r = pair.leader.ingest(batch.clone());
            run.ops.check(r.is_ok(), || "leader ingest failed".into());
        }
        let shipper = &mut pair.shipper;
        let status =
            run.ops
                .tracer
                .span("replica.ship.chunk", k as u64, chunk.len() as u64, |_| {
                    shipper.ship_round(now, |_| true)
                });
        run.ops.check(status.iter().all(|l| l.synced), || {
            "chunk did not ship".into()
        });
    }
    let stats = pair.handle.drain();
    run.ops.check(stats.protocol_errors == 0, || {
        "replica protocol errors".into()
    });
    crate::affinity::release();
    let _ = std::fs::remove_dir_all(&dir);
    let chunk = latencies(
        &run.ops.tracer,
        "replica.ship.chunk",
        1e6,
        v,
        [
            "replica.ship.chunk_ms.n",
            "replica.ship.chunk_ms.tail_pct",
            "replica.ship.chunk_ms.tail",
        ],
    );
    v.insert("replica.ship.chunk_ms.p50", chunk.at(50.0));
}

/// The client and the simulator under it: `csaw::client`/`local`/
/// `encore`, `csaw_simnet`, `csaw_censor`, `csaw_blockpage`,
/// `csaw_circumvent`.
fn client_layers(seed: u64, run: &mut Run, v: &mut Values) {
    // The pilot's worlds, one span per world built.
    let universe = csaw_bench::workload::pilot_universe(420, 997, 60);
    let asns = csaw_bench::worlds::pilot_asns();
    let t = &mut run.ops.tracer;
    let worlds: Vec<_> = asns
        .iter()
        .take(4)
        .map(|a| {
            t.span("circumvent.world.build", a.0 as u64, 1, |_| {
                pilot_world(*a, &universe)
            })
        })
        .collect();
    v.insert(
        "circumvent.world.build_ms",
        t.mean_ns("circumvent.world.build") / 1e6,
    );

    // 36 pilot clients (1,080 requests: enough for a p99): browse, post,
    // sync, one span per call.
    let server = pilot_server(seed);
    let filter = ConfidenceFilter::default();
    let mut synced_records = 0u64;
    let mut clients: Vec<(CsawClient, SimTime)> = Vec::new();
    for u in 0..36usize {
        let world = &worlds[u % worlds.len()];
        let asn = asns[u % worlds.len()];
        let mut client = CsawClient::new(pilot_config(), None, seed ^ ((u as u64) << 4));
        let r = client.register(&server, asn, SimTime::from_secs(u as u64), 0.1);
        run.ops
            .check(r.is_ok(), || format!("ledger client {u} failed the gate"));
        let mut now = SimTime::from_secs(1_000 + u as u64 * 10);
        for k in 0..30 {
            now += SimDuration::from_secs(40);
            let url = &universe.blocked_urls[(u * 30 + k) % universe.blocked_urls.len()];
            let at = now;
            let t = &mut run.ops.tracer;
            t.span("csaw.client.request", (u * 30 + k) as u64, 1, |_| {
                client.request(world, url, at)
            });
        }
        let queued = client.pending_reports() as u64;
        let t = &mut run.ops.tracer;
        t.span("csaw.client.post_reports", u as u64, queued, |_| {
            client.post_reports(&server, now)
        });
        clients.push((client, now));
    }
    for (u, (client, now)) in clients.iter_mut().enumerate() {
        let asn = asns[u % worlds.len()];
        let t = &mut run.ops.tracer;
        // The list the sync is about to pull, fetched directly first:
        // what `sync_global` adds on top is the client's merge.
        let list = t.span("csaw.server.blocked_for_as", u as u64, 1, |_| {
            server.blocked_for_as(asn, &filter)
        });
        let pulled = t.span("csaw.client.sync_global", u as u64, 1, |_| {
            client.sync_global(&server, &[asn], *now)
        });
        run.ops.check(pulled.is_ok() && list.is_ok(), || {
            format!("ledger client {u} sync failed")
        });
        synced_records += pulled.unwrap_or(0) as u64;
    }
    let t = &mut run.ops.tracer;
    let request = latencies(
        t,
        "csaw.client.request",
        1e3,
        v,
        [
            "csaw.client.request_us.n",
            "csaw.client.request_us.tail_pct",
            "csaw.client.request_us.tail",
        ],
    );
    v.insert("csaw.client.request_us.p50", request.at(50.0));
    v.insert("csaw.client.request_us.p99", request.at(99.0));
    v.insert(
        "csaw.client.post_reports_us",
        t.mean_ns("csaw.client.post_reports") / 1e3,
    );
    v.insert(
        "csaw.client.sync_merge_ns_per_record",
        (t.total_ns("csaw.client.sync_global") - t.total_ns("csaw.server.blocked_for_as")).max(0.0)
            / synced_records.max(1) as f64,
    );

    // Report wire format (what `post_reports` encodes, what `from_wire` decodes).
    let reports = gen::reports_for(seed, 1);
    let wire = Report::encode_batch(&reports);
    for rep in 0..64 {
        t.span(
            "csaw.report.encode",
            rep,
            (FOLD * reports.len()) as u64,
            |_| {
                for _ in 0..FOLD {
                    black_box(Report::encode_batch(&reports));
                }
            },
        );
        t.span(
            "csaw.report.decode",
            rep,
            (FOLD * reports.len()) as u64,
            |_| {
                for _ in 0..FOLD {
                    black_box(Report::decode_batch(&wire).is_ok());
                }
            },
        );
    }
    v.insert(
        "csaw.report.encode_ns_per_report",
        t.ns_per_work("csaw.report.encode"),
    );
    v.insert(
        "csaw.report.decode_ns_per_report",
        t.ns_per_work("csaw.report.decode"),
    );

    let encore = EncoreSource::new(
        seed,
        EncoreConfig {
            probes: 64,
            probes_per_client: 4,
            targets: (0..256).map(gen::pool_url).collect(),
            asn: 1,
        },
    );
    for rep in 0..64 {
        folded(t, "csaw.encore.probe_build", rep, FOLD, |i| {
            encore.probe_batch(i, rep as usize, Uuid::from_raw(7), SimTime::from_secs(50))
        });
    }
    v.insert(
        "csaw.encore.probe_build_ns",
        t.ns_per_work("csaw.encore.probe_build"),
    );

    // The local DB: longest-prefix lookups over a populated trie.
    let mut local = LocalDb::new(SimDuration::from_secs(24 * 3600));
    let probe_urls: Vec<&Url> = universe.blocked_urls.iter().take(512).collect();
    for url in &probe_urls {
        local.record_measurement(
            url,
            Asn(1),
            SimTime::from_secs(10),
            Status::Blocked,
            vec![BlockingType::HttpDrop],
        );
    }
    for rep in 0..64 {
        folded(t, "csaw.local.lookup", rep, FOLD, |i| {
            local
                .lookup(
                    probe_urls[(rep as usize * FOLD + i) % probe_urls.len()],
                    SimTime::from_secs(20),
                )
                .status
        });
    }
    v.insert("csaw.local.lookup_ns", t.ns_per_work("csaw.local.lookup"));

    // The event scheduler: 10,000 events in, 10,000 out.
    let mut rng = DetRng::new(seed ^ 0x5c4ed);
    for rep in 0..8 {
        let times: Vec<SimTime> = (0..10_000)
            .map(|_| SimTime::from_micros(rng.range_u64(0, 60_000_000)))
            .collect();
        t.span("simnet.sched.event", rep, times.len() as u64, |_| {
            let mut sched: Scheduler<u32> = Scheduler::new();
            for (i, at) in times.iter().enumerate() {
                sched.schedule(*at, i as u32);
            }
            while let Some(event) = sched.next() {
                black_box(event);
            }
        });
    }
    v.insert("simnet.sched.event_ns", t.ns_per_work("simnet.sched.event"));

    let tcp = TcpConfig::default();
    for rep in 0..64 {
        folded(t, "simnet.tcp.transfer", rep, FOLD, |i| {
            transfer_time(
                90_000 + i as u64 * 1_000,
                SimDuration::from_millis(180),
                20_000_000,
                &tcp,
            )
        });
    }
    v.insert(
        "simnet.tcp.transfer_ns",
        t.ns_per_work("simnet.tcp.transfer"),
    );

    // The censor's decision on a request, against the pilot's 420 rules.
    let policy = worlds[0]
        .censor(asns[0])
        .expect("the pilot world has a censor");
    let mut rng = DetRng::new(seed ^ 0xce50);
    for rep in 0..64 {
        folded(t, "censor.decide", rep, FOLD, |i| {
            let url =
                &universe.blocked_urls[(rep as usize * FOLD + i) % universe.blocked_urls.len()];
            (
                policy.on_dns_query(url.dns_name().unwrap_or(""), None, &mut rng),
                policy.on_http_request(url, None, &mut rng),
            )
        });
    }
    v.insert("censor.decide_ns", t.ns_per_work("censor.decide"));

    // Block-page detection over the 47-ISP corpus.
    let corpus = csaw_blockpage::corpus_47();
    let (p1, p2) = (Phase1Config::default(), Phase2Config::default());
    for rep in 0..8 {
        for (i, sample) in corpus.iter().enumerate() {
            let verdict = t.span("blockpage.detect", rep * 47 + i as u64, 1, |_| {
                detect(&sample.html, sample.html.len() as u64, 90_000, &p1, &p2)
            });
            black_box(verdict);
        }
    }
    v.insert("blockpage.detect_us", t.mean_ns("blockpage.detect") / 1e3);

    // One simulated fetch per transport.
    let world = csaw_bench::worlds::clean_world();
    let ctx = FetchCtx {
        now: SimTime::from_secs(100),
        provider: world.access.providers()[0].clone(),
    };
    let url = Url::parse(&format!("http://{}/", csaw_bench::worlds::YOUTUBE)).expect("static url");
    let mut rng = DetRng::new(seed ^ 0xfe7c);
    let mut transports: [(&'static str, Box<dyn Transport>); 4] = [
        ("circumvent.fetch.direct", Box::new(Direct)),
        ("circumvent.fetch.tor", Box::new(TorClient::new())),
        ("circumvent.fetch.lantern", Box::new(LanternClient::new())),
        (
            "circumvent.fetch.fronting",
            Box::new(DomainFronting::via(csaw_bench::worlds::FRONT)),
        ),
    ];
    for (name, transport) in transports.iter_mut() {
        for rep in 0..200 {
            let report = t.span(name, rep, 1, |_| {
                transport.fetch(&world, &ctx, &url, &mut rng)
            });
            black_box(report.elapsed);
        }
    }
    v.insert(
        "circumvent.fetch_us.direct",
        t.mean_ns("circumvent.fetch.direct") / 1e3,
    );
    v.insert(
        "circumvent.fetch_us.tor",
        t.mean_ns("circumvent.fetch.tor") / 1e3,
    );
    v.insert(
        "circumvent.fetch_us.lantern",
        t.mean_ns("circumvent.fetch.lantern") / 1e3,
    );
    v.insert(
        "circumvent.fetch_us.fronting",
        t.mean_ns("circumvent.fetch.fronting") / 1e3,
    );
}

/// Measure every layer once. Spans go to `run`'s tracer (which must be
/// on), failed operations to its counters.
pub fn measure(seed: u64, run: &mut Run) -> Values {
    let mut v = Values::new();
    codec_layers(seed, run, &mut v);
    store_layers(seed, run, &mut v);
    socket_layers(seed, run, &mut v);
    shipping_layers(seed, run, &mut v);
    client_layers(seed, run, &mut v);
    let calibs = run.calibrations_ms();
    v.insert(
        "host.threads",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
    v.insert("host.calib_ms.p50", median(calibs));
    v.insert("host.calib_cv", coefficient_of_variation(calibs));
    v
}
