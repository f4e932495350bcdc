//! The metric tables: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` must list exactly these (a test
//! checks it), so the file and the binary cannot drift apart.

use crate::run::{FOCUS, READ, WRITE};

/// One metric's declaration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// The printed name.
    pub name: &'static str,
    /// The printed unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change is a regression.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees. Every workload reports all five;
/// which phase fills which slot is in the README's table.
pub const END_TO_END: [MetricDef; 5] = [
    e2e(WRITE, "1/s", "higher", 0.20),
    e2e(READ, "1/s", "higher", 0.20),
    e2e(FOCUS, "1/s", "higher", 0.20),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
];

/// One number per layer boundary, from the traced run.
pub const PER_LAYER: [MetricDef; 69] = [
    layer("obs.json.parse_ns_per_byte.1k", "ns", "lower"),
    layer("obs.json.parse_ns_per_byte.16k", "ns", "lower"),
    layer("obs.json.parse_ns_per_byte.256k", "ns", "lower"),
    layer("obs.json.write_ns_per_byte", "ns", "lower"),
    layer("webproto.codec.encode_ns_per_frame", "ns", "lower"),
    layer("webproto.codec.decode_ns_per_frame", "ns", "lower"),
    layer("webproto.codec.decode_ns_per_kb.256k", "ns", "lower"),
    layer("webproto.url.parse_ns", "ns", "lower"),
    layer("store.net.post_encode_ns_per_report", "ns", "lower"),
    layer("store.net.post_decode_ns_per_report", "ns", "lower"),
    layer("store.net.receipt_codec_ns", "ns", "lower"),
    layer("store.net.post_frame_bytes_per_report", "bytes", "lower"),
    layer("store.net.records_encode_ns_per_record", "ns", "lower"),
    layer("store.net.records_decode_ns_per_record", "ns", "lower"),
    layer("store.net.records_frame_bytes_per_record", "bytes", "lower"),
    layer("store.net.ship_encode_ns_per_line", "ns", "lower"),
    layer("store.net.ship_decode_ns_per_line", "ns", "lower"),
    layer("replica.ship.chunk_ms.p50", "ms", "lower"),
    layer("dbserver.post_rtt_us.p50", "us", "lower"),
    layer("dbserver.post_rtt_us.p99", "us", "lower"),
    layer("dbserver.probe_rtt_us.p50", "us", "lower"),
    layer("dbserver.sync_rtt_ms.p50", "ms", "lower"),
    layer("dbserver.residual_us_per_post", "us", "lower"),
    layer("dbserver.residual_share_post", "share", "lower"),
    layer("dbserver.requests_per_busy_pass", "count", "higher"),
    layer("dbserver.passes_per_request", "count", "lower"),
    layer("dbserver.batches_deferred", "count", "lower"),
    layer("dbserver.connect_us", "us", "lower"),
    layer("store.sharded.ingest_ns_per_report", "ns", "lower"),
    layer("store.allocs_per_report", "count", "lower"),
    layer("store.alloc_bytes_per_report", "bytes", "lower"),
    layer("store.ledger.tally_ns", "ns", "lower"),
    layer("csaw.server.ingest_ns_per_report", "ns", "lower"),
    layer("csaw.server.sanitize_ns_per_report", "ns", "lower"),
    layer("csaw.server.register_ns", "ns", "lower"),
    layer("store.sharded.blocked_cold_us", "us", "lower"),
    layer("store.sharded.blocked_warm_us", "us", "lower"),
    layer("store.wal.ingest_line_ns_per_report", "ns", "lower"),
    layer("store.wal.replay_line_ns_per_report", "ns", "lower"),
    layer("store.wal.bytes_per_report", "bytes", "lower"),
    layer("store.jsonl.append_ns_per_report", "ns", "lower"),
    layer("replica.journal_ns_per_report", "ns", "lower"),
    layer("replica.state.capture_us_per_krecord", "us", "lower"),
    layer("replica.state.fingerprint_us_per_krecord", "us", "lower"),
    layer("csaw.report.encode_ns_per_report", "ns", "lower"),
    layer("csaw.report.decode_ns_per_report", "ns", "lower"),
    layer("csaw.client.post_reports_us", "us", "lower"),
    layer("csaw.client.sync_merge_ns_per_record", "ns", "lower"),
    layer("csaw.encore.probe_build_ns", "ns", "lower"),
    layer("csaw.client.request_us.p50", "us", "lower"),
    layer("csaw.client.request_us.p99", "us", "lower"),
    layer("csaw.local.lookup_ns", "ns", "lower"),
    layer("simnet.sched.event_ns", "ns", "lower"),
    layer("simnet.tcp.transfer_ns", "ns", "lower"),
    layer("censor.decide_ns", "ns", "lower"),
    layer("blockpage.detect_us", "us", "lower"),
    layer("circumvent.fetch_us.direct", "us", "lower"),
    layer("circumvent.fetch_us.tor", "us", "lower"),
    layer("circumvent.fetch_us.lantern", "us", "lower"),
    layer("circumvent.fetch_us.fronting", "us", "lower"),
    layer("circumvent.world.build_ms", "ms", "lower"),
    layer("host.threads", "count", "higher"),
    layer("host.calib_ms.p50", "ms", "lower"),
    layer("host.calib_cv", "share", "lower"),
    layer("trace.overhead_share", "share", "lower"),
    layer("raw.write_reports_per_s", "1/s", "higher"),
    layer("raw.read_records_per_s", "1/s", "higher"),
    layer("raw.focus_ops_per_s", "1/s", "higher"),
    layer("raw.setup_s", "s", "lower"),
];

/// A measured metric, ready to print.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Name from one of the tables above.
    pub name: &'static str,
    /// The value, with all its digits.
    pub value: f64,
    /// Unit from the same table row.
    pub unit: &'static str,
}

/// Pair `values` with the declarations in `defs`, in table order. A
/// value the run did not produce is a bug in the benchmark: panic.
pub fn fill(
    defs: &[MetricDef],
    values: &std::collections::BTreeMap<&'static str, f64>,
) -> Vec<Measured> {
    defs.iter()
        .map(|d| Measured {
            name: d.name,
            value: *values
                .get(d.name)
                .unwrap_or_else(|| panic!("metric {} was never measured", d.name)),
            unit: d.unit,
        })
        .collect()
}
