//! End-to-end causal tracing: a traced client run emits one well-formed
//! span tree per fetch (detect/circum/transfer children summing exactly
//! to the root PLT, read back from the JSONL rendering `report trace`
//! consumes), and the rendered Chrome trace is a pure function of the
//! seed — two same-seed runs are byte-identical.

use csaw::client::CsawClient;
use csaw::config::CsawConfig;
use csaw_bench::tracereport::{fetch_records, parse_jsonl, sum_violations, FetchRecord};
use csaw_bench::worlds::{single_isp_world, SMALL_PAGE, YOUTUBE};
use csaw_censor::blocking::{DnsTamper, HttpAction, IpAction, TlsAction};
use csaw_obs::chrome::render_chrome_trace;
use csaw_obs::clock::ManualClock;
use csaw_obs::scope::{self, ObsCtx};
use csaw_obs::sink::BufferSink;
use csaw_obs::Event;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use csaw_webproto::url::Url;
use std::sync::Arc;

/// Run `body` under a fresh scope recording into a buffer; return the
/// recorded events.
fn recorded(body: impl FnOnce()) -> Vec<Event> {
    let sink = Arc::new(BufferSink::new());
    let ctx = Arc::new(
        ObsCtx::new()
            .with_clock(Arc::new(ManualClock::new()))
            .with_sink(sink.clone()),
    );
    let _guard = scope::install(ctx);
    body();
    sink.take()
}

/// Drive a client through blocked and unblocked fetches; return the
/// events it emitted.
fn run_traced_client(seed: u64) -> Vec<Event> {
    recorded(|| drive_client(seed))
}

fn drive_client(seed: u64) {
    let policy = csaw_censor::single_mechanism(
        "trace-test",
        YOUTUBE,
        DnsTamper::None,
        IpAction::Drop,
        HttpAction::None,
        TlsAction::None,
    );
    let world = single_isp_world(Asn(9100), "TRACE-ISP", policy);
    let mut client = CsawClient::new(CsawConfig::default(), None, seed);
    let blocked = Url::parse(&format!("http://{YOUTUBE}/")).expect("static URL");
    let open = Url::parse(&format!("http://{SMALL_PAGE}/")).expect("static URL");
    let mut now = SimTime::from_secs(10);
    for _ in 0..6 {
        client.request(&world, &blocked, now);
        now += SimDuration::from_secs(180);
        client.request(&world, &open, now);
        now += SimDuration::from_secs(180);
    }
}

/// The fetch trees in `events`, read back from their JSONL rendering
/// (the `--trace-out x.jsonl` lines).
fn records(events: &[Event]) -> Vec<FetchRecord> {
    let jsonl: String = events
        .iter()
        .map(|e| e.to_json().to_string_compact() + "\n")
        .collect();
    fetch_records(&parse_jsonl(&jsonl).expect("JSONL trace parses back"))
}

#[test]
fn client_fetches_emit_well_formed_span_trees() {
    let recs = records(&run_traced_client(11));
    assert!(!recs.is_empty(), "traced run produced no fetch trees");
    let violations = sum_violations(&recs);
    assert!(
        violations.is_empty(),
        "children must sum to the root PLT within 1us: {violations:?}"
    );
    // The blocked site forces circumvention (non-direct transport, and
    // somewhere a non-zero circumvention-setup leg); the unblocked site
    // keeps pure-transfer direct trees around.
    assert!(
        recs.iter()
            .any(|r| r.transport != "direct" && r.url.contains(YOUTUBE)),
        "no circumvented fetch in {recs:?}"
    );
    assert!(
        recs.iter().any(|r| r.circum_us > 0),
        "no circumvention-setup time recorded in {recs:?}"
    );
    assert!(
        recs.iter()
            .any(|r| r.transport == "direct" && r.detect_us == 0 && r.circum_us == 0 && r.ok),
        "no direct served fetch in {recs:?}"
    );
}

#[test]
fn same_seed_chrome_traces_are_byte_identical() {
    let chrome = |seed| render_chrome_trace(&run_traced_client(seed));
    let a = chrome(7);
    let b = chrome(7);
    assert_eq!(a, b, "same-seed traces must be byte-identical");
    let c = chrome(8);
    assert_ne!(a, c, "different seeds should perturb the trace");
}

#[test]
fn fig5a_traced_run_yields_one_tree_per_fetch() {
    let events = recorded(|| {
        csaw_bench::experiments::fig5::run_5a(1);
    });
    let recs = records(&events);
    // 4 blocking types x {serial, parallel} x 30 iterations.
    assert_eq!(recs.len(), 240, "one root span tree per fetch");
    assert!(sum_violations(&recs).is_empty());
    // Serial-mode fetches pay detection up front; the decomposition
    // must surface it on a healthy share of the trees.
    let with_detect = recs.iter().filter(|r| r.detect_us > 0).count();
    assert!(
        with_detect >= 60,
        "only {with_detect}/240 trees show detection time"
    );
}
