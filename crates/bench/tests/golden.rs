//! The golden manifest: `GOLDEN_seed1.json` at the repo root pins, at
//! seed 1, everything a refactor must not move, and this test
//! recomputes every row in-process and names the rows that did.
//!
//! - `stdout_digests`: the rendered block of every `Paper` and
//!   `Extension` entry of `CATALOGUE`, run through the catalogue's own
//!   run function (what `exp all` digests into its scorecard);
//! - `harnesses`: `exp chaos` (default and `--fault-rates 0.6 --rounds
//!   40`) and `exp splitbrain --regions 2` — rendered block plus the
//!   full event stream under the harness's hour windows, i.e. what
//!   `--trace-out x.jsonl` writes, frames and violations included — and
//!   the scorecard of `exp scale --clients 10000 --lookups 1000
//!   --threads 4 --transport tcp` (its seed-pure receipts and record
//!   counts);
//! - `artifacts`: `exp fig5a --trace-out x.json`'s Chrome trace and
//!   `exp all`'s `metrics.json`.
//!
//! Every value is the FNV-1a digest of the exact bytes the command
//! writes. Re-blessing after an intended change: run this test; on a
//! mismatch it writes the recomputed manifest under the target
//! directory and prints the `cp` that adopts it.

use csaw_bench::experiments::{self, chaos, fig5, scale, splitbrain, Run, CATALOGUE};
use csaw_bench::scorecard::{digest64, Scorecard};
use csaw_dbserver::DbServerConfig;
use csaw_obs::chrome::render_chrome_trace;
use csaw_obs::json::JsonValue;
use csaw_obs::{BufferSink, Event, ManualClock, ObsCtx, SloSet, WindowCfg};
use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;
use std::sync::Arc;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../GOLDEN_seed1.json");

/// Run `f` under a fresh scope shaped like the one `exp` installs: a
/// virtual clock, a sink that keeps every event when `traced` (the
/// null sink's gate otherwise), and hour windows evaluating `slos` when
/// given. Returns `f`'s value, the events, and the metrics snapshot.
fn observed<T>(
    traced: bool,
    slos: Option<SloSet>,
    f: impl FnOnce() -> T,
) -> (T, Vec<Event>, JsonValue) {
    let sink = Arc::new(BufferSink::new(traced));
    let ctx = Arc::new(
        ObsCtx::new()
            .with_clock(Arc::new(ManualClock::new()))
            .with_sink(sink.clone()),
    );
    if let Some(slos) = slos {
        ctx.timeline
            .configure(WindowCfg::from_secs(3_600.0, Arc::new(slos)));
    }
    let out = {
        let _guard = csaw_obs::install(ctx.clone());
        f()
    };
    ctx.flush_timeline();
    (out, sink.take(), ctx.registry.snapshot())
}

/// The bytes `--trace-out x.jsonl` writes for `events`.
fn jsonl(events: &[Event]) -> String {
    events
        .iter()
        .map(|e| e.to_json().to_string_compact() + "\n")
        .collect()
}

/// One harness row: the rendered block and the event stream.
fn harness_row(render: &str, events: &[Event]) -> JsonValue {
    let mut row = JsonValue::obj();
    row.set("stdout", digest64(render));
    row.set("events", digest64(&jsonl(events)));
    row
}

/// Recompute the whole manifest at seed 1.
fn recompute() -> String {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());

    // The sweeps, each under its own registry like `exp all` runs them.
    let mut digests: Vec<(&str, String)> = Vec::new();
    let mut per_exp = JsonValue::obj();
    for e in CATALOGUE {
        if let Run::Paper(run) | Run::Extension(run) = e.run {
            let (text, _, snapshot) = observed(false, None, || run(1, jobs).render());
            digests.push((e.name, digest64(&text)));
            per_exp.set(e.name, snapshot);
        }
    }
    let mut card = experiments::sweep_card(1, digests.iter().map(|(n, d)| (*n, d.as_str())));
    let mut metrics = JsonValue::obj();
    metrics.set("seed", 1u64);
    metrics.set("experiments", per_exp);

    let mut harnesses = JsonValue::obj();
    let chaos_at = |cfg: chaos::ChaosConfig| {
        let (result, events, _) = observed(true, Some(SloSet::csaw_default()), || {
            chaos::run(1, &cfg, jobs)
        });
        harness_row(&result.render(), &events)
    };
    harnesses.set("chaos", chaos_at(chaos::ChaosConfig::default()));
    harnesses.set(
        "chaos --fault-rates 0.6 --rounds 40",
        chaos_at(chaos::ChaosConfig {
            fault_rates: vec![0.6],
            drain_rounds: 40,
            ..chaos::ChaosConfig::default()
        }),
    );
    let (split, events, _) = observed(true, Some(splitbrain::slo_set()), || {
        splitbrain::run(1, &splitbrain::SplitBrainConfig::default(), jobs)
    });
    let mut row = harness_row(&split.render(), &events);
    row.set("fingerprint", split.rows[1].fingerprint.as_str());
    harnesses.set("splitbrain --regions 2", row);
    let cfg = scale::ScaleConfig {
        clients: 10_000,
        lookups: 1_000,
        threads: 4,
        ..scale::ScaleConfig::default()
    };
    let (scaled, _, _) = observed(false, None, || {
        let mut result = scale::run_with(1, cfg.clone());
        result.socket = Some(scale::run_socketed(1, &cfg, DbServerConfig::default()));
        result
    });
    let mut row = JsonValue::obj();
    row.set("card", digest64(&scaled.scorecard(1).fingerprint()));
    harnesses.set(
        "scale --clients 10000 --lookups 1000 --threads 4 --transport tcp",
        row,
    );
    card.deterministic.set("harnesses", harnesses);

    let (_, events, _) = observed(true, None, || fig5::run_5a(1, jobs));
    let mut artifacts = JsonValue::obj();
    artifacts.set(
        "fig5a --trace-out x.json",
        digest64(&render_chrome_trace(&events)),
    );
    artifacts.set(
        "all: metrics.json",
        digest64(&(metrics.to_string_pretty() + "\n")),
    );
    card.deterministic.set("artifacts", artifacts);
    card.fingerprint()
}

/// Every leaf of `v` as `path → value`, for naming what moved.
fn leaves(prefix: &str, v: &JsonValue, out: &mut BTreeMap<String, String>) {
    match v.as_obj() {
        Some(obj) => {
            for (k, child) in obj {
                leaves(&format!("{prefix}/{k}"), child, out);
            }
        }
        None => {
            out.insert(prefix.to_string(), v.to_string_compact());
        }
    }
}

#[test]
fn seed_1_reproduces_the_golden_manifest() {
    let golden = std::fs::read_to_string(GOLDEN).expect("GOLDEN_seed1.json at the repo root");
    let recomputed = recompute();
    if recomputed == golden {
        return;
    }
    let rows = |text: &str| {
        let mut out = BTreeMap::new();
        if let Ok(v) = JsonValue::parse(text) {
            leaves("", &v, &mut out);
        }
        out
    };
    let (pinned, now) = (rows(&golden), rows(&recomputed));
    let moved: BTreeSet<&String> = pinned
        .keys()
        .chain(now.keys())
        .filter(|k| pinned.get(*k) != now.get(*k))
        .collect();
    let fresh = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("GOLDEN_seed1.json");
    std::fs::write(&fresh, &recomputed).expect("write the recomputed manifest");
    panic!(
        "golden rows moved: {moved:#?}\nif intended, re-bless with: cp {} GOLDEN_seed1.json",
        fresh.display()
    );
}

#[test]
fn exp_trace_out_json_writes_the_pinned_chrome_trace() {
    let dir = std::env::temp_dir().join(format!("csaw_golden_chrome_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("x.json");
    let out = Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(["fig5a", "--seed", "1", "--trace-out"])
        .arg(&path)
        .output()
        .expect("spawn exp fig5a");
    let chrome = std::fs::read_to_string(&path).expect("the Chrome trace");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success(), "exp fig5a failed: {out:?}");
    let golden = std::fs::read_to_string(GOLDEN).expect("GOLDEN_seed1.json");
    let golden = Scorecard::parse(&golden).expect("the manifest parses as a scorecard");
    assert_eq!(
        golden
            .deterministic
            .get("artifacts")
            .and_then(|a| a.get("fig5a --trace-out x.json"))
            .and_then(JsonValue::as_str),
        Some(digest64(&chrome).as_str()),
        "`exp fig5a --trace-out x.json` writes the Chrome trace the manifest pins"
    );
}

#[test]
fn exp_all_digests_what_exp_name_prints() {
    let exp = env!("CARGO_BIN_EXE_exp");
    let dir = std::env::temp_dir().join(format!("csaw_golden_{}", std::process::id()));
    let all = Command::new(exp)
        .args(["all", "--seed", "1", "--jobs", "0", "--out-dir"])
        .arg(&dir)
        .output()
        .expect("spawn exp all");
    assert!(all.status.success(), "exp all failed: {all:?}");
    let card = Scorecard::load(&dir.join("1").join(experiments::sweep_card_file(1)))
        .expect("exp all's scorecard");
    let metrics = std::fs::read_to_string(dir.join("1/metrics.json")).expect("metrics.json");
    let _ = std::fs::remove_dir_all(&dir);
    let golden = std::fs::read_to_string(GOLDEN).expect("GOLDEN_seed1.json");
    let golden = Scorecard::parse(&golden).expect("the manifest parses as a scorecard");
    let pinned = golden.deterministic.get("stdout_digests");
    assert_eq!(
        card.deterministic.get("stdout_digests"),
        pinned,
        "exp all's stdout digests are the manifest's"
    );
    assert_eq!(
        golden
            .deterministic
            .get("artifacts")
            .and_then(|a| a.get("all: metrics.json"))
            .and_then(JsonValue::as_str),
        Some(digest64(&metrics).as_str()),
        "exp all's metrics.json is the file the manifest pins"
    );

    let name = "fig6b";
    let one = Command::new(exp)
        .args([name, "--seed", "1"])
        .output()
        .expect("spawn exp fig6b");
    assert!(one.status.success(), "exp {name} failed: {one:?}");
    let stdout = String::from_utf8(one.stdout).expect("utf-8 stdout");
    // `exp <name>` prints the block with `println!`; `exp all` digests
    // the block itself.
    let block = stdout.strip_suffix('\n').expect("trailing newline");
    assert_eq!(
        pinned.and_then(|p| p.get(name)).and_then(JsonValue::as_str),
        Some(digest64(block).as_str()),
        "exp all's digest for {name} is the digest of `exp {name}`'s stdout"
    );
}
