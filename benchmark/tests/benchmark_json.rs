//! `BENCHMARK.json` against the contract's limits and against the
//! tables the binary prints from (`metrics::fill` walks those tables,
//! so what it prints is exactly what they list).

use csaw_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use csaw_benchmark::workloads::WORKLOADS;
use csaw_obs::json::JsonValue;
use std::collections::BTreeSet;

fn load() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    assert!(text.len() <= 64 * 1024, "the file may be at most 64 KiB");
    JsonValue::parse(&text).expect("BENCHMARK.json is JSON")
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn keys(v: &JsonValue) -> Vec<&str> {
    v.as_obj()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect()
}

fn str_of<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("{key} must be a string"))
}

/// The listed metrics must be exactly `defs`, in order.
fn assert_metrics(listed: &[JsonValue], defs: &[MetricDef], with_bound: bool) {
    assert_eq!(listed.len(), defs.len());
    for (got, want) in listed.iter().zip(defs) {
        let mut expect_keys = vec!["better", "name", "unit"];
        if with_bound {
            expect_keys.insert(1, "bound");
        }
        assert_eq!(
            keys(got),
            expect_keys,
            "{}: exactly the contract's keys",
            want.name
        );
        assert_eq!(str_of(got, "name"), want.name);
        assert_eq!(str_of(got, "unit"), want.unit, "{}", want.name);
        assert_eq!(str_of(got, "better"), want.better, "{}", want.name);
        assert!(is_name(want.name), "{:?} is not a contract name", want.name);
        assert!(is_unit(want.unit), "{:?} is not a contract unit", want.unit);
        assert!(["higher", "lower"].contains(&want.better));
        if with_bound {
            let bound = got
                .get("bound")
                .and_then(JsonValue::as_f64)
                .expect("bound is a number");
            assert_eq!(bound, want.bound, "{}", want.name);
            assert!(
                bound > 0.0 && bound <= 0.25,
                "{}: bound {bound} outside (0, 0.25]",
                want.name
            );
        }
    }
}

#[test]
fn benchmark_json_meets_the_contract_and_matches_the_binary() {
    let doc = load();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ],
        "exactly the contract's keys"
    );

    let paths = doc.get("paths").and_then(JsonValue::as_arr).expect("paths");
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("benchmark"));

    let command: Vec<&str> = doc
        .get("command")
        .and_then(JsonValue::as_arr)
        .expect("command")
        .iter()
        .map(|c| c.as_str().expect("command parts are strings"))
        .collect();
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
    assert!(command
        .iter()
        .all(|c| !c.starts_with('/') && !c.contains("..")));
    assert!(command.contains(&"benchmark/Cargo.toml") && command.contains(&"csaw-benchmark"));

    let seconds = doc
        .get("run_seconds")
        .and_then(JsonValue::as_f64)
        .expect("run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let workloads = doc
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workloads");
    assert_eq!(workloads.len(), 4);
    for (got, (name, why)) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(keys(got), ["name", "why"]);
        assert_eq!(str_of(got, "name"), name);
        assert_eq!(str_of(got, "why"), why);
        assert!(is_name(name));
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why is one line of at most 200"
        );
    }
    // 4 + 22 runs per workload, each run_seconds of rounds plus about
    // 9 s of set-up, warm-up and ledger, and two builds: within 3420 s.
    let runs = 4.0 + 22.0 * workloads.len() as f64;
    assert!(runs * (seconds + 9.0) + 2.0 * 120.0 <= 3420.0);

    let end_to_end = doc
        .get("end_to_end")
        .and_then(JsonValue::as_arr)
        .expect("end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    assert_metrics(end_to_end, &END_TO_END, true);
    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|d| d.bound <= setup.bound),
        "setup_s gets the largest bound"
    );

    let per_layer = doc
        .get("per_layer")
        .and_then(JsonValue::as_arr)
        .expect("per_layer");
    assert!((1..=128).contains(&per_layer.len()));
    assert_metrics(per_layer, &PER_LAYER, false);

    let mut seen = BTreeSet::new();
    for name in WORKLOADS
        .iter()
        .map(|(n, _)| *n)
        .chain(END_TO_END.iter().map(|d| d.name))
        .chain(PER_LAYER.iter().map(|d| d.name))
    {
        assert!(seen.insert(name), "{name} is used twice");
    }
}
