//! The catalogue is the golden list: every `Paper` and `Extension` entry
//! of `CATALOGUE`, run at seed 1 through the catalogue's own run
//! function, must reproduce the stdout digest pinned in
//! `GOLDEN_seed1.json` at the repo root.
//!
//! Re-blessing after an intended output change is one redirect:
//!
//! ```text
//! exp all --seed 1 --jobs 0 --out-dir /tmp/runs
//! report perf /tmp/runs/1/BENCH_seed1.json --fingerprint > GOLDEN_seed1.json
//! ```

use csaw_bench::experiments::{self, Run, CATALOGUE};
use csaw_bench::scorecard::{digest64, Scorecard};
use csaw_obs::json::JsonValue;
use std::process::Command;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../GOLDEN_seed1.json");

#[test]
fn catalogue_sweeps_reproduce_the_golden_digests() {
    let golden = std::fs::read_to_string(GOLDEN).expect("GOLDEN_seed1.json at the repo root");
    let pinned = Scorecard::parse(&golden).expect("golden fingerprint parses as a scorecard");
    let pinned = pinned.deterministic.get("stdout_digests");

    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let digests: Vec<(&str, String)> = CATALOGUE
        .iter()
        .filter_map(|e| match e.run {
            Run::Paper(run) | Run::Extension(run) => Some((e.name, digest64(&run(1, jobs)))),
            Run::Harness(_) => None,
        })
        .collect();

    let moved: Vec<&str> = digests
        .iter()
        .filter(|(name, digest)| {
            pinned.and_then(|p| p.get(name)).and_then(JsonValue::as_str) != Some(digest)
        })
        .map(|(name, _)| *name)
        .collect();
    assert!(moved.is_empty(), "stdout digest moved for: {moved:?}");

    // Byte for byte, so an entry dropped from (or added to) the
    // catalogue fails too.
    let card = experiments::sweep_card(1, digests.iter().map(|(n, d)| (*n, d.as_str())));
    assert_eq!(card.fingerprint(), golden);
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
    let card = Scorecard::load(&dir.join("1/BENCH_seed1.json")).expect("exp all's scorecard");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        card.fingerprint(),
        std::fs::read_to_string(GOLDEN).expect("GOLDEN_seed1.json"),
        "exp all's fingerprint is the golden file"
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
    let pinned = card.deterministic.get("stdout_digests");
    assert_eq!(
        pinned.and_then(|p| p.get(name)).and_then(JsonValue::as_str),
        Some(digest64(block).as_str()),
        "exp all's digest for {name} is the digest of `exp {name}`'s stdout"
    );
}
