//! The `csaw-sim` binary end to end: its scenario list, a browse run
//! with and without `--anonymity`, and the exit code of a bad scenario.

use std::process::{Command, Output};

fn csaw_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_csaw-sim"))
        .args(args)
        .output()
        .expect("csaw-sim runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8")
}

/// The transport named in each request line's `via` column.
fn vias(out: &Output) -> Vec<String> {
    stdout(out)
        .lines()
        .filter_map(|l| l.split_once(" via ").map(|(_, rest)| rest))
        .map(|rest| rest.split_whitespace().next().unwrap_or("").to_string())
        .collect()
}

#[test]
fn scenarios_lists_all_five() {
    let out = csaw_sim(&["scenarios"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let names: Vec<&str> = text
        .lines()
        .skip(1)
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(
        names,
        ["clean", "isp-a", "isp-b", "multihomed", "keyword"],
        "{text}"
    );
}

#[test]
fn anonymity_browses_over_tor_or_direct_only() {
    let out = csaw_sim(&[
        "browse",
        "--scenario",
        "isp-b",
        "-n",
        "8",
        "--seed",
        "7",
        "--anonymity",
    ]);
    assert!(out.status.success(), "{out:?}");
    let via = vias(&out);
    assert_eq!(via.len(), 8, "{}", stdout(&out));
    assert!(
        via.iter().all(|v| v == "tor" || v == "direct"),
        "anonymity left Tor: {via:?}"
    );
}

#[test]
fn performance_browses_over_a_local_fix() {
    let out = csaw_sim(&["browse", "--scenario", "isp-b", "-n", "8", "--seed", "7"]);
    assert!(out.status.success(), "{out:?}");
    let via = vias(&out);
    assert_eq!(via.len(), 8, "{}", stdout(&out));
    // ISP-B's DNS hijack and HTTP drop fall to `https` and
    // `ip-as-hostname`, which the anonymity run above may not use.
    assert!(
        via.iter().any(|v| v != "tor" && v != "direct"),
        "no local fix: {via:?}"
    );
}

#[test]
fn unknown_scenario_exits_2() {
    let out = csaw_sim(&["browse", "--scenario", "nope"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}
