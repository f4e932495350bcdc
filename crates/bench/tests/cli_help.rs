//! The help/usage gate for both binaries, driven by the catalogue: every
//! `exp <name>` answers `--help` with the shared flag docs and exactly
//! its own extra flags, every `report <kind>` answers `--help`, and bad
//! command lines exit 2 with usage instead of being swallowed.

use csaw_bench::cli::{exit, COMMON_HELP};
use csaw_bench::experiments::CATALOGUE;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{bin} {args:?}: failed to spawn: {e}"))
}

fn exp(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_exp"), args)
}

fn report(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_report"), args)
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn assert_usage_error(out: &Output, what: &str) {
    assert_eq!(out.status.code(), Some(exit::USAGE), "{what} must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{what}: stderr lacks usage: {err}");
}

#[test]
fn every_catalogue_entry_answers_help_with_shared_docs_and_its_own_flags() {
    for e in CATALOGUE {
        let out = exp(&[e.name, "--help"]);
        let text = stdout(&out);
        assert!(out.status.success(), "exp {} --help: {:?}", e.name, out);
        assert!(
            text.contains(COMMON_HELP),
            "exp {} --help does not embed cli::COMMON_HELP verbatim:\n{text}",
            e.name
        );
        assert!(text.contains(exit::HELP), "exp {} --help: {text}", e.name);
        // Exactly the entry's extra flags, in order, under their heading.
        let listed: Vec<&str> = text
            .split("experiment flags:")
            .nth(1)
            .unwrap_or("")
            .lines()
            .take_while(|l| !l.starts_with("exit codes"))
            .filter_map(|l| l.split_whitespace().next())
            .filter(|w| w.starts_with("--"))
            .collect();
        let expected: Vec<&str> = e.flags.iter().map(|(flag, _)| *flag).collect();
        assert_eq!(listed, expected, "exp {} --help:\n{text}", e.name);
        // ... each separated from its help text, however long the flag.
        for (flag, help) in e.flags {
            let line = text
                .lines()
                .find(|l| l.trim_start().starts_with(flag))
                .unwrap_or_else(|| panic!("exp {} --help lacks {flag}:\n{text}", e.name));
            assert!(
                line.contains(&format!("{flag} VALUE ")) && line.ends_with(help),
                "exp {} --help runs {flag} into its help: {line:?}",
                e.name
            );
        }
    }
}

#[test]
fn exp_list_prints_every_catalogue_name_once_in_order() {
    let out = exp(&["list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let listed: Vec<&str> = text
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let expected: Vec<&str> = CATALOGUE.iter().map(|e| e.name).collect();
    assert_eq!(listed, expected);
}

#[test]
fn report_kinds_answer_help_with_the_shared_exit_table() {
    for kind in ["trace", "health"] {
        let out = report(&[kind, "--help"]);
        let text = stdout(&out);
        assert!(out.status.success(), "report {kind} --help: {out:?}");
        assert!(text.contains(&format!("usage: report {kind}")), "{text}");
        assert!(text.contains(exit::HELP), "report {kind} --help: {text}");
    }
    for args in [
        &["--help"][..],
        &["all", "--help"],
        &["extensions", "--help"],
    ] {
        let out = exp(args);
        assert!(out.status.success(), "exp {args:?}: {out:?}");
        assert!(stdout(&out).contains(exit::HELP), "exp {args:?}");
    }
    assert!(stdout(&exp(&["--help"])).contains("exp claims"));
}

#[test]
fn bad_command_lines_exit_2_with_usage() {
    assert_usage_error(&exp(&[]), "bare exp");
    assert_usage_error(&exp(&["nosuch"]), "exp nosuch");
    assert_usage_error(&exp(&["fig5a", "--no-such-flag"]), "unknown flag");
    assert_usage_error(&exp(&["fig5a", "--seed"]), "missing value");
    assert_usage_error(&exp(&["fig5a", "--seed", "x"]), "bad value");
    // `exp claims` judges a fixed seed set and takes no flag.
    assert_usage_error(&exp(&["claims", "--seed", "2"]), "exp claims --seed 2");
    // A harness accepts exactly the flags it reads: the chaos sweep's
    // rates mean nothing to the split-brain run, and vice versa.
    assert_usage_error(
        &exp(&["splitbrain", "--fault-rates", "0.3"]),
        "exp splitbrain --fault-rates",
    );
    assert_usage_error(&exp(&["chaos", "--regions", "2"]), "exp chaos --regions");
    assert_usage_error(&report(&[]), "bare report");
    assert_usage_error(&report(&["nosuch"]), "report nosuch");
    assert_usage_error(&report(&["health"]), "report health without a file");
    assert_usage_error(&report(&["trace", "x", "--nope"]), "report trace --nope");
    // `report` reads JSONL only: a Chrome trace is a parse error for
    // both kinds.
    let chrome = std::env::temp_dir().join(format!("csaw_cli_help_{}.json", std::process::id()));
    let doc = csaw_obs::chrome::render_chrome_trace(&[]);
    std::fs::write(&chrome, doc).expect("write a Chrome trace");
    let file = chrome.to_str().expect("utf-8 temp path");
    let outs = [report(&["trace", file]), report(&["health", file])];
    let _ = std::fs::remove_file(&chrome);
    for (kind, out) in ["trace", "health"].iter().zip(&outs) {
        assert_usage_error(out, &format!("report {kind} x.json"));
    }
    // The perf modes are `off` and `wall`; the virtual one is gone, not
    // aliased.
    for gone in ["virtual", "monotonic"] {
        assert_usage_error(
            &exp(&["fig6b", "--perf", gone]),
            &format!("exp fig6b --perf {gone}"),
        );
    }
    // The scorecard report and the harnesses' card paths are gone, not
    // aliased; so are the frames file, the window override, the worker
    // count, the trace baseline gate, the waterfall count, and the
    // harnesses' fleet sizes, shard count and delivery bound: each had
    // one value in use, and a fleet of zero passed every gate on
    // nothing.
    assert_usage_error(&report(&["perf", "card.json"]), "report perf");
    for args in [
        &["chaos", "--frames-out", "x"][..],
        &["chaos", "--window", "60"],
        &["fig5a", "--window", "60"],
        &["fig5a", "--jobs", "2"],
        &["chaos", "--clients", "0"],
        &["chaos", "--urls", "0"],
        &["chaos", "--min-delivery", "1.0"],
        &["splitbrain", "--clients", "0"],
        &["splitbrain", "--urls", "0"],
        &["scale", "--clients", "100", "--shards", "4"],
    ] {
        assert_usage_error(&exp(args), &format!("exp {}", args.join(" ")));
    }
    for args in [
        &["trace", "x.jsonl", "--baseline", "y.jsonl"][..],
        &["trace", "x.jsonl", "--max-regress-pct", "5"],
        &["trace", "x", "--waterfall", "3"],
    ] {
        assert_usage_error(&report(args), &format!("report {}", args.join(" ")));
    }
    for harness in ["scale", "splitbrain"] {
        assert_usage_error(
            &exp(&[harness, "--bench-out", "x"]),
            &format!("exp {harness} --bench-out"),
        );
    }
    // `exp scale` rejects sizes it cannot run instead of panicking.
    for zero in ["--threads", "--clients", "--lookups"] {
        let args = ["scale", "--clients", "100", "--lookups", "10", zero, "0"];
        assert_usage_error(&exp(&args), &format!("exp scale {zero} 0"));
    }
    // `--threads` is one writer count; the per-count sweep is gone.
    assert_usage_error(
        &exp(&["scale", "--clients", "100", "--threads", "1,2"]),
        "exp scale --threads 1,2",
    );
    // A fault rate is a probability.
    for rate in ["nan", "2", "-0.5", "0.1,1.5"] {
        assert_usage_error(
            &exp(&["chaos", "--fault-rates", rate]),
            &format!("exp chaos --fault-rates {rate}"),
        );
    }
    // An expectation that names no rule would pass on any file.
    let path = std::env::temp_dir().join(format!("csaw_cli_expect_{}.jsonl", std::process::id()));
    std::fs::write(&path, "").expect("write an empty event file");
    let file = path.to_str().expect("utf-8 temp path");
    let outs = [",", "", " , "].map(|rules| report(&["health", file, "--expect", rules]));
    let _ = std::fs::remove_file(&path);
    for (rules, out) in [",", "", " , "].iter().zip(&outs) {
        assert_usage_error(out, &format!("report health x.jsonl --expect {rules:?}"));
    }
}

#[test]
fn exp_scale_runs_a_population_smaller_than_the_as_count() {
    // Three clients report from at most three of the 64 ASes and the ten
    // lookups walk ASes 0-9: serving nothing is an answer, not a panic.
    // The run prints its table and leaves its working directory as it
    // found it.
    let cwd = std::env::temp_dir().join(format!("csaw_cli_scale_{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("create a fresh working directory");
    let out = Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(["scale", "--clients", "3", "--lookups", "10"])
        .current_dir(&cwd)
        .output()
        .expect("spawn exp scale");
    let left: Vec<_> = std::fs::read_dir(&cwd)
        .expect("read the working directory")
        .map(|e| e.expect("directory entry").file_name())
        .collect();
    let _ = std::fs::remove_dir_all(&cwd);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(stdout(&out).contains("3 clients x 4 reports"));
    assert!(left.is_empty(), "exp scale wrote {left:?} into its cwd");
}

#[test]
fn health_gate_does_not_pass_on_no_evidence() {
    let path = std::env::temp_dir().join(format!("csaw_cli_empty_{}.jsonl", std::process::id()));
    std::fs::write(&path, "").expect("write empty frames file");
    let file = path.to_str().expect("utf-8 temp path");
    let gated = report(&["health", file, "--gate"]);
    assert_eq!(gated.status.code(), Some(exit::NO_EVIDENCE), "{gated:?}");
    let rendered = report(&["health", file]);
    assert_eq!(rendered.status.code(), Some(0), "rendering stays exit 0");
    assert!(stdout(&rendered).contains("0 window(s)"));
    let _ = std::fs::remove_file(&path);
}
