//! `report`: analyse what the experiments write, and gate on it.
//!
//! ```text
//! report trace  TRACE  [--baseline TRACE] [--max-regress-pct P] [--waterfall N]
//! report health FRAMES [--gate] [--expect RULES]
//! ```
//!
//! - `trace` reads the JSONL a `--trace-out x.jsonl` run streams (not
//!   the `.json` Chrome trace, which is for viewers): per-fetch PLT
//!   decomposition and waterfalls; a fetch whose children do not sum to
//!   its root PLT within 1 µs makes the trace unusable.
//! - `health` reads a `--frames-out` JSONL file (only `ts.frame` /
//!   `slo.violation` events matter; a full `--trace-out` JSONL stream
//!   also works). `--gate` is the CI "run must be healthy" check;
//!   `--expect` is the inverse — a fault-injection leg that *fails to
//!   alert* is an alerting bug, so CI runs the 60 %-fault chaos leg with
//!   `--expect report.delivery.fast` and without `--gate`.
//!
//! Exit codes are [`csaw_bench::cli::exit`], shared with `exp`.

use csaw_bench::cli::{self, exit};
use csaw_bench::healthreport;
use csaw_bench::tracereport::{self, RawEvent};
use std::path::{Path, PathBuf};

const USAGE: &str = "\
usage: report <trace | health> FILE [flags]   (report KIND --help)";

const TRACE_USAGE: &str = "\
usage: report trace TRACE [flags]

  TRACE                the JSONL a --trace-out run streams (any extension
                       but .json; a .json Chrome trace does not parse)
  --baseline TRACE     compare against this trace; exit 3 when total-PLT
                       p50 or p99 regresses past the threshold
  --max-regress-pct P  allowed worsening before the gate fails (default 10)
  --waterfall N        per-fetch waterfalls to print (default 8)";

const HEALTH_USAGE: &str = "\
usage: report health FRAMES.jsonl [flags]

  --gate            exit 3 when any SLO violation is present, 1 when
                    the file holds no frames to judge
  --expect RULES    comma-separated SLO rule names that MUST have
                    fired; exit 7 listing any that did not (for
                    fault-injection legs that are required to alert)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((kind, rest)) = args.split_first() else {
        cli::die("report", USAGE, "no report kind named");
    };
    let code = match kind.as_str() {
        "-h" | "--help" => {
            println!("{USAGE}\n\n{}", exit::HELP);
            0
        }
        "trace" => trace(rest),
        "health" => health(rest),
        other => cli::die("report", USAGE, &format!("unknown report kind {other:?}")),
    };
    std::process::exit(code);
}

/// The positional FILE: the first argument that is not a flag.
fn positional(slot: &mut Option<PathBuf>, arg: &str) -> bool {
    let free = slot.is_none() && !arg.starts_with('-');
    if free {
        *slot = Some(PathBuf::from(arg));
    }
    free
}

fn read(cmd: &str, usage: &str, path: &Path) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| cli::die(cmd, usage, &format!("cannot read {}: {e}", path.display())))
}

/// The events of a JSONL trace file.
fn events(cmd: &str, usage: &str, path: &Path) -> Vec<RawEvent> {
    tracereport::parse_jsonl(&read(cmd, usage, path))
        .unwrap_or_else(|e| cli::die(cmd, usage, &format!("cannot parse {}: {e}", path.display())))
}

fn trace(args: &[String]) -> i32 {
    let (cmd, usage) = ("report trace", TRACE_USAGE);
    let mut trace: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut max_regress_pct = 10.0f64;
    let mut waterfalls = 8usize;
    cli::parse_args(cmd, usage, args, |a, value| {
        match a {
            "--baseline" => baseline = Some(PathBuf::from(value())),
            "--max-regress-pct" => max_regress_pct = cli::parse_value(cmd, usage, a, &value()),
            "--waterfall" => waterfalls = cli::parse_value(cmd, usage, a, &value()),
            other => return positional(&mut trace, other),
        }
        true
    });
    let trace = trace.unwrap_or_else(|| cli::die(cmd, usage, "no trace file given"));
    let recs = tracereport::fetch_records(&events(cmd, usage, &trace));

    println!("trace-report: {} ({} fetches)", trace.display(), recs.len());
    if recs.is_empty() {
        eprintln!("{cmd}: no fetch span trees found (was the run traced?)");
        return exit::NO_EVIDENCE;
    }
    println!();
    println!("{}", tracereport::decomposition_table(&recs));
    println!("{}", tracereport::waterfall(&recs, waterfalls));

    let violations = tracereport::sum_violations(&recs);
    if !violations.is_empty() {
        eprintln!(
            "{cmd}: MALFORMED — {} fetch tree(s) whose children do not sum to the root PLT:",
            violations.len()
        );
        for v in &violations {
            eprintln!("  {v}");
        }
        return exit::NO_EVIDENCE;
    }
    println!(
        "All {} fetch trees sum exactly (children == root PLT within 1us).",
        recs.len()
    );

    if let Some(base_path) = baseline {
        let base = tracereport::fetch_records(&events(cmd, usage, &base_path));
        if base.is_empty() {
            eprintln!("{cmd}: baseline {} has no fetch trees", base_path.display());
            return exit::NO_EVIDENCE;
        }
        let verdict = tracereport::compare(&base, &recs, max_regress_pct);
        println!();
        println!("{}", verdict.render());
        if verdict.regressed {
            return exit::GATE;
        }
    }
    0
}

fn health(args: &[String]) -> i32 {
    let (cmd, usage) = ("report health", HEALTH_USAGE);
    let mut frames_path: Option<PathBuf> = None;
    let mut gate = false;
    let mut expect: Vec<String> = Vec::new();
    cli::parse_args(cmd, usage, args, |a, value| {
        match a {
            "--gate" => gate = true,
            "--expect" => expect.extend(
                value()
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from),
            ),
            other => return positional(&mut frames_path, other),
        }
        true
    });
    let frames_path =
        frames_path.unwrap_or_else(|| cli::die(cmd, usage, "a frames JSONL path is required"));
    let input = healthreport::parse_jsonl(&read(cmd, usage, &frames_path))
        .unwrap_or_else(|e| cli::die(cmd, usage, &e));

    print!("{}", healthreport::render(&input));

    let missing = input.missing_expected(&expect);
    if !missing.is_empty() {
        eprintln!(
            "{cmd}: expected rule(s) never fired: {}",
            missing.join(", ")
        );
        return exit::ALERT_MISSING;
    }
    if gate {
        if let Err((code, why)) = healthreport::gate(&input) {
            eprintln!("{cmd}: {why}");
            return code;
        }
    }
    0
}
