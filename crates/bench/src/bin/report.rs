//! `report`: analyse the event file a run writes, and gate on it.
//!
//! ```text
//! report trace  TRACE
//! report health TRACE [--gate] [--expect RULES]
//! ```
//!
//! Both kinds read the one file a run writes for analysis: the JSONL a
//! `--trace-out x.jsonl` run streams (not the `.json` Chrome trace,
//! which is for viewers; a line that is not a JSON event exits 2).
//!
//! - `trace` uses the fetch span trees: per-fetch PLT decomposition and
//!   the first eight fetches' waterfalls; a fetch whose children do not
//!   sum to its root PLT within 1 µs makes the trace unusable.
//! - `health` uses the `ts.frame` / `slo.violation` events. `--gate` is
//!   the CI "run must be healthy" check; `--expect` is the inverse — a
//!   fault-injection leg that *fails to alert* is an alerting bug, so
//!   CI runs the 60 %-fault chaos leg with `--expect
//!   report.delivery.fast` and without `--gate`.
//!
//! Exit codes are [`csaw_bench::cli::exit`], shared with `exp`.

use csaw_bench::cli::{self, exit};
use csaw_bench::healthreport;
use csaw_bench::tracereport;
use std::path::{Path, PathBuf};

const USAGE: &str = "\
usage: report <trace | health> FILE [flags]   (report KIND --help)";

const TRACE_USAGE: &str = "\
usage: report trace TRACE

  TRACE                the JSONL a --trace-out run streams (any extension
                       but .json; a .json Chrome trace does not parse);
                       the report draws the first 8 fetches' waterfalls";

const HEALTH_USAGE: &str = "\
usage: report health TRACE [flags]

  TRACE             the JSONL a --trace-out run streams, as for
                    `report trace`
  --gate            exit 3 when any SLO violation is present, 1 when
                    the file holds no frames to judge
  --expect RULES    comma-separated SLO rule names that MUST have
                    fired; exit 7 listing any that did not (for
                    fault-injection legs that are required to alert);
                    a list that names no rule is a usage error";

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

/// Read `path` and parse it with `parse`, or die saying which failed.
fn load<T>(cmd: &str, usage: &str, path: &Path, parse: fn(&str) -> Result<T, String>) -> T {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| cli::die(cmd, usage, &format!("cannot read {}: {e}", path.display())));
    parse(&text)
        .unwrap_or_else(|e| cli::die(cmd, usage, &format!("cannot parse {}: {e}", path.display())))
}

fn trace(args: &[String]) -> i32 {
    let (cmd, usage) = ("report trace", TRACE_USAGE);
    let mut trace: Option<PathBuf> = None;
    cli::parse_args(cmd, usage, args, |a, _| positional(&mut trace, a));
    let trace = trace.unwrap_or_else(|| cli::die(cmd, usage, "no trace file given"));
    let recs = tracereport::fetch_records(&load(cmd, usage, &trace, tracereport::parse_jsonl));

    println!("trace-report: {} ({} fetches)", trace.display(), recs.len());
    if recs.is_empty() {
        eprintln!("{cmd}: no fetch span trees found (was the run traced?)");
        return exit::NO_EVIDENCE;
    }
    println!();
    println!("{}", tracereport::decomposition_table(&recs));
    println!("{}", tracereport::waterfall(&recs));

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
    0
}

fn health(args: &[String]) -> i32 {
    let (cmd, usage) = ("report health", HEALTH_USAGE);
    let mut trace: Option<PathBuf> = None;
    let mut gate = false;
    let mut expect: Vec<String> = Vec::new();
    cli::parse_args(cmd, usage, args, |a, value| {
        match a {
            "--gate" => gate = true,
            "--expect" => {
                let rules = value();
                let before = expect.len();
                expect.extend(
                    rules
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from),
                );
                // An expectation that names no rule is met by anything.
                if expect.len() == before {
                    cli::die(cmd, usage, &format!("--expect {rules:?} names no rule"));
                }
            }
            other => return positional(&mut trace, other),
        }
        true
    });
    let trace = trace.unwrap_or_else(|| cli::die(cmd, usage, "no trace file given"));
    let input = load(cmd, usage, &trace, healthreport::parse_jsonl);

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
