//! The command line: one command prints every metric by name with its
//! unit, checks outputs, and exits non-zero on a failed check.

use crate::estimator::{median, quartile_spread};
use crate::metrics::END_TO_END;
use crate::workloads::ingest_inproc::IngestInproc;
use crate::workloads::pilot_browse::PilotBrowse;
use crate::workloads::replicate::Replicate;
use crate::workloads::wire_mixed::WireMixed;
use crate::workloads::{Workload, WORKLOADS};
use crate::{run_traced, run_untraced, Outcome};
use csaw_obs::json::JsonValue;
use std::process::Command;

/// Seconds of rounds per run when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: csaw-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--selfcheck [N]]
  --workload   ingest_inproc | wire_mixed | replicate | pilot_browse (default: all four)
  --seed       seed of every generated input (default 1)
  --seconds    wall time spent in measured rounds (default 20)
  --trace 1    the traced run: per-layer metrics and benchmark/out/trace-<workload>.jsonl
  --selfcheck  run every workload N times (default 2) and fail if two runs disagree by more than a bound";

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    /// `None` runs all four.
    pub workload: Option<String>,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Wall seconds of measured rounds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// `Some(n)`: run every workload `n` times and compare.
    pub selfcheck: Option<usize>,
}

/// Parse `args` (without the program name).
pub fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        selfcheck: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|(n, _)| *n == name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                opts.workload = Some(name);
            }
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                // Bare `--trace` means on; the driver passes 0 or 1.
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--selfcheck" => {
                let n = match it.peek().and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) => {
                        it.next();
                        n
                    }
                    None => 2,
                };
                if n < 2 {
                    return Err("--selfcheck needs at least 2 runs".into());
                }
                opts.selfcheck = Some(n);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// The workloads `opts` selects, in run order.
fn selected(opts: &Opts) -> Vec<&str> {
    match &opts.workload {
        Some(n) => vec![n.as_str()],
        None => WORKLOADS.iter().map(|(n, _)| *n).collect(),
    }
}

/// Run one workload by name.
pub fn run_one(name: &str, opts: &Opts) -> Outcome {
    fn go<W: Workload>(opts: &Opts) -> Outcome {
        if opts.trace {
            run_traced::<W>(opts.seed, opts.seconds)
        } else {
            run_untraced::<W>(opts.seed, opts.seconds)
        }
    }
    match name {
        crate::workloads::ingest_inproc::NAME => go::<IngestInproc>(opts),
        crate::workloads::wire_mixed::NAME => go::<WireMixed>(opts),
        crate::workloads::replicate::NAME => go::<Replicate>(opts),
        crate::workloads::pilot_browse::NAME => go::<PilotBrowse>(opts),
        other => unreachable!("parse() admits only known workloads, got {other}"),
    }
}

/// The whole program; returns the exit code.
pub fn main_with(args: &[String]) -> i32 {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("csaw-benchmark: {msg}");
            }
            eprintln!("{USAGE}");
            return 2;
        }
    };
    if let Some(runs) = opts.selfcheck {
        return selfcheck(&opts, runs);
    }
    if opts.trace && !csaw_perf_alloc::counting() {
        // Allocation counts need the counting allocator, which only the
        // traced binary installs: build it and let it do the run.
        return hand_over_to_traced_binary(args);
    }
    let mut all_correct = true;
    for name in selected(&opts) {
        let outcome = run_one(name, &opts);
        print!("{}", outcome.render());
        println!("{}", outcome.json_line());
        all_correct &= outcome.correct();
    }
    if all_correct {
        0
    } else {
        1
    }
}

/// Run this same program as a child (a fresh process, so `VmHWM`
/// starts over) and parse the result line it prints last.
fn child_run(workload: &str, opts: &Opts) -> Result<(JsonValue, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = text.lines().last().unwrap_or("");
    let value = JsonValue::parse(last)
        .map_err(|e| format!("{workload}: child printed no result line ({e}):\n{text}"))?;
    if !out.status.success() || value.get("correct").and_then(JsonValue::as_bool) != Some(true) {
        return Err(format!("{workload}: a run failed its checks:\n{text}"));
    }
    let counts = text
        .lines()
        .find(|l| l.trim_start().starts_with("counts:"))
        .unwrap_or("")
        .trim()
        .to_string();
    Ok((value, counts))
}

/// `--selfcheck N`: N same-seed runs of every workload, back to back.
/// Fails if a run fails, if two runs' counts differ, or if any
/// end-to-end metric's extreme runs differ by more than its bound.
fn selfcheck(opts: &Opts, runs: usize) -> i32 {
    let mut ok = true;
    for name in selected(opts) {
        println!(
            "== selfcheck {name}: {runs} runs, seed {}, {} s ==",
            opts.seed, opts.seconds
        );
        let mut results = Vec::with_capacity(runs);
        for _ in 0..runs {
            match child_run(name, opts) {
                Ok(r) => results.push(r),
                Err(msg) => {
                    println!("{msg}");
                    return 1;
                }
            }
        }
        if results.iter().any(|(_, c)| *c != results[0].1) {
            ok = false;
            println!("  FAILED: counts differ between same-seed runs:");
            for (_, c) in &results {
                println!("    {c}");
            }
        } else {
            println!("  {} (identical in all runs)", results[0].1);
        }
        for def in END_TO_END {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|(v, _)| v.get("metrics")?.get(def.name)?.get("value")?.as_f64())
                .collect();
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let med = median(&values);
            let range = if med > 0.0 { (hi - lo) / med } else { 0.0 };
            let within = values.len() == runs && range <= def.bound;
            ok &= within;
            println!(
                "  {:<22} median {:>14.4} {:<4} range {:>6.3} quartile-spread {:>6.3} bound {:.2} {}  {:?}",
                def.name,
                med,
                def.unit,
                range,
                quartile_spread(&values),
                def.bound,
                if within { "ok" } else { "FAILED" },
                values
            );
        }
    }
    if ok {
        0
    } else {
        1
    }
}

/// Build `csaw-benchmark-traced` (a no-op when it is fresh) beside this
/// binary and run it with the same arguments.
fn hand_over_to_traced_binary(args: &[String]) -> i32 {
    let me = match std::env::current_exe() {
        Ok(me) => me,
        Err(e) => {
            eprintln!("csaw-benchmark: cannot find myself: {e}");
            return 3;
        }
    };
    // `<target dir>/release/csaw-benchmark`: build into the same place.
    let Some(target_dir) = me.parent().and_then(|p| p.parent()) else {
        eprintln!(
            "csaw-benchmark: {} is not in a cargo target directory",
            me.display()
        );
        return 3;
    };
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    let built = Command::new(cargo)
        .args(["build", "--release", "--offline", "--features", "traced"])
        .args(["--bin", "csaw-benchmark-traced", "--manifest-path"])
        .arg(&manifest)
        .arg("--target-dir")
        .arg(target_dir)
        .stdout(std::process::Stdio::null())
        .status();
    if !matches!(&built, Ok(s) if s.success()) {
        eprintln!("csaw-benchmark: cannot build the traced binary: {built:?}");
        return 3;
    }
    let sibling = me.with_file_name("csaw-benchmark-traced");
    match Command::new(&sibling).args(args).status() {
        Ok(status) => status.code().unwrap_or(3),
        Err(e) => {
            eprintln!("csaw-benchmark: cannot run {}: {e}", sibling.display());
            3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let o = parse(&args(
            "--workload wire_mixed --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("wire_mixed"));
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.selfcheck),
            (7, 20.0, true, None)
        );
        let o = parse(&args("--trace 0 --workload replicate")).unwrap();
        assert!(!o.trace);
    }

    #[test]
    fn defaults_and_bare_flags() {
        let o = parse(&[]).unwrap();
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (None, 1, DEFAULT_SECONDS, false)
        );
        assert!(parse(&args("--trace")).unwrap().trace);
        assert_eq!(parse(&args("--selfcheck")).unwrap().selfcheck, Some(2));
        assert_eq!(
            parse(&args("--selfcheck 5 --seed 2")).unwrap().selfcheck,
            Some(5)
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&args("--workload nonsense")).is_err());
        assert!(parse(&args("--seed x")).is_err());
        assert!(parse(&args("--seconds -1")).is_err());
        assert!(parse(&args("--selfcheck 1")).is_err());
        assert!(parse(&args("--frobnicate")).is_err());
        assert!(parse(&args("--workload")).is_err());
    }
}
