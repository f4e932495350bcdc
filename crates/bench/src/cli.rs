//! Shared command-line plumbing for the `exp` and `report` binaries.
//!
//! Three things live here and nowhere else:
//!
//! - the **flag loop** ([`parse_args`]): every command of both binaries
//!   walks its arguments through it, so `--help`, a missing value and an
//!   unknown flag behave the same everywhere;
//! - the **exit-code table** ([`exit`]): one meaning per number across
//!   both binaries, printed by every `--help`;
//! - the flags every experiment accepts (`--seed`, `--metrics-out`,
//!   `--trace-out`, `-v`, …), documented once in
//!   [`COMMON_HELP`] — fix wording there, never in a command.
//!
//! [`ExpCli::from_args`] installs a process-wide [`csaw_obs`] context — a
//! fresh registry, a [`ManualClock`] driven by the simnet virtual clock,
//! and a sink chosen by the flags (null by default, so the hot paths pay
//! nothing). [`ExpCli::finish`] writes the Chrome trace, if one was
//! asked for, and dumps the snapshot. The snapshot is a pure function
//! of the seed: two runs with the same seed write byte-identical JSON.

use csaw_obs::chrome::render_chrome_trace;
use csaw_obs::clock::ManualClock;
use csaw_obs::contention::PerfMode;
use csaw_obs::scope::{self, ObsCtx, ScopeGuard};
use csaw_obs::sink::{BufferSink, JsonlSink, NullSink, Sink};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;

/// Process exit codes of `exp` and `report` — one table, so a CI step
/// can tell *why* a command failed without knowing which one it ran.
pub mod exit {
    /// The input is not usable evidence: a trace whose fetch trees do
    /// not sum (or that has none), a trace with no frames under
    /// `--gate`.
    pub const NO_EVIDENCE: i32 = 1;
    /// Usage, I/O or parse error.
    pub const USAGE: i32 = 2;
    /// A gate on measured values failed: an SLO violation under
    /// `--gate`.
    pub const GATE: i32 = 3;
    /// Correctness: silent report loss.
    pub const CORRECTNESS: i32 = 4;
    /// A delivery ratio under 1.0: a report never landed.
    pub const DELIVERY: i32 = 5;
    /// A replica missed the leader's fingerprint after heal.
    pub const NOT_CONVERGED: i32 = 6;
    /// An `--expect`ed SLO rule never fired.
    pub const ALERT_MISSING: i32 = 7;

    /// The table as every `--help` prints it.
    pub const HELP: &str = "\
exit codes:
  0  ok
  1  input is not usable evidence (trace trees do not sum, no fetch
     trees, no frames under --gate)
  2  usage, I/O or parse error
  3  a gate on measured values failed (SLO violation under --gate)
  4  correctness: silent report loss
  5  delivery ratio under 1.0
  6  replica not converged after heal
  7  an --expect'ed SLO rule never fired";
}

/// The outcome of a gate: `Err` carries the [`exit`] code and the reason
/// for stderr.
pub type Verdict = Result<(), (i32, String)>;

/// Help text for the flags shared by every experiment — the single
/// source of truth; `usage()` splices it into every `exp <name> --help`.
pub const COMMON_HELP: &str =
    "  --seed N            experiment seed (default 1, the EXPERIMENTS.md seed)
  --metrics-out PATH  write a JSON metrics snapshot on exit
  --trace-out PATH    write the run's events; any extension but `.json`
                      streams JSONL as they happen (what `report trace`
                      and `report health` read; use it for long runs),
                      `.json` keeps the whole run in memory and writes
                      one Chrome trace (chrome://tracing, Perfetto) at
                      exit
  --perf MODE         perf-attribution telemetry: off | wall (default
                      off; wall records real lock wait/hold time into
                      the --metrics-out snapshot and so makes it
                      machine-dependent)
  -v, --verbose       progress events to stderr (stdout stays parseable)";

/// Print `cmd: msg` and the usage text, then exit [`exit::USAGE`].
pub fn die(cmd: &str, usage: &str, msg: &str) -> ! {
    eprintln!("{cmd}: {msg}\n{usage}");
    std::process::exit(exit::USAGE);
}

/// Parse one flag value, or die naming the flag.
pub fn parse_value<T: FromStr>(cmd: &str, usage: &str, flag: &str, v: &str) -> T {
    v.trim()
        .parse()
        .unwrap_or_else(|_| die(cmd, usage, &format!("bad {flag} {v:?}")))
}

/// The one flag loop. Walks `args`, handing each to `on(arg, value)`;
/// `value()` pulls the next argument as the flag's value (a missing
/// value is a usage error) and `on` returns `false` for an argument it
/// does not know, which is a usage error too. `-h`/`--help` prints
/// `usage` and the [`exit::HELP`] table and exits 0.
pub fn parse_args(
    cmd: &str,
    usage: &str,
    args: &[String],
    mut on: impl FnMut(&str, &mut dyn FnMut() -> String) -> bool,
) {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "-h" || a == "--help" {
            println!("{usage}\n\n{}", exit::HELP);
            std::process::exit(0);
        }
        let mut value = || {
            it.next()
                .cloned()
                .unwrap_or_else(|| die(cmd, usage, &format!("{a} needs a value")))
        };
        if !on(a, &mut value) {
            let kind = if a.starts_with('-') {
                "unknown flag"
            } else {
                "unexpected argument"
            };
            die(cmd, usage, &format!("{kind} {a:?}"));
        }
    }
}

/// The experiment-specific value flags one command line carried, keyed
/// by flag name; a flag given twice keeps the last value.
pub struct Flags {
    cmd: String,
    usage: String,
    values: HashMap<String, String>,
}

impl Flags {
    /// Reject the command line: print `msg` and the usage text, exit
    /// [`exit::USAGE`].
    pub fn die(&self, msg: &str) -> ! {
        die(&self.cmd, &self.usage, msg)
    }

    /// The raw value of `flag`, if it was given.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// `flag` parsed as a number, `default` when absent; a value that
    /// does not parse is a usage error, never a silent fallback.
    pub fn numeric<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.get(flag)
            .map_or(default, |v| parse_value(&self.cmd, &self.usage, flag, v))
    }

    /// `flag` parsed as a comma-separated list, `None` when absent.
    pub fn list<T: FromStr>(&self, flag: &str) -> Option<Vec<T>> {
        self.get(flag).map(|v| {
            v.split(',')
                .map(|item| parse_value(&self.cmd, &self.usage, flag, item))
                .collect()
        })
    }
}

/// Parsed telemetry flags plus the installed observability scope.
pub struct ExpCli {
    /// The experiment seed (`--seed`, default 1).
    pub seed: u64,
    metrics_out: Option<PathBuf>,
    /// `--trace-out x.json`: the file, and the buffer the run records
    /// into until [`ExpCli::finish`] renders it there.
    chrome_out: Option<(PathBuf, Arc<BufferSink>)>,
    ctx: Arc<ObsCtx>,
    // Keeps the thread-local scope alive for the process's lifetime.
    _guard: ScopeGuard,
}

/// Usage text for `cmd`: the [`COMMON_HELP`] flags plus one line per
/// experiment-specific `(flag, help)` pair.
fn usage(cmd: &str, extra_flags: &[(&str, &str)]) -> String {
    let mut u = format!("usage: {cmd} [flags]\n\ncommon flags:\n{COMMON_HELP}");
    if !extra_flags.is_empty() {
        u.push_str("\n\nexperiment flags:");
        // Help starts in COMMON_HELP's column unless a flag is too long.
        let longest = extra_flags.iter().map(|(f, _)| f.len()).max().unwrap_or(0);
        let width = (longest + " VALUE ".len()).max(20);
        for (flag, help) in extra_flags {
            u.push_str(&format!("\n  {:<width$}{help}", format!("{flag} VALUE")));
        }
    }
    u
}

impl ExpCli {
    /// Parse `args` (the arguments after the command name `cmd`, which
    /// only labels messages), install the observability scope, and
    /// return the handle. Besides the common flags, accepts the
    /// experiment-specific value flags listed in `extra_flags` as
    /// `(flag, help)` pairs (e.g. `&[("--clients", "worker clients to
    /// simulate")]`); their help lands in `--help` under "experiment
    /// flags" and their values come back in the [`Flags`]. Exits the
    /// process on `--help` or bad flags.
    pub fn from_args(cmd: &str, args: &[String], extra_flags: &[(&str, &str)]) -> (ExpCli, Flags) {
        let usage = usage(cmd, extra_flags);
        let mut seed = 1u64;
        let mut perf = PerfMode::Off;
        let mut metrics_out = None;
        let mut trace_out: Option<PathBuf> = None;
        let mut verbose = false;
        let mut values = HashMap::new();
        parse_args(cmd, &usage, args, |a, value| {
            match a {
                "--seed" => seed = parse_value(cmd, &usage, a, &value()),
                "--perf" => {
                    let v = value();
                    perf = PerfMode::parse(&v).unwrap_or_else(|| {
                        die(cmd, &usage, &format!("bad --perf {v:?} (off | wall)"))
                    });
                }
                "--metrics-out" => metrics_out = Some(PathBuf::from(value())),
                "--trace-out" => trace_out = Some(PathBuf::from(value())),
                "-v" | "--verbose" => verbose = true,
                other if extra_flags.iter().any(|(f, _)| *f == other) => {
                    values.insert(other.to_string(), value());
                }
                _ => return false,
            }
            true
        });
        let open_failed = |path: &Path, e: std::io::Error| -> ! {
            die(cmd, &usage, &format!("cannot open {}: {e}", path.display()))
        };
        let mut chrome_out = None;
        let sink: Arc<dyn Sink> = match &trace_out {
            // `.json` means a self-contained Chrome-trace file (open it in
            // chrome://tracing or Perfetto), rendered from a buffer of the
            // whole run at exit; the file is created now so a bad path
            // fails before the run. Any other extension streams raw JSONL
            // events, one per line, as they happen: the file `report`
            // reads.
            Some(path) if path.extension().and_then(|e| e.to_str()) == Some("json") => {
                std::fs::File::create(path).unwrap_or_else(|e| open_failed(path, e));
                let buf = Arc::new(BufferSink::new());
                chrome_out = Some((path.clone(), buf.clone()));
                buf
            }
            Some(path) => {
                Arc::new(JsonlSink::create(path).unwrap_or_else(|e| open_failed(path, e)))
            }
            None => Arc::new(NullSink),
        };
        let ctx = Arc::new(
            ObsCtx::new()
                .with_clock(Arc::new(ManualClock::new()))
                .with_sink(sink)
                .with_verbose(verbose)
                .with_perf(perf),
        );
        let guard = scope::install(ctx.clone());
        let cli = ExpCli {
            seed,
            metrics_out,
            chrome_out,
            ctx,
            _guard: guard,
        };
        let flags = Flags {
            cmd: cmd.to_string(),
            usage,
            values,
        };
        (cli, flags)
    }

    /// The installed observability context.
    pub fn ctx(&self) -> &Arc<ObsCtx> {
        &self.ctx
    }

    /// Deterministic JSON snapshot of the metrics registry.
    pub fn snapshot_json(&self) -> String {
        let mut snap = self.ctx.registry.snapshot();
        snap.set("seed", self.seed);
        snap.to_string_pretty()
    }

    /// Flush the trace sink, write the Chrome trace if `--trace-out`
    /// named a `.json` file, and write the metrics snapshot if
    /// `--metrics-out` was given. Call last, after the experiment has
    /// rendered its output.
    pub fn finish(self) {
        // Close the top-level timeline's open window (trial timelines
        // were flushed by the runner; this one carries only caller-side
        // series like `runner.trials.merged` and stays silent when no
        // series registered).
        self.ctx.flush_timeline();
        self.ctx.sink.flush();
        if let Some((path, buf)) = &self.chrome_out {
            write_or_exit(path, render_chrome_trace(&buf.take()));
        }
        if let Some(path) = &self.metrics_out {
            write_or_exit(path, self.snapshot_json() + "\n");
            csaw_obs::event::progress(&format!("metrics snapshot -> {}", path.display()));
        }
    }
}

/// Write `contents` to `path`, or exit [`exit::USAGE`] saying why not.
fn write_or_exit(path: &Path, contents: String) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(exit::USAGE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> ExpCli {
        parse_with(args, &[]).0
    }

    fn parse_with(args: &[&str], extra_flags: &[(&str, &str)]) -> (ExpCli, Flags) {
        let args: Vec<String> = args.iter().copied().map(String::from).collect();
        ExpCli::from_args("exp test", &args, extra_flags)
    }

    #[test]
    fn defaults() {
        let cli = parse(&[]);
        assert_eq!(cli.seed, 1);
        assert!(cli.metrics_out.is_none());
        assert!(!cli.ctx.sink.enabled(), "default sink is null");
    }

    #[test]
    fn usage_lists_common_and_extra_flags() {
        let u = usage("exp x", &[("--clients", "worker clients")]);
        assert!(u.contains(COMMON_HELP), "common help embedded verbatim");
        assert!(u.contains("--clients VALUE"));
        assert!(u.contains("worker clients"));
    }

    #[test]
    fn perf_flag_sets_scope_mode() {
        assert_eq!(parse(&[]).ctx.perf_mode(), PerfMode::Off, "off by default");
        let cli = parse(&["--perf", "wall"]);
        assert_eq!(cli.ctx.perf_mode(), PerfMode::Monotonic);
    }

    #[test]
    fn seed_and_paths_parse() {
        let cli = parse(&["--seed", "42", "--metrics-out", "/tmp/m.json"]);
        assert_eq!(cli.seed, 42);
        assert_eq!(
            cli.metrics_out.as_deref(),
            Some(std::path::Path::new("/tmp/m.json"))
        );
    }

    #[test]
    fn extras_collected_alongside_common_flags() {
        let (cli, flags) = parse_with(
            &["--clients", "500", "--seed", "3", "--threads", "1,2"],
            &[("--clients", "clients"), ("--threads", "thread counts")],
        );
        assert_eq!(cli.seed, 3);
        assert_eq!(flags.get("--clients"), Some("500"));
        assert_eq!(flags.numeric("--clients", 6usize), 500);
        assert_eq!(flags.numeric("--shards", 16usize), 16, "absent = default");
        assert_eq!(flags.list::<usize>("--threads"), Some(vec![1, 2]));
        assert_eq!(flags.list::<f64>("--fault-rates"), None);
    }

    #[test]
    fn trace_out_json_extension_selects_chrome_format() {
        let path = std::env::temp_dir().join("csaw_cli_chrome_test.json");
        let cli = parse(&["--trace-out", path.to_str().unwrap()]);
        assert!(cli.ctx.sink.enabled());
        csaw_obs::event!("cli.format_test");
        cli.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"displayTimeUnit\""), "{text}");
        assert!(text.contains("cli.format_test"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_out_other_extension_streams_jsonl() {
        let path = std::env::temp_dir().join("csaw_cli_jsonl_test.jsonl");
        let cli = parse(&["--trace-out", path.to_str().unwrap()]);
        csaw_obs::event!("cli.format_test");
        cli.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.starts_with("{\"event\":\"cli.format_test\"")
                || text.contains("\"event\":\"cli.format_test\""),
            "{text}"
        );
        assert!(!text.contains("traceEvents"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_includes_seed_and_metrics() {
        let cli = parse(&["--seed", "7"]);
        cli.ctx.registry.counter("x").inc();
        let json = cli.snapshot_json();
        let v = csaw_obs::json::JsonValue::parse(&json).unwrap();
        assert_eq!(v.get("seed").and_then(|s| s.as_u64()), Some(7));
        assert!(json.contains("\"x\""));
    }
}
