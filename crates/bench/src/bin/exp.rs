//! `exp`: run the experiments of [`csaw_bench::experiments::CATALOGUE`].
//!
//! ```text
//! exp list                  every experiment, in paper order
//! exp <name> [flags]        run one (exp <name> --help for its flags)
//! exp all [flags]           every paper + extension experiment, plus the
//!                           runs/<seed>/ artifacts
//! exp extensions [flags]    the §8 future-work extensions
//! ```
//!
//! `cargo run --release -p csaw-bench --bin exp -- all --jobs 0`
//! regenerates the numbers recorded in EXPERIMENTS.md. Each experiment's
//! independent trials fan out across `--jobs` workers through
//! [`csaw_bench::runner`]; stdout is byte-identical for every job count.
//!
//! Besides the stdout report, `exp all` writes three artifacts under
//! `<out-dir>/<seed>/` (`--out-dir` defaults to `runs`):
//!
//! - `summary.json` — per-experiment wall timings (not deterministic;
//!   they also go to stderr, never stdout);
//! - `metrics.json` — per-experiment metrics snapshots, taken from a
//!   child observability scope installed around each experiment (the
//!   process-wide `--metrics-out` snapshot only shows totals);
//! - `BENCH_seed<seed>.json` — the scorecard: a deterministic FNV-1a
//!   digest of every experiment's stdout block (the `stdout_digests`
//!   rows of the golden manifest `GOLDEN_seed1.json`, which also pins
//!   `metrics.json`). The wall timings are not repeated in it.
//!
//! Exit codes are [`csaw_bench::cli::exit`], shared with `report`.

use csaw_bench::cli::{self, exit, ExpCli};
use csaw_bench::experiments::{self, Entry, Run, Sweep, CATALOGUE};
use csaw_bench::scorecard;
use csaw_obs::event::progress;
use csaw_obs::json::JsonValue;
use csaw_obs::scope::{self, ObsCtx};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "\
usage: exp <list | all | extensions | NAME> [flags]

  exp list               every experiment NAME, in paper order
  exp NAME [flags]       run one; `exp NAME --help` lists its flags
  exp all [flags]        every paper + extension experiment, writing
                         <out-dir>/<seed>/{summary,metrics,BENCH_seed<seed>}.json
  exp extensions [flags] the §8 future-work extensions";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        cli::die("exp", USAGE, "no experiment named");
    };
    match name.as_str() {
        "-h" | "--help" => println!("{USAGE}\n\n{}", exit::HELP),
        "list" => {
            for e in CATALOGUE {
                println!("{:<18}{}", e.name, e.summary);
            }
        }
        "all" => run_all(rest),
        "extensions" => {
            let (cli, _) = ExpCli::from_args("exp extensions", rest, &[]);
            println!(
                "=== C-Saw reproduction: extension experiments (seed {}) ===\n",
                cli.seed
            );
            for e in CATALOGUE {
                if let Run::Extension(run) = e.run {
                    progress(&format!("running {}", e.name));
                    println!("{}", run(cli.seed, cli.jobs).render());
                }
            }
            cli.finish();
        }
        name => match experiments::find(name) {
            Some(entry) => run_one(entry, rest),
            None => cli::die("exp", USAGE, &format!("unknown experiment {name:?}")),
        },
    }
}

/// `exp <name>`: one catalogue entry under its own flags.
fn run_one(entry: &Entry, args: &[String]) {
    let cmd = format!("exp {}", entry.name);
    let (cli, flags) = ExpCli::from_args(&cmd, args, entry.flags);
    let (out, verdict) = match entry.run {
        Run::Paper(run) | Run::Extension(run) => (run(cli.seed, cli.jobs).render(), Ok(())),
        Run::Harness(run) => run(&cli, &flags),
    };
    println!("{out}");
    cli.finish();
    if let Err((code, why)) = verdict {
        eprintln!("{cmd}: {why}");
        std::process::exit(code);
    }
}

/// One experiment's artifacts: stdout digest, wall seconds, metrics.
struct ExpRun {
    name: &'static str,
    wall_s: f64,
    digest: String,
    metrics: JsonValue,
}

/// Run one experiment inside a child observability scope (fresh
/// registry, everything else inherited), so its metrics can be
/// snapshotted in isolation; the child registry is merged back into the
/// parent afterwards to keep `--metrics-out` totals whole.
fn run_scoped(
    parent: &Arc<ObsCtx>,
    name: &'static str,
    run: Sweep,
    seed: u64,
    jobs: usize,
) -> ExpRun {
    progress(&format!("running {name}"));
    let child = Arc::new(
        ObsCtx::new()
            .with_clock(parent.clock.clone())
            .with_sink(parent.sink.clone())
            .with_verbose(parent.verbose)
            .with_perf(parent.perf_mode()),
    );
    let t0 = Instant::now();
    let out = {
        let _guard = scope::install(child.clone());
        run(seed, jobs).render()
    };
    let wall_s = t0.elapsed().as_secs_f64();
    println!("{out}");
    parent.registry.merge_from(&child.registry);
    ExpRun {
        name,
        wall_s,
        digest: scorecard::digest64(&out),
        metrics: child.registry.snapshot(),
    }
}

fn or_die<T>(what: &Path, result: std::io::Result<T>) -> T {
    result.unwrap_or_else(|err| {
        eprintln!("exp all: cannot write {}: {err}", what.display());
        std::process::exit(exit::USAGE);
    })
}

/// `exp all`: the full paper-vs-measured report plus its artifacts.
fn run_all(args: &[String]) {
    let (cli, flags) = ExpCli::from_args(
        "exp all",
        args,
        &[(
            "--out-dir",
            "directory for the <seed>/ artifacts (default runs)",
        )],
    );
    let (seed, jobs) = (cli.seed, cli.jobs);
    let started = Instant::now();
    let mut runs: Vec<ExpRun> = Vec::new();

    println!("=== C-Saw reproduction: full experiment sweep (seed {seed}) ===\n");
    for e in CATALOGUE {
        if let Run::Paper(run) = e.run {
            runs.push(run_scoped(cli.ctx(), e.name, run, seed, jobs));
        }
    }
    println!("--- extensions (§8 future-work questions) ---\n");
    for e in CATALOGUE {
        if let Run::Extension(run) = e.run {
            runs.push(run_scoped(cli.ctx(), e.name, run, seed, jobs));
        }
    }
    let total_s = started.elapsed().as_secs_f64();

    let dir = Path::new(flags.get("--out-dir").unwrap_or("runs")).join(seed.to_string());
    or_die(&dir, std::fs::create_dir_all(&dir));

    // summary.json: the wall timings, in run order.
    let mut summary = JsonValue::obj();
    summary.set("seed", seed);
    summary.set("jobs", jobs);
    summary.set("total_wall_s", total_s);
    let timings = runs.iter().map(|r| {
        let mut t = JsonValue::obj();
        t.set("name", r.name);
        t.set("wall_s", r.wall_s);
        t
    });
    summary.set("experiments", JsonValue::Arr(timings.collect()));
    let summary_path = dir.join("summary.json");
    let text = summary.to_string_pretty() + "\n";
    or_die(&summary_path, std::fs::write(&summary_path, text));

    // metrics.json: one registry snapshot per experiment (deterministic
    // in the seed, like the per-experiment --metrics-out snapshots).
    let mut metrics = JsonValue::obj();
    metrics.set("seed", seed);
    let mut per_exp = JsonValue::obj();
    for r in &runs {
        per_exp.set(r.name, r.metrics.clone());
    }
    metrics.set("experiments", per_exp);
    let metrics_path = dir.join("metrics.json");
    let text = metrics.to_string_pretty() + "\n";
    or_die(&metrics_path, std::fs::write(&metrics_path, text));

    // The scorecard: stdout digests are the deterministic section.
    let digests = runs.iter().map(|r| (r.name, r.digest.as_str()));
    let card = experiments::sweep_card(seed, digests);
    let card_path = dir.join(experiments::sweep_card_file(seed));
    or_die(&card_path, card.write(&card_path));

    eprintln!("exp all: per-experiment wall timings (jobs={jobs}):");
    for r in &runs {
        eprintln!("  {:<18}{:>8.2}s", r.name, r.wall_s);
    }
    eprintln!("  {:<18}{total_s:>8.2}s", "total");
    eprintln!("exp all: summary -> {}", summary_path.display());
    eprintln!("exp all: metrics -> {}", metrics_path.display());
    eprintln!("exp all: scorecard -> {}", card_path.display());
    cli.finish();
}
