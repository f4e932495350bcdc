//! # csaw-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation against
//! the simulated substrate. Each experiment is a pure function of a seed
//! (bit-reproducible) returning a typed result, an
//! [`experiments::Outcome`]: its fields hold the numbers, and its
//! `render()` prints the same rows/series the paper reports.
//!
//! Two binaries: `exp` runs the entries of [`experiments::CATALOGUE`]
//! (`exp <name>`, `exp all` for the full report consumed by
//! `EXPERIMENTS.md`, `exp list`), and `report trace|health` analyses
//! and gates on what they write. Both parse flags through [`cli`] and
//! share its exit-code table. Sweeps run their independent trials
//! through [`runner::map`]; the three harnesses (`chaos`, `splitbrain`,
//! `scale`) drive their client populations through [`fleet`].
//!
//! Seed-pure counts and stdout digests go into a [`scorecard`], the
//! format of the golden manifest. Lock attribution is the metrics
//! snapshot of a `--perf wall` run (`csaw_obs::contention`); timing is
//! the repo benchmark's (`benchmark/`). A run's `--trace-out x.jsonl`
//! event stream is the one file both reports read: its fetch span trees
//! by [`tracereport`], its windowed health frames by [`healthreport`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod fleet;
pub mod healthreport;
pub mod runner;
pub mod scorecard;
pub mod stats;
pub mod tracereport;
pub mod workload;
pub mod worlds;
