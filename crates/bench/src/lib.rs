//! # csaw-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation against
//! the simulated substrate. Each experiment is a pure function of a seed
//! (bit-reproducible) returning a typed result with a `render()` method
//! that prints the same rows/series the paper reports.
//!
//! Two binaries: `exp` runs the entries of [`experiments::CATALOGUE`]
//! (`exp <name>`, `exp all` for the full report consumed by
//! `EXPERIMENTS.md`, `exp list`), and `report trace|perf|health`
//! analyses and gates on what they write. Both parse flags through
//! [`cli`] and share its exit-code table. Micro-benchmarks for the hot
//! paths live under `benches/`. Sweeps fan their independent trials out
//! through [`runner::map`]; the three harnesses (`chaos`, `splitbrain`,
//! `scale`) drive their client populations through [`fleet`].
//!
//! Perf attribution rides on `csaw_obs::contention` plus three local
//! pieces: [`alloc_track`] (allocs/report via the optional counting
//! allocator), [`scorecard`] (the machine-readable `BENCH_<seed>.json`
//! every scale run writes), and [`perfreport`] (the attribution table
//! and the determinism diff behind `report perf`). Traces
//! (`--trace-out`) are analysed by [`tracereport`], windowed health
//! telemetry (`--frames-out` JSONL) by [`healthreport`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alloc_track;
pub mod cli;
pub mod experiments;
pub mod fleet;
pub mod healthreport;
pub mod perfreport;
pub mod runner;
pub mod scorecard;
pub mod stats;
pub mod tracereport;
pub mod workload;
pub mod worlds;

pub use stats::{percentile, reduction_pct, Cdf, Summary};
