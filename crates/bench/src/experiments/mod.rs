//! One module per table/figure of the paper's evaluation, and the one
//! list of them: [`CATALOGUE`].
//!
//! The catalogue is the only place that says which experiments exist
//! and how each is run. `exp <name>`, `exp all`, `exp extensions` and
//! `exp list`, the CLI help gate and the golden-manifest test
//! (`GOLDEN_seed1.json`) are all loops over it, so adding an experiment
//! is one entry here plus its module. An entry's `name` is a stable
//! identifier: it keys the golden digests and the `runs/<seed>/`
//! artifacts.
//!
//! A module's public seam is `run(seed, jobs) -> <result struct>` (the
//! struct carries `render()`). Inside, a sweep is a case list, one
//! [`crate::runner::TrialSpec`] per case built beside it, and a closure
//! over that list handed to [`crate::runner::map`]; the result struct is
//! built directly from the ordinal-ordered values `map` returns. Every
//! `TrialSpec::salted` seed expression and `TrialSpec::forked` name
//! literal is part of the module's output: changing one moves its golden
//! digest.
//!
//! Three sections ([`Run`]): **Paper** entries regenerate a table or
//! figure of the evaluation, in paper order; **Extension** entries
//! answer the paper's §8 future-work questions; both are pure
//! `(seed, jobs) → rendered text` sweeps, which is what lets `exp all`
//! digest them. **Harness** entries ([`chaos`], [`splitbrain`],
//! [`scale`]) take their own flags, configure telemetry windows, write
//! scorecards and gate on their result with an exit code from
//! [`crate::cli::exit`]; `exp all` skips them.

use crate::cli::{ExpCli, Flags, Verdict};
use crate::scorecard::Scorecard;
use csaw_obs::json::JsonValue;

pub mod ablation_explore;
pub mod chaos;
pub mod datausage;
pub mod fig1;
pub mod fig2;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fingerprint;
pub mod nonweb;
pub mod propagation;
pub mod scale;
pub mod splitbrain;
pub mod table1;
pub mod table2;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod wild;

/// A sweep: `(seed, jobs)` to the rendered block, byte-identical for
/// every `jobs`. Sweeps with no parallel decomposition (`fig6b`,
/// `table7`, `propagation`: state evolves across their inner loop)
/// ignore `jobs`.
pub type Sweep = fn(u64, usize) -> String;

/// A harness: reads its own flags, runs under the caller's telemetry
/// scope, and returns the rendered block plus its gate verdict. The
/// caller prints, calls [`ExpCli::finish`], then exits on the verdict.
pub type Harness = fn(&ExpCli, &Flags) -> (String, Verdict);

/// Which section an entry belongs to, carrying how it is run.
#[derive(Clone, Copy)]
pub enum Run {
    /// A table or figure of the paper's evaluation.
    Paper(Sweep),
    /// A §8 future-work extension.
    Extension(Sweep),
    /// A flag-taking, self-gating harness; not part of `exp all`.
    Harness(Harness),
}

/// One experiment.
pub struct Entry {
    /// Stable name: `exp <name>`, the golden-digest key.
    pub name: &'static str,
    /// One-line summary for `exp list`.
    pub summary: &'static str,
    /// The value flags it reads beyond [`crate::cli::COMMON_HELP`], as
    /// `(flag, help)` pairs; any other flag is rejected.
    pub flags: &'static [(&'static str, &'static str)],
    /// Section and run function.
    pub run: Run,
}

const fn paper(name: &'static str, summary: &'static str, run: Sweep) -> Entry {
    Entry {
        name,
        summary,
        flags: &[],
        run: Run::Paper(run),
    }
}

const fn extension(name: &'static str, summary: &'static str, run: Sweep) -> Entry {
    Entry {
        name,
        summary,
        flags: &[],
        run: Run::Extension(run),
    }
}

/// Every experiment: the paper's evaluation in paper order, then the
/// extensions, then the harnesses.
pub const CATALOGUE: &[Entry] = &[
    paper("table1", "Table 1: ISP-A vs ISP-B mechanisms", |s, j| {
        table1::run(s, j).render()
    }),
    paper("fig1a", "Fig. 1a: HTTPS/DF vs static proxies", |s, j| {
        fig1::run_1a(s, j).render()
    }),
    paper("fig1b", "Fig. 1b: HTTPS vs Tor by exit location", |s, j| {
        fig1::run_1b(s, j).render()
    }),
    paper("fig1c", "Fig. 1c: Lantern vs IP-as-hostname", |s, j| {
        fig1::run_1c(s, j).render()
    }),
    paper("table2", "Table 2: static-proxy ping latencies", |s, j| {
        table2::run(s, j).render()
    }),
    paper("fig2", "Fig. 2: ONI blocking-type mixtures", |s, j| {
        fig2::run(s, j).render()
    }),
    paper("table5", "Table 5: detection times", |s, j| {
        table5::run(s, j).render()
    }),
    paper("fig5a", "Fig. 5a: serial vs parallel redundancy", |s, j| {
        fig5::run_5a(s, j).render()
    }),
    paper("fig5b", "Fig. 5b: redundancy load, small page", |s, j| {
        fig5::run_5b(s, j).render()
    }),
    paper("fig5c", "Fig. 5c: redundancy load, larger page", |s, j| {
        fig5::run_5c(s, j).render()
    }),
    paper("fig6a", "Fig. 6a: number of redundant copies", |s, j| {
        fig6::run_6a(s, j).render()
    }),
    paper("fig6b", "Fig. 6b: URL aggregation", |s, _| {
        fig6::run_6b(s).render()
    }),
    paper("table6", "Table 6: revalidation probability p", |s, j| {
        table6::run(s, j).render()
    }),
    paper(
        "fig7a",
        "Fig. 7a: C-Saw vs Lantern vs Tor, blocked",
        |s, j| fig7::run_7a(s, j).render(),
    ),
    paper(
        "fig7b",
        "Fig. 7b: C-Saw vs Lantern vs Tor, unblocked",
        |s, j| fig7::run_7b(s, j).render(),
    ),
    paper("fig7c", "Fig. 7c: multi-stage blocking", |s, j| {
        fig7::run_7c(s, j).render()
    }),
    paper("table7", "Table 7: pilot deployment study", |s, _| {
        table7::run(s, 123).render()
    }),
    paper("wild", "§7.5: the Nov 2017 event", |s, j| {
        wild::run(s, j).render()
    }),
    extension(
        "datausage",
        "what redundancy and p cost in bytes",
        |s, j| datausage::run(s, j).render(),
    ),
    extension(
        "ablation_explore",
        "what n-th-access exploration buys",
        |s, j| ablation_explore::run(s, j).render(),
    ),
    extension(
        "fingerprint",
        "can a censor fingerprint paired flows?",
        |s, j| fingerprint::run(s, j).render(),
    ),
    extension(
        "nonweb",
        "non-web (UDP/messaging) filtering detection",
        |s, j| nonweb::run(s, j).render(),
    ),
    extension(
        "propagation",
        "how fast one discovery benefits the crowd",
        |s, _| propagation::run(s).render(),
    ),
    Entry {
        name: "chaos",
        summary: "report delivery under injected store/wire faults",
        flags: chaos::FLAGS,
        run: Run::Harness(chaos::harness),
    },
    Entry {
        name: "splitbrain",
        summary: "replica convergence through a WAL-shipping partition",
        flags: splitbrain::FLAGS,
        run: Run::Harness(splitbrain::harness),
    },
    Entry {
        name: "scale",
        summary: "sharded-store ingest throughput at a million clients",
        flags: scale::FLAGS,
        run: Run::Harness(scale::harness),
    },
];

/// The catalogue entry called `name`.
pub fn find(name: &str) -> Option<&'static Entry> {
    CATALOGUE.iter().find(|e| e.name == name)
}

/// The sweep scorecard `exp all` writes, whose `stdout_digests` the
/// golden manifest `GOLDEN_seed1.json` pins: one stdout digest per
/// `(name, digest)` pair in the deterministic section. The card's `experiment` field is the data identifier
/// `exp_all`, compared against checked-in cards — not a program name.
pub fn sweep_card<'a>(seed: u64, digests: impl Iterator<Item = (&'a str, &'a str)>) -> Scorecard {
    let mut card = Scorecard::new("exp_all", seed);
    let mut by_name = JsonValue::obj();
    for (name, digest) in digests {
        by_name.set(name, digest);
    }
    card.deterministic.set("stdout_digests", by_name);
    card
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        // By position, not address: `CATALOGUE` is a `const`, so two
        // uses of it need not share storage.
        for (i, e) in CATALOGUE.iter().enumerate() {
            let first = CATALOGUE.iter().position(|x| x.name == e.name);
            assert_eq!(first, Some(i), "{}", e.name);
        }
    }
}
