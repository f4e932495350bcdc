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
//! A module's public seam is `run(seed) -> <result struct>`, an
//! [`Outcome`] (the CDF figures share [`crate::stats::Panel`]). Inside,
//! a sweep is a case list, one [`crate::runner::TrialSpec`] per case
//! built beside it, and a closure over that list handed to
//! [`crate::runner::map`], which calls it with each case's index; the
//! result struct is built directly from the
//! values `map` returns, in case-list order. Every
//! `TrialSpec::salted` seed expression and `TrialSpec::forked` name
//! literal is part of the module's output: changing one moves its golden
//! digest.
//!
//! Three sections ([`Run`]): **Paper** entries regenerate a table or
//! figure of the evaluation, in paper order; **Extension** entries
//! answer the paper's §8 future-work questions; both are pure
//! `seed → typed result` sweeps. `exp all` digests each result's
//! [`Outcome::render`], and anything that wants a number reads the
//! result's fields through [`get`](Outcome#method.get)
//! (`outcome.get::<Table5>()?.row("HTTP").measured_s`) instead of parsing
//! the text. **Harness** entries ([`chaos`], [`splitbrain`],
//! [`scale`]) take their own flags, configure telemetry windows and
//! gate on their result with an exit code from [`crate::cli::exit`];
//! `exp all` skips them.

use crate::cli::{ExpCli, Flags, Verdict};
use crate::scorecard::Scorecard;
use csaw_obs::json::JsonValue;
use std::any::Any;

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

/// A sweep's typed result: a struct holding the figure's or table's
/// numbers, which also renders them.
pub trait Outcome: Any {
    /// The text block `exp` prints, byte-identical for a given seed.
    fn render(&self) -> String;
}

impl dyn Outcome {
    /// The result as its concrete type, if it is a `T`.
    pub fn get<T: Outcome>(&self) -> Option<&T> {
        (self as &dyn Any).downcast_ref()
    }
}

/// A sweep: a seed to its typed result, whose rendering is a pure
/// function of the seed.
pub type Sweep = fn(u64) -> Box<dyn Outcome>;

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
    paper("table1", "Table 1: ISP-A vs ISP-B mechanisms", |s| {
        Box::new(table1::run(s))
    }),
    paper("fig1a", "Fig. 1a: HTTPS/DF vs static proxies", |s| {
        Box::new(fig1::run_1a(s))
    }),
    paper("fig1b", "Fig. 1b: HTTPS vs Tor by exit location", |s| {
        Box::new(fig1::run_1b(s))
    }),
    paper("fig1c", "Fig. 1c: Lantern vs IP-as-hostname", |s| {
        Box::new(fig1::run_1c(s))
    }),
    paper("table2", "Table 2: static-proxy ping latencies", |s| {
        Box::new(table2::run(s))
    }),
    paper("fig2", "Fig. 2: ONI blocking-type mixtures", |s| {
        Box::new(fig2::run(s))
    }),
    paper("table5", "Table 5: detection times", |s| {
        Box::new(table5::run(s))
    }),
    paper("fig5a", "Fig. 5a: serial vs parallel redundancy", |s| {
        Box::new(fig5::run_5a(s))
    }),
    paper("fig5b", "Fig. 5b: redundancy load, small page", |s| {
        Box::new(fig5::run_5b(s))
    }),
    paper("fig5c", "Fig. 5c: redundancy load, larger page", |s| {
        Box::new(fig5::run_5c(s))
    }),
    paper("fig6a", "Fig. 6a: number of redundant copies", |s| {
        Box::new(fig6::run_6a(s))
    }),
    paper("fig6b", "Fig. 6b: URL aggregation", |s| {
        Box::new(fig6::run_6b(s))
    }),
    paper("table6", "Table 6: revalidation probability p", |s| {
        Box::new(table6::run(s))
    }),
    paper("fig7a", "Fig. 7a: C-Saw vs Lantern vs Tor, blocked", |s| {
        Box::new(fig7::run_7a(s))
    }),
    paper(
        "fig7b",
        "Fig. 7b: C-Saw vs Lantern vs Tor, unblocked",
        |s| Box::new(fig7::run_7b(s)),
    ),
    paper("fig7c", "Fig. 7c: multi-stage blocking", |s| {
        Box::new(fig7::run_7c(s))
    }),
    paper("table7", "Table 7: pilot deployment study", |s| {
        Box::new(table7::run(s, 123))
    }),
    paper("wild", "§7.5: the Nov 2017 event", |s| {
        Box::new(wild::run(s))
    }),
    extension("datausage", "what redundancy and p cost in bytes", |s| {
        Box::new(datausage::run(s))
    }),
    extension(
        "ablation_explore",
        "what n-th-access exploration buys",
        |s| Box::new(ablation_explore::run(s)),
    ),
    extension(
        "fingerprint",
        "can a censor fingerprint paired flows?",
        |s| Box::new(fingerprint::run(s)),
    ),
    extension(
        "nonweb",
        "non-web (UDP/messaging) filtering detection",
        |s| Box::new(nonweb::run(s)),
    ),
    extension(
        "propagation",
        "how fast one discovery benefits the crowd",
        |s| Box::new(propagation::run(s)),
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
        summary: "million-client sharded-store ingest, reconciled to zero loss",
        flags: scale::FLAGS,
        run: Run::Harness(scale::harness),
    },
];

/// The catalogue entry called `name`.
pub fn find(name: &str) -> Option<&'static Entry> {
    CATALOGUE.iter().find(|e| e.name == name)
}

/// The file name of `exp all`'s [`sweep_card`] under `<out-dir>/<seed>/`.
pub fn sweep_card_file(seed: u64) -> String {
    format!("BENCH_seed{seed}.json")
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
    use crate::stats::Panel;
    use table5::Table5;

    #[test]
    fn a_sweep_keeps_its_typed_result() {
        let Run::Paper(sweep) = find("table5").expect("in the catalogue").run else {
            panic!("table5 is a paper sweep");
        };
        let outcome = sweep(1);
        let table = outcome.get::<Table5>().expect("table5 returns a Table5");
        let direct = table5::run(1).row("HTTP").measured_s;
        assert_eq!(table.row("HTTP").measured_s.to_bits(), direct.to_bits());
        assert!(outcome.get::<Panel>().is_none());
    }

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
