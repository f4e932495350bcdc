//! The machine-readable benchmark scorecard (`BENCH_<seed>.json`).
//!
//! One JSON document per benchmarked run: identity plus two sections,
//! split on the axis that matters for gating:
//!
//! - `"deterministic"` — counts that are a pure function of the seed
//!   and config (accepted/rejected/record totals, per-family lock
//!   acquisition counts, allocs per report). Two same-seed runs of the
//!   same build must produce **byte-identical** bytes here; `report perf
//!   --fingerprint` prints exactly this section for the CI determinism
//!   check, and `report perf --baseline` diffs it against another card.
//! - `"timing"` — wall-clock measurements (`rows`: throughput, p50/p99,
//!   per-lock-family wait/hold sums; `socket`; `host_threads`). `report
//!   perf` renders them as the attribution table and nothing gates on
//!   them: the repo's timing trajectory is `benchmark/` +
//!   `BENCH_history.jsonl`.
//!
//! Older cards also carry a top-level `health` object and a
//! `timing.micro` object; nothing reads either, and both still parse.
//!
//! [`LockProbe`] is the bridge from the contention layer: it resolves
//! one `lock.<family>.*` set of handles from a registry and reads
//! totals, so an experiment can bracket a phase with two reads and
//! attribute the delta to that phase.

use csaw_obs::json::JsonValue;
use csaw_obs::metrics::{Counter, Histogram, Registry};
use csaw_simnet::rng::fnv1a;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Schema version stamped into every scorecard.
pub const SCHEMA: u64 = 1;

/// The conventional scorecard filename for a seed (`BENCH_seed1.json`
/// for seed 1 — the checked-in CI baseline uses exactly this name).
pub fn default_path(seed: u64) -> PathBuf {
    PathBuf::from(format!("BENCH_seed{seed}.json"))
}

/// One benchmark scorecard: identity plus the two sections.
#[derive(Debug, Clone)]
pub struct Scorecard {
    /// Which harness produced it (`"exp_scale"`, `"exp_all"`): a data
    /// identifier compared against checked-in cards, not a program name.
    pub experiment: String,
    /// The run seed.
    pub seed: u64,
    /// Seed-determined counts; byte-identical across same-seed runs.
    pub deterministic: JsonValue,
    /// Wall-clock measurements; rendered, never compared.
    pub timing: JsonValue,
}

impl Scorecard {
    /// An empty scorecard for `experiment` at `seed`.
    pub fn new(experiment: impl Into<String>, seed: u64) -> Scorecard {
        Scorecard {
            experiment: experiment.into(),
            seed,
            deterministic: JsonValue::obj(),
            timing: JsonValue::obj(),
        }
    }

    /// The full document.
    pub fn to_json(&self) -> JsonValue {
        let mut v = JsonValue::obj();
        v.set("schema", SCHEMA);
        v.set("experiment", self.experiment.as_str());
        v.set("seed", self.seed);
        v.set("deterministic", self.deterministic.clone());
        v.set("timing", self.timing.clone());
        v
    }

    /// The canonical determinism fingerprint: identity + the
    /// deterministic section, pretty-printed (keys are BTreeMap-sorted,
    /// so equal content means equal bytes).
    pub fn fingerprint(&self) -> String {
        let mut v = JsonValue::obj();
        v.set("schema", SCHEMA);
        v.set("experiment", self.experiment.as_str());
        v.set("seed", self.seed);
        v.set("deterministic", self.deterministic.clone());
        v.to_string_pretty()
    }

    /// Parse a scorecard document.
    pub fn parse(text: &str) -> Result<Scorecard, String> {
        let v = JsonValue::parse(text).map_err(|e| format!("not JSON: {e}"))?;
        let schema = v
            .get("schema")
            .and_then(JsonValue::as_u64)
            .ok_or("missing schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema} (expected {SCHEMA})"));
        }
        Ok(Scorecard {
            experiment: v
                .get("experiment")
                .and_then(JsonValue::as_str)
                .ok_or("missing experiment")?
                .to_string(),
            seed: v
                .get("seed")
                .and_then(JsonValue::as_u64)
                .ok_or("missing seed")?,
            deterministic: v
                .get("deterministic")
                .cloned()
                .unwrap_or_else(JsonValue::obj),
            timing: v.get("timing").cloned().unwrap_or_else(JsonValue::obj),
        })
    }

    /// Load from a file.
    pub fn load(path: &Path) -> Result<Scorecard, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Scorecard::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Write (pretty, trailing newline) to a file.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json().to_string_pretty() + "\n")
    }
}

/// 64-bit FNV-1a digest of `text`, hex-encoded — a compact,
/// deterministic identity for a rendered experiment block. `exp all`
/// stamps one per experiment into its scorecard's deterministic
/// section, so any nondeterminism in any experiment's stdout shows up
/// as a fingerprint mismatch in CI.
pub fn digest64(text: &str) -> String {
    format!("{:016x}", fnv1a(text.as_bytes()))
}

/// Totals for one lock family at a point in time (or a delta between
/// two points).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LockTotals {
    /// Acquisitions.
    pub acquires: u64,
    /// Acquisitions that found the lock held.
    pub contended: u64,
    /// Summed wait microseconds.
    pub wait_us: u64,
    /// Summed hold microseconds.
    pub hold_us: u64,
}

impl LockTotals {
    /// The growth from `earlier` to `self`.
    pub fn delta_since(&self, earlier: &LockTotals) -> LockTotals {
        LockTotals {
            acquires: self.acquires.saturating_sub(earlier.acquires),
            contended: self.contended.saturating_sub(earlier.contended),
            wait_us: self.wait_us.saturating_sub(earlier.wait_us),
            hold_us: self.hold_us.saturating_sub(earlier.hold_us),
        }
    }

    /// True when the family was never touched.
    pub fn is_zero(&self) -> bool {
        *self == LockTotals::default()
    }
}

/// Pre-resolved read handles on one `lock.<family>.*` metric set.
#[derive(Debug)]
pub struct LockProbe {
    /// The family name (without the `lock.` prefix).
    pub name: String,
    acquires: Arc<Counter>,
    contended: Arc<Counter>,
    wait_us: Arc<Histogram>,
    hold_us: Arc<Histogram>,
}

impl LockProbe {
    /// Resolve the probe against `reg` (registers zeroed metrics if the
    /// family does not exist yet — harmless for perf-enabled runs,
    /// which is the only time probes are constructed).
    pub fn new(reg: &Registry, name: &str) -> LockProbe {
        LockProbe {
            name: name.to_string(),
            acquires: reg.counter(&format!("lock.{name}.acquires")),
            contended: reg.counter(&format!("lock.{name}.contended")),
            wait_us: reg.histogram(&format!("lock.{name}.wait_us")),
            hold_us: reg.histogram(&format!("lock.{name}.hold_us")),
        }
    }

    /// Current totals.
    pub fn totals(&self) -> LockTotals {
        LockTotals {
            acquires: self.acquires.get(),
            contended: self.contended.get(),
            wait_us: self.wait_us.sum_us(),
            hold_us: self.hold_us.sum_us(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_fingerprint_stability() {
        let mut card = Scorecard::new("exp_scale", 1);
        card.deterministic.set("accepted", 100u64);
        card.timing.set("reports_per_sec", 123.5);
        let text = card.to_json().to_string_pretty();
        let back = Scorecard::parse(&text).expect("roundtrip");
        assert_eq!(back.experiment, "exp_scale");
        assert_eq!(back.seed, 1);
        assert_eq!(back.fingerprint(), card.fingerprint());
        assert!(
            !card.fingerprint().contains("reports_per_sec"),
            "timing must stay out of the fingerprint"
        );
    }

    #[test]
    fn legacy_health_and_micro_keys_still_parse_and_fingerprint_the_same() {
        let mut card = Scorecard::new("exp_scale", 1);
        card.deterministic.set("accepted", 100u64);
        let mut legacy = card.to_json();
        let mut health = JsonValue::obj();
        health.set("violations", 2u64);
        legacy.set("health", health);
        let mut micro = JsonValue::obj();
        micro.set("url_parse", 263u64);
        let mut timing = JsonValue::obj();
        timing.set("micro", micro);
        legacy.set("timing", timing);
        let back = Scorecard::parse(&legacy.to_string_pretty()).expect("schema 1 still parses");
        assert_eq!(back.fingerprint(), card.fingerprint());
    }

    #[test]
    fn parse_rejects_garbage_and_wrong_schema() {
        assert!(Scorecard::parse("not json").is_err());
        assert!(Scorecard::parse("{\"schema\":99}").is_err());
        assert!(
            Scorecard::parse("{\"schema\":1}").is_err(),
            "missing identity"
        );
    }

    #[test]
    fn digest64_is_stable_and_content_sensitive() {
        assert_eq!(digest64(""), "cbf29ce484222325");
        assert_eq!(digest64("a"), digest64("a"));
        assert_ne!(digest64("a"), digest64("b"));
    }

    #[test]
    fn lock_probe_reads_contention_families() {
        let reg = Registry::new();
        reg.counter("lock.x.acquires").add(5);
        reg.histogram("lock.x.wait_us").observe_us(40);
        let p = LockProbe::new(&reg, "x");
        let t0 = LockTotals::default();
        let t = p.totals().delta_since(&t0);
        assert_eq!(t.acquires, 5);
        assert_eq!(t.wait_us, 40);
        assert!(!t.is_zero());
    }
}
