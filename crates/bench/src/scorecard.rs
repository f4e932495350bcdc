//! The machine-readable benchmark scorecard (`BENCH_<seed>.json`).
//!
//! One JSON document per benchmarked run, replacing the free-text
//! `bench_output.txt` as the repo's perf source of truth. The schema is
//! split on the axis that matters for gating:
//!
//! - `"deterministic"` — counts that are a pure function of the seed
//!   and config (accepted/rejected/record totals, per-family lock
//!   acquisition counts, allocs per report). Two same-seed runs of the
//!   same build must produce **byte-identical** bytes here; `report perf
//!   --fingerprint` prints exactly this section for the CI determinism
//!   check.
//! - `"timing"` — wall-clock measurements (throughput, p50/p99,
//!   wait/hold sums, micro-bench ns/iter). Run-to-run variance is
//!   expected; `report perf --baseline` compares these within tolerance
//!   bands instead of byte-for-byte.
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
    /// Wall-clock measurements; compared with tolerance bands.
    pub timing: JsonValue,
    /// Windowed-health summary (window count, SLO rules violated) from
    /// the run's telemetry timeline. Advisory context for humans and
    /// dashboards — deliberately excluded from
    /// [`Scorecard::fingerprint`], and omitted from the document when
    /// empty, so pre-existing cards and health-less runs are unchanged.
    pub health: JsonValue,
}

impl Scorecard {
    /// An empty scorecard for `experiment` at `seed`.
    pub fn new(experiment: impl Into<String>, seed: u64) -> Scorecard {
        Scorecard {
            experiment: experiment.into(),
            seed,
            deterministic: JsonValue::obj(),
            timing: JsonValue::obj(),
            health: JsonValue::obj(),
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
        if matches!(&self.health, JsonValue::Obj(m) if !m.is_empty()) {
            v.set("health", self.health.clone());
        }
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
            health: v.get("health").cloned().unwrap_or_else(JsonValue::obj),
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

    /// Merge micro-bench results (`name → ns/iter`) into
    /// `timing.micro`, preserving entries for benches not in `results`
    /// (so a filtered `--bench` run updates only what it measured).
    pub fn set_micro(&mut self, results: &[(String, u64)]) {
        let mut micro = self
            .timing
            .get("micro")
            .cloned()
            .unwrap_or_else(JsonValue::obj);
        for (name, ns) in results {
            micro.set(name, *ns);
        }
        self.timing.set("micro", micro);
    }

    /// Load `path` if it exists (any experiment), else start a fresh
    /// `experiment` card, merge `results` into `timing.micro`, write
    /// back. This is how the microbench harness contributes to the same
    /// `BENCH_<seed>.json` the scale run writes.
    pub fn merge_micro_file(
        path: &Path,
        experiment: &str,
        seed: u64,
        results: &[(String, u64)],
    ) -> Result<(), String> {
        let mut card = if path.exists() {
            Scorecard::load(path)?
        } else {
            Scorecard::new(experiment, seed)
        };
        card.set_micro(results);
        card.write(path)
            .map_err(|e| format!("{}: {e}", path.display()))
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
    fn health_roundtrips_but_stays_out_of_fingerprint() {
        let mut card = Scorecard::new("exp_scale", 1);
        card.deterministic.set("accepted", 100u64);
        assert!(
            !card.to_json().to_string_pretty().contains("health"),
            "empty health must be omitted from the document"
        );
        let clean_fp = card.fingerprint();
        card.health.set("violations", 2u64);
        assert_eq!(
            card.fingerprint(),
            clean_fp,
            "health must stay out of the fingerprint"
        );
        let back = Scorecard::parse(&card.to_json().to_string_pretty()).expect("roundtrip");
        assert_eq!(
            back.health.get("violations").and_then(JsonValue::as_u64),
            Some(2)
        );
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
    fn micro_merge_preserves_unmeasured_entries() {
        let mut card = Scorecard::new("exp_scale", 1);
        card.set_micro(&[("url_parse".into(), 200), ("vote_tally".into(), 900)]);
        card.set_micro(&[("url_parse".into(), 210)]);
        let micro = card.timing.get("micro").expect("micro section");
        assert_eq!(
            micro.get("url_parse").and_then(JsonValue::as_u64),
            Some(210)
        );
        assert_eq!(
            micro.get("vote_tally").and_then(JsonValue::as_u64),
            Some(900)
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
