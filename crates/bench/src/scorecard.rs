//! The machine-readable scorecard: identity plus a `deterministic`
//! section of counts that are a pure function of the seed and config.
//!
//! Two same-seed runs of the same build produce **byte-identical**
//! cards. `exp all` writes one per sweep (under `runs/<seed>/`: the
//! stdout digests the golden manifest pins), and the manifest itself is
//! a card whose rows hold the digests of every other pinned output,
//! `exp scale`'s receipt counts among them. Timing lives in
//! `benchmark/`, never here.
//!
//! Older cards also carry top-level `timing` and `health` objects;
//! nothing reads either, and both still parse.

use csaw_obs::json::JsonValue;
use csaw_simnet::rng::fnv1a;
use std::io;
use std::path::Path;

/// Schema version stamped into every scorecard.
pub const SCHEMA: u64 = 1;

/// One scorecard: identity plus the deterministic section.
#[derive(Debug, Clone)]
pub struct Scorecard {
    /// Which harness produced it (`"exp_scale"`, `"exp_all"`): a data
    /// identifier compared against checked-in cards, not a program name.
    pub experiment: String,
    /// The run seed.
    pub seed: u64,
    /// Seed-determined counts; byte-identical across same-seed runs.
    pub deterministic: JsonValue,
}

impl Scorecard {
    /// An empty scorecard for `experiment` at `seed`.
    pub fn new(experiment: impl Into<String>, seed: u64) -> Scorecard {
        Scorecard {
            experiment: experiment.into(),
            seed,
            deterministic: JsonValue::obj(),
        }
    }

    /// The whole document, pretty-printed (keys are BTreeMap-sorted, so
    /// equal content means equal bytes): the canonical determinism
    /// fingerprint.
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
        })
    }

    /// Load from a file.
    pub fn load(path: &Path) -> Result<Scorecard, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Scorecard::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Write the document (trailing newline) to a file.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.fingerprint() + "\n")
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_fingerprint_stability() {
        let mut card = Scorecard::new("exp_scale", 1);
        card.deterministic.set("accepted", 100u64);
        let back = Scorecard::parse(&card.fingerprint()).expect("roundtrip");
        assert_eq!(back.experiment, "exp_scale");
        assert_eq!(back.seed, 1);
        assert_eq!(back.fingerprint(), card.fingerprint());
    }

    #[test]
    fn legacy_health_and_micro_keys_still_parse_and_fingerprint_the_same() {
        let mut card = Scorecard::new("exp_scale", 1);
        card.deterministic.set("accepted", 100u64);
        let mut legacy = JsonValue::parse(&card.fingerprint()).expect("a card is JSON");
        let mut health = JsonValue::obj();
        health.set("violations", 2u64);
        legacy.set("health", health);
        // A legacy card's timing half: wall-clock rows and micro-benches.
        let mut micro = JsonValue::obj();
        micro.set("url_parse", 263u64);
        let mut timing = JsonValue::obj();
        timing.set("micro", micro);
        timing.set("reports_per_sec", 123.5);
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
}
