//! The machine-readable scorecard: identity plus a `deterministic`
//! section of counts that are a pure function of the seed and config.
//!
//! Two same-seed runs of the same build produce **byte-identical**
//! cards. `exp all` writes one per sweep (under `runs/<seed>/`: the
//! stdout digests the golden manifest pins), and the manifest itself is
//! a card whose rows hold the digests of every other pinned output,
//! `exp scale`'s receipt counts among them. Timing lives in
//! `benchmark/`, never here.

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
    fn fingerprint_is_json_with_identity_and_counts() {
        let mut card = Scorecard::new("exp_scale", 1);
        card.deterministic.set("accepted", 100u64);
        let v = JsonValue::parse(&card.fingerprint()).expect("a card is JSON");
        assert_eq!(v.get("schema").and_then(JsonValue::as_u64), Some(SCHEMA));
        assert_eq!(
            v.get("experiment").and_then(JsonValue::as_str),
            Some("exp_scale")
        );
        assert_eq!(v.get("seed").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(v.get("deterministic"), Some(&card.deterministic));
    }

    #[test]
    fn digest64_is_stable_and_content_sensitive() {
        assert_eq!(digest64(""), "cbf29ce484222325");
        assert_eq!(digest64("a"), digest64("a"));
        assert_ne!(digest64("a"), digest64("b"));
    }
}
