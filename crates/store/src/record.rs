//! Global database records and the report wire format (Tables 3 & 4).
//!
//! The global DB stores every local-DB field plus the post time `T_p` and
//! a server-assigned UUID. By design **no personally identifiable
//! information is stored** — there is no IP/identity field anywhere in
//! these types, which is the paper's §5 privacy property enforced
//! structurally rather than by policy.

use csaw_censor::blocking::BlockingType;
use csaw_obs::json::{JsonError, JsonReader, JsonWriter};
use csaw_simnet::time::SimTime;
use csaw_simnet::topology::Asn;
use std::borrow::Cow;
use std::fmt;

/// A server-assigned universal unique identifier. The paper derives it
/// from a cryptographic hash of the server's current time; we reproduce
/// that as a 64-bit avalanche hash over (time, counter, salt).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Uuid(u64);

impl Uuid {
    /// Derive a UUID from the server clock, a monotone counter and the
    /// server salt (SplitMix64 finalizer — avalanche-complete, so
    /// sequential inputs yield unlinkable-looking IDs).
    pub fn derive(now: SimTime, counter: u64, salt: u64) -> Uuid {
        let mut z = now
            .as_micros()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(counter)
            .wrapping_add(salt.rotate_left(17));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Uuid(z ^ (z >> 31))
    }

    /// Construct from a raw value (tests).
    pub fn from_raw(v: u64) -> Uuid {
        Uuid(v)
    }

    /// Raw value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Uuid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One measurement report as carried on the wire (client → server, JSON).
/// Only **blocked** URLs are ever reported (§3 "These updates include
/// information about only blocked URLs"); reports travel over Tor.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The blocked URL.
    pub url: String,
    /// AS the measurement was made from.
    pub asn: u32,
    /// Measurement time (`T_m`), µs since epoch.
    pub measured_at_us: u64,
    /// Stage-1..k blocking mechanisms.
    pub stages: Vec<BlockingType>,
}

/// A malformed report batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input was not valid JSON.
    Json(JsonError),
    /// The JSON did not have the report-batch shape.
    Shape(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Json(e) => write!(f, "report batch: {e}"),
            WireError::Shape(m) => write!(f, "report batch: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<JsonError> for WireError {
    fn from(e: JsonError) -> WireError {
        WireError::Json(e)
    }
}

/// The outcome of reading one typed value off a [`JsonReader`].
///
/// The outer `Err` means the text is not JSON: reading stops. The inner
/// `Err` means well-formed JSON of the wrong shape: the reader has moved
/// past the value and reading goes on, so that a syntax error further
/// along still takes precedence — as it did when documents were parsed
/// whole before any shape was checked — and so that a later duplicate
/// of a key can still replace an ill-shaped earlier one.
pub(crate) type Shaped<T, E = WireError> = Result<Result<T, E>, JsonError>;

/// The index of the first ill-shaped element of an array, and why.
pub(crate) type Poison = (usize, WireError);

/// Read the elements of an array the reader has just opened, keeping
/// the index and reason of the first one `read` finds ill-shaped.
fn read_elements<T>(
    r: &mut JsonReader<'_>,
    mut read: impl FnMut(&mut JsonReader<'_>) -> Shaped<T>,
) -> Shaped<Vec<T>, Poison> {
    let mut items = Vec::new();
    let mut first_bad = None;
    let mut index = 0;
    while r.element()? {
        match read(r)? {
            Ok(item) if first_bad.is_none() => items.push(item),
            Ok(_) => {}
            Err(reason) => {
                first_bad.get_or_insert((index, reason));
            }
        }
        index += 1;
    }
    Ok(first_bad.map_or(Ok(items), Err))
}

/// Read an array of what `read` reads. Ill-shaped with `not_array` if
/// the value is not an array, else with its first ill-shaped element's
/// reason.
pub(crate) fn read_array_of<T>(
    r: &mut JsonReader<'_>,
    not_array: &'static str,
    read: impl FnMut(&mut JsonReader<'_>) -> Shaped<T>,
) -> Shaped<Vec<T>> {
    if !r.array()? {
        return Ok(Err(WireError::Shape(not_array)));
    }
    Ok(read_elements(r, read)?.map_err(|(_, reason)| reason))
}

fn write_stages(stages: &[BlockingType], w: &mut JsonWriter) {
    w.begin_array();
    for s in stages {
        w.str(s.name());
    }
    w.end_array();
}

fn read_stages(r: &mut JsonReader<'_>) -> Shaped<Vec<BlockingType>> {
    read_array_of(r, "stages must be an array", |r| {
        Ok(r.str()?
            .and_then(|s| BlockingType::from_name(&s))
            .ok_or(WireError::Shape("unknown blocking type")))
    })
}

impl Uuid {
    /// Write as a 16-hex-digit string: ids use all 64 bits, and readers
    /// that hold JSON numbers as `f64` would round them.
    pub(crate) fn write_json(self, w: &mut JsonWriter) {
        let hex: [u8; 16] =
            std::array::from_fn(|i| b"0123456789abcdef"[(self.0 >> (60 - 4 * i)) as usize & 0xf]);
        w.str(std::str::from_utf8(&hex).expect("hex digits are ASCII"));
    }

    /// Read a hex-string UUID; `None` if the value is not one.
    pub(crate) fn read_json(r: &mut JsonReader<'_>) -> Result<Option<Uuid>, JsonError> {
        Ok(r.str()?
            .and_then(|s| u64::from_str_radix(&s, 16).ok())
            .map(Uuid))
    }
}

impl Report {
    // Keys go out sorted, as the `BTreeMap`-backed tree wrote them: the
    // frames and WAL lines stay byte-for-byte what they were.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("asn");
        w.u64(u64::from(self.asn));
        w.key("measured_at_us");
        w.u64(self.measured_at_us);
        w.key("stages");
        write_stages(&self.stages, w);
        w.key("url");
        w.str(&self.url);
        w.end_object();
    }

    pub(crate) fn read_json(r: &mut JsonReader<'_>) -> Shaped<Report> {
        let (mut url, mut asn, mut measured_at_us, mut stages) = (None, None, None, None);
        if r.object()? {
            while let Some(key) = r.key()? {
                match &*key {
                    "url" => url = r.str()?,
                    "asn" => asn = r.u64()?.and_then(|n| u32::try_from(n).ok()),
                    "measured_at_us" => measured_at_us = r.u64()?,
                    "stages" => stages = Some(read_stages(r)?),
                    _ => r.skip()?,
                }
            }
        }
        Ok(Report::from_fields(url, asn, measured_at_us, stages))
    }

    /// Assemble a report from what was read for each key (`None`:
    /// missing or of the wrong type), checking the fields in a fixed
    /// order whatever order they arrived in.
    fn from_fields(
        url: Option<Cow<'_, str>>,
        asn: Option<u32>,
        measured_at_us: Option<u64>,
        stages: Option<Result<Vec<BlockingType>, WireError>>,
    ) -> Result<Report, WireError> {
        let shape = WireError::Shape;
        Ok(Report {
            url: url.ok_or(shape("url must be a string"))?.into_owned(),
            asn: asn.ok_or(shape("asn must be a u32"))?,
            measured_at_us: measured_at_us.ok_or(shape("measured_at_us must be a u64"))?,
            stages: stages.ok_or(shape("stages must be an array"))??,
        })
    }

    pub(crate) fn write_array(reports: &[Report], w: &mut JsonWriter) {
        w.begin_array();
        for r in reports {
            r.write_json(w);
        }
        w.end_array();
    }

    /// Read an array of reports; `None` if the value is not an array,
    /// else the reports or the first undecodable one's index and reason.
    pub(crate) fn read_array(
        r: &mut JsonReader<'_>,
    ) -> Result<Option<Result<Vec<Report>, Poison>>, JsonError> {
        if !r.array()? {
            return Ok(None);
        }
        read_elements(r, Report::read_json).map(Some)
    }

    /// Serialize a batch of reports to the JSON wire format.
    pub fn encode_batch(reports: &[Report]) -> String {
        let mut w = JsonWriter::compact();
        Report::write_array(reports, &mut w);
        w.finish()
    }

    /// Parse a batch from the wire. Malformed input is an error (the
    /// server rejects, not panics): a broken envelope, or the first
    /// undecodable report's reason.
    pub fn decode_batch(s: &str) -> Result<Vec<Report>, WireError> {
        let mut r = JsonReader::new(s);
        let reports = Report::read_array(&mut r)?;
        r.end()?;
        reports
            .ok_or(WireError::Shape("batch must be an array"))?
            .map_err(|(_, reason)| reason)
    }
}

/// A record in the global database (Table 3 fields ⊕ Table 4 fields).
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalRecord {
    /// The blocked URL.
    pub url: String,
    /// AS it was measured from.
    pub asn: Asn,
    /// Measurement time (`T_m`).
    pub measured_at: SimTime,
    /// Blocking mechanisms (stage-1..k).
    pub stages: Vec<BlockingType>,
    /// When the update was posted (`T_p`).
    pub posted_at: SimTime,
    /// Reporting client's UUID (pseudonymous; allows user-centric
    /// analytics without identity).
    pub reporter: Uuid,
}

/// What a record must be on the wire (see [`crate::net::op::RECORDS`]).
const RECORD_FIELDS: &str = "record must be an array of its 6 fields";

impl GlobalRecord {
    /// Write as the positional array `[asn, measured_at_us,
    /// posted_at_us, reporter, [stage code, ..], url]`: no keys, and
    /// each stage as its [`BlockingType::code`].
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_array();
        w.u64(u64::from(self.asn.0));
        w.u64(self.measured_at.as_micros());
        w.u64(self.posted_at.as_micros());
        self.reporter.write_json(w);
        w.begin_array();
        for s in &self.stages {
            w.u64(u64::from(s.code()));
        }
        w.end_array();
        w.str(&self.url);
        w.end_array();
    }

    /// Read what [`GlobalRecord::write_json`] wrote. An array of another
    /// length is ill-shaped, and so is a field of the wrong type; the
    /// fields are judged in order once the whole array is read.
    pub(crate) fn read_json(r: &mut JsonReader<'_>) -> Shaped<GlobalRecord> {
        let shape = WireError::Shape;
        let (mut asn, mut measured_at, mut posted_at) = (None, None, None);
        let (mut reporter, mut stages, mut url) = (None, None, None);
        let mut fields = 0;
        let is_array = r.array()?;
        while is_array && r.element()? {
            match fields {
                0 => asn = r.u64()?.and_then(|n| u32::try_from(n).ok()),
                1 => measured_at = r.u64()?,
                2 => posted_at = r.u64()?,
                3 => reporter = Uuid::read_json(r)?,
                4 => {
                    stages = Some(read_array_of(r, "stages must be an array", |r| {
                        Ok(r.u64()?
                            .and_then(|n| u8::try_from(n).ok())
                            .and_then(BlockingType::from_code)
                            .ok_or(shape("unknown blocking type")))
                    })?)
                }
                5 => url = r.str()?,
                _ => r.skip()?,
            }
            fields += 1;
        }
        if fields != 6 {
            return Ok(Err(shape(RECORD_FIELDS)));
        }
        let record = || {
            Ok(GlobalRecord {
                asn: Asn(asn.ok_or(shape("record asn must be a u32"))?),
                measured_at: SimTime::from_micros(
                    measured_at.ok_or(shape("record measured_at_us must be a u64"))?,
                ),
                posted_at: SimTime::from_micros(
                    posted_at.ok_or(shape("record posted_at_us must be a u64"))?,
                ),
                reporter: reporter.ok_or(shape("uuid must be a hex string"))?,
                stages: stages.ok_or(shape("stages must be an array"))??,
                url: url
                    .ok_or(shape("record url must be a string"))?
                    .into_owned(),
            })
        };
        Ok(record())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uuid_deterministic_and_distinct() {
        let a = Uuid::derive(SimTime::from_secs(10), 0, 42);
        let b = Uuid::derive(SimTime::from_secs(10), 0, 42);
        let c = Uuid::derive(SimTime::from_secs(10), 1, 42);
        let d = Uuid::derive(SimTime::from_secs(11), 0, 42);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn uuid_display_is_hex() {
        let u = Uuid::from_raw(0xdead_beef);
        assert_eq!(u.to_string(), "00000000deadbeef");
    }

    #[test]
    fn report_wire_roundtrip() {
        let reports = vec![
            Report {
                url: "http://blocked.example/".into(),
                asn: 17557,
                measured_at_us: 1_000_000,
                stages: vec![BlockingType::DnsHijack, BlockingType::HttpDrop],
            },
            Report {
                url: "http://other.example/page".into(),
                asn: 38193,
                measured_at_us: 2_000_000,
                stages: vec![BlockingType::HttpBlockPageRedirect],
            },
        ];
        let wire = Report::encode_batch(&reports);
        let back = Report::decode_batch(&wire).unwrap();
        assert_eq!(back, reports);
    }

    #[test]
    fn malformed_wire_rejected() {
        assert!(Report::decode_batch("not json").is_err());
        assert!(Report::decode_batch("{\"url\": 1}").is_err());
    }

    #[test]
    fn no_pii_fields_on_the_wire() {
        // Structural privacy check: serialize and assert no address-like
        // keys exist in the wire format.
        let r = Report {
            url: "http://x.example/".into(),
            asn: 1,
            measured_at_us: 0,
            stages: vec![],
        };
        let wire = Report::encode_batch(&[r]);
        for forbidden in ["ip", "address", "user", "name", "email"] {
            assert!(
                !wire
                    .to_ascii_lowercase()
                    .contains(&format!("\"{forbidden}\"")),
                "wire format leaks {forbidden}: {wire}"
            );
        }
    }
}
