//! The global-DB wire protocol: message types carried inside
//! [`csaw_webproto::codec`] length-prefixed frames.
//!
//! Each frame is `len:u32 (BE) | op:u8 | payload`, where the payload is
//! a compact JSON object (the same in-tree JSON the WAL and scorecards
//! use) — except for `SHIP`, below. A `RECORDS` download, the largest
//! JSON payload, spells each record as a positional array with its
//! stages as numeric codes (see [`op::RECORDS`]): no key is written or
//! matched per record. Requests and responses are modelled
//! as enums with exact encode/decode symmetry; a malformed payload
//! decodes to [`StoreError::Wire`], never a panic — the server rejects,
//! the connection survives.
//!
//! Payloads are written and read straight off
//! [`csaw_obs::json::JsonWriter`] / [`csaw_obs::json::JsonReader`], with
//! no intermediate tree: keys go out in sorted order, and come in in any
//! order, unknown ones skipped, the last duplicate winning.
//!
//! UUIDs cross the wire as 16-hex-digit strings (a reader that holds
//! JSON numbers as f64 would round raw u64 ids — same convention as the
//! JSONL WAL). Times cross as integer microseconds, digit for digit.
//!
//! # The `SHIP` payload
//!
//! `SHIP` is the one payload that is not JSON. Its lines already are
//! JSON ([`crate::wal`] lines), so it carries them verbatim, each behind
//! its byte length:
//!
//! ```text
//! from_seq:u64 (BE) | { len:u32 (BE) | line: len bytes of UTF-8 }*
//! ```
//!
//! Encoding is a sized copy, and decoding bounds-checks every length
//! and validates each line as UTF-8: a payload shorter than 8 bytes, a
//! cut length prefix, a line that overruns the payload or a line that is
//! not UTF-8 is [`StoreError::Wire`]. Whether a line means anything is
//! for [`crate::wal::replay_line`] to judge on the replica.

use crate::batch::IngestReceipt;
use crate::error::StoreError;
use crate::ledger::ConfidenceFilter;
use crate::record::{read_array_of, GlobalRecord, Report, Shaped, Uuid, WireError};
use csaw_obs::json::{JsonError, JsonReader, JsonWriter};
use csaw_simnet::time::SimTime;
use csaw_simnet::topology::Asn;
use csaw_webproto::codec::Frame;
use std::borrow::Cow;

/// Frame opcodes. Requests use the low range, responses the high range.
pub mod op {
    /// Client → server: register a new client UUID.
    pub const REGISTER: u8 = 0x01;
    /// Client → server: post a report batch for ingestion.
    pub const POST: u8 = 0x02;
    /// Client → server: download blocked records for an AS.
    pub const BLOCKED: u8 = 0x03;
    /// Leader → replica: ship a contiguous run of WAL lines.
    pub const SHIP: u8 = 0x04;
    /// Server → client: registration succeeded, payload carries the UUID.
    pub const REGISTERED: u8 = 0x81;
    /// Server → client: ingest receipt for a posted batch.
    pub const RECEIPT: u8 = 0x82;
    /// Server → client: blocked-record download result. Each record is
    /// a positional array, not an object, and each stage is its
    /// [`BlockingType::code`](csaw_censor::blocking::BlockingType::code):
    ///
    /// ```text
    /// {"records":[[asn, measured_at_us, posted_at_us, "reporter", [stage, ..], "url"], ..]}
    /// ```
    pub const RECORDS: u8 = 0x83;
    /// Replica → leader: acknowledge the applied WAL position.
    pub const SHIP_ACK: u8 = 0x84;
    /// Server → client: the request failed; payload carries a code.
    pub const ERROR: u8 = 0xFF;
}

fn shape(msg: &'static str) -> StoreError {
    StoreError::Wire(WireError::Shape(msg))
}

/// Build a frame whose payload is the object `fields` writes (keys in
/// sorted order, see [`Report::write_json`]).
fn object_frame(op: u8, fields: impl FnOnce(&mut JsonWriter)) -> Frame {
    let mut w = JsonWriter::compact();
    w.begin_object();
    fields(&mut w);
    w.end_object();
    Frame::new(op, w.finish().into_bytes())
}

/// Read a frame's payload as one JSON object, handing each member to
/// `field`, which must read or skip exactly that member's value. A
/// payload that is JSON but not an object reads as one with no members.
/// Only syntax errors come out of here; what the members held is for
/// the caller to judge once the whole payload is known to be JSON.
fn read_object<'a>(
    frame: &'a Frame,
    mut field: impl FnMut(&str, &mut JsonReader<'a>) -> Result<(), JsonError>,
) -> Result<(), StoreError> {
    let text = std::str::from_utf8(&frame.payload)
        .map_err(|_| shape("frame payload must be UTF-8 JSON"))?;
    let mut r = JsonReader::new(text);
    if r.object()? {
        while let Some(key) = r.key()? {
            field(&key, &mut r)?;
        }
    }
    Ok(r.end()?)
}

fn write_indices(ix: &[usize], w: &mut JsonWriter) {
    w.begin_array();
    for &i in ix {
        w.u64(i as u64);
    }
    w.end_array();
}

fn read_indices(r: &mut JsonReader<'_>) -> Shaped<Vec<usize>> {
    read_array_of(r, "indices must be an array", |r| {
        Ok(r.u64()?
            .map(|n| n as usize)
            .ok_or(WireError::Shape("index must be a number")))
    })
}

/// The `SHIP` payload (see the module docs): `from_seq`, then each line
/// behind its length. Frames are capped far below 4 GiB, so every line
/// that can be shipped has a `u32` length.
fn ship_payload(from_seq: u64, lines: &[String]) -> Vec<u8> {
    let len = 8 + lines.iter().map(|l| 4 + l.len()).sum::<usize>();
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&from_seq.to_be_bytes());
    for line in lines {
        let n = u32::try_from(line.len()).expect("a WAL line is shorter than a frame");
        out.extend_from_slice(&n.to_be_bytes());
        out.extend_from_slice(line.as_bytes());
    }
    out
}

/// Decode a `SHIP` payload; every malformation is [`StoreError::Wire`].
fn read_ship(payload: &[u8]) -> Result<DbRequest, StoreError> {
    let (from_seq, mut rest) = payload
        .split_first_chunk::<8>()
        .ok_or(shape("SHIP payload must start with a u64 from_seq"))?;
    let mut lines = Vec::new();
    while !rest.is_empty() {
        let (len, tail) = rest
            .split_first_chunk::<4>()
            .ok_or(shape("SHIP line length is cut short"))?;
        let len = u32::from_be_bytes(*len) as usize;
        if len > tail.len() {
            return Err(shape("SHIP line overruns the payload"));
        }
        let (line, tail) = tail.split_at(len);
        let line = std::str::from_utf8(line).map_err(|_| shape("WAL line must be UTF-8"))?;
        lines.push(line.to_owned());
        rest = tail;
    }
    Ok(DbRequest::Ship {
        from_seq: u64::from_be_bytes(*from_seq),
        lines,
    })
}

/// A client → server request.
#[derive(Debug, Clone, PartialEq)]
pub enum DbRequest {
    /// Register a new client; the server derives and returns a UUID.
    Register {
        /// Client's current virtual time (feeds UUID derivation).
        now: SimTime,
        /// Sybil-risk score the registrar gates on.
        risk: f64,
    },
    /// Post a report batch for ingestion.
    Post {
        /// The posting client's UUID.
        client: Uuid,
        /// Client-stamped post time (`T_p` for every record).
        posted_at: SimTime,
        /// The reports themselves.
        reports: Vec<Report>,
    },
    /// Download blocked records visible from an AS.
    Blocked {
        /// The AS to query.
        asn: Asn,
        /// Confidence thresholds to apply server-side.
        filter: ConfidenceFilter,
    },
    /// Ship a contiguous run of WAL lines to a replica (see
    /// [`crate::wal`] for the line codec). `lines[0]` carries the
    /// operation with sequence number `from_seq` (0-based: the first
    /// line ever written is seq 0). The lines cross verbatim, not as
    /// JSON strings (see the module docs).
    Ship {
        /// Sequence number of the first shipped line.
        from_seq: u64,
        /// Compact-JSON WAL lines, in log order.
        lines: Vec<String>,
    },
}

impl DbRequest {
    /// Encode to a wire frame.
    pub fn to_frame(&self) -> Frame {
        match self {
            DbRequest::Register { now, risk } => object_frame(op::REGISTER, |w| {
                w.key("now_us");
                w.u64(now.as_micros());
                w.key("risk");
                w.f64(*risk);
            }),
            DbRequest::Post {
                client,
                posted_at,
                reports,
            } => object_frame(op::POST, |w| {
                w.key("client");
                client.write_json(w);
                w.key("posted_at_us");
                w.u64(posted_at.as_micros());
                w.key("reports");
                Report::write_array(reports, w);
            }),
            DbRequest::Blocked { asn, filter } => object_frame(op::BLOCKED, |w| {
                w.key("asn");
                w.u64(u64::from(asn.0));
                w.key("min_avg_vote");
                w.f64(filter.min_avg_vote);
                w.key("min_clients");
                w.u64(filter.min_clients as u64);
            }),
            DbRequest::Ship { from_seq, lines } => {
                Frame::new(op::SHIP, ship_payload(*from_seq, lines))
            }
        }
    }

    /// Decode from a wire frame. Malformed payloads are
    /// [`StoreError::Wire`] (envelope) or [`StoreError::Malformed`]
    /// (a single poison report inside a Post, with its batch index).
    pub fn from_frame(frame: &Frame) -> Result<DbRequest, StoreError> {
        match frame.op {
            op::REGISTER => {
                let (mut now, mut risk) = (None, None);
                read_object(frame, |key, r| match key {
                    "now_us" => r.u64().map(|v| now = v),
                    "risk" => r.f64().map(|v| risk = v),
                    _ => r.skip(),
                })?;
                Ok(DbRequest::Register {
                    now: SimTime::from_micros(now.ok_or(shape("now_us must be a u64"))?),
                    risk: risk.ok_or(shape("risk must be a number"))?,
                })
            }
            op::POST => {
                let (mut client, mut posted_at, mut reports) = (None, None, None);
                read_object(frame, |key, r| match key {
                    "client" => Uuid::read_json(r).map(|v| client = v),
                    "posted_at_us" => r.u64().map(|v| posted_at = v),
                    "reports" => Report::read_array(r).map(|v| reports = v),
                    _ => r.skip(),
                })?;
                Ok(DbRequest::Post {
                    client: client.ok_or(shape("uuid must be a hex string"))?,
                    posted_at: SimTime::from_micros(
                        posted_at.ok_or(shape("posted_at_us must be a u64"))?,
                    ),
                    reports: reports
                        .ok_or(shape("reports must be an array"))?
                        .map_err(|(index, reason)| StoreError::Malformed { index, reason })?,
                })
            }
            op::BLOCKED => {
                let (mut asn, mut min_clients, mut min_avg_vote) = (None, None, None);
                read_object(frame, |key, r| match key {
                    "asn" => r.u64().map(|v| asn = v.and_then(|n| u32::try_from(n).ok())),
                    "min_clients" => r.u64().map(|v| min_clients = v),
                    "min_avg_vote" => r.f64().map(|v| min_avg_vote = v),
                    _ => r.skip(),
                })?;
                Ok(DbRequest::Blocked {
                    asn: Asn(asn.ok_or(shape("asn must be a u32"))?),
                    filter: ConfidenceFilter {
                        min_clients: min_clients.ok_or(shape("min_clients must be a u64"))?
                            as usize,
                        min_avg_vote: min_avg_vote.ok_or(shape("min_avg_vote must be a number"))?,
                    },
                })
            }
            op::SHIP => read_ship(&frame.payload),
            _ => {
                read_object(frame, |_, r| r.skip())?;
                Err(shape("unknown request opcode"))
            }
        }
    }
}

/// A server → client response.
#[derive(Debug, Clone, PartialEq)]
pub enum DbResponse {
    /// Registration succeeded.
    Registered(
        /// The server-assigned UUID.
        Uuid,
    ),
    /// Ingest finished; the receipt reconciles every batch index.
    Receipt(
        /// The accept/reject/defer split for the posted batch.
        IngestReceipt,
    ),
    /// Blocked-record download result.
    Records(
        /// Records passing the requested confidence filter.
        Vec<GlobalRecord>,
    ),
    /// WAL shipment acknowledged up to (but not including)
    /// `applied_seq`: the replica has applied `applied_seq` lines in
    /// total. An ack *below* the shipment's `from_seq` signals a gap —
    /// the leader must rewind and re-ship from `applied_seq`.
    ShipAck {
        /// Total WAL lines the replica has applied so far.
        applied_seq: u64,
    },
    /// The request failed.
    Error {
        /// Machine-readable code (see [`DbResponse::from_store_error`]).
        code: String,
        /// Human-readable detail.
        detail: String,
        /// For `malformed` errors: the poison report's batch index.
        index: Option<usize>,
    },
}

impl DbResponse {
    /// Encode to a wire frame.
    pub fn to_frame(&self) -> Frame {
        match self {
            DbResponse::Registered(uuid) => object_frame(op::REGISTERED, |w| {
                w.key("uuid");
                uuid.write_json(w);
            }),
            DbResponse::Receipt(r) => object_frame(op::RECEIPT, |w| {
                w.key("accepted");
                w.u64(r.accepted as u64);
                w.key("deferred_indices");
                write_indices(&r.deferred_indices, w);
                w.key("rejected");
                w.u64(r.rejected as u64);
                w.key("rejected_indices");
                write_indices(&r.rejected_indices, w);
            }),
            DbResponse::Records(records) => object_frame(op::RECORDS, |w| {
                w.key("records");
                w.begin_array();
                for record in records {
                    record.write_json(w);
                }
                w.end_array();
            }),
            DbResponse::ShipAck { applied_seq } => object_frame(op::SHIP_ACK, |w| {
                w.key("applied_seq");
                w.u64(*applied_seq);
            }),
            DbResponse::Error {
                code,
                detail,
                index,
            } => object_frame(op::ERROR, |w| {
                w.key("code");
                w.str(code);
                w.key("detail");
                w.str(detail);
                if let Some(i) = index {
                    w.key("index");
                    w.u64(*i as u64);
                }
            }),
        }
    }

    /// Decode from a wire frame.
    pub fn from_frame(frame: &Frame) -> Result<DbResponse, StoreError> {
        match frame.op {
            op::REGISTERED => {
                let mut uuid = None;
                read_object(frame, |key, r| match key {
                    "uuid" => Uuid::read_json(r).map(|v| uuid = v),
                    _ => r.skip(),
                })?;
                Ok(DbResponse::Registered(
                    uuid.ok_or(shape("uuid must be a hex string"))?,
                ))
            }
            op::RECEIPT => {
                let (mut accepted, mut rejected) = (None, None);
                let (mut rejected_indices, mut deferred_indices) = (None, None);
                read_object(frame, |key, r| match key {
                    "accepted" => r.u64().map(|v| accepted = v),
                    "rejected" => r.u64().map(|v| rejected = v),
                    "rejected_indices" => read_indices(r).map(|v| rejected_indices = Some(v)),
                    "deferred_indices" => read_indices(r).map(|v| deferred_indices = Some(v)),
                    _ => r.skip(),
                })?;
                Ok(DbResponse::Receipt(IngestReceipt {
                    accepted: accepted.ok_or(shape("accepted must be a u64"))? as usize,
                    rejected: rejected.ok_or(shape("rejected must be a u64"))? as usize,
                    rejected_indices: rejected_indices
                        .ok_or(shape("indices must be an array"))??,
                    deferred_indices: deferred_indices
                        .ok_or(shape("indices must be an array"))??,
                }))
            }
            op::RECORDS => {
                let mut records = None;
                read_object(frame, |key, r| match key {
                    "records" => {
                        read_array_of(r, "records must be an array", GlobalRecord::read_json)
                            .map(|v| records = Some(v))
                    }
                    _ => r.skip(),
                })?;
                Ok(DbResponse::Records(
                    records.ok_or(shape("records must be an array"))??,
                ))
            }
            op::SHIP_ACK => {
                let mut applied_seq = None;
                read_object(frame, |key, r| match key {
                    "applied_seq" => r.u64().map(|v| applied_seq = v),
                    _ => r.skip(),
                })?;
                Ok(DbResponse::ShipAck {
                    applied_seq: applied_seq.ok_or(shape("applied_seq must be a u64"))?,
                })
            }
            op::ERROR => {
                let (mut code, mut detail, mut index) = (None, None, None);
                read_object(frame, |key, r| match key {
                    "code" => r.str().map(|v| code = v),
                    "detail" => r.str().map(|v| detail = v),
                    "index" => r.u64().map(|v| index = v),
                    _ => r.skip(),
                })?;
                Ok(DbResponse::Error {
                    code: code
                        .ok_or(shape("error code must be a string"))?
                        .into_owned(),
                    detail: detail.map_or_else(String::new, Cow::into_owned),
                    index: index.map(|n| n as usize),
                })
            }
            _ => {
                read_object(frame, |_, r| r.skip())?;
                Err(shape("unknown response opcode"))
            }
        }
    }

    /// Wrap a [`StoreError`] as a wire error response.
    pub fn from_store_error(e: &StoreError) -> DbResponse {
        let (code, index) = match e {
            StoreError::UnknownClient => ("unknown_client", None),
            StoreError::Wire(_) => ("wire", None),
            StoreError::Malformed { index, .. } => ("malformed", Some(*index)),
            StoreError::Io { .. } => ("io", None),
            StoreError::Corrupt(_) => ("corrupt", None),
            StoreError::InvalidConfig(_) => ("invalid_config", None),
            StoreError::Unavailable(_) => ("unavailable", None),
        };
        DbResponse::Error {
            code: code.to_string(),
            detail: e.to_string(),
            index,
        }
    }

    /// Map a wire error response back to a [`StoreError`] on the client
    /// side. `&'static str` payloads cannot round-trip arbitrary remote
    /// detail, so retryability (the part callers branch on) is preserved
    /// exactly and the detail is folded into `Corrupt` otherwise.
    pub fn to_store_error(code: &str, detail: &str, index: Option<usize>) -> StoreError {
        match code {
            "unknown_client" => StoreError::UnknownClient,
            "wire" => shape("batch rejected by remote server"),
            "malformed" => StoreError::Malformed {
                index: index.unwrap_or(0),
                reason: WireError::Shape("report rejected by remote server"),
            },
            "unavailable" => StoreError::Unavailable("remote server unavailable"),
            _ => StoreError::Corrupt(format!("remote error {code}: {detail}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_censor::blocking::BlockingType;

    fn sample_reports() -> Vec<Report> {
        vec![
            Report {
                url: "http://blocked.example/".into(),
                asn: 17557,
                measured_at_us: 1_000_000,
                stages: vec![BlockingType::DnsHijack, BlockingType::HttpDrop],
            },
            Report {
                url: "https://other.example:8443/page".into(),
                asn: 38193,
                measured_at_us: 2_000_000,
                stages: vec![BlockingType::HttpBlockPageRedirect],
            },
        ]
    }

    #[test]
    fn request_frames_roundtrip() {
        let reqs = vec![
            DbRequest::Register {
                now: SimTime::from_secs(5),
                risk: 0.25,
            },
            DbRequest::Post {
                client: Uuid::from_raw(0xdead_beef_dead_beef),
                posted_at: SimTime::from_secs(9),
                reports: sample_reports(),
            },
            DbRequest::Blocked {
                asn: Asn(17557),
                filter: ConfidenceFilter {
                    min_clients: 3,
                    min_avg_vote: 0.5,
                },
            },
            DbRequest::Ship {
                from_seq: 42,
                lines: vec![
                    "{\"op\":\"revoke\",\"client\":\"0000000000000003\"}".to_string(),
                    "{\"op\":\"expire\",\"now_us\":9,\"max_age_us\":1}".to_string(),
                ],
            },
            DbRequest::Ship {
                from_seq: 0,
                lines: Vec::new(),
            },
        ];
        for req in reqs {
            let frame = req.to_frame();
            assert_eq!(DbRequest::from_frame(&frame).unwrap(), req);
        }
    }

    #[test]
    fn response_frames_roundtrip() {
        let resps = vec![
            DbResponse::Registered(Uuid::from_raw(u64::MAX)),
            DbResponse::Receipt(IngestReceipt {
                accepted: 3,
                rejected: 1,
                rejected_indices: vec![2],
                deferred_indices: vec![4, 5],
            }),
            DbResponse::Records(vec![GlobalRecord {
                url: "http://blocked.example/".into(),
                asn: Asn(17557),
                measured_at: SimTime::from_secs(1),
                stages: vec![BlockingType::IpRst],
                posted_at: SimTime::from_secs(2),
                reporter: Uuid::from_raw(0x1234_5678_9abc_def0),
            }]),
            DbResponse::ShipAck { applied_seq: 44 },
            DbResponse::Error {
                code: "unknown_client".into(),
                detail: "unknown or revoked client UUID".into(),
                index: None,
            },
        ];
        for resp in resps {
            let frame = resp.to_frame();
            assert_eq!(DbResponse::from_frame(&frame).unwrap(), resp);
        }
    }

    #[test]
    fn uuid_hex_survives_full_u64_range() {
        // The JSON number space is f64-backed; the hex-string encoding
        // must carry ids a double cannot.
        let resp = DbResponse::Registered(Uuid::from_raw(u64::MAX - 1));
        match DbResponse::from_frame(&resp.to_frame()).unwrap() {
            DbResponse::Registered(u) => assert_eq!(u.raw(), u64::MAX - 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn times_above_two_to_the_53_cross_exactly() {
        // Integers are written and read as digits, never through f64.
        let big = u64::MAX - 1;
        let resp = DbResponse::Records(vec![GlobalRecord {
            url: "http://blocked.example/".into(),
            asn: Asn(u32::MAX),
            measured_at: SimTime::from_micros(big),
            stages: vec![BlockingType::IpRst],
            posted_at: SimTime::from_micros(big - 1),
            reporter: Uuid::from_raw(big),
        }]);
        let frame = resp.to_frame();
        let text = std::str::from_utf8(&frame.payload).unwrap();
        let stage = BlockingType::IpRst.code();
        assert_eq!(
            text,
            format!(
                "{{\"records\":[[4294967295,18446744073709551614,18446744073709551613,\
                 \"fffffffffffffffe\",[{stage}],\"http://blocked.example/\"]]}}"
            )
        );
        assert_eq!(DbResponse::from_frame(&frame).unwrap(), resp);
        let ship = DbRequest::Ship {
            from_seq: big,
            lines: Vec::new(),
        };
        assert_eq!(DbRequest::from_frame(&ship.to_frame()).unwrap(), ship);
        // One past u64::MAX is not a u64, in digits or as a float.
        for too_big in ["18446744073709551616", "1.8446744073709552e19"] {
            let f = Frame::new(
                op::SHIP_ACK,
                format!("{{\"applied_seq\":{too_big}}}").into_bytes(),
            );
            assert_eq!(
                DbResponse::from_frame(&f).unwrap_err(),
                shape("applied_seq must be a u64")
            );
        }
    }

    #[test]
    fn poison_post_report_names_its_index() {
        let good = Report {
            url: "http://x.example/".into(),
            asn: 1,
            measured_at_us: 0,
            stages: vec![BlockingType::HttpDrop],
        };
        let req = DbRequest::Post {
            client: Uuid::from_raw(1),
            posted_at: SimTime::ZERO,
            reports: vec![good],
        };
        let mut frame = req.to_frame();
        // Corrupt the reports array: replace the url value with a number.
        let text = String::from_utf8(frame.payload.clone()).unwrap();
        let text = text.replace("\"http://x.example/\"", "5");
        frame.payload = text.into_bytes();
        match DbRequest::from_frame(&frame).unwrap_err() {
            StoreError::Malformed { index, .. } => assert_eq!(index, 0),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn store_error_wire_mapping_preserves_retryability() {
        let cases = [
            StoreError::UnknownClient,
            StoreError::Unavailable("overload"),
            StoreError::Malformed {
                index: 7,
                reason: WireError::Shape("bad"),
            },
        ];
        for e in cases {
            let resp = DbResponse::from_store_error(&e);
            let DbResponse::Error {
                code,
                detail,
                index,
            } = &resp
            else {
                panic!("expected error response");
            };
            let back = DbResponse::to_store_error(code, detail, *index);
            match (&e, &back) {
                (StoreError::UnknownClient, StoreError::UnknownClient) => {}
                (StoreError::Unavailable(_), StoreError::Unavailable(_)) => {}
                (
                    StoreError::Malformed { index: a, .. },
                    StoreError::Malformed { index: b, .. },
                ) => assert_eq!(a, b),
                other => panic!("mapping broke retryability: {other:?}"),
            }
        }
    }

    #[test]
    fn bad_payloads_are_wire_errors() {
        let garbage = Frame::new(op::POST, b"not json".to_vec());
        assert!(matches!(
            DbRequest::from_frame(&garbage).unwrap_err(),
            StoreError::Wire(_)
        ));
        let unknown = Frame::new(0x70, b"{}".to_vec());
        assert!(matches!(
            DbRequest::from_frame(&unknown).unwrap_err(),
            StoreError::Wire(_)
        ));
        let not_utf8 = Frame::new(op::RECEIPT, vec![0xff, 0xfe]);
        assert!(matches!(
            DbResponse::from_frame(&not_utf8).unwrap_err(),
            StoreError::Wire(_)
        ));
    }
}
