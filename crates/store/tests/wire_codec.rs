//! Differential and mutation test of the typed wire codecs.
//!
//! `csaw_store::net`, `csaw_store::wal` and the report-batch codec read
//! and write JSON straight off `JsonReader` / `JsonWriter`. They used to
//! build a `JsonValue` tree and walk it once; [`reference`] keeps those
//! tree codecs as the specification. For DetRng-generated requests,
//! responses, WAL lines and batches this test checks that
//!
//! 1. decode(encode(x)) == x,
//! 2. the typed encoder's bytes equal the tree encoder's,
//! 3. on every truncation of the encoding, and on seeded byte flips and
//!    splices of it, the typed decoder does not panic and returns
//!    exactly what the tree decoder returns — the same value, or the
//!    same error (so the same `Malformed` index, the same
//!    `Wire`/`Corrupt` split and the same JSON error offset).
//!
//! One input class is outside (3): a run of 16 or more digits can spell
//! an integer above 2^53, which the typed path reads exactly and the
//! f64-backed tree rounds. Those inputs are counted and skipped here;
//! the exact reading has its own tests in `net` and `wal`.
//!
//! `RECORDS` carries each record as a positional array with its stages
//! as numeric codes; [`reference`] builds and walks that as a tree too.
//!
//! `SHIP` payloads are not JSON: `from_seq`, then each WAL line behind
//! its `u32` length. [`reference`] specifies that layout with a byte
//! cursor of its own, so the sweeps above hold the typed `SHIP` codec
//! to it too — and the last two tests spell out its edges.

use csaw_censor::blocking::BlockingType;
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use csaw_store::ledger::VoteLedger;
use csaw_store::net::op;
use csaw_store::{
    wal, Batch, ConfidenceFilter, DbRequest, DbResponse, GlobalRecord, IngestReceipt, Report,
    ShardedStore, StorageBackend, StoreError, Tally, Uuid, WireError,
};
use csaw_webproto::codec::Frame;
use std::sync::Mutex;

/// What a WAL line asks a backend to do.
#[derive(Debug, Clone, PartialEq)]
enum WalOp {
    Ingest(Batch),
    Revoke(Uuid),
    RemoveReporter(Uuid),
    Expire(SimTime, SimDuration),
}

/// The tree codecs the typed ones replaced, kept as they were.
mod reference {
    use super::WalOp;
    use csaw_censor::blocking::BlockingType;
    use csaw_obs::json::JsonValue;
    use csaw_simnet::time::{SimDuration, SimTime};
    use csaw_simnet::topology::Asn;
    use csaw_store::net::op;
    use csaw_store::{
        Batch, ConfidenceFilter, DbRequest, DbResponse, GlobalRecord, IngestReceipt, Report,
        StoreError, Uuid, WireError,
    };
    use csaw_webproto::codec::Frame;

    fn shape(msg: &'static str) -> StoreError {
        StoreError::Wire(WireError::Shape(msg))
    }

    fn corrupt(msg: &str) -> StoreError {
        StoreError::Corrupt(msg.into())
    }

    fn parse_payload(frame: &Frame) -> Result<JsonValue, StoreError> {
        let text = std::str::from_utf8(&frame.payload)
            .map_err(|_| shape("frame payload must be UTF-8 JSON"))?;
        JsonValue::parse(text).map_err(|e| StoreError::Wire(WireError::Json(e)))
    }

    fn uuid_to_json(u: Uuid) -> JsonValue {
        JsonValue::from(u.to_string())
    }

    fn uuid_from_json(v: Option<&JsonValue>) -> Option<Uuid> {
        v.and_then(JsonValue::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .map(Uuid::from_raw)
    }

    fn wire_uuid(v: Option<&JsonValue>) -> Result<Uuid, StoreError> {
        uuid_from_json(v).ok_or(shape("uuid must be a hex string"))
    }

    fn indices_to_json(ix: &[usize]) -> JsonValue {
        JsonValue::Arr(ix.iter().map(|&i| JsonValue::from(i as u64)).collect())
    }

    fn indices_from_json(v: Option<&JsonValue>) -> Result<Vec<usize>, StoreError> {
        v.and_then(JsonValue::as_arr)
            .ok_or(shape("indices must be an array"))?
            .iter()
            .map(|i| {
                i.as_u64()
                    .map(|n| n as usize)
                    .ok_or(shape("index must be a number"))
            })
            .collect()
    }

    fn stages_to_json(stages: &[BlockingType]) -> JsonValue {
        JsonValue::Arr(stages.iter().map(|s| JsonValue::from(s.name())).collect())
    }

    fn stages_from_json(v: Option<&JsonValue>) -> Result<Vec<BlockingType>, WireError> {
        v.and_then(JsonValue::as_arr)
            .ok_or(WireError::Shape("stages must be an array"))?
            .iter()
            .map(|s| s.as_str().and_then(BlockingType::from_name))
            .collect::<Option<Vec<_>>>()
            .ok_or(WireError::Shape("unknown blocking type"))
    }

    fn report_to_json(r: &Report) -> JsonValue {
        let mut v = JsonValue::obj();
        v.set("url", r.url.as_str());
        v.set("asn", r.asn);
        v.set("measured_at_us", r.measured_at_us);
        v.set("stages", stages_to_json(&r.stages));
        v
    }

    fn report_from_json(v: &JsonValue) -> Result<Report, WireError> {
        let shape = WireError::Shape;
        let url = v
            .get("url")
            .and_then(JsonValue::as_str)
            .ok_or(shape("url must be a string"))?
            .to_string();
        let asn = v
            .get("asn")
            .and_then(JsonValue::as_u64)
            .and_then(|n| u32::try_from(n).ok())
            .ok_or(shape("asn must be a u32"))?;
        let measured_at_us = v
            .get("measured_at_us")
            .and_then(JsonValue::as_u64)
            .ok_or(shape("measured_at_us must be a u64"))?;
        let stages = stages_from_json(v.get("stages"))?;
        Ok(Report {
            url,
            asn,
            measured_at_us,
            stages,
        })
    }

    fn reports_to_json(reports: &[Report]) -> JsonValue {
        JsonValue::Arr(reports.iter().map(report_to_json).collect())
    }

    /// The first undecodable report is `Malformed` with its index.
    fn reports_from_json(arr: &[JsonValue]) -> Result<Vec<Report>, StoreError> {
        arr.iter()
            .enumerate()
            .map(|(index, item)| {
                report_from_json(item).map_err(|reason| StoreError::Malformed { index, reason })
            })
            .collect()
    }

    /// A record is `[asn, measured_at_us, posted_at_us, reporter,
    /// [stage, ..], url]`; a stage is its position in
    /// `BlockingType::ALL`.
    fn record_to_json(r: &GlobalRecord) -> JsonValue {
        let codes = r.stages.iter().map(|s| {
            let i = BlockingType::ALL.iter().position(|t| t == s).unwrap();
            JsonValue::from(i as u64)
        });
        JsonValue::Arr(vec![
            JsonValue::from(r.asn.0),
            JsonValue::from(r.measured_at.as_micros()),
            JsonValue::from(r.posted_at.as_micros()),
            uuid_to_json(r.reporter),
            JsonValue::Arr(codes.collect()),
            JsonValue::from(r.url.as_str()),
        ])
    }

    fn record_from_json(v: &JsonValue) -> Result<GlobalRecord, StoreError> {
        let f = v
            .as_arr()
            .filter(|f| f.len() == 6)
            .ok_or(shape("record must be an array of its 6 fields"))?;
        let stages = f[4].as_arr().ok_or(shape("stages must be an array"));
        let stages = stages.and_then(|codes| {
            codes
                .iter()
                .map(|s| {
                    s.as_u64()
                        .and_then(|n| usize::try_from(n).ok())
                        .and_then(|i| BlockingType::ALL.get(i).copied())
                })
                .collect::<Option<Vec<_>>>()
                .ok_or(shape("unknown blocking type"))
        });
        Ok(GlobalRecord {
            asn: Asn(f[0]
                .as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or(shape("record asn must be a u32"))?),
            measured_at: SimTime::from_micros(
                f[1].as_u64()
                    .ok_or(shape("record measured_at_us must be a u64"))?,
            ),
            posted_at: SimTime::from_micros(
                f[2].as_u64()
                    .ok_or(shape("record posted_at_us must be a u64"))?,
            ),
            reporter: wire_uuid(Some(&f[3]))?,
            stages: stages?,
            url: f[5]
                .as_str()
                .ok_or(shape("record url must be a string"))?
                .to_string(),
        })
    }

    pub fn encode_batch(reports: &[Report]) -> String {
        reports_to_json(reports).to_string_compact()
    }

    pub fn decode_batch(s: &str) -> Result<Vec<Report>, WireError> {
        let v = JsonValue::parse(s).map_err(WireError::Json)?;
        v.as_arr()
            .ok_or(WireError::Shape("batch must be an array"))?
            .iter()
            .map(report_from_json)
            .collect()
    }

    /// `from_seq:u64 BE`, then `len:u32 BE | line bytes` per line.
    fn ship_to_bytes(from_seq: u64, lines: &[String]) -> Vec<u8> {
        let mut out: Vec<u8> = (0..8).rev().map(|i| (from_seq >> (8 * i)) as u8).collect();
        for line in lines {
            let n = line.len();
            out.extend((0..4).rev().map(|i| (n >> (8 * i)) as u8));
            out.extend(line.bytes());
        }
        out
    }

    fn ship_from_bytes(p: &[u8]) -> Result<DbRequest, StoreError> {
        if p.len() < 8 {
            return Err(shape("SHIP payload must start with a u64 from_seq"));
        }
        let from_seq = p[..8].iter().fold(0u64, |n, &b| n << 8 | u64::from(b));
        let (mut at, mut lines) = (8, Vec::new());
        while at < p.len() {
            if p.len() - at < 4 {
                return Err(shape("SHIP line length is cut short"));
            }
            let len = p[at..at + 4]
                .iter()
                .fold(0usize, |n, &b| n << 8 | usize::from(b));
            at += 4;
            if p.len() - at < len {
                return Err(shape("SHIP line overruns the payload"));
            }
            let line = String::from_utf8(p[at..at + len].to_vec())
                .map_err(|_| shape("WAL line must be UTF-8"))?;
            lines.push(line);
            at += len;
        }
        Ok(DbRequest::Ship { from_seq, lines })
    }

    pub fn request_to_frame(req: &DbRequest) -> Frame {
        if let DbRequest::Ship { from_seq, lines } = req {
            return Frame::new(op::SHIP, ship_to_bytes(*from_seq, lines));
        }
        let mut v = JsonValue::obj();
        let op = match req {
            DbRequest::Register { now, risk } => {
                v.set("now_us", now.as_micros());
                v.set("risk", *risk);
                op::REGISTER
            }
            DbRequest::Post {
                client,
                posted_at,
                reports,
            } => {
                v.set("client", uuid_to_json(*client));
                v.set("posted_at_us", posted_at.as_micros());
                v.set("reports", reports_to_json(reports));
                op::POST
            }
            DbRequest::Blocked { asn, filter } => {
                v.set("asn", asn.0);
                v.set("min_clients", filter.min_clients as u64);
                v.set("min_avg_vote", filter.min_avg_vote);
                op::BLOCKED
            }
            DbRequest::Ship { .. } => unreachable!("SHIP is encoded above"),
        };
        Frame::new(op, v.to_string_compact().into_bytes())
    }

    pub fn request_from_frame(frame: &Frame) -> Result<DbRequest, StoreError> {
        if frame.op == op::SHIP {
            return ship_from_bytes(&frame.payload);
        }
        let v = parse_payload(frame)?;
        match frame.op {
            op::REGISTER => Ok(DbRequest::Register {
                now: SimTime::from_micros(
                    v.get("now_us")
                        .and_then(JsonValue::as_u64)
                        .ok_or(shape("now_us must be a u64"))?,
                ),
                risk: v
                    .get("risk")
                    .and_then(JsonValue::as_f64)
                    .ok_or(shape("risk must be a number"))?,
            }),
            op::POST => Ok(DbRequest::Post {
                client: wire_uuid(v.get("client"))?,
                posted_at: SimTime::from_micros(
                    v.get("posted_at_us")
                        .and_then(JsonValue::as_u64)
                        .ok_or(shape("posted_at_us must be a u64"))?,
                ),
                reports: reports_from_json(
                    v.get("reports")
                        .and_then(JsonValue::as_arr)
                        .ok_or(shape("reports must be an array"))?,
                )?,
            }),
            op::BLOCKED => Ok(DbRequest::Blocked {
                asn: Asn(v
                    .get("asn")
                    .and_then(JsonValue::as_u64)
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or(shape("asn must be a u32"))?),
                filter: ConfidenceFilter {
                    min_clients: v
                        .get("min_clients")
                        .and_then(JsonValue::as_u64)
                        .ok_or(shape("min_clients must be a u64"))?
                        as usize,
                    min_avg_vote: v
                        .get("min_avg_vote")
                        .and_then(JsonValue::as_f64)
                        .ok_or(shape("min_avg_vote must be a number"))?,
                },
            }),
            _ => Err(shape("unknown request opcode")),
        }
    }

    pub fn response_to_frame(resp: &DbResponse) -> Frame {
        let mut v = JsonValue::obj();
        let op = match resp {
            DbResponse::Registered(uuid) => {
                v.set("uuid", uuid_to_json(*uuid));
                op::REGISTERED
            }
            DbResponse::Receipt(r) => {
                v.set("accepted", r.accepted as u64);
                v.set("rejected", r.rejected as u64);
                v.set("rejected_indices", indices_to_json(&r.rejected_indices));
                v.set("deferred_indices", indices_to_json(&r.deferred_indices));
                op::RECEIPT
            }
            DbResponse::Records(records) => {
                v.set(
                    "records",
                    JsonValue::Arr(records.iter().map(record_to_json).collect()),
                );
                op::RECORDS
            }
            DbResponse::ShipAck { applied_seq } => {
                v.set("applied_seq", *applied_seq);
                op::SHIP_ACK
            }
            DbResponse::Error {
                code,
                detail,
                index,
            } => {
                v.set("code", code.as_str());
                v.set("detail", detail.as_str());
                if let Some(i) = index {
                    v.set("index", *i as u64);
                }
                op::ERROR
            }
        };
        Frame::new(op, v.to_string_compact().into_bytes())
    }

    pub fn response_from_frame(frame: &Frame) -> Result<DbResponse, StoreError> {
        let v = parse_payload(frame)?;
        match frame.op {
            op::REGISTERED => Ok(DbResponse::Registered(wire_uuid(v.get("uuid"))?)),
            op::RECEIPT => Ok(DbResponse::Receipt(IngestReceipt {
                accepted: v
                    .get("accepted")
                    .and_then(JsonValue::as_u64)
                    .ok_or(shape("accepted must be a u64"))? as usize,
                rejected: v
                    .get("rejected")
                    .and_then(JsonValue::as_u64)
                    .ok_or(shape("rejected must be a u64"))? as usize,
                rejected_indices: indices_from_json(v.get("rejected_indices"))?,
                deferred_indices: indices_from_json(v.get("deferred_indices"))?,
            })),
            op::RECORDS => Ok(DbResponse::Records(
                v.get("records")
                    .and_then(JsonValue::as_arr)
                    .ok_or(shape("records must be an array"))?
                    .iter()
                    .map(record_from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            )),
            op::SHIP_ACK => Ok(DbResponse::ShipAck {
                applied_seq: v
                    .get("applied_seq")
                    .and_then(JsonValue::as_u64)
                    .ok_or(shape("applied_seq must be a u64"))?,
            }),
            op::ERROR => Ok(DbResponse::Error {
                code: v
                    .get("code")
                    .and_then(JsonValue::as_str)
                    .ok_or(shape("error code must be a string"))?
                    .to_string(),
                detail: v
                    .get("detail")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string(),
                index: v
                    .get("index")
                    .and_then(JsonValue::as_u64)
                    .map(|n| n as usize),
            }),
            _ => Err(shape("unknown response opcode")),
        }
    }

    pub fn wal_line(op: &WalOp) -> String {
        let mut v = JsonValue::obj();
        match op {
            WalOp::Ingest(batch) => {
                v.set("op", "ingest");
                v.set("client", uuid_to_json(batch.client));
                v.set("posted_at_us", batch.posted_at.as_micros());
                v.set("reports", reports_to_json(batch.reports()));
            }
            WalOp::Revoke(client) => {
                v.set("op", "revoke");
                v.set("client", uuid_to_json(*client));
            }
            WalOp::RemoveReporter(client) => {
                v.set("op", "remove_reporter");
                v.set("client", uuid_to_json(*client));
            }
            WalOp::Expire(now, max_age) => {
                v.set("op", "expire");
                v.set("now_us", now.as_micros());
                v.set("max_age_us", max_age.as_micros());
            }
        }
        v.to_string_compact()
    }

    /// What `wal::replay_line` would apply, or the error it would give.
    pub fn wal_decode(line: &str) -> Result<WalOp, StoreError> {
        let v =
            JsonValue::parse(line).map_err(|e| StoreError::Corrupt(format!("not JSON: {e}")))?;
        let client = || {
            let c = v.get("client").ok_or_else(|| corrupt("missing client"))?;
            uuid_from_json(Some(c)).ok_or_else(|| corrupt("client must be a 16-hex-digit string"))
        };
        let op = v
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| corrupt("missing op"))?;
        match op {
            "ingest" => {
                let client = client()?;
                let posted_at = v
                    .get("posted_at_us")
                    .and_then(JsonValue::as_u64)
                    .map(SimTime::from_micros)
                    .ok_or_else(|| corrupt("missing posted_at_us"))?;
                let reports = v
                    .get("reports")
                    .and_then(JsonValue::as_arr)
                    .ok_or_else(|| corrupt("missing reports"))?
                    .iter()
                    .map(report_from_json)
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(StoreError::Wire)?;
                Ok(WalOp::Ingest(Batch::new(client, reports, posted_at)))
            }
            "revoke" => Ok(WalOp::Revoke(client()?)),
            "remove_reporter" => Ok(WalOp::RemoveReporter(client()?)),
            "expire" => {
                let now = v
                    .get("now_us")
                    .and_then(JsonValue::as_u64)
                    .map(SimTime::from_micros)
                    .ok_or_else(|| corrupt("missing now_us"))?;
                let max_age = v
                    .get("max_age_us")
                    .and_then(JsonValue::as_u64)
                    .map(SimDuration::from_micros)
                    .ok_or_else(|| corrupt("missing max_age_us"))?;
                Ok(WalOp::Expire(now, max_age))
            }
            other => Err(StoreError::Corrupt(format!("unknown op {other:?}"))),
        }
    }
}

/// A backend that records the one mutation `wal::replay_line` applies.
#[derive(Debug)]
struct Recorder {
    applied: Mutex<Vec<WalOp>>,
    inner: ShardedStore,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            applied: Mutex::new(Vec::new()),
            inner: ShardedStore::new(1).unwrap(),
        }
    }

    fn record(&self, op: WalOp) {
        self.applied.lock().unwrap().push(op);
    }

    /// Replay one line and report what reached the backend.
    fn replay(&self, line: &str) -> Result<WalOp, StoreError> {
        let result = wal::replay_line(self, line);
        let mut applied = std::mem::take(&mut *self.applied.lock().unwrap());
        match result {
            Ok(()) => {
                assert_eq!(applied.len(), 1, "one line is one mutation: {line:?}");
                Ok(applied.remove(0))
            }
            Err(e) => {
                assert!(applied.is_empty(), "a failed line touched the backend");
                Err(e)
            }
        }
    }
}

impl StorageBackend for Recorder {
    fn ingest(&self, batch: &Batch) -> Result<IngestReceipt, StoreError> {
        self.record(WalOp::Ingest(batch.clone()));
        Ok(IngestReceipt::default())
    }
    fn blocked_for_as(
        &self,
        asn: Asn,
        filter: &ConfidenceFilter,
    ) -> Result<Vec<GlobalRecord>, StoreError> {
        self.inner.blocked_for_as(asn, filter)
    }
    fn tally(&self, url: &str, asn: Asn) -> Tally {
        self.inner.tally(url, asn)
    }
    fn revoke(&self, client: Uuid) {
        self.record(WalOp::Revoke(client));
    }
    fn remove_reporter_records(&self, client: Uuid) -> usize {
        self.record(WalOp::RemoveReporter(client));
        0
    }
    fn expire_records(&self, now: SimTime, max_age: SimDuration) -> usize {
        self.record(WalOp::Expire(now, max_age));
        0
    }
    fn record_count(&self) -> usize {
        self.inner.record_count()
    }
    fn for_each_record(&self, f: &mut dyn FnMut(&GlobalRecord)) {
        self.inner.for_each_record(f);
    }
    fn ledger(&self) -> &VoteLedger {
        self.inner.ledger()
    }
    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }
}

// ---- generators -----------------------------------------------------

/// Times and sequence numbers stay below 10^15 so they print in at most
/// 15 digits (see the module docs on wide integers).
const MAX_TIME: u64 = 999_999_999_999_999;

fn gen_string(rng: &mut DetRng) -> String {
    const PIECES: [&str; 16] = [
        "http://", "example", ".", "/", "é", "€", "😀", "\"", "\\", "\n", "\t", "\u{1}", "\u{7f}",
        " ", "q=1&r", "\\u0041",
    ];
    (0..rng.index(9))
        .map(|_| PIECES[rng.index(PIECES.len())])
        .collect()
}

fn gen_stages(rng: &mut DetRng) -> Vec<BlockingType> {
    (0..rng.index(6))
        .map(|_| BlockingType::ALL[rng.index(BlockingType::ALL.len())])
        .collect()
}

fn gen_u32(rng: &mut DetRng) -> u32 {
    match rng.index(4) {
        0 => u32::MAX,
        1 => 0,
        _ => rng.range_u64(0, u64::from(u32::MAX)) as u32,
    }
}

fn gen_uuid(rng: &mut DetRng) -> Uuid {
    Uuid::from_raw(match rng.index(4) {
        0 => u64::MAX - rng.range_u64(0, 3),
        _ => rng.range_u64(0, u64::MAX),
    })
}

fn gen_time(rng: &mut DetRng) -> u64 {
    rng.range_u64(0, MAX_TIME)
}

fn gen_report(rng: &mut DetRng) -> Report {
    Report {
        url: gen_string(rng),
        asn: gen_u32(rng),
        measured_at_us: gen_time(rng),
        stages: gen_stages(rng),
    }
}

fn gen_reports(rng: &mut DetRng) -> Vec<Report> {
    (0..rng.index(4)).map(|_| gen_report(rng)).collect()
}

fn gen_record(rng: &mut DetRng) -> GlobalRecord {
    GlobalRecord {
        url: gen_string(rng),
        asn: Asn(gen_u32(rng)),
        measured_at: SimTime::from_micros(gen_time(rng)),
        stages: gen_stages(rng),
        posted_at: SimTime::from_micros(gen_time(rng)),
        reporter: gen_uuid(rng),
    }
}

fn gen_indices(rng: &mut DetRng) -> Vec<usize> {
    (0..rng.index(4)).map(|_| rng.index(1000)).collect()
}

fn gen_wal_op(rng: &mut DetRng) -> WalOp {
    match rng.index(5) {
        0 | 1 => WalOp::Ingest(Batch::new(
            gen_uuid(rng),
            gen_reports(rng),
            SimTime::from_micros(gen_time(rng)),
        )),
        2 => WalOp::Revoke(gen_uuid(rng)),
        3 => WalOp::RemoveReporter(gen_uuid(rng)),
        _ => WalOp::Expire(
            SimTime::from_micros(gen_time(rng)),
            SimDuration::from_micros(gen_time(rng)),
        ),
    }
}

fn wal_line(op: &WalOp) -> String {
    match op {
        WalOp::Ingest(batch) => wal::ingest_line(batch),
        WalOp::Revoke(client) => wal::revoke_line(*client),
        WalOp::RemoveReporter(client) => wal::remove_reporter_line(*client),
        WalOp::Expire(now, max_age) => wal::expire_line(*now, *max_age),
    }
}

fn gen_request(rng: &mut DetRng) -> DbRequest {
    match rng.index(6) {
        0 => DbRequest::Register {
            now: SimTime::from_micros(gen_time(rng)),
            risk: rng.f64(),
        },
        1..=3 => DbRequest::Post {
            client: gen_uuid(rng),
            posted_at: SimTime::from_micros(gen_time(rng)),
            reports: gen_reports(rng),
        },
        4 => DbRequest::Blocked {
            asn: Asn(gen_u32(rng)),
            filter: ConfidenceFilter {
                min_clients: rng.index(50),
                min_avg_vote: rng.f64(),
            },
        },
        _ => DbRequest::Ship {
            from_seq: gen_time(rng),
            lines: (0..rng.index(3))
                .map(|_| wal_line(&gen_wal_op(rng)))
                .collect(),
        },
    }
}

fn gen_response(rng: &mut DetRng) -> DbResponse {
    match rng.index(7) {
        0 => DbResponse::Registered(gen_uuid(rng)),
        1 => DbResponse::Receipt(IngestReceipt {
            accepted: rng.index(5000),
            rejected: rng.index(100),
            rejected_indices: gen_indices(rng),
            deferred_indices: gen_indices(rng),
        }),
        2..=4 => DbResponse::Records((0..rng.index(4)).map(|_| gen_record(rng)).collect()),
        5 => DbResponse::ShipAck {
            applied_seq: gen_time(rng),
        },
        _ => DbResponse::Error {
            code: ["malformed", "wire", "unknown_client", ""][rng.index(4)].to_string(),
            detail: gen_string(rng),
            index: rng.chance(0.5).then(|| rng.index(100)),
        },
    }
}

// ---- mutation -------------------------------------------------------

/// Bytes that change what a JSON tokenizer does next.
const STRUCTURAL: &[u8] = b"\"\\{}[],:0123456789-+.eE tfnu\x00\x1f\x7f\x80\xc3\xff";

/// Every key the codecs know, plus one they do not.
const KEYS: [&str; 26] = [
    "url",
    "asn",
    "measured_at_us",
    "stages",
    "posted_at_us",
    "reporter",
    "client",
    "reports",
    "now_us",
    "risk",
    "min_clients",
    "min_avg_vote",
    "uuid",
    "accepted",
    "rejected",
    "rejected_indices",
    "deferred_indices",
    "records",
    "applied_seq",
    "code",
    "detail",
    "index",
    "op",
    "max_age_us",
    "zzz",
    "",
];

/// Values of every type, at the edges of what the fields accept.
const VALUES: [&str; 16] = [
    "0",
    "7",
    "4294967295",
    "4294967296",
    "-1",
    "1.5",
    "5.0",
    "1e3",
    "\"ff\"",
    "\"HttpDrop\"",
    "\"revoke\"",
    "null",
    "true",
    "[]",
    "[\"IpRst\",7]",
    "{\"url\":[{}]}",
];

/// Keep the text well-formed but change what it says: add a member at
/// the front or back of some object, so a known key arrives twice (the
/// last one must win), out of order, or with a value of the wrong type.
fn inject_member(rng: &mut DetRng, bytes: &mut Vec<u8>) {
    let (mut in_string, mut escaped) = (false, false);
    let mut braces = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
        } else if b == b'"' {
            in_string = true;
        } else if b == b'{' || b == b'}' {
            braces.push(i);
        }
    }
    if braces.is_empty() {
        return;
    }
    let at = braces[rng.index(braces.len())];
    let member = format!(
        "\"{}\":{}",
        KEYS[rng.index(KEYS.len())],
        VALUES[rng.index(VALUES.len())]
    );
    // `{}` gains a lone member; otherwise a comma joins it to the rest.
    let empty = bytes[at] == b'{' && bytes.get(at + 1) == Some(&b'}')
        || bytes[at] == b'}' && at > 0 && bytes[at - 1] == b'{';
    let (pos, text) = match (bytes[at], empty) {
        (b'{', true) => (at + 1, member),
        (b'{', false) => (at + 1, format!("{member},")),
        (_, true) => (at, member),
        (_, false) => (at, format!(",{member}")),
    };
    bytes.splice(pos..pos, text.into_bytes());
}

fn mutate(rng: &mut DetRng, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..1 + rng.index(3) {
        if out.is_empty() {
            out.push(STRUCTURAL[rng.index(STRUCTURAL.len())]);
            continue;
        }
        let at = rng.index(out.len());
        match rng.index(8) {
            // Flip: one byte becomes a structural byte, or loses a bit.
            0 => out[at] = STRUCTURAL[rng.index(STRUCTURAL.len())],
            1 => out[at] ^= 1 << rng.index(8),
            // Splice: a slice of the input is copied in, cut out, or
            // laid over other bytes (long digit runs, unbalanced
            // brackets, half a member).
            2 => {
                let from = rng.index(out.len());
                let len = rng.index((out.len() - from).min(48) + 1);
                let piece = out[from..from + len].to_vec();
                out.splice(at..at, piece);
            }
            3 => {
                let len = rng.index((out.len() - at).min(48) + 1);
                out.drain(at..at + len);
            }
            4 => {
                let from = rng.index(out.len());
                let len = rng.index((out.len() - from.max(at)).min(48) + 1);
                out.copy_within(from..from + len, at);
            }
            _ => inject_member(rng, &mut out),
        }
    }
    out
}

/// Does the text hold a run of 16 or more digits? (See the module docs.)
fn has_wide_integer(bytes: &[u8]) -> bool {
    bytes
        .split(|b| !b.is_ascii_digit())
        .any(|run| run.len() >= 16)
}

/// Tallies of what the differential compared.
#[derive(Default)]
struct Counts {
    compared: usize,
    wide_skipped: usize,
    both_ok: usize,
}

const MUTATIONS_PER_CASE: usize = 12;

/// Run `check` on every truncation of `encoded` and on seeded mutations
/// of it; `check` returns whether both decoders accepted the input.
fn sweep(
    rng: &mut DetRng,
    counts: &mut Counts,
    encoded: &[u8],
    mut check: impl FnMut(&[u8]) -> bool,
) {
    let truncations = (0..encoded.len()).map(|cut| encoded[..cut].to_vec());
    let mutations: Vec<Vec<u8>> = (0..MUTATIONS_PER_CASE)
        .map(|_| mutate(rng, encoded))
        .collect();
    for input in truncations.chain(mutations) {
        if has_wide_integer(&input) {
            counts.wide_skipped += 1;
            continue;
        }
        counts.compared += 1;
        counts.both_ok += usize::from(check(&input));
    }
}

/// Mutated bytes as text, for the decoders that take `&str`.
fn lossy(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn finish(counts: &Counts, at_least: usize) {
    assert!(
        counts.compared >= at_least,
        "only {} inputs compared",
        counts.compared
    );
    // The mutations must reach past the tokenizer: many inputs still
    // decode (truncations almost never do), and few are out of scope.
    assert!(counts.both_ok >= 500, "only {} Ok inputs", counts.both_ok);
    assert!(
        counts.wide_skipped * 20 <= counts.compared,
        "{} of {} inputs skipped as wide integers",
        counts.wide_skipped,
        counts.compared
    );
}

// ---- the tests ------------------------------------------------------

#[test]
fn requests_match_the_tree_codec() {
    let mut rng = DetRng::new(0xC0DE_0001);
    let mut counts = Counts::default();
    for _ in 0..400 {
        let req = gen_request(&mut rng);
        let frame = req.to_frame();
        assert_eq!(frame, reference::request_to_frame(&req), "{req:?}");
        assert_eq!(DbRequest::from_frame(&frame).unwrap(), req);
        sweep(&mut rng, &mut counts, &frame.payload, |payload| {
            let f = Frame::new(frame.op, payload.to_vec());
            let typed = DbRequest::from_frame(&f);
            assert_eq!(
                typed,
                reference::request_from_frame(&f),
                "payload {:?}",
                lossy(payload)
            );
            typed.is_ok()
        });
    }
    finish(&counts, 10_000);
}

#[test]
fn responses_match_the_tree_codec() {
    let mut rng = DetRng::new(0xC0DE_0002);
    let mut counts = Counts::default();
    for _ in 0..400 {
        let resp = gen_response(&mut rng);
        let frame = resp.to_frame();
        assert_eq!(frame, reference::response_to_frame(&resp), "{resp:?}");
        assert_eq!(DbResponse::from_frame(&frame).unwrap(), resp);
        sweep(&mut rng, &mut counts, &frame.payload, |payload| {
            let f = Frame::new(frame.op, payload.to_vec());
            let typed = DbResponse::from_frame(&f);
            assert_eq!(
                typed,
                reference::response_from_frame(&f),
                "payload {:?}",
                lossy(payload)
            );
            typed.is_ok()
        });
    }
    finish(&counts, 10_000);
}

#[test]
fn a_payload_under_the_wrong_opcode_decodes_alike() {
    // Every payload shape against every opcode, known or not: the
    // decoders must agree on which shape error comes first.
    let mut rng = DetRng::new(0xC0DE_0003);
    let ops = [
        op::REGISTER,
        op::POST,
        op::BLOCKED,
        op::SHIP,
        op::REGISTERED,
        op::RECEIPT,
        op::RECORDS,
        op::SHIP_ACK,
        op::ERROR,
        0x70,
    ];
    for _ in 0..200 {
        let payload = if rng.chance(0.5) {
            gen_request(&mut rng).to_frame().payload
        } else {
            gen_response(&mut rng).to_frame().payload
        };
        for op in ops {
            let f = Frame::new(op, payload.clone());
            assert_eq!(DbRequest::from_frame(&f), reference::request_from_frame(&f));
            assert_eq!(
                DbResponse::from_frame(&f),
                reference::response_from_frame(&f)
            );
        }
    }
}

#[test]
fn wal_lines_match_the_tree_codec() {
    let mut rng = DetRng::new(0xC0DE_0004);
    let mut counts = Counts::default();
    let recorder = Recorder::new();
    for _ in 0..400 {
        let op = gen_wal_op(&mut rng);
        let line = wal_line(&op);
        assert_eq!(line, reference::wal_line(&op), "{op:?}");
        assert_eq!(recorder.replay(&line).unwrap(), op);
        sweep(&mut rng, &mut counts, line.as_bytes(), |bytes| {
            let text = lossy(bytes);
            let typed = recorder.replay(&text);
            assert_eq!(typed, reference::wal_decode(&text), "line {text:?}");
            typed.is_ok()
        });
    }
    finish(&counts, 10_000);
}

#[test]
fn report_batches_match_the_tree_codec() {
    let mut rng = DetRng::new(0xC0DE_0005);
    let mut counts = Counts::default();
    for _ in 0..300 {
        let reports = gen_reports(&mut rng);
        let wire = Report::encode_batch(&reports);
        assert_eq!(wire, reference::encode_batch(&reports));
        assert_eq!(Report::decode_batch(&wire).unwrap(), reports);
        sweep(&mut rng, &mut counts, wire.as_bytes(), |bytes| {
            let text = lossy(bytes);
            let typed = Report::decode_batch(&text);
            assert_eq!(typed, reference::decode_batch(&text), "batch {text:?}");
            typed.is_ok()
        });
    }
    finish(&counts, 10_000);
}

#[test]
fn members_in_any_order_with_unknown_and_duplicate_keys() {
    // What the mutations reach only by luck, spelled out: reordered
    // members, unknown keys with nested values, and duplicate keys
    // where the last one wins — even over an ill-shaped earlier one.
    let report = r#"{"url":5,"zzz":{"a":[1,{"b":null}]},"stages":["HttpDrop"],"url":"http://x.example/","measured_at_us":7,"asn":"no","asn":9}"#;
    let post = format!(
        r#" {{"reports":[{report}],"reports":[{report},{report}],"future":[[]],"posted_at_us":1e3,"client":"ff"}} "#
    );
    let f = Frame::new(op::POST, post.into_bytes());
    let typed = DbRequest::from_frame(&f).unwrap();
    assert_eq!(typed, reference::request_from_frame(&f).unwrap());
    let DbRequest::Post {
        client,
        posted_at,
        reports,
    } = typed
    else {
        panic!("expected a Post");
    };
    assert_eq!(client, Uuid::from_raw(0xff));
    assert_eq!(posted_at, SimTime::from_micros(1000));
    assert_eq!(reports.len(), 2);
    assert_eq!(reports[0].url, "http://x.example/");
    assert_eq!(reports[0].asn, 9);

    // A poison report is named by index even when the envelope's other
    // members come after it, and a later syntax error outranks it.
    let poison = r#"{"reports":[{"url":"u","asn":1,"measured_at_us":2,"stages":[]},{"url":5}],"client":"1","posted_at_us":0}"#;
    let f = Frame::new(op::POST, poison.as_bytes().to_vec());
    assert!(matches!(
        DbRequest::from_frame(&f),
        Err(StoreError::Malformed { index: 1, .. })
    ));
    assert_eq!(DbRequest::from_frame(&f), reference::request_from_frame(&f));
    let broken = poison.replace("\"posted_at_us\":0}", "\"posted_at_us\":}");
    let f = Frame::new(op::POST, broken.into_bytes());
    assert!(matches!(
        DbRequest::from_frame(&f),
        Err(StoreError::Wire(_))
    ));
    assert_eq!(DbRequest::from_frame(&f), reference::request_from_frame(&f));

    // WAL: `op` last, fields of other ops present and ill-shaped.
    let line = r#"{"reports":5,"now_us":"x","client":"0a","op":"revoke"}"#;
    let recorder = Recorder::new();
    assert_eq!(recorder.replay(line), Ok(WalOp::Revoke(Uuid::from_raw(10))));
    assert_eq!(recorder.replay(line), reference::wal_decode(line));
}

#[test]
fn ship_lines_cross_verbatim() {
    let big = "x".repeat(64 * 1024);
    let special = [
        "a line\nholding a newline",
        "\"quoted\"",
        "back\\slash \\u0041",
        "é € 😀",
    ];
    let cases: Vec<Vec<String>> = vec![
        Vec::new(),
        vec![String::new()],
        vec![String::new(), "{}".into(), String::new()],
        special.iter().map(|s| s.to_string()).collect(),
        vec![big.clone(), "after".into(), big],
    ];
    for (i, lines) in cases.into_iter().enumerate() {
        let from_seq = u64::MAX - i as u64;
        let req = DbRequest::Ship {
            from_seq,
            lines: lines.clone(),
        };
        let frame = req.to_frame();
        // Nothing but the sequence number, the lengths and the lines
        // themselves, each line's bytes as they are.
        assert_eq!(frame.payload[..8], from_seq.to_be_bytes());
        let mut at = 8;
        for line in &lines {
            let len = u32::from_be_bytes(frame.payload[at..at + 4].try_into().unwrap());
            assert_eq!(len as usize, line.len());
            assert_eq!(&frame.payload[at + 4..at + 4 + line.len()], line.as_bytes());
            at += 4 + line.len();
        }
        assert_eq!(at, frame.payload.len());
        assert_eq!(frame, reference::request_to_frame(&req));
        assert_eq!(DbRequest::from_frame(&frame).unwrap(), req);
    }
}

#[test]
fn a_cut_or_non_utf8_ship_payload_is_a_wire_error() {
    let lines = vec![
        wal::revoke_line(Uuid::from_raw(3)),
        String::new(),
        "é\n\"\\".to_string(),
        wal_line(&gen_wal_op(&mut DetRng::new(7))),
    ];
    let ship = |lines: &[String]| DbRequest::Ship {
        from_seq: 7,
        lines: lines.to_vec(),
    };
    let payload = ship(&lines).to_frame().payload;
    // Where each line ends: a cut there is a shorter shipment, since
    // the frame, not the payload, carries the length.
    let ends: Vec<usize> = std::iter::once(8)
        .chain(lines.iter().scan(8, |end, l| {
            *end += 4 + l.len();
            Some(*end)
        }))
        .collect();
    for cut in 0..payload.len() {
        let f = Frame::new(op::SHIP, payload[..cut].to_vec());
        let got = DbRequest::from_frame(&f);
        match ends.iter().position(|&end| end == cut) {
            Some(k) => assert_eq!(got, Ok(ship(&lines[..k])), "cut at {cut}"),
            None => assert!(
                matches!(got, Err(StoreError::Wire(_))),
                "cut at {cut}: {got:?}"
            ),
        }
        assert_eq!(got, reference::request_from_frame(&f), "cut at {cut}");
    }

    // A length past the end, and lines that are not UTF-8: a lone
    // continuation byte, an overlong '/', a surrogate half, a bare 0xff.
    let overlong = [&7u64.to_be_bytes()[..], &5u32.to_be_bytes(), b"four"].concat();
    let bad_lines: [&[u8]; 4] = [b"\x80", b"\xc0\xaf", b"\xed\xa0\x80", b"{\xff}"];
    let not_utf8 = bad_lines.iter().map(|line| {
        let len = (line.len() as u32).to_be_bytes();
        [&7u64.to_be_bytes()[..], &len, line].concat()
    });
    for bad in std::iter::once(overlong).chain(not_utf8) {
        let f = Frame::new(op::SHIP, bad);
        let got = DbRequest::from_frame(&f);
        assert!(
            matches!(got, Err(StoreError::Wire(_))),
            "{:?}: {got:?}",
            f.payload
        );
        assert_eq!(got, reference::request_from_frame(&f));
    }
}

#[test]
fn an_ill_shaped_record_is_a_wire_error() {
    let record = |fields: &str| {
        Frame::new(
            op::RECORDS,
            format!("{{\"records\":[[17557,1,2,\"3\",[1,13],\"http://a/\"],{fields}]}}")
                .into_bytes(),
        )
    };
    let fields = "record must be an array of its 6 fields";
    let cases: [(&str, &'static str); 10] = [
        // Stage codes one past the last variant, at the top of a byte and past it.
        ("[1,1,2,\"3\",[15],\"u\"]", "unknown blocking type"),
        ("[1,1,2,\"3\",[0,255],\"u\"]", "unknown blocking type"),
        ("[1,1,2,\"3\",[256],\"u\"]", "unknown blocking type"),
        ("[1,1,2,\"3\",[\"IpRst\"],\"u\"]", "unknown blocking type"),
        // One field short, one too many, and an object in the array's place.
        ("[1,1,2,\"3\",[0]]", fields),
        ("[1,1,2,\"3\",[0],\"u\",0]", fields),
        ("{\"asn\":1}", fields),
        // Fields in the wrong places: the first one in order is named.
        (
            "[4294967296,\"1\",2,\"3\",[0],7]",
            "record asn must be a u32",
        ),
        ("[1,1,2,3,[0],7]", "uuid must be a hex string"),
        ("[1,1,2,\"3\",[0],7]", "record url must be a string"),
    ];
    for (fields, why) in cases {
        let f = record(fields);
        let got = DbResponse::from_frame(&f);
        assert_eq!(
            got,
            Err(StoreError::Wire(WireError::Shape(why))),
            "{fields}"
        );
        assert_eq!(got, reference::response_from_frame(&f), "{fields}");
    }
    let ok = &record("[1,1,2,\"3\",[0],\"u\"]").payload;
    // A URL that is not UTF-8, and one byte after the document.
    let not_utf8 = [&ok[..ok.len() - 5], b"\xff\"]]]}"].concat();
    let trailing = [&ok[..], b"0"].concat();
    for bad in [not_utf8, trailing] {
        let f = Frame::new(op::RECORDS, bad);
        let got = DbResponse::from_frame(&f);
        assert!(matches!(got, Err(StoreError::Wire(_))), "{got:?}");
        assert_eq!(got, reference::response_from_frame(&f));
    }
}
