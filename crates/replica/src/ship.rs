//! WAL shipping: stream a leader's mutation log to per-region read
//! replicas over the length-framed wire protocol.
//!
//! [`ReplicatedStore`] is `csaw-store`'s journalling decorator with an
//! in-memory journal: it records, as a [`csaw_store::wal`] line, every
//! mutation the wrapped backend took — and none it refused, so a
//! replica never applies a batch the leader does not hold.
//!
//! [`WalShipper`] holds one [`SHIP`](csaw_store::net::op::SHIP) link
//! per replica region. A shipping round walks each reachable link and
//! pushes chunks of `(from_seq, lines)` until the replica's
//! `SHIP_ACK` catches up to the leader's log head. The protocol is
//! idempotent and self-healing:
//!
//! - a replica that already applied a prefix of the shipment skips the
//!   overlap (re-shipping after a lost ack is harmless);
//! - an ack *below* `from_seq` signals a gap — the leader rewinds its
//!   notion of the replica's position and re-ships from there;
//! - any transport error drops the connection; the next round
//!   reconnects and resumes from the last acked position.
//!
//! Per-link **lag** (log lines shipped-but-unacked, `leader_seq −
//! acked_seq`) and **staleness** (virtual time since the link last
//! fully caught up) are exported as labelled timeline gauges
//! (`replica.lag{region=…}`, `replica.staleness_us{region=…}`) so the
//! SLO engine can gate on replication health.

use csaw_simnet::time::SimTime;
use csaw_store::net::{DbRequest, DbResponse};
pub use csaw_store::ReplicatedStore;
use csaw_webproto::codec::FrameClient;
use std::fmt;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// How many WAL lines one `SHIP` frame carries at most.
const SHIP_CHUNK_LINES: usize = 256;

/// How long a link's read or write may make no progress before the
/// round gives up on it (the next round reconnects).
const LINK_TIMEOUT: Duration = Duration::from_secs(10);

struct ReplicaLink {
    region: String,
    addr: SocketAddr,
    conn: Option<FrameClient>,
    acked_seq: u64,
    last_synced_at: SimTime,
}

/// One link's health after a shipping round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkStatus {
    /// Region label of the link.
    pub region: String,
    /// Log lines the replica still lacks (`leader_seq − acked_seq`).
    pub lag: u64,
    /// Virtual µs since the replica last fully caught up (0 if it is
    /// caught up right now).
    pub staleness_us: u64,
    /// Whether this round ended with the replica fully caught up.
    pub synced: bool,
}

/// Streams a [`ReplicatedStore`]'s WAL to N per-region replicas.
pub struct WalShipper {
    source: Arc<ReplicatedStore>,
    links: Vec<ReplicaLink>,
    chunk: usize,
}

impl fmt::Debug for WalShipper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalShipper")
            .field("regions", &self.links.len())
            .field("leader_seq", &self.source.leader_seq())
            .finish()
    }
}

impl WalShipper {
    /// Ship from `source` to (initially) no replicas.
    pub fn new(source: Arc<ReplicatedStore>) -> WalShipper {
        WalShipper {
            source,
            links: Vec::new(),
            chunk: SHIP_CHUNK_LINES,
        }
    }

    /// Add a replica region served by a dbserver at `addr`. Link
    /// indices (for the `reachable` gate of [`WalShipper::ship_round`])
    /// follow insertion order.
    pub fn add_region(&mut self, region: &str, addr: SocketAddr, start: SimTime) {
        self.links.push(ReplicaLink {
            region: region.to_string(),
            addr,
            conn: None,
            acked_seq: 0,
            last_synced_at: start,
        });
    }

    /// Ship pending WAL lines to every replica whose link index passes
    /// `reachable` (a partition gate: unreachable links are skipped but
    /// their lag and staleness gauges still tick). Returns per-link
    /// statuses in insertion order.
    pub fn ship_round(
        &mut self,
        now: SimTime,
        mut reachable: impl FnMut(usize) -> bool,
    ) -> Vec<LinkStatus> {
        let target = self.source.leader_seq();
        let mut out = Vec::with_capacity(self.links.len());
        for i in 0..self.links.len() {
            if reachable(i) {
                self.pump_link(i, target);
            } else {
                // Partitioned: the connection is useless, drop it so the
                // heal starts from a clean connect.
                self.links[i].conn = None;
            }
            let link = &mut self.links[i];
            let synced = link.acked_seq >= target;
            if synced {
                link.last_synced_at = now;
            }
            let lag = target.saturating_sub(link.acked_seq);
            let staleness_us = now
                .as_micros()
                .saturating_sub(link.last_synced_at.as_micros());
            let tl = &csaw_obs::current().timeline;
            if tl.enabled() {
                let labels = [("region", link.region.as_str())];
                tl.gauge("replica.lag", &labels).set(lag as i64);
                tl.gauge("replica.staleness_us", &labels)
                    .set(staleness_us as i64);
            }
            out.push(LinkStatus {
                region: link.region.clone(),
                lag,
                staleness_us,
                synced,
            });
        }
        out
    }

    /// Push chunks to one link until it acks `target` or errors out.
    fn pump_link(&mut self, i: usize, target: u64) {
        while self.links[i].acked_seq < target {
            let from_seq = self.links[i].acked_seq;
            let lines = self.source.lines_from(from_seq, self.chunk);
            if lines.is_empty() {
                break;
            }
            let shipped = lines.len() as u64;
            match self.exchange(i, DbRequest::Ship { from_seq, lines }) {
                Some(DbResponse::ShipAck { applied_seq }) => {
                    csaw_obs::add("replica.ship.lines", shipped);
                    let link = &mut self.links[i];
                    if applied_seq == from_seq {
                        // The replica refused to advance (it reported
                        // exactly our own position back): nothing more
                        // to do this round.
                        break;
                    }
                    // Either normal progress or a rewind below from_seq
                    // (gap): trust the replica's own position.
                    link.acked_seq = applied_seq;
                }
                Some(_) | None => {
                    self.links[i].conn = None;
                    break;
                }
            }
        }
    }

    /// One blocking request/response on link `i`, connecting if needed.
    fn exchange(&mut self, i: usize, req: DbRequest) -> Option<DbResponse> {
        let link = &mut self.links[i];
        if link.conn.is_none() {
            link.conn = Some(FrameClient::connect(link.addr, LINK_TIMEOUT).ok()?);
        }
        let conn = link.conn.as_mut().expect("connection just established");
        let frame = conn.call(&req.to_frame()).ok()??;
        DbResponse::from_frame(&frame).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_store::{Batch, Report, ShardedStore, StorageBackend, Uuid};
    use csaw_webproto::bytes::BytesMut;
    use csaw_webproto::codec::{read_frame, write_frame};
    use std::net::TcpListener;

    /// A replica that stops reading must not pin `ship_round` in
    /// `write_all`: a link carries the write timeout (and the
    /// `TCP_NODELAY`) every DB client connection carries.
    #[test]
    fn a_replica_link_has_a_write_timeout_and_nodelay() {
        let leader = Arc::new(ReplicatedStore::new(Arc::new(
            ShardedStore::new(2).unwrap(),
        )));
        let report = Report {
            url: "http://shipped.example/".into(),
            asn: 9,
            measured_at_us: 10,
            stages: vec![csaw_censor::blocking::BlockingType::HttpDrop],
        };
        leader
            .ingest(&Batch::new(Uuid::from_raw(1), vec![report], SimTime::ZERO))
            .unwrap();

        // A replica that acks one shipment.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let replica = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let frame = read_frame(&mut stream, &mut BytesMut::new())
                .unwrap()
                .unwrap();
            let Ok(DbRequest::Ship { from_seq, lines }) = DbRequest::from_frame(&frame) else {
                panic!("expected a SHIP frame");
            };
            let applied_seq = from_seq + lines.len() as u64;
            write_frame(&mut stream, &DbResponse::ShipAck { applied_seq }.to_frame()).unwrap();
        });

        let mut shipper = WalShipper::new(leader);
        shipper.add_region("r0", addr, SimTime::ZERO);
        let status = shipper.ship_round(SimTime::from_secs(1), |_| true);
        assert!(status[0].synced, "{status:?}");
        replica.join().unwrap();

        let socket = shipper.links[0]
            .conn
            .as_ref()
            .expect("a clean round keeps the link open")
            .socket();
        assert_eq!(socket.write_timeout().unwrap(), Some(LINK_TIMEOUT));
        assert_eq!(socket.read_timeout().unwrap(), Some(LINK_TIMEOUT));
        assert!(socket.nodelay().unwrap());
    }
}
