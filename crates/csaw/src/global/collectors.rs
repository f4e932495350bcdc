//! Distributed report collection (§5 "Blocking access to the global_DB").
//!
//! A global DB behind one well-known name is a single choke point: a
//! censor that blocks it (or that hosts the Tor exit carrying the report)
//! silences all measurement. The paper's answer, borrowed from OONI's
//! collector design, is a *set* of collectors, each exposed as a Tor
//! hidden service, any of which can relay a report to the global DB.
//!
//! This module models that collection tier: a [`CollectorSet`] with
//! per-collector reachability that censors can flip, and a submission
//! routine that fails over deterministically and reports which collector
//! carried the batch.

use crate::global::remote::GlobalApi;
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::SimDuration;
use csaw_store::{Batch, IngestReceipt, StoreError};
use std::borrow::Borrow;

/// One collector endpoint (a Tor hidden service in the paper's design).
#[derive(Debug, Clone, PartialEq)]
pub struct Collector {
    /// Onion-style identifier.
    pub id: String,
    /// Can clients currently reach it?
    pub reachable: bool,
    /// Submission latency through this collector.
    pub latency: SimDuration,
}

/// Submission failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Every collector was unreachable.
    AllCollectorsBlocked,
    /// The server rejected the batch.
    Rejected(StoreError),
}

impl From<StoreError> for SubmitError {
    fn from(e: StoreError) -> SubmitError {
        SubmitError::Rejected(e)
    }
}

/// Outcome of a successful submission: the server's receipt and how it
/// got there. The default is the receipt of an empty submission
/// (nothing queued).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SubmitReceipt {
    /// Which collector carried the batch.
    pub via: String,
    /// Time spent, including failed attempts against blocked collectors.
    pub elapsed: SimDuration,
    /// What the server did with the batch.
    pub ingest: IngestReceipt,
}

impl Borrow<IngestReceipt> for SubmitReceipt {
    fn borrow(&self) -> &IngestReceipt {
        &self.ingest
    }
}

/// The collection tier.
#[derive(Debug, Clone, Default)]
pub struct CollectorSet {
    collectors: Vec<Collector>,
}

impl CollectorSet {
    /// An OONI-style default: three hidden-service collectors.
    pub fn default_set() -> CollectorSet {
        CollectorSet {
            collectors: vec![
                Collector {
                    id: "collector-a.onion".into(),
                    reachable: true,
                    latency: SimDuration::from_millis(1_800),
                },
                Collector {
                    id: "collector-b.onion".into(),
                    reachable: true,
                    latency: SimDuration::from_millis(2_400),
                },
                Collector {
                    id: "collector-c.onion".into(),
                    reachable: true,
                    latency: SimDuration::from_millis(3_100),
                },
            ],
        }
    }

    /// Build from explicit collectors.
    pub fn new(collectors: Vec<Collector>) -> CollectorSet {
        CollectorSet { collectors }
    }

    /// Flip a collector's reachability (a censor blocking or unblocking
    /// it).
    pub fn set_reachable(&mut self, id: &str, reachable: bool) {
        if let Some(c) = self.collectors.iter_mut().find(|c| c.id == id) {
            c.reachable = reachable;
        }
    }

    /// How many collectors are currently reachable?
    pub fn reachable_count(&self) -> usize {
        self.collectors.iter().filter(|c| c.reachable).count()
    }

    /// Submit a batch: collectors are tried in a random order (clients
    /// spreading load, and not all hammering the same first entry), with
    /// failover past blocked ones. A blocked attempt costs a timeout
    /// before the client moves on, so the batch reaches the server
    /// stamped `posted_at` + the time the attempts took.
    ///
    /// Generic over [`GlobalApi`]: the collector relays to the
    /// in-process server or across a socket alike.
    pub fn submit<G: GlobalApi + ?Sized>(
        &self,
        server: &G,
        mut batch: Batch,
        rng: &mut DetRng,
    ) -> Result<SubmitReceipt, SubmitError> {
        let mut order: Vec<usize> = (0..self.collectors.len()).collect();
        rng.shuffle(&mut order);
        let mut elapsed = SimDuration::ZERO;
        for idx in order {
            let c = &self.collectors[idx];
            if !c.reachable {
                // Hidden-service connection attempt that never completes.
                elapsed += SimDuration::from_secs(10);
                continue;
            }
            elapsed += c.latency;
            batch.posted_at += elapsed;
            return Ok(SubmitReceipt {
                via: c.id.clone(),
                elapsed,
                ingest: server.ingest(batch)?,
            });
        }
        Err(SubmitError::AllCollectorsBlocked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::server::ServerDb;
    use csaw_censor::BlockingType;
    use csaw_simnet::time::SimTime;
    use csaw_store::{Report, Uuid};

    fn report(url: &str) -> Report {
        Report {
            url: url.into(),
            asn: 17557,
            measured_at_us: 1,
            stages: vec![BlockingType::HttpDrop],
        }
    }

    fn setup() -> (ServerDb, Uuid) {
        let s = ServerDb::builder(3).build().unwrap();
        let c = s.register(SimTime::from_secs(1), 0.0).unwrap();
        (s, c)
    }

    #[test]
    fn submits_through_any_reachable_collector() {
        let (server, client) = setup();
        let set = CollectorSet::default_set();
        let mut rng = DetRng::new(1);
        let r = set
            .submit(
                &server,
                Batch::new(
                    client,
                    vec![report("http://x.example/")],
                    SimTime::from_secs(5),
                ),
                &mut rng,
            )
            .unwrap();
        assert_eq!(r.ingest.accepted, 1);
        assert!(r.via.ends_with(".onion"));
        assert_eq!(server.stats().unique_blocked_urls, 1);
    }

    #[test]
    fn fails_over_past_blocked_collectors() {
        let (server, client) = setup();
        let mut set = CollectorSet::default_set();
        set.set_reachable("collector-a.onion", false);
        set.set_reachable("collector-b.onion", false);
        assert_eq!(set.reachable_count(), 1);
        let mut rng = DetRng::new(2);
        let r = set
            .submit(
                &server,
                Batch::new(
                    client,
                    vec![report("http://x.example/")],
                    SimTime::from_secs(5),
                ),
                &mut rng,
            )
            .unwrap();
        assert_eq!(r.via, "collector-c.onion");
        // Failed attempts cost time before the success.
        assert!(r.elapsed >= SimDuration::from_secs(3), "{:?}", r.elapsed);
    }

    #[test]
    fn all_blocked_is_reported_not_lost() {
        let (server, client) = setup();
        let mut set = CollectorSet::default_set();
        for id in [
            "collector-a.onion",
            "collector-b.onion",
            "collector-c.onion",
        ] {
            set.set_reachable(id, false);
        }
        let mut rng = DetRng::new(3);
        let err = set
            .submit(
                &server,
                Batch::new(
                    client,
                    vec![report("http://x.example/")],
                    SimTime::from_secs(5),
                ),
                &mut rng,
            )
            .unwrap_err();
        assert_eq!(err, SubmitError::AllCollectorsBlocked);
        assert_eq!(server.stats().unique_blocked_urls, 0);
    }

    #[test]
    fn server_rejections_propagate() {
        let (server, _) = setup();
        let set = CollectorSet::default_set();
        let mut rng = DetRng::new(4);
        let err = set
            .submit(
                &server,
                Batch::new(
                    Uuid::from_raw(0xdead),
                    vec![report("http://x.example/")],
                    SimTime::from_secs(5),
                ),
                &mut rng,
            )
            .unwrap_err();
        assert_eq!(err, SubmitError::Rejected(StoreError::UnknownClient));
    }

    #[test]
    fn load_spreads_across_collectors() {
        let (server, client) = setup();
        let set = CollectorSet::default_set();
        let mut rng = DetRng::new(5);
        let mut used = std::collections::HashSet::new();
        for i in 0..30 {
            let r = set
                .submit(
                    &server,
                    Batch::new(
                        client,
                        vec![report(&format!("http://x{i}.example/"))],
                        SimTime::from_secs(10 + i),
                    ),
                    &mut rng,
                )
                .unwrap();
            used.insert(r.via);
        }
        assert_eq!(used.len(), 3, "all collectors should carry some load");
    }
}
