//! Encore-style cross-origin probe source — the high-volume second
//! reporting modality.
//!
//! Burnett & Feamster's Encore measured censorship by embedding tiny
//! cross-origin fetches in third-party pages: each visitor's browser
//! reports only "could I reach this URL from here?" — no page-load
//! breakdown, no stage-by-stage diagnosis, just a reachability bit at
//! roughly an order of magnitude more vantage points than an installed
//! client base.
//!
//! [`EncoreSource`] models that population for the replication
//! experiments: a pool of `clients × factor` probe identities, each
//! posting single-report batches through the *same*
//! [`GlobalApi::ingest`] pipeline full C-Saw clients use — the server
//! cannot tell the modalities apart, which is the point: one ingest
//! path, one ledger, one replication stream. Probe reports carry
//! exactly one blocking stage (the probe saw a failure, not a
//! diagnosis) and target URLs drawn from the same list the full
//! clients report, so probes both corroborate existing records
//! (multi-voter ledger entries) and overwrite them (freshness races the
//! merge must resolve deterministically).
//!
//! Everything is derived from a [`DetRng`] forked per probe index, so
//! a source is a pure function of `(seed, config)` — no state, safe to
//! re-derive anywhere.

use crate::global::remote::GlobalApi;
use crate::global::server::RegistrationError;
use csaw_censor::blocking::BlockingType;
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::SimTime;
use csaw_store::{Batch, IngestReceipt, Report, StoreError, Uuid};

/// Knobs for an Encore-style probe population.
#[derive(Debug, Clone)]
pub struct EncoreConfig {
    /// Probe identities (typically ~10× the full-client count).
    pub probes: usize,
    /// Reports each probe posts over the experiment horizon.
    pub probes_per_client: usize,
    /// Target URLs, shared with the full-client population so probe
    /// votes corroborate (and race) full-client records.
    pub targets: Vec<String>,
    /// The AS every probe in this population observes from.
    pub asn: u32,
}

impl Default for EncoreConfig {
    fn default() -> Self {
        EncoreConfig {
            probes: 40,
            probes_per_client: 2,
            targets: Vec::new(),
            asn: 1,
        }
    }
}

/// A deterministic Encore probe population (see the module docs).
#[derive(Debug, Clone)]
pub struct EncoreSource {
    seed: u64,
    cfg: EncoreConfig,
}

/// The failure mode a probe can actually distinguish: the cross-origin
/// fetch either timed out or errored. No PLT breakdown, no stage
/// diagnosis — a single coarse stage per report.
const PROBE_STAGES: [BlockingType; 2] = [BlockingType::HttpDrop, BlockingType::IpDrop];

impl EncoreSource {
    /// Build a probe population over `cfg`, derived from `seed`.
    pub fn new(seed: u64, cfg: EncoreConfig) -> EncoreSource {
        EncoreSource { seed, cfg }
    }

    /// Probe identities in this population.
    pub fn probe_count(&self) -> usize {
        self.cfg.probes
    }

    /// Total reports this population posts over a full run.
    pub fn total_reports(&self) -> usize {
        self.cfg.probes * self.cfg.probes_per_client
    }

    fn rng_for(&self, probe_idx: usize) -> DetRng {
        DetRng::new(self.seed ^ (probe_idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .fork("encore")
    }

    /// Register probe `probe_idx` with the server. Probes are
    /// transient browser visitors, so their sybil-risk score is low
    /// but nonzero.
    pub fn register<G: GlobalApi + ?Sized>(
        &self,
        server: &G,
        probe_idx: usize,
        now: SimTime,
    ) -> Result<Uuid, RegistrationError> {
        let mut rng = self.rng_for(probe_idx);
        server.register(now, rng.range_f64(0.0, 0.2))
    }

    /// The `round`-th report batch for probe `probe_idx`: one tiny
    /// cross-origin reachability report. Pure — same arguments, same
    /// batch, on any thread.
    pub fn probe_batch(&self, probe_idx: usize, round: usize, uuid: Uuid, now: SimTime) -> Batch {
        let mut rng = self.rng_for(probe_idx).fork(&format!("round{round}"));
        let url = if self.cfg.targets.is_empty() {
            format!("http://encore-{probe_idx}.example/")
        } else {
            self.cfg.targets[rng.index(self.cfg.targets.len())].clone()
        };
        let report = Report {
            url,
            asn: self.cfg.asn,
            measured_at_us: now.as_micros().saturating_sub(rng.range_u64(0, 5_000_000)),
            stages: vec![PROBE_STAGES[rng.index(PROBE_STAGES.len())]],
        };
        Batch::new(uuid, vec![report], now)
    }

    /// Post the `round`-th probe of `probe_idx` through the standard
    /// ingest pipeline.
    pub fn post<G: GlobalApi + ?Sized>(
        &self,
        server: &G,
        probe_idx: usize,
        round: usize,
        uuid: Uuid,
        now: SimTime,
    ) -> Result<IngestReceipt, StoreError> {
        server.ingest(self.probe_batch(probe_idx, round, uuid, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::server::{RegistrarConfig, ServerDb};
    use csaw_simnet::time::SimDuration;
    use csaw_simnet::topology::Asn;
    use csaw_store::ConfidenceFilter;

    fn source(targets: &[&str]) -> EncoreSource {
        EncoreSource::new(
            11,
            EncoreConfig {
                probes: 8,
                probes_per_client: 2,
                targets: targets.iter().map(|s| s.to_string()).collect(),
                asn: 77,
            },
        )
    }

    fn permissive_server() -> ServerDb {
        ServerDb::builder(3)
            .shards(4)
            .registrar(RegistrarConfig {
                max_risk: 1.0,
                max_per_window: usize::MAX,
                window: SimDuration::from_secs(3600),
            })
            .build()
            .unwrap()
    }

    #[test]
    fn probe_batches_are_deterministic_and_tiny() {
        let s = source(&["http://x.example/", "http://y.example/"]);
        let uuid = Uuid::from_raw(42);
        let a = s.probe_batch(3, 1, uuid, SimTime::from_secs(9));
        let b = s.probe_batch(3, 1, uuid, SimTime::from_secs(9));
        assert_eq!(a.reports(), b.reports());
        assert_eq!(a.reports().len(), 1, "Encore probes are single-report");
        assert_eq!(a.reports()[0].stages.len(), 1, "no stage breakdown");
        assert!(a.reports()[0].measured_at_us <= 9_000_000);
    }

    #[test]
    fn different_probes_and_rounds_diverge() {
        let s = source(&["http://x.example/", "http://y.example/"]);
        let uuid = Uuid::from_raw(42);
        let base = s.probe_batch(0, 0, uuid, SimTime::from_secs(9));
        let other_probe = s.probe_batch(1, 0, uuid, SimTime::from_secs(9));
        let other_round = s.probe_batch(0, 1, uuid, SimTime::from_secs(9));
        assert!(
            base.reports() != other_probe.reports() || base.reports() != other_round.reports(),
            "rng forks must actually fork"
        );
    }

    #[test]
    fn probes_flow_through_the_standard_ingest_pipeline() {
        let s = source(&["http://blocked.example/"]);
        let server = permissive_server();
        let mut posted = 0usize;
        for p in 0..s.probe_count() {
            let uuid = s
                .register(&server, p, SimTime::from_secs(p as u64))
                .unwrap();
            for round in 0..2 {
                let receipt = s
                    .post(&server, p, round, uuid, SimTime::from_secs(10 + p as u64))
                    .unwrap();
                posted += receipt.accepted;
            }
        }
        assert_eq!(posted, s.total_reports());
        // All probes hit the same URL from the same AS: one record,
        // many voters.
        let records = server
            .blocked_for_as(Asn(77), &ConfidenceFilter::default())
            .unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(
            server.store().tally("http://blocked.example/", Asn(77)).n,
            s.probe_count()
        );
    }
}
