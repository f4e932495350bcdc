//! Multihoming detection and strict-strategy resolution (§4.4).
//!
//! A multihomed network maps flows randomly over several providers, so a
//! URL blocked by one ISP but not another oscillates between blocked and
//! not-blocked, repeatedly paying detection costs and bouncing between
//! transports. C-Saw breaks the oscillation by (a) detecting multihoming
//! from periodic egress-ASN probes, and (b) once detected, treating the
//! URL as subject to the *union* of the blocking mechanisms observed per
//! provider — the strictest interpretation, which every subsequent
//! request can be routed around regardless of which ISP carries it.

use csaw_censor::blocking::BlockingType;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use std::collections::{BTreeSet, HashMap};

/// How often the client probes its egress ASN; the detector's window is
/// three probes wide.
pub const ASN_PROBE_INTERVAL: SimDuration = SimDuration::from_secs(60);

/// Multihoming detector state.
#[derive(Debug, Clone)]
pub struct MultihomingManager {
    window: SimDuration,
    observations: Vec<(SimTime, Asn)>,
    /// Latched once more than one ASN is seen within the window.
    pub multihomed: bool,
}

impl MultihomingManager {
    /// A detector with the given observation window ("short timescales"
    /// in the paper's wording).
    pub fn new(window: SimDuration) -> MultihomingManager {
        MultihomingManager {
            window,
            observations: Vec::new(),
            multihomed: false,
        }
    }

    /// Record an egress-ASN observation (from the periodic probe or from
    /// any flow's metadata).
    pub fn probe(&mut self, now: SimTime, asn: Asn) {
        self.observations.push((now, asn));
        let horizon = now - self.window;
        self.observations.retain(|(t, _)| *t >= horizon);
        let distinct: BTreeSet<Asn> = self.observations.iter().map(|(_, a)| *a).collect();
        if distinct.len() > 1 {
            self.multihomed = true;
        }
    }

    /// Distinct ASNs currently in the window.
    pub fn asns_in_window(&self) -> Vec<Asn> {
        let distinct: BTreeSet<Asn> = self.observations.iter().map(|(_, a)| *a).collect();
        distinct.into_iter().collect()
    }
}

/// Per-(URL, ASN) blocking observations; resolves the effective strategy
/// for multihomed networks.
#[derive(Debug, Clone, Default)]
pub struct PerProviderBlocking {
    stages: HashMap<(String, Asn), Vec<BlockingType>>,
}

impl PerProviderBlocking {
    /// Empty table.
    pub fn new() -> PerProviderBlocking {
        PerProviderBlocking::default()
    }

    /// Record the mechanisms observed for a URL through a provider.
    pub fn record(&mut self, url_key: &str, asn: Asn, stages: &[BlockingType]) {
        let entry = self.stages.entry((url_key.to_string(), asn)).or_default();
        for s in stages {
            if !entry.contains(s) {
                entry.push(*s);
            }
        }
    }

    /// Mechanisms observed for a URL through one provider.
    pub fn for_provider(&self, url_key: &str, asn: Asn) -> &[BlockingType] {
        self.stages
            .get(&(url_key.to_string(), asn))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The *strict* mechanism set for a URL: the union across providers.
    /// A circumvention approach chosen against the union works no matter
    /// which ISP the flow lands on.
    pub fn strict_union(&self, url_key: &str) -> Vec<BlockingType> {
        let mut set: BTreeSet<BlockingType> = BTreeSet::new();
        for ((u, _), stages) in &self.stages {
            if u == url_key {
                set.extend(stages.iter().copied());
            }
        }
        set.into_iter().collect()
    }

    /// Number of providers with observations for a URL.
    pub fn provider_count(&self, url_key: &str) -> usize {
        self.stages.keys().filter(|(u, _)| u == url_key).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_asn_never_flags() {
        let mut m = MultihomingManager::new(SimDuration::from_secs(60));
        for t in 0..100 {
            m.probe(SimTime::from_secs(t), Asn(7));
        }
        assert!(!m.multihomed);
        assert_eq!(m.asns_in_window(), vec![Asn(7)]);
    }

    #[test]
    fn two_asns_in_window_flag() {
        let mut m = MultihomingManager::new(SimDuration::from_secs(60));
        m.probe(SimTime::from_secs(0), Asn(1));
        m.probe(SimTime::from_secs(10), Asn(2));
        assert!(m.multihomed);
        assert_eq!(m.asns_in_window(), vec![Asn(1), Asn(2)]);
    }

    #[test]
    fn asn_change_outside_window_latches_nothing_until_seen_together() {
        let mut m = MultihomingManager::new(SimDuration::from_secs(10));
        m.probe(SimTime::from_secs(0), Asn(1));
        // Far outside the window — the old observation is gone.
        m.probe(SimTime::from_secs(100), Asn(2));
        assert!(
            !m.multihomed,
            "a clean provider change (mobility) is not multihoming"
        );
        m.probe(SimTime::from_secs(105), Asn(1));
        assert!(m.multihomed);
    }

    #[test]
    fn multihomed_flag_latches() {
        let mut m = MultihomingManager::new(SimDuration::from_secs(10));
        m.probe(SimTime::from_secs(0), Asn(1));
        m.probe(SimTime::from_secs(1), Asn(2));
        assert!(m.multihomed);
        // Later single-ASN observations don't clear the latch.
        for t in 100..200 {
            m.probe(SimTime::from_secs(t), Asn(1));
        }
        assert!(m.multihomed);
    }

    #[test]
    fn strict_union_merges_mechanisms() {
        let mut p = PerProviderBlocking::new();
        // ISP A blocks HTTPS (SNI), ISP B doesn't block at all — the
        // paper's example: use fronting for all subsequent requests.
        p.record("http://y.com/", Asn(1), &[BlockingType::SniDrop]);
        p.record("http://y.com/", Asn(2), &[]);
        assert_eq!(p.strict_union("http://y.com/"), vec![BlockingType::SniDrop]);
        assert_eq!(p.provider_count("http://y.com/"), 2);
        // Different URL untouched.
        assert!(p.strict_union("http://z.com/").is_empty());
    }

    #[test]
    fn union_across_different_mechanisms() {
        let mut p = PerProviderBlocking::new();
        p.record("http://y.com/", Asn(1), &[BlockingType::DnsHijack]);
        p.record(
            "http://y.com/",
            Asn(2),
            &[BlockingType::HttpDrop, BlockingType::SniDrop],
        );
        let u = p.strict_union("http://y.com/");
        assert_eq!(u.len(), 3);
        assert!(u.contains(&BlockingType::DnsHijack));
        assert!(u.contains(&BlockingType::HttpDrop));
        assert!(u.contains(&BlockingType::SniDrop));
    }

    #[test]
    fn record_dedupes() {
        let mut p = PerProviderBlocking::new();
        p.record("k", Asn(1), &[BlockingType::HttpDrop]);
        p.record("k", Asn(1), &[BlockingType::HttpDrop]);
        assert_eq!(p.for_provider("k", Asn(1)).len(), 1);
    }
}
