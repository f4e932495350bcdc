//! Non-web filtering (the §8 future-work item, implemented): a messaging
//! app blocked with different UDP mechanisms across ASes, detected by the
//! paired direct/tunnel probe and circumvented through a VPN relay.

use crate::experiments::Outcome;
use crate::runner::{self, TrialSpec};
use csaw::measure::nonweb::measure_udp_service;
use csaw::measure::MeasuredStatus;
use csaw_censor::blocking::UdpAction;
use csaw_censor::policy::{CensorPolicy, CensorRule, TargetMatcher};
use csaw_circumvent::world::{SiteSpec, World};
use csaw_simnet::rng::DetRng;
use csaw_simnet::topology::{AccessNetwork, Asn, Provider, Region, Site};

/// One AS's measured row.
#[derive(Debug, Clone, PartialEq)]
pub struct NonwebRow {
    /// AS label.
    pub asn: u32,
    /// Configured UDP mechanism (ground truth).
    pub configured: String,
    /// Measured verdict.
    pub verdict: String,
    /// Direct app RTT (ms), if the app got through.
    pub direct_rtt_ms: Option<u64>,
    /// Tunneled app RTT (ms) — the circumvention users fall back to.
    pub tunnel_rtt_ms: Option<u64>,
}

/// The experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct Nonweb {
    /// One row per AS.
    pub rows: Vec<NonwebRow>,
}

const SERVICE: &str = "messenger.example";

fn world_for(asn: Asn, action: UdpAction) -> World {
    let provider = Provider::new(asn, format!("nonweb-{asn}"));
    let mut policy = CensorPolicy::new(format!("udp-{asn}"));
    if action.is_active() {
        policy = policy
            .with_rule(CensorRule::target(TargetMatcher::DomainSuffix(SERVICE.into())).udp(action));
    }
    World::builder(AccessNetwork::single(provider))
        .site(
            SiteSpec::new(SERVICE, Site::in_region(Region::UsEast))
                .category(csaw_censor::Category::Social)
                .udp_service(3478),
        )
        .censor(asn, policy)
        .build()
}

const CASES: [(Asn, UdpAction, &str); 3] = [
    (Asn(9001), UdpAction::Drop, "UDP drop"),
    (Asn(9002), UdpAction::Throttle, "UDP throttle"),
    (Asn(9003), UdpAction::None, "none"),
];

/// Run the sweep: three ASes — one dropping the app's UDP, one throttling
/// it, one clean — one runner trial each, with the historical
/// `seed ^ asn` streams.
pub fn run(seed: u64, jobs: usize) -> Nonweb {
    let specs: Vec<TrialSpec> = CASES
        .iter()
        .enumerate()
        .map(|(i, (asn, _, label))| {
            TrialSpec::salted(
                seed ^ asn.0 as u64,
                i as u64,
                format!("AS{} ({label})", asn.0),
            )
        })
        .collect();
    let rows = runner::map(&specs, jobs, |spec| {
        let (asn, action, label) = CASES[spec.ordinal as usize];
        let relay = Site::in_region(Region::Germany);
        let world = world_for(asn, action);
        let provider = world.access.providers()[0].clone();
        let mut rng = DetRng::new(spec.seed);
        let m = measure_udp_service(&world, &provider, relay, SERVICE, &mut rng);
        let verdict = match m.status {
            MeasuredStatus::Blocked => format!("blocked ({})", m.stages[0]),
            MeasuredStatus::NotBlocked => "not blocked".into(),
            MeasuredStatus::Inconclusive => "inconclusive".into(),
        };
        NonwebRow {
            asn: asn.0,
            configured: label.to_string(),
            verdict,
            direct_rtt_ms: m.direct_rtt.map(|d| d.as_millis()),
            tunnel_rtt_ms: m.tunnel_rtt.map(|d| d.as_millis()),
        }
    });
    Nonweb { rows }
}

impl Outcome for Nonweb {
    fn render(&self) -> String {
        let mut out = String::from(
            "Non-web filtering (extension of §8): a messaging app across three ASes\n",
        );
        out.push_str(&format!(
            "  {:<8}{:<16}{:<26}{:>14}{:>14}\n",
            "AS", "configured", "measured", "direct(ms)", "tunnel(ms)"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<8}{:<16}{:<26}{:>14}{:>14}\n",
                r.asn,
                r.configured,
                r.verdict,
                r.direct_rtt_ms
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "-".into()),
                r.tunnel_rtt_ms
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "-".into()),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_mechanisms_classified_correctly() {
        let n = run(91, 1);
        assert_eq!(n.rows.len(), 3);
        let by_asn = |a: u32| n.rows.iter().find(|r| r.asn == a).unwrap();
        assert!(
            by_asn(9001).verdict.contains("UDP (drop)"),
            "{:?}",
            by_asn(9001)
        );
        assert!(
            by_asn(9002).verdict.contains("UDP (throttle)"),
            "{:?}",
            by_asn(9002)
        );
        assert_eq!(by_asn(9003).verdict, "not blocked");
        // Circumvention always delivers a usable tunnel RTT.
        for r in &n.rows {
            assert!(r.tunnel_rtt_ms.is_some(), "AS{}", r.asn);
            assert!(r.tunnel_rtt_ms.unwrap() < 2_000, "AS{}", r.asn);
        }
    }
}
