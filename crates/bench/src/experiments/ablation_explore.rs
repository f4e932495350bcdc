//! Ablation: the every-n-th-access exploration policy (§4.3.2).
//!
//! The paper's rationale: "To accommodate the case where, over time, a
//! circumvention approach may improve in PLTs, we use a randomly chosen
//! circumvention approach for every n = 5-th access." This ablation
//! constructs exactly that case — a nearby relay that is down at first
//! and comes up fast mid-run — and compares a client with exploration
//! (n = 5) against one without (n = ∞). The greedy client settled on the
//! steady-but-slow faraway relay during the outage and never looks back;
//! the exploring client rediscovers the recovered relay and its
//! steady-state PLT drops.

use crate::experiments::Outcome;
use crate::runner::{self, TrialSpec};
use csaw::circum::selector::{BlockedFetch, Selector};
use csaw::config::UserPreference;
use csaw_censor::blocking::BlockingType;
use csaw_circumvent::fetch::FetchReport;
use csaw_circumvent::transports::{FetchCtx, Transport, TransportKind};
use csaw_circumvent::world::World;
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::{Region, Site};
use csaw_webproto::url::Url;

/// A relay that comes up mid-run: unreachable before `improves_at`,
/// fast afterwards — the "circumvention approach may improve in PLTs"
/// case the paper's n-th-access exploration exists for.
struct ImprovingRelay {
    name: &'static str,
    site: Site,
    improves_at: SimTime,
}

impl Transport for ImprovingRelay {
    fn name(&self) -> &str {
        self.name
    }
    fn kind(&self) -> TransportKind {
        TransportKind::Relay
    }
    fn fetch(&mut self, world: &World, ctx: &FetchCtx, url: &Url, rng: &mut DetRng) -> FetchReport {
        if ctx.now < self.improves_at {
            return FetchReport::failed(
                csaw_circumvent::outcome::FailureKind::TransportUnavailable,
                SimDuration::from_millis(500),
            );
        }
        csaw_circumvent::fetch::relay_fetch(
            world,
            &ctx.provider,
            &[self.site],
            url,
            SimDuration::from_millis(10),
            rng,
        )
    }
}

/// The ablation's outcome for one policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyOutcome {
    /// Exploration period (u32::MAX = never).
    pub explore_every: u32,
    /// Mean PLT over the post-improvement window (s).
    pub steady_state_mean_s: f64,
    /// How many post-improvement accesses used the recovered relay.
    pub recovered_relay_uses: usize,
}

/// The experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreAblation {
    /// With exploration (n = 5).
    pub with: PolicyOutcome,
    /// Without exploration.
    pub without: PolicyOutcome,
}

fn run_policy(explore_every: u32, seed: u64) -> PolicyOutcome {
    // The blocked URL needs a relay (IP-level block, no fronting).
    let policy = csaw_censor::single_mechanism(
        "abl",
        crate::worlds::YOUTUBE,
        csaw_censor::DnsTamper::None,
        csaw_censor::IpAction::Drop,
        csaw_censor::HttpAction::None,
        csaw_censor::TlsAction::None,
    );
    let world =
        crate::worlds::single_isp_world(csaw_simnet::topology::Asn(5700), "ABL-ISP", policy);
    let url = Url::parse(&format!("http://{}/", crate::worlds::YOUTUBE)).expect("static URL");
    let improves_at = SimTime::from_secs(2_000);

    // Two relays: "nearby" is down until the improvement, then fast;
    // "faraway" is steady but slow. A greedy client settles on faraway
    // during the outage and — without exploration — never looks back.
    let transports: Vec<Box<dyn Transport + Send>> = vec![
        Box::new(ImprovingRelay {
            name: "nearby-relay",
            site: Site::in_region(Region::Singapore),
            improves_at,
        }),
        Box::new(csaw_circumvent::transports::StaticProxy::at(
            "faraway-relay",
            Site::in_region(Region::UsWest),
        )),
    ];
    let mut selector = Selector::new(transports, explore_every, UserPreference::Performance);
    let provider = world.access.providers()[0].clone();
    let mut rng = DetRng::new(seed);
    let stages = [BlockingType::IpDrop];

    let mut post_plts = Vec::new();
    let mut recovered_uses = 0usize;
    for i in 0..120u64 {
        let now = SimTime::from_secs(i * 60);
        let ctx = FetchCtx {
            now,
            provider: provider.clone(),
        };
        let BlockedFetch {
            report,
            transport: name,
            ..
        } = selector.fetch_blocked(&world, &ctx, &url, &stages, &mut rng);
        if now >= improves_at + SimDuration::from_secs(1_200) {
            // Steady-state window, well past the improvement.
            if let Some(plt) = report.genuine_plt() {
                post_plts.push(plt.as_secs_f64());
            }
            if name == "nearby-relay" {
                recovered_uses += 1;
            }
        }
    }
    PolicyOutcome {
        explore_every,
        steady_state_mean_s: if post_plts.is_empty() {
            0.0
        } else {
            post_plts.iter().sum::<f64>() / post_plts.len() as f64
        },
        recovered_relay_uses: recovered_uses,
    }
}

/// The two compared policies: (n, label).
const POLICIES: [(u32, &str); 2] = [(5, "explore n=5"), (u32::MAX, "never explore")];

/// Run the ablation: one runner trial per policy, both on the same seed
/// (the serial sweep ran both policies over identical draws).
pub fn run(seed: u64, jobs: usize) -> ExploreAblation {
    let specs: Vec<TrialSpec> = POLICIES
        .iter()
        .enumerate()
        .map(|(i, (_, label))| TrialSpec::salted(seed, i as u64, *label))
        .collect();
    let outcomes = runner::map(&specs, jobs, |spec| {
        run_policy(POLICIES[spec.ordinal as usize].0, spec.seed)
    });
    ExploreAblation {
        with: outcomes[0],
        without: outcomes[1],
    }
}

impl Outcome for ExploreAblation {
    fn render(&self) -> String {
        format!(
            "Exploration ablation (§4.3.2, n = 5):\n  with exploration   : steady-state mean {:.2}s, recovered-relay uses {}\n  without exploration: steady-state mean {:.2}s, recovered-relay uses {}\n  Exploration lets the client rediscover a transport that improved mid-run.\n",
            self.with.steady_state_mean_s,
            self.with.recovered_relay_uses,
            self.without.steady_state_mean_s,
            self.without.recovered_relay_uses,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exploration_rediscovers_improved_relay() {
        let a = run(81, 1);
        assert!(
            a.with.recovered_relay_uses > a.without.recovered_relay_uses,
            "with {} vs without {}",
            a.with.recovered_relay_uses,
            a.without.recovered_relay_uses
        );
        assert!(
            a.with.steady_state_mean_s < a.without.steady_state_mean_s,
            "with {:.2}s vs without {:.2}s",
            a.with.steady_state_mean_s,
            a.without.steady_state_mean_s
        );
    }

    #[test]
    fn without_exploration_sticks_to_first_impression() {
        let a = run(82, 1);
        // The never-explore client found nearby-relay congested early and
        // should essentially never return to it.
        assert!(
            a.without.recovered_relay_uses <= 2,
            "{}",
            a.without.recovered_relay_uses
        );
    }
}
