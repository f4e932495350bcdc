//! A simulated Tor client.
//!
//! What matters for the paper's comparisons is Tor's *path behaviour*:
//! three relays per circuit chosen with bandwidth-weighted selection
//! (Wacek et al., the paper's reference \[56\]), circuits rotated roughly
//! every 10 minutes, exits concentrated in Europe/US — producing the long,
//! varied paths behind Figures 1b, 5a, 6a, 7. This module reproduces that
//! behaviour over the simulated topology.

use crate::fetch::{relay_fetch, FetchReport};
use crate::transports::{FetchCtx, Transport, TransportKind};
use crate::world::World;
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::{Region, Site};
use csaw_webproto::url::Url;

/// One relay in the directory.
#[derive(Debug, Clone, PartialEq)]
pub struct Relay {
    /// Where it runs.
    pub site: Site,
    /// Consensus bandwidth weight (relative).
    pub bandwidth_weight: f64,
    /// May this relay be used as an exit?
    pub is_exit: bool,
}

/// A three-hop circuit (indices into the directory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Circuit {
    /// Entry (guard) relay index.
    pub entry: usize,
    /// Middle relay index.
    pub middle: usize,
    /// Exit relay index.
    pub exit: usize,
    /// When the circuit was built.
    pub built_at: SimTime,
}

/// The default relay directory: bandwidth mass concentrated in European
/// and North-American relays, mirroring the real consensus at the paper's
/// timeframe. Exits are a subset.
pub fn default_directory() -> Vec<Relay> {
    // (region, bandwidth weight, exit?)
    let spec: [(Region, f64, bool); 12] = [
        (Region::Germany, 9.0, false),
        (Region::France, 7.0, false),
        (Region::Netherlands, 8.0, true),
        (Region::Germany, 6.0, true),
        (Region::UsEast, 5.0, true),
        (Region::UsWest, 3.0, true),
        (Region::UnitedKingdom, 4.0, false),
        (Region::Switzerland, 3.0, true),
        (Region::CzechRepublic, 2.0, true),
        (Region::Canada, 2.0, true),
        (Region::France, 5.0, true),
        (Region::Japan, 1.0, true),
    ];
    spec.iter()
        .map(|(r, w, e)| Relay {
            site: Site::in_region(*r),
            bandwidth_weight: *w,
            is_exit: *e,
        })
        .collect()
}

/// Tor client configuration.
#[derive(Debug, Clone, Copy)]
pub struct TorConfig {
    /// Circuit lifetime before rotation (the paper: "usually every
    /// 10mins unless the circuit fails").
    pub circuit_lifetime: SimDuration,
    /// Per-hop onion-crypto/queueing overhead added to each fetch.
    pub per_hop_overhead: SimDuration,
    /// One-time circuit build cost (three extend handshakes).
    pub circuit_build_cost: SimDuration,
}

impl Default for TorConfig {
    fn default() -> Self {
        TorConfig {
            circuit_lifetime: SimDuration::from_secs(600),
            per_hop_overhead: SimDuration::from_millis(60),
            circuit_build_cost: SimDuration::from_millis(900),
        }
    }
}

/// A simulated Tor client with circuit state.
#[derive(Debug, Clone)]
pub struct TorClient {
    directory: Vec<Relay>,
    cfg: TorConfig,
    circuit: Option<Circuit>,
    /// Quality multiplier of the current circuit (sampled at build time;
    /// log-normal — real circuits vary widely with relay congestion).
    circuit_quality: f64,
    /// Number of circuits built (telemetry for experiments).
    pub circuits_built: u64,
}

impl TorClient {
    /// A client over the default directory.
    pub fn new() -> TorClient {
        TorClient::with_directory(default_directory(), TorConfig::default())
    }

    /// A client over a custom directory/config.
    pub fn with_directory(directory: Vec<Relay>, cfg: TorConfig) -> TorClient {
        assert!(
            directory.iter().filter(|r| r.is_exit).count() >= 1,
            "directory needs at least one exit"
        );
        assert!(directory.len() >= 3, "directory needs at least 3 relays");
        TorClient {
            directory,
            cfg,
            circuit: None,
            circuit_quality: 1.0,
            circuits_built: 0,
        }
    }

    /// The exit relay's region for the current circuit (Fig. 1b isolates
    /// PLT by exit location).
    pub fn exit_region(&self) -> Option<Region> {
        self.circuit.map(|c| self.directory[c.exit].site.region)
    }

    /// Bandwidth-weighted selection of a relay satisfying `pred`,
    /// excluding indices in `used`.
    fn pick<F>(&self, rng: &mut DetRng, used: &[usize], pred: F) -> usize
    where
        F: Fn(&Relay) -> bool,
    {
        let weights: Vec<f64> = self
            .directory
            .iter()
            .enumerate()
            .map(|(i, r)| {
                if used.contains(&i) || !pred(r) {
                    0.0
                } else {
                    r.bandwidth_weight
                }
            })
            .collect();
        rng.weighted_index(&weights)
    }

    /// Get a live circuit, rotating if the current one has expired.
    /// Returns `(circuit, build_cost)` — the cost is zero when reusing.
    pub fn circuit_for(&mut self, now: SimTime, rng: &mut DetRng) -> (Circuit, SimDuration) {
        if let Some(c) = self.circuit {
            if now.duration_since(c.built_at) < self.cfg.circuit_lifetime {
                return (c, SimDuration::ZERO);
            }
        }
        let exit = self.pick(rng, &[], |r| r.is_exit);
        let entry = self.pick(rng, &[exit], |_| true);
        let middle = self.pick(rng, &[exit, entry], |_| true);
        let c = Circuit {
            entry,
            middle,
            exit,
            built_at: now,
        };
        // Per-circuit quality: log-normal congestion multiplier. Lighter
        // relays (low consensus weight) are likelier to be oversubscribed.
        let weight_penalty = 3.0
            / (self.directory[entry].bandwidth_weight
                + self.directory[middle].bandwidth_weight
                + self.directory[exit].bandwidth_weight)
                .max(1.0);
        self.circuit_quality = (rng.log_normal(0.0, 0.55) * (1.0 + weight_penalty)).clamp(0.9, 5.0);
        self.circuit = Some(c);
        self.circuits_built += 1;
        (c, self.cfg.circuit_build_cost)
    }

    /// Force the next fetch to build a fresh circuit (the paper's
    /// Fig. 6a sends redundant requests over *separate* circuits).
    pub fn drop_circuit(&mut self) {
        self.circuit = None;
    }
}

impl Default for TorClient {
    fn default() -> Self {
        TorClient::new()
    }
}

impl Transport for TorClient {
    fn name(&self) -> &str {
        "tor"
    }
    fn kind(&self) -> TransportKind {
        TransportKind::Relay
    }
    fn anonymous(&self) -> bool {
        true
    }
    fn fetch(&mut self, world: &World, ctx: &FetchCtx, url: &Url, rng: &mut DetRng) -> FetchReport {
        let (circuit, build_cost) = self.circuit_for(ctx.now, rng);
        let legs = [
            self.directory[circuit.entry].site,
            self.directory[circuit.middle].site,
            self.directory[circuit.exit].site,
        ];
        let mut report = relay_fetch(
            world,
            &ctx.provider,
            &legs,
            url,
            self.cfg.per_hop_overhead,
            rng,
        );
        // Circuit congestion scales the transfer; the build handshakes
        // pay it too.
        report.elapsed = report.elapsed.mul_f64(self.circuit_quality);
        report.elapsed += build_cost;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transports::Direct;
    use crate::world::{SiteSpec, World};
    use csaw_simnet::topology::{AccessNetwork, Asn, Provider};

    fn setup() -> (World, FetchCtx) {
        let provider = Provider::new(Asn(1), "isp");
        let access = AccessNetwork::single(provider.clone());
        let w = World::builder(access)
            .site(
                SiteSpec::new("www.youtube.com", Site::at_vantage_rtt(Region::UsEast, 186))
                    .default_page(360_000, 20),
            )
            .build();
        (
            w,
            FetchCtx {
                now: SimTime::ZERO,
                provider,
            },
        )
    }

    #[test]
    fn circuit_has_three_distinct_relays_and_exit_flag() {
        let mut tor = TorClient::new();
        let mut rng = DetRng::new(1);
        let (c, cost) = tor.circuit_for(SimTime::ZERO, &mut rng);
        assert!(cost > SimDuration::ZERO);
        assert_ne!(c.entry, c.middle);
        assert_ne!(c.middle, c.exit);
        assert_ne!(c.entry, c.exit);
        assert!(tor.directory[c.exit].is_exit);
    }

    #[test]
    fn circuit_reused_within_lifetime_rotated_after() {
        let mut tor = TorClient::new();
        let mut rng = DetRng::new(2);
        let (c1, _) = tor.circuit_for(SimTime::from_secs(0), &mut rng);
        let (c2, cost2) = tor.circuit_for(SimTime::from_secs(300), &mut rng);
        assert_eq!(c1, c2);
        assert_eq!(cost2, SimDuration::ZERO);
        let (c3, cost3) = tor.circuit_for(SimTime::from_secs(700), &mut rng);
        assert_ne!(c3.built_at, c1.built_at);
        assert!(cost3 > SimDuration::ZERO);
        assert_eq!(tor.circuits_built, 2);
    }

    #[test]
    fn bandwidth_weighting_prefers_heavy_relays() {
        let mut tor = TorClient::new();
        let mut rng = DetRng::new(3);
        let mut counts = vec![0usize; tor.directory.len()];
        for _ in 0..2_000 {
            tor.drop_circuit();
            let (c, _) = tor.circuit_for(SimTime::ZERO, &mut rng);
            counts[c.entry] += 1;
        }
        // guard-de1 (weight 9) should be picked as entry far more often
        // than relay-jp1 (weight 1).
        assert!(counts[0] > counts[11] * 3, "{counts:?}");
    }

    #[test]
    fn tor_fetch_much_slower_than_direct() {
        let (w, ctx) = setup();
        let mut rng = DetRng::new(4);
        let url = Url::parse("http://www.youtube.com/").unwrap();
        let direct = Direct.fetch(&w, &ctx, &url, &mut rng);
        let mut tor = TorClient::new();
        // Average over several circuits: a single draw can land on an
        // unusually fast 3-hop path.
        let mut total = SimDuration::ZERO;
        let rounds = 5u32;
        for _ in 0..rounds {
            tor.drop_circuit();
            let t = tor.fetch(&w, &ctx, &url, &mut rng);
            assert!(t.outcome.is_genuine_page());
            total += t.elapsed;
        }
        let mean = total.mul_f64(1.0 / rounds as f64);
        assert!(
            mean > direct.elapsed.mul_f64(1.5),
            "tor mean {} vs direct {}",
            mean,
            direct.elapsed
        );
    }

    #[test]
    fn exit_region_reported() {
        let mut tor = TorClient::new();
        let mut rng = DetRng::new(5);
        assert_eq!(tor.exit_region(), None);
        tor.circuit_for(SimTime::ZERO, &mut rng);
        assert!(tor.exit_region().is_some());
    }

    #[test]
    fn anonymous_flag() {
        assert!(TorClient::new().anonymous());
    }
}
