//! Links and end-to-end paths.
//!
//! A [`Link`] abstracts one segment of a network path: its one-way
//! propagation latency, latency jitter, independent packet-loss rate and
//! bottleneck bandwidth. A [`Path`] composes links end to end; round-trip
//! time, loss and bottleneck bandwidth are derived from the composition.
//!
//! Fault injection (extra loss, congestion-style delay spikes) follows the
//! smoltcp examples' philosophy: adverse conditions are first-class knobs on
//! the medium, not special cases in protocol code. The C-Saw measurement
//! module must distinguish censorship from exactly these conditions.

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// One directed network segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// One-way propagation delay.
    pub latency: SimDuration,
    /// Standard deviation of per-traversal latency jitter (log-normal-ish,
    /// applied symmetrically as a non-negative multiplier).
    pub jitter: SimDuration,
    /// Independent per-packet loss probability in `[0, 1)`.
    pub loss: f64,
    /// Bottleneck bandwidth in bits per second.
    pub bandwidth_bps: u64,
}

impl Link {
    /// A clean, fast LAN-ish link: 1 ms, no jitter, no loss, 1 Gbps.
    pub fn lan() -> Link {
        Link {
            latency: SimDuration::from_millis(1),
            jitter: SimDuration::ZERO,
            loss: 0.0,
            bandwidth_bps: 1_000_000_000,
        }
    }

    /// A typical consumer access link in the measurement region:
    /// 8 ms one-way, small jitter, light loss, 20 Mbps.
    pub fn access() -> Link {
        Link {
            latency: SimDuration::from_millis(8),
            jitter: SimDuration::from_millis(2),
            loss: 0.002,
            bandwidth_bps: 20_000_000,
        }
    }

    /// A wide-area transit segment with the given one-way latency.
    pub fn wan(one_way: SimDuration) -> Link {
        Link {
            latency: one_way,
            jitter: one_way.mul_f64(0.05),
            loss: 0.001,
            bandwidth_bps: 100_000_000,
        }
    }

    /// Builder: set loss rate.
    pub fn with_loss(mut self, loss: f64) -> Link {
        self.loss = loss.clamp(0.0, 0.999);
        self
    }

    /// Builder: set bandwidth.
    pub fn with_bandwidth(mut self, bps: u64) -> Link {
        self.bandwidth_bps = bps.max(1);
        self
    }

    /// Sample the one-way delay for a single traversal.
    pub fn sample_delay(&self, rng: &mut DetRng) -> SimDuration {
        if self.jitter.is_zero() {
            return self.latency;
        }
        let j = rng
            .normal(0.0, self.jitter.as_micros() as f64)
            .abs()
            .round() as u64;
        self.latency + SimDuration::from_micros(j)
    }
}

/// A periodic link flap / loss-burst profile (fault-injection knob).
///
/// Every `period`, the link spends `down_for` in a degraded burst where
/// its loss rate jumps to `burst_loss` (1.0 models a hard flap — every
/// packet dies). The schedule is a pure function of virtual time, so a
/// chaos experiment replaying the same seed sees identical bursts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlapProfile {
    /// Cycle length. A zero period disables the profile.
    pub period: SimDuration,
    /// Degraded span at the start of each cycle (clamped to `period`).
    pub down_for: SimDuration,
    /// Phase offset, so multiple links armed from the same profile do
    /// not flap in lockstep.
    pub phase: SimDuration,
    /// Loss rate during the burst.
    pub burst_loss: f64,
}

impl FlapProfile {
    /// A hard on/off flap: total loss during `down_for` of each cycle.
    pub fn hard(period: SimDuration, down_for: SimDuration, phase: SimDuration) -> FlapProfile {
        FlapProfile {
            period,
            down_for,
            phase,
            burst_loss: 1.0,
        }
    }

    /// Is the link inside a burst at `now`?
    pub fn is_down(&self, now: SimTime) -> bool {
        let p = self.period.as_micros();
        if p == 0 {
            return false;
        }
        (now.as_micros() + self.phase.as_micros()) % p < self.down_for.as_micros().min(p)
    }

    /// The link as seen at `now`: during a burst the loss rate is
    /// raised to `burst_loss` (never lowered), otherwise unchanged.
    pub fn apply(&self, link: Link, now: SimTime) -> Link {
        if self.is_down(now) {
            link.with_loss(self.burst_loss.max(link.loss))
        } else {
            link
        }
    }
}

/// An end-to-end path composed of directed links.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    links: Vec<Link>,
    /// Extra delay injected by on-path congestion (fault injection knob):
    /// with probability `congestion_p`, a traversal suffers an extra delay
    /// uniform in `[0, congestion_max]`.
    pub congestion_p: f64,
    /// See [`Path::congestion_p`].
    pub congestion_max: SimDuration,
}

impl Path {
    /// A path over the given links with no congestion injection.
    pub fn new(links: Vec<Link>) -> Path {
        assert!(!links.is_empty(), "a path needs at least one link");
        Path {
            links,
            congestion_p: 0.0,
            congestion_max: SimDuration::ZERO,
        }
    }

    /// Single-link convenience constructor.
    pub fn single(link: Link) -> Path {
        Path::new(vec![link])
    }

    /// Enable congestion-style delay spikes (used to model the flaky static
    /// proxies of Figure 1a and to stress censorship/fault disambiguation).
    pub fn with_congestion(mut self, p: f64, max: SimDuration) -> Path {
        self.congestion_p = p.clamp(0.0, 1.0);
        self.congestion_max = max;
        self
    }

    /// This path followed by one more link: `self.join(&Path::single(link))`
    /// without building the one-link path.
    pub fn then(mut self, link: Link) -> Path {
        self.links.push(link);
        self
    }

    /// Concatenate two paths (e.g. client→proxy plus proxy→origin).
    pub fn join(&self, tail: &Path) -> Path {
        let mut links = self.links.clone();
        links.extend(tail.links.iter().cloned());
        Path {
            links,
            congestion_p: (self.congestion_p + tail.congestion_p).clamp(0.0, 1.0),
            congestion_max: self.congestion_max.max(tail.congestion_max),
        }
    }

    /// The links of this path.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Nominal (jitter-free) one-way latency: sum of link latencies.
    pub fn base_one_way(&self) -> SimDuration {
        self.links
            .iter()
            .fold(SimDuration::ZERO, |acc, l| acc + l.latency)
    }

    /// Nominal round-trip time.
    pub fn base_rtt(&self) -> SimDuration {
        self.base_one_way() * 2
    }

    /// Bottleneck bandwidth: the minimum across links.
    pub fn bottleneck_bps(&self) -> u64 {
        self.links
            .iter()
            .map(|l| l.bandwidth_bps)
            .min()
            .unwrap_or(1)
    }

    /// Combined per-packet survival-based loss rate:
    /// `1 - prod(1 - loss_i)`.
    pub fn loss(&self) -> f64 {
        1.0 - self
            .links
            .iter()
            .fold(1.0_f64, |acc, l| acc * (1.0 - l.loss))
    }

    /// Sample a one-way traversal delay including jitter and congestion.
    pub fn sample_one_way(&self, rng: &mut DetRng) -> SimDuration {
        let mut d = SimDuration::ZERO;
        for l in &self.links {
            d += l.sample_delay(rng);
        }
        if self.congestion_p > 0.0 && rng.chance(self.congestion_p) {
            d += SimDuration::from_micros(
                rng.range_u64(0, self.congestion_max.as_micros().max(1) + 1),
            );
        }
        d
    }

    /// Sample a round-trip delay (two independent one-way samples).
    pub fn sample_rtt(&self, rng: &mut DetRng) -> SimDuration {
        self.sample_one_way(rng) + self.sample_one_way(rng)
    }

    /// Bernoulli trial: was a single packet traversal lost?
    pub fn packet_lost(&self, rng: &mut DetRng) -> bool {
        rng.chance(self.loss())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_composition_adds_latency_and_mins_bandwidth() {
        let p = Path::new(vec![
            Link::wan(SimDuration::from_millis(40)).with_bandwidth(50_000_000),
            Link::wan(SimDuration::from_millis(60)).with_bandwidth(10_000_000),
        ]);
        assert_eq!(p.base_one_way(), SimDuration::from_millis(100));
        assert_eq!(p.base_rtt(), SimDuration::from_millis(200));
        assert_eq!(p.bottleneck_bps(), 10_000_000);
    }

    #[test]
    fn loss_composes_multiplicatively() {
        let p = Path::new(vec![Link::lan().with_loss(0.1), Link::lan().with_loss(0.1)]);
        assert!((p.loss() - 0.19).abs() < 1e-9);
    }

    #[test]
    fn flap_profile_windows_and_phase() {
        let f = FlapProfile::hard(
            SimDuration::from_secs(100),
            SimDuration::from_secs(10),
            SimDuration::ZERO,
        );
        assert!(f.is_down(SimTime::ZERO));
        assert!(f.is_down(SimTime::from_secs(9)));
        assert!(!f.is_down(SimTime::from_secs(10)));
        assert!(f.is_down(SimTime::from_secs(105)));
        // A phase offset shifts the burst.
        let g = FlapProfile::hard(
            SimDuration::from_secs(100),
            SimDuration::from_secs(10),
            SimDuration::from_secs(50),
        );
        assert!(!g.is_down(SimTime::ZERO));
        assert!(g.is_down(SimTime::from_secs(55)));
        // Applying during a burst drives loss to 1.0, and never lowers it.
        let l = Link::access().with_loss(0.5);
        assert_eq!(f.apply(l, SimTime::from_secs(5)).loss, 0.999, "clamped");
        assert_eq!(f.apply(l, SimTime::from_secs(50)).loss, 0.5);
        // A zero period never fires.
        let z = FlapProfile::hard(
            SimDuration::ZERO,
            SimDuration::from_secs(1),
            SimDuration::ZERO,
        );
        assert!(!z.is_down(SimTime::from_secs(3)));
    }

    #[test]
    fn join_concatenates() {
        let a = Path::single(Link::wan(SimDuration::from_millis(10)));
        let b = Path::single(Link::wan(SimDuration::from_millis(20)));
        let j = a.join(&b);
        assert_eq!(j.links().len(), 2);
        assert_eq!(j.base_one_way(), SimDuration::from_millis(30));
    }

    #[test]
    fn jitter_free_sampling_is_exact() {
        let mut rng = DetRng::new(1);
        let p = Path::single(Link {
            latency: SimDuration::from_millis(25),
            jitter: SimDuration::ZERO,
            loss: 0.0,
            bandwidth_bps: 1_000_000,
        });
        for _ in 0..10 {
            assert_eq!(p.sample_one_way(&mut rng), SimDuration::from_millis(25));
        }
    }

    #[test]
    fn congestion_spikes_only_increase_delay() {
        let mut rng = DetRng::new(2);
        let base = Path::single(Link::wan(SimDuration::from_millis(50)));
        let congested = base
            .clone()
            .with_congestion(1.0, SimDuration::from_millis(500));
        for _ in 0..50 {
            let c = congested.sample_one_way(&mut rng);
            assert!(c >= SimDuration::from_millis(50));
            assert!(c <= SimDuration::from_millis(50 + 500) + congested.base_one_way());
        }
    }

    #[test]
    fn sampled_rtt_tracks_base_under_small_jitter() {
        let mut rng = DetRng::new(3);
        let p = Path::single(Link::wan(SimDuration::from_millis(100)));
        let n = 500;
        let avg_us: u64 = (0..n)
            .map(|_| p.sample_rtt(&mut rng).as_micros())
            .sum::<u64>()
            / n;
        let base = p.base_rtt().as_micros();
        let tol = base / 5;
        assert!(
            avg_us >= base && avg_us <= base + tol,
            "avg {avg_us} vs base {base}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one link")]
    fn empty_path_rejected() {
        Path::new(vec![]);
    }
}
