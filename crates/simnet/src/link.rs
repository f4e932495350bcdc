//! Links and end-to-end paths.
//!
//! A [`Link`] abstracts one segment of a network path: its one-way
//! propagation latency, latency jitter, independent packet-loss rate and
//! bottleneck bandwidth. A [`Path`] composes links end to end; round-trip
//! time, loss and bottleneck bandwidth are derived from the composition.
//!
//! Loss is the medium's one fault term: a first-class knob on each link,
//! not a special case in protocol code, and the C-Saw measurement module
//! must tell censorship apart from it. Congestion-style delay spikes are
//! not a property of the medium; they belong to the flaky static proxies
//! of Figure 1a (`csaw_circumvent::transports::StaticProxy::congested`).

use crate::rng::DetRng;
use crate::time::SimDuration;

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
    /// A wide-area transit segment with the given one-way latency.
    pub fn wan(one_way: SimDuration) -> Link {
        Link {
            latency: one_way,
            jitter: one_way.mul_f64(0.05),
            loss: 0.001,
            bandwidth_bps: 100_000_000,
        }
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

/// An end-to-end path composed of directed links.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    links: Vec<Link>,
}

impl Path {
    /// A path over the given links.
    pub fn new(links: Vec<Link>) -> Path {
        assert!(!links.is_empty(), "a path needs at least one link");
        Path { links }
    }

    /// Single-link convenience constructor.
    pub fn single(link: Link) -> Path {
        Path::new(vec![link])
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
        Path { links }
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

    /// Sample a one-way traversal delay including jitter.
    pub fn sample_one_way(&self, rng: &mut DetRng) -> SimDuration {
        let mut d = SimDuration::ZERO;
        for l in &self.links {
            d += l.sample_delay(rng);
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
        let link = |ms, bandwidth_bps| Link {
            latency: SimDuration::from_millis(ms),
            jitter: SimDuration::ZERO,
            loss: 0.0,
            bandwidth_bps,
        };
        let p = Path::new(vec![link(40, 50_000_000), link(60, 10_000_000)]);
        let mut rng = DetRng::new(1);
        assert_eq!(p.sample_one_way(&mut rng), SimDuration::from_millis(100));
        assert_eq!(p.bottleneck_bps(), 10_000_000);
    }

    #[test]
    fn loss_composes_multiplicatively() {
        let lossy = Link {
            loss: 0.1,
            ..Link::wan(SimDuration::from_millis(1))
        };
        let p = Path::new(vec![lossy, lossy]);
        assert!((p.loss() - 0.19).abs() < 1e-9);
    }

    #[test]
    fn join_concatenates() {
        let a = Path::single(Link::wan(SimDuration::from_millis(10)));
        let b = Path::single(Link::wan(SimDuration::from_millis(20)));
        let j = a.join(&b);
        assert_eq!(j.links, [a.links, b.links].concat());
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
    fn sampled_rtt_tracks_base_under_small_jitter() {
        let mut rng = DetRng::new(3);
        let p = Path::single(Link::wan(SimDuration::from_millis(100)));
        let n = 500;
        let avg_us: u64 = (0..n)
            .map(|_| p.sample_rtt(&mut rng).as_micros())
            .sum::<u64>()
            / n;
        let base = (p.links[0].latency * 2).as_micros();
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
