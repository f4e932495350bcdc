//! The statistics the benchmark reports: the per-round normalised
//! median, latency percentiles, and the quartile spread the acceptance
//! rule is written in.

use crate::calib::REFERENCE_MS;

/// One timed phase of one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Units of work the phase completed (reports, records, lines…).
    pub work: f64,
    /// Wall time of the phase, seconds.
    pub secs: f64,
    /// Mean of the calibrations run just before and just after, ms.
    pub calib_ms: f64,
}

impl Sample {
    /// Work per second as the clock saw it.
    pub fn raw_rate(&self) -> f64 {
        self.work / self.secs
    }

    /// Work per second on a host whose calibration takes
    /// [`REFERENCE_MS`]: a slow stretch (long calibration) is scaled up
    /// by exactly as much as it slowed the kernel next to it.
    pub fn normalised_rate(&self) -> f64 {
        self.raw_rate() * (self.calib_ms / REFERENCE_MS)
    }

    /// Seconds the phase would have taken on the reference host.
    pub fn normalised_secs(&self) -> f64 {
        self.secs * (REFERENCE_MS / self.calib_ms)
    }
}

/// Median of `values` (mean of the middle two when even). NaN-free
/// input is the caller's contract; an empty slice yields 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The reported estimate: median of the per-round normalised rates.
pub fn normalised_median(samples: &[Sample]) -> f64 {
    median(
        &samples
            .iter()
            .map(Sample::normalised_rate)
            .collect::<Vec<_>>(),
    )
}

/// The same without the calibration, printed beside it as `raw.<m>`.
pub fn raw_median(samples: &[Sample]) -> f64 {
    median(&samples.iter().map(Sample::raw_rate).collect::<Vec<_>>())
}

/// A latency sample, sorted once: any percentile, and the highest of
/// p90/p99/p99.9/p99.99 that still has at least ten samples beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct Latencies {
    sorted: Vec<f64>,
}

impl Latencies {
    /// Take ownership of the sample. NaN-free input is the caller's
    /// contract.
    pub fn new(mut values: Vec<f64>) -> Latencies {
        values.sort_by(|a, b| a.total_cmp(b));
        Latencies { sorted: values }
    }

    /// Sample count.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile; 0 for an empty sample.
    pub fn at(&self, pct: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let rank = ((pct / 100.0) * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// The highest percentile the sample supports (50 when it supports
    /// no tail at all).
    pub fn tail_pct(&self) -> f64 {
        let n = self.sorted.len();
        // In ten-thousandths, so "ten samples beyond" is exact arithmetic.
        [9_999usize, 9_990, 9_900, 9_000]
            .into_iter()
            .find(|k| n >= 10 + (n * k).div_ceil(10_000))
            .map_or(50.0, |k| k as f64 / 100.0)
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) — the rule the benchmark is accepted by.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)).abs() / med.abs()
}

/// Coefficient of variation (standard deviation over mean).
pub fn coefficient_of_variation(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny deterministic generator, so the synthetic series need no
    /// dependency on the system under test.
    struct Lcg(u64);
    impl Lcg {
        fn next_f64(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(0x5851_f42d_4c95_7f2d)
                .wrapping_add(0x1405_7b7e_f767_814f);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// `rounds` samples of a phase whose true rate is `truth`, on a host
    /// that slows down or speeds up by up to ±30% in waves lasting 10–40
    /// rounds; the calibration beside each sample sees the same wave,
    /// plus a little noise of its own.
    fn wavy_series(seed: u64, rounds: usize, truth: f64) -> Vec<Sample> {
        let mut rng = Lcg(seed);
        let mut out = Vec::with_capacity(rounds);
        let mut left = 0usize;
        let mut slowdown = 1.0;
        for _ in 0..rounds {
            if left == 0 {
                left = 10 + (rng.next_f64() * 30.0) as usize;
                // Mostly slow waves: the host is shared, it rarely speeds up.
                slowdown = 1.0 + (rng.next_f64() * 0.45 - 0.15);
            }
            left -= 1;
            let jitter = 1.0 + (rng.next_f64() - 0.5) * 0.04;
            let calib_jitter = 1.0 + (rng.next_f64() - 0.5) * 0.04;
            let work = 1000.0;
            out.push(Sample {
                work,
                secs: work / truth * slowdown * jitter,
                calib_ms: REFERENCE_MS * slowdown * calib_jitter,
            });
        }
        out
    }

    #[test]
    fn normalised_median_survives_slow_waves_raw_does_not() {
        let truth = 50_000.0;
        let mut raw_missed = 0;
        for seed in 1..=20u64 {
            let series = wavy_series(seed, 80, truth);
            let norm = normalised_median(&series);
            assert!(
                (norm / truth - 1.0).abs() < 0.05,
                "seed {seed}: normalised median {norm} strays from {truth}"
            );
            if (raw_median(&series) / truth - 1.0).abs() >= 0.05 {
                raw_missed += 1;
            }
        }
        assert!(
            raw_missed >= 10,
            "the raw median should miss the truth on most wavy series, missed {raw_missed}/20"
        );
    }

    #[test]
    fn normalisation_is_the_identity_on_the_reference_host() {
        let s = Sample {
            work: 10.0,
            secs: 2.0,
            calib_ms: REFERENCE_MS,
        };
        assert_eq!(s.raw_rate(), 5.0);
        assert_eq!(s.normalised_rate(), 5.0);
        assert_eq!(s.normalised_secs(), 2.0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let all = Latencies::new(v.clone());
        assert_eq!(all.n(), 1000);
        assert_eq!(all.at(50.0), 500.0);
        // 1000 samples leave 10 beyond p99 and only 1 beyond p99.9.
        assert_eq!(all.tail_pct(), 99.0);
        assert_eq!(all.at(all.tail_pct()), 990.0);
        let few = Latencies::new(v[..50].to_vec());
        assert_eq!(few.tail_pct(), 50.0, "50 samples support no tail at all");
        let hundred = Latencies::new(v[..100].to_vec());
        assert_eq!(hundred.tail_pct(), 90.0);
        assert_eq!(hundred.at(90.0), 90.0);
        let none = Latencies::new(Vec::new());
        assert_eq!((none.n(), none.at(99.0), none.tail_pct()), (0, 0.0, 50.0));
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11, 13, 50], n=4) == [10.5, 12.0, 31.5]
        let w = [10.0, 12.0, 11.0, 13.0, 50.0];
        assert!((quartile_spread(&w) - (31.5 - 10.5) / 12.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }
}
