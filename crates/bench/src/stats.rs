//! Distribution summaries, CDFs and the CDF figure panel for experiment
//! reporting.
//!
//! Two quantile paths are kept on purpose, split by whether the raw
//! sample is at hand. Raw samples get **exact** percentiles
//! ([`percentile_sorted`]: sort + linear interpolation): the
//! figure/table renderers reproduce the paper's numbers and must carry
//! no sketch error, and `report trace`'s leg columns read every sample
//! of the trace. Streaming digests get
//! `csaw_obs::metrics::Histogram::quantile_us`, log-bucketed (exact
//! below 64 µs, ≤ ~1.6 % above): the metrics registry and every
//! windowed timeline digest cannot keep raw samples.

use crate::experiments::Outcome;
use csaw_simnet::time::SimDuration;

/// Summary statistics over a sample of durations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean, seconds.
    pub mean_s: f64,
    /// Median, seconds.
    pub median_s: f64,
    /// 95th percentile, seconds.
    pub p95_s: f64,
    /// Minimum, seconds.
    pub min_s: f64,
    /// Maximum, seconds.
    pub max_s: f64,
}

impl Summary {
    /// Summarize a sample (empty samples produce all-zero summaries).
    pub fn of(samples: &[SimDuration]) -> Summary {
        if samples.is_empty() {
            return Summary {
                n: 0,
                mean_s: 0.0,
                median_s: 0.0,
                p95_s: 0.0,
                min_s: 0.0,
                max_s: 0.0,
            };
        }
        let mut secs: Vec<f64> = samples.iter().map(|d| d.as_secs_f64()).collect();
        secs.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        let n = secs.len();
        Summary {
            n,
            mean_s: secs.iter().sum::<f64>() / n as f64,
            median_s: percentile_sorted(&secs, 50.0),
            p95_s: percentile_sorted(&secs, 95.0),
            min_s: secs[0],
            max_s: secs[n - 1],
        }
    }
}

/// Percentile over a sorted sample, nearest-rank with linear
/// interpolation.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let p = p.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Percentile of a duration sample.
pub fn percentile(samples: &[SimDuration], p: f64) -> SimDuration {
    if samples.is_empty() {
        return SimDuration::ZERO;
    }
    let mut secs: Vec<f64> = samples.iter().map(|d| d.as_secs_f64()).collect();
    secs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    SimDuration::from_secs_f64(percentile_sorted(&secs, p))
}

/// An empirical CDF: one series' sorted sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    /// Series label (legend entry).
    pub label: String,
    /// Sorted sample, seconds.
    pub values_s: Vec<f64>,
}

impl Cdf {
    /// Build from a duration sample.
    pub fn of(label: &str, samples: &[SimDuration]) -> Cdf {
        let mut values_s: Vec<f64> = samples.iter().map(|d| d.as_secs_f64()).collect();
        values_s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Cdf {
            label: label.to_string(),
            values_s,
        }
    }

    /// Median of the series.
    pub fn median(&self) -> f64 {
        if self.values_s.is_empty() {
            0.0
        } else {
            percentile_sorted(&self.values_s, 50.0)
        }
    }

    /// p-th percentile of the series.
    pub fn pct(&self, p: f64) -> f64 {
        if self.values_s.is_empty() {
            0.0
        } else {
            percentile_sorted(&self.values_s, p)
        }
    }
}

/// A CDF figure panel: a title over one PLT CDF per series.
#[derive(Debug, Clone, PartialEq)]
pub struct Panel {
    /// Panel title.
    pub title: String,
    /// PLT CDFs, one per series.
    pub series: Vec<Cdf>,
}

impl Panel {
    /// A series by label.
    pub fn series(&self, label: &str) -> &Cdf {
        self.series
            .iter()
            .find(|c| c.label == label)
            .unwrap_or_else(|| panic!("series {label} missing"))
    }
}

impl Outcome for Panel {
    /// The title over every series sampled at fixed quantiles — the
    /// textual analogue of the paper's CDF figures.
    fn render(&self) -> String {
        let quantiles = [10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0];
        let mut out = format!("{}\n", self.title);
        out.push_str(&format!("{:<28}", "series \\ PLT(s) at CDF="));
        for q in quantiles {
            out.push_str(&format!("{:>8}", format!("p{q:.0}")));
        }
        out.push('\n');
        for cdf in &self.series {
            out.push_str(&format!("{:<28}", cdf.label));
            for q in quantiles {
                out.push_str(&format!("{:>8.2}", cdf.pct(q)));
            }
            out.push('\n');
        }
        out
    }
}

/// Relative reduction `(a - b) / a`, in percent (how much better `b` is).
pub fn reduction_pct(a: f64, b: f64) -> f64 {
    if a <= 0.0 {
        0.0
    } else {
        (a - b) / a * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(xs: &[u64]) -> Vec<SimDuration> {
        xs.iter().map(|x| SimDuration::from_millis(*x)).collect()
    }

    #[test]
    fn summary_basics() {
        let s = Summary::of(&ms(&[100, 200, 300, 400, 500]));
        assert_eq!(s.n, 5);
        assert!((s.mean_s - 0.3).abs() < 1e-9);
        assert!((s.median_s - 0.3).abs() < 1e-9);
        assert!((s.min_s - 0.1).abs() < 1e-9);
        assert!((s.max_s - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean_s, 0.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile_sorted(&sorted, 0.0) - 1.0).abs() < 1e-9);
        assert!((percentile_sorted(&sorted, 100.0) - 4.0).abs() < 1e-9);
        assert!((percentile_sorted(&sorted, 50.0) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn cdf_points_monotone() {
        let c = Cdf::of("x", &ms(&[300, 100, 200]));
        assert_eq!(c.values_s.len(), 3);
        assert!(c.values_s.windows(2).all(|w| w[0] <= w[1]));
        assert!((c.median() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn reduction() {
        assert!((reduction_pct(10.0, 5.0) - 50.0).abs() < 1e-9);
        assert_eq!(reduction_pct(0.0, 5.0), 0.0);
    }

    #[test]
    fn render_has_all_series() {
        let a = Cdf::of("alpha", &ms(&[100, 200]));
        let b = Cdf::of("beta", &ms(&[300, 400]));
        let panel = Panel {
            title: "title".into(),
            series: vec![a, b],
        };
        let t = panel.render();
        assert!(t.starts_with("title\n"));
        assert!(t.contains("alpha"));
        assert!(t.contains("beta"));
        assert!(t.lines().count() >= 4);
    }
}
