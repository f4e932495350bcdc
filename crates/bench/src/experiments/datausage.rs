//! Data-usage accounting — the §8 "C-Saw's data usage" discussion,
//! quantified.
//!
//! Redundant requests and revalidation probes cost bytes, which matters
//! on metered connections in developing regions. This ablation measures
//! the *byte overhead* of C-Saw relative to a plain browser over the same
//! browse session, as a function of the revalidation probability `p` and
//! the redundancy mode — backing the paper's advice that selective
//! redundancy keeps the common case cheap and that `p` can be lowered in
//! developing regions.

use crate::experiments::Outcome;
use crate::runner::{self, TrialSpec};
use csaw::config::RedundancyMode;
use csaw::measure::{fetch_with_redundancy, measure_direct, DetectConfig};
use csaw_circumvent::tor::TorClient;
use csaw_circumvent::transports::{Direct, FetchCtx, Transport};
use csaw_circumvent::world::World;
use csaw_simnet::load::LoadModel;
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::SimTime;
use csaw_webproto::url::Url;

/// One configuration's byte accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageRow {
    /// Configuration label.
    pub label: String,
    /// Bytes a plain browser would have moved.
    pub baseline_bytes: u64,
    /// Bytes this configuration moved (user traffic + copies + probes).
    pub total_bytes: u64,
}

impl UsageRow {
    /// Overhead relative to the baseline, percent.
    pub fn overhead_pct(&self) -> f64 {
        if self.baseline_bytes == 0 {
            0.0
        } else {
            (self.total_bytes as f64 / self.baseline_bytes as f64 - 1.0) * 100.0
        }
    }
}

/// The experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct DataUsage {
    /// One row per configuration.
    pub rows: Vec<UsageRow>,
}

/// Simulate a 60-request browse session over 6 hosts (4 pages each) and
/// account bytes. Returns (baseline, total).
///
/// Paired design: the URL sequence and the per-visit probe coin flips are
/// drawn from their own seeds, shared across every configuration, so the
/// rows differ only in what the configuration itself costs.
fn session_bytes(world: &World, mode: RedundancyMode, revalidate_p: f64, seed: u64) -> (u64, u64) {
    let provider = world.access.providers()[0].clone();
    let mut url_rng = DetRng::new(seed ^ 0x0a11);
    let hosts = [
        crate::worlds::YOUTUBE,
        crate::worlds::SMALL_PAGE,
        crate::worlds::LARGE_PAGE,
        "twitter.com",
        "instagram.com",
        crate::worlds::PORN_PAGE,
    ];
    let urls: Vec<Url> = (0..60)
        .map(|i| {
            let h = hosts[url_rng.index(hosts.len())];
            Url::parse(&format!("http://{h}/page/{}", i % 4)).expect("static URL")
        })
        .collect();
    // Shared probe schedule: flip a p=1 coin per visit, probe when the
    // shared draw falls under this row's p.
    let mut probe_rng = DetRng::new(seed ^ 0x0b22);
    let probe_draws: Vec<f64> = (0..urls.len()).map(|_| probe_rng.f64()).collect();
    let mut rng = DetRng::new(seed);
    let mut tor = TorClient::new();
    let mut measured: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut baseline = 0u64;
    let mut total = 0u64;
    for (i, url) in urls.iter().enumerate() {
        let ctx = FetchCtx {
            now: SimTime::from_secs(i as u64 * 45),
            provider: provider.clone(),
        };
        // Baseline: what a plain browser moves for this URL.
        let plain = Direct.fetch(world, &ctx, url, &mut rng);
        let page_bytes = plain.outcome.page().map(|p| p.bytes).unwrap_or(0);
        baseline += page_bytes;
        // C-Saw: first contact measures with a redundant copy; later
        // visits go direct, with probability-p probes.
        let key = url.base().to_string();
        if measured.insert(key) {
            let out = fetch_with_redundancy(
                world,
                &ctx,
                url,
                mode,
                &mut tor,
                &DetectConfig::default(),
                &LoadModel::default(),
                &mut rng,
            );
            total += out.measurement.page_bytes.unwrap_or(0);
            total += out
                .circumvention
                .as_ref()
                .and_then(|c| c.outcome.page().map(|p| p.bytes))
                .unwrap_or(0);
        } else {
            total += page_bytes;
            if probe_draws[i] < revalidate_p {
                let m = measure_direct(
                    world,
                    &provider,
                    url,
                    Some(page_bytes),
                    &DetectConfig::default(),
                    &mut rng,
                );
                total += m.page_bytes.unwrap_or(0);
            }
        }
    }
    (baseline, total)
}

/// The swept configurations.
fn configs() -> [(&'static str, RedundancyMode, f64); 5] {
    [
        ("parallel, p=0.00", RedundancyMode::Parallel, 0.0),
        ("parallel, p=0.25", RedundancyMode::Parallel, 0.25),
        ("parallel, p=0.75", RedundancyMode::Parallel, 0.75),
        (
            "staggered-2s, p=0.25",
            RedundancyMode::Staggered(csaw_simnet::SimDuration::from_secs(2)),
            0.25,
        ),
        ("serial, p=0.25", RedundancyMode::Serial, 0.25),
    ]
}

/// Run the ablation across redundancy modes and p values: one runner
/// trial per configuration. Every trial carries the *same* seed —
/// `session_bytes` derives its URL and probe-schedule streams from fixed
/// salts of it, which is exactly the paired design the serial sweep used.
pub fn run(seed: u64, jobs: usize) -> DataUsage {
    let configs = configs();
    let specs: Vec<TrialSpec> = configs
        .iter()
        .enumerate()
        .map(|(i, (label, ..))| TrialSpec::salted(seed, i as u64, *label))
        .collect();
    let rows = runner::map(&specs, jobs, |spec| {
        let (label, mode, p) = configs[spec.ordinal as usize];
        let world = crate::worlds::clean_world();
        let (baseline, total) = session_bytes(&world, mode, p, spec.seed);
        UsageRow {
            label: label.to_string(),
            baseline_bytes: baseline,
            total_bytes: total,
        }
    });
    DataUsage { rows }
}

impl DataUsage {
    /// A row by label.
    pub fn row(&self, label: &str) -> &UsageRow {
        self.rows
            .iter()
            .find(|r| r.label == label)
            .unwrap_or_else(|| panic!("row {label} missing"))
    }
}

impl Outcome for DataUsage {
    fn render(&self) -> String {
        let mut out = String::from("Data usage (extension of §8): bytes vs a plain browser\n");
        out.push_str(&format!(
            "  {:<22}{:>14}{:>14}{:>12}\n",
            "config", "baseline(KB)", "csaw(KB)", "overhead"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<22}{:>14}{:>14}{:>11.1}%\n",
                r.label,
                r.baseline_bytes / 1000,
                r.total_bytes / 1000,
                r.overhead_pct()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_grows_with_p() {
        let d = run(71, 1);
        let p00 = d.row("parallel, p=0.00").overhead_pct();
        let p25 = d.row("parallel, p=0.25").overhead_pct();
        let p75 = d.row("parallel, p=0.75").overhead_pct();
        assert!(p00 < p25 && p25 < p75, "{p00:.1} / {p25:.1} / {p75:.1}");
    }

    #[test]
    fn selective_redundancy_keeps_overhead_modest() {
        let d = run(72, 1);
        // 6 distinct hosts in 60 requests: only ~10% of requests are
        // first contacts, so even parallel mode with p=0.25 stays well
        // under a blanket-duplication 100%.
        let r = d.row("parallel, p=0.25");
        assert!(r.overhead_pct() < 60.0, "overhead {:.1}%", r.overhead_pct());
        assert!(r.overhead_pct() > 3.0, "overhead suspiciously low");
    }

    #[test]
    fn serial_and_staggered_cheaper_or_equal_to_parallel() {
        let d = run(73, 1);
        let par = d.row("parallel, p=0.25").total_bytes;
        let ser = d.row("serial, p=0.25").total_bytes;
        // Serial only fetches the copy when blocking was detected — in a
        // clean world, never.
        assert!(ser <= par, "serial {ser} > parallel {par}");
    }
}
