//! Table 6: the cost of direct-path revalidation probability `p`.
//!
//! The paper (Tor as the circumvention approach, a blocked URL reported
//! via the global DB): median PLT rises from 5.6 s at p = 0 to 8.1 s at
//! p = 0.75, because each probe occupies the client concurrently with
//! the user's fetch — and a probe against, e.g., TCP/IP blocking lingers
//! for its whole 21 s detection window, taxing later requests too.

use crate::experiments::Outcome;
use crate::runner::{self, TrialSpec};
use crate::stats::percentile;
use crate::worlds::{single_isp_world, YOUTUBE};
use csaw::measure::{measure_direct, DetectConfig};
use csaw_censor::blocking::{DnsTamper, HttpAction, IpAction, TlsAction};
use csaw_circumvent::tor::TorClient;
use csaw_circumvent::transports::{FetchCtx, Transport};
use csaw_simnet::load::{InFlightTracker, LoadModel};
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use csaw_webproto::url::Url;

/// One sweep row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PRow {
    /// Revalidation probability.
    pub p: f64,
    /// Median PLT (s).
    pub median_s: f64,
}

/// The experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct Table6 {
    /// Rows for p ∈ {0, 0.25, 0.5, 0.75}.
    pub rows: Vec<PRow>,
}

/// The swept revalidation probabilities.
const PROBS: [f64; 4] = [0.0, 0.25, 0.5, 0.75];

/// The 200-slot Tor base series and the probe detection time, both pure
/// functions of the experiment seed.
fn shared_inputs(seed: u64) -> (Vec<Option<SimDuration>>, SimDuration) {
    let policy = csaw_censor::single_mechanism(
        "T6",
        YOUTUBE,
        DnsTamper::None,
        IpAction::Drop,
        HttpAction::None,
        TlsAction::None,
    );
    let world = single_isp_world(Asn(5400), "T6-ISP", policy);
    let url = Url::parse(&format!("http://{YOUTUBE}/")).expect("static URL");
    let provider = world.access.providers()[0].clone();
    // Shared base series: 200 Tor fetches, one per access slot.
    let mut base_rng = DetRng::new(seed);
    let mut tor = TorClient::new();
    let mut bases = Vec::with_capacity(200);
    for i in 0..200u64 {
        let ctx = FetchCtx {
            now: SimTime::from_secs(i * 10),
            provider: provider.clone(),
        };
        let r = tor.fetch(&world, &ctx, &url, &mut base_rng);
        bases.push(r.genuine_plt());
    }
    // Probe cost is deterministic for IP blocking: the full 21 s
    // ladder (plus DNS); measure it once.
    let probe_time = {
        let mut rng = DetRng::new(seed ^ 0xbeef);
        measure_direct(
            &world,
            &provider,
            &url,
            Some(360_000),
            &DetectConfig::default(),
            &mut rng,
        )
        .detection_time
    };
    (bases, probe_time)
}

/// Run the sweep: a TCP/IP-blocked URL served via Tor, 200 accesses
/// 10 s apart; with probability `p` an access also launches a direct
/// probe that stays in flight for its full detection time.
///
/// One runner trial per `p`. Each trial deterministically *recomputes*
/// the shared Tor base series from `seed` (and the probe cost from
/// `seed ^ 0xbeef`), so the paired design — every row built on the
/// identical fetch sequence — survives parallel execution without any
/// cross-trial state.
pub fn run(seed: u64, jobs: usize) -> Table6 {
    let specs: Vec<TrialSpec> = PROBS
        .iter()
        .enumerate()
        .map(|(i, p)| TrialSpec::salted(seed ^ p.to_bits(), i as u64, format!("p={p}")))
        .collect();
    let rows = runner::map(&specs, jobs, |spec| {
        let p = PROBS[spec.ordinal as usize];
        let (bases, probe_time) = shared_inputs(seed);
        let load = LoadModel::default();
        let mut rng = DetRng::new(spec.seed);
        let mut probes = InFlightTracker::new();
        let mut plts = Vec::new();
        for (i, base) in bases.iter().enumerate() {
            let now = SimTime::from_secs(i as u64 * 10);
            let Some(base) = *base else { continue };
            let mut concurrent = 1 + probes.in_flight_at(now.as_micros());
            if rng.chance(p) {
                probes.record(now.as_micros(), (now + probe_time).as_micros());
                concurrent += 1;
            }
            plts.push(load.inflate(base, concurrent, &mut rng));
        }
        PRow {
            p,
            median_s: percentile(&plts, 50.0).as_secs_f64(),
        }
    });
    Table6 { rows }
}

impl Table6 {
    /// The row for a given p.
    pub fn row(&self, p: f64) -> &PRow {
        self.rows
            .iter()
            .find(|r| (r.p - p).abs() < 1e-9)
            .expect("row exists")
    }
}

impl Outcome for Table6 {
    fn render(&self) -> String {
        let mut out = String::from("Table 6: revalidation probability p vs median PLT\n");
        out.push_str(&format!("  {:>6}{:>14}\n", "p", "median PLT(s)"));
        for r in &self.rows {
            out.push_str(&format!("  {:>6.2}{:>14.2}\n", r.p, r.median_s));
        }
        out.push_str("  (paper: 5.6 / 6.9 / 7.5 / 8.1)\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_plt_monotone_in_p() {
        let t = run(61, 1);
        assert_eq!(t.rows.len(), 4);
        for w in t.rows.windows(2) {
            assert!(
                w[1].median_s >= w[0].median_s,
                "p={} median {:.2} < p={} median {:.2}",
                w[1].p,
                w[1].median_s,
                w[0].p,
                w[0].median_s
            );
        }
        // Meaningful growth end-to-end (paper: 5.6 → 8.1, ~45%).
        let growth = t.row(0.75).median_s / t.row(0.0).median_s;
        assert!(
            (1.15..=2.5).contains(&growth),
            "p=0.75 vs p=0 growth {growth:.2}x"
        );
    }

    #[test]
    fn p_quarter_cost_is_moderate() {
        let t = run(62, 1);
        let ratio = t.row(0.25).median_s / t.row(0.0).median_s;
        // The paper recommends p ≤ 0.25 as the sweet spot: some cost,
        // far from the p = 0.75 penalty.
        assert!((1.0..=1.6).contains(&ratio), "ratio {ratio:.2}");
    }
}
