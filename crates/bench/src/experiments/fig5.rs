//! Figure 5: the impact of redundant requests on PLTs (§7.1).
//!
//! - **(a)** blocked pages, serial vs parallel redundancy, across four
//!   blocking types — the paper reports 45.8–64.1% PLT reduction;
//! - **(b)** small unblocked page (95 KB): 1 copy vs 2 copies vs
//!   2 copies with a 2 s stagger, 100 requests with U(1 s, 5 s)
//!   inter-arrivals;
//! - **(c)** the same on a larger page (316 KB), where staggering clearly
//!   beats blind duplication.

use crate::experiments::Outcome;
use crate::runner::{self, TrialSpec};
use crate::stats::{reduction_pct, Cdf, Panel, Summary};
use crate::workload::uniform_arrivals;
use crate::worlds::{single_isp_world, LARGE_PAGE, SMALL_PAGE};
use csaw::config::RedundancyMode;
use csaw::measure::{fetch_with_redundancy, DetectConfig};
use csaw_censor::blocking::{DnsTamper, HttpAction, IpAction, TlsAction};
use csaw_circumvent::tor::TorClient;
use csaw_circumvent::transports::{Direct, FetchCtx, Transport};
use csaw_circumvent::world::{SiteSpec, World};
use csaw_simnet::load::{InFlightTracker, LoadModel};
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use csaw_simnet::topology::{AccessNetwork, Provider, Region, Site};
use csaw_webproto::url::Url;

/// One blocking type's serial-vs-parallel bars (Fig. 5a).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedBar {
    /// Blocking-type label (paper's x-axis).
    pub label: String,
    /// Mean PLT under the serial approach (s).
    pub serial_s: f64,
    /// Mean PLT under the parallel approach (s).
    pub parallel_s: f64,
    /// Reduction (%).
    pub reduction_pct: f64,
}

/// The Fig. 5a result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5a {
    /// One bar group per blocking type.
    pub bars: Vec<BlockedBar>,
}

/// The figure's four blocking types with their annotated page sizes
/// (1469 KB, 340 KB, 1342 KB, 85 KB).
fn cases_5a() -> Vec<Case5a> {
    vec![
        (
            "TCP/IP",
            1_469_000,
            DnsTamper::None,
            IpAction::Drop,
            HttpAction::None,
        ),
        (
            "DNS SERVER FAIL",
            340_000,
            DnsTamper::Servfail,
            IpAction::None,
            HttpAction::None,
        ),
        (
            "DNS NXDOMAIN + TCP/IP",
            1_342_000,
            DnsTamper::Nxdomain,
            IpAction::Drop,
            HttpAction::None,
        ),
        (
            "BlockPage",
            85_000,
            DnsTamper::None,
            IpAction::None,
            HttpAction::BlockPageRedirect,
        ),
    ]
}

/// One blocking type of Fig. 5a: label, page size, mechanism.
type Case5a = (&'static str, u64, DnsTamper, IpAction, HttpAction);

/// One (blocking type × redundancy mode) trial: the mean PLT over 30
/// independent fetches. `trial_seed` is the historical `seed ^ salt`
/// stream (salt 1 = serial, 2 = parallel), carried in the
/// [`TrialSpec`].
fn run_5a_trial(
    trial_seed: u64,
    case_idx: usize,
    (label, page_bytes, dns, ip, http): Case5a,
    mode: RedundancyMode,
) -> f64 {
    let target = "target.example";
    let url = Url::parse(&format!("http://{target}/")).expect("static URL");
    let tracing = csaw_obs::scope::current().sink.enabled();
    let policy = csaw_censor::single_mechanism(label, target, dns, ip, http, TlsAction::None);
    let provider = Provider::new(Asn(5100), "F5A-ISP");
    let world = World::builder(AccessNetwork::single(provider))
        .site(
            SiteSpec::new(target, Site::at_vantage_rtt(Region::UsEast, 186))
                .default_page(page_bytes, (page_bytes / 60_000).max(2) as usize),
        )
        .censor(Asn(5100), policy)
        .build();
    let provider = world.access.providers()[0].clone();
    let mut rng = DetRng::new(trial_seed);
    let mut tor = TorClient::new();
    let mut plts = Vec::new();
    for i in 0..30 {
        tor.drop_circuit(); // independent runs
        let c = FetchCtx {
            now: SimTime::from_secs(i * 30),
            provider: provider.clone(),
        };
        // One trace per fetch, ordinals disjoint across the four
        // blocking-type cases; the redundancy engine emits the
        // span tree under this root.
        let _root = tracing.then(|| {
            csaw_obs::trace::fetch_root(trial_seed, case_idx as u64 * 64 + i, c.now.as_micros())
        });
        let out = fetch_with_redundancy(
            &world,
            &c,
            &url,
            mode,
            &mut tor,
            &DetectConfig::default(),
            &LoadModel::default(),
            &mut rng,
        );
        if let Some(plt) = out.user_plt {
            plts.push(plt);
        }
    }
    Summary::of(&plts).mean_s
}

/// Run Fig. 5a: 30 runs per (type, mode), one runner trial per pair —
/// eight in total. Page sizes per blocking type follow the figure's
/// annotations.
pub fn run_5a(seed: u64, jobs: usize) -> Fig5a {
    let cases = cases_5a();
    let modes = [
        ("serial", 1u64, RedundancyMode::Serial),
        ("parallel", 2, RedundancyMode::Parallel),
    ];
    let mut specs = Vec::new();
    for (case_idx, (label, ..)) in cases.iter().enumerate() {
        for (mode_idx, (mode, salt, _)) in modes.iter().enumerate() {
            specs.push(TrialSpec::salted(
                seed ^ salt,
                (case_idx * 2 + mode_idx) as u64,
                format!("{label} × {mode}"),
            ));
        }
    }
    let means = runner::map(&specs, jobs, |spec| {
        let (case_idx, mode_idx) = (spec.ordinal as usize / 2, spec.ordinal as usize % 2);
        run_5a_trial(spec.seed, case_idx, cases[case_idx], modes[mode_idx].2)
    });
    let bars = cases
        .iter()
        .zip(means.chunks(2))
        .map(|((label, ..), pair)| BlockedBar {
            label: label.to_string(),
            serial_s: pair[0],
            parallel_s: pair[1],
            reduction_pct: reduction_pct(pair[0], pair[1]),
        })
        .collect();
    Fig5a { bars }
}

impl Outcome for Fig5a {
    fn render(&self) -> String {
        let mut out = String::from("Figure 5a: blocked pages, serial vs parallel redundancy\n");
        out.push_str(&format!(
            "  {:<24}{:>12}{:>12}{:>12}\n",
            "blocking type", "serial(s)", "parallel(s)", "reduction"
        ));
        for b in &self.bars {
            out.push_str(&format!(
                "  {:<24}{:>12.2}{:>12.2}{:>11.1}%\n",
                b.label, b.serial_s, b.parallel_s, b.reduction_pct
            ));
        }
        out
    }
}

/// Run the unblocked-page workload for one page: PLT CDFs for the
/// three redundancy shapes, "1 copy", "2 copies" and "2 copies (with
/// delay)".
///
/// 100 requests, U(1 s, 5 s) inter-arrivals. Redundant copies ride Tor;
/// on an unblocked page the user always takes the direct copy, so the
/// redundant copy contributes only *load*: full overlap for "2 copies",
/// partial overlap (after the 2 s stagger) for "2 copies (with delay)".
fn run_5bc(page_host: &str, title: &str, seed: u64, jobs: usize) -> Panel {
    // One trial per redundancy shape, each with its historical
    // per-series RNG stream.
    let shapes = [
        ("1 copy", 1usize, false),
        ("2 copies", 2, false),
        ("2 copies (with delay)", 2, true),
    ];
    let specs: Vec<TrialSpec> = shapes
        .iter()
        .enumerate()
        .map(|(i, (label, copies, staggered))| {
            TrialSpec::salted(
                seed ^ *copies as u64 ^ (*staggered as u64) << 7,
                i as u64,
                *label,
            )
        })
        .collect();
    let series = runner::map(&specs, jobs, |spec| {
        let (label, copies, staggered) = shapes[spec.ordinal as usize];
        let world = single_isp_world(Asn(5200), "F5BC-ISP", csaw_censor::clean());
        let url = Url::parse(&format!("http://{page_host}/")).expect("static URL");
        let provider = world.access.providers()[0].clone();
        let load = LoadModel::default();
        let delay = SimDuration::from_secs(2);
        let mut rng = DetRng::new(spec.seed);
        let arrivals = uniform_arrivals(
            100,
            SimDuration::from_secs(1),
            SimDuration::from_secs(5),
            &mut rng,
        );
        let mut tracker = InFlightTracker::new();
        let mut plts = Vec::new();
        for t in arrivals {
            let mut direct = Direct;
            let ctx = FetchCtx {
                now: t,
                provider: provider.clone(),
            };
            let base = direct.fetch(&world, &ctx, &url, &mut rng);
            let Some(base_plt) = base.genuine_plt() else {
                continue;
            };
            // Load: overlapping *other* requests plus this request's own
            // redundant copies.
            let background = tracker.in_flight_at(t.as_micros());
            let own_copies = if copies == 1 {
                1.0
            } else if !staggered {
                2.0
            } else if base_plt <= delay {
                // Direct finished before the stagger fired: no copy sent.
                1.0
            } else {
                // The copy overlaps only the post-delay fraction.
                1.0 + (1.0 - delay.as_secs_f64() / base_plt.as_secs_f64())
            };
            // Effective concurrency is fractional for staggered copies;
            // interpolate the load model between floor and ceil.
            let conc = background as f64 + own_copies;
            let lo = load.inflate(base_plt, conc.floor() as usize, &mut rng);
            let hi = load.inflate(base_plt, conc.ceil() as usize, &mut rng);
            let frac = conc - conc.floor();
            let plt = SimDuration::from_secs_f64(
                lo.as_secs_f64() * (1.0 - frac) + hi.as_secs_f64() * frac,
            );
            tracker.record(t.as_micros(), (t + plt).as_micros());
            plts.push(plt);
        }
        Cdf::of(label, &plts)
    });
    Panel {
        title: title.to_string(),
        series,
    }
}

/// Fig. 5b: the small (95 KB) page.
pub fn run_5b(seed: u64, jobs: usize) -> Panel {
    run_5bc(
        SMALL_PAGE,
        "Figure 5b: small unblocked page (95KB)",
        seed,
        jobs,
    )
}

/// Fig. 5c: the larger (316 KB) page.
pub fn run_5c(seed: u64, jobs: usize) -> Panel {
    run_5bc(
        LARGE_PAGE,
        "Figure 5c: larger unblocked page (316KB)",
        seed,
        jobs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5a_parallel_cuts_plt_forty_to_ninety_pct() {
        let f = run_5a(21, 1);
        assert_eq!(f.bars.len(), 4);
        for b in &f.bars {
            assert!(
                b.parallel_s < b.serial_s,
                "{}: parallel {} >= serial {}",
                b.label,
                b.parallel_s,
                b.serial_s
            );
            // Detection-dominated mechanisms reduce massively; the
            // block-page bar is capped by its fast (1.8 s) detection —
            // structurally detect/(detect+relay), so only ~10% here.
            let floor = if b.label == "BlockPage" { 8.0 } else { 30.0 };
            assert!(
                (floor..=95.0).contains(&b.reduction_pct),
                "{}: reduction {:.1}%",
                b.label,
                b.reduction_pct
            );
        }
        // The paper's 45.8–64.1% average band should cover the mean.
        let avg: f64 = f.bars.iter().map(|b| b.reduction_pct).sum::<f64>() / f.bars.len() as f64;
        assert!((40.0..=90.0).contains(&avg), "avg reduction {avg:.1}%");
        // Detection dominated cases (TCP/IP) reduce the most.
        let tcp = f.bars.iter().find(|b| b.label == "TCP/IP").unwrap();
        let bp = f.bars.iter().find(|b| b.label == "BlockPage").unwrap();
        assert!(tcp.reduction_pct > bp.reduction_pct);
    }

    #[test]
    fn fig5b_staggered_matches_single_copy_median() {
        let f = run_5b(22, 1);
        let one = f.series("1 copy").median();
        let two = f.series("2 copies").median();
        let staggered = f.series("2 copies (with delay)").median();
        // Small page: the stagger rarely fires, so the median is close to
        // 1 copy and better than blind duplication.
        assert!(
            (staggered - one).abs() / one < 0.25,
            "staggered {staggered:.2} vs one {one:.2}"
        );
        assert!(two > one, "two {two:.2} <= one {one:.2}");
        assert!(staggered <= two, "staggered {staggered:.2} > two {two:.2}");
    }

    #[test]
    fn fig5c_staggering_beats_blind_duplication() {
        let f = run_5c(23, 1);
        let two = f.series("2 copies").median();
        let staggered = f.series("2 copies (with delay)").median();
        assert!(
            staggered < two,
            "staggered {staggered:.2} not better than two {two:.2}"
        );
    }
}
