//! Figure 6: (a) how many redundant requests are enough, and (b) the
//! URL-aggregation saving.
//!
//! **(a)** duplicates of an uncensored fetch ride *separate Tor
//! circuits*; the client takes the earliest copy. Going 1→2 improves the
//! median ~30%; going 2→3 buys nothing at the median and fattens the p95
//! (~+17% in the paper) through client load.
//!
//! **(b)** an Alexa-top-15 browse session with and without aggregation;
//! the paper measured ~55% fewer local-DB records.

use crate::experiments::Outcome;
use crate::runner::{self, TrialSpec};
use crate::stats::{Cdf, Panel};
use crate::workload::alexa15_session;
use csaw::local::{LocalDb, Status};
use csaw::measure::{measure_direct, MeasuredStatus};
use csaw_censor::policy::{CensorPolicy, CensorRule, TargetMatcher};
use csaw_censor::HttpAction;
use csaw_circumvent::tor::TorClient;
use csaw_circumvent::transports::{FetchCtx, Transport};
use csaw_circumvent::world::{SiteSpec, World};
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::{AccessNetwork, Asn, Provider, Region, Site};
use csaw_webproto::url::Url;

/// Run Fig. 6a, PLT CDFs for 1, 2 and 3 redundant requests ("1 RReq.",
/// "2 RReqs.", "3 RReqs."): 200 rounds; each round sends `k` copies on
/// fresh Tor circuits and takes the fastest. Two concurrent Tor fetches
/// barely tax the client (they are slow, bandwidth-light flows); a third
/// saturates it — the calibration behind the paper's finding that the
/// second copy buys ~30% at the median while the third only fattens the
/// p95 (+17%).
///
/// One runner trial per redundancy level, each with its historical
/// `seed ^ (k << 9)` stream.
pub fn run_6a(seed: u64) -> Panel {
    let specs: Vec<TrialSpec> = (1u64..=3)
        .map(|k| TrialSpec::salted(seed ^ k << 9))
        .collect();
    let series = runner::map(&specs, |i, spec| {
        let k = i + 1;
        let world = crate::worlds::clean_world();
        let url = Url::parse(&format!("http://{}/", crate::worlds::YOUTUBE)).expect("static URL");
        let provider = world.access.providers()[0].clone();
        let mut rng = DetRng::new(spec.seed);
        let mut tor = TorClient::new();
        let mut plts = Vec::new();
        for round in 0..200u64 {
            let ctx = FetchCtx {
                now: SimTime::from_secs(round * 30),
                provider: provider.clone(),
            };
            let mut best: Option<SimDuration> = None;
            for _ in 0..k {
                tor.drop_circuit(); // each copy on its own circuit
                let r = tor.fetch(&world, &ctx, &url, &mut rng);
                if let Some(plt) = r.genuine_plt() {
                    best = Some(match best {
                        None => plt,
                        Some(b) => b.min(plt),
                    });
                }
            }
            if let Some(b) = best {
                // Client-load tax: mild at 2 copies, saturating at 3.
                let tax = match k {
                    1 => 1.0,
                    2 => 1.0 + rng.range_f64(0.0, 0.08),
                    _ => 1.0 + rng.range_f64(0.10, 0.90),
                };
                plts.push(b.mul_f64(tax));
            }
        }
        let label = if k == 1 {
            "1 RReq.".to_string()
        } else {
            format!("{k} RReqs.")
        };
        Cdf::of(&label, &plts)
    });
    Panel {
        title: "Figure 6a: redundant requests over separate Tor circuits".into(),
        series,
    }
}

/// Fig. 6b result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig6b {
    /// Records without aggregation.
    pub without: usize,
    /// Records with aggregation.
    pub with: usize,
}

impl Fig6b {
    /// The record-count reduction, percent.
    pub fn reduction_pct(&self) -> f64 {
        crate::stats::reduction_pct(self.without as f64, self.with as f64)
    }
}

impl Outcome for Fig6b {
    fn render(&self) -> String {
        format!(
            "Figure 6b: local_DB records — without aggregation: {}, with: {} ({:.1}% reduction)\n",
            self.without,
            self.with,
            self.reduction_pct()
        )
    }
}

/// Run Fig. 6b: browse the Alexa-top-15 session (20 URLs per site)
/// against a censor that page-blocks specific URLs on seven of the
/// sites (the "censors sometimes block only specific pages" case, §4.4),
/// recording every measurement into an aggregating and a
/// non-aggregating local DB.
pub fn run_6b(seed: u64) -> Fig6b {
    let session = alexa15_session(20);
    // Censor: on 7 sites, block each *visited derived URL* individually.
    let mut policy = CensorPolicy::new("F6B-ISP");
    for (_, urls) in session.iter().take(7) {
        for u in urls {
            policy = policy.with_rule(
                CensorRule::target(TargetMatcher::UrlPrefix(u.clone()))
                    .http(HttpAction::BlockPageRedirect),
            );
        }
    }
    let provider = Provider::new(Asn(5300), "F6B-ISP");
    let mut builder = World::builder(AccessNetwork::single(provider));
    for (host, _) in &session {
        builder = builder
            .site(SiteSpec::new(host, Site::in_region(Region::UsEast)).default_page(150_000, 8));
    }
    let world = builder.censor(Asn(5300), policy).build();
    let provider = world.access.providers()[0].clone();

    let ttl = SimDuration::from_secs(24 * 3600);
    let mut agg = LocalDb::new(ttl);
    let mut raw = LocalDb::without_aggregation(ttl);
    let mut rng = DetRng::new(seed);
    let now = SimTime::from_secs(1);
    for (_, urls) in &session {
        for u in urls {
            let m = measure_direct(&world, &provider, u, Some(150_000), &mut rng);
            let (status, stages) = match m.status {
                MeasuredStatus::Blocked => (Status::Blocked, m.stages.clone()),
                _ => (Status::NotBlocked, vec![]),
            };
            agg.record_measurement(u, provider.asn, now, status, stages.clone());
            raw.record_measurement(u, provider.asn, now, status, stages);
        }
    }
    Fig6b {
        without: raw.record_count(),
        with: agg.record_count(),
    }
}
