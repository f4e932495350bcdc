//! Figure 2: fraction of blocking types across ISPs in Yemen, Indonesia,
//! Vietnam and Kyrgyzstan (ONI data in the paper). We install each AS's
//! mixture as a censor policy over a 100-domain universe, measure every
//! domain with the C-Saw detector, and report the *recovered* fractions —
//! closing the loop between censor configuration and client-side
//! classification.

use crate::experiments::Outcome;
use crate::runner::{self, TrialSpec};
use csaw::measure::{measure_direct, MeasuredStatus};
use csaw_censor::blocking::BlockingType;
use csaw_censor::oni::{figure2_mixtures, policy_from_mixture, AsMixture, OniCategory};
use csaw_circumvent::world::{SiteSpec, World};
use csaw_simnet::rng::DetRng;
use csaw_simnet::topology::{AccessNetwork, Provider, Region, Site};
use csaw_webproto::url::Url;

/// Recovered fractions for one AS.
#[derive(Debug, Clone, PartialEq)]
pub struct AsBar {
    /// Country label.
    pub country: String,
    /// AS number.
    pub asn: u32,
    /// Configured fractions (ground truth mixture).
    pub configured: [f64; 5],
    /// Fractions recovered by the detector.
    pub recovered: [f64; 5],
}

/// The experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2 {
    /// One bar per AS, in the figure's order.
    pub bars: Vec<AsBar>,
}

/// Map detector stages to the ONI category of Figure 2.
pub fn classify_oni(stages: &[BlockingType]) -> Option<OniCategory> {
    // Priority mirrors ONI's coding: DNS first, then transport, then
    // block pages.
    if stages.contains(&BlockingType::DnsNoResponse)
        || stages.contains(&BlockingType::DnsNxdomain)
        || stages.contains(&BlockingType::DnsServfail)
        || stages.contains(&BlockingType::DnsRefused)
    {
        return Some(OniCategory::NoDns);
    }
    if stages.contains(&BlockingType::DnsHijack) {
        return Some(OniCategory::DnsRedir);
    }
    if stages.contains(&BlockingType::HttpRst)
        || stages.contains(&BlockingType::IpRst)
        || stages.contains(&BlockingType::SniRst)
    {
        return Some(OniCategory::Rst);
    }
    if stages.contains(&BlockingType::HttpDrop)
        || stages.contains(&BlockingType::IpDrop)
        || stages.contains(&BlockingType::SniDrop)
    {
        return Some(OniCategory::NoHttpResp);
    }
    if stages.contains(&BlockingType::HttpBlockPageRedirect)
        || stages.contains(&BlockingType::HttpBlockPageInline)
    {
        return Some(OniCategory::BlockPageWoRedir);
    }
    None
}

fn world_for(mix: &AsMixture, domains: &[String]) -> World {
    let provider = Provider::new(mix.asn, format!("{}-{}", mix.country, mix.asn));
    let mut builder = World::builder(AccessNetwork::single(provider));
    for d in domains {
        builder = builder
            .site(SiteSpec::new(d, Site::in_region(Region::UsEast)).default_page(120_000, 8));
    }
    builder
        .censor(mix.asn, policy_from_mixture(mix, domains))
        .build()
}

/// Run the Figure 2 sweep: 100 censored domains per AS, one runner
/// trial per AS mixture on its historical `seed ^ asn` stream.
pub fn run(seed: u64) -> Fig2 {
    let mixtures = figure2_mixtures();
    let specs: Vec<TrialSpec> = mixtures
        .iter()
        .map(|mix| TrialSpec::salted(seed ^ mix.asn.0 as u64))
        .collect();
    let bars = runner::map(&specs, |i, spec| {
        let mix = &mixtures[i];
        let domains: Vec<String> = (0..100)
            .map(|i| format!("censored-{i:03}.{}", mix.country.to_ascii_lowercase()))
            .collect();
        let world = world_for(mix, &domains);
        let provider = world.access.providers()[0].clone();
        let mut rng = DetRng::new(spec.seed);
        let mut counts = [0usize; 5];
        let mut classified = 0usize;
        for d in &domains {
            let url = Url::parse(&format!("http://{d}/")).expect("static URL");
            let m = measure_direct(&world, &provider, &url, Some(120_000), &mut rng);
            if m.status == MeasuredStatus::Blocked {
                if let Some(cat) = classify_oni(&m.stages) {
                    let idx = OniCategory::ALL
                        .iter()
                        .position(|c| *c == cat)
                        .expect("category in ALL");
                    counts[idx] += 1;
                    classified += 1;
                }
            }
        }
        let recovered = counts.map(|c| c as f64 / classified.max(1) as f64);
        AsBar {
            country: mix.country.to_string(),
            asn: mix.asn.0,
            configured: mix.fractions,
            recovered,
        }
    });
    Fig2 { bars }
}

impl Outcome for Fig2 {
    /// Text rendering (stacked-bar analogue).
    fn render(&self) -> String {
        let mut out = String::from("Figure 2: blocking-type fractions per AS (recovered)\n");
        out.push_str(&format!("  {:<24}", "AS"));
        for c in OniCategory::ALL {
            out.push_str(&format!("{:>22}", c.label()));
        }
        out.push('\n');
        for b in &self.bars {
            out.push_str(&format!("  {:<24}", format!("{} AS{}", b.country, b.asn)));
            for (i, _) in OniCategory::ALL.iter().enumerate() {
                out.push_str(&format!(
                    "{:>22}",
                    format!("{:.2} ({:.2})", b.recovered[i], b.configured[i])
                ));
            }
            out.push('\n');
        }
        out.push_str("  (recovered fraction, configured mixture in parentheses)\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oni_classification_priorities() {
        use BlockingType::*;
        assert_eq!(classify_oni(&[DnsServfail]), Some(OniCategory::NoDns));
        assert_eq!(classify_oni(&[DnsHijack]), Some(OniCategory::DnsRedir));
        assert_eq!(classify_oni(&[HttpRst]), Some(OniCategory::Rst));
        assert_eq!(classify_oni(&[SniDrop]), Some(OniCategory::NoHttpResp));
        assert_eq!(
            classify_oni(&[HttpBlockPageInline]),
            Some(OniCategory::BlockPageWoRedir)
        );
        // DNS takes precedence in multi-stage observations.
        assert_eq!(
            classify_oni(&[DnsServfail, IpDrop]),
            Some(OniCategory::NoDns)
        );
        assert_eq!(classify_oni(&[]), None);
    }
}
