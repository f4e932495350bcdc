//! ONI-style blocking-type distributions (Figure 2).
//!
//! Figure 2 of the paper plots, for eight ASes in Yemen, Indonesia,
//! Vietnam and Kyrgyzstan, the fraction of censored pages experiencing
//! each of five blocking signatures measured from the OpenNet Initiative
//! dataset: `No DNS`, `DNS Redir`, `No HTTP Resp`, `RST`, and
//! `Block Page w/o Redir`.
//!
//! The exact ONI per-AS numbers are not machine-readable from the paper,
//! so this module encodes the *qualitative* structure the paper draws from
//! the figure — DNS and HTTP blocking are both common, but their mix
//! varies sharply across ISPs and countries — as a set of per-AS mixtures.
//! The Figure 2 experiment then builds a censor policy from each mixture,
//! measures it with the C-Saw detector, and reports the recovered
//! fractions.

use crate::blocking::{DnsTamper, HttpAction, IpAction, TlsAction};
use crate::policy::{CensorPolicy, CensorRule, TargetMatcher};
use csaw_simnet::topology::Asn;

/// The five blocking signatures of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OniCategory {
    /// No DNS response received for a censored page.
    NoDns,
    /// DNS redirected to a different (bogus) address.
    DnsRedir,
    /// No HTTP response received.
    NoHttpResp,
    /// TCP reset attributed to blocking.
    Rst,
    /// Block page received without DNS redirection.
    BlockPageWoRedir,
}

impl OniCategory {
    /// All categories, in the figure's legend order.
    pub const ALL: [OniCategory; 5] = [
        OniCategory::NoDns,
        OniCategory::DnsRedir,
        OniCategory::NoHttpResp,
        OniCategory::Rst,
        OniCategory::BlockPageWoRedir,
    ];

    /// Legend label used in the figure.
    pub fn label(self) -> &'static str {
        match self {
            OniCategory::NoDns => "No DNS",
            OniCategory::DnsRedir => "DNS Redir",
            OniCategory::NoHttpResp => "No HTTP Resp",
            OniCategory::Rst => "RST",
            OniCategory::BlockPageWoRedir => "Block Page w/o Redir",
        }
    }
}

/// One AS's blocking-type mixture.
#[derive(Debug, Clone, PartialEq)]
pub struct AsMixture {
    /// The AS this mixture describes.
    pub asn: Asn,
    /// Country label for reporting.
    pub country: &'static str,
    /// Fractions per category, same order as [`OniCategory::ALL`];
    /// sums to 1.
    pub fractions: [f64; 5],
}

impl AsMixture {
    /// The fraction for one category.
    pub fn fraction(&self, cat: OniCategory) -> f64 {
        let idx = OniCategory::ALL
            .iter()
            .position(|c| *c == cat)
            .expect("category in ALL");
        self.fractions[idx]
    }
}

/// The eight ASes of Figure 2 with mixtures encoding the figure's
/// qualitative story: Yemen leans on no-HTTP-response filtering; the
/// Indonesian AS mixes DNS redirection with block pages; Vietnamese ASes
/// are dominated by DNS-level interference with some silent HTTP drops;
/// Kyrgyz ASes mix resets and block pages.
pub fn figure2_mixtures() -> Vec<AsMixture> {
    vec![
        AsMixture {
            asn: Asn(30873),
            country: "Yemen",
            // NoDns, DnsRedir, NoHttpResp, Rst, BlockPage
            fractions: [0.05, 0.10, 0.60, 0.05, 0.20],
        },
        AsMixture {
            asn: Asn(4795),
            country: "Indonesia",
            fractions: [0.05, 0.45, 0.10, 0.05, 0.35],
        },
        AsMixture {
            asn: Asn(18403),
            country: "Vietnam",
            fractions: [0.50, 0.10, 0.30, 0.05, 0.05],
        },
        AsMixture {
            asn: Asn(45543),
            country: "Vietnam",
            fractions: [0.60, 0.05, 0.25, 0.05, 0.05],
        },
        AsMixture {
            asn: Asn(45899),
            country: "Vietnam",
            fractions: [0.45, 0.15, 0.30, 0.05, 0.05],
        },
        AsMixture {
            asn: Asn(8511),
            country: "Kyrgyzstan",
            fractions: [0.05, 0.05, 0.15, 0.40, 0.35],
        },
        AsMixture {
            asn: Asn(12997),
            country: "Kyrgyzstan",
            fractions: [0.10, 0.05, 0.10, 0.30, 0.45],
        },
        AsMixture {
            asn: Asn(8449),
            country: "Kyrgyzstan",
            fractions: [0.05, 0.10, 0.20, 0.25, 0.40],
        },
    ]
}

/// Build a censor policy for an AS mixture over a universe of censored
/// domains: domain *i* is assigned the blocking signature whose cumulative
/// share covers `i / domains.len()` — a deterministic allocation that
/// recovers the mixture exactly in expectation.
pub fn policy_from_mixture(mix: &AsMixture, domains: &[String]) -> CensorPolicy {
    let mut p = CensorPolicy::new(format!("{} ({})", mix.country, mix.asn));
    let n = domains.len().max(1) as f64;
    for (i, domain) in domains.iter().enumerate() {
        let u = (i as f64 + 0.5) / n;
        let mut acc = 0.0;
        let mut chosen = OniCategory::BlockPageWoRedir;
        for (j, cat) in OniCategory::ALL.iter().enumerate() {
            acc += mix.fractions[j];
            if u < acc {
                chosen = *cat;
                break;
            }
        }
        let rule = CensorRule::target(TargetMatcher::DomainSuffix(domain.clone()));
        let rule = match chosen {
            OniCategory::NoDns => rule.dns(DnsTamper::Drop),
            OniCategory::DnsRedir => {
                rule.dns(DnsTamper::HijackTo("10.0.0.77".parse().expect("static")))
            }
            OniCategory::NoHttpResp => rule.http(HttpAction::Drop).tls(TlsAction::Drop),
            OniCategory::Rst => rule.http(HttpAction::Rst).ip(IpAction::None),
            OniCategory::BlockPageWoRedir => rule.http(HttpAction::BlockPageInline),
        };
        p = p.with_rule(rule);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_simnet::DetRng;
    use csaw_webproto::url::Url;

    #[test]
    fn mixtures_sum_to_one() {
        for m in figure2_mixtures() {
            let s: f64 = m.fractions.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "{}: sum {s}", m.asn);
            assert!(m.fractions.iter().all(|f| *f >= 0.0));
        }
    }

    #[test]
    fn eight_ases_four_countries() {
        let ms = figure2_mixtures();
        assert_eq!(ms.len(), 8);
        let countries: std::collections::HashSet<&str> = ms.iter().map(|m| m.country).collect();
        assert_eq!(countries.len(), 4);
    }

    #[test]
    fn policy_allocation_matches_mixture() {
        let mix = &figure2_mixtures()[0]; // Yemen
        let domains: Vec<String> = (0..100).map(|i| format!("site{i}.ye")).collect();
        let pol = policy_from_mixture(mix, &domains);
        assert_eq!(pol.rules().len(), 100);
        // Count mechanisms: NoHttpResp should dominate for Yemen (0.60).
        let mut rng = DetRng::new(1);
        let mut http_drop = 0;
        let mut dns_active = 0;
        for d in &domains {
            let u = Url::parse(&format!("http://{d}/")).unwrap();
            if pol.on_http_request(&u, None, &mut rng) == HttpAction::Drop {
                http_drop += 1;
            }
            if pol.on_dns_query(d, None, &mut rng).is_active() {
                dns_active += 1;
            }
        }
        assert_eq!(http_drop, 60, "NoHttpResp share");
        assert_eq!(dns_active, 15, "NoDns + DnsRedir share");
    }

    #[test]
    fn fraction_accessor() {
        let m = &figure2_mixtures()[1];
        assert!((m.fraction(OniCategory::DnsRedir) - 0.45).abs() < 1e-9);
    }

    #[test]
    fn labels_match_paper_legend() {
        assert_eq!(
            OniCategory::BlockPageWoRedir.label(),
            "Block Page w/o Redir"
        );
        assert_eq!(OniCategory::NoDns.label(), "No DNS");
    }
}
