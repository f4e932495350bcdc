//! What the paper claims about its evaluation, and how close the
//! reproduction must come: one table, [`CLAIMS`], judged by one
//! function, [`judge`], over the seeds [`SEEDS`].
//!
//! A row names a paper entry of the [`CATALOGUE`](super::CATALOGUE),
//! says what the paper says, and reads one number from that entry's
//! typed [`Outcome`]: a measured value, a ratio for an ordering (slower
//! over faster, so `> 1` means the order holds), or 1 / 0 for a matrix
//! check. Its [`Band`] is the tolerance the reproduction promises.
//! [`Scope::EverySeed`] rows must hold at every seed;
//! [`Scope::Median`] rows must hold on the median over the seeds, and
//! print the seeds where they miss. [`Source::Input`] marks a row whose
//! number a constant of the experiment fixes (the row's text names it),
//! so holding it shows the pipeline carries the constant through, not
//! that the model produces it.
//!
//! `exp claims` prints the judged table (EXPERIMENTS.md holds a verbatim
//! copy) and exits [`exit::GATE`] when a row breaks.

use super::fig2::Fig2;
use super::fig5::Fig5a;
use super::fig6::Fig6b;
use super::table1::Table1;
use super::table2::Table2;
use super::table5::Table5;
use super::table6::Table6;
use super::table7::Table7;
use super::wild::Wild;
use super::{find, Outcome, Run};
use crate::cli::{exit, Verdict};
use crate::stats::{percentile_sorted, reduction_pct, Panel};
use csaw_censor::blocking::{BlockingType, Stage};
use std::ops::RangeInclusive;

/// The seeds every claim is judged at.
pub const SEEDS: RangeInclusive<u64> = 1..=16;

/// Where a claim must hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// At every seed.
    EverySeed,
    /// On the median over the seeds.
    Median,
}

/// Where a claim's number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The simulated model produces it.
    Emergent,
    /// A constant of the experiment fixes it.
    Input,
}

/// The values a claim accepts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Band {
    /// `lo ≤ v ≤ hi`.
    Within(f64, f64),
    /// `|v − x| / x < tol`.
    Near(f64, f64),
    /// `v < x`.
    Under(f64),
    /// `v > x`.
    Over(f64),
    /// `v ≥ x`.
    AtLeast(f64),
    /// `v ≤ x`.
    AtMost(f64),
}

impl Band {
    /// Whether `v` is in the band (never for NaN).
    pub fn contains(self, v: f64) -> bool {
        match self {
            Band::Within(lo, hi) => lo <= v && v <= hi,
            Band::Near(x, tol) => (v - x).abs() / x < tol,
            Band::Under(x) => v < x,
            Band::Over(x) => v > x,
            Band::AtLeast(x) => v >= x,
            Band::AtMost(x) => v <= x,
        }
    }

    fn text(self) -> String {
        match self {
            Band::Within(lo, hi) if lo == hi => format!("= {}", num(lo)),
            Band::Within(lo, hi) => format!("{} to {}", num(lo), num(hi)),
            Band::Near(x, tol) => format!("{} ± {} %", num(x), num(tol * 100.0)),
            Band::Under(x) => format!("< {}", num(x)),
            Band::Over(x) => format!("> {}", num(x)),
            Band::AtLeast(x) => format!("≥ {}", num(x)),
            Band::AtMost(x) => format!("≤ {}", num(x)),
        }
    }
}

/// One claim of the paper's evaluation.
pub struct Claim {
    /// The catalogue entry whose result it reads.
    pub entry: &'static str,
    /// The paper's sentence, shortened, with the measured quantity.
    pub says: &'static str,
    /// Where it must hold.
    pub scope: Scope,
    /// Where its number comes from.
    pub source: Source,
    /// The values it accepts.
    pub band: Band,
    /// The number, read from the entry's typed result.
    pub value: fn(&dyn Outcome) -> f64,
}

/// A claim the model must produce at every seed.
const fn every(
    entry: &'static str,
    says: &'static str,
    band: Band,
    value: fn(&dyn Outcome) -> f64,
) -> Claim {
    Claim {
        entry,
        says,
        scope: Scope::EverySeed,
        source: Source::Emergent,
        band,
        value,
    }
}

/// A claim the model produces on the median over the seeds.
const fn median(
    entry: &'static str,
    says: &'static str,
    band: Band,
    value: fn(&dyn Outcome) -> f64,
) -> Claim {
    Claim {
        scope: Scope::Median,
        ..every(entry, says, band, value)
    }
}

/// A claim a constant of the experiment fixes, held at every seed.
const fn input(
    entry: &'static str,
    says: &'static str,
    band: Band,
    value: fn(&dyn Outcome) -> f64,
) -> Claim {
    Claim {
        source: Source::Input,
        ..every(entry, says, band, value)
    }
}

/// The entry's typed result.
fn of<T: Outcome>(o: &dyn Outcome) -> &T {
    o.get::<T>().expect("a claim reads its entry's result type")
}

/// 1 when a matrix check passes, else 0.
fn check(ok: bool) -> f64 {
    if ok {
        1.0
    } else {
        0.0
    }
}

/// A CDF panel's series median.
fn med(o: &dyn Outcome, label: &str) -> f64 {
    of::<Panel>(o).series(label).median()
}

fn table1_cell<'a>(o: &'a dyn Outcome, isp: &str, target: &str) -> &'a [BlockingType] {
    &of::<Table1>(o).cell(isp, target).mechanisms
}

fn fig5a_reduction(o: &dyn Outcome, label: &str) -> f64 {
    let bars = &of::<Fig5a>(o).bars;
    bars.iter()
        .find(|b| b.label == label)
        .expect("a Fig. 5a bar")
        .reduction_pct
}

fn table6_cost(o: &dyn Outcome, p: f64) -> f64 {
    let t = of::<Table6>(o);
    t.row(p).median_s / t.row(0.0).median_s
}

fn table7_share(o: &dyn Outcome, urls: fn(&csaw::global::DeploymentStats) -> usize) -> f64 {
    let s = &of::<Table7>(o).stats;
    urls(s) as f64 / s.unique_blocked_urls as f64
}

/// Whether AS `asn` detected `service` with the paper's response label.
fn wild_response(o: &dyn Outcome, asn: u32, service: &str, response: &str) -> bool {
    of::<Wild>(o)
        .detection(asn, service)
        .is_some_and(|d| d.response == response)
}

/// Seconds from the event to each detection.
fn wild_delays(o: &dyn Outcome) -> impl Iterator<Item = f64> + '_ {
    let w = of::<Wild>(o);
    w.detections
        .iter()
        .map(|d| d.at_s as f64 - w.event_at_s as f64)
}

/// Every claim, in the catalogue's paper order.
pub const CLAIMS: &[Claim] = &[
    every(
        "table1",
        "ISP-A YouTube: HTTP block-page redirect, HTTP stage only",
        Band::Within(1.0, 1.0),
        |o| {
            let c = table1_cell(o, "ISP-A", "YouTube");
            check(
                c.contains(&BlockingType::HttpBlockPageRedirect)
                    && c.iter().all(|m| m.stage() == Stage::Http),
            )
        },
    ),
    every(
        "table1",
        "ISP-B YouTube: DNS hijack + HTTP drop + SNI drop",
        Band::Within(1.0, 1.0),
        |o| {
            let c = table1_cell(o, "ISP-B", "YouTube");
            check(
                [
                    BlockingType::DnsHijack,
                    BlockingType::HttpDrop,
                    BlockingType::SniDrop,
                ]
                .iter()
                .all(|m| c.contains(m)),
            )
        },
    ),
    every(
        "table1",
        "ISP-A rest: the block-page redirect alone",
        Band::Within(1.0, 1.0),
        |o| check(table1_cell(o, "ISP-A", "Rest") == [BlockingType::HttpBlockPageRedirect]),
    ),
    every(
        "table1",
        "ISP-B rest: inline block page, no DNS stage",
        Band::Within(1.0, 1.0),
        |o| {
            let c = table1_cell(o, "ISP-B", "Rest");
            check(
                c.contains(&BlockingType::HttpBlockPageInline)
                    && !c.iter().any(|m| m.stage() == Stage::Dns),
            )
        },
    ),
    every(
        "fig1a",
        "HTTPS/DF beats every static proxy: fastest proxy median / DF median",
        Band::Over(1.0),
        |o| {
            let p = of::<Panel>(o);
            let proxies = p.series.iter().filter(|s| s.label != "HTTPS/DF");
            proxies.map(|s| s.median()).fold(f64::INFINITY, f64::min) / med(o, "HTTPS/DF")
        },
    ),
    every(
        "fig1a",
        "Germany-1 is flaky: its p95 / median",
        Band::Over(1.6),
        |o| {
            let g1 = of::<Panel>(o).series("Germany-1");
            g1.pct(95.0) / g1.median()
        },
    ),
    every(
        "fig1b",
        "Tor's runs split over several exit locations: exit groups",
        Band::AtLeast(3.0),
        |o| {
            let p = of::<Panel>(o);
            p.series
                .iter()
                .filter(|s| s.label.starts_with("Tor exit"))
                .count() as f64
        },
    ),
    every(
        "fig1b",
        "direct HTTPS ≪ Tor at every exit: fastest exit median / HTTPS median",
        Band::Over(1.25),
        |o| {
            let p = of::<Panel>(o);
            let exits = p.series.iter().filter(|s| s.label.starts_with("Tor exit"));
            exits.map(|s| s.median()).fold(f64::INFINITY, f64::min) / med(o, "HTTPS")
        },
    ),
    every(
        "fig1c",
        "Lantern ≈ 1.5× slower than IP-as-hostname: median ratio",
        Band::Within(1.3, 3.5),
        |o| med(o, "Lantern") / med(o, "IP as hostname"),
    ),
    every(
        "table2",
        "ping RTTs match the paper's rows: worst relative error",
        Band::Under(0.10),
        |o| {
            let rows = of::<Table2>(o).rows.iter().filter(|r| r.paper_ms != 0);
            rows.map(|r| (r.measured_ms as f64 - r.paper_ms as f64).abs() / r.paper_ms as f64)
                .fold(0.0, f64::max)
        },
    ),
    input(
        "fig2",
        "8 AS bars (the ONI mixtures of figure2_mixtures)",
        Band::Within(8.0, 8.0),
        |o| of::<Fig2>(o).bars.len() as f64,
    ),
    every(
        "fig2",
        "recovered = configured mixture: worst cell error",
        Band::Under(0.10),
        |o| {
            let bars = &of::<Fig2>(o).bars;
            bars.iter()
                .flat_map(|b| (0..5).map(|i| (b.recovered[i] - b.configured[i]).abs()))
                .fold(0.0, f64::max)
        },
    ),
    every(
        "fig2",
        "Yemen AS30873: no-HTTP-response share",
        Band::Over(0.45),
        |o| {
            let bars = &of::<Fig2>(o).bars;
            bars.iter()
                .find(|b| b.asn == 30873)
                .expect("Yemen")
                .recovered[2]
        },
    ),
    every(
        "fig2",
        "Vietnam: no-DNS or no-HTTP-response is each AS's largest class",
        Band::Within(1.0, 1.0),
        |o| {
            let mut vietnam = of::<Fig2>(o).bars.iter().filter(|b| b.country == "Vietnam");
            check(vietnam.all(|b| {
                let largest = (0..5)
                    .max_by(|x, y| b.recovered[*x].total_cmp(&b.recovered[*y]))
                    .expect("five classes");
                largest == 0 || largest == 2
            }))
        },
    ),
    every(
        "fig2",
        "Kyrgyzstan leans on RST + block pages: lowest AS share",
        Band::Over(0.5),
        |o| {
            let bars = &of::<Fig2>(o).bars;
            bars.iter()
                .filter(|b| b.country == "Kyrgyzstan")
                .map(|b| b.recovered[3] + b.recovered[4])
                .fold(f64::INFINITY, f64::min)
        },
    ),
    input(
        "table5",
        "TCP/IP detect ≈ 21 s (s; the 3 + 6 + 12 s SYN RTO ladder)",
        Band::Near(21.0, 0.05),
        |o| of::<Table5>(o).row("TCP/IP").measured_s,
    ),
    input(
        "table5",
        "DNS SERVFAIL detect ≈ 10.6 s (s; the resolver retry ladder)",
        Band::Near(10.6, 0.10),
        |o| {
            of::<Table5>(o)
                .row("DNS (Response: \"Server Failure\")")
                .measured_s
        },
    ),
    every(
        "table5",
        "DNS REFUSED detect ≈ 0.025 s (s)",
        Band::Under(0.1),
        |o| {
            of::<Table5>(o)
                .row("DNS (Response: \"Server Refused\")")
                .measured_s
        },
    ),
    every(
        "table5",
        "HTTP block-page detect ≈ 1.8 s (s)",
        Band::Within(0.8, 3.0),
        |o| of::<Table5>(o).row("HTTP").measured_s,
    ),
    input(
        "table5",
        "TCP/IP + DNS detect ≈ 32.7 s (s; both ladders in turn)",
        Band::Near(32.7, 0.10),
        |o| of::<Table5>(o).row("TCP/IP + DNS").measured_s,
    ),
    input(
        "table5",
        "multi > TCP/IP > SERVFAIL > block page > REFUSED (the ladders): least step ratio",
        Band::Over(1.0),
        |o| {
            let t = of::<Table5>(o);
            let order = [
                "TCP/IP + DNS",
                "TCP/IP",
                "DNS (Response: \"Server Failure\")",
                "HTTP",
                "DNS (Response: \"Server Refused\")",
            ]
            .map(|label| t.row(label).measured_s);
            order
                .windows(2)
                .map(|w| w[0] / w[1])
                .fold(f64::INFINITY, f64::min)
        },
    ),
    input(
        "fig5a",
        "four blocking types (the figure's x-axis, cases_5a)",
        Band::Within(4.0, 4.0),
        |o| of::<Fig5a>(o).bars.len() as f64,
    ),
    every(
        "fig5a",
        "parallel beats serial for every type: least serial / parallel",
        Band::Over(1.0),
        |o| {
            let bars = &of::<Fig5a>(o).bars;
            bars.iter()
                .map(|b| b.serial_s / b.parallel_s)
                .fold(f64::INFINITY, f64::min)
        },
    ),
    every(
        "fig5a",
        "TCP/IP: parallel cuts the PLT (%)",
        Band::Within(30.0, 95.0),
        |o| fig5a_reduction(o, "TCP/IP"),
    ),
    every(
        "fig5a",
        "DNS SERVER FAIL: parallel cuts the PLT (%)",
        Band::Within(30.0, 95.0),
        |o| fig5a_reduction(o, "DNS SERVER FAIL"),
    ),
    every(
        "fig5a",
        "DNS NXDOMAIN + TCP/IP: parallel cuts the PLT (%)",
        Band::Within(30.0, 95.0),
        |o| fig5a_reduction(o, "DNS NXDOMAIN + TCP/IP"),
    ),
    median(
        "fig5a",
        "BlockPage: parallel cuts the PLT (%; capped by its fast detection)",
        Band::Within(8.0, 95.0),
        |o| fig5a_reduction(o, "BlockPage"),
    ),
    median(
        "fig5a",
        "mean cut over the four types (%; paper 45.8–64.1)",
        Band::Within(40.0, 90.0),
        |o| {
            let bars = &of::<Fig5a>(o).bars;
            bars.iter().map(|b| b.reduction_pct).sum::<f64>() / bars.len() as f64
        },
    ),
    every(
        "fig5a",
        "detection-dominated TCP/IP gains most: its cut − BlockPage's (points)",
        Band::Over(0.0),
        |o| fig5a_reduction(o, "TCP/IP") - fig5a_reduction(o, "BlockPage"),
    ),
    every(
        "fig5b",
        "2 copies (with delay) ≈ 1 copy: relative median gap",
        Band::Under(0.25),
        |o| {
            let one = med(o, "1 copy");
            (med(o, "2 copies (with delay)") - one).abs() / one
        },
    ),
    every(
        "fig5b",
        "blind duplication is slower: 2 copies / 1 copy median",
        Band::Over(1.0),
        |o| med(o, "2 copies") / med(o, "1 copy"),
    ),
    every(
        "fig5b",
        "staggering is no slower: 2 copies / 2 copies (with delay) median",
        Band::AtLeast(1.0),
        |o| med(o, "2 copies") / med(o, "2 copies (with delay)"),
    ),
    every(
        "fig5c",
        "staggering beats blind duplication: 2 copies / with delay median",
        Band::Over(1.0),
        |o| med(o, "2 copies") / med(o, "2 copies (with delay)"),
    ),
    median(
        "fig6a",
        "a second copy cuts the median ~30 % (%)",
        Band::Within(10.0, 50.0),
        |o| reduction_pct(med(o, "1 RReq."), med(o, "2 RReqs.")),
    ),
    every(
        "fig6a",
        "a third copy does not help the median: 3 / 2 copies median",
        Band::AtLeast(0.85),
        |o| med(o, "3 RReqs.") / med(o, "2 RReqs."),
    ),
    input(
        "fig6a",
        "a third copy fattens p95 (the ×1.10–1.90 load tax at 3 copies): 3 / 2 copies p95",
        Band::Over(1.0),
        |o| {
            let p = of::<Panel>(o);
            p.series("3 RReqs.").pct(95.0) / p.series("2 RReqs.").pct(95.0)
        },
    ),
    input(
        "fig6b",
        "records without aggregation (15 sites × 20 URLs)",
        Band::Within(300.0, 300.0),
        |o| of::<Fig6b>(o).without as f64,
    ),
    every(
        "fig6b",
        "URL aggregation saves ~55 % of local-DB records (%)",
        Band::Within(45.0, 65.0),
        |o| of::<Fig6b>(o).reduction_pct(),
    ),
    input(
        "table6",
        "four rows (PROBS: p = 0, 0.25, 0.5, 0.75)",
        Band::Within(4.0, 4.0),
        |o| of::<Table6>(o).rows.len() as f64,
    ),
    every(
        "table6",
        "median PLT rises with p: least step ratio",
        Band::AtLeast(1.0),
        |o| {
            let rows = &of::<Table6>(o).rows;
            rows.windows(2)
                .map(|w| w[1].median_s / w[0].median_s)
                .fold(f64::INFINITY, f64::min)
        },
    ),
    every(
        "table6",
        "p = 0.75 costs the paper's ~45 %: median / p = 0 median",
        Band::Within(1.15, 2.5),
        |o| table6_cost(o, 0.75),
    ),
    every(
        "table6",
        "p = 0.25 is the sweet spot: median / p = 0 median",
        Band::Within(1.0, 1.6),
        |o| table6_cost(o, 0.25),
    ),
    every(
        "fig7a",
        "C-Saw beats Lantern: Lantern / C-Saw median",
        Band::Over(1.0),
        |o| med(o, "Lantern") / med(o, "C-Saw"),
    ),
    median(
        "fig7a",
        "Lantern beats Tor: Tor / Lantern median",
        Band::Over(1.0),
        |o| med(o, "Tor") / med(o, "Lantern"),
    ),
    every(
        "fig7a",
        "C-Saw cuts Lantern's median up to 48 % (%)",
        Band::AtLeast(30.0),
        |o| reduction_pct(med(o, "Lantern"), med(o, "C-Saw")),
    ),
    every(
        "fig7a",
        "C-Saw cuts Tor's median up to 63 % (%)",
        Band::AtLeast(40.0),
        |o| reduction_pct(med(o, "Tor"), med(o, "C-Saw")),
    ),
    every(
        "fig7b",
        "C-Saw goes direct, unblocked: faster of Lantern, Tor / C-Saw median",
        Band::Over(1.0),
        |o| med(o, "Lantern").min(med(o, "Tor")) / med(o, "C-Saw"),
    ),
    every(
        "fig7c",
        "the one-hop relay wins multi-stage: w/ Tor / w/ Lantern median",
        Band::Over(1.0),
        |o| med(o, "C-Saw (w/ Tor)") / med(o, "C-Saw (w/ Lantern)"),
    ),
    input(
        "table7",
        "123 users (the table7 entry's run(seed, 123))",
        Band::Within(123.0, 123.0),
        |o| of::<Table7>(o).stats.clients as f64,
    ),
    input(
        "table7",
        "997 blocked URLs (pilot_universe(420, 997, 60))",
        Band::Within(997.0, 997.0),
        |o| of::<Table7>(o).stats.unique_blocked_urls as f64,
    ),
    input(
        "table7",
        "420 blocked domains (pilot_universe(420, 997, 60))",
        Band::Within(420.0, 420.0),
        |o| of::<Table7>(o).stats.unique_blocked_domains as f64,
    ),
    input(
        "table7",
        "16 ASes (pilot_asns)",
        Band::Within(16.0, 16.0),
        |o| of::<Table7>(o).stats.unique_ases as f64,
    ),
    input(
        "table7",
        "5 blocking types (mechanism_for's classes)",
        Band::Within(5.0, 5.0),
        |o| of::<Table7>(o).stats.distinct_blocking_types as f64,
    ),
    input(
        "table7",
        "DNS-blocked URL share, paper 376 / 997 (mechanism_for's 37.7 %)",
        Band::Within(0.30, 0.45),
        |o| table7_share(o, |s| s.urls_dns_blocked),
    ),
    input(
        "table7",
        "TCP-timeout URL share, paper 114 / 997 (mechanism_for's 11.4 %)",
        Band::Within(0.06, 0.18),
        |o| table7_share(o, |s| s.urls_tcp_timeout),
    ),
    input(
        "table7",
        "block-page URL share, paper 475 / 997 (mechanism_for's 47.7 %)",
        Band::Within(0.40, 0.55),
        |o| table7_share(o, |s| s.urls_block_page),
    ),
    every(
        "table7",
        "unique updates ≈ the paper's 1,787",
        Band::Near(1787.0, 0.10),
        |o| of::<Table7>(o).stats.unique_updates as f64,
    ),
    every(
        "wild",
        "Twitter: HTTP GET timeout at AS38193, block page at AS17557",
        Band::Within(1.0, 1.0),
        |o| {
            check(
                wild_response(o, 38193, "twitter.com", "HTTP_GET_TIMEOUT")
                    && wild_response(o, 17557, "twitter.com", "HTTP_GET_BLOCKPAGE"),
            )
        },
    ),
    every(
        "wild",
        "Instagram: DNS blocking at AS38193, AS59257 and AS45773",
        Band::Within(1.0, 1.0),
        |o| {
            check(
                [38193, 59257, 45773]
                    .iter()
                    .all(|asn| wild_response(o, *asn, "instagram.com", "DNS blocking")),
            )
        },
    ),
    every(
        "wild",
        "no other block: Instagram at AS17557, Twitter at AS59257 and AS45773",
        Band::Within(1.0, 1.0),
        |o| {
            let w = of::<Wild>(o);
            check(
                w.detection(17557, "instagram.com").is_none()
                    && w.detection(59257, "twitter.com").is_none()
                    && w.detection(45773, "twitter.com").is_none(),
            )
        },
    ),
    every(
        "wild",
        "nothing is detected before the event: earliest detection − event (s)",
        Band::AtLeast(0.0),
        |o| wild_delays(o).fold(f64::INFINITY, f64::min),
    ),
    every(
        "wild",
        "detection is prompt: latest detection − event (s)",
        Band::AtMost(1800.0),
        |o| wild_delays(o).fold(f64::NEG_INFINITY, f64::max),
    ),
];

/// One claim's values over the judged seeds.
pub struct Judged<'a> {
    claim: &'a Claim,
    /// `(seed, value)`, in seed order.
    values: Vec<(u64, f64)>,
}

impl Judged<'_> {
    /// The seeds whose value misses the band.
    fn failing(&self) -> Vec<u64> {
        let band = self.claim.band;
        let misses = self.values.iter().filter(|(_, v)| !band.contains(*v));
        misses.map(|(seed, _)| *seed).collect()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut vs: Vec<f64> = self.values.iter().map(|(_, v)| *v).collect();
        vs.sort_by(f64::total_cmp);
        vs
    }

    fn holds(&self) -> bool {
        match self.claim.scope {
            Scope::EverySeed => self.failing().is_empty(),
            Scope::Median => self
                .claim
                .band
                .contains(percentile_sorted(&self.sorted(), 50.0)),
        }
    }
}

/// Judge `claims` at each of `seeds`: every entry a claim names runs
/// once per seed, and each of its claims reads that one result.
pub fn judge(claims: &[Claim], seeds: RangeInclusive<u64>) -> Vec<Judged<'_>> {
    let mut rows: Vec<Judged> = claims
        .iter()
        .map(|claim| Judged {
            claim,
            values: Vec::new(),
        })
        .collect();
    for seed in seeds {
        for (i, claim) in claims.iter().enumerate() {
            if claims[..i].iter().any(|c| c.entry == claim.entry) {
                continue;
            }
            let Some(Run::Paper(sweep)) = find(claim.entry).map(|e| e.run) else {
                panic!("{} is not a paper entry of the catalogue", claim.entry);
            };
            let outcome = sweep(seed);
            for row in rows.iter_mut().filter(|r| r.claim.entry == claim.entry) {
                row.values.push((seed, (row.claim.value)(&*outcome)));
            }
        }
    }
    rows
}

/// A value as the table prints it: at most three decimals.
fn num(v: f64) -> String {
    let s = format!("{v:.3}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s == "-0" {
        "0".to_string()
    } else {
        s.to_string()
    }
}

/// The judged table, as a Markdown table and a one-line tally.
pub fn render(rows: &[Judged]) -> String {
    let seeds = &rows[0].values;
    let (first, last) = (seeds[0].0, seeds[seeds.len() - 1].0);
    let mut out = format!(
        "| entry | claim | band | seed {first} | min | median | max | scope | source | verdict | failing seeds |\n\
         |---|---|---|---:|---:|---:|---:|---|---|---|---|\n"
    );
    for r in rows {
        let vs = r.sorted();
        let failing: Vec<String> = r.failing().iter().map(u64::to_string).collect();
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            r.claim.entry,
            r.claim.says,
            r.claim.band.text(),
            num(r.values[0].1),
            num(vs[0]),
            num(percentile_sorted(&vs, 50.0)),
            num(vs[vs.len() - 1]),
            match r.claim.scope {
                Scope::EverySeed => "every seed",
                Scope::Median => "median",
            },
            match r.claim.source {
                Source::Emergent => "emergent",
                Source::Input => "input",
            },
            if r.holds() { "holds" } else { "BREAKS" },
            if failing.is_empty() {
                "-".to_string()
            } else {
                failing.join(", ")
            },
        ));
    }
    let mut entries: Vec<&str> = rows.iter().map(|r| r.claim.entry).collect();
    entries.dedup();
    let broken = rows.iter().filter(|r| !r.holds()).count();
    out.push_str(&format!(
        "\n{} claims on {} paper entries, seeds {first}..={last}: {} hold, {broken} break.\n",
        rows.len(),
        entries.len(),
        rows.len() - broken,
    ));
    out
}

/// [`exit::GATE`] when any claim breaks, naming each.
pub fn verdict(rows: &[Judged]) -> Verdict {
    let broken: Vec<String> = rows
        .iter()
        .filter(|r| !r.holds())
        .map(|r| format!("{}: {}", r.claim.entry, r.claim.says))
        .collect();
    if broken.is_empty() {
        Ok(())
    } else {
        Err((exit::GATE, format!("claims break: {}", broken.join("; "))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::CATALOGUE;
    use std::sync::atomic::{AtomicU64, Ordering};

    // Each synthetic value reads how many times it was called, so under
    // `judge` it is the 0-based index of the seed being judged.
    static EVERY_CALLS: AtomicU64 = AtomicU64::new(0);
    static MEDIAN_CALLS: AtomicU64 = AtomicU64::new(0);

    #[test]
    fn a_miss_at_one_seed_breaks_every_seed_but_not_the_median() {
        let table = [
            every(
                "table2",
                "misses at the third seed",
                Band::Under(2.0),
                |_| EVERY_CALLS.fetch_add(1, Ordering::Relaxed) as f64,
            ),
            median(
                "table2",
                "misses at the first seed",
                Band::AtLeast(1.0),
                |_| MEDIAN_CALLS.fetch_add(1, Ordering::Relaxed) as f64,
            ),
        ];
        let rows = judge(&table, 4..=6);
        assert_eq!(rows[0].failing(), [6]);
        assert!(!rows[0].holds());
        assert_eq!(rows[1].failing(), [4]);
        assert!(rows[1].holds());

        let text = render(&rows);
        assert!(text.contains("| BREAKS | 6 |"), "{text}");
        assert!(text.contains("| median | emergent | holds | 4 |"), "{text}");
        assert!(text.ends_with("2 claims on 1 paper entries, seeds 4..=6: 1 hold, 1 break.\n"));
        let (code, why) = verdict(&rows).expect_err("an every-seed miss breaches");
        assert_eq!(code, exit::GATE);
        assert!(why.contains("misses at the third seed") && !why.contains("first seed"));
        assert!(verdict(&rows[1..]).is_ok(), "a median-only miss holds");
    }

    #[test]
    fn the_paper_claims_hold_at_every_judged_seed() {
        let rows = judge(CLAIMS, SEEDS);
        if let Err((_, why)) = verdict(&rows) {
            panic!("{why}\n{}", render(&rows));
        }
        for e in CATALOGUE {
            if let Run::Paper(_) = e.run {
                assert!(
                    CLAIMS.iter().any(|c| c.entry == e.name),
                    "{} has no claim",
                    e.name
                );
            }
        }
    }

    #[test]
    fn bands_read_as_their_comparisons() {
        assert!(Band::Within(1.0, 1.0).contains(1.0) && !Band::Within(1.0, 1.0).contains(0.0));
        assert!(Band::Near(10.0, 0.1).contains(10.9) && !Band::Near(10.0, 0.1).contains(11.0));
        assert!(!Band::Under(2.0).contains(2.0) && Band::AtMost(2.0).contains(2.0));
        assert!(!Band::Over(2.0).contains(2.0) && Band::AtLeast(2.0).contains(2.0));
        assert!(!Band::AtLeast(0.0).contains(f64::NAN));
        assert_eq!(Band::Near(21.0, 0.05).text(), "21 ± 5 %");
        assert_eq!(num(1.4900001), "1.49");
        assert_eq!(num(-0.0001), "0");
    }
}
