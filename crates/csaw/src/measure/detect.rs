//! The in-line blocking detector — Figure 4 of the paper.
//!
//! Given a URL, the detector drives the direct path through its protocol
//! stages and classifies what it sees:
//!
//! 1. **Local DNS query.** A clean resolution proceeds; no response,
//!    NXDOMAIN, SERVFAIL, REFUSED, or a resolution into private/reserved
//!    space is DNS-stage evidence, and the detector falls back to a
//!    **global DNS query** (GDNS) — both to confirm the anomaly (an
//!    honest NXDOMAIN from both resolvers is a dead domain, not
//!    censorship) and to obtain a usable address.
//! 2. **TCP connect.** A timeout is IP blocking (`IpDrop`, the 21 s
//!    ladder); an injected reset is `IpRst`.
//! 3. **TLS.** A stalled or reset handshake on a blacklisted SNI.
//! 4. **HTTP.** A dropped GET, an injected RST, or a returned document —
//!    which then passes through the 2-phase block-page detector
//!    (phase 1 on the markup alone; phase 2 against the circumvention
//!    copy's size when one is available).
//!
//! Multi-stage blocking accumulates: DNS evidence followed by an IP-stage
//! timeout yields `[DnsServfail, IpDrop]` — the paper's 32.7 s case.

use csaw_blockpage::{Phase1Config, Phase1Verdict, Phase2Config};
use csaw_censor::blocking::BlockingType;
use csaw_circumvent::fetch::{direct_like_fetch, DirectOpts, FetchReport};
use csaw_circumvent::outcome::{FailureKind, FetchOutcome};
use csaw_circumvent::world::{DnsServer, World};
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::SimDuration;
use csaw_simnet::topology::Provider;
use csaw_webproto::page::Markup;
use csaw_webproto::url::Url;

/// Detector configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct DetectConfig {
    /// Phase-1 block-page heuristic thresholds.
    pub phase1: Phase1Config,
    /// Phase-2 size-comparison threshold.
    pub phase2: Phase2Config,
}

/// The measured status of the direct path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasuredStatus {
    /// Censorship observed; mechanisms in `stages`.
    Blocked,
    /// The direct path delivered the genuine page.
    NotBlocked,
    /// The direct path failed, but not in a way attributable to
    /// censorship without corroboration (e.g. the circumvention path
    /// failed too — a network problem), or the name simply doesn't exist.
    Inconclusive,
}

/// The result of measuring the direct path for one URL.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectMeasurement {
    /// Classification.
    pub status: MeasuredStatus,
    /// Stage-1..k mechanisms (empty unless `Blocked`).
    pub stages: Vec<BlockingType>,
    /// Virtual time from request to the blocking *declaration* (Table 5's
    /// metric). For `NotBlocked` this equals the full fetch time.
    pub detection_time: SimDuration,
    /// Total time the measurement consumed (includes the GDNS fallback
    /// and any post-detection work).
    pub elapsed: SimDuration,
    /// The page delivered by the direct path, when one was (possibly via
    /// the GDNS local fix).
    pub page_bytes: Option<u64>,
    /// Did phase 1 flag the returned document?
    pub phase1_flagged: bool,
}

/// Map an observed failure to the blocking mechanism it evidences.
pub fn failure_to_blocking(kind: FailureKind) -> Option<BlockingType> {
    match kind {
        FailureKind::DnsNoResponse => Some(BlockingType::DnsNoResponse),
        FailureKind::DnsNxdomain => Some(BlockingType::DnsNxdomain),
        FailureKind::DnsServfail => Some(BlockingType::DnsServfail),
        FailureKind::DnsRefused => Some(BlockingType::DnsRefused),
        FailureKind::DnsForgedResolution => Some(BlockingType::DnsHijack),
        FailureKind::ConnectTimeout => Some(BlockingType::IpDrop),
        FailureKind::ConnectReset => Some(BlockingType::IpRst),
        FailureKind::TlsTimeout => Some(BlockingType::SniDrop),
        FailureKind::TlsReset => Some(BlockingType::SniRst),
        FailureKind::HttpGetTimeout => Some(BlockingType::HttpDrop),
        FailureKind::HttpReset => Some(BlockingType::HttpRst),
        FailureKind::TransportUnavailable => None,
    }
}

fn is_dns_stage(kind: FailureKind) -> bool {
    matches!(
        kind,
        FailureKind::DnsNoResponse
            | FailureKind::DnsNxdomain
            | FailureKind::DnsServfail
            | FailureKind::DnsRefused
            | FailureKind::DnsForgedResolution
    )
}

/// Measure the direct path for `url`, with the optional size of the
/// circumvention copy's response (`circ_bytes`) enabling phase-2
/// confirmation of suspected block pages.
pub fn measure_direct(
    world: &World,
    provider: &Provider,
    url: &Url,
    circ_bytes: Option<u64>,
    cfg: &DetectConfig,
    rng: &mut DetRng,
) -> DirectMeasurement {
    let opts = DirectOpts {
        reject_private_resolution: true,
        ..DirectOpts::default()
    };
    let first = direct_like_fetch(world, provider, url, &opts, rng);
    let m = classify_attempt(world, provider, url, first, circ_bytes, cfg, rng);
    observe_measurement(&m);
    m
}

/// Record the Table-5 telemetry for one finished measurement: a verdict
/// counter plus detection-time histograms — one overall, one keyed by
/// the stage signature (stage names joined with `+`, so the paper's
/// 32.7 s `DnsServfail+IpDrop` ladder is separable from the 10.6 s
/// DNS-only one).
fn observe_measurement(m: &DirectMeasurement) {
    let ctx = csaw_obs::scope::current();
    match m.status {
        MeasuredStatus::Blocked => {
            ctx.registry.counter("detect.blocked").inc();
            let us = m.detection_time.as_micros();
            ctx.registry.histogram("detect.time_s").observe_us(us);
            let sig = m
                .stages
                .iter()
                .map(|s| s.name())
                .collect::<Vec<_>>()
                .join("+");
            ctx.registry
                .histogram(&format!("detect.time_s.{sig}"))
                .observe_us(us);
        }
        MeasuredStatus::NotBlocked => ctx.registry.counter("detect.not_blocked").inc(),
        MeasuredStatus::Inconclusive => ctx.registry.counter("detect.inconclusive").inc(),
    }
}

fn classify_attempt(
    world: &World,
    provider: &Provider,
    url: &Url,
    first: FetchReport,
    circ_bytes: Option<u64>,
    cfg: &DetectConfig,
    rng: &mut DetRng,
) -> DirectMeasurement {
    match first.outcome {
        FetchOutcome::Page(ref page) => classify_page(
            page.bytes,
            &page.html,
            page.redirected,
            first.elapsed,
            circ_bytes,
            cfg,
        ),
        FetchOutcome::Failed(kind) if is_dns_stage(kind) => {
            // DNS anomaly: detection of the DNS stage happened now; fall
            // back to the global resolver for confirmation and an
            // address (Fig. 4's GDNS box).
            let dns_detect = first.elapsed;
            let mut stages = Vec::new();
            let gdns_opts = DirectOpts {
                dns: DnsServer::Public,
                reject_private_resolution: true,
                ..DirectOpts::default()
            };
            let second = direct_like_fetch(world, provider, url, &gdns_opts, rng);
            let total = first.elapsed + second.elapsed;
            // Stage spans make the detection ladders visible in traces:
            // the local-DNS anomaly, then the Fig.-4 GDNS fallback.
            let ctx = csaw_obs::scope::current();
            if ctx.sink.enabled() {
                csaw_obs::event::span_completed(
                    "detect.stage.ldns",
                    first.elapsed.as_micros(),
                    &[(
                        "failure",
                        csaw_obs::json::JsonValue::from(format!("{kind:?}")),
                    )],
                );
                csaw_obs::event::span_completed(
                    "detect.stage.gdns",
                    second.elapsed.as_micros(),
                    &[],
                );
            }
            match second.outcome {
                FetchOutcome::Page(page) => {
                    // GDNS produced a document: the local DNS anomaly is
                    // confirmed censorship... unless the document itself
                    // is a block page (then HTTP blocking is also live).
                    stages.push(failure_to_blocking(kind).expect("dns kinds map"));
                    let mut m = classify_page(
                        page.bytes,
                        &page.html,
                        page.redirected,
                        total,
                        circ_bytes,
                        cfg,
                    );
                    match m.status {
                        MeasuredStatus::Blocked => {
                            // Multi-stage: DNS + HTTP block page.
                            stages.extend(m.stages);
                            m.stages = stages;
                            m.detection_time = dns_detect;
                        }
                        _ => {
                            // Genuine page via GDNS: DNS-only blocking.
                            m.status = MeasuredStatus::Blocked;
                            m.stages = stages;
                            m.detection_time = dns_detect;
                        }
                    }
                    m
                }
                FetchOutcome::Failed(k2) => {
                    if kind == FailureKind::DnsNxdomain && k2 == FailureKind::DnsNxdomain {
                        // Both resolvers agree the name doesn't exist:
                        // a dead domain, not censorship.
                        return no_page(MeasuredStatus::Inconclusive, Vec::new(), total);
                    }
                    stages.push(failure_to_blocking(kind).expect("dns kinds map"));
                    if let Some(b2) = failure_to_blocking(k2) {
                        if !stages.contains(&b2) {
                            stages.push(b2); // multi-stage (e.g. DNS + IP)
                        }
                    }
                    no_page(MeasuredStatus::Blocked, stages, total)
                }
            }
        }
        FetchOutcome::Failed(kind) => {
            let ctx = csaw_obs::scope::current();
            if ctx.sink.enabled() {
                csaw_obs::event::span_completed(
                    "detect.stage.direct",
                    first.elapsed.as_micros(),
                    &[(
                        "failure",
                        csaw_obs::json::JsonValue::from(format!("{kind:?}")),
                    )],
                );
            }
            let stages: Vec<BlockingType> = failure_to_blocking(kind).into_iter().collect();
            let status = if stages.is_empty() {
                MeasuredStatus::Inconclusive
            } else {
                // Provisionally blocked; the redundancy layer downgrades
                // to Inconclusive when the circumvention copy also failed
                // (a shared network problem).
                MeasuredStatus::Blocked
            };
            no_page(status, stages, first.elapsed)
        }
    }
}

/// A measurement that ended without a document: declared when it ended.
fn no_page(
    status: MeasuredStatus,
    stages: Vec<BlockingType>,
    elapsed: SimDuration,
) -> DirectMeasurement {
    DirectMeasurement {
        status,
        stages,
        detection_time: elapsed,
        elapsed,
        page_bytes: None,
        phase1_flagged: false,
    }
}

/// Classify a delivered document with the 2-phase detector. `redirected`
/// is the client-observable fact that the document arrived via an HTTP
/// redirect bounce — it distinguishes ISP-A-style redirect block pages
/// from ISP-B-style in-band ones (Table 1). The real-socket proxy runs
/// its live responses through this same function.
pub fn classify_page(
    bytes: u64,
    html: &Markup,
    redirected: bool,
    elapsed: SimDuration,
    circ_bytes: Option<u64>,
    cfg: &DetectConfig,
) -> DirectMeasurement {
    let flagged = csaw_blockpage::phase1_markup(html, &cfg.phase1) == Phase1Verdict::BlockPage;
    // With a circumvention copy around, phase 2 has the last word: it
    // confirms a phase-1 flag (or corrects the rare false positive) and
    // unmasks a portal-style block page phase 1 cleared. Without one,
    // phase-1 evidence stands (the copy will arrive and correct it).
    let blocked = circ_bytes.map_or(flagged, |cb| csaw_blockpage::phase2(bytes, cb, &cfg.phase2));
    let stage = if flagged && redirected {
        BlockingType::HttpBlockPageRedirect
    } else {
        BlockingType::HttpBlockPageInline
    };
    DirectMeasurement {
        status: if blocked {
            MeasuredStatus::Blocked
        } else {
            MeasuredStatus::NotBlocked
        },
        stages: if blocked { vec![stage] } else { Vec::new() },
        detection_time: elapsed,
        elapsed,
        page_bytes: Some(bytes),
        phase1_flagged: flagged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_censor::blocking::{DnsTamper, HttpAction, IpAction, TlsAction};
    use csaw_censor::profiles;
    use csaw_circumvent::world::SiteSpec;
    use csaw_simnet::topology::{AccessNetwork, Asn, Region, Site};

    fn world_with(policy: csaw_censor::CensorPolicy, asn: Asn) -> (World, Provider) {
        let provider = Provider::new(asn, "isp");
        let access = AccessNetwork::single(provider.clone());
        let w = World::builder(access)
            .site(
                SiteSpec::new("victim.example", Site::at_vantage_rtt(Region::UsEast, 186))
                    .default_page(360_000, 12),
            )
            .censor(asn, policy)
            .build();
        (w, provider)
    }

    fn single(
        dns: DnsTamper,
        ip: IpAction,
        http: HttpAction,
        tls: TlsAction,
    ) -> csaw_censor::CensorPolicy {
        profiles::single_mechanism("t", "victim.example", dns, ip, http, tls)
    }

    fn measure(policy: csaw_censor::CensorPolicy, url: &str, seed: u64) -> DirectMeasurement {
        let (w, p) = world_with(policy, Asn(5));
        let mut rng = DetRng::new(seed);
        measure_direct(
            &w,
            &p,
            &Url::parse(url).unwrap(),
            None,
            &DetectConfig::default(),
            &mut rng,
        )
    }

    #[test]
    fn clean_path_not_blocked() {
        let m = measure(profiles::clean(), "http://victim.example/", 1);
        assert_eq!(m.status, MeasuredStatus::NotBlocked);
        assert!(m.stages.is_empty());
        assert!(m.page_bytes.unwrap() > 100_000);
    }

    #[test]
    fn tcp_ip_blocking_detected_at_21s() {
        let m = measure(
            single(
                DnsTamper::None,
                IpAction::Drop,
                HttpAction::None,
                TlsAction::None,
            ),
            "http://victim.example/",
            2,
        );
        assert_eq!(m.status, MeasuredStatus::Blocked);
        assert_eq!(m.stages, vec![BlockingType::IpDrop]);
        // 21 s ladder plus the DNS RTT.
        assert!(
            m.detection_time >= SimDuration::from_secs(21)
                && m.detection_time < SimDuration::from_millis(21_300),
            "{}",
            m.detection_time
        );
    }

    #[test]
    fn servfail_detected_around_10_6s_and_page_served_via_gdns() {
        let m = measure(
            single(
                DnsTamper::Servfail,
                IpAction::None,
                HttpAction::None,
                TlsAction::None,
            ),
            "http://victim.example/",
            3,
        );
        assert_eq!(m.status, MeasuredStatus::Blocked);
        assert_eq!(m.stages, vec![BlockingType::DnsServfail]);
        assert!(
            m.detection_time >= SimDuration::from_millis(10_600)
                && m.detection_time <= SimDuration::from_millis(11_200),
            "{}",
            m.detection_time
        );
        assert!(m.page_bytes.is_some(), "GDNS local fix already delivered");
    }

    #[test]
    fn refused_detected_in_milliseconds() {
        let m = measure(
            single(
                DnsTamper::Refused,
                IpAction::None,
                HttpAction::None,
                TlsAction::None,
            ),
            "http://victim.example/",
            4,
        );
        assert_eq!(m.status, MeasuredStatus::Blocked);
        assert_eq!(m.stages, vec![BlockingType::DnsRefused]);
        assert!(
            m.detection_time < SimDuration::from_millis(80),
            "{}",
            m.detection_time
        );
    }

    #[test]
    fn multi_stage_dns_plus_ip_around_32s() {
        let m = measure(
            single(
                DnsTamper::Servfail,
                IpAction::Drop,
                HttpAction::None,
                TlsAction::None,
            ),
            "http://victim.example/",
            5,
        );
        assert_eq!(m.status, MeasuredStatus::Blocked);
        assert_eq!(
            m.stages,
            vec![BlockingType::DnsServfail, BlockingType::IpDrop]
        );
        assert!(
            m.detection_time >= SimDuration::from_millis(31_000)
                && m.detection_time <= SimDuration::from_millis(33_500),
            "{}",
            m.detection_time
        );
    }

    #[test]
    fn block_page_detected_fast() {
        let m = measure(
            single(
                DnsTamper::None,
                IpAction::None,
                HttpAction::BlockPageRedirect,
                TlsAction::None,
            ),
            "http://victim.example/",
            6,
        );
        assert_eq!(m.status, MeasuredStatus::Blocked);
        assert_eq!(m.stages, vec![BlockingType::HttpBlockPageRedirect]);
        assert!(m.phase1_flagged);
        assert!(
            m.detection_time > SimDuration::from_millis(900)
                && m.detection_time < SimDuration::from_millis(3_500),
            "{}",
            m.detection_time
        );
    }

    #[test]
    fn hijack_recognized_instantly_with_gdns_recovery() {
        let m = measure(
            single(
                DnsTamper::HijackTo("10.9.9.9".parse().unwrap()),
                IpAction::None,
                HttpAction::None,
                TlsAction::None,
            ),
            "http://victim.example/",
            7,
        );
        assert_eq!(m.status, MeasuredStatus::Blocked);
        assert_eq!(m.stages, vec![BlockingType::DnsHijack]);
        assert!(m.detection_time < SimDuration::from_millis(100));
        assert!(m.page_bytes.is_some(), "GDNS local fix already delivered");
    }

    #[test]
    fn http_drop_burns_get_timeout() {
        let m = measure(
            single(
                DnsTamper::None,
                IpAction::None,
                HttpAction::Drop,
                TlsAction::None,
            ),
            "http://victim.example/",
            8,
        );
        assert_eq!(m.status, MeasuredStatus::Blocked);
        assert_eq!(m.stages, vec![BlockingType::HttpDrop]);
        assert!(m.detection_time >= SimDuration::from_secs(30));
    }

    #[test]
    fn sni_blocking_on_https() {
        let m = measure(
            single(
                DnsTamper::None,
                IpAction::None,
                HttpAction::None,
                TlsAction::Drop,
            ),
            "https://victim.example/",
            9,
        );
        assert_eq!(m.status, MeasuredStatus::Blocked);
        assert_eq!(m.stages, vec![BlockingType::SniDrop]);
    }

    #[test]
    fn https_cannot_be_block_paged() {
        // A censor that only knows how to serve block pages over plaintext
        // HTTP has nothing on an HTTPS fetch — the TLS-wrapped request is
        // invisible to its HTTP stage.
        let m = measure(
            single(
                DnsTamper::None,
                IpAction::None,
                HttpAction::BlockPageInline,
                TlsAction::None,
            ),
            "https://victim.example/",
            21,
        );
        assert_eq!(m.status, MeasuredStatus::NotBlocked);
        assert!(m.page_bytes.is_some());
    }

    #[test]
    fn dead_domain_is_inconclusive_not_censorship() {
        let m = measure(profiles::clean(), "http://no-such-site.example/", 10);
        assert_eq!(m.status, MeasuredStatus::Inconclusive);
        assert!(m.stages.is_empty());
    }

    #[test]
    fn forged_nxdomain_detected_via_gdns_disagreement() {
        let m = measure(
            single(
                DnsTamper::Nxdomain,
                IpAction::None,
                HttpAction::None,
                TlsAction::None,
            ),
            "http://victim.example/",
            11,
        );
        assert_eq!(m.status, MeasuredStatus::Blocked);
        assert_eq!(m.stages, vec![BlockingType::DnsNxdomain]);
        assert!(m.page_bytes.is_some(), "GDNS local fix already delivered");
    }

    #[test]
    fn phase2_unmasks_portal_block_page() {
        // Portal-style block page: phase 1 clears it, size comparison
        // against the circumvention copy does not.
        let portal = &csaw_blockpage::corpus_47()[40]; // a PortalStyle entry
        assert_eq!(portal.family, csaw_blockpage::Family::PortalStyle);
        let m = classify_page(
            portal.len() as u64,
            &portal.html.as_str().into(),
            false,
            SimDuration::from_millis(500),
            Some(360_000),
            &DetectConfig::default(),
        );
        assert_eq!(m.status, MeasuredStatus::Blocked);
        assert_eq!(m.stages, vec![BlockingType::HttpBlockPageInline]);
        assert!(!m.phase1_flagged);
    }

    #[test]
    fn phase1_false_positive_corrected_by_phase2() {
        let html = "<html><body><p>court order archive</p></body></html>";
        let m = classify_page(
            html.len() as u64,
            &html.into(),
            false,
            SimDuration::from_millis(300),
            Some(html.len() as u64),
            &DetectConfig::default(),
        );
        assert_eq!(m.status, MeasuredStatus::NotBlocked);
        assert!(m.phase1_flagged);
    }
}
