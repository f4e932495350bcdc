//! Redundant requests (§4.3.1) — the mechanism that makes detection fast
//! *and* keeps the user experience intact.
//!
//! For a URL with `not-measured` status, C-Saw issues the request on the
//! direct path and on a circumvention path. The shapes evaluated in §7.1:
//!
//! - **Serial**: direct first; only after blocking is detected does the
//!   circumvention copy go out. Simple, slow on blocked pages (blocking
//!   detection can cost 21–33 s).
//! - **Parallel**: both at once; the user sees the first usable response.
//!   45.8–64.1% PLT reduction on blocked pages (Fig. 5a), at the cost of
//!   extra load on unblocked fetches (Fig. 5b/c).
//! - **Staggered(d)**: direct at once, the copy only if no direct
//!   response within `d`. Recovers the single-copy median at some tail
//!   cost (Fig. 5b/c's "2 copies (with delay)").
//!
//! Redundancy also *disambiguates*: a direct failure with a successful
//! circumvention copy is censorship; both failing is a network problem
//! (the paths share the access link), and the URL is **not** marked
//! blocked.

use crate::config::RedundancyMode;
use crate::measure::detect::{measure_direct, DetectConfig, DirectMeasurement, MeasuredStatus};
use csaw_circumvent::fetch::FetchReport;
use csaw_circumvent::transports::{FetchCtx, Transport};
use csaw_circumvent::world::World;
use csaw_simnet::load::LoadModel;
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::SimDuration;
use csaw_webproto::url::Url;

/// Where the user-visible response came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedFrom {
    /// The direct path delivered the genuine page.
    Direct,
    /// The circumvention path's copy was served.
    Circumvention,
    /// The direct path served a page that was later unmasked as a block
    /// page; the browser was refreshed with the circumvention copy.
    CircumventionAfterRefresh,
    /// Nothing usable arrived.
    Nothing,
}

/// The outcome of a redundant fetch.
#[derive(Debug, Clone, PartialEq)]
pub struct RedundantOutcome {
    /// When the user had usable content (the PLT that counts).
    pub user_plt: Option<SimDuration>,
    /// What the user was served.
    pub served_from: ServedFrom,
    /// The direct-path measurement (status possibly downgraded to
    /// `Inconclusive` when the circumvention copy corroborated a network
    /// problem).
    pub measurement: DirectMeasurement,
    /// The circumvention copy's report, if one was sent.
    pub circumvention: Option<FetchReport>,
}

/// Issue a redundant fetch for a not-measured URL.
///
/// `circ` is the circumvention transport carrying the redundant copy
/// (Tor by default in the paper's experiments). POST requests must not be
/// duplicated — callers enforce that (the paper duplicates GETs only).
///
/// When a trace frame is active (see [`crate::tracing`]), the outcome is
/// also emitted as the canonical fetch span tree, decomposing the user
/// PLT into detection, circumvention setup, and transfer.
#[allow(clippy::too_many_arguments)] // the redundancy engine genuinely spans all these concerns
pub fn fetch_with_redundancy(
    world: &World,
    ctx: &FetchCtx,
    url: &Url,
    mode: RedundancyMode,
    circ: &mut dyn Transport,
    detect_cfg: &DetectConfig,
    load: &LoadModel,
    rng: &mut DetRng,
) -> RedundantOutcome {
    let out = match mode {
        RedundancyMode::Serial => {
            let m = measure_direct(world, &ctx.provider, url, None, detect_cfg, rng);
            if m.status == MeasuredStatus::NotBlocked {
                direct_alone(m)
            } else {
                // Only now does the circumvention copy go out.
                let c = circ.fetch(world, ctx, url, rng);
                let total = m.elapsed + c.elapsed;
                let (plt, from) = if c.outcome.is_genuine_page() {
                    (Some(total), ServedFrom::Circumvention)
                } else {
                    (None, ServedFrom::Nothing)
                };
                RedundantOutcome {
                    user_plt: plt,
                    served_from: from,
                    measurement: corroborate(m, &c),
                    circumvention: Some(c),
                }
            }
        }
        RedundancyMode::Parallel => {
            // Both copies in flight for the whole fetch.
            let mut c = circ.fetch(world, ctx, url, rng);
            let circ_bytes = c.outcome.page().map(|p| p.bytes);
            let mut m = measure_direct(world, &ctx.provider, url, circ_bytes, detect_cfg, rng);
            share_the_link(&mut m, &mut c, 1.0, load, rng);
            m.detection_time = m.detection_time.min(m.elapsed);
            combine_parallel(m, c, SimDuration::ZERO)
        }
        RedundancyMode::Staggered(delay) => {
            let mut m = measure_direct(world, &ctx.provider, url, None, detect_cfg, rng);
            if m.status == MeasuredStatus::NotBlocked && m.elapsed <= delay {
                // Direct answered before the stagger fired: single copy,
                // no load tax — the whole point of the delay.
                direct_alone(m)
            } else {
                // The copy goes out at `delay`; the overlap (and hence
                // the load tax on the direct copy) covers only the
                // post-delay portion.
                let mut c = circ.fetch(world, ctx, url, rng);
                let overlap = 1.0
                    - (delay.as_secs_f64() / m.elapsed.as_secs_f64().max(f64::EPSILON)).min(1.0);
                share_the_link(&mut m, &mut c, overlap, load, rng);
                // Re-run phase-2 opportunity: the copy's size arrives
                // late, but the measurement semantics are unchanged for
                // blocked outcomes; portal-style unmasking needs the
                // copy, which the staggered mode also eventually
                // provides. (Handled by the caller's bookkeeping via
                // `measurement.page_bytes`.)
                combine_parallel(m, c, delay)
            }
        }
    };
    emit_redundant_tree(ctx, url, circ.name(), &out);
    out
}

/// The direct path answered on its own; no copy was sent.
fn direct_alone(m: DirectMeasurement) -> RedundantOutcome {
    RedundantOutcome {
        user_plt: Some(m.elapsed),
        served_from: ServedFrom::Direct,
        measurement: m,
        circumvention: None,
    }
}

/// Two copies in flight tax each other in proportion to the data each
/// moves: a direct copy that dies in a black hole moves nothing; a block
/// page is a sliver of a real page; a genuine duplicate is a full extra
/// unit. `overlap` is the share of the direct fetch the copy was in
/// flight for.
fn share_the_link(
    m: &mut DirectMeasurement,
    c: &mut FetchReport,
    overlap: f64,
    load: &LoadModel,
    rng: &mut DetRng,
) {
    let direct_bytes = m.page_bytes.unwrap_or(0);
    let circ_bytes = c.outcome.page().map_or(0, |p| p.bytes);
    let weight = |of: u64, on: u64| {
        if on > 0 {
            (of as f64 / on as f64).min(1.0)
        } else {
            0.0
        }
    };
    c.elapsed = load.inflate_weighted(c.elapsed, weight(direct_bytes, circ_bytes), rng);
    let on_direct = weight(circ_bytes, direct_bytes) * overlap;
    m.elapsed = load.inflate_weighted(m.elapsed, on_direct, rng);
}

/// Map a [`RedundantOutcome`] onto the canonical PLT decomposition and
/// emit it as this fetch's span tree.
///
/// The detection leg is `plt − copy_elapsed`, which unifies the three
/// redundancy shapes: serial pays the full direct measurement before the
/// copy starts, parallel overlaps it entirely (zero-width detection
/// leg), and staggered pays exactly the stagger delay. The setup leg is
/// the copy's TCP connect time; the transfer leg is the
/// remainder, so the three children always sum to the root PLT exactly.
fn emit_redundant_tree(ctx: &FetchCtx, url: &Url, circ_name: &str, out: &RedundantOutcome) {
    use crate::tracing::FetchBreakdown;
    let start_us = ctx.now.as_micros();
    let (b, transport) = match (out.served_from, out.user_plt, &out.circumvention) {
        (ServedFrom::Direct, Some(plt), _) => (
            FetchBreakdown::served(plt, SimDuration::ZERO, SimDuration::ZERO),
            "direct",
        ),
        (ServedFrom::Circumvention | ServedFrom::CircumventionAfterRefresh, Some(plt), c) => {
            let copy = c.as_ref().map(|c| c.elapsed).unwrap_or(SimDuration::ZERO);
            let setup = c.as_ref().map(|c| c.connect).unwrap_or(SimDuration::ZERO);
            (
                FetchBreakdown::served(plt, plt.saturating_sub(copy), setup),
                circ_name,
            )
        }
        (_, _, c) => (
            FetchBreakdown::failed(
                out.measurement.elapsed,
                c.as_ref().map(|c| c.elapsed).unwrap_or(SimDuration::ZERO),
            ),
            "none",
        ),
    };
    crate::tracing::emit_fetch_tree(start_us, b, url, transport);
}

/// Merge a direct measurement and a circumvention copy under parallel
/// semantics: first usable response wins; the copy starts `offset` after
/// the direct request.
fn combine_parallel(m: DirectMeasurement, c: FetchReport, offset: SimDuration) -> RedundantOutcome {
    let circ_done = offset + c.elapsed;
    let circ_ok = c.outcome.is_genuine_page();
    match m.status {
        MeasuredStatus::NotBlocked => {
            // Phase 1 cleared the direct response: serve it immediately
            // (the paper's fast path) — even if the copy would have been
            // faster, the direct page is shown when it arrives; take the
            // earlier of the two usable responses.
            let plt = if circ_ok {
                m.elapsed.min(circ_done)
            } else {
                m.elapsed
            };
            let from = if circ_ok && circ_done < m.elapsed {
                ServedFrom::Circumvention
            } else {
                ServedFrom::Direct
            };
            RedundantOutcome {
                user_plt: Some(plt),
                served_from: from,
                measurement: m,
                circumvention: Some(c),
            }
        }
        MeasuredStatus::Blocked => {
            if circ_ok {
                // Blocking on the direct path; the copy serves the user.
                // If the block page had been *served* (phase-1 false
                // negative unmasked by phase 2), the refresh lands when
                // the copy arrives.
                let refresh = m.phase1_flagged
                    || m.stages
                        .iter()
                        .any(|s| matches!(s, csaw_censor::BlockingType::HttpBlockPageInline));
                RedundantOutcome {
                    user_plt: Some(circ_done),
                    served_from: if refresh {
                        ServedFrom::CircumventionAfterRefresh
                    } else {
                        ServedFrom::Circumvention
                    },
                    measurement: m,
                    circumvention: Some(c),
                }
            } else {
                // Both paths failed: network trouble, not censorship —
                // the paths share the access link (§4.3.1).
                let mut m = m;
                // Exception: a *served block page* is censorship evidence
                // on its own, no corroboration needed.
                if m.page_bytes.is_none() {
                    m.status = MeasuredStatus::Inconclusive;
                    m.stages.clear();
                }
                RedundantOutcome {
                    user_plt: None,
                    served_from: ServedFrom::Nothing,
                    measurement: m,
                    circumvention: Some(c),
                }
            }
        }
        MeasuredStatus::Inconclusive => RedundantOutcome {
            user_plt: if circ_ok { Some(circ_done) } else { None },
            served_from: if circ_ok {
                ServedFrom::Circumvention
            } else {
                ServedFrom::Nothing
            },
            measurement: m,
            circumvention: Some(c),
        },
    }
}

/// Downgrade a provisional blocked verdict when the circumvention copy
/// also failed (serial mode's corroboration step).
fn corroborate(mut m: DirectMeasurement, c: &FetchReport) -> DirectMeasurement {
    if m.status == MeasuredStatus::Blocked && !c.outcome.is_genuine_page() && m.page_bytes.is_none()
    {
        m.status = MeasuredStatus::Inconclusive;
        m.stages.clear();
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_censor::blocking::{DnsTamper, HttpAction, IpAction, TlsAction};
    use csaw_censor::profiles;
    use csaw_circumvent::tor::TorClient;
    use csaw_circumvent::world::SiteSpec;
    use csaw_simnet::time::SimTime;
    use csaw_simnet::topology::{AccessNetwork, Asn, Provider, Region, Site};

    fn setup(policy: csaw_censor::CensorPolicy) -> (World, FetchCtx) {
        let provider = Provider::new(Asn(5), "isp");
        let access = AccessNetwork::single(provider.clone());
        let w = World::builder(access)
            .site(
                SiteSpec::new("victim.example", Site::at_vantage_rtt(Region::UsEast, 186))
                    .default_page(360_000, 12),
            )
            .censor(Asn(5), policy)
            .build();
        (
            w,
            FetchCtx {
                now: SimTime::ZERO,
                provider,
            },
        )
    }

    fn blocked_policy(http: HttpAction) -> csaw_censor::CensorPolicy {
        profiles::single_mechanism(
            "t",
            "victim.example",
            DnsTamper::None,
            IpAction::None,
            http,
            TlsAction::None,
        )
    }

    fn run(policy: csaw_censor::CensorPolicy, mode: RedundancyMode, seed: u64) -> RedundantOutcome {
        let (w, ctx) = setup(policy);
        let mut tor = TorClient::new();
        let mut rng = DetRng::new(seed);
        fetch_with_redundancy(
            &w,
            &ctx,
            &Url::parse("http://victim.example/").unwrap(),
            mode,
            &mut tor,
            &DetectConfig::default(),
            &LoadModel::default(),
            &mut rng,
        )
    }

    #[test]
    fn unblocked_parallel_serves_direct() {
        let o = run(profiles::clean(), RedundancyMode::Parallel, 1);
        assert_eq!(o.measurement.status, MeasuredStatus::NotBlocked);
        assert!(matches!(o.served_from, ServedFrom::Direct));
        assert!(o.user_plt.is_some());
    }

    #[test]
    fn parallel_beats_serial_on_blocked_pages() {
        // The headline Fig. 5a effect: with HTTP-drop blocking (30 s
        // detection), the parallel copy arrives in seconds.
        let serial = run(blocked_policy(HttpAction::Drop), RedundancyMode::Serial, 2);
        let parallel = run(
            blocked_policy(HttpAction::Drop),
            RedundancyMode::Parallel,
            2,
        );
        let s = serial.user_plt.expect("serial should be served eventually");
        let p = parallel.user_plt.expect("parallel served");
        assert!(
            p.as_secs_f64() < s.as_secs_f64() * 0.6,
            "parallel {p} not ≥40% better than serial {s}"
        );
        assert_eq!(parallel.served_from, ServedFrom::Circumvention);
        assert_eq!(parallel.measurement.status, MeasuredStatus::Blocked);
    }

    #[test]
    fn staggered_avoids_copy_on_fast_direct() {
        let o = run(
            profiles::clean(),
            RedundancyMode::Staggered(SimDuration::from_secs(2)),
            3,
        );
        // 360 KB at these RTTs typically finishes under 2 s; when it does,
        // no copy must have been sent.
        if o.measurement.elapsed <= SimDuration::from_secs(2) {
            assert!(o.circumvention.is_none());
            assert_eq!(o.served_from, ServedFrom::Direct);
        }
    }

    #[test]
    fn staggered_sends_copy_when_direct_stalls() {
        let o = run(
            blocked_policy(HttpAction::Drop),
            RedundancyMode::Staggered(SimDuration::from_secs(2)),
            4,
        );
        assert!(o.circumvention.is_some());
        assert_eq!(o.served_from, ServedFrom::Circumvention);
        let plt = o.user_plt.unwrap();
        assert!(plt >= SimDuration::from_secs(2));
        assert!(plt < SimDuration::from_secs(30), "{plt}");
    }

    #[test]
    fn block_page_stands_even_when_circ_fails() {
        // A served block page is positive evidence; even if Tor failed,
        // the verdict must not downgrade. Use a directory whose exit
        // can't resolve the site (we simulate circ failure with an
        // unreachable URL by blocking the relay fetch via unknown host).
        let (w, ctx) = setup(blocked_policy(HttpAction::BlockPageRedirect));
        let mut rng = DetRng::new(5);
        // Circ transport that always fails:
        struct Dead;
        impl Transport for Dead {
            fn name(&self) -> &str {
                "dead"
            }
            fn kind(&self) -> csaw_circumvent::transports::TransportKind {
                csaw_circumvent::transports::TransportKind::Relay
            }
            fn fetch(
                &mut self,
                _w: &World,
                _c: &FetchCtx,
                _u: &Url,
                _r: &mut DetRng,
            ) -> FetchReport {
                FetchReport {
                    outcome: csaw_circumvent::outcome::FetchOutcome::Failed(
                        csaw_circumvent::outcome::FailureKind::TransportUnavailable,
                    ),
                    elapsed: SimDuration::from_secs(5),
                    connect: SimDuration::ZERO,
                    resource_failures: Vec::new(),
                }
            }
        }
        let o = fetch_with_redundancy(
            &w,
            &ctx,
            &Url::parse("http://victim.example/").unwrap(),
            RedundancyMode::Parallel,
            &mut Dead,
            &DetectConfig::default(),
            &LoadModel::default(),
            &mut rng,
        );
        assert_eq!(o.measurement.status, MeasuredStatus::Blocked);
        assert_eq!(o.served_from, ServedFrom::Nothing);
    }

    #[test]
    fn shared_failure_is_network_problem() {
        // Direct path times out *and* the copy fails: inconclusive.
        let (w, ctx) = setup(blocked_policy(HttpAction::Drop));
        let mut rng = DetRng::new(6);
        struct Dead;
        impl Transport for Dead {
            fn name(&self) -> &str {
                "dead"
            }
            fn kind(&self) -> csaw_circumvent::transports::TransportKind {
                csaw_circumvent::transports::TransportKind::Relay
            }
            fn fetch(
                &mut self,
                _w: &World,
                _c: &FetchCtx,
                _u: &Url,
                _r: &mut DetRng,
            ) -> FetchReport {
                FetchReport {
                    outcome: csaw_circumvent::outcome::FetchOutcome::Failed(
                        csaw_circumvent::outcome::FailureKind::HttpGetTimeout,
                    ),
                    elapsed: SimDuration::from_secs(30),
                    connect: SimDuration::ZERO,
                    resource_failures: Vec::new(),
                }
            }
        }
        let o = fetch_with_redundancy(
            &w,
            &ctx,
            &Url::parse("http://victim.example/").unwrap(),
            RedundancyMode::Parallel,
            &mut Dead,
            &DetectConfig::default(),
            &LoadModel::default(),
            &mut rng,
        );
        assert_eq!(o.measurement.status, MeasuredStatus::Inconclusive);
        assert!(o.measurement.stages.is_empty());
        assert_eq!(o.served_from, ServedFrom::Nothing);
    }

    #[test]
    fn serial_corroboration_downgrades_timeouts() {
        let (w, ctx) = setup(blocked_policy(HttpAction::Drop));
        let mut rng = DetRng::new(7);
        struct Dead;
        impl Transport for Dead {
            fn name(&self) -> &str {
                "dead"
            }
            fn kind(&self) -> csaw_circumvent::transports::TransportKind {
                csaw_circumvent::transports::TransportKind::Relay
            }
            fn fetch(
                &mut self,
                _w: &World,
                _c: &FetchCtx,
                _u: &Url,
                _r: &mut DetRng,
            ) -> FetchReport {
                FetchReport {
                    outcome: csaw_circumvent::outcome::FetchOutcome::Failed(
                        csaw_circumvent::outcome::FailureKind::HttpGetTimeout,
                    ),
                    elapsed: SimDuration::from_secs(30),
                    connect: SimDuration::ZERO,
                    resource_failures: Vec::new(),
                }
            }
        }
        let o = fetch_with_redundancy(
            &w,
            &ctx,
            &Url::parse("http://victim.example/").unwrap(),
            RedundancyMode::Serial,
            &mut Dead,
            &DetectConfig::default(),
            &LoadModel::default(),
            &mut rng,
        );
        assert_eq!(o.measurement.status, MeasuredStatus::Inconclusive);
    }
}
