//! The circumvention module's selection policy (§4.3.2, §4.4).
//!
//! Given the blocking mechanisms recorded for a URL, the selector orders
//! candidate transports:
//!
//! 1. **Local fixes first** — they avoid relays and their path inflation:
//!    public DNS for resolver tampering, HTTPS for HTTP-only filtering,
//!    "IP as hostname" for name/keyword matching, domain fronting for
//!    SNI/IP-level blocking.
//! 2. **Relays by expected PLT** — the moving average per (transport,
//!    URL) decides between Lantern, static proxies, VPNs and Tor.
//! 3. **Exploration** — every `n`-th access to a URL uses a randomly
//!    chosen eligible transport, so a transport that *improved* gets
//!    rediscovered (the paper uses n = 5).
//!
//! An anonymity-preferring user restricts the registry to transports
//! that provide anonymity (Tor), per §4.4.

use crate::circum::plt_tracker::PltTracker;
use crate::config::UserPreference;
use crate::measure::detect::failure_to_blocking;
use csaw_censor::blocking::{BlockingType, Stage};
use csaw_circumvent::fetch::FetchReport;
use csaw_circumvent::transports::{FetchCtx, Transport, TransportKind};
use csaw_circumvent::world::World;
use csaw_simnet::rng::DetRng;
use csaw_webproto::url::Url;
use std::collections::HashMap;

/// The outcome of serving a blocked URL through the selector.
#[derive(Debug)]
pub struct BlockedFetch {
    /// The final attempt's report (PLT includes time wasted on failed
    /// attempts).
    pub report: FetchReport,
    /// Name of the transport that produced the final outcome.
    pub transport: String,
    /// Its kind (drives the revalidation policy).
    pub kind: TransportKind,
    /// Blocking stages newly evidenced by failed local-fix attempts
    /// (multi-stage discovery; persist into the local DB).
    pub observed_stages: Vec<BlockingType>,
    /// Time burned on attempts that did *not* produce the final outcome
    /// (the dead-end share of the user-visible PLT — the circumvention
    /// setup leg of the fetch span tree).
    pub wasted: csaw_simnet::SimDuration,
}

/// EWMA weight for per-(transport, URL) PLT tracking.
const PLT_EWMA_ALPHA: f64 = 0.3;

/// The circumvention transport registry plus selection state.
pub struct Selector {
    transports: Vec<Box<dyn Transport + Send>>,
    plt: PltTracker,
    access_counts: HashMap<String, u32>,
    explore_every: u32,
    preference: UserPreference,
}

impl std::fmt::Debug for Selector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Selector")
            .field("transports", &self.transport_names())
            .field("explore_every", &self.explore_every)
            .field("preference", &self.preference)
            .finish()
    }
}

impl Selector {
    /// Build a selector over an explicit transport registry.
    pub fn new(
        transports: Vec<Box<dyn Transport + Send>>,
        explore_every: u32,
        preference: UserPreference,
    ) -> Selector {
        assert!(!transports.is_empty(), "need at least one transport");
        Selector {
            transports,
            plt: PltTracker::new(PLT_EWMA_ALPHA),
            access_counts: HashMap::new(),
            explore_every: explore_every.max(1),
            preference,
        }
    }

    /// The standard registry the paper's implementation ships: all local
    /// fixes (fronting through `front` if given) plus Lantern and Tor.
    pub fn standard(
        front: Option<&str>,
        explore_every: u32,
        preference: UserPreference,
    ) -> Selector {
        let mut t: Vec<Box<dyn Transport + Send>> = vec![
            Box::new(csaw_circumvent::transports::PublicDns),
            Box::new(csaw_circumvent::transports::HoldOnDns),
            Box::new(csaw_circumvent::transports::HttpsUpgrade { public_dns: true }),
            Box::new(csaw_circumvent::transports::IpAsHostname::default()),
        ];
        if let Some(front) = front {
            t.push(Box::new(csaw_circumvent::transports::DomainFronting::via(
                front,
            )));
        }
        t.push(Box::new(csaw_circumvent::lantern::LanternClient::new()));
        t.push(Box::new(csaw_circumvent::tor::TorClient::new()));
        Selector::new(t, explore_every, preference)
    }

    /// Registered transport names, in registry order.
    pub fn transport_names(&self) -> Vec<String> {
        self.transports
            .iter()
            .map(|t| t.name().to_string())
            .collect()
    }

    /// The PLT tracker (read access for experiments).
    pub fn plt_tracker(&self) -> &PltTracker {
        &self.plt
    }

    /// Which local fixes address the given blocking stages, in preference
    /// order. Transport names refer to the standard registry.
    pub fn local_fix_order(stages: &[BlockingType]) -> Vec<&'static str> {
        let has_stage = |st: Stage| stages.iter().any(|b| b.stage() == st);
        let dns = has_stage(Stage::Dns);
        let ip = has_stage(Stage::Ip);
        let http = has_stage(Stage::Http);
        let tls = has_stage(Stage::Tls);
        let mut out = Vec::new();
        // Public DNS cures pure resolver tampering; Hold-On additionally
        // survives on-path injection, at a hold-window cost — so it comes
        // second.
        if dns && !ip && !http && !tls {
            out.push("public-dns");
            out.push("hold-on-dns");
        }
        // HTTPS hides the request from HTTP-only filters (and resolving
        // publicly folds in the DNS cure).
        if http && !tls && !ip {
            out.push("https");
        }
        // IP-as-hostname defeats name/keyword matching wherever names are
        // the filter key — including SNI blocking, since the plain-HTTP
        // IP-addressed fetch never presents a TLS hello. Only IP-level
        // blocking kills it.
        if (dns || http || tls) && !ip {
            out.push("ip-as-hostname");
        }
        // Fronting defeats everything that keys on names or addresses.
        out.push("domain-fronting");
        out
    }

    fn index_of(&self, name: &str) -> Option<usize> {
        self.transports.iter().position(|t| t.name() == name)
    }

    /// Ordered candidate indices for a URL with the given recorded
    /// blocking stages.
    pub fn candidate_order(&self, url_key: &str, stages: &[BlockingType]) -> Vec<usize> {
        let mut order: Vec<usize> = Vec::new();
        let anonymity_only = self.preference == UserPreference::Anonymity;
        if !anonymity_only {
            for name in Self::local_fix_order(stages) {
                if let Some(i) = self.index_of(name) {
                    if !order.contains(&i) {
                        order.push(i);
                    }
                }
            }
        }
        // Relays, best expected PLT first; unknown transports last in
        // registry order.
        let mut relays: Vec<(usize, Option<f64>)> = self
            .transports
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind() == TransportKind::Relay)
            .filter(|(_, t)| !anonymity_only || t.anonymous())
            .map(|(i, t)| (i, self.plt.estimate(t.name(), url_key)))
            .collect();
        relays.sort_by(|a, b| match (a.1, b.1) {
            (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => a.0.cmp(&b.0),
        });
        for (i, _) in relays {
            if !order.contains(&i) {
                order.push(i);
            }
        }
        order
    }

    /// Fetch a blocked URL via the best transport, with n-th-access
    /// exploration.
    ///
    /// If the preference filter leaves no usable transport at all (an
    /// anonymity-only user whose registry has no anonymous transport),
    /// the fetch fails with `TransportUnavailable` rather than leaking
    /// through a forbidden one.
    pub fn fetch_blocked(
        &mut self,
        world: &World,
        ctx: &FetchCtx,
        url: &Url,
        stages: &[BlockingType],
        rng: &mut DetRng,
    ) -> BlockedFetch {
        let url_key = url.base_string(url.scheme());
        let count = self.access_counts.entry(url_key.clone()).or_insert(0);
        *count += 1;
        let explore = (*count).is_multiple_of(self.explore_every);
        let mut order = self.candidate_order(&url_key, stages);
        if order.is_empty() {
            csaw_obs::inc("circum.fetch.failed");
            return BlockedFetch {
                report: FetchReport::failed(
                    csaw_circumvent::outcome::FailureKind::TransportUnavailable,
                    csaw_simnet::SimDuration::ZERO,
                ),
                transport: "none".to_string(),
                kind: TransportKind::Direct,
                observed_stages: Vec::new(),
                wasted: csaw_simnet::SimDuration::ZERO,
            };
        }
        if explore && order.len() > 1 {
            // Random eligible candidate goes first (§4.3.2's periodic
            // re-exploration).
            let pick = rng.index(order.len());
            let chosen = order.remove(pick);
            order.insert(0, chosen);
            csaw_obs::inc("circum.explorations");
        }
        // Time spent on transports that didn't deliver is user-visible
        // waiting: it accumulates into the final PLT. But every failed
        // local fix is also *measurement*: it reveals a blocking stage
        // the record didn't know about (§4.1's multi-stage fields), so
        // the caller can persist it and the next visit skips the dead
        // end.
        let mut wasted = csaw_simnet::SimDuration::ZERO;
        let mut observed_stages: Vec<BlockingType> = Vec::new();
        let mut last: Option<BlockedFetch> = None;
        // Attempt spans ride the trace cursor: the caller positions it
        // where circumvention starts on the fetch waterfall, and each
        // failed attempt pushes it forward by the time it burned.
        let trace_attempts =
            csaw_obs::trace::in_trace() && csaw_obs::scope::current().sink.enabled();
        for i in order {
            let name = self.transports[i].name().to_string();
            let kind = self.transports[i].kind();
            let mut report = self.transports[i].fetch(world, ctx, url, rng);
            let genuine = report.outcome.is_genuine_page();
            if trace_attempts {
                csaw_obs::event::span_completed_at(
                    "circum.attempt",
                    csaw_obs::trace::cursor_us().unwrap_or(0),
                    report.elapsed.as_micros(),
                    &[
                        ("transport", csaw_obs::json::JsonValue::from(name.as_str())),
                        ("ok", csaw_obs::json::JsonValue::from(genuine)),
                    ],
                );
            }
            if genuine {
                // The moving average tracks the transport's own speed;
                // the user's PLT additionally pays for the dead ends.
                self.plt.observe(&name, &url_key, report.elapsed);
                report.elapsed += wasted;
                let ctx = csaw_obs::scope::current();
                ctx.registry.counter("circum.fetch.success").inc();
                ctx.registry
                    .counter(&format!("circum.selected.{name}"))
                    .inc();
                // User-visible PLT: transport time plus the dead ends.
                ctx.registry
                    .histogram("plt.user_s")
                    .observe_secs(report.elapsed.as_secs_f64());
                return BlockedFetch {
                    report,
                    transport: name,
                    kind,
                    observed_stages,
                    wasted,
                };
            }
            let wasted_before = wasted;
            wasted += report.elapsed;
            csaw_obs::trace::advance_cursor_us(report.elapsed.as_micros());
            // A local fix that died on a censor signature taught us a
            // stage (TransportUnavailable teaches nothing — the fix just
            // doesn't apply to this origin).
            if kind == TransportKind::LocalFix {
                if let Some(bt) = report.outcome.failure().and_then(failure_to_blocking) {
                    if !observed_stages.contains(&bt) {
                        observed_stages.push(bt);
                    }
                }
            }
            last = Some(BlockedFetch {
                report,
                transport: name,
                kind,
                observed_stages: observed_stages.clone(),
                wasted: wasted_before,
            });
        }
        csaw_obs::inc("circum.fetch.failed");
        last.expect("order was non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_censor::profiles;
    use csaw_circumvent::world::SiteSpec;
    use csaw_simnet::time::{SimDuration, SimTime};
    use csaw_simnet::topology::{AccessNetwork, Asn, Provider, Region, Site};

    fn setup(policy: csaw_censor::CensorPolicy, asn: Asn) -> (World, FetchCtx) {
        let provider = Provider::new(asn, "isp");
        let access = AccessNetwork::single(provider.clone());
        let w = World::builder(access)
            .site(
                SiteSpec::new("www.youtube.com", Site::at_vantage_rtt(Region::UsEast, 186))
                    .category(csaw_censor::Category::Video)
                    .frontable(true)
                    .serves_by_ip(true)
                    .default_page(360_000, 20),
            )
            .site(SiteSpec::new(
                "cdn-front.example",
                Site::in_region(Region::Singapore),
            ))
            .censor(asn, policy)
            .build();
        (
            w,
            FetchCtx {
                now: SimTime::ZERO,
                provider,
            },
        )
    }

    fn selector() -> Selector {
        Selector::standard(Some("cdn-front.example"), 5, UserPreference::Performance)
    }

    #[test]
    fn local_fix_order_matches_mechanisms() {
        use BlockingType::*;
        assert_eq!(
            Selector::local_fix_order(&[DnsHijack]),
            vec![
                "public-dns",
                "hold-on-dns",
                "ip-as-hostname",
                "domain-fronting"
            ]
        );
        assert_eq!(
            Selector::local_fix_order(&[HttpBlockPageRedirect]),
            vec!["https", "ip-as-hostname", "domain-fronting"]
        );
        assert_eq!(
            Selector::local_fix_order(&[SniDrop]),
            vec!["ip-as-hostname", "domain-fronting"]
        );
        assert_eq!(
            Selector::local_fix_order(&[HttpDrop, SniDrop]),
            vec!["ip-as-hostname", "domain-fronting"],
            "SNI blocking never sees a plain-HTTP IP-addressed fetch"
        );
        assert_eq!(
            Selector::local_fix_order(&[IpDrop]),
            vec!["domain-fronting"]
        );
        assert_eq!(
            Selector::local_fix_order(&[DnsHijack, HttpDrop]),
            vec!["https", "ip-as-hostname", "domain-fronting"]
        );
    }

    #[test]
    fn isp_a_gets_https_fix() {
        let (w, ctx) = setup(profiles::isp_a(), profiles::ISP_A_ASN);
        let mut s = selector();
        let mut rng = DetRng::new(1);
        let url = Url::parse("http://www.youtube.com/").unwrap();
        let BlockedFetch {
            report,
            transport: name,
            ..
        } = s.fetch_blocked(
            &w,
            &ctx,
            &url,
            &[BlockingType::HttpBlockPageRedirect],
            &mut rng,
        );
        assert!(report.outcome.is_genuine_page());
        assert_eq!(name, "https");
    }

    #[test]
    fn isp_b_youtube_served_by_a_working_local_fix() {
        let (w, ctx) = setup(profiles::isp_b(), profiles::ISP_B_ASN);
        let mut s = selector();
        let mut rng = DetRng::new(2);
        let url = Url::parse("http://www.youtube.com/").unwrap();
        let stages = [
            BlockingType::DnsHijack,
            BlockingType::HttpDrop,
            BlockingType::SniDrop,
        ];
        let BlockedFetch {
            report,
            transport: name,
            ..
        } = s.fetch_blocked(&w, &ctx, &url, &stages, &mut rng);
        assert!(report.outcome.is_genuine_page(), "{:?}", report.outcome);
        // This origin serves by IP, so the cheaper IP-as-hostname fix
        // wins; fronting is the fallback.
        assert!(
            name == "ip-as-hostname" || name == "domain-fronting",
            "{name}"
        );
    }

    #[test]
    fn isp_b_needs_fronting_when_origin_rejects_ip_requests() {
        // Same multi-stage blocking, but the origin refuses IP-addressed
        // requests: fronting is the only local fix left.
        let provider = Provider::new(profiles::ISP_B_ASN, "isp");
        let access = AccessNetwork::single(provider.clone());
        let w = World::builder(access)
            .site(
                SiteSpec::new("www.youtube.com", Site::at_vantage_rtt(Region::UsEast, 186))
                    .category(csaw_censor::Category::Video)
                    .frontable(true)
                    .serves_by_ip(false)
                    .default_page(360_000, 20),
            )
            .site(SiteSpec::new(
                "cdn-front.example",
                Site::in_region(Region::Singapore),
            ))
            .censor(profiles::ISP_B_ASN, profiles::isp_b())
            .build();
        let ctx = FetchCtx {
            now: SimTime::ZERO,
            provider,
        };
        let mut s = selector();
        let mut rng = DetRng::new(2);
        let url = Url::parse("http://www.youtube.com/").unwrap();
        let stages = [
            BlockingType::DnsHijack,
            BlockingType::HttpDrop,
            BlockingType::SniDrop,
        ];
        let BlockedFetch {
            report,
            transport: name,
            ..
        } = s.fetch_blocked(&w, &ctx, &url, &stages, &mut rng);
        assert!(report.outcome.is_genuine_page(), "{:?}", report.outcome);
        assert_eq!(name, "domain-fronting");
    }

    #[test]
    fn local_fix_beats_relays_in_plt() {
        let (w, ctx) = setup(profiles::isp_a(), profiles::ISP_A_ASN);
        let mut s = selector();
        let mut rng = DetRng::new(3);
        let url = Url::parse("http://www.youtube.com/").unwrap();
        let BlockedFetch { report: fix, .. } = s.fetch_blocked(
            &w,
            &ctx,
            &url,
            &[BlockingType::HttpBlockPageRedirect],
            &mut rng,
        );
        // Compare to Tor directly.
        let mut tor = csaw_circumvent::tor::TorClient::new();
        let t = tor.fetch(&w, &ctx, &url, &mut rng);
        assert!(
            fix.elapsed < t.elapsed,
            "fix {} vs tor {}",
            fix.elapsed,
            t.elapsed
        );
    }

    #[test]
    fn relay_ordering_follows_ewma() {
        let mut s = selector();
        // Teach the tracker that Tor is slow and Lantern fast for a key.
        let key = "http://x.com/";
        for _ in 0..5 {
            s.plt.observe("tor", key, SimDuration::from_secs(12));
            s.plt.observe("lantern", key, SimDuration::from_secs(3));
        }
        let order = s.candidate_order(key, &[BlockingType::IpDrop]);
        let names: Vec<String> = order
            .iter()
            .map(|i| s.transports[*i].name().to_string())
            .collect();
        let lantern_pos = names.iter().position(|n| n == "lantern").unwrap();
        let tor_pos = names.iter().position(|n| n == "tor").unwrap();
        assert!(lantern_pos < tor_pos, "{names:?}");
        // Fronting still first (local fix).
        assert_eq!(names[0], "domain-fronting");
    }

    #[test]
    fn anonymity_preference_restricts_to_tor() {
        let (w, ctx) = setup(profiles::isp_a(), profiles::ISP_A_ASN);
        let mut s = Selector::standard(Some("cdn-front.example"), 5, UserPreference::Anonymity);
        let mut rng = DetRng::new(4);
        let url = Url::parse("http://www.youtube.com/").unwrap();
        let BlockedFetch {
            report,
            transport: name,
            ..
        } = s.fetch_blocked(
            &w,
            &ctx,
            &url,
            &[BlockingType::HttpBlockPageRedirect],
            &mut rng,
        );
        assert_eq!(name, "tor", "only anonymous transports allowed");
        assert!(report.outcome.is_genuine_page());
    }

    #[test]
    fn anonymity_with_no_anonymous_transport_fails_cleanly() {
        // Regression: this used to panic on `last.expect(...)`.
        let (w, ctx) = setup(profiles::isp_a(), profiles::ISP_A_ASN);
        let mut s = Selector::new(
            vec![Box::new(csaw_circumvent::lantern::LanternClient::new())],
            5,
            UserPreference::Anonymity,
        );
        let mut rng = DetRng::new(99);
        let url = Url::parse("http://www.youtube.com/").unwrap();
        let BlockedFetch {
            report,
            transport: name,
            kind,
            ..
        } = s.fetch_blocked(
            &w,
            &ctx,
            &url,
            &[BlockingType::HttpBlockPageRedirect],
            &mut rng,
        );
        assert_eq!(name, "none");
        assert_eq!(kind, csaw_circumvent::TransportKind::Direct);
        assert_eq!(
            report.outcome.failure(),
            Some(csaw_circumvent::FailureKind::TransportUnavailable)
        );
    }

    #[test]
    fn exploration_kicks_in_every_nth_access() {
        let (w, ctx) = setup(profiles::isp_a(), profiles::ISP_A_ASN);
        let mut s = selector();
        let mut rng = DetRng::new(5);
        let url = Url::parse("http://www.youtube.com/").unwrap();
        let stages = [BlockingType::HttpBlockPageRedirect];
        let mut names = Vec::new();
        for _ in 0..25 {
            let BlockedFetch {
                transport: name, ..
            } = s.fetch_blocked(&w, &ctx, &url, &stages, &mut rng);
            names.push(name);
        }
        // The incumbent is "https"; exploration must have tried something
        // else at least once across the 5 scheduled exploration slots.
        let distinct: std::collections::HashSet<&String> = names.iter().collect();
        assert!(distinct.len() > 1, "exploration never deviated: {names:?}");
        // And the majority should still be the local fix.
        let https_count = names.iter().filter(|n| *n == "https").count();
        assert!(https_count >= 15, "{names:?}");
    }
}
