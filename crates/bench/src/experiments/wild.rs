//! §7.5 "C-Saw in the Wild": the November 2017 blocking event.
//!
//! During protests, Twitter and Instagram were blocked between Nov 25–28
//! 2017; the paper's snapshot shows *different ASes blocking the same
//! service differently*. We replay the event: clients in five ASes browse
//! both services; at the event time each AS's censor switches on per the
//! paper's matrix; C-Saw's in-line detection catches the change and the
//! experiment logs the first detection per (AS, service) with its
//! failure signature.

use crate::experiments::Outcome;
use crate::runner::{self, TrialSpec};
use csaw::client::CsawClient;
use csaw::config::{CsawConfig, RedundancyMode};
use csaw::local::Status;
use csaw_censor::blocking::{BlockingType, Stage};
use csaw_censor::profiles::{event_blocking_2017, event_matrix_2017};
use csaw_circumvent::world::{SiteSpec, World};
use csaw_simnet::time::SimTime;
use csaw_simnet::topology::{AccessNetwork, Asn, Provider, Region, Site};
use csaw_webproto::url::Url;

/// One detection event in the log.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Which AS observed it.
    pub asn: u32,
    /// The blocked service domain.
    pub service: String,
    /// Virtual detection time (seconds since scenario start).
    pub at_s: u64,
    /// Observed mechanisms.
    pub stages: Vec<BlockingType>,
    /// Paper-style response label.
    pub response: String,
}

/// The experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct Wild {
    /// When the censors switched on (s).
    pub event_at_s: u64,
    /// First detection per (AS, service).
    pub detections: Vec<Detection>,
}

fn response_label(stages: &[BlockingType]) -> String {
    if stages.iter().any(|s| {
        matches!(
            s,
            BlockingType::HttpBlockPageInline | BlockingType::HttpBlockPageRedirect
        )
    }) {
        "HTTP_GET_BLOCKPAGE".into()
    } else if stages.contains(&BlockingType::HttpDrop) {
        "HTTP_GET_TIMEOUT".into()
    } else if stages.iter().any(|s| s.stage() == Stage::Dns) {
        "DNS blocking".into()
    } else {
        format!("{stages:?}")
    }
}

fn service_world(asn: Asn) -> World {
    let provider = Provider::new(asn, format!("wild-{asn}"));
    World::builder(AccessNetwork::single(provider))
        .site(
            SiteSpec::new("twitter.com", Site::in_region(Region::UsEast))
                .category(csaw_censor::Category::Social)
                .default_page(250_000, 16),
        )
        .site(
            SiteSpec::new("instagram.com", Site::in_region(Region::UsEast))
                .category(csaw_censor::Category::Social)
                .default_page(300_000, 18),
        )
        .build()
}

/// When the censors switch on (s): one hour in.
const EVENT_AT_S: u64 = 3_600;

/// The event's ASes, sorted and deduplicated.
fn event_ases() -> Vec<Asn> {
    let mut v: Vec<Asn> = event_matrix_2017().iter().map(|(a, _, _)| *a).collect();
    v.sort_by_key(|a| a.0);
    v.dedup();
    v
}

/// Replay the event. Clients poll both services every `poll_s` seconds;
/// the censors switch on at `event_at_s`.
///
/// One runner trial per AS (each AS's client and censor are fully
/// independent), with the historical `seed ^ asn` client seeds. The
/// detections are re-sorted by (time, AS), so the merged log matches the
/// serial one exactly.
pub fn run(seed: u64) -> Wild {
    let ases = event_ases();
    let specs: Vec<TrialSpec> = ases
        .iter()
        .map(|asn| TrialSpec::salted(seed ^ asn.0 as u64))
        .collect();
    let per_as = runner::map(&specs, |i, spec| {
        let asn = ases[i];
        let poll_s: u64 = 600; // users check their feeds every 10 min
        let horizon_s: u64 = 3 * 3_600;
        let services = ["twitter.com", "instagram.com"];
        let mut detections = Vec::new();
        let mut world = service_world(asn);
        let cfg = CsawConfig {
            redundancy: RedundancyMode::Serial,
            ..CsawConfig::default()
        };
        let mut client = CsawClient::new(cfg, None, spec.seed);
        let mut installed = false;
        let mut found: Vec<&str> = Vec::new();
        let mut t = 0u64;
        while t <= horizon_s {
            if !installed && t >= EVENT_AT_S {
                world.install_censor(asn, event_blocking_2017(asn, csaw_censor::clean()));
                installed = true;
            }
            for service in services {
                if found.contains(&service) {
                    continue;
                }
                let url = Url::parse(&format!("http://{service}/")).expect("static URL");
                let now = SimTime::from_secs(t);
                let r = client.request(&world, &url, now);
                if r.status_after == Status::Blocked {
                    let stages = client
                        .local_db
                        .lookup(&url, now)
                        .record
                        .map(|rec| rec.stages.clone())
                        .unwrap_or_default();
                    detections.push(Detection {
                        asn: asn.0,
                        service: service.to_string(),
                        at_s: t,
                        response: response_label(&stages),
                        stages,
                    });
                    found.push(service);
                }
            }
            t += poll_s;
        }
        detections
    });
    let mut detections: Vec<Detection> = per_as.into_iter().flatten().collect();
    detections.sort_by_key(|d| (d.at_s, d.asn));
    Wild {
        event_at_s: EVENT_AT_S,
        detections,
    }
}

impl Wild {
    /// The detection for one (AS, service), if any.
    pub fn detection(&self, asn: u32, service: &str) -> Option<&Detection> {
        self.detections
            .iter()
            .find(|d| d.asn == asn && d.service == service)
    }
}

impl Outcome for Wild {
    /// Paper-style snapshot rendering.
    fn render(&self) -> String {
        let mut out = format!(
            "C-Saw in the wild: blocking event at t={}s; measurements collected:\n",
            self.event_at_s
        );
        for d in &self.detections {
            out.push_str(&format!(
                "  * {} was found blocked at t={}s from AS {} (Response: {})\n",
                d.service, d.at_s, d.asn, d.response
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_matrix_recovered_per_as() {
        let w = run(99);
        // Twitter: HTTP GET timeout on AS 38193, block page on AS 17557.
        let d = w.detection(38193, "twitter.com").expect("detected");
        assert_eq!(d.response, "HTTP_GET_TIMEOUT");
        let d = w.detection(17557, "twitter.com").expect("detected");
        assert_eq!(d.response, "HTTP_GET_BLOCKPAGE");
        // Instagram: DNS blocking on AS 38193, 59257, 45773.
        for asn in [38193, 59257, 45773] {
            let d = w.detection(asn, "instagram.com").expect("detected");
            assert_eq!(d.response, "DNS blocking", "AS{asn}: {:?}", d.stages);
        }
        // Nobody detects blocking before the event.
        for d in &w.detections {
            assert!(d.at_s >= w.event_at_s, "{d:?}");
        }
        // And detection is prompt: within two poll rounds of the event.
        for d in &w.detections {
            assert!(d.at_s <= w.event_at_s + 1_800, "{d:?}");
        }
    }

    #[test]
    fn no_cross_service_false_positives() {
        let w = run(100);
        // AS 17557 blocks only Twitter; Instagram must stay clean there.
        assert!(w.detection(17557, "instagram.com").is_none());
        // AS 59257 and 45773 block only Instagram.
        assert!(w.detection(59257, "twitter.com").is_none());
        assert!(w.detection(45773, "twitter.com").is_none());
    }

    #[test]
    fn render_matches_paper_phrasing() {
        let w = run(101);
        let s = w.render();
        assert!(s.contains("was found blocked at"));
        assert!(s.contains("Response:"));
    }
}
