//! The client-fleet driver the harnesses share.
//!
//! `exp chaos` and `exp splitbrain` put the same population through the
//! same motions — register N [`CsawClient`]s one per virtual second,
//! browse the censored single-ISP [`world`] on one time-sorted schedule,
//! post what is pending, then check that no report vanished — and `exp
//! scale` drives a synthetic population through an open registrar from a
//! chunked thread fan-out. Those motions live here once, so the three
//! harnesses (and any later workload) queue byte-identical report
//! streams by construction rather than by parallel maintenance.
//!
//! Every step advances the scope clock (`csaw_obs::advance_clock_us`),
//! so windowed telemetry sees registration, browsing and delivery in the
//! order a wall-clock deployment would.

use csaw::client::CsawClient;
use csaw::config::CsawConfig;
use csaw::global::{GlobalApi, RegistrarConfig};
use csaw_censor::{profiles, Category};
use csaw_circumvent::world::{SiteSpec, World};
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::{AccessNetwork, Provider, Region, Site};
use csaw_webproto::url::Url;
use std::ops::Range;

/// The censored single-ISP world the fleet browses: YouTube behind
/// ISP-A's filter, frontable through `cdn-front.example`.
pub fn world() -> World {
    let provider = Provider::new(profiles::ISP_A_ASN, "isp");
    let access = AccessNetwork::single(provider);
    World::builder(access)
        .site(
            SiteSpec::new("www.youtube.com", Site::at_vantage_rtt(Region::UsEast, 186))
                .category(Category::Video)
                .frontable(true)
                .serves_by_ip(true)
                .default_page(360_000, 20),
        )
        .site(SiteSpec::new(
            "cdn-front.example",
            Site::in_region(Region::Singapore),
        ))
        .censor(profiles::ISP_A_ASN, profiles::isp_a())
        .build()
}

/// The `u`-th URL client `idx` browses: unique per (client, visit), so
/// every visit queues exactly one report and records never collide
/// across clients.
pub fn browse_url(idx: usize, u: usize) -> String {
    format!("http://www.youtube.com/c{idx}/u{u}")
}

/// A registrar that admits any population: no risk ceiling, no
/// per-`window` cap (the Encore probe population and `exp scale`'s
/// synthetic clients both exceed the default cap by orders of
/// magnitude).
pub fn open_registrar(window: SimDuration) -> RegistrarConfig {
    RegistrarConfig {
        max_risk: 1.0,
        max_per_window: usize::MAX,
        window,
    }
}

/// What a fleet's report queues add up to — the zero-silent-loss fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Accounting {
    /// Reports ever queued.
    pub queued: u64,
    /// Reports the server durably accepted.
    pub posted: u64,
    /// Reports evicted by the queue bound.
    pub dropped: u64,
    /// Reports quarantined (permanent rejects).
    pub quarantined: u64,
    /// Reports re-queued after partial acceptance.
    pub requeued: u64,
    /// Reports still pending.
    pub pending: u64,
    /// Failed post attempts (each armed a backoff).
    pub post_failures: u64,
    /// Did `queued == posted + dropped + quarantined + pending` hold on
    /// *every* client? (Sums can balance while two clients are off in
    /// opposite directions, so this is not derivable from the totals.)
    pub balanced: bool,
}

/// A population of registered clients.
pub struct Fleet {
    /// The clients, in registration order (client `idx` at index `idx`).
    pub clients: Vec<CsawClient>,
}

impl Fleet {
    /// Register `n` clients with `server` from ISP-A, one per virtual
    /// second from t = 0. Client `idx` fronts through `cdn-front.example`
    /// and is seeded `seed ^ ((idx + 1) << 8)`.
    pub fn register<G: GlobalApi + ?Sized>(
        server: &G,
        seed: u64,
        n: usize,
        cfg: CsawConfig,
    ) -> Fleet {
        let clients = (0..n)
            .map(|idx| {
                let mut c = CsawClient::new(
                    cfg,
                    Some("cdn-front.example"),
                    seed ^ ((idx as u64 + 1) << 8),
                );
                let t = SimTime::from_secs(idx as u64);
                csaw_obs::advance_clock_us(t.as_micros());
                c.register(server, profiles::ISP_A_ASN, t, 0.0)
                    .expect("registration");
                c
            })
            .collect();
        Fleet { clients }
    }

    /// Browse sessions, interleaved across clients in firing order:
    /// client `idx` starts at 100 + 7·idx seconds and visits its next
    /// [`browse_url`] every 30 s, processed globally time-sorted.
    /// `on_visit(now, url)` runs just before each request (arm a fault
    /// clock, note the expected key). Returns the time of the last visit.
    pub fn browse(
        &mut self,
        world: &World,
        urls_per_client: usize,
        mut on_visit: impl FnMut(SimTime, &str),
    ) -> SimTime {
        let mut visits: Vec<(u64, usize, usize)> = Vec::new();
        for idx in 0..self.clients.len() {
            for u in 0..urls_per_client {
                visits.push((100 + 7 * idx as u64 + 30 * u as u64, idx, u));
            }
        }
        visits.sort_unstable();
        let mut end = SimTime::ZERO;
        for (t_secs, idx, u) in visits {
            let now = SimTime::from_secs(t_secs);
            end = end.max(now);
            csaw_obs::advance_clock_us(now.as_micros());
            let raw = browse_url(idx, u);
            on_visit(now, &raw);
            let url = Url::parse(&raw).expect("static url");
            self.clients[idx].request(world, &url, now);
        }
        end
    }

    /// One post opportunity at `now` for every client with reports
    /// pending.
    pub fn post_pending<G: GlobalApi + ?Sized>(&mut self, server: &G, now: SimTime) {
        for c in self.clients.iter_mut().filter(|c| c.pending_reports() > 0) {
            c.post_reports(server, now);
        }
    }

    /// Fold every client's counters, checking the accounting identity
    /// client by client.
    pub fn accounting(&self) -> Accounting {
        let mut a = Accounting {
            balanced: true,
            ..Accounting::default()
        };
        for c in &self.clients {
            let (s, pending) = (&c.stats, c.pending_reports() as u64);
            a.queued += s.reports_queued;
            a.posted += s.reports_posted;
            a.dropped += s.reports_dropped;
            a.quarantined += s.reports_quarantined;
            a.requeued += s.reports_requeued;
            a.pending += pending;
            a.post_failures += s.post_failures;
            a.balanced &= c.reports_balanced();
        }
        a
    }
}

/// Split `0..n` into `threads` contiguous chunks, run `work` on one
/// scoped thread per chunk, and sum the per-thread counters
/// element-wise. Which thread got which chunk is invisible in the sum.
/// Each worker runs in the caller's observability scope.
pub fn fan_out<const N: usize>(
    n: usize,
    threads: usize,
    work: impl Fn(Range<usize>) -> [u64; N] + Sync,
) -> [u64; N] {
    let chunk = n.div_ceil(threads.max(1));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (work, ctx) = (&work, csaw_obs::current());
                s.spawn(move || {
                    let _scope = csaw_obs::install(ctx);
                    work((t * chunk).min(n)..((t + 1) * chunk).min(n))
                })
            })
            .collect();
        handles.into_iter().fold([0u64; N], |mut sum, h| {
            let part = h.join().expect("fan-out worker panicked");
            for (total, x) in sum.iter_mut().zip(part) {
                *total += x;
            }
            sum
        })
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use csaw::global::ServerDb;
    use csaw_obs::slo::{SloSet, VIOLATION_EVENT};
    use csaw_obs::{BufferSink, ManualClock, ObsCtx, WindowCfg, FRAME_EVENT};
    use std::sync::Arc;

    /// Run `sweep` under hour windows evaluating `slos` (the harnesses'
    /// `exp` configuration) and return the frame JSONL and the violation
    /// lines the sink saw.
    pub(crate) fn windowed_run(slos: SloSet, sweep: impl FnOnce()) -> (String, Vec<String>) {
        let buf = Arc::new(BufferSink::new());
        let ctx = Arc::new(
            ObsCtx::new()
                .with_clock(Arc::new(ManualClock::new()))
                .with_sink(buf.clone()),
        );
        ctx.timeline
            .configure(WindowCfg::from_secs(3_600.0, Arc::new(slos)));
        let _guard = csaw_obs::install(ctx.clone());
        sweep();
        ctx.flush_timeline();
        let mut frames = Vec::new();
        let mut viols = Vec::new();
        for e in buf.take() {
            let line = e.to_json().to_string_compact();
            if e.name == FRAME_EVENT {
                frames.push(line);
            } else if e.name == VIOLATION_EVENT {
                viols.push(line);
            }
        }
        (frames.join("\n"), viols)
    }

    fn delivered_fleet() -> Fleet {
        let server = ServerDb::builder(1).build().expect("store config");
        let mut fleet = Fleet::register(&server, 1, 3, CsawConfig::default());
        let end = fleet.browse(&world(), 2, |_, _| {});
        fleet.post_pending(&server, end + SimDuration::from_secs(60));
        fleet
    }

    #[test]
    fn a_delivered_fleet_balances() {
        let a = delivered_fleet().accounting();
        assert!(a.balanced, "{a:?}");
        assert_eq!((a.queued, a.posted, a.pending), (6, 6, 0), "{a:?}");
    }

    #[test]
    fn accounting_flags_a_client_whose_identity_is_broken() {
        // Two clients off by one in opposite directions: the fleet
        // totals still balance, the per-client identity does not.
        let mut fleet = delivered_fleet();
        fleet.clients[0].stats.reports_queued += 1;
        fleet.clients[1].stats.reports_posted += 1;
        let a = fleet.accounting();
        assert_eq!(
            a.queued,
            a.posted + a.dropped + a.quarantined + a.pending,
            "the totals alone hide it: {a:?}"
        );
        assert!(!a.balanced, "a lost report must be flagged: {a:?}");
    }

    #[test]
    fn browse_is_time_sorted_across_clients() {
        let server = ServerDb::builder(1).build().expect("store config");
        let mut fleet = Fleet::register(&server, 1, 3, CsawConfig::default());
        let mut seen = Vec::new();
        let end = fleet.browse(&world(), 2, |now, url| {
            seen.push((now.as_micros() / 1_000_000, url.to_string()));
        });
        assert_eq!(seen.len(), 6);
        assert!(seen.windows(2).all(|w| w[0].0 <= w[1].0), "{seen:?}");
        assert_eq!(seen[0], (100, browse_url(0, 0)));
        assert_eq!(end, SimTime::from_secs(100 + 7 * 2 + 30));
    }

    #[test]
    fn fan_out_covers_every_index_once_whatever_the_thread_count() {
        for threads in [1, 3, 8, 20] {
            let [count, sum] = fan_out(10, threads, |r| [r.len() as u64, r.sum::<usize>() as u64]);
            assert_eq!((count, sum), (10, 45), "threads={threads}");
        }
    }
}
