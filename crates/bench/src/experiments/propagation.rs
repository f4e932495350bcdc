//! Crowd propagation: how fast one user's discovery becomes everyone's
//! speedup.
//!
//! The paper's incentive loop (§1, §3) is a dynamics claim: "As more
//! users crowdsource, the measurement data gets richer … leading to even
//! better circumvention capabilities." This experiment quantifies the
//! loop's latency. A population of clients browses a censored URL; at
//! first everyone pays the measurement cost themselves, but as reports
//! reach the global DB and periodic syncs distribute the per-AS blocked
//! list, late-coming clients jump straight to the right local fix. We
//! track the population's first-visit PLT as a function of *when* the
//! client first visits.

use crate::experiments::Outcome;
use crate::stats::Summary;
use crate::worlds::{single_isp_world, FRONT, YOUTUBE};
use csaw::client::CsawClient;
use csaw::config::CsawConfig;
use csaw::global::ServerDb;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_webproto::url::Url;

/// One cohort's first-visit experience.
#[derive(Debug, Clone, PartialEq)]
pub struct Cohort {
    /// When the cohort's clients make their first visit (s after start).
    pub first_visit_s: u64,
    /// How many of them had the URL in their synced global view already.
    pub pre_warned: usize,
    /// Cohort size.
    pub size: usize,
    /// First-visit PLT summary.
    pub plt: Summary,
    /// How many needed a fresh redundant-measurement round.
    pub measured: usize,
}

/// The experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct Propagation {
    /// Cohorts in arrival order.
    pub cohorts: Vec<Cohort>,
}

/// Run the dynamics: cohorts of 12 clients arrive at t = 0 s, 120 s,
/// 600 s, 1800 s and 3600 s. All clients (from every cohort) tick on a
/// 5-minute cadence: reports flow up, blocked lists flow down.
pub fn run(seed: u64) -> Propagation {
    let world = single_isp_world(csaw_censor::ISP_B_ASN, "ISP-B", csaw_censor::isp_b());
    let url = Url::parse(&format!("http://{YOUTUBE}/")).expect("static URL");
    let server = ServerDb::builder(seed)
        .build()
        .expect("default store config is valid");
    let arrivals: [u64; 5] = [0, 120, 600, 1_800, 3_600];
    let cohort_size = 12usize;
    let tick_every = 300u64;
    let horizon = 5_400u64;

    // Clients are constructed up front but only *register* (install
    // C-Saw, which syncs the per-AS blocked list) when their cohort
    // arrives — a user who installs later installs into a richer
    // global DB; that is the whole dynamic under test.
    let mut clients: Vec<(u64, CsawClient, bool, Option<SimDuration>, bool)> = Vec::new();
    for (k, at) in arrivals.iter().enumerate() {
        for j in 0..cohort_size {
            let c = CsawClient::new(
                CsawConfig {
                    sync_interval: SimDuration::from_secs(tick_every),
                    report_interval: SimDuration::from_secs(tick_every),
                    ..CsawConfig::default()
                },
                Some(FRONT),
                seed ^ ((k as u64) << 8) ^ (j as u64),
            );
            clients.push((*at, c, false, None, false));
        }
    }

    let mut t = 0u64;
    while t <= horizon {
        let now = SimTime::from_secs(t);
        for (arrive_at, client, visited, plt, measured) in clients.iter_mut() {
            if !*visited && t >= *arrive_at {
                client
                    .register(&server, csaw_censor::ISP_B_ASN, now, 0.05)
                    .expect("registration passes");
                let r = client.request(&world, &url, now);
                *visited = true;
                *plt = r.plt;
                // Did the crowd spare this client the measurement round?
                *measured = r.measured;
            }
        }
        // Background workflow for everyone already arrived.
        for (arrive_at, client, ..) in clients.iter_mut() {
            if t >= *arrive_at && t.is_multiple_of(tick_every) {
                client.tick(&world, &server, now);
            }
        }
        t += 60;
    }

    let mut cohorts = Vec::new();
    for at in arrivals {
        let members: Vec<&(u64, CsawClient, bool, Option<SimDuration>, bool)> =
            clients.iter().filter(|(a, ..)| *a == at).collect();
        let plts: Vec<SimDuration> = members.iter().filter_map(|(_, _, _, p, _)| *p).collect();
        let measured = members.iter().filter(|(.., m)| *m).count();
        let pre_warned = members
            .iter()
            .filter(|(_, c, ..)| c.global_lookup(&url).is_some())
            .count();
        cohorts.push(Cohort {
            first_visit_s: at,
            pre_warned,
            size: members.len(),
            plt: Summary::of(&plts),
            measured,
        });
    }
    Propagation { cohorts }
}

impl Outcome for Propagation {
    fn render(&self) -> String {
        let mut out =
            String::from("Crowd propagation: first-visit cost vs arrival time (ISP-B, YouTube)\n");
        out.push_str(&format!(
            "  {:>12}{:>8}{:>12}{:>14}{:>14}\n",
            "arrival(s)", "size", "measured", "mean PLT(s)", "median PLT(s)"
        ));
        for c in &self.cohorts {
            out.push_str(&format!(
                "  {:>12}{:>8}{:>12}{:>14.2}{:>14.2}\n",
                c.first_visit_s, c.size, c.measured, c.plt.mean_s, c.plt.median_s
            ));
        }
        out.push_str(
            "  The incentive loop in numbers: cohorts after the pioneers skip the\n  measurement round; knowledge refines in waves (an early cohort may pay\n  once to discover a stage the pioneers' reports missed, then re-report).\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn late_cohorts_skip_measurement_and_load_faster() {
        let p = run(7);
        assert_eq!(p.cohorts.len(), 5);
        let first = &p.cohorts[0];
        let last = p.cohorts.last().unwrap();
        // The pioneers all measure; the late cohort rides the crowd.
        assert!(first.measured >= first.size - 1, "{first:?}");
        assert!(
            last.measured <= last.size / 4,
            "late cohort still measuring: {last:?}"
        );
        // And their first visit is substantially faster.
        assert!(
            last.plt.median_s < first.plt.median_s * 0.6,
            "late median {:.2}s vs pioneer median {:.2}s",
            last.plt.median_s,
            first.plt.median_s
        );
    }

    #[test]
    fn measurement_need_is_monotone_down_the_cohorts() {
        let p = run(8);
        // Allow small wobble but the trend must be non-increasing from
        // the first to the last cohort.
        let first = p.cohorts.first().unwrap().measured;
        let last = p.cohorts.last().unwrap().measured;
        assert!(last < first, "no propagation benefit: {p:?}");
    }
}
