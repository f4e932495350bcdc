//! Client configuration (§4.4 "Modular design with user customization").

use csaw_simnet::time::SimDuration;

/// What the user optimizes for. If a user prefers performance, the proxy
/// always picks local fixes when available; if anonymity, only
/// anonymity-providing transports (e.g. Tor) are ever used (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UserPreference {
    /// Smallest PLT wins; anonymity not required.
    Performance,
    /// Only anonymous transports may carry user traffic.
    Anonymity,
}

/// How redundant requests are issued for unmeasured URLs (§7.1 evaluates
/// all three shapes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedundancyMode {
    /// Direct first; only after blocking is detected, go to circumvention
    /// (the paper's "serial" baseline).
    Serial,
    /// Both copies at once; first usable response wins ("parallel").
    Parallel,
    /// Direct at once; the redundant copy only if no direct response
    /// within the delay ("2 copies (with delay)").
    Staggered(SimDuration),
}

/// C-Saw client configuration. Defaults follow the paper's
/// recommendations (p ≤ 0.25, n = 5 exploration, parallel redundancy).
///
/// Every field is public and set one way, with struct-update syntax
/// (`CsawConfig { revalidate_p: 0.0, ..Default::default() }`). Out-of-range
/// values are tamed where they are read, not here: a queue cap of 0 acts
/// as 1, the backoff ceiling never sits below its base, the jitter
/// fraction is clamped to `[0, 1]`, and a `revalidate_p` outside `[0, 1]`
/// reads as never / always.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CsawConfig {
    /// Probability of re-measuring the direct path for a URL that the
    /// global DB reports blocked (§4.3.1 "Low overhead vs. resilience to
    /// false reports"; Table 6 sweeps this).
    pub revalidate_p: f64,
    /// Local record lifetime; expiry flips status to not-measured
    /// (churn Scenario A, §4.4).
    pub record_ttl: SimDuration,
    /// Every n-th access to a blocked URL uses a randomly chosen
    /// transport instead of the incumbent (§4.3.2).
    pub explore_every: u32,
    /// Redundancy shape for unmeasured URLs.
    pub redundancy: RedundancyMode,
    /// Performance vs. anonymity.
    pub preference: UserPreference,
    /// How often the client pulls the per-AS blocked list from the
    /// global DB.
    pub sync_interval: SimDuration,
    /// How often the client pushes its pending reports.
    pub report_interval: SimDuration,
    /// Pending-report queue bound. When a fresh report would exceed it,
    /// the *oldest* queued report is dropped (and counted in
    /// `ClientStats::reports_dropped`) — bounded memory beats unbounded
    /// growth when the upload path is down for days.
    pub report_queue_cap: usize,
    /// First retry delay after a failed report post. Subsequent
    /// consecutive failures double it (deterministic exponential
    /// backoff) up to [`CsawConfig::report_backoff_max`].
    pub report_backoff_base: SimDuration,
    /// Backoff ceiling.
    pub report_backoff_max: SimDuration,
    /// Jitter fraction applied to each backoff delay (±fraction,
    /// drawn from the client's seeded RNG — deterministic per seed,
    /// decorrelated across clients).
    pub report_backoff_jitter: f64,
}

impl Default for CsawConfig {
    fn default() -> Self {
        CsawConfig {
            revalidate_p: 0.25,
            record_ttl: SimDuration::from_secs(24 * 3600),
            explore_every: 5,
            redundancy: RedundancyMode::Parallel,
            preference: UserPreference::Performance,
            sync_interval: SimDuration::from_secs(15 * 60),
            report_interval: SimDuration::from_secs(5 * 60),
            report_queue_cap: 512,
            report_backoff_base: SimDuration::from_secs(30),
            report_backoff_max: SimDuration::from_secs(3_600),
            report_backoff_jitter: 0.1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_recommendations() {
        let c = CsawConfig::default();
        assert!(c.revalidate_p <= 0.25);
        assert_eq!(c.explore_every, 5);
        assert_eq!(c.redundancy, RedundancyMode::Parallel);
        assert_eq!(c.preference, UserPreference::Performance);
    }
}
