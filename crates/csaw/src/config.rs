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

/// Local record lifetime; expiry flips status to not-measured (churn
/// Scenario A, §4.4).
pub const RECORD_TTL: SimDuration = SimDuration::from_secs(24 * 3600);

/// Every n-th access to a blocked URL uses a randomly chosen transport
/// instead of the incumbent (§4.3.2).
pub const EXPLORE_EVERY: u32 = 5;

/// Pending-report queue bound. When a fresh report would exceed it, the
/// *oldest* queued report is dropped (and counted in
/// `ClientStats::reports_dropped`) — bounded memory beats unbounded
/// growth when the upload path is down for days.
pub const REPORT_QUEUE_CAP: usize = 512;

/// Jitter fraction applied to each report backoff delay (±fraction,
/// drawn from the client's seeded RNG — deterministic per seed,
/// decorrelated across clients).
pub const REPORT_BACKOFF_JITTER: f64 = 0.1;

/// C-Saw client configuration: the choices §4.4 leaves to the user (p ≤
/// 0.25 revalidation, parallel redundancy, performance over anonymity by
/// default) and the client's timing.
///
/// Every field is public and set one way, with struct-update syntax
/// (`CsawConfig { revalidate_p: 0.0, ..Default::default() }`). Out-of-range
/// values are tamed where they are read, not here: the backoff ceiling
/// never sits below its base, and a `revalidate_p` outside `[0, 1]` reads
/// as never / always.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CsawConfig {
    /// Probability of re-measuring the direct path for a URL that the
    /// global DB reports blocked (§4.3.1 "Low overhead vs. resilience to
    /// false reports"; Table 6 sweeps this).
    pub revalidate_p: f64,
    /// Redundancy shape for unmeasured URLs.
    pub redundancy: RedundancyMode,
    /// Performance vs. anonymity.
    pub preference: UserPreference,
    /// How often the client pulls the per-AS blocked list from the
    /// global DB.
    pub sync_interval: SimDuration,
    /// How often the client pushes its pending reports.
    pub report_interval: SimDuration,
    /// First retry delay after a failed report post. Subsequent
    /// consecutive failures double it (deterministic exponential
    /// backoff) up to [`CsawConfig::report_backoff_max`].
    pub report_backoff_base: SimDuration,
    /// Backoff ceiling.
    pub report_backoff_max: SimDuration,
}

impl Default for CsawConfig {
    fn default() -> Self {
        CsawConfig {
            revalidate_p: 0.25,
            redundancy: RedundancyMode::Parallel,
            preference: UserPreference::Performance,
            sync_interval: SimDuration::from_secs(15 * 60),
            report_interval: SimDuration::from_secs(5 * 60),
            report_backoff_base: SimDuration::from_secs(30),
            report_backoff_max: SimDuration::from_secs(3_600),
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
        assert_eq!(EXPLORE_EVERY, 5);
        assert_eq!(c.redundancy, RedundancyMode::Parallel);
        assert_eq!(c.preference, UserPreference::Performance);
    }
}
