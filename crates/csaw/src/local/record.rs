//! Local database records — Table 3 of the paper.

use csaw_censor::blocking::BlockingType;
use csaw_simnet::time::SimTime;
use csaw_simnet::topology::Asn;
use csaw_webproto::url::Url;

/// Blocking status of a URL (Table 3's `Status` field). `NotMeasured` is
/// never stored — it is what a lookup reports when no (live) record
/// exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Measured and found blocked.
    Blocked,
    /// Measured and found reachable.
    NotBlocked,
    /// Never measured, or the record expired.
    NotMeasured,
}

/// One record of the local database (Table 3): the URL (the index), the
/// AS the measurement was made from, the measurement time `T_m`, the
/// status, the blocking mechanism observed at each stage (multi-stage
/// blocking keeps several).
#[derive(Debug, Clone, PartialEq)]
pub struct LocalRecord {
    /// The measured URL.
    pub url: Url,
    /// AS number at measurement time.
    pub asn: Asn,
    /// When the URL was last measured (`T_m`).
    pub measured_at: SimTime,
    /// Blocked or not (never `NotMeasured` inside a stored record).
    pub status: Status,
    /// Stage-1..k blocking mechanisms observed.
    pub stages: Vec<BlockingType>,
}

impl LocalRecord {
    /// A blocked-URL record.
    pub fn blocked(url: Url, asn: Asn, now: SimTime, stages: Vec<BlockingType>) -> LocalRecord {
        debug_assert!(!stages.is_empty(), "blocked records carry mechanisms");
        LocalRecord {
            url,
            asn,
            measured_at: now,
            status: Status::Blocked,
            stages,
        }
    }

    /// A reachable-URL record.
    pub fn not_blocked(url: Url, asn: Asn, now: SimTime) -> LocalRecord {
        LocalRecord {
            url,
            asn,
            measured_at: now,
            status: Status::NotBlocked,
            stages: Vec::new(),
        }
    }

    /// Is the record live at `now`, given the configured TTL?
    pub fn is_live(&self, now: SimTime, ttl: csaw_simnet::time::SimDuration) -> bool {
        now.duration_since(self.measured_at) < ttl
    }

    /// Does any recorded stage operate below HTTP (DNS/IP/TLS)? Those
    /// mechanisms key on the host, so the record aggregates to the base
    /// URL (§4.4 aggregation rule 2).
    pub fn has_host_level_stage(&self) -> bool {
        use csaw_censor::blocking::Stage;
        self.stages
            .iter()
            .any(|s| matches!(s.stage(), Stage::Dns | Stage::Ip | Stage::Tls))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_simnet::time::SimDuration;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn liveness_window() {
        let r = LocalRecord::not_blocked(url("http://a.com/"), Asn(1), SimTime::from_secs(100));
        let ttl = SimDuration::from_secs(50);
        assert!(r.is_live(SimTime::from_secs(100), ttl));
        assert!(r.is_live(SimTime::from_secs(149), ttl));
        assert!(!r.is_live(SimTime::from_secs(150), ttl));
    }

    #[test]
    fn host_level_stage_detection() {
        let r = LocalRecord::blocked(
            url("http://a.com/x"),
            Asn(1),
            SimTime::ZERO,
            vec![BlockingType::HttpBlockPageRedirect],
        );
        assert!(!r.has_host_level_stage());
        let r = LocalRecord::blocked(
            url("http://a.com/x"),
            Asn(1),
            SimTime::ZERO,
            vec![BlockingType::DnsHijack, BlockingType::HttpDrop],
        );
        assert!(r.has_host_level_stage());
    }
}
