//! The single ingestion entry point's input and output types.
//!
//! [`Batch`] is what `ingest` takes: one client's reports and the time
//! they were posted. An in-process client hands its queue over as one;
//! a socket front-end builds one from the reports its frame decode
//! produced. [`IngestReceipt`] carries the accepted/rejected split so
//! callers (and the obs counters) see exactly what the store kept.

use crate::record::{Report, Uuid};
use csaw_simnet::time::SimTime;
use csaw_webproto::url::Url;

/// One client's report batch, ready for ingestion.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// The posting client.
    pub client: Uuid,
    /// Server receive time (`T_p` for every record in the batch).
    pub posted_at: SimTime,
    reports: Vec<Report>,
}

impl Batch {
    /// A batch from already-parsed reports.
    pub fn new(client: Uuid, reports: Vec<Report>, posted_at: SimTime) -> Batch {
        Batch {
            client,
            posted_at,
            reports,
        }
    }

    /// The carried reports.
    pub fn reports(&self) -> &[Report] {
        &self.reports
    }

    /// Take the carried reports out of the batch.
    pub fn into_reports(self) -> Vec<Report> {
        self.reports
    }

    /// Number of reports in the batch.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Is a report storable? The URL must parse and at least one
    /// blocking stage must be present; garbage is counted as rejected,
    /// not stored. The URL is checked, not built.
    pub(crate) fn storable(r: &Report) -> bool {
        !r.stages.is_empty() && Url::check(&r.url).is_ok()
    }
}

/// What the store did with a batch.
///
/// Beyond the accepted/rejected counts, the receipt names the exact
/// batch positions that did *not* make it in, split by whether a retry
/// can help. Clients use this to reconcile their queues: permanently
/// rejected reports must never be resubmitted verbatim (they will
/// reject forever), while deferred reports are exactly the ones to
/// re-queue.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IngestReceipt {
    /// Reports stored (URL parsed, stages present).
    pub accepted: usize,
    /// Reports dropped by sanitization.
    pub rejected: usize,
    /// Batch indices of the sanitization-rejected reports. Resubmitting
    /// these will reject them again.
    pub rejected_indices: Vec<usize>,
    /// Batch indices the store did not get to (torn write, backend
    /// outage mid-batch). These were neither stored nor judged:
    /// resubmitting them is correct and expected.
    pub deferred_indices: Vec<usize>,
}

impl IngestReceipt {
    /// How many reports were deferred (not attempted).
    pub fn deferred(&self) -> usize {
        self.deferred_indices.len()
    }

    /// True when every report in the batch was stored.
    pub fn is_complete(&self) -> bool {
        self.rejected == 0 && self.deferred_indices.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_censor::blocking::BlockingType;

    #[test]
    fn storable_requires_url_and_stages() {
        let ok = Report {
            url: "http://x.example/".into(),
            asn: 1,
            measured_at_us: 0,
            stages: vec![BlockingType::HttpDrop],
        };
        let bad_url = Report {
            url: "not a url".into(),
            ..ok.clone()
        };
        let no_stages = Report {
            stages: vec![],
            ..ok.clone()
        };
        assert!(Batch::storable(&ok));
        assert!(!Batch::storable(&bad_url));
        assert!(!Batch::storable(&no_stages));
    }
}
