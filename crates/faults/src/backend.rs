//! A fault-injecting [`StorageBackend`] decorator.
//!
//! [`FaultyBackend`] wraps any backend and, driven by a seeded
//! [`DetRng`] plus optional [`OutageSchedule`]s, injects the three
//! failure shapes the upload pipeline must survive:
//!
//! - **write failures** — the whole batch bounces with
//!   [`StoreError::Unavailable`]; nothing is stored;
//! - **torn writes** — only a prefix of the batch reaches the inner
//!   backend; the rest comes back in the receipt's `deferred_indices`
//!   (stored *nowhere*, so a client that does not resubmit them has
//!   lost data);
//! - **download failures** — `blocked_for_as` errors inside scheduled
//!   download outages, modelling a blocked or overloaded snapshot
//!   endpoint.
//!
//! Ingest-side decisions use the batch's own `posted_at` as "now";
//! download-side decisions use the virtual clock advanced through
//! [`FaultyBackend::set_now`]. Both are pure functions of (seed,
//! virtual time, call order), so chaos runs are bit-reproducible.

use crate::windows::OutageSchedule;
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::SimDuration;
use csaw_simnet::time::SimTime;
use csaw_simnet::topology::Asn;
use csaw_store::{
    Batch, ConfidenceFilter, Decorator, GlobalRecord, IngestReceipt, StorageBackend, StoreError,
};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Which faults to arm, and how hard. Set with struct-update syntax
/// (`FaultProfile { write_fail_p: 0.3, ..FaultProfile::none() }`); a
/// probability at or below 0 never fires, one at or above 1 always does.
#[derive(Debug, Clone, Default)]
pub struct FaultProfile {
    /// Per-batch probability of a whole-batch write failure.
    pub write_fail_p: f64,
    /// Per-batch probability (among surviving batches of ≥ 2 reports)
    /// of a torn write: a random proper prefix lands, the suffix is
    /// deferred.
    pub torn_write_p: f64,
    /// Scheduled ingest unavailability windows (checked against the
    /// batch's `posted_at`).
    pub ingest_outages: Option<OutageSchedule>,
    /// Scheduled download unavailability windows (checked against the
    /// clock set via [`FaultyBackend::set_now`]).
    pub download_outages: Option<OutageSchedule>,
}

impl FaultProfile {
    /// A profile that injects nothing (the identity decorator).
    pub fn none() -> FaultProfile {
        FaultProfile::default()
    }
}

/// Injected-fault counters, read via [`FaultyBackend::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSnapshot {
    /// Whole-batch write failures injected.
    pub write_failures: u64,
    /// Batches torn (prefix stored, suffix deferred).
    pub torn_batches: u64,
    /// Reports deferred by torn writes.
    pub deferred_reports: u64,
    /// Download failures injected.
    pub download_failures: u64,
}

/// The fault-injecting decorator. Internally synchronized like every
/// backend: one `FaultyBackend` is shared across ingestion threads, and
/// its RNG draws are serialized so a given (seed, call order) always
/// produces the same fault sequence.
pub struct FaultyBackend {
    inner: Arc<dyn StorageBackend>,
    profile: FaultProfile,
    rng: Mutex<DetRng>,
    now_us: AtomicU64,
    write_failures: AtomicU64,
    torn_batches: AtomicU64,
    deferred_reports: AtomicU64,
    download_failures: AtomicU64,
}

impl fmt::Debug for FaultyBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyBackend")
            .field("profile", &self.profile)
            .field("inner", &self.inner)
            .finish_non_exhaustive()
    }
}

impl FaultyBackend {
    /// Wrap `inner`, deciding faults with a generator forked from
    /// `seed` (label `"faulty-backend"`, so arming faults never
    /// perturbs any other consumer of the same seed).
    pub fn new(inner: Arc<dyn StorageBackend>, profile: FaultProfile, seed: u64) -> FaultyBackend {
        FaultyBackend {
            inner,
            profile,
            rng: Mutex::new(DetRng::new(seed).fork("faulty-backend")),
            now_us: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
            torn_batches: AtomicU64::new(0),
            deferred_reports: AtomicU64::new(0),
            download_failures: AtomicU64::new(0),
        }
    }

    /// Advance the virtual clock used for download-outage decisions
    /// (monotone; earlier values are ignored).
    pub fn set_now(&self, now: SimTime) {
        self.now_us.fetch_max(now.as_micros(), Ordering::Relaxed);
    }

    /// Current injected-fault counts.
    pub fn snapshot(&self) -> FaultSnapshot {
        FaultSnapshot {
            write_failures: self.write_failures.load(Ordering::Relaxed),
            torn_batches: self.torn_batches.load(Ordering::Relaxed),
            deferred_reports: self.deferred_reports.load(Ordering::Relaxed),
            download_failures: self.download_failures.load(Ordering::Relaxed),
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.now_us.load(Ordering::Relaxed))
    }
}

impl Decorator for FaultyBackend {
    fn inner(&self) -> &dyn StorageBackend {
        self.inner.as_ref()
    }

    fn on_ingest(&self, batch: &Batch) -> Result<IngestReceipt, StoreError> {
        self.set_now(batch.posted_at);
        let in_outage = self
            .profile
            .ingest_outages
            .as_ref()
            .is_some_and(|s| s.is_down(batch.posted_at));
        let (fail, tear_at) = {
            let mut rng = self.rng.lock().unwrap();
            let fail = in_outage || rng.chance(self.profile.write_fail_p);
            // Draw the tear decision even for failing batches so the
            // fault stream consumed per batch is constant-length: the
            // sequence of decisions depends only on how many batches
            // arrived, not on earlier outcomes.
            let torn = rng.chance(self.profile.torn_write_p);
            let cut = if batch.len() >= 2 {
                rng.range_u64(1, batch.len() as u64) as usize
            } else {
                batch.len()
            };
            (fail, (torn && batch.len() >= 2).then_some(cut))
        };
        if fail {
            self.write_failures.fetch_add(1, Ordering::Relaxed);
            csaw_obs::event!("fault.ingest.unavailable", batch = batch.len() as u64);
            return Err(StoreError::Unavailable("injected ingest fault"));
        }
        if let Some(cut) = tear_at {
            let prefix = Batch::new(
                batch.client,
                batch.reports()[..cut].to_vec(),
                batch.posted_at,
            );
            let mut receipt = self.inner.ingest(&prefix)?;
            receipt.deferred_indices.extend(cut..batch.len());
            self.torn_batches.fetch_add(1, Ordering::Relaxed);
            self.deferred_reports
                .fetch_add((batch.len() - cut) as u64, Ordering::Relaxed);
            csaw_obs::event!(
                "fault.ingest.torn",
                stored = cut as u64,
                deferred = (batch.len() - cut) as u64
            );
            return Ok(receipt);
        }
        self.inner.ingest(batch)
    }

    fn on_blocked_for_as(
        &self,
        asn: Asn,
        filter: &ConfidenceFilter,
    ) -> Result<Vec<GlobalRecord>, StoreError> {
        let in_outage = self
            .profile
            .download_outages
            .as_ref()
            .is_some_and(|s| s.is_down(self.now()));
        if in_outage {
            self.download_failures.fetch_add(1, Ordering::Relaxed);
            csaw_obs::event!("fault.download.unavailable", asn = asn.0 as u64);
            return Err(StoreError::Unavailable("injected download fault"));
        }
        self.inner.blocked_for_as(asn, filter)
    }

    fn on_expire_records(&self, now: SimTime, max_age: SimDuration) -> usize {
        self.set_now(now);
        self.inner.expire_records(now, max_age)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_censor::blocking::BlockingType;
    use csaw_store::{Report, ShardedStore, Uuid};

    fn batch(client: u64, urls: &[&str], t: u64) -> Batch {
        Batch::new(
            Uuid::from_raw(client),
            urls.iter()
                .map(|u| Report {
                    url: (*u).into(),
                    asn: 1,
                    measured_at_us: t,
                    stages: vec![BlockingType::HttpDrop],
                })
                .collect(),
            SimTime::from_micros(t),
        )
    }

    fn faulty(profile: FaultProfile, seed: u64) -> FaultyBackend {
        FaultyBackend::new(Arc::new(ShardedStore::new(4).unwrap()), profile, seed)
    }

    #[test]
    fn no_faults_is_transparent() {
        let b = faulty(FaultProfile::none(), 1);
        let r = b
            .ingest(&batch(1, &["http://a.com/", "http://b.com/"], 5))
            .unwrap();
        assert_eq!((r.accepted, r.rejected, r.deferred()), (2, 0, 0));
        assert_eq!(b.snapshot(), FaultSnapshot::default());
        assert_eq!(
            b.blocked_for_as(Asn(1), &ConfidenceFilter::default())
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn write_failures_store_nothing_and_are_counted() {
        let b = faulty(
            FaultProfile {
                write_fail_p: 1.0,
                ..FaultProfile::none()
            },
            2,
        );
        let err = b.ingest(&batch(1, &["http://a.com/"], 5)).unwrap_err();
        assert_eq!(err, StoreError::Unavailable("injected ingest fault"));
        assert_eq!(b.record_count(), 0);
        assert_eq!(b.snapshot().write_failures, 1);
    }

    #[test]
    fn torn_writes_defer_a_suffix_exactly() {
        let b = faulty(
            FaultProfile {
                torn_write_p: 1.0,
                ..FaultProfile::none()
            },
            3,
        );
        let urls = ["http://a.com/", "http://b.com/", "http://c.com/"];
        let r = b.ingest(&batch(1, &urls, 5)).unwrap();
        let cut = r.accepted;
        assert!(cut >= 1 && cut < urls.len(), "proper prefix, got {cut}");
        assert_eq!(
            r.deferred_indices,
            (cut..urls.len()).collect::<Vec<_>>(),
            "deferred = the untouched suffix"
        );
        assert_eq!(b.record_count(), cut, "only the prefix landed");
        assert_eq!(b.snapshot().deferred_reports, (urls.len() - cut) as u64);
    }

    #[test]
    fn download_outage_window_fails_reads_then_recovers() {
        let sched =
            OutageSchedule::from_windows(vec![(SimTime::from_secs(10), SimTime::from_secs(20))]);
        let profile = FaultProfile {
            download_outages: Some(sched),
            ..FaultProfile::none()
        };
        let b = faulty(profile, 4);
        b.ingest(&batch(1, &["http://a.com/"], 1_000_000)).unwrap();
        b.set_now(SimTime::from_secs(15));
        assert_eq!(
            b.blocked_for_as(Asn(1), &ConfidenceFilter::default()),
            Err(StoreError::Unavailable("injected download fault"))
        );
        // Past the window the same call serves again.
        b.set_now(SimTime::from_secs(30));
        assert_eq!(
            b.blocked_for_as(Asn(1), &ConfidenceFilter::default())
                .unwrap()
                .len(),
            1
        );
        assert_eq!(b.snapshot().download_failures, 1);
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let run = || {
            let b = faulty(
                FaultProfile {
                    write_fail_p: 0.3,
                    torn_write_p: 0.3,
                    ..FaultProfile::none()
                },
                42,
            );
            let mut outcomes = Vec::new();
            for i in 0..50u64 {
                let r = b.ingest(&batch(i, &["http://a.com/", "http://b.com/"], i));
                outcomes.push(match r {
                    Ok(rec) => (rec.accepted, rec.deferred_indices.len()),
                    Err(_) => (usize::MAX, 0),
                });
            }
            (outcomes, b.snapshot())
        };
        assert_eq!(run(), run());
    }
}
