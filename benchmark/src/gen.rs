//! Seeded input generators. Every input the benchmark feeds the system
//! is a pure function of `--seed` (and an index), so two runs with one
//! seed post byte-identical batches and must count identical results.

use csaw::global::{Batch, Report, Uuid};
use csaw_censor::blocking::BlockingType;
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::SimTime;

/// Reports in a full client's batch (the paper's clients post small
/// batches; an Encore probe posts one).
pub const REPORTS_PER_BATCH: usize = 4;
/// Every n-th client carries one garbage URL, so the sanitizer's reject
/// path stays on the hot loop.
pub const GARBAGE_EVERY: usize = 16;
/// Size of the URL pool the population reports from.
pub const URLS: usize = 10_000;
/// Distinct ASes the population reports from.
pub const ASNS: u32 = 64;

/// The URL with index `i` in the pool.
pub fn pool_url(i: usize) -> String {
    format!("http://blocked{i}.example.net/")
}

/// The reports client `idx` posts: `exp_scale`'s `batch_for` shape, a
/// pure function of `(seed, idx)`.
pub fn reports_for(seed: u64, idx: usize) -> Vec<Report> {
    const STAGES: [BlockingType; 4] = [
        BlockingType::DnsNxdomain,
        BlockingType::IpDrop,
        BlockingType::HttpDrop,
        BlockingType::HttpBlockPageRedirect,
    ];
    let mut rng = DetRng::new(seed ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let asn = rng.range_u64(0, ASNS as u64) as u32;
    (0..REPORTS_PER_BATCH)
        .map(|r| {
            let url = if idx.is_multiple_of(GARBAGE_EVERY) && r == 0 {
                // Fails `Url::parse` in the store's sanitizer.
                "not a url at all".to_string()
            } else {
                pool_url(rng.index(URLS))
            };
            Report {
                url,
                asn,
                measured_at_us: (idx as u64) * 1_000 + r as u64,
                stages: vec![STAGES[rng.index(STAGES.len())]],
            }
        })
        .collect()
}

/// Client `idx`'s batch under the identity the server gave it.
pub fn batch_for(seed: u64, idx: usize, uuid: Uuid) -> Batch {
    Batch::new(
        uuid,
        reports_for(seed, idx),
        SimTime::from_secs(1_000 + idx as u64),
    )
}

/// How many of clients `lo..hi` carry a garbage report.
pub fn garbage_clients(lo: usize, hi: usize) -> usize {
    (lo..hi).filter(|i| i.is_multiple_of(GARBAGE_EVERY)).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_repeat_exactly_for_a_seed() {
        for idx in [0usize, 1, 15, 16, 24_999] {
            assert_eq!(reports_for(7, idx), reports_for(7, idx));
        }
        assert_ne!(reports_for(7, 3), reports_for(8, 3), "the seed must matter");
        assert_ne!(
            reports_for(7, 3),
            reports_for(7, 4),
            "the index must matter"
        );
    }

    #[test]
    fn batch_shape_is_the_scale_harness_shape() {
        let clean = reports_for(1, 5);
        assert_eq!(clean.len(), REPORTS_PER_BATCH);
        assert!(clean.iter().all(|r| r.url.starts_with("http://blocked")));
        assert!(clean.iter().all(|r| r.asn < ASNS && r.stages.len() == 1));
        let salted = reports_for(1, 32);
        assert_eq!(salted[0].url, "not a url at all");
        assert!(salted[1..].iter().all(|r| r.url.starts_with("http://")));
        assert_eq!(garbage_clients(0, 33), 3);
        assert_eq!(garbage_clients(1, 16), 0);
    }
}
