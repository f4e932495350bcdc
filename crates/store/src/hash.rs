//! Shard placement: FNV-1a over the URL×ASN keyspace.
//!
//! The std `HashMap` hasher is randomly seeded per process, which is
//! exactly wrong for shard placement — two runs (or a replayed log)
//! must land every key on the same shard. FNV-1a is stable, cheap, and
//! mixes short URL strings well.

use csaw_simnet::rng::{fnv1a, fnv1a_fold};
use csaw_simnet::topology::Asn;

/// Stable shard hash of a (URL, AS) key: FNV-1a over the URL bytes,
/// then the AS number's little-endian bytes.
pub fn key_hash(url: &str, asn: Asn) -> u64 {
    fnv1a_fold(fnv1a(url.as_bytes()), &asn.0.to_le_bytes())
}

/// Shard index for a (URL, AS) key in an `n`-shard store.
pub fn key_shard(url: &str, asn: Asn, n: usize) -> usize {
    (key_hash(url, asn) % n as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_and_spread() {
        // Stability: fixed vectors, fixed outputs (FNV-1a reference).
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        // Spread: 10k URLs over 16 shards land within 2x of uniform.
        let n = 16;
        let mut counts = vec![0usize; n];
        for i in 0..10_000 {
            counts[key_shard(&format!("http://site-{i}.example/"), Asn(1), n)] += 1;
        }
        for c in &counts {
            assert!(*c > 300 && *c < 1300, "skewed shard: {counts:?}");
        }
    }

    #[test]
    fn asn_perturbs_placement() {
        let url = "http://x.example/";
        let spread: std::collections::HashSet<usize> =
            (0..64).map(|a| key_shard(url, Asn(a), 16)).collect();
        assert!(spread.len() > 4, "ASN must move keys across shards");
    }
}
