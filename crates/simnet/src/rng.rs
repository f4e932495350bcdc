//! Deterministic, forkable randomness.
//!
//! Every stochastic component of the simulation draws from a [`DetRng`]
//! seeded from a single experiment seed. Components fork *labelled* child
//! generators so that adding a new consumer of randomness never perturbs
//! the draws seen by existing ones — a property the experiment harness
//! relies on for stable baselines.
//!
//! The generator is a from-scratch xoshiro256++ (Blackman & Vigna), with
//! SplitMix64 state expansion from the 64-bit seed. It is implemented
//! in-tree so the workspace stays hermetic, and its output is part of
//! the bit-reproducibility contract: the stream for a given seed never
//! changes without a deliberate recalibration of the experiment
//! baselines.

/// A deterministic random number generator with labelled forking.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: [u64; 4],
    /// Memo for [`DetRng::range_u64`]: the last non-power-of-two span,
    /// its rejection threshold, and the magic/shift pair for reducing
    /// draws modulo the span by multiply-shift instead of hardware
    /// division (Granlund–Montgomery invariant division — see
    /// [`mod_magic`] for the exactness argument). Bounded draws loop
    /// over the same span in hot paths, and both the threshold and the
    /// magic cost a division to recompute. Pure cache — output is
    /// identical with or without it.
    zone_span: u64,
    zone: u64,
    mod_magic: u64,
    mod_shift: u32,
}

/// Magic/shift pair such that [`mod_by_magic`] computes exactly
/// `v % d` for every `v`, for a fixed non-power-of-two `d` with
/// `3 <= d <= 2^63`.
///
/// Let `l = ceil(log2 d)` (so `2 <= l <= 63`) and `m = ceil(2^(64+l) / d)`.
/// Then `m·d - 2^(64+l) < d <= 2^l`, which is the Granlund–Montgomery
/// round-up condition, so `floor(m·v / 2^(64+l)) = floor(v / d)` for all
/// `v < 2^64`. `m` is a 65-bit value `2^64 + m'`; only `m'` is stored,
/// and the quotient is reassembled 65-bit-safely in [`mod_by_magic`].
fn mod_magic(d: u64) -> (u64, u32) {
    debug_assert!(d >= 3 && !d.is_power_of_two() && d <= (1 << 63));
    let l = 64 - (d - 1).leading_zeros();
    let num = 1u128 << (64 + l);
    let m = num.div_ceil(u128::from(d));
    ((m - (1u128 << 64)) as u64, l)
}

/// Exact `v % d` via the pair from [`mod_magic`].
///
/// With `hi = mulhi(m', v)`, the quotient is
/// `floor((v + hi) / 2^l)` — the fractional contribution of the low
/// product half cannot carry across a multiple of `2^l`. The 65-bit sum
/// `v + hi` is halved first (`hi <= v`, so `hi + (v-hi)/2` is exact and
/// fits), then shifted by the remaining `l - 1`.
#[inline]
fn mod_by_magic(v: u64, d: u64, magic: u64, shift: u32) -> u64 {
    let hi = ((u128::from(v) * u128::from(magic)) >> 64) as u64;
    let q = (hi + ((v - hi) >> 1)) >> (shift - 1);
    v - q * d
}

/// SplitMix64 step: the standard seed expander for xoshiro-family
/// generators (also used here to derive fork seeds).
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl DetRng {
    /// Create a generator from an experiment seed.
    pub fn new(seed: u64) -> Self {
        let mut x = seed;
        let state = [
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
        ];
        DetRng {
            state,
            zone_span: 0,
            zone: 0,
            mod_magic: 0,
            mod_shift: 0,
        }
    }

    /// One xoshiro256++ step.
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Fork a child generator whose stream depends only on the parent seed
    /// and the label — not on how many draws the parent has made.
    ///
    /// Forking hashes the label into the parent's *seed lineage* rather than
    /// drawing from the parent stream, so `fork("a")` and `fork("b")` are
    /// independent and insertion-order-insensitive.
    pub fn fork(&self, label: &str) -> DetRng {
        // FNV-1a over the label. We deliberately avoid
        // `RandomState`/`DefaultHasher`, which are randomly keyed per
        // process and would break determinism.
        let h = fnv1a(label.as_bytes());
        // Derive the child from a clone of the parent's current state XORed
        // with the label hash: children of the same parent with different
        // labels diverge, same labels coincide.
        let mut base = self.clone();
        let s = base.next_u64() ^ h;
        DetRng::new(s)
    }

    /// Uniform draw in `[0, 1)`: the top 53 bits scaled by 2⁻⁵³.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    /// Debiased via rejection sampling (Lemire-style threshold).
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        let span = hi - lo;
        if span.is_power_of_two() {
            return lo + (self.next_u64() & (span - 1));
        }
        // Rejection zone: discard draws that would bias the modulus.
        if span != self.zone_span {
            self.zone_span = span;
            self.zone = u64::MAX - (u64::MAX - span + 1) % span;
            // Spans above 2^63 reduce by compare-subtract instead
            // (the quotient is 0 or 1); magic 0 marks that path.
            if span <= (1 << 63) {
                let (magic, shift) = mod_magic(span);
                self.mod_magic = magic;
                self.mod_shift = shift;
            } else {
                self.mod_magic = 0;
                self.mod_shift = 0;
            }
        }
        let (zone, magic, shift) = (self.zone, self.mod_magic, self.mod_shift);
        loop {
            let v = self.next_u64();
            if v <= zone {
                let r = if magic != 0 {
                    mod_by_magic(v, span, magic, shift)
                } else if v >= span {
                    v - span
                } else {
                    v
                };
                debug_assert_eq!(r, v % span);
                return lo + r;
            }
        }
    }

    /// Uniform usize in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty index range");
        self.range_u64(0, n as u64) as usize
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range");
        lo + (hi - lo) * self.f64()
    }

    /// Uniform float in `[EPSILON, 1)` — a log-safe draw.
    fn f64_nonzero(&mut self) -> f64 {
        f64::EPSILON + (1.0 - f64::EPSILON) * self.f64()
    }

    /// Sample a standard normal via Box–Muller (single draw, second value
    /// discarded — simple and adequate for jitter modelling).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = self.f64_nonzero();
        let u2 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Sample a log-normal: exp(N(mu, sigma)).
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Pick an index according to (unnormalized, non-negative) weights.
    /// Panics if weights are empty or all zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut x = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

/// 64-bit FNV-1a over `bytes`: the workspace's one stable hash. Seed
/// forks, shard placement, state fingerprints and output digests all
/// come from it, because the std hashers are randomly keyed per
/// process and every one of those must repeat across runs.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a hash `h` over more bytes:
/// `fnv1a_fold(fnv1a(a), b)` is `fnv1a` of `a` followed by `b`.
#[inline]
pub fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        }
    }

    #[test]
    fn forks_are_label_dependent() {
        let root = DetRng::new(7);
        let mut a1 = root.fork("alpha");
        let mut a2 = root.fork("alpha");
        let mut b = root.fork("beta");
        let xs: Vec<u64> = (0..10).map(|_| a1.range_u64(0, 1 << 40)).collect();
        let ys: Vec<u64> = (0..10).map(|_| a2.range_u64(0, 1 << 40)).collect();
        let zs: Vec<u64> = (0..10).map(|_| b.range_u64(0, 1 << 40)).collect();
        assert_eq!(xs, ys, "same label => same stream");
        assert_ne!(xs, zs, "different label => different stream");
    }

    #[test]
    fn magic_modulus_is_exact() {
        // Adversarial spans: tiny, near powers of two on both sides,
        // wide, and near the 2^63 magic-path boundary.
        let spans = [
            3u64,
            5,
            6,
            7,
            1_000_000,
            (1 << 20) - 1,
            (1 << 20) + 1,
            (1 << 32) - 1,
            (1 << 32) + 1,
            (1 << 62) + 12345,
            (1 << 63) - 1,
        ];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for &d in &spans {
            let (magic, shift) = mod_magic(d);
            // Boundary values where an off-by-one quotient would show.
            for k in [0u64, 1, 2, 3, u64::MAX / d, u64::MAX / d - 1] {
                for off in [0u64, 1, d - 1] {
                    let v = match k.checked_mul(d).and_then(|p| p.checked_add(off)) {
                        Some(v) => v,
                        None => continue,
                    };
                    assert_eq!(mod_by_magic(v, d, magic, shift), v % d, "v={v} d={d}");
                }
            }
            for v in [0u64, 1, d - 1, d, d + 1, u64::MAX, u64::MAX - 1] {
                assert_eq!(mod_by_magic(v, d, magic, shift), v % d, "v={v} d={d}");
            }
            // And a randomized sweep.
            for _ in 0..20_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                assert_eq!(mod_by_magic(x, d, magic, shift), x % d, "v={x} d={d}");
            }
        }
    }

    #[test]
    fn range_u64_matches_plain_modulus_reduction() {
        // The fast reduction must not perturb the output stream: replay
        // the same xoshiro stream and reduce with plain `%`.
        let mut fast = DetRng::new(99);
        let mut plain = DetRng::new(99);
        for &(lo, hi) in &[
            (0u64, 3u64),
            (10, 1_000_010),
            (0, u64::MAX),
            (5, (1 << 63) + 17),
            (0, 1 << 40),
        ] {
            for _ in 0..200 {
                let span = hi - lo;
                let want = loop {
                    let v = plain.next_u64();
                    if span.is_power_of_two() {
                        break lo + (v & (span - 1));
                    }
                    let zone = u64::MAX - (u64::MAX - span + 1) % span;
                    if v <= zone {
                        break lo + v % span;
                    }
                };
                assert_eq!(fast.range_u64(lo, hi), want, "range [{lo}, {hi})");
            }
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut r = DetRng::new(17);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_u64_is_unbiased_over_small_modulus() {
        let mut r = DetRng::new(23);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[r.range_u64(0, 3) as usize] += 1;
        }
        for c in counts {
            let frac = c as f64 / 30_000.0;
            assert!((frac - 1.0 / 3.0).abs() < 0.02, "frac {frac}");
        }
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = DetRng::new(9);
        let w = [0.0, 10.0, 0.0];
        for _ in 0..100 {
            assert_eq!(r.weighted_index(&w), 1);
        }
        // Roughly proportional for mixed weights.
        let w = [1.0, 3.0];
        let mut counts = [0usize; 2];
        for _ in 0..10_000 {
            counts[r.weighted_index(&w)] += 1;
        }
        let frac = counts[1] as f64 / 10_000.0;
        assert!((frac - 0.75).abs() < 0.03, "frac {frac}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(11);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn normal_moments() {
        let mut r = DetRng::new(13);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(2.0, 0.5)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.02, "mean {mean}");
    }
}
