//! The metrics registry: saturating counters, gauges, and fixed-bucket
//! log-linear histograms.
//!
//! Everything is lock-free on the hot path (atomics only); registration
//! takes a registry-wide mutex once per metric name. Snapshots are
//! deterministic: names sort lexicographically and histogram buckets are
//! fixed at construction, so two identical runs snapshot to
//! byte-identical JSON.

use crate::json::JsonValue;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically-increasing, saturating counter.
///
/// Saturation (rather than wrap-around) keeps a runaway increment from
/// masquerading as a reset in dashboards: once a counter hits
/// `u64::MAX` it stays there.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`, saturating at `u64::MAX`.
    pub fn add(&self, n: u64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(n);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that goes up and down (queue depth, in-flight count).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add (possibly negative) `delta`.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Histogram bucketing: values 0–63 µs get exact unit buckets; above
/// that, each power-of-two octave splits into 64 log-linear sub-buckets
/// (≤ ~1.6 % relative width), up to a clamp at 2^42 µs (~52 days of
/// virtual time), far beyond any detection ladder or PLT.
const LINEAR_CUTOVER: u64 = 64;
const SUBBUCKET_BITS: u32 = 6;
const SUBBUCKETS: u64 = 1 << SUBBUCKET_BITS;
const MAX_EXP: u32 = 42;
const BUCKET_COUNT: usize =
    LINEAR_CUTOVER as usize + ((MAX_EXP - SUBBUCKET_BITS) as usize + 1) * SUBBUCKETS as usize;

fn bucket_index(v: u64) -> usize {
    if v < LINEAR_CUTOVER {
        return v as usize;
    }
    let v = v.min((1u64 << MAX_EXP) * 2 - 1);
    let e = 63 - v.leading_zeros(); // v in [2^e, 2^(e+1))
    let e = e.min(MAX_EXP);
    let sub = (v >> (e - SUBBUCKET_BITS)) & (SUBBUCKETS - 1);
    LINEAR_CUTOVER as usize + ((e - SUBBUCKET_BITS) as usize) * SUBBUCKETS as usize + sub as usize
}

/// Inclusive lower bound of a bucket, in µs.
fn bucket_lower(idx: usize) -> u64 {
    if idx < LINEAR_CUTOVER as usize {
        return idx as u64;
    }
    let rest = idx - LINEAR_CUTOVER as usize;
    let e = (rest / SUBBUCKETS as usize) as u32 + SUBBUCKET_BITS;
    let sub = (rest % SUBBUCKETS as usize) as u64;
    (SUBBUCKETS + sub) << (e - SUBBUCKET_BITS)
}

/// Midpoint of a bucket (the representative value for quantiles), in µs.
fn bucket_mid(idx: usize) -> u64 {
    if idx < LINEAR_CUTOVER as usize {
        return idx as u64;
    }
    let lower = bucket_lower(idx);
    let width = if idx + 1 < BUCKET_COUNT {
        bucket_lower(idx + 1) - lower
    } else {
        lower // terminal bucket: same relative width as neighbours
    };
    lower + width / 2
}

/// A fixed-bucket log-linear histogram over microsecond values.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_us: AtomicU64,
    min_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            min_us: AtomicU64::new(u64::MAX),
            max_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record a value in microseconds.
    pub fn observe_us(&self, us: u64) {
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.min_us.fetch_min(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Record a value in seconds (negative values clamp to zero).
    pub fn observe_secs(&self, secs: f64) {
        self.observe_us((secs.max(0.0) * 1e6).round() as u64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values, µs.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Estimated quantile (`q` in 0..=1) in µs; `None` when empty.
    /// Resolution follows the bucket width: exact below 64 µs, ≤ ~1.6 %
    /// relative error above.
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(bucket_mid(i));
            }
        }
        Some(self.max_us.load(Ordering::Relaxed))
    }

    /// 99th percentile in µs; `None` when empty.
    pub fn p99_us(&self) -> Option<u64> {
        self.quantile_us(0.99)
    }

    /// Summarize and clear the recorded samples: the windowed-series
    /// layer calls this at every window close. Returns `None` when no
    /// samples were recorded. Not linearizable against concurrent
    /// `observe_us` calls — window closes happen on the deterministic
    /// simulation path, never concurrently with recorders.
    pub(crate) fn drain_window(&self) -> Option<HistDigest> {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return None;
        }
        let digest = HistDigest {
            count,
            sum_us: self.sum_us(),
            min_us: self.min_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
            p50_us: self.quantile_us(0.5).unwrap_or(0),
            p90_us: self.quantile_us(0.9).unwrap_or(0),
            p99_us: self.quantile_us(0.99).unwrap_or(0),
        };
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_us.store(0, Ordering::Relaxed);
        self.min_us.store(u64::MAX, Ordering::Relaxed);
        self.max_us.store(0, Ordering::Relaxed);
        Some(digest)
    }

    /// Fold another histogram's samples into this one. Buckets are
    /// fixed at construction and identical across histograms, so the
    /// merge is exact: counts and sums add, min/max tighten. Addition
    /// commutes, so a merged snapshot is independent of merge order.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        let count = other.count.load(Ordering::Relaxed);
        if count == 0 {
            return;
        }
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum_us
            .fetch_add(other.sum_us.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min_us
            .fetch_min(other.min_us.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_us
            .fetch_max(other.max_us.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    fn to_json(&self) -> JsonValue {
        let count = self.count();
        let mut v = JsonValue::obj();
        v.set("count", count);
        v.set("sum_us", self.sum_us());
        if count > 0 {
            v.set("min_us", self.min_us.load(Ordering::Relaxed));
            v.set("max_us", self.max_us.load(Ordering::Relaxed));
            for (label, q) in [("p50_us", 0.5), ("p90_us", 0.9), ("p99_us", 0.99)] {
                if let Some(x) = self.quantile_us(q) {
                    v.set(label, x);
                }
            }
            let mut buckets = Vec::new();
            for (i, b) in self.buckets.iter().enumerate() {
                let n = b.load(Ordering::Relaxed);
                if n > 0 {
                    buckets.push(JsonValue::Arr(vec![
                        JsonValue::from(bucket_lower(i)),
                        JsonValue::from(n),
                    ]));
                }
            }
            v.set("buckets", buckets);
        }
        v
    }
}

/// One window's worth of histogram samples, summarized at drain time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HistDigest {
    pub count: u64,
    pub sum_us: u64,
    pub min_us: u64,
    pub max_us: u64,
    pub p50_us: u64,
    pub p90_us: u64,
    pub p99_us: u64,
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// The metric called `name`, created on first use. A name already
/// registered is found without allocating its key.
fn get_or_create<T: Default>(map: &mut BTreeMap<String, Arc<T>>, name: &str) -> Arc<T> {
    let found = map.get(name).cloned();
    found.unwrap_or_else(|| map.entry(name.to_string()).or_default().clone())
}

/// A registry of named metrics.
///
/// Handles returned by [`Registry::counter`] / [`gauge`](Registry::gauge)
/// / [`histogram`](Registry::histogram) are `Arc`s; hot paths should
/// resolve once and reuse the handle rather than re-looking-up per event.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create a counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&mut self.inner.lock().unwrap().counters, name)
    }

    /// Get or create a gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&mut self.inner.lock().unwrap().gauges, name)
    }

    /// Get or create a histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&mut self.inner.lock().unwrap().histograms, name)
    }

    /// Fold every metric of `other` into this registry: counters and
    /// gauges add, histograms merge bucket-wise ([`Histogram::merge_from`]).
    ///
    /// This is how the trial runner folds each trial's registry into
    /// its caller's, and `exp all` each experiment's. Gauges are summed
    /// as deltas (a trial's net queue-depth change). Callers that want
    /// a deterministic snapshot merge in a fixed order — that pins the
    /// order in which previously-unseen metric *names* are registered.
    pub fn merge_from(&self, other: &Registry) {
        let theirs = other.inner.lock().unwrap();
        for (name, c) in &theirs.counters {
            self.counter(name).add(c.get());
        }
        for (name, g) in &theirs.gauges {
            self.gauge(name).add(g.get());
        }
        for (name, h) in &theirs.histograms {
            self.histogram(name).merge_from(h);
        }
    }

    /// A deterministic JSON snapshot of every metric.
    pub fn snapshot(&self) -> JsonValue {
        let g = self.inner.lock().unwrap();
        let mut counters = JsonValue::obj();
        for (k, c) in &g.counters {
            counters.set(k, c.get());
        }
        let mut gauges = JsonValue::obj();
        for (k, c) in &g.gauges {
            gauges.set(k, c.get());
        }
        let mut histograms = JsonValue::obj();
        for (k, h) in &g.histograms {
            histograms.set(k, h.to_json());
        }
        let mut v = JsonValue::obj();
        v.set("counters", counters);
        v.set("gauges", gauges);
        v.set("histograms", histograms);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter::default();
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_tracks_both_directions() {
        let g = Gauge::default();
        g.add(10);
        g.add(-25);
        assert_eq!(g.get(), -15);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn bucket_boundaries_are_exact_below_cutover() {
        for v in 0..LINEAR_CUTOVER {
            let i = bucket_index(v);
            assert_eq!(bucket_lower(i), v);
            assert_eq!(bucket_mid(i), v);
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_lower_bounds_consistent() {
        let mut last = 0usize;
        let mut v = 1u64;
        while v < (1u64 << 43) {
            let i = bucket_index(v);
            assert!(i >= last, "index not monotone at {v}");
            assert!(bucket_lower(i) <= v || v >= (1u64 << MAX_EXP) * 2);
            if i + 1 < BUCKET_COUNT && v < (1u64 << MAX_EXP) {
                assert!(
                    v < bucket_lower(i + 1),
                    "v {v} above bucket {i} upper bound"
                );
            }
            last = i;
            v = v * 3 / 2 + 1;
        }
    }

    #[test]
    fn bucket_relative_width_is_small() {
        // Above the cutover, bucket width / lower bound ≤ 1/64.
        for idx in LINEAR_CUTOVER as usize..BUCKET_COUNT - 1 {
            let lo = bucket_lower(idx);
            let hi = bucket_lower(idx + 1);
            assert!(hi > lo);
            assert!((hi - lo) as f64 / lo as f64 <= 1.0 / 32.0, "idx {idx}");
        }
    }

    #[test]
    fn quantiles_hit_known_distribution() {
        let h = Histogram::default();
        for ms in 1..=1000u64 {
            h.observe_us(ms * 1000);
        }
        let p50 = h.quantile_us(0.5).unwrap() as f64;
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.02, "{p50}");
        let p99 = h.quantile_us(0.99).unwrap() as f64;
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.02, "{p99}");
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn observe_secs_21s_median_within_tolerance() {
        // The Table 5 acceptance bar: a 21 s detection time must survive
        // bucketing within well under 5 %.
        let h = Histogram::default();
        for _ in 0..50 {
            h.observe_secs(21.03);
        }
        let m = h.quantile_us(0.5).unwrap() as f64 / 1e6;
        assert!((m - 21.03).abs() / 21.03 < 0.02, "{m}");
    }

    #[test]
    fn huge_values_clamp_to_terminal_bucket() {
        let h = Histogram::default();
        h.observe_us(u64::MAX);
        assert_eq!(h.count(), 1);
        assert!(h.quantile_us(0.5).is_some());
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_us(q), None, "q={q}");
        }
    }

    #[test]
    fn single_sample_every_quantile_lands_in_its_bucket() {
        for sample in [0u64, 1, 63, 64, 65, 1_000_000] {
            let h = Histogram::default();
            h.observe_us(sample);
            let p0 = h.quantile_us(0.0).unwrap();
            let p50 = h.quantile_us(0.5).unwrap();
            let p100 = h.quantile_us(1.0).unwrap();
            assert_eq!(p0, p50, "sample={sample}");
            assert_eq!(p50, p100, "sample={sample}");
            // The representative value stays within bucket resolution of
            // the sample (log-linear buckets: < ~2% above the linear
            // cutover, exact below it).
            let err = (p50 as f64 - sample as f64).abs() / (sample.max(1) as f64);
            assert!(err < 0.05, "sample={sample} rep={p50}");
        }
    }

    #[test]
    fn quantiles_are_monotone_under_adversarial_boundaries() {
        // Samples straddling the linear/log cutover and power-of-two
        // bucket edges — the spots where a bucketed quantile could
        // invert if bucket selection and representatives disagreed.
        let h = Histogram::default();
        for s in [
            0u64,
            1,
            62,
            63,
            64,
            65,
            127,
            128,
            129,
            255,
            256,
            1 << 20,
            (1 << 20) + 1,
            (1 << 42),
            u64::MAX,
        ] {
            h.observe_us(s);
        }
        let mut prev = 0u64;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = h.quantile_us(q).unwrap();
            assert!(v >= prev, "q={q}: {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn histogram_merge_is_exact_and_commutative() {
        let a = Histogram::default();
        let b = Histogram::default();
        let reference = Histogram::default();
        for v in [0u64, 1, 63, 64, 1_000, 1_000_000] {
            a.observe_us(v);
            reference.observe_us(v);
        }
        for v in [5u64, 70, 21_030_000] {
            b.observe_us(v);
            reference.observe_us(v);
        }
        // Merge a←b and, separately, b←a: identical totals either way.
        let a2 = Histogram::default();
        a2.merge_from(&b);
        a2.merge_from(&a);
        a.merge_from(&b);
        for h in [&a, &a2] {
            assert_eq!(h.count(), reference.count());
            assert_eq!(h.sum_us(), reference.sum_us());
            for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(h.quantile_us(q), reference.quantile_us(q), "q={q}");
            }
        }
    }

    #[test]
    fn merging_empty_histogram_keeps_min_max_intact() {
        let h = Histogram::default();
        h.observe_us(500);
        h.merge_from(&Histogram::default());
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_us(0.0), h.quantile_us(1.0));
    }

    #[test]
    fn quantile_accessors_cover_empty_and_single_bucket_edges() {
        // Empty: every accessor declines.
        let h = Histogram::default();
        assert_eq!(h.quantile_us(0.5), None);
        assert_eq!(h.quantile_us(0.9), None);
        assert_eq!(h.p99_us(), None);
        // Single bucket: every quantile is that bucket's representative.
        h.observe_us(42);
        assert_eq!(h.quantile_us(0.5), Some(42));
        assert_eq!(h.quantile_us(0.9), Some(42));
        assert_eq!(h.p99_us(), Some(42));
        // Many samples in one (sub-cutover, exact) bucket: still exact.
        for _ in 0..99 {
            h.observe_us(42);
        }
        assert_eq!(h.p99_us(), Some(42));
    }

    #[test]
    fn drain_window_summarizes_then_resets() {
        let h = Histogram::default();
        assert!(h.drain_window().is_none(), "empty window drains to None");
        for v in [100u64, 200, 300] {
            h.observe_us(v);
        }
        let d = h.drain_window().expect("samples present");
        assert_eq!(d.count, 3);
        assert_eq!(d.sum_us, 600);
        assert_eq!(d.min_us, 100);
        assert_eq!(d.max_us, 300);
        assert!(d.p50_us >= 190 && d.p50_us <= 210, "{}", d.p50_us);
        // Fully reset: the next window starts from nothing.
        assert_eq!(h.count(), 0);
        assert!(h.drain_window().is_none());
        h.observe_us(7);
        let d2 = h.drain_window().unwrap();
        assert_eq!((d2.count, d2.min_us, d2.max_us), (1, 7, 7));
    }

    #[test]
    fn registry_merge_matches_serial_reference() {
        let serial = Registry::new();
        let part1 = Registry::new();
        let part2 = Registry::new();
        for (r, n) in [(&part1, 3u64), (&part2, 7u64)] {
            r.counter("ingest").add(n);
            r.gauge("depth").add(n as i64 - 4);
            r.histogram("lat").observe_us(n * 100);
        }
        for n in [3u64, 7] {
            serial.counter("ingest").add(n);
            serial.gauge("depth").add(n as i64 - 4);
            serial.histogram("lat").observe_us(n * 100);
        }
        let merged = Registry::new();
        merged.merge_from(&part1);
        merged.merge_from(&part2);
        assert_eq!(
            merged.snapshot().to_string_pretty(),
            serial.snapshot().to_string_pretty()
        );
    }

    #[test]
    fn snapshot_is_deterministic_and_sorted() {
        let r = Registry::new();
        r.counter("zeta").add(2);
        r.counter("alpha").inc();
        r.gauge("depth").set(7);
        r.histogram("lat").observe_us(1500);
        let a = r.snapshot().to_string_compact();
        let b = r.snapshot().to_string_compact();
        assert_eq!(a, b);
        assert!(a.find("alpha").unwrap() < a.find("zeta").unwrap());
    }
}
