//! Windowed time-series telemetry driven by the virtual clock.
//!
//! The metrics [`Registry`](crate::metrics::Registry) answers "what
//! happened over the whole run"; this module answers "what happened in
//! each window of virtual time". A [`Timeline`] owns a set of named
//! series — windowed counters, gauges, and histogram digests, with
//! low-cardinality dimensional labels (per-AS, per-shard, per-method) —
//! and closes a fixed-width window every time the virtual clock crosses
//! a window boundary. Closing a window drains every series into a
//! [`Frame`], emits the frame as an ordinary `ts.frame` [`Event`] into
//! the current sink (one line of a `--trace-out x.jsonl` stream),
//! evaluates the configured SLO rules ([`crate::slo`]) against the
//! retained frame history, and emits any violations as `slo.violation`
//! events.
//!
//! Determinism contract: frames are a pure function of the recorded
//! samples and the clock — two same-seed runs emit byte-identical frame
//! streams. The trial runner gives each trial its own `Timeline`
//! (inherited configuration, fresh state), so one trial's windows never
//! depend on another's samples.
//!
//! Hot-path cost matches the registry: handle resolution takes the
//! timeline mutex once per (name, labels); recording through a resolved
//! handle is atomics only.

use crate::event::Event;
use crate::json::JsonValue;
use crate::metrics::Histogram;
use crate::sink::{lock_recover, Sink};
use crate::slo::SloSet;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Hard cap on distinct series per timeline. Beyond it, new (name,
/// labels) pairs all resolve to one shared `_overflow` counter so a
/// label-cardinality bug degrades telemetry instead of memory.
pub const MAX_SERIES: usize = 512;

/// Safety valve for huge clock jumps: at most this many window frames
/// are emitted per advance; further crossed windows are skipped (and
/// counted on the frame that follows the gap as `ts.windows_skipped`).
const MAX_FRAMES_PER_ADVANCE: u64 = 4096;

/// Fixed-window timeline configuration.
#[derive(Debug, Clone)]
pub struct WindowCfg {
    /// Window width in virtual µs. Zero disables the timeline.
    pub window_us: u64,
    /// Closed frames retained for SLO evaluation and postmortems.
    pub retain: usize,
    /// SLO rules evaluated at every window close.
    pub slos: Arc<SloSet>,
}

impl WindowCfg {
    /// A timeline of `secs`-wide windows with the given rules, keeping
    /// 64 frames of history.
    pub fn from_secs(secs: f64, slos: Arc<SloSet>) -> WindowCfg {
        WindowCfg {
            window_us: (secs.max(0.0) * 1e6).round() as u64,
            retain: 64,
            slos,
        }
    }
}

/// A windowed, saturating counter: drained to zero at window close.
#[derive(Debug, Default)]
pub struct TsCounter(AtomicU64);

impl TsCounter {
    /// Add `n` to the open window.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment the open window by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The open window's running total (tests/diagnostics).
    pub fn current(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn drain(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

/// A windowed gauge: tracks last/min/max per window, carrying the last
/// value forward so a series that goes quiet still reports its level.
#[derive(Debug)]
pub struct TsGauge {
    last: AtomicI64,
    min: AtomicI64,
    max: AtomicI64,
    /// Set once the gauge has ever been sampled; unsampled gauges are
    /// omitted from frames (no meaningful level to report).
    touched: AtomicBool,
}

impl Default for TsGauge {
    fn default() -> Self {
        TsGauge {
            last: AtomicI64::new(0),
            min: AtomicI64::new(i64::MAX),
            max: AtomicI64::new(i64::MIN),
            touched: AtomicBool::new(false),
        }
    }
}

impl TsGauge {
    /// Set the gauge level.
    pub fn set(&self, v: i64) {
        self.last.store(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.touched.store(true, Ordering::Relaxed);
    }

    /// Add (possibly negative) `delta` to the level.
    pub fn add(&self, delta: i64) {
        let v = self.last.fetch_add(delta, Ordering::Relaxed) + delta;
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.touched.store(true, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.last.load(Ordering::Relaxed)
    }

    fn drain(&self) -> Option<(i64, i64, i64)> {
        if !self.touched.load(Ordering::Relaxed) {
            return None;
        }
        let last = self.last.load(Ordering::Relaxed);
        let min = self.min.swap(last, Ordering::Relaxed);
        let max = self.max.swap(last, Ordering::Relaxed);
        // A quiet window after the first sample reports min = max = last.
        Some((last, min.min(last), max.max(last)))
    }
}

/// A windowed histogram: a full log-linear [`Histogram`] while the
/// window is open, drained to a quantile digest at close.
#[derive(Debug, Default)]
pub struct TsHist(Histogram);

impl TsHist {
    /// Record a value in microseconds into the open window.
    pub fn observe_us(&self, us: u64) {
        self.0.observe_us(us);
    }

    /// Record a value in seconds into the open window.
    pub fn observe_secs(&self, secs: f64) {
        self.0.observe_secs(secs);
    }
}

/// One series' contribution to a closed window.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesSample {
    /// Events counted in the window (zero is reported: "nothing
    /// happened here" is exactly the signal coverage rules need).
    Count(u64),
    /// Gauge level: value at window close, window min, window max.
    Gauge {
        /// Level at window close.
        last: i64,
        /// Minimum level seen this window.
        min: i64,
        /// Maximum level seen this window.
        max: i64,
    },
    /// Histogram digest of the window's samples.
    Digest {
        /// Samples this window.
        count: u64,
        /// Sum of samples, µs.
        sum_us: u64,
        /// Smallest sample, µs.
        min_us: u64,
        /// Largest sample, µs.
        max_us: u64,
        /// Median, µs (bucket-resolution).
        p50_us: u64,
        /// 90th percentile, µs.
        p90_us: u64,
        /// 99th percentile, µs.
        p99_us: u64,
    },
}

impl SeriesSample {
    /// The sample as JSON. Counters serialize as `{"count":n}`, gauges
    /// add `"last"`, digests add `"p50_us"` — the keys are the type tag.
    pub fn to_json(&self) -> JsonValue {
        let mut v = JsonValue::obj();
        match self {
            SeriesSample::Count(n) => v.set("count", *n),
            SeriesSample::Gauge { last, min, max } => {
                v.set("last", *last);
                v.set("min", *min);
                v.set("max", *max);
            }
            SeriesSample::Digest {
                count,
                sum_us,
                min_us,
                max_us,
                p50_us,
                p90_us,
                p99_us,
            } => {
                v.set("count", *count);
                v.set("sum_us", *sum_us);
                v.set("min_us", *min_us);
                v.set("max_us", *max_us);
                v.set("p50_us", *p50_us);
                v.set("p90_us", *p90_us);
                v.set("p99_us", *p99_us);
            }
        }
        v
    }

    /// Parse a sample back from its JSON form (see [`Self::to_json`]).
    pub fn parse(v: &JsonValue) -> Option<SeriesSample> {
        let u = |k: &str| v.get(k).and_then(JsonValue::as_u64);
        let i = |k: &str| v.get(k).and_then(JsonValue::as_f64).map(|f| f as i64);
        if v.get("p50_us").is_some() {
            return Some(SeriesSample::Digest {
                count: u("count")?,
                sum_us: u("sum_us")?,
                min_us: u("min_us")?,
                max_us: u("max_us")?,
                p50_us: u("p50_us")?,
                p90_us: u("p90_us")?,
                p99_us: u("p99_us")?,
            });
        }
        if v.get("last").is_some() {
            return Some(SeriesSample::Gauge {
                last: i("last")?,
                min: i("min")?,
                max: i("max")?,
            });
        }
        Some(SeriesSample::Count(u("count")?))
    }

    /// The count, when this is a counter sample.
    pub fn count(&self) -> Option<u64> {
        match self {
            SeriesSample::Count(n) => Some(*n),
            _ => None,
        }
    }

    /// The close-of-window level, when this is a gauge sample.
    pub fn gauge_last(&self) -> Option<i64> {
        match self {
            SeriesSample::Gauge { last, .. } => Some(*last),
            _ => None,
        }
    }

    /// The p99, when this is a digest sample with data.
    pub fn p99_us(&self) -> Option<u64> {
        match self {
            SeriesSample::Digest { count, p99_us, .. } if *count > 0 => Some(*p99_us),
            _ => None,
        }
    }
}

/// One closed window: every registered series' sample over
/// `[start_us, end_us)` of virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Window start, virtual µs (inclusive).
    pub start_us: u64,
    /// Window end, virtual µs (exclusive).
    pub end_us: u64,
    /// The run label active when the window closed (e.g. `rate=0.3`).
    pub run: String,
    /// Windows skipped just before this frame (clock jumped farther
    /// than the per-advance frame cap). Zero in normal operation.
    pub skipped: u64,
    /// Series key → sample. Keys are `name` or `name{k=v,...}` with
    /// label keys sorted.
    pub series: BTreeMap<String, SeriesSample>,
}

/// The event name frames are emitted under.
pub const FRAME_EVENT: &str = "ts.frame";

impl Frame {
    /// The frame as a `ts.frame` [`Event`] (what the sink receives).
    pub fn to_event(&self) -> Event {
        let mut series = JsonValue::obj();
        for (k, s) in &self.series {
            series.set(k, s.to_json());
        }
        let mut fields: Vec<(&'static str, JsonValue)> = vec![
            ("win_start_us", JsonValue::from(self.start_us)),
            ("win_end_us", JsonValue::from(self.end_us)),
            ("run", JsonValue::from(self.run.as_str())),
        ];
        if self.skipped > 0 {
            fields.push(("windows_skipped", JsonValue::from(self.skipped)));
        }
        fields.push(("series", series));
        Event {
            ts_us: self.end_us,
            name: FRAME_EVENT.to_string(),
            dur_us: None,
            fields,
            trace: None,
        }
    }

    /// Rebuild a frame from an event's JSON form (one line of a JSONL
    /// event stream). Returns `None` for lines that are not `ts.frame`
    /// events.
    pub fn parse(line: &JsonValue) -> Option<Frame> {
        if line.get("event").and_then(JsonValue::as_str) != Some(FRAME_EVENT) {
            return None;
        }
        let f = line.get("fields")?;
        let mut series = BTreeMap::new();
        if let Some(map) = f.get("series").and_then(JsonValue::as_obj) {
            for (k, v) in map {
                series.insert(k.clone(), SeriesSample::parse(v)?);
            }
        }
        Some(Frame {
            start_us: f.get("win_start_us").and_then(JsonValue::as_u64)?,
            end_us: f.get("win_end_us").and_then(JsonValue::as_u64)?,
            run: f
                .get("run")
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string(),
            skipped: f
                .get("windows_skipped")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
            series,
        })
    }

    /// Sum of counter samples across every series key matching `family`
    /// (exact name, or `family{...}` for any labels).
    pub fn family_count(&self, family: &str) -> u64 {
        self.series
            .iter()
            .filter(|(k, _)| key_in_family(k, family))
            .filter_map(|(_, s)| s.count())
            .sum()
    }
}

/// Whether series key `key` belongs to label family `family`.
pub fn key_in_family(key: &str, family: &str) -> bool {
    key == family
        || (key.len() > family.len()
            && key.starts_with(family)
            && key.as_bytes()[family.len()] == b'{')
}

/// Render the canonical series key: `name` or `name{k=v,...}` with
/// label keys sorted lexicographically.
pub fn series_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_unstable();
    let mut key = String::with_capacity(name.len() + 16);
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push('=');
        key.push_str(v);
    }
    key.push('}');
    key
}

#[derive(Debug)]
enum SeriesCell {
    Counter(Arc<TsCounter>),
    Gauge(Arc<TsGauge>),
    Hist(Arc<TsHist>),
}

#[derive(Debug, Default)]
struct Inner {
    series: BTreeMap<String, SeriesCell>,
    /// Closed frames, oldest first, capped at `cfg.retain`.
    recent: VecDeque<Frame>,
    run: String,
    /// Windows skipped by the frame cap since the last emitted frame.
    pending_skipped: u64,
}

/// A fixed-window telemetry timeline (see module docs).
///
/// Disabled (zero-width windows) until [`Timeline::configure`] is
/// called; recording into a disabled timeline works but nothing is
/// ever exported, so instrumentation sites need no feature gates.
#[derive(Debug, Default)]
pub struct Timeline {
    cfg: OnceLock<WindowCfg>,
    /// Start of the currently-open window, µs.
    open_start: AtomicU64,
    inner: Mutex<Inner>,
}

impl Timeline {
    /// A disabled timeline (the [`crate::ObsCtx`] default).
    pub fn new() -> Timeline {
        Timeline::default()
    }

    /// A timeline configured from the start (the trial-runner path).
    pub fn with_cfg(cfg: WindowCfg) -> Timeline {
        let t = Timeline::default();
        let _ = t.cfg.set(cfg);
        t
    }

    /// Configure windowing. First caller wins (returns `false` if the
    /// timeline was already configured).
    pub fn configure(&self, cfg: WindowCfg) -> bool {
        self.cfg.set(cfg).is_ok()
    }

    /// The active configuration, if any.
    pub fn cfg(&self) -> Option<&WindowCfg> {
        self.cfg.get()
    }

    /// Whether windows are being collected.
    pub fn enabled(&self) -> bool {
        self.cfg.get().is_some_and(|c| c.window_us > 0)
    }

    /// Set the run label stamped on subsequently closed frames.
    pub fn set_run(&self, label: &str) {
        lock_recover(&self.inner).run = label.to_string();
    }

    /// Resolve (or create) the windowed counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<TsCounter> {
        let key = series_key(name, labels);
        let mut g = lock_recover(&self.inner);
        if g.series.len() >= MAX_SERIES && !g.series.contains_key(&key) {
            return self.overflow(&mut g);
        }
        match g
            .series
            .entry(key)
            .or_insert_with(|| SeriesCell::Counter(Arc::new(TsCounter::default())))
        {
            SeriesCell::Counter(c) => c.clone(),
            _ => Arc::new(TsCounter::default()), // name/type clash: orphan handle
        }
    }

    /// Resolve (or create) the windowed gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<TsGauge> {
        let key = series_key(name, labels);
        let mut g = lock_recover(&self.inner);
        if g.series.len() >= MAX_SERIES && !g.series.contains_key(&key) {
            self.overflow(&mut g);
            return Arc::new(TsGauge::default());
        }
        match g
            .series
            .entry(key)
            .or_insert_with(|| SeriesCell::Gauge(Arc::new(TsGauge::default())))
        {
            SeriesCell::Gauge(c) => c.clone(),
            _ => Arc::new(TsGauge::default()),
        }
    }

    /// Resolve (or create) the windowed histogram `name{labels}`.
    pub fn hist(&self, name: &str, labels: &[(&str, &str)]) -> Arc<TsHist> {
        let key = series_key(name, labels);
        let mut g = lock_recover(&self.inner);
        if g.series.len() >= MAX_SERIES && !g.series.contains_key(&key) {
            self.overflow(&mut g);
            return Arc::new(TsHist::default());
        }
        match g
            .series
            .entry(key)
            .or_insert_with(|| SeriesCell::Hist(Arc::new(TsHist::default())))
        {
            SeriesCell::Hist(c) => c.clone(),
            _ => Arc::new(TsHist::default()),
        }
    }

    /// The shared overflow counter (cardinality cap hit).
    fn overflow(&self, g: &mut std::sync::MutexGuard<'_, Inner>) -> Arc<TsCounter> {
        match g
            .series
            .entry("_overflow".to_string())
            .or_insert_with(|| SeriesCell::Counter(Arc::new(TsCounter::default())))
        {
            SeriesCell::Counter(c) => {
                c.inc();
                c.clone()
            }
            _ => Arc::new(TsCounter::default()),
        }
    }

    /// Advance the timeline to virtual time `now_us`, closing (and
    /// emitting into `sink`) every window boundary crossed. Cheap
    /// no-op while `now_us` stays inside the open window.
    pub fn advance_to(&self, now_us: u64, sink: &dyn Sink) {
        let Some(cfg) = self.cfg.get() else { return };
        let w = cfg.window_us;
        if w == 0 {
            return;
        }
        let open = self.open_start.load(Ordering::Relaxed);
        if now_us < open.saturating_add(w) {
            return;
        }
        // Target: the window containing now_us stays open; everything
        // before it closes.
        let target_start = (now_us / w) * w;
        let mut frames_left = MAX_FRAMES_PER_ADVANCE;
        let mut start = open;
        while start < target_start {
            if frames_left == 0 {
                // Huge jump: skip straight to the last window before the
                // target, recording how many we dropped.
                let skipped = (target_start - start) / w;
                lock_recover(&self.inner).pending_skipped += skipped;
                break;
            }
            self.close_window(cfg, start, start + w, sink);
            frames_left -= 1;
            start += w;
        }
        self.open_start.store(target_start, Ordering::Relaxed);
    }

    /// Close the open window early (end of run): drains whatever the
    /// window accumulated into a final frame and evaluates SLOs once
    /// more. The frame keeps its nominal `[start, start+window)`
    /// bounds so frame widths stay uniform for consumers.
    pub fn flush(&self, sink: &dyn Sink) {
        let Some(cfg) = self.cfg.get() else { return };
        if cfg.window_us == 0 {
            return;
        }
        let start = self.open_start.load(Ordering::Relaxed);
        self.close_window(cfg, start, start + cfg.window_us, sink);
        self.open_start
            .store(start + cfg.window_us, Ordering::Relaxed);
    }

    fn close_window(&self, cfg: &WindowCfg, start_us: u64, end_us: u64, sink: &dyn Sink) {
        let mut g = lock_recover(&self.inner);
        if g.series.is_empty() {
            // Nothing registered: no frame. Keeps parent contexts (whose
            // series all live in trial timelines) from emitting noise.
            return;
        }
        let mut series = BTreeMap::new();
        for (key, cell) in g.series.iter() {
            match cell {
                SeriesCell::Counter(c) => {
                    series.insert(key.clone(), SeriesSample::Count(c.drain()));
                }
                SeriesCell::Gauge(gg) => {
                    if let Some((last, min, max)) = gg.drain() {
                        series.insert(key.clone(), SeriesSample::Gauge { last, min, max });
                    }
                }
                SeriesCell::Hist(h) => {
                    if let Some(d) = h.0.drain_window() {
                        series.insert(
                            key.clone(),
                            SeriesSample::Digest {
                                count: d.count,
                                sum_us: d.sum_us,
                                min_us: d.min_us,
                                max_us: d.max_us,
                                p50_us: d.p50_us,
                                p90_us: d.p90_us,
                                p99_us: d.p99_us,
                            },
                        );
                    }
                }
            }
        }
        let frame = Frame {
            start_us,
            end_us,
            run: g.run.clone(),
            skipped: std::mem::take(&mut g.pending_skipped),
            series,
        };
        if sink.enabled() {
            sink.record(&frame.to_event());
        }
        g.recent.push_back(frame);
        while g.recent.len() > cfg.retain.max(1) {
            g.recent.pop_front();
        }
        // SLO evaluation over the retained history, newest frame last;
        // its only product is the violation events.
        if sink.enabled() {
            let history: Vec<Frame> = g.recent.iter().cloned().collect();
            for v in cfg.slos.evaluate(&history) {
                sink.record(&v.to_event());
            }
        }
    }

    /// The retained closed frames, oldest first.
    pub fn recent_frames(&self) -> Vec<Frame> {
        lock_recover(&self.inner).recent.iter().cloned().collect()
    }

    /// A fresh timeline inheriting this one's configuration (the trial
    /// runner's per-trial scope), or a disabled one if unconfigured.
    pub fn child(&self) -> Timeline {
        match self.cfg.get() {
            Some(cfg) => Timeline::with_cfg(cfg.clone()),
            None => Timeline::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::BufferSink;
    use crate::slo::SloSet;

    fn cfg(window_us: u64) -> WindowCfg {
        WindowCfg {
            window_us,
            retain: 8,
            slos: Arc::new(SloSet::default()),
        }
    }

    #[test]
    fn series_keys_sort_labels() {
        assert_eq!(series_key("a", &[]), "a");
        assert_eq!(series_key("a", &[("z", "1"), ("b", "2")]), "a{b=2,z=1}");
        assert!(key_in_family("a{b=2}", "a"));
        assert!(key_in_family("a", "a"));
        assert!(!key_in_family("ab", "a"));
        assert!(!key_in_family("a.b{x=1}", "a"));
    }

    #[test]
    fn disabled_timeline_is_inert() {
        let t = Timeline::new();
        assert!(!t.enabled());
        let c = t.counter("x", &[]);
        c.add(5);
        let buf = BufferSink::new();
        t.advance_to(10_000_000, &buf);
        t.flush(&buf);
        assert!(buf.is_empty());
        assert!(t.recent_frames().is_empty());
    }

    #[test]
    fn windows_close_on_boundary_and_counters_reset() {
        let t = Timeline::with_cfg(cfg(1_000));
        assert!(t.enabled());
        t.set_run("r1");
        let c = t.counter("hits", &[("asn", "7")]);
        let buf = BufferSink::new();
        c.add(3);
        t.advance_to(500, &buf); // still window 0
        assert!(buf.is_empty());
        c.add(2);
        t.advance_to(1_500, &buf); // crosses into window 1
        let frames = t.recent_frames();
        assert_eq!(frames.len(), 1);
        let f = &frames[0];
        assert_eq!((f.start_us, f.end_us), (0, 1_000));
        assert_eq!(f.run, "r1");
        assert_eq!(f.series["hits{asn=7}"], SeriesSample::Count(5));
        // Counter reset: next window counts only new samples.
        c.add(1);
        t.advance_to(2_100, &buf);
        assert_eq!(
            t.recent_frames()[1].series["hits{asn=7}"],
            SeriesSample::Count(1)
        );
        // Frames reached the sink as ts.frame events.
        let evs = buf.take();
        assert_eq!(evs.len(), 2);
        assert!(evs.iter().all(|e| e.name == FRAME_EVENT));
        assert_eq!(evs[0].ts_us, 1_000);
    }

    #[test]
    fn empty_crossed_windows_emit_zero_frames() {
        let t = Timeline::with_cfg(cfg(1_000));
        let _c = t.counter("hits", &[]);
        let buf = BufferSink::new();
        t.advance_to(3_500, &buf); // crosses windows 0,1,2
        let frames = t.recent_frames();
        assert_eq!(frames.len(), 3);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.start_us, i as u64 * 1_000);
            assert_eq!(f.series["hits"], SeriesSample::Count(0));
        }
    }

    #[test]
    fn gauge_carries_last_forward_and_tracks_min_max() {
        let t = Timeline::with_cfg(cfg(1_000));
        let g = t.gauge("depth", &[]);
        let buf = BufferSink::new();
        g.set(5);
        g.set(2);
        g.set(9);
        t.advance_to(1_200, &buf);
        assert_eq!(
            t.recent_frames()[0].series["depth"],
            SeriesSample::Gauge {
                last: 9,
                min: 2,
                max: 9
            }
        );
        // Quiet window: level carries forward, min = max = last.
        t.advance_to(2_200, &buf);
        assert_eq!(
            t.recent_frames()[1].series["depth"],
            SeriesSample::Gauge {
                last: 9,
                min: 9,
                max: 9
            }
        );
    }

    #[test]
    fn unsampled_gauge_and_empty_hist_are_omitted() {
        let t = Timeline::with_cfg(cfg(1_000));
        let _g = t.gauge("depth", &[]);
        let _h = t.hist("lat", &[]);
        let c = t.counter("hits", &[]);
        c.inc();
        let buf = BufferSink::new();
        t.advance_to(1_500, &buf);
        let f = &t.recent_frames()[0];
        assert_eq!(
            f.series.len(),
            1,
            "only the counter sampled: {:?}",
            f.series
        );
    }

    #[test]
    fn hist_digest_resets_per_window() {
        let t = Timeline::with_cfg(cfg(1_000));
        let h = t.hist("lat", &[]);
        let buf = BufferSink::new();
        for ms in [10u64, 20, 30] {
            h.observe_us(ms * 1_000);
        }
        t.advance_to(1_500, &buf);
        let f0 = &t.recent_frames()[0];
        match &f0.series["lat"] {
            SeriesSample::Digest { count, p50_us, .. } => {
                assert_eq!(*count, 3);
                let p50 = *p50_us as f64;
                assert!((p50 - 20_000.0).abs() / 20_000.0 < 0.02, "{p50}");
            }
            other => panic!("expected digest, got {other:?}"),
        }
        h.observe_us(5_000);
        t.advance_to(2_500, &buf);
        match &t.recent_frames()[1].series["lat"] {
            SeriesSample::Digest { count, sum_us, .. } => {
                assert_eq!(*count, 1);
                assert_eq!(*sum_us, 5_000);
            }
            other => panic!("expected digest, got {other:?}"),
        }
    }

    #[test]
    fn flush_closes_the_open_window_once() {
        let t = Timeline::with_cfg(cfg(1_000_000));
        let c = t.counter("hits", &[]);
        c.add(4);
        let buf = BufferSink::new();
        t.flush(&buf);
        let frames = t.recent_frames();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].series["hits"], SeriesSample::Count(4));
        assert_eq!(frames[0].end_us, 1_000_000, "nominal window width kept");
    }

    #[test]
    fn frame_event_roundtrips_through_json() {
        let t = Timeline::with_cfg(cfg(1_000));
        t.set_run("rate=0.3");
        t.counter("c", &[("asn", "1")]).add(7);
        t.gauge("g", &[]).set(-3);
        t.hist("h", &[]).observe_us(123);
        let buf = BufferSink::new();
        t.advance_to(1_500, &buf);
        let f = &t.recent_frames()[0];
        let line = f.to_event().to_json();
        let parsed = Frame::parse(&line).expect("frame parses");
        assert_eq!(&parsed, f);
        // Non-frame lines are rejected.
        assert!(Frame::parse(&Event::point("other", 1).to_json()).is_none());
    }

    #[test]
    fn cardinality_cap_routes_to_overflow() {
        let t = Timeline::with_cfg(cfg(1_000));
        for i in 0..MAX_SERIES + 10 {
            let v = i.to_string();
            t.counter("c", &[("id", v.as_str())]).inc();
        }
        let buf = BufferSink::new();
        t.advance_to(1_500, &buf);
        let f = &t.recent_frames()[0];
        // The shared overflow series itself sits one past the cap.
        assert!(f.series.len() <= MAX_SERIES + 1);
        let overflow = f.series["_overflow"].count().unwrap();
        assert!(overflow >= 10, "overflowing series counted: {overflow}");
    }

    #[test]
    fn huge_clock_jump_is_capped_and_recorded() {
        let t = Timeline::with_cfg(cfg(1));
        t.counter("c", &[]).inc();
        let buf = BufferSink::new();
        // Jump ~10^7 windows: far past the per-advance cap. The cap
        // closes a bounded number of frames, then skips to the target.
        t.advance_to(10_000_000, &buf);
        // The next closed frame records the size of the gap.
        t.counter("c", &[]).inc();
        t.advance_to(10_000_002, &buf);
        let frames = t.recent_frames();
        let first_after_gap = frames
            .iter()
            .find(|f| f.skipped > 0)
            .expect("gap recorded on the frame after the skip");
        assert_eq!(first_after_gap.start_us, 10_000_000);
        assert!(first_after_gap.skipped > 1_000_000);
    }

    #[test]
    fn family_count_sums_labels() {
        let t = Timeline::with_cfg(cfg(1_000));
        t.counter("hits", &[("asn", "1")]).add(2);
        t.counter("hits", &[("asn", "2")]).add(3);
        t.counter("hitsx", &[]).add(100);
        let buf = BufferSink::new();
        t.advance_to(1_500, &buf);
        assert_eq!(t.recent_frames()[0].family_count("hits"), 5);
    }

    #[test]
    fn child_inherits_cfg_with_fresh_state() {
        let t = Timeline::with_cfg(cfg(2_000));
        t.counter("c", &[]).add(9);
        let child = t.child();
        assert!(child.enabled());
        assert_eq!(child.cfg().unwrap().window_us, 2_000);
        assert!(child.recent_frames().is_empty());
        let buf = BufferSink::new();
        child.advance_to(5_000, &buf);
        assert!(
            child.recent_frames().is_empty(),
            "no series registered in the child yet"
        );
        assert!(Timeline::new().child().cfg().is_none());
    }
}
