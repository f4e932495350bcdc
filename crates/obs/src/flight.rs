//! Flight recorder: bounded per-trace ring buffers that keep only the
//! trees that ended in failure.
//!
//! A long experiment (or the real proxy) produces far too many events
//! to retain, but the interesting ones — postmortems of censored
//! fetches that *no* transport could serve — are rare. The
//! [`FlightRecorder`] keeps the last N events of every live trace in a
//! small ring; when a trace's root span completes (an event with a
//! trace annotation, a duration, and no parent):
//!
//! - if the root carries `ok: false`, the trace's buffered events are
//!   moved to the failed store (bounded, oldest failure evicted);
//! - otherwise the buffer is discarded — success needs no postmortem.
//!
//! Live traces are bounded too: when more than `max_traces` are in
//! flight (e.g. roots that never complete), the oldest live trace is
//! evicted. All internal locks recover from poison; telemetry never
//! propagates a panic.

use crate::event::Event;
use crate::json::JsonValue;
use crate::sink::{lock_recover, Sink};
use crate::trace::TraceId;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

#[derive(Debug, Default)]
struct Inner {
    /// Live (incomplete) traces: last `per_trace_cap` events each.
    live: BTreeMap<u64, VecDeque<Event>>,
    /// Live trace ids in first-seen order (eviction order).
    order: VecDeque<u64>,
    /// Completed-and-failed traces, oldest first. Each entry carries
    /// the telemetry window frames that preceded the failure.
    failed: VecDeque<FailedTrace>,
    /// Rolling last-N `ts.frame` events: the system-state context a
    /// postmortem snapshots at failure time.
    frames: VecDeque<Event>,
}

#[derive(Debug)]
struct FailedTrace {
    trace: u64,
    events: Vec<Event>,
    frames: Vec<Event>,
}

/// Telemetry window frames a postmortem snapshots alongside the span
/// tree (see [`FlightRecorder::failed_with_frames`]).
const FRAME_CONTEXT: usize = 4;

/// The bounded failure-only retention sink (see module docs).
#[derive(Debug)]
pub struct FlightRecorder {
    per_trace_cap: usize,
    max_traces: usize,
    frame_cap: usize,
    inner: Mutex<Inner>,
    dropped_events: AtomicU64,
    evicted_traces: AtomicU64,
}

impl FlightRecorder {
    /// A recorder keeping the last `per_trace_cap` events for up to
    /// `max_traces` live traces, and at most `max_traces` failed trees.
    /// Each failed tree also snapshots the last `FRAME_CONTEXT` (4)
    /// telemetry window frames (`ts.frame` events) seen before the
    /// failure, so a postmortem shows system state, not just spans.
    pub fn new(per_trace_cap: usize, max_traces: usize) -> FlightRecorder {
        FlightRecorder {
            per_trace_cap: per_trace_cap.max(1),
            max_traces: max_traces.max(1),
            frame_cap: FRAME_CONTEXT,
            inner: Mutex::new(Inner::default()),
            dropped_events: AtomicU64::new(0),
            evicted_traces: AtomicU64::new(0),
        }
    }

    /// Events dropped from full per-trace rings.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events.load(Ordering::Relaxed)
    }

    /// Live traces evicted because too many were in flight.
    pub fn evicted_traces(&self) -> u64 {
        self.evicted_traces.load(Ordering::Relaxed)
    }

    /// Number of traces currently in flight.
    pub fn live_traces(&self) -> usize {
        lock_recover(&self.inner).live.len()
    }

    /// The retained failed trees, oldest first.
    pub fn failed(&self) -> Vec<(TraceId, Vec<Event>)> {
        lock_recover(&self.inner)
            .failed
            .iter()
            .map(|f| (TraceId(f.trace), f.events.clone()))
            .collect()
    }

    /// The retained failed trees with the telemetry window frames that
    /// preceded each failure (oldest trees first; frames oldest first).
    pub fn failed_with_frames(&self) -> Vec<(TraceId, Vec<Event>, Vec<Event>)> {
        lock_recover(&self.inner)
            .failed
            .iter()
            .map(|f| (TraceId(f.trace), f.events.clone(), f.frames.clone()))
            .collect()
    }

    /// Write every retained failed tree as JSONL (same shape the
    /// [`crate::sink::JsonlSink`] writes, so `report trace` reads it).
    /// Each tree is preceded by the window frames it snapshotted, so a
    /// postmortem line stream reads "system state, then the failure".
    pub fn dump_failed_jsonl(&self, w: &mut dyn Write) -> std::io::Result<()> {
        for f in lock_recover(&self.inner).failed.iter() {
            for e in f.frames.iter().chain(f.events.iter()) {
                writeln!(w, "{}", e.to_json().to_string_compact())?;
            }
        }
        Ok(())
    }

    /// Whether a root-completion event marks its trace failed: `ok`
    /// field present and false. A root without `ok` is treated as
    /// success (nothing worth a postmortem was asserted).
    fn root_failed(event: &Event) -> bool {
        event
            .fields
            .iter()
            .find(|(k, _)| *k == "ok")
            .is_some_and(|(_, v)| matches!(v, JsonValue::Bool(false)))
    }
}

impl Sink for FlightRecorder {
    fn record(&self, event: &Event) {
        // Telemetry window frames are untraced but kept in their own
        // rolling ring: they are the "what was the system doing" context
        // a failed tree snapshots at completion time.
        if event.name == crate::timeseries::FRAME_EVENT {
            let mut g = lock_recover(&self.inner);
            if g.frames.len() == self.frame_cap {
                g.frames.pop_front();
            }
            g.frames.push_back(event.clone());
            return;
        }
        // Other untraced events have no tree to belong to; the recorder
        // only answers "what happened inside this failed fetch".
        let Some(t) = &event.trace else { return };
        let key = t.trace.0;
        let mut g = lock_recover(&self.inner);
        if !g.live.contains_key(&key) {
            if g.live.len() == self.max_traces {
                if let Some(oldest) = g.order.pop_front() {
                    g.live.remove(&oldest);
                    self.evicted_traces.fetch_add(1, Ordering::Relaxed);
                }
            }
            g.live.insert(key, VecDeque::new());
            g.order.push_back(key);
        }
        let buf = g.live.get_mut(&key).expect("inserted above");
        if buf.len() == self.per_trace_cap {
            buf.pop_front();
            self.dropped_events.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(event.clone());

        // Root completion: retire the trace.
        if t.parent.is_none() && event.dur_us.is_some() {
            let evs: Vec<Event> = g.live.remove(&key).map(Vec::from).unwrap_or_default();
            g.order.retain(|k| *k != key);
            if Self::root_failed(event) {
                if g.failed.len() == self.max_traces {
                    g.failed.pop_front();
                    self.evicted_traces.fetch_add(1, Ordering::Relaxed);
                }
                let frames: Vec<Event> = g.frames.iter().cloned().collect();
                g.failed.push_back(FailedTrace {
                    trace: key,
                    events: evs,
                    frames,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::{install, ObsCtx};
    use crate::trace;
    use std::sync::Arc;

    fn run_fetch(fr: &Arc<FlightRecorder>, seed: u64, ordinal: u64, ok: bool) {
        let ctx = Arc::new(ObsCtx::new().with_sink(fr.clone()));
        let _g = install(ctx);
        let root = trace::fetch_root(seed, ordinal, 0);
        crate::event::span_completed_at("fetch.detect", 0, 10, &[]);
        crate::event::span_completed_at("fetch.transfer", 10, 20, &[]);
        trace::complete_active("fetch", 0, 30, &[("ok", JsonValue::from(ok))]);
        drop(root);
    }

    #[test]
    fn keeps_failed_trees_discards_successes() {
        let fr = Arc::new(FlightRecorder::new(16, 8));
        run_fetch(&fr, 1, 0, true);
        run_fetch(&fr, 1, 1, false);
        run_fetch(&fr, 1, 2, true);
        assert_eq!(fr.live_traces(), 0, "all roots completed");
        let failed = fr.failed();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, trace::derive(1, trace::stream::FETCH, 1));
        assert_eq!(failed[0].1.len(), 3, "detect + transfer + root");
        let mut out = Vec::new();
        fr.dump_failed_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        for l in text.lines() {
            JsonValue::parse(l).unwrap();
        }
    }

    #[test]
    fn per_trace_ring_is_bounded() {
        let fr = Arc::new(FlightRecorder::new(2, 4));
        let ctx = Arc::new(ObsCtx::new().with_sink(fr.clone()));
        let _g = install(ctx);
        let root = trace::fetch_root(2, 0, 0);
        for i in 0..5 {
            crate::event::span_completed_at("fetch.step", i, 1, &[]);
        }
        trace::complete_active("fetch", 0, 5, &[("ok", JsonValue::from(false))]);
        drop(root);
        assert_eq!(fr.dropped_events(), 4, "ring kept 2 of 6 pre-root events");
        let failed = fr.failed();
        assert_eq!(failed[0].1.len(), 2, "last pre-root event + root");
    }

    #[test]
    fn live_traces_are_bounded() {
        let fr = Arc::new(FlightRecorder::new(8, 2));
        let ctx = Arc::new(ObsCtx::new().with_sink(fr.clone()));
        let _g = install(ctx);
        for ordinal in 0..4 {
            // Roots that never complete (no root-span event).
            let r = trace::fetch_root(3, ordinal, 0);
            crate::event!("fetch.note");
            drop(r);
        }
        assert_eq!(fr.live_traces(), 2);
        assert_eq!(fr.evicted_traces(), 2);
    }

    #[test]
    fn untraced_events_are_ignored() {
        let fr = FlightRecorder::new(4, 4);
        fr.record(&Event::point("loose", 1));
        assert_eq!(fr.live_traces(), 0);
    }

    #[test]
    fn postmortems_snapshot_preceding_window_frames() {
        let fr = Arc::new(FlightRecorder::new(16, 8));
        // Six frames arrive before the failure; the recorder keeps the
        // last FRAME_CONTEXT (= 4) of them.
        for i in 0..6u64 {
            fr.record(&Event::point(crate::timeseries::FRAME_EVENT, i * 100));
        }
        run_fetch(&fr, 9, 0, false);
        let failed = fr.failed_with_frames();
        assert_eq!(failed.len(), 1);
        let (_, events, frames) = &failed[0];
        assert_eq!(events.len(), 3, "span tree unchanged by frame capture");
        assert_eq!(frames.len(), FRAME_CONTEXT);
        assert_eq!(frames[0].ts_us, 200, "oldest two frames evicted");
        assert_eq!(frames[3].ts_us, 500);
        // The JSONL dump leads with the system-state frames.
        let mut out = Vec::new();
        fr.dump_failed_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let first = JsonValue::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(
            first.get("event").and_then(JsonValue::as_str),
            Some(crate::timeseries::FRAME_EVENT)
        );
        assert_eq!(text.lines().count(), 3 + FRAME_CONTEXT);
        // Successful fetches snapshot nothing extra.
        run_fetch(&fr, 9, 1, true);
        assert_eq!(fr.failed_with_frames().len(), 1);
    }
}
