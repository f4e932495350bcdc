//! A small discrete-event scheduler.
//!
//! The simulator computes network operations *analytically* (see
//! [`crate::tcp`]): the experiments, the pilot study, the clients and
//! the benchmark workloads advance time by explicit `SimTime`
//! arithmetic, and none of them schedules an event. This queue is for
//! callers that want event-driven time instead — the end-to-end tests
//! drive a browse-and-sync session through it.
//!
//! Events are an application-defined payload type `E`; ties in firing time
//! break on insertion order, which keeps runs deterministic. Pending events
//! live in a `BTreeMap` keyed by (firing time, schedule sequence), so the
//! map's first entry is always the next event to dispatch.

use crate::time::SimTime;
use std::collections::BTreeMap;

/// Deterministic earliest-first event queue with a virtual clock.
#[derive(Debug)]
pub struct Scheduler<E> {
    /// Pending events keyed by (firing time in µs, schedule sequence).
    queue: BTreeMap<(u64, u64), E>,
    /// Sequence number the next scheduled event gets.
    seq: u64,
    now: SimTime,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// An empty scheduler at t = 0.
    pub fn new() -> Self {
        Scheduler {
            queue: BTreeMap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current virtual time (the firing time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to `now` — the event fires next.
    /// This matches how a real runtime treats an already-expired timer and
    /// keeps the clock monotone.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let at = at.max(self.now);
        self.queue.insert((at.as_micros(), self.seq), payload);
        self.seq += 1;
    }

    /// Pop the next event, advancing the clock to its firing time.
    ///
    /// Deliberately named like `Iterator::next` — a scheduler *is* a
    /// stream of timed events — but not implemented as the trait because
    /// advancing the clock is a semantic side effect callers must opt
    /// into explicitly.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        let ((at, _), payload) = self.queue.pop_first()?;
        self.now = SimTime::from_micros(at);
        Some((self.now, payload))
    }

    /// Run events until the queue is empty or the horizon passes, calling
    /// `f(now, event, scheduler)` for each. `f` may schedule further events.
    ///
    /// Returns the number of events dispatched. Events scheduled at exactly
    /// the horizon still fire; later ones remain queued.
    pub fn run_until<F>(&mut self, horizon: SimTime, mut f: F) -> u64
    where
        F: FnMut(SimTime, E, &mut Scheduler<E>),
    {
        let start_us = self.now.as_micros();
        let mut dispatched = 0;
        // Peak pending depth this window — a pure function of the event
        // sequence, so recording it is deterministic.
        let mut peak_pending = self.queue.len();
        let horizon_us = horizon.as_micros();
        // `now` is updated per event because handlers observe it
        // through `&mut self`.
        while let Some(ev) = self.queue.first_entry().filter(|e| e.key().0 <= horizon_us) {
            let ((at, _), payload) = ev.remove_entry();
            let t = SimTime::from_micros(at);
            self.now = t;
            f(t, payload, self);
            dispatched += 1;
            peak_pending = peak_pending.max(self.queue.len());
        }
        // Clock lands on the horizon even if no event fired exactly there,
        // so repeated run_until calls tile time correctly.
        if self.now < horizon {
            self.now = horizon;
        }
        // Observability at the run boundary only — never per event, so the
        // event loop's hot path stays within its overhead budget.
        let ctx = csaw_obs::scope::current();
        ctx.clock.set_us(self.now.as_micros());
        ctx.registry
            .counter("simnet.events_processed")
            .add(dispatched);
        ctx.registry
            .gauge("simnet.queue_depth")
            .set(self.queue.len() as i64);
        ctx.registry
            .gauge("simnet.sched.peak_pending")
            .set(peak_pending as i64);
        // Windowed health series + window-boundary crossing, when the
        // context collects timelines (disabled timelines skip all of it).
        if ctx.timeline.enabled() {
            ctx.timeline
                .counter("simnet.sched.dispatched", &[])
                .add(dispatched);
            ctx.timeline
                .gauge("simnet.sched.depth", &[])
                .set(self.queue.len() as i64);
            // Peak in-flight depth this run: how backed up the loop got
            // between boundaries (the event-loop lag signal).
            ctx.timeline
                .gauge("simnet.sched.peak_pending", &[])
                .set(peak_pending as i64);
            ctx.advance_timeline(self.now.as_micros());
        }
        if ctx.sink.enabled() {
            csaw_obs::event::span_completed(
                "simnet.run_until",
                horizon.as_micros().saturating_sub(start_us),
                &[
                    ("dispatched", csaw_obs::json::JsonValue::from(dispatched)),
                    ("pending", csaw_obs::json::JsonValue::from(self.queue.len())),
                ],
            );
        }
        dispatched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn fires_in_time_order() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule(SimTime::from_millis(30), "c");
        s.schedule(SimTime::from_millis(10), "a");
        s.schedule(SimTime::from_millis(20), "b");
        let mut order = Vec::new();
        while let Some((_, e)) = s.next() {
            order.push(e);
        }
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(s.now(), SimTime::from_millis(30));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        for i in 0..10 {
            s.schedule(SimTime::from_millis(5), i);
        }
        let got: Vec<u32> = std::iter::from_fn(|| s.next().map(|(_, e)| e)).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn past_schedules_clamp_to_now() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule(SimTime::from_millis(100), "late");
        s.next();
        assert_eq!(s.now(), SimTime::from_millis(100));
        s.schedule(SimTime::from_millis(1), "past");
        let (t, e) = s.next().unwrap();
        assert_eq!(e, "past");
        assert_eq!(t, SimTime::from_millis(100), "clamped to now");
    }

    #[test]
    fn run_until_respects_horizon_and_reentry() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule(SimTime::from_millis(10), 1);
        s.schedule(SimTime::from_millis(50), 2);
        let mut seen = Vec::new();
        let n = s.run_until(SimTime::from_millis(20), |t, e, sched| {
            seen.push((t.as_millis(), e));
            if e == 1 {
                // Handlers can schedule follow-ups.
                sched.schedule(t + SimDuration::from_millis(5), 3);
            }
        });
        assert_eq!(n, 2);
        assert_eq!(seen, vec![(10, 1), (15, 3)]);
        assert_eq!(s.now(), SimTime::from_millis(20), "clock tiles to horizon");
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn horizon_inclusive() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule(SimTime::from_millis(10), "on-horizon");
        let n = s.run_until(SimTime::from_millis(10), |_, _, _| {});
        assert_eq!(n, 1);
    }

    #[test]
    fn run_until_records_peak_pending() {
        let ctx = std::sync::Arc::new(csaw_obs::ObsCtx::new());
        let _g = csaw_obs::install(ctx.clone());
        let mut s: Scheduler<u32> = Scheduler::new();
        for i in 0..4 {
            s.schedule(SimTime::from_millis(i), i as u32);
        }
        // Each handler schedules two follow-ups, so the queue briefly
        // grows past its starting depth before draining.
        s.run_until(SimTime::from_millis(2), |t, e, sched| {
            if e < 4 {
                sched.schedule(t + SimDuration::from_millis(10), e + 100);
                sched.schedule(t + SimDuration::from_millis(11), e + 200);
            }
        });
        let peak = ctx.registry.gauge("simnet.sched.peak_pending").get();
        assert!(
            peak > 4,
            "follow-up scheduling must raise peak pending above the initial depth, got {peak}"
        );
    }

    #[test]
    fn run_until_drives_windowed_series_and_closes_windows() {
        use csaw_obs::{SloSet, WindowCfg};
        use std::sync::Arc;
        let ctx = Arc::new(csaw_obs::ObsCtx::new());
        ctx.timeline.configure(WindowCfg {
            window_us: 5_000, // 5 ms windows
            retain: 8,
            slos: Arc::new(SloSet::empty()),
        });
        let _g = csaw_obs::install(ctx.clone());
        let mut s: Scheduler<u32> = Scheduler::new();
        for i in 0..4 {
            s.schedule(SimTime::from_millis(i * 4), i as u32);
        }
        s.run_until(SimTime::from_millis(7), |_, _, _| {});
        s.run_until(SimTime::from_millis(14), |_, _, _| {});
        let frames = ctx.timeline.recent_frames();
        assert_eq!(frames.len(), 2, "boundaries at 5 ms and 10 ms crossed");
        // Dispatch counts land at the run boundary that recorded them:
        // 2 at the 7 ms boundary (window 0), 2 at 14 ms (window 1).
        let dispatched: u64 = frames
            .iter()
            .map(|f| f.family_count("simnet.sched.dispatched"))
            .sum();
        assert_eq!(dispatched, 4);
        assert!(frames[0].series.contains_key("simnet.sched.depth"));
    }

    #[test]
    fn counters() {
        let mut s: Scheduler<u8> = Scheduler::new();
        s.schedule(SimTime::from_millis(1), 0);
        s.schedule(SimTime::from_millis(2), 1);
        assert_eq!(s.pending(), 2);
        s.next();
        assert_eq!(s.pending(), 1);
    }
}
