//! The scheduler's dispatch order against an independent reference.
//!
//! Dispatch order is part of the determinism contract (same seed ⇒
//! byte-identical traces): earliest firing time first, ties in schedule
//! order, past schedules clamped to `now`. This suite replays large
//! randomized schedules — dense with exact-time ties and interleaved
//! mid-run insertions — against a reference that shares no code with
//! the implementation (a plain `Vec` scanned for its minimum
//! `(at, seq)`), and requires the event streams to match element for
//! element.

use csaw_simnet::rng::DetRng;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::Scheduler;

/// The contract as an executable specification: pending events in a
/// `Vec`, the next one found by a linear scan for the least
/// `(at, seq)`, with a clamp-to-now rule.
struct ScanModel {
    pending: Vec<(u64, u64, u64)>,
    now: u64,
    seq: u64,
}

impl ScanModel {
    fn new() -> Self {
        ScanModel {
            pending: Vec::new(),
            now: 0,
            seq: 0,
        }
    }

    fn schedule(&mut self, at: SimTime, payload: u64) {
        let at = at.as_micros().max(self.now);
        self.pending.push((at, self.seq, payload));
        self.seq += 1;
    }

    fn next(&mut self) -> Option<(u64, u64)> {
        let (i, _) = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|&(_, &(at, seq, _))| (at, seq))?;
        let (at, _, payload) = self.pending.swap_remove(i);
        self.now = at;
        Some((at, payload))
    }
}

/// 3k events at randomized times drawn from a small range (so ties are
/// plentiful), fully drained: identical `(time, payload)` streams.
#[test]
fn drain_order_matches_scan_reference_with_ties() {
    for seed in [1u64, 7, 42] {
        let mut rng = DetRng::new(seed);
        let mut sched: Scheduler<u64> = Scheduler::new();
        let mut model = ScanModel::new();
        for i in 0..3_000u64 {
            // ~500 distinct instants for 3k events: heavy tie pressure,
            // with occasional far-future outliers.
            let at = if rng.range_u64(0, 100) == 0 {
                SimTime::from_micros(1_000_000_000 + rng.range_u64(0, 500))
            } else {
                SimTime::from_micros(rng.range_u64(0, 500) * 1_000)
            };
            sched.schedule(at, i);
            model.schedule(at, i);
        }
        let mut n = 0u64;
        loop {
            let got = sched.next();
            let want = model.next();
            assert_eq!(
                got.map(|(t, e)| (t.as_micros(), e)),
                want,
                "seed {seed}: stream diverged at element {n}"
            );
            if want.is_none() {
                break;
            }
            n += 1;
        }
        assert_eq!(n, 3_000, "seed {seed}: wrong number of events drained");
    }
}

/// Interleaved schedule/pop traffic, including past-time schedules that
/// clamp to `now` and same-instant follow-ups scheduled mid-drain — the
/// cases a pure pre-load-then-drain run never hits.
#[test]
fn interleaved_insert_pop_matches_scan_reference() {
    let mut rng = DetRng::new(99);
    let mut sched: Scheduler<u64> = Scheduler::new();
    let mut model = ScanModel::new();
    let mut payload = 0u64;
    for round in 0..2_000u64 {
        let burst = rng.range_u64(1, 4);
        for _ in 0..burst {
            // Mix: near-past (clamps), near-future, same-ms ties,
            // far-future (pending until the final drain).
            let at = match rng.range_u64(0, 4) {
                0 => SimTime::from_micros(rng.range_u64(0, 1 + round)),
                1 => SimTime::from_micros(round * 1_000 + rng.range_u64(0, 2_000)),
                2 => SimTime::from_micros(round * 1_000),
                _ => SimTime::from_micros(10_000_000 + rng.range_u64(0, 1_000)),
            };
            sched.schedule(at, payload);
            model.schedule(at, payload);
            payload += 1;
        }
        for _ in 0..rng.range_u64(0, 3) {
            let got = sched.next().map(|(t, e)| (t.as_micros(), e));
            assert_eq!(got, model.next(), "round {round}: pop diverged");
        }
    }
    loop {
        let got = sched.next().map(|(t, e)| (t.as_micros(), e));
        let want = model.next();
        assert_eq!(got, want, "final drain diverged");
        if want.is_none() {
            break;
        }
    }
}

/// `run_until` keeps its horizon/tiling semantics: events at the
/// horizon fire, later ones stay, handler re-scheduling works, and
/// repeated windows tile the clock.
#[test]
fn run_until_windows_replay_identically() {
    let mut rng = DetRng::new(1234);
    let schedule: Vec<(u64, u64)> = (0..5_000u64)
        .map(|i| (rng.range_u64(0, 2_000_000), i))
        .collect();
    let run = |windows_us: u64| -> Vec<(u64, u64)> {
        let mut s: Scheduler<u64> = Scheduler::new();
        for &(at, p) in &schedule {
            s.schedule(SimTime::from_micros(at), p);
        }
        let mut seen = Vec::new();
        let mut horizon = SimTime::ZERO;
        while s.pending() > 0 {
            horizon += SimDuration::from_micros(windows_us);
            s.run_until(horizon, |t, e, sched| {
                seen.push((t.as_micros(), e));
                if e < 200 {
                    // Same-time follow-up: fires in this window, after
                    // every earlier-scheduled event at this instant.
                    sched.schedule(t, e + 100_000);
                }
            });
        }
        seen
    };
    // One giant window vs many small windows: identical event streams.
    let coarse = run(10_000_000);
    let fine = run(1_000);
    assert_eq!(coarse.len(), 5_000 + 200);
    assert_eq!(coarse, fine, "window tiling changed the event stream");
}
