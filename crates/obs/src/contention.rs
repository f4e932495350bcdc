//! Lock contention attribution: timed `Mutex`/`RwLock` wrappers.
//!
//! The scaling question this answers: when store ingest goes flat as
//! writers are added, is the store lock-bound or compute-bound? Nothing in a
//! metrics snapshot could say, because wait time inside
//! `std::sync::Mutex::lock` is invisible. [`TimedMutex`] and
//! [`TimedRwLock`] make it visible: every acquisition records wait time
//! (request → grant) and hold time (grant → release) into per-lock-family
//! histograms, plus acquisition/contended counters:
//!
//! - `lock.<family>.acquires` / `lock.<family>.contended` (counters)
//! - `lock.<family>.wait_us` / `lock.<family>.hold_us` (histograms)
//!
//! `TimedRwLock` splits into `<family>.read` and `<family>.write`
//! sub-families, because read-side and write-side contention mean
//! different remedies (sharding vs. caching).
//!
//! ## Cost model
//!
//! The wrappers resolve their stats handles **at construction** from the
//! current [`crate::scope`]. When the scope's [`PerfMode`] is `Off`
//! (the default), the handle is `None` and every lock/read/write call is
//! a pure delegate to the underlying `std` primitive — no atomics, no
//! clock reads, no registry traffic. This is what keeps the existing
//! determinism contract intact: a run that never opts in produces
//! byte-identical snapshots with or without this module compiled in.
//!
//! ## Time source
//!
//! Wait and hold times are real: [`PerfMode::Monotonic`] reads
//! `Instant`, so the microseconds vary run to run. Acquisition counts
//! do not — they are a pure function of the workload, which is what
//! the lock-count tests pin.
//!
//! Poisoning panics, matching the `lock().unwrap()` discipline the
//! callers already had; writers that must survive panics should keep
//! using `std` primitives with explicit recovery.

use crate::metrics::{Counter, Histogram};
use crate::scope;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use std::time::Instant;

/// How the perf-attribution layer measures lock wait/hold time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PerfMode {
    /// No attribution: timed locks are pure delegates (default).
    #[default]
    Off,
    /// Timestamps from a monotonic wall clock: real wait/hold
    /// microseconds, at the cost of run-to-run variance.
    Monotonic,
}

impl PerfMode {
    /// Parse a CLI spelling: `off` or `wall`.
    pub fn parse(s: &str) -> Option<PerfMode> {
        match s {
            "off" => Some(PerfMode::Off),
            "wall" => Some(PerfMode::Monotonic),
            _ => None,
        }
    }

    pub(crate) fn from_u8(v: u8) -> PerfMode {
        match v {
            1 => PerfMode::Monotonic,
            _ => PerfMode::Off,
        }
    }

    pub(crate) fn as_u8(self) -> u8 {
        match self {
            PerfMode::Off => 0,
            PerfMode::Monotonic => 1,
        }
    }
}

/// Pre-resolved metric handles for one lock family
/// (`lock.<family>.{acquires,contended,wait_us,hold_us}`).
///
/// One `LockStats` can be shared by many locks — all sixteen store
/// shards report into a single `store.shard.records` family, which is
/// what an attribution table wants (per-shard split is a cardinality
/// explosion with no extra signal).
#[derive(Debug)]
pub struct LockStats {
    acquires: Arc<Counter>,
    contended: Arc<Counter>,
    wait_us: Arc<Histogram>,
    hold_us: Arc<Histogram>,
    /// Timestamps are microseconds since the family was resolved.
    epoch: Instant,
}

impl LockStats {
    /// Resolve the family `lock.<name>.*` against the current scope's
    /// registry, or `None` when the scope's [`PerfMode`] is `Off`.
    ///
    /// Call at construction time and share the result (`Arc`) across
    /// related locks; resolving is the only registry interaction.
    pub fn resolve(name: &str) -> Option<Arc<LockStats>> {
        let ctx = scope::current();
        if ctx.perf_mode() == PerfMode::Off {
            return None;
        }
        let reg = &ctx.registry;
        Some(Arc::new(LockStats {
            acquires: reg.counter(&format!("lock.{name}.acquires")),
            contended: reg.counter(&format!("lock.{name}.contended")),
            wait_us: reg.histogram(&format!("lock.{name}.wait_us")),
            hold_us: reg.histogram(&format!("lock.{name}.hold_us")),
            epoch: Instant::now(),
        }))
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Acquisition requested; returns the request timestamp.
    fn begin(&self) -> u64 {
        self.acquires.inc();
        self.now_us()
    }

    /// Acquisition granted; records wait and returns the grant
    /// timestamp (for hold-time measurement at release).
    fn granted(&self, requested_us: u64, contended: bool) -> u64 {
        let now = self.now_us();
        if contended {
            self.contended.inc();
        }
        self.wait_us.observe_us(now.saturating_sub(requested_us));
        now
    }

    /// Guard dropped; records hold time.
    fn released(&self, granted_us: u64) {
        self.hold_us
            .observe_us(self.now_us().saturating_sub(granted_us));
    }
}

/// Read/write stats pair for a [`TimedRwLock`] family.
#[derive(Debug)]
pub struct RwStats {
    read: Arc<LockStats>,
    write: Arc<LockStats>,
}

impl RwStats {
    /// Resolve `lock.<name>.read.*` and `lock.<name>.write.*`, or
    /// `None` when the current scope's [`PerfMode`] is `Off`.
    pub fn resolve(name: &str) -> Option<Arc<RwStats>> {
        let read = LockStats::resolve(&format!("{name}.read"))?;
        let write = LockStats::resolve(&format!("{name}.write"))
            .expect("perf mode changed between resolves");
        Some(Arc::new(RwStats { read, write }))
    }
}

/// Hold-time recorder embedded in guards: records into `stats` when the
/// guard drops.
#[derive(Debug)]
struct HoldTimer {
    stats: Arc<LockStats>,
    granted_us: u64,
}

impl Drop for HoldTimer {
    fn drop(&mut self) {
        self.stats.released(self.granted_us);
    }
}

/// A `Mutex<T>` that attributes wait and hold time to a lock family.
///
/// With stats disabled (the default [`PerfMode::Off`]) this is a
/// zero-overhead newtype over `std::sync::Mutex`.
#[derive(Debug)]
pub struct TimedMutex<T> {
    stats: Option<Arc<LockStats>>,
    inner: Mutex<T>,
}

impl<T> TimedMutex<T> {
    /// A mutex in the family `lock.<name>.*`, resolved against the
    /// current scope (no-op family if perf mode is off).
    pub fn new(name: &str, value: T) -> TimedMutex<T> {
        TimedMutex::with_stats(LockStats::resolve(name), value)
    }

    /// A mutex sharing an already-resolved stats family (or none).
    pub fn with_stats(stats: Option<Arc<LockStats>>, value: T) -> TimedMutex<T> {
        TimedMutex {
            stats,
            inner: Mutex::new(value),
        }
    }

    /// Acquire, recording wait/hold when stats are attached.
    ///
    /// # Panics
    /// If the lock is poisoned — same contract as the
    /// `lock().unwrap()` call sites this replaces.
    pub fn lock(&self) -> TimedMutexGuard<'_, T> {
        let Some(stats) = &self.stats else {
            return TimedMutexGuard {
                guard: self.inner.lock().expect("timed mutex poisoned"),
                _hold: None,
            };
        };
        let requested = stats.begin();
        let (guard, contended) = match self.inner.try_lock() {
            Ok(g) => (g, false),
            Err(TryLockError::WouldBlock) => {
                (self.inner.lock().expect("timed mutex poisoned"), true)
            }
            Err(TryLockError::Poisoned(e)) => panic!("timed mutex poisoned: {e}"),
        };
        let granted = stats.granted(requested, contended);
        TimedMutexGuard {
            guard,
            _hold: Some(HoldTimer {
                stats: Arc::clone(stats),
                granted_us: granted,
            }),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().expect("timed mutex poisoned")
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().expect("timed mutex poisoned")
    }
}

/// Guard for [`TimedMutex`]; records hold time on drop.
#[derive(Debug)]
pub struct TimedMutexGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    _hold: Option<HoldTimer>,
}

impl<T> Deref for TimedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for TimedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// An `RwLock<T>` that attributes wait and hold time, split into
/// `.read` and `.write` sub-families.
#[derive(Debug)]
pub struct TimedRwLock<T> {
    stats: Option<Arc<RwStats>>,
    inner: RwLock<T>,
}

impl<T> TimedRwLock<T> {
    /// An rwlock in the families `lock.<name>.read.*` /
    /// `lock.<name>.write.*`, resolved against the current scope.
    pub fn new(name: &str, value: T) -> TimedRwLock<T> {
        TimedRwLock::with_stats(RwStats::resolve(name), value)
    }

    /// An rwlock sharing an already-resolved stats pair (or none).
    pub fn with_stats(stats: Option<Arc<RwStats>>, value: T) -> TimedRwLock<T> {
        TimedRwLock {
            stats,
            inner: RwLock::new(value),
        }
    }

    /// Shared acquire, recording into the `.read` sub-family.
    ///
    /// # Panics
    /// If the lock is poisoned.
    pub fn read(&self) -> TimedReadGuard<'_, T> {
        let Some(stats) = &self.stats else {
            return TimedReadGuard {
                guard: self.inner.read().expect("timed rwlock poisoned"),
                _hold: None,
            };
        };
        let requested = stats.read.begin();
        let (guard, contended) = match self.inner.try_read() {
            Ok(g) => (g, false),
            Err(TryLockError::WouldBlock) => {
                (self.inner.read().expect("timed rwlock poisoned"), true)
            }
            Err(TryLockError::Poisoned(e)) => panic!("timed rwlock poisoned: {e}"),
        };
        let granted = stats.read.granted(requested, contended);
        TimedReadGuard {
            guard,
            _hold: Some(HoldTimer {
                stats: Arc::clone(&stats.read),
                granted_us: granted,
            }),
        }
    }

    /// Exclusive acquire, recording into the `.write` sub-family.
    ///
    /// # Panics
    /// If the lock is poisoned.
    pub fn write(&self) -> TimedWriteGuard<'_, T> {
        let Some(stats) = &self.stats else {
            return TimedWriteGuard {
                guard: self.inner.write().expect("timed rwlock poisoned"),
                _hold: None,
            };
        };
        let requested = stats.write.begin();
        let (guard, contended) = match self.inner.try_write() {
            Ok(g) => (g, false),
            Err(TryLockError::WouldBlock) => {
                (self.inner.write().expect("timed rwlock poisoned"), true)
            }
            Err(TryLockError::Poisoned(e)) => panic!("timed rwlock poisoned: {e}"),
        };
        let granted = stats.write.granted(requested, contended);
        TimedWriteGuard {
            guard,
            _hold: Some(HoldTimer {
                stats: Arc::clone(&stats.write),
                granted_us: granted,
            }),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().expect("timed rwlock poisoned")
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().expect("timed rwlock poisoned")
    }
}

/// Shared guard for [`TimedRwLock`]; records read hold time on drop.
#[derive(Debug)]
pub struct TimedReadGuard<'a, T> {
    guard: RwLockReadGuard<'a, T>,
    _hold: Option<HoldTimer>,
}

impl<T> Deref for TimedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

/// Exclusive guard for [`TimedRwLock`]; records write hold time on drop.
#[derive(Debug)]
pub struct TimedWriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    _hold: Option<HoldTimer>,
}

impl<T> Deref for TimedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for TimedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::{install, ObsCtx};
    use std::sync::Arc;

    #[test]
    fn off_mode_registers_nothing() {
        let ctx = Arc::new(ObsCtx::new());
        let _g = install(ctx.clone());
        let m = TimedMutex::new("test.m", 0u32);
        *m.lock() += 1;
        let rw = TimedRwLock::new("test.rw", 0u32);
        *rw.write() += 1;
        assert_eq!(*rw.read(), 1);
        let snap = ctx.registry.snapshot().to_string_compact();
        assert!(
            !snap.contains("lock."),
            "perf off must leave zero lock metrics, got {snap}"
        );
    }

    #[test]
    fn counts_every_acquisition() {
        let ctx = Arc::new(ObsCtx::new().with_perf(PerfMode::Monotonic));
        let _g = install(ctx.clone());
        let m = TimedMutex::new("test.m", 0u32);
        for _ in 0..5 {
            *m.lock() += 1;
        }
        assert_eq!(ctx.registry.counter("lock.test.m.acquires").get(), 5);
        assert_eq!(ctx.registry.counter("lock.test.m.contended").get(), 0);
        assert_eq!(ctx.registry.histogram("lock.test.m.wait_us").count(), 5);
        assert_eq!(ctx.registry.histogram("lock.test.m.hold_us").count(), 5);
    }

    #[test]
    fn rwlock_splits_read_and_write_families() {
        let ctx = Arc::new(ObsCtx::new().with_perf(PerfMode::Monotonic));
        let _g = install(ctx.clone());
        let rw = TimedRwLock::new("test.rw", 0u32);
        *rw.write() += 1;
        for _ in 0..3 {
            let _ = *rw.read();
        }
        assert_eq!(ctx.registry.counter("lock.test.rw.read.acquires").get(), 3);
        assert_eq!(ctx.registry.counter("lock.test.rw.write.acquires").get(), 1);
    }

    #[test]
    fn shared_stats_aggregate_across_locks() {
        let ctx = Arc::new(ObsCtx::new().with_perf(PerfMode::Monotonic));
        let _g = install(ctx.clone());
        let stats = LockStats::resolve("test.shared");
        let locks: Vec<TimedMutex<u32>> = (0..4)
            .map(|_| TimedMutex::with_stats(stats.clone(), 0))
            .collect();
        for l in &locks {
            *l.lock() += 1;
        }
        assert_eq!(ctx.registry.counter("lock.test.shared.acquires").get(), 4);
    }

    #[test]
    fn monotonic_mode_sees_contention() {
        let ctx = Arc::new(ObsCtx::new().with_perf(PerfMode::Monotonic));
        let m = {
            let _g = install(ctx.clone());
            Arc::new(TimedMutex::new("test.busy", ()))
        };
        let held = m.lock();
        let m2 = Arc::clone(&m);
        let waiter = std::thread::spawn(move || {
            let _g = m2.lock();
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        drop(held);
        waiter.join().unwrap();
        assert_eq!(ctx.registry.counter("lock.test.busy.contended").get(), 1);
        assert!(
            ctx.registry.histogram("lock.test.busy.wait_us").sum_us() > 0,
            "a blocked waiter must record nonzero wait"
        );
    }

    #[test]
    fn perf_mode_parse() {
        assert_eq!(PerfMode::parse("off"), Some(PerfMode::Off));
        assert_eq!(PerfMode::parse("wall"), Some(PerfMode::Monotonic));
        for gone in ["virtual", "monotonic", "bogus"] {
            assert_eq!(PerfMode::parse(gone), None, "{gone}");
        }
    }
}
