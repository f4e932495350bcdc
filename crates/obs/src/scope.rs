//! Context plumbing: which registry/sink/clock/verbosity instrumented
//! code should use.
//!
//! Contexts resolve in two steps: the innermost thread-local scope
//! (installed with [`install`]), then a lazily-created default (null
//! sink, manual clock at zero, fresh registry). A thread sees its
//! spawner's scope only if it installs it: the workspace's servers and
//! fan-outs pass `current()` to each thread they spawn.
//!
//! Thread-local scoping is what makes the determinism tests sound:
//! `cargo test` runs tests on many threads, and two same-seed
//! experiment runs must not bleed metrics into each other's
//! registries.

use crate::clock::ManualClock;
use crate::contention::PerfMode;
use crate::metrics::Registry;
use crate::sink::{NullSink, Sink};
use crate::timeseries::Timeline;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

/// A bundle of observability state: metrics registry, event sink,
/// clock, and verbosity level.
#[derive(Debug)]
pub struct ObsCtx {
    /// Metrics land here.
    pub registry: Arc<Registry>,
    /// Events land here.
    pub sink: Arc<dyn Sink>,
    /// Timestamps come from here; the simulator advances it.
    pub clock: Arc<ManualClock>,
    /// 0 = silent (default), ≥ 1 = progress lines on stderr.
    pub verbosity: u8,
    /// Windowed time-series timeline (disabled until configured; see
    /// [`Timeline::configure`]). Interior-mutable like `perf`, so a CLI
    /// can enable windowing after the context is installed.
    pub timeline: Arc<Timeline>,
    /// Perf-attribution mode ([`PerfMode`] as `u8`). Interior-mutable so
    /// a CLI can flip it on after the context is installed.
    perf: AtomicU8,
}

impl Default for ObsCtx {
    fn default() -> Self {
        ObsCtx {
            registry: Arc::new(Registry::new()),
            sink: Arc::new(NullSink),
            clock: Arc::new(ManualClock::new()),
            verbosity: 0,
            timeline: Arc::new(Timeline::new()),
            perf: AtomicU8::new(PerfMode::Off.as_u8()),
        }
    }
}

impl ObsCtx {
    /// A fresh context: new registry, null sink, manual clock at zero.
    pub fn new() -> ObsCtx {
        ObsCtx::default()
    }

    /// Replace the sink.
    pub fn with_sink(mut self, sink: Arc<dyn Sink>) -> ObsCtx {
        self.sink = sink;
        self
    }

    /// Replace the clock (share one clock across contexts).
    pub fn with_clock(mut self, clock: Arc<ManualClock>) -> ObsCtx {
        self.clock = clock;
        self
    }

    /// Set the verbosity level.
    pub fn with_verbosity(mut self, v: u8) -> ObsCtx {
        self.verbosity = v;
        self
    }

    /// Set the perf-attribution mode (builder form).
    pub fn with_perf(self, mode: PerfMode) -> ObsCtx {
        self.set_perf_mode(mode);
        self
    }

    /// Replace the timeline (builder form) — the trial runner hands
    /// each trial a fresh timeline inheriting the parent configuration.
    pub fn with_timeline(mut self, timeline: Arc<Timeline>) -> ObsCtx {
        self.timeline = timeline;
        self
    }

    /// Advance the timeline to virtual time `now_us`, closing any
    /// crossed windows into this context's sink. No-op while the
    /// timeline is unconfigured.
    pub fn advance_timeline(&self, now_us: u64) {
        self.timeline.advance_to(now_us, self.sink.as_ref());
    }

    /// Close the timeline's open window into this context's sink (end
    /// of run).
    pub fn flush_timeline(&self) {
        self.timeline.flush(self.sink.as_ref());
    }

    /// Current perf-attribution mode. [`PerfMode::Off`] by default, so
    /// instrumented locks cost nothing unless a caller opts in.
    pub fn perf_mode(&self) -> PerfMode {
        PerfMode::from_u8(self.perf.load(Ordering::Relaxed))
    }

    /// Flip the perf-attribution mode. Only locks *constructed after*
    /// the call observe the new mode — wrappers capture their stats
    /// handles at construction so the hot path never re-checks.
    pub fn set_perf_mode(&self, mode: PerfMode) {
        self.perf.store(mode.as_u8(), Ordering::Relaxed);
    }
}

thread_local! {
    static SCOPES: RefCell<Vec<Arc<ObsCtx>>> = const { RefCell::new(Vec::new()) };
}

fn fallback() -> &'static Arc<ObsCtx> {
    static DEFAULT: OnceLock<Arc<ObsCtx>> = OnceLock::new();
    DEFAULT.get_or_init(|| Arc::new(ObsCtx::new()))
}

/// The innermost active context: thread-local scope, else the shared
/// default.
pub fn current() -> Arc<ObsCtx> {
    SCOPES.with(|s| s.borrow().last().unwrap_or_else(|| fallback()).clone())
}

/// Install `ctx` for this thread until the returned guard drops.
#[must_use = "the scope ends when the guard drops"]
pub fn install(ctx: Arc<ObsCtx>) -> ScopeGuard {
    SCOPES.with(|s| s.borrow_mut().push(ctx));
    ScopeGuard { _priv: () }
}

/// Pops the thread-local scope on drop.
#[derive(Debug)]
pub struct ScopeGuard {
    _priv: (),
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPES.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_nest_and_restore() {
        let outer = Arc::new(ObsCtx::new());
        let inner = Arc::new(ObsCtx::new());
        let g1 = install(outer.clone());
        assert!(Arc::ptr_eq(&current(), &outer));
        {
            let _g2 = install(inner.clone());
            assert!(Arc::ptr_eq(&current(), &inner));
        }
        assert!(Arc::ptr_eq(&current(), &outer));
        drop(g1);
        // Back to the default — not one of ours.
        assert!(!Arc::ptr_eq(&current(), &outer));
        assert!(!Arc::ptr_eq(&current(), &inner));
    }

    #[test]
    fn scoped_registries_are_isolated() {
        let a = Arc::new(ObsCtx::new());
        let b = Arc::new(ObsCtx::new());
        {
            let _g = install(a.clone());
            current().registry.counter("x").add(5);
        }
        {
            let _g = install(b.clone());
            current().registry.counter("x").add(7);
        }
        assert_eq!(a.registry.counter("x").get(), 5);
        assert_eq!(b.registry.counter("x").get(), 7);
    }
}
