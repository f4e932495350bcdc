//! Context plumbing: which registry/sink/clock instrumented code should
//! use, whether progress lines print, and whether locks attribute time.
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
use std::sync::{Arc, OnceLock};

/// A bundle of observability state: metrics registry, event sink,
/// clock, timeline, and two settings fixed when the context is built
/// (`verbose`, the perf mode).
#[derive(Debug)]
pub struct ObsCtx {
    /// Metrics land here.
    pub registry: Arc<Registry>,
    /// Events land here.
    pub sink: Arc<dyn Sink>,
    /// Timestamps come from here; the simulator advances it.
    pub clock: Arc<ManualClock>,
    /// Progress lines on stderr (off by default).
    pub verbose: bool,
    /// Windowed time-series timeline (disabled until configured; see
    /// [`Timeline::configure`]). Interior-mutable: an experiment
    /// configures its windows on the context it finds installed.
    pub timeline: Arc<Timeline>,
    /// Perf-attribution mode, set with [`ObsCtx::with_perf`] before the
    /// context is shared.
    perf: PerfMode,
}

impl Default for ObsCtx {
    fn default() -> Self {
        ObsCtx {
            registry: Arc::new(Registry::new()),
            sink: Arc::new(NullSink),
            clock: Arc::new(ManualClock::new()),
            verbose: false,
            timeline: Arc::new(Timeline::new()),
            perf: PerfMode::Off,
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

    /// Print progress lines on stderr or not.
    pub fn with_verbose(mut self, verbose: bool) -> ObsCtx {
        self.verbose = verbose;
        self
    }

    /// Set the perf-attribution mode.
    pub fn with_perf(mut self, mode: PerfMode) -> ObsCtx {
        self.perf = mode;
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

    /// The perf-attribution mode. [`PerfMode::Off`] by default, so
    /// instrumented locks cost nothing unless a caller opts in. Locks
    /// read it once, when they are built under this context, and keep
    /// their stats handles, so the hot path never re-checks.
    pub fn perf_mode(&self) -> PerfMode {
        self.perf
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
