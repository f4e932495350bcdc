//! # csaw-obs — dependency-free, virtual-time-aware observability
//!
//! The C-Saw reproduction's evaluation is all about *where time goes*:
//! detection ladders (Table 5), PLT distributions (Figs. 1/5/6), DB
//! lookup costs. This crate gives every other crate a shared way to say
//! so, without dragging in external dependencies or wall-clock
//! nondeterminism:
//!
//! - [`mod@event`]: structured events and spans ([`event!`], [`span_us!`],
//!   [`event::span`]) flowing to a pluggable [`sink`] (null by default,
//!   an in-memory buffer, or a JSONL file);
//! - [`trace`]: causal identity — deterministic trace/span ids with
//!   parent links, so one fetch becomes one reconstructable tree
//!   ([`chrome`] renders recorded events for `chrome://tracing`);
//! - [`metrics`]: a registry of saturating counters, gauges, and
//!   fixed-bucket log-linear histograms, snapshotting to deterministic
//!   JSON;
//! - [`clock`]: the manually-driven clock simulation code advances with
//!   virtual time;
//! - [`scope`]: thread-local contexts so concurrent experiments (and
//!   concurrent tests) keep their telemetry separate;
//! - [`json`]: the deterministic JSON reader, writer and value tree the
//!   rest of the workspace builds wire formats on.
//!
//! Determinism contract: with a [`clock::ManualClock`] driven from
//! `SimTime` and any sink, two same-seed runs produce byte-identical
//! metrics snapshots and traces. With the default null sink, emit
//! sites cost one virtual call.
//!
//! ## Example
//!
//! ```
//! use csaw_obs as obs;
//! use std::sync::Arc;
//!
//! let ctx = Arc::new(obs::ObsCtx::new());
//! let guard = obs::install(ctx.clone());
//! obs::inc("db.hits");
//! obs::observe_secs("detect.time_s", 21.03);
//! obs::event!("stage.done", stage = "dns");
//! drop(guard);
//! let snapshot = ctx.registry.snapshot().to_string_pretty();
//! assert!(snapshot.contains("db.hits"));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod clock;
pub mod contention;
pub mod event;
pub mod json;
pub mod metrics;
pub mod scope;
pub mod sink;
pub mod slo;
pub mod timeseries;
pub mod trace;

pub use clock::ManualClock;
pub use contention::{LockStats, PerfMode, RwStats, TimedMutex, TimedRwLock};
pub use event::{progress, span, Event, SpanGuard};
pub use json::{JsonError, JsonValue};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use scope::{current, install, ObsCtx, ScopeGuard};
pub use sink::{BufferSink, JsonlSink, NullSink, Sink};
pub use slo::{SloKind, SloRule, SloSet, Violation};
pub use timeseries::{
    Frame, SeriesSample, Timeline, TsCounter, TsGauge, TsHist, WindowCfg, FRAME_EVENT,
};
pub use trace::{SpanId, TraceCtx, TraceId};

/// Increment the named counter in the current context by one.
pub fn inc(name: &str) {
    current().registry.counter(name).inc();
}

/// Add `n` to the named counter in the current context.
pub fn add(name: &str, n: u64) {
    current().registry.counter(name).add(n);
}

/// Record `us` into the named histogram in the current context.
pub fn observe_us(name: &str, us: u64) {
    current().registry.histogram(name).observe_us(us);
}

/// Record `secs` into the named histogram in the current context.
pub fn observe_secs(name: &str, secs: f64) {
    current().registry.histogram(name).observe_secs(secs);
}

/// Advance the current context's virtual clock to `us`, then advance
/// the windowed timeline, closing any crossed window boundaries.
pub fn advance_clock_us(us: u64) {
    let ctx = current();
    ctx.clock.set_us(us);
    ctx.advance_timeline(us);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn free_functions_hit_the_scoped_registry() {
        let ctx = Arc::new(ObsCtx::new());
        let _g = install(ctx.clone());
        inc("a");
        add("a", 2);
        observe_us("h", 10);
        observe_secs("h", 0.00002);
        assert_eq!(ctx.registry.counter("a").get(), 3);
        assert_eq!(ctx.registry.histogram("h").count(), 2);
    }

    #[test]
    fn advance_clock_reaches_events() {
        let buf = Arc::new(BufferSink::new(true));
        let ctx = Arc::new(ObsCtx::new().with_sink(buf.clone()));
        let _g = install(ctx);
        advance_clock_us(777);
        crate::event!("tick");
        assert_eq!(buf.take()[0].ts_us, 777);
    }
}
