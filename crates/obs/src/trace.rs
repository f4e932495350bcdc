//! Causal tracing: trace/span identity for per-fetch event trees.
//!
//! The paper's evaluation is a set of *per-fetch* latency decompositions
//! (PLT = detection + circumvention setup + transfer, Figs. 5–7 and
//! Table 5), but flat events cannot answer "where did this fetch's
//! 4.2 s go?". This module gives every event a causal identity:
//!
//! - a [`TraceId`] names one user fetch (or one report post);
//! - a [`SpanId`] names one timed region within it;
//! - parent links turn the events of a trace into a tree.
//!
//! **Determinism contract.** Identifiers are derived *only* from the
//! experiment seed, a stream tag, and a per-client ordinal — never from
//! wall clock or addresses — via [`derive()`]. Span ids are the trace id
//! mixed with a per-trace sequence number assigned in emission order.
//! Two same-seed runs therefore produce byte-identical traces.
//!
//! Context is carried on a thread-local frame stack, mirroring
//! [`crate::scope`]: [`root`] opens a trace (one per fetch), [`child`]
//! opens a nested span, and every emission in [`mod@crate::event`] annotates
//! itself with the innermost frame. With no active trace the module is
//! inert and emission behaves exactly as before.
//!
//! The root frame also carries a **cursor**: an absolute virtual-time
//! offset (µs) that sequential stages advance as they emit, so deeply
//! nested code (e.g. the circumvention selector) can place its spans on
//! the fetch's waterfall without threading timestamps through every
//! signature.

use crate::json::JsonValue;
use std::cell::{Cell, RefCell};

/// Identifies one causal tree (one user fetch, one report post, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Identifies one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl TraceId {
    /// Lower-case fixed-width hex, the wire form ([`JsonValue::Num`] is
    /// an f64 and cannot carry 64 bits exactly).
    pub fn to_hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl SpanId {
    /// Lower-case fixed-width hex (see [`TraceId::to_hex`]).
    pub fn to_hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Well-known stream tags for [`derive()`], so different kinds of traces
/// from the same seed never collide.
pub mod stream {
    /// User fetches (`csaw::client` requests, experiment fetch loops).
    pub const FETCH: u64 = 0;
    /// Report posts to the global DB.
    pub const REPORT: u64 = 1;
    /// Real-proxy request handling.
    pub const PROXY: u64 = 2;
}

/// SplitMix64 finalizer — the same mixer the in-tree RNG family uses;
/// full-avalanche, so consecutive ordinals land far apart.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministically derive a trace id from `(seed, stream, ordinal)`.
/// Never zero (zero is reserved as "no trace" in compact encodings).
pub fn derive(seed: u64, stream: u64, ordinal: u64) -> TraceId {
    let id = mix(mix(seed ^ mix(stream)).wrapping_add(ordinal));
    TraceId(if id == 0 { 1 } else { id })
}

/// The span id of the `seq`-th span of a trace (seq 0 is the root).
fn span_of(trace: TraceId, seq: u64) -> SpanId {
    let id = mix(trace.0 ^ mix(seq.wrapping_add(1)));
    SpanId(if id == 0 { 1 } else { id })
}

/// The causal annotation one event carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// The tree this event belongs to.
    pub trace: TraceId,
    /// The span this event *is* (span events) or sits inside (points).
    pub span: SpanId,
    /// The parent span; `None` for the root.
    pub parent: Option<SpanId>,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    trace: TraceId,
    span: SpanId,
    parent: Option<SpanId>,
}

thread_local! {
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    // Next span sequence number for the innermost *root*; saved/restored
    // by RootScope so nested roots (a report post inside an experiment
    // loop) never reuse a sequence number within one trace.
    static SEQ: Cell<u64> = const { Cell::new(1) };
    // Waterfall cursor: absolute µs where the next sequential stage of
    // the innermost root starts.
    static CURSOR: Cell<u64> = const { Cell::new(0) };
}

/// True when a trace frame is active on this thread — the cheap gate for
/// instrumentation that only matters inside a fetch tree.
pub fn in_trace() -> bool {
    FRAMES.with(|f| !f.borrow().is_empty())
}

/// The innermost frame's annotation, if a trace is active. Point events
/// use this directly: they belong *to* the active span.
pub fn active() -> Option<TraceCtx> {
    FRAMES.with(|f| {
        f.borrow().last().map(|fr| TraceCtx {
            trace: fr.trace,
            span: fr.span,
            parent: fr.parent,
        })
    })
}

/// Allocate a fresh child annotation under the active frame, if any.
/// Span events (completed regions) use this so every region gets its own
/// id with the active span as parent.
pub fn next_span() -> Option<TraceCtx> {
    FRAMES.with(|f| {
        let frames = f.borrow();
        let top = frames.last()?;
        let seq = SEQ.with(|s| {
            let v = s.get();
            s.set(v + 1);
            v
        });
        Some(TraceCtx {
            trace: top.trace,
            span: span_of(top.trace, seq),
            parent: Some(top.span),
        })
    })
}

/// The root-frame waterfall cursor (absolute µs), if a trace is active.
pub fn cursor_us() -> Option<u64> {
    if in_trace() {
        Some(CURSOR.with(|c| c.get()))
    } else {
        None
    }
}

/// Move the cursor to an absolute time.
pub fn set_cursor_us(us: u64) {
    if in_trace() {
        CURSOR.with(|c| c.set(us));
    }
}

/// Advance the cursor by `dur_us` (sequential stages call this as they
/// emit, so the next stage starts where they ended).
pub fn advance_cursor_us(dur_us: u64) {
    if in_trace() {
        CURSOR.with(|c| c.set(c.get().saturating_add(dur_us)));
    }
}

/// Open a root trace frame starting at absolute time `start_us`.
///
/// The returned guard keeps the frame active until dropped; dropping
/// restores any enclosing root's sequence counter and cursor. One root
/// per user fetch is the intended granularity.
#[must_use = "the trace ends when the guard drops"]
pub fn root(trace: TraceId, start_us: u64) -> RootScope {
    let span = span_of(trace, 0);
    FRAMES.with(|f| {
        f.borrow_mut().push(Frame {
            trace,
            span,
            parent: None,
        })
    });
    let saved_seq = SEQ.with(|s| s.replace(1));
    let saved_cursor = CURSOR.with(|c| c.replace(start_us));
    RootScope {
        ctx: TraceCtx {
            trace,
            span,
            parent: None,
        },
        start_us,
        saved_seq,
        saved_cursor,
    }
}

/// Convenience: open a fetch-stream root for `(seed, ordinal)`.
pub fn fetch_root(seed: u64, ordinal: u64, start_us: u64) -> RootScope {
    root(derive(seed, stream::FETCH, ordinal), start_us)
}

/// An active root trace frame; pops on drop.
#[derive(Debug)]
pub struct RootScope {
    ctx: TraceCtx,
    start_us: u64,
    saved_seq: u64,
    saved_cursor: u64,
}

impl RootScope {
    /// This root's annotation.
    pub fn ctx(&self) -> TraceCtx {
        self.ctx
    }

    /// The trace id.
    pub fn trace(&self) -> TraceId {
        self.ctx.trace
    }

    /// Where the trace started (absolute µs).
    pub fn start_us(&self) -> u64 {
        self.start_us
    }
}

impl Drop for RootScope {
    fn drop(&mut self) {
        FRAMES.with(|f| {
            f.borrow_mut().pop();
        });
        SEQ.with(|s| s.set(self.saved_seq));
        CURSOR.with(|c| c.set(self.saved_cursor));
    }
}

/// Open a child span frame under the active frame. Inert (and free)
/// when no trace is active.
#[must_use = "the span ends when the guard drops"]
pub fn child() -> ChildScope {
    let ctx = next_span();
    if let Some(c) = ctx {
        FRAMES.with(|f| {
            f.borrow_mut().push(Frame {
                trace: c.trace,
                span: c.span,
                parent: c.parent,
            })
        });
    }
    ChildScope { ctx }
}

/// An active child span frame; pops on drop. Inert if opened outside a
/// trace.
#[derive(Debug)]
pub struct ChildScope {
    ctx: Option<TraceCtx>,
}

impl ChildScope {
    /// This frame's annotation (None when opened outside a trace).
    pub fn ctx(&self) -> Option<TraceCtx> {
        self.ctx
    }
}

impl Drop for ChildScope {
    fn drop(&mut self) {
        if self.ctx.is_some() {
            FRAMES.with(|f| {
                f.borrow_mut().pop();
            });
        }
    }
}

/// Emit the span-completion event for the *active frame itself* (rather
/// than a fresh child): this is how a fetch's root span — whose duration
/// the caller computed in virtual time — is closed from code that only
/// knows "a trace is active", e.g. the redundancy engine closing the
/// root its caller opened. Falls back to an untraced span event when no
/// trace is active.
pub fn complete_active(
    name: &str,
    start_us: u64,
    dur_us: u64,
    fields: &[(&'static str, JsonValue)],
) {
    let ctx = crate::scope::current();
    if !ctx.sink.enabled() {
        return;
    }
    ctx.sink.record(&crate::event::Event {
        ts_us: start_us,
        name: name.to_string(),
        dur_us: Some(dur_us),
        fields: fields.to_vec(),
        trace: active(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::{install, ObsCtx};
    use crate::sink::BufferSink;
    use std::sync::Arc;

    #[test]
    fn derivation_is_deterministic_and_stream_separated() {
        assert_eq!(derive(1, stream::FETCH, 0), derive(1, stream::FETCH, 0));
        assert_ne!(derive(1, stream::FETCH, 0), derive(1, stream::FETCH, 1));
        assert_ne!(derive(1, stream::FETCH, 0), derive(1, stream::REPORT, 0));
        assert_ne!(derive(1, stream::FETCH, 0), derive(2, stream::FETCH, 0));
    }

    #[test]
    fn hex_roundtrip() {
        let t = derive(7, stream::FETCH, 3);
        assert_eq!(u64::from_str_radix(&t.to_hex(), 16), Ok(t.0));
        assert_eq!(t.to_hex().len(), 16);
        let s = span_of(t, 4);
        assert_eq!(u64::from_str_radix(&s.to_hex(), 16), Ok(s.0));
    }

    #[test]
    fn frames_nest_and_allocate_unique_spans() {
        assert!(!in_trace());
        let r = fetch_root(1, 0, 100);
        assert!(in_trace());
        let root_ctx = active().unwrap();
        assert_eq!(root_ctx.parent, None);
        let mut seen = std::collections::HashSet::new();
        seen.insert(root_ctx.span);
        {
            let c1 = child();
            let c1_ctx = c1.ctx().unwrap();
            assert_eq!(c1_ctx.parent, Some(root_ctx.span));
            assert!(seen.insert(c1_ctx.span), "span ids unique");
            {
                let c2 = child();
                let c2_ctx = c2.ctx().unwrap();
                assert_eq!(c2_ctx.parent, Some(c1_ctx.span));
                assert!(seen.insert(c2_ctx.span));
            }
            // Sibling after nested child: still unique, same parent.
            let c3 = next_span().unwrap();
            assert_eq!(c3.parent, Some(c1_ctx.span));
            assert!(seen.insert(c3.span));
        }
        assert_eq!(active().unwrap().span, root_ctx.span, "back to root");
        drop(r);
        assert!(!in_trace());
    }

    #[test]
    fn same_seed_same_span_sequence() {
        let run = || {
            let _r = fetch_root(9, 5, 0);
            let a = next_span().unwrap().span;
            let c = child();
            let b = c.ctx().unwrap().span;
            (a, b)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn nested_roots_restore_seq_and_cursor() {
        let outer = fetch_root(1, 0, 1000);
        let before = next_span().unwrap().span;
        advance_cursor_us(50);
        {
            let _inner = root(derive(1, stream::REPORT, 0), 0);
            let _ = next_span();
            let _ = next_span();
            assert_eq!(cursor_us(), Some(0));
        }
        assert_eq!(cursor_us(), Some(1050), "outer cursor restored");
        let after = next_span().unwrap().span;
        assert_ne!(before, after, "outer seq not reset by inner root");
        assert_eq!(active().unwrap().span, outer.ctx().span);
    }

    #[test]
    fn cursor_tracks_sequential_stages() {
        assert_eq!(cursor_us(), None);
        set_cursor_us(99); // no-op outside a trace
        let _r = fetch_root(3, 0, 500);
        assert_eq!(cursor_us(), Some(500));
        advance_cursor_us(250);
        assert_eq!(cursor_us(), Some(750));
        set_cursor_us(600);
        assert_eq!(cursor_us(), Some(600));
    }

    #[test]
    fn child_outside_trace_is_inert() {
        let c = child();
        assert!(c.ctx().is_none());
        assert!(!in_trace());
    }

    #[test]
    fn complete_active_emits_root_span() {
        let buf = Arc::new(BufferSink::new(true));
        let ctx = Arc::new(ObsCtx::new().with_sink(buf.clone()));
        let _g = install(ctx);
        let r = fetch_root(4, 2, 10);
        complete_active("fetch", 10, 400, &[("ok", JsonValue::from(true))]);
        let evs = buf.take();
        assert_eq!(evs.len(), 1);
        let t = evs[0].trace.unwrap();
        assert_eq!(t.span, r.ctx().span);
        assert_eq!(t.parent, None);
        assert_eq!(evs[0].dur_us, Some(400));
        assert_eq!(evs[0].ts_us, 10);
    }
}
