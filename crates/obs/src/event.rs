//! Structured events and spans.
//!
//! An [`Event`] is a named point (or, with a duration, a completed
//! span) plus a small bag of typed fields. Events flow to whatever
//! [`Sink`](crate::sink::Sink) the current context has installed; with
//! the default null sink the emit path is a single virtual call that
//! immediately returns.
//!
//! When a [`crate::trace`] frame is active, every emission is annotated
//! with causal identity: point events carry the active span's ids (they
//! happen *inside* it); span events allocate a fresh child span id under
//! the active frame, so each completed region is its own tree node.

use crate::json::JsonValue;
use crate::scope;
use crate::trace::{self, TraceCtx};

/// A structured telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Timestamp in µs from the context clock (virtual time).
    pub ts_us: u64,
    /// Event name, dot-separated by convention (`simnet.run_until`).
    pub name: String,
    /// For span-end events: how long the region took, µs.
    pub dur_us: Option<u64>,
    /// Typed payload fields, in emission order.
    pub fields: Vec<(&'static str, JsonValue)>,
    /// Causal identity, when emitted inside an active trace frame.
    pub trace: Option<TraceCtx>,
}

impl Event {
    /// A bare point event (no fields, no trace) — test/bench helper.
    pub fn point(name: &str, ts_us: u64) -> Event {
        Event {
            ts_us,
            name: name.to_string(),
            dur_us: None,
            fields: Vec::new(),
            trace: None,
        }
    }

    /// Serialize as a single JSON object (one JSONL line). Trace and
    /// span ids are fixed-width hex strings: a JSON number is an f64
    /// and cannot carry 64 bits exactly.
    pub fn to_json(&self) -> JsonValue {
        let mut v = JsonValue::obj();
        v.set("ts_us", self.ts_us);
        v.set("event", self.name.as_str());
        if let Some(d) = self.dur_us {
            v.set("dur_us", d);
        }
        if let Some(t) = &self.trace {
            v.set("trace", t.trace.to_hex());
            v.set("span", t.span.to_hex());
            if let Some(p) = t.parent {
                v.set("parent", p.to_hex());
            }
        }
        if !self.fields.is_empty() {
            let mut f = JsonValue::obj();
            for (k, val) in &self.fields {
                f.set(k, val.clone());
            }
            v.set("fields", f);
        }
        v
    }
}

/// Emit a point event with fields through the current context.
pub fn event(name: &str, fields: &[(&'static str, JsonValue)]) {
    let ctx = scope::current();
    if !ctx.sink.enabled() {
        return;
    }
    ctx.sink.record(&Event {
        ts_us: ctx.clock.now_us(),
        name: name.to_string(),
        dur_us: None,
        fields: fields.to_vec(),
        trace: trace::active(),
    });
}

/// Emit a completed span whose duration was measured externally — the
/// simulation path, where elapsed time is virtual and computed by the
/// caller rather than observed on a clock. Timestamped at the context
/// clock's *current* time; see [`span_completed_at`] for explicit
/// waterfall placement.
pub fn span_completed(name: &str, dur_us: u64, fields: &[(&'static str, JsonValue)]) {
    let ctx = scope::current();
    if !ctx.sink.enabled() {
        return;
    }
    ctx.sink.record(&Event {
        ts_us: ctx.clock.now_us(),
        name: name.to_string(),
        dur_us: Some(dur_us),
        fields: fields.to_vec(),
        trace: trace::next_span().or_else(trace::active),
    });
}

/// Emit a completed span at an explicit absolute start time (virtual
/// µs) — how simulation code places spans on a fetch's waterfall.
pub fn span_completed_at(
    name: &str,
    start_us: u64,
    dur_us: u64,
    fields: &[(&'static str, JsonValue)],
) {
    let ctx = scope::current();
    if !ctx.sink.enabled() {
        return;
    }
    ctx.sink.record(&Event {
        ts_us: start_us,
        name: name.to_string(),
        dur_us: Some(dur_us),
        fields: fields.to_vec(),
        trace: trace::next_span().or_else(trace::active),
    });
}

/// Open a span measured on the context clock; the guard emits a
/// span-end event when dropped. Suits any region whose clock advances
/// while it runs. Inside an active
/// trace the guard opens a child frame, so events emitted while it is
/// open are parented under it.
pub fn span(name: &str) -> SpanGuard {
    let ctx = scope::current();
    let active = ctx.sink.enabled();
    let frame = if active { Some(trace::child()) } else { None };
    SpanGuard {
        name: name.to_string(),
        start_us: if active { ctx.clock.now_us() } else { 0 },
        active,
        fields: Vec::new(),
        frame,
    }
}

/// An open span; emits on drop.
#[derive(Debug)]
pub struct SpanGuard {
    name: String,
    start_us: u64,
    active: bool,
    fields: Vec<(&'static str, JsonValue)>,
    // Child trace frame held open for the span's extent (None when the
    // sink is disabled; inert when no trace is active).
    frame: Option<trace::ChildScope>,
}

impl SpanGuard {
    /// Attach a field to the span-end event.
    pub fn field(&mut self, key: &'static str, v: impl Into<JsonValue>) {
        if self.active {
            self.fields.push((key, v.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let ctx = scope::current();
        let now = ctx.clock.now_us();
        ctx.sink.record(&Event {
            ts_us: self.start_us,
            name: std::mem::take(&mut self.name),
            dur_us: Some(now.saturating_sub(self.start_us)),
            fields: std::mem::take(&mut self.fields),
            trace: self.frame.as_ref().and_then(|f| f.ctx()),
        });
        // The child frame pops after the event is recorded (fields drop
        // in declaration order, after this body).
    }
}

/// Emit a human-facing progress line. Suppressed entirely below
/// verbosity 1, so experiment stdout stays machine-parseable; at
/// verbosity ≥ 1 it goes to stderr *and* to the sink as a structured
/// `progress` event.
pub fn progress(msg: &str) {
    let ctx = scope::current();
    if ctx.verbosity >= 1 {
        eprintln!("[csaw] {msg}");
    }
    if ctx.sink.enabled() {
        ctx.sink.record(&Event {
            ts_us: ctx.clock.now_us(),
            name: "progress".to_string(),
            dur_us: None,
            fields: vec![("msg", JsonValue::from(msg))],
            trace: trace::active(),
        });
    }
}

/// Emit a point event: `event!("name", key = value, ...)`.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::event::event($name, &[$((stringify!($k), $crate::json::JsonValue::from($v))),*])
    };
}

/// Emit an externally-timed span: `span_us!("name", dur_us, key = value, ...)`.
#[macro_export]
macro_rules! span_us {
    ($name:expr, $dur:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::event::span_completed(
            $name,
            $dur,
            &[$((stringify!($k), $crate::json::JsonValue::from($v))),*],
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::{install, ObsCtx};
    use crate::sink::BufferSink;
    use std::sync::Arc;

    #[test]
    fn events_carry_clock_time_and_fields() {
        let buf = Arc::new(BufferSink::new(true));
        let ctx = Arc::new(ObsCtx::new().with_sink(buf.clone()));
        let _g = install(ctx.clone());
        ctx.clock.set_us(42);
        crate::event!("test.hello", n = 3u64, who = "world");
        let evs = buf.take();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].ts_us, 42);
        assert_eq!(evs[0].name, "test.hello");
        assert_eq!(evs[0].fields[0], ("n", JsonValue::Num(3.0)));
        assert_eq!(evs[0].fields[1].1.as_str(), Some("world"));
        assert_eq!(evs[0].trace, None, "no trace active");
    }

    #[test]
    fn span_guard_measures_on_the_context_clock() {
        let buf = Arc::new(BufferSink::new(true));
        let ctx = Arc::new(ObsCtx::new().with_sink(buf.clone()));
        let _g = install(ctx.clone());
        ctx.clock.set_us(100);
        {
            let mut s = span("region");
            s.field("k", 1u64);
            ctx.clock.set_us(350);
        }
        let evs = buf.take();
        assert_eq!(evs[0].dur_us, Some(250));
        assert_eq!(evs[0].ts_us, 100);
    }

    #[test]
    fn jsonl_shape() {
        let e = Event {
            ts_us: 7,
            name: "x".into(),
            dur_us: Some(3),
            fields: vec![("a", JsonValue::from(1u64))],
            trace: None,
        };
        assert_eq!(
            e.to_json().to_string_compact(),
            r#"{"dur_us":3,"event":"x","fields":{"a":1},"ts_us":7}"#
        );
    }

    #[test]
    fn traced_emissions_form_a_tree() {
        let buf = Arc::new(BufferSink::new(true));
        let ctx = Arc::new(ObsCtx::new().with_sink(buf.clone()));
        let _g = install(ctx);
        let root = crate::trace::fetch_root(1, 0, 0);
        let root_span = root.ctx().span;
        // A point event belongs to the root span.
        crate::event!("note");
        // A span event is a fresh child of the root.
        span_completed("stage", 5, &[]);
        // A guard opens a child frame: events inside it are its children.
        {
            let _s = span("outer");
            crate::event!("inner.note");
        }
        drop(root);
        let evs = buf.take();
        assert_eq!(evs.len(), 4);
        let point = &evs[0];
        assert_eq!(point.trace.unwrap().span, root_span);
        let stage = &evs[1];
        assert_eq!(stage.trace.unwrap().parent, Some(root_span));
        assert_ne!(stage.trace.unwrap().span, root_span);
        // Drop order: inner.note first, then the outer guard's span-end.
        let inner = &evs[2];
        let outer = &evs[3];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.trace.unwrap().parent, Some(root_span));
        assert_eq!(
            inner.trace.unwrap().span,
            outer.trace.unwrap().span,
            "point inside the guard is attributed to the guard's span"
        );
    }

    #[test]
    fn traced_json_carries_hex_ids() {
        let buf = Arc::new(BufferSink::new(true));
        let ctx = Arc::new(ObsCtx::new().with_sink(buf.clone()));
        let _g = install(ctx);
        let _root = crate::trace::fetch_root(2, 1, 0);
        span_completed_at("stage", 10, 3, &[]);
        let evs = buf.take();
        let j = evs[0].to_json();
        let trace_hex = j.get("trace").and_then(|v| v.as_str()).unwrap();
        assert_eq!(trace_hex.len(), 16);
        assert!(j.get("span").is_some());
        assert!(j.get("parent").is_some());
        assert_eq!(j.get("ts_us").and_then(|v| v.as_u64()), Some(10));
    }
}
