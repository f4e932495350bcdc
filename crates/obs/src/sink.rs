//! Pluggable event sinks: null (default), the in-memory event buffer,
//! JSONL writer, human-readable stderr, and the filter and tee
//! combinators. A Chrome trace is a rendering of a buffer's events
//! ([`crate::chrome::render_chrome_trace`]), not a sink of its own.
//!
//! Telemetry must never propagate a panic: every internal lock is
//! recovered on poison (`lock_recover`) — an event buffer left by a
//! panicking thread is still perfectly good data.

use crate::event::Event;
use std::io::Write;
use std::sync::{Mutex, MutexGuard};

/// Lock a sink-internal mutex, recovering the guard if a panicking
/// thread poisoned it. Sinks hold only event buffers behind their
/// locks; a poisoned buffer is merely "written by a thread that later
/// panicked", which is fine for telemetry. Recovery is not silent: each
/// one bumps `obs.sink.poisoned` in the current scope's registry, so a
/// crashed writer thread shows up in the metrics snapshot.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| {
        // Counter-only: emitting an event here could recurse into the
        // very sink whose lock just failed.
        crate::scope::current()
            .registry
            .counter("obs.sink.poisoned")
            .inc();
        poisoned.into_inner()
    })
}

/// Where events go.
pub trait Sink: Send + Sync + std::fmt::Debug {
    /// Record one event.
    fn record(&self, event: &Event);
    /// Cheap gate: `false` lets emit sites skip building the event at
    /// all. The null sink returns `false`.
    fn enabled(&self) -> bool {
        true
    }
    /// Flush buffered output (the JSONL writer's line buffer).
    fn flush(&self) {}
}

/// Discards everything. The default sink; emit sites short-circuit on
/// [`Sink::enabled`], so instrumentation overhead is one virtual call.
#[derive(Debug, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&self, _event: &Event) {}
    fn enabled(&self) -> bool {
        false
    }
}

/// Captures every event, unbounded and in emission order — the one
/// in-memory sink.
///
/// Three things are built on it: the parallel experiment runner's
/// per-trial event arena (each trial records into its own buffer, and
/// after the worker barrier the runner replays the buffers into the
/// real sink in trial-ordinal order, so the merged stream is
/// byte-identical to a serial run), the Chrome trace `--trace-out
/// x.json` renders at exit, and every test that inspects what was
/// emitted.
///
/// It never drops (a trace must be complete), and its
/// [`Sink::enabled`] gate is fixed at construction: a trial passes the
/// *parent* sink's enabled state so instrumented code inside it skips
/// event construction exactly when a serial run would have.
#[derive(Debug)]
pub struct BufferSink {
    enabled: bool,
    buf: Mutex<Vec<Event>>,
}

impl BufferSink {
    /// A buffer whose emit gate is `enabled` (for a trial arena, the
    /// parent sink's [`Sink::enabled`] at trial start).
    pub fn new(enabled: bool) -> BufferSink {
        BufferSink {
            enabled,
            buf: Mutex::new(Vec::new()),
        }
    }

    /// Take every buffered event, in emission order.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *lock_recover(&self.buf))
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        lock_recover(&self.buf).len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for BufferSink {
    fn record(&self, event: &Event) {
        if self.enabled {
            lock_recover(&self.buf).push(event.clone());
        }
    }

    fn enabled(&self) -> bool {
        self.enabled
    }
}

/// Writes each event as one JSON line to any writer (usually a file
/// opened by the `--trace-out` flag).
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JsonlSink")
    }
}

impl JsonlSink {
    /// A sink writing JSONL to `out`.
    pub fn new(out: Box<dyn Write + Send>) -> JsonlSink {
        JsonlSink {
            out: Mutex::new(out),
        }
    }

    /// A sink writing JSONL to a freshly-created file.
    pub fn create(path: &std::path::Path) -> std::io::Result<JsonlSink> {
        let f = std::fs::File::create(path)?;
        Ok(JsonlSink::new(Box::new(std::io::BufWriter::new(f))))
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        let mut g = lock_recover(&self.out);
        let _ = writeln!(g, "{}", event.to_json().to_string_compact());
    }

    fn flush(&self) {
        let _ = lock_recover(&self.out).flush();
    }
}

/// Human-readable lines on stderr — the `-v` debugging sink. Stdout is
/// never touched, so experiment output stays machine-parseable.
#[derive(Debug, Default)]
pub struct StderrSink;

impl Sink for StderrSink {
    fn record(&self, event: &Event) {
        let mut line = format!("[{:>12}us] {}", event.ts_us, event.name);
        if let Some(d) = event.dur_us {
            line.push_str(&format!(" ({d}us)"));
        }
        if let Some(t) = &event.trace {
            line.push_str(&format!(" trace={}", t.trace.to_hex()));
        }
        for (k, v) in &event.fields {
            line.push_str(&format!(" {k}={}", v.to_string_compact()));
        }
        eprintln!("{line}");
    }
}

/// Passes through only events whose name is in an allow-list — how
/// `--frames-out` captures `ts.frame`/`slo.violation` lines into their
/// own JSONL file while the main sink sees the full stream.
#[derive(Debug)]
pub struct FilterSink {
    names: Vec<&'static str>,
    inner: std::sync::Arc<dyn Sink>,
}

impl FilterSink {
    /// A sink forwarding to `inner` only events named in `names`.
    pub fn new(inner: std::sync::Arc<dyn Sink>, names: &[&'static str]) -> FilterSink {
        FilterSink {
            names: names.to_vec(),
            inner,
        }
    }
}

impl Sink for FilterSink {
    fn record(&self, event: &Event) {
        if self.names.iter().any(|n| *n == event.name) {
            self.inner.record(event);
        }
    }

    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn flush(&self) {
        self.inner.flush();
    }
}

/// Fan out every event to several sinks (e.g. the main trace sink plus
/// the `--frames-out` filter).
#[derive(Debug)]
pub struct TeeSink {
    sinks: Vec<std::sync::Arc<dyn Sink>>,
}

impl TeeSink {
    /// A sink duplicating events into each of `sinks`.
    pub fn new(sinks: Vec<std::sync::Arc<dyn Sink>>) -> TeeSink {
        TeeSink { sinks }
    }
}

impl Sink for TeeSink {
    fn record(&self, event: &Event) {
        for s in &self.sinks {
            s.record(event);
        }
    }

    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    fn ev(name: &str, ts: u64) -> Event {
        Event::point(name, ts)
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
    }

    #[test]
    fn poisoned_buffer_recovers_instead_of_panicking() {
        let ctx = std::sync::Arc::new(crate::scope::ObsCtx::new());
        let _scope = crate::scope::install(ctx.clone());
        let r = std::sync::Arc::new(BufferSink::new(true));
        r.record(&ev("before", 1));
        // Poison the internal mutex: panic while holding the guard.
        let r2 = r.clone();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _g = r2.buf.lock().unwrap();
            panic!("poison");
        }));
        // Telemetry keeps working on the poisoned lock...
        r.record(&ev("after", 2));
        let names: Vec<String> = r.take().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["before", "after"]);
        // ...and every recovery is visible in the metrics snapshot
        // (record + take above = two recovered acquisitions).
        assert_eq!(ctx.registry.counter("obs.sink.poisoned").get(), 2);
    }

    #[test]
    fn buffer_sink_mirrors_parent_gate_and_replays_in_order() {
        let on = BufferSink::new(true);
        assert!(on.enabled());
        on.record(&ev("a", 1));
        on.record(&ev("b", 2));
        assert_eq!(on.len(), 2);
        let names: Vec<String> = on.take().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(on.is_empty());

        let off = BufferSink::new(false);
        assert!(!off.enabled());
        off.record(&ev("dropped", 3));
        assert!(off.take().is_empty(), "disabled buffer must not retain");
    }

    #[test]
    fn jsonl_writes_parseable_lines() {
        let buf: Vec<u8> = Vec::new();
        let shared = std::sync::Arc::new(Mutex::new(buf));
        // A tiny adapter so the test can read back what the sink wrote.
        struct Tee(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for Tee {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let s = JsonlSink::new(Box::new(Tee(shared.clone())));
        s.record(&Event {
            ts_us: 5,
            name: "x".into(),
            dur_us: None,
            fields: vec![("k", JsonValue::from("v"))],
            trace: None,
        });
        s.record(&ev("y", 6));
        s.flush();
        let text = String::from_utf8(shared.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for l in lines {
            JsonValue::parse(l).expect("each line is standalone JSON");
        }
    }

    #[test]
    fn filter_passes_only_allowed_names() {
        let inner = std::sync::Arc::new(BufferSink::new(true));
        let f = FilterSink::new(inner.clone(), &["ts.frame"]);
        assert!(f.enabled());
        f.record(&ev("ts.frame", 1));
        f.record(&ev("other", 2));
        f.record(&ev("ts.frame", 3));
        let names: Vec<String> = inner.take().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["ts.frame", "ts.frame"]);
    }

    #[test]
    fn tee_duplicates_and_flushes() {
        let a = std::sync::Arc::new(BufferSink::new(true));
        let b = std::sync::Arc::new(BufferSink::new(true));
        let t = TeeSink::new(vec![a.clone(), b.clone()]);
        assert!(t.enabled());
        t.record(&ev("x", 1));
        t.flush();
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }
}
