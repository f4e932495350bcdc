//! Chrome/Perfetto `trace_event` rendering.
//!
//! [`render_chrome_trace`] turns recorded events (a
//! [`crate::sink::BufferSink`]'s, for `--trace-out x.json`) into one
//! complete Chrome trace JSON document (the `{"traceEvents": [...]}`
//! array-of-objects format `chrome://tracing` and Perfetto load):
//!
//! - span events (`dur_us: Some`) become `ph: "X"` complete slices;
//! - point events become `ph: "i"` thread-scoped instants;
//! - each *component* — the event-name prefix before the first `.`
//!   (`fetch`, `detect`, `circum`, `simnet`, `store`, ...) — gets its
//!   own track (`tid`), named via `ph: "M"` metadata records;
//! - causal identity (trace/span/parent, as fixed-width hex) and the
//!   event's fields ride in `args`.
//!
//! Output is deterministic: events are sorted by `(ts, arrival order)`,
//! tids are assigned in lexicographic component order, and all JSON
//! maps are ordered. Two same-seed runs produce byte-identical files.
//!
//! The rendering is write-only: `report trace` reads the JSONL stream
//! instead.

use crate::event::Event;
use crate::json::JsonValue;
use std::collections::BTreeMap;

/// The component (track) an event belongs to: the name prefix before
/// the first `.`.
fn component(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Render `events` as a complete Chrome trace JSON document
/// (deterministic; see module docs for the mapping).
pub fn render_chrome_trace(events: &[Event]) -> String {
    // Stable sort by timestamp; arrival order breaks ties, which is
    // itself deterministic under the determinism contract.
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| events[i].ts_us);

    // Tracks in lexicographic component order.
    let tids: BTreeMap<String, u64> = events
        .iter()
        .map(|e| component(&e.name).to_string())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .zip(0u64..)
        .collect();

    let mut trace_events: Vec<JsonValue> = Vec::with_capacity(events.len() + tids.len() + 1);
    let meta = |name: &str, tid: Option<u64>, args: JsonValue| {
        let mut m = JsonValue::obj();
        m.set("ph", "M");
        m.set("pid", 1u64);
        if let Some(t) = tid {
            m.set("tid", t);
        }
        m.set("name", name);
        m.set("args", args);
        m
    };
    let mut pname = JsonValue::obj();
    pname.set("name", "csaw");
    trace_events.push(meta("process_name", None, pname));
    for (comp, tid) in &tids {
        let mut args = JsonValue::obj();
        args.set("name", comp.as_str());
        trace_events.push(meta("thread_name", Some(*tid), args));
        let mut sort = JsonValue::obj();
        sort.set("sort_index", *tid);
        trace_events.push(meta("thread_sort_index", Some(*tid), sort));
    }

    for &i in &order {
        let e = &events[i];
        let tid = tids[component(&e.name)];
        let mut v = JsonValue::obj();
        v.set("name", e.name.as_str());
        v.set("pid", 1u64);
        v.set("tid", tid);
        v.set("ts", e.ts_us);
        match e.dur_us {
            Some(d) => {
                v.set("ph", "X");
                v.set("dur", d);
            }
            None => {
                v.set("ph", "i");
                v.set("s", "t");
            }
        }
        let mut args = JsonValue::obj();
        if let Some(t) = &e.trace {
            args.set("trace", t.trace.to_hex());
            args.set("span", t.span.to_hex());
            if let Some(p) = t.parent {
                args.set("parent", p.to_hex());
            }
        }
        for (k, val) in &e.fields {
            args.set(k, val.clone());
        }
        v.set("args", args);
        trace_events.push(v);
    }

    let mut doc = JsonValue::obj();
    doc.set("displayTimeUnit", "ms");
    doc.set("traceEvents", JsonValue::Arr(trace_events));
    let mut s = doc.to_string_compact();
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::{install, ObsCtx};
    use crate::sink::BufferSink;
    use std::sync::Arc;

    fn traced_events() -> Vec<Event> {
        let sink = Arc::new(BufferSink::new());
        let ctx = Arc::new(ObsCtx::new().with_sink(sink.clone()));
        let _g = install(ctx);
        let root = crate::trace::fetch_root(1, 0, 100);
        crate::event::span_completed_at("fetch.detect", 100, 40, &[]);
        crate::event::span_completed_at("simnet.flow", 120, 10, &[]);
        crate::event!("store.note", n = 1u64);
        crate::trace::complete_active("fetch", 100, 90, &[("ok", JsonValue::from(true))]);
        drop(root);
        sink.take()
    }

    #[test]
    fn renders_valid_chrome_json_with_tracks() {
        let events = traced_events();
        let doc = render_chrome_trace(&events);
        let v = JsonValue::parse(&doc).expect("valid JSON");
        let te = v.get("traceEvents").unwrap();
        let JsonValue::Arr(items) = te else {
            panic!("traceEvents is an array")
        };
        // 1 process_name + 3 components (fetch, simnet, store) × 2 metadata
        // + 4 events.
        assert_eq!(items.len(), 1 + 3 * 2 + 4);
        let slices: Vec<&JsonValue> = items
            .iter()
            .filter(|i| i.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(slices.len(), 3);
        for s in &slices {
            assert!(s.get("dur").is_some());
            assert!(s.get("args").unwrap().get("trace").is_some());
        }
        let instants: Vec<&JsonValue> = items
            .iter()
            .filter(|i| i.get("ph").and_then(|p| p.as_str()) == Some("i"))
            .collect();
        assert_eq!(instants.len(), 1);
        // Root slice has no parent; children do.
        let root = slices
            .iter()
            .find(|s| s.get("name").and_then(|n| n.as_str()) == Some("fetch"))
            .unwrap();
        assert!(root.get("args").unwrap().get("parent").is_none());
        let child = slices
            .iter()
            .find(|s| s.get("name").and_then(|n| n.as_str()) == Some("fetch.detect"))
            .unwrap();
        assert!(child.get("args").unwrap().get("parent").is_some());
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = render_chrome_trace(&traced_events());
        let b = render_chrome_trace(&traced_events());
        assert_eq!(a, b);
    }
}
