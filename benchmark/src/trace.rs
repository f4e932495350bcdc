//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Kept in memory; written out once, when the run ends.
//!
//! A span is `name, op, parent, start, end, work`: spans of one
//! operation share `op`, `parent` is the span that was open when this
//! one started, and `work` says how many units (reports, bytes, records)
//! the call covered, so per-unit costs are `Σ duration / Σ work`. Calls
//! cheaper than the clock's own cost (~25 ns a reading) are recorded as
//! one span around a small batch of identical calls, with `work` set to
//! the batch size.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept per run; later ones are counted in `dropped` instead.
const MAX_SPANS: usize = 400_000;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// `<layer>.<step>`, layer named after its module.
    pub name: &'static str,
    /// The operation this call belongs to.
    pub op: u64,
    /// Index + 1 of the enclosing span, 0 for a root.
    pub parent: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Units of work the call covered.
    pub work: u64,
}

impl Span {
    /// The call's duration in nanoseconds.
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// The in-memory span buffer. When off, [`Tracer::span`] is a plain call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    dropped: u64,
    /// Spans already written out and forgotten: ids keep counting.
    flushed: usize,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
            flushed: 0,
        }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            spans: Vec::with_capacity(MAX_SPANS),
            ..Tracer::off()
        }
    }

    /// Pause or resume recording (the spans so far are kept).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Open a span; close it with [`Tracer::end`]. `None` when off or full.
    #[inline]
    pub fn begin(&mut self, name: &'static str, op: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied().unwrap_or(0),
            start_ns: 0,
            end_ns: 0,
            work: 0,
        });
        self.open.push(idx as u32 + 1);
        self.spans[idx].start_ns = self.epoch.elapsed().as_nanos() as u64;
        Some(idx)
    }

    /// Close the span `begin` opened, stamping the work it covered.
    #[inline]
    pub fn end(&mut self, handle: Option<usize>, work: u64) {
        if let Some(idx) = handle {
            self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
            self.spans[idx].work = work;
            self.open.pop();
        }
    }

    /// Call `f` inside a span (a plain call when off). `f` gets the
    /// tracer back so it can record child spans.
    #[inline]
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        work: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let handle = self.begin(name, op);
        let out = f(self);
        self.end(handle, work);
        out
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// `Σ duration / Σ work` over the spans called `name`, in ns per
    /// unit; 0 when there are none.
    pub fn ns_per_work(&self, name: &str) -> f64 {
        let (ns, work) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0u64), |(ns, w), s| (ns + s.ns(), w + s.work));
        if work == 0 {
            0.0
        } else {
            ns / work as f64
        }
    }

    /// Summed duration (ns) of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum()
    }

    /// Mean duration (ns) of the spans called `name`; 0 when none.
    pub fn mean_ns(&self, name: &str) -> f64 {
        let d = self.durations_ns(name);
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64
        }
    }

    /// Append one JSON object per span to `path` (created if missing)
    /// and forget the spans, making room for the next stage of the run.
    /// Must not be called inside an open span.
    pub fn flush_jsonl(&mut self, path: &Path) -> std::io::Result<()> {
        use std::io::Write as _;
        assert!(self.open.is_empty(), "flush inside an open span");
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            // Span names are benchmark constants: no escaping needed.
            let parent = if s.parent == 0 {
                0
            } else {
                self.flushed + s.parent as usize
            };
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"work\":{}}}",
                self.flushed + i + 1,
                s.name,
                s.op,
                parent,
                s.start_ns,
                s.end_ns,
                s.work
            );
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "{{\"dropped_spans\":{}}}", self.dropped);
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()?;
        self.flushed += self.spans.len();
        self.spans.clear();
        self.dropped = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing_and_still_calls() {
        let mut t = Tracer::off();
        let v = t.span("a.b", 1, 1, |_| 41 + 1);
        assert_eq!(v, 42);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn spans_nest_and_share_the_operation() {
        let mut t = Tracer::on();
        t.span("outer", 9, 1, |t| {
            t.span("inner", 9, 4, |_| std::hint::black_box(3));
            t.span("inner", 9, 4, |_| std::hint::black_box(4));
        });
        let s = &t.spans;
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, 0);
        assert_eq!(s[1].parent, 1);
        assert_eq!(s[2].parent, 1);
        assert!(s.iter().all(|x| x.op == 9));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(t.durations_ns("inner").len(), 2);
        assert!(t.ns_per_work("missing") == 0.0);
    }

    #[test]
    fn flushing_appends_and_keeps_ids_unique() {
        let path =
            std::env::temp_dir().join(format!("csaw-bench-trace-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut t = Tracer::on();
        t.span("a", 1, 1, |t| t.span("b", 1, 1, |_| ()));
        t.flush_jsonl(&path).unwrap();
        assert!(t.spans.is_empty());
        t.span("c", 2, 1, |t| t.span("d", 2, 1, |_| ()));
        t.flush_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].contains("\"id\":2") && lines[1].contains("\"parent\":1"));
        assert!(lines[3].contains("\"id\":4") && lines[3].contains("\"parent\":3"));
    }
}
