//! Spans recorded from the benchmark's own files, around the calls
//! into each layer. Kept in memory, written out when the run ends.
//! With tracing off `begin`/`end` cost one branch each, so the
//! end-to-end runs carry the same code without paying for it.

use crate::json::quote;
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// The operation (repetition, rung, round trip) this span belongs
    /// to; spans of one operation share it.
    op: u64,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off mid-run (the runtime workloads trace
    /// one round and leave the others untraced to price the tracing).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        if let Open(Some(id)) = open {
            self.spans[id].end_ns = self.t0.elapsed().as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must nest");
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: `(count, total ns, self ns)`, self time being a
    /// span's duration minus what its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(covered);
        }
        by_name
    }

    /// Mean nanoseconds of one span named `name` (0 when none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (n, total) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.end_ns - s.start_ns));
        total as f64 / n.max(1) as f64
    }

    /// Writes every span as one JSON array of
    /// `{name, start_ns, end_ns, id, parent, op}` objects.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"id\":{id},\"parent\":{parent},\"op\":{}}}{sep}",
                quote(s.name),
                s.start_ns,
                s.end_ns,
                s.op
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}
