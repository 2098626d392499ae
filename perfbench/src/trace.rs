//! In-memory span recorder for the traced run. Spans are taken from
//! the benchmark's side of each layer boundary: around the public call
//! into the layer, or — for stages that one public call runs back to
//! back — from the stage probe's timestamps and the durations the call
//! reports. Nothing here reaches into library code.

use crate::stats::{self, Span};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// Per-layer metrics of the traced run, name → value.
pub type Layers = BTreeMap<&'static str, f64>;

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Request id given to spans opened from now on.
    pub req: u64,
}

/// Returned by [`Tracer::enter`]; hand it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A recorder; a disabled one records nothing and costs one branch
    /// per call, which is what the overhead measurement compares.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req: self.req,
        });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Close a span opened by [`enter`](Self::enter).
    pub fn exit(&mut self, open: Open) {
        if let Some(i) = open.0 {
            self.spans[i].end_ns = self.ns(Instant::now());
            self.stack.retain(|&j| j != i);
        }
    }

    /// Record a finished interval as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: self.stack.last().copied(),
                req: self.req,
            });
        }
    }

    /// Record consecutive children laid end to end from `start`, one
    /// per reported stage duration — how one public call that runs
    /// several layers back to back is split.
    pub fn record_stages(&mut self, start: Instant, stages: &[(&'static str, Duration)]) {
        let mut at = start;
        for &(name, d) in stages {
            self.record(name, at, at + d);
            at += d;
        }
    }

    /// Write every span as one JSON line: name, start and end (ns since
    /// the recorder was created), parent index, request id, run id.
    pub fn write_jsonl(&self, path: &std::path::Path, run_id: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{},\"run\":\"{run_id}\"}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req,
            )?;
        }
        out.flush()
    }

    /// The time-based per-layer metrics, from self times and span
    /// durations. Counts are filled in by the workloads.
    pub fn layer_times(&self) -> Layers {
        let by = stats::self_ms_by_name(&self.spans);
        let ms = |name: &str| by.get(name).copied().unwrap_or(0.0);
        let dur = |name: &str, unit: f64| stats::durations(&self.spans, name, unit);
        let mut l = Layers::new();
        for (metric, span) in [
            ("extract.ms", "extract"),
            ("values.ms", "values"),
            ("blocking.ms", "blocking"),
            ("scoring.ms", "scoring"),
            ("graph.ms", "graph"),
            ("partition.ms", "partition"),
            ("conflict.ms", "conflict"),
            ("snapshot.build_ms", "snapshot.build"),
            ("delta.compact_ms", "delta.compact"),
            ("archive.write_ms", "archive.write"),
        ] {
            l.insert(metric, ms(span));
        }
        l.insert("lookup.batch_p50_us", stats::median(&dur("lookup", 1e3)));
        l.insert(
            "publish.delta_p50_ms",
            stats::median(&dur("publish.delta", 1e6)),
        );
        let apply = dur("delta.apply", 1e6);
        l.insert("delta.apply_p50_ms", stats::median(&apply));
        l.insert("delta.apply_p99_ms", stats::percentile(&apply, 99.0));
        let wal = dur("wal.append", 1e3);
        l.insert("wal.append_p50_us", stats::median(&wal));
        l.insert("wal.append_p99_us", stats::percentile(&wal, 99.0));
        l.insert("trace.spans", self.spans.len() as f64);
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.enter("pass");
        let inner = t.enter("extract");
        t.exit(inner);
        let now = Instant::now();
        t.record_stages(
            now,
            &[
                ("graph", Duration::from_millis(2)),
                ("partition", Duration::from_millis(3)),
            ],
        );
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].start_ns, s[2].end_ns);
        assert_eq!(s[3].end_ns - s[3].start_ns, 3_000_000);

        let mut off = Tracer::new(false);
        let o = off.enter("pass");
        off.record("graph", now, now);
        off.exit(o);
        assert!(off.spans().is_empty());
    }
}
