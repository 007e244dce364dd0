//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! Each span has a name, start, end, parent and a work count recorded at
//! its boundary. Spans stay in memory until [`Tracer::write_jsonl`] writes
//! them out at the end of the run.

use crate::util::quote;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    count: u64,
}

/// Per-name totals over closed spans.
#[derive(Clone, Copy, Default, Debug)]
pub struct Agg {
    /// Sum of the counts recorded at their boundaries.
    pub count: u64,
    /// Sum of their durations minus the time their child spans cover,
    /// seconds.
    pub self_s: f64,
}

impl Agg {
    /// Mean self time per counted unit, microseconds.
    pub fn self_us_per(&self) -> f64 {
        self.self_s * 1e6 / self.count.max(1) as f64
    }

    /// Mean self time per counted unit, nanoseconds.
    pub fn self_ns_per(&self) -> f64 {
        self.self_s * 1e9 / self.count.max(1) as f64
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        }
    }

    /// A recorder whose spans only run their closure: the same code path
    /// untraced, against which the tracing overhead is measured.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` whose count is `count`; spans
    /// opened by `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, count: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            count,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// A position in the span log; [`Tracer::agg_since`] aggregates only
    /// spans opened after it.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Per-name aggregates of the spans opened since `mark`: counts and
    /// self time.
    pub fn aggregate_since(&self, mark: usize) -> BTreeMap<&'static str, Agg> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans[mark..] {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(mark) {
            let dur = s.end_ns - s.start_ns;
            let a = out.entry(s.name).or_default();
            a.count += s.count;
            a.self_s += dur.saturating_sub(child_ns[i]) as f64 * 1e-9;
        }
        out
    }

    /// The aggregate of one span name since `mark` (all zero when it
    /// never ran).
    pub fn agg_since(&self, mark: usize, name: &str) -> Agg {
        self.aggregate_since(mark)
            .get(name)
            .copied()
            .unwrap_or_default()
    }

    /// Writes every span as one JSON line: id, name, parent, start/end in
    /// nanoseconds since the tracer started, and the boundary count.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {i}, \"name\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"count\": {}}}",
                quote(s.name),
                s.start_ns,
                s.end_ns,
                s.count
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}
