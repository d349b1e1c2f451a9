//! In-memory spans for the traced run.
//!
//! A span is recorded by the benchmark around a call into one layer's
//! public function: name, start, end, parent span, and the id of the
//! operation it belongs to.  Nothing inside the engine is instrumented.
//! Spans stay in memory until the run ends, when they are written out.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    /// A fresh span id, for a span whose children are recorded before it.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a pre-allocated id.
    pub fn record_as(&self, id: u64, name: &'static str, op: u64, parent: u64, start: Instant) {
        let end = Instant::now();
        let span = Span {
            id,
            parent,
            op,
            name,
            start: start - self.epoch,
            end: end - self.epoch,
        };
        self.spans
            .lock()
            .expect("span log poisoned by a panicking client")
            .push(span);
    }

    /// Times `call` as a span and returns its result.
    pub fn time<R>(&self, name: &'static str, op: u64, parent: u64, call: impl FnOnce() -> R) -> R {
        let id = self.next_id();
        let start = Instant::now();
        let result = call();
        self.record_as(id, name, op, parent, start);
        result
    }

    /// Opens the spans of one operation: a root `op` span and, under it,
    /// the `engine.query` span around the real engine call.
    pub fn begin_op(&self) -> OpTrace<'_> {
        let root = self.next_id();
        OpTrace {
            tracer: self,
            op: root,
            root,
            engine: self.next_id(),
            started: Instant::now(),
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log poisoned by a panicking client")
            .clone()
    }

    /// Writes every span as one tab-separated line.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_us\tend_us")?;
        for s in self.spans() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{:.3}\t{:.3}",
                s.id,
                s.parent,
                s.op,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            )?;
        }
        out.flush()
    }
}

/// The open spans of one operation (see [`Tracer::begin_op`]).
pub struct OpTrace<'a> {
    tracer: &'a Tracer,
    pub op: u64,
    pub root: u64,
    /// The id of the `engine.query` span, the parent of the crowd calls
    /// the engine makes for this operation.
    pub engine: u64,
    started: Instant,
}

impl OpTrace<'_> {
    /// Closes the `engine.query` span, which began at `started`.
    pub fn engine_done(&self, started: Instant) {
        self.tracer
            .record_as(self.engine, "engine.query", self.op, self.root, started);
    }

    /// Times one layer call of this operation.
    pub fn time<R>(&self, name: &'static str, call: impl FnOnce() -> R) -> R {
        self.tracer.time(name, self.op, self.root, call)
    }

    /// Closes the root span.
    pub fn finish(self) {
        self.tracer
            .record_as(self.root, "op", self.op, 0, self.started);
    }
}

/// Per-name sums over a set of spans.
pub struct SpanTotals {
    totals: HashMap<&'static str, (f64, usize)>,
}

impl SpanTotals {
    pub fn of(spans: &[Span]) -> SpanTotals {
        let mut totals: HashMap<&'static str, (f64, usize)> = HashMap::new();
        for span in spans {
            let entry = totals.entry(span.name).or_default();
            entry.0 += span.micros();
            entry.1 += 1;
        }
        SpanTotals { totals }
    }

    /// Mean duration of one call, in microseconds (0 when never called).
    pub fn mean_us(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |&(sum, n)| sum / n.max(1) as f64)
    }
}

/// Mean, over the operations whose layers were timed, of the span around
/// the real engine call (`engine`) minus the layer spans of the same
/// operation: the engine time no measured layer accounts for.
pub fn unattributed_us(spans: &[Span], engine: &str, layers: &[&str]) -> f64 {
    #[derive(Default)]
    struct PerOp {
        engine: f64,
        layers: f64,
        has_engine: bool,
        has_layers: bool,
    }
    let mut per_op: HashMap<u64, PerOp> = HashMap::new();
    for span in spans {
        let entry = per_op.entry(span.op).or_default();
        if span.name == engine {
            entry.engine += span.micros();
            entry.has_engine = true;
        } else if layers.contains(&span.name) {
            entry.layers += span.micros();
            entry.has_layers = true;
        }
    }
    let timed: Vec<f64> = per_op
        .values()
        .filter(|op| op.has_engine && op.has_layers)
        .map(|op| op.engine - op.layers)
        .collect();
    timed.iter().sum::<f64>() / timed.len().max(1) as f64
}
