//! Per-layer metrics of the traced run.
//!
//! The benchmark times calls into each layer's public function from
//! outside the engine (parse, the catalog view, a standalone execute, the
//! crowd, aggregation, extraction, the cache, storage, the wire) and reads
//! the engine's own counters.  Every workload reports the same list; a
//! layer a workload bypasses reads 0 there.

use std::path::Path;

use crowddb_core::{CellProvenance, CrowdDb, RowSet};
use relational::Catalog;

use crate::harness::{metric, percentile, Args, Metric, Outcome, Phase, ProcessCounters};
use crate::trace::{unattributed_us, OpTrace, Span, SpanTotals, Tracer};

/// The layer spans subtracted from the engine call to get the engine's
/// unattributed time (`engine.overhead_us`).
const ATTRIBUTED: &[&str] = &[
    "relational.parse",
    "relational.execute",
    "engine.catalog_view",
    "cache.peek",
    "crowd.dispatch",
    "crowd.estimate",
    "aggregate.em",
    "aggregate.majority",
    "extraction.svm",
];

/// Times the relational layers and the catalog view for one read
/// statement: parse, `db.catalog().table(t)` (for a partitioned table, the
/// merge-clone), and `execute_read` on a standalone catalog holding the
/// same rows.  Returns the rows the catalog view held.
pub fn time_read_path(
    trace: &OpTrace<'_>,
    sql: &str,
    db: &CrowdDb,
    table: &str,
    standalone: &Catalog,
) -> Result<usize, String> {
    let statement = trace
        .time("relational.parse", || relational::parse(sql))
        .map_err(|e| format!("parse: {e}"))?;
    let rows = trace
        .time("engine.catalog_view", || {
            db.catalog().table(table).map(|t| t.len())
        })
        .map_err(|e| format!("catalog view: {e}"))?;
    trace
        .time("relational.execute", || {
            relational::execute_read(&statement, standalone)
        })
        .map_err(|e| format!("standalone execute: {e}"))?;
    Ok(rows)
}

/// A catalog holding a copy of `db`'s `table` as it is now, for standalone
/// executes.
pub fn standalone_copy(db: &CrowdDb, table: &str) -> Result<Catalog, String> {
    let table = db
        .catalog()
        .table(table)
        .map(|t| (*t).clone())
        .map_err(|e| e.to_string())?;
    let mut catalog = Catalog::new();
    catalog.create_table(table).map_err(|e| e.to_string())?;
    Ok(catalog)
}

/// What the operations of a traced phase on one database are handed.
pub struct Traced<'a> {
    pub tracer: &'a Tracer,
    pub standalone: &'a Catalog,
}

/// A finished traced phase.
pub struct TracedPhase<S> {
    pub phase: Phase,
    pub states: Vec<S>,
    pub counts: LayerCounts,
    pub tracer: Tracer,
}

/// Runs the traced phase of a workload on one database: `measure` gets a
/// new tracer and a standalone copy of `table`, and its clients' layer
/// counts are merged with the process counters and `db`'s overflow spawns
/// read around it.
pub fn measure_traced<S>(
    db: &CrowdDb,
    table: &str,
    measure: impl FnOnce(&Traced<'_>) -> (Phase, Vec<S>),
    layers: impl FnMut(&mut S) -> LayerCounts,
) -> Result<TracedPhase<S>, String> {
    let tracer = Tracer::new();
    let standalone = standalone_copy(db, table)?;
    let overflow_before = db.scheduler_stats().overflow_spawned;
    let (phase, states, mut counts) = count_layers(
        || {
            measure(&Traced {
                tracer: &tracer,
                standalone: &standalone,
            })
        },
        layers,
    );
    counts.overflow_spawned += db.scheduler_stats().overflow_spawned - overflow_before;
    Ok(TracedPhase {
        phase,
        states,
        counts,
        tracer,
    })
}

/// Runs `measure` and merges its clients' layer counts (taken out by
/// `layers`) with the process counters read around it.
pub fn count_layers<S>(
    measure: impl FnOnce() -> (Phase, Vec<S>),
    mut layers: impl FnMut(&mut S) -> LayerCounts,
) -> (Phase, Vec<S>, LayerCounts) {
    let before = ProcessCounters::read();
    let (phase, mut states) = measure();
    let mut counts = LayerCounts {
        process: ProcessCounters::read().since(before),
        ..Default::default()
    };
    for state in &mut states {
        counts.merge(layers(state));
    }
    (phase, states, counts)
}

/// Cells by provenance: crowd-derived, extracted, cache hit, missing.
pub fn provenance_counts(rows: &RowSet) -> [u64; 4] {
    let mut counts = [0u64; 4];
    for cell in rows.provenance.iter().flatten() {
        let slot = match cell {
            CellProvenance::CrowdDerived { .. } => 0,
            CellProvenance::Extracted => 1,
            CellProvenance::CacheHit { .. } => 2,
            CellProvenance::Missing { .. } => 3,
            _ => continue,
        };
        counts[slot] += 1;
    }
    counts
}

/// Counters a workload collects during its traced phase, warm-up
/// included (so are the process counters); per-operation metrics divide
/// by `ops`, the traced operations.
#[derive(Default)]
pub struct LayerCounts {
    pub ops: u64,
    pub views: u64,
    pub view_rows: u64,
    pub queued_max: usize,
    pub overflow_spawned: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub cache_entries_added: u64,
    pub crowd_rounds: u64,
    pub crowd_judgments: u64,
    pub crowd_decisive: u64,
    pub crowd_invoice: f64,
    pub provenance: [u64; 4],
    pub commits: u64,
    pub wal_bytes: u64,
    pub snapshot_bytes: u64,
    pub checkpoints: u64,
    pub checkpoint_reclaimed: u64,
    pub process: ProcessCounters,
}

impl LayerCounts {
    pub fn add_provenance(&mut self, counts: [u64; 4]) {
        for (total, n) in self.provenance.iter_mut().zip(counts) {
            *total += n;
        }
    }

    /// Counts one traced operation and samples the scheduler's queue.
    pub fn op_done(&mut self, db: &CrowdDb) {
        self.ops += 1;
        self.queued_max = self.queued_max.max(db.scheduler_stats().queued);
    }

    /// Adds another client's counts (process counters are read once per
    /// run, not per client, and are left alone).
    pub fn merge(&mut self, other: LayerCounts) {
        self.ops += other.ops;
        self.views += other.views;
        self.view_rows += other.view_rows;
        self.queued_max = self.queued_max.max(other.queued_max);
        self.overflow_spawned += other.overflow_spawned;
        self.cache_hits += other.cache_hits;
        self.cache_lookups += other.cache_lookups;
        self.cache_entries_added += other.cache_entries_added;
        self.crowd_rounds += other.crowd_rounds;
        self.crowd_judgments += other.crowd_judgments;
        self.crowd_decisive += other.crowd_decisive;
        self.crowd_invoice += other.crowd_invoice;
        self.add_provenance(other.provenance);
        self.commits += other.commits;
        self.wal_bytes += other.wal_bytes;
        self.snapshot_bytes = self.snapshot_bytes.max(other.snapshot_bytes);
        self.checkpoints += other.checkpoints;
        self.checkpoint_reclaimed += other.checkpoint_reclaimed;
    }
}

/// The per-layer list every workload reports from its traced phase;
/// `overhead_pct` is the traced phase's median latency against the
/// untraced phase's.
fn per_layer_metrics(counts: &LayerCounts, spans: &[Span], overhead_pct: f64) -> Vec<Metric> {
    let totals = SpanTotals::of(spans);
    let ops = counts.ops.max(1) as f64;
    let per_commit = |n: u64| n as f64 / counts.commits.max(1) as f64;
    vec![
        metric(
            "relational.parse_us",
            totals.mean_us("relational.parse"),
            "us",
        ),
        metric(
            "relational.execute_us",
            totals.mean_us("relational.execute"),
            "us",
        ),
        metric(
            "engine.catalog_view_us",
            totals.mean_us("engine.catalog_view"),
            "us",
        ),
        metric(
            "engine.catalog_view_rows",
            counts.view_rows as f64 / counts.views.max(1) as f64,
            "rows",
        ),
        metric(
            "engine.overhead_us",
            unattributed_us(spans, "engine.query", ATTRIBUTED),
            "us",
        ),
        metric(
            "scheduler.overflow_spawned",
            counts.overflow_spawned as f64 / ops,
            "count/op",
        ),
        metric("scheduler.queued_max", counts.queued_max as f64, "count"),
        metric(
            "cache.hit_ratio",
            counts.cache_hits as f64 / counts.cache_lookups.max(1) as f64,
            "ratio",
        ),
        metric(
            "cache.entries",
            counts.cache_entries_added as f64 / ops,
            "entries/op",
        ),
        metric(
            "crowd.rounds_per_query",
            counts.crowd_rounds as f64 / ops,
            "count",
        ),
        metric(
            "crowd.judgments_per_query",
            counts.crowd_judgments as f64 / ops,
            "count",
        ),
        metric(
            "crowd.useful_judgment_ratio",
            counts.crowd_decisive as f64 / counts.crowd_judgments.max(1) as f64,
            "ratio",
        ),
        metric(
            "crowd.invoice_dollars",
            counts.crowd_invoice / ops,
            "USD/query",
        ),
        metric(
            "provenance.crowd_derived_cells",
            counts.provenance[0] as f64 / ops,
            "cells/op",
        ),
        metric(
            "provenance.extracted_cells",
            counts.provenance[1] as f64 / ops,
            "cells/op",
        ),
        metric(
            "provenance.cache_hit_cells",
            counts.provenance[2] as f64 / ops,
            "cells/op",
        ),
        metric(
            "provenance.missing_cells",
            counts.provenance[3] as f64 / ops,
            "cells/op",
        ),
        metric(
            "storage.wal_bytes_per_commit",
            per_commit(counts.wal_bytes),
            "B",
        ),
        metric("storage.snapshot_bytes", counts.snapshot_bytes as f64, "B"),
        metric(
            "storage.checkpoint_bytes_reclaimed",
            counts.checkpoint_reclaimed as f64 / counts.checkpoints.max(1) as f64,
            "B",
        ),
        metric(
            "device.write_bytes_per_op",
            counts.process.write_bytes as f64 / ops,
            "B",
        ),
        metric(
            "device.write_syscalls_per_op",
            counts.process.write_calls as f64 / ops,
            "count",
        ),
        metric(
            "process.cpu_ms_per_op",
            counts.process.cpu.as_secs_f64() * 1e3 / ops,
            "ms",
        ),
        metric("tracing.overhead_pct", overhead_pct, "%"),
    ]
}

/// Assembles a traced run's outcome: writes the spans out, reports the
/// per-layer list, and adds the two phases' medians behind the tracing
/// overhead to the workload's own `detail`.
pub fn traced_outcome(
    args: &Args,
    untraced: Phase,
    traced: Phase,
    counts: LayerCounts,
    tracer: &Tracer,
    mut detail: Vec<Metric>,
) -> Outcome {
    let spans = tracer.spans();
    let path = Path::new(crate::OUT_DIR)
        .join("spans")
        .join(format!("{}-seed{}.tsv", args.workload, args.seed));
    match tracer.dump(&path) {
        Ok(()) => eprintln!("wrote {} spans to {}", spans.len(), path.display()),
        Err(error) => eprintln!("could not write spans to {}: {error}", path.display()),
    }
    let untraced_p50 = percentile(&untraced.latencies_ms(&[]), 0.5);
    let traced_p50 = percentile(&traced.latencies_ms(&[]), 0.5);
    detail.push(metric("untraced_p50_ms", untraced_p50, "ms"));
    detail.push(metric("traced_p50_ms", traced_p50, "ms"));
    detail.push(metric("spans", spans.len() as f64, "count"));
    let overhead = 100.0 * (traced_p50 - untraced_p50) / untraced_p50.max(1e-12);
    Outcome {
        attempted: untraced.attempted() + traced.attempted(),
        failed: untraced.failed + traced.failed,
        metrics: per_layer_metrics(&counts, &spans, overhead),
        problems: [untraced.problems, traced.problems].concat(),
        detail,
    }
}
