//! The engine's metric instruments: what the database counts about
//! itself.
//!
//! [`EngineMetrics`] bundles the hot-path instruments (registered once in
//! a [`telemetry::Registry`] at construction, updated with single atomic
//! operations from the query path) — everything else the engine knows
//! (cache counters, in-flight registry, WAL sizes, scheduler occupancy) is
//! *collect-time* state appended by
//! [`CrowdDb::metrics_snapshot`](crate::CrowdDb::metrics_snapshot), which
//! documents the full metric catalog.

use telemetry::{Counter, FloatCounter, Histogram, Registry};

use crate::policy::ExpansionMode;

/// Histogram buckets for per-query crowd spend, in dollars.
const COST_BUCKETS: &[f64] = &[0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0];

/// The label value a mode reports under.
pub(crate) fn mode_label(mode: ExpansionMode) -> &'static str {
    match mode {
        ExpansionMode::Deny => "deny",
        ExpansionMode::CacheOnly => "cache_only",
        ExpansionMode::BestEffort => "best_effort",
        ExpansionMode::Full => "full",
    }
}

fn mode_index(mode: ExpansionMode) -> usize {
    match mode {
        ExpansionMode::Deny => 0,
        ExpansionMode::CacheOnly => 1,
        ExpansionMode::BestEffort => 2,
        ExpansionMode::Full => 3,
    }
}

const MODES: [ExpansionMode; 4] = [
    ExpansionMode::Deny,
    ExpansionMode::CacheOnly,
    ExpansionMode::BestEffort,
    ExpansionMode::Full,
];

/// The hot-path instruments of one [`CrowdDb`](crate::CrowdDb).
#[derive(Debug)]
pub struct EngineMetrics {
    registry: Registry,
    queries_started: [Counter; 4],
    queries_completed: [Counter; 4],
    queries_failed: Counter,
    queries_degraded: Counter,
    queries_shed: Counter,
    crowd_cost_dollars: FloatCounter,
    query_cost_dollars: Histogram,
    rows_scanned: Counter,
    rows_copied: Counter,
}

impl EngineMetrics {
    /// Builds the instruments and registers every family.
    pub fn new() -> Self {
        let registry = Registry::new();
        let per_mode = |name: &str, help: &str| -> [Counter; 4] {
            MODES.map(|mode| registry.counter_with(name, help, &[("mode", mode_label(mode))]))
        };
        EngineMetrics {
            queries_started: per_mode(
                "crowddb_queries_started_total",
                "Policy queries started, by effective expansion mode",
            ),
            queries_completed: per_mode(
                "crowddb_queries_completed_total",
                "Policy queries completed successfully, by effective expansion mode",
            ),
            queries_failed: registry.counter(
                "crowddb_queries_failed_total",
                "Policy queries that ended in an error",
            ),
            queries_degraded: registry.counter(
                "crowddb_queries_degraded_total",
                "Queries the admission controller demoted down the mode ladder",
            ),
            queries_shed: registry.counter(
                "crowddb_queries_shed_total",
                "Queries the admission controller rejected with Overloaded",
            ),
            crowd_cost_dollars: registry.float_counter(
                "crowddb_crowd_cost_dollars_total",
                "Total crowd dollars spent by completed queries",
            ),
            query_cost_dollars: registry.histogram(
                "crowddb_query_cost_dollars",
                "Per-query crowd spend distribution in dollars",
                COST_BUCKETS,
            ),
            rows_scanned: registry.counter(
                "crowddb_rows_scanned_total",
                "Table rows the executor evaluated a SELECT's WHERE predicate on",
            ),
            rows_copied: registry.counter(
                "crowddb_rows_copied_total",
                "Result rows the executor copied out of the table for SELECTs",
            ),
            registry,
        }
    }

    /// The registry the instruments live in (snapshot source).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A query entered execution under `mode`.
    pub fn query_started(&self, mode: ExpansionMode) {
        self.queries_started[mode_index(mode)].inc();
    }

    /// A query completed successfully under `mode`, spending `dollars`.
    pub fn query_completed(&self, mode: ExpansionMode, dollars: f64) {
        self.queries_completed[mode_index(mode)].inc();
        self.crowd_cost_dollars.add(dollars);
        self.query_cost_dollars.observe(dollars);
    }

    /// A query failed.
    pub fn query_failed(&self) {
        self.queries_failed.inc();
    }

    /// The admission controller degraded a query.
    pub fn query_degraded(&self) {
        self.queries_degraded.inc();
    }

    /// The admission controller shed a query.
    pub fn query_shed(&self) {
        self.queries_shed.inc();
    }

    /// A `SELECT` scanned `scanned` table rows and copied `copied` of them
    /// into its result.
    pub fn rows_read(&self, scanned: usize, copied: usize) {
        self.rows_scanned.add(scanned as u64);
        self.rows_copied.add(copied as u64);
    }
}

impl Default for EngineMetrics {
    fn default() -> Self {
        EngineMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_land_in_the_right_series() {
        let metrics = EngineMetrics::new();
        metrics.query_started(ExpansionMode::Full);
        metrics.query_started(ExpansionMode::Full);
        metrics.query_started(ExpansionMode::BestEffort);
        metrics.query_completed(ExpansionMode::Full, 3.25);
        metrics.query_failed();
        metrics.query_degraded();
        metrics.query_shed();
        metrics.rows_read(16, 1);
        let snap = metrics.registry().snapshot();
        assert_eq!(
            snap.value("crowddb_queries_started_total", &[("mode", "full")]),
            Some(2.0)
        );
        assert_eq!(
            snap.value("crowddb_queries_started_total", &[("mode", "best_effort")]),
            Some(1.0)
        );
        assert_eq!(
            snap.value("crowddb_queries_completed_total", &[("mode", "full")]),
            Some(1.0)
        );
        assert_eq!(snap.value("crowddb_queries_failed_total", &[]), Some(1.0));
        assert_eq!(snap.value("crowddb_queries_degraded_total", &[]), Some(1.0));
        assert_eq!(snap.value("crowddb_queries_shed_total", &[]), Some(1.0));
        assert_eq!(snap.value("crowddb_rows_scanned_total", &[]), Some(16.0));
        assert_eq!(snap.value("crowddb_rows_copied_total", &[]), Some(1.0));
        let total = snap.value("crowddb_crowd_cost_dollars_total", &[]).unwrap();
        assert!((total - 3.25).abs() < 1e-9);
        // Deterministic order: every scrape of idle instruments matches.
        assert_eq!(metrics.registry().snapshot(), metrics.registry().snapshot());
    }
}
