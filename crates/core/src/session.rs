//! The typed query entry point: sessions, query builders, and outcomes.
//!
//! [`CrowdDb::execute`] answers with untyped rows and implicitly pays for
//! full expansion.  The session API makes both explicit:
//!
//! ```
//! use crowddb_core::{CrowdDb, CrowdDbConfig, ExpansionMode, ExpansionStrategy, SimulatedCrowd};
//! use crowdsim::ExperimentRegime;
//! use datagen::{DomainConfig, SyntheticDomain};
//!
//! let domain = SyntheticDomain::generate(&DomainConfig::movies().scaled(0.05), 7).unwrap();
//! let space = crowddb_core::build_space_for_domain(&domain, 8, 12).unwrap();
//! let crowd = SimulatedCrowd::new(&domain, ExperimentRegime::TrustedWorkers, 99);
//! let db = CrowdDb::new(CrowdDbConfig::default());
//! db.load_domain("movies", &domain, space, Box::new(crowd)).unwrap();
//! db.register_attribute("movies", "is_comedy", "Comedy").unwrap();
//!
//! let outcome = db
//!     .query("SELECT name FROM movies WHERE is_comedy = true")
//!     .mode(ExpansionMode::Full)
//!     .run()
//!     .unwrap();
//! let rows = outcome.rows().expect("a SELECT returns rows");
//! assert!(!rows.rows.is_empty());
//! // Every cell knows where its value came from.
//! assert_eq!(rows.provenance.len(), rows.rows.len());
//! ```
//!
//! The same policy is expressible in SQL itself —
//! `SELECT … WITH EXPANSION (budget = 12.0, mode = best_effort,
//! quality >= 0.8)` — and SQL settings override the builder's.

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use relational::{Grid, QueryResult, Value};

use crate::db::CrowdDb;
use crate::expansion::ExpansionReport;
use crate::policy::{ExpansionMode, ExpansionPolicy};
use crate::provenance::CellProvenance;
use crate::stream::{worker_died, EventSink, QueryStream};
use crate::Result;

/// A handle binding a set of default [`ExpansionPolicy`] settings to a
/// database, from which per-query builders are spawned.
///
/// Sessions are cheap (`&CrowdDb` plus a policy) and intended per caller:
/// a dashboard might hold a [`ExpansionPolicy::cache_only`] session while a
/// curation job holds a budgeted best-effort one, both over one shared
/// database.
#[derive(Clone)]
pub struct Session<'db> {
    db: &'db CrowdDb,
    defaults: ExpansionPolicy,
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("defaults", &self.defaults)
            .finish_non_exhaustive()
    }
}

impl<'db> Session<'db> {
    /// Creates a session with [`ExpansionPolicy::full`] defaults (use
    /// [`CrowdDb::session`]).
    pub(crate) fn new(db: &'db CrowdDb) -> Self {
        Session {
            db,
            defaults: ExpansionPolicy::full(),
        }
    }

    /// Replaces the session's default policy.
    pub fn with_defaults(mut self, defaults: ExpansionPolicy) -> Self {
        self.defaults = defaults;
        self
    }

    /// The session's default policy.
    pub fn defaults(&self) -> &ExpansionPolicy {
        &self.defaults
    }

    /// Starts building a query that inherits the session defaults.
    pub fn query(&self, sql: impl Into<String>) -> QueryBuilder<'db> {
        QueryBuilder {
            db: self.db,
            sql: sql.into(),
            policy: self.defaults.clone(),
            mode_explicit: self.defaults.mode != ExpansionMode::Full,
            tenant: None,
        }
    }
}

/// A single query under construction: SQL text plus its expansion policy.
///
/// Finish with [`run`](QueryBuilder::run).  Setting a [`budget`]
/// without an explicit [`mode`] implies [`ExpansionMode::BestEffort`] —
/// the only mode a budget is meaningful for.
///
/// [`budget`]: QueryBuilder::budget
/// [`mode`]: QueryBuilder::mode
#[derive(Clone)]
#[must_use = "a query builder does nothing until .run() is called"]
pub struct QueryBuilder<'db> {
    db: &'db CrowdDb,
    sql: String,
    policy: ExpansionPolicy,
    mode_explicit: bool,
    tenant: Option<String>,
}

impl std::fmt::Debug for QueryBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryBuilder")
            .field("sql", &self.sql)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl<'db> QueryBuilder<'db> {
    pub(crate) fn new(db: &'db CrowdDb, sql: impl Into<String>) -> Self {
        QueryBuilder {
            db,
            sql: sql.into(),
            policy: ExpansionPolicy::full(),
            mode_explicit: false,
            tenant: None,
        }
    }

    /// Names the tenant this query runs as, for admission control
    /// ([`CrowdDb::set_limiter`]).  Queries without a tenant run as
    /// `"default"`; on the network server the authentication token is the
    /// tenant.  Without an attached limiter the name is recorded in the
    /// state monitor but otherwise inert.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Caps this query's crowd spend at `dollars`; implies
    /// [`ExpansionMode::BestEffort`] unless a mode was set explicitly.
    pub fn budget(mut self, dollars: f64) -> Self {
        self.policy.budget = Some(dollars);
        if !self.mode_explicit {
            self.policy.mode = ExpansionMode::BestEffort;
        }
        self
    }

    /// Sets the expansion mode.
    pub fn mode(mut self, mode: ExpansionMode) -> Self {
        self.policy.mode = mode;
        self.mode_explicit = true;
        self
    }

    /// Requires at least `floor` inter-worker agreement for a crowd verdict
    /// to appear in this query's results (lower-agreement cells are masked
    /// to `NULL` in the returned rows; the shared table is untouched).
    pub fn quality_floor(mut self, floor: f64) -> Self {
        self.policy.quality_floor = Some(floor);
        self
    }

    /// Enables adaptive judgment acquisition for this query: judgments are
    /// bought round-at-a-time per item and aggregated with the EM
    /// worker-accuracy model, stopping as soon as an item's calibrated
    /// posterior clears the quality floor (or
    /// [`ExpansionPolicy::DEFAULT_ADAPTIVE_TARGET`] when none is set).
    pub fn adaptive(mut self, enabled: bool) -> Self {
        self.policy.adaptive = enabled;
        self
    }

    /// Replaces the whole policy at once.
    pub fn policy(mut self, policy: ExpansionPolicy) -> Self {
        self.mode_explicit = policy.mode != ExpansionMode::Full;
        self.policy = policy;
        self
    }

    /// The policy as currently configured (before any SQL-clause overlay).
    pub fn current_policy(&self) -> &ExpansionPolicy {
        &self.policy
    }

    /// Parses, plans, expands (within policy), and executes the query,
    /// blocking until the full answer is in.
    ///
    /// The query runs on the caller's thread, crowd rounds included — the
    /// same admission and engine path as [`stream`](QueryBuilder::stream),
    /// minus the scheduler hop and the events.  A panic inside the query
    /// does not unwind into the caller: it becomes the
    /// [`Contention`](crate::CrowdDbError::Contention) error a dead worker
    /// gives [`QueryStream::wait`].
    pub fn run(self) -> Result<QueryOutcome> {
        let execute = self.admit()?;
        // Unwind-safe as a panicking scheduler job is: the engine's locks
        // forgive poisoning (`crate::sync`) and the step's guards release
        // the slot and the in-flight claim while unwinding.
        catch_unwind(AssertUnwindSafe(|| execute(&EventSink::null())))
            .unwrap_or_else(|_| Err(worker_died()))
    }

    /// Starts the query as an **anytime** query: returns immediately with a
    /// blocking [`QueryStream`] of [`QueryEvent`](crate::QueryEvent)s while
    /// the query runs as one job on the database's background scheduler.
    ///
    /// The stream yields an immediate `Snapshot` of the rows answerable
    /// from stored and cached cells, `Progress`/`Delta` events per concept
    /// as crowd rounds land (with completeness and remaining-cost
    /// estimates from the crowd source), and finally `Completed` with the
    /// exact [`QueryOutcome`] a blocking [`run`](QueryBuilder::run) would
    /// have produced.  Streaming queries coalesce with concurrent blocking
    /// ones in the in-flight registry like any other query.
    ///
    /// Dropping the stream does not cancel the expansion — dispatched
    /// crowd work completes and is paid for; only the notifications stop.
    pub fn stream(self) -> QueryStream {
        let db = self.db;
        let (sink, receiver) = EventSink::channel();
        match self.admit() {
            Ok(execute) => db.scheduler.spawn(move || match execute(&sink) {
                Ok(outcome) => sink.complete(outcome),
                Err(error) => sink.fail(error),
            }),
            Err(error) => sink.fail(error),
        }
        QueryStream::new(receiver)
    }

    /// Admits the query and returns its execution step.
    ///
    /// With a [`Limiter`](crate::Limiter) attached, a shed query fails
    /// here, before any work or scheduler job exists; a degraded one
    /// carries its [`DegradeDirective`](crate::DegradeDirective) into the
    /// engine.  The ticket holds the tenant's slot from here on, so a
    /// streamed query's time in the scheduler queue counts against the cap
    /// (a blocking one never queues).  The execution step books the spend
    /// and metrics, then releases the slot and the monitor node *before*
    /// returning, so a caller that sees the outcome finds its slot free.
    fn admit(self) -> Result<impl FnOnce(&EventSink) -> Result<QueryOutcome> + Send + 'static> {
        let inner = Arc::clone(&self.db.inner);
        let tenant = self.tenant.as_deref().unwrap_or("default");
        let (ticket, directive) = match inner.limiter_handle() {
            Some(limiter) => {
                let queue_depth = self.db.scheduler_stats().queued;
                match limiter.admit(tenant, queue_depth) {
                    Ok(admission) => {
                        let (ticket, directive) = admission.into_parts();
                        if directive.is_some() {
                            inner.engine_metrics().query_degraded();
                        }
                        (Some(ticket), directive)
                    }
                    Err(error) => {
                        inner.engine_metrics().query_shed();
                        return Err(error);
                    }
                }
            }
            None => (None, None),
        };
        let tenant = self.tenant.map_or(Cow::Borrowed("default"), Cow::Owned);
        let monitor = inner.queries_monitor().make_child_with(
            "query",
            [("sql", Cow::Owned(self.sql.clone())), ("tenant", tenant)],
        );
        let (sql, policy) = (self.sql, self.policy);
        Ok(move |sink: &EventSink| {
            let result = inner.run_policy_query(&sql, policy, directive.as_ref(), sink);
            match &result {
                Ok(outcome) => {
                    if let Some(ticket) = &ticket {
                        // Post-paid dollar window: book the real spend.
                        ticket.charge(outcome.crowd_cost);
                    }
                    inner
                        .engine_metrics()
                        .query_completed(outcome.policy.mode, outcome.crowd_cost);
                }
                Err(_) => inner.engine_metrics().query_failed(),
            }
            drop((ticket, monitor));
            result
        })
    }
}

/// The rows of a read query, with per-cell [`CellProvenance`].
#[derive(Debug, Clone, PartialEq)]
pub struct RowSet {
    /// Names of the returned columns.
    pub columns: Vec<String>,
    /// The returned rows, one cell per column.
    pub rows: Grid<Value>,
    /// Per-cell provenance, parallel to `rows` (same shape).
    pub provenance: Grid<CellProvenance>,
}

impl RowSet {
    /// The provenance of one cell, by row index and column name.
    pub fn provenance_of(&self, row: usize, column: &str) -> Option<CellProvenance> {
        let col = self
            .columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(column))?;
        self.provenance.get(row).and_then(|r| r.get(col)).copied()
    }

    /// Number of cells whose value is absent
    /// ([`CellProvenance::is_missing`]).
    pub fn missing_cells(&self) -> usize {
        self.provenance
            .cells()
            .iter()
            .filter(|p| p.is_missing())
            .count()
    }
}

/// What executing the statement itself produced: rows for reads, a
/// mutation count for writes — never a meaningless zero of the other kind.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum StatementResult {
    /// A read (`SELECT`) returned rows.
    Rows(RowSet),
    /// A write or DDL statement affected rows.
    Mutation {
        /// Rows inserted, updated, or deleted (0 for DDL).
        rows_affected: usize,
    },
}

/// The typed outcome of one policy-driven query.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The effective policy the query ran under (builder/session settings
    /// overlaid with the SQL `WITH EXPANSION` clause, if any).
    pub policy: ExpansionPolicy,
    /// The statement's result.
    pub result: StatementResult,
    /// One report per attribute this query expanded (empty when every
    /// referenced column was already materialized).
    pub reports: Vec<ExpansionReport>,
    /// Dollars of crowd work this query actually paid for — cache hits and
    /// coalesced in-flight rounds cost nothing here.
    pub crowd_cost: f64,
}

impl QueryOutcome {
    /// Assembles an outcome from its parts.  The struct is
    /// `#[non_exhaustive]`, so out-of-crate producers — above all the
    /// network service layer decoding a completed query off the wire —
    /// construct it through this entry point.
    pub fn new(
        policy: ExpansionPolicy,
        result: StatementResult,
        reports: Vec<ExpansionReport>,
        crowd_cost: f64,
    ) -> Self {
        QueryOutcome {
            policy,
            result,
            reports,
            crowd_cost,
        }
    }

    /// The row set, when the statement was a read.
    pub fn rows(&self) -> Option<&RowSet> {
        match &self.result {
            StatementResult::Rows(rows) => Some(rows),
            StatementResult::Mutation { .. } => None,
        }
    }

    /// The mutation count, when the statement was a write.
    pub fn rows_affected(&self) -> Option<usize> {
        match &self.result {
            StatementResult::Rows(_) => None,
            StatementResult::Mutation { rows_affected } => Some(*rows_affected),
        }
    }

    /// Flattens the outcome into the legacy untyped [`QueryResult`] shape
    /// (provenance and policy dropped, `rows_affected` zeroed for reads) —
    /// the compatibility bridge [`CrowdDb::execute`] is built on.
    pub fn into_query_result(self) -> QueryResult {
        match self.result {
            StatementResult::Rows(rows) => QueryResult {
                columns: rows.columns,
                rows: rows.rows,
                rows_affected: 0,
            },
            StatementResult::Mutation { rows_affected } => QueryResult {
                columns: Vec::new(),
                rows: Grid::default(),
                rows_affected,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::MissingReason;

    #[test]
    fn rowset_lookup_and_missing_count() {
        let rows = RowSet {
            columns: vec!["name".into(), "is_comedy".into()],
            rows: Grid::from(vec![
                vec![Value::from("Rocky"), Value::Boolean(false)],
                vec![Value::from("Grease"), Value::Null],
            ]),
            provenance: Grid::from(vec![
                vec![
                    CellProvenance::Stored,
                    CellProvenance::CacheHit { confidence: 0.9 },
                ],
                vec![
                    CellProvenance::Stored,
                    CellProvenance::Missing {
                        reason: MissingReason::BudgetExhausted,
                    },
                ],
            ]),
        };
        assert_eq!(
            rows.provenance_of(0, "IS_COMEDY"),
            Some(CellProvenance::CacheHit { confidence: 0.9 })
        );
        assert_eq!(rows.provenance_of(1, "name"), Some(CellProvenance::Stored));
        assert_eq!(rows.provenance_of(2, "name"), None);
        assert_eq!(rows.provenance_of(0, "year"), None);
        assert_eq!(rows.missing_cells(), 1);
    }

    #[test]
    fn outcome_split_keeps_reads_and_writes_apart() {
        let read = QueryOutcome {
            policy: ExpansionPolicy::full(),
            result: StatementResult::Rows(RowSet {
                columns: vec!["a".into()],
                rows: Grid::from(vec![vec![Value::Integer(1)]]),
                provenance: Grid::from(vec![vec![CellProvenance::Stored]]),
            }),
            reports: Vec::new(),
            crowd_cost: 0.0,
        };
        assert!(read.rows().is_some());
        assert_eq!(read.rows_affected(), None, "reads carry no mutation count");
        let query_result = read.into_query_result();
        assert_eq!(query_result.rows.len(), 1);
        assert_eq!(query_result.rows_affected, 0);

        let write = QueryOutcome {
            policy: ExpansionPolicy::full(),
            result: StatementResult::Mutation { rows_affected: 3 },
            reports: Vec::new(),
            crowd_cost: 0.0,
        };
        assert!(write.rows().is_none());
        assert_eq!(write.rows_affected(), Some(3));
        assert_eq!(write.into_query_result().rows_affected, 3);
    }
}
