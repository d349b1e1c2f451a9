//! # crowddb-core — a crowd-enabled database with query-driven schema expansion
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Sections 2–4): a relational database that can answer queries over
//! **perceptual attributes that are not part of the schema yet**.
//!
//! When a query references unknown columns (e.g.
//! `SELECT * FROM movies WHERE is_comedy = true AND is_horror = false`),
//! the database runs the **plan → acquire → materialize** pipeline:
//!
//! 1. **analyze** — a static pass over the parsed statement
//!    ([`relational::executor::analyze`]) reports *all* missing columns at
//!    once, so a query touching N perceptual attributes triggers one
//!    planning round, not N parse/execute/fail cycles,
//! 2. **plan** — the [`planner`] deduplicates the missing attributes,
//!    resolves each one's [`ExpansionStrategy`] (per-attribute overrides
//!    fall back to the database default), draws **one** shared gold sample
//!    per table, and builds the explicit item-id → row mapping that all
//!    later stages route values through,
//! 3. **acquire** — the [`JudgmentCache`] answers everything the crowd has
//!    already been paid for (keyed by `(table, attribute, item)`, with
//!    hit/miss/cost-saved counters surfaced on [`ExpansionReport`]); the
//!    remainder goes out as **one** batched crowd round
//!    ([`CrowdSource::collect_batch`]) whose HITs mix questions about all
//!    attributes, and fresh majority verdicts are written back to the
//!    cache,
//! 4. **materialize** — per attribute, either the verdicts are stored
//!    directly (**direct crowd-sourcing**, the Section 4.1 baseline) or an
//!    SVM trained on the gold verdicts' coordinates in a
//!    [`perceptual::PerceptualSpace`] extrapolates the attribute to every
//!    item (**perceptual-space extraction**, Sections 3.4 and 4.2–4.3);
//!    the columns are filled through the id → row mapping,
//! 5. the original query then executes exactly **once** against the
//!    completed schema.
//!
//! Re-executing a query whose attributes are already materialized touches
//! neither the planner nor the crowd; forcing a re-expansion
//! ([`CrowdDb::expand_attribute`] on an existing column) reuses the cached
//! judgments at zero crowd cost.
//!
//! How much a query is *allowed* to spend is a per-query decision: the
//! [`session`] layer ([`CrowdDb::query`] / [`Session`]) runs every query
//! under an [`ExpansionPolicy`] — deny, cache-only, best-effort within a
//! dollar budget (enforced mid-plan, round by round), or full expansion —
//! also expressible in SQL itself as a `WITH EXPANSION (budget = 12.0,
//! mode = best_effort, quality >= 0.8)` suffix clause.  The typed
//! [`QueryOutcome`] carries the effective policy, the dollars actually
//! paid, and per-cell [`CellProvenance`] (stored / crowd-derived with
//! confidence and cost share / cache hit / extracted / missing-with-reason).
//! [`CrowdDb::execute`] remains as a thin full-expansion compatibility
//! wrapper over the same engine.
//!
//! Queries are **anytime**: [`QueryBuilder::stream`] returns a blocking
//! iterator of [`QueryEvent`]s — an immediate snapshot of the rows
//! answerable from stored and cached cells, per-concept progress with
//! completeness and remaining-cost estimates from the crowd source's own
//! [`CrowdSource::estimate_outstanding`] hook, per-round verdict deltas,
//! and finally the completed [`QueryOutcome`] — while the expansion work
//! runs on the database's background [`scheduler`].  A blocking
//! [`QueryBuilder::run`] runs the same engine path on the caller's thread
//! with the events switched off, so the two entry points cannot diverge
//! and a query that expands nothing pays no thread hop.
//! `EXPLAIN EXPANSION <select>` prices the whole plan
//! (concepts, cache hits, dollars) with zero crowd dispatch.
//!
//! The database can be **durable**: [`CrowdDb::open`] /
//! [`CrowdDbBuilder::persistent`] back it with the [`storage`] engine — an
//! append-only, checksummed write-ahead log (fsynced before the triggering
//! call returns) plus a snapshot file written by [`CrowdDb::checkpoint`].
//! Catalog DDL, stored rows, materialized crowd cells, per-cell provenance
//! (confidence and cost share included), and the [`JudgmentCache`] all
//! survive process death, so an answer the crowd was paid for is **never
//! bought twice across restarts** — the pay-once cost model, extended over
//! the process lifetime.  Recovery truncates a torn final WAL record and
//! rejects checksum mismatches.
//!
//! The database is a **concurrent query engine**: [`CrowdDb::execute`]
//! takes `&self` and [`CrowdDb`] is `Send + Sync`, so N threads can share
//! one database and execute simultaneously.  Read-only statements run in
//! parallel under a shared catalog lock; queries racing to expand the same
//! missing `(table, attribute)` are **coalesced** by the [`inflight`]
//! registry onto a single crowd round — the first query dispatches and
//! pays, the others wait and reuse its verdicts through the cache (see the
//! [`db`] module documentation for the full locking design).
//!
//! Additional capabilities reproduce the rest of the evaluation:
//!
//! * [`boost`] — incremental "boosting" of a running crowd task: as crowd
//!   judgments arrive they are used to retrain the extractor, yielding the
//!   time- and cost-resolved curves of Figures 3 and 4.
//! * [`audit`] — identification of questionable HIT responses by comparing
//!   crowd labels against the structure of the perceptual space (Table 4).
//! * [`repair`] — the full data-quality loop: audit, re-crowd-source only the
//!   flagged responses, and merge the fresh judgments back in (Section 4.4).
//!
//! ```
//! use crowddb_core::{CrowdDb, CrowdDbConfig, ExpansionStrategy, SimulatedCrowd};
//! use crowdsim::ExperimentRegime;
//! use datagen::{DomainConfig, SyntheticDomain};
//!
//! // Generate a small synthetic movie domain and build its perceptual space.
//! let domain = SyntheticDomain::generate(&DomainConfig::movies().scaled(0.05), 7).unwrap();
//! let space = crowddb_core::build_space_for_domain(&domain, 8, 12).unwrap();
//!
//! // Assemble the crowd-enabled database.
//! let crowd = SimulatedCrowd::new(&domain, ExperimentRegime::TrustedWorkers, 99);
//! let db = CrowdDb::new(CrowdDbConfig {
//!     strategy: ExpansionStrategy::perceptual_default(),
//!     ..Default::default()
//! });
//! db.load_domain("movies", &domain, space, Box::new(crowd)).unwrap();
//! db.register_attribute("movies", "is_comedy", "Comedy").unwrap();
//!
//! // The schema has no `is_comedy` column — the query triggers expansion.
//! let result = db.execute("SELECT name FROM movies WHERE is_comedy = true").unwrap();
//! assert!(!result.rows.is_empty());
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod audit;
pub mod boost;
pub mod cache;
pub mod crowd_source;
pub mod db;
pub mod error;
pub mod expansion;
pub mod extraction;
pub mod inflight;
mod materialize;
pub mod metrics;
mod persist;
pub mod planner;
pub mod policy;
pub mod repair;
pub mod scheduler;
pub mod session;
pub mod stream;
mod sync;

pub use admission::{
    Admission, AdmissionTicket, DegradeDirective, Limiter, LimiterConfig, LimiterStats,
    TenantLimits,
};
pub use audit::{audit_binary_labels, AuditOutcome};
pub use boost::{evaluate_boost_over_time, BoostCheckpoint, BoostCurve};
pub use cache::{CacheGroup, CacheStats, CachedJudgment, JudgmentCache};
pub use crowd_source::{AttributeRequest, CrowdSource, OutstandingEstimate, SimulatedCrowd};
pub use db::{
    build_space_for_domain, CatalogRead, CheckpointOptions, CheckpointReport, CheckpointScope,
    CrowdDb, CrowdDbBuilder, CrowdDbConfig, ExpansionEvent, PartitionStorage, StorageStats,
    TableOptions, TableRef, TableStorage,
};
pub use error::CrowdDbError;
pub use expansion::{DegradeReason, ExpansionReport, ExpansionStage, ExpansionStrategy};
pub use extraction::{extract_binary_attribute, extract_numeric_attribute, ExtractionConfig};
pub use inflight::{InflightRegistry, InflightStats};
pub use planner::{ExpansionPlan, PlannedAttribute};
pub use policy::{ExpansionMode, ExpansionPolicy};
pub use relational::provenance::{self, CellProvenance, MissingReason};
pub use relational::{Grid, PartitionSpec};
pub use repair::{repair_labels, repair_labels_among, RepairOutcome};
pub use scheduler::{Scheduler, SchedulerStats};
pub use session::{QueryBuilder, QueryOutcome, RowSet, Session, StatementResult};
pub use stream::{QueryEvent, QueryStream};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, CrowdDbError>;
