//! The crowd-enabled database.
//!
//! `CrowdDb::execute` runs the plan → acquire → materialize pipeline:
//!
//! 1. **parse** the statement once,
//! 2. **analyze** it statically ([`relational::executor::analyze`]) to find
//!    *all* missing columns in one shot,
//! 3. **plan** ([`crate::planner`]) — deduplicate attributes, resolve
//!    per-attribute strategies, draw one shared gold sample, build the
//!    explicit id → row mapping,
//! 4. **acquire** — consult the [`JudgmentCache`], claim each attribute in
//!    the [`InflightRegistry`] (queries racing for the same attribute
//!    coalesce onto one crowd round), dispatch **one** batched crowd round
//!    ([`CrowdSource::collect_batch`]) for everything neither the cache nor
//!    a concurrent query can answer, aggregate, and write fresh verdicts
//!    back to the cache,
//! 5. **materialize** — fill the new columns
//!    through the id → row mapping, then execute the statement exactly
//!    once.
//!
//! # Concurrency
//!
//! [`CrowdDb::execute`] takes `&self`: the catalog is **sharded by
//! table** — each table's `Shard` holds one single-table [`Catalog`] *per
//! partition*, each behind its own [`RwLock`], reached through a
//! lightweight table-map lock touched only to create tables or clone
//! shard handles — the binding table is behind an [`RwLock`], every crowd
//! source behind a [`Mutex`], the [`JudgmentCache`] and
//! [`InflightRegistry`] are internally synchronized, and the database is
//! `Send + Sync` — share it across N threads (e.g. via [`std::sync::Arc`]
//! or [`std::thread::scope`]) and call `execute` from all of them.
//! Read-only statements (`SELECT`) run under shared partition locks and
//! therefore in parallel; writes and column materialization take
//! exclusive locks on only the partitions they touch, so queries on
//! *different tables* — and single-partition-routed writes on *disjoint
//! partitions of the same table* (see [`TableOptions::partitions`]) —
//! never contend on any catalog lock at all.  Multi-partition operations
//! always take partition locks in ascending `k` order (the deadlock-free
//! lock order is table map → shard → partition → WAL segment → manifest).
//! No lock is ever held across a crowd dispatch, so slow human work
//! never blocks factual queries.
//!
//! Queries that concurrently need the same missing `(table, attribute)`
//! are **coalesced**: the first becomes the owner of one crowd round, the
//! others block on the in-flight acquisition and then serve themselves
//! from the judgment cache at zero crowd cost (see [`crate::inflight`]).

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use storage::{TableImage, WalRecord};

use crowdsim::WorkerAccuracyStore;
use datagen::SyntheticDomain;
use perceptual::{EuclideanEmbeddingConfig, EuclideanEmbeddingModel, ItemId, PerceptualSpace};
use relational::{
    executor, fold_name, sql, Catalog, Column, DataType, Grid, PartitionSpec, QueryResult,
    RelationalError, Schema, Table, Value,
};

use telemetry::{MetricsSnapshot, StateMonitor};

use crate::admission::{demote, DegradeDirective, Limiter};
use crate::cache::{CacheStats, CachedJudgment, JudgmentCache};
use crate::crowd_source::CrowdSource;
use crate::error::CrowdDbError;
use crate::expansion::{ExpansionReport, ExpansionStage, ExpansionStrategy};
use crate::extraction::extract_binary_attribute;
use crate::inflight::{InflightRegistry, InflightStats};
use crate::materialize::{
    materialize_column, repair_cells, ColumnWrite, MaterializeOutcome, REPAIRED,
};
use crate::metrics::EngineMetrics;
use crate::persist::{self, Durability, RecoveredState, WriteRoute};
use crate::planner::{self, ExpansionPlan, ItemIndex, PlanInputs};
use crate::policy::{ExpansionMode, ExpansionPolicy};
use crate::provenance::{CellProvenance, MissingReason};
use crate::scheduler::{Scheduler, SchedulerStats};
use crate::session::{QueryBuilder, QueryOutcome, RowSet, Session, StatementResult};
use crate::stream::{EventSink, QueryEvent};
use crate::Result;

use crate::sync::{mlock, rlock, wlock};

// The acquire stage has its own file, declared as a child module so its
// `impl DbInner` block reaches the engine's private state.
#[path = "acquire.rs"]
mod acquire;
use acquire::Acquisition;

/// Configuration of a [`CrowdDb`].
pub struct CrowdDbConfig {
    /// The default strategy for filling newly added perceptual attributes.
    /// Individual attributes can override it via
    /// [`CrowdDb::register_attribute_with_strategy`].
    pub strategy: ExpansionStrategy,
    /// Name of the column that links table rows to perceptual-space item
    /// ids.
    pub id_column: String,
    /// Seed for gold-sample selection and crowd dispatch.
    pub seed: u64,
}

impl Default for CrowdDbConfig {
    fn default() -> Self {
        CrowdDbConfig {
            strategy: ExpansionStrategy::default(),
            id_column: "item_id".into(),
            seed: 0xdb,
        }
    }
}

/// One automatic schema expansion triggered by a query.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpansionEvent {
    /// The SQL text that triggered the expansion.
    pub triggering_query: String,
    /// The expansion report.
    pub report: ExpansionReport,
}

/// Expansion events kept in memory; older ones are dropped (and counted
/// by `crowddb_events_dropped_total`) so a long-running server's event
/// history stays bounded.
const EVENT_RING_CAPACITY: usize = 4096;

/// The newest [`EVENT_RING_CAPACITY`] expansion events, addressed by
/// global sequence numbers that keep counting as old events drop off.
struct EventRing<T> {
    events: VecDeque<T>,
    /// Events ever recorded: the sequence number of the next one.
    recorded: u64,
}

impl<T: Clone> EventRing<T> {
    fn new() -> Self {
        EventRing {
            events: VecDeque::new(),
            recorded: 0,
        }
    }

    fn record(&mut self, event: T) {
        if self.events.len() == EVENT_RING_CAPACITY {
            self.events.pop_front();
        }
        self.events.push_back(event);
        self.recorded += 1;
    }

    /// Events dropped off the front so far.
    fn dropped(&self) -> u64 {
        self.recorded - self.events.len() as u64
    }

    /// The retained events from sequence number `seq` on — a cursor older
    /// than the ring resumes at the oldest retained event — plus the cursor
    /// of the next event.
    fn since(&self, seq: u64) -> (Vec<T>, u64) {
        let skip = seq.saturating_sub(self.dropped()) as usize;
        (
            self.events.iter().skip(skip).cloned().collect(),
            self.recorded,
        )
    }
}

/// How a table is laid out and linked to the engine, built fluently and
/// passed to [`CrowdDb::create_table_with`]:
///
/// ```
/// # use crowddb_core::{TableOptions, PartitionSpec};
/// let options = TableOptions::new("movies", "item_id")
///     .partitions(PartitionSpec::Hash { n: 4 });
/// ```
///
/// The default layout is a single partition.  A partitioned table keeps
/// one WAL segment and one snapshot *per partition* on disk, and one
/// catalog lock per partition in memory, so commits and checkpoints on
/// disjoint partitions proceed in parallel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableOptions {
    name: String,
    id_column: String,
    partitions: PartitionSpec,
}

impl TableOptions {
    /// Options for table `name` whose rows are keyed by `id_column` — the
    /// column partitioning routes on, which must equal the database-wide
    /// [`CrowdDbConfig::id_column`].
    pub fn new(name: impl Into<String>, id_column: impl Into<String>) -> Self {
        TableOptions {
            name: name.into(),
            id_column: id_column.into(),
            partitions: PartitionSpec::Single,
        }
    }

    /// Sets the partition layout (normalized: one-way hash or empty range
    /// specs collapse to [`PartitionSpec::Single`]).
    pub fn partitions(mut self, spec: PartitionSpec) -> Self {
        self.partitions = spec.normalize();
        self
    }

    /// The table name these options describe.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The id column rows route on.
    pub fn id_column(&self) -> &str {
        &self.id_column
    }

    /// The partition layout.
    pub fn partition_spec(&self) -> &PartitionSpec {
        &self.partitions
    }
}

/// Which durable state one [`CrowdDb::checkpoint_with`] call compacts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum CheckpointScope {
    /// Every partition of every table that received WAL records since its
    /// last checkpoint — the routine incremental compaction
    /// ([`CrowdDb::checkpoint`]).
    #[default]
    Dirty,
    /// Every partition of every table, dirty or not — the backup/archival
    /// compaction ([`CrowdDb::checkpoint_full`]).
    Full,
    /// Every partition of one table, dirty or not.
    Table(String),
    /// Exactly one partition of one table, dirty or not.  Partition `k` of
    /// a single-partition table is `0`.
    Partition(String, usize),
}

/// Options for [`CrowdDb::checkpoint_with`] — today just the
/// [`CheckpointScope`], carried in a struct so future knobs extend the
/// call instead of multiplying methods.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckpointOptions {
    /// What to compact.
    pub scope: CheckpointScope,
}

impl CheckpointOptions {
    /// Compact only dirty partitions (the [`CrowdDb::checkpoint`] default).
    pub fn dirty() -> Self {
        CheckpointOptions {
            scope: CheckpointScope::Dirty,
        }
    }

    /// Compact everything ([`CrowdDb::checkpoint_full`] semantics).
    pub fn full() -> Self {
        CheckpointOptions {
            scope: CheckpointScope::Full,
        }
    }

    /// Compact every partition of one table.
    pub fn table(name: impl Into<String>) -> Self {
        CheckpointOptions {
            scope: CheckpointScope::Table(name.into()),
        }
    }

    /// Compact exactly one partition of one table.
    pub fn partition(name: impl Into<String>, k: usize) -> Self {
        CheckpointOptions {
            scope: CheckpointScope::Partition(name.into(), k),
        }
    }
}

/// What one incremental [`CrowdDb::checkpoint`] did: which tables were
/// dirty (and got a fresh snapshot + truncated segment), which were clean
/// (and were skipped untouched), how many individual partitions each
/// outcome covered, and how many WAL bytes the truncations reclaimed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Tables with at least one partition snapshotted, in name order.
    /// Each snapshotted partition got a fresh snapshot file and a
    /// truncated segment.
    pub tables_snapshotted: Vec<String>,
    /// Tables the checkpoint left completely untouched, in name order.
    pub tables_skipped: Vec<String>,
    /// Individual partitions snapshotted, summed over all tables (equals
    /// `tables_snapshotted.len()` when every table is single-partition).
    pub partitions_snapshotted: usize,
    /// Individual partitions skipped clean — including the clean
    /// partitions of tables that appear in `tables_snapshotted` (a
    /// *partial* per-table checkpoint).
    pub partitions_skipped: usize,
    /// WAL bytes reclaimed by the segment truncations.
    pub bytes_reclaimed: u64,
}

impl CheckpointReport {
    /// True when at least one table was snapshotted.
    pub fn snapshotted_any(&self) -> bool {
        !self.tables_snapshotted.is_empty()
    }
}

/// Per-partition durable footprint of one table — a row of
/// [`StorageStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionStorage {
    /// The partition index `k` (0 for single-partition tables).
    pub partition: usize,
    /// Live WAL segment bytes on disk (`wal/<table>.p<k>.log`).
    pub wal_bytes: u64,
    /// Snapshot file bytes on disk (0 before the first checkpoint).
    pub snapshot_bytes: u64,
    /// True when the segment holds records newer than the snapshot — the
    /// next [`CheckpointScope::Dirty`] checkpoint will compact it.
    pub dirty: bool,
}

/// One table's durable footprint — a row of [`StorageStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableStorage {
    /// The table name (lower-cased).
    pub table: String,
    /// How rows route to partitions.
    pub spec: PartitionSpec,
    /// Per-partition sizes and dirty flags, in `k` order.
    pub partitions: Vec<PartitionStorage>,
}

impl TableStorage {
    /// WAL bytes summed over this table's partitions.
    pub fn wal_bytes(&self) -> u64 {
        self.partitions.iter().map(|p| p.wal_bytes).sum()
    }

    /// Snapshot bytes summed over this table's partitions.
    pub fn snapshot_bytes(&self) -> u64 {
        self.partitions.iter().map(|p| p.snapshot_bytes).sum()
    }

    /// True when any partition has unsnapshotted records.
    pub fn is_dirty(&self) -> bool {
        self.partitions.iter().any(|p| p.dirty)
    }
}

/// A typed snapshot of the durable storage footprint, returned by
/// [`CrowdDb::storage_stats`]: per-table and per-partition WAL bytes,
/// snapshot bytes, and dirty flags.  Empty for in-memory databases.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// One entry per table, sorted by table name.
    pub tables: Vec<TableStorage>,
}

impl StorageStats {
    /// WAL bytes summed over every table's every partition — grows with
    /// committed work and collapses back to a few dozen bytes per
    /// partition (file header plus configuration stamps) on checkpoint.
    pub fn wal_bytes_total(&self) -> u64 {
        self.tables.iter().map(TableStorage::wal_bytes).sum()
    }

    /// One table's entry, by name (any casing).
    pub fn table(&self, name: &str) -> Option<&TableStorage> {
        let key = name.to_lowercase();
        self.tables.iter().find(|t| t.table == key)
    }
}

/// A read view of the sharded catalog, returned by [`CrowdDb::catalog`].
///
/// Holds shard *handles*, not locks: each [`table`](CatalogRead::table)
/// call takes only that table's shared locks, as described on
/// [`TableRef`].  Tables created after this view was taken are not visible
/// through it — take a fresh view to see them.  This is an inspection
/// view: queries never go through it, they run in place on the partitions.
pub struct CatalogRead {
    /// `(table name, shard)` pairs, sorted by name.
    shards: Vec<(String, Arc<Shard>)>,
}

impl CatalogRead {
    /// Shared read access to one table.  Fails with
    /// [`RelationalError::UnknownTable`] when the view holds no table of
    /// that name.
    pub fn table(&self, name: &str) -> Result<TableRef<'_>> {
        let key = name.to_lowercase();
        let shard = self
            .shards
            .iter()
            .find(|(shard_name, _)| *shard_name == key)
            .map(|(_, shard)| shard)
            .ok_or_else(|| RelationalError::UnknownTable(name.to_string()))?;
        let view = if shard.parts.len() == 1 {
            TableView::Locked(shard.read_one(0))
        } else {
            TableView::Merged(shard.merged(&key)?)
        };
        Ok(TableRef { view, name: key })
    }

    /// The table names of this view, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.shards.iter().map(|(name, _)| name.clone()).collect()
    }

    /// Number of tables in this view.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when the view holds no tables.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }
}

/// A borrowed whole-table view, dereferencing to [`Table`].
///
/// For a single-partition table this holds the partition's shared lock —
/// writers to the table block while it is alive; drop it before
/// triggering expansions or mutations.  For a partitioned table it holds
/// an owned copy merged from every partition under briefly-held shared
/// partition locks, so it blocks nothing — but also does not see writes
/// that commit after it was taken.
pub struct TableRef<'a> {
    view: TableView<'a>,
    name: String,
}

enum TableView<'a> {
    /// The single partition's shared lock, held while the view lives.
    Locked(RwLockReadGuard<'a, Catalog>),
    /// A merged copy of every partition; no lock held.
    Merged(Table),
}

impl std::ops::Deref for TableRef<'_> {
    type Target = Table;

    fn deref(&self) -> &Table {
        match &self.view {
            TableView::Locked(catalog) => catalog
                .table(&self.name)
                .expect("a shard always holds its own table"),
            TableView::Merged(table) => table,
        }
    }
}

/// Everything one table needs for crowd-driven expansion: its perceptual
/// space, its crowd source, and the registered column → concept mappings.
struct TableBinding {
    space: PerceptualSpace,
    /// The crowd source, serialized by a mutex: one crowd round per table
    /// at a time (the in-flight registry already deduplicates the *content*
    /// of rounds, the mutex only orders their dispatch).
    crowd: Mutex<Box<dyn CrowdSource>>,
    /// Maps SQL column names (lower-cased) to the domain concept the crowd
    /// is asked about (e.g. `is_comedy` → `Comedy`).
    attributes: RwLock<HashMap<String, String>>,
    /// Per-column strategy overrides; columns without an entry use the
    /// database-wide default.
    strategy_overrides: RwLock<HashMap<String, ExpansionStrategy>>,
}

/// A relational database extended with crowd-driven, query-driven schema
/// expansion.
///
/// All methods take `&self`; the database is `Send + Sync` and designed to
/// be shared across threads.  See the [module documentation](self) for the
/// locking and coalescing design.
///
/// Internally the database is an [`Arc`]-shared state core plus a
/// background [`Scheduler`].  A blocking query
/// ([`QueryBuilder::run`](crate::QueryBuilder::run), and so
/// [`CrowdDb::execute`]) runs on the caller's thread, crowd rounds
/// included; a streaming query
/// ([`QueryBuilder::stream`](crate::QueryBuilder::stream)) executes as one
/// job on the scheduler's worker threads and reports back over a channel,
/// so its caller gets the stream before the work ends.  Both run the same
/// engine path.
pub struct CrowdDb {
    /// The shared state core.  Scheduler jobs hold their own [`Arc`]
    /// clones, so in-flight queries outlive any particular borrow of the
    /// database handle.
    pub(crate) inner: Arc<DbInner>,
    /// The background expansion scheduler (see [`crate::scheduler`]).
    pub(crate) scheduler: Scheduler,
}

/// One table's unit of catalog locking: one single-table [`Catalog`] *per
/// partition*, each behind its own [`RwLock`].
///
/// Every partition's catalog holds one *slice* of the table under the
/// table's full schema.  Statements run in place on the slices under only
/// the partition locks they need, so tables never contend with each other
/// and a read pinned to one id never waits on the other partitions.  The
/// shard map itself (`DbInner::shards`) is guarded by a separate
/// lightweight lock used only for table creation and handle cloning — the
/// lock order is table map → shard → partition → WAL segment → manifest
/// (see `docs/architecture.md`).
struct Shard {
    /// How rows route to partitions ([`PartitionSpec::Single`] for every
    /// table not created through [`TableOptions::partitions`]).
    spec: PartitionSpec,
    /// One single-table catalog per partition, in `k` order.  Always at
    /// least one entry; `parts.len() == spec.partition_count()`.
    parts: Vec<RwLock<Catalog>>,
    /// The table's id column as its schema declared it at creation
    /// (`None` when the table has none).  Fixed for the table's lifetime —
    /// columns are never renamed or retyped.
    id_column: Option<Column>,
    /// False while no partition can hold a recoverable hole: set when a
    /// materialization tags one (under every partition's exclusive lock)
    /// or a recovered slice holds one, and never cleared.  Reads of a
    /// table without holes decide that no column is incomplete without
    /// touching the partition locks.
    may_have_holes: AtomicBool,
}

impl Shard {
    /// Builds a shard from per-partition table slices (one per partition
    /// of `spec`, in `k` order — see
    /// [`persist::split_table_by_partition`]) keyed and routed by
    /// `id_column`: every slice indexes its [`key_column`](Shard::key_column).
    fn partitioned(spec: PartitionSpec, mut slices: Vec<Table>, id_column: &str) -> Arc<Shard> {
        debug_assert_eq!(spec.partition_count(), slices.len());
        let id_column = slices[0].schema().column(id_column).cloned();
        let holes = slices.iter().any(|slice| {
            (0..slice.schema().len()).any(|column| slice.recoverable_holes(column) > 0)
        });
        let mut shard = Shard {
            spec,
            parts: Vec::new(),
            id_column,
            may_have_holes: AtomicBool::new(holes),
        };
        if let Some(key) = shard.key_column() {
            for slice in &mut slices {
                slice
                    .index_key(&key.name)
                    .expect("the key column is an INTEGER column of every slice");
            }
        }
        shard.parts = slices
            .into_iter()
            .map(|slice| {
                let mut catalog = Catalog::new();
                catalog
                    .create_table(slice)
                    .expect("a fresh single-table catalog cannot collide");
                RwLock::new(catalog)
            })
            .collect();
        Arc::new(shard)
    }

    /// The id column when it is declared `INTEGER`: only then does an
    /// integer literal name the rows — and on a partitioned table the one
    /// partition — holding that id.  Every slice indexes it, and reads
    /// route on it, so the two can never disagree.
    fn key_column(&self) -> Option<&Column> {
        self.id_column
            .as_ref()
            .filter(|column| column.data_type == DataType::Integer)
    }

    /// The one partition a `SELECT` can match rows in, when the table is
    /// partitioned and its `WHERE` pins the key column to an integer (see
    /// [`Expr::pinned_integer`]); `None` when every partition must be
    /// scanned.
    ///
    /// [`Expr::pinned_integer`]: relational::Expr::pinned_integer
    fn route(&self, select: &sql::SelectStatement) -> Option<usize> {
        if self.spec.is_single() {
            return None;
        }
        let id = select.filter.as_ref()?.pinned_integer(self.key_column()?)?;
        Some(self.spec.route_id(id))
    }

    /// Shared locks on the partitions a read runs on, taken in ascending
    /// `k`: partition `k` only when routed, otherwise every partition.
    /// The read holds them for its scan.
    fn read(&self, route: Option<usize>) -> Vec<RwLockReadGuard<'_, Catalog>> {
        match route {
            Some(k) => vec![rlock(&self.parts[k])],
            None => self.parts.iter().map(rlock).collect(),
        }
    }

    /// True when column `column` of table `name` is *incomplete*: some
    /// partition holds a recoverable hole in it.  Reads each partition's
    /// hole count under its shared lock — no row is scanned.
    fn is_incomplete(&self, name: &str, column: &str) -> bool {
        self.parts.iter().any(|part| {
            let catalog = rlock(part);
            catalog.table(name).is_ok_and(|table| {
                table
                    .schema()
                    .index_of(column)
                    .is_some_and(|index| table.recoverable_holes(index) > 0)
            })
        })
    }

    /// A read view of one partition only — schema-complete (every
    /// partition slice carries the table's full schema), row-incomplete.
    /// Enough for any pass that needs only the schema, without touching —
    /// or blocking on — the other partitions.
    fn read_one(&self, k: usize) -> RwLockReadGuard<'_, Catalog> {
        rlock(&self.parts[k])
    }

    /// An owned copy of the whole table `name`: every partition's slice,
    /// concatenated in `k` order under briefly-held shared locks.  Only
    /// the [`CatalogRead`] inspection view uses it.
    fn merged(&self, name: &str) -> Result<Table> {
        let guards = self.read(None);
        let mut merged: Option<Table> = None;
        for guard in &guards {
            let slice = guard.table(name)?;
            merged = Some(match merged.take() {
                None => slice.clone(),
                Some(acc) => persist::merge_partition_tables(acc, slice)?,
            });
        }
        Ok(merged.expect("at least one partition"))
    }

    /// Exclusive access to one partition's catalog.
    fn write_one(&self, k: usize) -> RwLockWriteGuard<'_, Catalog> {
        wlock(&self.parts[k])
    }

    /// Exclusive access to every partition, locked in ascending `k` order
    /// (the deadlock-free order every multi-partition writer uses).
    fn write_all(&self) -> Vec<RwLockWriteGuard<'_, Catalog>> {
        self.parts.iter().map(wlock).collect()
    }
}

/// The slices of table `name` behind a read's partition locks, in the
/// locks' (`k`) order — what [`executor::execute_select_partitions`] runs
/// on.
fn slices<'a>(guards: &'a [RwLockReadGuard<'_, Catalog>], name: &str) -> Result<Vec<&'a Table>> {
    guards
        .iter()
        .map(|guard| guard.table(name).map_err(CrowdDbError::from))
        .collect()
}

/// The shared state behind a [`CrowdDb`]: everything scheduler jobs need,
/// behind one [`Arc`].
pub(crate) struct DbInner {
    config: CrowdDbConfig,
    /// Table name (lower-cased) → shard.  The map lock guards membership
    /// only; all table data sits behind each shard's own lock.
    shards: RwLock<BTreeMap<String, Arc<Shard>>>,
    bindings: RwLock<HashMap<String, Arc<TableBinding>>>,
    events: Mutex<EventRing<ExpansionEvent>>,
    cache: JudgmentCache,
    inflight: InflightRegistry,
    /// Number of crowd rounds dispatched so far; mixed into every round's
    /// seed so that re-acquisition after [`CrowdDb::invalidate_judgments`]
    /// draws genuinely fresh judgments instead of deterministically
    /// reproducing the ones it was meant to replace.
    crowd_rounds: AtomicU64,
    /// The durability engine of a persistent database (`None` for the
    /// in-memory default).  Mutators append WAL records to their table's
    /// segment through [`DbInner::log`]; catalog-shaped records are logged
    /// under that table's exclusive shard lock so checkpointing can never
    /// split an apply from its log record (see [`crate::persist`] for the
    /// invariants).
    durability: Option<Durability>,
    /// Per-worker accuracy profiles learned by adaptive acquisition's EM
    /// aggregation, shared across rounds and queries so later rounds can
    /// route uncertain items to proven workers.  A runtime estimate cache,
    /// not durable state: after recovery it re-converges from fresh rounds
    /// (finalized verdicts are served from the judgment cache and never
    /// re-bought, so losing the profiles costs convergence speed, not
    /// dollars).
    accuracy: Mutex<WorkerAccuracyStore>,
    /// The hot-path metric instruments (queries started/completed per
    /// mode, degradations, sheds, crowd dollars).  Everything else in the
    /// scrape is collect-time state — see
    /// [`CrowdDb::metrics_snapshot`] for the full catalog.
    metrics: EngineMetrics,
    /// Root of the live state-monitor tree (`crowddb`): active queries and
    /// in-flight expansions attach child nodes for their lifetime, so a
    /// scrape shows what the engine is doing *right now* rather than what
    /// it has counted so far.
    monitor: StateMonitor,
    /// The `crowddb/queries` monitor node: one child per query currently
    /// running (or, streamed, queued for the scheduler).
    queries_monitor: StateMonitor,
    /// The `crowddb/expansions` monitor node: one child per concept whose
    /// crowd acquisition is in flight, carrying the concept, the items
    /// outstanding, and the plan's spend so far.
    expansions_monitor: StateMonitor,
    /// The `crowddb/storage` monitor node: per-partition
    /// `<table>.p<k>.wal_bytes` gauges, refreshed by
    /// [`CrowdDb::storage_stats`].
    storage_monitor: StateMonitor,
    /// The admission controller, when one is attached
    /// ([`CrowdDb::set_limiter`]).  `None` (the default) admits everything
    /// untouched.
    limiter: RwLock<Option<Arc<Limiter>>>,
    /// High-water mark of [`CrowdDb::events_since`] cursors handed out —
    /// how far the furthest-ahead poller has read, surfaced as
    /// `crowddb_events_high_water` so a stuck consumer is visible as a gap
    /// against the event count.
    events_high_water: AtomicU64,
}

/// Core worker threads per database.  The scheduler grows past this
/// whenever more streamed queries than workers are simultaneously in flight
/// (coalescing *requires* that) and shrinks back when the burst is over.
const SCHEDULER_CORE_WORKERS: usize = 2;

/// Builds a [`CrowdDb`], optionally durable.
///
/// ```no_run
/// # use crowddb_core::{CrowdDb, CrowdDbConfig};
/// let db = CrowdDb::builder()
///     .config(CrowdDbConfig::default())
///     .persistent("/var/lib/crowddb/movies")
///     .open()?;
/// # Ok::<(), crowddb_core::CrowdDbError>(())
/// ```
///
/// Without [`persistent`](CrowdDbBuilder::persistent) the builder yields
/// the same in-memory database as [`CrowdDb::new`].  With it, opening
/// replays the directory's snapshot and write-ahead log — catalog,
/// stored and crowd-materialized cells, per-cell provenance, and the
/// judgment cache all come back, so answers the crowd was already paid
/// for are **never bought twice across restarts**.  Perceptual spaces and
/// crowd sources are runtime objects: re-attach them with
/// [`CrowdDb::bind_table`] / [`CrowdDb::register_attribute`] after
/// opening (see `examples/persistent_session.rs`).
pub struct CrowdDbBuilder {
    config: CrowdDbConfig,
    path: Option<PathBuf>,
    recovery_parallelism: usize,
}

/// Default worker count for parallel segment replay on recovery.  Replay
/// is I/O- and decode-bound; a small pool overlaps segment reads without
/// oversubscribing small machines.
const DEFAULT_RECOVERY_PARALLELISM: usize = 4;

impl Default for CrowdDbBuilder {
    fn default() -> Self {
        CrowdDbBuilder {
            config: CrowdDbConfig::default(),
            path: None,
            recovery_parallelism: DEFAULT_RECOVERY_PARALLELISM,
        }
    }
}

impl CrowdDbBuilder {
    /// Starts from the default configuration, in-memory.
    pub fn new() -> Self {
        CrowdDbBuilder::default()
    }

    /// Replaces the database configuration.
    pub fn config(mut self, config: CrowdDbConfig) -> Self {
        self.config = config;
        self
    }

    /// Makes the database durable in directory `path` (created if absent):
    /// state is recovered from it on open, and every committed change is
    /// WAL-appended to it before the triggering call returns.
    pub fn persistent(mut self, path: impl Into<PathBuf>) -> Self {
        self.path = Some(path.into());
        self
    }

    /// Caps the worker threads recovery replays WAL segments on (default
    /// 4).  `1` forces serial replay.  The recovered state is bit-identical
    /// either way: segments share no state, and the per-table results are
    /// merged in sorted table order regardless of completion order.
    pub fn recovery_parallelism(mut self, workers: usize) -> Self {
        self.recovery_parallelism = workers.max(1);
        self
    }

    /// Opens the database, recovering persisted state when a directory was
    /// configured.  Recovery truncates a torn final WAL record (a crash
    /// mid-append) but fails with [`CrowdDbError::Storage`] on checksum
    /// mismatches — silent loss of paid-for judgments is never an option.
    /// A directory written in another on-disk format version fails with
    /// [`CrowdDbError::Storage`] naming the version found and the one this
    /// build reads, and is left as it was.
    pub fn open(self) -> Result<CrowdDb> {
        match self.path {
            None => Ok(CrowdDb::assemble(
                self.config,
                RecoveredState::default(),
                None,
            )),
            Some(dir) => {
                let (state, durability) =
                    persist::recover(&dir, &self.config.id_column, self.recovery_parallelism)?;
                Ok(CrowdDb::assemble(self.config, state, Some(durability)))
            }
        }
    }
}

impl CrowdDb {
    /// Creates an empty, in-memory crowd-enabled database.  For a durable
    /// one, use [`CrowdDb::open`] or [`CrowdDb::builder`].
    pub fn new(config: CrowdDbConfig) -> Self {
        CrowdDb::assemble(config, RecoveredState::default(), None)
    }

    /// Opens a durable database in directory `path` under the default
    /// configuration — shorthand for
    /// `CrowdDb::builder().persistent(path).open()`.  See
    /// [`CrowdDbBuilder`] for recovery semantics.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        CrowdDb::builder().persistent(path.as_ref()).open()
    }

    /// Starts building a database (configuration, persistence).
    pub fn builder() -> CrowdDbBuilder {
        CrowdDbBuilder::new()
    }

    /// True when the database is backed by a durable directory.
    pub fn is_persistent(&self) -> bool {
        self.inner.durability.is_some()
    }

    /// Compacts the durable state **incrementally**: every table whose WAL
    /// segment received records since its last checkpoint gets a fresh
    /// per-table snapshot and a truncated segment; clean tables are
    /// skipped untouched.  The manifest is rewritten once at the end.
    /// Does nothing (an empty report) on an in-memory database.
    ///
    /// Each partition's checkpoint holds that partition's **shared** lock
    /// plus its segment mutex: concurrent readers and the background
    /// scheduler keep running, writers on *other tables* — and on other
    /// partitions of the same table — are completely unaffected, and
    /// writers on the partition being snapshotted block only for its own
    /// capture.  A crash at any point leaves every partition with either
    /// its old snapshot + complete old segment or its new snapshot (+ the
    /// records appended since), never a torn hybrid — snapshots are
    /// written to a temp file and atomically renamed, and per-partition
    /// generation stamps keep a partially completed incremental checkpoint
    /// consistent partition by partition.
    ///
    /// Shorthand for `checkpoint_with(CheckpointOptions::dirty())`.
    pub fn checkpoint(&self) -> Result<CheckpointReport> {
        self.checkpoint_with(CheckpointOptions::dirty())
    }

    /// Compacts the durable state **fully**: every partition of every
    /// table gets a fresh snapshot and a truncated segment, dirty or not.
    /// This is what the pre-sharding engine did on every checkpoint; it
    /// survives as the backup/archival entry point — after it returns, the
    /// `snap/` directory plus the manifest describe the complete database
    /// with every segment empty, so copying the directory captures a
    /// self-contained image.  Prefer [`checkpoint`](CrowdDb::checkpoint)
    /// for routine compaction: on read-mostly tables a full checkpoint
    /// re-serializes and re-writes data that has not changed.
    ///
    /// Shorthand for `checkpoint_with(CheckpointOptions::full())`.
    pub fn checkpoint_full(&self) -> Result<CheckpointReport> {
        self.checkpoint_with(CheckpointOptions::full())
    }

    /// Compacts the durable state within one [`CheckpointScope`]: every
    /// selected partition gets a fresh snapshot and a truncated WAL
    /// segment; everything outside the scope — other tables, and the
    /// *unselected partitions of selected tables* — is left byte-for-byte
    /// untouched on disk.  The manifest is rewritten once at the end.
    /// Does nothing (an empty report) on an in-memory database.
    ///
    /// See [`checkpoint`](CrowdDb::checkpoint) for the locking and
    /// crash-consistency guarantees, which hold per partition.
    pub fn checkpoint_with(&self, options: CheckpointOptions) -> Result<CheckpointReport> {
        let inner = &self.inner;
        let durability = match &inner.durability {
            Some(durability) => durability,
            None => return Ok(CheckpointReport::default()),
        };
        let mut report = CheckpointReport::default();
        let selected: Vec<(String, Arc<Shard>)> = match &options.scope {
            CheckpointScope::Dirty | CheckpointScope::Full => inner.shards_sorted(),
            CheckpointScope::Table(name) | CheckpointScope::Partition(name, _) => {
                vec![(name.to_lowercase(), inner.shard(name)?)]
            }
        };
        for (name, shard) in selected {
            let mut snapshotted = 0usize;
            let mut skipped = 0usize;
            for k in 0..shard.parts.len() {
                let include = match &options.scope {
                    CheckpointScope::Dirty => durability.is_dirty_partition(&name, k),
                    CheckpointScope::Full | CheckpointScope::Table(_) => true,
                    CheckpointScope::Partition(_, wanted) => {
                        if *wanted >= shard.parts.len() {
                            return Err(CrowdDbError::Configuration(format!(
                                "table '{name}' has {} partitions; partition {wanted} does not exist",
                                shard.parts.len()
                            )));
                        }
                        *wanted == k
                    }
                };
                if !include {
                    skipped += 1;
                    continue;
                }
                let catalog = rlock(&shard.parts[k]);
                let table = catalog.table(&name)?;
                report.bytes_reclaimed += durability.checkpoint_partition(
                    &name,
                    k,
                    |wal_generation, wal_records_applied| {
                        persist::table_snapshot_image(
                            persist::TableSnapshotParts {
                                table,
                                cache: &inner.cache,
                                crowd_rounds: inner.crowd_rounds.load(Ordering::SeqCst),
                                id_column: &inner.config.id_column,
                                partition: (&shard.spec, k),
                            },
                            wal_generation,
                            wal_records_applied,
                        )
                    },
                )?;
                snapshotted += 1;
            }
            report.partitions_snapshotted += snapshotted;
            report.partitions_skipped += skipped;
            if snapshotted > 0 {
                report.tables_snapshotted.push(name);
            } else {
                report.tables_skipped.push(name);
            }
        }
        durability.write_manifest_state(
            inner.cache.stats(),
            inner.crowd_rounds.load(Ordering::SeqCst),
        )?;
        Ok(report)
    }

    /// A typed snapshot of the durable storage footprint: per-table and
    /// per-partition WAL bytes, snapshot bytes, and dirty flags, sorted by
    /// table name (empty for in-memory databases).  Also refreshes the
    /// `crowddb/storage` [`StateMonitor`] subtree with per-partition
    /// `<table>.p<k>.wal_bytes` gauges.
    pub fn storage_stats(&self) -> StorageStats {
        let tables: Vec<TableStorage> = match &self.inner.durability {
            None => Vec::new(),
            Some(durability) => durability
                .storage_stats()
                .into_iter()
                .map(|(table, spec, parts)| TableStorage {
                    table,
                    spec,
                    partitions: parts
                        .into_iter()
                        .enumerate()
                        .map(|(k, disk)| PartitionStorage {
                            partition: k,
                            wal_bytes: disk.wal_bytes,
                            snapshot_bytes: disk.snapshot_bytes,
                            dirty: disk.dirty,
                        })
                        .collect(),
                })
                .collect(),
        };
        let stats = StorageStats { tables };
        for table in &stats.tables {
            for part in &table.partitions {
                self.inner.storage_monitor.insert(
                    format!("{}.p{}.wal_bytes", table.table, part.partition),
                    part.wal_bytes,
                );
            }
        }
        stats
    }

    fn assemble(
        config: CrowdDbConfig,
        state: RecoveredState,
        durability: Option<Durability>,
    ) -> Self {
        let shards = (state.tables.into_iter())
            .map(|(name, (spec, slices))| {
                (name, Shard::partitioned(spec, slices, &config.id_column))
            })
            .collect();
        let monitor = StateMonitor::make_root("crowddb");
        let queries_monitor = monitor.make_child("queries");
        let expansions_monitor = monitor.make_child("expansions");
        let storage_monitor = monitor.make_child("storage");
        CrowdDb {
            inner: Arc::new(DbInner {
                config,
                shards: RwLock::new(shards),
                bindings: RwLock::new(HashMap::new()),
                events: Mutex::new(EventRing::new()),
                cache: state.cache,
                inflight: InflightRegistry::new(),
                crowd_rounds: AtomicU64::new(state.crowd_rounds),
                durability,
                accuracy: Mutex::new(WorkerAccuracyStore::new()),
                metrics: EngineMetrics::new(),
                monitor,
                queries_monitor,
                expansions_monitor,
                storage_monitor,
                limiter: RwLock::new(None),
                events_high_water: AtomicU64::new(0),
            }),
            scheduler: Scheduler::new(SCHEDULER_CORE_WORKERS),
        }
    }

    /// Read access to the relational catalog.
    ///
    /// The returned view holds **no** lock itself — it carries a handle to
    /// every table shard, and each [`CatalogRead::table`] call takes only
    /// that table's shared lock for the lifetime of the returned
    /// reference.  Concurrent `SELECT`s keep running; a write to a table
    /// blocks only while a reference to *that* table is alive.  Do not
    /// hold a table reference across a call to [`CrowdDb::execute`].
    pub fn catalog(&self) -> CatalogRead {
        CatalogRead {
            shards: self.inner.shards_sorted(),
        }
    }

    /// Registers a fully built table with the catalog under explicit
    /// [`TableOptions`] — the narrow, invariant-safe catalog mutator.  A
    /// brand-new table has no binding, cache entries, or provenance to
    /// invalidate, which is exactly why no raw write guard to the catalog
    /// is offered: mutating *bound* tables behind the planner would break
    /// the id-column ↔ perceptual-item link the judgment cache is keyed
    /// by.  For data changes go through SQL
    /// via [`CrowdDb::execute`] / [`CrowdDb::query`] (the pipeline
    /// re-derives its row mappings around those).
    ///
    /// With [`TableOptions::partitions`] the table's rows are split across
    /// per-partition shards, routed on the id column: writes touching
    /// disjoint partitions commit in parallel.  When persistent, every
    /// partition `k` owns a WAL segment `wal/<table>.p<k>.log` and a
    /// snapshot `snap/<table>.p<k>.snap` — a table of one partition the
    /// pair `p0`.  A partitioned table must
    /// contain the id column, and `options.id_column()` must equal the
    /// database-wide [`CrowdDbConfig::id_column`].  The layout is fixed at
    /// creation — reopening a persistent table under a different spec is
    /// refused.
    pub fn create_table_with(&self, options: TableOptions, table: Table) -> Result<()> {
        if !options.name().eq_ignore_ascii_case(table.name()) {
            return Err(CrowdDbError::Configuration(format!(
                "TableOptions name '{}' does not match the table's name '{}'",
                options.name(),
                table.name()
            )));
        }
        if !options
            .id_column()
            .eq_ignore_ascii_case(&self.inner.config.id_column)
        {
            return Err(CrowdDbError::Configuration(format!(
                "TableOptions id column '{}' does not match the database id column '{}'",
                options.id_column(),
                self.inner.config.id_column
            )));
        }
        let spec = options.partition_spec().clone().normalize();
        if !spec.is_single() && !table.schema().contains(&self.inner.config.id_column) {
            return Err(CrowdDbError::Configuration(format!(
                "table {} cannot be partitioned: it has no id column '{}' to route rows on",
                table.name(),
                self.inner.config.id_column
            )));
        }
        self.inner.create_table_logged_with(table, spec)
    }

    /// The configuration the database was built with (notably
    /// [`CrowdDbConfig::id_column`], which [`TableOptions::new`] must
    /// echo).
    pub fn config(&self) -> &CrowdDbConfig {
        &self.inner.config
    }

    /// The expansions performed so far, in completion order — the newest
    /// 4096; older events are dropped to bound memory.
    ///
    /// Clones the retained history on every call; pollers that only want
    /// what is new should use [`events_since`](CrowdDb::events_since)
    /// instead.
    pub fn expansion_events(&self) -> Vec<ExpansionEvent> {
        mlock(&self.inner.events).since(0).0
    }

    /// The expansion events recorded at or after cursor `seq`, plus the
    /// cursor to pass next time.
    ///
    /// `seq` is an opaque position: start at 0, then always hand back the
    /// returned cursor — each event is cloned to each poller exactly once,
    /// instead of the whole history being re-copied per poll the way
    /// [`expansion_events`](CrowdDb::expansion_events) does.  Cursors
    /// count every event ever recorded; one older than the retained
    /// history resumes at the oldest event still held.
    ///
    /// ```
    /// # use crowddb_core::{CrowdDb, CrowdDbConfig};
    /// # let db = CrowdDb::new(CrowdDbConfig::default());
    /// let (events, cursor) = db.events_since(0);
    /// assert!(events.is_empty());
    /// let (newer, _) = db.events_since(cursor);
    /// assert!(newer.is_empty(), "nothing happened since the last poll");
    /// ```
    pub fn events_since(&self, seq: u64) -> (Vec<ExpansionEvent>, u64) {
        let (events, cursor) = mlock(&self.inner.events).since(seq);
        // How far the furthest-ahead poller has read — a stuck consumer
        // shows up in the scrape as this value lagging the event count.
        self.inner
            .events_high_water
            .fetch_max(cursor, Ordering::SeqCst);
        (events, cursor)
    }

    /// Read access to the judgment cache.
    pub fn judgment_cache(&self) -> &JudgmentCache {
        &self.inner.cache
    }

    /// Cache effectiveness counters (hits, misses, dollars saved).
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// Counters of the in-flight registry: how many crowd rounds this
    /// database dispatched and how many it avoided by coalescing onto
    /// rounds already in flight.
    pub fn inflight_stats(&self) -> InflightStats {
        self.inner.inflight.stats()
    }

    /// A deterministic snapshot of every engine metric, ready to
    /// [`render`](MetricsSnapshot::render) as Prometheus text or query
    /// in-process via [`MetricsSnapshot::value`].
    ///
    /// Two kinds of series are merged.  **Hot-path instruments** count as
    /// the query path runs (`crowddb_queries_started_total{mode}`,
    /// `crowddb_queries_completed_total{mode}`,
    /// `crowddb_queries_failed_total`, `crowddb_queries_degraded_total`,
    /// `crowddb_queries_shed_total`, `crowddb_crowd_cost_dollars_total`,
    /// the `crowddb_query_cost_dollars` spend histogram, and the read
    /// path's `crowddb_rows_scanned_total` / `crowddb_rows_copied_total`).
    /// **Collect-time series** are read from the engine's own counters at
    /// snapshot time: judgment-cache effectiveness
    /// (`crowddb_cache_hits_total`, `crowddb_cache_misses_total`,
    /// `crowddb_cache_cost_saved_dollars_total`, `crowddb_cache_entries`),
    /// coalescing (`crowddb_inflight_rounds_owned_total`,
    /// `crowddb_inflight_rounds_coalesced_total`), crowd rounds
    /// (`crowddb_crowd_rounds_total`), scheduler occupancy
    /// (`crowddb_scheduler_queue_depth`, `crowddb_scheduler_workers_live`,
    /// `crowddb_scheduler_workers_idle`,
    /// `crowddb_scheduler_overflow_spawned_total`,
    /// `crowddb_scheduler_jobs_submitted_total`), durability
    /// (`crowddb_wal_bytes_total`, per-table `crowddb_wal_bytes{table}`,
    /// and per-partition
    /// `crowddb_partition_wal_bytes{table,partition}`),
    /// the event stream (`crowddb_event_count`,
    /// `crowddb_events_high_water`, `crowddb_events_dropped_total`), and —
    /// when a [`Limiter`] is attached — admission outcomes
    /// (`crowddb_admission_admitted_total`,
    /// `crowddb_admission_degraded_total`, `crowddb_admission_shed_total`,
    /// `crowddb_admission_dollars_charged_total`).
    ///
    /// Families and samples are sorted, so two snapshots of an idle engine
    /// render byte-identically.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.inner.metrics.registry().snapshot();
        let cache = self.inner.cache.stats();
        snap.push_counter(
            "crowddb_cache_hits_total",
            "Judgment-cache lookups answered from the cache",
            cache.hits as f64,
        );
        snap.push_counter(
            "crowddb_cache_misses_total",
            "Judgment-cache lookups that went to the crowd",
            cache.misses as f64,
        );
        snap.push_counter(
            "crowddb_cache_cost_saved_dollars_total",
            "Dollars not re-spent thanks to judgment-cache hits",
            cache.cost_saved,
        );
        snap.push_gauge(
            "crowddb_cache_entries",
            "Cached (table, attribute, item) judgments",
            cache.entries as f64,
        );
        let inflight = self.inner.inflight.stats();
        snap.push_counter(
            "crowddb_inflight_rounds_owned_total",
            "Acquisition claims that owned (dispatched) a crowd round",
            inflight.owned as f64,
        );
        snap.push_counter(
            "crowddb_inflight_rounds_coalesced_total",
            "Acquisition claims that joined a concurrent query's in-flight round",
            inflight.coalesced as f64,
        );
        snap.push_counter(
            "crowddb_crowd_rounds_total",
            "Crowd rounds dispatched over the database lifetime",
            self.inner.crowd_rounds.load(Ordering::SeqCst) as f64,
        );
        let sched = self.scheduler.stats();
        snap.push_gauge(
            "crowddb_scheduler_queue_depth",
            "Jobs waiting for a scheduler worker",
            sched.queued as f64,
        );
        snap.push_gauge(
            "crowddb_scheduler_workers_live",
            "Scheduler worker threads currently alive (core + overflow)",
            sched.live as f64,
        );
        snap.push_gauge(
            "crowddb_scheduler_workers_idle",
            "Scheduler workers parked waiting for work",
            sched.idle as f64,
        );
        snap.push_counter(
            "crowddb_scheduler_overflow_spawned_total",
            "Overflow workers spawned past the core pool over the lifetime",
            sched.overflow_spawned as f64,
        );
        snap.push_counter(
            "crowddb_scheduler_jobs_submitted_total",
            "Jobs submitted to the scheduler over the lifetime (streamed queries, server tasks)",
            sched.jobs_submitted as f64,
        );
        let storage = self.storage_stats();
        snap.push_gauge(
            "crowddb_wal_bytes_total",
            "Write-ahead-log bytes on disk, summed over every partition segment",
            storage.wal_bytes_total() as f64,
        );
        for table in &storage.tables {
            snap.push(
                "crowddb_wal_bytes",
                "Write-ahead-log bytes on disk, per table (all partitions)",
                telemetry::MetricKind::Gauge,
                &[("table", &table.table)],
                table.wal_bytes() as f64,
            );
            for part in &table.partitions {
                snap.push(
                    "crowddb_partition_wal_bytes",
                    "Write-ahead-log bytes on disk, per partition segment",
                    telemetry::MetricKind::Gauge,
                    &[
                        ("table", &table.table),
                        ("partition", &part.partition.to_string()),
                    ],
                    part.wal_bytes as f64,
                );
            }
        }
        let (recorded, dropped) = {
            let events = mlock(&self.inner.events);
            (events.recorded, events.dropped())
        };
        snap.push_gauge(
            "crowddb_event_count",
            "Expansion events recorded so far",
            recorded as f64,
        );
        snap.push_counter(
            "crowddb_events_dropped_total",
            "Expansion events dropped from the bounded in-memory history",
            dropped as f64,
        );
        snap.push_gauge(
            "crowddb_events_high_water",
            "Furthest events_since cursor handed to any poller",
            self.inner.events_high_water.load(Ordering::SeqCst) as f64,
        );
        if let Some(limiter) = self.inner.limiter_handle() {
            let stats = limiter.stats();
            snap.push_counter(
                "crowddb_admission_admitted_total",
                "Queries admitted at full fidelity",
                stats.admitted as f64,
            );
            snap.push_counter(
                "crowddb_admission_degraded_total",
                "Queries admitted with a degraded expansion mode",
                stats.degraded as f64,
            );
            snap.push_counter(
                "crowddb_admission_shed_total",
                "Queries rejected with Overloaded at the hard cap",
                stats.shed as f64,
            );
            snap.push_counter(
                "crowddb_admission_dollars_charged_total",
                "Dollars booked into the tenants' sliding windows",
                stats.dollars_charged,
            );
        }
        snap.sorted()
    }

    /// The root of the live state-monitor tree (`crowddb`): active queries
    /// and in-flight expansions attach child nodes for their lifetime.
    /// Snapshot with [`StateMonitor::to_tree`] or dump with
    /// [`StateMonitor::render_tree`].
    pub fn state_monitor(&self) -> StateMonitor {
        self.inner.monitor.clone()
    }

    /// Occupancy of the background scheduler (live/idle workers, queue
    /// depth, lifetime overflow spawns and job submissions).
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.scheduler.stats()
    }

    /// Attaches an admission controller: from now on every query submitted
    /// through [`CrowdDb::query`] / [`Session`] asks `limiter` for a ticket
    /// first (see [`crate::admission`] for the degrade/shed semantics).
    /// Share the same [`Arc`] with a network server so in-process and
    /// remote queries draw from the same per-tenant limits.
    pub fn set_limiter(&self, limiter: Arc<Limiter>) {
        *wlock(&self.inner.limiter) = Some(limiter);
    }

    /// The attached admission controller, if any.
    pub fn limiter(&self) -> Option<Arc<Limiter>> {
        self.inner.limiter_handle()
    }

    /// Drops the cached judgments of one attribute, forcing the next
    /// expansion to re-crowd-source it (e.g. after a repair round found the
    /// old judgments questionable).  On a persistent database the eviction
    /// is durable: a reopened database will not resurrect the distrusted
    /// judgments (hence the `Result` — the WAL append can fail).  On a
    /// table that does not exist it fails with
    /// [`RelationalError::UnknownTable`] and touches neither the cache nor
    /// the disk.
    pub fn invalidate_judgments(&self, table: &str, attribute: &str) -> Result<()> {
        self.inner.shard(table)?;
        self.inner.cache.invalidate(table, attribute);
        self.inner.log(
            table,
            vec![WalRecord::CacheInvalidate {
                table: table.to_lowercase(),
                attribute: attribute.to_lowercase(),
            }],
        )
    }

    /// Loads a synthetic domain as a table holding the factual attributes
    /// (id, name, year, popularity) — perceptual attributes are *not*
    /// materialized; they appear later through query-driven expansion.
    ///
    /// The table is bound to the given perceptual space and crowd source.
    pub fn load_domain(
        &self,
        table_name: &str,
        domain: &SyntheticDomain,
        space: PerceptualSpace,
        crowd: Box<dyn CrowdSource>,
    ) -> Result<()> {
        if space.len() != domain.items().len() {
            return Err(CrowdDbError::Configuration(format!(
                "the perceptual space has {} items but the domain has {}",
                space.len(),
                domain.items().len()
            )));
        }
        let schema = Schema::new(vec![
            Column::not_null(self.inner.config.id_column.clone(), DataType::Integer),
            Column::new("name", DataType::Text),
            Column::new("year", DataType::Integer),
            Column::new("popularity", DataType::Float),
        ])?;
        let mut table = Table::new(table_name, schema);
        for item in domain.items() {
            table.insert_row(vec![
                Value::Integer(item.id as i64),
                Value::Text(item.name.clone()),
                Value::Integer(item.year),
                Value::Float(item.popularity),
            ])?;
        }
        self.inner
            .create_table_logged_with(table, PartitionSpec::Single)?;
        wlock(&self.inner.bindings).insert(
            table_name.to_lowercase(),
            Arc::new(TableBinding {
                space,
                crowd: Mutex::new(crowd),
                attributes: RwLock::new(HashMap::new()),
                strategy_overrides: RwLock::new(HashMap::new()),
            }),
        );
        Ok(())
    }

    /// Binds an existing table to a perceptual space and crowd source.
    ///
    /// The table must contain the configured id column.
    pub fn bind_table(
        &self,
        table_name: &str,
        space: PerceptualSpace,
        crowd: Box<dyn CrowdSource>,
    ) -> Result<()> {
        {
            let shard = self.inner.shard(table_name)?;
            let catalog = shard.read_one(0);
            let table = catalog.table(table_name)?;
            if !table.schema().contains(&self.inner.config.id_column) {
                return Err(CrowdDbError::Configuration(format!(
                    "table {table_name} has no id column '{}'",
                    self.inner.config.id_column
                )));
            }
        }
        wlock(&self.inner.bindings).insert(
            table_name.to_lowercase(),
            Arc::new(TableBinding {
                space,
                crowd: Mutex::new(crowd),
                attributes: RwLock::new(HashMap::new()),
                strategy_overrides: RwLock::new(HashMap::new()),
            }),
        );
        Ok(())
    }

    /// Declares that queries over `column` of `table` refer to the domain
    /// concept `attribute` (a category name the crowd source understands).
    /// The column itself is created lazily when a query first needs it.
    pub fn register_attribute(&self, table: &str, column: &str, attribute: &str) -> Result<()> {
        let binding = self.inner.binding(&table.to_lowercase())?;
        wlock(&binding.attributes).insert(column.to_lowercase(), attribute.to_string());
        Ok(())
    }

    /// Like [`register_attribute`], additionally pinning the expansion
    /// strategy for this column instead of using the database default.
    ///
    /// [`register_attribute`]: CrowdDb::register_attribute
    pub fn register_attribute_with_strategy(
        &self,
        table: &str,
        column: &str,
        attribute: &str,
        strategy: ExpansionStrategy,
    ) -> Result<()> {
        let binding = self.inner.binding(&table.to_lowercase())?;
        // The override goes in first: the instant the attribute
        // registration lands, a concurrent query may plan an expansion,
        // and it must already see the pinned strategy rather than the
        // database default.
        wlock(&binding.strategy_overrides).insert(column.to_lowercase(), strategy);
        wlock(&binding.attributes).insert(column.to_lowercase(), attribute.to_string());
        Ok(())
    }

    /// Overrides the expansion strategy of an already-registered attribute.
    pub fn set_attribute_strategy(
        &self,
        table: &str,
        column: &str,
        strategy: ExpansionStrategy,
    ) -> Result<()> {
        let binding = self.inner.binding(&table.to_lowercase())?;
        let column = column.to_lowercase();
        if !rlock(&binding.attributes).contains_key(&column) {
            return Err(CrowdDbError::UnknownAttribute {
                table: table.to_string(),
                attribute: column,
            });
        }
        wlock(&binding.strategy_overrides).insert(column, strategy);
        Ok(())
    }

    /// Executes a SQL statement.  Statements referencing registered but
    /// not-yet-materialized perceptual attributes transparently trigger
    /// **one** planned expansion round covering every missing attribute,
    /// then run against the completed columns — parse, analyze, plan,
    /// acquire, materialize, execute once.
    ///
    /// `execute` takes `&self` and may be called from any number of threads
    /// simultaneously; queries racing for the same missing attribute share
    /// one crowd round (see the [module documentation](self)).
    ///
    /// ```
    /// use crowddb_core::{CrowdDb, CrowdDbConfig, ExpansionStrategy, SimulatedCrowd};
    /// use crowdsim::ExperimentRegime;
    /// use datagen::{DomainConfig, SyntheticDomain};
    ///
    /// let domain = SyntheticDomain::generate(&DomainConfig::movies().scaled(0.05), 7).unwrap();
    /// let space = crowddb_core::build_space_for_domain(&domain, 8, 12).unwrap();
    /// let crowd = SimulatedCrowd::new(&domain, ExperimentRegime::TrustedWorkers, 99);
    ///
    /// let db = CrowdDb::new(CrowdDbConfig::default());
    /// db.load_domain("movies", &domain, space, Box::new(crowd)).unwrap();
    /// db.register_attribute("movies", "is_comedy", "Comedy").unwrap();
    ///
    /// // `is_comedy` is not in the schema — the query triggers expansion.
    /// let result = db.execute("SELECT name FROM movies WHERE is_comedy = true").unwrap();
    /// assert!(!result.rows.is_empty());
    /// assert_eq!(db.expansion_events().len(), 1);
    /// ```
    pub fn execute(&self, sql_text: &str) -> Result<QueryResult> {
        // The compat wrapper is a blocking policy query: it runs on this
        // thread through the one execution path every query takes.
        self.query(sql_text)
            .run()
            .map(QueryOutcome::into_query_result)
    }

    /// Starts building a policy-driven query — the typed entry point:
    ///
    /// ```no_run
    /// # use crowddb_core::{CrowdDb, CrowdDbConfig, ExpansionMode};
    /// # let db = CrowdDb::new(CrowdDbConfig::default());
    /// let outcome = db
    ///     .query("SELECT name FROM movies WHERE is_comedy = true")
    ///     .budget(12.0)
    ///     .mode(ExpansionMode::BestEffort)
    ///     .quality_floor(0.8)
    ///     .run()?;
    /// # Ok::<(), crowddb_core::CrowdDbError>(())
    /// ```
    ///
    /// See [`QueryBuilder`] for the policy knobs and [`QueryOutcome`] for
    /// the typed result with per-cell provenance.
    pub fn query(&self, sql: impl Into<String>) -> QueryBuilder<'_> {
        QueryBuilder::new(self, sql)
    }

    /// Opens a [`Session`]: a handle carrying default policy settings that
    /// every query built from it inherits.
    pub fn session(&self) -> Session<'_> {
        Session::new(self)
    }

    /// Submits one job to the database's background [`Scheduler`] — the
    /// same elastic pool streamed queries execute on.
    ///
    /// This is the serving entry point for layers built *around* the
    /// database, above all the network service layer: connection readers,
    /// writers, and per-query pumps run as scheduler jobs next to the
    /// streamed queries, so the whole server shares one pool whose
    /// elasticity guarantees blocked jobs (a pump parked on a stream, an
    /// owner inside its crowd round) can never starve each other.  Jobs
    /// submitted while the database is shutting down are silently dropped,
    /// exactly like queries.
    pub fn spawn_background(&self, job: impl FnOnce() + Send + 'static) {
        self.scheduler.spawn(job);
    }

    /// Runs the plan → acquire → materialize pipeline for a set of missing
    /// columns on one table, with **one** batched crowd round serving every
    /// attribute that neither the cache nor a concurrent query's in-flight
    /// round can answer.
    ///
    /// Returns one report per expanded attribute, in plan order.
    pub fn expand_columns(
        &self,
        table_name: &str,
        columns: &[String],
    ) -> Result<Vec<ExpansionReport>> {
        self.expand_columns_with_policy(table_name, columns, &ExpansionPolicy::full())
    }

    /// [`expand_columns`](CrowdDb::expand_columns) under an explicit
    /// [`ExpansionPolicy`]: `CacheOnly` acquires nothing beyond the
    /// judgment cache, `BestEffort` stops dispatching crowd rounds the
    /// moment the budget is spent, the quality floor filters verdicts
    /// before materialization, and `Deny` refuses the whole expansion with
    /// [`CrowdDbError::ExpansionDenied`].
    pub fn expand_columns_with_policy(
        &self,
        table_name: &str,
        columns: &[String],
        policy: &ExpansionPolicy,
    ) -> Result<Vec<ExpansionReport>> {
        self.inner
            .expand_columns_with_policy(table_name, columns, policy, &EventSink::null())
    }

    /// Performs query-driven schema expansion of a single `column` on
    /// `table` — the one-attribute special case of [`expand_columns`].
    ///
    /// Calling this for an already-materialized column re-runs the pipeline
    /// and overwrites the column in place; thanks to the [`JudgmentCache`]
    /// such a re-expansion reuses the crowd's previous answers instead of
    /// paying for them again.
    ///
    /// [`expand_columns`]: CrowdDb::expand_columns
    pub fn expand_attribute(&self, table_name: &str, column: &str) -> Result<ExpansionReport> {
        let mut reports = self.expand_columns(table_name, &[column.to_lowercase()])?;
        Ok(reports.remove(0))
    }
}

/// The `SELECT` inside a statement, whether queried live or wrapped in an
/// `EXPLAIN EXPANSION` — both carry a `WITH EXPANSION` clause and both are
/// analyzed the same way.
fn select_of(statement: &sql::Statement) -> Option<&sql::SelectStatement> {
    match statement {
        sql::Statement::Select(select) | sql::Statement::ExplainExpansion(select) => Some(select),
        _ => None,
    }
}

impl DbInner {
    /// The shard of one table (any casing).  Fails with
    /// [`RelationalError::UnknownTable`] for tables that do not exist.
    fn shard(&self, table: &str) -> Result<Arc<Shard>> {
        rlock(&self.shards)
            .get(fold_name(table).as_ref())
            .cloned()
            .ok_or_else(|| RelationalError::UnknownTable(table.to_string()).into())
    }

    /// A point-in-time copy of the shard map, sorted by table name.  Only
    /// clones [`Arc`] handles — no table lock is taken.
    fn shards_sorted(&self) -> Vec<(String, Arc<Shard>)> {
        rlock(&self.shards)
            .iter()
            .map(|(name, shard)| (name.clone(), Arc::clone(shard)))
            .collect()
    }

    /// Appends `records` to `table`'s WAL store: each partition's slice
    /// of them ([`storage::slice_records`]) as one fsynced group.  A no-op
    /// on in-memory databases.  Cache records (`CachePut`,
    /// `CacheInvalidate`) replay idempotently, so they need no catalog
    /// lock beyond each segment's own; column writes are logged by
    /// [`DbInner::commit_columns`] under every partition's exclusive lock.
    fn log(&self, table: &str, records: Vec<WalRecord>) -> Result<()> {
        match &self.durability {
            Some(durability) if !records.is_empty() => durability.log_all(table, records),
            _ => Ok(()),
        }
    }

    /// Registers a table as a new shard — one catalog lock and (when
    /// persistent) one WAL segment per partition — and logs its creation
    /// durably.  The shard becomes visible and durable under one table-map
    /// write lock.
    ///
    /// The `CreateTable` slices are logged to partitions `1..n` *first*
    /// and to partition 0 *last*: partition 0's record is the commit
    /// point, and recovery deletes the files of a creation that crashed
    /// before reaching it — so a table of any number of partitions is
    /// either fully present or fully absent after any crash.
    fn create_table_logged_with(&self, table: Table, spec: PartitionSpec) -> Result<()> {
        let spec = spec.normalize();
        let name = table.name().to_string();
        let mut shards = wlock(&self.shards);
        if shards.contains_key(&name) {
            return Err(RelationalError::TableExists(name).into());
        }
        let slices = persist::split_table_by_partition(table, &self.config.id_column, &spec);
        if let Some(durability) = &self.durability {
            durability.ensure_store(&name, &spec)?;
            for (k, slice) in slices.iter().enumerate().skip(1) {
                durability.log(&name, k, &[WalRecord::CreateTable(TableImage::of(slice))])?;
            }
            durability.log(
                &name,
                0,
                &[WalRecord::CreateTable(TableImage::of(&slices[0]))],
            )?;
        }
        shards.insert(
            name,
            Shard::partitioned(spec, slices, &self.config.id_column),
        );
        Ok(())
    }

    /// The engine's hot-path metric instruments (for the session layer,
    /// which records completions and admission outcomes).
    pub(crate) fn engine_metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// The `crowddb/queries` monitor node (for the session layer).
    pub(crate) fn queries_monitor(&self) -> &StateMonitor {
        &self.queries_monitor
    }

    /// The attached admission controller, if any.
    pub(crate) fn limiter_handle(&self) -> Option<Arc<Limiter>> {
        rlock(&self.limiter).clone()
    }

    /// The binding of one table, by lower-cased name.
    fn binding(&self, table_key: &str) -> Result<Arc<TableBinding>> {
        rlock(&self.bindings)
            .get(table_key)
            .cloned()
            .ok_or_else(|| {
                CrowdDbError::Configuration(format!(
                    "table {table_key} is not bound to a crowd source"
                ))
            })
    }

    /// The engine behind every query — [`CrowdDb::execute`],
    /// [`QueryBuilder`], [`Session`], streaming and blocking alike: parse,
    /// overlay the SQL `WITH EXPANSION` clause on the caller's policy,
    /// analyze, emit the immediate snapshot, expand within policy (feeding
    /// `Delta`/`Progress` events into `sink`), execute once, and attach
    /// per-cell provenance.  `EXPLAIN EXPANSION` statements short-circuit
    /// into the zero-dispatch planner preview.
    pub(crate) fn run_policy_query(
        &self,
        sql_text: &str,
        policy: ExpansionPolicy,
        admission: Option<&DegradeDirective>,
        sink: &EventSink,
    ) -> Result<QueryOutcome> {
        let statement = sql::parse(sql_text)?;
        let policy = match select_of(&statement) {
            Some(select) => match &select.expansion {
                Some(clause) => policy.merged_with_clause(clause),
                None => policy,
            },
            None => policy,
        };
        policy.validate()?;
        // Apply the admission controller's degrade order *after* the SQL
        // clause merge: a `WITH EXPANSION (mode = full)` clause must not be
        // able to un-degrade a throttled query.  The demotion is recorded
        // as a `Degraded` stage in every expansion report below.
        let (policy, degraded_mark) = match admission {
            Some(directive) => {
                let from = policy.mode;
                let to = demote(from, directive.steps);
                let mut policy = policy;
                policy.mode = to;
                match to {
                    // Budgets are only meaningful (and only valid) under
                    // BestEffort; a dollar-window breach additionally caps
                    // the budget at the window's remaining allowance.
                    ExpansionMode::BestEffort => {
                        if let Some(cap) = directive.budget_cap {
                            policy.budget =
                                Some(policy.budget.map_or(cap, |budget| budget.min(cap)));
                        }
                    }
                    _ => policy.budget = None,
                }
                let mark = ExpansionStage::Degraded {
                    from,
                    to,
                    reason: directive.reason,
                };
                (policy, Some(mark))
            }
            None => (policy, None),
        };
        self.metrics.query_started(policy.mode);

        if matches!(statement, sql::Statement::ExplainExpansion(_)) {
            return self.explain_expansion(&statement, policy);
        }

        // CREATE TABLE is the one statement with no shard to route to — it
        // *introduces* its shard, logged to the table's own fresh WAL
        // segment.
        if let sql::Statement::CreateTable { table, columns } = &statement {
            let table = Table::new(table.clone(), Schema::new(columns.clone())?);
            self.create_table_logged_with(table, PartitionSpec::Single)?;
            return Ok(QueryOutcome {
                policy,
                result: StatementResult::Mutation { rows_affected: 0 },
                reports: Vec::new(),
                crowd_cost: 0.0,
            });
        }

        // Every remaining statement names its target table: all catalog
        // access below goes through that one table's shard, so statements
        // on different tables never share a lock.
        let shard = self.shard(statement.target_table().unwrap_or_default())?;
        // A write is routed once, here, and changes exactly the
        // partitions of its route.
        let route = (!statement.is_read_only())
            .then(|| WriteRoute::of(&statement, &shard.spec, shard.id_column.as_ref()));
        let analysis = {
            // Analysis is a static pass needing only the schema, and every
            // partition slice carries the table's full schema — so it reads
            // one partition: for a write, one it actually writes, never
            // waiting on a writer to an unrelated partition.
            let k = route.as_ref().and_then(|route| route.targets.first());
            executor::analyze(&statement, &shard.read_one(k.copied().unwrap_or(0)))?
        };
        let mut reports = Vec::new();
        // A streamed SELECT with nothing to expand: its anytime snapshot
        // already is the answer, so the SELECT runs once.
        let mut answered: Option<RowSet> = None;
        if let Some(table) = &analysis.table {
            let candidates =
                self.expansion_candidates(&shard, &statement, &analysis, &policy, table)?;
            if policy.mode == ExpansionMode::Deny && !analysis.missing_columns.is_empty() {
                return Err(CrowdDbError::ExpansionDenied {
                    table: table.clone(),
                    columns: analysis.missing_columns.clone(),
                });
            }
            // The anytime snapshot: everything answerable from stored and
            // previously purchased cells, emitted before any crowd work so
            // a streaming consumer has rows while acquisition runs.
            if sink.is_live() {
                if let sql::Statement::Select(select) = &statement {
                    let snapshot = self.select_rows(&shard, select, true, policy.quality_floor)?;
                    if candidates.is_empty() {
                        answered = Some(snapshot.clone());
                    }
                    sink.emit(QueryEvent::Snapshot(snapshot));
                }
            }
            if !candidates.is_empty() {
                reports = self.expand_columns_with_policy(table, &candidates, &policy, sink)?;
                // Load shedding with provenance: every report of a degraded
                // query leads with the typed record of what the admission
                // controller took away and why.
                if let Some(mark) = &degraded_mark {
                    for report in &mut reports {
                        report.stages.insert(0, mark.clone());
                    }
                }
                let mut events = mlock(&self.events);
                for report in &reports {
                    events.record(ExpansionEvent {
                        triggering_query: sql_text.to_string(),
                        report: report.clone(),
                    });
                }
            }
        }

        // fold, not sum: an empty `f64` sum is `-0.0`, which would print as
        // a spurious "-0.00" spend on queries that expanded nothing.
        let crowd_cost = reports.iter().fold(0.0, |total, r| total + r.crowd_cost);
        let result = match (&statement, answered) {
            (_, Some(rows)) => StatementResult::Rows(rows),
            (sql::Statement::Select(select), None) => StatementResult::Rows(self.select_rows(
                &shard,
                select,
                false,
                policy.quality_floor,
            )?),
            _ => {
                let route = route.expect("every statement but SELECT is routed as a write");
                self.execute_mutation(&shard, &statement, sql_text, &route)?
            }
        };
        Ok(QueryOutcome {
            policy,
            result,
            reports,
            crowd_cost,
        })
    }

    /// Runs `select` in place on `shard`'s partitions — only the one its
    /// `WHERE` pins the id to (see [`Shard::route`]), otherwise every one
    /// in `k` order — holding their shared locks for the scan, and
    /// attaches per-cell provenance.  `snapshot` selects the executor's
    /// snapshot semantics (columns not in the schema yet read as `NULL`).
    ///
    /// The quality floor is a per-query *view* filter: it masks
    /// low-agreement verdicts in this query's result, never in the shared
    /// table — a strict caller must not be able to NULL out data other
    /// queries paid for, and the floor must hold even when the column was
    /// materialized long ago.
    fn select_rows(
        &self,
        shard: &Shard,
        select: &sql::SelectStatement,
        snapshot: bool,
        quality_floor: Option<f64>,
    ) -> Result<RowSet> {
        let (selected, provenance) = {
            let guards = shard.read(shard.route(select));
            let parts = slices(&guards, &select.table)?;
            let selected = executor::execute_select_partitions(select, &parts, snapshot)?;
            let provenance = row_provenance(&parts, &selected);
            (selected, provenance)
        };
        self.metrics
            .rows_read(selected.rows_scanned, selected.result.rows.len());
        let mut rows = RowSet {
            columns: selected.result.columns,
            rows: selected.result.rows,
            provenance,
        };
        if let Some(floor) = quality_floor {
            mask_below_quality_floor(&mut rows, floor);
        }
        Ok(rows)
    }

    /// Executes a write — `INSERT`, `UPDATE`, `DELETE` or `ALTER TABLE` —
    /// all or nothing on the partitions of its [`WriteRoute`]: lock them
    /// exclusively in ascending `k`, prepare the statement on each (the
    /// first error in `k` order fails it before any partition changes),
    /// apply every prepared change, then log the statement text to each
    /// under the locks still held (see [`crate::persist`]).  Replay
    /// re-executes the text under the same route; mutations dispatch no
    /// crowd work, so that is deterministic.
    ///
    /// An `UPDATE` assigning the id column of a partitioned table is
    /// refused: it could silently move a row out of the partition its WAL
    /// segment claims it lives in.
    fn execute_mutation(
        &self,
        shard: &Shard,
        statement: &sql::Statement,
        sql_text: &str,
        route: &WriteRoute,
    ) -> Result<StatementResult> {
        let table = fold_name(statement.target_table().unwrap_or_default());
        if let (sql::Statement::Update { assignments, .. }, Some(id)) =
            (statement, &shard.id_column)
        {
            if !shard.spec.is_single() && assignments.iter().any(|(c, _)| id.is_named(c)) {
                return Err(CrowdDbError::Configuration(format!(
                    "cannot UPDATE the partitioning id column '{}' of partitioned table \
                     {table}: rows cannot move between partitions in place — DELETE and \
                     re-INSERT instead",
                    self.config.id_column
                )));
            }
        }
        let mut guards: Vec<_> = (route.targets.iter())
            .map(|&k| shard.write_one(k))
            .collect();
        let prepared = (route.targets.iter().zip(&guards))
            .map(|(&k, guard)| route.prepare(statement, k, guard.table(&table)?))
            .collect::<Result<Vec<_>>>()?;
        let mut rows_affected = 0;
        for (prepared, guard) in prepared.into_iter().zip(&mut guards) {
            rows_affected += prepared.apply(guard.table_mut(&table)?);
        }
        if let Some(durability) = &self.durability {
            let record = [WalRecord::Mutation {
                sql: sql_text.to_string(),
            }];
            for &k in &route.targets {
                durability.log(&table, k, &record)?;
            }
        }
        Ok(StatementResult::Mutation { rows_affected })
    }

    /// The columns a statement would expand: every missing (registered)
    /// column, plus — for reads outside `Deny` — referenced columns that
    /// exist but carry recoverable holes left by an earlier budgeted or
    /// cache-only query (the judgment cache makes the already-purchased
    /// part free, so the query pays only for what is still missing).
    /// `SELECT *` references every column of the table, including every
    /// incomplete one.  Writes never re-expand: an `UPDATE` about to
    /// overwrite a column must not pay the crowd to fill its holes first.
    ///
    /// Unregistered missing columns are a hard error regardless of policy —
    /// there is nothing to expand them *from*.
    fn expansion_candidates(
        &self,
        shard: &Shard,
        statement: &sql::Statement,
        analysis: &executor::StatementAnalysis,
        policy: &ExpansionPolicy,
        table: &str,
    ) -> Result<Vec<String>> {
        let key = fold_name(table);
        for column in &analysis.missing_columns {
            if !self.is_expandable(table, column) {
                return Err(CrowdDbError::UnknownAttribute {
                    table: table.to_string(),
                    attribute: column.clone(),
                });
            }
        }
        let mut candidates = analysis.missing_columns.clone();
        if statement.is_read_only()
            && policy.mode != ExpansionMode::Deny
            && shard.may_have_holes.load(Ordering::Acquire)
        {
            let referenced = match select_of(statement) {
                Some(select) if matches!(select.projection, sql::Projection::All) => {
                    shard.read_one(0).table(&key)?.schema().column_names()
                }
                _ => (statement.referenced_columns().into_iter())
                    .map(Cow::into_owned)
                    .collect(),
            };
            for column in referenced {
                if !candidates.contains(&column) && shard.is_incomplete(&key, &column) {
                    candidates.push(column);
                }
            }
        }
        Ok(candidates)
    }

    /// `EXPLAIN EXPANSION <select>`: the crowd work the wrapped query
    /// *would* trigger — planned concepts, per-concept item counts, cache
    /// hits, and an [`CrowdSource::estimate_cost`]-priced dollar preview —
    /// as an ordinary [`QueryOutcome`] row set, with **zero** crowd
    /// dispatch: no in-flight claim, no cache-counter movement, no round
    /// seed consumed, no dollar spent.
    ///
    /// One row per planned column, in plan order.  Sibling columns sharing
    /// one domain concept share one crowd question under owner-pays
    /// accounting, so only the first (owning) column carries the concept's
    /// outstanding-item count and price — summing the `estimated_cost`
    /// column previews what the live plan would charge.  A source that
    /// cannot price its work yields `NULL` in the cost cell.
    fn explain_expansion(
        &self,
        statement: &sql::Statement,
        policy: ExpansionPolicy,
    ) -> Result<QueryOutcome> {
        let shard = self.shard(statement.target_table().unwrap_or_default())?;
        let analysis = executor::analyze(statement, &shard.read_one(0))?;
        let columns: Vec<String> = [
            "concept",
            "column",
            "strategy",
            "items",
            "cache_hits",
            "items_to_crowd",
            "estimated_cost",
        ]
        .into_iter()
        .map(String::from)
        .collect();
        let mut rows = Grid::new(columns.len());
        if let Some(table) = analysis.table.clone() {
            let candidates =
                self.expansion_candidates(&shard, statement, &analysis, &policy, &table)?;
            if !candidates.is_empty() {
                let binding = self.binding(&table.to_lowercase())?;
                let plan = self.build_plan(&binding, &table, &candidates)?;
                rows = self.explain_rows(&plan, &binding);
            }
        }
        let mut provenance = Grid::with_capacity(columns.len(), rows.len());
        for _ in 0..rows.len() {
            provenance.push_row(columns.iter().map(|_| CellProvenance::Stored));
        }
        Ok(QueryOutcome {
            policy,
            result: StatementResult::Rows(RowSet {
                columns,
                rows,
                provenance,
            }),
            reports: Vec::new(),
            crowd_cost: 0.0,
        })
    }

    fn is_expandable(&self, table: &str, column: &str) -> bool {
        self.binding(&table.to_lowercase())
            .is_ok_and(|b| rlock(&b.attributes).contains_key(&column.to_lowercase()))
    }

    /// The pipeline behind [`CrowdDb::expand_columns_with_policy`] (and
    /// every query's expansion), with the streaming event sink threaded
    /// through: `CacheOnly` acquires nothing beyond the judgment cache,
    /// `BestEffort` stops dispatching crowd rounds the moment the budget is
    /// spent, and `Deny` refuses the whole expansion with
    /// [`CrowdDbError::ExpansionDenied`].
    fn expand_columns_with_policy(
        &self,
        table_name: &str,
        columns: &[String],
        policy: &ExpansionPolicy,
        sink: &EventSink,
    ) -> Result<Vec<ExpansionReport>> {
        policy.validate()?;
        // `Deny` promises "never trigger crowd spending" no matter which
        // entry point asked for the expansion.
        if policy.mode == ExpansionMode::Deny {
            return Err(CrowdDbError::ExpansionDenied {
                table: table_name.to_string(),
                columns: columns.to_vec(),
            });
        }
        let binding = self.binding(&table_name.to_lowercase())?;
        let plan = self.build_plan(&binding, table_name, columns)?;
        let acquisitions = self.acquire(&plan, &binding, policy, sink)?;
        self.materialize(&plan, &binding, acquisitions, policy)
    }

    /// The **plan** stage.
    fn build_plan(
        &self,
        binding: &TableBinding,
        table_name: &str,
        columns: &[String],
    ) -> Result<ExpansionPlan> {
        let key = table_name.to_lowercase();
        let shard = self.shard(table_name)?;
        let guards = shard.read(None);
        let parts = slices(&guards, table_name)?;
        let attributes = rlock(&binding.attributes);
        let overrides = rlock(&binding.strategy_overrides);
        planner::build_plan(PlanInputs {
            parts: &parts,
            table_name: &key,
            id_column: &self.config.id_column,
            columns,
            attributes: &attributes,
            overrides: &overrides,
            default_strategy: &self.config.strategy,
            space_len: binding.space.len(),
            seed: self.config.seed,
        })
    }

    /// The **materialize** stage: train extractors where needed (without
    /// holding any lock), then fill every column in one commit
    /// ([`DbInner::commit_columns`]), and assemble reports.
    fn materialize(
        &self,
        plan: &ExpansionPlan,
        binding: &TableBinding,
        acquisitions: Vec<Acquisition>,
        policy: &ExpansionPolicy,
    ) -> Result<Vec<ExpansionReport>> {
        // Every per-item vector below is aligned with `plan.items` through
        // the plan's index.
        let index = &plan.index;
        // Phase 1 (lock-free): aggregate verdicts into per-attribute values
        // and tags, training extractors where the strategy demands it.
        let mut reports = Vec::with_capacity(plan.attributes.len());
        let mut writes = Vec::with_capacity(plan.attributes.len());
        for (attribute, acquisition) in plan.attributes.iter().zip(acquisitions) {
            let mut stages = vec![
                ExpansionStage::MissingAttributeDetected,
                ExpansionStage::ExpansionPlanned,
            ];
            if acquisition.cache_hits > 0 {
                stages.push(ExpansionStage::JudgmentsReused);
            }
            if acquisition.items_coalesced > 0 {
                stages.push(ExpansionStage::JoinedInflightRound);
            }
            if acquisition.fresh_round {
                stages.push(ExpansionStage::CrowdSourcingStarted);
                stages.push(ExpansionStage::JudgmentsAggregated);
            }
            if acquisition
                .dropped
                .iter()
                .any(|(_, reason)| *reason == MissingReason::BudgetExhausted)
            {
                stages.push(ExpansionStage::BudgetExhausted);
            }

            let verdicts = (acquisition.verdicts.iter())
                .map(|(&item, &(label, _))| (item, Value::Boolean(label)));
            let (values, training_set_size, items_unmapped, extracted) = match &attribute.strategy {
                ExpansionStrategy::DirectCrowd => (index.align(verdicts, Value::Null), 0, 0, false),
                ExpansionStrategy::PerceptualSpace { extraction, .. } => {
                    let mut training: Vec<(ItemId, bool)> = acquisition
                        .verdicts
                        .iter()
                        .map(|(&item, &(label, _))| (item, label))
                        .collect();
                    // Deterministic SVM input regardless of hash order.
                    training.sort_unstable_by_key(|(item, _)| *item);
                    let training_set_size = training.len();
                    match extract_binary_attribute(&binding.space, &training, extraction) {
                        Ok(predicted) => {
                            stages.push(ExpansionStage::ExtractorTrained);
                            // Predictions index by space position: an item
                            // outside the space has none.
                            let mut values: Vec<Value> = (plan.items.iter())
                                .map(|&item| match predicted.get(item as usize) {
                                    Some(&label) => Value::Boolean(label),
                                    None => Value::Null,
                                })
                                .collect();
                            let unmapped = values.iter().filter(|v| v.is_null()).count();
                            // A gold item's cell is tagged with its crowd
                            // verdict, so it holds that verdict, not the
                            // extractor's prediction for it.
                            for (item, label) in training {
                                if let Some(at) = index.position(item) {
                                    values[at] = Value::Boolean(label);
                                }
                            }
                            (values, training_set_size, unmapped, true)
                        }
                        // A policy that tolerates partial columns also
                        // tolerates a gold sample too small or too
                        // one-sided to train on (a budget or cache-only
                        // acquisition can truncate it arbitrarily):
                        // degrade to materializing the acquired
                        // verdicts directly instead of failing the
                        // whole query.
                        Err(_) if policy.tolerates_partial_columns() => (
                            index.align(verdicts, Value::Null),
                            training_set_size,
                            0,
                            false,
                        ),
                        Err(error) => return Err(error),
                    }
                }
            };
            // Where every item's cell value came from, or why it is absent:
            // the tag each of its rows receives with the value.  A crowd
            // verdict outranks a value, a value outranks the reason the
            // item was dropped, and an item with neither lies outside the
            // space (extraction) or found no majority.
            let absent: CellProvenance = if extracted {
                MissingReason::OutOfSpace.into()
            } else {
                MissingReason::NoMajority.into()
            };
            let mut marks: Vec<CellProvenance> = (values.iter())
                .map(|value| match value {
                    Value::Null => absent,
                    _ => CellProvenance::Extracted,
                })
                .collect();
            for &(item, reason) in &acquisition.dropped {
                if let Some(at) = index.position(item).filter(|&at| values[at].is_null()) {
                    marks[at] = reason.into();
                }
            }
            for (&item, &(_, judged)) in &acquisition.verdicts {
                if let Some(at) = index.position(item) {
                    marks[at] = judged;
                }
            }
            writes.push(ColumnWrite::Materialize {
                column: attribute.column.clone(),
                data_type: DataType::Boolean,
                values,
                marks,
            });
            reports.push(ExpansionReport {
                table: plan.table.clone(),
                column: attribute.column.clone(),
                attribute: attribute.attribute.clone(),
                strategy: attribute.strategy.name().to_string(),
                stages,
                items_crowd_sourced: acquisition.items_charged,
                judgments_collected: acquisition.judgments_collected,
                // Counted by the commit below.
                rows_filled: 0,
                rows_unfilled: 0,
                crowd_cost: acquisition.crowd_cost,
                crowd_minutes: acquisition.crowd_minutes,
                training_set_size,
                cache_hits: acquisition.cache_hits,
                cache_misses: acquisition.uncached.len(),
                cost_saved: acquisition.cost_saved,
                items_unmapped,
                items_coalesced: acquisition.items_coalesced,
                items_dropped: acquisition.dropped.len(),
            });
        }

        // Phase 2: one commit fills every column.  The values are aligned
        // with the plan's items, so routing under the write locks sends
        // each verdict to whichever rows carry its item *now*; an item
        // inserted since the plan lies past them and reads `NotExpanded`.
        let outcomes = self.commit_columns(&plan.table, index.clone(), |_| writes)?;
        for (report, outcome) in reports.iter_mut().zip(outcomes) {
            report.stages.extend([
                ExpansionStage::ColumnAdded,
                ExpansionStage::ColumnMaterialized,
                ExpansionStage::QueryReExecuted,
            ]);
            report.rows_filled = outcome.rows_filled;
            report.rows_unfilled = outcome.rows_unfilled;
        }
        Ok(reports)
    }

    /// The commit step of every column writer (expansion, numeric
    /// expansion, repair).  Under the exclusive locks of every partition
    /// (ascending `k` — a new column must appear in every partition's
    /// schema) it routes `index` on each partition, applies the writes
    /// `writes` builds from the routed index, flags the table's holes, and
    /// logs one record per write, sliced per partition, while the locks
    /// are still held (the checkpoint invariant).  Returns each write's
    /// outcome; `rows_unfilled` includes the rows without a usable item id.
    ///
    /// Rows are routed here, not before: a DELETE or INSERT that committed
    /// while the crowd worked would shift row indices, and a mapping taken
    /// under an earlier lock would write values to the wrong rows.  The
    /// items the routes append to `index` (rows inserted since the caller
    /// built it) lie past the vectors of writes built before the call.
    fn commit_columns(
        &self,
        table: &str,
        mut index: ItemIndex,
        writes: impl FnOnce(&ItemIndex) -> Vec<ColumnWrite>,
    ) -> Result<Vec<MaterializeOutcome>> {
        let shard = self.shard(table)?;
        let mut guards = shard.write_all();
        let mut routes = Vec::with_capacity(guards.len());
        let mut skipped = 0;
        for guard in guards.iter() {
            let part = index.route(guard.table(table)?, &self.config.id_column, table)?;
            skipped += part.skipped;
            routes.push(part);
        }
        let writes = writes(&index);
        // A failed write must change nothing: a column that exists with
        // another type, or that is NOT NULL and would receive a NULL, is
        // refused before the first cell is written.
        for write in &writes {
            let ColumnWrite::Materialize {
                column,
                data_type,
                values,
                ..
            } = write
            else {
                continue;
            };
            for (guard, routes) in guards.iter().zip(&routes) {
                let Some(existing) = guard.table(table)?.schema().column(column) else {
                    continue;
                };
                if existing.data_type != *data_type {
                    return Err(RelationalError::TypeMismatch(format!(
                        "column {column} of type {} cannot be materialized as {data_type}",
                        existing.data_type
                    ))
                    .into());
                }
                if (routes.rows.iter()).any(|&(_, at)| values.get(at).is_none_or(Value::is_null)) {
                    existing.admit(&mut Value::Null)?;
                }
            }
        }
        let mut outcomes = Vec::with_capacity(writes.len());
        let mut records = Vec::new();
        for write in writes {
            let mut outcome = MaterializeOutcome {
                rows_filled: 0,
                rows_unfilled: skipped,
            };
            match write {
                ColumnWrite::Materialize {
                    column,
                    data_type,
                    values,
                    marks,
                } => {
                    for (guard, routes) in guards.iter_mut().zip(&routes) {
                        outcome += materialize_column(
                            guard.table_mut(table)?,
                            &column,
                            data_type,
                            &values,
                            &marks,
                            routes,
                        )?;
                    }
                    // A column whose holes a later query could still fill
                    // is *incomplete*: policy queries referencing it
                    // re-expand it instead of trusting the partial
                    // materialization forever.
                    if marks.iter().any(CellProvenance::is_recoverable) {
                        shard.may_have_holes.store(true, Ordering::Release);
                    }
                    if self.durability.is_some() {
                        records.push(WalRecord::MaterializeColumn {
                            table: table.to_string(),
                            column,
                            data_type,
                            values: index.sorted_pairs(&values, |_, value| !value.is_null()),
                            ledger: index.sorted_pairs(&marks, |_, _| true),
                        });
                    }
                }
                ColumnWrite::Repair { column, values } => {
                    let mut written = vec![false; values.len()];
                    for (guard, routes) in guards.iter_mut().zip(&routes) {
                        repair_cells(
                            guard.table_mut(table)?,
                            &column,
                            &values,
                            routes,
                            &mut written,
                        )?;
                    }
                    if self.durability.is_some() && written.contains(&true) {
                        records.push(WalRecord::SetCells {
                            table: table.to_string(),
                            column,
                            values: index.sorted_pairs(&values, |at, _| written[at]),
                        });
                    }
                }
            }
            outcomes.push(outcome);
        }
        self.log(table, records)?;
        drop(guards);
        Ok(outcomes)
    }

    /// The engine behind [`CrowdDb::repair_attribute`] (see its docs).
    fn repair_attribute(
        &self,
        table_name: &str,
        column: &str,
        extraction: &crate::extraction::ExtractionConfig,
    ) -> Result<crate::repair::RepairOutcome> {
        let key = table_name.to_lowercase();
        let column = column.to_lowercase();
        let binding = self.binding(&key)?;
        let attribute = rlock(&binding.attributes)
            .get(&column)
            .cloned()
            .ok_or_else(|| CrowdDbError::UnknownAttribute {
                table: table_name.to_string(),
                attribute: column.clone(),
            })?;
        let space_len = binding.space.len();

        // Read the current column as a space-indexed labeling, then drop
        // the shard lock before any crowd work.
        let shard = self.shard(table_name)?;
        let (labels, eligible) = {
            let guards = shard.read(None);
            let parts = slices(&guards, table_name)?;
            let col_idx = parts[0].schema().index_of(&column).ok_or_else(|| {
                CrowdDbError::Configuration(format!(
                    "column {column} of table {table_name} is not materialized — expand it first"
                ))
            })?;
            let mut index = ItemIndex::default();
            let mut labels = vec![false; space_len];
            for part in &parts {
                for (row, at) in index.route(part, &self.config.id_column, &key)?.rows {
                    let item = index.items()[at] as usize;
                    if let (Some(label), Value::Boolean(b)) =
                        (labels.get_mut(item), &part.rows()[row][col_idx])
                    {
                        *label = *b;
                    }
                }
            }
            // Only items that still have a row are worth re-crowd-sourcing.
            let eligible: Vec<ItemId> = (index.items().iter().copied())
                .filter(|&item| (item as usize) < space_len)
                .collect();
            (labels, eligible)
        };

        let round_seed = self.next_round_seed();
        let outcome = {
            let mut crowd = mlock(&binding.crowd);
            crate::repair::repair_labels_among(
                &binding.space,
                &labels,
                &eligible,
                crowd.as_mut(),
                &attribute,
                extraction,
                round_seed,
            )?
        };

        // Refresh the cache and the column with the repaired verdicts.
        let per_item_cost = if outcome.flagged.is_empty() {
            0.0
        } else {
            outcome.repair_cost / outcome.flagged.len() as f64
        };
        let refreshed: Vec<(ItemId, CachedJudgment)> = outcome
            .flagged
            .iter()
            .map(|&item| {
                let judgment = CachedJudgment {
                    verdict: Some(outcome.labels[item as usize]),
                    judgments: 0,
                    cost: per_item_cost,
                    confidence: REPAIRED.confidence().expect("a repaired cell is a verdict"),
                };
                (item, judgment)
            })
            .collect();
        let record = self.publish_verdicts(&key, &attribute, &refreshed);
        self.log(&key, Vec::from_iter(record))?;
        let index = ItemIndex::new(outcome.flagged.iter().copied());
        let values: Vec<Value> = (index.items().iter())
            .map(|&item| Value::Boolean(outcome.labels[item as usize]))
            .collect();
        self.commit_columns(&key, index, |_| {
            vec![ColumnWrite::Repair {
                column: column.clone(),
                values,
            }]
        })?;
        Ok(outcome)
    }

    /// The engine behind [`CrowdDb::expand_numeric_attribute`].
    fn expand_numeric_attribute(
        &self,
        table_name: &str,
        column: &str,
        gold: &[(ItemId, f64)],
        extraction: &crate::extraction::ExtractionConfig,
    ) -> Result<ExpansionReport> {
        let key = table_name.to_lowercase();
        let column = column.to_lowercase();
        let binding = rlock(&self.bindings).get(&key).cloned().ok_or_else(|| {
            CrowdDbError::Configuration(format!(
                "table {table_name} is not bound to a perceptual space"
            ))
        })?;
        let predicted =
            crate::extraction::extract_numeric_attribute(&binding.space, gold, extraction)?;

        // An item the regression predicts for is extracted; one it cannot
        // reach lies outside the space.  The values cover every item the
        // table holds when the commit routes its rows.
        let mut items_unmapped = 0;
        let outcome = self.commit_columns(&key, ItemIndex::default(), |index| {
            let values: Vec<Value> = (index.items().iter())
                .map(|&item| match predicted.get(item as usize) {
                    Some(&value) => Value::Float(value),
                    None => Value::Null,
                })
                .collect();
            let marks = (values.iter())
                .map(|value| match value {
                    Value::Null => MissingReason::OutOfSpace.into(),
                    _ => CellProvenance::Extracted,
                })
                .collect();
            items_unmapped = values.iter().filter(|v| v.is_null()).count();
            vec![ColumnWrite::Materialize {
                column: column.clone(),
                data_type: DataType::Float,
                values,
                marks,
            }]
        })?[0];

        Ok(ExpansionReport {
            table: key,
            column,
            attribute: "numeric gold sample".into(),
            strategy: "perceptual-space regression (SVR)".into(),
            stages: vec![
                ExpansionStage::MissingAttributeDetected,
                ExpansionStage::JudgmentsAggregated,
                ExpansionStage::ExtractorTrained,
                ExpansionStage::ColumnAdded,
                ExpansionStage::ColumnMaterialized,
            ],
            items_crowd_sourced: gold.len(),
            judgments_collected: gold.len(),
            rows_filled: outcome.rows_filled,
            rows_unfilled: outcome.rows_unfilled,
            crowd_cost: 0.0,
            crowd_minutes: 0.0,
            training_set_size: gold.len(),
            cache_hits: 0,
            cache_misses: 0,
            cost_saved: 0.0,
            items_unmapped,
            items_coalesced: 0,
            items_dropped: 0,
        })
    }
}

impl CrowdDb {
    /// The perceptual space bound to a table (if any), cloned out of the
    /// binding so no lock is held by the caller.
    pub fn space_of(&self, table: &str) -> Option<PerceptualSpace> {
        rlock(&self.inner.bindings)
            .get(&table.to_lowercase())
            .map(|b| b.space.clone())
    }

    /// The data-quality loop of Section 4.4 for an expanded binary
    /// attribute: audit the column against the perceptual space,
    /// re-crowd-source **only** the flagged items, overwrite the column
    /// with the repaired labels, and refresh the [`JudgmentCache`] so
    /// later expansions reuse the repaired verdicts instead of the
    /// questionable ones.
    ///
    /// The column must already be materialized (expanded).  Unfilled and
    /// out-of-space rows are treated as `false` for the audit and are not
    /// touched by the repair.
    ///
    /// ```
    /// use crowddb_core::{CrowdDb, CrowdDbConfig, ExpansionStrategy, SimulatedCrowd};
    /// use crowdsim::ExperimentRegime;
    /// use datagen::{DomainConfig, SyntheticDomain};
    ///
    /// let domain = SyntheticDomain::generate(&DomainConfig::movies().scaled(0.05), 21).unwrap();
    /// let space = crowddb_core::build_space_for_domain(&domain, 8, 12).unwrap();
    /// // A spam-heavy crowd produces a noisy column worth repairing.
    /// let crowd = SimulatedCrowd::new(&domain, ExperimentRegime::AllWorkers, 3);
    /// let db = CrowdDb::new(CrowdDbConfig {
    ///     strategy: ExpansionStrategy::DirectCrowd,
    ///     ..Default::default()
    /// });
    /// db.load_domain("movies", &domain, space, Box::new(crowd)).unwrap();
    /// db.register_attribute("movies", "is_comedy", "Comedy").unwrap();
    /// db.execute("SELECT item_id FROM movies WHERE is_comedy = true").unwrap();
    ///
    /// let outcome = db.repair_attribute("movies", "is_comedy", &Default::default()).unwrap();
    /// // Flagged items were re-crowd-sourced and the column now carries
    /// // the repaired labels.
    /// assert_eq!(outcome.labels.len(), domain.items().len());
    /// ```
    pub fn repair_attribute(
        &self,
        table_name: &str,
        column: &str,
        extraction: &crate::extraction::ExtractionConfig,
    ) -> Result<crate::repair::RepairOutcome> {
        self.inner.repair_attribute(table_name, column, extraction)
    }

    /// Expands `column` of `table` as a **numeric** perceptual attribute
    /// (e.g. a 1–10 `humor` score, the paper's motivating
    /// `SELECT name FROM movies WHERE humor ≥ 8` query).
    ///
    /// Numeric judgments cannot be aggregated by majority vote, so the gold
    /// sample is passed in explicitly as `(item, value)` pairs — in practice
    /// these come from a curated crowd task with trusted workers (Section
    /// 3.4).  Support-vector regression over the bound perceptual space
    /// extrapolates the value to every row; the new column has type `FLOAT`.
    pub fn expand_numeric_attribute(
        &self,
        table_name: &str,
        column: &str,
        gold: &[(ItemId, f64)],
        extraction: &crate::extraction::ExtractionConfig,
    ) -> Result<ExpansionReport> {
        self.inner
            .expand_numeric_attribute(table_name, column, gold, extraction)
    }
}

/// The per-cell provenance of a `SELECT` result over `parts`: each result
/// cell's tag, read beside its value through the result row's lineage
/// (`Stored` for columns that track no provenance), and — under snapshot
/// semantics — `NotExpanded` for the cells of columns not in the schema
/// yet: a snapshot `NULL` for a missing attribute is a hole acquisition
/// may still fill, not a stored fact.
///
/// The grid is filled column by column, and a column's tag slice is looked
/// up once per run of result rows from one partition (once per partition
/// when the rows are in scan order), not once per cell.
fn row_provenance(parts: &[&Table], selected: &executor::SelectResult) -> Grid<CellProvenance> {
    let schema = parts[0].schema();
    let columns = &selected.result.columns;
    let lineage = &selected.lineage;
    let mut provenance = Grid::filled(columns.len(), lineage.len(), CellProvenance::Stored);
    for (at, column) in columns.iter().enumerate() {
        let cells = provenance.column_mut(at);
        let Some(index) = schema.index_of(column) else {
            cells.for_each(|cell| *cell = MissingReason::NotExpanded.into());
            continue;
        };
        let mut part = None;
        let mut tags = None;
        for (cell, &(k, row)) in cells.zip(lineage) {
            if part != Some(k) {
                part = Some(k);
                tags = parts[k].tags(index);
            }
            if let Some(tags) = tags {
                *cell = tags[row];
            }
        }
    }
    provenance
}

/// The per-query quality floor, applied to this query's *view* of the
/// result: cells whose verdict carries a known inter-worker agreement below
/// `floor` are masked to `NULL` with `BelowQualityFloor` provenance.  The
/// shared table — values and tags — and the cache are untouched: a strict
/// caller must never destroy data other (or future, less strict) queries
/// paid for, and the floor holds whether the column was materialized by
/// this query or long ago.
fn mask_below_quality_floor(rows: &mut RowSet, floor: f64) {
    for (row, provenance) in rows.rows.iter_mut().zip(rows.provenance.iter_mut()) {
        for (value, cell) in row.iter_mut().zip(provenance.iter_mut()) {
            if cell
                .confidence()
                .is_some_and(|confidence| confidence < floor)
            {
                *value = Value::Null;
                *cell = CellProvenance::Missing {
                    reason: MissingReason::BelowQualityFloor,
                };
            }
        }
    }
}

/// Builds a perceptual space for a synthetic domain by training the
/// Euclidean-embedding factor model on its ratings.
///
/// `dimensions` and `epochs` trade quality for time; the paper uses
/// `d = 100`, which is appropriate for the full-scale benchmark runs, while
/// tests and examples typically use 8–16 dimensions.
pub fn build_space_for_domain(
    domain: &SyntheticDomain,
    dimensions: usize,
    epochs: usize,
) -> Result<PerceptualSpace> {
    let config = EuclideanEmbeddingConfig {
        dimensions,
        epochs,
        learning_rate: 0.02,
        ..Default::default()
    };
    let model = EuclideanEmbeddingModel::train(domain.ratings(), &config)?;
    Ok(model.to_space())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    use crate::crowd_source::{AttributeRequest, SimulatedCrowd};
    use crowdsim::{BatchCrowdRun, CrowdRun, ExperimentRegime};
    use datagen::DomainConfig;
    use mlkit::BinaryConfusion;
    use relational::RelationalError;

    fn domain() -> SyntheticDomain {
        SyntheticDomain::generate(&DomainConfig::movies().scaled(0.1), 21).unwrap()
    }

    fn db_with_domain(domain: &SyntheticDomain, strategy: ExpansionStrategy) -> CrowdDb {
        let space = build_space_for_domain(domain, 8, 15).unwrap();
        let crowd = SimulatedCrowd::new(domain, ExperimentRegime::TrustedWorkers, 5);
        let db = CrowdDb::new(CrowdDbConfig {
            strategy,
            ..Default::default()
        });
        db.load_domain("movies", domain, space, Box::new(crowd))
            .unwrap();
        db.register_attribute("movies", "is_comedy", "Comedy")
            .unwrap();
        db
    }

    /// A crowd source that counts batched dispatches, for asserting that a
    /// plan pays exactly one round.
    struct CountingCrowd {
        inner: SimulatedCrowd,
        collect_calls: Arc<AtomicUsize>,
        batch_calls: Arc<AtomicUsize>,
        last_request_count: Arc<AtomicUsize>,
    }

    impl CrowdSource for CountingCrowd {
        fn collect(&mut self, items: &[u32], attribute: &str, seed: u64) -> Result<CrowdRun> {
            self.collect_calls.fetch_add(1, Ordering::SeqCst);
            self.inner.collect(items, attribute, seed)
        }

        fn collect_batch(
            &mut self,
            requests: &[AttributeRequest],
            seed: u64,
        ) -> Result<BatchCrowdRun> {
            self.batch_calls.fetch_add(1, Ordering::SeqCst);
            self.last_request_count
                .store(requests.len(), Ordering::SeqCst);
            self.inner.collect_batch(requests, seed)
        }

        fn describe(&self) -> String {
            self.inner.describe()
        }
    }

    #[test]
    fn the_event_ring_keeps_the_newest_events_under_global_cursors() {
        let mut ring = EventRing::new();
        let total = EVENT_RING_CAPACITY as u64 + 10;
        for seq in 0..total {
            ring.record(seq);
        }
        assert_eq!(ring.dropped(), 10);
        // A cursor older than the ring resumes at the oldest retained event.
        let (events, cursor) = ring.since(0);
        assert_eq!(cursor, total);
        assert_eq!(events.len(), EVENT_RING_CAPACITY);
        assert_eq!(events.first(), Some(&10));
        assert_eq!(events.last(), Some(&(total - 1)));
        // Cursors are global sequence numbers.
        assert_eq!(ring.since(total - 2), (vec![total - 2, total - 1], total));
        assert_eq!(ring.since(total), (Vec::new(), total));
    }

    #[test]
    fn crowddb_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CrowdDb>();
    }

    #[test]
    fn factual_query_cells_carry_stored_provenance() {
        let d = domain();
        let db = db_with_domain(&d, ExpansionStrategy::perceptual_default());
        let outcome = db
            .query("SELECT name, year FROM movies LIMIT 3")
            .run()
            .unwrap();
        let rows = outcome.rows().unwrap();
        assert_eq!(rows.rows.len(), 3);
        for row in &rows.provenance {
            assert!(row.iter().all(|p| *p == CellProvenance::Stored));
        }
        assert!(outcome.reports.is_empty());
        assert_eq!(outcome.crowd_cost, 0.0);
        // No expansion ever ran, so no column carries provenance tags:
        // every cell of the table reads `Stored`, and `is_comedy` has not
        // been materialized at all.
        let all = db.query("SELECT * FROM movies").run().unwrap();
        assert!(all.reports.is_empty());
        let all = all.rows().unwrap();
        assert_eq!(all.rows.len(), d.items().len());
        assert!(all
            .provenance
            .iter()
            .flatten()
            .all(|p| *p == CellProvenance::Stored));
        let denied = db
            .query("SELECT item_id, is_comedy FROM movies WITH EXPANSION (mode = deny)")
            .run()
            .unwrap_err();
        assert!(matches!(denied, CrowdDbError::ExpansionDenied { .. }));
    }

    #[test]
    fn execute_honors_a_with_expansion_clause() {
        let d = domain();
        let db = db_with_domain(&d, ExpansionStrategy::DirectCrowd);
        // The legacy entry point is a thin wrapper over the session engine,
        // so a SQL-level deny reaches it too.
        let err = db
            .execute("SELECT name FROM movies WHERE is_comedy = true WITH EXPANSION (mode = deny)")
            .unwrap_err();
        assert!(matches!(err, CrowdDbError::ExpansionDenied { .. }));
        assert!(db.expansion_events().is_empty());
    }

    #[test]
    fn expanded_columns_expose_their_provenance_ledger() {
        let d = domain();
        let db = db_with_domain(&d, ExpansionStrategy::DirectCrowd);
        db.execute("SELECT item_id FROM movies WHERE is_comedy = true")
            .unwrap();
        // The `is_comedy` tag of every row (one row per item).
        let tags = |db: &CrowdDb| -> Vec<CellProvenance> {
            let outcome = db
                .query("SELECT item_id, is_comedy FROM movies")
                .run()
                .unwrap();
            assert!(
                outcome.reports.is_empty(),
                "a complete column is not re-expanded"
            );
            outcome
                .rows()
                .unwrap()
                .provenance
                .iter()
                .map(|row| row[1])
                .collect()
        };
        let expanded = tags(&db);
        assert_eq!(expanded.len(), d.items().len());
        assert!(expanded.iter().all(|p| *p != CellProvenance::Stored));
        assert!(expanded.iter().any(|p| matches!(
            p,
            CellProvenance::CrowdDerived { cost_share, .. } if *cost_share > 0.0
        )));
        // A re-expansion is served by the cache and the tags say so.
        db.expand_attribute("movies", "is_comedy").unwrap();
        assert!(tags(&db).iter().all(|p| matches!(
            p,
            CellProvenance::CacheHit { .. } | CellProvenance::Missing { .. }
        )));
    }

    #[test]
    fn factual_queries_run_without_expansion() {
        let d = domain();
        let db = db_with_domain(&d, ExpansionStrategy::perceptual_default());
        let result = db
            .execute("SELECT name FROM movies WHERE year < 1970 LIMIT 5")
            .unwrap();
        assert!(result.rows.len() <= 5);
        assert!(db.expansion_events().is_empty());
        assert_eq!(db.cache_stats().hits, 0);
    }

    #[test]
    fn query_on_missing_attribute_triggers_expansion() {
        let d = domain();
        let db = db_with_domain(
            &d,
            ExpansionStrategy::PerceptualSpace {
                gold_sample_size: 60,
                extraction: Default::default(),
            },
        );
        let result = db
            .execute("SELECT item_id FROM movies WHERE is_comedy = true")
            .unwrap();
        assert!(!result.rows.is_empty());
        assert_eq!(db.expansion_events().len(), 1);
        let events = db.expansion_events();
        let event = &events[0];
        assert_eq!(event.report.column, "is_comedy");
        assert_eq!(event.report.attribute, "Comedy");
        assert!(
            event.report.coverage() > 0.99,
            "perceptual expansion covers all rows"
        );
        assert!(event.report.items_crowd_sourced <= 60);
        assert!(event.report.crowd_cost > 0.0);
        assert!(event
            .report
            .stages
            .contains(&ExpansionStage::ExpansionPlanned));
        assert!(event
            .report
            .stages
            .contains(&ExpansionStage::ExtractorTrained));
        // First acquisition: everything was a cache miss, nothing reused,
        // no concurrent round to join.
        assert_eq!(event.report.cache_hits, 0);
        assert_eq!(event.report.cache_misses, event.report.items_crowd_sourced);
        assert_eq!(event.report.items_coalesced, 0);
        // One crowd round was owned, none coalesced.
        assert_eq!(db.inflight_stats().owned, 1);
        assert_eq!(db.inflight_stats().coalesced, 0);

        // Of the returned (predicted-comedy) items, most must truly be
        // comedies.
        let truth = d.labels_for_category(0);
        let correct = result
            .rows
            .iter()
            .filter(|r| match r[0] {
                Value::Integer(id) => truth[id as usize],
                _ => false,
            })
            .count();
        assert!(
            correct as f64 / result.rows.len() as f64 > 0.5,
            "precision of returned comedies too low: {correct}/{}",
            result.rows.len()
        );

        // Subsequent queries reuse the materialized column: no new event,
        // no new crowd spend.
        let stats_before = db.cache_stats();
        let _ = db
            .execute("SELECT item_id FROM movies WHERE is_comedy = false")
            .unwrap();
        assert_eq!(db.expansion_events().len(), 1);
        assert_eq!(db.cache_stats(), stats_before);
    }

    #[test]
    fn one_query_expands_all_missing_attributes_in_one_batched_round() {
        let d = domain();
        let space = build_space_for_domain(&d, 8, 15).unwrap();
        let collect_calls = Arc::new(AtomicUsize::new(0));
        let batch_calls = Arc::new(AtomicUsize::new(0));
        let last_request_count = Arc::new(AtomicUsize::new(0));
        let crowd = CountingCrowd {
            inner: SimulatedCrowd::new(&d, ExperimentRegime::TrustedWorkers, 5),
            collect_calls: collect_calls.clone(),
            batch_calls: batch_calls.clone(),
            last_request_count: last_request_count.clone(),
        };
        let db = CrowdDb::new(CrowdDbConfig {
            strategy: ExpansionStrategy::PerceptualSpace {
                gold_sample_size: 50,
                extraction: Default::default(),
            },
            ..Default::default()
        });
        db.load_domain("movies", &d, space, Box::new(crowd))
            .unwrap();
        db.register_attribute("movies", "is_comedy", "Comedy")
            .unwrap();
        let second = d.category_names()[1].clone();
        db.register_attribute("movies", "is_other", &second)
            .unwrap();

        let result = db
            .execute("SELECT name FROM movies WHERE is_comedy = true AND is_other = false")
            .unwrap();
        assert!(!result.rows.is_empty());
        // One planning round, one batched dispatch, one event per attribute.
        assert_eq!(batch_calls.load(Ordering::SeqCst), 1);
        assert_eq!(collect_calls.load(Ordering::SeqCst), 0);
        assert_eq!(db.expansion_events().len(), 2);
        let events = db.expansion_events();
        let columns: Vec<&str> = events.iter().map(|e| e.report.column.as_str()).collect();
        assert_eq!(columns, vec!["is_comedy", "is_other"]);
        // Both trained on the same shared gold sample.
        let schema = db.catalog().table("movies").unwrap().schema().clone();
        assert!(schema.contains("is_comedy") && schema.contains("is_other"));
        assert_eq!(
            last_request_count.load(Ordering::SeqCst),
            2,
            "distinct concepts, two questions"
        );
    }

    #[test]
    fn columns_sharing_a_concept_share_one_crowd_question() {
        let d = domain();
        let space = build_space_for_domain(&d, 8, 15).unwrap();
        let collect_calls = Arc::new(AtomicUsize::new(0));
        let batch_calls = Arc::new(AtomicUsize::new(0));
        let last_request_count = Arc::new(AtomicUsize::new(0));
        let crowd = CountingCrowd {
            inner: SimulatedCrowd::new(&d, ExperimentRegime::TrustedWorkers, 5),
            collect_calls: collect_calls.clone(),
            batch_calls: batch_calls.clone(),
            last_request_count: last_request_count.clone(),
        };
        let db = CrowdDb::new(CrowdDbConfig {
            strategy: ExpansionStrategy::PerceptualSpace {
                gold_sample_size: 40,
                extraction: Default::default(),
            },
            ..Default::default()
        });
        db.load_domain("movies", &d, space, Box::new(crowd))
            .unwrap();
        // Two columns mapped to the same domain concept.
        db.register_attribute("movies", "is_comedy", "Comedy")
            .unwrap();
        db.register_attribute("movies", "comedy_flag", "Comedy")
            .unwrap();

        db.execute("SELECT name FROM movies WHERE is_comedy = true AND comedy_flag = true")
            .unwrap();
        // One round, ONE question: the concept is crowd-sourced once.
        assert_eq!(batch_calls.load(Ordering::SeqCst), 1);
        assert_eq!(
            last_request_count.load(Ordering::SeqCst),
            1,
            "shared concept must share a question"
        );

        // Both columns materialized identically (same judgments, same
        // extractor input).
        {
            let catalog = db.catalog();
            let table = catalog.table("movies").unwrap();
            let a = table.schema().index_of("is_comedy").unwrap();
            let b = table.schema().index_of("comedy_flag").unwrap();
            assert!(table.rows().iter().all(|row| row[a] == row[b]));
        }

        // Owner-pays accounting: the first column carries the question's
        // full cost and judgment count, the sibling reports zero collection
        // — so summing reports matches what the round really collected.
        let events = db.expansion_events();
        assert_eq!(events.len(), 2);
        assert!(events[0].report.crowd_cost > 0.0);
        assert!(events[0].report.judgments_collected > 0);
        assert!(events[0].report.items_crowd_sourced > 0);
        assert_eq!(events[1].report.crowd_cost, 0.0);
        assert_eq!(events[1].report.judgments_collected, 0);
        assert_eq!(events[1].report.items_crowd_sourced, 0);
        let total_judgments: usize = events.iter().map(|e| e.report.judgments_collected).sum();
        assert_eq!(total_judgments, events[0].report.judgments_collected);
        let cost_paid: f64 = events.iter().map(|e| e.report.crowd_cost).sum();

        // Forced re-expansion of both columns: the concept's cached
        // judgments are reused and their reuse is counted ONCE, not once
        // per column.
        let reports = db
            .expand_columns("movies", &["is_comedy".into(), "comedy_flag".into()])
            .unwrap();
        assert_eq!(
            batch_calls.load(Ordering::SeqCst),
            1,
            "re-expansion is fully cache-served"
        );
        assert!(reports[0].cost_saved > 0.0);
        assert_eq!(
            reports[1].cost_saved, 0.0,
            "sibling does not re-count the saving"
        );
        let stats = db.cache_stats();
        assert!(
            (stats.cost_saved - cost_paid).abs() < 1e-9,
            "dollars saved ({}) must equal dollars once paid ({cost_paid})",
            stats.cost_saved
        );
    }

    #[test]
    fn forced_re_expansion_is_served_from_the_judgment_cache() {
        let d = domain();
        let db = db_with_domain(
            &d,
            ExpansionStrategy::PerceptualSpace {
                gold_sample_size: 40,
                extraction: Default::default(),
            },
        );
        let first = db.expand_attribute("movies", "is_comedy").unwrap();
        assert!(first.judgments_collected > 0);
        assert!(first.crowd_cost > 0.0);
        assert_eq!(first.cache_hits, 0);

        // Re-expanding pays the crowd nothing: every gold judgment is
        // cached.
        let second = db.expand_attribute("movies", "is_comedy").unwrap();
        assert_eq!(second.judgments_collected, 0);
        assert_eq!(second.items_crowd_sourced, 0);
        assert_eq!(second.crowd_cost, 0.0);
        assert_eq!(second.cache_hits, first.cache_misses);
        assert!(second.cost_saved > 0.0);
        assert!(second.stages.contains(&ExpansionStage::JudgmentsReused));
        assert!(!second
            .stages
            .contains(&ExpansionStage::CrowdSourcingStarted));
        // The two expansions agree (same judgments, same extractor input).
        assert_eq!(first.rows_filled, second.rows_filled);

        // Invalidation forces fresh judgments again.
        db.invalidate_judgments("movies", "Comedy").unwrap();
        let third = db.expand_attribute("movies", "is_comedy").unwrap();
        assert!(third.judgments_collected > 0);
        assert_eq!(third.cache_hits, 0);
    }

    #[test]
    fn per_attribute_strategy_overrides_replace_the_global_default() {
        let d = domain();
        let space = build_space_for_domain(&d, 8, 15).unwrap();
        let crowd = SimulatedCrowd::new(&d, ExperimentRegime::TrustedWorkers, 5);
        let db = CrowdDb::new(CrowdDbConfig {
            strategy: ExpansionStrategy::PerceptualSpace {
                gold_sample_size: 40,
                extraction: Default::default(),
            },
            ..Default::default()
        });
        db.load_domain("movies", &d, space, Box::new(crowd))
            .unwrap();
        db.register_attribute("movies", "is_comedy", "Comedy")
            .unwrap();
        let second = d.category_names()[1].clone();
        db.register_attribute_with_strategy(
            "movies",
            "is_other",
            &second,
            ExpansionStrategy::DirectCrowd,
        )
        .unwrap();

        db.execute("SELECT name FROM movies WHERE is_comedy = true AND is_other = true")
            .unwrap();
        let strategies: Vec<String> = db
            .expansion_events()
            .iter()
            .map(|e| e.report.strategy.clone())
            .collect();
        assert_eq!(
            strategies,
            vec!["perceptual-space extraction", "direct crowd-sourcing"]
        );
        // The direct attribute crowd-sourced every item, the perceptual one
        // only its gold sample.
        assert!(db.expansion_events()[1].report.items_crowd_sourced > 40);
        assert!(db.expansion_events()[0].report.items_crowd_sourced <= 40);

        // set_attribute_strategy validates registration.
        assert!(db
            .set_attribute_strategy("movies", "is_comedy", ExpansionStrategy::DirectCrowd)
            .is_ok());
        assert!(db
            .set_attribute_strategy("movies", "unknown", ExpansionStrategy::DirectCrowd)
            .is_err());
        assert!(db
            .set_attribute_strategy("nope", "is_comedy", ExpansionStrategy::DirectCrowd)
            .is_err());
    }

    #[test]
    fn direct_crowd_strategy_leaves_unknown_items_null() {
        let d = domain();
        let db = db_with_domain(&d, ExpansionStrategy::DirectCrowd);
        let result = db
            .execute("SELECT item_id FROM movies WHERE is_comedy = true")
            .unwrap();
        let events = db.expansion_events();
        let event = &events[0];
        assert_eq!(event.report.strategy, "direct crowd-sourcing");
        assert_eq!(event.report.training_set_size, 0);
        // Trusted workers do not know every movie: coverage stays below 100 %.
        assert!(event.report.coverage() < 1.0);
        assert!(event.report.rows_unfilled > 0);
        assert!(!result.rows.is_empty());
    }

    #[test]
    fn perceptual_expansion_is_more_accurate_than_direct_crowd() {
        // The core Table 1 vs Experiment 5 comparison, end to end.
        let d = domain();
        let truth = d.labels_for_category(0);
        let accuracy_of = |db: &CrowdDb| {
            db.execute("SELECT item_id FROM movies WHERE is_comedy = true")
                .unwrap();
            let catalog = db.catalog();
            let table = catalog.table("movies").unwrap();
            let mut predicted = Vec::new();
            let mut actual = Vec::new();
            for row in table.rows() {
                let id = match row[0] {
                    Value::Integer(id) => id as usize,
                    _ => continue,
                };
                match row[table.schema().index_of("is_comedy").unwrap()] {
                    Value::Boolean(b) => {
                        predicted.push(b);
                        actual.push(truth[id]);
                    }
                    _ => {
                        // Unfilled rows count as wrong for both strategies.
                        predicted.push(!truth[id]);
                        actual.push(truth[id]);
                    }
                }
            }
            BinaryConfusion::from_predictions(&predicted, &actual).accuracy()
        };
        let direct_db = db_with_domain(&d, ExpansionStrategy::DirectCrowd);
        let perceptual_db = db_with_domain(
            &d,
            ExpansionStrategy::PerceptualSpace {
                gold_sample_size: 80,
                extraction: Default::default(),
            },
        );
        let direct = accuracy_of(&direct_db);
        let perceptual = accuracy_of(&perceptual_db);
        assert!(
            perceptual > direct,
            "perceptual {perceptual} should beat direct {direct}"
        );
    }

    #[test]
    fn unregistered_attributes_are_rejected() {
        let d = domain();
        let db = db_with_domain(&d, ExpansionStrategy::perceptual_default());
        let err = db.execute("SELECT * FROM movies WHERE excitement = true");
        assert!(matches!(err, Err(CrowdDbError::UnknownAttribute { .. })));
        // A mix of expandable and non-expandable attributes is rejected
        // before any crowd money is spent.
        let err = db.execute("SELECT * FROM movies WHERE is_comedy = true AND excitement = true");
        assert!(matches!(err, Err(CrowdDbError::UnknownAttribute { .. })));
        assert!(db.expansion_events().is_empty());
        // Unknown tables and parse errors pass through.
        assert!(matches!(
            db.execute("SELECT * FROM restaurants"),
            Err(CrowdDbError::Relational(RelationalError::UnknownTable(_)))
        ));
        assert!(matches!(
            db.execute("SELEKT nonsense"),
            Err(CrowdDbError::Relational(RelationalError::Parse(_)))
        ));
    }

    #[test]
    fn binding_validation() {
        let d = domain();
        let space = build_space_for_domain(&d, 4, 5).unwrap();
        let crowd = SimulatedCrowd::new(&d, ExperimentRegime::TrustedWorkers, 5);
        let db = CrowdDb::new(CrowdDbConfig::default());
        // register_attribute before binding fails.
        assert!(db
            .register_attribute("movies", "is_comedy", "Comedy")
            .is_err());
        // bind_table requires the table to exist and contain the id column.
        assert!(db
            .bind_table(
                "movies",
                space.clone(),
                Box::new(SimulatedCrowd::new(&d, ExperimentRegime::AllWorkers, 1))
            )
            .is_err());
        // Space size must match the domain.
        let small_space = PerceptualSpace::new(vec![vec![0.0, 0.0]; 3]).unwrap();
        assert!(db
            .load_domain("movies", &d, small_space, Box::new(crowd))
            .is_err());
        // Proper load works and exposes the space.
        let crowd2 = SimulatedCrowd::new(&d, ExperimentRegime::TrustedWorkers, 5);
        db.load_domain("movies", &d, space, Box::new(crowd2))
            .unwrap();
        assert!(db.space_of("movies").is_some());
        assert!(db.space_of("other").is_none());
        assert_eq!(db.catalog().table("movies").unwrap().len(), d.items().len());
    }

    #[test]
    fn numeric_attribute_expansion_fills_a_float_column() {
        // A hand-made table bound to a hand-made space in which the "humor"
        // ground truth is the first coordinate; SVR must recover it from a
        // sparse gold sample well enough to answer a humor >= threshold query.
        let n = 120usize;
        let coords: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64 / (n as f64 / 10.0), ((i * 13) % 7) as f64 / 7.0])
            .collect();
        let space = PerceptualSpace::new(coords.clone()).unwrap();

        let d = domain(); // only used to satisfy the crowd-source parameter
        let crowd = SimulatedCrowd::new(&d, ExperimentRegime::TrustedWorkers, 1);
        let db = CrowdDb::new(CrowdDbConfig::default());
        let schema = Schema::new(vec![
            Column::not_null("item_id", DataType::Integer),
            Column::new("name", DataType::Text),
        ])
        .unwrap();
        let mut table = Table::new("things", schema);
        for i in 0..n {
            table
                .insert_row(vec![
                    Value::Integer(i as i64),
                    Value::Text(format!("thing {i}")),
                ])
                .unwrap();
        }
        db.create_table_with(TableOptions::new("things", "item_id"), table)
            .unwrap();
        db.bind_table("things", space, Box::new(crowd)).unwrap();

        // Gold sample: every 10th item with its true humor value.
        let gold: Vec<(ItemId, f64)> = (0..n)
            .step_by(10)
            .map(|i| (i as u32, coords[i][0]))
            .collect();
        let report = db
            .expand_numeric_attribute("things", "humor", &gold, &Default::default())
            .unwrap();
        assert_eq!(report.rows_filled, n);
        assert_eq!(report.training_set_size, gold.len());
        assert_eq!(report.items_unmapped, 0);

        // The paper's motivating query now runs against the filled column.
        let result = db
            .execute("SELECT item_id FROM things WHERE humor >= 8")
            .unwrap();
        assert!(!result.rows.is_empty());
        // Returned items are genuinely the high-humor ones (first coordinate
        // >= ~8 means item index >= ~96); allow some regression slack.
        for row in &result.rows {
            match row[0] {
                Value::Integer(id) => assert!(id >= 80, "item {id} should not be highly humorous"),
                ref other => panic!("unexpected value {other:?}"),
            }
        }
        // Unbound tables are rejected.
        assert!(db
            .expand_numeric_attribute("movies", "humor", &gold, &Default::default())
            .is_err());
    }

    #[test]
    fn non_contiguous_ids_are_routed_through_the_explicit_mapping() {
        // Regression test for the dense-id assumption: the seed indexed
        // predictions as `predicted[item as usize]` and silently dropped
        // items beyond the space length.  Ids here are sparse and one lies
        // far outside the 40-item space.
        let coords: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64 / 4.0, (i % 5) as f64])
            .collect();
        let space = PerceptualSpace::new(coords.clone()).unwrap();
        let d = domain();
        let crowd = SimulatedCrowd::new(&d, ExperimentRegime::TrustedWorkers, 1);
        let db = CrowdDb::new(CrowdDbConfig::default());
        let schema = Schema::new(vec![Column::not_null("item_id", DataType::Integer)]).unwrap();
        let mut table = Table::new("things", schema);
        let sparse_ids: Vec<i64> = vec![1, 7, 13, 22, 38, 9000];
        for &id in &sparse_ids {
            table.insert_row(vec![Value::Integer(id)]).unwrap();
        }
        db.create_table_with(TableOptions::new("things", "item_id"), table)
            .unwrap();
        db.bind_table("things", space, Box::new(crowd)).unwrap();

        let gold: Vec<(ItemId, f64)> = vec![(0, 0.0), (10, 2.5), (20, 5.0), (39, 9.75)];
        let report = db
            .expand_numeric_attribute("things", "score", &gold, &Default::default())
            .unwrap();
        // The five in-space items are filled; id 9000 is reported, not
        // silently dropped.
        assert_eq!(report.rows_filled, 5);
        assert_eq!(report.rows_unfilled, 1);
        assert_eq!(report.items_unmapped, 1);

        // Every filled value matches its own item id's position in the
        // space, not its row number.
        let catalog = db.catalog();
        let table = catalog.table("things").unwrap();
        let score_idx = table.schema().index_of("score").unwrap();
        let id_idx = table.schema().index_of("item_id").unwrap();
        let mut checked = 0;
        for row in table.rows() {
            let (id, score) = match (&row[id_idx], &row[score_idx]) {
                (Value::Integer(id), Value::Float(score)) => (*id, *score),
                (Value::Integer(9000), Value::Null) => continue,
                other => panic!("unexpected row {other:?}"),
            };
            // The ground truth is the first coordinate = id / 4.
            assert!(
                (score - id as f64 / 4.0).abs() < 1.5,
                "item {id}: predicted {score}, truth {}",
                id as f64 / 4.0
            );
            checked += 1;
        }
        assert_eq!(checked, 5);
    }

    #[test]
    fn repair_attribute_refreshes_column_and_cache() {
        // A noisy direct-crowd expansion, then the Section 4.4 repair loop.
        let d = domain();
        let space = build_space_for_domain(&d, 8, 15).unwrap();
        let crowd = SimulatedCrowd::new(&d, ExperimentRegime::AllWorkers, 3);
        let db = CrowdDb::new(CrowdDbConfig {
            strategy: ExpansionStrategy::DirectCrowd,
            ..Default::default()
        });
        db.load_domain("movies", &d, space, Box::new(crowd))
            .unwrap();
        db.register_attribute("movies", "is_comedy", "Comedy")
            .unwrap();

        // Repair before expansion is rejected.
        assert!(db
            .repair_attribute("movies", "is_comedy", &Default::default())
            .is_err());

        db.execute("SELECT item_id FROM movies WHERE is_comedy = true")
            .unwrap();
        let outcome = db
            .repair_attribute("movies", "is_comedy", &Default::default())
            .unwrap();
        assert!(
            !outcome.flagged.is_empty(),
            "a spam-heavy column should get flags"
        );
        assert!(outcome.repair_cost > 0.0);

        // The column now carries the repaired labels for flagged items, and
        // the cache holds the repaired verdicts for future expansions.
        {
            let catalog = db.catalog();
            let table = catalog.table("movies").unwrap();
            let col = table.schema().index_of("is_comedy").unwrap();
            let id = table.schema().index_of("item_id").unwrap();
            for row in table.rows() {
                let item = match row[id] {
                    Value::Integer(i) => i as u32,
                    _ => continue,
                };
                if outcome.flagged.contains(&item) {
                    assert_eq!(
                        row[col],
                        Value::Boolean(outcome.labels[item as usize]),
                        "flagged item {item} must carry its repaired label"
                    );
                    let cached = db.judgment_cache().peek("movies", "Comedy", item).unwrap();
                    assert_eq!(cached.verdict, Some(outcome.labels[item as usize]));
                }
            }
        }

        // Unknown columns and unbound tables are rejected.
        assert!(db
            .repair_attribute("movies", "mystery", &Default::default())
            .is_err());
        assert!(db
            .repair_attribute("books", "is_comedy", &Default::default())
            .is_err());

        // After rows are deleted, a repair round never pays for row-less
        // items: every flagged item still exists in the table.
        db.execute("DELETE FROM movies WHERE year < 1970").unwrap();
        let remaining: std::collections::HashSet<u32> = db
            .catalog()
            .table("movies")
            .unwrap()
            .rows()
            .iter()
            .filter_map(|r| match r[0] {
                Value::Integer(i) => Some(i as u32),
                _ => None,
            })
            .collect();
        assert!(remaining.len() < d.items().len(), "the DELETE removed rows");
        let outcome = db
            .repair_attribute("movies", "is_comedy", &Default::default())
            .unwrap();
        assert!(
            outcome.flagged.iter().all(|i| remaining.contains(i)),
            "no crowd money spent on deleted rows"
        );
    }

    #[test]
    fn gold_sample_skips_items_outside_the_space() {
        // A sparse table whose ids exceed the space: the planner must never
        // pick an out-of-space item for extractor training (the crowd would
        // be paid for a judgment the trainer cannot use).
        let coords: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 1.0]).collect();
        let space = PerceptualSpace::new(coords).unwrap();
        let d = domain();
        let crowd = SimulatedCrowd::new(&d, ExperimentRegime::TrustedWorkers, 1);
        let db = CrowdDb::new(CrowdDbConfig {
            strategy: ExpansionStrategy::PerceptualSpace {
                gold_sample_size: 10,
                extraction: Default::default(),
            },
            ..Default::default()
        });
        let schema = Schema::new(vec![Column::not_null("item_id", DataType::Integer)]).unwrap();
        let mut table = Table::new("things", schema);
        for id in [0i64, 3, 7, 11, 15, 19, 500, 900] {
            table.insert_row(vec![Value::Integer(id)]).unwrap();
        }
        db.create_table_with(TableOptions::new("things", "item_id"), table)
            .unwrap();
        db.bind_table("things", space, Box::new(crowd)).unwrap();
        db.register_attribute("things", "is_comedy", "Comedy")
            .unwrap();

        // The expansion must succeed — an out-of-space gold item would make
        // feature extraction fail after the crowd round.
        let report = db.expand_attribute("things", "is_comedy").unwrap();
        assert!(report.training_set_size > 0);
        assert!(
            report.items_crowd_sourced <= 6,
            "only the 6 in-space items qualify"
        );
        // The two out-of-space rows are reported, not silently dropped.
        assert_eq!(report.items_unmapped, 2);
        assert_eq!(report.rows_unfilled, 2);
    }

    #[test]
    fn concurrent_reads_and_expansions_share_the_database() {
        // A smoke test of the shared-state design: concurrent factual
        // SELECTs and one expanding query, from plain borrowed threads.
        let d = domain();
        let db = db_with_domain(
            &d,
            ExpansionStrategy::PerceptualSpace {
                gold_sample_size: 30,
                extraction: Default::default(),
            },
        );
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for _ in 0..5 {
                        let result = db
                            .execute("SELECT name FROM movies WHERE year < 1990 LIMIT 3")
                            .unwrap();
                        assert!(result.rows.len() <= 3);
                    }
                });
            }
            scope.spawn(|| {
                db.execute("SELECT item_id FROM movies WHERE is_comedy = true")
                    .unwrap();
            });
        });
        assert!(!db.expansion_events().is_empty());
        assert!(db
            .catalog()
            .table("movies")
            .unwrap()
            .schema()
            .contains("is_comedy"));
    }

    #[test]
    fn build_space_matches_domain_size() {
        let d = domain();
        let space = build_space_for_domain(&d, 6, 8).unwrap();
        assert_eq!(space.len(), d.items().len());
        assert_eq!(space.dimensions(), 6);
    }

    /// A fresh in-memory database holding one hash-partitioned table of
    /// `n` rows (ids `0..n`), for the partitioning behavior tests below.
    fn partitioned_things(n: usize, partitions: usize) -> CrowdDb {
        let db = CrowdDb::new(CrowdDbConfig::default());
        let schema = Schema::new(vec![
            Column::not_null("item_id", DataType::Integer),
            Column::new("name", DataType::Text),
        ])
        .unwrap();
        let mut table = Table::new("things", schema);
        for i in 0..n {
            table
                .insert_row(vec![
                    Value::Integer(i as i64),
                    Value::Text(format!("thing {i}")),
                ])
                .unwrap();
        }
        db.create_table_with(
            TableOptions::new("things", "item_id")
                .partitions(PartitionSpec::Hash { n: partitions }),
            table,
        )
        .unwrap();
        db
    }

    #[test]
    fn partitioned_table_answers_queries_like_a_single_partition_one() {
        let db = partitioned_things(30, 4);
        // The read spans every partition, ordered and limited exactly like
        // an unpartitioned table.
        let result = db
            .execute("SELECT item_id FROM things ORDER BY item_id LIMIT 7")
            .unwrap();
        let ids: Vec<i64> = result
            .rows
            .iter()
            .map(|r| match r[0] {
                Value::Integer(id) => id,
                ref other => panic!("unexpected value {other:?}"),
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(db.catalog().table("things").unwrap().len(), 30);
    }

    #[test]
    fn storage_stats_refresh_the_partition_wal_gauges() {
        let dir = std::env::temp_dir().join(format!(
            "crowddb-gauge-test-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let db = CrowdDb::open(&dir).unwrap();
        let schema = Schema::new(vec![
            Column::not_null("item_id", DataType::Integer),
            Column::new("name", DataType::Text),
        ])
        .unwrap();
        db.create_table_with(
            TableOptions::new("things", "item_id").partitions(PartitionSpec::Hash { n: 2 }),
            Table::new("things", schema),
        )
        .unwrap();
        db.execute("INSERT INTO things (item_id, name) VALUES (0, 'a'), (1, 'b')")
            .unwrap();
        let stats = db.storage_stats();
        let things = &stats.tables[0];
        for part in &things.partitions {
            assert!(part.wal_bytes > 0);
            assert_eq!(
                db.metrics_snapshot().value(
                    "crowddb_partition_wal_bytes",
                    &[
                        ("table", "things"),
                        ("partition", &part.partition.to_string())
                    ],
                ),
                Some(part.wal_bytes as f64),
            );
        }
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partitioned_mutations_route_and_count_rows_across_partitions() {
        let db = partitioned_things(20, 3);
        // A multi-row INSERT routes each row by its id value.
        let result = db
            .execute("INSERT INTO things (item_id, name) VALUES (100, 'a'), (101, 'b'), (102, 'c')")
            .unwrap();
        assert_eq!(result.rows_affected, 3);
        // A cross-partition UPDATE touches every matching row, wherever it
        // lives, and reports the full count.
        let result = db
            .execute("UPDATE things SET name = 'renamed' WHERE item_id >= 100")
            .unwrap();
        assert_eq!(result.rows_affected, 3);
        // So does DELETE.
        let result = db.execute("DELETE FROM things WHERE item_id < 5").unwrap();
        assert_eq!(result.rows_affected, 5);
        assert_eq!(db.catalog().table("things").unwrap().len(), 18);
    }

    #[test]
    fn updating_the_partitioning_id_column_is_refused() {
        let db = partitioned_things(10, 2);
        let err = db
            .execute("UPDATE things SET item_id = 99 WHERE item_id = 1")
            .unwrap_err();
        assert!(matches!(err, CrowdDbError::Configuration(_)), "{err}");
        // The same assignment on a single-partition table stays legal.
        let db = partitioned_things(10, 1);
        db.execute("UPDATE things SET item_id = 99 WHERE item_id = 1")
            .unwrap();
    }

    #[test]
    fn table_options_validate_name_id_column_and_schema() {
        let db = CrowdDb::new(CrowdDbConfig::default());
        let schema = Schema::new(vec![Column::not_null("item_id", DataType::Integer)]).unwrap();
        // Name mismatch between options and table.
        let err = db
            .create_table_with(
                TableOptions::new("other", "item_id"),
                Table::new("things", schema.clone()),
            )
            .unwrap_err();
        assert!(matches!(err, CrowdDbError::Configuration(_)), "{err}");
        // Id-column mismatch with the database config.
        let err = db
            .create_table_with(
                TableOptions::new("things", "row_id"),
                Table::new("things", schema),
            )
            .unwrap_err();
        assert!(matches!(err, CrowdDbError::Configuration(_)), "{err}");
        // Partitioning requires the id column to exist in the schema.
        let no_id = Schema::new(vec![Column::new("name", DataType::Text)]).unwrap();
        let err = db
            .create_table_with(
                TableOptions::new("things", "item_id").partitions(PartitionSpec::Hash { n: 2 }),
                Table::new("things", no_id),
            )
            .unwrap_err();
        assert!(matches!(err, CrowdDbError::Configuration(_)), "{err}");
    }

    #[test]
    fn disjoint_partition_writers_do_not_block_each_other() {
        // The rendezvous: the test thread holds partition 0's write lock
        // while a second thread commits an INSERT routed to partition 1.
        // If partition locks were table-wide, the insert would block until
        // the guard dropped — and the recv_timeout below would fire first.
        let db = partitioned_things(10, 2);
        let spec = PartitionSpec::Hash { n: 2 };
        // A fresh id (not already in the table) that routes to partition 1.
        let id_b = (100..10_000i64)
            .find(|&i| spec.route_value(&Value::Integer(i)) == 1)
            .unwrap();
        let shard = {
            let shards = rlock(&db.inner.shards);
            Arc::clone(shards.get("things").unwrap())
        };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            // Hold partition 0 exclusively until the other writer reports in.
            let guard = shard.write_one(0);
            scope.spawn(move || {
                db.execute(&format!(
                    "INSERT INTO things (item_id, name) VALUES ({id_b}, 'b-side')"
                ))
                .unwrap();
                done_tx.send(()).unwrap();
            });
            // The partition-1 insert must finish while partition 0 is held.
            done_rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("disjoint-partition insert blocked behind an unrelated partition lock");
            drop(guard);
        });
    }
}
