//! Durability wiring: logging committed changes to the [`storage`] engine
//! and rebuilding a [`CrowdDb`](crate::CrowdDb) from its files.
//!
//! # What is durable
//!
//! Everything real money or real work produced: catalog DDL and rows,
//! SQL mutations, materialized crowd columns (values *and* their per-cell
//! provenance, confidence and cost share included — logged as one mark
//! per item, snapshotted as one tag per row, so rows sharing an item keep
//! diverging tags across a checkpoint), judgment-cache entries and
//! invalidations, and the crowd-round counter.  Runtime bindings — perceptual spaces, crowd
//! sources, column → concept registrations — are *not* persisted: they are
//! live objects the application re-binds after
//! [`CrowdDb::open`](crate::CrowdDb::open) (see
//! `examples/persistent_session.rs`), and nothing about them costs crowd
//! dollars to recreate.
//!
//! # Segmented, partitioned layout
//!
//! The durable state is sharded by table and, within a table, by
//! partition.  A table whose [`PartitionSpec`](relational::PartitionSpec)
//! has `n` partitions owns `n` independent segment/snapshot pairs
//! (`wal/<table>.p<k>.log`, `snap/<table>.p<k>.snap`), each carrying the
//! full per-segment discipline — generation header, CRC32 frames, group
//! fsync, torn-tail truncation — on its own file.  A table of one
//! partition (`Single`, the default) is no special case: it owns the one
//! pair `p0`.  The manifest ties the layout together:
//! it stamps the on-disk format version and records each table's spec.
//! [`recover`] reads a directory of that one version only; any other
//! fails with the typed `UnsupportedFormat` storage error, and the
//! directory is left as it was.  Rows are routed to
//! partitions by the deterministic [`PartitionSpec`] arithmetic applied to
//! the table's id column, identically at write, checkpoint, and recovery
//! time.
//!
//! Partitions therefore commit, checkpoint, and recover independently:
//! writers on disjoint partitions of the *same* table never share a WAL
//! mutex, [`Durability::checkpoint_partition`] compacts one partition
//! without touching its siblings' files, and [`recover`] replays all
//! partitions of all tables in parallel on a worker pool, merging each
//! table's partitions in fixed `k` order so the result is bit-identical
//! however many workers replayed them.
//!
//! # Write path and crash consistency
//!
//! Mutators apply their change to the in-memory state first and then
//! append the matching [`WalRecord`] (group-fsynced) to the owning
//! partition's segment before the query returns.  Two invariants make this
//! safe against a checkpoint of the same partition running concurrently
//! (see [`CrowdDb::checkpoint`](crate::CrowdDb::checkpoint)):
//!
//! 1. Catalog-shaped records (`CreateTable`, `Mutation`,
//!    `MaterializeColumn`, `SetCells`) are applied *and* logged under the
//!    partition's exclusive lock, and the checkpoint holds the shared
//!    partition lock across both its state capture and its segment swap —
//!    so each such record lands either entirely before the snapshot (and
//!    is truncated with the old segment) or entirely after it (and replays
//!    on top).  This matters because `Mutation` replay re-executes the
//!    SQL and is **not** idempotent.
//! 2. Cache-shaped records (`CachePut`, `CacheInvalidate`) are applied
//!    outside the partition lock, so one may be captured by the snapshot
//!    *and* land in the fresh segment; both replay idempotently (same-key
//!    overwrite / remove), so the double-apply is harmless.
//!
//! A SQL write is routed by [`WriteRoute`], live and in replay alike.
//! Live, it is prepared on every routed partition and applied only if
//! all prepared, so a failed statement changes and logs nothing; its
//! text is logged to each routed partition under their exclusive locks,
//! and replay applies each partition's share under the same route.  A
//! crash midway through the fan-out can leave a suffix of partitions
//! without the record — the recovered table then holds the prefix's
//! effects, the same "query never returned" outcome a single-partition
//! crash gives, and recovery reconciles any schema divergence by unioning
//! columns (`NULL`-filling the rows of partitions the record never
//! reached).
//!
//! Table **creation** commits on partition 0: the creating thread opens
//! every segment with its meta record, logs the per-partition
//! `CreateTable` row slices to partitions `1..n` first and to partition 0
//! last, and recovery drops (and deletes the files of) any table whose
//! partition 0 lacks it — so a half-created table can never resurrect,
//! however many partitions it has.  A table partition 0 holds is never
//! dropped: when a crash between a checkpoint's segment reset and its
//! meta append left no meta record, and the manifest does not list the
//! table yet, a table with partition 0 as its only file is one-partition
//! (every partition's segment exists before the table commits).
//!
//! A crash between the in-memory apply and the append loses that one
//! change.  A crash mid-append leaves a torn tail the next [`recover`]
//! truncates.  A crash mid-*partial*-checkpoint leaves each partition with
//! either its old snapshot + complete old segment or its new snapshot
//! (+ reset segment): per-partition generation stamps keep every partition
//! individually consistent, whichever subset the crash interrupted.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};

use perceptual::ItemId;
use relational::executor::{self, Prepared};
use relational::{
    sql, Catalog, Column, MissingReason, PartitionSpec, RelationalError, Table, Value,
};
use storage::manifest::{snap_dir, wal_dir};
use storage::{
    read_manifest, read_snapshot_file, scan_segments, segment_file_name, slice_records,
    snapshot_file_name, write_manifest, write_snapshot_file, Manifest, SnapshotImage, StorageError,
    TableImage, Wal, WalRecord,
};

use crate::cache::{CacheStats, CachedJudgment, JudgmentCache};
use crate::error::CrowdDbError;
use crate::materialize::{materialize_column, repair_cells};
use crate::planner::ItemIndex;
use crate::scheduler::Scheduler;
use crate::sync::{mlock, rlock, wlock};
use crate::Result;

/// One partition's WAL segment: the open log plus the dirty flag partial
/// checkpoints consult.  The segment mutex is the per-partition *WAL lock*
/// of the locking discipline documented in `docs/architecture.md`.
pub(crate) struct Segment {
    wal: Mutex<Wal>,
    /// True when the segment has received an append since the partition's
    /// last checkpoint — the partition must be re-snapshotted.  Cleared
    /// under the segment mutex before the checkpoint captures state, so a
    /// racing append re-dirties the partition for the *next* checkpoint.
    dirty: AtomicBool,
}

impl Segment {
    fn of_wal(wal: Wal, dirty: bool) -> Arc<Segment> {
        Arc::new(Segment {
            wal: Mutex::new(wal),
            dirty: AtomicBool::new(dirty),
        })
    }
}

/// One table's durable storage: its partitioning spec and one [`Segment`]
/// per partition (`parts.len() == spec.partition_count()`), partition `k`
/// in `wal/<table>.p<k>.log`.
pub(crate) struct TableStore {
    spec: PartitionSpec,
    parts: Vec<Arc<Segment>>,
}

/// On-disk size and dirtiness of one partition, as reported by
/// [`Durability::storage_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PartitionDisk {
    /// Live WAL segment size in bytes.
    pub(crate) wal_bytes: u64,
    /// Snapshot file size in bytes (0 when no snapshot exists yet).
    pub(crate) snapshot_bytes: u64,
    /// True when the segment holds records newer than the snapshot.
    pub(crate) dirty: bool,
}

/// Path of partition `k`'s WAL segment.
fn segment_path(dir: &Path, table: &str, k: usize) -> PathBuf {
    wal_dir(dir).join(segment_file_name(table, k))
}

/// Path of partition `k`'s snapshot.
fn snapshot_path(dir: &Path, table: &str, k: usize) -> PathBuf {
    snap_dir(dir).join(snapshot_file_name(table, k))
}

/// The meta record every segment starts with: the id column, the
/// partition index, and the spec, which let the segment be replayed
/// correctly even before the manifest has recorded the table.
fn meta_record(id_column: &str, spec: &PartitionSpec, k: usize) -> WalRecord {
    WalRecord::MetaPartition {
        id_column: id_column.to_string(),
        partition: k as u32,
        spec: spec.clone(),
    }
}

/// The open durability engine of a persistent database: the directory and
/// the per-table, per-partition WAL segments.
pub(crate) struct Durability {
    dir: PathBuf,
    id_column: String,
    /// Table → store.  The map lock guards membership only (store
    /// creation); appends synchronize on each segment's own mutex, so
    /// distinct partitions never contend.
    stores: RwLock<BTreeMap<String, Arc<TableStore>>>,
    /// Serializes manifest rewrites (last in the lock order).
    manifest: Mutex<()>,
    /// Set on the first append failure; every later durable operation is
    /// refused.  In-memory state was already mutated when the failed
    /// append was attempted, so continuing to commit *later* changes
    /// would write a log that replays against a catalog the disk never
    /// saw — fail-stop keeps the divergence to the one lost change,
    /// which recovery treats as "that query never returned".
    failed: AtomicBool,
}

impl Durability {
    fn new(dir: &Path, id_column: &str, stores: BTreeMap<String, Arc<TableStore>>) -> Durability {
        Durability {
            dir: dir.to_path_buf(),
            id_column: id_column.to_string(),
            stores: RwLock::new(stores),
            manifest: Mutex::new(()),
            failed: AtomicBool::new(false),
        }
    }

    fn check_not_failed(&self) -> Result<()> {
        if self.failed.load(Ordering::SeqCst) {
            return Err(CrowdDbError::Storage(
                "a previous WAL append failed; the storage engine is fail-stopped — reopen \
                 the database to recover to the last durable state"
                    .into(),
            ));
        }
        Ok(())
    }

    fn fail_stop<T>(&self, result: std::result::Result<T, StorageError>) -> Result<T> {
        if result.is_err() {
            self.failed.store(true, Ordering::SeqCst);
        }
        result.map_err(CrowdDbError::from)
    }

    /// Looks up (or creates, with the given spec, as the table is
    /// created) the store for `table`.  An existing store's
    /// spec is authoritative: a table cannot be re-partitioned in place,
    /// so a mismatched request is refused.
    pub(crate) fn ensure_store(
        &self,
        table: &str,
        spec: &PartitionSpec,
    ) -> Result<Arc<TableStore>> {
        let key = table.to_lowercase();
        let check = |store: &Arc<TableStore>| -> Result<Arc<TableStore>> {
            if store.spec != *spec {
                return Err(CrowdDbError::Configuration(format!(
                    "table '{key}' already has partitioning {:?}; it cannot be reopened \
                     with {spec:?}",
                    store.spec
                )));
            }
            Ok(Arc::clone(store))
        };
        if let Some(store) = rlock(&self.stores).get(&key) {
            return check(store);
        }
        let mut stores = wlock(&self.stores);
        if let Some(store) = stores.get(&key) {
            return check(store);
        }
        // First record for this table: open fresh segments.  The manifest
        // is *not* rewritten here — recovery unions in orphan segments, so
        // the new table is durable the moment its segments' first groups
        // fsync, and the manifest catches up at the next checkpoint.
        std::fs::create_dir_all(wal_dir(&self.dir)).map_err(StorageError::from)?;
        let mut parts = Vec::with_capacity(spec.partition_count());
        for k in 0..spec.partition_count() {
            let opened = Wal::open(segment_path(&self.dir, &key, k));
            let (mut wal, _) = self.fail_stop(opened)?;
            if wal.record_count() == 0 {
                let meta = wal.append(&meta_record(&self.id_column, spec, k));
                self.fail_stop(meta)?;
            }
            parts.push(Segment::of_wal(wal, false));
        }
        let store = Arc::new(TableStore {
            spec: spec.clone(),
            parts,
        });
        stores.insert(key, Arc::clone(&store));
        Ok(store)
    }

    /// The store of `table`: created with the table by
    /// [`Durability::ensure_store`], or recovered with it.  A table without
    /// one does not exist, and nothing creates its files here.
    fn store(&self, table: &str) -> Result<Arc<TableStore>> {
        (rlock(&self.stores).get(&table.to_lowercase()).cloned())
            .ok_or_else(|| RelationalError::UnknownTable(table.to_string()).into())
    }

    /// Appends `records` to partition `k` of `table`'s store as one
    /// fsynced group — the commit point.
    pub(crate) fn log(&self, table: &str, k: usize, records: &[WalRecord]) -> Result<()> {
        self.check_not_failed()?;
        let store = self.store(table)?;
        let segment = store.parts.get(k).ok_or_else(|| {
            CrowdDbError::Storage(format!(
                "table '{table}' has {} partitions; partition {k} does not exist",
                store.parts.len()
            ))
        })?;
        let wal = &mut *mlock(&segment.wal);
        let result = wal.append_all(records);
        segment.dirty.store(true, Ordering::SeqCst);
        self.fail_stop(result)
    }

    /// Appends each partition's slice of `records` (see
    /// [`storage::slice_records`]) to that partition of `table`'s store as
    /// one fsynced group; a partition whose slice is empty is not touched.
    pub(crate) fn log_all(&self, table: &str, records: Vec<WalRecord>) -> Result<()> {
        let store = self.store(table)?;
        for (k, records) in slice_records(&store.spec, records).into_iter().enumerate() {
            if !records.is_empty() {
                self.log(table, k, &records)?;
            }
        }
        Ok(())
    }

    /// Writes the captured image as the new snapshot of partition `k` of
    /// `table`, then truncates that partition's segment under a fresh
    /// generation.  Returns the segment bytes reclaimed by the truncation.
    /// Sibling partitions' files are never opened, written, or touched.
    ///
    /// `capture` runs while the segment mutex is held — no record can slip
    /// into the old segment after the state it describes was captured —
    /// and receives the segment's current `(generation, record count)`,
    /// which the image must carry: recovery only skips the
    /// already-snapshotted prefix when the on-disk segment still has that
    /// generation, so a crash *between* the snapshot rename and the reset
    /// (new snapshot + complete old segment) replays nothing twice.  The
    /// caller must already hold the partition's shared lock (see the
    /// module docs for the two-invariant argument).
    pub(crate) fn checkpoint_partition(
        &self,
        table: &str,
        k: usize,
        capture: impl FnOnce(u64, u64) -> SnapshotImage,
    ) -> Result<u64> {
        self.check_not_failed()?;
        let store = self.store(table)?;
        let segment = store.parts.get(k).ok_or_else(|| {
            CrowdDbError::Storage(format!(
                "table '{table}' has {} partitions; partition {k} does not exist",
                store.parts.len()
            ))
        })?;
        let mut wal = mlock(&segment.wal);
        let bytes_before = std::fs::metadata(wal.path()).map(|m| m.len()).unwrap_or(0);
        // Clear the flag *before* capturing: an append racing in after the
        // capture re-dirties the partition so the next checkpoint picks it
        // up.
        segment.dirty.store(false, Ordering::SeqCst);
        let image = capture(wal.generation(), wal.record_count());
        std::fs::create_dir_all(snap_dir(&self.dir)).map_err(StorageError::from)?;
        let snap_path = snapshot_path(&self.dir, &table.to_lowercase(), k);
        // A failed snapshot write leaves the old snapshot + untouched
        // segment — fully consistent, no fail-stop needed, but the
        // partition is still dirty.  A failed reset or meta append leaves
        // the segment in an unknown shape: fail-stop.
        if let Err(e) = write_snapshot_file(&snap_path, &image) {
            segment.dirty.store(true, Ordering::SeqCst);
            return Err(e.into());
        }
        let reset = wal.reset();
        self.fail_stop(reset)?;
        // Every segment starts with its meta record (the reset emptied it).
        let meta = wal.append(&meta_record(&self.id_column, &store.spec, k));
        self.fail_stop(meta)?;
        let bytes_after = std::fs::metadata(wal.path()).map(|m| m.len()).unwrap_or(0);
        Ok(bytes_before.saturating_sub(bytes_after))
    }

    /// Rewrites the manifest from the live store set and the given global
    /// counters.  Called after recovery and after each checkpoint — the
    /// manifest is checkpoint-granular by design (segment and snapshot
    /// file names follow from each table's name and spec, so a stale
    /// manifest never points at missing data; orphan segments are unioned
    /// in on recovery).
    pub(crate) fn write_manifest_state(&self, stats: CacheStats, crowd_rounds: u64) -> Result<()> {
        self.check_not_failed()?;
        let tables = (rlock(&self.stores).iter())
            .map(|(table, store)| (table.clone(), store.spec.clone()))
            .collect();
        let _guard = mlock(&self.manifest);
        write_manifest(
            &self.dir,
            &Manifest {
                id_column: self.id_column.clone(),
                cache_hits: stats.hits,
                cache_misses: stats.misses,
                cache_cost_saved: stats.cost_saved,
                crowd_rounds,
                tables,
            },
        )
        .map_err(CrowdDbError::from)
    }

    /// True when partition `k` of `table` has unsnapshotted records (a
    /// partial checkpoint must include it; a table with no store yet has
    /// nothing durable to compact).
    pub(crate) fn is_dirty_partition(&self, table: &str, k: usize) -> bool {
        rlock(&self.stores)
            .get(&table.to_lowercase())
            .and_then(|s| s.parts.get(k).map(|p| p.dirty.load(Ordering::SeqCst)))
            .unwrap_or(false)
    }

    /// Per-table, per-partition on-disk sizes and dirty flags, sorted by
    /// table name (partitions in `k` order).  The raw material of
    /// [`CrowdDb::storage_stats`](crate::CrowdDb::storage_stats).
    pub(crate) fn storage_stats(&self) -> Vec<(String, PartitionSpec, Vec<PartitionDisk>)> {
        let mut stores: Vec<(String, Arc<TableStore>)> = rlock(&self.stores)
            .iter()
            .map(|(t, s)| (t.clone(), Arc::clone(s)))
            .collect();
        stores.sort_by(|a, b| a.0.cmp(&b.0));
        stores
            .into_iter()
            .map(|(table, store)| {
                let parts = store
                    .parts
                    .iter()
                    .enumerate()
                    .map(|(k, segment)| {
                        let wal = mlock(&segment.wal);
                        let wal_bytes = std::fs::metadata(wal.path()).map(|m| m.len()).unwrap_or(0);
                        let snapshot_bytes = std::fs::metadata(snapshot_path(&self.dir, &table, k))
                            .map(|m| m.len())
                            .unwrap_or(0);
                        PartitionDisk {
                            wal_bytes,
                            snapshot_bytes,
                            dirty: segment.dirty.load(Ordering::SeqCst),
                        }
                    })
                    .collect();
                (table.clone(), store.spec.clone(), parts)
            })
            .collect()
    }
}

/// The in-memory state recovered from a database directory, ready to be
/// moved into a `DbInner`.
#[derive(Default)]
pub(crate) struct RecoveredState {
    /// Every recovered table: its spec and its replayed slices in `k`
    /// order under one schema, moved by `assemble` into its partitions.
    pub(crate) tables: BTreeMap<String, (PartitionSpec, Vec<Table>)>,
    pub(crate) cache: JudgmentCache,
    pub(crate) crowd_rounds: u64,
}

/// Opens (creating if needed) the database directory and returns the
/// recovered state plus the engine positioned for appending.
///
/// A directory with a manifest recovers segment-by-segment (replayed on up
/// to `parallelism` workers, fanning out across tables *and* across one
/// table's partitions); an empty directory starts fresh with an empty
/// manifest.  A directory of any other on-disk format version fails
/// before a file is written (see [`storage::manifest`]).
pub(crate) fn recover(
    dir: &Path,
    id_column: &str,
    parallelism: usize,
) -> Result<(RecoveredState, Durability)> {
    std::fs::create_dir_all(dir).map_err(|e| {
        CrowdDbError::Storage(format!(
            "cannot create database directory {}: {e}",
            dir.display()
        ))
    })?;
    match read_manifest(dir)? {
        Some(manifest) => recover_segmented(dir, id_column, parallelism, manifest),
        None => {
            let durability = Durability::new(dir, id_column, BTreeMap::new());
            durability.write_manifest_state(CacheStats::default(), 0)?;
            Ok((RecoveredState::default(), durability))
        }
    }
}

/// One replay unit: one partition of one table.
struct ReplayJob {
    table: String,
    partition: usize,
    /// The spec the manifest records for the table, when it does; orphan
    /// partitions learn theirs from the segment's leading
    /// [`WalRecord::MetaPartition`] record.
    spec: Option<PartitionSpec>,
}

/// The state one segment replays into: its slice of the table in a
/// one-table catalog (logged SQL re-executes against it), its share of
/// the judgment cache, and its crowd-round counter.
#[derive(Default)]
struct PartState {
    catalog: Catalog,
    cache: JudgmentCache,
    crowd_rounds: u64,
}

/// One replay unit's result: its recovered partition plus its open
/// segment.
struct PartRecovered {
    table: String,
    partition: usize,
    state: PartState,
    wal: Wal,
    /// True when the segment held records beyond the snapshotted prefix —
    /// the partition must not be skipped by the next partial checkpoint.
    dirty: bool,
    /// The spec this partition replayed under (from the job or observed in
    /// the segment's meta record).
    spec: Option<PartitionSpec>,
}

/// Recovers a segmented directory: replays every live segment (manifest
/// entries ∪ orphan segments on disk) and merges the results in sorted
/// table order — and, within a table, in fixed partition order — so the
/// outcome is bit-identical however many workers replayed them.
fn recover_segmented(
    dir: &Path,
    id_column: &str,
    parallelism: usize,
    manifest: Manifest,
) -> Result<(RecoveredState, Durability)> {
    if !manifest.id_column.is_empty() && manifest.id_column != id_column {
        return Err(CrowdDbError::Storage(format!(
            "database directory {} was written with id_column '{}' but is being \
             opened with id_column '{id_column}' — item-keyed records would be \
             misrouted; open with the original configuration",
            dir.display(),
            manifest.id_column
        )));
    }
    // The manifest is authoritative for checkpointed tables, but a table
    // created after the last checkpoint exists only as segment files:
    // union both sources so no committed record is orphaned.
    let mut jobs: Vec<ReplayJob> = Vec::new();
    let mut known: HashSet<(String, usize)> = HashSet::new();
    for (table, spec) in &manifest.tables {
        for partition in 0..spec.partition_count() {
            known.insert((table.clone(), partition));
            jobs.push(ReplayJob {
                table: table.clone(),
                partition,
                spec: Some(spec.clone()),
            });
        }
    }
    for (table, partition) in scan_segments(dir)? {
        if known.insert((table.clone(), partition)) {
            jobs.push(ReplayJob {
                table,
                partition,
                spec: None,
            });
        }
    }
    jobs.sort_unstable_by(|a, b| (&a.table, a.partition).cmp(&(&b.table, b.partition)));
    std::fs::create_dir_all(wal_dir(dir)).map_err(StorageError::from)?;

    let results = replay_jobs(dir, id_column, parallelism, jobs)?;

    let mut state = RecoveredState {
        crowd_rounds: manifest.crowd_rounds,
        ..RecoveredState::default()
    };
    let mut stores = BTreeMap::new();
    // Group the (table, partition)-sorted results by table and merge each
    // table's group in partition order.
    let mut results = results.into_iter().peekable();
    while let Some(first) = results.next() {
        let table = first.table.clone();
        let mut parts = vec![first];
        while results.peek().is_some_and(|r| r.table == table) {
            parts.push(results.next().expect("peeked"));
        }
        if let Some(store) = merge_table_parts(dir, id_column, &table, parts, &mut state)? {
            stores.insert(table, Arc::new(store));
        }
    }
    // Global counters are checkpoint-granular and live in the manifest.
    state.cache.set_stats(CacheStats {
        hits: manifest.cache_hits,
        misses: manifest.cache_misses,
        cost_saved: manifest.cache_cost_saved,
        entries: 0,
    });
    let durability = Durability::new(dir, id_column, stores);
    // Fold any orphan segments into the manifest now that they replayed.
    durability.write_manifest_state(state.cache.stats(), state.crowd_rounds)?;
    Ok((state, durability))
}

/// Merges one table's replayed parts (sorted by partition) into `state`
/// and returns the table's open store.  Returns `None` — after deleting
/// the table's files — when the partition-0 segment lacks the table:
/// creation commits on partition 0 (it is logged last), so such a table
/// was half-created when a crash hit and must not resurrect.
fn merge_table_parts(
    dir: &Path,
    id_column: &str,
    table: &str,
    parts: Vec<PartRecovered>,
    state: &mut RecoveredState,
) -> Result<Option<TableStore>> {
    let exists = (parts.iter().find(|p| p.partition == 0))
        .is_some_and(|p| p.state.catalog.table(table).is_ok());
    if !exists {
        // Drop the stray files so a later CREATE of the same name starts
        // clean.
        for part in parts {
            drop(part.wal);
            let _ = std::fs::remove_file(segment_path(dir, table, part.partition));
            let _ = std::fs::remove_file(snapshot_path(dir, table, part.partition));
        }
        return Ok(None);
    }
    let spec = match parts.iter().find_map(|p| p.spec.clone()) {
        Some(spec) => spec,
        // The table came from partition 0's snapshot and a checkpoint
        // crashed before re-stamping the reset segment.  Every partition's
        // segment is created before the table commits, so a table whose
        // only file is partition 0 has one partition.
        None if parts.len() == 1 => PartitionSpec::Single,
        None => {
            return Err(CrowdDbError::Storage(format!(
                "table '{table}' in {} has {} segments and none records its \
                 partitioning — the directory is corrupt",
                dir.display(),
                parts.len()
            )))
        }
    };
    let n = spec.partition_count();
    let mut by_k: BTreeMap<usize, PartRecovered> = parts
        .into_iter()
        .filter(|p| p.partition < n)
        .map(|p| (p.partition, p))
        .collect();
    let mut segments: Vec<Arc<Segment>> = Vec::with_capacity(n);
    let mut slices: Vec<Option<Table>> = Vec::with_capacity(n);
    for k in 0..n {
        let (slice, mut wal, dirty) = match by_k.remove(&k) {
            Some(mut part) => {
                let (groups, _) = part.state.cache.export();
                state.cache.absorb(groups);
                state.crowd_rounds = state.crowd_rounds.max(part.state.crowd_rounds);
                let slice = part.state.catalog.drop_table(table).ok();
                (slice, part.wal, part.dirty)
            }
            // A partition whose file never landed on disk (possible only
            // for an orphan table torn mid-creation, with the table itself
            // already committed on partition 0): open the segment empty.
            None => (None, Wal::open(segment_path(dir, table, k))?.0, false),
        };
        slices.push(slice);
        if wal.record_count() == 0 {
            // A brand-new (or torn-header-recreated, necessarily empty)
            // segment: stamp the configuration its replayer depends on.
            wal.append(&meta_record(id_column, &spec, k))?;
        }
        segments.push(Segment::of_wal(wal, dirty));
    }
    let slices = align_slices(slices)?;
    let name = slices[0].name().to_string();
    state.tables.insert(name, (spec.clone(), slices));
    Ok(Some(TableStore {
        spec,
        parts: segments,
    }))
}

/// Brings a table's replayed slices (in `k` order; `None` where a
/// partition never saw the table) to one schema, moving every slice that
/// already has it.  A crash that tore a schema change's fan-out
/// leaves the later partitions without the new column: such a slice gains
/// the columns it lacks, `NULL`-filled (tagged as an insert tags them), in
/// the order [`merge_partition_tables`] merges them.
fn align_slices(slices: Vec<Option<Table>>) -> Result<Vec<Table>> {
    // No rows: the merged schema, tracking every column some slice tracks.
    let mut union: Option<Table> = None;
    for slice in slices.iter().flatten() {
        let mut shape = Table::new(slice.name(), slice.schema().clone());
        for (at, column) in slice.schema().columns().iter().enumerate() {
            if slice.tags(at).is_some() {
                shape.track_provenance(&column.name)?;
            }
        }
        union = Some(match union {
            None => shape,
            Some(acc) => merge_partition_tables(acc, &shape)?,
        });
    }
    let union = union.expect("partition 0 carries the table");
    let align = |slice: Option<Table>| match slice {
        Some(slice) if slice.schema() == union.schema() => Ok(slice),
        slice => {
            let mut aligned = union.clone();
            slice.map_or(Ok(()), |slice| aligned.append(&slice))?;
            Ok(aligned)
        }
    };
    slices.into_iter().map(align).collect()
}

/// Appends `part`'s rows and columns onto `acc`: rows concatenate in
/// partition order, provenance tags included; columns `acc` has never
/// seen (possible only when a crash tore a schema-changing record's
/// fan-out mid-way) are appended in `part`'s order and `NULL`-filled for
/// the rows that predate them.
pub(crate) fn merge_partition_tables(mut acc: Table, part: &Table) -> Result<Table> {
    for column in part.schema().columns() {
        if acc.schema().index_of(&column.name).is_none() {
            let mut column = column.clone();
            // The rows already in `acc` get NULL in the new position, so
            // the unioned column must admit it.
            column.nullable = true;
            acc.add_column(column, None)?;
        }
    }
    acc.append(part)?;
    Ok(acc)
}

/// Splits `table` into `spec.partition_count()` per-partition
/// tables (same name, same schema, same provenance-tracked columns) by
/// routing each row's id-column value; rows keep their tags.
/// Rows without an id column land in partition 0, matching
/// [`PartitionSpec::route_value`]'s `NULL` fallback.  Creation and the
/// write path route through the same arithmetic, so they can never
/// disagree about a row's home partition.
pub(crate) fn split_table_by_partition(
    table: Table,
    id_column: &str,
    spec: &PartitionSpec,
) -> Vec<Table> {
    let id_index = table.schema().index_of(id_column);
    table.split(spec.partition_count(), |row| {
        id_index
            .map(|i| spec.route_value(&row[i]))
            .unwrap_or_default()
    })
}

/// Where a SQL write goes on a table partitioned by a [`PartitionSpec`]:
/// the one routing decision of the live write path
/// (`DbInner::execute_mutation`) and of `Mutation` replay alike.
pub(crate) struct WriteRoute {
    /// The partitions the write changes and is logged to, ascending.
    pub(crate) targets: Vec<usize>,
    /// For an `INSERT`, the partition of each of its rows.
    rows: Option<Vec<usize>>,
}

impl WriteRoute {
    /// Routes `statement` on a table partitioned by `spec` on
    /// `id_column`.  An `INSERT` row goes to the partition its id-column
    /// value routes to ([`PartitionSpec::route_value`]; a row that gives
    /// the id column no value goes to partition 0), and the `INSERT` to
    /// the partitions its rows go to.  Any other write may match rows
    /// anywhere, so it goes to every partition.
    pub(crate) fn of(
        statement: &sql::Statement,
        spec: &PartitionSpec,
        id_column: Option<&Column>,
    ) -> WriteRoute {
        let sql::Statement::Insert { columns, rows, .. } = statement else {
            return WriteRoute {
                targets: (0..spec.partition_count()).collect(),
                rows: None,
            };
        };
        let id = (columns.iter()).position(|c| id_column.is_some_and(|id| id.is_named(c)));
        let rows: Vec<usize> = (rows.iter())
            .map(|row| spec.route_value(id.and_then(|i| row.get(i)).unwrap_or(&Value::Null)))
            .collect();
        let targets = (0..spec.partition_count()).filter(|k| rows.contains(k));
        WriteRoute {
            targets: targets.collect(),
            rows: Some(rows),
        }
    }

    /// Checks the write's share of partition `k` against that
    /// partition's slice (see [`executor::prepare`]): every row of an
    /// `INSERT` routed to `k`, or the whole of any other write.
    pub(crate) fn prepare(
        &self,
        statement: &sql::Statement,
        k: usize,
        slice: &Table,
    ) -> Result<Prepared> {
        let rows = self.rows.as_deref();
        Ok(executor::prepare(statement, slice, |row| {
            rows.is_none_or(|rows| rows[row] == k)
        })?)
    }
}

/// Replays `jobs` — inline when `parallelism <= 1`, otherwise on a worker
/// pool — and returns the results sorted by `(table, partition)`.  Replay
/// order cannot matter: segments share no state, and the caller merges in
/// sorted order regardless of completion order.
fn replay_jobs(
    dir: &Path,
    id_column: &str,
    parallelism: usize,
    jobs: Vec<ReplayJob>,
) -> Result<Vec<PartRecovered>> {
    if parallelism <= 1 || jobs.len() <= 1 {
        return jobs
            .into_iter()
            .map(|job| replay_one(dir, id_column, job))
            .collect();
    }
    let pool = Scheduler::new(parallelism.min(jobs.len()));
    let (tx, rx) = mpsc::channel();
    for job in jobs {
        let tx = tx.clone();
        let dir = dir.to_path_buf();
        let id_column = id_column.to_string();
        pool.spawn(move || {
            let result = replay_one(&dir, &id_column, job);
            let _ = tx.send(result);
        });
    }
    drop(tx);
    let mut results: Vec<PartRecovered> = rx.iter().collect::<Result<_>>()?;
    results.sort_unstable_by(|a, b| (&a.table, a.partition).cmp(&(&b.table, b.partition)));
    Ok(results)
}

/// Replays one job: its snapshot (if any), then its segment on top,
/// skipping the already-snapshotted prefix when the generation stamps
/// still match (the same discipline the monolithic layout used, now per
/// partition).
fn replay_one(dir: &Path, id_column: &str, job: ReplayJob) -> Result<PartRecovered> {
    let ReplayJob {
        table,
        partition,
        spec,
    } = job;
    let snapshot = read_snapshot_file(&snapshot_path(dir, &table, partition))?;
    let (mut state, wal_stamp) = match snapshot {
        Some(image) => {
            if !image.id_column.is_empty() && image.id_column != id_column {
                return Err(CrowdDbError::Storage(format!(
                    "table '{table}' in {} was written with id_column '{}' but is being \
                     opened with id_column '{id_column}' — item-keyed records would be \
                     misrouted; open with the original configuration",
                    dir.display(),
                    image.id_column
                )));
            }
            let stamp = (image.wal_generation, image.wal_records_applied);
            (state_of_snapshot(image)?, Some(stamp))
        }
        None => (PartState::default(), None),
    };
    let (wal, records) = Wal::open(segment_path(dir, &table, partition))?;
    // Records the snapshot already folded in are skipped — but only while
    // the segment still carries the generation the snapshot stamped.  A
    // segment that was reset since (or never matched) replays in full.
    let skip = match wal_stamp {
        Some((generation, applied)) if generation == wal.generation() => {
            (applied as usize).min(records.len())
        }
        _ => 0,
    };
    // A segment's first record is always its meta record (written at
    // creation and re-written after every reset), so the replay context
    // survives even when the snapshot skip covers it — peek at it before
    // applying the unskipped suffix.
    let mut ctx = ReplayCtx {
        id_column,
        dir,
        partition,
        spec,
    };
    if let Some(WalRecord::MetaPartition {
        id_column,
        partition,
        spec,
    }) = records.first()
    {
        ctx.adopt_meta(id_column, *partition, spec.clone())?;
    }
    let mut dirty = false;
    for record in records.into_iter().skip(skip) {
        dirty |= !matches!(record, WalRecord::MetaPartition { .. });
        apply(record, &mut state, &mut ctx)?;
    }
    let spec = ctx.spec;
    Ok(PartRecovered {
        table,
        partition,
        state,
        wal,
        dirty,
        spec,
    })
}

/// The context one segment replays under: the partition whose share of
/// each record the segment holds.
struct ReplayCtx<'a> {
    id_column: &'a str,
    dir: &'a Path,
    /// The partition the segment holds, from its file name.
    partition: usize,
    /// The table's spec, once the manifest or the segment's meta record
    /// has named it: a `Mutation` is routed on it ([`WriteRoute`]).
    spec: Option<PartitionSpec>,
}

impl ReplayCtx<'_> {
    /// Takes the spec of the segment's meta record after checking that the
    /// record was written under this id column and for this partition.
    fn adopt_meta(&mut self, recorded: &str, partition: u32, spec: PartitionSpec) -> Result<()> {
        if recorded != self.id_column {
            return Err(CrowdDbError::Storage(format!(
                "database directory {} was written with id_column '{recorded}' but is \
                 being opened with id_column '{}' — item-keyed records would \
                 be misrouted; open with the original configuration",
                self.dir.display(),
                self.id_column
            )));
        }
        if partition as usize != self.partition {
            return Err(CrowdDbError::Storage(format!(
                "partition segment {} carries a meta record for partition \
                 {partition} — the directory is corrupt",
                self.partition
            )));
        }
        self.spec = Some(spec);
        Ok(())
    }
}

/// Replays one WAL record onto the recovered partition.
fn apply(record: WalRecord, state: &mut PartState, ctx: &mut ReplayCtx<'_>) -> Result<()> {
    match record {
        WalRecord::MetaPartition {
            id_column: recorded,
            partition,
            spec,
        } => ctx.adopt_meta(&recorded, partition, spec)?,
        WalRecord::CreateTable(image) => {
            // Idempotent: a record that raced a checkpoint may already be
            // covered by the snapshot.
            if state.catalog.table(&image.name).is_err() {
                state.catalog.create_table(image.into_table()?)?;
            }
        }
        WalRecord::Mutation { sql: text } => {
            // The statement was logged to every partition it routed to;
            // this partition takes its own share, as the live write did.
            let statement = sql::parse(&text)?;
            let table = (state.catalog).table_mut(statement.target_table().unwrap_or_default())?;
            let spec = ctx.spec.as_ref().unwrap_or(&PartitionSpec::Single);
            let route = WriteRoute::of(&statement, spec, table.schema().column(ctx.id_column));
            if route.targets.contains(&ctx.partition) {
                route
                    .prepare(&statement, ctx.partition, table)?
                    .apply(table);
            }
        }
        WalRecord::MaterializeColumn {
            table,
            column,
            data_type,
            values,
            ledger,
        } => {
            let marked = ledger.iter().map(|&(item, _)| item);
            let mut index = ItemIndex::new(marked.chain(values.iter().map(|&(item, _)| item)));
            let values = index.align(values, Value::Null);
            let marks = index.align(ledger, MissingReason::NotExpanded.into());
            let routes = index.route(state.catalog.table(&table)?, ctx.id_column, &table)?;
            materialize_column(
                state.catalog.table_mut(&table)?,
                &column,
                data_type,
                &values,
                &marks,
                &routes,
            )?;
        }
        WalRecord::SetCells {
            table,
            column,
            values,
        } => {
            let mut index = ItemIndex::new(values.iter().map(|&(item, _)| item));
            let values = index.align(values, Value::Null);
            let routes = index.route(state.catalog.table(&table)?, ctx.id_column, &table)?;
            let mut written = vec![false; values.len()];
            repair_cells(
                state.catalog.table_mut(&table)?,
                &column,
                &values,
                &routes,
                &mut written,
            )?;
        }
        WalRecord::CachePut {
            table,
            attribute,
            entries,
            rounds,
        } => {
            state.cache.absorb(vec![(table, attribute, entries)]);
            state.crowd_rounds = state.crowd_rounds.max(rounds);
        }
        WalRecord::CacheInvalidate { table, attribute } => {
            state.cache.invalidate(&table, &attribute);
        }
    }
    Ok(())
}

/// Rebuilds the state a snapshot image captured: the table, every cell
/// with the tag it was written with, and the table's judgment-cache
/// entries (the effectiveness counters are the manifest's).
fn state_of_snapshot(image: SnapshotImage) -> Result<PartState> {
    let mut catalog = Catalog::new();
    catalog.create_table(image.table.into_table()?)?;
    Ok(PartState {
        catalog,
        cache: JudgmentCache::restore(image.cache, CacheStats::default()),
        crowd_rounds: image.crowd_rounds,
    })
}

/// Borrowed views of the live state a per-partition checkpoint captures
/// (the caller holds the partition's shared lock; the judgment cache is
/// read through its own synchronization and filtered down to the
/// partition's slice).
pub(crate) struct TableSnapshotParts<'a> {
    /// The partition's catalog slice.
    pub(crate) table: &'a relational::Table,
    pub(crate) cache: &'a JudgmentCache,
    pub(crate) crowd_rounds: u64,
    pub(crate) id_column: &'a str,
    /// `(spec, k)` of the partition snapshotted: cache entries are
    /// filtered to the items that route to `k`, matching the rows the
    /// `table` slice holds.
    pub(crate) partition: (&'a PartitionSpec, usize),
}

/// Captures one partition's state as a snapshot image, stamped with the
/// segment position it supersedes (see
/// [`Durability::checkpoint_partition`]): the slice with the tag of every
/// cell of its tracked columns, and its share of the judgment cache.
pub(crate) fn table_snapshot_image(
    parts: TableSnapshotParts<'_>,
    wal_generation: u64,
    wal_records_applied: u64,
) -> SnapshotImage {
    let TableSnapshotParts {
        table,
        cache,
        crowd_rounds,
        id_column,
        partition,
    } = parts;
    let (spec, k) = partition;
    let cache = (cache.export_table(table.name()).into_iter())
        .map(|(table, attribute, mut entries)| {
            entries.retain(|(item, _)| spec.route_item(*item) == k);
            (table, attribute, entries)
        })
        .collect();
    SnapshotImage {
        table: TableImage::of(table),
        cache,
        crowd_rounds,
        id_column: id_column.to_string(),
        wal_generation,
        wal_records_applied,
    }
}

/// Builds the WAL record of one judgment-cache write batch, sorted for a
/// deterministic log.
pub(crate) fn cache_put_record(
    table: &str,
    attribute: &str,
    entries: impl IntoIterator<Item = (ItemId, CachedJudgment)>,
    rounds: u64,
) -> WalRecord {
    let mut entries: Vec<(ItemId, CachedJudgment)> = entries.into_iter().collect();
    entries.sort_unstable_by_key(|(item, _)| *item);
    WalRecord::CachePut {
        table: table.to_lowercase(),
        attribute: attribute.to_lowercase(),
        entries,
        rounds,
    }
}
