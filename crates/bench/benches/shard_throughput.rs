//! Criterion bench: aggregate throughput of the sharded engine on a
//! four-table read/write/checkpoint mix, plus recovery timings.
//!
//! Four threads each own one of four tables.  Two tables are **hot**:
//! their owner threads loop committing fsynced inserts and take a
//! checkpoint every [`CHECKPOINT_EVERY`] commits.  Two tables are
//! **archives**: seeded with [`ARCHIVE_ROWS`] rows up front, checkpointed
//! once, then never written again — their owner threads scan them and
//! occasionally commit a row to the paired hot table (so all four threads
//! are writers).  This is the shape sharding targets: independent tables
//! making independent progress, with most data cold.
//!
//! The **sharded** scenario runs the engine as shipped: per-table locks,
//! per-table WAL segments, and incremental [`CrowdDb::checkpoint`] calls
//! that skip the clean archives.  The **pre-shard** scenario replays the
//! exact same statements through the engine's previous regime — one
//! catalog-wide `RwLock` (exclusive across every mutation-plus-fsync,
//! shared for reads and checkpoints) emulated by a bench-level global
//! lock, and [`CrowdDb::checkpoint_full`], which re-snapshots every table
//! the way the single-snapshot engine had to.  The speedup therefore
//! combines the two shipped wins: commits on one table no longer stall
//! the other tables, and checkpoints no longer re-serialize cold data.
//!
//! A second scenario exercises partitioning *within* one table: a single
//! giant table of [`GIANT_ROWS`] preloaded rows, hash-partitioned
//! [`PARTITIONS`] ways, with four threads committing single-row inserts
//! whose ids route each writer to its own partition.  The baseline is the
//! identical workload against the same table with one partition — where
//! every commit serializes behind the one partition lock held across its
//! fsync.  Partitioned recovery of the same table is also timed serial
//! vs. parallel (the fan-out is *within* the table here, not across
//! tables).
//!
//! Besides the timings, the run emits `BENCH_shard.json` at the workspace
//! root.  The regression-guarded fields are the deterministic ones — rows
//! written, archive sizes, seeded crowd dollars of a four-table concurrent
//! expansion, its missing-cell count, and the `*_partition` counts of the
//! giant-table scenario (including the rows one routed point read scans);
//! the wall-clock fields (`*_ms`, the speedups) are recorded for the
//! acceptance trail but deliberately not guarded.
//!
//! Run with `cargo bench -p bench --bench shard_throughput`; pass
//! `-- --test` for the CI smoke mode (same JSON, criterion timing loop
//! skipped).

use std::path::PathBuf;
use std::sync::RwLock;
use std::time::{Duration, Instant};

use criterion::Criterion;
use crowddb_core::{
    build_space_for_domain, CheckpointOptions, CrowdDb, CrowdDbConfig, ExpansionStrategy,
    PartitionSpec, SimulatedCrowd, TableOptions,
};
use crowdsim::ExperimentRegime;
use datagen::{DomainConfig, SyntheticDomain};
use relational::{Column, DataType, Schema, Table, Value};

const THREADS: usize = 4;
const TABLES: usize = 4;
/// Of the four tables, the first two are hot (written throughout); the
/// other two are archives (seeded once, then read-mostly).
const HOT_TABLES: usize = 2;
/// Rows seeded into each archive table before timing starts.
const ARCHIVE_ROWS: usize = 2000;
/// Payload width of an archive row's `body` column.
const ARCHIVE_BODY_BYTES: usize = 200;
/// Committed (fsynced) inserts each hot-table writer performs.
const HOT_ROWS_PER_WRITER: usize = 100;
/// A writer takes a checkpoint after this many of its own commits.
const CHECKPOINT_EVERY: usize = 20;
/// Full-table scans each archive reader performs.
const READER_SCANS: usize = 30;
/// Rows each archive reader commits to its paired hot table, spread
/// across its scans — so all four threads are writers.
const READER_INSERTS: usize = 10;

/// Total committed rows across all four threads (a guarded JSON field).
const ROWS_WRITTEN: usize = HOT_TABLES * HOT_ROWS_PER_WRITER + HOT_TABLES * READER_INSERTS;

/// Rows preloaded into the single giant table before its timed phase.
const GIANT_ROWS: usize = 8192;
/// Hash partitions of the partitioned giant-table scenario (the baseline
/// runs the identical table with one partition).
const PARTITIONS: usize = 4;
/// Committed single-row inserts each of the four giant-table writers
/// performs.
const PARTITION_ROWS_PER_WRITER: usize = 50;
/// Each giant-table writer compacts its own partition after this many
/// commits (`CheckpointScope::Partition`) — the partial-checkpoint load
/// the partitioned layout parallelizes and the one-partition baseline
/// serializes at full-table cost.
const PARTITION_CHECKPOINT_EVERY: usize = 10;
/// Total committed rows of the giant-table workload (a guarded field).
const PARTITION_ROWS_WRITTEN: usize = THREADS * PARTITION_ROWS_PER_WRITER;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("crowddb-bench-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Seeds one archive table with `ARCHIVE_ROWS` wide rows using multi-row
/// inserts (a handful of group commits, not one fsync per row).
fn seed_archive(db: &CrowdDb, table: &str) {
    db.execute(&format!(
        "CREATE TABLE {table} (item_id INTEGER, body TEXT)"
    ))
    .unwrap();
    let filler = "x".repeat(ARCHIVE_BODY_BYTES);
    const CHUNK: usize = 250;
    for chunk in 0..ARCHIVE_ROWS / CHUNK {
        let values: Vec<String> = (0..CHUNK)
            .map(|row| format!("({}, '{filler}')", chunk * CHUNK + row))
            .collect();
        db.execute(&format!(
            "INSERT INTO {table} (item_id, body) VALUES {}",
            values.join(", ")
        ))
        .unwrap();
    }
}

/// Runs the four-table workload and returns the wall-clock of the timed
/// phase.  `pre_shard_lock` replays the engine's previous locking regime
/// on the identical statements: `Some` wraps every committed insert in a
/// global exclusive lock (held, like the old catalog lock, across the WAL
/// fsync), every read and checkpoint in a global shared lock, and makes
/// checkpoints full-catalog rewrites ([`CrowdDb::checkpoint_full`]), as
/// the single-snapshot engine's were; `None` lets the sharded engine's
/// own per-table locks and incremental checkpoints govern.
fn timed_workload(pre_shard_lock: Option<&RwLock<()>>, tag: &str) -> Duration {
    let dir = scratch_dir(tag);
    let db = CrowdDb::open(&dir).unwrap();
    for table in 0..HOT_TABLES {
        db.execute(&format!(
            "CREATE TABLE hot_{table} (item_id INTEGER, body TEXT)"
        ))
        .unwrap();
        seed_archive(&db, &format!("archive_{table}"));
    }
    // Establish baseline snapshots so the archives start clean.
    db.checkpoint().unwrap();
    let db_ref = &db;
    let checkpoint = || {
        // The old engine held the catalog lock *shared* across its
        // full-catalog snapshot (readers kept running, writers stalled).
        let _shared = pre_shard_lock.map(|l| l.read().unwrap());
        if pre_shard_lock.is_some() {
            db_ref.checkpoint_full().unwrap();
        } else {
            db_ref.checkpoint().unwrap();
        }
    };
    let started = Instant::now();
    std::thread::scope(|scope| {
        // Hot-table writers: commit, and checkpoint every CHECKPOINT_EVERY.
        for table in 0..HOT_TABLES {
            scope.spawn(move || {
                for row in 0..HOT_ROWS_PER_WRITER {
                    let id = (table * HOT_ROWS_PER_WRITER + row) as u64;
                    {
                        let _exclusive = pre_shard_lock.map(|l| l.write().unwrap());
                        db_ref
                            .execute(&format!(
                                "INSERT INTO hot_{table} (item_id, body) VALUES ({id}, 'w{id}')"
                            ))
                            .unwrap();
                    }
                    if (row + 1) % CHECKPOINT_EVERY == 0 {
                        checkpoint();
                    }
                }
            });
        }
        // Archive readers: scan the archive, occasionally commit a row to
        // the paired hot table.
        for table in 0..HOT_TABLES {
            scope.spawn(move || {
                for scan in 0..READER_SCANS {
                    {
                        let _shared = pre_shard_lock.map(|l| l.read().unwrap());
                        let read = db_ref
                            .execute(&format!(
                                "SELECT item_id, body FROM archive_{table} WHERE item_id >= 0"
                            ))
                            .unwrap();
                        assert_eq!(read.rows.len(), ARCHIVE_ROWS);
                    }
                    if scan % (READER_SCANS / READER_INSERTS) == 0 {
                        let id = (10_000 + table * READER_SCANS + scan) as u64;
                        let _exclusive = pre_shard_lock.map(|l| l.write().unwrap());
                        db_ref
                            .execute(&format!(
                                "INSERT INTO hot_{table} (item_id, body) VALUES ({id}, 'r{id}')"
                            ))
                            .unwrap();
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed();
    let total: usize = (0..HOT_TABLES)
        .map(|table| {
            db.execute(&format!("SELECT item_id FROM hot_{table}"))
                .unwrap()
                .rows
                .len()
        })
        .sum();
    assert_eq!(total, ROWS_WRITTEN);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    elapsed
}

/// Best-of-N wall clock for one scenario, so a single scheduler hiccup
/// does not masquerade as engine behavior.
fn best_of(runs: usize, pre_shard: bool, tag: &str) -> Duration {
    let global = RwLock::new(());
    (0..runs)
        .map(|run| timed_workload(pre_shard.then_some(&global), &format!("{tag}-{run}")))
        .min()
        .unwrap()
}

/// Opens a fresh database holding one `GIANT_ROWS`-row table named
/// `giant`, hash-partitioned `partitions` ways (1 = the single-partition
/// baseline).  When `checkpoint` is set the table is snapshotted so the
/// timed phase starts from clean segments; left unset, the full creation
/// stays in the WAL for the recovery measurement to replay.
fn open_giant(dir: &PathBuf, partitions: usize, checkpoint: bool) -> CrowdDb {
    let db = CrowdDb::open(dir).unwrap();
    let schema = Schema::new(vec![
        Column::not_null("item_id", DataType::Integer),
        Column::new("body", DataType::Text),
    ])
    .unwrap();
    let mut table = Table::new("giant", schema);
    for i in 0..GIANT_ROWS {
        table
            .insert_row(vec![
                Value::Integer(i as i64),
                Value::Text(format!("row {i}")),
            ])
            .unwrap();
    }
    db.create_table_with(
        TableOptions::new("giant", "item_id").partitions(PartitionSpec::Hash { n: partitions }),
        table,
    )
    .unwrap();
    if checkpoint {
        db.checkpoint().unwrap();
    }
    db
}

/// Fresh ids (beyond the preloaded range) bucketed by the partition the
/// `Hash { PARTITIONS }` spec routes them to, `PARTITION_ROWS_PER_WRITER`
/// per bucket — so each writer thread owns exactly one partition of the
/// partitioned layout (and all writers contend on the one partition of
/// the baseline).
fn routed_insert_ids() -> Vec<Vec<i64>> {
    let spec = PartitionSpec::Hash { n: PARTITIONS };
    let mut buckets: Vec<Vec<i64>> = vec![Vec::new(); PARTITIONS];
    let mut next = GIANT_ROWS as i64;
    while buckets.iter().any(|b| b.len() < PARTITION_ROWS_PER_WRITER) {
        let k = spec.route_value(&Value::Integer(next));
        if buckets[k].len() < PARTITION_ROWS_PER_WRITER {
            buckets[k].push(next);
        }
        next += 1;
    }
    buckets
}

/// Four threads committing single-row inserts into the one giant table,
/// each compacting its own slice every [`PARTITION_CHECKPOINT_EVERY`]
/// commits — wall-clock of the commit phase.  With `partitions ==
/// PARTITIONS` each writer locks and fsyncs only its own partition's
/// segment and its checkpoints snapshot a quarter of the rows, in
/// parallel with the other writers; with one partition every commit
/// serializes behind the same lock-plus-fsync and every checkpoint
/// snapshots all [`GIANT_ROWS`] rows while the other three writers stall.
fn timed_giant_workload(partitions: usize, tag: &str) -> Duration {
    let dir = scratch_dir(tag);
    let db = open_giant(&dir, partitions, true);
    let db_ref = &db;
    let buckets = routed_insert_ids();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for (k, bucket) in buckets.iter().enumerate() {
            let own_partition = if partitions == 1 { 0 } else { k };
            scope.spawn(move || {
                for (row, id) in bucket.iter().enumerate() {
                    db_ref
                        .execute(&format!(
                            "INSERT INTO giant (item_id, body) VALUES ({id}, 'w{id}')"
                        ))
                        .unwrap();
                    if (row + 1) % PARTITION_CHECKPOINT_EVERY == 0 {
                        db_ref
                            .checkpoint_with(CheckpointOptions::partition("giant", own_partition))
                            .unwrap();
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed();
    let total = db.execute("SELECT item_id FROM giant").unwrap().rows.len();
    assert_eq!(total, GIANT_ROWS + PARTITION_ROWS_WRITTEN);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    elapsed
}

/// The `crowddb_rows_scanned_total` delta of one routed point read on the
/// giant partitioned table: the routed partition's key index hands the
/// filter only the rows holding the id, so one row, not a partition.
fn point_read_rows_scanned() -> u64 {
    let dir = scratch_dir("point-read");
    let db = open_giant(&dir, PARTITIONS, false);
    let scanned = || {
        db.metrics_snapshot()
            .value("crowddb_rows_scanned_total", &[])
            .expect("the engine registers its scan counter")
    };
    let before = scanned();
    let rows = db
        .execute(&format!(
            "SELECT item_id, body FROM giant WHERE item_id = {}",
            GIANT_ROWS / 2
        ))
        .unwrap()
        .rows;
    assert_eq!(rows.len(), 1);
    let delta = scanned() - before;
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    delta as u64
}

/// Reopen wall-clock of the giant partitioned table with its full
/// creation still in the WAL: recovery fans out across the partitions of
/// this *one* table (serial = 1 worker).
fn measure_partition_recovery(runs: usize) -> (Duration, Duration) {
    let dir = scratch_dir("partition-recovery");
    drop(open_giant(&dir, PARTITIONS, false));
    let reopen = |parallelism: usize| {
        let started = Instant::now();
        let db = CrowdDb::builder()
            .persistent(&dir)
            .recovery_parallelism(parallelism)
            .open()
            .unwrap();
        let elapsed = started.elapsed();
        let stats = db.storage_stats();
        assert_eq!(stats.tables.len(), 1);
        assert_eq!(stats.tables[0].partitions.len(), PARTITIONS);
        elapsed
    };
    let serial = (0..runs).map(|_| reopen(1)).min().unwrap();
    let parallel = (0..runs).map(|_| reopen(PARTITIONS)).min().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    (serial, parallel)
}

/// Reopen wall-clock of a freshly written four-table directory at the
/// given recovery parallelism (serial = 1).
fn measure_recovery(runs: usize) -> (Duration, Duration) {
    let dir = scratch_dir("recovery");
    {
        let db = CrowdDb::open(&dir).unwrap();
        for table in 0..HOT_TABLES {
            db.execute(&format!(
                "CREATE TABLE hot_{table} (item_id INTEGER, body TEXT)"
            ))
            .unwrap();
            seed_archive(&db, &format!("archive_{table}"));
            for row in 0..CHECKPOINT_EVERY {
                db.execute(&format!(
                    "INSERT INTO hot_{table} (item_id, body) VALUES ({row}, 'tail {row}')"
                ))
                .unwrap();
            }
        }
        // No checkpoint: recovery must replay every segment.
    }
    let reopen = |parallelism: usize| {
        let started = Instant::now();
        let db = CrowdDb::builder()
            .persistent(&dir)
            .recovery_parallelism(parallelism)
            .open()
            .unwrap();
        let elapsed = started.elapsed();
        assert_eq!(db.storage_stats().tables.len(), TABLES);
        elapsed
    };
    let serial = (0..runs).map(|_| reopen(1)).min().unwrap();
    let parallel = (0..runs).map(|_| reopen(4)).min().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    (serial, parallel)
}

struct ExpansionCosts {
    dollars: f64,
    missing_cells: usize,
    items_per_table: usize,
}

/// Four concurrent full expansions, one per table, each on its own seeded
/// domain and crowd — the deterministic (machine-independent) output of
/// the sharded engine: total crowd dollars and missing cells.
fn measure_concurrent_expansions() -> ExpansionCosts {
    let db = CrowdDb::new(CrowdDbConfig {
        strategy: ExpansionStrategy::DirectCrowd,
        ..Default::default()
    });
    let mut items_per_table = 0;
    for table in 0..TABLES {
        let domain =
            SyntheticDomain::generate(&DomainConfig::movies().scaled(0.04), 70 + table as u64)
                .unwrap();
        let space = build_space_for_domain(&domain, 8, 10).unwrap();
        let crowd =
            SimulatedCrowd::new(&domain, ExperimentRegime::TrustedWorkers, 7 + table as u64);
        let name = format!("domain_{table}");
        db.load_domain(&name, &domain, space, Box::new(crowd))
            .unwrap();
        db.register_attribute(&name, "is_comedy", "Comedy").unwrap();
        items_per_table = domain.items().len();
    }
    let db_ref = &db;
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        (0..TABLES)
            .map(|table| {
                scope.spawn(move || {
                    db_ref
                        .query(format!("SELECT item_id, is_comedy FROM domain_{table}"))
                        .run()
                        .unwrap()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|handle| handle.join().unwrap())
            .collect()
    });
    let dollars = outcomes.iter().map(|o| o.crowd_cost).sum();
    let missing_cells = outcomes
        .iter()
        .map(|o| o.rows().unwrap().missing_cells())
        .sum();
    ExpansionCosts {
        dollars,
        missing_cells,
        items_per_table,
    }
}

struct Timings {
    sharded: Duration,
    pre_shard: Duration,
    recovery_serial: Duration,
    recovery_parallel: Duration,
    partitioned: Duration,
    single_partition: Duration,
    partition_recovery_serial: Duration,
    partition_recovery_parallel: Duration,
}

fn write_report(costs: &ExpansionCosts, point_read_rows_scanned: u64, timings: &Timings) {
    // CARGO_MANIFEST_DIR is crates/bench; the report belongs at the
    // workspace root regardless of where cargo runs the bench binary.
    let mut path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.pop();
    path.pop();
    path.push("BENCH_shard.json");
    let speedup = timings.pre_shard.as_secs_f64() / timings.sharded.as_secs_f64();
    let partition_speedup =
        timings.single_partition.as_secs_f64() / timings.partitioned.as_secs_f64();
    let json = format!(
        "{{\n  \"bench\": \"shard_throughput\",\n  \"threads\": {},\n  \
         \"tables\": {},\n  \"rows_written\": {},\n  \
         \"archive_rows_per_table\": {},\n  \
         \"expansion_items_per_table\": {},\n  \
         \"expansion_cost_dollars\": {:.4},\n  \
         \"expansion_missing_cells\": {},\n  \
         \"count_partition\": {},\n  \
         \"giant_rows_partition\": {},\n  \
         \"rows_written_partition\": {},\n  \
         \"point_read_rows_scanned_partition\": {},\n  \
         \"sharded_ms\": {:.2},\n  \"pre_shard_ms\": {:.2},\n  \
         \"speedup_sharded_over_pre_shard\": {:.2},\n  \
         \"recovery_serial_ms\": {:.2},\n  \"recovery_parallel_ms\": {:.2},\n  \
         \"partitioned_commit_ms\": {:.2},\n  \
         \"single_partition_commit_ms\": {:.2},\n  \
         \"speedup_partitioned_over_single\": {:.2},\n  \
         \"partition_recovery_serial_ms\": {:.2},\n  \
         \"partition_recovery_parallel_ms\": {:.2}\n}}\n",
        THREADS,
        TABLES,
        ROWS_WRITTEN,
        ARCHIVE_ROWS,
        costs.items_per_table,
        costs.dollars,
        costs.missing_cells,
        PARTITIONS,
        GIANT_ROWS,
        PARTITION_ROWS_WRITTEN,
        point_read_rows_scanned,
        timings.sharded.as_secs_f64() * 1e3,
        timings.pre_shard.as_secs_f64() * 1e3,
        speedup,
        timings.recovery_serial.as_secs_f64() * 1e3,
        timings.recovery_parallel.as_secs_f64() * 1e3,
        timings.partitioned.as_secs_f64() * 1e3,
        timings.single_partition.as_secs_f64() * 1e3,
        partition_speedup,
        timings.partition_recovery_serial.as_secs_f64() * 1e3,
        timings.partition_recovery_parallel.as_secs_f64() * 1e3,
    );
    std::fs::write(&path, json).expect("write BENCH_shard.json");
    println!(
        "wrote {} (sharded {:.2} ms, pre-shard {:.2} ms, speedup {speedup:.2}x, \
         recovery serial {:.2} ms / parallel {:.2} ms, giant table partitioned \
         {:.2} ms vs single {:.2} ms = {partition_speedup:.2}x)",
        path.display(),
        timings.sharded.as_secs_f64() * 1e3,
        timings.pre_shard.as_secs_f64() * 1e3,
        timings.recovery_serial.as_secs_f64() * 1e3,
        timings.recovery_parallel.as_secs_f64() * 1e3,
        timings.partitioned.as_secs_f64() * 1e3,
        timings.single_partition.as_secs_f64() * 1e3,
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");

    let costs = measure_concurrent_expansions();
    assert!(
        costs.dollars > 0.0,
        "four cold expansions must pay the crowd"
    );
    // The JSON's timing fields come from a best-of-N manual measurement in
    // both modes, so the report shape never depends on the mode.
    let repetitions = if smoke { 1 } else { 3 };
    let sharded = best_of(repetitions, false, "sharded");
    let pre_shard = best_of(repetitions, true, "pre-shard");
    let (recovery_serial, recovery_parallel) = measure_recovery(repetitions);
    let partitioned = (0..repetitions)
        .map(|run| timed_giant_workload(PARTITIONS, &format!("giant-part-{run}")))
        .min()
        .unwrap();
    let single_partition = (0..repetitions)
        .map(|run| timed_giant_workload(1, &format!("giant-single-{run}")))
        .min()
        .unwrap();
    let (partition_recovery_serial, partition_recovery_parallel) =
        measure_partition_recovery(repetitions);
    write_report(
        &costs,
        point_read_rows_scanned(),
        &Timings {
            sharded,
            pre_shard,
            recovery_serial,
            recovery_parallel,
            partitioned,
            single_partition,
            partition_recovery_serial,
            partition_recovery_parallel,
        },
    );

    if smoke {
        // CI smoke mode: the workload above already exercised both
        // scenarios once; no timing fidelity intended.
        return;
    }

    let mut criterion = Criterion::default();
    let mut group = criterion.benchmark_group("shard_throughput");
    group.sample_size(10);
    group.bench_function("four_tables_sharded_locks", |b| {
        b.iter(|| timed_workload(None, "crit-sharded"))
    });
    group.bench_function("four_tables_global_lock", |b| {
        let global = RwLock::new(());
        b.iter(|| timed_workload(Some(&global), "crit-global"))
    });
    group.bench_function("giant_table_partitioned", |b| {
        b.iter(|| timed_giant_workload(PARTITIONS, "crit-giant-part"))
    });
    group.bench_function("giant_table_single_partition", |b| {
        b.iter(|| timed_giant_workload(1, "crit-giant-single"))
    });
    group.finish();
}
