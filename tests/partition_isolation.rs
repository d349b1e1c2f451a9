//! Partition-isolation tests of the intra-table sharding layer: parallel
//! replay of a partitioned table is bit-identical to serial replay, a
//! crash mid-partial-checkpoint recovers every partition exactly once, a
//! partial checkpoint leaves the clean partitions' files untouched down
//! to bytes and mtimes, a directory whose manifest predates the format
//! version (format 1) is refused with its version and left exactly as it
//! was, and writers on disjoint partitions of *one* table overlap in time
//! instead of queueing on a table-wide lock.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use crowddb::prelude::*;
use crowddb::relational::{Column, DataType, Schema, Table, Value};
use crowddb::storage::{crc32, Encoder, Wal, WalRecord, FORMAT_VERSION, WAL_DIR};
use crowdsim::{BatchCrowdRun, CrowdRun};

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crowddb-part-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An empty `(item_id INTEGER, body TEXT)` table named `name`.
fn seed_table(name: &str) -> Table {
    let schema = Schema::new(vec![
        Column::new("item_id", DataType::Integer),
        Column::new("body", DataType::Text),
    ])
    .unwrap();
    Table::new(name, schema)
}

/// The first id at or above `from` that the spec routes to partition `k`.
fn id_routed_to(spec: &PartitionSpec, k: usize, from: i64) -> i64 {
    (from..from + 10_000)
        .find(|&id| spec.route_value(&Value::Integer(id)) == k)
        .expect("some id in range routes to the partition")
}

/// Metered crowd for the replay-equivalence test: counts rounds so the
/// recovered opens can prove they never re-dispatch.
struct CountingCrowd {
    inner: SimulatedCrowd,
    batch_calls: Arc<AtomicUsize>,
}

impl CrowdSource for CountingCrowd {
    fn collect(
        &mut self,
        items: &[u32],
        attribute: &str,
        seed: u64,
    ) -> Result<CrowdRun, CrowdDbError> {
        self.inner.collect(items, attribute, seed)
    }

    fn collect_batch(
        &mut self,
        requests: &[AttributeRequest],
        seed: u64,
    ) -> Result<BatchCrowdRun, CrowdDbError> {
        self.batch_calls.fetch_add(1, Ordering::SeqCst);
        self.inner.collect_batch(requests, seed)
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

const MOVIE_QUERY: &str = "SELECT item_id, name, is_comedy FROM movies";

/// Per-partition storage facts: (k, wal bytes, snapshot bytes, dirty).
type PartitionFacts = Vec<(usize, u64, u64, bool)>;

/// Everything observable about a recovered database, collected the same
/// way for the serial and the parallel opening.
#[derive(Debug, PartialEq)]
struct RecoveredView {
    movie_rows: Grid<Value>,
    movie_provenance: Grid<CellProvenance>,
    event_rows: Grid<Value>,
    cache_entries: usize,
    storage: Vec<(String, PartitionSpec, PartitionFacts)>,
    crowd_rounds_dispatched: usize,
}

fn observe(dir: &PathBuf, domain: &SyntheticDomain, parallelism: usize) -> RecoveredView {
    let db = CrowdDb::builder()
        .config(CrowdDbConfig {
            strategy: ExpansionStrategy::DirectCrowd,
            ..Default::default()
        })
        .persistent(dir)
        .recovery_parallelism(parallelism)
        .open()
        .unwrap();
    let batch_calls = Arc::new(AtomicUsize::new(0));
    let crowd = CountingCrowd {
        inner: SimulatedCrowd::new(domain, ExperimentRegime::TrustedWorkers, 31),
        batch_calls: batch_calls.clone(),
    };
    let space = build_space_for_domain(domain, 8, 10).unwrap();
    db.bind_table("movies", space, Box::new(crowd)).unwrap();
    db.register_attribute("movies", "is_comedy", "Comedy")
        .unwrap();
    let outcome = db.query(MOVIE_QUERY).run().unwrap();
    let rows = match &outcome.result {
        StatementResult::Rows(rows) => rows.clone(),
        other => panic!("expected rows, got {other:?}"),
    };
    // No ORDER BY on purpose: the raw merged row order (partitions in `k`
    // order) is part of the bit-identity claim.
    let event_rows = db.execute("SELECT item_id, body FROM events").unwrap().rows;
    let storage = db
        .storage_stats()
        .tables
        .iter()
        .map(|t| {
            (
                t.table.clone(),
                t.spec.clone(),
                t.partitions
                    .iter()
                    .map(|p| (p.partition, p.wal_bytes, p.snapshot_bytes, p.dirty))
                    .collect(),
            )
        })
        .collect();
    RecoveredView {
        movie_rows: rows.rows,
        movie_provenance: rows.provenance,
        event_rows,
        cache_entries: db.cache_stats().entries,
        storage,
        crowd_rounds_dispatched: batch_calls.load(Ordering::SeqCst),
    }
}

/// Recovery fans out *within* a table: replaying the four segments of one
/// hash-partitioned table on a worker pool must produce the bit-identical
/// database the serial replay produces — same rows in the same merged
/// order, same per-cell provenance on the crowd table, same cache, same
/// per-partition segment accounting — at zero crowd cost either way.
#[test]
fn parallel_partition_replay_is_bit_identical_to_serial() {
    let dir = test_dir("replay");
    let domain = SyntheticDomain::generate(&DomainConfig::movies().scaled(0.05), 505).unwrap();
    let spec = PartitionSpec::Hash { n: 4 };
    {
        let db = CrowdDb::builder()
            .config(CrowdDbConfig {
                strategy: ExpansionStrategy::DirectCrowd,
                ..Default::default()
            })
            .persistent(&dir)
            .open()
            .unwrap();
        let space = build_space_for_domain(&domain, 8, 10).unwrap();
        let crowd = SimulatedCrowd::new(&domain, ExperimentRegime::TrustedWorkers, 31);
        db.load_domain("movies", &domain, space, Box::new(crowd))
            .unwrap();
        db.register_attribute("movies", "is_comedy", "Comedy")
            .unwrap();
        db.query(MOVIE_QUERY).run().unwrap();

        // One partitioned table, seeded atomically at creation and then
        // mutated through every statement shape the router distinguishes.
        let mut events = seed_table("events");
        for id in 0..12i64 {
            events
                .insert_named(&[
                    ("item_id", Value::Integer(id)),
                    ("body", Value::Text(format!("seed {id}"))),
                ])
                .unwrap();
        }
        db.create_table_with(
            TableOptions::new("events", "item_id").partitions(spec.clone()),
            events,
        )
        .unwrap();
        // Multi-row insert spanning partitions, single-row inserts, and a
        // cross-partition update + delete.
        db.execute(
            "INSERT INTO events (item_id, body) VALUES \
             (12, 'twelve'), (13, 'thirteen'), (14, 'fourteen'), (15, 'fifteen')",
        )
        .unwrap();
        for id in 16..20i64 {
            db.execute(&format!(
                "INSERT INTO events (item_id, body) VALUES ({id}, 'one by one {id}')"
            ))
            .unwrap();
        }
        db.execute("UPDATE events SET body = 'rewritten' WHERE item_id < 4")
            .unwrap();
        db.execute("DELETE FROM events WHERE item_id = 17").unwrap();
        // Checkpoint mid-history so recovery mixes per-partition snapshot
        // restore with per-partition segment replay, then keep writing
        // into a *subset* of the partitions.
        db.checkpoint().unwrap();
        for k in [0usize, 2] {
            let id = id_routed_to(&spec, k, 100);
            db.execute(&format!(
                "INSERT INTO events (item_id, body) VALUES ({id}, 'tail p{k}')"
            ))
            .unwrap();
        }
        // Death without a final checkpoint: the tails recover off the WAL.
    }
    let serial = observe(&dir, &domain, 1);
    let parallel = observe(&dir, &domain, 8);
    assert_eq!(serial.crowd_rounds_dispatched, 0);
    assert_eq!(parallel.crowd_rounds_dispatched, 0);
    assert!(!serial.movie_rows.is_empty());
    assert_eq!(serial.event_rows.len(), 21, "22 inserts minus one delete");
    let events = serial
        .storage
        .iter()
        .find(|(table, _, _)| table == "events")
        .unwrap();
    assert_eq!(events.1, spec);
    assert_eq!(events.2.len(), 4);
    assert_eq!(serial, parallel);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The partial-checkpoint contract, byte-for-byte: compacting the one
/// dirty partition of a table must not rewrite, truncate, or even touch
/// the clean partitions' segment and snapshot files — and a crash that
/// loses the dirty partition's segment reset (snapshot durable, segment
/// rollback lost) still recovers every partition to exactly its committed
/// rows, nothing doubled, nothing dropped.
#[test]
fn crash_mid_partial_checkpoint_recovers_every_partition() {
    let dir = test_dir("mid-partial-checkpoint");
    let spec = PartitionSpec::Hash { n: 3 };
    let hot = 0usize; // the partition we keep dirty
    {
        let db = CrowdDb::open(&dir).unwrap();
        db.create_table_with(
            TableOptions::new("things", "item_id").partitions(spec.clone()),
            seed_table("things"),
        )
        .unwrap();
        for id in 0..9i64 {
            db.execute(&format!(
                "INSERT INTO things (item_id, body) VALUES ({id}, 'seed {id}')"
            ))
            .unwrap();
        }
        let first = db.checkpoint().unwrap();
        assert_eq!(first.partitions_snapshotted, 3);

        // Dirty exactly one partition.
        let id = id_routed_to(&spec, hot, 50);
        db.execute(&format!(
            "INSERT INTO things (item_id, body) VALUES ({id}, 'hot')"
        ))
        .unwrap();
        let stats = db.storage_stats();
        let things = stats.tables.iter().find(|t| t.table == "things").unwrap();
        assert_eq!(
            things
                .partitions
                .iter()
                .filter(|p| p.dirty)
                .map(|p| p.partition)
                .collect::<Vec<_>>(),
            vec![hot]
        );

        // Fingerprint the clean partitions' files before the checkpoint.
        let file_of = |sub: &str, name: String| dir.join(sub).join(name);
        let clean_files: Vec<PathBuf> = (0..3usize)
            .filter(|&k| k != hot)
            .flat_map(|k| {
                [
                    file_of("wal", format!("things.p{k}.log")),
                    file_of("snap", format!("things.p{k}.snap")),
                ]
            })
            .collect();
        let fingerprint = |path: &PathBuf| {
            let meta = std::fs::metadata(path).unwrap();
            (meta.len(), meta.modified().unwrap())
        };
        let before: Vec<_> = clean_files.iter().map(fingerprint).collect();

        // Keep the hot partition's pre-checkpoint segment so the crash can
        // be reconstructed, then checkpoint only the dirty state.
        let hot_segment = file_of("wal", format!("things.p{hot}.log"));
        let old_segment = std::fs::read(&hot_segment).unwrap();
        let report = db.checkpoint_with(CheckpointOptions::dirty()).unwrap();
        assert_eq!(report.tables_snapshotted, vec!["things".to_string()]);
        assert_eq!(report.partitions_snapshotted, 1);
        assert_eq!(report.partitions_skipped, 2);

        // The clean partitions' files are untouched: same bytes, same mtime.
        let after: Vec<_> = clean_files.iter().map(fingerprint).collect();
        assert_eq!(
            before, after,
            "partial checkpoint touched a clean partition"
        );

        // Crash: the hot partition's snapshot landed but its segment reset
        // never hit disk.
        drop(db);
        std::fs::write(&hot_segment, &old_segment).unwrap();
    }
    let db = CrowdDb::open(&dir).unwrap();
    assert_eq!(
        db.execute("SELECT body FROM things").unwrap().rows.len(),
        10,
        "9 seed rows + 1 hot row, each exactly once"
    );
    // The recovered database keeps committing; only the partition written
    // after recovery is dirty again.
    let id = id_routed_to(&spec, 2, 200);
    db.execute(&format!(
        "INSERT INTO things (item_id, body) VALUES ({id}, 'after')"
    ))
    .unwrap();
    let report = db.checkpoint().unwrap();
    assert_eq!(report.partitions_snapshotted, 1);
    drop(db);
    let db = CrowdDb::open(&dir).unwrap();
    assert_eq!(
        db.execute("SELECT body FROM things").unwrap().rows.len(),
        11
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every file under `dir`, by path, with its bytes.
fn files(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.append(&mut self::files(&path));
        } else {
            files.insert(path.clone(), std::fs::read(&path).unwrap());
        }
    }
    files
}

/// A manifest of format version 1 — magic `CDBMANI1`, no version field,
/// one entry per table naming its segment and snapshot files — as the
/// engine wrote it before the format carried a version.
fn unversioned_manifest(id_column: &str, tables: &[&str]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.str(id_column);
    e.u64(0); // cache hits
    e.u64(0); // cache misses
    e.f64(0.0); // cache cost saved
    e.u64(0); // crowd rounds
    e.seq_len(tables.len());
    for table in tables {
        e.str(table);
        e.str(&format!("{table}.log"));
        e.bool(false); // no snapshot yet
    }
    let payload = e.into_bytes();
    let mut bytes = b"CDBMANI1".to_vec();
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes
}

/// A directory whose manifest predates the format version field is format
/// version 1: opening it fails with a storage error naming that version
/// and the one this build reads, and leaves every file as it was —
/// nothing migrated, deleted or created, the manifest included.
#[test]
fn unversioned_manifest_is_refused_as_format_version_1() {
    let dir = test_dir("unversioned");
    std::fs::create_dir_all(dir.join(WAL_DIR)).unwrap();
    // One table, created and never checkpointed: its whole history is in
    // its segment.
    let (mut wal, existing) = Wal::open(dir.join(WAL_DIR).join("notes.log")).unwrap();
    assert!(existing.is_empty());
    wal.append_all(&[
        WalRecord::MetaPartition {
            id_column: "item_id".into(),
            partition: 0,
            spec: PartitionSpec::Single,
        },
        WalRecord::Mutation {
            sql: "CREATE TABLE notes (item_id INTEGER, body TEXT)".into(),
        },
        WalRecord::Mutation {
            sql: "INSERT INTO notes (item_id, body) VALUES (1, 'one')".into(),
        },
    ])
    .unwrap();
    drop(wal);
    std::fs::write(
        dir.join("manifest.db"),
        unversioned_manifest("item_id", &["notes"]),
    )
    .unwrap();
    let before = files(&dir);
    assert_eq!(before.len(), 2);

    match CrowdDb::open(&dir) {
        Err(CrowdDbError::Storage(message)) => {
            assert!(
                message.contains("version 1")
                    && message.contains(&format!("version {FORMAT_VERSION}")),
                "{message}"
            );
        }
        other => panic!("a format-1 directory opened: {:?}", other.map(|_| ())),
    }
    assert_eq!(files(&dir), before, "the failed open changed the directory");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Writers on disjoint partitions of *one* table stay out of each
/// other's way.  Two claims, both deterministic:
///
/// 1. A single-row insert writes and fsyncs exactly one partition's
///    segment — the other partition's WAL file does not grow by a byte,
///    so there is no shared file (and no shared fsync) for disjoint
///    writers to queue on.
/// 2. Two threads hammering different partitions concurrently both run
///    to completion (a shared exclusive lock that deadlocked or starved
///    one of them turns into a loud channel timeout), and every row
///    lands in the partition its id routes to.
///
/// The lock-level rendezvous — a *held* partition-0 write guard never
/// blocking a partition-1 insert — is proved by the engine's unit tests,
/// which can hold a partition guard directly; wall-clock comparisons are
/// meaningless on a single-CPU CI box, so this test asserts the disk
/// contract instead.
#[test]
fn disjoint_partition_writers_do_not_share_segments() {
    let spec = PartitionSpec::Hash { n: 2 };
    const ROUNDS: usize = 24;
    let dir = test_dir("disjoint");
    let db = CrowdDb::open(&dir).unwrap();
    db.create_table_with(
        TableOptions::new("stream", "item_id").partitions(spec.clone()),
        seed_table("stream"),
    )
    .unwrap();
    let insert = |id: i64| {
        db.execute(&format!(
            "INSERT INTO stream (item_id, body) VALUES ({id}, 'row {id}')"
        ))
        .unwrap();
    };
    let segment = |k: usize| dir.join("wal").join(format!("stream.p{k}.log"));
    let segment_bytes = |k: usize| std::fs::metadata(segment(k)).unwrap().len();

    // Claim 1: a commit routed to partition 1 leaves partition 0's
    // segment byte-identical (WAL segments only ever grow — any stray
    // write would show), and vice versa.
    let before = (segment_bytes(0), segment_bytes(1));
    insert(id_routed_to(&spec, 1, 1));
    let after_one = (segment_bytes(0), segment_bytes(1));
    assert_eq!(
        after_one.0, before.0,
        "a partition-1 insert wrote partition 0's segment"
    );
    assert!(after_one.1 > before.1);
    insert(id_routed_to(&spec, 0, 1));
    let after_zero = (segment_bytes(0), segment_bytes(1));
    assert!(after_zero.0 > after_one.0);
    assert_eq!(
        after_zero.1, after_one.1,
        "a partition-0 insert wrote partition 1's segment"
    );

    // Claim 2: concurrent disjoint-partition writers both finish.
    let barrier = Barrier::new(2);
    let (done_tx, done_rx) = std::sync::mpsc::channel::<usize>();
    let (db_ref, spec_ref, barrier_ref) = (&db, &spec, &barrier);
    std::thread::scope(|scope| {
        for k in 0..2usize {
            let done = done_tx.clone();
            scope.spawn(move || {
                let mut next = 100;
                barrier_ref.wait();
                for _ in 0..ROUNDS {
                    let id = id_routed_to(spec_ref, k, next);
                    db_ref
                        .execute(&format!(
                            "INSERT INTO stream (item_id, body) VALUES ({id}, 'row {id}')"
                        ))
                        .unwrap();
                    next = id + 1;
                }
                done.send(k).unwrap();
            });
        }
        drop(done_tx);
        for _ in 0..2 {
            done_rx
                .recv_timeout(Duration::from_secs(30))
                .expect("a disjoint-partition writer stalled");
        }
    });
    let rows = db.execute("SELECT item_id FROM stream").unwrap().rows;
    assert_eq!(rows.len(), 2 + 2 * ROUNDS);
    std::fs::remove_dir_all(&dir).unwrap();
}
