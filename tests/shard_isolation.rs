//! Shard-isolation tests of the per-table engine: expansions on different
//! tables overlap inside the crowd (the rendezvous proves both
//! `collect_batch` calls are in flight at once), a crash mid-incremental-
//! checkpoint recovers every table to a consistent generation, parallel
//! segment replay is bit-identical to serial replay, and a directory in
//! the single-file layout of format version 0 is refused with its version
//! and left exactly as it was.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crowddb::prelude::*;
use crowddb::storage::{segment_file_name, Wal, WalRecord, FORMAT_VERSION};
use crowdsim::{BatchCrowdRun, CrowdRun};

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crowddb-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A meeting point for crowd dispatches: every `collect_batch` checks in
/// and then waits until `expected` parties have arrived.  If the engine
/// serialized expansions on different tables behind one lock, the first
/// dispatch would wait here forever for a second that can never start —
/// the timeout turns that deadlock into a loud failure.
struct Rendezvous {
    expected: usize,
    arrivals: Mutex<usize>,
    all_in: Condvar,
}

impl Rendezvous {
    fn new(expected: usize) -> Self {
        Rendezvous {
            expected,
            arrivals: Mutex::new(0),
            all_in: Condvar::new(),
        }
    }

    fn arrive_and_wait(&self) {
        let mut arrivals = self.arrivals.lock().unwrap();
        *arrivals += 1;
        self.all_in.notify_all();
        while *arrivals < self.expected {
            let (guard, timeout) = self
                .all_in
                .wait_timeout(arrivals, Duration::from_secs(30))
                .unwrap();
            arrivals = guard;
            assert!(
                !timeout.timed_out(),
                "only {} of {} crowd dispatches arrived — expansions on \
                 different tables are serialized",
                *arrivals,
                self.expected
            );
        }
    }
}

/// Wraps a [`SimulatedCrowd`] so that every dispatched round checks in at
/// the shared [`Rendezvous`] before answering.
struct RendezvousCrowd {
    inner: SimulatedCrowd,
    rendezvous: Arc<Rendezvous>,
    batch_calls: Arc<AtomicUsize>,
}

impl CrowdSource for RendezvousCrowd {
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
        self.rendezvous.arrive_and_wait();
        self.inner.collect_batch(requests, seed)
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// The tentpole's concurrency claim: expansions on *different* tables
/// share no lock across crowd dispatch, so their `collect_batch` calls
/// overlap in time.  Each crowd source blocks until the other table's
/// dispatch has also arrived — the test passes only if both rounds are
/// simultaneously in flight.
#[test]
fn expansions_on_different_tables_overlap_in_the_crowd() {
    let rendezvous = Arc::new(Rendezvous::new(2));
    let batch_calls = Arc::new(AtomicUsize::new(0));
    let db = CrowdDb::new(CrowdDbConfig {
        strategy: ExpansionStrategy::DirectCrowd,
        ..Default::default()
    });
    for (seed, table) in [(41u64, "alpha"), (42, "beta")] {
        let domain = SyntheticDomain::generate(&DomainConfig::movies().scaled(0.04), seed).unwrap();
        let space = build_space_for_domain(&domain, 8, 10).unwrap();
        let crowd = RendezvousCrowd {
            inner: SimulatedCrowd::new(&domain, ExperimentRegime::TrustedWorkers, seed),
            rendezvous: rendezvous.clone(),
            batch_calls: batch_calls.clone(),
        };
        db.load_domain(table, &domain, space, Box::new(crowd))
            .unwrap();
        db.register_attribute(table, "is_comedy", "Comedy").unwrap();
    }

    let db = &db;
    let (alpha, beta) = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            db.execute("SELECT item_id FROM alpha WHERE is_comedy = true")
                .unwrap()
        });
        let b = scope.spawn(|| {
            db.execute("SELECT item_id FROM beta WHERE is_comedy = true")
                .unwrap()
        });
        (a.join().unwrap(), b.join().unwrap())
    });

    assert_eq!(batch_calls.load(Ordering::SeqCst), 2);
    assert!(!alpha.rows.is_empty());
    assert!(!beta.rows.is_empty());
}

/// The incremental-checkpoint crash window, multi-table edition: one
/// table's snapshot-and-reset completes, the other's snapshot lands but
/// its segment reset is lost.  The per-segment generation stamps must
/// recover *every* table to a consistent state — nothing doubled, nothing
/// dropped.
#[test]
fn crash_mid_incremental_checkpoint_recovers_every_table() {
    let dir = test_dir("mid-checkpoint");
    {
        let db = CrowdDb::open(&dir).unwrap();
        for table in ["alpha", "beta"] {
            db.execute(&format!(
                "CREATE TABLE {table} (item_id INTEGER, body TEXT)"
            ))
            .unwrap();
            for i in 0..3 {
                db.execute(&format!(
                    "INSERT INTO {table} (item_id, body) VALUES ({i}, 'seed {i}')"
                ))
                .unwrap();
            }
        }
        let first = db.checkpoint().unwrap();
        assert_eq!(
            first.tables_snapshotted,
            vec!["alpha".to_string(), "beta".to_string()]
        );
        for table in ["alpha", "beta"] {
            for i in 3..5 {
                db.execute(&format!(
                    "INSERT INTO {table} (item_id, body) VALUES ({i}, 'post {i}')"
                ))
                .unwrap();
            }
        }
        // Satellite check while both segments are hot: the aggregate is
        // exactly the sum of the per-table views.
        let stats = db.storage_stats();
        assert_eq!(
            stats
                .tables
                .iter()
                .map(|t| t.table.as_str())
                .collect::<Vec<_>>(),
            vec!["alpha", "beta"]
        );
        assert_eq!(
            stats.wal_bytes_total(),
            stats.tables.iter().map(|t| t.wal_bytes()).sum::<u64>()
        );

        // Second (incremental) checkpoint, then reconstruct the crash:
        // beta's snapshot was written but its segment reset never hit disk.
        let beta_segment = dir.join("wal").join(segment_file_name("beta", 0));
        let old_beta = std::fs::read(&beta_segment).unwrap();
        db.checkpoint().unwrap();
        drop(db);
        std::fs::write(&beta_segment, &old_beta).unwrap();
    }
    let db = CrowdDb::open(&dir).unwrap();
    for table in ["alpha", "beta"] {
        assert_eq!(
            db.execute(&format!("SELECT body FROM {table}"))
                .unwrap()
                .rows
                .len(),
            5,
            "{table} must recover exactly its 5 committed rows"
        );
    }
    // The recovered database keeps committing and checkpointing normally.
    db.execute("INSERT INTO beta (item_id, body) VALUES (9, 'after')")
        .unwrap();
    let report = db.checkpoint().unwrap();
    assert_eq!(report.tables_snapshotted, vec!["beta".to_string()]);
    assert_eq!(report.tables_skipped, vec!["alpha".to_string()]);
    drop(db);
    let db = CrowdDb::open(&dir).unwrap();
    assert_eq!(db.execute("SELECT body FROM beta").unwrap().rows.len(), 6);
    std::fs::remove_dir_all(&dir).unwrap();
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

/// Everything observable about a recovered database, collected the same
/// way for the serial and the parallel opening.
#[derive(Debug, PartialEq)]
struct RecoveredView {
    movie_rows: Grid<crowddb::relational::Value>,
    movie_provenance: Grid<CellProvenance>,
    note_rows: Vec<(String, Grid<crowddb::relational::Value>)>,
    cache_entries: usize,
    wal_bytes_by_table: Vec<(String, u64)>,
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
    let note_rows = ["notes_a", "notes_b", "notes_c"]
        .iter()
        .map(|table| {
            let result = db
                .execute(&format!("SELECT item_id, body FROM {table}"))
                .unwrap();
            (table.to_string(), result.rows)
        })
        .collect();
    RecoveredView {
        movie_rows: rows.rows,
        movie_provenance: rows.provenance,
        note_rows,
        cache_entries: db.cache_stats().entries,
        wal_bytes_by_table: db
            .storage_stats()
            .tables
            .iter()
            .map(|t| (t.table.clone(), t.wal_bytes()))
            .collect(),
        crowd_rounds_dispatched: batch_calls.load(Ordering::SeqCst),
    }
}

/// Parallel recovery is an optimization, not a semantic: replaying four
/// segments on a worker pool must produce the *bit-identical* database the
/// serial replay produces — same rows, same per-cell provenance, same
/// cache, same segment accounting — at zero crowd cost either way.
#[test]
fn parallel_replay_is_bit_identical_to_serial_replay() {
    let dir = test_dir("replay-equivalence");
    let domain = SyntheticDomain::generate(&DomainConfig::movies().scaled(0.05), 404).unwrap();
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
        for table in ["notes_a", "notes_b", "notes_c"] {
            db.execute(&format!(
                "CREATE TABLE {table} (item_id INTEGER, body TEXT)"
            ))
            .unwrap();
            for i in 0..4 {
                db.execute(&format!(
                    "INSERT INTO {table} (item_id, body) VALUES ({i}, '{table} {i}')"
                ))
                .unwrap();
            }
        }
        // Checkpoint mid-history so recovery mixes snapshot restore with
        // segment replay, then keep writing into the fresh segments.
        db.checkpoint().unwrap();
        for table in ["notes_a", "notes_b", "notes_c"] {
            db.execute(&format!(
                "INSERT INTO {table} (item_id, body) VALUES (9, '{table} tail')"
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
    assert_eq!(serial, parallel);
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

/// A directory in the single-file layout (one `wal.log`, one
/// `snapshot.db`, no manifest) is format version 0: opening it fails with
/// a storage error naming that version and the one this build reads, and
/// leaves every file as it was — nothing migrated, deleted or created.
#[test]
fn single_file_directory_is_refused_as_format_version_0() {
    let dir = test_dir("single-file");
    std::fs::create_dir_all(&dir).unwrap();
    let (mut wal, existing) = Wal::open(dir.join("wal.log")).unwrap();
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
            sql: "INSERT INTO notes (item_id, body) VALUES (2, 'from wal')".into(),
        },
    ])
    .unwrap();
    drop(wal);
    // The snapshot's magic and an empty frame: its contents are never read.
    let mut snapshot = b"CDBSNAP1".to_vec();
    snapshot.extend_from_slice(&[0; 12]);
    std::fs::write(dir.join("snapshot.db"), &snapshot).unwrap();
    let before = files(&dir);
    assert_eq!(before.len(), 2);

    match CrowdDb::open(&dir) {
        Err(CrowdDbError::Storage(message)) => {
            assert!(
                message.contains("version 0")
                    && message.contains(&format!("version {FORMAT_VERSION}")),
                "{message}"
            );
        }
        other => panic!("a single-file directory opened: {:?}", other.map(|_| ())),
    }
    assert_eq!(files(&dir), before, "the failed open changed the directory");
    std::fs::remove_dir_all(&dir).unwrap();
}
