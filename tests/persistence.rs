//! Crash-recovery tests of the durable storage engine: a paid-for
//! expansion answers a repeat query after process death at **zero** crowd
//! cost (asserted against the simulated platform's real meter), torn WAL
//! tails are truncated, interior corruption is rejected, and a
//! checkpointed-then-replayed database is bit-identical — rows and
//! per-cell provenance — to an uninterrupted run under the same seeds.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crowddb::prelude::*;
use crowddb::storage::{segment_file_name, snapshot_file_name};
use crowdsim::{BatchCrowdRun, CrowdRun, WorkerId};

/// Wraps a [`SimulatedCrowd`], counting dispatched rounds and accumulating
/// the dollars the platform really charged — the meter every zero-cost
/// claim is asserted against.
struct MeteredCrowd {
    inner: SimulatedCrowd,
    batch_calls: Arc<AtomicUsize>,
    dollars_charged: Arc<Mutex<f64>>,
}

impl CrowdSource for MeteredCrowd {
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
        let batch = self.inner.collect_batch(requests, seed)?;
        *self.dollars_charged.lock().unwrap() += batch.total_cost;
        Ok(batch)
    }

    // The adaptive hooks must forward too: the trait defaults fall back to
    // flat rounds, which would make the metered crowd price and dispatch
    // differently from the real one under adaptive acquisition.
    fn collect_adaptive(
        &mut self,
        requests: &[AttributeRequest],
        seed: u64,
        judgments_per_item: usize,
        preferred_workers: Option<&HashSet<WorkerId>>,
    ) -> Result<BatchCrowdRun, CrowdDbError> {
        self.batch_calls.fetch_add(1, Ordering::SeqCst);
        let batch =
            self.inner
                .collect_adaptive(requests, seed, judgments_per_item, preferred_workers)?;
        *self.dollars_charged.lock().unwrap() += batch.total_cost;
        Ok(batch)
    }

    fn adaptive_round_cost(&self, n_items: usize, judgments_per_item: usize) -> Option<f64> {
        self.inner.adaptive_round_cost(n_items, judgments_per_item)
    }

    fn estimate_cost(&self, n_items: usize) -> Option<f64> {
        self.inner.estimate_cost(n_items)
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

struct Meter {
    batch_calls: Arc<AtomicUsize>,
    dollars_charged: Arc<Mutex<f64>>,
}

impl Meter {
    fn calls(&self) -> usize {
        self.batch_calls.load(Ordering::SeqCst)
    }

    fn dollars(&self) -> f64 {
        *self.dollars_charged.lock().unwrap()
    }
}

fn domain() -> SyntheticDomain {
    SyntheticDomain::generate(&DomainConfig::movies().scaled(0.05), 404).unwrap()
}

fn metered_crowd(domain: &SyntheticDomain) -> (Box<dyn CrowdSource>, Meter) {
    let batch_calls = Arc::new(AtomicUsize::new(0));
    let dollars_charged = Arc::new(Mutex::new(0.0));
    let crowd = MeteredCrowd {
        inner: SimulatedCrowd::new(domain, ExperimentRegime::TrustedWorkers, 31),
        batch_calls: batch_calls.clone(),
        dollars_charged: dollars_charged.clone(),
    };
    (
        Box::new(crowd),
        Meter {
            batch_calls,
            dollars_charged,
        },
    )
}

fn direct_crowd_config() -> CrowdDbConfig {
    CrowdDbConfig {
        strategy: ExpansionStrategy::DirectCrowd,
        ..Default::default()
    }
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crowddb-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Opens a persistent database over `dir`, loading the domain on first run
/// and re-binding on reopen (the table already recovered from disk).
fn open_bound(dir: &PathBuf, domain: &SyntheticDomain) -> (CrowdDb, Meter) {
    let db = CrowdDb::builder()
        .config(direct_crowd_config())
        .persistent(dir)
        .open()
        .unwrap();
    let space = build_space_for_domain(domain, 8, 10).unwrap();
    let (crowd, meter) = metered_crowd(domain);
    if db.catalog().table("movies").is_ok() {
        db.bind_table("movies", space, crowd).unwrap();
    } else {
        db.load_domain("movies", domain, space, crowd).unwrap();
    }
    db.register_attribute("movies", "is_comedy", "Comedy")
        .unwrap();
    (db, meter)
}

fn rows_of(outcome: &QueryOutcome) -> &RowSet {
    match &outcome.result {
        StatementResult::Rows(rows) => rows,
        other => panic!("expected rows, got {other:?}"),
    }
}

const QUERY: &str = "SELECT item_id, name, is_comedy FROM movies";

/// The acceptance scenario: pay the crowd once, kill the process (drop the
/// database, no checkpoint — recovery runs purely off the WAL), reopen the
/// directory in a "new process", and re-run the same query.  The platform
/// meter must read **zero** rounds and **$0.00**, and rows and per-cell
/// provenance must be identical to the pre-restart outcome.
#[test]
fn kill_and_reopen_re_serves_paid_answers_at_zero_cost() {
    let dir = test_dir("kill-reopen");
    let domain = domain();

    // Life 1: trigger the expansion and pay for it.
    let (first_rows, dollars_paid) = {
        let (db, meter) = open_bound(&dir, &domain);
        let outcome = db.query(QUERY).run().unwrap();
        assert_eq!(meter.calls(), 1, "one batched round pays for everything");
        assert!(meter.dollars() > 0.0);
        assert!(outcome.crowd_cost > 0.0);
        let rows = rows_of(&outcome).clone();
        assert!(rows
            .provenance
            .iter()
            .flatten()
            .any(|p| matches!(p, CellProvenance::CrowdDerived { .. })));
        (rows, meter.dollars())
        // Dropped without checkpoint: the "process dies" here.
    };

    // Life 2: a fresh process opens the directory with a fresh crowd.
    let (db, meter) = open_bound(&dir, &domain);
    let outcome = db.query(QUERY).run().unwrap();
    assert_eq!(
        meter.calls(),
        0,
        "the reopened database must not dispatch any crowd round"
    );
    assert_eq!(meter.dollars(), 0.0, "the platform meter must stay at $0");
    assert_eq!(outcome.crowd_cost, 0.0);
    let rows = rows_of(&outcome);
    assert_eq!(rows.columns, first_rows.columns);
    assert_eq!(rows.rows, first_rows.rows, "recovered cells are identical");
    assert_eq!(
        rows.provenance, first_rows.provenance,
        "recovered provenance (confidence + cost_share) is identical"
    );
    assert!(dollars_paid > 0.0);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Mutations are WAL-logged and replayed: rows inserted through SQL in one
/// process are there in the next.
#[test]
fn sql_mutations_survive_reopen() {
    let dir = test_dir("mutations");
    {
        let db = CrowdDb::open(&dir).unwrap();
        db.execute("CREATE TABLE notes (item_id INTEGER, body TEXT)")
            .unwrap();
        db.execute("INSERT INTO notes (item_id, body) VALUES (1, 'first')")
            .unwrap();
        db.execute("INSERT INTO notes (item_id, body) VALUES (2, 'second')")
            .unwrap();
        db.execute("UPDATE notes SET body = 'second, edited' WHERE item_id = 2")
            .unwrap();
    }
    let db = CrowdDb::open(&dir).unwrap();
    let result = db.execute("SELECT body FROM notes").unwrap();
    assert_eq!(result.rows.len(), 2);
    assert_eq!(result.rows[1][0], Value::Text("second, edited".into()));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A crash mid-append leaves a torn final record: reopen truncates it and
/// recovers every record before it — re-issuing the lost statement works.
#[test]
fn torn_final_wal_record_is_truncated_on_reopen() {
    let dir = test_dir("torn-tail");
    {
        let db = CrowdDb::open(&dir).unwrap();
        db.execute("CREATE TABLE notes (item_id INTEGER, body TEXT)")
            .unwrap();
        db.execute("INSERT INTO notes (item_id, body) VALUES (1, 'kept')")
            .unwrap();
        db.execute("INSERT INTO notes (item_id, body) VALUES (2, 'torn')")
            .unwrap();
    }
    // Simulate the crash mid-append: chop bytes off the last frame of the
    // table's segment.
    let wal = dir.join("wal").join(segment_file_name("notes", 0));
    let len = std::fs::metadata(&wal).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    file.set_len(len - 5).unwrap();
    drop(file);

    let db = CrowdDb::open(&dir).unwrap();
    let result = db.execute("SELECT body FROM notes").unwrap();
    assert_eq!(result.rows.len(), 1, "the torn insert never committed");
    assert_eq!(result.rows[0][0], Value::Text("kept".into()));
    // The database keeps working after the truncation.
    db.execute("INSERT INTO notes (item_id, body) VALUES (2, 'retried')")
        .unwrap();
    drop(db);
    let db = CrowdDb::open(&dir).unwrap();
    assert_eq!(db.execute("SELECT body FROM notes").unwrap().rows.len(), 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checksum mismatch on a fully present interior record is corruption at
/// rest, not a crash artifact — recovery must refuse the directory instead
/// of silently dropping paid-for state.
#[test]
fn interior_checksum_corruption_is_rejected() {
    let dir = test_dir("corrupt");
    {
        let db = CrowdDb::open(&dir).unwrap();
        db.execute("CREATE TABLE notes (item_id INTEGER, body TEXT)")
            .unwrap();
        db.execute("INSERT INTO notes (item_id, body) VALUES (1, 'x')")
            .unwrap();
    }
    // Flip one byte inside the *first* record's payload (well before the
    // tail), leaving frame lengths intact.
    let wal = dir.join("wal").join(segment_file_name("notes", 0));
    let mut bytes = std::fs::read(&wal).unwrap();
    let target = 8 + 8 + 4; // header + frame prefix + a few payload bytes
    bytes[target] ^= 0x20;
    std::fs::write(&wal, &bytes).unwrap();

    match CrowdDb::open(&dir).map(|_| ()) {
        Err(CrowdDbError::Storage(msg)) => {
            assert!(msg.contains("checksum"), "unexpected message: {msg}")
        }
        other => panic!("expected a storage error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Checkpointing compacts the WAL into a snapshot without losing anything:
/// the log collapses to its bare header, and a reopen off the snapshot
/// still serves the paid-for expansion at zero crowd cost.
#[test]
fn checkpoint_compacts_the_wal_and_preserves_state() {
    let dir = test_dir("checkpoint");
    let domain = domain();
    {
        let (db, meter) = open_bound(&dir, &domain);
        db.query(QUERY).run().unwrap();
        assert_eq!(meter.calls(), 1);
        let before = db.storage_stats().wal_bytes_total();
        assert!(
            before > 1000,
            "committed work fills the log ({before} bytes)"
        );
        let report = db.checkpoint().unwrap();
        assert_eq!(report.tables_snapshotted, vec!["movies".to_string()]);
        assert!(report.bytes_reclaimed > 0);
        let after = db.storage_stats().wal_bytes_total();
        assert!(
            after <= 64,
            "checkpoint truncates to header + config stamp, got {after} bytes"
        );
        assert!(dir
            .join("snap")
            .join(snapshot_file_name("movies", 0))
            .exists());
        // A second checkpoint with nothing new skips the clean table.
        let idle = db.checkpoint().unwrap();
        assert!(!idle.snapshotted_any());
        assert_eq!(idle.tables_skipped, vec!["movies".to_string()]);
    }
    let (db, meter) = open_bound(&dir, &domain);
    let outcome = db.query(QUERY).run().unwrap();
    assert_eq!(meter.calls(), 0);
    assert_eq!(meter.dollars(), 0.0);
    assert!(outcome.crowd_cost == 0.0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `checkpoint_full` re-snapshots every table, clean or not — the
/// backup/archival entry point (and the pre-sharding engine's behavior) —
/// while the incremental `checkpoint` keeps skipping clean tables.
#[test]
fn full_checkpoint_rewrites_clean_tables() {
    let dir = test_dir("full-checkpoint");
    let domain = domain();
    {
        let (db, _) = open_bound(&dir, &domain);
        db.execute("CREATE TABLE notes (item_id INTEGER, body TEXT)")
            .unwrap();
        db.execute("INSERT INTO notes (item_id, body) VALUES (1, 'kept')")
            .unwrap();
        // Incremental pass leaves both tables clean.
        let first = db.checkpoint().unwrap();
        assert_eq!(
            first.tables_snapshotted,
            vec!["movies".to_string(), "notes".to_string()]
        );
        // With nothing new, incremental skips everything ...
        let idle = db.checkpoint().unwrap();
        assert!(!idle.snapshotted_any());
        // ... but a full checkpoint still rewrites every snapshot.
        let full = db.checkpoint_full().unwrap();
        assert_eq!(
            full.tables_snapshotted,
            vec!["movies".to_string(), "notes".to_string()]
        );
        assert!(full.tables_skipped.is_empty());
        assert!(dir
            .join("snap")
            .join(snapshot_file_name("movies", 0))
            .exists());
        assert!(dir
            .join("snap")
            .join(snapshot_file_name("notes", 0))
            .exists());
    }
    let (db, meter) = open_bound(&dir, &domain);
    let notes = db.execute("SELECT item_id, body FROM notes").unwrap();
    assert_eq!(notes.rows.len(), 1);
    assert_eq!(meter.calls(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Checkpoint-then-replay equivalence: a database that expanded, was
/// checkpointed mid-history, kept working, died, and recovered must answer
/// exactly like an uninterrupted in-memory run under the same seeds — same
/// rows, same per-cell provenance, and the same judgment-cache contents.
#[test]
fn checkpoint_then_replay_matches_uninterrupted_run() {
    let dir = test_dir("equivalence");
    let domain = domain();

    let sql_insert = "INSERT INTO notes (item_id, body) VALUES (7, 'post-checkpoint')";

    // Interrupted, durable run: expansion → checkpoint → more committed
    // work (a second table + a mutation, landing in the fresh WAL) → death
    // → recovery.
    let recovered = {
        {
            let (db, _) = open_bound(&dir, &domain);
            db.query(QUERY).run().unwrap();
            assert!(db.checkpoint().unwrap().snapshotted_any());
            db.execute("CREATE TABLE notes (item_id INTEGER, body TEXT)")
                .unwrap();
            db.execute(sql_insert).unwrap();
        }
        let (db, meter) = open_bound(&dir, &domain);
        let outcome = db.query(QUERY).run().unwrap();
        assert_eq!(meter.calls(), 0);
        assert_eq!(
            db.execute("SELECT body FROM notes").unwrap().rows.len(),
            1,
            "post-checkpoint WAL records replay on top of the snapshot"
        );
        (rows_of(&outcome).clone(), db.cache_stats().entries)
    };

    // Uninterrupted, in-memory run of the same history.
    let uninterrupted = {
        let db = CrowdDb::new(direct_crowd_config());
        let space = build_space_for_domain(&domain, 8, 10).unwrap();
        let (crowd, _) = metered_crowd(&domain);
        db.load_domain("movies", &domain, space, crowd).unwrap();
        db.register_attribute("movies", "is_comedy", "Comedy")
            .unwrap();
        db.query(QUERY).run().unwrap();
        db.execute("CREATE TABLE notes (item_id INTEGER, body TEXT)")
            .unwrap();
        db.execute(sql_insert).unwrap();
        let outcome = db.query(QUERY).run().unwrap();
        (rows_of(&outcome).clone(), db.cache_stats().entries)
    };

    assert_eq!(recovered.0.columns, uninterrupted.0.columns);
    assert_eq!(recovered.0.rows, uninterrupted.0.rows);
    assert_eq!(recovered.0.provenance, uninterrupted.0.provenance);
    assert_eq!(recovered.1, uninterrupted.1, "same cached judgments");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Cache invalidation is durable: judgments distrusted in one process must
/// not resurrect in the next — a forced re-expansion after reopen pays the
/// crowd again.
#[test]
fn invalidation_survives_reopen() {
    let dir = test_dir("invalidate");
    let domain = domain();
    {
        let (db, meter) = open_bound(&dir, &domain);
        db.query(QUERY).run().unwrap();
        assert_eq!(meter.calls(), 1);
        db.invalidate_judgments("movies", "Comedy").unwrap();
    }
    let (db, meter) = open_bound(&dir, &domain);
    // The column is still materialized, so the plain query stays free…
    db.query(QUERY).run().unwrap();
    assert_eq!(meter.calls(), 0);
    // …but a forced re-expansion finds no cached judgments and pays.
    let report = db.expand_attribute("movies", "is_comedy").unwrap();
    assert!(
        meter.calls() >= 1,
        "invalidated judgments must be re-bought"
    );
    assert!(meter.dollars() > 0.0);
    assert_eq!(report.cache_hits, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The checkpoint crash window: the snapshot rename and the WAL reset are
/// two filesystem operations, so a crash between them leaves the **new**
/// snapshot next to the **complete old log**.  The generation stamp must
/// keep recovery from re-applying the log's non-idempotent records
/// (`Mutation` re-executes SQL!) on top of a snapshot that already
/// contains them.
#[test]
fn crash_between_snapshot_and_wal_reset_does_not_double_apply() {
    let dir = test_dir("snapshot-race");
    {
        let db = CrowdDb::open(&dir).unwrap();
        db.execute("CREATE TABLE notes (item_id INTEGER, body TEXT)")
            .unwrap();
        for i in 0..5 {
            db.execute(&format!(
                "INSERT INTO notes (item_id, body) VALUES ({i}, 'n{i}')"
            ))
            .unwrap();
        }
        // Reconstruct the crash state: snapshot written, segment reset lost.
        let wal_path = dir.join("wal").join(segment_file_name("notes", 0));
        let old_wal = std::fs::read(&wal_path).unwrap();
        assert!(db.checkpoint().unwrap().snapshotted_any());
        drop(db);
        std::fs::write(&wal_path, &old_wal).unwrap();
    }
    let db = CrowdDb::open(&dir).unwrap();
    assert_eq!(
        db.execute("SELECT body FROM notes").unwrap().rows.len(),
        5,
        "the snapshotted inserts must not replay a second time"
    );
    // The recovered database keeps committing normally.
    db.execute("INSERT INTO notes (item_id, body) VALUES (9, 'after')")
        .unwrap();
    drop(db);
    let db = CrowdDb::open(&dir).unwrap();
    assert_eq!(db.execute("SELECT body FROM notes").unwrap().rows.len(), 6);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The id-column configuration is load-bearing for replay (item-keyed
/// records route through it), so opening a directory under a different
/// `id_column` is rejected up front instead of misrouting paid-for cells.
#[test]
fn reopening_with_a_different_id_column_is_rejected() {
    let dir = test_dir("id-column");
    {
        let db = CrowdDb::open(&dir).unwrap();
        db.execute("CREATE TABLE notes (item_id INTEGER, body TEXT)")
            .unwrap();
    }
    let mismatched = CrowdDb::builder()
        .config(CrowdDbConfig {
            id_column: "movie_id".into(),
            ..Default::default()
        })
        .persistent(&dir)
        .open();
    match mismatched.map(|_| ()) {
        Err(CrowdDbError::Storage(msg)) => {
            assert!(msg.contains("item_id") && msg.contains("movie_id"))
        }
        other => panic!("expected a storage error, got {other:?}"),
    }
    // The original configuration still opens fine — including after a
    // checkpoint (the snapshot carries the same stamp).
    let db = CrowdDb::open(&dir).unwrap();
    assert!(db.checkpoint().unwrap().snapshotted_any());
    drop(db);
    assert!(CrowdDb::open(&dir).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Checkpointing runs under the *shared* catalog lock: concurrent readers,
/// concurrent mutations, and repeated checkpoints interleave without
/// deadlock (the catalog → WAL lock order admits no cycle), and the state
/// that survives a final reopen is complete.
#[test]
fn checkpoint_interleaves_with_concurrent_queries() {
    let dir = test_dir("concurrent-checkpoint");
    let domain = domain();
    {
        let (db, _) = open_bound(&dir, &domain);
        db.query(QUERY).run().unwrap();
        db.execute("CREATE TABLE notes (item_id INTEGER, body TEXT)")
            .unwrap();
        let db = &db;
        std::thread::scope(|scope| {
            for reader in 0..3 {
                scope.spawn(move || {
                    for _ in 0..30 {
                        let outcome = db.query(QUERY).run().unwrap();
                        assert!(!rows_of(&outcome).rows.is_empty(), "reader {reader}");
                    }
                });
            }
            scope.spawn(move || {
                for i in 0..20 {
                    db.execute(&format!(
                        "INSERT INTO notes (item_id, body) VALUES ({i}, 'note {i}')"
                    ))
                    .unwrap();
                }
            });
            scope.spawn(move || {
                for _ in 0..10 {
                    // An incremental checkpoint racing the writers may find
                    // every table clean — that is a valid (empty) report.
                    db.checkpoint().unwrap();
                }
            });
        });
        db.checkpoint().unwrap();
    }
    let (db, meter) = open_bound(&dir, &domain);
    assert_eq!(db.execute("SELECT body FROM notes").unwrap().rows.len(), 20);
    db.query(QUERY).run().unwrap();
    assert_eq!(meter.calls(), 0, "recovered expansion still serves free");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Fault injection on the adaptive judgment layer: the "process dies"
/// between adaptive acquisition rounds (a budget cuts life 1 off after the
/// first round and the database is dropped without checkpoint), then a
/// fresh process reopens the directory and runs the expansion to
/// completion.  Recovery must re-converge without panicking, and — the
/// no-double-charge contract — life 2 pays only for items life 1 never
/// finalized: its bill stays below a cold uninterrupted adaptive run, and
/// a repeat query after convergence costs exactly $0.00.
#[test]
fn kill_between_adaptive_rounds_reconverges_without_double_charge() {
    let dir = test_dir("adaptive-kill");
    let domain = domain();
    let space = || build_space_for_domain(&domain, 8, 10).unwrap();

    // Reference: a cold, uninterrupted adaptive expansion in memory.
    let (cold_db, cold_meter) = {
        let db = CrowdDb::new(direct_crowd_config());
        let (crowd, meter) = metered_crowd(&domain);
        db.load_domain("movies", &domain, space(), crowd).unwrap();
        db.register_attribute("movies", "is_comedy", "Comedy")
            .unwrap();
        (db, meter)
    };
    let cold = cold_db
        .query(QUERY)
        .mode(ExpansionMode::Full)
        .adaptive(true)
        .run()
        .unwrap();
    let cold_cost = cold_meter.dollars();
    assert!(cold_cost > 0.0);

    // A budget that covers the first adaptive round for half the items:
    // life 1 buys judgments for that half (finalized at their thin-evidence
    // posteriors and WAL-logged), the other half is denied untouched.
    let pricer = SimulatedCrowd::new(&domain, ExperimentRegime::TrustedWorkers, 31);
    let half = domain.items().len() / 2;
    let budget = pricer.adaptive_round_cost(half, 3).unwrap();

    // Life 1: the interrupted run.  Dropping the database without a
    // checkpoint is the kill; recovery will replay the WAL alone.
    let life1_cost = {
        let (db, meter) = open_bound(&dir, &domain);
        let outcome = db.query(QUERY).budget(budget).adaptive(true).run().unwrap();
        assert!(meter.dollars() > 0.0);
        assert!(meter.dollars() <= budget + 1e-9);
        assert!(
            rows_of(&outcome).missing_cells() > 0,
            "the budget must cut acquisition off mid-way for the fault to mean anything"
        );
        meter.dollars()
    };

    // Life 2: a fresh process re-runs the expansion to completion.
    let (db, meter) = open_bound(&dir, &domain);
    let outcome = db
        .query(QUERY)
        .mode(ExpansionMode::Full)
        .adaptive(true)
        .run()
        .unwrap();
    let life2_cost = meter.dollars();
    assert!(
        life2_cost > 0.0,
        "the denied half was never bought; completion must pay for it"
    );
    assert!(
        life2_cost < cold_cost,
        "life 2 (${life2_cost:.2}) re-bought items life 1 already finalized \
         (cold run costs ${cold_cost:.2})"
    );
    assert!(
        life1_cost + life2_cost < life1_cost + cold_cost,
        "sanity: the interrupted path never exceeds interrupted + cold"
    );
    // The recovered column is as complete as the uninterrupted one: every
    // item carries a cached judgment now (classified or honestly
    // unclassified), so nothing is left in the Missing-budget state.
    assert_eq!(
        rows_of(&outcome).rows.len(),
        rows_of(&cold).rows.len(),
        "recovered expansion must cover the full table"
    );

    // No double-charge: a repeat query in the recovered process is served
    // entirely from the judgment cache.
    let calls_before = meter.calls();
    let again = db
        .query(QUERY)
        .mode(ExpansionMode::Full)
        .adaptive(true)
        .run()
        .unwrap();
    assert_eq!(meter.calls(), calls_before, "no new crowd rounds");
    assert!(
        (meter.dollars() - life2_cost).abs() < 1e-12,
        "no new dollars"
    );
    assert_eq!(rows_of(&again), rows_of(&outcome));
    assert_eq!(again.crowd_cost, 0.0);

    let _ = std::fs::remove_dir_all(&dir);
}
