//! The id column's key index answers exactly like a scan.
//!
//! Every table whose id column is `INTEGER` indexes it, on every layout,
//! and a `WHERE` that pins the id (`id = k`, `k = id`, or such a term
//! under a top-level `AND`) evaluates the filter only on the rows holding
//! that id.  Each pinned query here is checked against the same query
//! with an equivalent predicate the index cannot serve
//! (`id >= k AND id <= k`), through `run()` and through the streamed
//! snapshot: rows, row order and per-cell provenance must be identical,
//! and the pinned read must have scanned exactly the rows holding `k`.
//! The sweep repeats after every kind of row mutation — id updates,
//! deletes, re-inserts, schema growth, crowd expansion — and across a
//! checkpoint and reopen, on `Single`, `Hash{4}` and `Range` tables, in
//! memory and persistent.

use std::path::PathBuf;

use crowddb::prelude::*;
use crowddb::relational::{Column, Schema, Table};
use crowdsim::JudgmentResponse;

/// Ids beyond `u32` and past the last range bound.
const BIG: i64 = 5_000_000_000;

/// Ids that never hold a row.
const ABSENT: &[i64] = &[-2, 41, 999_999, i64::MAX];

/// A crowd that calls an item a comedy when its id is even, so every
/// layout receives the same verdicts.
struct EvenCrowd;

impl CrowdSource for EvenCrowd {
    fn collect(
        &mut self,
        items: &[u32],
        _attribute: &str,
        _seed: u64,
    ) -> Result<CrowdRun, CrowdDbError> {
        let judgments: Vec<Judgment> = items
            .iter()
            .flat_map(|&item| {
                (0..3u32).map(move |worker| Judgment {
                    item,
                    worker,
                    response: JudgmentResponse::from_bool(item % 2 == 0),
                    minutes: 1.0,
                    cumulative_cost: 0.0,
                    is_gold: false,
                })
            })
            .collect();
        Ok(CrowdRun {
            total_cost: 0.01 * judgments.len() as f64,
            judgments,
            total_minutes: 1.0,
            excluded_workers: Vec::new(),
            hits_completed: items.len(),
        })
    }

    fn describe(&self) -> String {
        "even crowd".into()
    }
}

fn layouts() -> Vec<PartitionSpec> {
    vec![
        PartitionSpec::Single,
        PartitionSpec::Hash { n: 4 },
        PartitionSpec::Range {
            bounds: vec![0, 20, 1 << 32],
        },
    ]
}

fn space() -> PerceptualSpace {
    let domain = SyntheticDomain::generate(&DomainConfig::movies().scaled(0.03), 7).unwrap();
    assert!(domain.items().len() >= 40);
    build_space_for_domain(&domain, 4, 2).unwrap()
}

/// `(item_id, label, score)` rows: ids `0..40`, three rows of id 7 and
/// two of id 12 (with tied scores), two `NULL` ids, negative ids and ids
/// beyond `u32`.
fn items_table() -> Table {
    let schema = Schema::new(vec![
        Column::new("item_id", DataType::Integer),
        Column::new("label", DataType::Text),
        Column::new("score", DataType::Integer),
    ])
    .unwrap();
    let mut table = Table::new("items", schema);
    let mut ids: Vec<Option<i64>> = (0..40).map(Some).collect();
    ids.extend([Some(7), None, Some(-3), Some(12), Some(7)]);
    ids.extend([Some(BIG), None, Some(-1_000_000), Some(BIG + 1)]);
    for (row, id) in ids.into_iter().enumerate() {
        table
            .insert_row(vec![
                id.map_or(Value::Null, Value::Integer),
                Value::Text(format!("row {row}")),
                Value::Integer(id.unwrap_or(0).rem_euclid(5)),
            ])
            .unwrap();
    }
    table
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crowddb-id-index-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: Option<&PathBuf>) -> CrowdDb {
    let builder = CrowdDb::builder().config(CrowdDbConfig {
        strategy: ExpansionStrategy::DirectCrowd,
        ..Default::default()
    });
    match dir {
        Some(dir) => builder.persistent(dir).open().unwrap(),
        None => builder.open().unwrap(),
    }
}

fn bind(db: &CrowdDb, space: &PerceptualSpace) {
    db.bind_table("items", space.clone(), Box::new(EvenCrowd))
        .unwrap();
    db.register_attribute("items", "is_comedy", "Comedy")
        .unwrap();
}

fn scanned(db: &CrowdDb) -> f64 {
    db.metrics_snapshot()
        .value("crowddb_rows_scanned_total", &[])
        .unwrap()
}

/// The streamed snapshot, the rows of `run()`, and the rows `run()`
/// scanned.
fn answer(db: &CrowdDb, sql: &str) -> (RowSet, RowSet, f64) {
    let mut stream = db.query(sql).stream();
    let snapshot = match stream.next() {
        Some(QueryEvent::Snapshot(rows)) => rows,
        other => panic!("{sql}: the first event must be the snapshot, got {other:?}"),
    };
    stream.wait().unwrap();
    let before = scanned(db);
    let rows = db.query(sql).run().unwrap().rows().unwrap().clone();
    (snapshot, rows, scanned(db) - before)
}

/// Every id the table holds, plus ids it never holds.
fn sweep_ids(db: &CrowdDb) -> Vec<i64> {
    let mut ids: Vec<i64> = db
        .execute("SELECT item_id FROM items")
        .unwrap()
        .rows
        .into_iter()
        .filter_map(|row| match row[0] {
            Value::Integer(id) => Some(id),
            _ => None,
        })
        .chain(ABSENT.iter().copied())
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Checks every query shape, pinned against unpinned, for every id.
fn sweep(db: &CrowdDb, context: &str) {
    for k in sweep_ids(db) {
        let pinned = format!("item_id = {k}");
        let flipped = format!("{k} = item_id");
        let unpinned = format!("item_id >= {k} AND item_id <= {k}");
        let (_, all, _) = answer(db, &format!("SELECT * FROM items WHERE {unpinned}"));
        let holders = all.rows.len() as f64;
        for (shape, predicate) in [
            ("SELECT * FROM items WHERE {}", &pinned),
            ("SELECT label, item_id FROM items WHERE {}", &flipped),
            (
                "SELECT item_id, score FROM items WHERE {} AND score > 1 ORDER BY score DESC",
                &pinned,
            ),
            (
                "SELECT label FROM items WHERE score >= 0 AND {} ORDER BY score LIMIT 1",
                &flipped,
            ),
        ] {
            let sql = shape.replace("{}", predicate);
            let (snapshot, rows, rows_scanned) = answer(db, &sql);
            let (want_snapshot, want_rows, _) = answer(db, &shape.replace("{}", &unpinned));
            assert_eq!(rows, want_rows, "{context}: {sql}");
            assert_eq!(snapshot, want_snapshot, "{context}: {sql}");
            assert_eq!(
                rows_scanned, holders,
                "{context}: {sql} scans the rows of {k}"
            );
        }
    }
}

/// Rows whose id is `k`, read without the index.
fn count(db: &CrowdDb, k: i64) -> usize {
    db.execute(&format!(
        "SELECT label FROM items WHERE item_id >= {k} AND item_id <= {k}"
    ))
    .unwrap()
    .rows
    .len()
}

fn exercise(spec: &PartitionSpec, dir: Option<PathBuf>, space: &PerceptualSpace) {
    let context = format!("{spec:?}, persistent: {}", dir.is_some());
    let db = open(dir.as_ref());
    db.create_table_with(
        TableOptions::new("items", "item_id").partitions(spec.clone()),
        items_table(),
    )
    .unwrap();
    bind(&db, space);
    sweep(&db, &format!("{context}, loaded"));

    // UPDATE and DELETE by id touch exactly the rows holding it.
    assert_eq!(count(&db, 7), 3);
    let updated = db
        .execute("UPDATE items SET score = 4 WHERE item_id = 7")
        .unwrap();
    assert_eq!(updated.rows_affected, 3);
    let deleted = db.execute("DELETE FROM items WHERE item_id = -3").unwrap();
    assert_eq!(deleted.rows_affected, 1);
    assert_eq!(count(&db, -3), 0);
    sweep(&db, &format!("{context}, updated and deleted by id"));

    // Moving rows between ids: in place on a Single table, refused on a
    // partitioned one.
    if spec.is_single() {
        db.execute("UPDATE items SET item_id = 700 WHERE item_id = 7")
            .unwrap();
        db.execute("UPDATE items SET item_id = item_id + 1 WHERE item_id >= 30 AND item_id < 35")
            .unwrap();
        assert_eq!((count(&db, 7), count(&db, 700), count(&db, 35)), (0, 3, 2));
    } else {
        assert!(db
            .execute("UPDATE items SET item_id = 700 WHERE item_id = 7")
            .is_err());
    }
    sweep(&db, &format!("{context}, ids updated"));

    // DELETE then re-INSERT the same id; a DELETE that renumbers most rows.
    db.execute("DELETE FROM items WHERE item_id = 12").unwrap();
    assert_eq!(count(&db, 12), 0);
    sweep(&db, &format!("{context}, id deleted"));
    db.execute("INSERT INTO items (item_id, label, score) VALUES (12, 'again', 2)")
        .unwrap();
    db.execute("DELETE FROM items WHERE score = 3").unwrap();
    sweep(&db, &format!("{context}, re-inserted"));

    // Schema growth: an ALTER, then a crowd expansion from a pinned read.
    db.execute("ALTER TABLE items ADD COLUMN extra INTEGER")
        .unwrap();
    db.execute("UPDATE items SET extra = 1 WHERE item_id = 5")
        .unwrap();
    let expanded = db
        .query("SELECT item_id, is_comedy FROM items WHERE item_id = 4")
        .run()
        .unwrap();
    assert_eq!(
        expanded.rows().unwrap().rows,
        vec![vec![Value::Integer(4), Value::Boolean(true)]]
    );
    sweep(&db, &format!("{context}, expanded"));

    let Some(dir) = dir else { return };
    db.checkpoint_with(CheckpointOptions::full()).unwrap();
    db.execute(
        "INSERT INTO items (item_id, label, score) VALUES (2000, 'tail', 1), (5, 'tail', 1)",
    )
    .unwrap();
    drop(db);
    let db = open(Some(&dir));
    assert_eq!((count(&db, 2000), count(&db, 5)), (1, 2));
    sweep(&db, &format!("{context}, reopened"));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pinned_reads_answer_like_scans_in_memory() {
    let space = space();
    for spec in layouts() {
        exercise(&spec, None, &space);
    }
}

#[test]
fn pinned_reads_answer_like_scans_persistent() {
    let space = space();
    for (n, spec) in layouts().iter().enumerate() {
        exercise(spec, Some(scratch(&format!("layout-{n}"))), &space);
    }
}

/// `i64::MIN` is writable in SQL: it round-trips through an `INSERT`, and
/// a `WHERE` pinning it routes to its partition and scans only its row,
/// in memory and across a reopen.
#[test]
fn i64_min_round_trips_and_pins() {
    const MIN: &str = "-9223372036854775808";
    let dir = scratch("i64-min");
    let db = open(Some(&dir));
    db.create_table_with(
        TableOptions::new("items", "item_id").partitions(PartitionSpec::Hash { n: 4 }),
        items_table(),
    )
    .unwrap();
    db.execute(&format!(
        "INSERT INTO items (item_id, label, score) VALUES ({MIN}, 'min', 1)"
    ))
    .unwrap();
    let check = |db: &CrowdDb| {
        let before = scanned(db);
        let outcome = db
            .query(format!(
                "SELECT item_id, label FROM items WHERE item_id = {MIN}"
            ))
            .run()
            .unwrap();
        assert_eq!(
            outcome.rows().unwrap().rows,
            [[Value::Integer(i64::MIN), Value::Text("min".into())]]
        );
        assert_eq!(scanned(db) - before, 1.0);
    };
    check(&db);
    drop(db);
    check(&open(Some(&dir)));
    let _ = std::fs::remove_dir_all(&dir);
}
