//! Recovery of a schema change whose fan-out a crash tore mid-way.
//!
//! A materialized column is logged to every partition of a partitioned
//! table, partition 0 first.  A crash between two of those appends leaves
//! partitions `0..j` with the column and the later ones without it.  Here
//! the segments of a persistent `Hash{4}` table are written through the
//! engine, and then a `MaterializeColumn` group is appended by hand to
//! partitions 0 and 1 only.  On reopen every partition must carry the
//! column: the rows of partitions 0 and 1 hold the logged values and
//! tags, and the rows of partitions 2 and 3 read `NULL`, tagged
//! `NotExpanded`.  A full checkpoint and a second reopen must keep the
//! same cells.

use std::path::{Path, PathBuf};

use crowddb::prelude::*;
use crowddb::relational::{Column, Schema, Table};
use crowddb::storage::{Wal, WalRecord};

const ITEMS: i64 = 40;
const SPEC: PartitionSpec = PartitionSpec::Hash { n: 4 };
/// The partitions the torn group reached.
const REACHED: usize = 2;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crowddb-torn-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> CrowdDb {
    CrowdDb::builder().persistent(dir).open().unwrap()
}

fn movies_table() -> Table {
    let schema = Schema::new(vec![
        Column::new("item_id", DataType::Integer),
        Column::new("name", DataType::Text),
    ])
    .unwrap();
    let mut table = Table::new("movies", schema);
    for id in 0..ITEMS {
        table
            .insert_row(vec![Value::Integer(id), Value::Text(format!("movie {id}"))])
            .unwrap();
    }
    table
}

/// The value and tag the torn group gives `item`: even items are crowd
/// verdicts, odd ones extracted.
fn logged_cell(item: u32) -> (Value, CellProvenance) {
    if item.is_multiple_of(2) {
        let tag = CellProvenance::CrowdDerived {
            confidence: 0.75,
            cost_share: 0.125,
        };
        (Value::Boolean(true), tag)
    } else {
        (Value::Boolean(false), CellProvenance::Extracted)
    }
}

/// The cell every row must hold after recovery.
fn expected_cell(item: u32) -> (Value, CellProvenance) {
    if SPEC.route_item(item) < REACHED {
        logged_cell(item)
    } else {
        (Value::Null, MissingReason::NotExpanded.into())
    }
}

/// Appends the `is_comedy` materialization to partitions `0..REACHED`,
/// each sliced to the items that route there — what the engine logs, cut
/// off by a crash before partition `REACHED`.
fn append_torn_group(dir: &Path) {
    for k in 0..REACHED {
        let items: Vec<u32> = (0..ITEMS as u32)
            .filter(|&item| SPEC.route_item(item) == k)
            .collect();
        let record = WalRecord::MaterializeColumn {
            table: "movies".into(),
            column: "is_comedy".into(),
            data_type: DataType::Boolean,
            values: items.iter().map(|&i| (i, logged_cell(i).0)).collect(),
            ledger: items.iter().map(|&i| (i, logged_cell(i).1)).collect(),
        };
        let path = dir.join("wal").join(format!("movies.p{k}.log"));
        let (mut wal, _) = Wal::open(path).unwrap();
        wal.append(&record).unwrap();
    }
}

/// Reads every row through a point `SELECT` pinned to its id — which runs
/// on the one partition holding it, so a partition lacking the column
/// would fail — and through one full scan.
fn check_cells(db: &CrowdDb) {
    for id in 0..ITEMS {
        let outcome = db
            .query(format!(
                "SELECT item_id, is_comedy FROM movies WHERE item_id = {id}"
            ))
            .run()
            .unwrap();
        let rows = outcome.rows().unwrap();
        assert_eq!(rows.rows.len(), 1, "id {id}");
        let (value, tag) = expected_cell(id as u32);
        assert_eq!(rows.rows[0][1], value, "value of id {id}");
        assert_eq!(
            rows.provenance_of(0, "is_comedy"),
            Some(tag),
            "tag of id {id}"
        );
    }
    let outcome = db
        .query("SELECT item_id, name, is_comedy FROM movies ORDER BY item_id")
        .run()
        .unwrap();
    let rows = outcome.rows().unwrap();
    assert_eq!(rows.rows.len(), ITEMS as usize);
    for (row, id) in rows.rows.iter().zip(0..) {
        let (value, tag) = expected_cell(id as u32);
        assert_eq!(row[0], Value::Integer(id));
        assert_eq!(row[1], Value::Text(format!("movie {id}")));
        assert_eq!(row[2], value, "value of id {id}");
        assert_eq!(rows.provenance[id as usize][2], tag, "tag of id {id}");
    }
    let catalog = db.catalog();
    let table = catalog.table("movies").unwrap();
    let names = table.schema().column_names();
    assert_eq!(names, ["item_id", "name", "is_comedy"]);
}

#[test]
fn a_torn_materialization_recovers_in_every_partition() {
    let dir = test_dir("materialize");
    {
        let db = open(&dir);
        db.create_table_with(
            TableOptions::new("movies", "item_id").partitions(SPEC),
            movies_table(),
        )
        .unwrap();
    }
    append_torn_group(&dir);

    let db = open(&dir);
    check_cells(&db);
    // Rows written after recovery reach every partition's schema.
    db.execute("INSERT INTO movies (item_id, name) VALUES (41, 'late'), (42, 'later')")
        .unwrap();
    db.execute("DELETE FROM movies WHERE item_id > 40").unwrap();
    db.checkpoint_full().unwrap();
    drop(db);

    let db = open(&dir);
    check_cells(&db);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
