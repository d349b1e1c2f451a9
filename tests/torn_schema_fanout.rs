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
//!
//! Creation is torn the same way: a crash after a table's segment was
//! opened with its meta record and before its `CreateTable` landed leaves
//! a segment without the table, which reopen must drop with its file.
//! A checkpoint torn between a segment's reset and its meta record must
//! not drop the table its snapshot holds, and a segment whose meta
//! record names another partition is refused even under a snapshot.
//! A partitioned table left with no record of its spec is refused, its
//! files kept.

use std::path::{Path, PathBuf};

use crowddb::prelude::*;
use crowddb::relational::{Column, Schema, Table};
use crowddb::storage::{
    crc32, read_manifest, read_snapshot_file, segment_file_name, snapshot_file_name,
    write_manifest, Manifest, Wal, WalRecord, SNAP_DIR, WAL_DIR,
};

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

/// A one-partition table whose segment holds only its meta record — the
/// creation was torn before its `CreateTable` — is dropped on reopen, file
/// included, and its name can then be created under another spec.
#[test]
fn a_segment_without_its_table_is_dropped_on_reopen() {
    let dir = test_dir("ghost");
    std::fs::create_dir_all(dir.join(WAL_DIR)).unwrap();
    let manifest = Manifest {
        id_column: "item_id".into(),
        ..Manifest::default()
    };
    write_manifest(&dir, &manifest).unwrap();
    let segment = dir.join(WAL_DIR).join(segment_file_name("t", 0));
    let (mut wal, _) = Wal::open(&segment).unwrap();
    wal.append(&WalRecord::MetaPartition {
        id_column: "item_id".into(),
        partition: 0,
        spec: PartitionSpec::Single,
    })
    .unwrap();
    drop(wal);

    let db = open(&dir);
    assert!(db.catalog().table("t").is_err());
    assert!(db.storage_stats().tables.is_empty());
    assert!(
        !segment.exists(),
        "the half-created table's segment survived"
    );

    let schema = Schema::new(vec![Column::new("item_id", DataType::Integer)]).unwrap();
    let mut table = Table::new("t", schema);
    for id in 0..ITEMS {
        table.insert_row(vec![Value::Integer(id)]).unwrap();
    }
    db.create_table_with(TableOptions::new("t", "item_id").partitions(SPEC), table)
        .unwrap();
    drop(db);

    let db = open(&dir);
    assert_eq!(db.catalog().table("t").unwrap().len(), ITEMS as usize);
    let stats = db.storage_stats();
    assert_eq!(stats.tables.len(), 1);
    assert_eq!(stats.tables[0].table, "t");
    assert_eq!(stats.tables[0].spec, SPEC);
    assert_eq!(stats.tables[0].partitions.len(), SPEC.partition_count());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint that crashed between resetting a one-partition table's
/// segment and re-stamping it, on the table's first checkpoint, leaves the
/// snapshot holding the table, a segment with a bare header, and a
/// manifest that does not list the table yet.  Reopen must keep the table
/// and its rows.
#[test]
fn a_checkpoint_torn_before_its_meta_record_keeps_the_table() {
    let dir = test_dir("torn-reset");
    let db = open(&dir);
    let schema = Schema::new(vec![Column::new("item_id", DataType::Integer)]).unwrap();
    let mut table = Table::new("t", schema);
    for id in 0..ITEMS {
        table.insert_row(vec![Value::Integer(id)]).unwrap();
    }
    db.create_table_with(TableOptions::new("t", "item_id"), table)
        .unwrap();
    db.checkpoint_full().unwrap();
    drop(db);

    let mut manifest = read_manifest(&dir).unwrap().unwrap();
    manifest.tables.retain(|(table, _)| table != "t");
    write_manifest(&dir, &manifest).unwrap();
    let (mut wal, _) = Wal::open(dir.join(WAL_DIR).join(segment_file_name("t", 0))).unwrap();
    wal.reset().unwrap();
    drop(wal);
    assert!(dir.join(SNAP_DIR).join(snapshot_file_name("t", 0)).exists());

    for _ in 0..2 {
        let db = open(&dir);
        assert_eq!(db.catalog().table("t").unwrap().len(), ITEMS as usize);
        let stats = db.storage_stats();
        assert_eq!(stats.tables.len(), 1);
        assert_eq!(stats.tables[0].spec, PartitionSpec::Single);
        assert_eq!(stats.tables[0].partitions.len(), 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A segment whose meta record names another partition is refused, even
/// when the snapshot's skip count covers that record: here the segment
/// carries the generation the snapshot stamped, so replay skips its only
/// record.
#[test]
fn a_misplaced_segment_is_refused_under_its_snapshot() {
    let dir = test_dir("misplaced");
    let db = open(&dir);
    db.create_table_with(TableOptions::new("movies", "item_id"), movies_table())
        .unwrap();
    db.checkpoint_full().unwrap();
    drop(db);

    let snapshot = dir.join(SNAP_DIR).join(snapshot_file_name("movies", 0));
    let image = read_snapshot_file(&snapshot).unwrap().unwrap();
    let payload = WalRecord::MetaPartition {
        id_column: "item_id".into(),
        partition: 1,
        spec: PartitionSpec::Single,
    }
    .encode();
    let mut bytes = b"CDBWAL01".to_vec();
    bytes.extend_from_slice(&image.wal_generation.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    let segment = dir.join(WAL_DIR).join(segment_file_name("movies", 0));
    std::fs::write(&segment, &bytes).unwrap();

    let err = CrowdDb::builder()
        .persistent(&dir)
        .open()
        .err()
        .expect("a misplaced segment must be refused");
    assert!(
        err.to_string().contains("meta record for partition 1"),
        "{err}"
    );
    assert_eq!(std::fs::read(&segment).unwrap(), bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same torn checkpoint on every partition of a partitioned table
/// leaves no record of its spec: reopen is refused and the files stay.
#[test]
fn a_partitioned_table_without_any_spec_is_refused_not_dropped() {
    let dir = test_dir("no-spec");
    let db = open(&dir);
    db.create_table_with(
        TableOptions::new("movies", "item_id").partitions(SPEC),
        movies_table(),
    )
    .unwrap();
    db.checkpoint_full().unwrap();
    drop(db);

    let mut manifest = read_manifest(&dir).unwrap().unwrap();
    manifest.tables.clear();
    write_manifest(&dir, &manifest).unwrap();
    for k in 0..SPEC.partition_count() {
        let (mut wal, _) =
            Wal::open(dir.join(WAL_DIR).join(segment_file_name("movies", k))).unwrap();
        wal.reset().unwrap();
    }

    let err = CrowdDb::builder()
        .persistent(&dir)
        .open()
        .err()
        .expect("a table without a spec must be refused");
    assert!(
        err.to_string().contains("none records its partitioning"),
        "{err}"
    );
    for k in 0..SPEC.partition_count() {
        assert!(dir
            .join(SNAP_DIR)
            .join(snapshot_file_name("movies", k))
            .exists());
        assert!(dir
            .join(WAL_DIR)
            .join(segment_file_name("movies", k))
            .exists());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
