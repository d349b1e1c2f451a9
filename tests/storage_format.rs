//! The on-disk format keeps what a query reads exactly, and writes files
//! only for tables that exist.
//!
//! Rows sharing an item id can carry different provenance — an expansion
//! tags both, then an `UPDATE` by name overwrites one — and a row without
//! an id carries its own.  A `quality >= x` query over such a table must
//! answer the same live, after reopening from the log alone, and after a
//! full checkpoint and reopen, on `Single` and on `Hash{4}`: a snapshot
//! stores the tag of every row, not one per item.  And invalidating the
//! judgments of a table that does not exist fails without creating a
//! segment for it, however often the directory is reopened and
//! checkpointed.
//!
//! The bytes themselves are pinned too: on `Single` and `Hash{4}`, a
//! table of every stored type — an `INTEGER` id, a `TEXT` column holding a
//! `NULL`, a `FLOAT` column and a crowd-expanded `BOOLEAN` column with its
//! cached judgments — writes segments and, after a full checkpoint,
//! snapshots whose digests are literals here.  A change to how a table is
//! encoded on creation or in a snapshot shows up as a diff.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crowddb::prelude::*;
use crowddb::relational::{Column, RelationalError, Schema, Table};
use crowddb::storage::{segment_file_name, snapshot_file_name};
use crowdsim::JudgmentResponse;

/// Judgments per item; one of them always dissents.
const JUDGMENTS: u32 = 6;

/// Items `0..ITEMS` have coordinates in the perceptual space.
const ITEMS: i64 = 8;

/// The item two rows share.
const SHARED: i64 = 2;

/// The quality floor of the query: above the 5/6 agreement of every crowd
/// verdict, so it masks them and keeps stored values.
const FLOORED: &str = "SELECT item_id, label, is_comedy FROM items \
                       WITH EXPANSION (quality >= 0.95)";

/// A crowd that calls even items comedies, five of six workers agreeing.
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
                (0..JUDGMENTS).map(move |worker| Judgment {
                    item,
                    worker,
                    response: JudgmentResponse::from_bool(
                        (item % 2 == 0) == (worker + 1 < JUDGMENTS),
                    ),
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

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crowddb-format-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Rows for items `0..ITEMS`, a second row of item [`SHARED`] labelled
/// `twin`, and a row without an id.
fn items_table() -> Table {
    let schema = Schema::new(vec![
        Column::new("item_id", DataType::Integer),
        Column::new("label", DataType::Text),
    ])
    .unwrap();
    let mut table = Table::new("items", schema);
    let rows = (0..ITEMS)
        .map(|id| (Value::Integer(id), format!("item {id}")))
        .chain([
            (Value::Integer(SHARED), "twin".to_string()),
            (Value::Null, "no id".to_string()),
        ]);
    for (id, label) in rows {
        table.insert_row(vec![id, Value::Text(label)]).unwrap();
    }
    table
}

/// Opens the directory — creating the table on `spec` when it has none —
/// and binds the table.
fn open(dir: &Path, spec: &PartitionSpec) -> CrowdDb {
    let db = CrowdDb::builder()
        .config(CrowdDbConfig {
            strategy: ExpansionStrategy::DirectCrowd,
            ..Default::default()
        })
        .persistent(dir)
        .open()
        .unwrap();
    if db.catalog().table("items").is_err() {
        let options = TableOptions::new("items", "item_id").partitions(spec.clone());
        db.create_table_with(options, items_table()).unwrap();
    }
    let space =
        PerceptualSpace::new((0..ITEMS).map(|i| vec![i as f64 / 4.0, 0.0]).collect()).unwrap();
    db.bind_table("items", space, Box::new(EvenCrowd)).unwrap();
    db.register_attribute("items", "is_comedy", "Comedy")
        .unwrap();
    db
}

/// The floored query's rows and provenance, sorted by label; it must buy
/// nothing.
fn floored(db: &CrowdDb) -> Vec<(Vec<Value>, Vec<CellProvenance>)> {
    let outcome = db.query(FLOORED).run().unwrap();
    assert_eq!(
        outcome.crowd_cost, 0.0,
        "the floored query bought judgments"
    );
    let rows = outcome.rows().unwrap();
    let mut cells: Vec<(Vec<Value>, Vec<CellProvenance>)> = (0..rows.rows.len())
        .map(|row| (rows.rows[row].to_vec(), rows.provenance[row].to_vec()))
        .collect();
    cells.sort_by_key(|(values, _)| values[1].to_string());
    cells
}

/// The `is_comedy` cell of the row labelled `label`.
fn cell_of(cells: &[(Vec<Value>, Vec<CellProvenance>)], label: &str) -> (Value, CellProvenance) {
    let (values, provenance) = cells
        .iter()
        .find(|(values, _)| values[1] == Value::Text(label.into()))
        .unwrap();
    (values[2].clone(), provenance[2])
}

#[test]
fn rows_sharing_an_id_keep_their_own_tags_through_a_checkpoint() {
    for spec in [PartitionSpec::Single, PartitionSpec::Hash { n: 4 }] {
        let dir = test_dir(&format!("twins-{}", spec.partition_count()));
        let db = open(&dir, &spec);
        let expanded = db
            .query("SELECT item_id, is_comedy FROM items")
            .run()
            .unwrap();
        assert!(expanded.crowd_cost > 0.0);
        db.execute("UPDATE items SET is_comedy = false WHERE label = 'twin'")
            .unwrap();
        let live = floored(&db);
        assert_eq!(live.len(), ITEMS as usize + 2);
        // The two rows of the shared item diverge: the crowd's verdict is
        // masked by the floor, the user's value is stored.
        assert_eq!(
            cell_of(&live, &format!("item {SHARED}")),
            (Value::Null, MissingReason::BelowQualityFloor.into())
        );
        assert_eq!(
            cell_of(&live, "twin"),
            (Value::Boolean(false), CellProvenance::Stored)
        );
        assert_eq!(
            cell_of(&live, "no id"),
            (Value::Null, MissingReason::NoItemId.into())
        );
        drop(db);

        let db = open(&dir, &spec);
        assert_eq!(floored(&db), live, "{spec:?}: reopened from the log");
        db.checkpoint_full().unwrap();
        drop(db);
        let db = open(&dir, &spec);
        assert_eq!(
            floored(&db),
            live,
            "{spec:?}: reopened from a full checkpoint"
        );
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
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

#[test]
fn invalidating_a_missing_table_leaves_no_segment() {
    let dir = test_dir("stray");
    let db = open(&dir, &PartitionSpec::Single);
    let stats = db.cache_stats();
    let before = files(&dir);
    let error = db.invalidate_judgments("no_such_table", "comedy");
    assert!(
        matches!(
            error,
            Err(CrowdDbError::Relational(RelationalError::UnknownTable(_)))
        ),
        "{error:?}"
    );
    assert_eq!(db.cache_stats(), stats);
    assert_eq!(files(&dir), before, "the failed call wrote to the disk");
    drop(db);

    let db = open(&dir, &PartitionSpec::Single);
    db.checkpoint().unwrap();
    drop(db);
    assert!(!dir
        .join("wal")
        .join(segment_file_name("no_such_table", 0))
        .exists());
    assert!(dir.join("wal").join(segment_file_name("items", 0)).exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// FNV-1a, enough to pin a file's bytes to one literal.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One row per item `0..ITEMS`: its id, a label (`NULL` for item 3) and a
/// score of a quarter of the id.
fn typed_table() -> Table {
    let schema = Schema::new(vec![
        Column::new("item_id", DataType::Integer),
        Column::new("label", DataType::Text),
        Column::new("score", DataType::Float),
    ])
    .unwrap();
    let mut table = Table::new("typed", schema);
    for id in 0..ITEMS {
        let label = match id {
            3 => Value::Null,
            _ => Value::Text(format!("item {id}")),
        };
        table
            .insert_row(vec![
                Value::Integer(id),
                label,
                Value::Float(id as f64 / 4.0),
            ])
            .unwrap();
    }
    table
}

/// The digest of each partition's file, in `k` order, without its first
/// `head` and last `tail` bytes.
fn digests(
    dir: &Path,
    spec: &PartitionSpec,
    file: impl Fn(usize) -> PathBuf,
    (head, tail): (usize, usize),
) -> Vec<u64> {
    (0..spec.partition_count())
        .map(|k| {
            let bytes = std::fs::read(dir.join(file(k))).unwrap();
            fnv(&bytes[head..bytes.len() - tail])
        })
        .collect()
}

#[test]
fn creation_and_snapshot_bytes_are_pinned() {
    // A segment starts with 8 bytes of magic and an 8-byte generation read
    // from the clock; a snapshot file with 8 bytes of magic, the payload's
    // length and its checksum, and its payload ends with the segment's
    // generation and record count.
    const SEGMENT_HEADER: usize = 16;
    const SNAPSHOT_HEADER: usize = 20;
    const SNAPSHOT_STAMP: usize = 16;
    for (spec, segments, snapshots) in [
        (
            PartitionSpec::Single,
            vec![1402503482859841918],
            vec![13916906609276560407],
        ),
        (
            PartitionSpec::Hash { n: 4 },
            vec![
                11479324598840055028,
                10206387017771429480,
                5520347481831875576,
                18293365840265002446,
            ],
            vec![
                5709348423409275993,
                1694132119999091648,
                10117803313785245600,
                1327688780708403151,
            ],
        ),
    ] {
        let dir = test_dir(&format!("bytes-{}", spec.partition_count()));
        let db = CrowdDb::builder()
            .config(CrowdDbConfig {
                strategy: ExpansionStrategy::DirectCrowd,
                ..Default::default()
            })
            .persistent(&dir)
            .open()
            .unwrap();
        let options = TableOptions::new("typed", "item_id").partitions(spec.clone());
        db.create_table_with(options, typed_table()).unwrap();
        let space =
            PerceptualSpace::new((0..ITEMS).map(|i| vec![i as f64 / 4.0, 0.0]).collect()).unwrap();
        db.bind_table("typed", space, Box::new(EvenCrowd)).unwrap();
        db.register_attribute("typed", "is_comedy", "Comedy")
            .unwrap();
        let expanded = db
            .query("SELECT item_id, is_comedy FROM typed")
            .run()
            .unwrap();
        assert!(expanded.crowd_cost > 0.0);
        assert_eq!(db.judgment_cache().len(), ITEMS as usize);

        let wal = |k| PathBuf::from("wal").join(segment_file_name("typed", k));
        assert_eq!(
            digests(&dir, &spec, wal, (SEGMENT_HEADER, 0)),
            segments,
            "{spec:?}: segment bytes"
        );
        db.checkpoint_with(CheckpointOptions::full()).unwrap();
        let snap = |k| PathBuf::from("snap").join(snapshot_file_name("typed", k));
        assert_eq!(
            digests(&dir, &spec, snap, (SNAPSHOT_HEADER, SNAPSHOT_STAMP)),
            snapshots,
            "{spec:?}: snapshot bytes"
        );
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
