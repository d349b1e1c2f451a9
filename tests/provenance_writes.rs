//! Every write path sets a cell's provenance together with its value.
//!
//! One case per way a cell of an expanded column can change: SQL `UPDATE`,
//! `DELETE` followed by a re-`INSERT` of the id, an `INSERT` of a new id,
//! a repair round, a numeric (SVR) expansion, and an `UPDATE` that
//! overwrites every budget hole of an incomplete column — and a column
//! write or SQL `INSERT`/`UPDATE`/`DELETE` that fails, which must change
//! no cell and log nothing.  Each case runs
//! on `Single` and `Hash{4}` tables, in memory and persistent; the
//! persistent runs also check that reopening — before and after a full
//! checkpoint — gives back bit-identical rows and provenance.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crowddb::prelude::*;
use crowddb::relational::{Column, RelationalError, Schema, Table};
use crowdsim::JudgmentResponse;

/// Items `0..IN_SPACE` have coordinates in the perceptual space.
const IN_SPACE: i64 = 24;

/// An id with a row but no coordinates in the space.
const OUTSIDE: i64 = 9000;

/// Judgments per item; one of them always dissents.
const JUDGMENTS: u32 = 6;

/// The agreement behind every verdict of [`LabelCrowd`].
const AGREEMENT: f64 = (JUDGMENTS - 1) as f64 / JUDGMENTS as f64;

/// Dollars per judgment.
const PRICE: f64 = 0.01;

/// A crowd that calls items `0..12` comedies, except item 3 — an isolated
/// label the perceptual space contradicts, so a repair audit flags it.
/// Five of six workers give the verdict, so every verdict carries an
/// agreement of 5/6.
struct LabelCrowd {
    calls: Arc<AtomicUsize>,
}

impl CrowdSource for LabelCrowd {
    fn collect(
        &mut self,
        items: &[u32],
        _attribute: &str,
        _seed: u64,
    ) -> Result<CrowdRun, CrowdDbError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        let judgments: Vec<Judgment> = items
            .iter()
            .flat_map(|&item| {
                let verdict = item < 12 && item != 3;
                (0..JUDGMENTS).map(move |worker| Judgment {
                    item,
                    worker,
                    response: JudgmentResponse::from_bool(verdict == (worker + 1 < JUDGMENTS)),
                    minutes: 1.0,
                    cumulative_cost: 0.0,
                    is_gold: false,
                })
            })
            .collect();
        Ok(CrowdRun {
            total_cost: PRICE * judgments.len() as f64,
            judgments,
            total_minutes: 1.0,
            excluded_workers: Vec::new(),
            hits_completed: items.len(),
        })
    }

    fn estimate_cost(&self, n_items: usize) -> Option<f64> {
        Some(PRICE * (JUDGMENTS as usize * n_items) as f64)
    }

    fn describe(&self) -> String {
        "label crowd".into()
    }
}

fn layouts() -> [PartitionSpec; 2] {
    [PartitionSpec::Single, PartitionSpec::Hash { n: 4 }]
}

fn space() -> PerceptualSpace {
    PerceptualSpace::new((0..IN_SPACE).map(|i| vec![i as f64 / 4.0, 0.0]).collect()).unwrap()
}

/// `(item_id, label)` rows for ids `0..IN_SPACE` and [`OUTSIDE`].
fn items_table() -> Table {
    let schema = Schema::new(vec![
        Column::not_null("item_id", DataType::Integer),
        Column::new("label", DataType::Text),
    ])
    .unwrap();
    let mut table = Table::new("items", schema);
    for id in (0..IN_SPACE).chain([OUTSIDE]) {
        table
            .insert_row(vec![Value::Integer(id), Value::Text(format!("item {id}"))])
            .unwrap();
    }
    table
}

/// Opens the database — creating the table on `spec` when it has none —
/// and (re-)binds the table; the crowd's dispatch counter comes with it.
fn open(dir: Option<&Path>, spec: &PartitionSpec) -> (CrowdDb, Arc<AtomicUsize>) {
    let builder = CrowdDb::builder().config(CrowdDbConfig {
        strategy: ExpansionStrategy::DirectCrowd,
        ..Default::default()
    });
    let db = match dir {
        Some(dir) => builder.persistent(dir).open().unwrap(),
        None => builder.open().unwrap(),
    };
    if db.catalog().table("items").is_err() {
        let options = TableOptions::new("items", "item_id").partitions(spec.clone());
        db.create_table_with(options, items_table()).unwrap();
    }
    let calls = Arc::new(AtomicUsize::new(0));
    let crowd = LabelCrowd {
        calls: Arc::clone(&calls),
    };
    db.bind_table("items", space(), Box::new(crowd)).unwrap();
    db.register_attribute("items", "is_comedy", "Comedy")
        .unwrap();
    (db, calls)
}

fn scratch(case: &str, spec: &PartitionSpec) -> PathBuf {
    let layout = if spec.is_single() { "single" } else { "hash4" };
    let dir = std::env::temp_dir().join(format!(
        "crowddb-provenance-{case}-{layout}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every cell of the table with its provenance, read without expanding.
fn all_cells(db: &CrowdDb) -> RowSet {
    db.query("SELECT * FROM items WITH EXPANSION (mode = deny)")
        .run()
        .unwrap()
        .rows()
        .unwrap()
        .clone()
}

/// Runs `case` on every layout, in memory and persistent; a persistent
/// database must then reopen — from its log, and again from a full
/// checkpoint — to exactly the cells it held.
fn on_every_layout(name: &str, case: impl Fn(&CrowdDb, &AtomicUsize)) {
    for spec in layouts() {
        for persistent in [false, true] {
            let dir = persistent.then(|| scratch(name, &spec));
            let (db, calls) = open(dir.as_deref(), &spec);
            case(&db, &calls);
            let Some(dir) = dir else { continue };
            let cells = all_cells(&db);
            drop(db);
            let (db, _) = open(Some(&dir), &spec);
            let context = format!("{name}, {spec:?}");
            assert_eq!(all_cells(&db), cells, "{context}: reopened from the log");
            db.checkpoint_with(CheckpointOptions::full()).unwrap();
            drop(db);
            let (db, _) = open(Some(&dir), &spec);
            assert_eq!(
                all_cells(&db),
                cells,
                "{context}: reopened from a checkpoint"
            );
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The `is_comedy` cell of item `id` and its provenance.
fn cell(db: &CrowdDb, column: &str, id: i64) -> (Value, CellProvenance) {
    let outcome = db
        .query(format!(
            "SELECT item_id, {column} FROM items WHERE item_id = {id} \
             WITH EXPANSION (mode = deny)"
        ))
        .run()
        .unwrap();
    let rows = outcome.rows().unwrap();
    assert_eq!(rows.rows.len(), 1, "one row holds item {id}");
    (rows.rows[0][1].clone(), rows.provenance[0][1])
}

/// Expands `is_comedy` over the whole table, paying for every item.
fn expand(db: &CrowdDb) {
    let outcome = db
        .query("SELECT item_id, is_comedy FROM items")
        .run()
        .unwrap();
    assert!(outcome.crowd_cost > 0.0);
}

fn crowd_derived(provenance: CellProvenance) -> bool {
    matches!(
        provenance,
        CellProvenance::CrowdDerived { confidence, .. } if (confidence - AGREEMENT).abs() < 1e-12
    )
}

const NOT_EXPANDED: CellProvenance = CellProvenance::Missing {
    reason: MissingReason::NotExpanded,
};

#[test]
fn an_updated_cell_reads_stored_and_passes_any_quality_floor() {
    on_every_layout("update", |db, _| {
        expand(db);
        let (value, provenance) = cell(db, "is_comedy", 5);
        assert_eq!(value, Value::Boolean(true));
        assert!(crowd_derived(provenance), "{provenance:?}");

        db.execute("UPDATE items SET is_comedy = false WHERE item_id = 5")
            .unwrap();
        db.execute("UPDATE items SET is_comedy = NULL WHERE item_id = 6")
            .unwrap();
        assert_eq!(
            cell(db, "is_comedy", 5),
            (Value::Boolean(false), CellProvenance::Stored)
        );
        assert_eq!(
            cell(db, "is_comedy", 6),
            (Value::Null, CellProvenance::Stored)
        );
        assert!(
            crowd_derived(cell(db, "is_comedy", 4).1),
            "a neighbour keeps its tag"
        );

        // The floor masks the 5/6-agreement verdicts, never the user's value.
        let floored = db
            .query(
                "SELECT item_id, is_comedy FROM items WHERE item_id = 5 \
                 WITH EXPANSION (quality >= 0.95)",
            )
            .run()
            .unwrap();
        let rows = floored.rows().unwrap();
        assert_eq!(rows.rows[0][1], Value::Boolean(false));
        assert_eq!(rows.provenance[0][1], CellProvenance::Stored);
        let masked = db
            .query(
                "SELECT item_id, is_comedy FROM items WHERE item_id = 4 \
                 WITH EXPANSION (quality >= 0.95)",
            )
            .run()
            .unwrap();
        assert_eq!(
            masked.rows().unwrap().provenance[0][1],
            CellProvenance::Missing {
                reason: MissingReason::BelowQualityFloor
            }
        );
    });
}

#[test]
fn a_deleted_and_reinserted_id_reads_stored() {
    on_every_layout("reinsert", |db, _| {
        expand(db);
        db.execute("DELETE FROM items WHERE item_id = 5").unwrap();
        db.execute("INSERT INTO items (item_id, label, is_comedy) VALUES (5, 'again', false)")
            .unwrap();
        assert_eq!(
            cell(db, "is_comedy", 5),
            (Value::Boolean(false), CellProvenance::Stored)
        );
        // The rows the DELETE moved keep their own values and tags.
        for id in (0..IN_SPACE).filter(|&id| id != 5) {
            let (value, provenance) = cell(db, "is_comedy", id);
            assert_eq!(value, Value::Boolean(id < 12 && id != 3), "item {id}");
            assert!(crowd_derived(provenance), "item {id}: {provenance:?}");
        }
    });
}

#[test]
fn an_inserted_id_reads_not_expanded_when_null_and_stored_with_a_value() {
    on_every_layout("insert", |db, _| {
        expand(db);
        db.execute("INSERT INTO items (item_id, label) VALUES (100, 'new')")
            .unwrap();
        db.execute("INSERT INTO items (item_id, label, is_comedy) VALUES (101, 'set', true)")
            .unwrap();
        assert_eq!(cell(db, "is_comedy", 100), (Value::Null, NOT_EXPANDED));
        assert_eq!(
            cell(db, "is_comedy", 101),
            (Value::Boolean(true), CellProvenance::Stored)
        );
    });
}

#[test]
fn a_repaired_cell_reads_crowd_derived_with_full_confidence() {
    on_every_layout("repair", |db, _| {
        expand(db);
        let outcome = db
            .repair_attribute("items", "is_comedy", &Default::default())
            .unwrap();
        assert!(outcome.flagged.contains(&3), "the audit flags item 3");
        assert!(outcome.repair_cost > 0.0);
        for id in 0..IN_SPACE {
            let (value, provenance) = cell(db, "is_comedy", id);
            assert_eq!(value, Value::Boolean(outcome.labels[id as usize]));
            if outcome.flagged.contains(&(id as u32)) {
                assert_eq!(
                    provenance,
                    CellProvenance::CrowdDerived {
                        confidence: 1.0,
                        cost_share: 0.0
                    },
                    "repaired item {id}"
                );
            } else {
                assert!(crowd_derived(provenance), "item {id}: {provenance:?}");
            }
        }
    });
}

#[test]
fn an_svr_cell_reads_extracted_or_out_of_space() {
    on_every_layout("svr", |db, _| {
        let gold: Vec<(u32, f64)> = vec![(0, 0.0), (8, 2.0), (16, 4.0), (23, 5.75)];
        let report = db
            .expand_numeric_attribute("items", "humor", &gold, &Default::default())
            .unwrap();
        assert_eq!(report.items_unmapped, 1);
        for id in 0..IN_SPACE {
            let (value, provenance) = cell(db, "humor", id);
            assert!(matches!(value, Value::Float(_)), "item {id}: {value:?}");
            assert_eq!(provenance, CellProvenance::Extracted, "item {id}");
        }
        assert_eq!(
            cell(db, "humor", OUTSIDE),
            (
                Value::Null,
                CellProvenance::Missing {
                    reason: MissingReason::OutOfSpace
                }
            )
        );
    });
}

#[test]
fn overwriting_every_budget_hole_completes_the_column() {
    on_every_layout("holes", |db, calls| {
        let budget = PRICE * f64::from(JUDGMENTS) * 8.0;
        let outcome = db
            .query("SELECT item_id, is_comedy FROM items")
            .mode(ExpansionMode::BestEffort)
            .budget(budget)
            .run()
            .unwrap();
        let holes = outcome.rows().unwrap().provenance.iter().filter(|row| {
            row[1]
                == CellProvenance::Missing {
                    reason: MissingReason::BudgetExhausted,
                }
        });
        assert!(holes.count() > 0, "the budget leaves holes");
        let planned = |db: &CrowdDb| {
            db.query("EXPLAIN EXPANSION SELECT item_id, is_comedy FROM items")
                .run()
                .unwrap()
                .rows()
                .unwrap()
                .rows
                .len()
        };
        assert_eq!(planned(db), 1, "the holes leave the column incomplete");

        db.execute("UPDATE items SET is_comedy = true WHERE is_comedy IS NULL")
            .unwrap();
        assert_eq!(planned(db), 0, "no hole is left to fill");
        let dispatched = calls.load(Ordering::SeqCst);
        let full = db
            .query("SELECT item_id, is_comedy FROM items")
            .mode(ExpansionMode::Full)
            .run()
            .unwrap();
        assert!(full.reports.is_empty());
        assert_eq!(full.crowd_cost, 0.0);
        assert_eq!(calls.load(Ordering::SeqCst), dispatched, "no crowd round");
    });
}

#[test]
fn a_failed_column_write_changes_no_cell_and_logs_nothing() {
    on_every_layout("failed", |db, _| {
        // Rows of items outside the space come first, so a write that
        // fails at the first in-space row has already passed some.
        db.execute(&format!("DELETE FROM items WHERE item_id < {IN_SPACE}"))
            .unwrap();
        let rows: Vec<String> = (OUTSIDE + 1..OUTSIDE + 9)
            .chain(0..IN_SPACE)
            .map(|id| format!("({id}, 'item {id}')"))
            .collect();
        db.execute(&format!(
            "INSERT INTO items (item_id, label) VALUES {}",
            rows.join(", ")
        ))
        .unwrap();
        let cells = all_cells(db);
        let storage = db.storage_stats();
        // `label` is TEXT: a FLOAT column cannot be materialized into it,
        // not even in the NULL cell of the item outside the space.
        let gold: Vec<(u32, f64)> = vec![(0, 0.0), (8, 2.0), (16, 4.0), (23, 5.75)];
        let error = db
            .expand_numeric_attribute("items", "label", &gold, &Default::default())
            .unwrap_err();
        assert!(
            matches!(
                error,
                CrowdDbError::Relational(RelationalError::TypeMismatch(_))
            ),
            "{error:?}"
        );
        for id in (OUTSIDE..OUTSIDE + 9).chain(0..IN_SPACE) {
            let text = Value::Text(format!("item {id}"));
            assert_eq!(cell(db, "label", id), (text, CellProvenance::Stored));
        }
        assert_eq!(all_cells(db), cells, "every cell is unchanged");
        assert_eq!(db.storage_stats(), storage, "no record is logged");
    });
}

#[test]
fn a_failed_sql_write_changes_no_cell_and_logs_nothing() {
    on_every_layout("failed-sql", |db, _| {
        // `n` holds each item's id, except that the item routed to the
        // last partition of `Hash{4}` holds `i64::MAX`: a statement that
        // fails on its row has already passed rows of other partitions,
        // and on `Single` the rows before it.
        let late = (0..IN_SPACE)
            .max_by_key(|&id| PartitionSpec::Hash { n: 4 }.route_id(id))
            .unwrap();
        db.execute("ALTER TABLE items ADD COLUMN n INTEGER")
            .unwrap();
        db.execute("UPDATE items SET n = item_id").unwrap();
        db.execute(&format!(
            "UPDATE items SET n = {} WHERE item_id = {late}",
            i64::MAX
        ))
        .unwrap();
        let cells = all_cells(db);
        let storage = db.storage_stats();
        let overflow = || RelationalError::Evaluation("integer overflow".into());
        let failures = [
            // The second row's `n` is TEXT.
            (
                "INSERT INTO items (item_id, n) VALUES (100, 1), (101, 'x')",
                RelationalError::TypeMismatch(
                    "value 'x' is not valid for column n of type INTEGER".into(),
                ),
            ),
            ("UPDATE items SET n = n + 1", overflow()),
            ("DELETE FROM items WHERE n + 1 > 3", overflow()),
        ];
        for (sql, expected) in failures {
            let error = db.execute(sql).unwrap_err();
            assert_eq!(error, CrowdDbError::Relational(expected), "{sql}");
            assert_eq!(all_cells(db), cells, "{sql}: every cell is unchanged");
            assert_eq!(db.storage_stats(), storage, "{sql}: no record is logged");
        }
    });
}

#[test]
fn a_column_write_of_null_into_a_not_null_column_changes_nothing() {
    for spec in layouts() {
        // `score` is NOT NULL, and the regression reaches every item but
        // the one outside the space.
        let schema = Schema::new(vec![
            Column::not_null("item_id", DataType::Integer),
            Column::not_null("score", DataType::Float),
        ])
        .unwrap();
        let mut table = Table::new("scores", schema);
        for id in (0..IN_SPACE).chain([OUTSIDE]) {
            table
                .insert_row(vec![Value::Integer(id), Value::Float(-1.0)])
                .unwrap();
        }
        let db = CrowdDb::builder().open().unwrap();
        let options = TableOptions::new("scores", "item_id").partitions(spec.clone());
        db.create_table_with(options, table).unwrap();
        let crowd = LabelCrowd {
            calls: Arc::new(AtomicUsize::new(0)),
        };
        db.bind_table("scores", space(), Box::new(crowd)).unwrap();
        let read = || db.execute("SELECT * FROM scores ORDER BY item_id").unwrap();
        let before = read();
        let gold: Vec<(u32, f64)> = vec![(0, 0.0), (8, 2.0), (16, 4.0), (23, 5.75)];
        let error = db
            .expand_numeric_attribute("scores", "score", &gold, &Default::default())
            .unwrap_err();
        let expected = RelationalError::TypeMismatch("column score is NOT NULL".into());
        assert_eq!(error, CrowdDbError::Relational(expected), "{spec:?}");
        assert_eq!(read(), before, "{spec:?}: every cell is unchanged");
    }
}
