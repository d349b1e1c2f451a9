//! SQL over values at the edge of a column's rules, on `Single` and
//! `Hash{4}` tables: an `UPDATE` may not put `NULL` into a `NOT NULL`
//! column, and `ORDER BY` sorts a NaN produced by SQL arithmetic
//! between the numbers and the `NULL`s.

use crowddb::prelude::*;
use crowddb::relational::{Column, RelationalError, Schema, Table};

fn layouts() -> [PartitionSpec; 2] {
    [PartitionSpec::Single, PartitionSpec::Hash { n: 4 }]
}

/// `(item_id, n, s)` rows for ids `0..8`: `n = 10 * id`, and `s` is the
/// id as a float except for id 6, whose `s` is `NULL`.
fn table() -> Table {
    let schema = Schema::new(vec![
        Column::not_null("item_id", DataType::Integer),
        Column::not_null("n", DataType::Integer),
        Column::new("s", DataType::Float),
    ])
    .unwrap();
    let mut table = Table::new("t", schema);
    for id in 0..8 {
        let s = if id == 6 {
            Value::Null
        } else {
            Value::Float(id as f64)
        };
        table
            .insert_row(vec![Value::Integer(id), Value::Integer(10 * id), s])
            .unwrap();
    }
    table
}

/// A database holding [`table`] on `spec`, persistent in `dir` if given.
fn open(spec: &PartitionSpec, dir: Option<&std::path::Path>) -> CrowdDb {
    let db = match dir {
        Some(dir) => CrowdDb::builder().persistent(dir).open().unwrap(),
        None => CrowdDb::builder().open().unwrap(),
    };
    if db.catalog().table("t").is_err() {
        let options = TableOptions::new("t", "item_id").partitions(spec.clone());
        db.create_table_with(options, table()).unwrap();
    }
    db
}

/// Every row of `t`, in id order.
fn rows(db: &CrowdDb) -> Vec<Vec<Value>> {
    let result = db.execute("SELECT * FROM t ORDER BY item_id").unwrap();
    result.rows.iter().map(|row| row.to_vec()).collect()
}

/// The ids `sql` returns, in order.
fn ids(db: &CrowdDb, sql: &str) -> Vec<i64> {
    let result = db.execute(sql).unwrap();
    (result.rows.iter())
        .map(|row| match row[0] {
            Value::Integer(id) => id,
            ref other => panic!("{sql}: id {other:?}"),
        })
        .collect()
}

#[test]
fn an_update_to_null_in_a_not_null_column_is_refused_and_changes_nothing() {
    for spec in layouts() {
        for persistent in [false, true] {
            let dir = persistent.then(|| {
                let layout = if spec.is_single() { "single" } else { "hash4" };
                let dir = std::env::temp_dir().join(format!(
                    "crowddb-sql-values-{layout}-{}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                dir
            });
            let db = open(&spec, dir.as_deref());
            let before = rows(&db);
            let storage = db.storage_stats();
            for sql in [
                "UPDATE t SET n = NULL WHERE item_id = 3",
                "UPDATE t SET n = NULL",
            ] {
                let error = db.execute(sql).unwrap_err();
                let expected = RelationalError::TypeMismatch("column n is NOT NULL".into());
                assert_eq!(error, CrowdDbError::Relational(expected), "{spec:?}: {sql}");
                assert_eq!(rows(&db), before, "{spec:?}: {sql} changes no row");
                assert_eq!(db.storage_stats(), storage, "{spec:?}: {sql} logs nothing");
            }
            let Some(dir) = dir else { continue };
            drop(db);
            assert_eq!(rows(&open(&spec, Some(&dir))), before, "{spec:?}: reopened");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn order_by_sorts_nan_between_the_numbers_and_the_nulls() {
    // 1e400 overflows to infinity, and infinity minus infinity is NaN.
    let huge = format!("1{}.0", "0".repeat(400));
    for spec in layouts() {
        let db = open(&spec, None);
        db.execute(&format!(
            "UPDATE t SET s = {huge} - {huge} WHERE item_id = 3"
        ))
        .unwrap();
        let ascending = ids(&db, "SELECT item_id FROM t ORDER BY s");
        assert_eq!(ascending, vec![0, 1, 2, 4, 5, 7, 3, 6], "{spec:?}: ASC");
        let descending = ids(&db, "SELECT item_id FROM t ORDER BY s DESC");
        assert_eq!(descending, vec![6, 3, 7, 5, 4, 2, 1, 0], "{spec:?}: DESC");
    }
}
