//! Heap allocations on the point-read path.
//!
//! Query-driven schema expansion puts parse → analyze on every query,
//! so a point read's fixed cost is dominated by small allocations: the
//! lexer's words, the parser's tokens, case-folded names.  This test
//! counts them with a global allocator whose counter is a
//! `const`-initialized thread-local, so tests running in parallel on
//! other threads never disturb a count.
//!
//! The point `SELECT` is the one `read_mix` issues.  A point `run()`
//! executes on the caller's thread, so every allocation it makes is
//! counted here.  The bounds are the counts the read path reaches: 10
//! for the parse (the statement's own strings, vectors and boxes) and
//! 28 for the whole `run()`, down from 44 and 90 when the lexer
//! allocated every word and names were folded by copying, from 38
//! when every result row and provenance row was a vector of its own,
//! from 36 when the query's monitor node copied its name and keys and
//! took its values one lock at a time, from 31 when the bound `WHERE`
//! boxed every operand and the provenance join built a table of column
//! positions, and from 29 when analysis copied the table's name.  A
//! 2,048-row range `run()` makes 39, not 4,147: its rows and their
//! provenance are two grids, one buffer each, so the count does not grow
//! with the rows returned (46 before its two comparisons bound to unboxed
//! terms, 40 before analysis stopped copying the name).
//! Draining a `stream()` of the same range with its text column, then
//! `wait()`, makes 7 on the caller's thread, not 2,065: the stream hands
//! the finished outcome over instead of copying it, string by string.
//! A checkpoint of a `Single` table with a text column encodes the
//! partition from the table itself under its shared lock: its count at
//! 16,384 rows exceeds its count at 1,024 rows only by the doublings of
//! the one buffer the snapshot is encoded into, where copying the rows
//! first cost two allocations per row.
//! Lower a bound when the path gets cheaper; never raise it without
//! saying why.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use crowddb::prelude::*;
use crowddb::relational::{sql, Column, DataType, Schema, Table, Value};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Most allocations parsing the point `SELECT` may make.
const PARSE_BOUND: u64 = 10;
/// Most allocations a point `run()` may make.
const RUN_BOUND: u64 = 28;
/// Most allocations a 2,048-row range `run()` may make.
const RANGE_RUN_BOUND: u64 = 39;
/// Most allocations draining a `stream()` of a 2,048-row range with a text
/// column, then `wait()`, may make on the caller's thread.
const RANGE_STREAM_BOUND: u64 = 7;

/// Allocations (including reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const ROWS: i64 = 4_096;
const POINT_SELECT: &str = "SELECT item_id, label, score, weight FROM items WHERE item_id = 1234";
/// Half the table, 2,048 rows from all four partitions.  It projects no
/// text column: a text cell owns its string, one allocation per cell
/// whatever holds the rows.
const RANGE_SELECT: &str =
    "SELECT item_id, score, weight FROM items WHERE item_id >= 1024 AND item_id < 3072";
/// The same half of the table with its text column: the result owns 2,048
/// strings, so copying it would cost one allocation per row.
const RANGE_TEXT_SELECT: &str =
    "SELECT item_id, label FROM items WHERE item_id >= 1024 AND item_id < 3072";

/// `read_mix`'s item table, 4,096 rows in `Hash{4}` partitions.
fn items_db() -> CrowdDb {
    let schema = Schema::new(vec![
        Column::not_null("item_id", DataType::Integer),
        Column::new("label", DataType::Text),
        Column::new("score", DataType::Integer),
        Column::new("weight", DataType::Float),
    ])
    .unwrap();
    let mut table = Table::new("items", schema);
    for id in 0..ROWS {
        table
            .insert_row(vec![
                Value::Integer(id),
                Value::Text(format!("item-{id:08x}")),
                Value::Integer(ROWS - id),
                Value::Float(id as f64 / ROWS as f64),
            ])
            .unwrap();
    }
    let db = CrowdDb::new(CrowdDbConfig::default());
    db.create_table_with(
        TableOptions::new("items", "item_id").partitions(PartitionSpec::Hash { n: 4 }),
        table,
    )
    .unwrap();
    db
}

#[test]
fn parsing_a_point_select_allocates_little() {
    // Warm up anything lazily initialized.
    sql::parse(POINT_SELECT).unwrap();
    let (count, statement) = allocations(|| sql::parse(POINT_SELECT).unwrap());
    assert!(statement.is_read_only());
    assert!(
        count <= PARSE_BOUND,
        "parsing the point SELECT made {count} allocations (bound {PARSE_BOUND})"
    );
}

#[test]
fn a_point_run_allocates_little() {
    let db = items_db();
    // Warm up: the first query initializes metrics and monitor state.
    for _ in 0..3 {
        db.query(POINT_SELECT).run().unwrap();
    }
    let (count, outcome) = allocations(|| db.query(POINT_SELECT).run().unwrap());
    let rows = outcome.rows().expect("a SELECT returns rows");
    assert_eq!(rows.rows.len(), 1);
    assert_eq!(rows.rows[0][0], Value::Integer(1234));
    assert!(
        count <= RUN_BOUND,
        "a point run() made {count} allocations (bound {RUN_BOUND})"
    );
}

#[test]
fn a_range_run_allocates_per_result_not_per_row() {
    let db = items_db();
    for _ in 0..3 {
        db.query(RANGE_SELECT).run().unwrap();
    }
    let (count, outcome) = allocations(|| db.query(RANGE_SELECT).run().unwrap());
    let rows = outcome.rows().expect("a SELECT returns rows");
    assert_eq!(rows.rows.len(), 2_048);
    assert_eq!(rows.provenance.len(), 2_048);
    assert!(
        count <= RANGE_RUN_BOUND,
        "a 2,048-row range run() made {count} allocations (bound {RANGE_RUN_BOUND})"
    );
}

#[test]
fn a_drained_stream_hands_its_outcome_over_without_copying() {
    let db = items_db();
    let drain = || {
        let mut stream = db.query(RANGE_TEXT_SELECT).stream();
        for event in &mut stream {
            drop(event);
        }
        stream.wait().unwrap()
    };
    for _ in 0..3 {
        drain();
    }
    // A worker still winding down the last job would make the next
    // submission spawn an overflow worker from this thread.
    while db.scheduler_stats().idle == 0 {
        std::thread::yield_now();
    }
    let (count, outcome) = allocations(drain);
    let rows = outcome.rows().expect("a SELECT returns rows");
    assert_eq!(rows.rows.len(), 2_048);
    assert!(matches!(rows.rows[0][1], Value::Text(_)));
    assert!(
        count <= RANGE_STREAM_BOUND,
        "draining a 2,048-row range stream() made {count} allocations \
         (bound {RANGE_STREAM_BOUND})"
    );
}

/// A persistent database in a fresh directory under the system's temp
/// directory, holding a `Single` table of `rows` rows with a text column.
fn persistent_db(rows: i64) -> (CrowdDb, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "crowddb-checkpoint-allocations-{rows}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let schema = Schema::new(vec![
        Column::not_null("item_id", DataType::Integer),
        Column::new("label", DataType::Text),
    ])
    .unwrap();
    let mut table = Table::new("items", schema);
    for id in 0..rows {
        table
            .insert_row(vec![
                Value::Integer(id),
                Value::Text(format!("item-{id:08x}")),
            ])
            .unwrap();
    }
    let db = CrowdDb::open(&dir).unwrap();
    db.create_table_with(TableOptions::new("items", "item_id"), table)
        .unwrap();
    (db, dir)
}

/// How many more allocations a checkpoint of 16,384 rows may make than one
/// of 1,024 rows: the snapshot's buffer doubles four more times to hold
/// sixteen times the bytes.
const CHECKPOINT_GROWTH_BOUND: u64 = 4;

#[test]
fn a_checkpoint_does_not_copy_the_partition() {
    let count = |rows| {
        let (db, dir) = persistent_db(rows);
        // Warm up: the first checkpoint creates the snapshot directory.
        db.checkpoint_with(CheckpointOptions::full()).unwrap();
        let (count, report) =
            allocations(|| db.checkpoint_with(CheckpointOptions::full()).unwrap());
        assert_eq!(report.partitions_snapshotted, 1);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
        count
    };
    let (small, large) = (count(1_024), count(16_384));
    assert!(
        large <= small + CHECKPOINT_GROWTH_BOUND,
        "a checkpoint made {small} allocations at 1,024 rows and {large} at 16,384 rows \
         (at most {CHECKPOINT_GROWTH_BOUND} more allowed)"
    );
}
