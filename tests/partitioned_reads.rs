//! Partitioned reads answer exactly like a single-partition table.
//!
//! The same rows are loaded into a `Hash{4}` and a `Range` table, and
//! into `Single` tables holding them in each layout's partition order
//! (the order a partitioned table's rows are read in).  Every query must
//! return identical rows, row order, tie order and per-cell provenance
//! through `run()` and through the streamed snapshot — whether the read
//! is routed to the one partition its id pins or scans every partition in
//! place.  The engine's row counters show what each read scanned and
//! copied.

use crowddb::prelude::*;
use crowddb::relational::{Column, Schema, Table};
use crowdsim::JudgmentResponse;

/// Table rows; ids `0..ROWS` stay inside the perceptual space.
const ROWS: i64 = 60;

/// A crowd that answers from a fixed rule, so every layout receives the
/// same verdicts and confidences whatever order its items are asked in:
/// an item is a comedy when its id is even, and every third item draws
/// one dissenting judgment.
struct RuleCrowd;

impl CrowdSource for RuleCrowd {
    fn collect(
        &mut self,
        items: &[u32],
        _attribute: &str,
        _seed: u64,
    ) -> Result<CrowdRun, CrowdDbError> {
        let mut judgments = Vec::new();
        for &item in items {
            let truth = item % 2 == 0;
            for worker in 0..3u32 {
                let answer = if item % 3 == 0 && worker == 2 {
                    !truth
                } else {
                    truth
                };
                judgments.push(Judgment {
                    item,
                    worker,
                    response: JudgmentResponse::from_bool(answer),
                    minutes: 1.0,
                    cumulative_cost: 0.0,
                    is_gold: false,
                });
            }
        }
        Ok(CrowdRun {
            total_cost: 0.01 * judgments.len() as f64,
            judgments,
            total_minutes: 1.0,
            excluded_workers: Vec::new(),
            hits_completed: items.len(),
        })
    }

    fn describe(&self) -> String {
        "rule crowd".into()
    }
}

fn layouts() -> Vec<PartitionSpec> {
    vec![
        PartitionSpec::Single,
        PartitionSpec::Hash { n: 4 },
        PartitionSpec::Range {
            bounds: vec![15, 30, 45],
        },
    ]
}

/// `(item_id, name, score, weight)` rows with many tied scores, ids
/// `0..ROWS` in the order `spec`'s partitions hold them.
fn movies_table(spec: &PartitionSpec) -> Table {
    let schema = Schema::new(vec![
        Column::not_null("item_id", DataType::Integer),
        Column::new("name", DataType::Text),
        Column::new("score", DataType::Integer),
        Column::new("weight", DataType::Float),
    ])
    .unwrap();
    let mut table = Table::new("movies", schema);
    let mut ids: Vec<i64> = (0..ROWS).collect();
    ids.sort_by_key(|&id| spec.route_id(id));
    for id in ids {
        table
            .insert_row(vec![
                Value::Integer(id),
                Value::Text(format!("movie {id}")),
                Value::Integer(id % 5),
                Value::Float(id as f64 / 10.0),
            ])
            .unwrap();
    }
    table
}

/// A database holding the movie table under `spec` with its rows in
/// `order`'s partition order, bound to the rule crowd with `is_comedy`
/// registered but not expanded.
fn open(spec: &PartitionSpec, order: &PartitionSpec, space: &PerceptualSpace) -> CrowdDb {
    let db = CrowdDb::new(CrowdDbConfig {
        strategy: ExpansionStrategy::DirectCrowd,
        ..Default::default()
    });
    db.create_table_with(
        TableOptions::new("movies", "item_id").partitions(spec.clone()),
        movies_table(order),
    )
    .unwrap();
    db.bind_table("movies", space.clone(), Box::new(RuleCrowd))
        .unwrap();
    db.register_attribute("movies", "is_comedy", "Comedy")
        .unwrap();
    db
}

fn space() -> PerceptualSpace {
    let domain = SyntheticDomain::generate(&DomainConfig::movies().scaled(0.03), 7).unwrap();
    assert!(domain.items().len() as i64 >= ROWS);
    build_space_for_domain(&domain, 4, 2).unwrap()
}

/// What one query returns: the streamed snapshot, then the completed
/// outcome of `run()`.
#[derive(Debug, PartialEq)]
struct Answer {
    snapshot: RowSet,
    rows: RowSet,
}

fn answer(db: &CrowdDb, sql: &str) -> Answer {
    let mut stream = db.query(sql).stream();
    let snapshot = match stream.next() {
        Some(QueryEvent::Snapshot(rows)) => rows,
        other => panic!("{sql}: the first event must be the snapshot, got {other:?}"),
    };
    stream.wait().unwrap();
    let rows = db.query(sql).run().unwrap().rows().unwrap().clone();
    Answer { snapshot, rows }
}

fn counter(db: &CrowdDb, name: &str) -> f64 {
    db.metrics_snapshot().value(name, &[]).unwrap()
}

/// The reads that must agree across layouts, run in this order on every
/// database (the expanding one runs before the reads of the expanded
/// column).
const QUERIES: &[&str] = &[
    // Point reads by id, present and absent, routed to one partition.
    "SELECT item_id, name, score FROM movies WHERE item_id = 5",
    "SELECT item_id, name FROM movies WHERE item_id = 500",
    "SELECT item_id, name FROM movies WHERE item_id = -3",
    // Predicate shapes that route or fall back to a scan.
    "SELECT item_id, name FROM movies WHERE 5 = item_id",
    "SELECT item_id, name FROM movies WHERE item_id = 5.0",
    "SELECT item_id, name FROM movies WHERE item_id = '5'",
    "SELECT item_id, score FROM movies WHERE item_id = 5 AND score > 1",
    "SELECT item_id, score FROM movies WHERE item_id = 5 AND score > 0",
    "SELECT item_id, name FROM movies WHERE item_id = 5 OR item_id = 9",
    "SELECT item_id, name FROM movies WHERE item_id = NULL",
    // Tied sort keys with LIMIT, and LIMIT without ORDER BY.
    "SELECT item_id, score FROM movies ORDER BY score LIMIT 17",
    "SELECT item_id, score FROM movies WHERE weight < 4.5 ORDER BY score DESC LIMIT 9",
    "SELECT item_id FROM movies LIMIT 7",
    "SELECT * FROM movies",
    // A predicate on a column that has not been expanded yet (the stream
    // snapshot sees it missing; `run()` expands it through the crowd).
    "SELECT item_id, name FROM movies WHERE is_comedy = true AND score < 3",
    // The crowd-expanded column, projected, filtered and routed.
    "SELECT item_id, is_comedy FROM movies",
    "SELECT item_id, is_comedy FROM movies WHERE item_id = 9",
    "SELECT * FROM movies WHERE is_comedy = false ORDER BY score LIMIT 11",
];

#[test]
fn partitioned_tables_answer_like_a_single_partition() {
    let space = space();
    let answers = |spec: &PartitionSpec, order: &PartitionSpec| -> Vec<Answer> {
        let db = open(spec, order, &space);
        QUERIES.iter().map(|sql| answer(&db, sql)).collect()
    };
    for spec in layouts().iter().skip(1) {
        let single = answers(&PartitionSpec::Single, spec);
        let partitioned = answers(spec, &PartitionSpec::Single);
        for ((sql, want), got) in QUERIES.iter().zip(&single).zip(&partitioned) {
            assert_eq!(got, want, "{spec:?}: {sql}");
        }
        // The reads are not vacuous: present ids, ties and crowd cells
        // show.
        let row_count = |index: usize| single[index].rows.rows.len();
        assert_eq!(row_count(0), 1);
        assert_eq!(row_count(1), 0);
        assert_eq!(row_count(8), 2);
        assert_eq!(row_count(9), 0);
        assert_eq!(row_count(10), 17);
        let expanded = &single[15].rows;
        assert_eq!(expanded.rows.len(), ROWS as usize);
        assert!(expanded.provenance.iter().any(|cells| matches!(
            cells[1],
            CellProvenance::CrowdDerived { confidence, .. } if confidence < 1.0
        )));
        let routed = &single[16].rows;
        assert_eq!(
            routed.rows,
            vec![vec![Value::Integer(9), Value::Boolean(false)]]
        );
        // The predicate on the unexpanded column matches nothing in the
        // snapshot, and rows once `run()` has expanded it.
        assert!(single[14].snapshot.rows.is_empty());
        assert!(!single[14].rows.rows.is_empty());
    }
}

#[test]
fn a_float_id_column_is_never_routed() {
    let schema = Schema::new(vec![
        Column::not_null("item_id", DataType::Float),
        Column::new("label", DataType::Text),
    ])
    .unwrap();
    let answers: Vec<Grid<Value>> = layouts()
        .iter()
        .map(|spec| {
            let mut table = Table::new("gauges", schema.clone());
            for id in 0..40 {
                table
                    .insert_row(vec![Value::Float(id as f64), Value::Text(format!("g{id}"))])
                    .unwrap();
            }
            let db = CrowdDb::new(CrowdDbConfig::default());
            db.create_table_with(
                TableOptions::new("gauges", "item_id").partitions(spec.clone()),
                table,
            )
            .unwrap();
            let before = counter(&db, "crowddb_rows_scanned_total");
            let rows = db
                .execute("SELECT label FROM gauges WHERE item_id = 13")
                .unwrap()
                .rows;
            // Every partition was scanned: a float id routes by its bits,
            // not as the integer the literal spells.
            assert_eq!(counter(&db, "crowddb_rows_scanned_total") - before, 40.0);
            rows
        })
        .collect();
    assert_eq!(answers[0], vec![vec![Value::from("g13")]]);
    assert!(answers.iter().all(|rows| *rows == answers[0]));
}

#[test]
fn point_reads_scan_only_the_routed_partition() {
    let spec = PartitionSpec::Hash { n: 4 };
    let schema = Schema::new(vec![
        Column::not_null("item_id", DataType::Integer),
        Column::new("score", DataType::Integer),
    ])
    .unwrap();
    let mut table = Table::new("items", schema);
    for id in 0..4096 {
        table
            .insert_row(vec![Value::Integer(id), Value::Integer(id % 100)])
            .unwrap();
    }
    let db = CrowdDb::new(CrowdDbConfig::default());
    db.create_table_with(
        TableOptions::new("items", "item_id").partitions(spec.clone()),
        table,
    )
    .unwrap();
    let read = |sql: &str| {
        let scanned = counter(&db, "crowddb_rows_scanned_total");
        let copied = counter(&db, "crowddb_rows_copied_total");
        let rows = db.query(sql).run().unwrap().rows().unwrap().rows.len();
        (
            counter(&db, "crowddb_rows_scanned_total") - scanned,
            counter(&db, "crowddb_rows_copied_total") - copied,
            rows,
        )
    };
    // The routed partition's key index hands the filter the one row
    // holding the id.
    assert_eq!(
        read("SELECT item_id, score FROM items WHERE item_id = 1234"),
        (1.0, 1.0, 1)
    );
    assert_eq!(
        read("SELECT item_id FROM items ORDER BY score DESC LIMIT 10"),
        (4096.0, 10.0, 10)
    );
    // The counters reach remote callers through the metrics request.
    let text = db.metrics_snapshot().render();
    assert!(text.contains("crowddb_rows_scanned_total"));
    assert!(text.contains("crowddb_rows_copied_total"));
}

#[test]
fn a_stream_with_nothing_to_expand_runs_its_select_once() {
    let space = space();
    let db = open(
        &PartitionSpec::Hash { n: 4 },
        &PartitionSpec::Single,
        &space,
    );
    let sql = "SELECT item_id, is_comedy FROM movies WHERE score < 4";
    // Expand first, so the streamed read has crowd provenance to carry.
    db.query(sql).run().unwrap();

    let scanned = counter(&db, "crowddb_rows_scanned_total");
    let mut stream = db.query(sql).stream();
    let events: Vec<QueryEvent> = stream.by_ref().collect();
    let streamed = stream.wait().unwrap();
    assert_eq!(
        counter(&db, "crowddb_rows_scanned_total") - scanned,
        ROWS as f64,
        "one scan of the table, not one per SELECT"
    );
    assert!(streamed.reports.is_empty());
    assert!(matches!(&events[0], QueryEvent::Snapshot(rows) if Some(rows) == streamed.rows()));

    let ran = db.query(sql).run().unwrap();
    assert_eq!(streamed, ran);
    assert!(ran
        .rows()
        .unwrap()
        .provenance
        .iter()
        .all(|cells| matches!(cells[1], CellProvenance::CrowdDerived { .. })));
}

/// A `Hash{4}` table over `dir` (in memory when `None`) whose id column
/// the configuration spells `ÉID`: the schema stores it as `éid`, and only
/// Unicode lower-casing relates the two spellings.
fn unicode_id_db(dir: Option<&std::path::Path>) -> CrowdDb {
    let builder = CrowdDb::builder().config(CrowdDbConfig {
        id_column: "ÉID".into(),
        ..Default::default()
    });
    let db = match dir {
        Some(dir) => builder.persistent(dir).open().unwrap(),
        None => builder.open().unwrap(),
    };
    if db.catalog().table("t").is_err() {
        let schema = Schema::new(vec![
            Column::not_null("éid", DataType::Integer),
            Column::new("label", DataType::Text),
        ])
        .unwrap();
        db.create_table_with(
            TableOptions::new("t", "ÉID").partitions(PartitionSpec::Hash { n: 4 }),
            Table::new("t", schema),
        )
        .unwrap();
    }
    db
}

#[test]
fn inserts_route_on_a_non_ascii_id_column() {
    let dir = std::env::temp_dir().join(format!("crowddb-unicode-id-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = unicode_id_db(Some(&dir));
    for id in 0..8 {
        db.execute(&format!(
            "INSERT INTO t (éid, label) VALUES ({id}, 'l{id}')"
        ))
        .unwrap();
    }
    let reads_back = |db: &CrowdDb| {
        for id in 0..8 {
            let want = vec![vec![Value::Text(format!("l{id}"))]];
            for column in ["éid", "ÉID"] {
                let sql = format!("SELECT label FROM t WHERE {column} = {id}");
                assert_eq!(db.execute(&sql).unwrap().rows, want, "{sql}");
            }
        }
    };
    reads_back(&db);
    // Replay routes the logged INSERT the same way.
    drop(db);
    reads_back(&unicode_id_db(Some(&dir)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_update_of_a_non_ascii_id_column_is_refused() {
    let db = unicode_id_db(None);
    db.execute("INSERT INTO t (éid, label) VALUES (1, 'one')")
        .unwrap();
    for sql in [
        "UPDATE t SET éid = 2 WHERE éid = 1",
        "UPDATE t SET ÉID = 2 WHERE label = 'one'",
    ] {
        assert!(
            matches!(db.execute(sql), Err(CrowdDbError::Configuration(_))),
            "{sql}"
        );
    }
    assert_eq!(
        db.execute("SELECT label FROM t WHERE éid = 1")
            .unwrap()
            .rows,
        vec![vec![Value::from("one")]]
    );
}
