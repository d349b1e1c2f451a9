//! Expansion routes every value through the id column, whatever the ids.
//!
//! A persistent `Hash{4}` movie table holds ids at both ends of a
//! 2,000-item perceptual space (0 and 1,999), ids past it (2,000, 2,001,
//! 5,000 and `u32::MAX`), a duplicated id, and rows without a usable item
//! id (`NULL` and a negative id).  After a perceptual and a numeric
//! expansion, every cell must hold the value its item was given and the
//! tag that says where it came from; hole counts and each report's row and
//! item counts must agree.  The same cells must come back after reopening
//! from the log and after reopening from a checkpoint.

use std::collections::HashMap;
use std::path::PathBuf;

use crowddb::prelude::*;
use crowddb::relational::{Column, Schema, Table};

const SPACE_ITEMS: usize = 2_000;
const GOLD: usize = 16;

/// In-space ids of the table.  7 and 1,999 appear twice.
const IN_SPACE: &[i64] = &[
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
    26, 27, 28, 29, 30, 31, 500, 1_001, 1_998, 1_999, 7, 1_999,
];
/// Ids past the space: they are items, but the extractor cannot reach them.
const PAST_SPACE: &[i64] = &[2_000, 2_001, 5_000, u32::MAX as i64];

/// A crowd that answers from a fixed rule: an item is a comedy when its
/// id is even, and every third item draws one dissenting judgment.
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
                let answer = truth != (item % 3 == 0 && worker == 2);
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

/// Even items sit near the origin and odd items near (3, 3), with a
/// little spread along both axes.
fn space() -> PerceptualSpace {
    let coords = (0..SPACE_ITEMS)
        .map(|i| {
            let offset = if i % 2 == 0 { 0.0 } else { 3.0 };
            vec![
                offset + 0.4 * (i as f64 * 0.37).sin(),
                offset + 0.4 * (i as f64 * 0.11).cos(),
            ]
        })
        .collect();
    PerceptualSpace::new(coords).unwrap()
}

fn movies_table() -> Table {
    let schema = Schema::new(vec![
        Column::new("item_id", DataType::Integer),
        Column::new("name", DataType::Text),
    ])
    .unwrap();
    let mut table = Table::new("movies", schema);
    let ids = IN_SPACE
        .iter()
        .chain(PAST_SPACE)
        .copied()
        .map(Value::Integer);
    for (row, id) in ids.chain([Value::Null, Value::Integer(-1)]).enumerate() {
        table
            .insert_row(vec![id, Value::Text(format!("movie {row}"))])
            .unwrap();
    }
    table
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crowddb-idroute-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &PathBuf) -> CrowdDb {
    let db = CrowdDb::builder()
        .config(CrowdDbConfig {
            strategy: ExpansionStrategy::PerceptualSpace {
                gold_sample_size: GOLD,
                extraction: ExtractionConfig::default(),
            },
            ..Default::default()
        })
        .persistent(dir)
        .open()
        .unwrap();
    if db.catalog().table("movies").is_err() {
        db.create_table_with(
            TableOptions::new("movies", "item_id").partitions(PartitionSpec::Hash { n: 4 }),
            movies_table(),
        )
        .unwrap();
    }
    db.bind_table("movies", space(), Box::new(RuleCrowd))
        .unwrap();
    db.register_attribute("movies", "is_comedy", "Comedy")
        .unwrap();
    db
}

fn numeric_gold() -> Vec<(u32, f64)> {
    (0..24u32)
        .map(|item| {
            (
                item,
                1.0 + f64::from(item % 2) * 8.0 + f64::from(item % 5) * 0.1,
            )
        })
        .collect()
}

/// The cell every row must hold: per item id, its value and tag.
struct Expected {
    comedy: HashMap<u32, (Value, CellProvenance)>,
    humor: HashMap<u32, (Value, CellProvenance)>,
}

/// A row's item id, or `None` when its id column holds no usable one.
fn item_of(value: &Value) -> Option<u32> {
    match value {
        Value::Integer(id) => u32::try_from(*id).ok(),
        _ => None,
    }
}

/// Derives the expected cells from the live table: the gold items are the
/// cells the crowd answered, and every other in-space item holds what the
/// extractor trained on them predicts.
fn expected(table: &Table) -> Expected {
    let id = table.schema().index_of("item_id").unwrap();
    let comedy = table.schema().index_of("is_comedy").unwrap();
    let tags = table.tags(comedy).unwrap();
    let mut gold: HashMap<u32, (Value, CellProvenance)> = HashMap::new();
    for (row, tag) in table.rows().iter().zip(tags) {
        if let CellProvenance::CrowdDerived { .. } = tag {
            let item = item_of(&row[id]).unwrap();
            assert_eq!(
                row[comedy],
                Value::Boolean(item.is_multiple_of(2)),
                "gold verdict"
            );
            gold.insert(item, (row[comedy].clone(), *tag));
        }
    }
    assert_eq!(gold.len(), GOLD, "every gold item is crowd-derived");
    let mut training: Vec<(u32, bool)> = gold
        .iter()
        .map(|(&item, (value, _))| (item, *value == Value::Boolean(true)))
        .collect();
    training.sort_unstable();
    let config = ExtractionConfig::default();
    let labels = extract_binary_attribute(&space(), &training, &config).unwrap();
    let scores = extract_numeric_attribute(&space(), &numeric_gold(), &config).unwrap();

    let out_of_space: CellProvenance = MissingReason::OutOfSpace.into();
    let mut expected = Expected {
        comedy: HashMap::new(),
        humor: HashMap::new(),
    };
    for &id in IN_SPACE {
        let item = id as u32;
        let cell = gold.get(&item).cloned().unwrap_or_else(|| {
            let label = Value::Boolean(labels[item as usize]);
            (label, CellProvenance::Extracted)
        });
        expected.comedy.insert(item, cell);
        let score = Value::Float(scores[item as usize]);
        expected
            .humor
            .insert(item, (score, CellProvenance::Extracted));
    }
    for &id in PAST_SPACE {
        let item = id as u32;
        expected.comedy.insert(item, (Value::Null, out_of_space));
        expected.humor.insert(item, (Value::Null, out_of_space));
    }
    expected
}

/// Checks every cell of both expanded columns, and their hole counts.
fn check_cells(db: &CrowdDb, expected: &Expected, stage: &str) {
    let catalog = db.catalog();
    let table = catalog.table("movies").unwrap();
    assert_eq!(
        table.len(),
        IN_SPACE.len() + PAST_SPACE.len() + 2,
        "{stage}"
    );
    let id = table.schema().index_of("item_id").unwrap();
    let no_item_id: CellProvenance = MissingReason::NoItemId.into();
    for (column, cells) in [("is_comedy", &expected.comedy), ("humor", &expected.humor)] {
        let index = table.schema().index_of(column).unwrap();
        let tags = table.tags(index).unwrap();
        for (row, tag) in table.rows().iter().zip(tags) {
            let want = match item_of(&row[id]) {
                Some(item) => cells[&item].clone(),
                None => (Value::Null, no_item_id),
            };
            assert_eq!(
                (row[index].clone(), *tag),
                want,
                "{stage}: {column} of the row with id {}",
                row[id]
            );
        }
        let holes = tags.iter().filter(|tag| tag.is_recoverable()).count();
        assert_eq!(table.recoverable_holes(index), holes, "{stage}: {column}");
    }
}

#[test]
fn expansion_routes_values_by_item_id_across_restarts() {
    let dir = test_dir("hash4");
    let rows_in_space = IN_SPACE.len();
    let rows_unfilled = PAST_SPACE.len() + 2;

    let expected = {
        let db = open(&dir);
        let reports = db.expand_columns("movies", &["is_comedy".into()]).unwrap();
        assert_eq!(reports.len(), 1);
        let report = &reports[0];
        assert_eq!(report.rows_filled, rows_in_space);
        assert_eq!(report.rows_unfilled, rows_unfilled);
        assert_eq!(report.items_unmapped, PAST_SPACE.len());
        assert_eq!(report.training_set_size, GOLD);

        let report = db
            .expand_numeric_attribute(
                "movies",
                "humor",
                &numeric_gold(),
                &ExtractionConfig::default(),
            )
            .unwrap();
        assert_eq!(report.rows_filled, rows_in_space);
        assert_eq!(report.rows_unfilled, rows_unfilled);
        assert_eq!(report.items_unmapped, PAST_SPACE.len());

        let expected = expected(&db.catalog().table("movies").unwrap());
        check_cells(&db, &expected, "live");
        expected
        // Dropped without a checkpoint: the next open replays the log.
    };

    let db = open(&dir);
    check_cells(&db, &expected, "reopened from the log");
    db.checkpoint().unwrap();
    drop(db);

    let db = open(&dir);
    check_cells(&db, &expected, "reopened from a checkpoint");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
