//! Pins every WAL record the column writers append, partition by partition.
//!
//! On a persistent `Single` and a persistent `Hash{4}` table, one run
//! drives each writer of item-keyed records once: a boolean perceptual
//! expansion (judgment-cache puts plus a materialized column),
//! `expand_numeric_attribute` (a materialized `FLOAT` column),
//! `repair_attribute` (cache puts plus cell overwrites) and
//! `invalidate_judgments` (a cache invalidation).  Every segment is then
//! read back with [`Wal::open`], and each partition's decoded records are
//! pinned by their kinds in log order and a digest of their encoded
//! bytes.  Segment headers carry a clock-derived generation, so the raw
//! files are not digested.  Any change to which records, or which of their
//! items, reach which partition shows up here as a diff.

use std::path::{Path, PathBuf};

use crowddb::prelude::*;
use crowddb::relational::{Column, Schema, Table};
use crowddb::storage::{segment_file_name, Wal, WalRecord};

const SPACE_ITEMS: usize = 64;
const GOLD: usize = 12;

/// A crowd that answers from a fixed rule: an item is a comedy when its
/// id is even, except that every item ≡ 5 (mod 11) is misjudged by all
/// three workers, so the audit has wrong labels to flag.
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
            let answer = (item % 2 == 0) != (item % 11 == 5);
            for worker in 0..3u32 {
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

/// Even items near the origin, odd items near (3, 3).
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

/// Every in-space item once, two ids past the space and a row without an
/// id.
fn movies_table() -> Table {
    let schema = Schema::new(vec![
        Column::new("item_id", DataType::Integer),
        Column::new("name", DataType::Text),
    ])
    .unwrap();
    let mut table = Table::new("movies", schema);
    let ids = (0..SPACE_ITEMS as i64)
        .chain([100, 4_000])
        .map(Value::Integer)
        .chain([Value::Null]);
    for (row, id) in ids.enumerate() {
        table
            .insert_row(vec![id, Value::Text(format!("movie {row}"))])
            .unwrap();
    }
    table
}

fn numeric_gold() -> Vec<(u32, f64)> {
    (0..20u32)
        .map(|item| {
            (
                item,
                1.0 + f64::from(item % 2) * 8.0 + f64::from(item % 3) * 0.5,
            )
        })
        .collect()
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crowddb-records-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// FNV-1a, enough to pin a partition's records to one literal.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn kind(record: &WalRecord) -> String {
    match record {
        WalRecord::CreateTable(_) => "create".into(),
        WalRecord::Mutation { .. } => "mutation".into(),
        WalRecord::MaterializeColumn { column, values, .. } => {
            format!("materialize:{column}:{}", values.len())
        }
        WalRecord::SetCells { column, values, .. } => format!("set:{column}:{}", values.len()),
        WalRecord::CachePut { entries, .. } => format!("put:{}", entries.len()),
        WalRecord::CacheInvalidate { .. } => "invalidate".into(),
        WalRecord::MetaPartition { .. } => "meta".into(),
    }
}

/// One line per segment: its file, its records' kinds in log order, and a
/// digest of their encoded bytes.
fn segment_lines(dir: &Path, spec: &PartitionSpec) -> Vec<String> {
    let files: Vec<String> = (0..spec.partition_count())
        .map(|k| segment_file_name("movies", k))
        .collect();
    files
        .into_iter()
        .map(|file| {
            let (_, records) = Wal::open(dir.join("wal").join(&file)).unwrap();
            let kinds: Vec<String> = records.iter().map(kind).collect();
            let bytes: Vec<u8> = records.iter().flat_map(WalRecord::encode).collect();
            format!("{file} [{}] digest={:016x}", kinds.join(" "), fnv(&bytes))
        })
        .collect()
}

/// Runs every column writer once on a fresh persistent `movies` table
/// partitioned by `spec` and returns the per-segment lines.
fn records_of(tag: &str, spec: PartitionSpec) -> Vec<String> {
    let dir = test_dir(tag);
    {
        let db = CrowdDb::builder()
            .config(CrowdDbConfig {
                strategy: ExpansionStrategy::PerceptualSpace {
                    gold_sample_size: GOLD,
                    extraction: ExtractionConfig::default(),
                },
                ..Default::default()
            })
            .persistent(&dir)
            .open()
            .unwrap();
        db.create_table_with(
            TableOptions::new("movies", "item_id").partitions(spec.clone()),
            movies_table(),
        )
        .unwrap();
        db.bind_table("movies", space(), Box::new(RuleCrowd))
            .unwrap();
        db.register_attribute("movies", "is_comedy", "Comedy")
            .unwrap();

        let outcome = db
            .query("SELECT item_id FROM movies WHERE is_comedy = true")
            .run()
            .unwrap();
        assert_eq!(outcome.reports.len(), 1, "one perceptual expansion");
        db.expand_numeric_attribute("movies", "humor", &numeric_gold(), &Default::default())
            .unwrap();
        let repair = db
            .repair_attribute("movies", "is_comedy", &Default::default())
            .unwrap();
        assert!(
            !repair.flagged.is_empty(),
            "the audit flags the misjudged items"
        );
        db.invalidate_judgments("movies", "comedy").unwrap();
    }
    let lines = segment_lines(&dir, &spec);
    let _ = std::fs::remove_dir_all(&dir);
    lines
}

#[test]
fn single_partition_records_are_pinned() {
    let lines = records_of("single", PartitionSpec::Single);
    assert_eq!(
        lines,
        [
            "movies.p0.log [meta create put:12 materialize:is_comedy:64 materialize:humor:64 \
             put:1 set:is_comedy:1 invalidate] digest=81d2af5e97c70134",
        ]
    );
}

#[test]
fn hash_partition_records_are_pinned() {
    let lines = records_of("hash4", PartitionSpec::Hash { n: 4 });
    assert_eq!(
        lines,
        [
            "movies.p0.log [meta create put:4 materialize:is_comedy:15 materialize:humor:15 \
             put:1 set:is_comedy:1 invalidate] digest=c19d0bde3e68dbfb",
            "movies.p1.log [meta create put:3 materialize:is_comedy:14 materialize:humor:14 \
             invalidate] digest=06c6b5a58ae21143",
            "movies.p2.log [meta create put:2 materialize:is_comedy:19 materialize:humor:19 \
             put:1 set:is_comedy:1 invalidate] digest=d3a4db464ca6a5ba",
            "movies.p3.log [meta create put:3 materialize:is_comedy:16 materialize:humor:16 \
             put:1 set:is_comedy:1 invalidate] digest=7b56b572cc647c67",
        ]
    );
}
