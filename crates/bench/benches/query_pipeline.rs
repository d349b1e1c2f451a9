//! Criterion bench: end-to-end query execution in the crowd-enabled
//! database — factual queries (no expansion), the full query-driven
//! schema expansion pipeline, the point read's fixed cost (parsing the
//! point `SELECT` alone, and a point `run()` on a `Hash{4}` table), the
//! parse of a `WHERE` chain and of 16 nested parentheses, and
//! the range read of the repository benchmark's `remote_read` workload:
//! 800 rows of crowd-filled columns with their provenance, read in
//! process, its filter and projection alone on a copy of the 2,000-row
//! table, and pushed through the wire codec, and the CRC-32 of a frame
//! that size.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use crowddb_core::{
    CrowdDb, CrowdDbConfig, ExpansionStrategy, ExtractionConfig, PartitionSpec, QueryEvent,
    SimulatedCrowd, TableOptions,
};
use crowddb_server::wire::Response;
use crowdsim::ExperimentRegime;
use datagen::{DomainConfig, SyntheticDomain};
use relational::{Catalog, Column, DataType, Schema, Table, Value};

/// Rows of the point-read table.
const ITEMS: i64 = 4_096;

/// The point SELECT of the repository benchmark's `read_mix` workload.
fn point_select(id: i64) -> String {
    format!("SELECT item_id, label, score, weight FROM items WHERE item_id = {id}")
}

/// `read_mix`'s item table, `ITEMS` rows in `Hash{4}` partitions.
fn items_db() -> CrowdDb {
    let schema = Schema::new(vec![
        Column::not_null("item_id", DataType::Integer),
        Column::new("label", DataType::Text),
        Column::new("score", DataType::Integer),
        Column::new("weight", DataType::Float),
    ])
    .unwrap();
    let mut table = Table::new("items", schema);
    for id in 0..ITEMS {
        table
            .insert_row(vec![
                Value::Integer(id),
                Value::Text(format!("item-{id:08x}")),
                Value::Integer(ITEMS - id),
                Value::Float(id as f64 / ITEMS as f64),
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

fn bench_point_read(c: &mut Criterion) {
    let sql = point_select(1_234);
    c.bench_function("parse_point_select", |b| {
        b.iter(|| relational::parse(black_box(&sql)).unwrap())
    });
    let sql = "SELECT item_id FROM items \
               WHERE item_id = 1234 AND (score > 0.5 OR NOT label IS NULL)";
    c.bench_function("parse_where_chain", |b| {
        b.iter(|| relational::parse(black_box(sql)).unwrap())
    });
    let sql = format!(
        "SELECT item_id FROM items WHERE {}item_id = 1234{}",
        "(".repeat(16),
        ")".repeat(16)
    );
    c.bench_function("parse_nested_parens", |b| {
        b.iter(|| relational::parse(black_box(&sql)).unwrap())
    });

    let db = items_db();
    let queries: Vec<String> = (0..64).map(|i| point_select(i * 61 % ITEMS)).collect();
    let mut next = 0;
    c.bench_function("point_read_hash4", |b| {
        b.iter(|| {
            next = (next + 1) % queries.len();
            db.query(queries[next].as_str()).run().unwrap()
        })
    });
}

/// The movie domain with three crowd-filled columns — one crowd-sourced
/// directly, two extracted from the perceptual space — as `remote_read`
/// serves it.
fn filled_movies_db() -> CrowdDb {
    let domain = SyntheticDomain::generate(&DomainConfig::movies(), 1).unwrap();
    let space = crowddb_core::build_space_for_domain(&domain, 8, 10).unwrap();
    let crowd = SimulatedCrowd::new(&domain, ExperimentRegime::TrustedWorkers, 1 ^ 0x5eed);
    let db = CrowdDb::new(CrowdDbConfig {
        seed: 1,
        ..Default::default()
    });
    db.load_domain("movies", &domain, space, Box::new(crowd))
        .unwrap();
    let concepts = domain.category_names();
    for (column, concept, strategy) in [
        ("is_direct", 0, ExpansionStrategy::DirectCrowd),
        ("is_extracted_a", 2, ExpansionStrategy::perceptual_default()),
        ("is_extracted_b", 4, ExpansionStrategy::perceptual_default()),
    ] {
        db.register_attribute_with_strategy("movies", column, &concepts[concept], strategy)
            .unwrap();
    }
    db.query(RANGE_SELECT).run().unwrap();
    db
}

/// `remote_read`'s query shape: 800 rows, the id and three crowd-filled
/// columns.
const RANGE_SELECT: &str = "SELECT item_id, is_direct, is_extracted_a, is_extracted_b \
    FROM movies WHERE item_id >= 600 AND item_id < 1400";

fn bench_range_read(c: &mut Criterion) {
    let db = filled_movies_db();
    c.bench_function("range_read_800", |b| {
        b.iter(|| db.query(RANGE_SELECT).run().unwrap())
    });

    // The relational engine's share of that read: filter 2,000 rows and
    // project 800, no provenance, on a standalone copy of the table.
    let mut catalog = Catalog::new();
    let movies: Table = (*db.catalog().table("movies").unwrap()).clone();
    assert_eq!(movies.len(), 2_000);
    catalog.create_table(movies).unwrap();
    let statement = relational::parse(RANGE_SELECT).unwrap();
    c.bench_function("range_filter_2000", |b| {
        b.iter(|| relational::execute_read(&statement, &catalog).unwrap())
    });

    let outcome = db.query(RANGE_SELECT).run().unwrap();
    assert_eq!(outcome.rows().map(|rows| rows.rows.len()), Some(800));
    let response = Response::Event {
        id: 1,
        event: QueryEvent::Completed(outcome.into()),
    };
    c.bench_function("rowset_codec_800", |b| {
        b.iter(|| {
            let payload = response.to_payload().unwrap();
            Response::from_payload(black_box(&payload)).unwrap()
        })
    });
}

/// The CRC-32 of a 37,843-byte buffer, the size of `remote_read`'s
/// response frame under protocol version 3: each frame is checksummed
/// once by its writer and once by its reader.
fn bench_crc32(c: &mut Criterion) {
    let buf: Vec<u8> = (0..37_843u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    c.bench_function("crc32_38k", |b| b.iter(|| storage::crc32(black_box(&buf))));
}

fn make_db(domain: &SyntheticDomain, space: perceptual::PerceptualSpace) -> CrowdDb {
    let crowd = SimulatedCrowd::new(domain, ExperimentRegime::TrustedWorkers, 9);
    let db = CrowdDb::new(CrowdDbConfig {
        strategy: ExpansionStrategy::PerceptualSpace {
            gold_sample_size: 60,
            extraction: ExtractionConfig::default(),
        },
        ..Default::default()
    });
    db.load_domain("movies", domain, space, Box::new(crowd))
        .unwrap();
    db.register_attribute("movies", "is_comedy", "Comedy")
        .unwrap();
    db
}

fn bench_pipeline(c: &mut Criterion) {
    let domain = SyntheticDomain::generate(&DomainConfig::movies().scaled(0.1), 4).unwrap();
    let space = crowddb_core::build_space_for_domain(&domain, 16, 10).unwrap();

    c.bench_function("factual_select", |b| {
        let db = make_db(&domain, space.clone());
        b.iter(|| {
            db.execute("SELECT name FROM movies WHERE year < 1990 ORDER BY year LIMIT 20")
                .unwrap()
        })
    });

    let mut group = c.benchmark_group("schema_expansion_end_to_end");
    group.sample_size(10);
    group.bench_function("perceptual_strategy", |b| {
        b.iter(|| {
            let db = make_db(&domain, space.clone());
            db.execute("SELECT item_id FROM movies WHERE is_comedy = true")
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_point_read,
    bench_range_read,
    bench_crc32,
    bench_pipeline
);
criterion_main!(benches);
