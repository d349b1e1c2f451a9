//! Criterion bench: end-to-end query execution in the crowd-enabled
//! database — factual queries (no expansion), the full query-driven
//! schema expansion pipeline, and the point read's fixed cost: parsing
//! the point `SELECT` alone, and a point `run()` on a `Hash{4}` table.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use crowddb_core::{
    CrowdDb, CrowdDbConfig, ExpansionStrategy, ExtractionConfig, PartitionSpec, SimulatedCrowd,
    TableOptions,
};
use crowdsim::ExperimentRegime;
use datagen::{DomainConfig, SyntheticDomain};
use relational::{Column, DataType, Schema, Table, Value};

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

criterion_group!(benches, bench_point_read, bench_pipeline);
criterion_main!(benches);
