//! The tables the workloads share: the partitioned item table of
//! `read_mix` and `write_mix`, and the movie domain of `expand` and
//! `remote_read`.

use std::time::Instant;

use crowddb_core::{build_space_for_domain, CrowdDb, PartitionSpec, TableOptions};
use datagen::{DomainConfig, SyntheticDomain};
use perceptual::PerceptualSpace;
use relational::{Column, DataType, Schema, Table, Value};

/// The item table: id, text, int, float, hash-partitioned on the id.
pub const ITEMS: &str = "items";
pub const ITEM_PARTITIONS: usize = 4;

/// The movie domain's table.
pub const MOVIES: &str = "movies";
/// Space dimensionality and training epochs, as in the other movie benches.
const SPACE_DIMENSIONS: usize = 8;
const SPACE_EPOCHS: usize = 10;

/// One item row in column order.
pub fn item_row(id: i64, label: String, score: i64, weight: f64) -> Vec<Value> {
    vec![
        Value::Integer(id),
        Value::Text(label),
        Value::Integer(score),
        Value::Float(weight),
    ]
}

/// Creates the item table in `db`, holding `rows`, in `Hash{4}` partitions.
pub fn create_items(db: &CrowdDb, rows: impl Iterator<Item = Vec<Value>>) -> Result<(), String> {
    let schema = Schema::new(vec![
        Column::not_null("item_id", DataType::Integer),
        Column::new("label", DataType::Text),
        Column::new("score", DataType::Integer),
        Column::new("weight", DataType::Float),
    ])
    .map_err(|e| e.to_string())?;
    let mut table = Table::new(ITEMS, schema);
    for row in rows {
        table.insert_row(row).map_err(|e| e.to_string())?;
    }
    db.create_table_with(
        TableOptions::new(ITEMS, "item_id").partitions(PartitionSpec::Hash { n: ITEM_PARTITIONS }),
        table,
    )
    .map_err(|e| e.to_string())
}

/// The 2,000-item movie domain of `seed` and its perceptual space, with
/// the seconds the space took to build.
pub fn movie_domain(seed: u64) -> Result<(SyntheticDomain, PerceptualSpace, f64), String> {
    let domain =
        SyntheticDomain::generate(&DomainConfig::movies(), seed).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let space = build_space_for_domain(&domain, SPACE_DIMENSIONS, SPACE_EPOCHS)
        .map_err(|e| e.to_string())?;
    Ok((domain, space, started.elapsed().as_secs_f64()))
}
