//! The expansion planner: turns the missing-column set of a statement into
//! one executable [`ExpansionPlan`].
//!
//! This is the *plan* stage of the plan → acquire → materialize pipeline.
//! Given the full set of unknown columns reported by
//! [`relational::executor::analyze`], the planner
//!
//! * deduplicates and resolves each column to the domain concept the crowd
//!   is asked about,
//! * resolves the per-attribute [`ExpansionStrategy`] (an override
//!   registered for the column, falling back to the database default),
//! * builds the explicit item-id → row mapping that the materialize stage
//!   fills columns through (no dense-id assumption: ids may be sparse,
//!   non-contiguous, or beyond the perceptual space, and every unmappable
//!   item is accounted for instead of silently dropped), and
//! * draws **one** shared gold sample per table, so every
//!   perceptual-strategy attribute of the plan trains on the same
//!   crowd-judged items and a single batched round can serve them all.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use perceptual::ItemId;
use relational::{Table, Value};

use crate::error::CrowdDbError;
use crate::expansion::ExpansionStrategy;
use crate::Result;

/// One attribute scheduled for expansion.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedAttribute {
    /// The SQL column to create (lower-cased).
    pub column: String,
    /// The domain concept the crowd is asked about.
    pub attribute: String,
    /// The resolved strategy for this attribute.
    pub strategy: ExpansionStrategy,
}

impl PlannedAttribute {
    /// The number of items this attribute sends to the crowd under its
    /// strategy: everything for direct crowd-sourcing, the gold sample for
    /// perceptual extraction.
    fn gold_demand(&self) -> Option<usize> {
        match &self.strategy {
            ExpansionStrategy::DirectCrowd => None,
            ExpansionStrategy::PerceptualSpace {
                gold_sample_size, ..
            } => Some((*gold_sample_size).max(2)),
        }
    }
}

/// An executable plan covering every missing attribute of one table.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpansionPlan {
    /// The table being expanded (lower-cased).
    pub table: String,
    /// The attributes to acquire, deduplicated, in query order.
    pub attributes: Vec<PlannedAttribute>,
    /// Explicit `(row index, item id)` mapping, one entry per table row
    /// that carries an item id, with rows numbered as in the table's
    /// partitions concatenated in `k` order.  Nothing assumes ids are
    /// dense, contiguous, or unique — rows sharing an item id all receive
    /// its value.
    pub rows: Vec<(usize, ItemId)>,
    /// The distinct mapped item ids, in first-appearance (table-row) order.
    pub items: Vec<ItemId>,
    /// The position of each of `items`, built once with the mapping: the
    /// materialize stage keeps every per-item value and tag in vectors
    /// aligned with `items` and routes rows to them through this index.
    pub(crate) index: ItemIndex,
    /// Rows whose id column holds no usable item id (`NULL`, non-integer,
    /// negative, or beyond `u32`).  They can never be filled and are
    /// reported as unfilled rather than silently dropped.
    pub skipped_rows: usize,
    /// The shared gold sample: one draw serves every perceptual-strategy
    /// attribute of the plan (an attribute with a smaller
    /// `gold_sample_size` uses a prefix).  Empty when no attribute uses the
    /// perceptual strategy.
    pub gold_sample: Vec<ItemId>,
}

impl ExpansionPlan {
    /// The gold items attribute `index` trains on.
    pub fn gold_for(&self, index: usize) -> &[ItemId] {
        match self.attributes[index].gold_demand() {
            Some(demand) => &self.gold_sample[..demand.min(self.gold_sample.len())],
            None => &[],
        }
    }

    /// The items attribute `index` asks the crowd about.
    pub fn crowd_items_for(&self, index: usize) -> &[ItemId] {
        match self.attributes[index].strategy {
            ExpansionStrategy::DirectCrowd => &self.items,
            ExpansionStrategy::PerceptualSpace { .. } => self.gold_for(index),
        }
    }
}

/// Everything the planner needs to know about the table being expanded.
pub(crate) struct PlanInputs<'a> {
    /// The table's partitions in `k` order (for rows and schema).
    pub parts: &'a [&'a Table],
    /// Lower-cased table name (the plan's key).
    pub table_name: &'a str,
    /// Name of the id column linking rows to perceptual-space items.
    pub id_column: &'a str,
    /// The missing columns to expand, as reported by the analysis pass.
    pub columns: &'a [String],
    /// Registered column → attribute concept mappings.
    pub attributes: &'a HashMap<String, String>,
    /// Per-column strategy overrides.
    pub overrides: &'a HashMap<String, ExpansionStrategy>,
    /// The database-wide default strategy.
    pub default_strategy: &'a ExpansionStrategy,
    /// Number of items in the bound perceptual space.  Gold samples are
    /// drawn only from items the space can embed — an out-of-space item
    /// could be crowd-sourced but never used for training.
    pub space_len: usize,
    /// Seed for the gold-sample draw.
    pub seed: u64,
}

/// Builds the expansion plan for one table's missing columns.
pub(crate) fn build_plan(inputs: PlanInputs<'_>) -> Result<ExpansionPlan> {
    // Resolve and deduplicate the attribute list, preserving query order.
    let mut attributes: Vec<PlannedAttribute> = Vec::new();
    for column in inputs.columns {
        let column = column.to_lowercase();
        if attributes.iter().any(|a| a.column == column) {
            continue;
        }
        let attribute = inputs.attributes.get(&column).cloned().ok_or_else(|| {
            CrowdDbError::UnknownAttribute {
                table: inputs.table_name.to_string(),
                attribute: column.clone(),
            }
        })?;
        let strategy = inputs
            .overrides
            .get(&column)
            .unwrap_or(inputs.default_strategy)
            .clone();
        attributes.push(PlannedAttribute {
            column,
            attribute,
            strategy,
        });
    }

    // Build the explicit id → row mapping.
    let (rows, index, skipped_rows) =
        row_mapping(inputs.parts, inputs.id_column, inputs.table_name)?;
    let items = index.items().to_vec();

    // One shared gold sample for all perceptual-strategy attributes.
    let demand = attributes
        .iter()
        .filter_map(PlannedAttribute::gold_demand)
        .max()
        .unwrap_or(0);
    let gold_sample = if demand == 0 {
        Vec::new()
    } else {
        let mut rng = StdRng::seed_from_u64(inputs.seed);
        // Only items the perceptual space can embed are eligible: the gold
        // sample exists to train the extractor, and feature lookup for an
        // out-of-space item would fail after the crowd had been paid.
        let mut candidates: Vec<ItemId> = items
            .iter()
            .copied()
            .filter(|&item| (item as usize) < inputs.space_len)
            .collect();
        candidates.shuffle(&mut rng);
        candidates.truncate(demand);
        candidates
    };

    Ok(ExpansionPlan {
        table: inputs.table_name.to_string(),
        attributes,
        rows,
        items,
        index,
        skipped_rows,
        gold_sample,
    })
}

/// The `(row index, item id)` pairs, the distinct item ids (indexed by
/// position), and the count of rows without a usable item id.
pub(crate) type RowMapping = (Vec<(usize, ItemId)>, ItemIndex, usize);

/// Builds the explicit `(row, item id)` mapping of a table, given as its
/// partitions in `k` order (a table that is not partitioned is the
/// one-slice case).  Rows are numbered as in the slices concatenated in
/// that order, and each id is read from the slice its row lives in.
///
/// Rows whose id column is `NULL`, non-integer, negative, or beyond `u32`
/// carry no item id; they cannot be filled, and their count is returned so
/// reports account for them instead of silently dropping them.  Duplicated
/// ids keep every row (each receives the item's value) but appear once in
/// the distinct-item list.  The mapping makes no density or contiguity
/// assumption — ids like `{3, 900, 14}` are as valid as `{0, 1, 2}`.
pub(crate) fn row_mapping(
    parts: &[&Table],
    id_column: &str,
    table_name: &str,
) -> Result<RowMapping> {
    let mut index = ItemIndex::default();
    let mut rows: Vec<(usize, ItemId)> = Vec::new();
    let mut skipped_rows = 0usize;
    let mut offset = 0;
    for part in parts {
        let routes = index.route(part, id_column, table_name)?;
        let items = index.items();
        rows.extend(
            routes
                .rows
                .iter()
                .map(|&(row, at)| (offset + row, items[at])),
        );
        skipped_rows += routes.skipped;
        offset += part.len();
    }
    Ok((rows, index, skipped_rows))
}

/// The distinct items of one write, each at a fixed position: a write's
/// per-item state (values, tags) lives in vectors aligned with
/// [`ItemIndex::items`], and rows reach it through [`ItemIndex::route`].
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ItemIndex {
    items: Vec<ItemId>,
    positions: HashMap<ItemId, usize>,
}

/// Where the rows of one table go: `(row, position)` for every row with a
/// usable item id, and how many rows have none.
#[derive(Debug)]
pub(crate) struct Routes {
    pub rows: Vec<(usize, usize)>,
    pub skipped: usize,
}

impl ItemIndex {
    /// Indexes `items` in order; a repeated item keeps its first position.
    pub(crate) fn new(items: impl IntoIterator<Item = ItemId>) -> ItemIndex {
        let mut index = ItemIndex::default();
        for item in items {
            index.insert(item);
        }
        index
    }

    /// The indexed items, by position.
    pub(crate) fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// The position of `item`, when it is indexed.
    pub(crate) fn position(&self, item: ItemId) -> Option<usize> {
        self.positions.get(&item).copied()
    }

    /// A vector aligned with the items: each pair's value at its item's
    /// position (the last pair wins), `fill` where no pair names the item.
    /// Pairs naming an item the index lacks are ignored.
    pub(crate) fn align<T: Clone>(
        &self,
        pairs: impl IntoIterator<Item = (ItemId, T)>,
        fill: T,
    ) -> Vec<T> {
        let mut aligned = vec![fill; self.items.len()];
        for (item, value) in pairs {
            if let Some(at) = self.position(item) {
                aligned[at] = value;
            }
        }
        aligned
    }

    /// The `(item, value)` pairs of `values` (aligned with the items) that
    /// `keep(position, value)` accepts, in ascending item order — the
    /// order the log records them in.
    pub(crate) fn sorted_pairs<T: Clone>(
        &self,
        values: &[T],
        keep: impl Fn(usize, &T) -> bool,
    ) -> Vec<(ItemId, T)> {
        let mut pairs: Vec<(ItemId, T)> = (self.items.iter().zip(values).enumerate())
            .filter(|&(at, (_, value))| keep(at, value))
            .map(|(_, (&item, value))| (item, value.clone()))
            .collect();
        pairs.sort_unstable_by_key(|&(item, _)| item);
        pairs
    }

    /// The position of `item`, appending it when it is not indexed yet.
    fn insert(&mut self, item: ItemId) -> usize {
        let next = self.items.len();
        let at = *self.positions.entry(item).or_insert(next);
        if at == next {
            self.items.push(item);
        }
        at
    }

    /// Routes every row of `table` holding a usable item id to its item's
    /// position, appending the items not indexed yet after the known ones
    /// — a write's per-item vectors end before them, so their rows count
    /// as not covered by the write.  Rows whose id is `NULL`,
    /// non-integer, negative, or beyond `u32` are counted as skipped.
    pub(crate) fn route(
        &mut self,
        table: &Table,
        id_column: &str,
        table_name: &str,
    ) -> Result<Routes> {
        let id_idx = table.schema().index_of(id_column).ok_or_else(|| {
            CrowdDbError::Configuration(format!(
                "table {table_name} has no id column '{id_column}'"
            ))
        })?;
        let mut routes = Routes {
            rows: Vec::with_capacity(table.len()),
            skipped: 0,
        };
        for (row, values) in table.rows().iter().enumerate() {
            match values[id_idx] {
                Value::Integer(id) if (0..=u32::MAX as i64).contains(&id) => {
                    routes.rows.push((row, self.insert(id as ItemId)));
                }
                _ => routes.skipped += 1,
            }
        }
        Ok(routes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extraction::ExtractionConfig;
    use relational::{Column, DataType, Schema};

    fn table_with_ids(ids: &[i64]) -> Table {
        let schema = Schema::new(vec![
            Column::not_null("item_id", DataType::Integer),
            Column::new("name", DataType::Text),
        ])
        .unwrap();
        let mut table = Table::new("things", schema);
        for &id in ids {
            table
                .insert_row(vec![Value::Integer(id), Value::Text(format!("thing {id}"))])
                .unwrap();
        }
        table
    }

    fn perceptual(gold: usize) -> ExpansionStrategy {
        ExpansionStrategy::PerceptualSpace {
            gold_sample_size: gold,
            extraction: ExtractionConfig::default(),
        }
    }

    #[test]
    fn plan_dedupes_resolves_overrides_and_shares_gold() {
        let table = table_with_ids(&(0..50).collect::<Vec<i64>>());
        let mut attributes = HashMap::new();
        attributes.insert("is_comedy".to_string(), "Comedy".to_string());
        attributes.insert("is_horror".to_string(), "Horror".to_string());
        let mut overrides = HashMap::new();
        overrides.insert("is_horror".to_string(), ExpansionStrategy::DirectCrowd);
        let columns = vec![
            "is_comedy".to_string(),
            "is_horror".to_string(),
            "IS_COMEDY".to_string(), // duplicate, different case
        ];
        let plan = build_plan(PlanInputs {
            parts: &[&table],
            table_name: "things",
            id_column: "item_id",
            columns: &columns,
            attributes: &attributes,
            overrides: &overrides,
            default_strategy: &perceptual(20),
            space_len: 50,
            seed: 7,
        })
        .unwrap();

        assert_eq!(plan.attributes.len(), 2, "duplicates are planned once");
        assert_eq!(plan.attributes[0].attribute, "Comedy");
        assert_eq!(plan.attributes[1].strategy, ExpansionStrategy::DirectCrowd);
        // The comedy attribute draws the shared gold sample; horror (direct)
        // asks about everything.
        assert_eq!(plan.gold_sample.len(), 20);
        assert_eq!(plan.crowd_items_for(0), plan.gold_for(0));
        assert_eq!(plan.crowd_items_for(1).len(), 50);
        assert!(plan.gold_for(1).is_empty());
        // Gold items are real items.
        assert!(plan.gold_sample.iter().all(|i| plan.items.contains(i)));
    }

    #[test]
    fn gold_sample_size_is_the_max_demand_and_prefixes_are_shared() {
        let table = table_with_ids(&(0..100).collect::<Vec<i64>>());
        let mut attributes = HashMap::new();
        attributes.insert("a".to_string(), "A".to_string());
        attributes.insert("b".to_string(), "B".to_string());
        let mut overrides = HashMap::new();
        overrides.insert("a".to_string(), perceptual(10));
        overrides.insert("b".to_string(), perceptual(30));
        let columns = vec!["a".to_string(), "b".to_string()];
        let plan = build_plan(PlanInputs {
            parts: &[&table],
            table_name: "things",
            id_column: "item_id",
            columns: &columns,
            attributes: &attributes,
            overrides: &overrides,
            default_strategy: &ExpansionStrategy::DirectCrowd,
            space_len: 100,
            seed: 3,
        })
        .unwrap();
        assert_eq!(plan.gold_sample.len(), 30);
        // The smaller attribute trains on a prefix of the shared sample, so
        // its crowd questions are a subset of the bigger attribute's.
        assert_eq!(plan.gold_for(0), &plan.gold_sample[..10]);
        assert_eq!(plan.gold_for(1), &plan.gold_sample[..30]);
    }

    #[test]
    fn non_contiguous_and_invalid_ids_map_explicitly() {
        // Sparse ids, one negative (unmappable), one duplicate.
        let table = table_with_ids(&[3, 900, -5, 14, 3]);
        let attributes: HashMap<String, String> =
            [("x".to_string(), "X".to_string())].into_iter().collect();
        let columns = vec!["x".to_string()];
        let plan = build_plan(PlanInputs {
            parts: &[&table],
            table_name: "things",
            id_column: "item_id",
            columns: &columns,
            attributes: &attributes,
            overrides: &HashMap::new(),
            default_strategy: &ExpansionStrategy::DirectCrowd,
            space_len: 20,
            seed: 1,
        })
        .unwrap();
        // 3 (first occurrence), 900, 14 are mapped; -5 is not an item id
        // and its row is counted as skipped.
        assert_eq!(plan.skipped_rows, 1);
        assert_eq!(plan.items, vec![3, 900, 14]);
        // Every row with a valid id is mapped — including the duplicate,
        // which shares item 3 with row 0.
        assert_eq!(plan.rows, vec![(0, 3), (1, 900), (3, 14), (4, 3)]);

        // Routing through the plan's item index reaches each item's
        // position; an item the index lacks lands past the plan's items.
        let mut index = ItemIndex::new(plan.items.iter().copied());
        let table = table_with_ids(&[14, 3, 77, -5]);
        let routes = index.route(&table, "item_id", "things").unwrap();
        assert_eq!(routes.rows, vec![(0, 2), (1, 0), (2, 3)]);
        assert_eq!(routes.skipped, 1);
        assert_eq!(index.items(), &[3, 900, 14, 77]);
    }

    #[test]
    fn null_ids_count_as_skipped_rows() {
        let schema = Schema::new(vec![Column::new("item_id", DataType::Integer)]).unwrap();
        let mut table = Table::new("things", schema);
        table.insert_row(vec![Value::Integer(4)]).unwrap();
        table.insert_row(vec![Value::Null]).unwrap();
        table
            .insert_row(vec![Value::Integer(5_000_000_000)])
            .unwrap();
        let (rows, index, skipped) = row_mapping(&[&table], "item_id", "things").unwrap();
        assert_eq!(rows, vec![(0, 4)]);
        assert_eq!(index.items(), &[4]);
        assert_eq!(
            skipped, 2,
            "NULL and beyond-u32 ids are counted, not dropped"
        );
    }

    #[test]
    fn unregistered_columns_are_rejected() {
        let table = table_with_ids(&[0, 1]);
        let columns = vec!["mystery".to_string()];
        let err = build_plan(PlanInputs {
            parts: &[&table],
            table_name: "things",
            id_column: "item_id",
            columns: &columns,
            attributes: &HashMap::new(),
            overrides: &HashMap::new(),
            default_strategy: &ExpansionStrategy::DirectCrowd,
            space_len: 2,
            seed: 1,
        });
        assert!(matches!(err, Err(CrowdDbError::UnknownAttribute { .. })));
    }
}
