//! The materialize stage: writing acquired attribute values, and their
//! provenance with them, into relational columns through the planner's
//! explicit id → row mapping.  Live expansion, repair, and WAL and
//! snapshot recovery all write cells through these functions, so a
//! recovered cell carries exactly the tag the live write gave it.

use std::collections::HashMap;

use perceptual::ItemId;
use relational::{CellProvenance, Column, DataType, MissingReason, Table, Value};

use crate::Result;

/// Per-item provenance marks: the tag every row of an item receives.
pub(crate) type Marks = HashMap<ItemId, CellProvenance>;

/// The tag of a repaired cell.  Repaired labels went through the audit →
/// re-source → merge loop and are treated as fully trusted; the repair
/// round's dollars are reported once, in
/// [`RepairOutcome::repair_cost`](crate::RepairOutcome::repair_cost).
pub(crate) const REPAIRED: CellProvenance = CellProvenance::CrowdDerived {
    confidence: 1.0,
    cost_share: 0.0,
};

/// The outcome of materializing one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MaterializeOutcome {
    /// Rows that received a value.
    pub rows_filled: usize,
    /// Rows left `NULL` (no verdict, or the item is not mapped).
    pub rows_unfilled: usize,
}

/// Adds `column` to `table` (if not already present — a forced re-expansion
/// overwrites in place) and fills it with `values` routed through the
/// explicit `(row, item)` mapping, tagging the cells with `marks` (see
/// [`write_column`]; `None` writes stored values, as numeric expansions
/// logged before per-cell tags replay).
///
/// Rows sharing an item id all receive its value; rows whose item has no
/// value become `NULL` and are counted, never silently skipped.
pub(crate) fn materialize_column(
    table: &mut Table,
    column: &str,
    data_type: DataType,
    values: &HashMap<ItemId, Value>,
    marks: Option<&Marks>,
    rows: &[(usize, ItemId)],
) -> Result<MaterializeOutcome> {
    if !table.schema().contains(column) {
        table.add_column(Column::new(column, data_type), None)?;
    }
    write_column(table, column, rows, marks, |_, _, item| {
        values.get(&item).cloned().unwrap_or(Value::Null)
    })?;
    let rows_filled = rows
        .iter()
        .filter(|(_, item)| values.contains_key(item))
        .count();
    Ok(MaterializeOutcome {
        rows_filled,
        rows_unfilled: rows.len() - rows_filled,
    })
}

/// Overwrites `column` in every row whose item has a value in `values`,
/// tagged [`REPAIRED`], and returns the items written.
pub(crate) fn repair_cells(
    table: &mut Table,
    column: &str,
    values: &HashMap<ItemId, Value>,
    rows: &[(usize, ItemId)],
) -> Result<Vec<ItemId>> {
    let mut written = Vec::new();
    for &(row, item) in rows {
        if let Some(value) = values.get(&item) {
            table.set_cell(row, column, value.clone(), REPAIRED)?;
            written.push(item);
        }
    }
    Ok(written)
}

/// Writes `column` of every row of `table` in one pass.  Each mapped row
/// gets `value_of(table, row, item)`, tagged with its item's mark —
/// `NotExpanded` when `marks` has none for it.  A row without a usable
/// item id keeps its value and, when that is `NULL`, reads `NoItemId`: no
/// crowd value can ever be routed to it.  Without `marks` the values are
/// written as stored.  Snapshot recovery re-tags a column by writing each
/// cell's own value back with its mark.
pub(crate) fn write_column(
    table: &mut Table,
    column: &str,
    rows: &[(usize, ItemId)],
    marks: Option<&Marks>,
    value_of: impl Fn(&Table, usize, ItemId) -> Value,
) -> Result<()> {
    let Some(marks) = marks else {
        for &(row, item) in rows {
            let value = value_of(table, row, item);
            table.set_value(row, column, value)?;
        }
        return Ok(());
    };
    let index = table.track_provenance(column)?;
    let mut unmapped = vec![true; table.len()];
    for &(row, item) in rows {
        unmapped[row] = false;
        let tag = (marks.get(&item).copied()).unwrap_or(MissingReason::NotExpanded.into());
        let value = value_of(table, row, item);
        table.set_cell(row, column, value, tag)?;
    }
    for (row, unmapped) in unmapped.into_iter().enumerate() {
        if unmapped && table.rows()[row][index].is_null() {
            table.set_cell(row, column, Value::Null, MissingReason::NoItemId.into())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::Schema;

    fn table_with_ids(ids: &[i64]) -> Table {
        let schema = Schema::new(vec![Column::not_null("item_id", DataType::Integer)]).unwrap();
        let mut table = Table::new("t", schema);
        for &id in ids {
            table.insert_row(vec![Value::Integer(id)]).unwrap();
        }
        table
    }

    #[test]
    fn fills_through_the_mapping_and_counts_gaps() {
        let mut table = table_with_ids(&[5, 17, 99]);
        let rows: Vec<(usize, ItemId)> = vec![(0, 5), (1, 17), (2, 99)];
        let values: HashMap<ItemId, Value> =
            [(5, Value::Boolean(true)), (99, Value::Boolean(false))]
                .into_iter()
                .collect();
        let outcome =
            materialize_column(&mut table, "flag", DataType::Boolean, &values, None, &rows)
                .unwrap();
        assert_eq!(outcome.rows_filled, 2);
        assert_eq!(outcome.rows_unfilled, 1);
        let idx = table.schema().index_of("flag").unwrap();
        assert_eq!(table.rows()[0][idx], Value::Boolean(true));
        assert_eq!(table.rows()[1][idx], Value::Null);
        assert_eq!(table.rows()[2][idx], Value::Boolean(false));
    }

    #[test]
    fn duplicated_item_ids_fill_every_row() {
        let mut table = table_with_ids(&[7, 7, 8]);
        let rows: Vec<(usize, ItemId)> = vec![(0, 7), (1, 7), (2, 8)];
        let values: HashMap<ItemId, Value> = [(7, Value::Boolean(true))].into_iter().collect();
        let outcome =
            materialize_column(&mut table, "flag", DataType::Boolean, &values, None, &rows)
                .unwrap();
        assert_eq!(outcome.rows_filled, 2, "both rows with item 7 are filled");
        assert_eq!(outcome.rows_unfilled, 1);
        let idx = table.schema().index_of("flag").unwrap();
        assert_eq!(table.rows()[0][idx], Value::Boolean(true));
        assert_eq!(table.rows()[1][idx], Value::Boolean(true));
        assert_eq!(table.rows()[2][idx], Value::Null);
    }

    #[test]
    fn re_materializing_overwrites_in_place() {
        let mut table = table_with_ids(&[1, 2]);
        let rows: Vec<(usize, ItemId)> = vec![(0, 1), (1, 2)];
        let first: HashMap<ItemId, Value> = [(1, Value::Boolean(true))].into_iter().collect();
        materialize_column(&mut table, "flag", DataType::Boolean, &first, None, &rows).unwrap();
        let second: HashMap<ItemId, Value> =
            [(1, Value::Boolean(false)), (2, Value::Boolean(true))]
                .into_iter()
                .collect();
        let outcome =
            materialize_column(&mut table, "flag", DataType::Boolean, &second, None, &rows)
                .unwrap();
        assert_eq!(outcome.rows_filled, 2);
        // Still exactly one `flag` column.
        assert_eq!(
            table
                .schema()
                .column_names()
                .iter()
                .filter(|n| *n == "flag")
                .count(),
            1
        );
        let idx = table.schema().index_of("flag").unwrap();
        assert_eq!(table.rows()[0][idx], Value::Boolean(false));

        // A round that cannot decide item 1 clears its stale value instead
        // of leaving the previous round's answer in place.
        let third: HashMap<ItemId, Value> = [(2, Value::Boolean(false))].into_iter().collect();
        let outcome =
            materialize_column(&mut table, "flag", DataType::Boolean, &third, None, &rows).unwrap();
        assert_eq!(outcome.rows_filled, 1);
        assert_eq!(outcome.rows_unfilled, 1);
        assert_eq!(table.rows()[0][idx], Value::Null, "stale value cleared");
        assert_eq!(table.rows()[1][idx], Value::Boolean(false));
    }
}
