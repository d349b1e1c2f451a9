//! The materialize stage: writing acquired attribute values, and their
//! provenance with them, into relational columns through an explicit
//! row → item routing.  Live expansion, repair, and WAL recovery all
//! write cells through [`materialize_column`] and [`repair_cells`], so a
//! replayed cell carries exactly the tag the live write gave it (a
//! snapshot stores every cell's tag as it is).
//!
//! A write's per-item state lives in vectors aligned with the items of a
//! [`planner::ItemIndex`](crate::planner::ItemIndex): the item at
//! position `p` receives `values[p]`, tagged `marks[p]`, in every row
//! that holds it, and each row reaches its item through the index's
//! [`Routes`].

use relational::{CellProvenance, Column, DataType, MissingReason, Table, Value};

use crate::planner::Routes;
use crate::Result;

/// The tag of a repaired cell.  Repaired labels went through the audit →
/// re-source → merge loop and are treated as fully trusted; the repair
/// round's dollars are reported once, in
/// [`RepairOutcome::repair_cost`](crate::RepairOutcome::repair_cost).
pub(crate) const REPAIRED: CellProvenance = CellProvenance::CrowdDerived {
    confidence: 1.0,
    cost_share: 0.0,
};

/// The outcome of materializing one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct MaterializeOutcome {
    /// Rows that received a value.
    pub rows_filled: usize,
    /// Rows left `NULL` (no verdict, or the item is not mapped).
    pub rows_unfilled: usize,
}

impl std::ops::AddAssign for MaterializeOutcome {
    fn add_assign(&mut self, other: MaterializeOutcome) {
        self.rows_filled += other.rows_filled;
        self.rows_unfilled += other.rows_unfilled;
    }
}

/// One column write of a commit, its per-item state aligned with the
/// commit's [`ItemIndex`](crate::planner::ItemIndex).
pub(crate) enum ColumnWrite {
    /// A new or re-expanded column, each item's cells tagged with its mark
    /// ([`materialize_column`]); logged as a `MaterializeColumn` record.
    Materialize {
        column: String,
        data_type: DataType,
        values: Vec<Value>,
        marks: Vec<CellProvenance>,
    },
    /// An overwrite of cells of an existing column, tagged [`REPAIRED`]
    /// ([`repair_cells`]); logged as a `SetCells` record of the items
    /// written.
    Repair { column: String, values: Vec<Value> },
}

/// Adds `column` to `table` (if not already present — a forced re-expansion
/// overwrites in place) and writes it in every row in one pass.  Each
/// routed row gets its item's value from `values` (`NULL` past its end),
/// tagged with its item's mark — `NotExpanded` past the end of `marks`.
///
/// Rows sharing an item all receive its value; rows whose item has no
/// value become `NULL` and are counted, never silently skipped.  A row
/// without a usable item id keeps its value and, when that is `NULL`,
/// reads `NoItemId`: no crowd value can ever be routed to it.
pub(crate) fn materialize_column(
    table: &mut Table,
    column: &str,
    data_type: DataType,
    values: &[Value],
    marks: &[CellProvenance],
    routes: &Routes,
) -> Result<MaterializeOutcome> {
    if !table.schema().contains(column) {
        table.add_column(Column::new(column, data_type), None)?;
    }
    table.track_provenance(column)?;
    let rows = table.len();
    let mut writer = table.column_writer(column)?;
    let mut rows_filled = 0;
    for &(row, at) in &routes.rows {
        let value = values.get(at).cloned().unwrap_or(Value::Null);
        rows_filled += usize::from(!value.is_null());
        let tag = (marks.get(at).copied()).unwrap_or(MissingReason::NotExpanded.into());
        writer.set(row, value, tag)?;
    }
    if routes.skipped > 0 {
        let mut unmapped = vec![true; rows];
        for &(row, _) in &routes.rows {
            unmapped[row] = false;
        }
        for (row, unmapped) in unmapped.into_iter().enumerate() {
            if unmapped && writer.value(row)?.is_null() {
                writer.set(row, Value::Null, MissingReason::NoItemId.into())?;
            }
        }
    }
    Ok(MaterializeOutcome {
        rows_filled,
        rows_unfilled: routes.rows.len() - rows_filled,
    })
}

/// Overwrites `column` in every row whose item has a value in `values`,
/// tagged [`REPAIRED`], and flags, per position, the items written.
pub(crate) fn repair_cells(
    table: &mut Table,
    column: &str,
    values: &[Value],
    routes: &Routes,
    written: &mut [bool],
) -> Result<()> {
    let mut cells = (routes.rows.iter())
        .filter_map(|&(row, at)| Some((row, at, values.get(at)?)))
        .peekable();
    if cells.peek().is_none() {
        return Ok(());
    }
    let mut writer = table.column_writer(column)?;
    for (row, at, value) in cells {
        writer.set(row, value.clone(), REPAIRED)?;
        written[at] = true;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::ItemIndex;
    use relational::Schema;

    fn table_with_ids(ids: &[i64]) -> Table {
        let schema = Schema::new(vec![Column::not_null("item_id", DataType::Integer)]).unwrap();
        let mut table = Table::new("t", schema);
        for &id in ids {
            table.insert_row(vec![Value::Integer(id)]).unwrap();
        }
        table
    }

    /// The routes of `table`'s rows to the positions of `items`.
    fn routes(table: &Table, items: &[u32]) -> Routes {
        let mut index = ItemIndex::new(items.iter().copied());
        index.route(table, "item_id", "t").unwrap()
    }

    #[test]
    fn fills_through_the_mapping_and_counts_gaps() {
        let mut table = table_with_ids(&[5, 17, 99]);
        let routes = routes(&table, &[5, 17, 99]);
        let values = [Value::Boolean(true), Value::Null, Value::Boolean(false)];
        let outcome =
            materialize_column(&mut table, "flag", DataType::Boolean, &values, &[], &routes)
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
        // Item 8 lies past the end of the values: its row stays NULL.
        let routes = routes(&table, &[7]);
        let values = [Value::Boolean(true)];
        let outcome =
            materialize_column(&mut table, "flag", DataType::Boolean, &values, &[], &routes)
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
        let routes = routes(&table, &[1, 2]);
        let first = [Value::Boolean(true), Value::Null];
        materialize_column(&mut table, "flag", DataType::Boolean, &first, &[], &routes).unwrap();
        let second = [Value::Boolean(false), Value::Boolean(true)];
        let outcome =
            materialize_column(&mut table, "flag", DataType::Boolean, &second, &[], &routes)
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
        let third = [Value::Null, Value::Boolean(false)];
        let outcome =
            materialize_column(&mut table, "flag", DataType::Boolean, &third, &[], &routes)
                .unwrap();
        assert_eq!(outcome.rows_filled, 1);
        assert_eq!(outcome.rows_unfilled, 1);
        assert_eq!(table.rows()[0][idx], Value::Null, "stale value cleared");
        assert_eq!(table.rows()[1][idx], Value::Boolean(false));
    }

    #[test]
    fn marks_tag_every_row_and_rows_without_an_item_read_no_item_id() {
        let schema = Schema::new(vec![Column::new("item_id", DataType::Integer)]).unwrap();
        let mut table = Table::new("t", schema);
        for id in [
            Value::Integer(4),
            Value::Null,
            Value::Integer(9),
            Value::Integer(4),
        ] {
            table.insert_row(vec![id]).unwrap();
        }
        let routes = routes(&table, &[4]);
        let values = [Value::Float(2.5)];
        let marks = [CellProvenance::Extracted];
        let outcome = materialize_column(
            &mut table,
            "score",
            DataType::Float,
            &values,
            &marks,
            &routes,
        )
        .unwrap();
        assert_eq!((outcome.rows_filled, outcome.rows_unfilled), (2, 1));
        let idx = table.schema().index_of("score").unwrap();
        let cells: Vec<(Value, CellProvenance)> = (table.rows().iter())
            .zip(table.tags(idx).unwrap())
            .map(|(row, tag)| (row[idx].clone(), *tag))
            .collect();
        assert_eq!(
            cells,
            vec![
                (Value::Float(2.5), CellProvenance::Extracted),
                (Value::Null, MissingReason::NoItemId.into()),
                (Value::Null, MissingReason::NotExpanded.into()),
                (Value::Float(2.5), CellProvenance::Extracted),
            ]
        );
    }
}
