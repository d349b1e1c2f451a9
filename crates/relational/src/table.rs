//! Row-oriented tables.

use serde::{Deserialize, Serialize};

use crate::error::RelationalError;
use crate::key_index::{KeyIndex, KeyRows};
use crate::provenance::{CellProvenance, MissingReason};
use crate::schema::{Column, Schema};
use crate::value::{DataType, Value};
use crate::Result;

/// The tag an `INSERT` gives a cell of a provenance-tracked column.
pub(crate) fn inserted(value: &Value) -> CellProvenance {
    match value {
        Value::Null => MissingReason::NotExpanded.into(),
        _ => CellProvenance::Stored,
    }
}

/// The provenance of one column's cells, one tag per row, plus how many
/// of them are recoverable holes — counted as tags are written, so asking
/// whether a column is incomplete costs no scan.
#[derive(Debug, Clone, Default, PartialEq)]
struct ColumnTags {
    cells: Vec<CellProvenance>,
    holes: usize,
}

/// A named table: a schema plus a row store, optionally with a key index
/// on one `INTEGER` column ([`Table::index_key`]) and with per-cell
/// [`CellProvenance`] on the columns that track it
/// ([`Table::track_provenance`]).
///
/// Provenance tags are table state: every cell writer sets a cell's value
/// and tag together ([`Table::set_cell`]), and tags take part in equality
/// and cloning.  The key index is derived state: two tables with the same
/// name, schema, rows and tags are equal whether or not either one
/// indexes a key, and a clone indexes none.
#[derive(Debug, Serialize, Deserialize)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Vec<Value>>,
    /// Per column: its cells' tags, or `None` when every cell is
    /// [`CellProvenance::Stored`].
    tags: Vec<Option<ColumnTags>>,
    #[serde(skip)]
    key: Option<KeyIndex>,
}

impl Clone for Table {
    fn clone(&self) -> Table {
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            rows: self.rows.clone(),
            tags: self.tags.clone(),
            key: None,
        }
    }
}

impl PartialEq for Table {
    fn eq(&self, other: &Table) -> bool {
        self.name == other.name
            && self.schema == other.schema
            && self.rows == other.rows
            && self.tags == other.tags
    }
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into().to_lowercase(),
            tags: vec![None; schema.len()],
            schema,
            rows: Vec::new(),
            key: None,
        }
    }

    /// The table name (lower-cased).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// One row by index.
    pub fn row(&self, index: usize) -> Option<&[Value]> {
        self.rows.get(index).map(|r| r.as_slice())
    }

    /// Inserts a full row (one value per column, in schema order).  In a
    /// provenance-tracked column the new cell reads
    /// [`CellProvenance::Stored`] when it holds a value and
    /// [`MissingReason::NotExpanded`] when it is `NULL`.
    pub fn insert_row(&mut self, row: Vec<Value>) -> Result<()> {
        self.insert_tagged(row, |_, value| inserted(value))
    }

    /// Appends every row of `source`, matching its cells to this table's
    /// columns by name, tags included: every column `source` tracks
    /// provenance for tracks it here too (rows or not), and a column
    /// `source` lacks gets `NULL`, tagged as [`Table::insert_row`] tags it.
    pub fn append(&mut self, source: &Table) -> Result<()> {
        let from: Vec<Option<usize>> = (self.schema.columns().iter())
            .map(|column| source.schema.index_of(&column.name))
            .collect();
        for (column, from) in from.iter().enumerate() {
            if from.is_some_and(|from| source.tags[from].is_some()) {
                self.start_tracking(column);
            }
        }
        for (index, row) in source.rows.iter().enumerate() {
            let values = (from.iter())
                .map(|from| from.map_or(Value::Null, |from| row[from].clone()))
                .collect();
            self.insert_tagged(values, |column, value| match from[column] {
                Some(from) => source
                    .tags(from)
                    .map_or(CellProvenance::Stored, |t| t[index]),
                None => inserted(value),
            })?;
        }
        Ok(())
    }

    /// Splits the table into `n` tables with its name, schema and
    /// provenance-tracked columns: each row, tags included, moves to table
    /// `route(row)` (which must be below `n`), in row order.
    pub fn split(self, n: usize, route: impl Fn(&[Value]) -> usize) -> Vec<Table> {
        let mut parts: Vec<Table> = (0..n)
            .map(|_| Table {
                tags: (self.tags.iter())
                    .map(|tags| tags.as_ref().map(|_| ColumnTags::default()))
                    .collect(),
                ..Table::new(&self.name, self.schema.clone())
            })
            .collect();
        for (index, row) in self.rows.into_iter().enumerate() {
            let part = &mut parts[route(&row)];
            for (slot, tags) in part.tags.iter_mut().zip(&self.tags) {
                if let (Some(slot), Some(tags)) = (slot, tags) {
                    slot.holes += usize::from(tags.cells[index].is_recoverable());
                    slot.cells.push(tags.cells[index]);
                }
            }
            part.rows.push(row);
        }
        parts
    }

    /// Inserts a full row, tagging the cell of each provenance-tracked
    /// column with `tag(column position, value)`: how a stored table is
    /// rebuilt with the tags it was written with.
    pub fn insert_tagged(
        &mut self,
        row: Vec<Value>,
        tag: impl Fn(usize, &Value) -> CellProvenance,
    ) -> Result<()> {
        let row = self.admit_row(row)?;
        self.push_row(row, tag);
        Ok(())
    }

    /// Checks a full row (one value per column, in schema order) against
    /// the schema, each value by [`Column::admit`], and returns it as the
    /// table stores it.
    pub(crate) fn admit_row(&self, mut row: Vec<Value>) -> Result<Vec<Value>> {
        if row.len() != self.schema.len() {
            return Err(RelationalError::InvalidStatement(format!(
                "expected {} values but got {}",
                self.schema.len(),
                row.len()
            )));
        }
        for (value, column) in row.iter_mut().zip(self.schema.columns()) {
            column.admit(value)?;
        }
        Ok(row)
    }

    /// Appends a row [`Table::admit_row`] returned, tagged as
    /// [`Table::insert_tagged`] tags it.
    pub(crate) fn push_row(
        &mut self,
        row: Vec<Value>,
        tag: impl Fn(usize, &Value) -> CellProvenance,
    ) {
        if let Some(key) = &mut self.key {
            key.insert(&self.rows, &row[key.column()], self.rows.len());
        }
        for (column, slot) in self.tags.iter_mut().enumerate() {
            if let Some(tags) = slot {
                let provenance = tag(column, &row[column]);
                tags.holes += usize::from(provenance.is_recoverable());
                tags.cells.push(provenance);
            }
        }
        self.rows.push(row);
    }

    /// Starts tracking provenance for `column`: its cells read
    /// [`CellProvenance::Stored`] until they are written.  Does nothing
    /// when the column already tracks it.  Returns the column's position.
    pub fn track_provenance(&mut self, column: &str) -> Result<usize> {
        let index = self.column_index(column)?;
        self.start_tracking(index);
        Ok(index)
    }

    fn start_tracking(&mut self, column: usize) {
        let rows = self.rows.len();
        self.tags[column].get_or_insert_with(|| ColumnTags {
            cells: vec![CellProvenance::Stored; rows],
            holes: 0,
        });
    }

    /// The provenance of every cell of the column at position `column`, in
    /// row order — `None` when the column does not track provenance (every
    /// cell is [`CellProvenance::Stored`]).
    pub fn tags(&self, column: usize) -> Option<&[CellProvenance]> {
        self.tags[column].as_ref().map(|tags| tags.cells.as_slice())
    }

    /// How many cells of the column at position `column` hold a
    /// recoverable hole ([`CellProvenance::is_recoverable`]).  Kept by the
    /// cell writers, so it costs no scan.
    pub fn recoverable_holes(&self, column: usize) -> usize {
        self.tags[column].as_ref().map_or(0, |tags| tags.holes)
    }

    fn column_index(&self, column: &str) -> Result<usize> {
        self.schema
            .index_of(column)
            .ok_or_else(|| RelationalError::UnknownColumn {
                table: self.name.clone(),
                column: column.to_string(),
            })
    }

    /// Declares `column` — an `INTEGER` column — the table's key and
    /// indexes it: from then on [`Table::rows_with_key`] finds the rows
    /// holding an id without a scan, and every row mutator keeps the index
    /// current.  Ids may repeat; `NULL` cells are not indexed.  Declaring
    /// a key again rebuilds the index on the new column.
    pub fn index_key(&mut self, column: &str) -> Result<()> {
        let index = self.column_index(column)?;
        let data_type = self.schema.columns()[index].data_type;
        if data_type != DataType::Integer {
            return Err(RelationalError::TypeMismatch(format!(
                "key column {column} must be INTEGER, not {data_type}"
            )));
        }
        self.key = Some(KeyIndex::build(index, &self.rows));
        Ok(())
    }

    /// The key column, when the table indexes one ([`Table::index_key`]).
    pub fn key_column(&self) -> Option<&Column> {
        self.key
            .as_ref()
            .map(|key| &self.schema.columns()[key.column()])
    }

    /// The rows whose key column holds `id`, in ascending row order —
    /// `None` when the table indexes no key.
    pub fn rows_with_key(&self, id: i64) -> Option<KeyRows> {
        self.key.as_ref().map(|key| key.rows(&self.rows, id))
    }

    /// Inserts a row given as `(column, value)` pairs; unspecified columns
    /// become `NULL`.
    pub fn insert_named(&mut self, values: &[(&str, Value)]) -> Result<()> {
        let mut row = vec![Value::Null; self.schema.len()];
        for (name, value) in values {
            row[self.column_index(name)?] = value.clone();
        }
        self.insert_row(row)
    }

    /// Adds a new column; existing rows get `NULL` (or the provided default)
    /// in the new position.  This is the storage-level half of query-driven
    /// schema expansion.  The column does not track provenance.
    pub fn add_column(&mut self, column: Column, default: Option<Value>) -> Result<()> {
        let fill = self.new_column_fill(&column, default)?;
        self.schema.add_column(column)?;
        for row in &mut self.rows {
            row.push(fill.clone());
        }
        self.tags.push(None);
        Ok(())
    }

    /// The value [`Table::add_column`] gives every existing row in
    /// `column`, or the reason the column cannot be added.
    pub(crate) fn new_column_fill(&self, column: &Column, default: Option<Value>) -> Result<Value> {
        if default.is_none() && !column.nullable {
            return Err(RelationalError::TypeMismatch(format!(
                "cannot add NOT NULL column {} without a default",
                column.name
            )));
        }
        let mut fill = default.unwrap_or(Value::Null);
        column.admit(&mut fill)?;
        if self.schema.contains(&column.name) {
            return Err(RelationalError::ColumnExists(column.name.clone()));
        }
        Ok(fill)
    }

    /// Overwrites the value of `column` in row `row_index` with a stored
    /// value: [`Table::set_cell`] with [`CellProvenance::Stored`].
    pub fn set_value(&mut self, row_index: usize, column: &str, value: Value) -> Result<()> {
        self.set_cell(row_index, column, value, CellProvenance::Stored)
    }

    /// Overwrites the value of `column` in row `row_index` and its
    /// provenance together: [`ColumnWriter::set`] on a writer of that one
    /// column.
    pub fn set_cell(
        &mut self,
        row_index: usize,
        column: &str,
        value: Value,
        provenance: CellProvenance,
    ) -> Result<()> {
        self.column_writer(column)?
            .set(row_index, value, provenance)
    }

    /// The writer of `column`'s existing cells, with the column resolved
    /// once for every cell it writes.
    pub fn column_writer(&mut self, column: &str) -> Result<ColumnWriter<'_>> {
        let column = self.column_index(column)?;
        Ok(ColumnWriter {
            table: self,
            column,
        })
    }

    /// Overwrites the cell of column position `column` in row `row` — an
    /// existing row, with a value the column admits
    /// ([`Column::admit`]) — and its tag, keeping the key index and the
    /// column's hole count current.
    pub(crate) fn write_cell(
        &mut self,
        row: usize,
        column: usize,
        value: Value,
        provenance: CellProvenance,
    ) {
        if let Some(key) = self.key.as_mut().filter(|key| key.column() == column) {
            key.remove(&self.rows, &self.rows[row][column], row);
            key.insert(&self.rows, &value, row);
        }
        self.rows[row][column] = value;
        if provenance != CellProvenance::Stored {
            self.start_tracking(column);
        }
        if let Some(tags) = &mut self.tags[column] {
            let old = std::mem::replace(&mut tags.cells[row], provenance);
            tags.holes = tags.holes + usize::from(provenance.is_recoverable())
                - usize::from(old.is_recoverable());
        }
    }

    /// Reads the value of `column` in row `row_index`.
    pub fn value(&self, row_index: usize, column: &str) -> Result<&Value> {
        let col_idx = self.column_index(column)?;
        self.rows
            .get(row_index)
            .map(|r| &r[col_idx])
            .ok_or_else(|| {
                RelationalError::InvalidStatement(format!("row {row_index} does not exist"))
            })
    }

    /// Removes the rows at the given indices (indices refer to the current
    /// row order; duplicates and out-of-range indices are ignored).  Returns
    /// the number of rows removed.
    ///
    /// One pass compacts the surviving rows towards the front, in order,
    /// and moves their key-index entries and provenance tags with them.
    pub fn delete_rows(&mut self, indices: &[usize]) -> usize {
        let mut doomed: Vec<usize> = indices
            .iter()
            .copied()
            .filter(|&i| i < self.rows.len())
            .collect();
        doomed.sort_unstable();
        doomed.dedup();
        let Some(&first) = doomed.first() else {
            return 0;
        };
        let mut doomed_rest = doomed.iter().peekable();
        let mut kept = first;
        for row in first..self.rows.len() {
            let deleted = doomed_rest.next_if_eq(&&row).is_some();
            if let Some(key) = &mut self.key {
                let value = &self.rows[row][key.column()];
                if deleted {
                    key.remove(&self.rows, value, row);
                } else {
                    key.renumber(value, row, kept);
                }
            }
            for tags in self.tags.iter_mut().flatten() {
                if deleted {
                    tags.holes -= usize::from(tags.cells[row].is_recoverable());
                } else {
                    tags.cells.swap(kept, row);
                }
            }
            if !deleted {
                self.rows.swap(kept, row);
                kept += 1;
            }
        }
        self.rows.truncate(kept);
        for tags in self.tags.iter_mut().flatten() {
            tags.cells.truncate(kept);
        }
        doomed.len()
    }

    /// Number of `NULL`s in a column — the amount of data a crowd-enabled
    /// database would have to complete at query time.
    pub fn null_count(&self, column: &str) -> Result<usize> {
        let col_idx = self.column_index(column)?;
        Ok(self.rows.iter().filter(|r| r[col_idx].is_null()).count())
    }
}

/// The writer of existing cells: it sets a cell's value and its
/// provenance together, for any run of rows of one column (see
/// [`Table::column_writer`]).
///
/// Each write checks the value by [`Column::admit`] (an integer bound
/// for a `FLOAT` column is stored as a float), keeps the key index and
/// the column's count of recoverable holes current, and starts tracking
/// provenance for the column when it receives a tag other than
/// [`CellProvenance::Stored`].  A SQL `UPDATE` checks its values when it
/// is prepared and writes them through the same cell primitive.
pub struct ColumnWriter<'a> {
    table: &'a mut Table,
    column: usize,
}

impl ColumnWriter<'_> {
    /// The current value of the column in row `row`.
    pub fn value(&self, row: usize) -> Result<&Value> {
        (self.table.rows.get(row))
            .map(|values| &values[self.column])
            .ok_or_else(|| RelationalError::InvalidStatement(format!("row {row} does not exist")))
    }

    /// Overwrites the column's cell in row `row` with `value`, tagged
    /// `provenance`.
    pub fn set(&mut self, row: usize, mut value: Value, provenance: CellProvenance) -> Result<()> {
        self.table.schema.columns()[self.column].admit(&mut value)?;
        if row >= self.table.rows.len() {
            return Err(RelationalError::InvalidStatement(format!(
                "row {row} does not exist"
            )));
        }
        self.table.write_cell(row, self.column, value, provenance);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn movies() -> Table {
        let schema = Schema::new(vec![
            Column::not_null("id", DataType::Integer),
            Column::new("name", DataType::Text),
            Column::new("year", DataType::Integer),
        ])
        .unwrap();
        Table::new("Movies", schema)
    }

    #[test]
    fn insert_and_read_rows() {
        let mut t = movies();
        assert_eq!(t.name(), "movies");
        assert!(t.is_empty());
        t.insert_row(vec![
            Value::Integer(1),
            Value::from("Rocky"),
            Value::Integer(1976),
        ])
        .unwrap();
        t.insert_named(&[("id", Value::Integer(2)), ("name", Value::from("Psycho"))])
            .unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(0).unwrap()[1], Value::from("Rocky"));
        assert_eq!(t.value(1, "year").unwrap(), &Value::Null);
        assert!(t.row(5).is_none());
        assert!(t.value(5, "year").is_err());
    }

    #[test]
    fn insert_validates_arity_types_and_nullability() {
        let mut t = movies();
        assert!(t.insert_row(vec![Value::Integer(1)]).is_err());
        assert!(t
            .insert_row(vec![Value::from("x"), Value::from("y"), Value::Integer(1)])
            .is_err());
        // NOT NULL id.
        assert!(t
            .insert_row(vec![Value::Null, Value::from("y"), Value::Integer(1)])
            .is_err());
        // Unknown column in named insert.
        assert!(matches!(
            t.insert_named(&[("genre", Value::from("drama"))]),
            Err(RelationalError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn add_column_fills_existing_rows() {
        let mut t = movies();
        t.insert_row(vec![
            Value::Integer(1),
            Value::from("Rocky"),
            Value::Integer(1976),
        ])
        .unwrap();
        t.add_column(Column::new("is_comedy", DataType::Boolean), None)
            .unwrap();
        assert_eq!(t.schema().len(), 4);
        assert_eq!(t.value(0, "is_comedy").unwrap(), &Value::Null);
        assert_eq!(t.null_count("is_comedy").unwrap(), 1);

        t.add_column(
            Column::new("humor", DataType::Float),
            Some(Value::Float(0.0)),
        )
        .unwrap();
        assert_eq!(t.value(0, "humor").unwrap(), &Value::Float(0.0));

        // Duplicate column and bad defaults are rejected.
        assert!(t
            .add_column(Column::new("is_comedy", DataType::Boolean), None)
            .is_err());
        assert!(t
            .add_column(
                Column::new("bad", DataType::Integer),
                Some(Value::from("oops"))
            )
            .is_err());
        assert!(t
            .add_column(Column::not_null("strict", DataType::Integer), None)
            .is_err());
    }

    #[test]
    fn delete_rows_removes_only_requested_indices() {
        let mut t = movies();
        for i in 0..5 {
            t.insert_row(vec![
                Value::Integer(i),
                Value::from("m"),
                Value::Integer(2000 + i),
            ])
            .unwrap();
        }
        // Duplicates and out-of-range indices are ignored.
        let removed = t.delete_rows(&[1, 3, 3, 99]);
        assert_eq!(removed, 2);
        assert_eq!(t.len(), 3);
        let remaining: Vec<i64> = t
            .rows()
            .iter()
            .map(|r| match r[0] {
                Value::Integer(i) => i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(remaining, vec![0, 2, 4]);
        assert_eq!(t.delete_rows(&[]), 0);
    }

    #[test]
    fn cell_writers_keep_tags_and_hole_counts() {
        let budget: CellProvenance = MissingReason::BudgetExhausted.into();
        let judged = CellProvenance::CrowdDerived {
            confidence: 0.8,
            cost_share: 0.01,
        };
        let mut t = movies();
        for i in 0..4 {
            t.insert_row(vec![Value::Integer(i), Value::from("m"), Value::Null])
                .unwrap();
        }
        assert_eq!(t.tags(2), None, "columns start untracked");
        // A stored write leaves an untracked column untracked.
        t.set_value(0, "year", Value::Integer(1999)).unwrap();
        assert_eq!(t.tags(2), None);

        t.set_cell(1, "year", Value::Null, budget).unwrap();
        t.set_cell(2, "year", Value::Null, budget).unwrap();
        t.set_cell(3, "year", Value::Integer(1980), judged).unwrap();
        let stored = CellProvenance::Stored;
        assert_eq!(t.tags(2).unwrap(), [stored, budget, budget, judged]);
        assert_eq!(t.recoverable_holes(2), 2);
        assert_eq!(t.recoverable_holes(1), 0);

        // A stored overwrite (SQL UPDATE) retags its own cell only.
        t.set_value(1, "year", Value::Integer(2001)).unwrap();
        assert_eq!(t.tags(2).unwrap(), [stored, stored, budget, judged]);
        assert_eq!(t.recoverable_holes(2), 1);

        // INSERT tags a value stored and a NULL not expanded.
        let not_expanded: CellProvenance = MissingReason::NotExpanded.into();
        t.insert_row(vec![Value::Integer(8), Value::from("m"), Value::Null])
            .unwrap();
        t.insert_row(vec![Value::Integer(9), Value::from("m"), Value::Integer(7)])
            .unwrap();
        assert_eq!(t.tags(2).unwrap()[4..], [not_expanded, stored]);

        // DELETE compacts the tags with the rows and forgets their holes.
        assert_eq!(t.delete_rows(&[0, 2]), 2);
        assert_eq!(t.tags(2).unwrap(), [stored, judged, not_expanded, stored]);
        assert_eq!(t.recoverable_holes(2), 0);
        assert_eq!(t.value(1, "year").unwrap(), &Value::Integer(1980));

        // Tags are table state: clones carry them and equality sees them.
        let copy = t.clone();
        assert_eq!(copy, t);
        t.set_cell(0, "year", Value::Integer(2001), judged).unwrap();
        assert_ne!(copy, t, "same values, different tag");

        // A new column starts untracked; tracking it reads Stored.
        t.add_column(Column::new("humor", DataType::Float), None)
            .unwrap();
        assert_eq!(t.tags(3), None);
        assert_eq!(t.track_provenance("humor").unwrap(), 3);
        assert!(t.tags(3).unwrap().iter().all(|p| *p == stored));
        assert!(t.track_provenance("missing").is_err());
    }

    #[test]
    fn rows_copied_between_tables_keep_their_tags() {
        let judged = CellProvenance::Extracted;
        let mut source = movies();
        source
            .insert_row(vec![Value::Integer(1), Value::from("a"), Value::Null])
            .unwrap();
        source
            .insert_row(vec![Value::Integer(2), Value::from("b"), Value::Null])
            .unwrap();
        source
            .set_cell(1, "year", Value::Integer(1990), judged)
            .unwrap();
        // The target orders its columns differently and has one more.
        let schema = Schema::new(vec![
            Column::new("year", DataType::Integer),
            Column::new("id", DataType::Integer),
            Column::new("extra", DataType::Boolean),
            Column::new("name", DataType::Text),
        ])
        .unwrap();
        let mut target = Table::new("movies", schema);
        target.track_provenance("extra").unwrap();
        target.append(&source).unwrap();
        assert_eq!(
            target.rows()[1],
            vec![
                Value::Integer(1990),
                Value::Integer(2),
                Value::Null,
                Value::from("b")
            ]
        );
        let not_expanded: CellProvenance = MissingReason::NotExpanded.into();
        assert_eq!(target.tags(0).unwrap(), [CellProvenance::Stored, judged]);
        assert_eq!(target.tags(2).unwrap(), [not_expanded, not_expanded]);
        assert_eq!(target.tags(1), None);

        // A split routes rows with their tags; every part tracks what the
        // whole tracks, rows or not.
        let parts = source
            .clone()
            .split(3, |row| usize::from(row[0] == Value::Integer(2)));
        assert_eq!((parts[0].len(), parts[1].len(), parts[2].len()), (1, 1, 0));
        assert_eq!(parts[1].tags(2).unwrap(), [judged]);
        assert_eq!(parts[1].rows()[0], source.rows()[1]);
        assert_eq!(parts[2].tags(2).unwrap(), []);
        assert_eq!(parts[2].tags(1), None);
    }

    #[test]
    fn a_column_writer_writes_a_run_of_cells() {
        let budget: CellProvenance = MissingReason::BudgetExhausted.into();
        let mut t = movies();
        for i in 0..4 {
            t.insert_row(vec![Value::Integer(i), Value::from("m"), Value::Null])
                .unwrap();
        }
        t.add_column(Column::new("humor", DataType::Float), None)
            .unwrap();
        t.index_key("id").unwrap();

        let mut humor = t.column_writer("humor").unwrap();
        humor
            .set(0, Value::Integer(3), CellProvenance::Extracted)
            .unwrap();
        humor.set(1, Value::Null, budget).unwrap();
        humor.set(2, Value::Float(7.5), budget).unwrap();
        humor
            .set(2, Value::Float(8.5), CellProvenance::Stored)
            .unwrap();
        assert_eq!(humor.value(0).unwrap(), &Value::Float(3.0), "widened");
        assert!(humor.set(3, Value::from("x"), budget).is_err());
        assert!(humor.set(4, Value::Null, budget).is_err());
        assert!(humor.value(4).is_err());
        let tags = [
            CellProvenance::Extracted,
            budget,
            CellProvenance::Stored,
            CellProvenance::Stored,
        ];
        assert_eq!(t.tags(3).unwrap(), tags);
        assert_eq!(t.recoverable_holes(3), 1);

        // A writer of the key column keeps the key index current.
        let mut id = t.column_writer("id").unwrap();
        id.set(1, Value::Integer(40), CellProvenance::Stored)
            .unwrap();
        assert_eq!(t.rows_with_key(40).unwrap().collect::<Vec<_>>(), [1]);
        assert_eq!(t.rows_with_key(1).unwrap().count(), 0);
        assert!(t.column_writer("missing").is_err());
    }

    #[test]
    fn set_value_updates_cells() {
        let mut t = movies();
        t.insert_row(vec![
            Value::Integer(1),
            Value::from("Rocky"),
            Value::Integer(1976),
        ])
        .unwrap();
        t.add_column(Column::new("is_comedy", DataType::Boolean), None)
            .unwrap();
        t.set_value(0, "is_comedy", Value::Boolean(false)).unwrap();
        assert_eq!(t.value(0, "is_comedy").unwrap(), &Value::Boolean(false));
        assert_eq!(t.null_count("is_comedy").unwrap(), 0);
        assert!(t.set_value(0, "is_comedy", Value::from("nope")).is_err());
        assert!(t.set_value(9, "is_comedy", Value::Boolean(true)).is_err());
        assert!(t.set_value(0, "missing", Value::Boolean(true)).is_err());
        assert!(t.null_count("missing").is_err());
    }
}
