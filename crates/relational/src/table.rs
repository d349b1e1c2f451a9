//! Row-oriented tables.

use serde::{Deserialize, Serialize};

use crate::error::RelationalError;
use crate::key_index::KeyIndex;
use crate::schema::{Column, Schema};
use crate::value::{DataType, Value};
use crate::Result;

/// Integers bound for a `FLOAT` column are stored as floats, so a column
/// never mixes the two representations.
fn widen(value: &mut Value, data_type: DataType) {
    if let (Value::Integer(i), DataType::Float) = (&*value, data_type) {
        *value = Value::Float(*i as f64);
    }
}

/// A named table: a schema plus a row store, optionally with a key index
/// on one `INTEGER` column ([`Table::index_key`]).
///
/// The key index is derived state: two tables with the same name, schema
/// and rows are equal whether or not either one indexes a key, and a
/// clone indexes none.
#[derive(Debug, Serialize, Deserialize)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Vec<Value>>,
    #[serde(skip)]
    key: Option<KeyIndex>,
}

impl Clone for Table {
    fn clone(&self) -> Table {
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            rows: self.rows.clone(),
            key: None,
        }
    }
}

impl PartialEq for Table {
    fn eq(&self, other: &Table) -> bool {
        self.name == other.name && self.schema == other.schema && self.rows == other.rows
    }
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into().to_lowercase(),
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

    /// Inserts a full row (one value per column, in schema order).
    pub fn insert_row(&mut self, mut row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(RelationalError::InvalidStatement(format!(
                "expected {} values but got {}",
                self.schema.len(),
                row.len()
            )));
        }
        for (value, column) in row.iter_mut().zip(self.schema.columns()) {
            if value.is_null() && !column.nullable {
                return Err(RelationalError::TypeMismatch(format!(
                    "column {} is NOT NULL",
                    column.name
                )));
            }
            if !value.is_compatible_with(column.data_type) {
                return Err(RelationalError::TypeMismatch(format!(
                    "value {value} is not valid for column {} of type {}",
                    column.name, column.data_type
                )));
            }
            widen(value, column.data_type);
        }
        if let Some(key) = &mut self.key {
            key.insert(&self.rows, &row[key.column()], self.rows.len());
        }
        self.rows.push(row);
        Ok(())
    }

    /// Declares `column` — an `INTEGER` column — the table's key and
    /// indexes it: from then on [`Table::rows_with_key`] finds the rows
    /// holding an id without a scan, and every row mutator keeps the index
    /// current.  Ids may repeat; `NULL` cells are not indexed.  Declaring
    /// a key again rebuilds the index on the new column.
    pub fn index_key(&mut self, column: &str) -> Result<()> {
        let index = self
            .schema
            .index_of(column)
            .ok_or_else(|| RelationalError::UnknownColumn {
                table: self.name.clone(),
                column: column.to_lowercase(),
            })?;
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
    pub fn rows_with_key(&self, id: i64) -> Option<Vec<usize>> {
        self.key.as_ref().map(|key| key.rows(&self.rows, id))
    }

    /// Inserts a row given as `(column, value)` pairs; unspecified columns
    /// become `NULL`.
    pub fn insert_named(&mut self, values: &[(&str, Value)]) -> Result<()> {
        let mut row = vec![Value::Null; self.schema.len()];
        for (name, value) in values {
            let idx = self
                .schema
                .index_of(name)
                .ok_or_else(|| RelationalError::UnknownColumn {
                    table: self.name.clone(),
                    column: name.to_string(),
                })?;
            row[idx] = value.clone();
        }
        self.insert_row(row)
    }

    /// Adds a new column; existing rows get `NULL` (or the provided default)
    /// in the new position.  This is the storage-level half of query-driven
    /// schema expansion.
    pub fn add_column(&mut self, column: Column, default: Option<Value>) -> Result<()> {
        if let Some(ref d) = default {
            if !d.is_compatible_with(column.data_type) {
                return Err(RelationalError::TypeMismatch(format!(
                    "default value {d} is not valid for type {}",
                    column.data_type
                )));
            }
        }
        let mut fill = default.unwrap_or(Value::Null);
        widen(&mut fill, column.data_type);
        if fill.is_null() && !column.nullable {
            return Err(RelationalError::TypeMismatch(format!(
                "cannot add NOT NULL column {} without a default",
                column.name
            )));
        }
        self.schema.add_column(column)?;
        for row in &mut self.rows {
            row.push(fill.clone());
        }
        Ok(())
    }

    /// Overwrites the value of `column` in row `row_index`.
    pub fn set_value(&mut self, row_index: usize, column: &str, mut value: Value) -> Result<()> {
        let col_idx =
            self.schema
                .index_of(column)
                .ok_or_else(|| RelationalError::UnknownColumn {
                    table: self.name.clone(),
                    column: column.to_string(),
                })?;
        let col = &self.schema.columns()[col_idx];
        if !value.is_compatible_with(col.data_type) {
            return Err(RelationalError::TypeMismatch(format!(
                "value {value} is not valid for column {} of type {}",
                col.name, col.data_type
            )));
        }
        widen(&mut value, col.data_type);
        if row_index >= self.rows.len() {
            return Err(RelationalError::InvalidStatement(format!(
                "row {row_index} does not exist"
            )));
        }
        if let Some(key) = self.key.as_mut().filter(|key| key.column() == col_idx) {
            key.remove(&self.rows, &self.rows[row_index][col_idx], row_index);
            key.insert(&self.rows, &value, row_index);
        }
        self.rows[row_index][col_idx] = value;
        Ok(())
    }

    /// Reads the value of `column` in row `row_index`.
    pub fn value(&self, row_index: usize, column: &str) -> Result<&Value> {
        let col_idx =
            self.schema
                .index_of(column)
                .ok_or_else(|| RelationalError::UnknownColumn {
                    table: self.name.clone(),
                    column: column.to_string(),
                })?;
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
    /// and moves their key-index entries with them.
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
            if !deleted {
                self.rows.swap(kept, row);
                kept += 1;
            }
        }
        self.rows.truncate(kept);
        doomed.len()
    }

    /// Number of `NULL`s in a column — the amount of data a crowd-enabled
    /// database would have to complete at query time.
    pub fn null_count(&self, column: &str) -> Result<usize> {
        let col_idx =
            self.schema
                .index_of(column)
                .ok_or_else(|| RelationalError::UnknownColumn {
                    table: self.name.clone(),
                    column: column.to_string(),
                })?;
        Ok(self.rows.iter().filter(|r| r[col_idx].is_null()).count())
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
