//! Table schemas.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use crate::error::RelationalError;
use crate::value::{DataType, Value};
use crate::Result;

/// One column of a table schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    /// Column name (case-insensitive; stored lower-cased).
    pub name: String,
    /// Declared type.
    pub data_type: DataType,
    /// Whether `NULL` values are allowed.  Columns added by query-driven
    /// schema expansion are always nullable (their values are filled in
    /// incrementally).
    pub nullable: bool,
}

impl Column {
    /// Creates a nullable column.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Column {
            name: name.into().to_lowercase(),
            data_type,
            nullable: true,
        }
    }

    /// Creates a `NOT NULL` column.
    pub fn not_null(name: impl Into<String>, data_type: DataType) -> Self {
        Column {
            nullable: false,
            ..Column::new(name, data_type)
        }
    }

    /// True when `name` refers to this column, that is when
    /// `name.to_lowercase()` equals the stored name — decided without
    /// allocating.
    pub fn is_named(&self, name: &str) -> bool {
        lowercases_to(name, &self.name)
    }

    /// The one rule for a value stored in this column, whoever writes
    /// it: a `NOT NULL` column refuses `NULL`, and a value must be
    /// compatible with the column's type.  An admitted value is turned,
    /// in place, into the form the column stores — an integer for a
    /// `FLOAT` column becomes a float, so a column never mixes the two
    /// representations.
    #[inline]
    pub fn admit(&self, value: &mut Value) -> Result<()> {
        if value.is_null() && !self.nullable {
            return Err(RelationalError::TypeMismatch(format!(
                "column {} is NOT NULL",
                self.name
            )));
        }
        if !value.is_compatible_with(self.data_type) {
            return Err(RelationalError::TypeMismatch(format!(
                "value {value} is not valid for column {} of type {}",
                self.name, self.data_type
            )));
        }
        if let (Value::Integer(i), DataType::Float) = (&*value, self.data_type) {
            *value = Value::Float(*i as f64);
        }
        Ok(())
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Creates a schema from columns; names must be unique
    /// (case-insensitively).
    pub fn new(columns: Vec<Column>) -> Result<Self> {
        if columns.is_empty() {
            return Err(RelationalError::InvalidStatement(
                "a schema needs at least one column".into(),
            ));
        }
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if !seen.insert(c.name.clone()) {
                return Err(RelationalError::ColumnExists(c.name.clone()));
            }
        }
        Ok(Schema { columns })
    }

    /// The columns in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the schema has no columns (only possible for
    /// `Schema::default()`).
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of a column by (case-insensitive) name: the column whose
    /// stored name equals `name.to_lowercase()`, found without allocating.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.is_named(name))
    }

    /// Column by (case-insensitive) name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.index_of(name).map(|i| &self.columns[i])
    }

    /// True when the schema contains the column.
    pub fn contains(&self, name: &str) -> bool {
        self.index_of(name).is_some()
    }

    /// All column names in declaration order.
    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }

    /// Appends a column (used by `ALTER TABLE … ADD COLUMN`).
    pub fn add_column(&mut self, column: Column) -> Result<()> {
        if self.contains(&column.name) {
            return Err(RelationalError::ColumnExists(column.name));
        }
        self.columns.push(column);
        Ok(())
    }
}

/// The case-folded form of a name, `name.to_lowercase()` — borrowed,
/// without allocating, when `name` already is lower-case.
///
/// Catalog and column names are stored folded, so every lookup by a name
/// as written goes through here; names in parsed statements arrive
/// folded already and cost nothing.
pub fn fold_name(name: &str) -> Cow<'_, str> {
    let folded = if name.is_ascii() {
        !name.bytes().any(|b| b.is_ascii_uppercase())
    } else {
        // `str::to_lowercase` maps every char through `char::to_lowercase`
        // except a capital sigma, which no lower-case name contains.
        name.chars().all(|c| {
            let mut lower = c.to_lowercase();
            lower.next() == Some(c) && lower.next().is_none()
        })
    };
    if folded {
        Cow::Borrowed(name)
    } else {
        Cow::Owned(name.to_lowercase())
    }
}

/// True when `name.to_lowercase() == lower`.  ASCII names compare byte by
/// byte and other names char by char through `char::to_lowercase`; only a
/// capital sigma, whose lower case depends on its position in the word,
/// takes `str::to_lowercase`'s allocating path.
fn lowercases_to(name: &str, lower: &str) -> bool {
    if name.is_ascii() {
        return name.len() == lower.len()
            && name
                .bytes()
                .zip(lower.bytes())
                .all(|(n, l)| n.to_ascii_lowercase() == l);
    }
    if name.contains('Σ') {
        return name.to_lowercase() == lower;
    }
    name.chars().flat_map(char::to_lowercase).eq(lower.chars())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_of_matches_unicode_lowercasing() {
        let schema = Schema::new(vec![
            Column::new("Is_Comedy", DataType::Boolean),
            Column::new("Größe", DataType::Float),
            Column::new("ΟΔΟΣ", DataType::Text),
            Column::new("İd", DataType::Integer),
        ])
        .unwrap();
        assert_eq!(schema.index_of("is_comedy"), Some(0));
        assert_eq!(schema.index_of("IS_COMEDY"), Some(0));
        assert_eq!(schema.index_of("is_comedy_"), None);
        assert_eq!(schema.index_of("GRÖßE"), Some(1));
        assert_eq!(schema.index_of("größe"), Some(1));
        // `ß` upper-cases to "SS", but "SS" lower-cases to "ss", not `ß`.
        assert_eq!(schema.index_of("GRÖSSE"), None);
        // A word-final capital sigma lower-cases to the final form `ς`.
        assert_eq!(schema.index_of("ΟΔΟΣ"), Some(2));
        assert_eq!(schema.index_of("οδος"), Some(2));
        assert_eq!(schema.index_of("οδοσ"), None);
        // `İ` lower-cases to two chars ("i" plus a combining dot).
        assert_eq!(schema.index_of("İD"), Some(3));
        assert_eq!(schema.index_of("id"), None);
        for name in ["Is_Comedy", "GRÖßE", "ΟΔΟΣ", "İD", "ΣΟΦΙΑ", "x", ""] {
            let expected = schema
                .columns()
                .iter()
                .position(|c| c.name == name.to_lowercase());
            assert_eq!(schema.index_of(name), expected, "{name}");
        }
    }

    #[test]
    fn fold_name_borrows_exactly_the_folded_names() {
        for name in [
            "",
            "x",
            "is_comedy",
            "X",
            "Is_Comedy",
            "größe",
            "GRÖßE",
            "οδος",
            "ΟΔΟΣ",
            "οδοσ",
            "ΣΟΦΙΑ",
            "İd",
            "i\u{307}d",
            "\u{212A}",
            "ſ",
            "ß",
            "ﬂoat",
            "_9",
        ] {
            let folded = fold_name(name);
            assert_eq!(folded, name.to_lowercase(), "{name}");
            assert_eq!(
                matches!(folded, Cow::Borrowed(_)),
                name.to_lowercase() == name,
                "{name}"
            );
        }
    }

    #[test]
    fn column_constructors_normalize_names() {
        let c = Column::new("Name", DataType::Text);
        assert_eq!(c.name, "name");
        assert!(c.nullable);
        let c = Column::not_null("ID", DataType::Integer);
        assert_eq!(c.name, "id");
        assert!(!c.nullable);
    }

    #[test]
    fn schema_rejects_duplicates_and_empty() {
        assert!(Schema::new(vec![]).is_err());
        let dup = Schema::new(vec![
            Column::new("a", DataType::Integer),
            Column::new("A", DataType::Text),
        ]);
        assert!(matches!(dup, Err(RelationalError::ColumnExists(_))));
    }

    #[test]
    fn lookups_are_case_insensitive() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Integer),
            Column::new("name", DataType::Text),
        ])
        .unwrap();
        assert_eq!(schema.len(), 2);
        assert!(!schema.is_empty());
        assert_eq!(schema.index_of("NAME"), Some(1));
        assert_eq!(schema.index_of("missing"), None);
        assert!(schema.contains("Id"));
        assert_eq!(schema.column("name").unwrap().data_type, DataType::Text);
        assert_eq!(schema.column_names(), vec!["id", "name"]);
    }

    #[test]
    fn add_column_extends_schema() {
        let mut schema = Schema::new(vec![Column::new("id", DataType::Integer)]).unwrap();
        schema
            .add_column(Column::new("is_comedy", DataType::Boolean))
            .unwrap();
        assert_eq!(schema.len(), 2);
        assert!(schema.contains("is_comedy"));
        assert!(matches!(
            schema.add_column(Column::new("IS_COMEDY", DataType::Boolean)),
            Err(RelationalError::ColumnExists(_))
        ));
    }

    #[test]
    fn default_schema_is_empty() {
        let s = Schema::default();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
