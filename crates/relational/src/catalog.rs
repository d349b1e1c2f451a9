//! The table catalog.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::error::RelationalError;
use crate::schema::fold_name;
use crate::table::Table;
use crate::Result;

/// A collection of named tables.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a table; fails if a table with the same name exists.
    pub fn create_table(&mut self, table: Table) -> Result<()> {
        let name = table.name().to_string();
        if self.tables.contains_key(&name) {
            return Err(RelationalError::TableExists(name));
        }
        self.tables.insert(name, table);
        Ok(())
    }

    /// Looks a table up by (case-insensitive) name.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(fold_name(name).as_ref())
            .ok_or_else(|| RelationalError::UnknownTable(name.to_string()))
    }

    /// Mutable table lookup.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(fold_name(name).as_ref())
            .ok_or_else(|| RelationalError::UnknownTable(name.to_string()))
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when the catalog holds no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::value::DataType;

    fn table(name: &str) -> Table {
        Table::new(
            name,
            Schema::new(vec![Column::new("id", DataType::Integer)]).unwrap(),
        )
    }

    #[test]
    fn create_and_lookup() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        c.create_table(table("Movies")).unwrap();
        c.create_table(table("restaurants")).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.table_names(), vec!["movies", "restaurants"]);
        assert!(c.table("MOVIES").is_ok());
        assert!(c.table_mut("movies").is_ok());
        assert!(c.table("games").is_err());
        assert!(c.table_mut("games").is_err());
        assert!(matches!(
            c.create_table(table("movies")),
            Err(RelationalError::TableExists(_))
        ));
        assert_eq!(c.len(), 2);
    }
}
