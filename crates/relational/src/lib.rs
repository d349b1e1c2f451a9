//! # relational — a small in-memory relational engine
//!
//! Crowd-enabled databases (CrowdDB, Qurk, Deco — references [1–3] of the
//! paper) are ordinary relational systems extended with crowd operators.
//! This crate provides the relational substrate that the crowd-enabled
//! database of crate `crowddb-core` builds on:
//!
//! * typed [`Value`]s with SQL-style `NULL` and three-valued logic,
//! * [`Schema`]s and row-oriented [`Table`]s held in a [`Catalog`], each
//!   cell optionally tagged with its [`CellProvenance`],
//! * an expression AST ([`Expr`]) with an evaluator,
//! * a SQL-subset parser ([`sql::parse`]) covering `SELECT` (with `WHERE`,
//!   `ORDER BY`, `LIMIT`), `INSERT`, `UPDATE`, `DELETE`, `CREATE TABLE`, and
//!   — crucially for query-driven schema expansion —
//!   `ALTER TABLE … ADD COLUMN`,
//! * a straightforward [`executor`], whose results keep their rows in one
//!   fixed-width [`Grid`] buffer.
//!
//! The engine deliberately keeps the feature set small: the paper's queries
//! are single-table selections with perceptual predicates (e.g.
//! `SELECT * FROM movies WHERE is_comedy = true`), and the interesting part —
//! what happens when `is_comedy` does not exist yet — lives one layer up in
//! `crowddb-core`.  The executor therefore reports unknown columns with a
//! dedicated error variant ([`RelationalError::UnknownColumn`]) that the
//! crowd layer intercepts.
//!
//! ```
//! use relational::{Catalog, executor, sql};
//!
//! let mut catalog = Catalog::new();
//! executor::execute(&sql::parse("CREATE TABLE movies (id INTEGER, name TEXT, year INTEGER)").unwrap(), &mut catalog).unwrap();
//! executor::execute(&sql::parse("INSERT INTO movies (id, name, year) VALUES (1, 'Rocky', 1976), (2, 'Psycho', 1960)").unwrap(), &mut catalog).unwrap();
//! let result = executor::execute(&sql::parse("SELECT name FROM movies WHERE year < 1970").unwrap(), &mut catalog).unwrap();
//! assert_eq!(result.rows.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod error;
pub mod executor;
pub mod expr;
pub mod grid;
mod key_index;
pub mod partition;
pub mod provenance;
pub mod schema;
pub mod sql;
pub mod table;
pub mod value;

pub use catalog::Catalog;
pub use error::RelationalError;
pub use executor::{
    analyze, execute, execute_read, execute_select_partitions, QueryResult, SelectResult,
    StatementAnalysis,
};
pub use expr::{BinaryOperator, Expr, UnaryOperator};
pub use grid::Grid;
pub use key_index::KeyRows;
pub use partition::PartitionSpec;
pub use provenance::{CellProvenance, MissingReason};
pub use schema::{fold_name, Column, Schema};
pub use sql::{parse, ExpansionClause, ExpansionClauseMode, Statement};
pub use table::{ColumnWriter, Table};
pub use value::{DataType, Value};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, RelationalError>;
