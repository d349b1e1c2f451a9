//! A SQL-subset parser.
//!
//! The grammar covers exactly what the paper's scenarios need:
//!
//! ```sql
//! SELECT name FROM movies WHERE humor >= 8;
//! SELECT * FROM movies WHERE is_comedy = true ORDER BY year DESC LIMIT 10;
//! INSERT INTO movies (id, name, year) VALUES (1, 'Rocky', 1976);
//! CREATE TABLE movies (id INTEGER NOT NULL, name TEXT, year INTEGER);
//! ALTER TABLE movies ADD COLUMN is_comedy BOOLEAN;
//! ```

mod lexer;
mod parser;

pub use parser::parse;

use std::borrow::Cow;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::expr::{push_folded, Expr};
use crate::schema::Column;
use crate::value::Value;

/// The projection list of a `SELECT`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Projection {
    /// `SELECT *`
    All,
    /// `SELECT col1, col2, …`
    Columns(Vec<String>),
}

/// `ORDER BY <column> [ASC | DESC]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrderBy {
    /// Column to sort by.
    pub column: String,
    /// Ascending (`true`) or descending order.
    pub ascending: bool,
}

/// The expansion mode named in a `WITH EXPANSION (mode = …)` clause.
///
/// This is the *syntactic* mode — the crowd layer maps it onto its semantic
/// policy type.  The relational engine itself never expands anything; it
/// only carries the requester's instructions through the AST.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExpansionClauseMode {
    /// `mode = deny` — error out instead of expanding missing columns.
    Deny,
    /// `mode = cache_only` — serve already-acquired judgments, `NULL`
    /// otherwise; never dispatch new crowd work.
    CacheOnly,
    /// `mode = best_effort` — expand until the budget is exhausted and
    /// return partial columns for the rest.
    BestEffort,
    /// `mode = full` — expand everything regardless of cost.
    Full,
}

impl ExpansionClauseMode {
    /// The keyword as it appears in SQL.
    pub fn as_str(&self) -> &'static str {
        match self {
            ExpansionClauseMode::Deny => "deny",
            ExpansionClauseMode::CacheOnly => "cache_only",
            ExpansionClauseMode::BestEffort => "best_effort",
            ExpansionClauseMode::Full => "full",
        }
    }

    /// Every mode with its SQL spelling — the single table the parser,
    /// [`std::str::FromStr`], and the crowd layer's `ExpansionMode`
    /// conversions are all built on, so the accepted spellings cannot
    /// drift between surfaces.
    pub const ALL: [ExpansionClauseMode; 4] = [
        ExpansionClauseMode::Deny,
        ExpansionClauseMode::CacheOnly,
        ExpansionClauseMode::BestEffort,
        ExpansionClauseMode::Full,
    ];
}

impl fmt::Display for ExpansionClauseMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for ExpansionClauseMode {
    type Err = crate::error::RelationalError;

    /// Parses the SQL spelling of a mode (`deny`, `cache_only`,
    /// `best_effort`, `full`), case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ExpansionClauseMode::ALL
            .into_iter()
            .find(|mode| mode.as_str().eq_ignore_ascii_case(s))
            .ok_or_else(|| {
                crate::error::RelationalError::Parse(format!(
                    "unknown expansion mode '{s}' \
                     (expected deny, cache_only, best_effort, or full)"
                ))
            })
    }
}

/// A parsed `WITH EXPANSION (budget = …, mode = …, quality >= …)` suffix
/// clause: the per-query expansion policy expressed in SQL itself.
///
/// Every setting is optional; the crowd layer fills unset fields from the
/// session defaults.  The clause renders back to SQL via [`fmt::Display`],
/// and `parse(render(clause))` round-trips.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExpansionClause {
    /// `budget = <dollars>` — the most this query may spend on crowd work.
    pub budget: Option<f64>,
    /// `mode = <deny | cache_only | best_effort | full>`.
    pub mode: Option<ExpansionClauseMode>,
    /// `quality >= <floor>` — drop crowd verdicts whose inter-worker
    /// agreement lies below the floor (in `[0, 1]`).
    pub quality_floor: Option<f64>,
}

impl ExpansionClause {
    /// True when no setting was provided.
    pub fn is_empty(&self) -> bool {
        self.budget.is_none() && self.mode.is_none() && self.quality_floor.is_none()
    }
}

impl fmt::Display for ExpansionClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WITH EXPANSION (")?;
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            Ok(())
        };
        if let Some(budget) = self.budget {
            sep(f)?;
            write!(f, "budget = {budget}")?;
        }
        if let Some(mode) = self.mode {
            sep(f)?;
            write!(f, "mode = {}", mode.as_str())?;
        }
        if let Some(floor) = self.quality_floor {
            sep(f)?;
            write!(f, "quality >= {floor}")?;
        }
        write!(f, ")")
    }
}

/// A parsed `SELECT` statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectStatement {
    /// Projection list.
    pub projection: Projection,
    /// Source table.
    pub table: String,
    /// Optional `WHERE` predicate.
    pub filter: Option<Expr>,
    /// Optional `ORDER BY` clause.
    pub order_by: Option<OrderBy>,
    /// Optional `LIMIT` clause.
    pub limit: Option<usize>,
    /// Optional `WITH EXPANSION (…)` suffix clause carrying the per-query
    /// expansion policy.
    pub expansion: Option<ExpansionClause>,
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Statement {
    /// `SELECT …`
    Select(SelectStatement),
    /// `EXPLAIN EXPANSION SELECT …` — ask what crowd work the wrapped
    /// `SELECT` *would* trigger (planned concepts, cache hits, a priced
    /// dollar preview) without dispatching any of it.  The relational
    /// engine only carries the request; the crowd layer answers it.
    ExplainExpansion(SelectStatement),
    /// `INSERT INTO …`
    Insert {
        /// Target table.
        table: String,
        /// Column list.
        columns: Vec<String>,
        /// One or more value tuples.
        rows: Vec<Vec<Value>>,
    },
    /// `CREATE TABLE …`
    CreateTable {
        /// New table name.
        table: String,
        /// Column definitions.
        columns: Vec<Column>,
    },
    /// `ALTER TABLE … ADD COLUMN …` — the DDL form of schema expansion.
    AlterTableAddColumn {
        /// Target table.
        table: String,
        /// The new column.
        column: Column,
    },
    /// `UPDATE … SET … [WHERE …]` — used e.g. to overwrite crowd-derived
    /// values after a re-crowd-sourcing round.
    Update {
        /// Target table.
        table: String,
        /// `(column, value expression)` assignments.
        assignments: Vec<(String, Expr)>,
        /// Optional `WHERE` predicate selecting the rows to update.
        filter: Option<Expr>,
    },
    /// `DELETE FROM … [WHERE …]`.
    Delete {
        /// Target table.
        table: String,
        /// Optional `WHERE` predicate selecting the rows to delete.
        filter: Option<Expr>,
    },
}

impl Statement {
    /// All column names the statement references (lower-cased, in
    /// first-appearance order, without duplicates; borrowed when already
    /// lower-case, as the parser leaves them).  This is the AST-level
    /// half of the static analysis pass: [`crate::executor::analyze`]
    /// intersects this set with the catalog to report *every* unknown
    /// column of a statement in one shot, so the crowd layer can plan a
    /// single expansion round instead of discovering missing attributes one
    /// failed execution at a time.
    pub fn referenced_columns(&self) -> Vec<Cow<'_, str>> {
        let mut out = Vec::new();
        match self {
            // An EXPLAIN references exactly what its wrapped SELECT would:
            // the crowd layer analyzes both through the same pass.
            Statement::Select(select) | Statement::ExplainExpansion(select) => {
                if let Projection::Columns(names) = &select.projection {
                    names.iter().for_each(|n| push_folded(&mut out, n));
                }
                if let Some(filter) = &select.filter {
                    filter.collect_columns(&mut out);
                }
                if let Some(OrderBy { column, .. }) = &select.order_by {
                    push_folded(&mut out, column);
                }
            }
            Statement::Insert { columns, .. } => {
                columns.iter().for_each(|n| push_folded(&mut out, n))
            }
            Statement::Update {
                assignments,
                filter,
                ..
            } => {
                for (column, expr) in assignments {
                    push_folded(&mut out, column);
                    expr.collect_columns(&mut out);
                }
                if let Some(filter) = filter {
                    filter.collect_columns(&mut out);
                }
            }
            Statement::Delete { filter, .. } => {
                if let Some(filter) = filter {
                    filter.collect_columns(&mut out);
                }
            }
            Statement::CreateTable { .. } | Statement::AlterTableAddColumn { .. } => {}
        }
        out
    }

    /// True when executing the statement cannot modify the catalog — i.e.
    /// it is a `SELECT` (or an `EXPLAIN EXPANSION` over one, which by
    /// definition performs no work at all).  Concurrent engines use this to
    /// route read-only statements through [`crate::executor::execute_read`]
    /// under a shared lock while writes take the exclusive one.
    pub fn is_read_only(&self) -> bool {
        matches!(self, Statement::Select(_) | Statement::ExplainExpansion(_))
    }

    /// The table the statement operates on, when it targets an existing
    /// table (`CREATE TABLE` introduces its table instead of reading one).
    pub fn target_table(&self) -> Option<&str> {
        match self {
            Statement::Select(select) | Statement::ExplainExpansion(select) => Some(&select.table),
            Statement::Insert { table, .. }
            | Statement::AlterTableAddColumn { table, .. }
            | Statement::Update { table, .. }
            | Statement::Delete { table, .. } => Some(table),
            Statement::CreateTable { .. } => None,
        }
    }
}

#[cfg(test)]
use lexer::tokenize;

#[cfg(test)]
mod reference_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    #[test]
    fn parse_select_star() {
        let stmt = parse("SELECT * FROM movies WHERE is_comedy = true").unwrap();
        match stmt {
            Statement::Select(s) => {
                assert_eq!(s.projection, Projection::All);
                assert_eq!(s.table, "movies");
                assert!(s.filter.is_some());
                assert!(s.order_by.is_none());
                assert!(s.limit.is_none());
            }
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn parse_select_with_projection_order_limit() {
        let stmt =
            parse("SELECT name, year FROM movies WHERE humor >= 8 ORDER BY year DESC LIMIT 5")
                .unwrap();
        match stmt {
            Statement::Select(s) => {
                assert_eq!(
                    s.projection,
                    Projection::Columns(vec!["name".into(), "year".into()])
                );
                let order = s.order_by.unwrap();
                assert_eq!(order.column, "year");
                assert!(!order.ascending);
                assert_eq!(s.limit, Some(5));
            }
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn parse_insert_multiple_rows() {
        let stmt = parse(
            "INSERT INTO movies (id, name, year) VALUES (1, 'Rocky', 1976), (2, 'Psycho', 1960)",
        )
        .unwrap();
        match stmt {
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                assert_eq!(table, "movies");
                assert_eq!(columns, vec!["id", "name", "year"]);
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][1], Value::Text("Rocky".into()));
                assert_eq!(rows[1][2], Value::Integer(1960));
            }
            other => panic!("expected INSERT, got {other:?}"),
        }
    }

    #[test]
    fn parse_create_table() {
        let stmt = parse(
            "CREATE TABLE movies (id INTEGER NOT NULL, name TEXT, rating FLOAT, fun BOOLEAN)",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable { table, columns } => {
                assert_eq!(table, "movies");
                assert_eq!(columns.len(), 4);
                assert_eq!(columns[0].data_type, DataType::Integer);
                assert!(!columns[0].nullable);
                assert_eq!(columns[1].data_type, DataType::Text);
                assert!(columns[1].nullable);
                assert_eq!(columns[2].data_type, DataType::Float);
                assert_eq!(columns[3].data_type, DataType::Boolean);
            }
            other => panic!("expected CREATE TABLE, got {other:?}"),
        }
    }

    #[test]
    fn parse_alter_table_add_column() {
        let stmt = parse("ALTER TABLE movies ADD COLUMN is_comedy BOOLEAN").unwrap();
        match stmt {
            Statement::AlterTableAddColumn { table, column } => {
                assert_eq!(table, "movies");
                assert_eq!(column.name, "is_comedy");
                assert_eq!(column.data_type, DataType::Boolean);
                assert!(column.nullable);
            }
            other => panic!("expected ALTER TABLE, got {other:?}"),
        }
    }

    #[test]
    fn parse_update_and_delete() {
        match parse("UPDATE movies SET is_comedy = true, rating = rating + 1 WHERE year < 1980")
            .unwrap()
        {
            Statement::Update {
                table,
                assignments,
                filter,
            } => {
                assert_eq!(table, "movies");
                assert_eq!(assignments.len(), 2);
                assert_eq!(assignments[0].0, "is_comedy");
                assert!(filter.is_some());
            }
            other => panic!("expected UPDATE, got {other:?}"),
        }
        match parse("DELETE FROM movies WHERE year < 1950").unwrap() {
            Statement::Delete { table, filter } => {
                assert_eq!(table, "movies");
                assert!(filter.is_some());
            }
            other => panic!("expected DELETE, got {other:?}"),
        }
        match parse("DELETE FROM movies").unwrap() {
            Statement::Delete { filter, .. } => assert!(filter.is_none()),
            other => panic!("expected DELETE, got {other:?}"),
        }
        assert!(parse("UPDATE movies").is_err());
        assert!(parse("UPDATE movies SET").is_err());
        assert!(parse("DELETE movies").is_err());
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse("").is_err());
        assert!(parse("SELEKT * FROM movies").is_err());
        assert!(parse("SELECT * FROM").is_err());
        assert!(parse("SELECT * FROM movies WHERE").is_err());
        assert!(parse("INSERT INTO movies VALUES").is_err());
        assert!(parse("CREATE TABLE t ()").is_err());
        assert!(parse("ALTER TABLE t DROP COLUMN c").is_err());
        assert!(parse("SELECT * FROM movies extra garbage").is_err());
    }
}
