//! Statement execution.

use std::borrow::Cow;

use crate::catalog::Catalog;
use crate::error::RelationalError;
use crate::expr::{strict_resolver, BoundFilter, Expr};
use crate::grid::Grid;
use crate::provenance::CellProvenance;
use crate::schema::{fold_name, Column, Schema};
use crate::sql::{OrderBy, Projection, SelectStatement, Statement};
use crate::table::{inserted, Table};
use crate::value::Value;
use crate::Result;

/// The result of executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Names of the returned columns (empty for DDL/DML statements).
    pub columns: Vec<String>,
    /// Returned rows, one cell per column (empty for DDL/DML statements).
    pub rows: Grid<Value>,
    /// Number of rows affected by an `INSERT`.
    pub rows_affected: usize,
}

impl QueryResult {
    fn empty() -> Self {
        QueryResult {
            columns: Vec::new(),
            rows: Grid::default(),
            rows_affected: 0,
        }
    }
}

/// The outcome of statically analyzing a statement against its table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatementAnalysis {
    /// Every referenced column that is missing from the table's schema, in
    /// first-appearance order and without duplicates.
    pub missing_columns: Vec<String>,
}

impl StatementAnalysis {
    /// True when every referenced column exists in the schema.
    pub fn is_fully_resolved(&self) -> bool {
        self.missing_columns.is_empty()
    }
}

/// Statically analyzes a statement against `table`, the table it targets,
/// reporting **all** unknown columns at once.
///
/// Execution stops at the first unknown column, which forces a caller that
/// wants to repair the schema (the crowd layer's query-driven expansion)
/// into a parse→execute→fail cycle per missing attribute.  `analyze` lets it
/// plan one expansion round covering every missing attribute of the
/// statement instead.  Finding the table is the caller's: it has already
/// routed the statement there.
pub fn analyze(statement: &Statement, table: &Table) -> StatementAnalysis {
    let schema = table.schema();
    let missing_columns = statement
        .referenced_columns()
        .into_iter()
        .filter(|column| !schema.contains(column))
        .map(Cow::into_owned)
        .collect();
    StatementAnalysis { missing_columns }
}

/// Executes a read-only statement (`SELECT`) against a shared catalog
/// reference.
///
/// This is the concurrent engine's fast path: callers holding a shared
/// (read) lock on the catalog can run any statement for which
/// [`Statement::is_read_only`] is true without serializing behind writers.
/// Passing a write statement is a logic error and reported as
/// [`RelationalError::InvalidStatement`].
pub fn execute_read(statement: &Statement, catalog: &Catalog) -> Result<QueryResult> {
    match statement {
        Statement::Select(select) => {
            let table = catalog.table(&select.table)?;
            Ok(execute_select_partitions(select, &[table], false)?.result)
        }
        Statement::ExplainExpansion(_) => Err(RelationalError::InvalidStatement(
            "EXPLAIN EXPANSION is answered by the crowd layer, not the relational engine \
             (the plan it describes does not exist here)"
                .into(),
        )),
        other => Err(RelationalError::InvalidStatement(format!(
            "execute_read got a write statement: {other:?}"
        ))),
    }
}

/// The outcome of a `SELECT` over a table's partitions.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectResult {
    /// The rows and columns.  Under snapshot semantics they are shaped
    /// exactly like the eventual full answer.
    pub result: QueryResult,
    /// The `(partition, row)` behind each result row (parallel to
    /// `result.rows`): the partition's position in the slice the statement
    /// ran on, and the row's index within that partition.
    pub lineage: Vec<(usize, usize)>,
    /// Referenced columns that are absent from the schema (lower-cased),
    /// always empty under strict semantics.  Their cells are all `NULL`,
    /// and a caller attaching provenance should mark them as
    /// not-yet-expanded rather than stored.
    pub missing_columns: Vec<String>,
    /// Rows the filter evaluated: on each partition, the rows holding the
    /// pinned id when the `WHERE` pins the partition's key column (see
    /// [`Table::key_column`]), otherwise every row.
    pub rows_scanned: usize,
}

/// The one `SELECT` implementation: bind, scan, filter, order, limit,
/// project — run in place over a table's partitions.
///
/// `parts` are the slices of one table in partition (`k`) order, each
/// carrying the table's full schema; a table that is not partitioned is
/// the one-slice case.  The answer — rows, their order, the order of rows
/// with equal sort keys, and `LIMIT` — is exactly that over the slices
/// concatenated in `k` order: matches are collected in `k` order, stably
/// sorted on the `ORDER BY` key, then truncated.
///
/// Column references are bound to row positions once per statement.
/// `snapshot` decides what a reference to a column absent from the schema
/// means: a hard [`RelationalError::UnknownColumn`] (strict), or — the
/// *snapshot* semantics — a constant `NULL` recorded in
/// [`SelectResult::missing_columns`], in projection cells, `WHERE`
/// predicates and `ORDER BY` keys alike.  Snapshot semantics let a
/// crowd-enabled database answer *immediately* from stored data while
/// schema expansion for the missing attributes is still in flight: the
/// snapshot has the same shape as the eventual answer, just with the
/// unacquired cells empty, and predicates over missing columns reject rows
/// exactly as they would over an existing-but-unfilled column.  One shared
/// body keeps the two semantics' ordering/limit/projection from ever
/// drifting apart.
pub fn execute_select_partitions(
    select: &SelectStatement,
    parts: &[&Table],
    snapshot: bool,
) -> Result<SelectResult> {
    let first = parts.first().ok_or_else(|| {
        RelationalError::InvalidStatement(format!("table {} has no partitions", select.table))
    })?;
    let schema = first.schema();
    if parts[1..].iter().any(|part| part.schema() != schema) {
        return Err(RelationalError::InvalidStatement(format!(
            "the partitions of table {} disagree on its schema",
            first.name()
        )));
    }

    // Bind every referenced column up front (so unknown columns error —
    // or register as missing — even for empty tables, deterministically).
    let mut missing_columns: Vec<String> = Vec::new();
    let mut resolve = |name: &str| -> Result<Option<usize>> {
        match schema.index_of(name) {
            Some(index) => Ok(Some(index)),
            None if snapshot => {
                let lower = fold_name(name);
                if !missing_columns.iter().any(|missing| *missing == lower) {
                    missing_columns.push(lower.into_owned());
                }
                Ok(None)
            }
            None => Err(RelationalError::UnknownColumn {
                table: first.name().to_string(),
                column: fold_name(name).into_owned(),
            }),
        }
    };
    // The result's column names, and the row position each projects.
    let (columns, projected): (Vec<String>, Vec<Option<usize>>) = match &select.projection {
        Projection::All => (schema.column_names(), (0..schema.len()).map(Some).collect()),
        Projection::Columns(names) => {
            let mut projected = Vec::with_capacity(names.len());
            for name in names {
                projected.push(resolve(name)?);
            }
            let columns = names.iter().map(|n| fold_name(n).into_owned()).collect();
            (columns, projected)
        }
    };
    let bound = select
        .filter
        .as_ref()
        .map(|filter| BoundFilter::bind(filter, &mut resolve))
        .transpose()?;
    let order_index = match &select.order_by {
        Some(OrderBy { column, .. }) => resolve(column)?,
        None => None,
    };

    // Scan and filter in `k` order.  Under snapshot semantics a predicate
    // over a missing column is constant NULL and rejects every row, as it
    // would over an existing-but-unfilled column.
    let filter = select.filter.as_ref().zip(bound.as_ref());
    let mut matching: Vec<(usize, usize)> = Vec::new();
    let mut rows_scanned = 0;
    for (k, part) in parts.iter().enumerate() {
        rows_scanned += filter_rows(part, filter, |i| matching.push((k, i)))?;
    }
    let row_of = |(k, i): (usize, usize)| -> &[Value] { &parts[k].rows()[i] };

    // Order (stable, so equal keys keep `k`-then-row order).  A missing
    // (snapshot-only) sort key is all-NULL, so the order is a no-op: the
    // scan order is kept, which is also what NULLs-sort-equal would yield.
    if let (Some(OrderBy { ascending, .. }), Some(col_idx)) = (&select.order_by, order_index) {
        // Ascending, every number sorts before NaN and NaN before NULL;
        // descending reverses the whole order, NULLs included.  Keys of
        // one rank compare as values.  That is a total order, which
        // `Value::compare` alone is not once NaN is present.
        let rank = |value: &Value| match value {
            Value::Null => 2,
            Value::Float(f) if f.is_nan() => 1,
            _ => 0,
        };
        matching.sort_by(|&a, &b| {
            let (va, vb) = (&row_of(a)[col_idx], &row_of(b)[col_idx]);
            let ord = (rank(va).cmp(&rank(vb)))
                .then_with(|| va.compare(vb).unwrap_or(std::cmp::Ordering::Equal));
            if *ascending {
                ord
            } else {
                ord.reverse()
            }
        });
    }

    // Limit.
    if let Some(limit) = select.limit {
        matching.truncate(limit);
    }

    // Project into one buffer; a missing column is a constant-NULL column.
    let mut rows = Grid::with_capacity(projected.len(), matching.len());
    for &at in &matching {
        let row = row_of(at);
        rows.push_row(projected.iter().map(|index| match index {
            Some(index) => row[*index].clone(),
            None => Value::Null,
        }));
    }

    Ok(SelectResult {
        result: QueryResult {
            columns,
            rows,
            rows_affected: 0,
        },
        lineage: matching,
        missing_columns,
        rows_scanned,
    })
}

/// Executes a parsed statement against the catalog: a write runs as
/// [`prepare`] followed by [`Prepared::apply`], so a statement that fails
/// changes nothing.
pub fn execute(statement: &Statement, catalog: &mut Catalog) -> Result<QueryResult> {
    match statement {
        Statement::Select(_) | Statement::ExplainExpansion(_) => execute_read(statement, catalog),
        Statement::CreateTable { table, columns } => {
            let schema = Schema::new(columns.clone())?;
            catalog.create_table(Table::new(table.clone(), schema))?;
            Ok(QueryResult::empty())
        }
        write => {
            let table = catalog.table_mut(write.target_table().unwrap_or_default())?;
            let rows_affected = prepare(write, table, |_| true)?.apply(table);
            Ok(QueryResult {
                rows_affected,
                ..QueryResult::empty()
            })
        }
    }
}

/// A write statement checked against one table: the change
/// [`Prepared::apply`] makes.  Only [`prepare`] makes one, and every value
/// in it has passed its column's rule ([`Column::admit`]), so applying it
/// cannot fail.
#[derive(Debug)]
pub struct Prepared(Change);

#[derive(Debug)]
enum Change {
    /// Full rows to append, in schema order.
    Insert(Vec<Vec<Value>>),
    /// The assigned columns' positions, and each matched row's index with
    /// its new values in the columns' order.
    Update(Vec<usize>, Vec<(usize, Vec<Value>)>),
    /// The indices of the rows to remove, ascending.
    Delete(Vec<usize>),
    /// A column to add, `NULL` in every existing row.
    AddColumn(Column),
}

/// Checks a write statement (`INSERT`, `UPDATE`, `DELETE` or `ALTER TABLE
/// … ADD COLUMN`) against `table` without changing it: resolves its
/// columns, matches its filter, evaluates its assignments and admits
/// every new value to its column.  Of an `INSERT`'s rows, `table`
/// receives those whose position `insert_row` accepts (a partition of a
/// table receives the rows routed to it).
///
/// The first error wins, in statement order: for an `UPDATE`, an unknown
/// assigned column, then the filter over the rows in ascending order,
/// then each matched row's assignments — all evaluated before any of
/// them is admitted.
pub fn prepare(
    statement: &Statement,
    table: &Table,
    insert_row: impl Fn(usize) -> bool,
) -> Result<Prepared> {
    match statement {
        Statement::Insert { columns, rows, .. } => {
            let indices = positions(table, columns.iter())?;
            let rows = (rows.iter().enumerate())
                .filter(|&(i, _)| insert_row(i))
                .map(|(_, row)| {
                    let mut full = vec![Value::Null; table.schema().len()];
                    for (value, &index) in row.iter().zip(&indices) {
                        full[index] = value.clone();
                    }
                    table.admit_row(full)
                });
            Ok(Prepared(Change::Insert(rows.collect::<Result<_>>()?)))
        }
        Statement::Update {
            assignments,
            filter,
            ..
        } => {
            let columns = positions(table, assignments.iter().map(|(name, _)| name))?;
            let matching = matching_rows(table, filter.as_ref())?;
            // The assigned expressions are bound only once some row needs
            // them, so an UPDATE matching nothing never fails on them.
            let bound = if matching.is_empty() {
                Vec::new()
            } else {
                let mut resolve = strict_resolver(table.schema(), table.name());
                (assignments.iter())
                    .map(|(_, expr)| expr.bind(&mut resolve))
                    .collect::<Result<Vec<_>>>()?
            };
            let schema = table.schema().columns();
            let mut rows = Vec::with_capacity(matching.len());
            for row in matching {
                // Every assignment reads the row as it was, so
                // `SET a = b, b = a` swaps.
                let cells = &table.rows()[row];
                let mut values = (bound.iter())
                    .map(|expr| Ok(expr.evaluate(cells)?.into_owned()))
                    .collect::<Result<Vec<Value>>>()?;
                for (value, &column) in values.iter_mut().zip(&columns) {
                    schema[column].admit(value)?;
                }
                rows.push((row, values));
            }
            Ok(Prepared(Change::Update(columns, rows)))
        }
        Statement::Delete { filter, .. } => Ok(Prepared(Change::Delete(matching_rows(
            table,
            filter.as_ref(),
        )?))),
        Statement::AlterTableAddColumn { column, .. } => {
            table.new_column_fill(column, None)?;
            Ok(Prepared(Change::AddColumn(column.clone())))
        }
        other => Err(RelationalError::InvalidStatement(format!(
            "prepare got a statement that changes no table's rows: {other:?}"
        ))),
    }
}

impl Prepared {
    /// Makes the change on `table` — the table it was prepared on,
    /// unchanged since — and returns the number of rows affected.
    pub fn apply(self, table: &mut Table) -> usize {
        match self.0 {
            Change::Insert(rows) => {
                let count = rows.len();
                rows.into_iter()
                    .for_each(|row| table.push_row(row, |_, v| inserted(v)));
                count
            }
            Change::Update(columns, rows) => {
                let updated = rows.len();
                for (row, values) in rows {
                    for (&column, value) in columns.iter().zip(values) {
                        table.write_cell(row, column, value, CellProvenance::Stored);
                    }
                }
                updated
            }
            Change::Delete(rows) => table.delete_rows(&rows),
            Change::AddColumn(column) => {
                table
                    .add_column(column, None)
                    .expect("prepare admitted the column");
                0
            }
        }
    }
}

/// Calls `keep` with the index of every row of `table` that `filter`
/// matches, in ascending row order, and returns how many rows the filter
/// evaluated.
///
/// This is the one lookup primitive of `SELECT`, `UPDATE` and `DELETE`.
/// The filter is bound once per statement into its `AND` terms
/// ([`BoundFilter`]), and one loop runs them over the rows; a column
/// compared with a literal is decided in line, without recursion.
/// When the filter pins the table's key column to an id
/// ([`Expr::pinned_integer`] on [`Table::key_column`]), only the rows the
/// key index holds for that id are candidates; every other row fails the
/// pinned equality, so the bound filter — still evaluated in full on each
/// candidate — is never run on it, and an evaluation error it would raise
/// there is not raised.  Otherwise every row is a candidate.
fn filter_rows(
    table: &Table,
    filter: Option<(&Expr, &BoundFilter)>,
    mut keep: impl FnMut(usize),
) -> Result<usize> {
    let rows = table.rows();
    let Some((expr, bound)) = filter else {
        (0..rows.len()).for_each(keep);
        return Ok(rows.len());
    };
    let pinned = table
        .key_column()
        .and_then(|key| expr.pinned_integer(key))
        .and_then(|id| table.rows_with_key(id));
    if let Some(candidates) = pinned {
        let scanned = candidates.len();
        for i in candidates {
            if bound.matches(&rows[i])? {
                keep(i);
            }
        }
        return Ok(scanned);
    }
    for (i, row) in rows.iter().enumerate() {
        if bound.matches(row)? {
            keep(i);
        }
    }
    Ok(rows.len())
}

/// The positions of the named columns in `table`'s schema.
fn positions<'a>(table: &Table, names: impl Iterator<Item = &'a String>) -> Result<Vec<usize>> {
    names
        .map(|name| {
            (table.schema().index_of(name)).ok_or_else(|| RelationalError::UnknownColumn {
                table: table.name().to_string(),
                column: name.to_lowercase(),
            })
        })
        .collect()
}

fn matching_rows(table: &Table, filter: Option<&Expr>) -> Result<Vec<usize>> {
    // Bind up front for a deterministic error, even on an empty table.
    let bound = filter
        .map(|filter| BoundFilter::bind(filter, &mut strict_resolver(table.schema(), table.name())))
        .transpose()?;
    let mut matching = Vec::new();
    filter_rows(table, filter.zip(bound.as_ref()), |i| matching.push(i))?;
    Ok(matching)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::sql::parse;
    use crate::value::DataType;

    fn setup() -> Catalog {
        let mut catalog = Catalog::new();
        execute(
            &parse(
                "CREATE TABLE movies (id INTEGER NOT NULL, name TEXT, year INTEGER, rating FLOAT)",
            )
            .unwrap(),
            &mut catalog,
        )
        .unwrap();
        execute(
            &parse(
                "INSERT INTO movies (id, name, year, rating) VALUES \
                 (1, 'Rocky', 1976, 8.1), (2, 'Psycho', 1960, 8.5), \
                 (3, 'Vertigo', 1958, 8.3), (4, 'Grease', 1978, 7.2)",
            )
            .unwrap(),
            &mut catalog,
        )
        .unwrap();
        catalog
    }

    fn select_of(sql: &str) -> SelectStatement {
        match parse(sql).unwrap() {
            Statement::Select(select) => select,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    /// `select` on `catalog`'s table as the one partition it is.
    fn select_on(select: &SelectStatement, catalog: &Catalog, snapshot: bool) -> SelectResult {
        let table = catalog.table(&select.table).unwrap();
        execute_select_partitions(select, &[table], snapshot).unwrap()
    }

    #[test]
    fn create_insert_select_roundtrip() {
        let mut catalog = setup();
        let result = execute(&parse("SELECT * FROM movies").unwrap(), &mut catalog).unwrap();
        assert_eq!(result.columns, vec!["id", "name", "year", "rating"]);
        assert_eq!(result.rows.len(), 4);
    }

    #[test]
    fn filter_projection_order_limit() {
        let mut catalog = setup();
        let result = execute(
            &parse("SELECT name FROM movies WHERE year < 1977 ORDER BY rating DESC LIMIT 2")
                .unwrap(),
            &mut catalog,
        )
        .unwrap();
        assert_eq!(result.columns, vec!["name"]);
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result.rows[0][0], Value::from("Psycho"));
        assert_eq!(result.rows[1][0], Value::from("Vertigo"));
    }

    #[test]
    fn indexed_select_reports_the_physical_row_behind_each_result_row() {
        let catalog = setup();
        let sql = "SELECT name FROM movies WHERE year < 1977 ORDER BY rating DESC";
        let selected = select_on(&select_of(sql), &catalog, false);
        // By rating: Psycho (row 1), Vertigo (row 2), Rocky (row 0);
        // Grease (1978) is filtered out.
        assert_eq!(selected.lineage, vec![(0, 1), (0, 2), (0, 0)]);
        assert_eq!(selected.result.rows.len(), selected.lineage.len());
        // The lineage and plain read paths agree.
        let stmt = parse(sql).unwrap();
        assert_eq!(execute_read(&stmt, &catalog).unwrap(), selected.result);
        // Write statements are rejected on the read path.
        let stmt = parse("DELETE FROM movies").unwrap();
        assert!(matches!(
            execute_read(&stmt, &catalog),
            Err(RelationalError::InvalidStatement(_))
        ));
    }

    #[test]
    fn order_by_ascending_and_null_handling() {
        let mut catalog = setup();
        execute(
            &parse("INSERT INTO movies (id, name) VALUES (5, 'Unknown Year')").unwrap(),
            &mut catalog,
        )
        .unwrap();
        let result = execute(
            &parse("SELECT name FROM movies ORDER BY year ASC").unwrap(),
            &mut catalog,
        )
        .unwrap();
        // NULL year sorts last.
        assert_eq!(result.rows.last().unwrap()[0], Value::from("Unknown Year"));
        assert_eq!(result.rows[0][0], Value::from("Vertigo"));
    }

    #[test]
    fn unknown_column_in_filter_is_reported_for_schema_expansion() {
        let mut catalog = setup();
        let err = execute(
            &parse("SELECT * FROM movies WHERE is_comedy = true").unwrap(),
            &mut catalog,
        )
        .unwrap_err();
        assert_eq!(
            err,
            RelationalError::UnknownColumn {
                table: "movies".into(),
                column: "is_comedy".into()
            }
        );
        // Unknown column in projection and ORDER BY too.
        assert!(matches!(
            execute(&parse("SELECT humor FROM movies").unwrap(), &mut catalog),
            Err(RelationalError::UnknownColumn { .. })
        ));
        assert!(matches!(
            execute(
                &parse("SELECT * FROM movies ORDER BY humor").unwrap(),
                &mut catalog
            ),
            Err(RelationalError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn integers_written_to_float_columns_are_stored_as_floats() {
        let mut catalog = Catalog::new();
        for sql in [
            "CREATE TABLE items (id INTEGER NOT NULL, weight FLOAT)",
            "INSERT INTO items (id, weight) VALUES (1, 3)",
        ] {
            execute(&parse(sql).unwrap(), &mut catalog).unwrap();
        }
        let weight = |catalog: &Catalog| catalog.table("items").unwrap().rows()[0][1].clone();
        assert_eq!(weight(&catalog), Value::Float(3.0));
        execute(
            &parse("UPDATE items SET weight = 4 WHERE id = 1").unwrap(),
            &mut catalog,
        )
        .unwrap();
        assert_eq!(weight(&catalog), Value::Float(4.0));
    }

    #[test]
    fn alter_table_add_column_then_query() {
        let mut catalog = setup();
        execute(
            &parse("ALTER TABLE movies ADD COLUMN is_comedy BOOLEAN").unwrap(),
            &mut catalog,
        )
        .unwrap();
        // All values start as NULL, so the predicate matches nothing.
        let result = execute(
            &parse("SELECT * FROM movies WHERE is_comedy = true").unwrap(),
            &mut catalog,
        )
        .unwrap();
        assert!(result.rows.is_empty());
        // Fill one value and re-query.
        catalog
            .table_mut("movies")
            .unwrap()
            .set_cell(3, "is_comedy", Value::Boolean(true), CellProvenance::Stored)
            .unwrap();
        let result = execute(
            &parse("SELECT name FROM movies WHERE is_comedy = true").unwrap(),
            &mut catalog,
        )
        .unwrap();
        assert_eq!(result.rows, vec![vec![Value::from("Grease")]]);
    }

    #[test]
    fn insert_reports_rows_affected_and_validates() {
        let mut catalog = setup();
        let result = execute(
            &parse("INSERT INTO movies (id, name) VALUES (7, 'New'), (8, 'Newer')").unwrap(),
            &mut catalog,
        )
        .unwrap();
        assert_eq!(result.rows_affected, 2);
        // Unknown table / column and NOT NULL violations.
        assert!(matches!(
            execute(
                &parse("INSERT INTO nope (id) VALUES (1)").unwrap(),
                &mut catalog
            ),
            Err(RelationalError::UnknownTable(_))
        ));
        assert!(matches!(
            execute(
                &parse("INSERT INTO movies (genre) VALUES ('comedy')").unwrap(),
                &mut catalog
            ),
            Err(RelationalError::UnknownColumn { .. })
        ));
        assert!(execute(
            &parse("INSERT INTO movies (name) VALUES ('No Id')").unwrap(),
            &mut catalog
        )
        .is_err());
    }

    #[test]
    fn create_table_twice_fails() {
        let mut catalog = setup();
        assert!(matches!(
            execute(
                &parse("CREATE TABLE movies (id INTEGER)").unwrap(),
                &mut catalog
            ),
            Err(RelationalError::TableExists(_))
        ));
    }

    #[test]
    fn unknown_table_in_select() {
        let mut catalog = Catalog::new();
        assert!(matches!(
            execute(&parse("SELECT * FROM missing").unwrap(), &mut catalog),
            Err(RelationalError::UnknownTable(_))
        ));
    }

    #[test]
    fn update_statement_modifies_matching_rows() {
        let mut catalog = setup();
        let result = execute(
            &parse("UPDATE movies SET rating = rating + 1, year = 2000 WHERE year < 1970").unwrap(),
            &mut catalog,
        )
        .unwrap();
        assert_eq!(result.rows_affected, 2);
        let rows = execute(
            &parse("SELECT name, rating, year FROM movies WHERE year = 2000 ORDER BY name")
                .unwrap(),
            &mut catalog,
        )
        .unwrap();
        assert_eq!(rows.rows.len(), 2);
        assert_eq!(rows.rows[0][0], Value::from("Psycho"));
        assert_eq!(rows.rows[0][1], Value::Float(9.5));
        // UPDATE without WHERE touches every row.
        let all = execute(
            &parse("UPDATE movies SET rating = 0.0").unwrap(),
            &mut catalog,
        )
        .unwrap();
        assert_eq!(all.rows_affected, 4);
        // Unknown assignment target and unknown filter column are reported.
        assert!(matches!(
            execute(
                &parse("UPDATE movies SET humor = 1.0").unwrap(),
                &mut catalog
            ),
            Err(RelationalError::UnknownColumn { .. })
        ));
        assert!(matches!(
            execute(
                &parse("UPDATE movies SET rating = 1.0 WHERE humor = 2").unwrap(),
                &mut catalog
            ),
            Err(RelationalError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn delete_statement_removes_matching_rows() {
        let mut catalog = setup();
        let result = execute(
            &parse("DELETE FROM movies WHERE year >= 1976").unwrap(),
            &mut catalog,
        )
        .unwrap();
        assert_eq!(result.rows_affected, 2);
        let remaining = execute(&parse("SELECT name FROM movies").unwrap(), &mut catalog).unwrap();
        assert_eq!(remaining.rows.len(), 2);
        // DELETE without WHERE empties the table.
        let rest = execute(&parse("DELETE FROM movies").unwrap(), &mut catalog).unwrap();
        assert_eq!(rest.rows_affected, 2);
        assert!(
            execute(&parse("SELECT * FROM movies").unwrap(), &mut catalog)
                .unwrap()
                .rows
                .is_empty()
        );
        // Unknown filter columns are reported.
        assert!(matches!(
            execute(
                &parse("DELETE FROM movies WHERE humor = 2").unwrap(),
                &mut catalog
            ),
            Err(RelationalError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn analyze_reports_all_missing_columns_in_one_pass() {
        let mut catalog = setup();
        let movies = catalog.table("movies").unwrap();
        // Two unknown columns across filter and ORDER BY, one known.
        let stmt =
            parse("SELECT name FROM movies WHERE is_comedy = true AND year > 1970 ORDER BY humor")
                .unwrap();
        let analysis = analyze(&stmt, movies);
        assert_eq!(analysis.missing_columns, vec!["is_comedy", "humor"]);
        assert!(!analysis.is_fully_resolved());

        // Fully resolved statements report no missing columns.
        let stmt = parse("SELECT name FROM movies WHERE year > 1970").unwrap();
        assert!(analyze(&stmt, movies).is_fully_resolved());

        // Duplicated references are reported once, in first-appearance order.
        let stmt =
            parse("SELECT a, b FROM movies WHERE a = 1 AND b = 2 AND a = 3 ORDER BY b").unwrap();
        assert_eq!(analyze(&stmt, movies).missing_columns, vec!["a", "b"]);

        // UPDATE and DELETE are analyzed through the same pass.
        let stmt = parse("UPDATE movies SET humor = 1.0 WHERE is_comedy = true").unwrap();
        assert_eq!(
            analyze(&stmt, movies).missing_columns,
            vec!["humor", "is_comedy"]
        );
        let stmt = parse("DELETE FROM movies WHERE humor = 2").unwrap();
        assert_eq!(analyze(&stmt, movies).missing_columns, vec!["humor"]);

        // Sanity: analysis does not mutate the table.
        execute(&parse("SELECT * FROM movies").unwrap(), &mut catalog).unwrap();
    }

    #[test]
    fn statement_referenced_columns_cover_all_clauses() {
        let stmt = parse(
            "SELECT Name, Year FROM movies WHERE IS_COMEDY = true AND year > 1970 ORDER BY rating",
        )
        .unwrap();
        assert_eq!(
            stmt.referenced_columns(),
            vec!["name", "year", "is_comedy", "rating"]
        );
        assert_eq!(stmt.target_table(), Some("movies"));
        let stmt = parse("INSERT INTO movies (id, name) VALUES (1, 'x')").unwrap();
        assert_eq!(stmt.referenced_columns(), vec!["id", "name"]);
        let stmt = parse("UPDATE movies SET rating = rating + 1 WHERE year < 1970").unwrap();
        assert_eq!(stmt.referenced_columns(), vec!["rating", "year"]);
    }

    #[test]
    fn snapshot_select_serves_missing_columns_as_null() {
        let catalog = setup();
        // `is_comedy` does not exist: the strict path errors, the snapshot
        // path answers with the column all-NULL and the predicate over it
        // rejecting every row (NULL-rejects semantics).
        let select = select_of("SELECT name, is_comedy FROM movies WHERE year < 1977");
        assert!(matches!(
            execute_select_partitions(&select, &[catalog.table("movies").unwrap()], false),
            Err(RelationalError::UnknownColumn { .. })
        ));
        let snapshot = select_on(&select, &catalog, true);
        assert_eq!(snapshot.result.columns, vec!["name", "is_comedy"]);
        assert_eq!(snapshot.missing_columns, vec!["is_comedy"]);
        assert_eq!(snapshot.result.rows.len(), 3);
        assert!(snapshot.result.rows.iter().all(|row| row[1] == Value::Null));
        assert_eq!(snapshot.result.rows.len(), snapshot.lineage.len());

        // A predicate over the missing column rejects all rows…
        let select = select_of("SELECT name FROM movies WHERE is_comedy = true");
        let snapshot = select_on(&select, &catalog, true);
        assert!(snapshot.result.rows.is_empty());
        assert_eq!(snapshot.missing_columns, vec!["is_comedy"]);

        // …while OR over a stored column still answers from stored data,
        // and a missing ORDER BY key degrades to scan order instead of
        // failing.
        let select = select_of(
            "SELECT name FROM movies WHERE is_comedy = true OR year < 1977 ORDER BY humor",
        );
        let snapshot = select_on(&select, &catalog, true);
        assert_eq!(snapshot.result.rows.len(), 3);
        assert_eq!(snapshot.missing_columns, vec!["is_comedy", "humor"]);

        // Fully resolved statements report nothing missing and agree with
        // the strict executor.
        let select = select_of("SELECT name FROM movies WHERE year < 1977");
        let snapshot = select_on(&select, &catalog, true);
        assert!(snapshot.missing_columns.is_empty());
        let strict = select_on(&select, &catalog, false);
        assert_eq!(snapshot.result, strict.result);
        assert_eq!(snapshot.lineage, strict.lineage);
    }

    #[test]
    fn snapshot_filters_read_missing_columns_as_null() {
        let catalog = setup();
        let rows = |sql: &str| {
            let selected = select_on(&select_of(sql), &catalog, true);
            assert_eq!(selected.missing_columns, vec!["nonexistent"], "{sql}");
            selected.result.rows
        };
        // A comparison with a missing column is NULL and rejects the row,
        // as does its negation; strictly, it is an unknown column.
        assert!(rows("SELECT name FROM movies WHERE nonexistent = true").is_empty());
        assert!(rows("SELECT name FROM movies WHERE NOT nonexistent = true").is_empty());
        assert!(rows("SELECT name FROM movies WHERE 1 < nonexistent").is_empty());
        let strict = select_of("SELECT name FROM movies WHERE nonexistent = true");
        assert!(matches!(
            execute_select_partitions(&strict, &[catalog.table("movies").unwrap()], false),
            Err(RelationalError::UnknownColumn { .. })
        ));
        // NULL OR true is true, so stored data still answers.
        assert_eq!(
            rows("SELECT name FROM movies WHERE nonexistent = true OR id = 1"),
            vec![vec![Value::from("Rocky")]]
        );
        // IS NULL over a missing column is true: the cell is a hole.
        assert_eq!(
            rows("SELECT name FROM movies WHERE nonexistent IS NULL").len(),
            4
        );
        // NULL AND false is false, and no error either way.
        assert!(rows("SELECT name FROM movies WHERE nonexistent = 1 AND id = 1").is_empty());
    }

    #[test]
    fn explain_expansion_is_rejected_by_the_relational_executor() {
        let mut catalog = setup();
        let stmt = parse("EXPLAIN EXPANSION SELECT * FROM movies").unwrap();
        assert!(matches!(
            execute(&stmt, &mut catalog),
            Err(RelationalError::InvalidStatement(_))
        ));
        assert!(matches!(
            execute_read(&stmt, &catalog),
            Err(RelationalError::InvalidStatement(_))
        ));
        // But analysis sees straight through to the wrapped SELECT.
        let stmt = parse("EXPLAIN EXPANSION SELECT * FROM movies WHERE is_comedy = true").unwrap();
        let analysis = analyze(&stmt, catalog.table("movies").unwrap());
        assert_eq!(analysis.missing_columns, vec!["is_comedy"]);
    }

    #[test]
    fn integer_overflow_in_a_predicate_is_an_error() {
        let mut catalog = setup();
        let err = execute(
            &parse("SELECT id FROM movies WHERE id * 9223372036854775807 > 0").unwrap(),
            &mut catalog,
        )
        .unwrap_err();
        assert_eq!(err, RelationalError::Evaluation("integer overflow".into()));
    }

    #[test]
    fn partitions_answer_like_their_concatenation() {
        let catalog = setup();
        let whole = catalog.table("movies").unwrap();
        // Split the rows round-robin into three slices, each with the full
        // schema, and add tied sort keys so stability shows.
        let mut parts: Vec<Table> = (0..3)
            .map(|_| Table::new("movies", whole.schema().clone()))
            .collect();
        let mut merged = Table::new("movies", whole.schema().clone());
        let mut rows: Vec<Vec<Value>> = whole.rows().to_vec();
        for id in 5..12 {
            rows.push(vec![
                Value::Integer(id),
                Value::from(format!("tie {id}")),
                Value::Integer(1990),
                Value::Float(7.5),
            ]);
        }
        for (i, row) in rows.iter().enumerate() {
            parts[i % 3].insert_row(row.clone()).unwrap();
        }
        for part in &parts {
            for row in part.rows() {
                merged.insert_row(row.clone()).unwrap();
            }
        }
        let refs: Vec<&Table> = parts.iter().collect();
        for sql in [
            "SELECT * FROM movies",
            "SELECT name FROM movies ORDER BY rating DESC LIMIT 6",
            "SELECT name, year FROM movies WHERE year >= 1976 ORDER BY year",
            "SELECT id FROM movies LIMIT 4",
            "SELECT name, humor FROM movies WHERE humor = 1 OR id > 6 ORDER BY humor",
        ] {
            let Statement::Select(select) = parse(sql).unwrap() else {
                panic!("{sql} is a SELECT");
            };
            let split = execute_select_partitions(&select, &refs, true).unwrap();
            let single = execute_select_partitions(&select, &[&merged], true).unwrap();
            assert_eq!(split.result, single.result, "{sql}");
            assert_eq!(split.missing_columns, single.missing_columns, "{sql}");
            assert_eq!(split.rows_scanned, rows.len(), "{sql}");
            // Lineage points at the row each result row was projected from.
            for (&(k, i), &(_, j)) in split.lineage.iter().zip(&single.lineage) {
                assert_eq!(parts[k].rows()[i], merged.rows()[j], "{sql}");
            }
        }
        // No partitions, or partitions that disagree on the schema, are
        // refused rather than answered.
        let Statement::Select(select) = parse("SELECT * FROM movies").unwrap() else {
            unreachable!()
        };
        assert!(execute_select_partitions(&select, &[], false).is_err());
        let other = Table::new(
            "movies",
            Schema::new(vec![Column::new("id", DataType::Integer)]).unwrap(),
        );
        assert!(execute_select_partitions(&select, &[&parts[0], &other], false).is_err());
    }

    #[test]
    fn helper_bulk_loads_tables() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Integer),
            Column::new("name", DataType::Text),
        ])
        .unwrap();
        let mut table = Table::new("genres", schema);
        table
            .insert_row(vec![Value::Integer(2), Value::from("drama")])
            .unwrap();
        table
            .insert_row(vec![Value::Integer(1), Value::from("comedy")])
            .unwrap();
        let mut catalog = Catalog::new();
        catalog.create_table(table).unwrap();
        let selected = select_on(
            &select_of("SELECT name FROM genres ORDER BY id"),
            &catalog,
            false,
        );
        assert_eq!(selected.result.rows.len(), 2);
        assert_eq!(selected.result.rows[0][0], Value::from("comedy"));
        assert_eq!(selected.lineage, vec![(0, 1), (0, 0)]);
    }
}
