//! Golden pin of what the SQL parser produces.
//!
//! [`CORPUS`] is every SQL string literal of the workspace's integration
//! tests, verbatim — `format!` placeholders included, which pin the
//! lexer's error path.  [`EDGES`] adds the lexical corners: Unicode case
//! folding, `''` escapes, every operator, numbers at the `i64` edges.
//! The digest covers the `Debug` form of each `parse()` result, `Ok` tree
//! and `Err` message alike, so any change to a parsed statement or to an
//! error message fails the test.  [`generated_where_clauses`] adds some
//! 5,000 `WHERE` clauses from a seeded generator, well-formed and not,
//! pinned the same way.  [`generated_where_clauses_filter_as_pinned`]
//! and [`hand_written_filters_evaluate_as_pinned`] run those clauses, and
//! [`FILTERS`], through the executor over a fixed table and pin what each
//! one answers: the matched rows in order, or the error message.

use relational::{execute, execute_read, parse, Catalog, Column, DataType, Schema, Table, Value};

const CORPUS: &[&str] = &[
    "CREATE TABLE t (v INTEGER)",
    "INSERT INTO t (v) VALUES ({value})",
    "SELECT v FROM t",
    "CREATE TABLE t (v TEXT)",
    "INSERT INTO t (v) VALUES ('{text}')",
    "CREATE TABLE {table} ({column} INTEGER)",
    "SELECT {column} FROM {table} WHERE {column} > 0",
    "INSERT INTO t (v) VALUES ({v})",
    "SELECT v FROM t WHERE v >= {threshold}",
    "SELECT v FROM t ORDER BY v ASC",
    "ALTER TABLE t ADD COLUMN {new_column} BOOLEAN",
    "SELECT * FROM t",
    "SELECT item_id, is_comedy, is_horror FROM movies",
    "SELECT item_id, is_comedy FROM movies",
    "SELECT item_id, is_comedy FROM movies WHERE is_comedy = true",
    "SELECT item_id, is_horror FROM movies WHERE is_horror = true",
    "SELECT name FROM movies LIMIT 3",
    "SELECT name FROM movies WHERE item_id = 1",
    "SELECT item_id FROM movies WHERE is_comedy = true",
    "SELECT item_id FROM movies WHERE is_other = true",
    "SELECT name FROM movies WHERE is_comedy = true AND is_other = false",
    "SELECT name FROM movies WHERE is_comedy = true AND is_other = true",
    "DELETE FROM movies WHERE item_id < 60",
    "UPDATE movies SET popularity = 0.5 WHERE year < {year}",
    "SELECT * FROM movies WHERE is_comedy = true",
    "SELECT name FROM movies WHERE is_comedy = true AND is_horror = false",
    "SELECT name FROM movies WHERE is_horror = true",
    "SELECT item_id, name, year FROM movies",
    "SELECT name FROM movies ORDER BY year DESC LIMIT 7",
    "CREATE TABLE genres (id INTEGER, label TEXT)",
    "INSERT INTO genres (id, label) VALUES (1, 'comedy'), (2, 'drama')",
    "SELECT label FROM genres ORDER BY id",
    "SELECT item_id FROM items",
    "SELECT * FROM items WHERE {unpinned}",
    "SELECT * FROM items WHERE {}",
    "SELECT label, item_id FROM items WHERE {}",
    "SELECT item_id, score FROM items WHERE {} AND score > 1 ORDER BY score DESC",
    "SELECT label FROM items WHERE score >= 0 AND {} ORDER BY score LIMIT 1",
    "SELECT label FROM items WHERE item_id >= {k} AND item_id <= {k}",
    "UPDATE items SET score = 4 WHERE item_id = 7",
    "DELETE FROM items WHERE item_id = -3",
    "UPDATE items SET item_id = 700 WHERE item_id = 7",
    "UPDATE items SET item_id = item_id + 1 WHERE item_id >= 30 AND item_id < 35",
    "DELETE FROM items WHERE item_id = 12",
    "INSERT INTO items (item_id, label, score) VALUES (12, 'again', 2)",
    "DELETE FROM items WHERE score = 3",
    "ALTER TABLE items ADD COLUMN extra INTEGER",
    "UPDATE items SET extra = 1 WHERE item_id = 5",
    "SELECT item_id, is_comedy FROM items WHERE item_id = 4",
    "INSERT INTO items (item_id, label, score) VALUES (2000, 'tail', 1), (5, 'tail', 1)",
    "SELECT item_id, name, is_comedy FROM movies",
    "SELECT item_id, body FROM events",
    "INSERT INTO events (item_id, body) VALUES \
             (12, 'twelve'), (13, 'thirteen'), (14, 'fourteen'), (15, 'fifteen')",
    "INSERT INTO events (item_id, body) VALUES ({id}, 'one by one {id}')",
    "UPDATE events SET body = 'rewritten' WHERE item_id < 4",
    "DELETE FROM events WHERE item_id = 17",
    "INSERT INTO events (item_id, body) VALUES ({id}, 'tail p{k}')",
    "INSERT INTO things (item_id, body) VALUES ({id}, 'seed {id}')",
    "INSERT INTO things (item_id, body) VALUES ({id}, 'hot')",
    "SELECT body FROM things",
    "INSERT INTO things (item_id, body) VALUES ({id}, 'after')",
    "CREATE TABLE notes (item_id INTEGER, body TEXT)",
    "INSERT INTO notes (item_id, body) VALUES (1, 'legacy one')",
    "INSERT INTO notes (item_id, body) VALUES (2, 'legacy two')",
    "SELECT body FROM notes",
    "INSERT INTO metrics (item_id, body) VALUES (1, 'a'), (2, 'b'), (3, 'c')",
    "INSERT INTO notes (item_id, body) VALUES (3, 'post-migration')",
    "SELECT body FROM metrics",
    "INSERT INTO stream (item_id, body) VALUES ({id}, 'row {id}')",
    "SELECT item_id FROM stream",
    "SELECT item_id, name, score FROM movies WHERE item_id = 5",
    "SELECT item_id, name FROM movies WHERE item_id = 500",
    "SELECT item_id, name FROM movies WHERE item_id = -3",
    "SELECT item_id, name FROM movies WHERE 5 = item_id",
    "SELECT item_id, name FROM movies WHERE item_id = 5.0",
    "SELECT item_id, name FROM movies WHERE item_id = '5'",
    "SELECT item_id, score FROM movies WHERE item_id = 5 AND score > 1",
    "SELECT item_id, score FROM movies WHERE item_id = 5 AND score > 0",
    "SELECT item_id, name FROM movies WHERE item_id = 5 OR item_id = 9",
    "SELECT item_id, name FROM movies WHERE item_id = NULL",
    "SELECT item_id, score FROM movies ORDER BY score LIMIT 17",
    "SELECT item_id, score FROM movies WHERE weight < 4.5 ORDER BY score DESC LIMIT 9",
    "SELECT item_id FROM movies LIMIT 7",
    "SELECT * FROM movies",
    "SELECT item_id, name FROM movies WHERE is_comedy = true AND score < 3",
    "SELECT item_id, is_comedy FROM movies WHERE item_id = 9",
    "SELECT * FROM movies WHERE is_comedy = false ORDER BY score LIMIT 11",
    "SELECT label FROM gauges WHERE item_id = 13",
    "SELECT item_id, score FROM items WHERE item_id = 1234",
    "SELECT item_id FROM items ORDER BY score DESC LIMIT 10",
    "SELECT item_id, is_comedy FROM movies WHERE score < 4",
    "INSERT INTO t (éid, label) VALUES ({id}, 'l{id}')",
    "SELECT label FROM t WHERE {column} = {id}",
    "INSERT INTO t (éid, label) VALUES (1, 'one')",
    "UPDATE t SET éid = 2 WHERE éid = 1",
    "UPDATE t SET ÉID = 2 WHERE label = 'one'",
    "SELECT label FROM t WHERE éid = 1",
    "INSERT INTO notes (item_id, body) VALUES (1, 'first')",
    "INSERT INTO notes (item_id, body) VALUES (2, 'second')",
    "UPDATE notes SET body = 'second, edited' WHERE item_id = 2",
    "INSERT INTO notes (item_id, body) VALUES (1, 'kept')",
    "INSERT INTO notes (item_id, body) VALUES (2, 'torn')",
    "INSERT INTO notes (item_id, body) VALUES (2, 'retried')",
    "INSERT INTO notes (item_id, body) VALUES (1, 'x')",
    "SELECT item_id, body FROM notes",
    "INSERT INTO notes (item_id, body) VALUES (7, 'post-checkpoint')",
    "INSERT INTO notes (item_id, body) VALUES ({i}, 'n{i}')",
    "INSERT INTO notes (item_id, body) VALUES (9, 'after')",
    "INSERT INTO notes (item_id, body) VALUES ({i}, 'note {i}')",
    "SELECT name FROM movies WHERE is_comedy = true",
    "SELECT name FROM movies WHERE is_other = false",
    "SELECT item_id, is_comedy FROM movies \
             WITH EXPANSION (budget = {budget}, mode = best_effort)",
    "SELECT item_id, is_comedy FROM movies WITH EXPANSION (mode = cache_only)",
    "SELECT name FROM movies WHERE is_comedy = true WITH EXPANSION (mode = deny)",
    "SELECT name FROM movies WHERE year > 2000 WITH EXPANSION (mode = deny)",
    "UPDATE movies SET is_comedy = false WHERE year < 1950",
    "SELECT item_id, is_comedy FROM movies \
             WITH EXPANSION (mode = full, quality >= 0.95)",
    "SELECT item_id, is_comedy FROM movies WITH EXPANSION (budget = 0.4)",
    "SELECT item_id FROM movies",
    "UPDATE movies SET popularity = 0.5 WHERE year < 1960",
    "SELECT * FROM items WITH EXPANSION (mode = deny)",
    "SELECT item_id, {column} FROM items WHERE item_id = {id} \
             WITH EXPANSION (mode = deny)",
    "SELECT item_id, is_comedy FROM items",
    "UPDATE items SET is_comedy = false WHERE item_id = 5",
    "UPDATE items SET is_comedy = NULL WHERE item_id = 6",
    "SELECT item_id, is_comedy FROM items WHERE item_id = 5 \
                 WITH EXPANSION (quality >= 0.95)",
    "SELECT item_id, is_comedy FROM items WHERE item_id = 4 \
                 WITH EXPANSION (quality >= 0.95)",
    "DELETE FROM items WHERE item_id = 5",
    "INSERT INTO items (item_id, label, is_comedy) VALUES (5, 'again', false)",
    "INSERT INTO items (item_id, label) VALUES (100, 'new')",
    "INSERT INTO items (item_id, label, is_comedy) VALUES (101, 'set', true)",
    "EXPLAIN EXPANSION SELECT item_id, is_comedy FROM items",
    "UPDATE items SET is_comedy = true WHERE is_comedy IS NULL",
    "UPDATE movies SET name = 'renamed' WHERE item_id = 1",
    "SELECT * FROM nonexistent",
    "SELECT item_id FROM alpha WHERE is_comedy = true",
    "SELECT item_id FROM beta WHERE is_comedy = true",
    "CREATE TABLE {table} (item_id INTEGER, body TEXT)",
    "INSERT INTO {table} (item_id, body) VALUES ({i}, 'seed {i}')",
    "INSERT INTO {table} (item_id, body) VALUES ({i}, 'post {i}')",
    "SELECT body FROM {table}",
    "INSERT INTO beta (item_id, body) VALUES (9, 'after')",
    "SELECT body FROM beta",
    "SELECT item_id, body FROM {table}",
    "INSERT INTO {table} (item_id, body) VALUES ({i}, '{table} {i}')",
    "INSERT INTO {table} (item_id, body) VALUES (9, '{table} tail')",
    "INSERT INTO notes (item_id, body) VALUES (2, 'from wal')",
    "INSERT INTO archived (item_id, body) VALUES (3, 'also from wal')",
    "SELECT body FROM archived",
    "INSERT INTO notes (item_id, body) VALUES (4, 'post-migration')",
    "EXPLAIN EXPANSION SELECT item_id, is_comedy FROM movies",
    "SELECT item_id, comedy_too FROM movies",
];

const EDGES: &[&str] = &[
    // Keywords fold through `to_uppercase`: the long s, the dotless i
    // and the `ﬂ` ligature spell keywords; `ß` upper-cases to "SS".
    "ſelect * FROM t",
    "SELECT * FROM t WHERE a ıs NULL",
    "CREATE TABLE t (a ﬂoat, b ınt)",
    "select Größe FROM Straße WHERE ß = 'ß'",
    // Identifiers fold through `to_lowercase`: the Kelvin sign becomes
    // `k`, a word-final capital sigma `ς`.
    "SELECT \u{212A}elvin, ΟΔΟΣ FROM t",
    "SELECT İd FROM t",
    "SELECT _a1, b_2_ FROM t_",
    // String literals: escapes, and no folding inside them.
    "INSERT INTO t (a, b) VALUES ('it''s', '''')",
    "INSERT INTO t (a) VALUES ('SELECT ſ \u{212A}')",
    "INSERT INTO t (a) VALUES ('unterminated",
    // Every operator.
    "SELECT * FROM t WHERE a <> 1 OR a != 2 OR a <= 3 OR a >= 4 OR a < 5 OR a > 6",
    "UPDATE t SET a = (a + 1) * 2 - -3 / 4 WHERE NOT a = 0;",
    "SELECT * FROM t WHERE a = 1;;",
    "SELECT * FROM t WHERE a ! 1",
    "SELECT # FROM t",
    // Numbers.
    "INSERT INTO t (a, b, c) VALUES (9223372036854775807, 3.25, 1.)",
    "INSERT INTO t (a) VALUES (9223372036854775808)",
    "SELECT * FROM t WHERE a = 1.2.3",
    "SELECT * FROM t LIMIT -1",
    "SELECT * FROM t LIMIT 1.5",
    // Statements cut short, and trailing input.
    "",
    "   ",
    "SELECT",
    "SELECT * FROM t WHERE (a = 1",
    "INSERT INTO t (a) VALUES (1) (2)",
    // A lexical error anywhere outranks an earlier grammar error.
    "SELECT FROM WHERE #",
    "SELECT , FROM t WHERE a = 'open",
    "EXPLAIN EXPANSION SELECT a FROM t WITH EXPANSION (budget = 1, mode = FULL)",
    "SELECT * FROM t WITH EXPANSION (Mode = Deny, QUALITY >= 1)",
];

/// FNV-1a over the `Debug` form of every statement's parse.
fn digest(statements: &[&str]) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for sql in statements {
        let line = format!("{sql:?} => {:?}\n", parse(sql));
        for byte in line.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// How many statements parse.
fn parsed(statements: &[&str]) -> usize {
    statements.iter().filter(|sql| parse(sql).is_ok()).count()
}

#[test]
fn the_test_corpus_parses_as_pinned() {
    assert_eq!(CORPUS.len(), 152);
    assert_eq!(parsed(CORPUS), 120);
    assert_eq!(digest(CORPUS), "427c9b36664e1628");
}

#[test]
fn lexical_edge_cases_parse_as_pinned() {
    assert_eq!(parsed(EDGES), 14);
    assert_eq!(digest(EDGES), "6ad8b4b47b98000a");
}

/// xorshift64: a fixed, self-contained stream, so the generated inputs
/// never depend on an RNG crate's version.
struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

const OPERANDS: &[&str] = &[
    "a", "score", "Item_Id", "0", "1", "42", "2.5", "1.", "'x'", "'it''s'", "TRUE", "false", "NULL",
];

/// Literals at the `i64` edges; the last two are no `i64`.
const EDGE_LITERALS: &[&str] = &[
    "9223372036854775807",
    "-9223372036854775808",
    "- 9223372036854775808",
    "-0009223372036854775808",
    "-9223372036854775807",
    "9223372036854775808",
    "-9223372036854775809",
];

const COMPARISONS: &[&str] = &["=", "<>", "!=", "<", "<=", ">", ">="];

/// Every token an expression may hold, and some it may not: the
/// mutations draw from it.
const TOKENS: &[&str] = &[
    "OR", "AND", "NOT", "IS", "NULL", "=", "<>", "<", ">=", "+", "-", "*", "/", "(", ")", "a", "7",
    "'s'", ",", "ORDER",
];

/// Tokens of a random expression whose grammar level is at least
/// `level` (0 = OR, 1 = AND, 2 = NOT, 3 = comparison, 4 = `+ -`,
/// 5 = `* /`, 6 = operand).  `depth` counts the enclosing parentheses,
/// NOTs and unary minuses, at most 6; `fuel` bounds the binary operators.
fn generate(
    rng: &mut XorShift,
    level: usize,
    depth: usize,
    fuel: &mut usize,
    out: &mut Vec<&'static str>,
) {
    let deeper = depth < 6;
    match level {
        0 | 1 | 4 | 5 if *fuel > 0 && rng.below(3) == 0 => {
            *fuel -= 1;
            generate(rng, level, depth, fuel, out);
            out.push(match level {
                0 => "OR",
                1 => "AND",
                4 => rng.pick(&["+", "-"]),
                _ => rng.pick(&["*", "/"]),
            });
            generate(rng, level + 1, depth, fuel, out);
        }
        2 if deeper && rng.below(4) == 0 => {
            out.push("NOT");
            generate(rng, 2, depth + 1, fuel, out);
        }
        3 if rng.below(2) == 0 => {
            generate(rng, 4, depth, fuel, out);
            match rng.below(4) {
                0 => out.extend(["IS", "NULL"]),
                1 => out.extend(["IS", "NOT", "NULL"]),
                _ => {
                    out.push(rng.pick(COMPARISONS));
                    generate(rng, 4, depth, fuel, out);
                }
            }
        }
        6 if deeper && rng.below(5) < 2 => {
            out.push("(");
            generate(rng, 0, depth + 1, fuel, out);
            out.push(")");
        }
        6 if deeper && rng.below(6) == 0 => {
            out.push("-");
            generate(rng, 6, depth + 1, fuel, out);
        }
        6 if rng.below(10) == 0 => out.push(rng.pick(EDGE_LITERALS)),
        6 => out.push(rng.pick(OPERANDS)),
        _ => generate(rng, level + 1, depth, fuel, out),
    }
}

/// Malformed shapes the mutations might miss.
const MALFORMED: &[&str] = &[
    "a = 1 = 2",
    "a < b >= c",
    "(a = 1 = 2)",
    "a = NOT b",
    "a + NOT b",
    "NOT a = NOT b",
    "a +",
    "a AND",
    "a OR OR b",
    "* a",
    "a = 1 AND",
    "(a = 1",
    "a = 1)",
    "((a)",
    "()",
    "a IS",
    "a IS NOT",
    "a IS 1",
    "a IS NOT TRUE",
    "a IS NULL IS NULL",
    "a IS NULL = 1",
    "a = b IS NULL",
    "a IS NULL + 1",
    "NOT",
    "-",
    "- NOT a",
    "a = 1 #",
];

/// About 5,000 `WHERE` clauses: well-formed expressions, a third of them
/// mutated by a token inserted, dropped or doubled, and [`MALFORMED`].
fn generated_where_clauses() -> Vec<String> {
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let mut clauses = Vec::new();
    for _ in 0..5_000 {
        let mut tokens = Vec::new();
        let mut fuel = rng.below(8);
        generate(&mut rng, 0, 0, &mut fuel, &mut tokens);
        if rng.below(3) == 0 {
            let at = rng.below(tokens.len() + 1);
            match rng.below(3) {
                0 => tokens.insert(at, rng.pick(TOKENS)),
                1 if at < tokens.len() => drop(tokens.remove(at)),
                _ if at < tokens.len() => tokens.insert(at, tokens[at]),
                _ => tokens.push(rng.pick(TOKENS)),
            }
        }
        clauses.push(format!("SELECT * FROM t WHERE {}", tokens.join(" ")));
    }
    clauses.extend(
        MALFORMED
            .iter()
            .map(|expr| format!("SELECT * FROM t WHERE {expr}")),
    );
    clauses
}

#[test]
fn generated_expressions_parse_as_pinned() {
    let clauses = generated_where_clauses();
    let clauses: Vec<&str> = clauses.iter().map(String::as_str).collect();
    assert_eq!(clauses.len(), 5_000 + MALFORMED.len());
    assert_eq!(parsed(&clauses), 3082);
    assert_eq!(digest(&clauses), "f8159d106befc8e3");
}

/// A fixed 64-row table `t` over the generator's columns: `item_id`
/// (small ids, two `NULL`s and the `i64` edges last), `score` (floats,
/// widened integers, `NULL`s; with `odd_floats`, also NaN and the
/// infinities) and `a`, of type `a_type` (BOOLEAN, INTEGER or TEXT,
/// `NULL` every fifth row).  With `keyed`, `item_id` is the table's key column, so a
/// pinned id reads through the key index.
fn filter_table(a_type: DataType, keyed: bool, odd_floats: bool) -> Catalog {
    let schema = Schema::new(vec![
        Column::new("item_id", DataType::Integer),
        Column::new("a", a_type),
        Column::new("score", DataType::Float),
    ])
    .unwrap();
    let mut table = Table::new("t", schema);
    for i in 0..64i64 {
        let item_id = match i {
            7 | 23 => Value::Null,
            60 => Value::Integer(i64::MIN),
            61 => Value::Integer(i64::MAX),
            62 => Value::Integer(i64::MIN + 1),
            63 => Value::Integer(i64::MAX - 1),
            _ => Value::Integer(i - 20),
        };
        let a = match (a_type, i % 5) {
            (_, 0) => Value::Null,
            (DataType::Boolean, r) => Value::Boolean(r % 2 == 1),
            (DataType::Integer, r) => Value::Integer([0, 1, 42, -7][r as usize - 1]),
            (_, 1) => Value::from("x"),
            (_, 2) => Value::from("it's"),
            (_, 3) => Value::from(""),
            _ => Value::Text(format!("t{i}")),
        };
        let score = match (i % 8, odd_floats) {
            (0, _) => Value::Null,
            (1, _) => Value::Float(i as f64 * 0.5 - 10.0),
            (2, _) => Value::Float(2.5),
            (3, _) => Value::Integer(i - 30),
            (4, true) if i == 12 || i == 36 => Value::Float(f64::NAN),
            (4, true) if i == 44 => Value::Float(f64::NEG_INFINITY),
            (4, _) => Value::Float(9.3e18),
            (5, _) => Value::Float(-0.0),
            (6, true) if i == 54 => Value::Float(f64::INFINITY),
            (6, _) => Value::Float(1.0),
            _ => Value::Float(i as f64 / 3.0),
        };
        table.insert_row(vec![item_id, a, score]).unwrap();
    }
    if keyed {
        table.index_key("item_id").unwrap();
    }
    let mut catalog = Catalog::new();
    catalog.create_table(table).unwrap();
    catalog
}

/// The tables every filter runs over: `a` BOOLEAN and `a` INTEGER, each
/// with a key index on `item_id`, and `a` TEXT, unindexed, with NaN and
/// the infinities.
fn filter_tables() -> [(&'static str, Catalog); 3] {
    [
        ("boolean", filter_table(DataType::Boolean, true, false)),
        ("integer", filter_table(DataType::Integer, true, false)),
        ("text", filter_table(DataType::Text, false, true)),
    ]
}

/// FNV-1a over what `execute_read` answers for every statement that
/// parses, on every table of [`filter_tables`] (the result rows, or the
/// error message), with how many statements ran and how many of those
/// runs failed.
fn filter_digest(statements: &[&str]) -> (usize, usize, String) {
    let tables = filter_tables();
    let (mut ran, mut failed) = (0, 0);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for sql in statements {
        let Ok(statement) = parse(sql) else { continue };
        ran += 1;
        for (name, catalog) in &tables {
            let answer = match execute_read(&statement, catalog) {
                Ok(result) => format!("{:?}", result.rows),
                Err(err) => {
                    failed += 1;
                    format!("error {err}")
                }
            };
            let line = format!("{sql:?} on {name} => {answer}\n");
            for byte in line.bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    (ran, failed, format!("{hash:016x}"))
}

#[test]
fn generated_where_clauses_filter_as_pinned() {
    let clauses = generated_where_clauses();
    let clauses: Vec<&str> = clauses.iter().map(String::as_str).collect();
    assert_eq!(
        filter_digest(&clauses),
        (3082, 7739, "f81054c0f498a0e9".to_string())
    );
}

/// Hand-written `WHERE` shapes: a literal on the left, `NULL` literals,
/// `NOT` over `AND`, errors in one conjunct or in some rows only, which
/// error wins, and the `i64` edges.
const FILTERS: &[&str] = &[
    "1 < item_id",
    "42 >= score",
    "-3 > item_id",
    "2.5 = score",
    "TRUE = a",
    "'x' <> a",
    "NULL = a",
    "item_id = NULL",
    "score <> NULL",
    "a = NULL",
    "NULL < item_id",
    "NOT (a AND item_id > 0)",
    "NOT (item_id > 0 AND score < 3)",
    "NOT (score > 1 OR a IS NULL)",
    // A type error only in the second conjunct.
    "item_id > 0 AND a < 1",
    "item_id = 5 AND a < 1",
    "item_id > 0 AND score < 'x'",
    // Errors in two rows only, one conjunct each: the first failing row
    // is reported, then the left-most failing conjunct within it.
    "1 / (item_id - 5) > 0 AND item_id - 9 + 9223372036854775807 > 0",
    "item_id - 9 + 9223372036854775807 > 0 AND 1 / (item_id - 5) > 0",
    "1 / (item_id - 25) > 0 AND item_id + 9223372036854775783 > 0",
    "item_id + 9223372036854775783 > 0 AND 1 / (item_id - 25) > 0",
    "score > 'x' AND a < 1",
    "a < 1 AND score > 'x'",
    // Errors in two rows of a table only: two NaN scores, two ids next
    // to `i64::MAX`.
    "score < 1 AND a IS NOT NULL",
    "a IS NOT NULL AND score < 1",
    "item_id + 2 > 0 AND score IS NOT NULL",
    "score IS NOT NULL AND item_id + 2 > 0",
    // Non-boolean predicates, alone and under a logical operator.
    "score",
    "item_id",
    "a",
    "score AND a",
    "item_id > 0 AND score",
    "NOT score",
    // The `i64` edges.
    "item_id = 9223372036854775807",
    "item_id = -9223372036854775808",
    "item_id >= -9223372036854775808",
    "item_id < -9223372036854775807",
    "item_id > 9223372036854775806",
    "item_id <= -9223372036854775807 OR item_id >= 9223372036854775806",
    "-item_id > 0",
    "item_id - 1 < 0",
    "item_id + 1 > 0",
    "score > 9223372036854775807",
    "item_id = 9223372036854775807.0",
    // Mixed numeric types and the remote range.
    "item_id = 1.0",
    "item_id >= 1.5 AND item_id < 4",
    "score >= 0 AND score < 3",
    "item_id >= 5 AND item_id < 25",
    "score = 2.5 AND a = true",
    "a < 'it''s' AND item_id > 0",
    "score > 0 ORDER BY item_id DESC LIMIT 5",
    "score IS NOT NULL AND item_id IS NULL",
];

#[test]
fn hand_written_filters_evaluate_as_pinned() {
    let selects: Vec<String> = FILTERS
        .iter()
        .map(|filter| format!("SELECT * FROM t WHERE {filter}"))
        .collect();
    let selects: Vec<&str> = selects.iter().map(String::as_str).collect();
    assert_eq!(
        filter_digest(&selects),
        (FILTERS.len(), 68, "b75ab99a9812ad28".to_string())
    );

    // The same filters through DELETE, which finds its rows the same way.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for filter in FILTERS.iter().filter(|filter| !filter.contains("ORDER BY")) {
        let statement = parse(&format!("DELETE FROM t WHERE {filter}")).unwrap();
        for (name, mut catalog) in filter_tables() {
            let answer = match execute(&statement, &mut catalog) {
                Ok(result) => {
                    let left = catalog.table("t").unwrap().rows().len();
                    format!("{} deleted, {left} left", result.rows_affected)
                }
                Err(err) => format!("error {err}"),
            };
            let line = format!("{filter:?} on {name} => {answer}\n");
            for byte in line.bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    assert_eq!(format!("{hash:016x}"), "3538b8adf470e8b3");
}
