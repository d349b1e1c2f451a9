//! Recursive-descent parser for the SQL subset.
//!
//! The parser pulls tokens from the [`Lexer`] one at a time, with one
//! token of lookahead, and takes each by value: it allocates only the
//! strings and nodes the [`Statement`] keeps.
//!
//! Expressions are parsed by precedence climbing (Pratt, "Top Down
//! Operator Precedence", 1973): one loop reads an operand and then extends
//! it with each infix operator whose binding power is high enough.  The
//! binding-power table [`infix`] orders the operators, loosest first:
//! `OR` < `AND` < prefix `NOT` < comparisons and `IS [NOT] NULL` <
//! `+ -` < `* /`.  A binary operator parses its right operand one power
//! higher, so equal powers associate to the left; a comparison closes its
//! operand, so comparisons do not chain.

use super::lexer::{Keyword, Lexer, Token};
use super::{
    ExpansionClause, ExpansionClauseMode, OrderBy, Projection, SelectStatement, Statement,
};
use crate::error::RelationalError;
use crate::expr::{BinaryOperator, Expr, UnaryOperator};
use crate::schema::{fold_name, Column};
use crate::value::{DataType, Value};
use crate::Result;

/// How deeply expressions may nest — parentheses, `NOT`s and unary
/// minuses together.  The parser recurses once per level, and SQL from
/// remote clients must not be able to exhaust its stack.
const MAX_NESTING: usize = 128;

/// Parses one SQL statement.
pub fn parse(input: &str) -> Result<Statement> {
    let mut parser = Parser {
        lexer: Lexer::new(input),
        peeked: None,
        lex_error: None,
        nesting: 0,
    };
    let parsed = parser.statement_to_end();
    // A lexical error anywhere in the input outranks a grammar error
    // before it: the input is a token stream only if all of it lexes.
    parser.finish_lexing()?;
    parsed
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The lookahead token, once read.
    peeked: Option<Token<'a>>,
    /// The lexer's error, once it failed; the token stream ends there.
    lex_error: Option<RelationalError>,
    /// Expression nesting depth at the current position.
    nesting: usize,
}

impl<'a> Parser<'a> {
    /// One statement, an optional `;`, and nothing else.
    fn statement_to_end(&mut self) -> Result<Statement> {
        let stmt = self.statement()?;
        self.consume_if(&Token::Semicolon);
        if !self.at_end() {
            return Err(RelationalError::Parse(format!(
                "unexpected trailing input near {:?}",
                self.peek()
            )));
        }
        Ok(stmt)
    }

    /// The lexer's first error, reading past wherever parsing stopped.
    fn finish_lexing(&mut self) -> Result<()> {
        if let Some(error) = self.lex_error.take() {
            return Err(error);
        }
        while self.lexer.next_token()?.is_some() {}
        Ok(())
    }

    fn at_end(&mut self) -> bool {
        self.peek().is_none()
    }

    fn peek(&mut self) -> Option<&Token<'a>> {
        if self.peeked.is_none() && self.lex_error.is_none() {
            match self.lexer.next_token() {
                Ok(token) => self.peeked = token,
                Err(error) => self.lex_error = Some(error),
            }
        }
        self.peeked.as_ref()
    }

    fn advance(&mut self) -> Option<Token<'a>> {
        self.peek();
        self.peeked.take()
    }

    fn consume_if(&mut self, token: &Token<'_>) -> bool {
        if self.peek() == Some(token) {
            self.peeked = None;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &Token<'_>) -> Result<()> {
        if self.consume_if(token) {
            Ok(())
        } else {
            Err(RelationalError::Parse(format!(
                "expected {token:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn keyword(&mut self, kw: Keyword) -> Result<()> {
        match self.advance() {
            Some(Token::Keyword(k)) if k == kw => Ok(()),
            other => Err(RelationalError::Parse(format!(
                "expected {kw}, found {other:?}"
            ))),
        }
    }

    fn consume_keyword_if(&mut self, kw: Keyword) -> bool {
        self.consume_if(&Token::Keyword(kw))
    }

    fn identifier(&mut self) -> Result<String> {
        match self.advance() {
            Some(Token::Identifier(name)) => Ok(fold_name(name).into_owned()),
            other => Err(RelationalError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    /// The contextual keyword `EXPANSION` after `before`: it lexes as a
    /// plain identifier, so schemas may still use it as a name.
    fn contextual_expansion(&mut self, before: Keyword) -> Result<()> {
        match self.advance() {
            Some(Token::Identifier(word)) if fold_name(word) == "expansion" => Ok(()),
            other => Err(RelationalError::Parse(format!(
                "expected EXPANSION after {before}, found {other:?}"
            ))),
        }
    }

    /// Runs `f` one expression level deeper.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.nesting == MAX_NESTING {
            return Err(RelationalError::Parse(format!(
                "expression nested more than {MAX_NESTING} levels deep"
            )));
        }
        self.nesting += 1;
        let result = f(self);
        self.nesting -= 1;
        result
    }

    fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            Some(Token::Keyword(Keyword::Select)) => self.select(),
            Some(Token::Keyword(Keyword::Explain)) => self.explain_expansion(),
            Some(Token::Keyword(Keyword::Insert)) => self.insert(),
            Some(Token::Keyword(Keyword::Create)) => self.create_table(),
            Some(Token::Keyword(Keyword::Alter)) => self.alter_table(),
            Some(Token::Keyword(Keyword::Update)) => self.update(),
            Some(Token::Keyword(Keyword::Delete)) => self.delete(),
            other => Err(RelationalError::Parse(format!(
                "expected SELECT, EXPLAIN, INSERT, UPDATE, DELETE, CREATE, or ALTER, found {other:?}"
            ))),
        }
    }

    /// `EXPLAIN EXPANSION <select>` — like `WITH`, `EXPANSION` stays a
    /// contextual identifier so schemas using the name keep working.
    fn explain_expansion(&mut self) -> Result<Statement> {
        self.keyword(Keyword::Explain)?;
        self.contextual_expansion(Keyword::Explain)?;
        match self.select()? {
            Statement::Select(select) => Ok(Statement::ExplainExpansion(select)),
            other => unreachable!("select() only returns SELECT, got {other:?}"),
        }
    }

    fn update(&mut self) -> Result<Statement> {
        self.keyword(Keyword::Update)?;
        let table = self.identifier()?;
        self.keyword(Keyword::Set)?;
        let mut assignments = Vec::new();
        loop {
            let column = self.identifier()?;
            self.expect(&Token::Eq)?;
            let value = self.expression_bp(0)?;
            assignments.push((column, value));
            if !self.consume_if(&Token::Comma) {
                break;
            }
        }
        let filter = self.where_clause()?;
        Ok(Statement::Update {
            table,
            assignments,
            filter,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.keyword(Keyword::Delete)?;
        self.keyword(Keyword::From)?;
        let table = self.identifier()?;
        let filter = self.where_clause()?;
        Ok(Statement::Delete { table, filter })
    }

    /// An optional `WHERE <expression>`.
    fn where_clause(&mut self) -> Result<Option<Expr>> {
        if self.consume_keyword_if(Keyword::Where) {
            Ok(Some(self.expression_bp(0)?))
        } else {
            Ok(None)
        }
    }

    fn select(&mut self) -> Result<Statement> {
        self.keyword(Keyword::Select)?;
        let projection = if self.consume_if(&Token::Star) {
            Projection::All
        } else {
            Projection::Columns(self.identifier_list()?)
        };
        self.keyword(Keyword::From)?;
        let table = self.identifier()?;
        let filter = self.where_clause()?;
        let order_by = if self.consume_keyword_if(Keyword::Order) {
            self.keyword(Keyword::By)?;
            let column = self.identifier()?;
            let ascending = if self.consume_keyword_if(Keyword::Desc) {
                false
            } else {
                self.consume_keyword_if(Keyword::Asc);
                true
            };
            Some(OrderBy { column, ascending })
        } else {
            None
        };
        let limit = if self.consume_keyword_if(Keyword::Limit) {
            match self.advance() {
                Some(Token::Number(n)) => Some(
                    n.parse::<usize>()
                        .map_err(|_| RelationalError::Parse(format!("invalid LIMIT value: {n}")))?,
                ),
                other => {
                    return Err(RelationalError::Parse(format!(
                        "expected a number after LIMIT, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        let expansion = if self.consume_keyword_if(Keyword::With) {
            self.contextual_expansion(Keyword::With)?;
            Some(self.expansion_clause()?)
        } else {
            None
        };
        Ok(Statement::Select(SelectStatement {
            projection,
            table,
            filter,
            order_by,
            limit,
            expansion,
        }))
    }

    /// One or more comma-separated identifiers.
    fn identifier_list(&mut self) -> Result<Vec<String>> {
        let mut names = vec![self.identifier()?];
        while self.consume_if(&Token::Comma) {
            names.push(self.identifier()?);
        }
        Ok(names)
    }

    /// The parenthesized setting list of a `WITH EXPANSION (…)` clause.
    fn expansion_clause(&mut self) -> Result<ExpansionClause> {
        self.expect(&Token::LeftParen)?;
        let mut clause = ExpansionClause::default();
        // An empty setting list is a valid no-op clause — it is what an
        // `ExpansionClause::default()` renders to, and parse(render(c))
        // must round-trip for every clause value.
        if self.consume_if(&Token::RightParen) {
            return Ok(clause);
        }
        loop {
            let key = match self.advance() {
                Some(Token::Identifier(key)) => fold_name(key),
                other => {
                    return Err(RelationalError::Parse(format!(
                        "expected a WITH EXPANSION key (budget, mode, or quality), found {other:?}"
                    )))
                }
            };
            match key.as_ref() {
                "budget" => {
                    if clause.budget.is_some() {
                        return Err(RelationalError::Parse(
                            "duplicate budget in WITH EXPANSION".into(),
                        ));
                    }
                    self.expect(&Token::Eq)?;
                    clause.budget = Some(self.non_negative_number("budget")?);
                }
                "mode" => {
                    self.expect(&Token::Eq)?;
                    let name = match self.advance() {
                        Some(Token::Identifier(name)) => fold_name(name),
                        other => {
                            return Err(RelationalError::Parse(format!(
                                "expected an expansion mode after 'mode =', found {other:?}"
                            )))
                        }
                    };
                    // One shared mode table: the parser accepts exactly the
                    // spellings `ExpansionClauseMode::from_str` does, so SQL
                    // and the programmatic `FromStr` surface cannot drift.
                    let mode: ExpansionClauseMode = name.parse()?;
                    match clause.mode {
                        Some(previous) if previous != mode => {
                            return Err(RelationalError::Parse(format!(
                                "conflicting expansion modes '{}' and '{}'",
                                previous.as_str(),
                                mode.as_str()
                            )))
                        }
                        Some(_) => {
                            return Err(RelationalError::Parse(
                                "duplicate mode in WITH EXPANSION".into(),
                            ))
                        }
                        None => clause.mode = Some(mode),
                    }
                }
                "quality" => {
                    if clause.quality_floor.is_some() {
                        return Err(RelationalError::Parse(
                            "duplicate quality in WITH EXPANSION".into(),
                        ));
                    }
                    // `quality >= 0.8` reads like the predicate it enforces;
                    // `quality = 0.8` is accepted as a synonym.
                    if !self.consume_if(&Token::GtEq) && !self.consume_if(&Token::Eq) {
                        return Err(RelationalError::Parse(format!(
                            "expected '>=' or '=' after quality, found {:?}",
                            self.peek()
                        )));
                    }
                    let floor = self.non_negative_number("quality")?;
                    if floor > 1.0 {
                        return Err(RelationalError::Parse(format!(
                            "quality floor must lie in [0, 1], got {floor}"
                        )));
                    }
                    clause.quality_floor = Some(floor);
                }
                other => {
                    return Err(RelationalError::Parse(format!(
                        "unknown WITH EXPANSION key '{other}' \
                         (expected budget, mode, or quality)"
                    )))
                }
            }
            if !self.consume_if(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RightParen)?;
        Ok(clause)
    }

    /// A non-negative numeric literal; negative values are rejected with a
    /// message naming the offending setting.
    fn non_negative_number(&mut self, setting: &str) -> Result<f64> {
        match self.advance() {
            Some(Token::Number(n)) => n
                .parse::<f64>()
                .map_err(|_| RelationalError::Parse(format!("invalid number: {n}"))),
            Some(Token::Minus) => Err(RelationalError::Parse(format!(
                "{setting} must be non-negative"
            ))),
            other => Err(RelationalError::Parse(format!(
                "expected a number for {setting}, found {other:?}"
            ))),
        }
    }

    fn insert(&mut self) -> Result<Statement> {
        self.keyword(Keyword::Insert)?;
        self.keyword(Keyword::Into)?;
        let table = self.identifier()?;
        self.expect(&Token::LeftParen)?;
        let columns = self.identifier_list()?;
        self.expect(&Token::RightParen)?;
        self.keyword(Keyword::Values)?;
        let mut rows = Vec::new();
        loop {
            self.expect(&Token::LeftParen)?;
            let mut row = vec![self.literal_value()?];
            while self.consume_if(&Token::Comma) {
                row.push(self.literal_value()?);
            }
            self.expect(&Token::RightParen)?;
            if row.len() != columns.len() {
                return Err(RelationalError::Parse(format!(
                    "INSERT lists {} columns but a value tuple has {} values",
                    columns.len(),
                    row.len()
                )));
            }
            rows.push(row);
            if !self.consume_if(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn create_table(&mut self) -> Result<Statement> {
        self.keyword(Keyword::Create)?;
        self.keyword(Keyword::Table)?;
        let table = self.identifier()?;
        self.expect(&Token::LeftParen)?;
        let mut columns = vec![self.column_definition()?];
        while self.consume_if(&Token::Comma) {
            columns.push(self.column_definition()?);
        }
        self.expect(&Token::RightParen)?;
        Ok(Statement::CreateTable { table, columns })
    }

    fn alter_table(&mut self) -> Result<Statement> {
        self.keyword(Keyword::Alter)?;
        self.keyword(Keyword::Table)?;
        let table = self.identifier()?;
        self.keyword(Keyword::Add)?;
        self.keyword(Keyword::Column)?;
        let column = self.column_definition()?;
        Ok(Statement::AlterTableAddColumn { table, column })
    }

    fn column_definition(&mut self) -> Result<Column> {
        let name = self.identifier()?;
        let data_type = match self.advance() {
            Some(Token::Keyword(k)) => match k {
                Keyword::Integer | Keyword::Int => DataType::Integer,
                Keyword::Float | Keyword::Real | Keyword::Double => DataType::Float,
                Keyword::Text | Keyword::Varchar | Keyword::String => DataType::Text,
                Keyword::Boolean | Keyword::Bool => DataType::Boolean,
                other => return Err(RelationalError::Parse(format!("unknown data type {other}"))),
            },
            other => {
                return Err(RelationalError::Parse(format!(
                    "expected a data type, found {other:?}"
                )))
            }
        };
        let nullable = if self.consume_keyword_if(Keyword::Not) {
            self.keyword(Keyword::Null)?;
            false
        } else {
            self.consume_keyword_if(Keyword::Null);
            true
        };
        Ok(Column {
            name,
            data_type,
            nullable,
        })
    }

    /// The value of a literal token — a number, a string, `TRUE`,
    /// `FALSE` or `NULL` — or `None`, with the token left unread, when
    /// the next token is none of those.
    fn literal(&mut self) -> Option<Result<Value>> {
        Some(match self.advance() {
            Some(Token::Number(n)) => parse_number(n),
            Some(Token::StringLiteral(s)) => Ok(Value::Text(s.into_owned())),
            Some(Token::Keyword(Keyword::True)) => Ok(Value::Boolean(true)),
            Some(Token::Keyword(Keyword::False)) => Ok(Value::Boolean(false)),
            Some(Token::Keyword(Keyword::Null)) => Ok(Value::Null),
            other => {
                self.peeked = other;
                return None;
            }
        })
    }

    fn literal_value(&mut self) -> Result<Value> {
        if let Some(value) = self.literal() {
            return value;
        }
        match self.advance() {
            Some(Token::Minus) => match self.advance() {
                Some(Token::Number(n)) if is_i64_min_magnitude(n) => Ok(Value::Integer(i64::MIN)),
                Some(Token::Number(n)) => match parse_number(n)? {
                    Value::Integer(i) => Ok(Value::Integer(-i)),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    _ => unreachable!("parse_number only returns numeric values"),
                },
                other => Err(RelationalError::Parse(format!(
                    "expected a number after '-', found {other:?}"
                ))),
            },
            other => Err(RelationalError::Parse(format!(
                "expected a literal, found {other:?}"
            ))),
        }
    }

    /// An expression whose operators bind at least as tightly as `min_bp`,
    /// with [`Self::factor`] as the operand.  `max_bp` is the tightest
    /// operator that may still extend `left`: after a comparison, `IS` or
    /// `NOT`, only looser ones may.
    fn expression_bp(&mut self, min_bp: u8) -> Result<Expr> {
        let (mut left, mut max_bp) = if min_bp <= NOT_BP && self.consume_keyword_if(Keyword::Not) {
            let inner = self.nested(|parser| parser.expression_bp(NOT_BP))?;
            let not = Expr::UnaryOp {
                op: UnaryOperator::Not,
                expr: Box::new(inner),
            };
            (not, NOT_BP - 1)
        } else {
            (self.factor()?, MULTIPLICATIVE_BP)
        };
        while let Some((op, bp)) = self.peek().and_then(infix) {
            if bp < min_bp || bp > max_bp {
                break;
            }
            self.peeked = None;
            left = match op {
                Some(op) => Expr::binary(left, op, self.expression_bp(bp + 1)?),
                None => {
                    let negated = self.consume_keyword_if(Keyword::Not);
                    self.keyword(Keyword::Null)?;
                    if negated {
                        Expr::IsNotNull(Box::new(left))
                    } else {
                        Expr::IsNull(Box::new(left))
                    }
                }
            };
            // AND, OR and arithmetic associate to the left; comparisons,
            // `IS` among them, do not associate at all.
            max_bp = if bp == COMPARISON_BP { bp - 1 } else { bp };
        }
        Ok(left)
    }

    fn factor(&mut self) -> Result<Expr> {
        if let Some(value) = self.literal() {
            return Ok(Expr::Literal(value?));
        }
        match self.advance() {
            Some(Token::Identifier(name)) => Ok(Expr::Column(fold_name(name).into_owned())),
            // `-9223372036854775808` is the one integer whose magnitude
            // no `i64` holds: it reads as the literal, not as a negation.
            Some(Token::Minus) if matches!(self.peek(), Some(Token::Number(n)) if is_i64_min_magnitude(n)) =>
            {
                self.peeked = None;
                Ok(Expr::Literal(Value::Integer(i64::MIN)))
            }
            Some(Token::Minus) => {
                let inner = self.nested(Self::factor)?;
                Ok(Expr::UnaryOp {
                    op: UnaryOperator::Negate,
                    expr: Box::new(inner),
                })
            }
            Some(Token::LeftParen) => {
                let inner = self.nested(|parser| parser.expression_bp(0))?;
                self.expect(&Token::RightParen)?;
                Ok(inner)
            }
            other => Err(RelationalError::Parse(format!(
                "expected an expression, found {other:?}"
            ))),
        }
    }
}

// Binding powers, loosest first.
const OR_BP: u8 = 1;
const AND_BP: u8 = 2;
/// Prefix `NOT`: its operand may hold comparisons but no AND or OR.
const NOT_BP: u8 = 3;
const COMPARISON_BP: u8 = 4;
const ADDITIVE_BP: u8 = 5;
const MULTIPLICATIVE_BP: u8 = 6;

/// The binding-power table: each infix token's operator and power.
/// `IS` (operator `None`) is the postfix `IS [NOT] NULL`, a comparison.
fn infix(token: &Token<'_>) -> Option<(Option<BinaryOperator>, u8)> {
    let (op, bp) = match token {
        Token::Keyword(Keyword::Or) => (BinaryOperator::Or, OR_BP),
        Token::Keyword(Keyword::And) => (BinaryOperator::And, AND_BP),
        Token::Keyword(Keyword::Is) => return Some((None, COMPARISON_BP)),
        Token::Eq => (BinaryOperator::Eq, COMPARISON_BP),
        Token::NotEq => (BinaryOperator::NotEq, COMPARISON_BP),
        Token::Lt => (BinaryOperator::Lt, COMPARISON_BP),
        Token::LtEq => (BinaryOperator::LtEq, COMPARISON_BP),
        Token::Gt => (BinaryOperator::Gt, COMPARISON_BP),
        Token::GtEq => (BinaryOperator::GtEq, COMPARISON_BP),
        Token::Plus => (BinaryOperator::Plus, ADDITIVE_BP),
        Token::Minus => (BinaryOperator::Minus, ADDITIVE_BP),
        Token::Star => (BinaryOperator::Multiply, MULTIPLICATIVE_BP),
        Token::Slash => (BinaryOperator::Divide, MULTIPLICATIVE_BP),
        _ => return None,
    };
    Some((Some(op), bp))
}

/// True when `text` is an integer literal spelling `i64::MIN`'s magnitude,
/// 2^63, which only a preceding minus makes an `i64`.
fn is_i64_min_magnitude(text: &str) -> bool {
    !text.contains('.') && text.parse::<u64>() == Ok(i64::MIN.unsigned_abs())
}

fn parse_number(text: &str) -> Result<Value> {
    if text.contains('.') {
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| RelationalError::Parse(format!("invalid number: {text}")))
    } else {
        text.parse::<i64>()
            .map(Value::Integer)
            .map_err(|_| RelationalError::Parse(format!("invalid number: {text}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select_filter(sql: &str) -> Expr {
        match parse(sql).unwrap() {
            Statement::Select(s) => s.filter.unwrap(),
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn where_expression_precedence() {
        // AND binds tighter than OR.
        let e = select_filter("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
        match e {
            Expr::BinaryOp {
                op: BinaryOperator::Or,
                right,
                ..
            } => match *right {
                Expr::BinaryOp {
                    op: BinaryOperator::And,
                    ..
                } => {}
                other => panic!("expected AND on the right of OR, got {other:?}"),
            },
            other => panic!("expected OR at the top, got {other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let e = select_filter("SELECT * FROM t WHERE a = 1 + 2 * 3");
        // Right side of '=' must be Plus(1, Multiply(2, 3)).
        match e {
            Expr::BinaryOp {
                op: BinaryOperator::Eq,
                right,
                ..
            } => match *right {
                Expr::BinaryOp {
                    op: BinaryOperator::Plus,
                    right: ref mul,
                    ..
                } => {
                    assert!(matches!(
                        **mul,
                        Expr::BinaryOp {
                            op: BinaryOperator::Multiply,
                            ..
                        }
                    ));
                }
                other => panic!("expected Plus, got {other:?}"),
            },
            other => panic!("expected Eq, got {other:?}"),
        }
    }

    #[test]
    fn parenthesized_expressions_and_not() {
        let e = select_filter("SELECT * FROM t WHERE NOT (a = 1 OR b = 2)");
        assert!(matches!(
            e,
            Expr::UnaryOp {
                op: UnaryOperator::Not,
                ..
            }
        ));
    }

    #[test]
    fn is_null_and_is_not_null() {
        let e = select_filter("SELECT * FROM t WHERE genre IS NULL");
        assert!(matches!(e, Expr::IsNull(_)));
        let e = select_filter("SELECT * FROM t WHERE genre IS NOT NULL");
        assert!(matches!(e, Expr::IsNotNull(_)));
    }

    #[test]
    fn negative_literals_in_insert_and_where() {
        match parse("INSERT INTO t (a) VALUES (-5), (2.5)").unwrap() {
            Statement::Insert { rows, .. } => {
                assert_eq!(rows[0][0], Value::Integer(-5));
                assert_eq!(rows[1][0], Value::Float(2.5));
            }
            other => panic!("expected INSERT, got {other:?}"),
        }
        let e = select_filter("SELECT * FROM t WHERE a > -3");
        match e {
            Expr::BinaryOp { right, .. } => {
                assert!(matches!(
                    *right,
                    Expr::UnaryOp {
                        op: UnaryOperator::Negate,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn i64_min_is_a_literal() {
        let min = "-9223372036854775808";
        match parse(&format!(
            "INSERT INTO t (a, b) VALUES ({min}, -0009223372036854775808)"
        ))
        .unwrap()
        {
            Statement::Insert { rows, .. } => {
                assert_eq!(
                    rows[0],
                    [Value::Integer(i64::MIN), Value::Integer(i64::MIN)]
                )
            }
            other => panic!("expected INSERT, got {other:?}"),
        }
        match select_filter(&format!("SELECT * FROM t WHERE a = {min}")) {
            Expr::BinaryOp { right, .. } => {
                assert_eq!(*right, Expr::Literal(Value::Integer(i64::MIN)))
            }
            other => panic!("unexpected {other:?}"),
        }
        // Only that literal: other negative numbers stay negations, and a
        // magnitude beyond 2^63 is still no number.
        match select_filter("SELECT * FROM t WHERE a = -9223372036854775807 - -5") {
            Expr::BinaryOp { right, .. } => match *right {
                Expr::BinaryOp { left, right, .. } => {
                    for operand in [left, right] {
                        assert!(matches!(
                            *operand,
                            Expr::UnaryOp {
                                op: UnaryOperator::Negate,
                                ..
                            }
                        ));
                    }
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        for sql in [
            "INSERT INTO t (a) VALUES (9223372036854775808)",
            "INSERT INTO t (a) VALUES (-9223372036854775809)",
            "SELECT * FROM t WHERE a = 9223372036854775808",
        ] {
            assert!(parse_error(sql).starts_with("invalid number"), "{sql}");
        }
        // `- -9223372036854775808` negates the literal, which overflows
        // when evaluated, not when parsed.
        assert!(parse("SELECT * FROM t WHERE a = - -9223372036854775808").is_ok());
    }

    #[test]
    fn insert_arity_mismatch_is_rejected() {
        assert!(parse("INSERT INTO t (a, b) VALUES (1)").is_err());
    }

    #[test]
    fn trailing_semicolon_is_accepted() {
        assert!(parse("SELECT * FROM t;").is_ok());
        assert!(parse("SELECT * FROM t; SELECT * FROM u").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!(
                "SELECT * FROM t WHERE {}a = 1{}",
                open.repeat(depth),
                close.repeat(depth)
            )
        };
        for (open, close) in [("(", ")"), ("NOT ", ""), ("NOT (", ")")] {
            let depth = MAX_NESTING / open.matches(['(', 'N']).count();
            assert!(parse(&nested(open, close, depth)).is_ok(), "{open}");
            let msg = parse_error(&nested(open, close, depth + 1));
            assert!(msg.contains("nested more than 128 levels"), "{msg}");
            let msg = parse_error(&nested(open, close, 100_000));
            assert!(msg.contains("nested more than 128 levels"), "{msg}");
        }
        let minuses = format!("SELECT * FROM t WHERE a = {}1", "- ".repeat(100_000));
        assert!(parse_error(&minuses).contains("nested more than 128 levels"));
        // A lexical error still outranks the nesting error before it.
        let msg = parse_error(&(nested("(", ")", 1_000) + " #"));
        assert_eq!(msg, "unexpected character '#'");
    }

    fn select_expansion(sql: &str) -> ExpansionClause {
        match parse(sql).unwrap() {
            Statement::Select(s) => s.expansion.unwrap(),
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    fn parse_error(sql: &str) -> String {
        match parse(sql).unwrap_err() {
            RelationalError::Parse(msg) => msg,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn with_expansion_clause_parses_all_settings() {
        let clause = select_expansion(
            "SELECT name FROM movies WHERE is_comedy = true \
             WITH EXPANSION (budget = 12.5, mode = best_effort, quality >= 0.8)",
        );
        assert_eq!(clause.budget, Some(12.5));
        assert_eq!(clause.mode, Some(ExpansionClauseMode::BestEffort));
        assert_eq!(clause.quality_floor, Some(0.8));
        // Settings are optional and order-free; `quality =` is a synonym.
        let clause = select_expansion(
            "SELECT * FROM t ORDER BY x LIMIT 3 WITH EXPANSION (quality = 0.9, mode = deny)",
        );
        assert_eq!(clause.budget, None);
        assert_eq!(clause.mode, Some(ExpansionClauseMode::Deny));
        assert_eq!(clause.quality_floor, Some(0.9));
        for (name, mode) in [
            ("deny", ExpansionClauseMode::Deny),
            ("cache_only", ExpansionClauseMode::CacheOnly),
            ("best_effort", ExpansionClauseMode::BestEffort),
            ("full", ExpansionClauseMode::Full),
        ] {
            let clause =
                select_expansion(&format!("SELECT * FROM t WITH EXPANSION (mode = {name})"));
            assert_eq!(clause.mode, Some(mode));
        }
    }

    #[test]
    fn with_expansion_clause_round_trips_through_display() {
        for sql in [
            "SELECT * FROM t WITH EXPANSION (budget = 12.5, mode = best_effort, quality >= 0.8)",
            "SELECT * FROM t WITH EXPANSION (mode = cache_only)",
            "SELECT * FROM t WITH EXPANSION (budget = 0.4)",
            "SELECT * FROM t WITH EXPANSION (quality >= 1)",
            "SELECT * FROM t WITH EXPANSION ()",
        ] {
            let clause = select_expansion(sql);
            let rendered = format!("SELECT * FROM t {clause}");
            assert_eq!(
                select_expansion(&rendered),
                clause,
                "clause of {sql:?} did not survive the {rendered:?} round-trip"
            );
        }
    }

    #[test]
    fn with_expansion_rejects_unknown_keys_and_modes() {
        let msg = parse_error("SELECT * FROM t WITH EXPANSION (price = 3)");
        assert!(msg.contains("unknown WITH EXPANSION key 'price'"), "{msg}");
        assert!(msg.contains("budget, mode, or quality"), "{msg}");
        let msg = parse_error("SELECT * FROM t WITH EXPANSION (mode = cheap)");
        assert!(msg.contains("unknown expansion mode 'cheap'"), "{msg}");
        assert!(msg.contains("best_effort"), "{msg}");
    }

    #[test]
    fn with_expansion_rejects_negative_and_out_of_range_values() {
        let msg = parse_error("SELECT * FROM t WITH EXPANSION (budget = -5)");
        assert!(msg.contains("budget must be non-negative"), "{msg}");
        let msg = parse_error("SELECT * FROM t WITH EXPANSION (quality >= -0.1)");
        assert!(msg.contains("quality must be non-negative"), "{msg}");
        let msg = parse_error("SELECT * FROM t WITH EXPANSION (quality >= 1.5)");
        assert!(msg.contains("quality floor must lie in [0, 1]"), "{msg}");
    }

    #[test]
    fn with_expansion_rejects_conflicting_and_duplicate_settings() {
        let msg = parse_error("SELECT * FROM t WITH EXPANSION (mode = deny, mode = best_effort)");
        assert!(
            msg.contains("conflicting expansion modes 'deny' and 'best_effort'"),
            "{msg}"
        );
        let msg = parse_error("SELECT * FROM t WITH EXPANSION (mode = full, mode = full)");
        assert!(msg.contains("duplicate mode"), "{msg}");
        let msg = parse_error("SELECT * FROM t WITH EXPANSION (budget = 1, budget = 2)");
        assert!(msg.contains("duplicate budget"), "{msg}");
        let msg = parse_error("SELECT * FROM t WITH EXPANSION (quality >= 0.5, quality >= 0.6)");
        assert!(msg.contains("duplicate quality"), "{msg}");
    }

    #[test]
    fn explain_expansion_wraps_a_full_select() {
        let stmt = parse(
            "EXPLAIN EXPANSION SELECT name FROM movies WHERE is_comedy = true \
             ORDER BY year DESC LIMIT 5 WITH EXPANSION (budget = 2.5)",
        )
        .unwrap();
        match stmt {
            Statement::ExplainExpansion(select) => {
                assert_eq!(select.table, "movies");
                assert!(select.filter.is_some());
                assert_eq!(select.limit, Some(5));
                assert_eq!(select.expansion.unwrap().budget, Some(2.5));
            }
            other => panic!("expected EXPLAIN EXPANSION, got {other:?}"),
        }
        // The wrapper is read-only, targets the inner table, and references
        // exactly what the wrapped SELECT would.
        let stmt = parse("EXPLAIN EXPANSION SELECT a FROM t WHERE b = 1 ORDER BY c").unwrap();
        assert!(stmt.is_read_only());
        assert_eq!(stmt.target_table(), Some("t"));
        assert_eq!(stmt.referenced_columns(), vec!["a", "b", "c"]);
    }

    #[test]
    fn explain_expansion_rejects_malformed_forms() {
        let msg = parse_error("EXPLAIN SELECT * FROM t");
        assert!(msg.contains("expected EXPANSION after EXPLAIN"), "{msg}");
        assert!(parse("EXPLAIN EXPANSION").is_err());
        assert!(parse("EXPLAIN EXPANSION INSERT INTO t (a) VALUES (1)").is_err());
        assert!(parse("EXPLAIN EXPANSION DELETE FROM t").is_err());
        // EXPLAIN is a reserved keyword; EXPANSION stays contextual.
        assert!(parse("SELECT expansion FROM t").is_ok());
        assert!(parse("SELECT explain FROM t").is_err());
    }

    #[test]
    fn expansion_clause_mode_from_str_matches_the_parser() {
        // The FromStr table and the `mode =` table are the same code path.
        for mode in ExpansionClauseMode::ALL {
            assert_eq!(mode.as_str().parse::<ExpansionClauseMode>().unwrap(), mode);
            assert_eq!(mode.to_string(), mode.as_str());
            let clause =
                select_expansion(&format!("SELECT * FROM t WITH EXPANSION (mode = {mode})"));
            assert_eq!(clause.mode, Some(mode));
        }
        assert!("cheap".parse::<ExpansionClauseMode>().is_err());
        // Case-insensitive, like everything else in the SQL surface.
        assert_eq!(
            "BEST_EFFORT".parse::<ExpansionClauseMode>().unwrap(),
            ExpansionClauseMode::BestEffort
        );
    }

    #[test]
    fn with_expansion_empty_clause_is_a_valid_no_op() {
        let clause = select_expansion("SELECT * FROM t WITH EXPANSION ()");
        assert!(clause.is_empty());
        assert_eq!(clause, ExpansionClause::default());
    }

    #[test]
    fn expansion_stays_usable_as_an_ordinary_identifier() {
        // `expansion` is a contextual keyword (only after WITH): schemas
        // that already use the name keep working.
        match parse("SELECT expansion FROM t WHERE expansion > 1").unwrap() {
            Statement::Select(s) => {
                assert_eq!(s.projection, Projection::Columns(vec!["expansion".into()]));
                assert!(s.filter.is_some());
            }
            other => panic!("expected SELECT, got {other:?}"),
        }
        match parse("CREATE TABLE expansion (expansion INTEGER)").unwrap() {
            Statement::CreateTable { table, columns } => {
                assert_eq!(table, "expansion");
                assert_eq!(columns[0].name, "expansion");
            }
            other => panic!("expected CREATE TABLE, got {other:?}"),
        }
        // But after WITH it introduces the clause, and nothing else does.
        let msg = parse_error("SELECT * FROM t WITH budget (x = 1)");
        assert!(msg.contains("expected EXPANSION after WITH"), "{msg}");
    }

    #[test]
    fn with_expansion_malformed_clauses_are_rejected() {
        assert!(parse("SELECT * FROM t WITH EXPANSION").is_err());
        assert!(parse("SELECT * FROM t WITH EXPANSION (budget)").is_err());
        assert!(parse("SELECT * FROM t WITH EXPANSION (budget = )").is_err());
        assert!(parse("SELECT * FROM t WITH EXPANSION (mode = best_effort").is_err());
        assert!(parse("SELECT * FROM t WITH (budget = 1)").is_err());
        // The clause is a suffix: nothing may follow it.
        assert!(parse("SELECT * FROM t WITH EXPANSION (budget = 1) LIMIT 2").is_err());
    }

    #[test]
    fn boolean_and_null_literals() {
        match parse("INSERT INTO t (a, b, c) VALUES (true, false, NULL)").unwrap() {
            Statement::Insert { rows, .. } => {
                assert_eq!(
                    rows[0],
                    vec![Value::Boolean(true), Value::Boolean(false), Value::Null]
                );
            }
            other => panic!("expected INSERT, got {other:?}"),
        }
    }

    #[test]
    fn type_synonyms() {
        match parse("CREATE TABLE t (a INT, b DOUBLE, c VARCHAR, d BOOL)").unwrap() {
            Statement::CreateTable { columns, .. } => {
                assert_eq!(columns[0].data_type, DataType::Integer);
                assert_eq!(columns[1].data_type, DataType::Float);
                assert_eq!(columns[2].data_type, DataType::Text);
                assert_eq!(columns[3].data_type, DataType::Boolean);
            }
            other => panic!("expected CREATE TABLE, got {other:?}"),
        }
    }
}
