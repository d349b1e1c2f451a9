//! Expressions and their evaluation.
//!
//! The evaluator implements SQL three-valued logic: comparisons against
//! `NULL` yield `NULL` (represented as [`Value::Null`]), `AND`/`OR` follow
//! the Kleene truth tables, and a `WHERE` predicate only accepts rows whose
//! predicate evaluates to *true* (not to `NULL`).

use std::borrow::Cow;
use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

use crate::error::RelationalError;
use crate::schema::{fold_name, Column, Schema};
use crate::value::Value;
use crate::Result;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinaryOperator {
    /// `=`
    Eq,
    /// `<>` / `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Multiply,
    /// `/`
    Divide,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnaryOperator {
    /// `NOT`
    Not,
    /// `-`
    Negate,
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A column reference.
    Column(String),
    /// A literal value.
    Literal(Value),
    /// A binary operation.
    BinaryOp {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOperator,
        /// Right operand.
        right: Box<Expr>,
    },
    /// A unary operation.
    UnaryOp {
        /// Operator.
        op: UnaryOperator,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `expr IS NULL`
    IsNull(Box<Expr>),
    /// `expr IS NOT NULL`
    IsNotNull(Box<Expr>),
}

impl Expr {
    /// Convenience constructor for a column reference.
    pub fn column(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    /// Convenience constructor for a literal.
    pub fn literal(value: impl Into<Value>) -> Expr {
        Expr::Literal(value.into())
    }

    /// Convenience constructor for a binary operation.
    pub fn binary(left: Expr, op: BinaryOperator, right: Expr) -> Expr {
        Expr::BinaryOp {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// All column names referenced by the expression (lower-cased, in
    /// first-appearance order, without duplicates).  The crowd layer uses
    /// this to detect predicates over attributes that are not part of the
    /// schema yet.  Names already lower-case, as the parser leaves them,
    /// are borrowed.
    pub fn referenced_columns(&self) -> Vec<Cow<'_, str>> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    /// Appends the referenced columns not in `out` yet to it.
    pub(crate) fn collect_columns<'e>(&'e self, out: &mut Vec<Cow<'e, str>>) {
        match self {
            Expr::Column(name) => push_folded(out, name),
            Expr::Literal(_) => {}
            Expr::BinaryOp { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::UnaryOp { expr, .. } => expr.collect_columns(out),
            Expr::IsNull(expr) | Expr::IsNotNull(expr) => expr.collect_columns(out),
        }
    }

    /// The integer `v` when this predicate can only hold for rows whose
    /// `column` equals `v`: some top-level `AND` term is `c = v` or
    /// `v = c`, with `c` naming the column and `v` an integer literal,
    /// negated or not (the parser reads `-3` in an expression as `-(3)`).
    /// Any other literal type or predicate shape yields `None`.
    pub fn pinned_integer(&self, column: &Column) -> Option<i64> {
        match self {
            Expr::BinaryOp {
                left,
                op: BinaryOperator::And,
                right,
            } => left
                .pinned_integer(column)
                .or_else(|| right.pinned_integer(column)),
            Expr::BinaryOp {
                left,
                op: BinaryOperator::Eq,
                right,
            } => match (left.as_ref(), right.as_ref()) {
                (Expr::Column(name), value) | (value, Expr::Column(name))
                    if column.is_named(name) =>
                {
                    value.integer_literal()
                }
                _ => None,
            },
            _ => None,
        }
    }

    /// The value of an integer literal or of a negated one.
    fn integer_literal(&self) -> Option<i64> {
        match self {
            Expr::Literal(Value::Integer(v)) => Some(*v),
            Expr::UnaryOp {
                op: UnaryOperator::Negate,
                expr,
            } => match expr.as_ref() {
                Expr::Literal(Value::Integer(v)) => v.checked_neg(),
                _ => None,
            },
            _ => None,
        }
    }

    /// Resolves every column reference to its position in a row, so the
    /// result evaluates without name lookups.  `resolve` maps a column
    /// name to `Some(index)`, to `None` for a column that reads as `NULL`
    /// (snapshot semantics), or to an error; references resolve in
    /// first-appearance order, left operand first.  A comparison of a
    /// column with a literal binds to [`BoundExpr::Compare`], and a
    /// negated numeric literal to its value.
    pub(crate) fn bind<F>(&self, resolve: &mut F) -> Result<BoundExpr>
    where
        F: FnMut(&str) -> Result<Option<usize>>,
    {
        Ok(match self {
            Expr::Column(name) => match resolve(name)? {
                Some(index) => BoundExpr::Column(index),
                None => BoundExpr::Literal(Value::Null),
            },
            Expr::Literal(v) => BoundExpr::Literal(v.clone()),
            Expr::BinaryOp { left, op, right } => {
                let left = left.bind(resolve)?;
                let right = right.bind(resolve)?;
                match (left, right) {
                    (BoundExpr::Column(column), BoundExpr::Literal(literal))
                        if op.is_comparison() =>
                    {
                        BoundExpr::Compare {
                            column,
                            op: *op,
                            literal,
                            flipped: false,
                        }
                    }
                    (BoundExpr::Literal(literal), BoundExpr::Column(column))
                        if op.is_comparison() =>
                    {
                        BoundExpr::Compare {
                            column,
                            op: op.flipped(),
                            literal,
                            flipped: true,
                        }
                    }
                    (left, right) => BoundExpr::BinaryOp {
                        left: Box::new(left),
                        op: *op,
                        right: Box::new(right),
                    },
                }
            }
            Expr::UnaryOp { op, expr } => match (op, expr.bind(resolve)?) {
                // A negated literal that negates without error is a
                // constant; `-'x'` and `-i64::MIN` fail on each row.
                (UnaryOperator::Negate, BoundExpr::Literal(v)) if negate(&v).is_ok() => {
                    BoundExpr::Literal(negate(&v)?)
                }
                (op, expr) => BoundExpr::UnaryOp {
                    op: *op,
                    expr: Box::new(expr),
                },
            },
            Expr::IsNull(expr) => BoundExpr::IsNull(Box::new(expr.bind(resolve)?)),
            Expr::IsNotNull(expr) => BoundExpr::IsNotNull(Box::new(expr.bind(resolve)?)),
        })
    }

    /// Evaluates the expression against one row.
    pub fn evaluate(&self, schema: &Schema, row: &[Value], table_name: &str) -> Result<Value> {
        let bound = self.bind(&mut strict_resolver(schema, table_name))?;
        Ok(bound.evaluate(row)?.into_owned())
    }

    /// Evaluates the expression as a predicate: `true` only when the result
    /// is the boolean `true` (SQL `WHERE` semantics — `NULL` rejects the
    /// row).
    pub fn matches(&self, schema: &Schema, row: &[Value], table_name: &str) -> Result<bool> {
        BoundFilter::bind(self, &mut strict_resolver(schema, table_name))?.matches(row)
    }
}

/// A resolver for [`Expr::bind`] against `schema`: a column absent from
/// it is a [`RelationalError::UnknownColumn`] of `table_name`.
pub(crate) fn strict_resolver<'s>(
    schema: &'s Schema,
    table_name: &'s str,
) -> impl FnMut(&str) -> Result<Option<usize>> + 's {
    move |name: &str| match schema.index_of(name) {
        Some(index) => Ok(Some(index)),
        None => Err(RelationalError::UnknownColumn {
            table: table_name.to_string(),
            column: name.to_lowercase(),
        }),
    }
}

/// An [`Expr`] whose column references are row positions (see
/// [`Expr::bind`]): the form the executor evaluates, once per row.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum BoundExpr {
    /// The value at this position of the row.
    Column(usize),
    /// A constant (a column bound under snapshot semantics to `NULL`, too).
    Literal(Value),
    /// `row[column] <op> literal`, decided without building a value: the
    /// bound form of a column compared with a literal on either side.
    Compare {
        /// The row position of the compared cell.
        column: usize,
        /// The comparison, with the cell on its left.
        op: BinaryOperator,
        /// The constant the cell is compared with.
        literal: Value,
        /// True when the literal was written on the left (`3 < a`), so an
        /// error names the operands in the order they were written.
        flipped: bool,
    },
    /// A binary operation.
    BinaryOp {
        /// Left operand.
        left: Box<BoundExpr>,
        /// Operator.
        op: BinaryOperator,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// A unary operation.
    UnaryOp {
        /// Operator.
        op: UnaryOperator,
        /// Operand.
        expr: Box<BoundExpr>,
    },
    /// `expr IS NULL`
    IsNull(Box<BoundExpr>),
    /// `expr IS NOT NULL`
    IsNotNull(Box<BoundExpr>),
}

impl BoundExpr {
    /// Evaluates the expression against one row.  Column and literal
    /// operands are borrowed, not cloned.
    #[inline]
    pub(crate) fn evaluate<'a>(&'a self, row: &'a [Value]) -> Result<Cow<'a, Value>> {
        match self {
            BoundExpr::Column(index) => Ok(Cow::Borrowed(&row[*index])),
            BoundExpr::Literal(v) => Ok(Cow::Borrowed(v)),
            operator => operator.evaluate_operator(row),
        }
    }

    /// [`evaluate`](BoundExpr::evaluate) for the operator nodes, kept out
    /// of line so column and literal operands inline into their callers.
    fn evaluate_operator<'a>(&'a self, row: &'a [Value]) -> Result<Cow<'a, Value>> {
        match self {
            BoundExpr::Column(_) | BoundExpr::Literal(_) => self.evaluate(row),
            BoundExpr::BinaryOp { left, op, right } if op.is_arithmetic() => {
                let l = left.evaluate(row)?;
                let r = right.evaluate(row)?;
                arithmetic(&l, *op, &r).map(Cow::Owned)
            }
            BoundExpr::UnaryOp {
                op: UnaryOperator::Negate,
                expr,
            } => {
                let v = expr.evaluate(row)?;
                negate(&v).map(Cow::Owned)
            }
            predicate => {
                let truth = predicate.truth(row, logical_non_boolean)?;
                Ok(Cow::Owned(truth.map_or(Value::Null, Value::Boolean)))
            }
        }
    }

    /// The three-valued truth of the expression on one row: `Some(b)` for
    /// a boolean, `None` for `NULL`.  Comparisons and the logical
    /// operators decide it without building intermediate values; any
    /// other expression is evaluated, and a non-boolean result is the
    /// error `non_boolean` builds.
    #[inline]
    fn truth(
        &self,
        row: &[Value],
        non_boolean: fn(&Value) -> RelationalError,
    ) -> Result<Option<bool>> {
        match self {
            BoundExpr::Compare {
                column,
                op,
                literal,
                flipped,
            } => match typed_order(&row[*column], literal) {
                Some(ord) => Ok(Some(op.holds(ord))),
                None => compare_as_written(&row[*column], *op, literal, *flipped),
            },
            other => other.truth_of_node(row, non_boolean),
        }
    }

    /// [`truth`](BoundExpr::truth) of every node but a
    /// [`Compare`](BoundExpr::Compare), kept out of line so that
    /// `truth`'s `Compare` arm inlines into the filter loop.
    fn truth_of_node(
        &self,
        row: &[Value],
        non_boolean: fn(&Value) -> RelationalError,
    ) -> Result<Option<bool>> {
        match self {
            BoundExpr::BinaryOp {
                left,
                op: op @ (BinaryOperator::And | BinaryOperator::Or),
                right,
            } => {
                let l = left.truth(row, logical_non_boolean)?;
                let r = right.truth(row, logical_non_boolean)?;
                Ok(if *op == BinaryOperator::And {
                    kleene_and(l, r)
                } else {
                    kleene_or(l, r)
                })
            }
            BoundExpr::BinaryOp { left, op, right } if !op.is_arithmetic() => {
                let l = left.evaluate(row)?;
                let r = right.evaluate(row)?;
                compare(&l, *op, &r)
            }
            BoundExpr::UnaryOp {
                op: UnaryOperator::Not,
                expr,
            } => Ok(expr
                .truth(row, |other| {
                    RelationalError::Evaluation(format!("NOT applied to non-boolean value {other}"))
                })?
                .map(|b| !b)),
            BoundExpr::IsNull(expr) => Ok(Some(expr.evaluate(row)?.is_null())),
            BoundExpr::IsNotNull(expr) => Ok(Some(!expr.evaluate(row)?.is_null())),
            value => match value.evaluate(row)?.as_ref() {
                Value::Null => Ok(None),
                Value::Boolean(b) => Ok(Some(*b)),
                other => Err(non_boolean(other)),
            },
        }
    }
}

/// A `WHERE` predicate bound once per statement: its top-level `AND`
/// terms, left to right, each a [`BoundExpr`].
///
/// A row matches when every term is true.  Every term is evaluated on
/// every row, as the `AND` tree it came from evaluates both operands, so
/// a row's error is the one its left-most failing term raises.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BoundFilter {
    conjuncts: Vec<BoundExpr>,
}

impl BoundFilter {
    /// Binds `filter`'s top-level `AND` terms through [`Expr::bind`], in
    /// the order they are written.
    pub(crate) fn bind<F>(filter: &Expr, resolve: &mut F) -> Result<BoundFilter>
    where
        F: FnMut(&str) -> Result<Option<usize>>,
    {
        let mut conjuncts = Vec::new();
        bind_conjuncts(filter, resolve, &mut conjuncts)?;
        Ok(BoundFilter { conjuncts })
    }

    /// True when the predicate is true on `row` (`NULL` rejects it).  A
    /// non-boolean predicate is an error: "WHERE predicate …" when it is
    /// the whole `WHERE`, "logical operator …" when it is an `AND` term.
    #[inline]
    pub(crate) fn matches(&self, row: &[Value]) -> Result<bool> {
        let non_boolean = match self.conjuncts.len() {
            1 => where_non_boolean,
            _ => logical_non_boolean,
        };
        let mut all = true;
        for term in &self.conjuncts {
            all &= term.truth(row, non_boolean)? == Some(true);
        }
        Ok(all)
    }
}

/// Binds each top-level `AND` term of `expr`, left to right, onto `out`.
fn bind_conjuncts<F>(expr: &Expr, resolve: &mut F, out: &mut Vec<BoundExpr>) -> Result<()>
where
    F: FnMut(&str) -> Result<Option<usize>>,
{
    match expr {
        Expr::BinaryOp {
            left,
            op: BinaryOperator::And,
            right,
        } => {
            bind_conjuncts(left, resolve, out)?;
            bind_conjuncts(right, resolve, out)
        }
        term => {
            out.push(term.bind(resolve)?);
            Ok(())
        }
    }
}

impl BinaryOperator {
    /// True for `+`, `-`, `*` and `/`; the other operators yield booleans.
    fn is_arithmetic(self) -> bool {
        matches!(
            self,
            BinaryOperator::Plus
                | BinaryOperator::Minus
                | BinaryOperator::Multiply
                | BinaryOperator::Divide
        )
    }

    /// True for `=`, `<>`, `<`, `<=`, `>` and `>=`.
    fn is_comparison(self) -> bool {
        !self.is_arithmetic() && !matches!(self, BinaryOperator::And | BinaryOperator::Or)
    }

    /// The comparison with its operands swapped: `a < b` is `b > a`.
    fn flipped(self) -> BinaryOperator {
        use BinaryOperator::*;
        match self {
            Lt => Gt,
            LtEq => GtEq,
            Gt => Lt,
            GtEq => LtEq,
            other => other,
        }
    }

    /// Whether the comparison holds between operands ordered `ord`.
    #[inline]
    fn holds(self, ord: Ordering) -> bool {
        use BinaryOperator::*;
        match self {
            Eq => ord == Ordering::Equal,
            NotEq => ord != Ordering::Equal,
            Lt => ord == Ordering::Less,
            LtEq => ord != Ordering::Greater,
            Gt => ord == Ordering::Greater,
            GtEq => ord != Ordering::Less,
            _ => unreachable!("{self:?} is not a comparison"),
        }
    }
}

/// Appends `name`, folded, to `out` unless `out` holds it already.
pub(crate) fn push_folded<'n>(out: &mut Vec<Cow<'n, str>>, name: &'n str) {
    let name = fold_name(name);
    if !out.contains(&name) {
        out.push(name);
    }
}

fn kleene_and(left: Option<bool>, right: Option<bool>) -> Option<bool> {
    match (left, right) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn kleene_or(left: Option<bool>, right: Option<bool>) -> Option<bool> {
    match (left, right) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

fn logical_non_boolean(other: &Value) -> RelationalError {
    RelationalError::Evaluation(format!(
        "logical operator applied to non-boolean value {other}"
    ))
}

fn where_non_boolean(other: &Value) -> RelationalError {
    RelationalError::Evaluation(format!(
        "WHERE predicate evaluated to non-boolean value {other}"
    ))
}

/// The order of two INTEGER, FLOAT or BOOLEAN operands, as
/// [`Value::compare`] orders them; `None` for any other pair — `NULL`,
/// TEXT, mismatched types, NaN — which [`compare_as_written`] decides.
#[inline(always)]
fn typed_order(cell: &Value, literal: &Value) -> Option<Ordering> {
    match (cell, literal) {
        (Value::Integer(a), Value::Integer(b)) => Some(a.cmp(b)),
        (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
        (Value::Integer(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
        (Value::Float(a), Value::Integer(b)) => a.partial_cmp(&(*b as f64)),
        (Value::Boolean(a), Value::Boolean(b)) => Some(a.cmp(b)),
        _ => None,
    }
}

/// [`compare`] of a cell and a literal in the order they were written,
/// so an error names them that way.
#[cold]
#[inline(never)]
fn compare_as_written(
    cell: &Value,
    op: BinaryOperator,
    literal: &Value,
    flipped: bool,
) -> Result<Option<bool>> {
    if flipped {
        compare(literal, op.flipped(), cell)
    } else {
        compare(cell, op, literal)
    }
}

/// A comparison's three-valued truth: `NULL` on either side yields `None`.
fn compare(left: &Value, op: BinaryOperator, right: &Value) -> Result<Option<bool>> {
    use BinaryOperator::*;
    if let Eq | NotEq = op {
        return Ok(left.sql_eq(right).map(|eq| eq == (op == Eq)));
    }
    if left.is_null() || right.is_null() {
        return Ok(None);
    }
    let ord = left.compare(right).ok_or_else(|| {
        RelationalError::Evaluation(format!("cannot compare {left} with {right}"))
    })?;
    Ok(Some(op.holds(ord)))
}

fn negate(v: &Value) -> Result<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Integer(i) => i.checked_neg().map(Value::Integer).ok_or_else(overflow),
        Value::Float(f) => Ok(Value::Float(-f)),
        other => Err(RelationalError::Evaluation(format!(
            "cannot negate non-numeric value {other}"
        ))),
    }
}

fn overflow() -> RelationalError {
    RelationalError::Evaluation("integer overflow".into())
}

/// `+`, `-`, `*` and `/`.  Integer arithmetic stays integral, and
/// overflowing it is an error, except for division, which yields a float.
fn arithmetic(left: &Value, op: BinaryOperator, right: &Value) -> Result<Value> {
    use BinaryOperator::*;
    if left.is_null() || right.is_null() {
        return Ok(Value::Null);
    }
    if let (Value::Integer(a), Value::Integer(b)) = (left, right) {
        let checked = match op {
            Plus => a.checked_add(*b),
            Minus => a.checked_sub(*b),
            Multiply => a.checked_mul(*b),
            Divide => {
                if *b == 0 {
                    return Err(RelationalError::Evaluation("division by zero".into()));
                }
                return Ok(Value::Float(*a as f64 / *b as f64));
            }
            _ => unreachable!("{op:?} is not arithmetic"),
        };
        return checked.map(Value::Integer).ok_or_else(overflow);
    }
    let a = left.as_f64().ok_or_else(|| {
        RelationalError::Evaluation(format!("arithmetic on non-numeric value {left}"))
    })?;
    let b = right.as_f64().ok_or_else(|| {
        RelationalError::Evaluation(format!("arithmetic on non-numeric value {right}"))
    })?;
    Ok(match op {
        Plus => Value::Float(a + b),
        Minus => Value::Float(a - b),
        Multiply => Value::Float(a * b),
        Divide => {
            if b == 0.0 {
                return Err(RelationalError::Evaluation("division by zero".into()));
            }
            Value::Float(a / b)
        }
        _ => unreachable!("{op:?} is not arithmetic"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Integer),
            Column::new("name", DataType::Text),
            Column::new("humor", DataType::Float),
            Column::new("is_comedy", DataType::Boolean),
        ])
        .unwrap()
    }

    fn row() -> Vec<Value> {
        vec![
            Value::Integer(1),
            Value::from("Rocky"),
            Value::Float(3.5),
            Value::Null,
        ]
    }

    #[test]
    fn column_and_literal_evaluation() {
        let s = schema();
        let r = row();
        assert_eq!(
            Expr::column("ID").evaluate(&s, &r, "movies").unwrap(),
            Value::Integer(1)
        );
        assert_eq!(
            Expr::literal(5i64).evaluate(&s, &r, "movies").unwrap(),
            Value::Integer(5)
        );
        let err = Expr::column("missing").evaluate(&s, &r, "movies");
        assert!(matches!(err, Err(RelationalError::UnknownColumn { .. })));
    }

    #[test]
    fn comparisons() {
        let s = schema();
        let r = row();
        let gt = Expr::binary(
            Expr::column("humor"),
            BinaryOperator::Gt,
            Expr::literal(3.0),
        );
        assert_eq!(gt.evaluate(&s, &r, "t").unwrap(), Value::Boolean(true));
        let eq = Expr::binary(
            Expr::column("name"),
            BinaryOperator::Eq,
            Expr::literal("Rocky"),
        );
        assert_eq!(eq.evaluate(&s, &r, "t").unwrap(), Value::Boolean(true));
        let neq = Expr::binary(
            Expr::column("id"),
            BinaryOperator::NotEq,
            Expr::literal(1i64),
        );
        assert_eq!(neq.evaluate(&s, &r, "t").unwrap(), Value::Boolean(false));
        // Comparison against NULL yields NULL, which `matches` treats as false.
        let null_cmp = Expr::binary(
            Expr::column("is_comedy"),
            BinaryOperator::Eq,
            Expr::literal(true),
        );
        assert_eq!(null_cmp.evaluate(&s, &r, "t").unwrap(), Value::Null);
        assert!(!null_cmp.matches(&s, &r, "t").unwrap());
        // Incomparable types.
        let bad = Expr::binary(
            Expr::column("name"),
            BinaryOperator::Lt,
            Expr::literal(1i64),
        );
        assert!(bad.evaluate(&s, &r, "t").is_err());
    }

    #[test]
    fn three_valued_logic() {
        let s = schema();
        let r = row();
        let is_comedy = Expr::binary(
            Expr::column("is_comedy"),
            BinaryOperator::Eq,
            Expr::literal(true),
        );
        let id_pos = Expr::binary(Expr::column("id"), BinaryOperator::Gt, Expr::literal(0i64));
        // NULL AND true = NULL; NULL OR true = true; NULL AND false = false.
        let and = Expr::binary(is_comedy.clone(), BinaryOperator::And, id_pos.clone());
        assert_eq!(and.evaluate(&s, &r, "t").unwrap(), Value::Null);
        let or = Expr::binary(is_comedy.clone(), BinaryOperator::Or, id_pos.clone());
        assert_eq!(or.evaluate(&s, &r, "t").unwrap(), Value::Boolean(true));
        let id_neg = Expr::binary(Expr::column("id"), BinaryOperator::Lt, Expr::literal(0i64));
        let and_false = Expr::binary(is_comedy.clone(), BinaryOperator::And, id_neg);
        assert_eq!(
            and_false.evaluate(&s, &r, "t").unwrap(),
            Value::Boolean(false)
        );
        // NOT NULL = NULL.
        let not_null = Expr::UnaryOp {
            op: UnaryOperator::Not,
            expr: Box::new(is_comedy),
        };
        assert_eq!(not_null.evaluate(&s, &r, "t").unwrap(), Value::Null);
        // Logical op on non-boolean errors.
        let bad = Expr::binary(Expr::column("id"), BinaryOperator::And, Expr::literal(true));
        assert!(bad.evaluate(&s, &r, "t").is_err());
    }

    #[test]
    fn is_null_checks() {
        let s = schema();
        let r = row();
        assert_eq!(
            Expr::IsNull(Box::new(Expr::column("is_comedy")))
                .evaluate(&s, &r, "t")
                .unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(
            Expr::IsNotNull(Box::new(Expr::column("id")))
                .evaluate(&s, &r, "t")
                .unwrap(),
            Value::Boolean(true)
        );
    }

    #[test]
    fn arithmetic() {
        let s = schema();
        let r = row();
        let add = Expr::binary(
            Expr::column("id"),
            BinaryOperator::Plus,
            Expr::literal(2i64),
        );
        assert_eq!(add.evaluate(&s, &r, "t").unwrap(), Value::Integer(3));
        let mul = Expr::binary(
            Expr::column("humor"),
            BinaryOperator::Multiply,
            Expr::literal(2i64),
        );
        assert_eq!(mul.evaluate(&s, &r, "t").unwrap(), Value::Float(7.0));
        let div = Expr::binary(
            Expr::literal(7i64),
            BinaryOperator::Divide,
            Expr::literal(2i64),
        );
        assert_eq!(div.evaluate(&s, &r, "t").unwrap(), Value::Float(3.5));
        let div0 = Expr::binary(
            Expr::literal(7i64),
            BinaryOperator::Divide,
            Expr::literal(0i64),
        );
        assert!(div0.evaluate(&s, &r, "t").is_err());
        let bad = Expr::binary(
            Expr::column("name"),
            BinaryOperator::Plus,
            Expr::literal(1i64),
        );
        assert!(bad.evaluate(&s, &r, "t").is_err());
        let null_arith = Expr::binary(
            Expr::column("is_comedy"),
            BinaryOperator::Plus,
            Expr::literal(1i64),
        );
        assert_eq!(null_arith.evaluate(&s, &r, "t").unwrap(), Value::Null);
        // Unary negation.
        let neg = Expr::UnaryOp {
            op: UnaryOperator::Negate,
            expr: Box::new(Expr::column("humor")),
        };
        assert_eq!(neg.evaluate(&s, &r, "t").unwrap(), Value::Float(-3.5));
        let neg_bad = Expr::UnaryOp {
            op: UnaryOperator::Negate,
            expr: Box::new(Expr::column("name")),
        };
        assert!(neg_bad.evaluate(&s, &r, "t").is_err());
    }

    fn assert_overflows(expr: Expr) {
        let err = expr.evaluate(&schema(), &row(), "t").unwrap_err();
        assert_eq!(err, RelationalError::Evaluation("integer overflow".into()));
    }

    #[test]
    fn integer_addition_overflow_is_an_error() {
        assert_overflows(Expr::binary(
            Expr::literal(i64::MAX),
            BinaryOperator::Plus,
            Expr::column("id"),
        ));
    }

    #[test]
    fn integer_subtraction_overflow_is_an_error() {
        assert_overflows(Expr::binary(
            Expr::literal(i64::MIN),
            BinaryOperator::Minus,
            Expr::column("id"),
        ));
    }

    #[test]
    fn integer_multiplication_overflow_is_an_error() {
        assert_overflows(Expr::binary(
            Expr::binary(
                Expr::column("id"),
                BinaryOperator::Plus,
                Expr::literal(1i64),
            ),
            BinaryOperator::Multiply,
            Expr::literal(i64::MAX),
        ));
    }

    #[test]
    fn integer_negation_overflow_is_an_error() {
        assert_overflows(Expr::UnaryOp {
            op: UnaryOperator::Negate,
            expr: Box::new(Expr::literal(i64::MIN)),
        });
    }

    #[test]
    fn pinned_integer_finds_top_level_id_equalities() {
        let id = Column::new("id", DataType::Integer);
        let eq = |left: Expr, right: Expr| Expr::binary(left, BinaryOperator::Eq, right);
        let pinned = |e: &Expr| e.pinned_integer(&id);
        assert_eq!(
            pinned(&eq(Expr::column("ID"), Expr::literal(5i64))),
            Some(5)
        );
        assert_eq!(
            pinned(&eq(Expr::literal(5i64), Expr::column("id"))),
            Some(5)
        );
        let and = Expr::binary(
            Expr::binary(
                Expr::column("humor"),
                BinaryOperator::Gt,
                Expr::literal(1i64),
            ),
            BinaryOperator::And,
            eq(Expr::column("id"), Expr::literal(7i64)),
        );
        assert_eq!(pinned(&and), Some(7));
        let negated = Expr::UnaryOp {
            op: UnaryOperator::Negate,
            expr: Box::new(Expr::literal(3i64)),
        };
        assert_eq!(pinned(&eq(Expr::column("id"), negated)), Some(-3));
        // Other literal types, other columns, OR, NOT and comparisons do
        // not pin the id.
        for e in [
            eq(Expr::column("id"), Expr::literal(5.0)),
            eq(Expr::column("id"), Expr::literal("5")),
            eq(Expr::column("id"), Expr::Literal(Value::Null)),
            eq(Expr::column("humor"), Expr::literal(5i64)),
            Expr::binary(
                eq(Expr::column("id"), Expr::literal(5i64)),
                BinaryOperator::Or,
                eq(Expr::column("id"), Expr::literal(9i64)),
            ),
            Expr::UnaryOp {
                op: UnaryOperator::Not,
                expr: Box::new(eq(Expr::column("id"), Expr::literal(5i64))),
            },
            Expr::binary(
                Expr::column("id"),
                BinaryOperator::GtEq,
                Expr::literal(5i64),
            ),
        ] {
            assert_eq!(pinned(&e), None, "{e:?}");
        }
    }

    #[test]
    fn referenced_columns_are_collected_once() {
        let e = Expr::binary(
            Expr::binary(
                Expr::column("Humor"),
                BinaryOperator::GtEq,
                Expr::literal(8i64),
            ),
            BinaryOperator::And,
            Expr::binary(
                Expr::column("humor"),
                BinaryOperator::Lt,
                Expr::column("year"),
            ),
        );
        assert_eq!(e.referenced_columns(), vec!["humor", "year"]);
        assert!(Expr::literal(1i64).referenced_columns().is_empty());
    }

    #[test]
    fn matches_requires_boolean() {
        let s = schema();
        let r = row();
        assert!(Expr::column("id").matches(&s, &r, "t").is_err());
        let ok = Expr::binary(Expr::column("id"), BinaryOperator::Eq, Expr::literal(1i64));
        assert!(ok.matches(&s, &r, "t").unwrap());
    }
}
