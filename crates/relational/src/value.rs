//! Typed values with SQL-style `NULL`.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

/// The data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integers.
    Integer,
    /// 64-bit floating point numbers.
    Float,
    /// UTF-8 strings.
    Text,
    /// Booleans — the type of the perceptual attributes the paper expands
    /// schemas with (e.g. `is_comedy`).
    Boolean,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DataType::Integer => "INTEGER",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Boolean => "BOOLEAN",
        };
        write!(f, "{name}")
    }
}

/// A single cell value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Missing / unknown value.  Crowd-enabled databases treat these as
    /// "to be completed at query time".
    Null,
    /// Integer value.
    Integer(i64),
    /// Floating-point value.
    Float(f64),
    /// String value.
    Text(String),
    /// Boolean value.
    Boolean(bool),
}

impl Value {
    /// The value's type, or `None` for `NULL` (which is typeless).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Integer(_) => Some(DataType::Integer),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Boolean(_) => Some(DataType::Boolean),
        }
    }

    /// True when the value is `NULL`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Checks whether the value can be stored in a column of `ty`.
    /// `NULL` is compatible with every type; integers may be widened into
    /// float columns.
    pub fn is_compatible_with(&self, ty: DataType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (Value::Integer(_), DataType::Integer)
                | (Value::Integer(_), DataType::Float)
                | (Value::Float(_), DataType::Float)
                | (Value::Text(_), DataType::Text)
                | (Value::Boolean(_), DataType::Boolean)
        )
    }

    /// Numeric view of the value (integers widened to floats).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Integer(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Boolean view of the value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// Text view of the value.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// SQL comparison: returns `None` when either side is `NULL` or the
    /// values are incomparable, mirroring three-valued logic.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Integer(a), Value::Integer(b)) => Some(a.cmp(b)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Boolean(a), Value::Boolean(b)) => Some(a.cmp(b)),
            _ => {
                let a = self.as_f64()?;
                let b = other.as_f64()?;
                a.partial_cmp(&b)
            }
        }
    }

    /// SQL equality: `None` when either side is `NULL`, `Some(bool)`
    /// otherwise (incomparable types compare unequal).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            _ => Some(match self.compare(other) {
                Some(Ordering::Equal) => true,
                Some(_) => false,
                None => false,
            }),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Integer(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Boolean(b) => write!(f, "{}", if *b { "true" } else { "false" }),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Integer(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Boolean(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_types_and_nullness() {
        assert_eq!(Value::Integer(1).data_type(), Some(DataType::Integer));
        assert_eq!(Value::Float(1.0).data_type(), Some(DataType::Float));
        assert_eq!(Value::Text("a".into()).data_type(), Some(DataType::Text));
        assert_eq!(Value::Boolean(true).data_type(), Some(DataType::Boolean));
        assert_eq!(Value::Null.data_type(), None);
        assert!(Value::Null.is_null());
        assert!(!Value::Integer(0).is_null());
    }

    #[test]
    fn compatibility_rules() {
        assert!(Value::Null.is_compatible_with(DataType::Boolean));
        assert!(Value::Integer(1).is_compatible_with(DataType::Integer));
        assert!(Value::Integer(1).is_compatible_with(DataType::Float));
        assert!(!Value::Float(1.0).is_compatible_with(DataType::Integer));
        assert!(!Value::Text("x".into()).is_compatible_with(DataType::Boolean));
        assert!(Value::Boolean(true).is_compatible_with(DataType::Boolean));
    }

    #[test]
    fn views() {
        assert_eq!(Value::Integer(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Text("x".into()).as_f64(), None);
        assert_eq!(Value::Boolean(true).as_bool(), Some(true));
        assert_eq!(Value::Integer(1).as_bool(), None);
        assert_eq!(Value::Text("abc".into()).as_text(), Some("abc"));
        assert_eq!(Value::Null.as_text(), None);
    }

    #[test]
    fn comparisons_follow_three_valued_logic() {
        assert_eq!(
            Value::Integer(1).compare(&Value::Integer(2)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Integer(2).compare(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Text("a".into()).compare(&Value::Text("b".into())),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Boolean(false).compare(&Value::Boolean(true)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Null.compare(&Value::Integer(1)), None);
        assert_eq!(Value::Integer(1).compare(&Value::Null), None);
        // Incomparable types.
        assert_eq!(Value::Text("a".into()).compare(&Value::Integer(1)), None);
    }

    #[test]
    fn sql_equality() {
        assert_eq!(Value::Integer(1).sql_eq(&Value::Integer(1)), Some(true));
        assert_eq!(Value::Integer(1).sql_eq(&Value::Integer(2)), Some(false));
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
        assert_eq!(Value::Boolean(true).sql_eq(&Value::Null), None);
        assert_eq!(
            Value::Text("a".into()).sql_eq(&Value::Integer(1)),
            Some(false)
        );
    }

    #[test]
    fn conversions_and_display() {
        assert_eq!(Value::from(5i64), Value::Integer(5));
        assert_eq!(Value::from(1.5f64), Value::Float(1.5));
        assert_eq!(Value::from("hi"), Value::Text("hi".into()));
        assert_eq!(Value::from(String::from("hi")), Value::Text("hi".into()));
        assert_eq!(Value::from(true), Value::Boolean(true));
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Integer(7).to_string(), "7");
        assert_eq!(Value::Text("x".into()).to_string(), "'x'");
        assert_eq!(Value::Boolean(false).to_string(), "false");
        assert_eq!(DataType::Integer.to_string(), "INTEGER");
        assert_eq!(DataType::Boolean.to_string(), "BOOLEAN");
    }
}
