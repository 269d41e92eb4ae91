//! Values of the specification language.
//!
//! A [`Value`] is a TLA+-style constant: booleans, integers, tuples,
//! finite sets and finite functions. Everything is totally ordered so
//! values can live inside `BTreeSet`/`BTreeMap` and states can be hashed
//! for explicit-state exploration.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A constant of the spec language.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Ordered tuple.
    Tuple(Vec<Value>),
    /// Finite set.
    Set(BTreeSet<Value>),
    /// Finite function (total on its recorded domain).
    Fun(BTreeMap<Value, Value>),
}

impl Value {
    /// Convenience constructor for a set of values.
    pub fn set<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::Set(items.into_iter().collect())
    }

    /// Convenience constructor for an integer-range set `lo..=hi`.
    pub fn int_range(lo: i64, hi: i64) -> Value {
        Value::Set((lo..=hi).map(Value::Int).collect())
    }

    /// Convenience constructor for a function from pairs.
    pub fn fun<I: IntoIterator<Item = (Value, Value)>>(items: I) -> Value {
        Value::Fun(items.into_iter().collect())
    }

    /// The boolean inside, or an error message.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(format!("expected Bool, got {other}")),
        }
    }

    /// The integer inside, or an error message.
    pub fn as_int(&self) -> Result<i64, String> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(format!("expected Int, got {other}")),
        }
    }

    /// The set inside, or an error message.
    pub fn as_set(&self) -> Result<&BTreeSet<Value>, String> {
        match self {
            Value::Set(s) => Ok(s),
            other => Err(format!("expected Set, got {other}")),
        }
    }

    /// The function inside, or an error message.
    pub fn as_fun(&self) -> Result<&BTreeMap<Value, Value>, String> {
        match self {
            Value::Fun(f) => Ok(f),
            other => Err(format!("expected Fun, got {other}")),
        }
    }

    /// The tuple inside, or an error message.
    pub fn as_tuple(&self) -> Result<&[Value], String> {
        match self {
            Value::Tuple(t) => Ok(t),
            other => Err(format!("expected Tuple, got {other}")),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Tuple(t) => {
                write!(f, "<<")?;
                for (i, v) in t.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ">>")
            }
            Value::Set(s) => {
                write!(f, "{{")?;
                for (i, v) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Value::Fun(m) => {
                write!(f, "[")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k} |-> {v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(Value::from(true).as_bool(), Ok(true));
        assert_eq!(Value::from(5i64).as_int(), Ok(5));
        assert!(Value::Int(1).as_bool().is_err());
        let s = Value::int_range(1, 3);
        assert_eq!(s.as_set().unwrap().len(), 3);
        let f = Value::fun([(Value::Int(1), Value::Bool(true))]);
        assert_eq!(
            f.as_fun().unwrap().get(&Value::Int(1)),
            Some(&Value::Bool(true))
        );
    }

    #[test]
    fn ordering_is_total_across_variants() {
        let mut set = BTreeSet::new();
        set.insert(Value::Bool(false));
        set.insert(Value::Int(0));
        set.insert(Value::Tuple(vec![]));
        set.insert(Value::set([]));
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn display_tla_style() {
        let v = Value::Tuple(vec![Value::Int(1), Value::Bool(true)]);
        assert_eq!(v.to_string(), "<<1, true>>");
        assert_eq!(Value::int_range(1, 2).to_string(), "{1, 2}");
        let f = Value::fun([(Value::Int(1), Value::Int(9))]);
        assert_eq!(f.to_string(), "[1 |-> 9]");
    }
}
