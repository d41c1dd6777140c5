//! Offline stand-in for `serde`.
//!
//! crates.io is unreachable from the build environment, so this shim
//! provides the data-model the workspace needs: a JSON-shaped [`Value`]
//! tree, [`Serialize`]/[`Deserialize`] traits that convert to and from it,
//! and `#[derive(Serialize, Deserialize)]` macros (re-exported from the
//! sibling `serde_derive` shim) for structs with named fields and enums
//! with unit, newtype-tuple, and struct variants.
//!
//! The wire representation matches serde_json's defaults closely enough
//! for this repo's round-trips: structs are objects keyed by field name,
//! unit enum variants are strings, and data-carrying variants are
//! externally tagged single-key objects.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// JSON-shaped dynamic value.
///
/// Integers keep their own variants so `u64`/`i64` round-trip exactly
/// (an `f64`-only model would corrupt 64-bit seeds above 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    I64(i64),
    U64(u64),
    F64(f64),
    Str(String),
    Array(Vec<Value>),
    /// Insertion-ordered object (stable output without a map dependency).
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(x) => Some(*x),
            Value::I64(x) => Some(*x as f64),
            Value::U64(x) => Some(*x as f64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(x) => Some(*x),
            Value::U64(x) => i64::try_from(*x).ok(),
            Value::F64(x) if x.fract() == 0.0 && x.abs() < 9.2e18 => Some(*x as i64),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(x) => Some(*x),
            Value::I64(x) => u64::try_from(*x).ok(),
            Value::F64(x) if x.fract() == 0.0 && *x >= 0.0 && *x < 1.9e19 => Some(*x as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(xs) => Some(xs),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(xs) => Some(xs),
            _ => None,
        }
    }

    /// Object field lookup by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|entries| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    /// Mutable object field lookup by key.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        match self {
            Value::Object(entries) => entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) | Value::U64(_) | Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    pub fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }

    pub fn expected(what: &str, got: &Value) -> Self {
        Error::new(format!("expected {what}, got {}", got.kind()))
    }

    pub fn missing_field(field: &str) -> Self {
        Error::new(format!("missing field `{field}`"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Convert a Rust value into a [`Value`] tree.
pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// Reconstruct a Rust value from a [`Value`] tree.
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------- primitives

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::expected("bool", v))
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::I64(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let x = v.as_i64().ok_or_else(|| Error::expected("integer", v))?;
                <$t>::try_from(x).map_err(|_| Error::new(format!(
                    "integer {x} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::U64(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let x = v.as_u64().ok_or_else(|| Error::expected("unsigned integer", v))?;
                <$t>::try_from(x).map_err(|_| Error::new(format!(
                    "integer {x} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);
impl_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64()
            .map(|x| x as f32)
            .ok_or_else(|| Error::expected("number", v))
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::expected("number", v))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::expected("string", v))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s = v.as_str().ok_or_else(|| Error::expected("string", v))?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::new("expected single-character string")),
        }
    }
}

// ---------------------------------------------------------------- containers

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::expected("array", v))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let xs = v.as_array().ok_or_else(|| Error::expected("array", v))?;
                let expected = [$( $idx , )+].len();
                if xs.len() != expected {
                    return Err(Error::new(format!(
                        "expected array of length {expected}, got {}", xs.len())));
                }
                Ok(($($name::from_value(&xs[$idx])?,)+))
            }
        }
    )+};
}

impl_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
);

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| Error::expected("object", v))?
            .iter()
            .map(|(k, val)| Ok((k.clone(), V::from_value(val)?)))
            .collect()
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Sort keys so output is deterministic regardless of hash order.
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| Error::expected("object", v))?
            .iter()
            .map(|(k, val)| Ok((k.clone(), V::from_value(val)?)))
            .collect()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trips_exactly_above_2_pow_53() {
        let big: u64 = (1 << 60) + 12345;
        let v = big.to_value();
        assert_eq!(u64::from_value(&v).unwrap(), big);
    }

    #[test]
    fn option_null_round_trip() {
        let none: Option<f32> = None;
        assert!(none.to_value().is_null());
        assert_eq!(Option::<f32>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(
            Option::<f32>::from_value(&Value::F64(2.5)).unwrap(),
            Some(2.5)
        );
    }

    #[test]
    fn nested_vec_round_trip() {
        let xs: Vec<Vec<u32>> = vec![vec![1, 2], vec![], vec![3]];
        let v = xs.to_value();
        assert_eq!(Vec::<Vec<u32>>::from_value(&v).unwrap(), xs);
    }

    #[test]
    fn wrong_shape_is_an_error() {
        assert!(bool::from_value(&Value::Str("true".into())).is_err());
        assert!(Vec::<u8>::from_value(&Value::Bool(false)).is_err());
        assert!(u8::from_value(&Value::U64(300)).is_err());
    }

    #[test]
    fn object_get_finds_keys() {
        let v = Value::Object(vec![("a".into(), Value::U64(1)), ("b".into(), Value::Null)]);
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        assert!(v.get("b").unwrap().is_null());
        assert!(v.get("c").is_none());
    }
}
