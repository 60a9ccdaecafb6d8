//! Offline shim for `serde`: serialization modeled as conversion to and
//! from an owned JSON-like [`Value`] tree.
//!
//! The real serde's visitor architecture exists to avoid materializing an
//! intermediate representation; this workspace only (de)serializes small
//! reports and traces to JSON, so the simple value-tree model is adequate
//! and keeps the shim tiny. `serde_json` (also shimmed) supplies the text
//! parser/printer over the same [`Value`].

pub use serde_derive::{Deserialize, Serialize};

/// `serde::de`: the shim's values are owned, so every [`Deserialize`]
/// type is `DeserializeOwned` (the bound generic loaders name).
pub mod de {
    pub use crate::Deserialize as DeserializeOwned;
}

use std::collections::BTreeMap;

/// An owned JSON-like value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Negative integers.
    I64(i64),
    /// Non-negative integers.
    U64(u64),
    /// Floating-point numbers (non-finite serializes as `null`).
    F64(f64),
    /// Strings.
    Str(String),
    /// Arrays.
    Array(Vec<Value>),
    /// Objects, with insertion order preserved.
    Object(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    /// Object member lookup; `Null` when absent or not an object.
    pub fn field(&self, name: &str) -> &Value {
        match self {
            Value::Object(members) => members
                .iter()
                .find(|(k, _)| k == name)
                .map_or(&NULL, |(_, v)| v),
            _ => &NULL,
        }
    }

    /// Like [`Value::field`] but `None` when absent.
    pub fn get(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// `Some(bool)` for booleans.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric value widened to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::I64(i) => Some(*i as f64),
            Value::U64(u) => Some(*u as f64),
            Value::F64(f) => Some(*f),
            _ => None,
        }
    }

    /// Non-negative integer value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(u) => Some(*u),
            Value::I64(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// Signed integer value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(i) => Some(*i),
            Value::U64(u) if *u <= i64::MAX as u64 => Some(*u as i64),
            _ => None,
        }
    }

    /// String slice for strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Element slice for arrays.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Members for objects.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// `true` for `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, name: &str) -> &Value {
        self.field(name)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

/// Deserialization error: a message plus field-path context.
#[derive(Debug, Clone)]
pub struct DeError {
    message: String,
    path: Vec<String>,
}

impl DeError {
    /// Create an error with a message.
    pub fn custom(message: impl Into<String>) -> Self {
        DeError {
            message: message.into(),
            path: Vec::new(),
        }
    }

    /// Record that the error occurred inside the named field.
    pub fn in_field(mut self, field: &str) -> Self {
        self.path.insert(0, field.to_string());
        self
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.path.is_empty() {
            write!(f, "{}", self.message)
        } else {
            write!(f, "at .{}: {}", self.path.join("."), self.message)
        }
    }
}

impl std::error::Error for DeError {}

/// Conversion into a [`Value`] tree.
pub trait Serialize {
    /// Build the value tree for `self`.
    fn to_value(&self) -> Value;
}

/// Conversion from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstruct `Self`, reporting a contextual error on mismatch.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// ---- primitive impls --------------------------------------------------

macro_rules! ser_de_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let u = v.as_u64().ok_or_else(|| {
                    DeError::custom(format!(
                        concat!("expected ", stringify!($t), ", got {:?}"), v
                    ))
                })?;
                <$t>::try_from(u).map_err(|_| {
                    DeError::custom(format!(
                        concat!("value {} out of range for ", stringify!($t)), u
                    ))
                })
            }
        }
    )*};
}
ser_de_unsigned!(u8, u16, u32, u64, usize);

macro_rules! ser_de_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let i = *self as i64;
                if i >= 0 { Value::U64(i as u64) } else { Value::I64(i) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let i = v.as_i64().ok_or_else(|| {
                    DeError::custom(format!(
                        concat!("expected ", stringify!($t), ", got {:?}"), v
                    ))
                })?;
                <$t>::try_from(i).map_err(|_| {
                    DeError::custom(format!(
                        concat!("value {} out of range for ", stringify!($t)), i
                    ))
                })
            }
        }
    )*};
}
ser_de_signed!(i8, i16, i32, i64, isize);

macro_rules! ser_de_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::F64(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    // Non-finite floats serialize as null (as in upstream
                    // serde_json); accept the reverse mapping so such
                    // records still parse.
                    Value::Null => Ok(<$t>::NAN),
                    _ => v.as_f64().map(|f| f as $t).ok_or_else(|| {
                        DeError::custom(format!(
                            concat!("expected ", stringify!($t), ", got {:?}"), v
                        ))
                    }),
                }
            }
        }
    )*};
}
ser_de_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_bool()
            .ok_or_else(|| DeError::custom(format!("expected bool, got {v:?}")))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| DeError::custom(format!("expected string, got {v:?}")))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let arr = v
            .as_array()
            .ok_or_else(|| DeError::custom(format!("expected array, got {v:?}")))?;
        arr.iter().map(T::from_value).collect()
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
impl<T: Deserialize + Copy + Default, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let arr = v
            .as_array()
            .ok_or_else(|| DeError::custom(format!("expected array, got {v:?}")))?;
        if arr.len() != N {
            return Err(DeError::custom(format!(
                "expected array of length {N}, got {}",
                arr.len()
            )));
        }
        let mut out = [T::default(); N];
        for (slot, item) in out.iter_mut().zip(arr) {
            *slot = T::from_value(item)?;
        }
        Ok(out)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

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
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::custom(format!("expected object, got {v:?}")))?;
        obj.iter()
            .map(|(k, item)| Ok((k.clone(), V::from_value(item)?)))
            .collect()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}
impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors() {
        let v = Value::Object(vec![
            ("a".into(), Value::U64(3)),
            ("b".into(), Value::F64(2.5)),
            ("s".into(), Value::Str("x".into())),
        ]);
        assert_eq!(v["a"].as_u64(), Some(3));
        assert_eq!(v["a"].as_f64(), Some(3.0));
        assert_eq!(v["b"].as_f64(), Some(2.5));
        assert_eq!(v["b"].as_u64(), None);
        assert_eq!(v["s"].as_str(), Some("x"));
        assert!(v["missing"].is_null());
    }

    #[test]
    fn option_and_array_roundtrip() {
        let some: Option<u32> = Some(7);
        let none: Option<u32> = None;
        assert_eq!(Option::<u32>::from_value(&some.to_value()).unwrap(), some);
        assert_eq!(Option::<u32>::from_value(&none.to_value()).unwrap(), none);
        let arr = [1u64, 2, 3];
        assert_eq!(<[u64; 3]>::from_value(&arr.to_value()).unwrap(), arr);
        assert!(<[u64; 2]>::from_value(&arr.to_value()).is_err());
    }

    #[test]
    fn error_paths_accumulate() {
        let e = DeError::custom("boom").in_field("inner").in_field("outer");
        assert_eq!(e.to_string(), "at .outer.inner: boom");
    }

    #[test]
    fn signed_integers_split_by_sign() {
        assert_eq!((-3i32).to_value(), Value::I64(-3));
        assert_eq!(5i32.to_value(), Value::U64(5));
        assert_eq!(i32::from_value(&Value::I64(-3)).unwrap(), -3);
        assert_eq!(i32::from_value(&Value::U64(5)).unwrap(), 5);
    }
}
