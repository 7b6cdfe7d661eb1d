//! Register values.

use std::fmt;

/// The value held by a shared register.
///
/// The paper treats values as opaque; a small enum keeps examples
/// realistic (counters, strings, blobs) without making every type in the
/// workspace generic.
///
/// # Examples
///
/// ```
/// use prcc_core::Value;
/// let v = Value::from(42u64);
/// assert_eq!(v, Value::U64(42));
/// let s = Value::from("post: hello");
/// assert_eq!(s.as_str(), Some("post: hello"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// An unsigned integer.
    U64(u64),
    /// A UTF-8 string.
    Str(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
}

impl Value {
    /// The string value, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The payload size in bytes (used by message accounting).
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::U64(_) => 8,
            Value::Str(s) => s.len(),
            Value::Bytes(b) => b.len(),
        }
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::U64(0)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Value::from(7u64), Value::U64(7));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::from(String::from("y")).as_str(), Some("y"));
        assert_eq!(Value::from(vec![1u8, 2]).size_bytes(), 2);
        assert_eq!(Value::from(1u64).as_str(), None);
    }

    #[test]
    fn sizes() {
        assert_eq!(Value::U64(0).size_bytes(), 8);
        assert_eq!(Value::Str("abcd".into()).size_bytes(), 4);
    }

    #[test]
    fn display() {
        assert_eq!(Value::U64(3).to_string(), "3");
        assert_eq!(Value::Str("hi".into()).to_string(), "\"hi\"");
        assert_eq!(Value::Bytes(vec![0; 5]).to_string(), "<5 bytes>");
        assert_eq!(Value::default(), Value::U64(0));
    }
}
