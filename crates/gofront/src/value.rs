//! Dynamic values crossing the simulated Go function-call boundary.

use std::error::Error;
use std::fmt;

use enclosure_vmem::Addr;

/// A dynamically typed Go value passed between registered functions.
///
/// The reproduction's "Go" functions are Rust closures; `GoValue` is the
/// argument/result type at their boundary so the runtime can mediate every
/// cross-package call (and check the `X` right at each one).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum GoValue {
    /// No value.
    #[default]
    Unit,
    /// An integer.
    Int(u64),
    /// A boolean.
    Bool(bool),
    /// An owned byte buffer.
    Bytes(Vec<u8>),
    /// A string.
    Str(String),
    /// A pointer into the simulated address space.
    Ptr(Addr),
    /// A tuple of values.
    Tuple(Vec<GoValue>),
}

/// Error for extracting the wrong variant out of a [`GoValue`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueError {
    wanted: &'static str,
    got: String,
}

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expected {}, got {}", self.wanted, self.got)
    }
}

impl Error for ValueError {}

impl From<ValueError> for litterbox::Fault {
    fn from(e: ValueError) -> Self {
        litterbox::Fault::Init(format!("value type error: {e}"))
    }
}

macro_rules! accessor {
    ($fn_name:ident, $variant:ident, $ty:ty, $wanted:literal) => {
        /// Extracts the variant, or a [`ValueError`] naming what was found.
        ///
        /// # Errors
        ///
        /// [`ValueError`] if the value holds a different variant.
        pub fn $fn_name(&self) -> Result<$ty, ValueError> {
            match self {
                GoValue::$variant(v) => Ok(v.clone()),
                other => Err(ValueError {
                    wanted: $wanted,
                    got: format!("{other:?}"),
                }),
            }
        }
    };
}

impl GoValue {
    accessor!(as_int, Int, u64, "Int");
    accessor!(as_bool, Bool, bool, "Bool");
    accessor!(as_bytes, Bytes, Vec<u8>, "Bytes");
    accessor!(as_str, Str, String, "Str");
    accessor!(as_ptr, Ptr, Addr, "Ptr");
    accessor!(as_tuple, Tuple, Vec<GoValue>, "Tuple");

    /// True for [`GoValue::Unit`].
    #[must_use]
    pub fn is_unit(&self) -> bool {
        matches!(self, GoValue::Unit)
    }
}

impl From<u64> for GoValue {
    fn from(v: u64) -> Self {
        GoValue::Int(v)
    }
}

impl From<bool> for GoValue {
    fn from(v: bool) -> Self {
        GoValue::Bool(v)
    }
}

impl From<Vec<u8>> for GoValue {
    fn from(v: Vec<u8>) -> Self {
        GoValue::Bytes(v)
    }
}

impl From<&str> for GoValue {
    fn from(v: &str) -> Self {
        GoValue::Str(v.to_owned())
    }
}

impl From<Addr> for GoValue {
    fn from(v: Addr) -> Self {
        GoValue::Ptr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_extract_right_variants() {
        assert_eq!(GoValue::Int(7).as_int().unwrap(), 7);
        assert_eq!(GoValue::from("x").as_str().unwrap(), "x");
        assert_eq!(GoValue::from(vec![1u8]).as_bytes().unwrap(), vec![1]);
        assert!(GoValue::Unit.is_unit());
        assert_eq!(GoValue::from(Addr(4)).as_ptr().unwrap(), Addr(4));
    }

    #[test]
    fn wrong_variant_is_an_error() {
        let err = GoValue::Int(1).as_str().unwrap_err();
        assert!(err.to_string().contains("expected Str"));
        assert!(err.to_string().contains("Int"));
    }

    #[test]
    fn tuple_roundtrip() {
        let t = GoValue::Tuple(vec![GoValue::Int(1), GoValue::from("a")]);
        let inner = t.as_tuple().unwrap();
        assert_eq!(inner.len(), 2);
    }
}
