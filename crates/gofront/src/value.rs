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

/// Error for extracting the wrong variant out of a [`GoValue`]. It
/// names the variant found, and its length for a buffer, string or
/// tuple, so a wrong-variant read of a large payload stays a short
/// message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueError {
    wanted: &'static str,
    got: &'static str,
    len: Option<usize>,
}

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expected {}, got {}", self.wanted, self.got)?;
        match self.len {
            Some(len) => write!(f, " of length {len}"),
            None => Ok(()),
        }
    }
}

impl Error for ValueError {}

impl From<ValueError> for litterbox::Fault {
    fn from(e: ValueError) -> Self {
        litterbox::Fault::Init(format!("value type error: {e}"))
    }
}

/// Accessors for one variant. A `Copy` payload is read by value; any
/// other is borrowed by `as_*` and moved out by `into_*`.
macro_rules! accessor {
    ($get:ident, $variant:ident, $ty:ty) => {
        /// Reads the variant, or a [`ValueError`] naming what was found.
        ///
        /// # Errors
        ///
        /// [`ValueError`] if the value holds a different variant.
        pub fn $get(&self) -> Result<$ty, ValueError> {
            match self {
                GoValue::$variant(v) => Ok(*v),
                other => Err(other.mismatch(stringify!($variant))),
            }
        }
    };
    ($get:ident, $into:ident, $variant:ident, $borrowed:ty, $owned:ty) => {
        /// Borrows the variant's payload, or a [`ValueError`] naming what
        /// was found.
        ///
        /// # Errors
        ///
        /// [`ValueError`] if the value holds a different variant.
        pub fn $get(&self) -> Result<&$borrowed, ValueError> {
            match self {
                GoValue::$variant(v) => Ok(v),
                other => Err(other.mismatch(stringify!($variant))),
            }
        }

        /// Moves the variant's payload out, or a [`ValueError`] naming
        /// what was found.
        ///
        /// # Errors
        ///
        /// [`ValueError`] if the value holds a different variant.
        pub fn $into(self) -> Result<$owned, ValueError> {
            match self {
                GoValue::$variant(v) => Ok(v),
                other => Err(other.mismatch(stringify!($variant))),
            }
        }
    };
}

impl GoValue {
    accessor!(as_int, Int, u64);
    accessor!(as_bool, Bool, bool);
    accessor!(as_ptr, Ptr, Addr);
    accessor!(as_bytes, into_bytes, Bytes, [u8], Vec<u8>);
    accessor!(as_str, into_str, Str, str, String);
    accessor!(as_tuple, into_tuple, Tuple, [GoValue], Vec<GoValue>);

    /// The error for reading `self` as `wanted`.
    fn mismatch(&self, wanted: &'static str) -> ValueError {
        let (got, len) = match self {
            GoValue::Unit => ("Unit", None),
            GoValue::Int(_) => ("Int", None),
            GoValue::Bool(_) => ("Bool", None),
            GoValue::Bytes(b) => ("Bytes", Some(b.len())),
            GoValue::Str(s) => ("Str", Some(s.len())),
            GoValue::Ptr(_) => ("Ptr", None),
            GoValue::Tuple(t) => ("Tuple", Some(t.len())),
        };
        ValueError { wanted, got, len }
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
        assert_eq!(GoValue::from(vec![1u8]).as_bytes().unwrap(), [1]);
        assert_eq!(GoValue::from(Addr(4)).as_ptr().unwrap(), Addr(4));
    }

    #[test]
    fn into_accessors_move_the_payload_out() {
        assert_eq!(
            GoValue::from(vec![1u8, 2]).into_bytes().unwrap(),
            vec![1, 2]
        );
        assert_eq!(GoValue::from("x").into_str().unwrap(), "x");
        let err = GoValue::Int(1).into_tuple().unwrap_err();
        assert_eq!(err.to_string(), "expected Tuple, got Int");
    }

    #[test]
    fn wrong_variant_is_an_error() {
        let err = GoValue::Int(1).as_str().unwrap_err();
        assert!(err.to_string().contains("expected Str"));
        assert!(err.to_string().contains("Int"));
    }

    #[test]
    fn wrong_variant_errors_name_the_length_not_the_payload() {
        let big = GoValue::Bytes(vec![b'x'; 1 << 20]);
        let msg = big.as_str().unwrap_err().to_string();
        assert!(msg.len() < 100, "{} bytes: {msg}", msg.len());
        assert!(msg.contains("Bytes"), "{msg}");
        assert!(msg.contains("1048576"), "{msg}");
    }

    #[test]
    fn tuple_roundtrip() {
        let t = GoValue::Tuple(vec![GoValue::Int(1), GoValue::from("a")]);
        let inner = t.as_tuple().unwrap();
        assert_eq!(inner.len(), 2);
        assert_eq!(t.into_tuple().unwrap()[1].as_str().unwrap(), "a");
    }
}
