//! Dynamic Python values at the simulated interpreter boundary.

use std::error::Error;
use std::fmt;

use enclosure_vmem::Addr;

/// A Python value crossing the registered-function boundary.
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub enum PyValue {
    /// `None`.
    #[default]
    None,
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A string.
    Str(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// A reference to a heap object (its data address).
    Obj(Addr),
    /// A list of values.
    List(Vec<PyValue>),
}

/// Error for extracting the wrong variant from a [`PyValue`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PyValueError {
    wanted: &'static str,
    got: String,
}

impl fmt::Display for PyValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expected {}, got {}", self.wanted, self.got)
    }
}

impl Error for PyValueError {}

impl From<PyValueError> for litterbox::Fault {
    fn from(e: PyValueError) -> Self {
        litterbox::Fault::Init(format!("python type error: {e}"))
    }
}

macro_rules! accessor {
    ($fn_name:ident, $variant:ident, $ty:ty, $wanted:literal) => {
        /// Extracts the variant.
        ///
        /// # Errors
        ///
        /// [`PyValueError`] if the value holds a different variant.
        pub fn $fn_name(&self) -> Result<$ty, PyValueError> {
            match self {
                PyValue::$variant(v) => Ok(v.clone()),
                other => Err(PyValueError {
                    wanted: $wanted,
                    got: format!("{other:?}"),
                }),
            }
        }
    };
}

impl PyValue {
    accessor!(as_int, Int, i64, "Int");
    accessor!(as_float, Float, f64, "Float");
    accessor!(as_str, Str, String, "Str");
    accessor!(as_bytes, Bytes, Vec<u8>, "Bytes");
    accessor!(as_obj, Obj, Addr, "Obj");
    accessor!(as_list, List, Vec<PyValue>, "List");

    /// True for `None`.
    #[must_use]
    pub fn is_none(&self) -> bool {
        matches!(self, PyValue::None)
    }
}

impl From<i64> for PyValue {
    fn from(v: i64) -> Self {
        PyValue::Int(v)
    }
}

impl From<f64> for PyValue {
    fn from(v: f64) -> Self {
        PyValue::Float(v)
    }
}

impl From<&str> for PyValue {
    fn from(v: &str) -> Self {
        PyValue::Str(v.to_owned())
    }
}

impl From<Vec<u8>> for PyValue {
    fn from(v: Vec<u8>) -> Self {
        PyValue::Bytes(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(PyValue::Int(3).as_int().unwrap(), 3);
        assert_eq!(PyValue::from(2.5).as_float().unwrap(), 2.5);
        assert!(PyValue::None.is_none());
        let err = PyValue::Int(1).as_str().unwrap_err();
        assert!(err.to_string().contains("expected Str"));
    }

    #[test]
    fn list_nesting() {
        let v = PyValue::List(vec![PyValue::Int(1), PyValue::None]);
        assert_eq!(v.as_list().unwrap().len(), 2);
    }
}
