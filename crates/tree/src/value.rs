//! Attribute values.
//!
//! The content of an object is a value from a small closed enum: the
//! paper's model only needs strings, integers and reals. Unit-bearing
//! quantities (e.g. `mm`, `USD`) are numeric payloads whose type name lives
//! in `toss-core`'s type hierarchy, where conversion functions
//! reinterpret them.

use std::fmt;

/// An attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A UTF-8 string (the dominant case in XML content).
    Str(String),
    /// A 64-bit integer (years, page numbers, …).
    Int(i64),
    /// A 64-bit float (unit-bearing quantities after conversion).
    Real(f64),
}

impl Value {
    /// View the value as a float (integers widen losslessly).
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Real(r) => Some(*r),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Render the value the way it would appear as XML text content.
    pub fn render(&self) -> String {
        self.to_string()
    }

    /// Parse text content into the "most specific" value: integer, then
    /// real, then string. A number is kept only when it renders back to
    /// exactly `text`, so loading and re-serializing a document never
    /// rewrites its content (`007`, `1.0`, `+5` and `1e3` stay strings,
    /// and so compare as strings, not numbers).
    pub fn parse_lexical(text: &str) -> Value {
        if let Ok(i) = text.parse::<i64>() {
            if displays_as(i, text) {
                return Value::Int(i);
            }
        }
        if let Ok(r) = text.parse::<f64>() {
            if r.is_finite() && displays_as(r, text) {
                return Value::Real(r);
            }
        }
        Value::Str(text.to_string())
    }
}

/// Whether `n` displays as exactly `text`, compared piece by piece as
/// the formatter writes so that no `String` is built.
pub(crate) fn displays_as(n: impl fmt::Display, text: &str) -> bool {
    struct Rest<'a>(&'a str);
    impl fmt::Write for Rest<'_> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 = self.0.strip_prefix(s).ok_or(fmt::Error)?;
            Ok(())
        }
    }
    let mut rest = Rest(text);
    fmt::write(&mut rest, format_args!("{n}")).is_ok() && rest.0.is_empty()
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => f.write_str(s),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(r: f64) -> Self {
        Value::Real(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_lexical_prefers_int() {
        assert_eq!(Value::parse_lexical("1999"), Value::Int(1999));
        assert_eq!(Value::parse_lexical("-42"), Value::Int(-42));
    }

    #[test]
    fn parse_lexical_falls_back_to_real_then_string() {
        assert_eq!(Value::parse_lexical("3.5"), Value::Real(3.5));
        assert_eq!(
            Value::parse_lexical("SIGMOD Conference"),
            Value::Str("SIGMOD Conference".into())
        );
        // a number that would not render back to its text stays text
        for text in ["007", "1.0", "+5", "1e3", "-0.50", " 42 ", "0x10"] {
            assert_eq!(
                Value::parse_lexical(text),
                Value::Str(text.into()),
                "{text}"
            );
        }
        // `-0` is not a canonical integer, but it is the canonical real -0.0
        assert_eq!(Value::parse_lexical("-0").render(), "-0");
        // the check compares with the full rendering, however long
        assert_eq!(Value::parse_lexical("1e2"), Value::Str("1e2".into()));
        let long = format!("1{}", "0".repeat(40));
        assert_eq!(Value::parse_lexical(&long), Value::Real(1e40));
    }

    #[test]
    fn parse_lexical_rejects_nonfinite_reals() {
        // "inf" parses as f64 infinity; we keep it a string.
        assert_eq!(Value::parse_lexical("inf"), Value::Str("inf".into()));
        assert_eq!(Value::parse_lexical("NaN"), Value::Str("NaN".into()));
    }

    #[test]
    fn display_round_trips_ints() {
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::Str("x".into()).to_string(), "x");
    }
}
