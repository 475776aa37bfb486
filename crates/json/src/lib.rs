//! # toss-json — dependency-free JSON for the TOSS persistence layers
//!
//! The snapshot store (`toss-xmldb`), SEO persistence (`toss-ontology`) and
//! the benchmark result writer all speak JSON. This crate supplies the
//! shared value model, a strict parser with byte-offset errors, and compact
//! and pretty writers — with no external dependencies, so the workspace
//! builds in fully offline environments.
//!
//! Object key order is preserved (insertion order), which keeps snapshot
//! bytes deterministic — a property the checksummed snapshot format in
//! `toss-xmldb` relies on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fractional part or exponent.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; key order is preserved.
    Object(Vec<(String, Value)>),
}

/// A parse error: byte offset plus description.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset in the input where the problem was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Result alias for JSON operations.
pub type JsonResult<T> = Result<T, JsonError>;

impl Value {
    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(input: &str) -> JsonResult<Value> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Compact serialization.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization (two-space indent).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Float(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    // JSON has no NaN/Infinity; null is the least-bad option.
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1)
                })
            }
            Value::Object(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
                    write_escaped(out, &fields[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    fields[i].1.write(out, indent, depth + 1)
                })
            }
        }
    }

    /// The contained string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The contained integer, if this is a number representable as `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < i64::MAX as f64 => Some(*f as i64),
            _ => None,
        }
    }

    /// The contained number as `usize`, if non-negative.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_i64().and_then(|i| usize::try_from(i).ok())
    }

    /// The contained number as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The contained boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The contained array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The contained object's fields.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(f) => Some(f),
            _ => None,
        }
    }

    /// Look up a field of an object by key (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Build an object from key/value pairs.
    pub fn object(fields: Vec<(&str, Value)>) -> Value {
        Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    n: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    for i in 0..n {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        item(out, i);
    }
    if n > 0 {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * depth));
        }
    }
    out.push(close);
}

/// Append `s` to `out` as a JSON string literal, quotes included — the
/// one escaping rule behind [`Value::to_json`], public so writers that
/// stream JSON without building a [`Value`] emit identical bytes.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Everything that needs escaping is ASCII, so unescaped runs are
    // copied as whole slices and every cut lands on a char boundary.
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[start..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> JsonResult<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> JsonResult<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> JsonResult<Value> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> JsonResult<Value> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> JsonResult<Value> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> JsonResult<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // fast path: run of plain bytes
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // surrogate pair
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> JsonResult<u32> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit in \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> JsonResult<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err(format!("invalid number `{text}`")))
        } else {
            // fall back to float on i64 overflow
            text.parse::<i64>().map(Value::Int).or_else(|_| {
                text.parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| self.err(format!("invalid number `{text}`")))
            })
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
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

impl From<u32> for Value {
    fn from(i: u32) -> Value {
        Value::Int(i as i64)
    }
}

impl From<u64> for Value {
    fn from(i: u64) -> Value {
        Value::Int(i as i64)
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Value {
        Value::Int(i as i64)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("false").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("42").unwrap(), Value::Int(42));
        assert_eq!(Value::parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(Value::parse("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(Value::parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(Value::parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_structures() {
        let v = Value::parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[1].as_i64(), Some(2));
        assert_eq!(arr[2].get("b"), Some(&Value::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "a\"b\\c\nd\te\u{8}\u{c}\r π 漢 \u{1F600}";
        let v = Value::Str(s.to_string());
        let json = v.to_json();
        assert_eq!(Value::parse(&json).unwrap(), v);
        // explicit surrogate pair decodes
        assert_eq!(
            Value::parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("\u{1F600}")
        );
    }

    #[test]
    fn every_control_character_escapes_and_round_trips() {
        let s: String = (0u32..0x80)
            .chain([0xe9, 0x6f22, 0x1f600])
            .filter_map(char::from_u32)
            .collect();
        let mut out = String::new();
        write_escaped(&mut out, &s);
        assert!(out.starts_with(r#""\u0000\u0001"#), "{out}");
        assert!(out.contains(r#"\b\t\n\u000b\f\r\u000e"#), "{out}");
        assert!(out.contains(r##" !\"#"##) && out.contains(r#"[\\]"#), "{out}");
        assert!(out.ends_with("\u{7f}é漢\u{1F600}\""), "{out}");
        assert_eq!(Value::parse(&out).unwrap(), Value::Str(s));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "\"\\x\"", "\"", "01a", "1 2",
            "{\"a\":1,}",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn errors_carry_offsets() {
        let e = Value::parse("[1, @]").unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("byte 4"));
    }

    #[test]
    fn compact_and_pretty_round_trip() {
        let v = Value::object(vec![
            ("name", "dblp".into()),
            ("n", 3usize.into()),
            ("eps", 2.5.into()),
            ("tags", vec!["a", "b"].into()),
            ("nested", Value::object(vec![("empty", Value::Array(vec![]))])),
        ]);
        for json in [v.to_json(), v.to_json_pretty()] {
            assert_eq!(Value::parse(&json).unwrap(), v);
        }
        assert_eq!(
            v.to_json(),
            r#"{"name":"dblp","n":3,"eps":2.5,"tags":["a","b"],"nested":{"empty":[]}}"#
        );
    }

    #[test]
    fn key_order_is_preserved() {
        let json = r#"{"z":1,"a":2,"m":3}"#;
        let v = Value::parse(json).unwrap();
        assert_eq!(v.to_json(), json);
    }

    #[test]
    fn big_integers_fall_back_to_float() {
        let v = Value::parse("99999999999999999999").unwrap();
        assert!(matches!(v, Value::Float(_)));
    }

    #[test]
    fn nonfinite_floats_serialize_as_null() {
        assert_eq!(Value::Float(f64::NAN).to_json(), "null");
        assert_eq!(Value::Float(f64::INFINITY).to_json(), "null");
    }
}
