//! # toss-json — dependency-free JSON for the TOSS persistence layers
//!
//! The snapshot store (`toss-xmldb`), SEO persistence (`toss-ontology`) and
//! the benchmark result writer all speak JSON. This crate supplies the
//! shared value model, a strict parser with byte-offset errors, and compact
//! and pretty writers — with no external dependencies, so the workspace
//! builds in fully offline environments.
//!
//! One grammar builds two kinds of value. [`Value`] owns its strings.
//! [`Borrowed`] keeps each string as the [`RawStr`] literal it was
//! written as, checked but not unescaped, so a reader that needs only
//! part of a large document (the store's snapshot) copies none of the
//! rest. Both reject the same texts with the same [`JsonError`].
//!
//! Object key order is preserved (insertion order), which keeps snapshot
//! bytes deterministic — a property the checksummed snapshot format in
//! `toss-xmldb` relies on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::fmt::Write as _;

/// A JSON value whose strings are `S`: [`Value`] owns them, [`Borrowed`]
/// points into the parsed text.
#[derive(Debug, Clone, PartialEq)]
pub enum Json<S> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fractional part or exponent.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(S),
    /// An array.
    Array(Vec<Json<S>>),
    /// An object; key order is preserved.
    Object(Vec<(S, Json<S>)>),
}

/// A JSON value that owns its strings.
pub type Value = Json<String>;

/// A JSON value borrowed from the text it was parsed from: every string
/// is the [`RawStr`] literal as written.
pub type Borrowed<'a> = Json<RawStr<'a>>;

/// The text of a string literal between its quotes, exactly as written.
/// The parser has checked every escape in it, so decoding cannot fail.
#[derive(Debug, Clone, Copy)]
pub struct RawStr<'a>(&'a str);

/// A parse error: byte offset plus description.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset in the input where the problem was detected.
    offset: usize,
    /// Human-readable description.
    message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Result alias for JSON operations.
type JsonResult<T> = Result<T, JsonError>;

/// A string a [`Json`] value can hold: compared with plain text, and
/// written back as a JSON literal.
pub trait JsonStr {
    /// Whether the string is `s`.
    fn is(&self, s: &str) -> bool;
    /// Append the string to `out` as [`write_escaped`] would.
    fn write_json(&self, out: &mut String);
}

impl JsonStr for String {
    fn is(&self, s: &str) -> bool {
        self == s
    }

    fn write_json(&self, out: &mut String) {
        write_escaped(out, self)
    }
}

impl JsonStr for RawStr<'_> {
    fn is(&self, s: &str) -> bool {
        match self.unescaped() {
            Some(text) => text == s,
            None => self.decode() == s,
        }
    }

    fn write_json(&self, out: &mut String) {
        write_escaped(out, &self.decode())
    }
}

impl<'a> RawStr<'a> {
    /// The literal's text when it has no escapes, which is then the
    /// string itself.
    fn unescaped(&self) -> Option<&'a str> {
        (!self.0.contains('\\')).then_some(self.0)
    }

    /// The string: the literal itself when it has no escapes, else its
    /// decoding written into `buf` (cleared first).
    pub fn text<'b>(&self, buf: &'b mut String) -> &'b str
    where
        'a: 'b,
    {
        match self.unescaped() {
            Some(text) => text,
            None => {
                buf.clear();
                self.unescape_into(buf);
                buf
            }
        }
    }

    /// The decoded string.
    pub fn decode(&self) -> String {
        let mut out = String::with_capacity(self.0.len());
        self.unescape_into(&mut out);
        out
    }

    /// Append the decoded string to `out`.
    fn unescape_into(&self, out: &mut String) {
        let mut rest = self.0;
        while let Some(i) = rest.find('\\') {
            out.push_str(&rest[..i]);
            let esc = rest.as_bytes()[i + 1];
            rest = &rest[i + 2..];
            let ch = match esc {
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let hi = u32::from_str_radix(&rest[..4], 16).unwrap_or(0);
                    rest = &rest[4..];
                    let cp = if (0xD800..0xDC00).contains(&hi) {
                        // the parser checked the `\u` of the low half
                        let lo = u32::from_str_radix(&rest[2..6], 16).unwrap_or(0);
                        rest = &rest[6..];
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        hi
                    };
                    char::from_u32(cp).unwrap_or(char::REPLACEMENT_CHARACTER)
                }
                // `"`, `\` and `/` stand for themselves
                other => char::from(other),
            };
            out.push(ch);
        }
        out.push_str(rest);
    }
}

impl Value {
    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(input: &str) -> JsonResult<Value> {
        parse(input)
    }

    /// The contained string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Build an object from key/value pairs.
    pub fn object(fields: Vec<(&str, Value)>) -> Value {
        Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

impl<'a> Borrowed<'a> {
    /// Parse a complete JSON document (trailing whitespace allowed),
    /// keeping its strings as literals in `input`. Accepts and rejects
    /// exactly what [`Value::parse`] does, with the same error.
    pub fn parse(input: &'a str) -> JsonResult<Borrowed<'a>> {
        parse(input)
    }

    /// The contained string literal, if this is a string.
    pub fn as_str(&self) -> Option<RawStr<'a>> {
        match self {
            Json::Str(s) => Some(*s),
            _ => None,
        }
    }
}

impl<S> Json<S> {
    /// The contained integer, if this is a number representable as `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Float(f) if f.fract() == 0.0 && f.abs() < i64::MAX as f64 => Some(*f as i64),
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
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The contained array.
    pub fn as_array(&self) -> Option<&[Json<S>]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The contained object's fields.
    pub fn as_object(&self) -> Option<&[(S, Json<S>)]> {
        match self {
            Json::Object(f) => Some(f),
            _ => None,
        }
    }
}

impl<S: JsonStr> Json<S> {
    /// Look up a field of an object by key (first match).
    pub fn get(&self, key: &str) -> Option<&Json<S>> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k.is(key))
            .map(|(_, v)| v)
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
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    // JSON has no NaN/Infinity; null is the least-bad option.
                    out.push_str("null");
                }
            }
            Json::Str(s) => s.write_json(out),
            Json::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1)
                })
            }
            Json::Object(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
                    fields[i].0.write_json(out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    fields[i].1.write(out, indent, depth + 1)
                })
            }
        }
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
/// one escaping rule behind [`Json::to_json`], public so writers that
/// stream JSON without building a [`Value`] emit identical bytes.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Everything that needs escaping is ASCII, so the plain runs between
    // escapes are copied as whole slices, every cut on a char boundary,
    // and found by the reader's eight-bytes-at-a-time scan.
    let bytes = s.as_bytes();
    let mut start = 0;
    loop {
        let end = plain_run_end(bytes, start);
        out.push_str(&s[start..end]);
        let Some(&b) = bytes.get(end) else { break };
        out.push_str(match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            _ => CONTROL_ESCAPES[usize::from(b)],
        });
        start = end + 1;
    }
    out.push('"');
}

/// How [`write_escaped`] writes each control character: the short form
/// where JSON has one, else `\u00XX`.
const CONTROL_ESCAPES: [&str; 0x20] = [
    "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
    "\\b", "\\t", "\\n", "\\u000b", "\\f", "\\r", "\\u000e", "\\u000f",
    "\\u0010", "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017",
    "\\u0018", "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f",
];

/// How a checked string literal becomes the string of the value being
/// built: decoded into a `String`, or kept as the literal.
trait FromRaw<'a> {
    fn from_raw(raw: RawStr<'a>) -> Self;
}

impl<'a> FromRaw<'a> for String {
    fn from_raw(raw: RawStr<'a>) -> String {
        raw.decode()
    }
}

impl<'a> FromRaw<'a> for RawStr<'a> {
    fn from_raw(raw: RawStr<'a>) -> RawStr<'a> {
        raw
    }
}

/// How deep arrays and objects may nest. Parsing, writing and dropping
/// a value recurse once per level, so a deeper text is refused rather
/// than allowed to overflow the stack; the store's XML parser has the
/// same cap.
const MAX_DEPTH: usize = 256;

/// The one JSON grammar, building a `Json<S>`.
fn parse<'a, S: FromRaw<'a>>(input: &'a str) -> JsonResult<Json<S>> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

/// The end of the run of bytes from `pos` that a string literal holds as
/// written: up to the first `"`, `\` or control character. Eight bytes
/// are checked at a time while none of them ends the run.
fn plain_run_end(bytes: &[u8], mut pos: usize) -> usize {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    // nonzero iff some byte of `x` is below `n` (for n <= 0x80)
    let below = |x: u64, n: u8| x.wrapping_sub(ONES * u64::from(n)) & !x & HIGHS;
    while let Some(chunk) = bytes.get(pos..pos + 8) {
        let x = u64::from_ne_bytes(chunk.try_into().expect("eight bytes"));
        let ends = below(x ^ (ONES * u64::from(b'"')), 1)
            | below(x ^ (ONES * u64::from(b'\\')), 1)
            | below(x, 0x20);
        if ends != 0 {
            break;
        }
        pos += 8;
    }
    while let Some(&b) = bytes.get(pos) {
        if b == b'"' || b == b'\\' || b < 0x20 {
            break;
        }
        pos += 1;
    }
    pos
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
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

    fn literal<S>(&mut self, word: &str, v: Json<S>) -> JsonResult<Json<S>> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value<S: FromRaw<'a>>(&mut self) -> JsonResult<Json<S>> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(|raw| Json::Str(S::from_raw(raw))),
            Some(b'[') => self.seq(b']', "array", Self::value).map(Json::Array),
            Some(b'{') => self.seq(b'}', "object", Self::field).map(Json::Object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// The items of the array or object whose opening bracket is at
    /// `pos`, each parsed by `item`, up to the `close` bracket.
    fn seq<T>(
        &mut self,
        close: u8,
        what: &str,
        mut item: impl FnMut(&mut Self) -> JsonResult<T>,
    ) -> JsonResult<Vec<T>> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            let msg = format!("nesting depth {} exceeds the limit of {MAX_DEPTH}", self.depth);
            return Err(self.err(msg));
        }
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                self.skip_ws();
                items.push(item(self)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => break,
                    _ => {
                        let msg = format!("expected `,` or `{}` in {what}", close as char);
                        return Err(self.err(msg));
                    }
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(items)
    }

    fn field<S: FromRaw<'a>>(&mut self) -> JsonResult<(S, Json<S>)> {
        let key = S::from_raw(self.string()?);
        self.skip_ws();
        self.eat(b':')?;
        self.skip_ws();
        Ok((key, self.value()?))
    }

    /// Check one string literal and return its text between the quotes.
    /// The input is a `str`, and every run ends at an ASCII byte, so the
    /// text needs no UTF-8 check of its own.
    fn string(&mut self) -> JsonResult<RawStr<'a>> {
        self.eat(b'"')?;
        let start = self.pos;
        loop {
            self.pos = plain_run_end(self.bytes, self.pos);
            match self.peek() {
                Some(b'"') => {
                    let raw = RawStr(&self.text[start..self.pos]);
                    self.pos += 1;
                    return Ok(raw);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {}
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
                            if char::from_u32(cp).is_none() {
                                return Err(self.err("invalid unicode escape"));
                            }
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

    fn number<S>(&mut self) -> JsonResult<Json<S>> {
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
        // every byte of the number is ASCII
        let text = &self.text[start..self.pos];
        if float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err(format!("invalid number `{text}`")))
        } else {
            // fall back to float on i64 overflow
            text.parse::<i64>().map(Json::Int).or_else(|_| {
                text.parse::<f64>()
                    .map(Json::Float)
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

    /// The byte-at-a-time escaper `write_escaped` replaced: the oracle
    /// its output must match byte for byte.
    fn write_escaped_bytewise(out: &mut String, s: &str) {
        out.push('"');
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

    /// What the escaper's input is drawn from: every character it must
    /// escape, plain ASCII, and UTF-8 of two, three and four bytes.
    fn escape_pool() -> Vec<char> {
        let mut pool: Vec<char> = (0u8..0x20).map(char::from).collect();
        pool.extend(['"', '\\', '/', 'a', ' ', '~', '\u{7f}', 'é', '漢', '\u{1F600}']);
        pool
    }

    proptest::proptest! {
        #[test]
        fn write_escaped_matches_the_bytewise_escaper_and_decodes_back(
            picks in proptest::collection::vec((0usize..escape_pool().len(), 0usize..24), 0..96),
        ) {
            // runs of plain ASCII between the picked characters, so the
            // scan crosses eight-byte words both inside and across runs
            let pool = escape_pool();
            let mut s = String::new();
            for (pick, run) in picks {
                s.extend(std::iter::repeat_n('x', run));
                s.push(pool[pick]);
            }
            let (mut fast, mut slow) = (String::new(), String::new());
            write_escaped(&mut fast, &s);
            write_escaped_bytewise(&mut slow, &s);
            proptest::prop_assert_eq!(&fast, &slow);
            let decoded = Borrowed::parse(&fast).map_err(|e| e.to_string())?;
            proptest::prop_assert_eq!(decoded.as_str().map(|raw| raw.decode()), Some(s));
        }
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

    /// Texts both parses must treat alike: documents, and the ways a
    /// string literal or its surroundings can be malformed.
    const SAMPLES: [&str; 24] = [
        r#"{"a":[1,-2.5e3,true,null,{"b":"c"}],"d":"\u00e9\/\"\\\b\f\n\r\t"}"#,
        r#"["\ud83d\ude00", "plain text over eight bytes", ""]"#,
        r#"{"k\u0065y": 1, "key": 2}"#,
        "\"\u{7f}\u{80}é漢 and more\"",
        "",
        "\"",
        "\"abc",
        "\"\\",
        "\"\\x\"",
        "\"\\u12\"",
        "\"\\u12g4\"",
        "\"\\ud800\"",
        "\"\\ud800\\u0041\"",
        "\"\\ud800x\"",
        "\"\\udc00\"",
        "\"tab\there\"",
        "\"new\nline\"",
        "\"nul\u{0}\"",
        "[1,]",
        "{\"a\" 1}",
        "{\"a\":1 \"b\":2}",
        "-",
        "1.5.5",
        "[\"eight by\u{1f}\"]",
    ];

    #[test]
    fn borrowed_and_owned_parses_agree() {
        for text in SAMPLES {
            match (Value::parse(text), Borrowed::parse(text)) {
                (Ok(owned), Ok(borrowed)) => {
                    assert_eq!(borrowed.to_json(), owned.to_json(), "{text}");
                    assert_eq!(borrowed.to_json_pretty(), owned.to_json_pretty(), "{text}");
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{text}"),
                (a, b) => panic!("{text}: {a:?} against {b:?}"),
            }
        }
    }

    #[test]
    fn raw_strings_decode_on_demand() {
        let text = r#"{"k\u0065y":"a\/b\"\ud83d\ude00\u00e9","key":"shadowed","plain":"x y"}"#;
        let v = Borrowed::parse(text).unwrap();
        // keys compare decoded, first match wins
        let raw = v.get("key").unwrap().as_str().unwrap();
        assert_eq!(raw.unescaped(), None);
        assert_eq!(raw.decode(), "a/b\"\u{1F600}é");
        let mut buf = String::from("stale");
        assert_eq!(raw.text(&mut buf), "a/b\"\u{1F600}é");
        let plain = v.get("plain").unwrap().as_str().unwrap();
        assert_eq!(plain.unescaped(), Some("x y"));
        assert_eq!(plain.text(&mut buf), "x y");
        let owned = Value::parse(text).unwrap();
        assert_eq!(owned.get("key").unwrap().as_str(), Some("a/b\"\u{1F600}é"));
    }

    #[test]
    fn plain_runs_end_at_every_special_byte() {
        for len in 0..20 {
            for special in [b'"', b'\\', 0x00, 0x1f] {
                let mut bytes = vec![b'a'; len];
                bytes.extend([0x7f, 0x80, 0xff, b' ']);
                let end = bytes.len();
                bytes.push(special);
                bytes.extend([b'z'; 9]);
                assert_eq!(plain_run_end(&bytes, 0), end, "{len} {special}");
                assert_eq!(plain_run_end(&bytes, end), end);
            }
            assert_eq!(plain_run_end(&vec![b'a'; len], 0), len);
        }
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        // a 2 MiB stack, like a server connection thread's
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                for open in ["[", "{\"a\":"] {
                    let deep = open.repeat(100_000);
                    let offset = open.len() * MAX_DEPTH;
                    let message = format!("nesting depth 257 exceeds the limit of {MAX_DEPTH}");
                    let errors = [Value::parse(&deep), Borrowed::parse(&deep).map(|_| Value::Null)];
                    for e in errors.map(Result::unwrap_err) {
                        assert_eq!((e.offset, e.message.as_str()), (offset, message.as_str()));
                    }
                }
                let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
                assert!(Value::parse(&at_cap).is_ok());
                assert!(Borrowed::parse(&at_cap).is_ok());
                assert!(Value::parse(&format!("[{at_cap}]")).is_err());
            })
            .expect("spawn")
            .join()
            .expect("no overflow");
    }

    #[test]
    fn nonfinite_floats_serialize_as_null() {
        assert_eq!(Value::Float(f64::NAN).to_json(), "null");
        assert_eq!(Value::Float(f64::INFINITY).to_json(), "null");
    }
}
