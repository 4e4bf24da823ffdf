//! # ksa-json — minimal JSON for corpus and result persistence
//!
//! The workspace needs JSON in exactly three places: sharing a generated
//! corpus across environments, round-tripping programs in tests, and the
//! harness's partial-result persistence. None of that needs derive
//! machinery — a small tree model ([`Value`]), a recursive-descent parser
//! ([`parse`]) and a compact writer ([`Value::render`]) cover it without
//! external dependencies (the build environment has no registry access).
//!
//! Numbers are kept as `f64` plus a lossless `u64` fast path: simulation
//! identifiers (seeds, block ids) exceed 2^53, so integers that fit in
//! `u64` are stored and re-rendered exactly.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer that fits `u64`, preserved exactly.
    UInt(u64),
    /// An integer that fits `i64` (negative), preserved exactly.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. `BTreeMap` keeps rendering deterministic.
    Object(BTreeMap<String, Value>),
}

/// Parse or access error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    /// Byte offset of the error in the input (parse errors only).
    pub offset: usize,
}

impl Error {
    fn new(msg: impl Into<String>, offset: usize) -> Self {
        Error {
            msg: msg.into(),
            offset,
        }
    }

    /// An access error not tied to an input position.
    pub fn shape(msg: impl Into<String>) -> Self {
        Error {
            msg: msg.into(),
            offset: 0,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.msg, self.offset)
    }
}

impl std::error::Error for Error {}

impl Value {
    /// Object constructor from key/value pairs.
    pub fn object(pairs: impl IntoIterator<Item = (impl Into<String>, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Array constructor.
    pub fn array(items: impl IntoIterator<Item = Value>) -> Value {
        Value::Array(items.into_iter().collect())
    }

    /// String constructor.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    // ---- typed accessors -------------------------------------------------

    /// Field of an object, or an error naming the missing key.
    pub fn get(&self, key: &str) -> Result<&Value, Error> {
        match self {
            Value::Object(m) => m
                .get(key)
                .ok_or_else(|| Error::shape(format!("missing key `{key}`"))),
            _ => Err(Error::shape(format!("expected object with key `{key}`"))),
        }
    }

    /// Optional field of an object (`None` when absent or the value is null).
    pub fn opt(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key).filter(|v| !matches!(v, Value::Null)),
            _ => None,
        }
    }

    /// The value as `u64`.
    pub fn as_u64(&self) -> Result<u64, Error> {
        match *self {
            Value::UInt(u) => Ok(u),
            Value::Int(i) if i >= 0 => Ok(i as u64),
            Value::Float(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => Ok(f as u64),
            _ => Err(Error::shape(format!("expected u64, got {self:?}"))),
        }
    }

    /// The value as `i64`.
    pub fn as_i64(&self) -> Result<i64, Error> {
        match *self {
            Value::Int(i) => Ok(i),
            Value::UInt(u) if u <= i64::MAX as u64 => Ok(u as i64),
            Value::Float(f) if f.fract() == 0.0 && f.abs() <= i64::MAX as f64 => Ok(f as i64),
            _ => Err(Error::shape(format!("expected i64, got {self:?}"))),
        }
    }

    /// The value as `usize`.
    pub fn as_usize(&self) -> Result<usize, Error> {
        Ok(self.as_u64()? as usize)
    }

    /// The value as `f64` (integers widen).
    pub fn as_f64(&self) -> Result<f64, Error> {
        match *self {
            Value::Float(f) => Ok(f),
            Value::UInt(u) => Ok(u as f64),
            Value::Int(i) => Ok(i as f64),
            _ => Err(Error::shape(format!("expected number, got {self:?}"))),
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Result<bool, Error> {
        match *self {
            Value::Bool(b) => Ok(b),
            _ => Err(Error::shape(format!("expected bool, got {self:?}"))),
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Result<&str, Error> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(Error::shape(format!("expected string, got {self:?}"))),
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Result<&[Value], Error> {
        match self {
            Value::Array(a) => Ok(a),
            _ => Err(Error::shape(format!("expected array, got {self:?}"))),
        }
    }

    // ---- rendering -------------------------------------------------------

    /// Compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::UInt(u) => out.push_str(&u.to_string()),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Float(f) => {
                if f.is_finite() {
                    out.push_str(&format!("{f:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<u64> for Value {
    fn from(u: u64) -> Value {
        Value::UInt(u)
    }
}

impl From<usize> for Value {
    fn from(u: usize) -> Value {
        Value::UInt(u as u64)
    }
}

impl From<u32> for Value {
    fn from(u: u32) -> Value {
        Value::UInt(u as u64)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        if i >= 0 {
            Value::UInt(i as u64)
        } else {
            Value::Int(i)
        }
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
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

/// Appends `s` to `out` as a quoted JSON string literal: `"` and `\`
/// are backslash-escaped, `\n`, `\r` and `\t` use their short escapes,
/// and every other control character below U+0020 becomes `\u00XX`.
/// [`Value::render`] writes every string and key through it, so a
/// streaming writer that calls it produces the same bytes.
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`parse`] accepts (serde_json's default
/// recursion limit). The parser recurses once per level, so without a
/// bound a document of a few thousand `[` overflows the stack and aborts
/// the process instead of returning an [`Error`].
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document, requiring the input be fully consumed.
/// Nesting deeper than [`MAX_DEPTH`] is an error.
pub fn parse(input: &str) -> Result<Value, Error> {
    let mut p = Parser {
        src: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(Error::new("trailing characters after document", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    /// Byte offset of the next unread byte. Only whole chars or ASCII
    /// bytes are ever consumed, so it always lies on a char boundary.
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.src.as_bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!("expected `{}`", b as char), self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(Error::new(
                format!("unexpected byte `{}`", b as char),
                self.pos,
            )),
            None => Err(Error::new("unexpected end of input", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::new(format!("expected `{word}`"), self.pos))
        }
    }

    /// Parses one array or object with `f`, one level deeper.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(
                format!("nesting deeper than {MAX_DEPTH}"),
                self.pos,
            ));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
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
                _ => return Err(Error::new("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(Error::new("expected `,` or `}`", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(Error::new("unterminated string", start)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape", start))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::new("bad \\u escape", start))?;
                            // Surrogate pairs are not needed for our data
                            // (block names and syscall names are ASCII);
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(Error::new("bad escape", start)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash. Both
                    // are ASCII, so the run ends on a char boundary.
                    let rest = &self.src[self.pos..];
                    let len = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..len]);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.src[start..self.pos];
        if !float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("invalid number `{text}`"), start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "18446744073709551615", "-42"] {
            let v = parse(text).unwrap();
            assert_eq!(v.render(), text);
        }
        let v = parse("1.5").unwrap();
        assert_eq!(v.as_f64().unwrap(), 1.5);
    }

    #[test]
    fn roundtrip_structures() {
        let text = r#"{"a":[1,2,3],"b":{"c":"hi\n","d":null},"e":true}"#;
        let v = parse(text).unwrap();
        let rendered = v.render();
        assert_eq!(parse(&rendered).unwrap(), v);
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str().unwrap(),
            "hi\n"
        );
    }

    #[test]
    fn big_u64_is_lossless() {
        let n = u64::MAX - 3;
        let v = Value::from(n);
        assert_eq!(parse(&v.render()).unwrap().as_u64().unwrap(), n);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse(r#"{"a"}"#).is_err());
        let v = parse("[1]").unwrap();
        assert!(v.get("x").is_err());
        assert!(v.as_str().is_err());
    }

    #[test]
    fn long_and_multibyte_strings_roundtrip() {
        // Each unescaped char used to re-validate the rest of the input,
        // which made this 4 MiB literal take minutes to parse.
        let long = "abcdefgh".repeat(512 * 1024);
        let v = Value::array([Value::str(long.clone()), Value::from(7u64)]);
        assert_eq!(parse(&v.render()).unwrap(), v);

        let mixed = "é😀中文\"\\\n\u{1}x";
        let v = Value::object([(mixed, Value::str(mixed.repeat(3)))]);
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(parse(&text).unwrap().render(), text);
        assert_eq!(parse(r#""\u00e9\u4e2d""#).unwrap().as_str().unwrap(), "é中");
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(parse(&deep("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&deep(r#"{"k":"#, "}", MAX_DEPTH - 1).replace(":}", ":{}}")).is_ok());
        for text in [
            deep("[", "]", MAX_DEPTH + 1),
            deep(r#"{"k":"#, "}", MAX_DEPTH).replace(":}", ":{}}"),
            "[".repeat(50_000),
            r#"{"k":"#.repeat(50_000),
        ] {
            let err = parse(&text).unwrap_err();
            assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        }
        let err = parse(&("[".repeat(MAX_DEPTH) + "[1]" + &"]".repeat(MAX_DEPTH))).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "offset of the first too-deep `[`");
    }

    #[test]
    fn object_rendering_is_deterministic() {
        let a = Value::object([("z", Value::from(1u64)), ("a", Value::from(2u64))]);
        assert_eq!(a.render(), r#"{"a":2,"z":1}"#);
    }
}
