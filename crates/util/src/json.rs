//! A minimal JSON value type, writer and parser.
//!
//! Covers exactly the I/O surface this workspace needs — profile
//! tables, benchmark reports (`BENCH_*.json`) and similar small
//! machine-readable artifacts. Numbers are `f64` throughout (JSON has
//! no integer type either); strings support the standard escapes plus
//! `\uXXXX` (surrogate pairs included).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A JSON value.
///
/// Objects use a [`BTreeMap`] so serialization order is deterministic —
/// important for byte-stable `BENCH_*.json` artifacts and diffs.
///
/// # Example
///
/// ```
/// use asgov_util::Json;
///
/// let mut obj = Json::object();
/// obj.set("name", Json::from("two_point"));
/// obj.set("median_ns", Json::from(1250.0));
/// let text = obj.to_string();
/// let back = Json::parse(&text).unwrap();
/// assert_eq!(back.get("median_ns").and_then(Json::as_f64), Some(1250.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always an `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with deterministic (sorted) key order.
    Obj(BTreeMap<String, Json>),
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// An empty object.
    pub fn object() -> Self {
        Json::Obj(BTreeMap::new())
    }

    /// Insert `key` into an object (no-op with a debug panic otherwise).
    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        match self {
            Json::Obj(map) => {
                map.insert(key.to_string(), value.into());
            }
            other => debug_assert!(false, "set on non-object {other:?}"),
        }
    }

    /// Member of an object, if this is an object and the key exists.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// Element of an array, if this is an array and in range.
    pub fn at(&self, idx: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(idx),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize with two-space indentation and a trailing newline
    /// (the format of the repo's `BENCH_*.json` artifacts).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_number(out, *v),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items.len(), |out, i, ind| {
                // asgov-analyze: allow(hot-path-transitive): write_seq hands the closure indices drawn from 0..len it was given
                items[i].write(out, ind);
            }),
            Json::Obj(map) => {
                let entries: Vec<(&String, &Json)> = map.iter().collect();
                write_seq(out, indent, '{', '}', entries.len(), |out, i, ind| {
                    let (k, v) = entries[i];
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, ind);
                });
            }
        }
    }

    /// Parse a JSON document (one value with optional surrounding
    /// whitespace).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset on malformed input,
    /// including arrays and objects nested more than [`MAX_NESTING`]
    /// levels deep (the parser recurses per level, so unbounded nesting
    /// would overflow the stack).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::at(pos, "trailing characters"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

fn write_number(out: &mut String, v: f64) {
    // asgov-analyze: allow(float-eq): exact integrality test picks the integer spelling, not a tolerance comparison
    let integral = v == v.trunc();
    if !v.is_finite() {
        // JSON cannot express non-finite numbers; null is the least
        // surprising degradation for diagnostic artifacts.
        out.push_str("null");
    } else if integral && v.abs() < 1e15 {
        out.push_str(&format!("{}", v as i64));
    } else {
        // Shortest representation that round-trips.
        out.push_str(&format!("{v}"));
    }
}

fn write_string(out: &mut String, s: &str) {
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

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|d| d + 1);
    for i in 0..len {
        if let Some(d) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(d));
        }
        item(out, i, inner);
        if i + 1 < len {
            out.push(',');
        }
    }
    if let Some(d) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
    out.push(close);
}

/// Error parsing a JSON document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl JsonError {
    fn at(offset: usize, message: &'static str) -> Self {
        Self { offset, message }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    // asgov-analyze: allow(hot-path-transitive): the index is guarded by *pos < bytes.len() in the same && chain
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts.
pub const MAX_NESTING: usize = 128;

/// Parse one value enclosed in `depth` arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    if depth >= MAX_NESTING && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(JsonError::at(*pos, "nesting too deep"));
    }
    match bytes.get(*pos) {
        None => Err(JsonError::at(*pos, "unexpected end of input")),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(JsonError::at(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(JsonError::at(*pos, "expected ':'"));
                }
                *pos += 1;
                map.insert(key, parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(JsonError::at(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    // asgov-analyze: allow(hot-path-transitive): parse_value dispatches here only after bytes.get(*pos) matched, so *pos < len and the open range cannot panic
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(JsonError::at(*pos, "invalid literal"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
    ) {
        *pos += 1;
    }
    // asgov-analyze: allow(hot-path-transitive): start <= *pos <= len — *pos only advances one byte at a time while bytes.get(*pos) is Some
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or(JsonError::at(start, "invalid number"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(JsonError::at(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::at(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hi = parse_hex4(bytes, pos)?;
                        let code = if (0xd800..0xdc00).contains(&hi) {
                            // Surrogate pair: expect \uXXXX low half.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err(JsonError::at(*pos, "lone high surrogate"));
                            }
                            *pos += 2;
                            let lo = parse_hex4(bytes, pos)?;
                            if !(0xdc00..0xe000).contains(&lo) {
                                return Err(JsonError::at(*pos, "invalid low surrogate"));
                            }
                            0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code).ok_or(JsonError::at(*pos, "invalid codepoint"))?,
                        );
                    }
                    _ => return Err(JsonError::at(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy one UTF-8 scalar (multi-byte sequences intact).
                // asgov-analyze: allow(hot-path-transitive): this arm runs only when bytes.get(*pos) is Some, so *pos < len; the unwrap below reads the first char of a non-empty str validated by from_utf8
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| JsonError::at(*pos, "invalid UTF-8"))?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let start = *pos + 1;
    let end = start + 4;
    if end > bytes.len() {
        return Err(JsonError::at(*pos, "truncated \\u escape"));
    }
    // asgov-analyze: allow(hot-path-transitive): end > bytes.len() already returned an error above, and start < end by construction
    let s = std::str::from_utf8(&bytes[start..end]).map_err(|_| JsonError::at(start, "bad hex"))?;
    let v = u32::from_str_radix(s, 16).map_err(|_| JsonError::at(start, "bad hex"))?;
    *pos = end - 1;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let mut inner = Json::object();
        inner.set("pi", Json::from(std::f64::consts::PI));
        inner.set("neg", Json::from(-42.0));
        inner.set("flag", Json::from(true));
        let mut doc = Json::object();
        doc.set("name", Json::from("bench \"quoted\" \\ path\nline"));
        doc.set("items", Json::from(vec![1.0, 2.5, -0.125]));
        doc.set("nested", inner);
        doc.set("nothing", Json::Null);

        for text in [doc.to_string(), doc.to_pretty()] {
            let back = Json::parse(&text).unwrap();
            assert_eq!(back, doc, "failed on {text}");
        }
    }

    #[test]
    fn object_keys_are_sorted_deterministically() {
        let mut doc = Json::object();
        doc.set("zeta", Json::from(1.0));
        doc.set("alpha", Json::from(2.0));
        let text = doc.to_string();
        assert!(text.find("alpha").unwrap() < text.find("zeta").unwrap());
        assert_eq!(text, r#"{"alpha":2,"zeta":1}"#);
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for v in [0.0, -0.0, 1.5e-9, 6.02214076e23, 123456789.0, -2.5] {
            let text = Json::from(v).to_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back, v, "via {text}");
        }
        // Non-finite degrades to null rather than emitting invalid JSON.
        assert_eq!(Json::from(f64::NAN).to_string(), "null");
    }

    #[test]
    fn non_finite_numbers_serialize_as_null_and_round_trip() {
        // JSON has no NaN/Infinity literals; per the workspace policy
        // (DESIGN.md §8) every non-finite number is written as `null`,
        // and reading it back yields `Json::Null` — never a parse error.
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::from(v).to_string(), "null");
            assert_eq!(Json::parse(&Json::from(v).to_string()).unwrap(), Json::Null);
        }
        // Nested occurrences degrade the same way and the document
        // stays parseable in both compact and pretty forms.
        let mut doc = Json::object();
        doc.set("ok", Json::from(1.5));
        doc.set("bad", Json::from(f64::INFINITY));
        doc.set("items", Json::from(vec![0.25, f64::NAN, -4.0]));
        for text in [doc.to_string(), doc.to_pretty()] {
            let back = Json::parse(&text).unwrap();
            assert_eq!(back.get("ok").and_then(Json::as_f64), Some(1.5));
            assert_eq!(back.get("bad"), Some(&Json::Null));
            assert_eq!(back.get("items").and_then(|a| a.at(1)), Some(&Json::Null));
            assert_eq!(
                back.get("items")
                    .and_then(|a| a.at(2))
                    .and_then(Json::as_f64),
                Some(-4.0)
            );
        }
    }

    #[test]
    fn parses_unicode_escapes() {
        // Literal UTF-8 passes through; \u escapes (incl. a surrogate
        // pair) decode to the same scalars.
        let j = Json::parse(r#""é 😀""#).unwrap();
        assert_eq!(j.as_str(), Some("é 😀"));
        let j = Json::parse("\"\\u00e9 \\ud83d\\ude00\"").unwrap();
        assert_eq!(j.as_str(), Some("é 😀"));
    }

    #[test]
    fn accessors_navigate() {
        let doc = Json::parse(r#"{"a": [1, {"b": "x"}], "ok": false}"#).unwrap();
        assert_eq!(
            doc.get("a").and_then(|a| a.at(0)).and_then(Json::as_f64),
            Some(1.0)
        );
        assert_eq!(
            doc.get("a")
                .and_then(|a| a.at(1))
                .and_then(|o| o.get("b"))
                .and_then(Json::as_str),
            Some("x")
        );
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(1_000_000);
        let err = Json::parse(&deep).unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        assert_eq!(err.offset, MAX_NESTING);
        let objects = r#"{"a":"#.repeat(MAX_NESTING + 1);
        assert_eq!(
            Json::parse(&objects).unwrap_err().message,
            "nesting too deep"
        );
        // Exactly MAX_NESTING levels still parse.
        let ok = format!("{}{}", "[".repeat(MAX_NESTING), "]".repeat(MAX_NESTING));
        let mut v = &Json::parse(&ok).unwrap();
        for _ in 1..MAX_NESTING {
            v = &v.as_array().unwrap()[0];
        }
        assert_eq!(v, &Json::Arr(Vec::new()));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
