#![warn(missing_docs)]

//! # sorrento-json — minimal JSON tree, parser and writer
//!
//! The workspace needs JSON in three places: namespace/index-segment
//! persistence, the trace crate's JSONL files, and the telemetry
//! exporter's `results/telemetry_*.json`. None of them need serde's
//! generality — they need a small, dependency-free value tree with
//! exact integer round-trips and deterministic output.
//!
//! Design points:
//! * Objects preserve insertion order (a `Vec` of pairs, not a map), so
//!   writers fully control output layout and byte-identical re-encoding.
//! * Integers are kept exact: `U64`/`I64` variants are emitted and
//!   parsed without a float detour; `F64` is used only for true
//!   fractionals and round-trips via Rust's shortest representation.
//! * Parsing is strict on structure but forgiving on whitespace.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Exact unsigned integer.
    U64(u64),
    /// Exact negative integer.
    I64(i64),
    /// Fractional (or out-of-range) number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object: insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// An empty array.
    pub fn arr() -> Json {
        Json::Arr(Vec::new())
    }

    /// Builder-style insert (objects only; panics otherwise).
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.set(key, value);
        self
    }

    /// Insert/replace a key (objects only; panics otherwise).
    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        let Json::Obj(pairs) = self else {
            panic!("Json::set on non-object");
        };
        let value = value.into();
        if let Some(p) = pairs.iter_mut().find(|(k, _)| k == key) {
            p.1 = value;
        } else {
            pairs.push((key.to_owned(), value));
        }
    }

    /// Append to an array (panics on non-arrays).
    pub fn push(&mut self, value: impl Into<Json>) {
        let Json::Arr(items) = self else {
            panic!("Json::push on non-array");
        };
        items.push(value.into());
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` if it is an exact non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(x) => Some(x),
            Json::I64(x) if x >= 0 => Some(x as u64),
            _ => None,
        }
    }

    /// The value as `i64` if integral.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::I64(x) => Some(x),
            Json::U64(x) => i64::try_from(x).ok(),
            _ => None,
        }
    }

    /// The value as `f64` if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(x) => Some(x as f64),
            Json::I64(x) => Some(x as f64),
            Json::F64(x) => Some(x),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object pairs.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Compact single-line encoding.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out);
        out
    }

    /// Two-space-indented multi-line encoding.
    pub fn encode_pretty(&self) -> String {
        let mut out = String::new();
        write_pretty(self, 0, &mut out);
        out.push('\n');
        out
    }

    /// Parse one JSON document (trailing whitespace allowed).
    pub fn parse(src: &str) -> Result<Json, ParseError> {
        let b = src.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(ParseError { at: pos, what: "trailing data" });
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::U64(x)
    }
}

impl From<u32> for Json {
    fn from(x: u32) -> Json {
        Json::U64(x as u64)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::U64(x as u64)
    }
}

impl From<i64> for Json {
    fn from(x: i64) -> Json {
        if x >= 0 {
            Json::U64(x as u64)
        } else {
            Json::I64(x)
        }
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::F64(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

/// A parse failure: byte offset and a static description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub what: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for ParseError {}

// ------------------------------------------------------------------
// Writer
// ------------------------------------------------------------------

fn write_value(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::U64(x) => out.push_str(&x.to_string()),
        Json::I64(x) => out.push_str(&x.to_string()),
        Json::F64(x) => write_f64(*x, out),
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

fn write_pretty(v: &Json, depth: usize, out: &mut String) {
    match v {
        Json::Arr(items) if !items.is_empty() => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i > 0 { ",\n" } else { "\n" });
                indent(depth + 1, out);
                write_pretty(item, depth + 1, out);
            }
            out.push('\n');
            indent(depth, out);
            out.push(']');
        }
        Json::Obj(pairs) if !pairs.is_empty() => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                out.push_str(if i > 0 { ",\n" } else { "\n" });
                indent(depth + 1, out);
                write_string(k, out);
                out.push_str(": ");
                write_pretty(item, depth + 1, out);
            }
            out.push('\n');
            indent(depth, out);
            out.push('}');
        }
        other => write_value(other, out),
    }
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_f64(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf
        return;
    }
    // `{:?}` is Rust's shortest round-trip form; ensure it still looks
    // like a JSON number (it may produce e.g. "1e20", which is fine).
    let s = format!("{x:?}");
    out.push_str(&s);
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    // Runs that need no escaping are copied whole. Only `"`, `\` and
    // control bytes end a run — all ASCII, so never the inside of a
    // multi-byte character.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => out.push_str(&format!("\\u{b:04x}")),
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

// ------------------------------------------------------------------
// Parser
// ------------------------------------------------------------------

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else {
        return Err(ParseError { at: *pos, what: "unexpected end of input" });
    };
    match c {
        b'{' => parse_obj(b, pos),
        b'[' => parse_arr(b, pos),
        b'"' => Ok(Json::Str(parse_string(b, pos)?)),
        b't' => parse_lit(b, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(b, pos, "false", Json::Bool(false)),
        b'n' => parse_lit(b, pos, "null", Json::Null),
        b'-' | b'0'..=b'9' => parse_number(b, pos),
        _ => Err(ParseError { at: *pos, what: "unexpected character" }),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &'static str, v: Json) -> Result<Json, ParseError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(ParseError { at: *pos, what: "invalid literal" })
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    *pos += 1; // '{'
    let mut pairs = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(ParseError { at: *pos, what: "expected object key" });
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(ParseError { at: *pos, what: "expected ':'" });
        }
        *pos += 1;
        let v = parse_value(b, pos)?;
        pairs.push((key, v));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(&b',') => *pos += 1,
            Some(&b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(ParseError { at: *pos, what: "expected ',' or '}'" }),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        let v = parse_value(b, pos)?;
        items.push(v);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(&b',') => *pos += 1,
            Some(&b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(ParseError { at: *pos, what: "expected ',' or ']'" }),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    *pos += 1; // '"'
    let mut out = String::new();
    loop {
        let Some(&c) = b.get(*pos) else {
            return Err(ParseError { at: *pos, what: "unterminated string" });
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&e) = b.get(*pos) else {
                    return Err(ParseError { at: *pos, what: "unterminated escape" });
                };
                *pos += 1;
                match e {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'u' => {
                        let cp = parse_hex4(b, pos)?;
                        // Surrogate pairs: JSON escapes astral chars as two \u.
                        let ch = if (0xD800..0xDC00).contains(&cp) {
                            if b.get(*pos) == Some(&b'\\') && b.get(*pos + 1) == Some(&b'u') {
                                *pos += 2;
                                let lo = parse_hex4(b, pos)?;
                                let combined =
                                    0x10000 + ((cp - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                char::from_u32(combined)
                            } else {
                                None
                            }
                        } else {
                            char::from_u32(cp)
                        };
                        match ch {
                            Some(ch) => out.push(ch),
                            None => {
                                return Err(ParseError { at: *pos, what: "invalid \\u escape" })
                            }
                        }
                    }
                    _ => return Err(ParseError { at: *pos, what: "invalid escape" }),
                }
            }
            c if c < 0x20 => {
                return Err(ParseError { at: *pos - 1, what: "control character in string" })
            }
            c => {
                // Reassemble UTF-8 multibyte sequences.
                if c < 0x80 {
                    out.push(c as char);
                } else {
                    let len = match c {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(ParseError { at: *pos - 1, what: "invalid UTF-8" }),
                    };
                    let start = *pos - 1;
                    let end = start + len;
                    if end > b.len() {
                        return Err(ParseError { at: start, what: "truncated UTF-8" });
                    }
                    match std::str::from_utf8(&b[start..end]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(ParseError { at: start, what: "invalid UTF-8" }),
                    }
                    *pos = end;
                }
            }
        }
    }
}

fn parse_hex4(b: &[u8], pos: &mut usize) -> Result<u32, ParseError> {
    if *pos + 4 > b.len() {
        return Err(ParseError { at: *pos, what: "truncated \\u escape" });
    }
    let s = std::str::from_utf8(&b[*pos..*pos + 4])
        .map_err(|_| ParseError { at: *pos, what: "invalid \\u escape" })?;
    let v = u32::from_str_radix(s, 16)
        .map_err(|_| ParseError { at: *pos, what: "invalid \\u escape" })?;
    *pos += 4;
    Ok(v)
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(b.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    let mut fractional = false;
    if b.get(*pos) == Some(&b'.') {
        fractional = true;
        *pos += 1;
        while matches!(b.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e') | Some(b'E')) {
        fractional = true;
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+') | Some(b'-')) {
            *pos += 1;
        }
        while matches!(b.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    let s = std::str::from_utf8(&b[start..*pos])
        .map_err(|_| ParseError { at: start, what: "invalid number" })?;
    if s.is_empty() || s == "-" {
        return Err(ParseError { at: start, what: "invalid number" });
    }
    if !fractional {
        if let Ok(u) = s.parse::<u64>() {
            return Ok(Json::U64(u));
        }
        if let Ok(i) = s.parse::<i64>() {
            return Ok(Json::I64(i));
        }
    }
    s.parse::<f64>()
        .map(Json::F64)
        .map_err(|_| ParseError { at: start, what: "invalid number" })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_encode() {
        let j = Json::obj()
            .with("name", "fig09")
            .with("n", 3u64)
            .with("neg", -4i64)
            .with("pi", 3.25)
            .with("ok", true)
            .with("none", Json::Null)
            .with("xs", Json::Arr(vec![Json::U64(1), Json::U64(2)]));
        assert_eq!(
            j.encode(),
            r#"{"name":"fig09","n":3,"neg":-4,"pi":3.25,"ok":true,"none":null,"xs":[1,2]}"#
        );
    }

    #[test]
    fn integers_round_trip_exactly() {
        let big = u64::MAX - 1;
        let j = Json::obj().with("v", big);
        let back = Json::parse(&j.encode()).unwrap();
        assert_eq!(back.get("v").unwrap().as_u64(), Some(big));
        let neg = Json::parse("{\"v\":-9007199254740993}").unwrap();
        assert_eq!(neg.get("v").unwrap().as_i64(), Some(-9007199254740993));
    }

    #[test]
    fn parse_round_trip() {
        let src = r#"{"a":[1,2.5,"x",null,true],"b":{"c":"d\ne"}}"#;
        let j = Json::parse(src).unwrap();
        assert_eq!(j.encode(), src);
    }

    #[test]
    fn string_escapes() {
        let j = Json::Str("a\"b\\c\nd\te\u{1}".into());
        let enc = j.encode();
        assert_eq!(enc, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        assert_eq!(Json::parse(&enc).unwrap(), j);
        // Escapes between multi-byte characters leave them whole.
        let j = Json::Str("é\"😀\n\u{1f}ü".into());
        assert_eq!(j.encode(), "\"é\\\"😀\\n\\u001fü\"");
        assert_eq!(Json::parse(&j.encode()).unwrap(), j);
        // Unicode escape forms parse too (incl. surrogate pairs).
        assert_eq!(
            Json::parse(r#""é 😀""#).unwrap(),
            Json::Str("é 😀".into())
        );
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in ["{not json}", "[1,", "\"abc", "{\"a\":}", "01x", "", "nul"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        assert!(Json::parse("[1] trailing").is_err());
    }

    #[test]
    fn set_replaces_and_get_finds() {
        let mut j = Json::obj().with("k", 1u64);
        j.set("k", 2u64);
        assert_eq!(j.get("k").unwrap().as_u64(), Some(2));
        assert!(j.get("missing").is_none());
    }

    #[test]
    fn pretty_encoding_parses_back() {
        let j = Json::obj()
            .with("a", Json::Arr(vec![Json::U64(1)]))
            .with("b", Json::obj().with("c", 2u64))
            .with("empty", Json::obj())
            .with("earr", Json::arr());
        let pretty = j.encode_pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), j);
        assert!(pretty.contains("\n  \"a\": [\n"));
    }

    #[test]
    fn floats_round_trip() {
        for x in [0.1, 1e20, -2.75, 123456.789] {
            let j = Json::F64(x);
            let back = Json::parse(&j.encode()).unwrap();
            assert_eq!(back.as_f64(), Some(x));
        }
        assert_eq!(Json::F64(f64::NAN).encode(), "null");
    }
}
