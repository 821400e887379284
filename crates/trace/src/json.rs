//! A minimal, dependency-free JSON value and emitter.
//!
//! The offline build cannot fetch `serde`, so the experiment manifests
//! (`BENCH_<fig>.json`) are emitted through this hand-rolled tree. Two
//! properties matter more than features here:
//!
//! * **Determinism** — object members keep insertion order and floats
//!   print via Rust's shortest-round-trip formatter, so equal inputs
//!   produce byte-identical text (the suite's determinism regression
//!   test diffs emitter output directly).
//! * **Validity** — strings are escaped per RFC 8259 and non-finite
//!   floats (which JSON cannot represent) are emitted as `null`.

use std::fmt;

/// A JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A float. Non-finite values print as `null`.
    Num(f64),
    /// An unsigned integer (cycles, counters).
    Uint(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep insertion order (deterministic output).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    #[must_use]
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Appends a member to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not [`Json::Obj`].
    pub fn push(&mut self, key: impl Into<String>, value: Json) {
        match self {
            Json::Obj(members) => members.push((key.into(), value)),
            other => panic!("Json::push on non-object {other:?}"),
        }
    }

    /// Parses JSON text into a [`Json`] tree (the inverse of the
    /// emitter — used to re-read manifests and stored campaign payloads).
    /// Unsigned integer literals parse as [`Json::Uint`] so `u64`
    /// counters (cycles, instructions) round-trip exactly; everything
    /// else numeric parses as [`Json::Num`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable message with the byte offset of the
    /// first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser { bytes: text.as_bytes(), pos: 0 };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing data at byte {}", parser.pos));
        }
        Ok(value)
    }

    /// Looks up `key` in an object (`None` for other variants or a
    /// missing key).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is [`Json::Str`].
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `f64` ([`Json::Num`] or [`Json::Uint`]).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Uint(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is [`Json::Uint`].
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Uint(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is [`Json::Bool`].
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is [`Json::Arr`].
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    #[must_use]
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation and a trailing
    /// newline — the format the `BENCH_<fig>.json` manifests use.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn render(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => {
                // Rust's shortest-roundtrip Display is deterministic but
                // prints integral floats without a point; keep them
                // recognisable as floats.
                let text = format!("{x}");
                out.push_str(&text);
                if !text.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            }
            Json::Uint(n) => out.push_str(&n.to_string()),
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                render_seq(out, indent, depth, '[', ']', items.len(), |out, i, depth| {
                    items[i].render(out, indent, depth);
                });
            }
            Json::Obj(members) => {
                render_seq(out, indent, depth, '{', '}', members.len(), |out, i, depth| {
                    let (key, value) = &members[i];
                    escape_into(key, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.render(out, indent, depth);
                });
            }
        }
    }
}

fn render_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

/// Recursive-descent JSON parser over raw bytes (JSON syntax is
/// ASCII; string contents pass through as UTF-8).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 in string at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                None => return Err("unterminated string".to_string()),
                _ => unreachable!("loop stops only on quote, backslash or end"),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let code = self.peek().ok_or_else(|| "unterminated escape".to_string())?;
        self.pos += 1;
        match code {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let high = self.hex4()?;
                let scalar = if (0xD800..0xDC00).contains(&high) {
                    // Surrogate pair: a second \uXXXX must follow.
                    if !self.eat_literal("\\u") {
                        return Err(format!("lone surrogate at byte {}", self.pos));
                    }
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(format!("invalid low surrogate at byte {}", self.pos));
                    }
                    0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    high
                };
                out.push(
                    char::from_u32(scalar)
                        .ok_or_else(|| format!("invalid codepoint at byte {}", self.pos))?,
                );
            }
            other => return Err(format!("invalid escape '\\{}'", other as char)),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let value = u32::from_str_radix(digits, 16)
            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}"))?;
        if !text.contains(['.', 'e', 'E', '-']) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Uint(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Uint(n)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Uint(u64::from(n))
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Uint(n as u64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering() {
        let value = Json::obj([
            ("name", Json::from("crc")),
            ("energy", Json::from(0.5)),
            ("cycles", Json::from(123u64)),
            ("ok", Json::from(true)),
            ("tags", Json::arr([Json::from(1u64), Json::Null])),
            ("empty", Json::obj::<String>([])),
        ]);
        assert_eq!(
            value.to_compact(),
            r#"{"name":"crc","energy":0.5,"cycles":123,"ok":true,"tags":[1,null],"empty":{}}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let value = Json::from("a\"b\\c\nd\u{1}");
        assert_eq!(value.to_compact(), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_compact(), "null");
    }

    #[test]
    fn integral_floats_keep_a_point() {
        assert_eq!(Json::Num(1.0).to_compact(), "1.0");
        assert_eq!(Json::Num(-3.0).to_compact(), "-3.0");
    }

    #[test]
    fn pretty_rendering_is_stable() {
        let value = Json::obj([("a", Json::from(1u64)), ("b", Json::arr([Json::from("x")]))]);
        assert_eq!(value.to_pretty(), "{\n  \"a\": 1,\n  \"b\": [\n    \"x\"\n  ]\n}\n");
    }

    #[test]
    fn parse_round_trips_compact_and_pretty() {
        let value = Json::obj([
            ("name", Json::from("crc\n\"x\"")),
            ("energy", Json::from(0.5)),
            ("neg", Json::from(-3.25)),
            ("cycles", Json::from(u64::MAX)),
            ("ok", Json::from(true)),
            ("missing", Json::Null),
            ("tags", Json::arr([Json::from(1u64), Json::Null, Json::from("y")])),
            ("empty_obj", Json::obj::<String>([])),
            ("empty_arr", Json::arr([])),
        ]);
        assert_eq!(Json::parse(&value.to_compact()).expect("compact parses"), value);
        assert_eq!(Json::parse(&value.to_pretty()).expect("pretty parses"), value);
    }

    #[test]
    fn parse_distinguishes_uint_from_float() {
        assert_eq!(Json::parse("42").expect("u64"), Json::Uint(42));
        assert_eq!(Json::parse("42.0").expect("f64"), Json::Num(42.0));
        assert_eq!(Json::parse("-1").expect("negative"), Json::Num(-1.0));
        assert_eq!(Json::parse("1e3").expect("exponent"), Json::Num(1000.0));
        assert_eq!(Json::parse("18446744073709551615").expect("u64::MAX"), Json::Uint(u64::MAX));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("+5").is_err());
    }

    #[test]
    fn parse_handles_escapes_and_surrogates() {
        assert_eq!(
            Json::parse(r#""a\"b\\c\nd\u0001é😀""#).expect("escapes"),
            Json::Str("a\"b\\c\nd\u{1}é😀".to_string())
        );
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone surrogate rejected");
    }

    #[test]
    fn accessors_navigate_objects() {
        let value =
            Json::parse(r#"{"key":"crc|32","energy":0.5,"cycles":9,"arr":[1]}"#).expect("parses");
        assert_eq!(value.get("key").and_then(Json::as_str), Some("crc|32"));
        assert_eq!(value.get("energy").and_then(Json::as_f64), Some(0.5));
        assert_eq!(value.get("cycles").and_then(Json::as_u64), Some(9));
        assert_eq!(value.get("cycles").and_then(Json::as_f64), Some(9.0));
        assert_eq!(value.get("arr").and_then(Json::as_array).map(<[Json]>::len), Some(1));
        assert_eq!(value.get("nope"), None);
        assert_eq!(Json::Null.get("x"), None);
        assert_eq!(Json::Null.as_u64(), None);
    }
}
