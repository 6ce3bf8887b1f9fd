//! A minimal JSON value model and writer for run manifests.
//!
//! The build environment pins dependencies to offline shims, so no JSON
//! serializer crate is available; manifests are small and write-only,
//! which this hand-rolled emitter covers. Numbers are emitted exactly
//! for `u64`/`i64` and via shortest-roundtrip `{:?}` formatting for
//! `f64`; non-finite floats become `null` to keep output valid JSON.

use std::collections::BTreeMap;
use std::fmt::Write;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer (exact).
    UInt(u64),
    /// Signed integer (exact).
    Int(i64),
    /// Floating point; NaN / infinities serialize as `null`.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Json>),
    /// Object with deterministic (sorted) key order.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Serialize with two-space indentation and a trailing newline.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serialize compactly (no whitespace).
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Array(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(map) if !map.is_empty() => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            _ => self.write_compact(out),
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => {
                if x.is_finite() {
                    // {:?} gives shortest representation that round-trips,
                    // always with a decimal point or exponent.
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

/// Recursive-descent JSON parser (reads persisted anytime ladders, the
/// benchmark's run reports and exported trace timelines back).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: &str) -> Result<T, String> {
        Err(format!("json parse error at byte {}: {msg}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            self.err(&format!("expected `{}`", b as char))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            self.err(&format!("expected `{lit}`"))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'"') => self.parse_string().map(Json::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(c) => self.err(&format!("unexpected byte `{}`", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Array(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return self.err("expected `,` or `]`");
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Object(map)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return self.err("expected `,` or `}`");
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return self.err("unterminated string"),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        if self.pos + 4 > self.bytes.len() {
                            return self.err("truncated \\u escape");
                        }
                        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                            .map_err(|_| "non-utf8 \\u escape".to_owned())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        self.pos += 4;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return self.err("bad escape"),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-decode the full UTF-8 sequence starting here.
                    let start = self.pos - 1;
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return self.err("invalid utf-8"),
                    };
                    if start + len > self.bytes.len() {
                        return self.err("truncated utf-8");
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| "invalid utf-8".to_owned())?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_owned())?;
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("bad number `{text}`"))
    }
}

impl Json {
    /// Parse a JSON document. Integers that fit exactly become
    /// [`Json::UInt`] / [`Json::Int`]; everything else numeric becomes
    /// [`Json::Float`]. Errors carry the byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return p.err("trailing data");
        }
        Ok(v)
    }

    /// Object member access (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Numeric view of this value, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
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

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::UInt(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::UInt(n as u64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_output_is_valid_shapes() {
        let v = Json::object([
            ("name", Json::from("table2")),
            ("seed", Json::UInt(42)),
            ("ok", Json::Bool(true)),
            ("loss", Json::Float(0.25)),
            ("skip", Json::Null),
            ("xs", Json::from(vec![1u64, 2, 3])),
        ]);
        assert_eq!(
            v.to_compact_string(),
            r#"{"loss":0.25,"name":"table2","ok":true,"seed":42,"skip":null,"xs":[1,2,3]}"#
        );
    }

    #[test]
    fn escapes_control_and_quote_chars() {
        let mut s = String::new();
        write_string(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).to_compact_string(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_compact_string(), "null");
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = Json::object([("a", Json::UInt(1))]);
        assert_eq!(v.to_pretty_string(), "{\n  \"a\": 1\n}\n");
    }

    #[test]
    fn parse_roundtrips_writer_output() {
        let v = Json::object([
            ("name", Json::from("table2")),
            ("seed", Json::UInt(42)),
            ("neg", Json::Int(-3)),
            ("ok", Json::Bool(true)),
            ("loss", Json::Float(0.25)),
            ("skip", Json::Null),
            ("xs", Json::from(vec![1u64, 2, 3])),
            ("s", Json::from("a\"b\\c\nd")),
            (
                "nested",
                Json::object([("k", Json::Float(1.5e-9)), ("m", Json::Array(vec![]))]),
            ),
        ]);
        for text in [v.to_compact_string(), v.to_pretty_string()] {
            assert_eq!(Json::parse(&text).expect("parse"), v);
        }
    }

    #[test]
    fn parse_number_classes() {
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX)
        );
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("2.5").unwrap(), Json::Float(2.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("1.0").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parse_reads_checked_in_artifact_shapes() {
        let text = r#"{"runs":[{"threads":1,"p99_latency_units":999.0,"degraded_fraction":0.636}],"unicode":"µs é"}"#;
        let v = Json::parse(text).unwrap();
        let runs = match v.get("runs") {
            Some(Json::Array(xs)) => xs,
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(
            runs[0].get("p99_latency_units").and_then(Json::as_f64),
            Some(999.0)
        );
        assert_eq!(v.get("unicode"), Some(&Json::Str("µs é".to_owned())));
    }

    #[test]
    fn u64_is_exact() {
        assert_eq!(
            Json::UInt(u64::MAX).to_compact_string(),
            "18446744073709551615"
        );
    }
}
