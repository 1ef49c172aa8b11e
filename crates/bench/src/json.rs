//! A minimal hand-rolled JSON writer and parser.
//!
//! The workspace builds offline, so the experiments cannot depend on
//! `serde_json`. This covers exactly what the result dumps need: objects
//! with preserved key order, arrays, strings, integers, floats, and bools,
//! pretty-printed with two-space indentation. The parser ([`Json::parse`])
//! exists for the crash-only machinery: the harness's write-ahead run
//! journal is JSONL that must be replayed after a kill, and `fsck` needs
//! to tell a well-formed `results/*.json` artifact from a truncated one.

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order so dumps are stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// An unsigned integer (cycle counts exceed `i64` comfortably late).
    UInt(u64),
    /// A float, serialized via Rust's shortest-roundtrip `Display`.
    Float(f64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Pretty-prints with two-space indentation and a trailing newline-free
    /// body (mirrors `serde_json::to_string_pretty`).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Serializes on a single line with no whitespace — the JSONL form the
    /// harness's run journal appends one record per line.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Parses a JSON document. Accepts exactly what [`pretty`](Self::pretty)
    /// and [`compact`](Self::compact) produce (plus arbitrary inter-token
    /// whitespace); trailing non-whitespace is an error. Numbers without a
    /// fraction or exponent parse as [`Json::UInt`]/[`Json::Int`], all
    /// others as [`Json::Float`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(text, bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload of a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A non-negative integer value ([`Json::UInt`] or in-range
    /// [`Json::Int`]).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// A numeric value as `f64` ([`Json::Float`], [`Json::UInt`], or
    /// [`Json::Int`]).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(v) => Some(*v),
            Json::UInt(v) => Some(*v as f64),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The boolean payload of a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items of a [`Json::Arr`].
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                if v.is_finite() {
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        let _ = write!(out, "{v:.1}");
                    } else {
                        let _ = write!(out, "{v}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                if v.is_finite() {
                    // Keep integral floats recognizably floats, as
                    // serde_json does ("2.0", not "2").
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        let _ = write!(out, "{v:.1}");
                    } else {
                        let _ = write!(out, "{v}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
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
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", want as char, pos))
    }
}

fn parse_value(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, bytes, pos)?;
                skip_ws(bytes, pos);
                expect_byte(bytes, pos, b':')?;
                let value = parse_value(text, bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(text, bytes, pos).map(Json::Str),
        Some(b't') if text[*pos..].starts_with("true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if text[*pos..].starts_with("false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if text[*pos..].starts_with("null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => parse_number(text, bytes, pos),
    }
}

fn parse_number(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut fractional = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                fractional = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let token = &text[start..*pos];
    if token.is_empty() || token == "-" {
        return Err(format!("bad value at byte {start}"));
    }
    if !fractional {
        if let Ok(v) = token.parse::<u64>() {
            return Ok(Json::UInt(v));
        }
        if let Ok(v) = token.parse::<i64>() {
            return Ok(Json::Int(v));
        }
    }
    token
        .parse::<f64>()
        .map(Json::Float)
        .map_err(|_| format!("bad number `{token}` at byte {start}"))
}

fn parse_string(text: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect_byte(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let rest = &text[*pos..];
        let mut chars = rest.char_indices();
        let (_, c) = chars.next().ok_or("unterminated string")?;
        match c {
            '"' => {
                *pos += 1;
                return Ok(out);
            }
            '\\' => {
                let (_, esc) = chars.next().ok_or("unterminated escape")?;
                *pos += 1 + esc.len_utf8();
                match esc {
                    '"' | '\\' | '/' => out.push(esc),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let hex = text
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        // Our writer only emits \u for control characters,
                        // so lone surrogates are rejected rather than paired.
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => return Err(format!("unknown escape `\\{other}`")),
                }
            }
            c if (c as u32) < 0x20 => return Err("raw control character in string".into()),
            c => {
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
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
    fn pretty_prints_nested_structures() {
        let v = Json::Arr(vec![Json::obj([
            ("layer", Json::str("Layer0")),
            ("cycles", Json::UInt(12345)),
            ("speedup", Json::Float(2.5)),
            ("memory_bound", Json::Bool(false)),
            ("inner", Json::obj([("zero", Json::Int(0))])),
        ])]);
        let s = v.pretty();
        assert_eq!(
            s,
            "[\n  {\n    \"layer\": \"Layer0\",\n    \"cycles\": 12345,\n    \
             \"speedup\": 2.5,\n    \"memory_bound\": false,\n    \"inner\": {\n      \
             \"zero\": 0\n    }\n  }\n]"
        );
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        assert_eq!(Json::Float(2.0).pretty(), "2.0");
        assert_eq!(Json::Float(0.125).pretty(), "0.125");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::str("a\"b\\c\nd").pretty(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn empty_collections_are_compact() {
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        assert_eq!(Json::Obj(vec![]).pretty(), "{}");
    }

    #[test]
    fn compact_is_single_line() {
        let v = Json::obj([
            ("a", Json::UInt(1)),
            ("b", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("c", Json::str("x\ny")),
        ]);
        assert_eq!(v.compact(), "{\"a\":1,\"b\":[true,null],\"c\":\"x\\ny\"}");
    }

    #[test]
    fn parse_round_trips_pretty_and_compact() {
        let v = Json::Arr(vec![Json::obj([
            ("layer", Json::str("Layer0")),
            ("cycles", Json::UInt(12345)),
            ("speedup", Json::Float(2.5)),
            ("neg", Json::Int(-3)),
            ("memory_bound", Json::Bool(false)),
            ("nothing", Json::Null),
            ("tricky", Json::str("a\"b\\c\nd\te\u{1}")),
            ("inner", Json::obj([("zero", Json::UInt(0))])),
        ])]);
        for text in [v.pretty(), v.compact()] {
            let back = Json::parse(&text).expect("parses");
            assert_eq!(back, v, "round trip through {text}");
        }
    }

    #[test]
    fn parse_classifies_numbers() {
        assert_eq!(Json::parse("7").unwrap(), Json::UInt(7));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("2.5").unwrap(), Json::Float(2.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX)
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "\"unterminated",
            "{\"a\":1} trailing",
            "{'single':1}",
            "nul",
            "[1 2]",
            "\"bad \\q escape\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn accessors_navigate_parsed_documents() {
        let v = Json::parse("{\"name\":\"fig7\",\"point\":3,\"ok\":true,\"xs\":[1,2]}").unwrap();
        assert_eq!(v.get("name").and_then(Json::as_str), Some("fig7"));
        assert_eq!(v.get("point").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("xs").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert!(v.get("missing").is_none());
        assert!(Json::UInt(1).get("x").is_none());
    }
}
