//! A small self-contained JSON tree, parser and printer.
//!
//! The build environment cannot fetch `serde`/`serde_json`, so — following
//! the precedent of [`crate::fxhash`] — the JSON handling the workspace
//! needs is inlined here. JSON is an output format (`SHOW STATS … AS
//! JSON`, benchmark reports) and, through [`ToJson`] (the role of
//! `Serialize`), the human-readable equality image tests compare
//! databases by. [`Json::parse`] reads documents back as a tree; nothing
//! deserializes into model types (snapshots travel in the binary codec).
//!
//! Conventions (mirroring serde's externally-tagged default closely enough
//! that snapshots stay human-readable):
//!
//! * structs → objects keyed by field name,
//! * dataless enum variants → the variant name as a string,
//! * data-carrying variants → a single-key object `{"Variant": payload}`,
//! * `Option` → `null` or the payload,
//! * integers and floats are kept apart ([`Json::Int`] vs [`Json::Float`])
//!   so `i64` attribute values survive with full precision.

use crate::error::{MadError, Result};
use crate::ids::{AtomId, AtomTypeId, LinkPair, LinkTypeId};
use crate::types::{AtomTypeDef, AttrDef, Cardinality, LinkTypeDef};
use crate::value::{AttrType, Value};
use std::fmt::Write as _;

/// A JSON document tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fractional part, kept at full 64-bit precision.
    Int(i64),
    /// A fractional number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered).
    Obj(Vec<(String, Json)>),
}

fn err(detail: impl Into<String>) -> MadError {
    MadError::Snapshot {
        detail: detail.into(),
    }
}

impl Json {
    /// Object member by key.
    pub fn get(&self, key: &str) -> Result<&Json> {
        match self {
            Json::Obj(members) => members
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| err(format!("missing object key `{key}`"))),
            _ => Err(err(format!("expected object with key `{key}`"))),
        }
    }

    /// The elements of an array.
    pub fn as_arr(&self) -> Result<&[Json]> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(err("expected array")),
        }
    }

    /// Render compactly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Render with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(x) => {
                if x.is_finite() {
                    // always keep a fractional marker so the parser reads a
                    // Float back — Display omits it for every integral float
                    // (900, 1e19, …)
                    let s = format!("{x}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    // JSON has no non-finite literals; encode as strings
                    let _ = write!(out, "\"{x}\"");
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
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (rejects trailing garbage).
    pub fn parse(text: &str) -> Result<Json> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(err(format!("trailing characters at byte {}", p.pos)));
        }
        Ok(v)
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Result<u8> {
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| err("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(err(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek()? {
            b'n' => self.literal("null", Json::Null),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'"' => Ok(Json::Str(self.string()?)),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek()? == b']' {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(err(format!("expected `,` or `]` at byte {}", self.pos))),
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek()? == b'}' {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let v = self.value()?;
                    members.push((key, v));
                    self.skip_ws();
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(err(format!("expected `,` or `}}` at byte {}", self.pos))),
                    }
                }
            }
            _ => self.number(),
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek()?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek()?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| err("invalid \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(err("invalid escape")),
                    }
                }
                _ => {
                    // consume the full UTF-8 sequence starting at b
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    self.pos = start + len;
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| {
            matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        }) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| err("invalid number"))?;
        if text.is_empty() {
            return Err(err(format!("expected a value at byte {start}")));
        }
        if text.contains(['.', 'e', 'E']) {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| err(format!("invalid number `{text}`")))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| err(format!("invalid number `{text}`")))
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

// ---------------------------------------------------------------------------
// Conversion trait
// ---------------------------------------------------------------------------

/// Conversion into a [`Json`] tree (the shim's `Serialize`).
pub trait ToJson {
    /// Build the JSON representation.
    fn to_json(&self) -> Json;
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

macro_rules! json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
    )*};
}
json_int!(i64, u64, u32, usize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            None => Json::Null,
            Some(x) => x.to_json(),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

// ---------------------------------------------------------------------------
// Model types
// ---------------------------------------------------------------------------

impl ToJson for AtomTypeId {
    fn to_json(&self) -> Json {
        Json::Int(self.0 as i64)
    }
}

impl ToJson for LinkTypeId {
    fn to_json(&self) -> Json {
        Json::Int(self.0 as i64)
    }
}

impl ToJson for AtomId {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.ty.to_json(), Json::Int(self.slot as i64)])
    }
}

impl ToJson for LinkPair {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.lo().to_json(), self.hi().to_json()])
    }
}

impl ToJson for AttrType {
    fn to_json(&self) -> Json {
        Json::Str(self.name().to_owned())
    }
}

impl ToJson for Value {
    fn to_json(&self) -> Json {
        match self {
            Value::Null => Json::Null,
            Value::Bool(b) => Json::Obj(vec![("Bool".into(), Json::Bool(*b))]),
            Value::Int(i) => Json::Obj(vec![("Int".into(), Json::Int(*i))]),
            Value::Float(x) => Json::Obj(vec![("Float".into(), Json::Float(*x))]),
            Value::Text(s) => Json::Obj(vec![("Text".into(), Json::Str(s.clone()))]),
            Value::Id(id) => Json::Obj(vec![("Id".into(), id.to_json())]),
        }
    }
}

impl ToJson for AttrDef {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), self.name.to_json()),
            ("ty".into(), self.ty.to_json()),
        ])
    }
}

impl ToJson for AtomTypeDef {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), self.name.to_json()),
            ("attrs".into(), self.attrs.to_json()),
            ("derived_from".into(), self.derived_from.to_json()),
        ])
    }
}

impl ToJson for Cardinality {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("min".into(), self.min.to_json()),
            ("max".into(), self.max.to_json()),
        ])
    }
}

impl ToJson for LinkTypeDef {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), self.name.to_json()),
            ("ends".into(), Json::Arr(self.ends.iter().map(ToJson::to_json).collect())),
            ("cards".into(), Json::Arr(self.cards.iter().map(ToJson::to_json).collect())),
            ("derived_from".into(), self.derived_from.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Int(-42),
            Json::Int(i64::MAX),
            Json::Float(1.5),
            Json::Str("hé \"quoted\"\n".into()),
        ] {
            let text = v.render();
            assert_eq!(Json::parse(&text).unwrap(), v, "compact: {text}");
            let pretty = v.render_pretty();
            assert_eq!(Json::parse(&pretty).unwrap(), v, "pretty: {pretty}");
        }
    }

    #[test]
    fn nested_roundtrip() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::Int(1), Json::Float(2.5)])),
            ("b".into(), Json::Obj(vec![("c".into(), Json::Null)])),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(Json::parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn float_precision_survives() {
        // whole-number floats must come back as Floats, not Ints — including
        // magnitudes whose Display output has no fractional marker at all
        for x in [900.0, 1e15, 1e19, -3e22, f64::MAX] {
            let v = Json::Float(x);
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "x = {x}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("nul").is_err());
    }
}
