//! A minimal JSON value, writer, and recursive-descent parser.
//!
//! The offline build environment has no `serde_json`, and the metrics
//! schema is small and fixed, so this crate carries its own ~200-line
//! implementation: enough JSON to round-trip [`crate::MetricsReport`]
//! (objects, arrays, strings, unsigned integers, floats, bools, null)
//! with strict parsing — trailing garbage, unterminated strings, and
//! malformed escapes are errors, not best-effort recoveries. The parser
//! recurses once per array or object level, so nesting is capped at
//! [`MAX_DEPTH`]: a hostile document gets an error, not a stack overflow.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// The deepest nesting of arrays and objects [`parse`] accepts. A metrics
/// report nests four levels.
pub const MAX_DEPTH: usize = 64;

/// Why [`parse`] rejected a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Arrays and objects nest deeper than [`MAX_DEPTH`]; `at` is the byte
    /// offset of the bracket that opens the first level past it.
    TooDeep {
        /// Byte offset of that bracket.
        at: usize,
    },
    /// Any other malformed input, described in words (most messages name
    /// the byte offset).
    Syntax(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::TooDeep { at } => {
                write!(f, "nested deeper than {MAX_DEPTH} levels at byte {at}")
            }
            JsonError::Syntax(msg) => f.write_str(msg),
        }
    }
}

impl From<String> for JsonError {
    fn from(msg: String) -> Self {
        JsonError::Syntax(msg)
    }
}

impl From<&str> for JsonError {
    fn from(msg: &str) -> Self {
        JsonError::Syntax(msg.to_string())
    }
}

impl From<JsonError> for String {
    fn from(e: JsonError) -> Self {
        e.to_string()
    }
}

/// A parsed JSON value. Integers that fit `u64` are kept exact (`UInt`)
/// rather than routed through `f64`, since counters are the payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer that fits in `u64`, kept exact.
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved for writing, lookups are
    /// linear (objects in this schema are small).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an exact unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Serialize compactly (single line, no spaces) onto `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
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

    /// Serialize to a fresh single-line string.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Build an object from a string-keyed map of counters.
    pub fn from_u64_map<K: AsRef<str>>(map: impl IntoIterator<Item = (K, u64)>) -> Json {
        Json::Obj(
            map.into_iter()
                .map(|(k, v)| (k.as_ref().to_string(), Json::UInt(v)))
                .collect(),
        )
    }

    /// Read an object back into a string-keyed `u64` map; `None` if this
    /// is not an object of exact integers.
    pub fn to_u64_map(&self) -> Option<BTreeMap<String, u64>> {
        let mut map = BTreeMap::new();
        for (k, v) in self.as_obj()? {
            map.insert(k.clone(), v.as_u64()?);
        }
        Some(map)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos).into());
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos).into())
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos).into())
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(JsonError::TooDeep { at: self.pos });
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos).into()),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos).into()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos).into()),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos).into()),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input came from &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let ch = s.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("invalid number at byte {start}").into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let src = r#"{"a":1,"b":[true,null,-2.5],"c":{"d":"x\ny","e":18446744073709551615}}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_str(), Some("x\ny"));
        assert_eq!(
            v.get("c").unwrap().get("e").unwrap().as_u64(),
            Some(u64::MAX)
        );
        let reprinted = parse(&v.to_string_compact()).unwrap();
        assert_eq!(v, reprinted);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{",
            "{\"a\":}",
            "[1,]",
            "\"open",
            "1 2",
            "{\"a\":1} x",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |open: &str, close: &str, levels: usize| {
            format!("{}0{}", open.repeat(levels), close.repeat(levels))
        };
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let at_cap = nested(open, close, MAX_DEPTH);
            assert!(parse(&at_cap).is_ok(), "{MAX_DEPTH} levels of {open}");
            let past = nested(open, close, MAX_DEPTH + 1);
            assert_eq!(
                parse(&past),
                Err(JsonError::TooDeep {
                    at: MAX_DEPTH * open.len()
                })
            );
        }
        // Far past the cap, the parser returns instead of overflowing.
        let hostile = nested("[", "]", 300_000);
        assert_eq!(
            parse(&hostile).unwrap_err().to_string(),
            format!("nested deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
    }

    #[test]
    fn escapes_control_characters() {
        let v = Json::Str("a\"b\\c\u{1}\n".to_string());
        let s = v.to_string_compact();
        assert_eq!(s, "\"a\\\"b\\\\c\\u0001\\n\"");
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn u64_map_round_trip() {
        let mut m = BTreeMap::new();
        m.insert("x.y".to_string(), 7u64);
        let j = Json::from_u64_map(m.clone());
        assert_eq!(j.to_u64_map(), Some(m));
    }
}
