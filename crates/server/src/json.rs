//! A minimal JSON value: parser for request bodies, builder helpers for
//! response bodies.
//!
//! Hand-rolled for exactly the shapes the API exchanges (same policy as
//! `crates/bench/src/report.rs` and the telemetry exporters): the build
//! environment resolves no crates registry, so no serde. Parsing accepts
//! any JSON document; handlers read the fields they know and reject the
//! rest by name, so typos in request bodies fail loudly instead of being
//! silently ignored.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`, the JSON number model).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document (rejects trailing garbage).
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a usize, if this is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= usize::MAX as f64).then_some(n as usize)
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Quotes `s` as a JSON string literal (escaping quotes, backslashes and
/// control characters).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Renders `["a", "b", …]` from string-ish items.
pub fn str_array<I: IntoIterator<Item = S>, S: AsRef<str>>(items: I) -> String {
    let inner = items
        .into_iter()
        .map(|s| quote(s.as_ref()))
        .collect::<Vec<_>>()
        .join(", ");
    format!("[{inner}]")
}

struct Parser<'a> {
    /// The document; `bytes` is the same text as bytes. Every token
    /// boundary the parser stops at is an ASCII byte, hence a char
    /// boundary of `src`, so slices of it never need re-validating.
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                other => {
                    return Err(format!(
                        "expected `,` or `}}` at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected `,` or `]` at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // A run of plain characters up to the next quote or
                    // escape, copied in one step: linear in the string.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number `{text}`: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = Json::parse(r#"{"a": [1, "two", {"b": true}], "c": null}"#).unwrap();
        let obj = v.as_obj().unwrap();
        let arr = obj["a"].as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[0].as_usize(), Some(1));
        assert_eq!(arr[1].as_str(), Some("two"));
        assert_eq!(arr[2].as_obj().unwrap()["b"].as_bool(), Some(true));
        assert_eq!(obj["c"], Json::Null);
    }

    #[test]
    fn rejects_garbage_and_fractional_usize() {
        assert!(Json::parse("{,}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("").is_err());
        assert_eq!(Json::parse("1.5").unwrap().as_usize(), None);
        assert_eq!(Json::parse("-3").unwrap().as_usize(), None);
    }

    #[test]
    fn long_strings_parse_in_linear_time_and_round_trip() {
        // ~1 MB of mixed ASCII, multi-byte characters and escapes. A
        // parser that re-validates the remaining input per character is
        // quadratic here (minutes); the time bound catches that.
        let unit = "schema text é ü → 𝔸 \"quoted\" \\ tab\t\n";
        let text: String = unit.repeat(1_000_000 / unit.len() + 1);
        assert!(text.len() >= 1_000_000);
        let started = std::time::Instant::now();
        let v = Json::parse(&quote(&text)).unwrap();
        assert_eq!(v.as_str(), Some(text.as_str()));
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "1 MB string took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn multi_byte_characters_and_escapes_decode() {
        let v = Json::parse(r#"["Π_{a}(T̂)", "日本語", "\u00e9\u2192", "x\/y"]"#).unwrap();
        let items: Vec<&str> = v
            .as_arr()
            .unwrap()
            .iter()
            .map(|j| j.as_str().unwrap())
            .collect();
        assert_eq!(items, ["Π_{a}(T̂)", "日本語", "é→", "x/y"]);
        // A \u escape whose four "digits" run into a multi-byte character
        // is an error, not a slice across a char boundary.
        assert!(Json::parse("\"\\u123é\"").is_err());
        assert!(Json::parse("\"\\ud800\"").is_err(), "lone surrogate");
    }

    #[test]
    fn every_truncation_is_a_structured_error() {
        let doc = r#"{"tenant": "t", "attrs": ["ä", "\u00e9", 1.5e3, true, null], "s": "x\ny"}"#;
        assert!(Json::parse(doc).is_ok());
        for (cut, _) in doc.char_indices().skip(1) {
            assert!(Json::parse(&doc[..cut]).is_err(), "prefix {cut} parsed");
        }
        for bad in [
            "\"", "\"\\", "\"\\u12", "\"\\q\"", "[\"a\", ", "{\"a\"", "-", "tru",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn quote_and_str_array_escape() {
        assert_eq!(quote("a\"b\n"), r#""a\"b\n""#);
        assert_eq!(str_array(["x", "y\t"]), r#"["x", "y\t"]"#);
        // Round-trip through the parser.
        let v = Json::parse(&quote("päth\\with \"stuff\"\u{1}")).unwrap();
        assert_eq!(v.as_str(), Some("päth\\with \"stuff\"\u{1}"));
    }
}
