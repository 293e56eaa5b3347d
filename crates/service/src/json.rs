//! Minimal JSON reader/writer for config files and metrics snapshots.
//!
//! The vendored `serde` derive is a no-op (offline container, see
//! `vendor/README.md`), so the service hand-rolls the small JSON subset it
//! needs: objects, arrays, strings, integers, booleans, and null. Floats
//! are accepted on parse but truncated to integers — none of our schemas
//! use them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value (numbers are kept as `i128` — wide enough for any
/// config field or counter we serialize).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(i128),
    Str(String),
    Arr(Vec<Json>),
    /// BTreeMap so serialization order is deterministic.
    Obj(BTreeMap<String, Json>),
}

/// Parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse one JSON document (trailing whitespace allowed, nothing else).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Object field lookup.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Integer value, if this is a number.
    #[must_use]
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Non-negative integer narrowed to `u64`.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i128().and_then(|n| u64::try_from(n).ok())
    }

    /// Non-negative integer narrowed to `usize`.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_i128().and_then(|n| usize::try_from(n).ok())
    }

    /// Boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serialize compactly (no whitespace).
    #[must_use]
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
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
            Json::Obj(map) => {
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

/// Convenience: build a `Json::Obj` from key/value pairs.
pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Write `s` as a JSON string. Each run of bytes that needs no escape is
/// copied with one `push_str`; the escaped bytes are all ASCII, so every
/// run ends on a char boundary.
fn write_escaped(s: &str, out: &mut String) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
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
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        // The next `"` at or after `pos`, searched for again only once an
        // escaped `\"` steps past it, so every byte is searched once.
        let mut quote = 0;
        loop {
            if quote < self.pos {
                quote = self.text[self.pos..]
                    .find('"')
                    .map_or(self.text.len(), |i| self.pos + i);
            }
            // Copy the run up to the first `\` before that `"` in one
            // append. Both are ASCII, so the run is a `str` slice of the
            // (already valid) input.
            let run = &self.text[self.pos..quote];
            let run = &run[..run.find('\\').unwrap_or(run.len())];
            out.push_str(run);
            self.pos += run.len();
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // The `\` the run stopped at.
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let int_end = self.pos;
        // Accept (and discard) a fraction/exponent so valid JSON floats
        // don't fail the whole parse.
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..int_end]).unwrap();
        text.parse::<i128>().map(Json::Num).map_err(|_| JsonError {
            offset: start,
            message: "bad number".to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let text = r#"{"a": 1, "b": [true, null, -7], "c": {"d": "x\"y"}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(
            v.get("b"),
            Some(&Json::Arr(vec![
                Json::Bool(true),
                Json::Null,
                Json::Num(-7)
            ]))
        );
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::Num(1).as_bool(), None);
        let again = Json::parse(&v.dump()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_bytes_only() {
        let text = "0x1f\"q\\b\nn\tt\rr\u{1}\u{1f} é😀\u{7f}";
        let dumped = Json::Str(text.to_string()).dump();
        assert_eq!(
            dumped,
            "\"0x1f\\\"q\\\\b\\nn\\tt\\rr\\u0001\\u001f é😀\u{7f}\""
        );
        assert_eq!(Json::parse(&dumped), Ok(Json::Str(text.to_string())));

        // Escapes and multi-byte chars at the start, inside and at the end
        // of runs, checked against the char-at-a-time writer.
        let reference = |s: &str| {
            let mut out = String::from('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        };
        let body: String = (0..200)
            .map(|i| match i % 61 {
                0 => '"',
                7 => '\n',
                13 => '\\',
                29 => '\u{2}',
                40 => 'é',
                _ => 'x',
            })
            .collect();
        let dumped = Json::Str(body.clone()).dump();
        assert_eq!(dumped, reference(&body));
        assert_eq!(Json::parse(&dumped), Ok(Json::Str(body)));

        for unterminated in [r#""abc"#, r#""abc\"#, r#""a\""#, r#""a\u00"#] {
            assert!(Json::parse(unterminated).is_err(), "{unterminated}");
        }

        let escaped = r#"["a\/b\u00e9", "plain", ""]"#;
        assert_eq!(
            Json::parse(escaped),
            Ok(Json::Arr(vec![
                Json::Str("a/bé".to_string()),
                Json::Str("plain".to_string()),
                Json::Str(String::new()),
            ]))
        );
    }

    #[test]
    fn strings_with_an_escape_every_few_bytes_parse_in_linear_time() {
        // 10^6 runs of one byte each: a scan that looked past the next
        // escape for the closing quote would read about 10^12 bytes.
        for escape in ["\\n", "\\\"", "\\u0041"] {
            let pair = format!("a{escape}");
            let text = format!("\"{}\"", pair.repeat(1_000_000));
            let Ok(Json::Str(s)) = Json::parse(&text) else {
                panic!("{escape} did not parse");
            };
            let unescaped = match escape {
                "\\n" => "a\n",
                "\\\"" => "a\"",
                _ => "aA",
            };
            assert_eq!(s, unescaped.repeat(1_000_000), "{escape}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn floats_truncate_to_integer_part() {
        assert_eq!(
            Json::parse("[1.75, 2e3]").unwrap(),
            Json::Arr(vec![Json::Num(1), Json::Num(2)])
        );
    }
}
