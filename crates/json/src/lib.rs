//! `bcc-json`: the workspace's one JSON codec.
//!
//! Every artifact this workspace writes — traces, metrics dumps,
//! profiles, experiment JSONL, serve replies, lint reports — renders
//! its JSON by hand with a fixed key order, and the counts it carries
//! (bits broadcast, rounds, seeds) are `u64`s that must survive a
//! round trip exactly. This crate holds the two pieces those codecs
//! share, so each decision is made once:
//!
//! - [`write_str`] / [`quote`]: the only JSON string-literal writer.
//! - [`parse`] into [`JsonValue`]: the only JSON parser. Integer
//!   literals stay integers — [`JsonValue::UInt`] for bare digits that
//!   fit `u64`, [`JsonValue::Int`] for negative ones that fit `i64` —
//!   so no counter is rounded through `f64`.
//!
//! The crate is std-only and depends on nothing in the workspace, so
//! any crate can use it without a dependency cycle.
//!
//! ```
//! let mut line = String::from("{\"name\":");
//! bcc_json::write_str(&mut line, "a\"b");
//! line.push_str(",\"value\":18446744073709551615}");
//! let v = bcc_json::parse(&line).unwrap();
//! assert_eq!(v.get("name").and_then(bcc_json::JsonValue::as_str), Some("a\"b"));
//! assert_eq!(v.get("value").and_then(bcc_json::JsonValue::as_u64), Some(u64::MAX));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

/// Appends `s` to `out` as a quoted JSON string literal.
///
/// `"` and `\` are backslash-escaped, `\n`, `\r` and `\t` use their
/// short escapes, every other control character becomes `\u00XX`, and
/// all other characters pass through unchanged.
pub fn write_str(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
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

/// `s` as a quoted JSON string literal (see [`write_str`]).
pub fn quote(s: &str) -> String {
    let mut out = String::new();
    write_str(&mut out, s);
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal without a sign that fits `u64`.
    UInt(u64),
    /// A negative integer literal that fits `i64`.
    Int(i64),
    /// Any other number: a fraction or exponent, or an integer out of
    /// the `u64`/`i64` range.
    Float(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; key order is preserved as written.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member `key` of an object (None for other variants).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Any number as `f64` (integers beyond 2^53 round to nearest).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(v) => Some(*v as f64),
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value of an unsigned integer literal. Fractions, exponents
    /// (`7.0`, `1e3`), negatives and out-of-range integers give `None`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// A parse failure: what went wrong and at which byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the first violation.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for ParseError {}

impl From<ParseError> for String {
    fn from(e: ParseError) -> String {
        e.to_string()
    }
}

/// Arrays and objects nest at most this deep, so hostile input (a
/// `bcc-serve` request line, say) cannot exhaust the stack.
pub const MAX_DEPTH: usize = 128;

/// Parses one complete JSON document (surrounding whitespace allowed).
///
/// The grammar is exactly RFC 8259's, with no extensions.
///
/// # Errors
///
/// Returns the byte offset and nature of the first violation,
/// including a lone `\u` surrogate escape and nesting deeper than
/// [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<JsonValue, ParseError> {
    let mut p = Cursor { text, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.error("trailing content"));
    }
    Ok(value)
}

struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl Cursor<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn enter(&mut self, open: u8, close: u8, depth: usize) -> Result<bool, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.expect_byte(open)?;
        self.skip_ws();
        Ok(self.eat(close))
    }

    /// After a member or element: `true` on `,`, `false` on `close`.
    fn next(&mut self, close: u8) -> Result<bool, ParseError> {
        self.skip_ws();
        if self.eat(b',') {
            self.skip_ws();
            Ok(true)
        } else if self.eat(close) {
            Ok(false)
        } else {
            Err(self.error(&format!("expected ',' or '{}'", close as char)))
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, ParseError> {
        let mut members = Vec::new();
        if self.enter(b'{', b'}', depth)? {
            return Ok(JsonValue::Obj(members));
        }
        loop {
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            members.push((key, self.value(depth)?));
            if !self.next(b'}')? {
                return Ok(JsonValue::Obj(members));
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, ParseError> {
        let mut items = Vec::new();
        if self.enter(b'[', b']', depth)? {
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            if !self.next(b']')? {
                return Ok(JsonValue::Arr(items));
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control
            // byte; all three are ASCII, so the slice is whole UTF-8.
            let run = self.text.as_bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or_else(|| self.error("unterminated string"))?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.unescape()?);
                }
                _ => return Err(self.error("control character in string")),
            }
        }
    }

    /// Decodes one escape; `pos` is just past the backslash.
    fn unescape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000C}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if (0xDC00..0xE000).contains(&low) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                }
                // Every surrogate left unpaired is rejected here.
                return char::from_u32(code)
                    .ok_or_else(|| self.error("lone surrogate in \\u escape"));
            }
            _ => return Err(self.error("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Consumes a run of at least one digit, returning its length.
    fn digits(&mut self) -> Result<usize, ParseError> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        match self.pos - start {
            0 => Err(self.error("expected a digit")),
            n => Ok(n),
        }
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        let negative = self.eat(b'-');
        let first = self.peek();
        if self.digits()? > 1 && first == Some(b'0') {
            return Err(self.error("leading zero in number"));
        }
        let fraction = self.eat(b'.');
        if fraction {
            self.digits()?;
        }
        let exponent = matches!(self.peek(), Some(b'e' | b'E'));
        if exponent {
            self.pos += 1;
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        let text = &self.text[start..self.pos];
        if !fraction && !exponent {
            if negative {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(JsonValue::Int(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| ParseError {
                at: start,
                message: format!("bad number '{text}'"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" -3.5 ").unwrap(), JsonValue::Float(-3.5));
        assert_eq!(parse("\"a\\nb\"").unwrap(), JsonValue::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a":[1,2,{"b":"x","c":null}],"d":4.5e1}"#).unwrap();
        assert_eq!(v.get("d").and_then(JsonValue::as_f64), Some(45.0));
        let arr = v.get("a").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(v.as_obj().map(<[_]>::len), Some(2));
    }

    #[test]
    fn integers_are_exact_across_u64_and_i64() {
        let n = (1u64 << 53) + 1;
        assert_eq!(parse("9007199254740993").unwrap(), JsonValue::UInt(n));
        let max = parse(&u64::MAX.to_string()).unwrap();
        assert_eq!(max.as_u64(), Some(u64::MAX));
        let min = parse(&i64::MIN.to_string()).unwrap();
        assert_eq!(min, JsonValue::Int(i64::MIN));
        assert_eq!(parse("-0").unwrap(), JsonValue::Int(0));
        // Out of range: a float, never a saturated or wrapped integer.
        let big = parse("18446744073709551616").unwrap();
        assert_eq!(big, JsonValue::Float(18446744073709551616.0));
        let low = parse("-9223372036854775809").unwrap();
        assert_eq!(low, JsonValue::Float(-9223372036854775809.0));
    }

    #[test]
    fn as_u64_takes_unsigned_integer_literals_only_and_as_f64_any_number() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        for (text, x) in [("7.5", 7.5), ("7.0", 7.0), ("1e3", 1000.0), ("-7", -7.0)] {
            let v = parse(text).unwrap();
            assert_eq!((v.as_u64(), v.as_f64()), (None, Some(x)), "{text}");
        }
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(parse("\"7\"").unwrap().as_f64(), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"\\x\"",
            "01",
            "-",
            "1.",
            ".5",
            "1e",
            "+1",
            "\"a\tb\"",
            "\"\\u+123\"",
            "\"abc",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn errors_name_the_byte_offset() {
        let e = parse("[1,2,x]").unwrap_err();
        assert_eq!(e.at, 5);
        assert_eq!(e.to_string(), "expected a value at byte 5");
        assert_eq!(String::from(e), "expected a value at byte 5");
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert_eq!(parse(&deep).unwrap_err().message, "nesting too deep");
        assert!(parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn unicode_escapes_and_utf8_pass_through() {
        assert_eq!(
            parse("\"\\u0041µ\\/\"").unwrap(),
            JsonValue::Str("Aµ/".to_string())
        );
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            JsonValue::Str("\u{1F600}".to_string())
        );
        for lone in [
            "\"\\ud83d\"",
            "\"\\ud83dx\"",
            "\"\\ude00\"",
            "\"\\ud83d\\u0041\"",
        ] {
            assert!(parse(lone).is_err(), "accepted {lone:?}");
        }
    }

    #[test]
    fn write_str_escapes_exactly_the_specials() {
        assert_eq!(quote("a.b"), "\"a.b\"");
        assert_eq!(quote("a\"b\\c\nd\re\tf"), "\"a\\\"b\\\\c\\nd\\re\\tf\"");
        assert_eq!(quote("\u{1}\u{1f}"), "\"\\u0001\\u001f\"");
        assert_eq!(quote("µ\u{7f}"), "\"µ\u{7f}\"");
        let mut out = String::from("x:");
        write_str(&mut out, "");
        assert_eq!(out, "x:\"\"");
    }

    #[test]
    fn write_str_round_trips_through_parse() {
        let mut all: String = (0u8..0x80).map(char::from).collect();
        all.push_str("µ€\u{1F600}");
        for s in [all.as_str(), "", "plain", "\"\\"] {
            assert_eq!(parse(&quote(s)).unwrap(), JsonValue::Str(s.to_string()));
        }
    }
}
