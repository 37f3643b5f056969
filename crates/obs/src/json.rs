//! The workspace's one JSON codec: a small recursive-descent reader for
//! RFC 8259 documents and the string escaper every JSON writer uses.
//!
//! Numbers keep their source text and are parsed only when read
//! ([`Json::as_u64`], [`Json::as_i64`], [`Json::as_f64`]): trace ids are
//! full-range `u64`s, which an `f64` cannot hold exactly, and trace records
//! surface every value in its original spelling.  Nesting is bounded by
//! [`MAX_DEPTH`] so hostile input returns an error instead of overflowing
//! the stack.

use std::collections::BTreeMap;
use std::fmt;

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as written in the source.
    Number(String),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, keys sorted; a repeated key keeps its last value.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// The value under `key` of an object, if this is an object and has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.get(key)
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(map) => Some(map),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number as an exact `u64`, if it is written as one.
    pub fn as_u64(&self) -> Option<u64> {
        self.parse_number()
    }

    /// The number as an exact `i64`, if it is written as one.
    pub fn as_i64(&self) -> Option<i64> {
        self.parse_number()
    }

    /// The number as an `f64` (rounded to the nearest representable value).
    pub fn as_f64(&self) -> Option<f64> {
        self.parse_number()
    }

    fn parse_number<T: std::str::FromStr>(&self) -> Option<T> {
        match self {
            Json::Number(text) => text.parse().ok(),
            _ => None,
        }
    }
}

/// A parse failure: byte offset plus message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; surrounding whitespace is allowed, trailing
/// content is not.
///
/// # Errors
///
/// Returns the first syntax error with its byte offset, including nesting
/// deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut parser = Parser {
        text: input,
        pos: 0,
        depth: 0,
    };
    parser.skip_whitespace();
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos != input.len() {
        return Err(parser.error("trailing content after the document"));
    }
    Ok(value)
}

/// Appends `s` escaped for a JSON string literal (no surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// `s` escaped for a JSON string literal (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn nested(
        &mut self,
        body: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let value = body(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.pos += 1;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if text.parse::<f64>().is_err() {
            return Err(self.error(&format!("bad number `{text}`")));
        }
        Ok(Json::Number(text.to_owned()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one go.
            let rest = &self.text[self.pos..];
            let run = rest.find(['"', '\\']).unwrap_or(rest.len());
            out.push_str(&rest[..run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    let escaped = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let code = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs never appear in our own output;
                            // they decode to the replacement character.
                            char::from_u32(code).unwrap_or('\u{FFFD}')
                        }
                        _ => return Err(self.error("bad escape")),
                    };
                    out.push(escaped);
                    self.pos += 1;
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_bench_shape() {
        let doc = r#"{
  "harness": "satbench",
  "smoke": false,
  "runs": [
    {"preset": "chaff", "instance": "php-7-6", "time_s": 0.123456,
     "conflicts": 1000, "conflicts_per_sec": 8100.5,
     "metrics": {"engine_conflicts_total{preset=\"chaff\"}": 1000}}
  ]
}"#;
        let json = parse(doc).expect("parses");
        assert_eq!(json.get("harness").unwrap().as_str(), Some("satbench"));
        assert_eq!(json.get("smoke"), Some(&Json::Bool(false)));
        let runs = json.get("runs").unwrap().as_array().unwrap();
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        assert_eq!(run.get("conflicts").unwrap().as_u64(), Some(1000));
        assert_eq!(run.get("conflicts_per_sec").unwrap().as_f64(), Some(8100.5));
        let metrics = run.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(
            metrics["engine_conflicts_total{preset=\"chaff\"}"].as_u64(),
            Some(1000)
        );
    }

    #[test]
    fn escapes_and_numbers_round_trip() {
        let json = parse(r#"["a\"b\\c\ndA", -1.5e3, 0.25, null, true, -7]"#).unwrap();
        let items = json.as_array().unwrap();
        assert_eq!(items[0].as_str(), Some("a\"b\\c\ndA"));
        assert_eq!(items[1].as_f64(), Some(-1500.0));
        assert_eq!(items[1], Json::Number("-1.5e3".to_owned()));
        assert_eq!(items[2].as_f64(), Some(0.25));
        assert_eq!(items[2].as_u64(), None);
        assert_eq!(items[3], Json::Null);
        assert_eq!(items[4], Json::Bool(true));
        assert_eq!(items[5].as_i64(), Some(-7));
        assert_eq!(items[5].as_u64(), None);
    }

    #[test]
    fn integers_beyond_f64_precision_stay_exact() {
        let json = parse("[18446744073709551615, 18446744073709551614]").unwrap();
        let items = json.as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(u64::MAX));
        assert_eq!(items[1].as_u64(), Some(u64::MAX - 1));
    }

    #[test]
    fn escaped_strings_parse_back() {
        let nasty = "q\"u\\o\nte\t\r\u{1}é";
        let doc = format!("{{\"{}\": \"{}\"}}", escape(nasty), escape(nasty));
        let json = parse(&doc).unwrap();
        assert_eq!(json.get(nasty).and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("123 456").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("\"bad \\x escape\"").is_err());
        assert!(parse("1.2.3").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).is_err());
    }
}
