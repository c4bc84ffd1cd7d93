//! A minimal JSON value type with a strict recursive-descent parser and
//! a renderer.
//!
//! The build environment is offline (no serde), and the service needs
//! to *parse* JSON — request bodies, journal replay, and the test
//! suite's validation that every engine [`gcln_engine::Event`] line is
//! well-formed. The parser is strict per RFC 8259: unescaped control
//! characters, lone surrogates, trailing garbage, and malformed numbers
//! are all rejected, which is exactly what makes it useful as a test
//! oracle for the hand-rolled serializers.

use std::fmt;

/// A parsed JSON value. Object members keep their source order (lookup
/// is linear — objects in this workspace are small).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (JSON does not distinguish integer from float).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source member order.
    Obj(Vec<(String, Json)>),
}

/// Parse failure: byte offset plus a short message.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Nesting cap: deeper documents are rejected rather than risking a
/// stack overflow on adversarial input (the parser is recursive).
const MAX_DEPTH: usize = 128;

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on any RFC 8259 violation.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Json::parse_with_spans(text).map(|(v, _)| v)
    }

    /// Parses like [`Json::parse`] and also returns the exact source
    /// text of each member value (of a top-level object) or element (of
    /// a top-level array), in order. Journal replay serves that text
    /// byte for byte: rendering the parsed value would reformat
    /// numbers (`12.500` reads back as `12.5`).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on any RFC 8259 violation.
    pub fn parse_with_spans(text: &str) -> Result<(Json, Vec<&str>), JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, spans: Vec::new() };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok((v, p.spans.into_iter().map(|(start, end)| &text[start..end]).collect()))
    }

    /// Renders the value as compact JSON. Round trip: for any `v`,
    /// `Json::parse(&v.render()).unwrap() == v` (NaN/infinite numbers,
    /// which valid parses never produce, render as `null`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => out.push_str(&render_number(*v)),
            Json::Str(s) => out.push_str(&gcln_engine::events::json_string(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&gcln_engine::events::json_string(k));
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Object member lookup (first match; `None` for non-objects).
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Integers that fit exactly render without a fractional part; other
/// finite numbers use Rust's shortest-roundtrip float formatting.
fn render_number(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Byte ranges of the top-level value's members or elements.
    spans: Vec<(usize, usize)>,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: message.into() }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => {
                self.eat("null").then_some(Json::Null).ok_or_else(|| self.err("bad literal"))
            }
            Some(b't') => {
                self.eat("true").then_some(Json::Bool(true)).ok_or_else(|| self.err("bad literal"))
            }
            Some(b'f') => self
                .eat("false")
                .then_some(Json::Bool(false))
                .ok_or_else(|| self.err("bad literal")),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte 0x{c:02x}"))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            let start = self.pos;
            items.push(self.value(depth + 1)?);
            if depth == 0 {
                self.spans.push((start, self.pos));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:` after key"));
            }
            self.pos += 1;
            self.skip_ws();
            let start = self.pos;
            let value = self.value(depth + 1)?;
            if depth == 0 {
                self.spans.push((start, self.pos));
            }
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // '"'
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            match c {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: require a paired \uXXXX low.
                                if !self.eat("\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                            } else if (0xDC00..0xE000).contains(&hi) {
                                None // lone low surrogate
                            } else {
                                char::from_u32(hi)
                            };
                            match ch {
                                Some(ch) => out.push(ch),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                        }
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                0x00..=0x1F => return Err(self.err("unescaped control character")),
                _ => {
                    // Multi-byte UTF-8 is passed through; the input is a
                    // `&str` so the sequence is known-valid.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos]).expect("input is utf-8"),
                    );
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos.checked_add(4).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(self.err("truncated \\u escape"));
        };
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-ASCII in \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape digits"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` alone or a nonzero-led digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err("expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected fraction digits"));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected exponent digits"));
            }
            self.digits();
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let v: f64 = text.parse().map_err(|_| self.err("unrepresentable number"))?;
        Ok(Json::Num(v))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structures() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(Json::parse(r#""a\nb\u0041""#).unwrap(), Json::Str("a\nbA".into()));
        let v = Json::parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("a").and_then(Json::as_array).map(<[Json]>::len), Some(3));
    }

    #[test]
    fn surrogate_pairs_and_lone_surrogates() {
        assert_eq!(Json::parse(r#""\ud83d\ude00""#).unwrap(), Json::Str("😀".into()));
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\ude00""#).is_err());
        assert!(Json::parse(r#""\ud83dxx""#).is_err());
    }

    #[test]
    fn rejects_rfc_violations() {
        for bad in [
            "",
            "tru",
            "nul",
            "01",
            "1.",
            ".5",
            "1e",
            "+1",
            "--1",
            "[1,]",
            "[1 2]",
            "{\"a\"1}",
            "{a:1}",
            "\"\x01\"",
            "\"unterminated",
            "{\"a\":1} extra",
            "[1,2],",
            "\"\\x\"",
            "\u{7}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn depth_limit_rejects_instead_of_overflowing() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn spans_are_the_top_level_source_text() {
        let (v, spans) = Json::parse_with_spans(r#"{"a": 12.500 ,"b":[1, {"c":2}]}"#).unwrap();
        assert_eq!(v.get("a"), Some(&Json::Num(12.5)));
        assert_eq!(spans, ["12.500", r#"[1, {"c":2}]"#]);
        let (_, spans) = Json::parse_with_spans(r#"[ 1.0,"x" ,[]]"#).unwrap();
        assert_eq!(spans, ["1.0", r#""x""#, "[]"]);
        assert!(Json::parse_with_spans("7").unwrap().1.is_empty());
    }

    #[test]
    fn render_roundtrips() {
        for text in
            [r#"{"a":[1,2.5,-3],"b":"q\"\\\n","c":null,"d":true,"e":{}}"#, r#"[[],{},"😀",1e300]"#]
        {
            let v = Json::parse(text).unwrap();
            let rendered = v.render();
            assert_eq!(Json::parse(&rendered).unwrap(), v, "unstable: {rendered}");
        }
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }
}
