//! Minimal, dependency-free JSON with **deterministic** serialization.
//!
//! The wire protocol promises byte-identical transcripts for identical
//! command scripts, so the serializer must be a pure function of the
//! value: object members keep their insertion order, numbers render
//! through Rust's shortest-round-trip float formatting, and string
//! escapes are canonical (two-character escapes where JSON defines
//! them, `\u00XX` for the remaining control characters). The parser
//! accepts general JSON (any member order, `\uXXXX` escapes including
//! surrogate pairs, scientific notation) because request lines come
//! from foreign clients.
//!
//! Parsing is hardened for the trust boundary it sits on: input depth
//! is capped so a `[[[[…`-bomb cannot overflow the stack, and every
//! error carries the byte offset where parsing stopped.

use std::fmt;

/// Maximum nesting depth the parser accepts. Deep enough for any real
/// protocol message (ours nest two levels), shallow enough that a
/// hostile `[[[[…` line fails fast instead of exhausting the stack.
const MAX_DEPTH: usize = 64;

/// A JSON value. Objects preserve insertion order — serialization is
/// deterministic by construction.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; always finite (JSON has no NaN/∞).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match); `None` on non-objects.
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
            Json::Num(n) => Some(*n),
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

    /// The numeric payload as a non-negative integer: present, finite,
    /// integral and in `[0, 2^53]` (exactly representable).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if (0.0..=9_007_199_254_740_992.0).contains(&n) && n.fract() == 0.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// Serializes deterministically (no whitespace, insertion-ordered
    /// members, shortest-round-trip numbers).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
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
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one complete JSON value; trailing non-whitespace is an
    /// error (a request line is exactly one value).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser::new(text);
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

/// Writes `n`, which must be finite, as a JSON number. Rust's `Display`
/// for `f64` produces the shortest string that round-trips, so integral
/// values render without a fractional part (`5`, not `5.0`) and the
/// output is stable across platforms.
pub(crate) fn write_number(n: f64, out: &mut String) {
    debug_assert!(n.is_finite(), "JSON cannot carry {n}");
    if n == 0.0 {
        // Collapse -0.0: "-0" and "0" decode equal but compare unequal
        // as transcript bytes.
        out.push('0');
    } else {
        use fmt::Write;
        let _ = write!(out, "{n}");
    }
}

/// Writes `s` as a JSON string literal. Runs of characters that need
/// no escaping are copied in bulk: every byte that needs an escape is
/// ASCII, so a run always ends on a character boundary.
pub(crate) fn write_string(s: &str, out: &mut String) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let named = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x08 => Some("\\b"),
            0x0c => Some("\\f"),
            0x00..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match named {
            Some(escape) => out.push_str(escape),
            None => {
                use fmt::Write;
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A parse failure: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable reason.
    pub message: String,
    /// Byte offset into the input where parsing stopped.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser { text, bytes: text.as_bytes(), pos: 0 }
    }

    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { message: message.into(), offset: self.pos }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
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
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
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

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
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
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("raw control character in string"))
                }
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte in one go. Those are all ASCII, so
                    // the run ends on a character boundary of the
                    // (valid UTF-8) input.
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.bytes.len() - start);
                    self.pos += run;
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (cursor already past the
    /// `u`), combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require a \uXXXX low surrogate.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        let n: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        if !n.is_finite() {
            return Err(self.err("number overflows f64"));
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop_oneof, Just, Strategy};

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(Json::parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn parses_structures_preserving_member_order() {
        let v = Json::parse(r#"{"b":1,"a":[true,null,"x"]}"#).unwrap();
        assert_eq!(
            v,
            Json::Obj(vec![
                ("b".into(), Json::Num(1.0)),
                (
                    "a".into(),
                    Json::Arr(vec![Json::Bool(true), Json::Null, Json::Str("x".into())])
                ),
            ])
        );
        assert_eq!(v.get("b"), Some(&Json::Num(1.0)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn encode_is_deterministic_and_reparses() {
        let v = Json::Obj(vec![
            ("cmd".into(), Json::Str("render".into())),
            ("w".into(), Json::Num(800.0)),
            ("f".into(), Json::Num(0.5)),
            ("nested".into(), Json::Arr(vec![Json::Num(-0.0), Json::Str("a\"b\\c\nd".into())])),
        ]);
        let text = v.encode();
        assert_eq!(text, r#"{"cmd":"render","w":800,"f":0.5,"nested":[0,"a\"b\\c\nd"]}"#);
        let mut expected = v.clone();
        // -0.0 canonicalizes to 0 on the wire.
        if let Json::Obj(m) = &mut expected {
            m[3].1 = Json::Arr(vec![Json::Num(0.0), Json::Str("a\"b\\c\nd".into())]);
        }
        assert_eq!(Json::parse(&text).unwrap(), expected);
        assert_eq!(text, Json::parse(&text).unwrap().encode(), "fixed point");
    }

    #[test]
    fn unicode_escapes_round_trip() {
        let v = Json::parse(r#""\u00e9\ud83d\ude00\u0007""#).unwrap();
        assert_eq!(v, Json::Str("é😀\u{7}".into()));
        // Canonical re-encode: printable stays literal, control escapes.
        assert_eq!(v.encode(), "\"é😀\\u0007\"");
    }

    #[test]
    fn hostile_inputs_error_instead_of_crashing() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "\"unterminated",
            "01x",
            "1e400",
            "nulll",
            "{\"a\":1} extra",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        let bomb = "[".repeat(100_000);
        let err = Json::parse(&bomb).unwrap_err();
        assert!(err.message.contains("deep"), "{err}");
    }

    /// The string decoder one character at a time: the specification
    /// the run-copying [`Parser::string`] must match, value and error
    /// (message and byte offset) alike. `text` starts with the opening
    /// quote.
    fn reference_string(text: &str) -> Result<String, JsonError> {
        let fail = |message: &str, offset: usize| JsonError { message: message.to_owned(), offset };
        let hex4 = |at: usize| {
            let mut v = 0u32;
            for k in 0..4 {
                match text.as_bytes().get(at + k).and_then(|&b| (b as char).to_digit(16)) {
                    Some(d) => v = v * 16 + d,
                    None => return Err(fail("expected 4 hex digits", at + k)),
                }
            }
            Ok(v)
        };
        let mut out = String::new();
        let mut pos = 1;
        loop {
            let Some(c) = text[pos..].chars().next() else {
                return Err(fail("unterminated string", pos));
            };
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let simple = match text[pos + 1..].chars().next() {
                        Some('u') => None,
                        Some('"') => Some('"'),
                        Some('\\') => Some('\\'),
                        Some('/') => Some('/'),
                        Some('n') => Some('\n'),
                        Some('r') => Some('\r'),
                        Some('t') => Some('\t'),
                        Some('b') => Some('\u{08}'),
                        Some('f') => Some('\u{0c}'),
                        _ => return Err(fail("invalid escape", pos + 1)),
                    };
                    if let Some(ch) = simple {
                        out.push(ch);
                        pos += 2;
                        continue;
                    }
                    let hi = hex4(pos + 2)?;
                    pos += 6;
                    if (0xD800..0xDC00).contains(&hi) {
                        if text[pos..].starts_with("\\u") {
                            let lo = hex4(pos + 2)?;
                            pos += 6;
                            if (0xDC00..0xE000).contains(&lo) {
                                let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                out.push(char::from_u32(c).unwrap());
                                continue;
                            }
                        }
                        return Err(fail("unpaired surrogate", pos));
                    }
                    match char::from_u32(hi) {
                        Some(ch) => out.push(ch),
                        None => return Err(fail("invalid \\u escape", pos)),
                    }
                }
                c if (c as u32) < 0x20 => return Err(fail("raw control character in string", pos)),
                c => {
                    out.push(c);
                    pos += c.len_utf8();
                }
            }
        }
    }

    /// The string encoder one character at a time: the specification
    /// the run-copying [`write_string`] must match byte for byte.
    fn reference_encode(s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    fn scalar(range: std::ops::Range<u32>) -> impl Strategy<Value = String> {
        range.prop_map(|c| char::from_u32(c).map(String::from).unwrap_or_default())
    }

    /// Literal text: ASCII, multi-byte UTF-8 of every width, long runs.
    fn text_fragment() -> impl Strategy<Value = String> {
        prop_oneof![
            scalar(0x20..0x7f),
            scalar(0x80..0x800),
            scalar(0x800..0xD800),
            scalar(0x10000..0x110000),
            (1usize..40).prop_map(|n| "plain ascii run ".repeat(n)),
        ]
    }

    /// Every escape form, surrogate pairs included.
    fn escape_fragment() -> impl Strategy<Value = String> {
        prop_oneof![
            prop_oneof![
                Just("\\\"".to_owned()),
                Just("\\\\".to_owned()),
                Just("\\/".to_owned()),
                Just("\\n".to_owned()),
                Just("\\r".to_owned()),
                Just("\\t".to_owned()),
                Just("\\b".to_owned()),
                Just("\\f".to_owned()),
            ],
            (0u32..0x10000).prop_map(|u| format!("\\u{u:04x}")),
            (0u32..0x10000).prop_map(|u| format!("\\u{u:04X}")),
            (0xD800u32..0xDC00, 0xDC00u32..0xE000)
                .prop_map(|(hi, lo)| format!("\\u{hi:04x}\\u{lo:04x}")),
        ]
    }

    /// One fragment of a string body: mostly well-formed text and
    /// escapes, sometimes a raw control byte or an invalid escape that
    /// must fail to decode.
    fn fragment() -> impl Strategy<Value = String> {
        let broken = prop_oneof![
            scalar(0..0x20),
            Just("\\q".to_owned()),
            Just("\\u12g4".to_owned()),
            Just("\\ud800x".to_owned()),
            Just("\\ud800\\u0041".to_owned()),
            Just("\\udc00".to_owned()),
            Just("\\".to_owned()),
        ];
        prop_oneof![text_fragment(), text_fragment(), escape_fragment(), escape_fragment(), broken]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 512,
            ..proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn string_decode_matches_per_character_reference(
            body in proptest::collection::vec(fragment(), 0..24),
            closed in 0u8..4,
        ) {
            let mut text = format!("\"{}", body.concat());
            if closed > 0 {
                text.push('"');
            }
            let mut p = Parser::new(&text);
            proptest::prop_assert_eq!(p.string(), reference_string(&text), "input {:?}", text);
        }

        #[test]
        fn string_encode_matches_per_character_reference(
            body in proptest::collection::vec(prop_oneof![fragment(), scalar(0..0x20)], 0..24),
        ) {
            let s = body.concat();
            let mut out = String::new();
            write_string(&s, &mut out);
            proptest::prop_assert_eq!(&out, &reference_encode(&s));
            proptest::prop_assert_eq!(Json::parse(&out), Ok(Json::Str(s)));
        }
    }

    #[test]
    fn as_u64_accepts_exact_integers_only() {
        assert_eq!(Json::Num(5.0).as_u64(), Some(5));
        assert_eq!(Json::Num(0.0).as_u64(), Some(0));
        assert_eq!(Json::Num(5.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Str("5".into()).as_u64(), None);
    }
}
