//! A minimal JSON value type with a hand-rolled parser, and the two
//! sinks every encoder writes into.
//!
//! The job server speaks newline-delimited JSON over TCP and must build
//! **fully offline**, so the wire format cannot depend on serde. This
//! module implements exactly what the protocol needs: the six JSON value
//! kinds, a recursive-descent parser, and a writer whose float rendering
//! (`{:?}`, Rust's shortest-roundtrip formatting) guarantees that every
//! finite `f64` survives a serialize → parse round trip **bit-exactly**
//! — the property the service's "cached results are bit-identical"
//! contract rests on.
//!
//! Every wire type has one encoder, generic over a [`JsonSink`], and two
//! sinks take its tokens: [`JsonText`] appends compact text to a
//! `String` — the connection writer's reused frame buffer, so a response
//! reaches the wire without a tree — and [`JsonTree`] builds the [`Json`]
//! value `to_json` returns. A tree renders through its own encoder
//! (`Json::encode`) into a text sink, so both paths end in the same
//! number and string writers and agree byte for byte.
//!
//! # Examples
//!
//! ```
//! use drmap_service::json::{Json, JsonSink, JsonText, JsonTree};
//!
//! let v = Json::parse(r#"{"id": 7, "nets": ["alexnet", "vgg16"]}"#)?;
//! assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
//! assert_eq!(v.get("nets").unwrap().as_array().unwrap().len(), 2);
//! let mut text = String::new();
//! JsonText::new(&mut text).object(|o| o.key("id").num(7.0));
//! let tree = JsonTree::build(|t| t.object(|o| o.key("id").num(7.0)));
//! assert_eq!(text, r#"{"id":7}"#);
//! assert_eq!(tree.render(), text);
//! # Ok::<(), drmap_service::json::JsonError>(())
//! ```

use core::fmt;
use core::fmt::Write as _;

/// A JSON parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    message: String,
}

impl JsonError {
    fn new(offset: usize, message: impl Into<String>) -> Self {
        JsonError {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// The largest integer a number carries exactly (2^53): numbers are
/// `f64`, so [`Json::as_u64`] — and with it every wire id — stops here.
pub const MAX_EXACT_INT: u64 = 1 << 53;

/// A JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (ordered key–value pairs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from key–value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Build a number from a `u64` (exact for values below 2⁵³).
    pub fn num_u64(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Build a number from a `usize` (exact for values below 2⁵³).
    pub fn num_usize(n: usize) -> Json {
        Json::Num(n as f64)
    }

    /// Member of an object, if this is an object and the key exists.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload as an exact non-negative integer, at most
    /// [`MAX_EXACT_INT`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT_INT as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The numeric payload as an exact `usize`.
    pub(crate) fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|n| n as usize)
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

    /// Parse a complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::new(p.pos, "trailing characters"));
        }
        Ok(value)
    }

    /// Render to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.encode(&mut JsonText::new(&mut out));
        out
    }

    /// The tree's own encoder: write this value into `out`.
    pub(crate) fn encode<S: JsonSink>(&self, out: &mut S) {
        match self {
            Json::Null => out.null(),
            Json::Bool(b) => out.bool(*b),
            Json::Num(n) => out.num(*n),
            Json::Str(s) => out.str(s),
            Json::Arr(items) => out.array(|a| items.iter().for_each(|item| item.encode(a))),
            Json::Obj(pairs) => out.object(|o| pairs.iter().for_each(|(k, v)| v.encode(o.key(k)))),
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Where an encoder writes a JSON value, token by token. Inside
/// [`JsonSink::object`] each member is a [`JsonSink::key`] and a value.
pub trait JsonSink {
    /// `null`.
    fn null(&mut self);
    /// `true` / `false`.
    fn bool(&mut self, b: bool);
    /// A number (integers pass as `n as f64`; non-finite renders `null`).
    fn num(&mut self, n: f64);
    /// A string.
    fn str(&mut self, s: &str);
    /// Name the open object's next member; its value follows.
    fn key(&mut self, k: &str) -> &mut Self;
    /// An object whose members `members` writes.
    fn object(&mut self, members: impl FnOnce(&mut Self));
    /// An array whose elements `items` writes.
    fn array(&mut self, items: impl FnOnce(&mut Self));
}

/// The text sink: appends compact JSON to a `String`.
#[derive(Debug)]
pub struct JsonText<'a> {
    out: &'a mut String,
    /// Whether the next key or value follows a sibling.
    comma: bool,
}

impl<'a> JsonText<'a> {
    /// A sink appending one value to `out`.
    pub fn new(out: &'a mut String) -> Self {
        JsonText { out, comma: false }
    }

    /// The buffer, after a comma if a sibling precedes: whatever is
    /// written next completes a value.
    fn next(&mut self) -> &mut String {
        if std::mem::replace(&mut self.comma, true) {
            self.out.push(',');
        }
        self.out
    }

    fn container(&mut self, open: char, inner: impl FnOnce(&mut Self), close: char) {
        self.next().push(open);
        self.comma = false;
        inner(self);
        self.out.push(close);
        self.comma = true;
    }
}

impl JsonSink for JsonText<'_> {
    fn null(&mut self) {
        self.next().push_str("null");
    }

    fn bool(&mut self, b: bool) {
        self.next().push_str(if b { "true" } else { "false" });
    }

    fn num(&mut self, n: f64) {
        write_number(n, self.next());
    }

    fn str(&mut self, s: &str) {
        write_string(s, self.next());
    }

    fn key(&mut self, k: &str) -> &mut Self {
        self.str(k);
        self.out.push(':');
        self.comma = false;
        self
    }

    fn object(&mut self, members: impl FnOnce(&mut Self)) {
        self.container('{', members, '}');
    }

    fn array(&mut self, items: impl FnOnce(&mut Self)) {
        self.container('[', items, ']');
    }
}

/// The tree sink: builds the [`Json`] value an encoder writes, each
/// container in a fresh sink of its own.
#[derive(Debug, Default)]
pub struct JsonTree {
    /// Values written under no key: array elements, or the top level.
    items: Vec<Json>,
    /// Object members, each written after its [`JsonSink::key`].
    members: Vec<(String, Json)>,
    key: Option<String>,
}

impl JsonTree {
    /// The value `encode` writes (`null` if it writes none).
    pub fn build(encode: impl FnOnce(&mut JsonTree)) -> Json {
        let mut tree = JsonTree::default();
        encode(&mut tree);
        tree.items.pop().unwrap_or(Json::Null)
    }

    fn put(&mut self, value: Json) {
        match self.key.take() {
            Some(key) => self.members.push((key, value)),
            None => self.items.push(value),
        }
    }
}

impl JsonSink for JsonTree {
    fn null(&mut self) {
        self.put(Json::Null);
    }

    fn bool(&mut self, b: bool) {
        self.put(Json::Bool(b));
    }

    fn num(&mut self, n: f64) {
        self.put(Json::Num(n));
    }

    fn str(&mut self, s: &str) {
        self.put(Json::str(s));
    }

    fn key(&mut self, k: &str) -> &mut Self {
        self.key = Some(k.to_owned());
        self
    }

    fn object(&mut self, members: impl FnOnce(&mut Self)) {
        let mut object = JsonTree::default();
        members(&mut object);
        self.put(Json::Obj(object.members));
    }

    fn array(&mut self, items: impl FnOnce(&mut Self)) {
        let mut array = JsonTree::default();
        items(&mut array);
        self.put(Json::Arr(array.items));
    }
}

// Writing into a `String` cannot fail, so the `write!` results below
// are always `Ok`.
fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; the protocol never produces them, but a
        // defensive null beats emitting an unparsable token.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // `{:?}` is Rust's shortest representation that round-trips the
        // exact bit pattern through `str::parse::<f64>()`.
        let _ = write!(out, "{n:?}");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    // Copy each run of bytes that need no escape whole. Every escaped
    // byte is ASCII, so a run always ends on a char boundary.
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escaped = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escaped.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(escaped);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Maximum container nesting the parser accepts. The protocol's own
/// documents nest 4 deep; the cap exists because the parser recurses
/// per nesting level and serves untrusted TCP input — without it, a
/// single `[[[[…` line could overflow the handler thread's stack and
/// abort the whole process.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn descend(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(JsonError::new(
                self.pos,
                format!("nesting deeper than {MAX_DEPTH}"),
            ));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(
                self.pos,
                format!("expected {:?}", b as char),
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::new(self.pos, format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.bytes.get(self.pos) {
            None => Err(JsonError::new(self.pos, "unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(&b) => Err(JsonError::new(
                self.pos,
                format!("unexpected character {:?}", b as char),
            )),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while let Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::new(start, "invalid number"))?;
        token
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError::new(start, format!("invalid number {token:?}")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(JsonError::new(self.pos, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| JsonError::new(self.pos, "unterminated escape"))?;
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
                            let first = self.hex4()?;
                            let code = if (0xd800..0xdc00).contains(&first) {
                                // Surrogate pair: require the low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(JsonError::new(self.pos, "invalid surrogate"));
                                }
                                0x10000 + ((first - 0xd800) << 10) + (low - 0xdc00)
                            } else {
                                first
                            };
                            out.push(
                                char::from_u32(code).ok_or_else(|| {
                                    JsonError::new(self.pos, "invalid code point")
                                })?,
                            );
                        }
                        other => {
                            return Err(JsonError::new(
                                self.pos - 1,
                                format!("invalid escape {:?}", other as char),
                            ))
                        }
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash
                    // whole. Both are ASCII, so the run ends on a char
                    // boundary of the `&str` being parsed.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|_| JsonError::new(self.pos, "invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let token = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| JsonError::new(self.pos, "truncated \\u escape"))?;
        let code = u32::from_str_radix(token, 16)
            .map_err(|_| JsonError::new(self.pos, format!("invalid \\u escape {token:?}")))?;
        self.pos = end;
        Ok(code)
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.descend()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(JsonError::new(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.descend()?;
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(JsonError::new(self.pos, "expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(Json::parse(r#""hi""#).unwrap(), Json::str("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].get("b"), Some(&Json::Null));
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line\nbreak \"quoted\" back\\slash \t ünïcode \u{1}";
        let rendered = Json::str(original).render();
        assert_eq!(Json::parse(&rendered).unwrap(), Json::str(original));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""é""#).unwrap(), Json::str("é"));
        // Surrogate pair for U+1F600.
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::str("😀"));
        assert!(Json::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for bits in [
            1.234e-9_f64,
            0.1 + 0.2,
            f64::MIN_POSITIVE,
            9.007199254740993e15,
            -3.3e300,
        ] {
            let rendered = Json::Num(bits).render();
            let reparsed = Json::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(reparsed.to_bits(), bits.to_bits(), "{rendered}");
        }
    }

    #[test]
    fn integers_render_without_exponent() {
        assert_eq!(Json::num_u64(37_748_736).render(), "37748736");
        assert_eq!(Json::Num(-5.0).render(), "-5");
        assert_eq!(Json::Num(0.5).render(), "0.5");
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(42.0).as_u64(), Some(42));
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let err = Json::parse("[1, ").unwrap_err();
        assert!(err.to_string().contains("byte"));
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("[1] trailing").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        let hostile = "[".repeat(50_000);
        let err = Json::parse(&hostile).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        // Depth within the cap still parses.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
        // Sibling containers don't accumulate depth.
        let siblings = "[[1],[2],[3]]";
        assert!(Json::parse(siblings).is_ok());
    }

    #[test]
    fn objects_preserve_order_and_render_compactly() {
        let v = Json::obj([("z", Json::num_u64(1)), ("a", Json::num_u64(2))]);
        assert_eq!(v.render(), r#"{"z":1,"a":2}"#);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }
}
