//! A small, deterministic JSON layer: a pull [`JsonReader`], a push
//! [`JsonWriter`], and the [`JsonValue`] tree built on the two.
//!
//! The observability layer (and the wire formats built on top of it)
//! must be bit-reproducible: two identical runs have to serialize to
//! byte-identical text. That rules out hash-map key order, so objects
//! are backed by [`BTreeMap`] and always serialize with sorted keys.
//! Floats serialize via Rust's shortest-roundtrip formatting, which is
//! stable for a given value.
//!
//! There is exactly one tokenizer (the reader) and one escaper (the
//! writer): [`JsonValue::parse`] and the `to_string_*` methods are thin
//! tree builders/walkers over them, and bulk codecs that would only
//! build a tree to walk it once drive the reader and writer directly.
//! Both do one linear pass over their input.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number. Stored as `f64`; integers up to 2^53 roundtrip
    /// exactly, which covers every counter this crate emits. Values
    /// that exceed that (saturated counters) are clamped on write.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with deterministically-ordered keys.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// An empty object.
    pub fn obj() -> JsonValue {
        JsonValue::Obj(BTreeMap::new())
    }

    /// Insert a key into an object value (no-op on non-objects).
    pub fn set(&mut self, key: &str, v: impl Into<JsonValue>) {
        if let JsonValue::Obj(m) = self {
            m.insert(key.to_string(), v.into());
        }
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) => f64_to_u64(*n),
            _ => None,
        }
    }

    /// The value as a `bool`, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object map, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Serialize to a compact string (no whitespace, sorted keys).
    pub fn to_string_compact(&self) -> String {
        let mut w = JsonWriter::compact();
        write_value(self, &mut w);
        w.finish()
    }

    /// Serialize to a pretty-printed string (2-space indent, sorted keys).
    pub fn to_string_pretty(&self) -> String {
        let mut w = JsonWriter::pretty();
        write_value(self, &mut w);
        let mut out = w.finish();
        out.push('\n');
        out
    }

    /// Parse a JSON document. The whole input must be consumed (trailing
    /// whitespace allowed).
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut r = JsonReader::new(input);
        let v = read_value(&mut r)?;
        r.end()?;
        Ok(v)
    }
}

/// The non-negative integral `f64`s below 2^64, as `u64`.
fn f64_to_u64(n: f64) -> Option<u64> {
    // `u64::MAX as f64` rounds up to 2^64, which does not fit: the
    // bound is strict.
    (n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64).then_some(n as u64)
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}
impl From<f64> for JsonValue {
    fn from(n: f64) -> Self {
        JsonValue::Num(n)
    }
}
impl From<u64> for JsonValue {
    fn from(n: u64) -> Self {
        JsonValue::Num(n as f64)
    }
}
impl From<i64> for JsonValue {
    fn from(n: i64) -> Self {
        JsonValue::Num(n as f64)
    }
}
impl From<u32> for JsonValue {
    fn from(n: u32) -> Self {
        JsonValue::Num(n as f64)
    }
}
impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        JsonValue::Num(n as f64)
    }
}
impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}
impl From<Vec<JsonValue>> for JsonValue {
    fn from(v: Vec<JsonValue>) -> Self {
        JsonValue::Arr(v)
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

fn write_value(v: &JsonValue, w: &mut JsonWriter) {
    match v {
        JsonValue::Null => w.null(),
        JsonValue::Bool(b) => w.bool(*b),
        JsonValue::Num(n) => w.f64(*n),
        JsonValue::Str(s) => w.str(s),
        JsonValue::Arr(items) => {
            w.begin_array();
            for item in items {
                write_value(item, w);
            }
            w.end_array();
        }
        JsonValue::Obj(map) => {
            w.begin_object();
            for (k, item) in map {
                w.key(k);
                write_value(item, w);
            }
            w.end_object();
        }
    }
}

fn read_value(r: &mut JsonReader<'_>) -> Result<JsonValue, JsonError> {
    Ok(match r.value()? {
        Token::Null => JsonValue::Null,
        Token::Bool(b) => JsonValue::Bool(b),
        Token::Num(n) => JsonValue::Num(n.value),
        Token::Str(s) => JsonValue::Str(s.into_owned()),
        Token::Arr => {
            let mut items = Vec::new();
            while r.element()? {
                items.push(read_value(r)?);
            }
            JsonValue::Arr(items)
        }
        Token::Obj => {
            let mut map = BTreeMap::new();
            while let Some(key) = r.key()? {
                let v = read_value(r)?;
                map.insert(key.into_owned(), v);
            }
            JsonValue::Obj(map)
        }
    })
}

/// A push JSON writer: values, keys and container brackets in document
/// order, with the commas (and, when pretty-printing, the indentation)
/// worked out here. It writes keys in the order it is given them;
/// callers that need the byte-reproducible form emit them sorted.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    indent: Option<usize>,
    level: usize,
    /// Something was already written in the innermost open container.
    nonempty: bool,
    /// A key was just written; the next value belongs to it.
    after_key: bool,
}

impl JsonWriter {
    /// A writer of compact text (no whitespace).
    pub fn compact() -> JsonWriter {
        JsonWriter::with_indent(None)
    }

    /// A writer of pretty-printed text (2-space indent).
    pub fn pretty() -> JsonWriter {
        JsonWriter::with_indent(Some(2))
    }

    fn with_indent(indent: Option<usize>) -> JsonWriter {
        JsonWriter {
            out: String::new(),
            indent,
            level: 0,
            nonempty: false,
            after_key: false,
        }
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    fn newline_indent(&mut self) {
        if let Some(w) = self.indent {
            self.out.push('\n');
            for _ in 0..w * self.level {
                self.out.push(' ');
            }
        }
    }

    /// The separator due before a value or key at the current position.
    fn separate(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if self.nonempty {
            self.out.push(',');
        }
        if self.level > 0 {
            self.newline_indent();
        }
        self.nonempty = true;
    }

    fn begin(&mut self, bracket: char) {
        self.separate();
        self.out.push(bracket);
        self.level += 1;
        self.nonempty = false;
    }

    fn end(&mut self, bracket: char) {
        self.level -= 1;
        if self.nonempty {
            self.newline_indent();
        }
        self.out.push(bracket);
        self.nonempty = true;
    }

    /// Open an object.
    pub fn begin_object(&mut self) {
        self.begin('{');
    }

    /// Close the innermost object.
    pub fn end_object(&mut self) {
        self.end('}');
    }

    /// Open an array.
    pub fn begin_array(&mut self) {
        self.begin('[');
    }

    /// Close the innermost array.
    pub fn end_array(&mut self) {
        self.end(']');
    }

    /// Write an object key; the next value written belongs to it.
    pub fn key(&mut self, key: &str) {
        self.separate();
        write_string(key, &mut self.out);
        self.out.push(':');
        if self.indent.is_some() {
            self.out.push(' ');
        }
        self.after_key = true;
    }

    /// Write `null`.
    pub fn null(&mut self) {
        self.separate();
        self.out.push_str("null");
    }

    /// Write a boolean.
    pub fn bool(&mut self, b: bool) {
        self.separate();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Write a string, escaped.
    pub fn str(&mut self, s: &str) {
        self.separate();
        write_string(s, &mut self.out);
    }

    /// Write an unsigned integer as its exact digits (no `f64` round
    /// trip, so values above 2^53 survive).
    pub fn u64(&mut self, n: u64) {
        use fmt::Write;
        self.separate();
        let _ = write!(self.out, "{n}");
    }

    /// Write a number. Integral values print without a fraction;
    /// non-finite values are clamped (JSON has no NaN/Inf).
    pub fn f64(&mut self, n: f64) {
        self.separate();
        write_number(n, &mut self.out);
    }
}

fn write_number(n: f64, out: &mut String) {
    use fmt::Write;
    if !n.is_finite() {
        // JSON has no NaN/Inf; clamp to null-adjacent sentinels.
        out.push_str(if n.is_nan() {
            "0"
        } else if n > 0.0 {
            "1.7976931348623157e308"
        } else {
            "-1.7976931348623157e308"
        });
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(s: &str, out: &mut String) {
    use fmt::Write;
    out.push('"');
    // Copy the runs between the bytes that need escaping. Those bytes
    // are all ASCII, so every run boundary is a char boundary.
    let mut run_start = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run_start..i]);
        run_start = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run_start..]);
    out.push('"');
}

/// A JSON parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: &'static str,
    /// Byte offset in the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

const MAX_DEPTH: usize = 128;

/// A number as the reader scanned it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Number {
    /// The value as an `f64` (what [`JsonValue::Num`] stores).
    pub value: f64,
    /// The exact value, when the text was plain digits that fit a `u64`.
    pub exact: Option<u64>,
}

impl Number {
    /// The number as a `u64`: exact for plain digits, otherwise by
    /// [`JsonValue::as_u64`]'s rule (a non-negative integral float, so
    /// the `5.0` and `1e3` spellings read as 5 and 1000).
    pub fn as_u64(self) -> Option<u64> {
        self.exact.or_else(|| f64_to_u64(self.value))
    }
}

/// What [`JsonReader::value`] read: a whole scalar, or the opening
/// bracket of a container whose contents are read next.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(Number),
    /// A string, borrowed from the input when it has no escapes.
    Str(Cow<'a, str>),
    /// `[` — iterate with [`JsonReader::element`].
    Arr,
    /// `{` — iterate with [`JsonReader::key`].
    Obj,
}

/// A pull JSON reader over a `&str` (so the text is already valid
/// UTF-8), consuming each byte once.
///
/// Read a document with one value read followed by [`JsonReader::end`].
/// A value read is [`JsonReader::value`], a typed accessor, or
/// [`JsonReader::skip`]; after one opens a container, alternate
/// [`JsonReader::element`] / [`JsonReader::key`] with one value read
/// per `true` / `Some` until the container closes.
///
/// The typed accessors mirror `JsonValue::as_*`: they return `None`
/// after skipping a well-formed value of another type, so a caller can
/// tell *not JSON* (`Err`, stop) from *JSON of the wrong shape* (`None`,
/// keep reading) exactly as code holding a parsed tree could.
#[derive(Debug)]
pub struct JsonReader<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
    /// A container was just opened and nothing read from it yet.
    fresh: bool,
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> JsonReader<'a> {
        JsonReader {
            src,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { msg, at: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
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
            Err(self.err("unexpected character"))
        }
    }

    /// Read the next value: a scalar whole, or a container's opening
    /// bracket.
    pub fn value(&mut self) -> Result<Token<'a>, JsonError> {
        self.skip_ws();
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Token::Null),
            Some(b't') => self.literal("true", Token::Bool(true)),
            Some(b'f') => self.literal("false", Token::Bool(false)),
            Some(b'"') => Ok(Token::Str(self.string()?)),
            Some(b'[') => Ok(self.open(Token::Arr)),
            Some(b'{') => Ok(self.open(Token::Obj)),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Token::Num(self.number()?)),
            _ => Err(self.err("expected a value")),
        }
    }

    fn open(&mut self, token: Token<'a>) -> Token<'a> {
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
        token
    }

    fn close(&mut self) {
        self.pos += 1;
        // Saturating: a caller iterating a container it never opened
        // gets a wrong answer, not an overflow panic.
        self.depth = self.depth.saturating_sub(1);
    }

    /// Inside an array: is there another element? `true` leaves the
    /// reader at it; `false` means the closing `]` was consumed.
    pub fn element(&mut self) -> Result<bool, JsonError> {
        self.skip_ws();
        let fresh = std::mem::take(&mut self.fresh);
        match self.peek() {
            Some(b']') => {
                self.close();
                Ok(false)
            }
            _ if fresh => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.err("expected , or ]")),
        }
    }

    /// Inside an object: the next member's key, leaving the reader at
    /// its value; `None` means the closing `}` was consumed.
    pub fn key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        self.skip_ws();
        let fresh = std::mem::take(&mut self.fresh);
        match self.peek() {
            Some(b'}') => {
                self.close();
                return Ok(None);
            }
            _ if fresh => {}
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
            }
            _ => return Err(self.err("expected , or }")),
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Skip the contents of the container `token` opened (nothing to do
    /// for a scalar). Recursion is bounded by the nesting limit.
    fn skip_rest(&mut self, token: Token<'a>) -> Result<(), JsonError> {
        match token {
            Token::Arr => {
                while self.element()? {
                    self.skip()?;
                }
            }
            Token::Obj => {
                while self.key()?.is_some() {
                    self.skip()?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Read past the next value, whatever it is.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        let token = self.value()?;
        self.skip_rest(token)
    }

    /// The next value as a string; `None` (value skipped) if it is not one.
    pub fn str(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        match self.value()? {
            Token::Str(s) => Ok(Some(s)),
            other => self.skip_rest(other).map(|()| None),
        }
    }

    /// The next value as a `u64` (see [`Number::as_u64`]); `None` (value
    /// skipped) if it is not one.
    pub fn u64(&mut self) -> Result<Option<u64>, JsonError> {
        match self.value()? {
            Token::Num(n) => Ok(n.as_u64()),
            other => self.skip_rest(other).map(|()| None),
        }
    }

    /// The next value as an `f64`; `None` (value skipped) if it is not a
    /// number.
    pub fn f64(&mut self) -> Result<Option<f64>, JsonError> {
        match self.value()? {
            Token::Num(n) => Ok(Some(n.value)),
            other => self.skip_rest(other).map(|()| None),
        }
    }

    /// Open the next value as an array; `false` (value skipped) if it is
    /// not one.
    pub fn array(&mut self) -> Result<bool, JsonError> {
        match self.value()? {
            Token::Arr => Ok(true),
            other => self.skip_rest(other).map(|()| false),
        }
    }

    /// Open the next value as an object; `false` (value skipped) if it
    /// is not one.
    pub fn object(&mut self) -> Result<bool, JsonError> {
        match self.value()? {
            Token::Obj => Ok(true),
            other => self.skip_rest(other).map(|()| false),
        }
    }

    /// The document is over: only whitespace may remain.
    pub fn end(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(self.err("trailing data"));
        }
        Ok(())
    }

    fn literal(&mut self, lit: &'static str, token: Token<'a>) -> Result<Token<'a>, JsonError> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(token)
        } else {
            Err(self.err("bad literal"))
        }
    }

    /// Consume a run of digits, folding them into `acc` (`None` once the
    /// value no longer fits).
    fn digits(&mut self, mut acc: Option<u64>) -> Option<u64> {
        while let Some(c @ b'0'..=b'9') = self.peek() {
            acc = acc
                .and_then(|n| n.checked_mul(10))
                .and_then(|n| n.checked_add(u64::from(c - b'0')));
            self.pos += 1;
        }
        acc
    }

    fn number(&mut self) -> Result<Number, JsonError> {
        let start = self.pos;
        let mut plain = true;
        if self.peek() == Some(b'-') {
            plain = false;
            self.pos += 1;
        }
        if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            return Err(self.err("bad number"));
        }
        let integer = self.digits(Some(0));
        if self.peek() == Some(b'.') {
            plain = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("bad fraction"));
            }
            self.digits(None);
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            plain = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("bad exponent"));
            }
            self.digits(None);
        }
        let exact = integer.filter(|_| plain);
        let value = match exact {
            // Same rounding (to nearest, ties to even) as parsing the text.
            Some(n) => n as f64,
            None => self.src[start..self.pos]
                .parse::<f64>()
                .map_err(|_| self.err("unparseable number"))?,
        };
        Ok(Number { value, exact })
    }

    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        // Allocated at the first escape; an escape-free string is
        // returned as a slice of the input.
        let mut unescaped: Option<String> = None;
        loop {
            // One run: up to the next quote, backslash or control byte.
            // All three are ASCII, so a run always ends on a char
            // boundary of the (already valid) input.
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            let src = self.src;
            let run = &src[start..self.pos];
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match unescaped {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    let s = unescaped.get_or_insert_with(String::new);
                    s.push_str(run);
                    s.push(c);
                }
                Some(_) => return Err(self.err("control char in string")),
            }
        }
    }

    /// The scalar an escape sequence stands for; the reader is just
    /// past the backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let cp = self.hex4()?;
                // Surrogate pairs.
                let cp = if (0xD800..0xDC00).contains(&cp) {
                    if self.peek() != Some(b'\\') {
                        return Err(self.err("lone high surrogate"));
                    }
                    self.pos += 1;
                    self.expect(b'u')?;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("bad low surrogate"));
                    }
                    0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00)
                } else if (0xDC00..0xE000).contains(&cp) {
                    return Err(self.err("lone low surrogate"));
                } else {
                    cp
                };
                // hex4 already advanced past the digits.
                return char::from_u32(cp).ok_or(self.err("bad codepoint"));
            }
            _ => return Err(self.err("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("bad \\u escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn roundtrip_compact() {
        let mut v = JsonValue::obj();
        v.set("b", 2u64);
        v.set("a", "x\"y\n");
        v.set(
            "c",
            vec![JsonValue::Null, JsonValue::Bool(true), JsonValue::Num(1.5)],
        );
        let s = v.to_string_compact();
        // Keys sorted deterministically.
        assert_eq!(s, r#"{"a":"x\"y\n","b":2,"c":[null,true,1.5]}"#);
        assert_eq!(JsonValue::parse(&s).unwrap(), v);
    }

    #[test]
    fn pretty_output_is_unchanged() {
        let mut v = JsonValue::obj();
        v.set("a", vec![JsonValue::Num(1.0), JsonValue::obj()]);
        v.set("b", JsonValue::Arr(Vec::new()));
        v.set("c", "x");
        assert_eq!(
            v.to_string_pretty(),
            "{\n  \"a\": [\n    1,\n    {}\n  ],\n  \"b\": [],\n  \"c\": \"x\"\n}\n"
        );
        assert_eq!(JsonValue::parse(&v.to_string_pretty()).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "not json",
            "{",
            "[1,",
            "[1,]",
            "\"open",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "01x",
            "{}extra",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn parses_numbers_and_escapes() {
        let v = JsonValue::parse(r#"[-1.5e3, 0, 42, "A😀"]"#).unwrap();
        let a = v.as_arr().unwrap();
        assert_eq!(a[0].as_f64(), Some(-1500.0));
        assert_eq!(a[2].as_u64(), Some(42));
        assert_eq!(a[3].as_str(), Some("A😀"));
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let s = "[".repeat(1000) + &"]".repeat(1000);
        assert!(JsonValue::parse(&s).is_err());
        assert!(JsonReader::new(&s).skip().is_err());
    }

    #[test]
    fn integers_stay_integral_in_output() {
        assert_eq!(JsonValue::Num(3.0).to_string_compact(), "3");
        assert_eq!(JsonValue::Num(3.25).to_string_compact(), "3.25");
    }

    #[test]
    fn as_u64_rejects_two_to_the_64() {
        // 2^64 is `u64::MAX as f64`; it used to saturate to u64::MAX.
        let v = JsonValue::parse("18446744073709551616").unwrap();
        assert_eq!(v.as_f64(), Some(18446744073709551616.0));
        assert_eq!(v.as_u64(), None);
        assert_eq!(JsonReader::new("18446744073709551616").u64(), Ok(None));
        // The largest f64 below it still converts.
        let below = JsonValue::Num(18446744073709549568.0);
        assert_eq!(below.as_u64(), Some(18446744073709549568));
    }

    #[test]
    fn reader_u64_is_exact_and_keeps_the_float_spellings() {
        let text = format!("[{},5.0,1e3,-0,1.5,-1,\"7\"]", u64::MAX - 1);
        let mut r = JsonReader::new(&text);
        assert!(r.array().unwrap());
        let mut got = Vec::new();
        while r.element().unwrap() {
            got.push(r.u64().unwrap());
        }
        r.end().unwrap();
        assert_eq!(
            got,
            [
                Some(u64::MAX - 1),
                Some(5),
                Some(1000),
                Some(0),
                None,
                None,
                None
            ]
        );
        let mut w = JsonWriter::compact();
        w.u64(u64::MAX - 1);
        assert_eq!(w.finish(), (u64::MAX - 1).to_string());
    }

    #[test]
    fn multibyte_scalars_around_an_escape() {
        // A multi-byte scalar directly before and directly after an escape.
        let v = JsonValue::parse(r#""é\n€""#).unwrap();
        assert_eq!(v.as_str(), Some("é\n€"));
        let v = JsonValue::parse(r#""😀\\😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀\\😀"));
    }

    #[test]
    fn surrogate_pair_between_two_runs() {
        let v = JsonValue::parse(r#""run one \ud83d\ude00 run two""#).unwrap();
        assert_eq!(v.as_str(), Some("run one 😀 run two"));
        for bad in [r#""a\ud83d b""#, r#""a\ude00b""#, r#""a\ud83d\u0041b""#] {
            assert!(JsonValue::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn control_byte_inside_a_run_is_rejected_at_its_offset() {
        let e = JsonValue::parse("\"abc\u{1}def\"").unwrap_err();
        assert_eq!(e.msg, "control char in string");
        assert_eq!(e.at, 4);
        let e = JsonValue::parse("[\"é\tx\"]").unwrap_err();
        assert_eq!((e.msg, e.at), ("control char in string", 4));
    }

    #[test]
    fn unterminated_run_at_end_of_input() {
        let e = JsonValue::parse("\"no closing quote é").unwrap_err();
        assert_eq!(e.msg, "unterminated string");
        assert_eq!(e.at, "\"no closing quote é".len());
        assert!(JsonValue::parse("\"ends in a backslash\\").is_err());
    }

    #[test]
    fn escape_free_strings_are_borrowed() {
        let mut r = JsonReader::new(r#"["plain é", "esc\"aped", ""]"#);
        assert!(r.array().unwrap());
        assert!(r.element().unwrap());
        assert!(matches!(r.str().unwrap(), Some(Cow::Borrowed("plain é"))));
        assert!(r.element().unwrap());
        match r.str().unwrap() {
            Some(Cow::Owned(s)) => assert_eq!(s, "esc\"aped"),
            other => panic!("expected an owned string, got {other:?}"),
        }
        assert!(r.element().unwrap());
        assert!(matches!(r.str().unwrap(), Some(Cow::Borrowed(""))));
        assert!(!r.element().unwrap());
        r.end().unwrap();
    }

    #[test]
    fn typed_accessors_skip_other_types() {
        // Each accessor skips a whole mistyped value, containers
        // included, and the reader carries on after it.
        let mut r =
            JsonReader::new(r#"{"a":{"x":[1,{"y":null}]},"b":[true],"c":"s","d":2,"e":false}"#);
        assert!(r.object().unwrap());
        assert_eq!(r.key().unwrap().as_deref(), Some("a"));
        assert_eq!(r.str().unwrap(), None);
        assert_eq!(r.key().unwrap().as_deref(), Some("b"));
        assert_eq!(r.u64().unwrap(), None);
        assert_eq!(r.key().unwrap().as_deref(), Some("c"));
        assert!(!r.array().unwrap());
        assert_eq!(r.key().unwrap().as_deref(), Some("d"));
        assert!(!r.object().unwrap());
        assert_eq!(r.key().unwrap().as_deref(), Some("e"));
        assert_eq!(r.f64().unwrap(), None);
        assert_eq!(r.key().unwrap(), None);
        r.end().unwrap();
        // A syntax error inside a skipped value is still an error.
        assert!(JsonReader::new(r#"{"a":[1,}"#).str().is_err());
        let mut r = JsonReader::new("1 2");
        r.skip().unwrap();
        assert!(r.end().is_err());
    }

    #[test]
    fn writer_escapes_like_the_parser_unescapes() {
        let s = "q\"b\\n\nr\rt\tc\u{1}\u{1f} é😀";
        let mut w = JsonWriter::compact();
        w.str(s);
        let text = w.finish();
        assert_eq!(text, "\"q\\\"b\\\\n\\nr\\rt\\tc\\u0001\\u001f é😀\"");
        assert_eq!(JsonValue::parse(&text).unwrap().as_str(), Some(s));
    }

    /// Best-of-5 parse cost in ns per input byte.
    fn parse_ns_per_byte(doc: &str) -> f64 {
        let best = (0..5)
            .map(|_| {
                let t = Instant::now();
                let v = JsonValue::parse(std::hint::black_box(doc)).unwrap();
                let ns = t.elapsed().as_nanos();
                std::hint::black_box(v);
                ns
            })
            .min()
            .unwrap();
        best as f64 / doc.len() as f64
    }

    #[test]
    fn parse_time_is_linear_in_input_size() {
        // String-heavy records, the shape of a blocked-list download.
        // When every scalar re-validated the rest of the input, the
        // large document cost two orders of magnitude more per byte.
        let doc = |bytes: usize| {
            let mut w = JsonWriter::compact();
            w.begin_array();
            let mut i = 0;
            while w.out.len() < bytes {
                w.begin_object();
                w.key("url");
                w.str(&format!(
                    "http://blocked-{i}.example/päth/to/\"page\"?q={i}"
                ));
                w.key("stages");
                w.begin_array();
                w.str("dns-hijack");
                w.str("http-drop");
                w.end_array();
                w.end_object();
                i += 1;
            }
            w.end_array();
            w.finish()
        };
        let (small, large) = (doc(4 * 1024), doc(1024 * 1024));
        let (small_ns, large_ns) = (parse_ns_per_byte(&small), parse_ns_per_byte(&large));
        assert!(
            large_ns <= 4.0 * small_ns,
            "1 MB parses at {large_ns:.1} ns/byte, 4 KB at {small_ns:.1} ns/byte"
        );
    }
}
