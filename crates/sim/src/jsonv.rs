//! A minimal, dependency-free JSON value type with a strict parser.
//!
//! Every JSON file the workspace writes is a [`Json`] value rendered
//! once: snapshots, checkpoints, forensic dumps, telemetry reports,
//! Perfetto timelines and the scenario-fuzzing corpus (see
//! `hmc-fuzz`); all but the report and the timeline are read back.
//! This module is what their codecs share — the value type, the escaper,
//! the typed constructors (`From` impls, [`Json::list`]), the strict
//! extractors ([`Json::int`], [`Json::tuple`], [`ObjReader`]) and the
//! name↔value tables ([`Names`]) — with deliberate restrictions that
//! suit machine-written files:
//!
//! * numbers are **integers only** (`i128`, covering the full `u64`
//!   and `i64` ranges exactly) — floats would round-trip lossily and
//!   no scenario field needs them; a float in the input is rejected
//!   with a clear message;
//! * object keys must be unique — a duplicate key is a parse error,
//!   never a silent override;
//! * parse errors carry the byte offset of the offending input.
//!
//! Rendering is deterministic: objects preserve insertion order and
//! produce identical bytes for identical values, which the fuzz
//! corpus relies on for stable round trips.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::fmt;

/// A parsed JSON value (integer-only numbers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (JSON numbers without fraction or exponent).
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse or extraction error, with human-readable context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    /// An error carrying `message`.
    pub fn new(message: impl Into<String>) -> Self {
        JsonError { message: message.into() }
    }
}

fn err<T>(message: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError::new(message))
}

struct Parser<'a> {
    text: &'a str,
    /// `text.as_bytes()`.
    bytes: &'a [u8],
    pos: usize,
    /// The items of every array still open, innermost last. An array
    /// that closes takes its own off the end into a vector of exactly
    /// that size (a flight record is twelve numbers; grown by doubling
    /// it would be three allocations).
    open_items: Vec<Json>,
}

/// Length of the leading run of `bytes` that a string literal holds
/// as they are and that are one character each: ASCII other than
/// controls, the quote and the backslash. Memory pages are kilobytes
/// of hex, so the run is tested eight bytes at a step — a word with
/// any byte that has its high bit set, is below `0x20` or equals `"`
/// or `\` ends the stride — and finished byte by byte.
fn plain_run(bytes: &[u8]) -> usize {
    const ONES: u64 = u64::MAX / 0xff;
    const HIGH: u64 = ONES * 0x80;
    // The high bit of every byte of `w` that is zero (exact for the
    // lowest such byte, which is all "any" needs).
    let zero = |w: u64| w.wrapping_sub(ONES) & !w & HIGH;
    let words = bytes.as_chunks::<8>().0.iter().take_while(|&&chunk| {
        let w = u64::from_le_bytes(chunk);
        let control = w.wrapping_sub(ONES * 0x20) & !w & HIGH;
        let (quote, backslash) = (zero(w ^ (ONES * b'"' as u64)), zero(w ^ (ONES * b'\\' as u64)));
        (w & HIGH) | control | quote | backslash == 0
    });
    let at = 8 * words.count();
    let plain = |b: u8| (0x20..0x80).contains(&b) && b != b'"' && b != b'\\';
    at + bytes[at..].iter().position(|&b| !plain(b)).unwrap_or(bytes.len() - at)
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { text, bytes: text.as_bytes(), pos: 0, open_items: Vec::new() }
    }

    fn fail<T>(&self, what: impl fmt::Display) -> Result<T, JsonError> {
        err(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => {
                self.pos -= 1;
                self.fail(format!("expected '{}', found '{}'", b as char, got as char))
            }
            None => self.fail(format!("expected '{}', found end of input", b as char)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.fail(format!("invalid literal (expected `{word}`)"))
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // A run of plain ASCII is copied whole; everything else
            // goes byte by byte.
            let run = plain_run(&self.bytes[self.pos..]);
            s.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.bump() {
                None => return self.fail("unterminated string"),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'u') => {
                        if self.pos + 4 > self.bytes.len() {
                            return self.fail("truncated \\u escape");
                        }
                        let hex = &self.bytes[self.pos..self.pos + 4];
                        let hex = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok());
                        let Some(code) = hex else {
                            return self.fail("invalid \\u escape");
                        };
                        self.pos += 4;
                        // Surrogate pairs are not needed by any writer
                        // in this workspace; reject rather than decode
                        // them wrongly.
                        match char::from_u32(code) {
                            Some(c) => s.push(c),
                            None => return self.fail("unsupported surrogate \\u escape"),
                        }
                    }
                    _ => return self.fail("invalid escape"),
                },
                Some(b) if b < 0x20 => return self.fail("raw control character in string"),
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences.
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return self.fail("invalid UTF-8 byte in string"),
                    };
                    let start = self.pos - 1;
                    if start + len > self.bytes.len() {
                        return self.fail("truncated UTF-8 sequence");
                    }
                    match std::str::from_utf8(&self.bytes[start..start + len]) {
                        Ok(chunk) => {
                            s.push_str(chunk);
                            self.pos = start + len;
                        }
                        Err(_) => return self.fail("invalid UTF-8 sequence in string"),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        self.pos += negative as usize;
        let first_digit = self.pos;
        // Wraps past 19 digits, where it is not used.
        let mut small = 0u64;
        while let Some(digit @ b'0'..=b'9') = self.peek() {
            small = small.wrapping_mul(10).wrapping_add((digit - b'0') as u64);
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return self.fail("non-integer number (floats are not accepted)");
        }
        // Almost every number of a checkpoint is a short unsigned run,
        // which needs no 128-bit arithmetic; a sign, no digit at all or
        // 19 digits and more take `i128`'s own parser and its verdict.
        if !negative && (1..=18).contains(&(self.pos - first_digit)) {
            return Ok(Json::Int(small as i128));
        }
        let text = &self.text[start..self.pos];
        match text.parse::<i128>() {
            Ok(v) => Ok(Json::Int(v)),
            Err(_) => self.fail(format!("invalid integer `{text}`")),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > 64 {
            return self.fail("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            None => self.fail("unexpected end of input"),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(Vec::new()));
                }
                let first = self.open_items.len();
                loop {
                    let item = self.value(depth + 1)?;
                    self.open_items.push(item);
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(Json::Arr(self.open_items.drain(first..).collect())),
                        _ => {
                            self.pos = self.pos.saturating_sub(1);
                            return self.fail("expected ',' or ']' in array");
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields: Vec<(String, Json)> = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    if fields.iter().any(|(k, _)| *k == key) {
                        return self.fail(format!("duplicate object key `{key}`"));
                    }
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.value(depth + 1)?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b'}') => return Ok(Json::Obj(fields)),
                        _ => {
                            self.pos = self.pos.saturating_sub(1);
                            return self.fail("expected ',' or '}' in object");
                        }
                    }
                }
            }
            Some(b) => self.fail(format!("unexpected byte '{}'", b as char)),
        }
    }
}

fn escape_into(out: &mut String, s: &str) {
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

/// Appends `v` as a JSON string literal: its plain run as it is, the
/// rest — from the first quote, backslash, control or multibyte
/// character on — through the escaper.
fn write_str(out: &mut String, v: &str) {
    out.push('"');
    let (plain, rest) = v.split_at(plain_run(v.as_bytes()));
    out.push_str(plain);
    escape_into(out, rest);
    out.push('"');
}

/// Appends `v` in decimal.
fn write_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| d as char));
}

impl Json {
    /// Parses a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser::new(text);
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return p.fail("trailing characters after JSON value");
        }
        Ok(v)
    }

    /// Renders the value as compact deterministic JSON.
    pub fn render(&self) -> String {
        // One allocation: a checkpoint is megabytes of page hex, and a
        // buffer grown by doubling leaves its discarded halves behind
        // as heap fragmentation (resident, not reusable by the pages a
        // decode allocates next).
        let mut s = String::with_capacity(self.rendered_len_hint());
        self.write(&mut s);
        s
    }

    /// The rendered length, exact but for escapes and short integers.
    fn rendered_len_hint(&self) -> usize {
        match self {
            Json::Null | Json::Bool(_) => 5,
            Json::Int(_) => 20,
            Json::Str(v) => v.len() + 2,
            Json::Arr(items) => 2 + items.iter().map(|v| v.rendered_len_hint() + 1).sum::<usize>(),
            Json::Obj(fields) => {
                2 + fields.iter().map(|(k, v)| k.len() + 4 + v.rendered_len_hint()).sum::<usize>()
            }
        }
    }

    fn write(&self, s: &mut String) {
        match self {
            Json::Null => s.push_str("null"),
            Json::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            // 128-bit division only for what needs it: a negative
            // value or one past `u64`.
            Json::Int(v) => match u64::try_from(*v) {
                Ok(small) => write_u64(s, small),
                Err(_) => s.push_str(&v.to_string()),
            },
            Json::Str(v) => write_str(s, v),
            Json::Arr(items) => {
                s.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    item.write(s);
                }
                s.push(']');
            }
            Json::Obj(fields) => {
                s.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    write_str(s, k);
                    s.push(':');
                    v.write(s);
                }
                s.push('}');
            }
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable object field lookup.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Obj(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value of object field `key`, moved out with `null` left in
    /// its place; `null` when there is none.
    pub fn take(&mut self, key: &str) -> Json {
        self.get_mut(key).map_or(Json::Null, |v| std::mem::replace(v, Json::Null))
    }

    /// The value as an integer of type `T`, if it is one in range.
    pub fn as_int<T: TryFrom<i128>>(&self) -> Option<T> {
        match self {
            Json::Int(v) => T::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_int()
    }

    /// The value as a `usize`, if it is an integer in range.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_int()
    }

    /// The value as a `u32`, if it is an integer in range.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_int()
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// An array of `f(item)` for every item.
    pub fn list<T>(items: impl IntoIterator<Item = T>, f: impl FnMut(T) -> Json) -> Json {
        Json::Arr(items.into_iter().map(f).collect())
    }

    /// The value as an integer of type `T`; `what` names it in the
    /// error (`"<what> must be a u8"`).
    pub fn int<T: TryFrom<i128>>(&self, what: &str) -> Result<T, JsonError> {
        self.as_int().ok_or_else(|| {
            JsonError::new(format!("{what} must be a {}", std::any::type_name::<T>()))
        })
    }

    /// The value as an array, or an error naming `what`.
    pub fn arr(&self, what: &str) -> Result<&[Json], JsonError> {
        self.as_arr().ok_or_else(|| JsonError::new(format!("{what} must be an array")))
    }

    /// The value as an array of exactly `N` items.
    pub fn tuple<const N: usize>(&self, what: &str) -> Result<&[Json; N], JsonError> {
        self.as_arr()
            .and_then(|items| items.try_into().ok())
            .ok_or_else(|| JsonError::new(format!("{what} must be an array of {N}")))
    }

    /// The value as an array, every item through `item`.
    pub fn vec<T>(
        &self,
        what: &str,
        item: impl FnMut(&Json) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        decode_all(self.arr(what)?, item)
    }
}

/// Every item through `item`, into a vector sized once (collecting
/// `Result`s grows one by doubling; a lane is thousands of records).
fn decode_all<'a, T>(
    items: &'a [Json],
    mut item: impl FnMut(&'a Json) -> Result<T, JsonError>,
) -> Result<Vec<T>, JsonError> {
    let mut out = Vec::with_capacity(items.len());
    for v in items {
        out.push(item(v)?);
    }
    Ok(out)
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Int(v as i128)
            }
        }
    )*};
}
json_from_int!(u8, u16, u32, u64, usize);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// The stable on-disk names of a closed set of values, e.g.
/// [`crate::RowPolicy::NAMES`]: one table serves the encoder
/// ([`name_of`]) and the decoder ([`ObjReader::named`]).
pub type Names<T> = [(&'static str, T)];

/// The name `table` gives `value`.
pub fn name_of<T: PartialEq>(table: &Names<T>, value: T) -> &'static str {
    let entry = table.iter().find(|(_, v)| *v == value);
    #[allow(clippy::expect_used)] // each table is written beside its type, one name per value
    let name = entry.expect("a name table lists every value of its type").0;
    name
}

/// The value `table` names `name`; `what` names the set in the error.
pub fn from_name<T: Copy>(table: &Names<T>, what: &str, name: &str) -> Result<T, JsonError> {
    let entry = table.iter().find(|(n, _)| *n == name);
    entry.map(|(_, v)| *v).ok_or_else(|| JsonError::new(format!("unknown {what} `{name}`")))
}

/// Strict field-by-field reader over a JSON object.
///
/// Every scenario deserializer in this workspace funnels through this
/// type: each accessor marks its key as consumed, and
/// [`finish`](ObjReader::finish) rejects any key that was never
/// consumed — so a corpus file with an unknown or misspelled field
/// fails loudly instead of silently dropping data.
pub struct ObjReader<'a> {
    ctx: &'a str,
    fields: &'a [(String, Json)],
    consumed: Vec<bool>,
}

impl<'a> ObjReader<'a> {
    /// Wraps `value`, which must be an object; `ctx` names the thing
    /// being parsed in error messages (e.g. `"fault_plan"`).
    pub fn new(ctx: &'a str, value: &'a Json) -> Result<Self, JsonError> {
        match value.as_obj() {
            Some(fields) => {
                Ok(ObjReader { ctx, fields, consumed: vec![false; fields.len()] })
            }
            None => err(format!("{ctx}: expected a JSON object")),
        }
    }

    fn take(&mut self, key: &str) -> Option<&'a Json> {
        let idx = self.fields.iter().position(|(k, _)| k == key)?;
        self.consumed[idx] = true;
        Some(&self.fields[idx].1)
    }

    /// A required field of any type.
    pub fn required(&mut self, key: &str) -> Result<&'a Json, JsonError> {
        match self.take(key) {
            Some(v) => Ok(v),
            None => err(format!("{}: missing field `{key}`", self.ctx)),
        }
    }

    /// An optional field (`None` when absent).
    pub fn optional(&mut self, key: &str) -> Option<&'a Json> {
        self.take(key)
    }

    /// `<ctx>: field `<key>` must be <a what>`.
    fn mistyped(&self, key: &str, what: impl fmt::Display) -> JsonError {
        JsonError::new(format!("{}: field `{key}` must be {what}", self.ctx))
    }

    /// A required integer field of type `T`.
    fn int<T: TryFrom<i128>>(&mut self, key: &str) -> Result<T, JsonError> {
        let value = self.required(key)?.as_int();
        value.ok_or_else(|| self.mistyped(key, format_args!("a {}", std::any::type_name::<T>())))
    }

    /// An integer field that may be `null`.
    fn opt_int<T: TryFrom<i128>>(&mut self, key: &str) -> Result<Option<T>, JsonError> {
        match self.required(key)? {
            Json::Null => Ok(None),
            v => v.as_int().map(Some).ok_or_else(|| {
                self.mistyped(key, format_args!("a {} or null", std::any::type_name::<T>()))
            }),
        }
    }

    /// A required `u64` field.
    pub fn u64(&mut self, key: &str) -> Result<u64, JsonError> {
        self.int(key)
    }

    /// A required `u32` field.
    pub fn u32(&mut self, key: &str) -> Result<u32, JsonError> {
        self.int(key)
    }

    /// A required `u8` field.
    pub fn u8(&mut self, key: &str) -> Result<u8, JsonError> {
        self.int(key)
    }

    /// A required `usize` field.
    pub fn usize(&mut self, key: &str) -> Result<usize, JsonError> {
        self.int(key)
    }

    /// A required field holding a `u64` or `null`.
    pub fn opt_u64(&mut self, key: &str) -> Result<Option<u64>, JsonError> {
        self.opt_int(key)
    }

    /// A required field holding a `u32` or `null`.
    pub fn opt_u32(&mut self, key: &str) -> Result<Option<u32>, JsonError> {
        self.opt_int(key)
    }

    /// A required `bool` field.
    pub fn bool(&mut self, key: &str) -> Result<bool, JsonError> {
        self.required(key)?.as_bool().ok_or_else(|| self.mistyped(key, "a bool"))
    }

    /// A required string field.
    pub fn str(&mut self, key: &str) -> Result<&'a str, JsonError> {
        self.required(key)?.as_str().ok_or_else(|| self.mistyped(key, "a string"))
    }

    /// A required array field.
    pub fn arr(&mut self, key: &str) -> Result<&'a [Json], JsonError> {
        self.required(key)?.as_arr().ok_or_else(|| self.mistyped(key, "an array"))
    }

    /// A required array field, every item through `item`.
    pub fn vec<T>(
        &mut self,
        key: &str,
        item: impl FnMut(&'a Json) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        decode_all(self.arr(key)?, item)
    }

    /// A required string field holding one of `table`'s names.
    pub fn named<T: Copy>(&mut self, key: &str, table: &Names<T>) -> Result<T, JsonError> {
        from_name(table, key, self.str(key)?)
            .map_err(|e| JsonError::new(format!("{}: {}", self.ctx, e.message)))
    }

    /// Rejects unknown fields: errors if any key was never consumed.
    pub fn finish(self) -> Result<(), JsonError> {
        let unknown: Vec<&str> = self
            .fields
            .iter()
            .zip(&self.consumed)
            .filter(|(_, &c)| !c)
            .map(|((k, _), _)| k.as_str())
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            err(format!("{}: unknown field(s): {}", self.ctx, unknown.join(", ")))
        }
    }
}

/// Convenience constructor for object values.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_structures() {
        let v = obj(vec![
            ("a", Json::Int(18_446_744_073_709_551_615i128)), // u64::MAX
            ("b", Json::Bool(true)),
            ("c", Json::Str("hi \"there\"\n".into())),
            ("d", Json::Arr(vec![Json::Int(-3), Json::Null])),
            ("e", obj(vec![("nested", Json::Int(0))])),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(Json::parse(&text).unwrap().render(), text, "render is stable");
    }

    #[test]
    fn u64_max_is_exact() {
        let v = Json::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn rejects_floats_duplicates_and_garbage() {
        assert!(Json::parse("1.5").unwrap_err().message.contains("float"));
        assert!(Json::parse("1e3").unwrap_err().message.contains("float"));
        assert!(Json::parse("{\"a\":1,\"a\":2}").unwrap_err().message.contains("duplicate"));
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn errors_carry_byte_offsets() {
        let e = Json::parse("[1, x]").unwrap_err();
        assert!(e.message.contains("byte 4"), "{}", e.message);
    }

    #[test]
    fn obj_reader_rejects_unknown_fields() {
        let v = Json::parse("{\"known\":1,\"mystery\":2}").unwrap();
        let mut r = ObjReader::new("test", &v).unwrap();
        assert_eq!(r.u64("known").unwrap(), 1);
        let e = r.finish().unwrap_err();
        assert!(e.message.contains("mystery"), "{}", e.message);
    }

    #[test]
    fn obj_reader_reports_missing_and_mistyped() {
        let v = Json::parse("{\"a\":\"text\"}").unwrap();
        let mut r = ObjReader::new("thing", &v).unwrap();
        assert!(r.u64("a").unwrap_err().message.contains("must be a u64"));
        assert!(r.u64("b").unwrap_err().message.contains("missing field `b`"));
    }

    #[test]
    fn parses_unicode_and_escapes() {
        let v = Json::parse("\"caf\\u00e9 → ok\"").unwrap();
        assert_eq!(v.as_str(), Some("café → ok"));
    }

    /// The string parser and writer as they were before they moved
    /// plain runs in one piece: the parser one byte, one `push` at a
    /// time, the writer every string through `escape`. Kept as the
    /// oracle for the property below.
    mod reference {
        use super::super::{escape_into, Json, JsonError, Parser};

        fn escape(s: &str) -> String {
            let mut out = String::new();
            escape_into(&mut out, s);
            out
        }

        pub fn string(p: &mut Parser<'_>) -> Result<String, JsonError> {
            p.expect(b'"')?;
            let mut s = String::new();
            loop {
                match p.bump() {
                    None => return p.fail("unterminated string"),
                    Some(b'"') => return Ok(s),
                    Some(b'\\') => match p.bump() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            if p.pos + 4 > p.bytes.len() {
                                return p.fail("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&p.bytes[p.pos..p.pos + 4])
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            let Some(code) = hex else {
                                return p.fail("invalid \\u escape");
                            };
                            p.pos += 4;
                            match char::from_u32(code) {
                                Some(c) => s.push(c),
                                None => return p.fail("unsupported surrogate \\u escape"),
                            }
                        }
                        _ => return p.fail("invalid escape"),
                    },
                    Some(b) if b < 0x20 => return p.fail("raw control character in string"),
                    Some(b) => {
                        let len = match b {
                            0x00..=0x7f => 1,
                            0xc0..=0xdf => 2,
                            0xe0..=0xef => 3,
                            0xf0..=0xf7 => 4,
                            _ => return p.fail("invalid UTF-8 byte in string"),
                        };
                        let start = p.pos - 1;
                        if start + len > p.bytes.len() {
                            return p.fail("truncated UTF-8 sequence");
                        }
                        match std::str::from_utf8(&p.bytes[start..start + len]) {
                            Ok(chunk) => {
                                s.push_str(chunk);
                                p.pos = start + len;
                            }
                            Err(_) => return p.fail("invalid UTF-8 sequence in string"),
                        }
                    }
                }
            }
        }

        pub fn render(v: &Json, s: &mut String) {
            match v {
                Json::Str(v) => {
                    s.push('"');
                    s.push_str(&escape(v));
                    s.push('"');
                }
                Json::Obj(fields) => {
                    s.push('{');
                    for (i, (k, v)) in fields.iter().enumerate() {
                        if i > 0 {
                            s.push(',');
                        }
                        s.push('"');
                        s.push_str(&escape(k));
                        s.push_str("\":");
                        render(v, s);
                    }
                    s.push('}');
                }
                other => unreachable!("the property renders strings and objects, not {other:?}"),
            }
        }
    }

    /// One piece of a string body as it stands in the JSON text.
    fn arb_piece() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::prelude::*;
        let pick = |options: &[&str]| {
            prop::sample::select(options.iter().map(|o| o.to_string()).collect::<Vec<_>>())
        };
        prop_oneof![
            // Plain ASCII runs, short and page-sized.
            prop::collection::vec(0x20u8..0x7f, 1..12)
                .prop_map(|b| String::from_utf8(b).unwrap().replace(['"', '\\'], "x")),
            (1usize..600).prop_map(|n| "0123456789abcdef".repeat(n)),
            pick(&["\\\"", "\\\\", "\\/", "\\n", "\\t", "\\r", "\\b", "\\f"]),
            pick(&["\\u0041", "\\u00e9", "\\u20AC", "\\u0000", "\\ud800", "\\u12g4", "\\u+123", "\\u12"]),
            pick(&["\u{e9}", "\u{20ac}", "\u{2192}", "\u{1f600}", "\u{7f}", "\u{80}"]),
            // What a string may not hold raw, and escapes that are not.
            pick(&["\u{1}", "\n", "\t", "\u{1f}", "\\x", "\\ ", "\\\u{e9}", "\""]),
        ]
    }

    /// On the string body `text` (an opening quote and what follows)
    /// the parser that copies runs returns what the byte-at-a-time
    /// parser returns: the same string and end position, or the same
    /// message at the same offset. What parses renders to the same
    /// bytes as before, and back.
    fn check_string_scans(text: &str) {
        let (mut new, mut old) = (Parser::new(text), Parser::new(text));
        let (got, want) = (new.string(), reference::string(&mut old));
        assert_eq!(got, want, "on {text:?}");
        assert_eq!(new.pos, old.pos, "on {text:?}");

        let Ok(value) = got else { return };
        let doc = Json::Obj(vec![
            (value.clone(), Json::Str(value.clone())),
            // A key no parsed body can equal (a raw control).
            ("\u{2}".into(), Json::Str("0123456789abcdef".repeat(64))),
        ]);
        let mut before = String::new();
        reference::render(&doc, &mut before);
        assert_eq!(doc.render(), before);
        assert_eq!(Json::parse(&before), Ok(doc));
    }

    /// Every byte that ends a plain run — the quote, the backslash, the
    /// last control, DEL (which does not), the first non-ASCII byte and
    /// a multibyte lead — at each of the eight offsets of a scanned
    /// word, in the first word and past it, with every length of ragged
    /// tail behind it.
    #[test]
    fn string_scans_match_at_every_offset_of_a_word() {
        for special in ["\"", "\\n", "\u{1f}", "\u{7f}", "\u{80}", "\u{20ac}"] {
            for lead in 0..=17 {
                for tail in 0..=9 {
                    let text = format!("\"{}{special}{}\"", "a".repeat(lead), "b".repeat(tail));
                    check_string_scans(&text);
                    let run = plain_run(&text.as_bytes()[1..]);
                    let expected = if special == "\u{7f}" { lead + 1 + tail } else { lead };
                    assert_eq!(run, expected, "on {text:?}");
                }
            }
        }
    }

    /// A number as it stands in the text: what `i128`'s own parser
    /// makes of it, or the error naming it at the byte after it.
    fn number_oracle(text: &str) -> Result<Json, JsonError> {
        match text.parse::<i128>() {
            Ok(v) => Ok(Json::Int(v)),
            Err(_) => err(format!("invalid integer `{text}` at byte {}", text.len())),
        }
    }

    #[test]
    fn integers_at_the_edges_of_the_short_paths() {
        let nines = |n: usize| "9".repeat(n);
        let texts = [
            "0".to_string(),
            "-0".to_string(),
            "-".to_string(),
            "007".to_string(),
            "-007".to_string(),
            "000000000000000000000000000000000000000042".to_string(),
            u64::MAX.to_string(),
            (u64::MAX as i128 + 1).to_string(),
            i128::MAX.to_string(),
            i128::MIN.to_string(),
            format!("{}0", i128::MAX),
            nines(18),
            nines(19),
            nines(20),
            nines(40),
            format!("-{}", nines(18)),
            format!("-{}", nines(40)),
        ];
        for text in &texts {
            assert_eq!(Json::parse(text), number_oracle(text), "on {text}");
            // Inside an array the number ends at a delimiter.
            let wrapped = Json::parse(&format!("[{text}]"));
            match number_oracle(text) {
                Ok(v) => assert_eq!(wrapped, Ok(Json::Arr(vec![v]))),
                Err(_) => assert_eq!(
                    wrapped,
                    err(format!("invalid integer `{text}` at byte {}", text.len() + 1))
                ),
            }
        }
        for v in [0, 9, 10, u64::MAX as i128, u64::MAX as i128 + 1, -1, i128::MAX, i128::MIN] {
            assert_eq!(Json::Int(v).render(), v.to_string());
        }
    }

    proptest::proptest! {
        /// Plain runs, every escape, `\u` forms good and bad, multibyte
        /// characters, raw controls, a cut at any character.
        #[test]
        fn string_scans_match_the_byte_at_a_time_loops(
            pieces in proptest::collection::vec(arb_piece(), 0..8),
            cut in proptest::prelude::any::<u16>(),
            closed in proptest::prelude::any::<bool>(),
        ) {
            let mut text = format!("\"{}", pieces.concat());
            if cut.is_multiple_of(4) {
                let mut at = cut as usize % (text.len() + 1);
                while !text.is_char_boundary(at) {
                    at -= 1;
                }
                text.truncate(at);
            }
            if closed {
                text.push('"');
            }
            check_string_scans(&text);
        }

        /// An integer renders as `i128` displays it and parses to
        /// itself; a run of digits of any length, signed or not, parses
        /// to what `i128`'s parser makes of it or fails with the same
        /// text at the same offset.
        #[test]
        fn integers_render_and_parse_like_i128(
            v in proptest::prelude::any::<u128>(),
            shift in 0u32..128,
            negative in proptest::prelude::any::<bool>(),
            digits in proptest::collection::vec(0u8..10, 1..46),
        ) {
            let v = v as i128 >> shift;
            let sign = if negative { "-" } else { "" };
            let digits: String = sign.chars().chain(digits.iter().map(|d| (b'0' + d) as char)).collect();
            proptest::prop_assert_eq!(Json::Int(v).render(), v.to_string());
            proptest::prop_assert_eq!(Json::parse(&v.to_string()), Ok(Json::Int(v)));
            proptest::prop_assert_eq!(Json::parse(&digits), number_oracle(&digits));
        }
    }
}
