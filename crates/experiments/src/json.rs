//! Minimal dependency-free JSON: a value type, a strict parser, and
//! escaping-correct serializers.
//!
//! Both the `repro --report` run-report writer and the `memsense-serve`
//! HTTP daemon emit JSON; before this module each call site hand-rolled its
//! own string assembly (with its own escaping bugs waiting to happen). All
//! JSON in the workspace now flows through here:
//!
//! * [`Json`] — the value type. Objects preserve insertion order so emitted
//!   documents are stable and human-diffable.
//! * [`Json::parse`] — a strict RFC 8259 parser (no trailing commas, no
//!   comments, `\uXXXX` escapes including surrogate pairs, depth-limited so
//!   untrusted network input cannot overflow the stack).
//! * [`Json::to_string`] / [`Json::to_string_pretty`] — compact and
//!   2-space-indented serializers.
//! * [`Json::canonical`] — the cache-key form: compact with object keys
//!   sorted, so two requests that differ only in key order (or in `-0.0`
//!   vs `0.0`) serialize identically.
//! * [`escape_str`] / [`write_f64`] — the escaping and float-canonicalization
//!   primitives, usable directly by code that streams JSON ([`fmt_f64`] is
//!   [`write_f64`] into a new string).
//!
//! Float policy: numbers serialize via [`write_f64`], Rust's shortest
//! round-trip form with `-0.0` collapsed to `0` — and non-finite values
//! (which RFC 8259 cannot represent) serialize as `null` rather than
//! leaking `NaN`/`inf` tokens into the document. The parser likewise
//! rejects literals that overflow to infinity.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value. Object members keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what non-finite numbers serialize as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Stored as `f64`, like JavaScript.
    Num(f64),
    /// A string (unescaped form).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset and a short message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl core::fmt::Display for JsonError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Maximum nesting depth the parser accepts (network input is untrusted).
const MAX_DEPTH: usize = 64;

impl Json {
    // -- constructors -------------------------------------------------------

    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Shorthand for a number value.
    pub fn num(v: f64) -> Json {
        Json::Num(v)
    }

    /// An object from `(key, value)` pairs, preserving order.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    // -- accessors ----------------------------------------------------------

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    // -- serializers --------------------------------------------------------

    /// Compact serialization (no whitespace), insertion order preserved.
    #[allow(clippy::inherent_to_string)]
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0, false);
        out
    }

    /// Pretty serialization: 2-space indent, `": "` after keys.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0, false);
        out.push('\n');
        out
    }

    /// Canonical serialization for content addressing: compact, object keys
    /// sorted bytewise, floats via [`write_f64`] (so `-0.0` and `0.0` produce
    /// the same key). Two semantically equal documents that differ only in
    /// whitespace, key order, or zero sign canonicalize identically.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0, true);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize, canonical: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_f64(*v, out),
            Json::Str(s) => escape_str(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Self::newline_indent(out, indent, level + 1);
                    item.write(out, indent, level + 1, canonical);
                }
                Self::newline_indent(out, indent, level);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                let members = pairs.iter().map(|(k, v)| (k.as_str(), v));
                if canonical && !pairs.windows(2).all(|w| w[0].0 < w[1].0) {
                    // Keys out of order or repeated: sort them, and let the
                    // last of a repeated key win. Objects built with their
                    // keys already strictly ascending skip this map.
                    let sorted: BTreeMap<&str, &Json> = members.collect();
                    Self::write_members(out, sorted.into_iter(), indent, level, canonical);
                } else {
                    Self::write_members(out, members, indent, level, canonical);
                }
                Self::newline_indent(out, indent, level);
                out.push('}');
            }
        }
    }

    fn write_members<'a>(
        out: &mut String,
        members: impl Iterator<Item = (&'a str, &'a Json)>,
        indent: Option<usize>,
        level: usize,
        canonical: bool,
    ) {
        for (i, (key, value)) in members.enumerate() {
            if i > 0 {
                out.push(',');
            }
            Self::newline_indent(out, indent, level + 1);
            escape_str(key, out);
            out.push(':');
            if indent.is_some() {
                out.push(' ');
            }
            value.write(out, indent, level + 1, canonical);
        }
    }

    fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..width * level {
                out.push(' ');
            }
        }
    }

    // -- parser -------------------------------------------------------------

    /// Parses a complete JSON document (exactly one value plus whitespace).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with the byte offset of the first problem:
    /// syntax errors, invalid escapes, nesting beyond [`MAX_DEPTH`], number
    /// literals that overflow `f64`, or trailing garbage.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(value)
    }
}

/// Appends the JSON-escaped, quoted form of `s` to `out`: `"` and `\` are
/// backslash-escaped, control characters become `\n`/`\r`/`\t` or `\u00XX`.
/// Runs of bytes that need no escape are copied whole, so a string with
/// nothing to escape is one copy.
pub fn escape_str(s: &str, out: &mut String) {
    out.reserve(s.len() + 2);
    out.push('"');
    // Every byte that needs an escape is ASCII, so `plain..i` always falls
    // on char boundaries.
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[plain..i]);
        plain = i + 1;
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
    out.push_str(&s[plain..]);
    out.push('"');
}

/// The JSON-escaped, quoted form of `s` as a new string.
pub fn quote(s: &str) -> String {
    let mut out = String::new();
    escape_str(s, &mut out);
    out
}

/// Canonical float formatting for JSON output and cache keys, appended to
/// `out`.
///
/// * Finite values use Rust's shortest round-trip decimal form.
/// * `-0.0` collapses to `0`, so it keys and serializes identically to `0.0`.
/// * Non-finite values (`NaN`, `±inf`) have no JSON representation and
///   become `null` — they never leak as bare tokens.
pub fn write_f64(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == 0.0 {
        out.push('0');
    } else {
        // memsense-lint: allow(no-raw-float-format) — this IS the canonical formatter every wire path must route through
        let _ = write!(out, "{v}");
    }
}

/// [`write_f64`] into a new string.
pub fn fmt_f64(v: f64) -> String {
    let mut out = String::new();
    write_f64(v, &mut out);
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
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

    fn eat(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
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
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
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
        self.eat(b'{', "expected '{'")?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes in one go.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // Input is a &str, so the byte range is valid UTF-8.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let b = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b'f' => '\u{000c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: require a \uXXXX low surrogate.
                    if self.peek() != Some(b'\\') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 1;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))?
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("unpaired surrogate"));
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                }
            }
            _ => return Err(self.err("invalid escape character")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one leading zero or a nonzero-led digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        let value: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        if !value.is_finite() {
            return Err(self.err("number overflows f64"));
        }
        Ok(Json::Num(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The canonical writer without its fast paths: every object through a
    /// `BTreeMap` (last duplicate wins), every string escaped char by char.
    /// The properties below pin the real writer to it.
    fn reference_canonical(v: &Json, out: &mut String) {
        match v {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) if !v.is_finite() => out.push_str("null"),
            Json::Num(v) if *v == 0.0 => out.push('0'),
            Json::Num(v) => out.push_str(&format!("{v}")),
            Json::Str(s) => reference_escape(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    reference_canonical(item, out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                let sorted: BTreeMap<&String, &Json> = pairs.iter().map(|(k, v)| (k, v)).collect();
                out.push('{');
                for (i, (key, value)) in sorted.into_iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    reference_escape(key, out);
                    out.push(':');
                    reference_canonical(value, out);
                }
                out.push('}');
            }
        }
    }

    fn reference_escape(s: &str, out: &mut String) {
        out.push('"');
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
        out.push('"');
    }

    /// Characters that exercise every escape branch and multi-byte UTF-8.
    const ALPHABET: [char; 14] = [
        'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '😀',
    ];

    /// Few distinct keys, so objects often repeat one.
    const KEYS: [&str; 7] = ["", "a", "ab", "b", "B", "k\"ey", "é"];

    fn arb_string(rng: &mut TestRng) -> String {
        let len = rng.below(12) as usize;
        (0..len)
            .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
            .collect()
    }

    fn arb_number(rng: &mut TestRng) -> f64 {
        match rng.below(6) {
            0 => [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(5) as usize],
            1 => [f64::MAX, f64::MIN_POSITIVE, 5e-324, 1e21, 0.1 + 0.2][rng.below(5) as usize],
            2 => rng.below(1000) as f64 - 500.0,
            3 => f64::from_bits(rng.next_u64()),
            _ => (rng.next_f64() - 0.5) * 1e6,
        }
    }

    /// An arbitrary tree of bounded depth. Objects come in three shapes:
    /// keys strictly ascending (the fast path), keys in drawn order, and
    /// keys drawn from a small set (so repeats are common).
    fn arb_json(rng: &mut TestRng, depth: u32) -> Json {
        let kinds = if depth == 0 { 4 } else { 6 };
        match rng.below(kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 1),
            2 => Json::Num(arb_number(rng)),
            3 => Json::Str(arb_string(rng)),
            4 => Json::Arr(
                (0..rng.below(5))
                    .map(|_| arb_json(rng, depth - 1))
                    .collect(),
            ),
            _ => {
                let mut pairs: Vec<(String, Json)> = (0..rng.below(6))
                    .map(|_| {
                        let key = if rng.below(2) == 0 {
                            KEYS[rng.below(KEYS.len() as u64) as usize].to_string()
                        } else {
                            arb_string(rng)
                        };
                        (key, arb_json(rng, depth - 1))
                    })
                    .collect();
                if rng.below(2) == 0 {
                    pairs.sort_by(|a, b| a.0.cmp(&b.0));
                    pairs.dedup_by(|a, b| a.0 == b.0);
                }
                Json::Obj(pairs)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Canonical output parses back to a tree with the same canonical
        /// form; splicing stored canonical strings into a larger canonical
        /// document relies on it.
        #[test]
        fn canonical_is_a_parse_fixed_point(seed in 0u64..u64::MAX) {
            let value = arb_json(&mut TestRng::new(seed), 4);
            let text = value.canonical();
            let reparsed = Json::parse(&text);
            prop_assert!(reparsed.is_ok(), "{text:?} does not parse: {reparsed:?}");
            prop_assert_eq!(reparsed.unwrap().canonical(), text);
        }

        /// The canonical writer, sorted-keys fast path included, equals the
        /// all-`BTreeMap` reference, repeated keys and `-0.0` included.
        #[test]
        fn canonical_matches_the_btreemap_reference(seed in 0u64..u64::MAX) {
            let value = arb_json(&mut TestRng::new(seed), 4);
            let mut expected = String::new();
            reference_canonical(&value, &mut expected);
            prop_assert_eq!(value.canonical(), expected);
        }

        /// Run-copying `escape_str` equals the char-by-char walk.
        #[test]
        fn escape_matches_the_char_walk(seed in 0u64..u64::MAX) {
            let s = arb_string(&mut TestRng::new(seed));
            let mut expected = String::new();
            reference_escape(&s, &mut expected);
            prop_assert_eq!(quote(&s), expected);
        }
    }

    #[test]
    fn repeated_keys_keep_the_last_value_and_zero_loses_its_sign() {
        let v = Json::Obj(vec![
            ("b".into(), Json::Num(1.0)),
            ("a".into(), Json::Num(-0.0)),
            ("b".into(), Json::Num(2.0)),
        ]);
        assert_eq!(v.canonical(), r#"{"a":0,"b":2}"#);
        // Ascending but repeated: not strictly ascending, so still sorted.
        let v = Json::Obj(vec![
            ("a".into(), Json::Num(1.0)),
            ("a".into(), Json::Num(2.0)),
        ]);
        assert_eq!(v.canonical(), r#"{"a":2}"#);
    }

    #[test]
    fn escape_covers_quotes_backslashes_and_control_chars() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quote("tab\there"), "\"tab\\there\"");
        assert_eq!(quote("\r"), "\"\\r\"");
        assert_eq!(quote("\u{0001}"), "\"\\u0001\"");
        assert_eq!(quote("héllo"), "\"héllo\"");
    }

    #[test]
    fn fmt_f64_is_canonical() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(-0.0), "0", "-0.0 keys identically to 0.0");
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(-2.25), "-2.25");
        assert_eq!(fmt_f64(f64::NAN), "null", "NaN must not leak");
        assert_eq!(fmt_f64(f64::INFINITY), "null", "inf must not leak");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "null");
        // Shortest round-trip: value survives a parse cycle.
        let v = 0.1 + 0.2;
        assert_eq!(fmt_f64(v).parse::<f64>().unwrap(), v);
    }

    #[test]
    fn parse_roundtrips_all_value_kinds() {
        let text = r#"{"a": [1, 2.5, -3e2], "b": "x\ny", "c": true, "d": null, "e": {}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("c").unwrap().as_bool(), Some(true));
        assert!(v.get("d").unwrap().is_null());
        assert_eq!(v.get("e"), Some(&Json::Obj(vec![])));
        // Compact serialization re-parses to the same value.
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        // Pretty serialization too.
        assert_eq!(Json::parse(&v.to_string_pretty()).unwrap(), v);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1,]",
            "[1 2]",
            "{'a':1}",
            "nul",
            "01",
            "1.",
            "1e",
            "--1",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud800\"",
            "1 2",
            "1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parse_handles_unicode_escapes_and_surrogates() {
        assert_eq!(
            Json::parse(r#""\u00e9\u0041""#).unwrap().as_str(),
            Some("éA")
        );
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("😀")
        );
    }

    #[test]
    fn parse_depth_limit_protects_the_stack() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(32) + &"]".repeat(32);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn canonical_sorts_keys_and_collapses_zero_sign() {
        let a = Json::parse(r#"{"b": 1, "a": {"y": -0.0, "x": 2}}"#).unwrap();
        let b = Json::parse(r#"{"a": {"x": 2, "y": 0.0}, "b": 1}"#).unwrap();
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.canonical(), r#"{"a":{"x":2,"y":0},"b":1}"#);
        // Non-canonical serialization preserves insertion order.
        assert_eq!(a.to_string(), r#"{"b":1,"a":{"y":0,"x":2}}"#);
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        let v = Json::Obj(vec![("bad".into(), Json::Num(f64::NAN))]);
        assert_eq!(v.to_string(), r#"{"bad":null}"#);
        assert_eq!(
            Json::Arr(vec![Json::Num(f64::INFINITY)]).to_string(),
            "[null]"
        );
    }

    #[test]
    fn pretty_form_is_indented() {
        let v = Json::obj(vec![
            ("name", Json::str("fig8")),
            ("vals", Json::Arr(vec![Json::num(1.0), Json::num(2.0)])),
        ]);
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\"name\": \"fig8\""));
        assert!(pretty.starts_with("{\n  \"name\""));
        assert!(pretty.ends_with("}\n"));
    }

    #[test]
    fn accessors_are_type_safe() {
        let v = Json::parse(r#"{"n": 3, "s": "x", "f": 1.5}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("f").unwrap().as_u64(), None, "fractional is not u64");
        assert_eq!(v.get("s").unwrap().as_f64(), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(1.0).get("x"), None);
    }
}
