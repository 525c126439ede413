//! Dependency-free JSON emission **and parsing**.
//!
//! The workspace is built without network access to crates.io, so instead of
//! `serde_json` the harness binaries emit machine-readable dumps through this
//! small value tree. It started life in `seo-bench` as an emitter-only seam;
//! the sharded sweep protocol ([`crate::shard`]) promoted it into core and
//! added [`Json::parse`] so coordinator processes can read the line-delimited
//! reports their workers stream back.
//!
//! Numbers render through Rust's shortest-round-trip `Display` for `f64`, so
//! `parse(render(x))` recovers every finite float **exactly** — the property
//! the sharded sweep's bit-identical merge guarantee rests on. Non-finite
//! floats render as `null`; protocols that must carry them (the sweep wire
//! format) encode them out-of-band as strings.
//!
//! # Example
//!
//! ```
//! use seo_core::json::Json;
//!
//! let value = Json::obj(vec![
//!     ("label", Json::from("sweep")),
//!     ("ns_per_step", Json::from(0.1)), // floats round-trip exactly
//!     ("scenarios", Json::from(60usize)),
//! ]);
//! let text = value.render();
//! assert_eq!(text, r#"{"label":"sweep","ns_per_step":0.1,"scenarios":60}"#);
//! assert_eq!(Json::parse(&text)?, value);
//! # Ok::<(), seo_core::json::JsonParseError>(())
//! ```

use std::fmt::Write as _;

/// Deepest container nesting [`Json::parse`] accepts. The parser recurses
/// once per nested array or object, so an unbounded document (a frame of a
/// few hundred thousand `[`) would overflow the thread's stack and abort
/// the process; past this depth it is a [`JsonParseError`] instead. No
/// frame, plan, or dump this workspace writes nests ten deep.
pub const MAX_DEPTH: usize = 128;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values render as `null`).
    Num(f64),
    /// An integer, kept separate so counts render without a decimal point.
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Self {
        Self::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Renders compactly (no whitespace).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders with two-space indentation.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    /// Parses a JSON document.
    ///
    /// Integer tokens (no `.`, `e`, or `E`) that fit an `i64` become
    /// [`Json::Int`]; every other number becomes [`Json::Num`]. Because the
    /// emitter writes floats via the shortest-round-trip formatter, a parse
    /// of rendered output recovers each finite `f64` bit-for-bit (integral
    /// floats come back as [`Json::Int`] — read them through a width-agnostic
    /// accessor when the distinction does not matter).
    ///
    /// # Errors
    ///
    /// Returns [`JsonParseError`] (with a byte offset) on malformed input,
    /// trailing non-whitespace, or containers nested deeper than
    /// [`MAX_DEPTH`].
    pub fn parse(input: &str) -> Result<Self, JsonParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Looks up a key in an object.
    ///
    /// Returns `None` when `self` is not an object or the key is absent.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64` ([`Json::Num`] or [`Json::Int`]).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(v) => Some(*v),
            #[allow(clippy::cast_precision_loss)]
            Self::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as an `i64` (only [`Json::Int`]).
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Self::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let pad = |out: &mut String, d: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * d));
            }
        };
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Self::Num(_) => out.push_str("null"),
            Self::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Self::Str(s) => write_escaped(out, s),
            Self::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    pad(out, depth);
                }
                out.push(']');
            }
            Self::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    pad(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// A malformed JSON document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            message: message.to_owned(),
            offset: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(
                        self.err(&format!("containers nested deeper than {MAX_DEPTH} levels"))
                    );
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
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
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(&esc) = self.bytes.get(self.pos) else {
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by this
                            // workspace's writer; reject rather than
                            // mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Copy the whole run up to the next '"' or '\\' at once,
                    // so each byte is validated once and parsing stays
                    // linear. Both are ASCII, so a run never splits a char.
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let s =
                        std::str::from_utf8(&rest[..run]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        // "-0" must stay a float: the integer path would drop the sign bit.
        if !is_float && token != "-0" {
            if let Ok(v) = token.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        token
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Self::Num(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Self::Int(v as i64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Self::Int(i64::from(v))
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Self::Int(v as i64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Self::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Self::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Self::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Self::Arr(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::from(true).render(), "true");
        assert_eq!(Json::from(1.5).render(), "1.5");
        assert_eq!(Json::from(42u32).render(), "42");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(Json::from("a\"b\\c\n").render(), r#""a\"b\\c\n""#);
        assert_eq!(Json::from("\u{1}").render(), "\"\\u0001\"");
    }

    #[test]
    fn containers_render_compact_and_pretty() {
        let v = Json::obj(vec![
            ("name", Json::from("sweep")),
            ("xs", Json::from(vec![1.0, 2.0])),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(v.render(), r#"{"name":"sweep","xs":[1,2],"empty":[]}"#);
        let pretty = v.render_pretty();
        assert!(pretty.contains("\n  \"name\": \"sweep\""), "{pretty}");
        assert!(pretty.ends_with("}\n"));
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").expect("ok"), Json::Null);
        assert_eq!(Json::parse(" true ").expect("ok"), Json::Bool(true));
        assert_eq!(Json::parse("false").expect("ok"), Json::Bool(false));
        assert_eq!(Json::parse("42").expect("ok"), Json::Int(42));
        assert_eq!(Json::parse("-7").expect("ok"), Json::Int(-7));
        assert_eq!(Json::parse("1.5").expect("ok"), Json::Num(1.5));
        assert_eq!(Json::parse("1e3").expect("ok"), Json::Num(1000.0));
        assert_eq!(Json::parse("\"hi\"").expect("ok"), Json::from("hi"));
    }

    #[test]
    fn parse_containers_and_accessors() {
        let v = Json::parse(r#"{"a":[1,2.5,"x"],"b":{"c":null}}"#).expect("ok");
        assert_eq!(
            v.get("a").and_then(|a| a.as_arr()).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("a")
                .and_then(|a| a.as_arr())
                .and_then(|a| a[0].as_i64()),
            Some(1)
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Int(3).as_f64(), Some(3.0));
        assert_eq!(Json::from("s").as_str(), Some("s"));
    }

    #[test]
    fn parse_string_escapes() {
        let v = Json::parse(r#""a\"b\\c\n\u0041""#).expect("ok");
        assert_eq!(v, Json::from("a\"b\\c\nA"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let long = "ab\u{e9}\u{1F697}".repeat((1 << 20) / 8);
        let text = format!("{{\"k\":\"{long}\",\"e\":\"x\\\"y\"}}");
        let start = std::time::Instant::now();
        let v = Json::parse(&text).expect("ok");
        let elapsed = start.elapsed();
        assert_eq!(v.get("k").and_then(Json::as_str), Some(long.as_str()));
        assert_eq!(v.get("e").and_then(Json::as_str), Some("x\"y"));
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "a 1 MiB string took {elapsed:?}"
        );
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "{\"a\" 1}",
            "1 2",
            "\"unterminated",
            "{'a':1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        let err = Json::parse("[1,]").expect_err("trailing comma");
        assert!(err.to_string().contains("at byte"), "{err}");
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| format!("{}0{}", "{\"k\":".repeat(depth), "}".repeat(depth));
        assert!(Json::parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_DEPTH)).is_ok());
        for text in [
            arrays(MAX_DEPTH + 1),
            objects(MAX_DEPTH + 1),
            "[".repeat(200_000),
        ] {
            let err = Json::parse(&text).expect_err("too deep");
            assert!(err.to_string().contains("deeper than 128"), "{err}");
        }
    }

    #[test]
    fn float_round_trip_is_exact() {
        // The emitter uses Rust's shortest-round-trip Display, so every
        // finite f64 survives render -> parse bit-for-bit.
        for v in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -2.2250738585072014e-308,
            11935.548651603498,
            -0.0,
        ] {
            let rendered = Json::Num(v).render();
            let back = Json::parse(&rendered)
                .expect("parses")
                .as_f64()
                .expect("numeric");
            assert_eq!(back.to_bits(), v.to_bits(), "{v} via {rendered}");
        }
    }

    #[test]
    fn render_parse_round_trip_tree() {
        let v = Json::obj(vec![
            ("name", Json::from("sweep")),
            ("n", Json::from(3usize)),
            ("x", Json::from(0.25)),
            ("flags", Json::from(vec![true, false])),
            ("nested", Json::obj(vec![("deep", Json::Null)])),
        ]);
        assert_eq!(Json::parse(&v.render()).expect("ok"), v);
        assert_eq!(Json::parse(&v.render_pretty()).expect("ok"), v);
    }
}
