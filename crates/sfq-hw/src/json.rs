//! Minimal in-repo JSON report serializer.
//!
//! The qsim workspace is built from scratch with **no external
//! dependencies**, so the report structs that previously derived
//! `serde::Serialize` now implement the tiny [`ToJson`] trait here instead.
//! The output shape matches what a serde derive would have produced:
//!
//! * structs → objects keyed by field name (skipped fields omitted);
//! * unit enum variants → their name as a string;
//! * struct enum variants → externally tagged: `{"Variant":{"field":…}}`;
//! * non-finite floats → `null` (serde_json behaviour).
//!
//! A small parser is included so round-trips can be property-tested and so
//! future tooling can read reports back without new dependencies.
//!
//! ```
//! use sfq_hw::json::{Json, ToJson};
//!
//! let report = Json::obj([("power_w", 0.5.to_json()), ("total_jj", 123u64.to_json())]);
//! assert_eq!(report.render(), r#"{"power_w":0.5,"total_jj":123}"#);
//! assert_eq!(Json::parse(&report.render()).unwrap(), report);
//! ```

use std::fmt;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number (integers round-trip exactly up to 2⁵³).
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved (field declaration order).
    Obj(Vec<(String, Json)>),
}

/// Conversion into a [`Json`] document — the in-repo stand-in for
/// `serde::Serialize`.
pub trait ToJson {
    /// Builds the JSON representation of `self`.
    fn to_json(&self) -> Json;

    /// Renders `self` straight to a compact JSON string.
    fn to_json_string(&self) -> String {
        self.to_json().render()
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact rendering (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with `indent`-space nesting.
    pub fn render_pretty(&self, indent: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(indent.max(1)), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_close, colon) = match indent {
            Some(w) => (
                "\n",
                " ".repeat(w * (depth + 1)),
                " ".repeat(w * depth),
                ": ",
            ),
            None => ("", String::new(), String::new(), ":"),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if !x.is_finite() {
                    out.push_str("null");
                } else if *x == x.trunc() && x.abs() < 9.0e15 {
                    fmt::Write::write_fmt(out, format_args!("{}", *x as i64)).unwrap();
                } else {
                    fmt::Write::write_fmt(out, format_args!("{x}")).unwrap();
                }
            }
            Json::Str(s) => write_escaped(out, s),
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
                    out.push_str(nl);
                    out.push_str(&pad);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad_close);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    write_escaped(out, k);
                    out.push_str(colon);
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad_close);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (strict enough for round-trips of our own
    /// output plus ordinary hand-written JSON).
    ///
    /// # Errors
    ///
    /// A [`JsonError`] on malformed input, including nesting deeper than
    /// [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    /// Looks up a key on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Reads object field `key` as a number, with a contextualized error
    /// (the shared validator of the report readers).
    ///
    /// # Errors
    ///
    /// Describes the missing or mistyped field, prefixed with `ctx`.
    pub fn num_field(&self, key: &str, ctx: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{ctx} missing numeric `{key}`"))
    }

    /// Reads object field `key` as a string, with a contextualized error.
    ///
    /// # Errors
    ///
    /// Describes the missing or mistyped field, prefixed with `ctx`.
    pub fn str_field(&self, key: &str, ctx: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{ctx} missing string `{key}`"))
    }

    /// Reads object field `key` as an array, with a contextualized error.
    ///
    /// # Errors
    ///
    /// Describes the missing or mistyped field, prefixed with `ctx`.
    pub fn arr_field(&self, key: &str, ctx: &str) -> Result<&[Json], String> {
        match self.get(key) {
            Some(Json::Arr(items)) => Ok(items),
            _ => Err(format!("{ctx} missing array `{key}`")),
        }
    }

    /// Reads object field `key` as a boolean, with a contextualized error.
    ///
    /// # Errors
    ///
    /// Describes the missing or mistyped field, prefixed with `ctx`.
    pub fn bool_field(&self, key: &str, ctx: &str) -> Result<bool, String> {
        match self.get(key) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("{ctx} missing boolean `{key}`")),
        }
    }

    /// Reads object field `key` as a count: a non-negative integer within
    /// the exact-round-trip range of an `f64` (< 2⁵³). Rejecting larger
    /// values keeps `parse(serialize(x)) == x` honest — a count above
    /// 2⁵³ would already have lost precision when serialized.
    ///
    /// # Errors
    ///
    /// Describes the missing, mistyped, negative, fractional, or
    /// out-of-range field, prefixed with `ctx`.
    pub fn count_field(&self, key: &str, ctx: &str) -> Result<u64, String> {
        let x = self.num_field(key, ctx)?;
        if x < 0.0 || x.fract() != 0.0 || x >= 9_007_199_254_740_992.0 {
            return Err(format!(
                "{ctx} `{key}` must be a non-negative integer below 2^53"
            ));
        }
        Ok(x as u64)
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
                fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32)).unwrap()
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Human-readable description.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a bound one hostile document (a
/// serve frame, a cache file, a journal line) could overflow the stack and
/// abort the process; past this depth the parse fails with a
/// [`JsonError`] instead. Our own documents nest fewer than ten levels;
/// an unoptimized build overflows a 2 MiB thread stack somewhere between
/// 2,000 and 2,500 levels, so the bound leaves a 4x margin.
pub const MAX_DEPTH: usize = 512;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { at: self.pos, msg }
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

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(&open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast-forward over plain UTF-8 runs.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or(self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or(self.err("short \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => unreachable!(),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            at: start,
            msg: "invalid number",
        })
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
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
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

macro_rules! impl_tojson_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )*};
}

impl_tojson_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_like_serde_json() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(true.to_json_string(), "true");
        assert_eq!(3u64.to_json_string(), "3");
        assert_eq!(0.5f64.to_json_string(), "0.5");
        assert_eq!((-7i64).to_json_string(), "-7");
        assert_eq!("hi".to_json_string(), "\"hi\"");
        assert_eq!(f64::NAN.to_json_string(), "null");
        assert_eq!(f64::INFINITY.to_json_string(), "null");
    }

    #[test]
    fn integral_floats_render_without_fraction() {
        assert_eq!(Json::Num(40.0).render(), "40");
        assert_eq!(Json::Num(-3.0).render(), "-3");
        assert_eq!(Json::Num(1.0e16).render(), "10000000000000000");
    }

    #[test]
    fn object_order_is_declaration_order() {
        let j = Json::obj([("b", 1u64.to_json()), ("a", 2u64.to_json())]);
        assert_eq!(j.render(), r#"{"b":1,"a":2}"#);
    }

    #[test]
    fn escapes_special_characters() {
        let j = "line\n\"quote\"\tend\u{1}".to_json();
        assert_eq!(j.render(), r#""line\n\"quote\"\tend\u0001""#);
        assert_eq!(Json::parse(&j.render()).unwrap(), j);
    }

    #[test]
    fn round_trips_nested_documents() {
        let doc = Json::obj([
            ("name", "DigiQ_opt(BS=8)".to_json()),
            ("power_w", 0.8094.to_json()),
            ("cells", vec![1u64, 2, 3].to_json()),
            (
                "nested",
                Json::obj([("empty_arr", Json::Arr(vec![])), ("none", Json::Null)]),
            ),
        ]);
        let compact = doc.render();
        assert_eq!(Json::parse(&compact).unwrap(), doc);
        let pretty = doc.render_pretty(2);
        assert_eq!(Json::parse(&pretty).unwrap(), doc);
        assert!(pretty.contains("\n  \"power_w\": 0.8094"));
    }

    #[test]
    fn parses_whitespace_and_exponents() {
        let j = Json::parse(" { \"x\" : [ 1e-3 , -2.5E2 , true , null ] } ").unwrap();
        let xs = j.get("x").unwrap();
        match xs {
            Json::Arr(v) => {
                assert_eq!(v[0].as_f64(), Some(1e-3));
                assert_eq!(v[1].as_f64(), Some(-250.0));
                assert_eq!(v[2], Json::Bool(true));
                assert_eq!(v[3], Json::Null);
            }
            _ => panic!("expected array"),
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn accessors() {
        let j = Json::obj([("k", "v".to_json())]);
        assert_eq!(j.get("k").and_then(Json::as_str), Some("v"));
        assert!(j.get("missing").is_none());
        assert!(j.get("k").unwrap().as_f64().is_none());
    }

    #[test]
    fn typed_field_readers() {
        let j = Json::obj([
            ("n", 4.5.to_json()),
            ("c", 12u64.to_json()),
            ("s", "hi".to_json()),
        ]);
        assert_eq!(j.num_field("n", "t"), Ok(4.5));
        assert_eq!(j.count_field("c", "t"), Ok(12));
        assert_eq!(j.str_field("s", "t"), Ok("hi"));
        // Errors name the context and the field.
        assert_eq!(
            j.num_field("x", "thing"),
            Err("thing missing numeric `x`".to_string())
        );
        assert!(j.str_field("n", "t").is_err());
        // Counts reject fractions, negatives, and precision-lossy values.
        assert!(j.count_field("n", "t").is_err());
        let neg = Json::obj([("c", Json::Num(-1.0))]);
        assert!(neg.count_field("c", "t").is_err());
        let big = Json::obj([("c", Json::Num(9.1e15))]);
        assert!(big.count_field("c", "t").is_err());
        let edge = Json::obj([("c", Json::Num(9_007_199_254_740_991.0))]);
        assert_eq!(edge.count_field("c", "t"), Ok((1 << 53) - 1));
    }

    #[test]
    fn arr_and_bool_field_readers() {
        let j = Json::obj([
            ("xs", vec![1u64, 2].to_json()),
            ("flag", true.to_json()),
            ("s", "hi".to_json()),
        ]);
        assert_eq!(j.arr_field("xs", "t").map(<[Json]>::len), Ok(2));
        assert_eq!(j.bool_field("flag", "t"), Ok(true));
        assert_eq!(
            j.arr_field("flag", "thing"),
            Err("thing missing array `flag`".to_string())
        );
        assert_eq!(
            j.bool_field("s", "thing"),
            Err("thing missing boolean `s`".to_string())
        );
        assert!(j.arr_field("missing", "t").is_err());
        assert!(j.bool_field("missing", "t").is_err());
    }
}
