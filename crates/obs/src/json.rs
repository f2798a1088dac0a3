//! The workspace's one JSON layer: one value type ([`Value`]), one
//! builder ([`json!`](crate::json!)), one escape routine, one non-finite
//! float guard and one parser — used by every in-tree emitter and reader
//! (experiment dumps, ingest and profile reports, bench summaries, server
//! responses, access logs).
//!
//! * **Building** goes through the [`json!`](crate::json!) macro, which
//!   keeps `serde_json::json!` call-site syntax: `json!({"k": v, ...})`,
//!   `json!([a, b])` and `json!(expr)`. Values convert through `From`:
//!   integers stay exact ([`Value::Int`]), floats become [`Value::Num`],
//!   `Vec<T>` an array and `Option<T>` the value or `null`.
//! * **Escaping** ([`escape_into`]) handles `"`, `\`, and all control
//!   characters, so netlist names from escaped Verilog identifiers
//!   (which may legally contain quotes and backslashes) can flow through
//!   any JSON dump without corrupting it.
//! * **Non-finite floats** ([`write_f64`]) serialize as `null` — never as
//!   the invalid bare tokens `NaN` / `inf`.
//! * **Parsing** ([`parse`]) decodes surrogate pairs correctly
//!   (`"\ud83d\ude00"` → 😀) and rejects unpaired surrogates with a
//!   **located** error (byte offset plus 1-based line and column) instead
//!   of replacing them with U+FFFD.
//!
//! Finite floats print via `{:?}` (the shortest decimal that round-trips),
//! and the parser reads them back with `str::parse::<f64>`, so a power
//! estimate survives an emit→parse trip **bit-identically** — the
//! property the server's determinism contract is tested against.

use std::fmt::Write as _;

/// Appends `s` to `out` as a quoted JSON string, escaping `"`, `\`, and
/// every control character.
///
/// Non-ASCII text is passed through as raw UTF-8 (valid JSON; [`parse`]
/// reads it back unchanged).
pub fn escape_into(out: &mut String, s: &str) {
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

/// [`escape_into`] returning a fresh `String` (quotes included).
pub fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Appends `x` to `out` as a JSON number — or `null` when `x` is NaN or
/// infinite, which bare JSON cannot represent.
///
/// Finite values print via `{:?}`: the shortest decimal that parses back
/// to the same bits, with a trailing `.0` kept on integral floats.
pub fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
    }
}

/// A JSON value: insertion-ordered objects, exact integers, `f64` floats.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer token with no fraction or exponent, kept exact.
    Int(i128),
    /// A floating-point number; non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; pairs keep insertion order (no sorting, no dedup).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match); `None` on non-objects.
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric payload as `f64` ([`Value::Int`] converts; may round for
    /// magnitudes beyond 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Numeric payload as `u64`: exact non-negative integers only
    /// (integral floats up to 2^53 accepted; anything lossy is `None`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            Value::Num(x) => {
                if x.is_finite() && *x >= 0.0 && x.fract() == 0.0 && *x <= 9007199254740992.0 {
                    Some(*x as u64)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// The items, if this is a [`Value::Arr`].
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with two-space indentation (the workspace's
    /// `results/*.json` house style).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Serializes on one line with no whitespace.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Num(x) => write_f64(out, *x),
            Value::Str(s) => escape_into(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item_break(out, indent, 1);
                    item.write(out, indent.map(|n| n + 1));
                }
                item_break(out, indent, 0);
                out.push(']');
            }
            Value::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item_break(out, indent, 1);
                    escape_into(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent.map(|n| n + 1));
                }
                item_break(out, indent, 0);
                out.push('}');
            }
        }
    }
}

macro_rules! impl_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Int(v as i128)
            }
        }
    )*};
}

impl_from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Num(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<&String> for Value {
    fn from(v: &String) -> Value {
        Value::Str(v.clone())
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// `Some(v)` converts as `v`; `None` is `null`.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

/// Builds a [`json::Value`](crate::json::Value) with
/// `serde_json::json!`-style syntax.
///
/// Supported shapes: `json!(null)`, `json!(expr)`,
/// `json!({ "key": value, ... })` with nested object/array literals or
/// arbitrary expressions as values, and `json!([ item, ... ])` with
/// expression items. Every value converts through `From`, so objects
/// keep insertion order and integers stay exact.
///
/// ```
/// use hlpower_obs::json;
///
/// let v = json!({"ok": true, "lanes": [64u64, 256], "cache": None::<&str>});
/// assert_eq!(v.compact(), r#"{"ok":true,"lanes":[64,256],"cache":null}"#);
/// ```
#[macro_export]
macro_rules! json {
    (null) => { $crate::json::Value::Null };
    ({}) => { $crate::json::Value::Obj(Vec::new()) };
    ({ $($body:tt)+ }) => {
        $crate::json::Value::Obj($crate::json_object_body!([]; $($body)+))
    };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::json::Value::Arr(vec![ $( $crate::json::Value::from($item) ),* ])
    };
    ($other:expr) => { $crate::json::Value::from($other) };
}

/// Implementation detail of [`json!`](crate::json!): munches
/// `"key": value` pairs into one `vec![(key, value), ...]`, recursing
/// into `{...}` and `[...]` value literals.
#[doc(hidden)]
#[macro_export]
macro_rules! json_object_body {
    ([$($pairs:expr),*];) => { vec![$($pairs),*] };
    ([$($pairs:expr),*]; $key:literal : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $crate::json_object_body!(
            [$($pairs,)* ($key.to_string(), $crate::json!({ $($inner)* }))]; $($($rest)*)?
        )
    };
    ([$($pairs:expr),*]; $key:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $crate::json_object_body!(
            [$($pairs,)* ($key.to_string(), $crate::json!([ $($inner)* ]))]; $($($rest)*)?
        )
    };
    ([$($pairs:expr),*]; $key:literal : $value:expr $(, $($rest:tt)*)?) => {
        $crate::json_object_body!(
            [$($pairs,)* ($key.to_string(), $crate::json::Value::from($value))]; $($($rest)*)?
        )
    };
}

fn item_break(out: &mut String, indent: Option<usize>, extra: usize) {
    if let Some(n) = indent {
        out.push('\n');
        for _ in 0..(n + extra) {
            out.push_str("  ");
        }
    }
}

/// A parse failure with its location in the source text.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure (0-based).
    pub pos: usize,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (in bytes from the last newline).
    pub col: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at line {} column {} (byte {})", self.msg, self.line, self.col, self.pos)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing whitespace allowed, anything
/// else after the value is an error).
///
/// Differences from the minimal readers this replaces: integer tokens
/// stay exact ([`Value::Int`]), `\u` surrogate pairs decode to the
/// correct scalar, and **unpaired surrogates are rejected with a located
/// [`JsonError`]** instead of being silently replaced.
///
/// # Errors
///
/// Returns the first syntax problem with its byte/line/column location.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after JSON document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        self.err_at(self.pos, msg)
    }

    fn err_at(&self, pos: usize, msg: &str) -> JsonError {
        let pos = pos.min(self.bytes.len());
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..pos] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonError { pos, line, col, msg: msg.to_string() }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        let start = self.pos;
        let mut integral = true;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' => {}
                b'+' | b'.' | b'e' | b'E' => integral = false,
                _ => break,
            }
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err_at(start, "malformed number"))?;
        if integral {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite())
            .map(Value::Num)
            .ok_or_else(|| self.err_at(start, "malformed number"))
    }

    /// Reads one `\uXXXX` unit (the caller has consumed the `\u`); leaves
    /// `pos` on the last hex digit, matching the single-escape advance.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("malformed \\u escape"))?;
        self.pos += 4;
        Ok(hex)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let escape_start = self.pos;
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hi = self.hex4()?;
                            match hi {
                                0xD800..=0xDBFF => {
                                    // High surrogate: a low surrogate must
                                    // follow as `\uXXXX`.
                                    if self.bytes.get(self.pos + 1..self.pos + 3) != Some(b"\\u") {
                                        return Err(self.err_at(
                                            escape_start,
                                            "unpaired high surrogate in \\u escape",
                                        ));
                                    }
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..=0xDFFF).contains(&lo) {
                                        return Err(self.err_at(
                                            escape_start,
                                            "high surrogate not followed by a low surrogate",
                                        ));
                                    }
                                    let scalar = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    out.push(
                                        char::from_u32(scalar)
                                            .expect("surrogate pair always decodes"),
                                    );
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(self.err_at(
                                        escape_start,
                                        "unpaired low surrogate in \\u escape",
                                    ));
                                }
                                _ => {
                                    out.push(char::from_u32(hi).expect("non-surrogate BMP scalar"))
                                }
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the whole scalar.
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().expect("non-empty by construction");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_quotes_backslashes_and_controls() {
        assert_eq!(escaped("plain"), "\"plain\"");
        assert_eq!(escaped("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(escaped("x\ny\t\u{1}"), "\"x\\ny\\t\\u0001\"");
        // Non-ASCII passes through as raw UTF-8.
        assert_eq!(escaped("π😀"), "\"π😀\"");
    }

    #[test]
    fn write_f64_guards_non_finite() {
        let mut out = String::new();
        write_f64(&mut out, 1.5);
        out.push(' ');
        write_f64(&mut out, f64::NAN);
        out.push(' ');
        write_f64(&mut out, f64::INFINITY);
        out.push(' ');
        write_f64(&mut out, f64::NEG_INFINITY);
        assert_eq!(out, "1.5 null null null");
    }

    #[test]
    fn surrogate_pairs_decode_correctly() {
        let v = parse("\"\\ud83d\\ude00\"").expect("valid pair");
        assert_eq!(v.as_str(), Some("😀"));
        // Mixed with surrounding text.
        let v = parse("\"a\\ud834\\udd1eb\"").expect("valid pair");
        assert_eq!(v.as_str(), Some("a\u{1D11E}b"));
    }

    #[test]
    fn unpaired_surrogates_are_located_errors() {
        let e = parse("\"x\\ud83d\"").expect_err("lone high surrogate");
        assert!(e.msg.contains("surrogate"), "{e}");
        assert_eq!((e.line, e.col), (1, 3), "{e}");
        let e = parse("\"\\ude00\"").expect_err("lone low surrogate");
        assert!(e.msg.contains("low surrogate"), "{e}");
        let e = parse("\"\\ud83d\\u0041\"").expect_err("high + non-low");
        assert!(e.msg.contains("not followed"), "{e}");
    }

    #[test]
    fn non_bmp_text_round_trips_raw_and_escaped() {
        let original = "span 😀 \u{1D11E}";
        let emitted = escaped(original);
        assert_eq!(parse(&emitted).expect("parses").as_str(), Some(original));
    }

    #[test]
    fn integers_stay_exact_and_floats_round_trip() {
        let big = u64::MAX - 3;
        let v = parse(&format!("[{big}, 0.1, -2.5e3, 12]")).expect("parses");
        let items = v.as_arr().expect("array");
        assert_eq!(items[0].as_u64(), Some(big));
        assert_eq!(items[1].as_f64(), Some(0.1));
        assert_eq!(items[2].as_f64(), Some(-2500.0));
        assert_eq!(items[2].as_u64(), None, "negative is not u64");
        assert_eq!(items[3], Value::Int(12));
        // Emit → parse is bit-identical for f64 payloads.
        let x = 123.45678901234568_f64;
        let emitted = Value::Num(x).pretty();
        assert_eq!(parse(&emitted).expect("parses").as_f64(), Some(x));
    }

    #[test]
    fn errors_carry_line_and_column() {
        let e = parse("{\n  \"a\": 1,\n  \"b\" 2\n}").expect_err("missing colon");
        assert_eq!(e.line, 3, "{e}");
        assert!(e.col > 1, "{e}");
        let shown = e.to_string();
        assert!(shown.contains("line 3"), "{shown}");
    }

    #[test]
    fn pretty_matches_house_style_and_compact_is_dense() {
        let v = Value::Obj(vec![
            ("name".to_string(), Value::Str("adder".to_string())),
            ("xs".to_string(), Value::Arr(vec![Value::Int(1), Value::Int(2)])),
            ("empty".to_string(), Value::Obj(Vec::new())),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"name\": \"adder\",\n  \"xs\": [\n    1,\n    2\n  ],\n  \"empty\": {}\n}"
        );
        assert_eq!(v.compact(), "{\"name\":\"adder\",\"xs\":[1,2],\"empty\":{}}");
        let back = parse(&v.pretty()).expect("parses");
        assert_eq!(back, v);
        assert_eq!(parse(&v.compact()).expect("parses"), v);
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_documents() {
        assert!(parse("{} x").is_err());
        assert!(parse("{").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn getters_navigate_objects() {
        let v = parse("{\"ok\": true, \"n\": 7, \"s\": \"hi\"}").expect("parses");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("hi"));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn macro_builds_nested_structures() {
        let rows = vec![json!({"a": 1u64}), json!({"a": 2u64})];
        let v = json!({
            "name": "adder",
            "ratio": 4.0 / 2.0,
            "nested": {"x": 1u64, "y": [1u64, 2, 3]},
            "rows": rows,
        });
        let text = v.pretty();
        assert!(text.contains("\"name\": \"adder\""));
        assert!(text.contains("\"ratio\": 2.0"));
        assert!(text.contains("\"x\": 1"));
        // Structure, not text, is the contract.
        if let Value::Obj(pairs) = v {
            assert_eq!(pairs.len(), 4);
            assert_eq!(pairs[0].0, "name");
            assert!(matches!(pairs[3].1, Value::Arr(ref a) if a.len() == 2));
        } else {
            panic!("expected object");
        }
    }

    #[test]
    fn empty_containers_and_arrays() {
        assert_eq!(json!({}).pretty(), "{}");
        assert_eq!(Value::Arr(Vec::new()).pretty(), "[]");
        let arr = json!([1u64, 2, 3]);
        assert_eq!(arr.pretty(), "[\n  1,\n  2,\n  3\n]");
    }

    #[test]
    fn non_finite_floats_nest_as_null_and_stay_parseable() {
        let v = json!({
            "ratio": f64::NAN,
            "bound": f64::INFINITY,
            "series": vec![1.0, f64::NEG_INFINITY],
        });
        let text = v.pretty();
        assert!(text.contains("\"ratio\": null"), "{text}");
        assert!(text.contains("\"bound\": null"), "{text}");
        parse(&text).expect("emitted JSON is valid");
    }

    #[test]
    fn escaped_identifier_names_survive_emission() {
        // Verilog escaped identifiers may contain quotes and backslashes;
        // such names must not corrupt the JSON dump.
        let name = "\\gate\"0\\ ";
        let text = json!({ "node": name }).pretty();
        let back = parse(&text).expect("valid JSON");
        assert_eq!(back.get("node").and_then(Value::as_str), Some(name));
    }

    #[test]
    fn options_convert_to_the_value_or_null() {
        let v = json!({
            "hash": Some("00ab"),
            "cache": None::<&str>,
            "width": Some(64u64),
            "power_uw": None::<f64>,
            "bus": Some(String::from("q")),
        });
        assert_eq!(
            v.compact(),
            "{\"hash\":\"00ab\",\"cache\":null,\"width\":64,\"power_uw\":null,\"bus\":\"q\"}"
        );
        assert_eq!(json!(None::<u64>), Value::Null);
        assert_eq!(json!(Some(Some(1.5))), Value::Num(1.5));
    }
}
