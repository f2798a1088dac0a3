//! Experiment result container, rendering, and a minimal hand-rolled JSON
//! emitter.
//!
//! The emitter replaces the external `serde`/`serde_json` dependency so
//! the workspace builds offline. It supports exactly what the experiment
//! dumps need: null, booleans, integers, finite floats, strings, arrays,
//! and insertion-ordered objects, pretty-printed with two-space indents.
//! Construction goes through the [`json!`](crate::json) macro, which
//! keeps the `serde_json::json!` call-site syntax used throughout
//! `experiments/`.

use std::fmt::Write as _;

use hlpower_obs::json::{escape_into as write_escaped, write_f64};

/// A JSON value (insertion-ordered objects, `f64` numbers).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept exact rather than routed through `f64`).
    Int(i128),
    /// A floating-point number; non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; pairs keep insertion order (no sorting, no dedup).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Serializes with two-space indentation (the `serde_json`
    /// `to_string_pretty` look, so existing `results/*.json` diffs stay
    /// readable).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) => write_f64(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

macro_rules! impl_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Int(v as i128)
            }
        }
    )*};
}

impl_from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<f32> for Json {
    fn from(v: f32) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<&String> for Json {
    fn from(v: &String) -> Json {
        Json::Str(v.clone())
    }
}

impl From<&&str> for Json {
    fn from(v: &&str) -> Json {
        Json::Str((*v).to_string())
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}

impl From<()> for Json {
    fn from(_: ()) -> Json {
        Json::Null
    }
}

/// Builds a [`Json`] value with `serde_json::json!`-style syntax.
///
/// Supported shapes: `json!(expr)`, `json!({ "key": value, ... })` with
/// nested object/array literals or arbitrary expressions as values, and
/// `json!([ item, ... ])` with expression items.
#[macro_export]
macro_rules! json {
    (null) => { $crate::report::Json::Null };
    ({}) => { $crate::report::Json::Object(Vec::new()) };
    ({ $($body:tt)+ }) => {
        $crate::report::Json::Object($crate::json_object_body!([]; $($body)+))
    };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::report::Json::Array(vec![ $( $crate::report::Json::from($item) ),* ])
    };
    ($other:expr) => { $crate::report::Json::from($other) };
}

/// Implementation detail of [`json!`]: munches `"key": value` pairs into
/// one `vec![(key, value), ...]`, recursing into `{...}` and `[...]`
/// value literals.
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
            [$($pairs,)* ($key.to_string(), $crate::report::Json::from($value))]; $($($rest)*)?
        )
    };
}

/// One reproduced table/figure/claim.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment id (matches DESIGN.md's index).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// What the paper reports.
    pub paper: &'static str,
    /// Rendered result lines.
    pub lines: Vec<String>,
    /// Machine-readable measurements.
    pub json: Json,
}

impl ExperimentResult {
    /// Prints the experiment block to stdout.
    pub fn print(&self) {
        println!("\n=== [{}] {} ===", self.id, self.title);
        println!("paper: {}", self.paper);
        for l in &self.lines {
            println!("  {l}");
        }
    }

    /// The full machine-readable dump (metadata plus measurements).
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("id".to_string(), Json::from(self.id)),
            ("title".to_string(), Json::from(self.title)),
            ("paper".to_string(), Json::from(self.paper)),
            ("lines".to_string(), Json::from(self.lines.clone())),
            ("json".to_string(), self.json.clone()),
        ])
    }

    /// Writes the JSON dump under `results/`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json(&self) -> std::io::Result<()> {
        std::fs::create_dir_all("results")?;
        let path = format!("results/{}.json", self.id);
        std::fs::write(path, self.to_json().pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialize() {
        assert_eq!(Json::Null.pretty(), "null");
        assert_eq!(Json::from(true).pretty(), "true");
        assert_eq!(Json::from(42u64).pretty(), "42");
        assert_eq!(Json::from(-7i64).pretty(), "-7");
        assert_eq!(Json::from(1.5).pretty(), "1.5");
        assert_eq!(Json::from(2.0).pretty(), "2.0");
        assert_eq!(Json::from(f64::NAN).pretty(), "null");
        assert_eq!(Json::from(f64::INFINITY).pretty(), "null");
        assert_eq!(Json::from(f64::NEG_INFINITY).pretty(), "null");
        assert_eq!(Json::from("hi \"there\"\n").pretty(), "\"hi \\\"there\\\"\\n\"");
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
        hlpower_obs::json::parse(&text).expect("emitted JSON is valid");
    }

    #[test]
    fn escaped_identifier_names_survive_emission() {
        // Verilog escaped identifiers may contain quotes and backslashes;
        // such names must not corrupt the JSON dump.
        let name = "\\gate\"0\\ ";
        let text = json!({ "node": name }).pretty();
        let back = hlpower_obs::json::parse(&text).expect("valid JSON");
        assert_eq!(back.get("node").and_then(hlpower_obs::json::Value::as_str), Some(name));
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
        let reparse_guard: Json = v; // structure, not text, is the contract
        if let Json::Object(pairs) = reparse_guard {
            assert_eq!(pairs.len(), 4);
            assert_eq!(pairs[0].0, "name");
            assert!(matches!(pairs[3].1, Json::Array(ref a) if a.len() == 2));
        } else {
            panic!("expected object");
        }
    }

    #[test]
    fn empty_containers_and_arrays() {
        assert_eq!(json!({}).pretty(), "{}");
        assert_eq!(Json::Array(Vec::new()).pretty(), "[]");
        let arr = json!([1u64, 2, 3]);
        assert_eq!(arr.pretty(), "[\n  1,\n  2,\n  3\n]");
    }

    #[test]
    fn experiment_result_round_trip_shape() {
        let r = ExperimentResult {
            id: "T0",
            title: "test",
            paper: "claim",
            lines: vec!["line one".to_string()],
            json: json!({"k": 1u64}),
        };
        let text = r.to_json().pretty();
        assert!(text.starts_with("{\n  \"id\": \"T0\""));
        assert!(text.contains("\"lines\": [\n    \"line one\"\n  ]"));
        assert!(text.contains("\"k\": 1"));
    }
}
