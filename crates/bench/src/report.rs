//! Experiment result container and rendering.
//!
//! Each experiment's measurements are a [`Value`] built with
//! [`hlpower_obs::json!`], the workspace's one JSON builder; the dumps
//! under `results/` are its two-space pretty print.

use hlpower_obs::{json, json::Value};

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
    pub json: Value,
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
    pub fn to_json(&self) -> Value {
        json!({
            "id": self.id,
            "title": self.title,
            "paper": self.paper,
            "lines": self.lines.clone(),
            "json": self.json.clone(),
        })
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
        assert_eq!(Value::Null.pretty(), "null");
        assert_eq!(json!(true).pretty(), "true");
        assert_eq!(json!(42u64).pretty(), "42");
        assert_eq!(json!(-7i64).pretty(), "-7");
        assert_eq!(json!(1.5).pretty(), "1.5");
        assert_eq!(json!(2.0).pretty(), "2.0");
        assert_eq!(json!(f64::NAN).pretty(), "null");
        assert_eq!(json!(f64::INFINITY).pretty(), "null");
        assert_eq!(json!(f64::NEG_INFINITY).pretty(), "null");
        assert_eq!(json!("hi \"there\"\n").pretty(), "\"hi \\\"there\\\"\\n\"");
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
