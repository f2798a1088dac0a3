//! Metric snapshots: structured values plus human-readable and JSON
//! rendering.
//!
//! The JSON emitter reproduces the house style of [`crate::json::Value`]
//! (two-space indents, exact integers, `{:?}`-printed floats) so metric
//! dumps sit next to `results/*.json` and diff the same way. String
//! escaping and the non-finite float guard are shared with every other
//! emitter via [`mod@crate::json`].

use std::fmt::Write as _;

use crate::hist::HistSummary;
use crate::json::{escape_into as write_json_str, write_f64 as write_json_f64};

/// One metric value inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An event count.
    Count(u64),
    /// Accumulated wall-clock nanoseconds.
    Nanos(u64),
    /// A floating-point reading.
    Float(f64),
    /// A live level (goes up and down; see [`crate::Gauge`]).
    Gauge(u64),
    /// A recorded sample trajectory.
    Series(Vec<f64>),
    /// A log-linear histogram summary (see [`crate::hist`]).
    Hist(HistSummary),
}

/// A named group of metrics (one instrumented subsystem).
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Section name (stable JSON key, e.g. `"monte_carlo"`).
    pub name: &'static str,
    /// `(metric name, value)` pairs in declaration order.
    pub entries: Vec<(&'static str, Value)>,
}

/// A point-in-time copy of every registered metric.
///
/// Snapshots are plain data: diff two with [`delta`](Self::delta), render
/// with [`render_text`](Self::render_text) or
/// [`to_json_pretty`](Self::to_json_pretty).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Schema tag written into the JSON dump (`"hlpower-obs/2"`).
    pub schema: &'static str,
    /// Numeric schema version written as `"schema_version"` in the JSON
    /// dump — machine-comparable (tools can check `>= 2` instead of
    /// parsing the tag string).
    pub schema_version: u32,
    /// All sections in rendering order.
    pub sections: Vec<Section>,
}

impl Snapshot {
    /// Looks up a metric by section and name.
    pub fn get(&self, section: &str, name: &str) -> Option<&Value> {
        self.sections
            .iter()
            .find(|s| s.name == section)?
            .entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// Looks up an integer metric ([`Value::Count`], [`Value::Nanos`],
    /// [`Value::Gauge`], or a [`Value::Hist`]'s recorded-value count).
    pub fn count(&self, section: &str, name: &str) -> Option<u64> {
        match self.get(section, name)? {
            Value::Count(n) | Value::Nanos(n) | Value::Gauge(n) => Some(*n),
            Value::Hist(h) => Some(h.count),
            _ => None,
        }
    }

    /// The snapshot minus a baseline, entry by entry.
    ///
    /// Counters subtract saturating; floats subtract; gauges, series,
    /// and histogram summaries keep this snapshot's value (levels,
    /// trajectories, and quantiles are not differenced).
    ///
    /// The result is the **union** of both snapshots: a section or entry
    /// present in only one side is kept with its full value rather than
    /// silently dropped — self-only entries pass through unchanged, and
    /// baseline-only sections/entries are appended (after this snapshot's
    /// entries, in baseline order) so a dump comparison never hides a
    /// metric that one build knows about and the other does not.
    pub fn delta(&self, baseline: &Snapshot) -> Snapshot {
        let mut sections: Vec<Section> = self
            .sections
            .iter()
            .map(|s| {
                let mut entries: Vec<(&'static str, Value)> = s
                    .entries
                    .iter()
                    .map(|(name, v)| {
                        let d = match (v, baseline.get(s.name, name)) {
                            (Value::Count(n), Some(Value::Count(b))) => {
                                Value::Count(n.saturating_sub(*b))
                            }
                            (Value::Nanos(n), Some(Value::Nanos(b))) => {
                                Value::Nanos(n.saturating_sub(*b))
                            }
                            (Value::Float(x), Some(Value::Float(b))) => Value::Float(x - b),
                            _ => v.clone(),
                        };
                        (*name, d)
                    })
                    .collect();
                // Baseline-only entries of a shared section: keep whole.
                if let Some(base) = baseline.sections.iter().find(|b| b.name == s.name) {
                    for (name, v) in &base.entries {
                        if !s.entries.iter().any(|(n, _)| n == name) {
                            entries.push((*name, v.clone()));
                        }
                    }
                }
                Section { name: s.name, entries }
            })
            .collect();
        // Baseline-only sections: keep whole.
        for base in &baseline.sections {
            if !self.sections.iter().any(|s| s.name == base.name) {
                sections.push(base.clone());
            }
        }
        Snapshot { schema: self.schema, schema_version: self.schema_version, sections }
    }

    /// Renders an aligned, human-readable summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for section in &self.sections {
            let _ = writeln!(out, "[{}]", section.name);
            for (name, value) in &section.entries {
                match value {
                    Value::Count(n) => {
                        let _ = writeln!(out, "  {name:<28} {n}");
                    }
                    Value::Nanos(n) => {
                        let _ = writeln!(out, "  {name:<28} {}", fmt_ns(*n));
                    }
                    Value::Float(x) => {
                        let _ = writeln!(out, "  {name:<28} {x:.6}");
                    }
                    Value::Gauge(n) => {
                        let _ = writeln!(out, "  {name:<28} {n} (gauge)");
                    }
                    Value::Series(xs) => {
                        let _ = writeln!(out, "  {name:<28} {} point(s)", xs.len());
                    }
                    Value::Hist(h) => {
                        let _ = writeln!(
                            out,
                            "  {name:<28} n={} min={} p50={} p90={} p99={} max={}",
                            h.count, h.min, h.p50, h.p90, h.p99, h.max
                        );
                    }
                }
            }
        }
        out
    }

    /// Serializes to the bench-style pretty JSON format.
    ///
    /// The top-level object carries a `"schema"` tag followed by one
    /// object per section; counters are exact integers, floats print via
    /// `{:?}` (shortest round-tripping decimal, non-finite → `null`).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": ");
        write_json_str(&mut out, self.schema);
        let _ = write!(out, ",\n  \"schema_version\": {}", self.schema_version);
        for section in &self.sections {
            out.push_str(",\n  ");
            write_json_str(&mut out, section.name);
            out.push_str(": {");
            for (i, (name, value)) in section.entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("\n    ");
                write_json_str(&mut out, name);
                out.push_str(": ");
                match value {
                    Value::Count(n) | Value::Nanos(n) | Value::Gauge(n) => {
                        let _ = write!(out, "{n}");
                    }
                    Value::Float(x) => write_json_f64(&mut out, *x),
                    Value::Series(xs) => {
                        if xs.is_empty() {
                            out.push_str("[]");
                        } else {
                            out.push('[');
                            for (j, x) in xs.iter().enumerate() {
                                if j > 0 {
                                    out.push(',');
                                }
                                out.push_str("\n      ");
                                write_json_f64(&mut out, *x);
                            }
                            out.push_str("\n    ]");
                        }
                    }
                    Value::Hist(h) => {
                        let _ = write!(
                            out,
                            "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                             \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                            h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99
                        );
                    }
                }
            }
            if section.entries.is_empty() {
                out.push('}');
            } else {
                out.push_str("\n  }");
            }
        }
        out.push_str("\n}");
        out
    }

    /// Renders the snapshot as Prometheus text exposition format 0.0.4
    /// (the `Content-Type: text/plain; version=0.0.4` format).
    ///
    /// Mapping per entry, metric names prefixed `hlpower_<section>_`:
    ///
    /// * [`Value::Count`] / [`Value::Nanos`] → `counter` named
    ///   `<name>_total` (nanosecond units are already in the entry
    ///   name, e.g. `total_ns_total`).
    /// * [`Value::Float`] / [`Value::Gauge`] → `gauge`.
    /// * [`Value::Hist`] → `histogram`: cumulative `_bucket{le="…"}`
    ///   lines built from the sparse summary buckets, a `+Inf` bucket,
    ///   then `_sum` and `_count`.
    /// * [`Value::Series`] trajectories have no Prometheus equivalent
    ///   and are skipped.
    ///
    /// Non-finite floats render as `+Inf` / `-Inf` / `NaN`, which the
    /// format allows.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for section in &self.sections {
            for (name, value) in &section.entries {
                let metric = format!("hlpower_{}_{}", section.name, name);
                match value {
                    Value::Count(n) | Value::Nanos(n) => {
                        let _ = writeln!(out, "# TYPE {metric}_total counter");
                        let _ = writeln!(out, "{metric}_total {n}");
                    }
                    Value::Gauge(n) => {
                        let _ = writeln!(out, "# TYPE {metric} gauge");
                        let _ = writeln!(out, "{metric} {n}");
                    }
                    Value::Float(x) => {
                        let _ = writeln!(out, "# TYPE {metric} gauge");
                        let _ = writeln!(out, "{metric} {}", fmt_prom_f64(*x));
                    }
                    Value::Hist(h) => {
                        let _ = writeln!(out, "# TYPE {metric} histogram");
                        let mut cum = 0u64;
                        for &(bound, n) in &h.buckets {
                            cum += n;
                            let _ = writeln!(out, "{metric}_bucket{{le=\"{bound}\"}} {cum}");
                        }
                        let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {}", h.count);
                        let _ = writeln!(out, "{metric}_sum {}", h.sum);
                        let _ = writeln!(out, "{metric}_count {}", h.count);
                    }
                    Value::Series(_) => {}
                }
            }
        }
        out
    }
}

fn fmt_prom_f64(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_string()
    } else if x == f64::INFINITY {
        "+Inf".to_string()
    } else if x == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{x:?}")
    }
}

/// One sample line from a Prometheus text exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Full metric name (e.g. `hlpower_serve_requests_total`).
    pub name: String,
    /// Label pairs in source order (e.g. `[("le", "1023")]`).
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl PromSample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// A parsed Prometheus text exposition: declared types plus samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PromExposition {
    /// `# TYPE` declarations as `(metric name, type)` pairs.
    pub types: Vec<(String, String)>,
    /// All sample lines in document order.
    pub samples: Vec<PromSample>,
}

impl PromExposition {
    /// The declared type of `metric`, if any.
    pub fn type_of(&self, metric: &str) -> Option<&str> {
        self.types.iter().find(|(m, _)| m == metric).map(|(_, t)| t.as_str())
    }

    /// The first label-free sample named `name`, if any.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples.iter().find(|s| s.name == name && s.labels.is_empty()).map(|s| s.value)
    }
}

/// Parses Prometheus text exposition format 0.0.4 (the format
/// [`Snapshot::to_prometheus`] writes — the in-tree validator for CI
/// scrapes and tests).
///
/// Handles `# HELP`/`# TYPE` comment lines, labels with escaped values
/// (`\\`, `\"`, `\n`), and the special values `+Inf`, `-Inf`, `NaN`.
///
/// # Errors
///
/// Returns a `line N: …` description of the first malformed line.
pub fn parse_prometheus(text: &str) -> Result<PromExposition, String> {
    let mut exp = PromExposition::default();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.trim_start().splitn(3, ' ');
            if parts.next() == Some("TYPE") {
                let name = parts
                    .next()
                    .ok_or_else(|| format!("line {lineno}: TYPE without a metric name"))?;
                let kind =
                    parts.next().ok_or_else(|| format!("line {lineno}: TYPE without a type"))?;
                exp.types.push((name.to_string(), kind.to_string()));
            }
            continue;
        }
        exp.samples.push(parse_sample_line(line, lineno)?);
    }
    Ok(exp)
}

fn parse_sample_line(line: &str, lineno: usize) -> Result<PromSample, String> {
    let name_end = line
        .find(|c: char| c == '{' || c.is_whitespace())
        .ok_or_else(|| format!("line {lineno}: sample without a value"))?;
    let name = &line[..name_end];
    if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || "_:".contains(c)) {
        return Err(format!("line {lineno}: invalid metric name `{name}`"));
    }
    let mut rest = &line[name_end..];
    let mut labels = Vec::new();
    if let Some(body) = rest.strip_prefix('{') {
        let close =
            body.find('}').ok_or_else(|| format!("line {lineno}: unterminated label set"))?;
        labels = parse_labels(&body[..close], lineno)?;
        rest = &body[close + 1..];
    }
    let value_str = rest.split_whitespace().next().unwrap_or("");
    let value = match value_str {
        "+Inf" | "Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        _ => value_str
            .parse::<f64>()
            .map_err(|_| format!("line {lineno}: bad sample value `{value_str}`"))?,
    };
    Ok(PromSample { name: name.to_string(), labels, value })
}

fn parse_labels(body: &str, lineno: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        // Skip separators and whitespace; stop at end of the label body.
        while matches!(chars.peek(), Some(&c) if c == ',' || c.is_whitespace()) {
            chars.next();
        }
        if chars.peek().is_none() {
            return Ok(labels);
        }
        let mut key = String::new();
        while matches!(chars.peek(), Some(&c) if c != '=') {
            key.push(chars.next().unwrap());
        }
        if chars.next() != Some('=') || chars.next() != Some('"') {
            return Err(format!("line {lineno}: malformed label (expected `key=\"value\"`)"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => {
                        return Err(format!("line {lineno}: bad label escape `\\{other:?}`"));
                    }
                },
                Some(c) => value.push(c),
                None => return Err(format!("line {lineno}: unterminated label value")),
            }
        }
        labels.push((key.trim().to_string(), value));
    }
}

fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            schema: "hlpower-obs/2",
            schema_version: 2,
            sections: vec![
                Section {
                    name: "sim",
                    entries: vec![
                        ("steps", Value::Count(10)),
                        ("time", Value::Nanos(1_500)),
                        ("rate", Value::Float(2.5)),
                    ],
                },
                Section { name: "mc", entries: vec![("traj", Value::Series(vec![1.0, 0.5]))] },
            ],
        }
    }

    fn hist_summary() -> HistSummary {
        HistSummary {
            count: 4,
            sum: 201,
            min: 1,
            max: 100,
            p50: 10,
            p90: 90,
            p99: 100,
            buckets: vec![(1, 1), (10, 1), (95, 1), (103, 1)],
        }
    }

    #[test]
    fn lookup_and_count() {
        let s = sample();
        assert_eq!(s.count("sim", "steps"), Some(10));
        assert_eq!(s.count("sim", "time"), Some(1500));
        assert_eq!(s.count("sim", "rate"), None);
        assert_eq!(s.count("nope", "steps"), None);
        assert!(matches!(s.get("mc", "traj"), Some(Value::Series(v)) if v.len() == 2));
    }

    #[test]
    fn delta_subtracts_saturating() {
        let mut later = sample();
        later.sections[0].entries[0].1 = Value::Count(25);
        let d = later.delta(&sample());
        assert_eq!(d.count("sim", "steps"), Some(15));
        assert_eq!(d.count("sim", "time"), Some(0));
        // Series pass through.
        assert!(matches!(d.get("mc", "traj"), Some(Value::Series(v)) if v.len() == 2));
    }

    #[test]
    fn delta_keeps_one_sided_sections_and_entries() {
        let mut later = sample();
        // Entry only in `later` (new metric in the newer build).
        later.sections[0].entries.push(("fresh", Value::Count(7)));
        // Section only in `later`.
        later.sections.push(Section { name: "new_sec", entries: vec![("n", Value::Count(3))] });

        let mut base = sample();
        // Entry only in the baseline (metric removed since).
        base.sections[0].entries.push(("legacy", Value::Count(11)));
        // Section only in the baseline.
        base.sections.push(Section { name: "old_sec", entries: vec![("o", Value::Count(5))] });

        let d = later.delta(&base);
        // Both one-sided entries survive with their full value.
        assert_eq!(d.count("sim", "fresh"), Some(7));
        assert_eq!(d.count("sim", "legacy"), Some(11));
        // Both one-sided sections survive whole.
        assert_eq!(d.count("new_sec", "n"), Some(3));
        assert_eq!(d.count("old_sec", "o"), Some(5));
        // Shared entries still subtract.
        assert_eq!(d.count("sim", "steps"), Some(0));
    }

    #[test]
    fn hist_values_count_render_and_pass_through_delta() {
        let mut s = sample();
        s.sections[1].entries.push(("batch_ns", Value::Hist(hist_summary())));
        assert_eq!(s.count("mc", "batch_ns"), Some(4));
        let text = s.render_text();
        assert!(text.contains("p50=10"), "{text}");
        let json = s.to_json_pretty();
        assert!(
            json.contains(
                "\"batch_ns\": {\"count\": 4, \"sum\": 201, \"min\": 1, \"max\": 100, \
                 \"p50\": 10, \"p90\": 90, \"p99\": 100}"
            ),
            "{json}"
        );
        // Hist summaries are not differenced: delta keeps the later value.
        let d = s.delta(&sample());
        assert_eq!(d.get("mc", "batch_ns"), Some(&Value::Hist(hist_summary())));
    }

    #[test]
    fn text_render_names_every_metric() {
        let text = sample().render_text();
        assert!(text.contains("[sim]"));
        assert!(text.contains("steps"));
        assert!(text.contains("1.50 us"));
        assert!(text.contains("2 point(s)"));
    }

    #[test]
    fn json_matches_bench_style() {
        let json = sample().to_json_pretty();
        assert!(json.starts_with("{\n  \"schema\": \"hlpower-obs/2\",\n  \"schema_version\": 2"));
        assert!(json.contains("\"sim\": {\n    \"steps\": 10"));
        assert!(json.contains("\"rate\": 2.5"));
        assert!(json.contains("\"traj\": [\n      1.0,\n      0.5\n    ]"));
        assert!(json.ends_with("\n}"));
    }

    #[test]
    fn gauges_render_and_pass_through_delta() {
        let mut s = sample();
        s.sections[0].entries.push(("depth", Value::Gauge(5)));
        assert_eq!(s.count("sim", "depth"), Some(5));
        assert!(s.render_text().contains("5 (gauge)"));
        assert!(s.to_json_pretty().contains("\"depth\": 5"));
        let mut base = sample();
        base.sections[0].entries.push(("depth", Value::Gauge(9)));
        let d = s.delta(&base);
        assert_eq!(d.count("sim", "depth"), Some(5), "gauges are levels, not differenced");
    }

    #[test]
    fn prometheus_exposition_round_trips_and_matches_the_snapshot() {
        let mut s = sample();
        s.sections[0].entries.push(("depth", Value::Gauge(5)));
        s.sections[1].entries.push(("batch_ns", Value::Hist(hist_summary())));
        let text = s.to_prometheus();
        let exp = parse_prometheus(&text).expect("self-emitted exposition parses");

        // Counters: typed, `_total`-suffixed, exact values.
        assert_eq!(exp.type_of("hlpower_sim_steps_total"), Some("counter"));
        assert_eq!(exp.value("hlpower_sim_steps_total"), Some(10.0));
        assert_eq!(exp.value("hlpower_sim_time_total"), Some(1500.0));
        // Floats and gauges: plain gauges.
        assert_eq!(exp.type_of("hlpower_sim_rate"), Some("gauge"));
        assert_eq!(exp.value("hlpower_sim_rate"), Some(2.5));
        assert_eq!(exp.value("hlpower_sim_depth"), Some(5.0));
        // Series are skipped.
        assert!(!text.contains("traj"), "{text}");
        // Histogram: cumulative buckets, +Inf, sum, count.
        assert_eq!(exp.type_of("hlpower_mc_batch_ns"), Some("histogram"));
        let buckets: Vec<(&str, f64)> = exp
            .samples
            .iter()
            .filter(|smp| smp.name == "hlpower_mc_batch_ns_bucket")
            .map(|smp| (smp.label("le").unwrap(), smp.value))
            .collect();
        assert_eq!(
            buckets,
            vec![("1", 1.0), ("10", 2.0), ("95", 3.0), ("103", 4.0), ("+Inf", 4.0)],
            "cumulative le buckets from the sparse summary"
        );
        assert_eq!(exp.value("hlpower_mc_batch_ns_sum"), Some(201.0));
        assert_eq!(exp.value("hlpower_mc_batch_ns_count"), Some(4.0));
    }

    #[test]
    fn prometheus_parser_handles_labels_escapes_and_special_values() {
        let text = "# HELP x something\n# TYPE x gauge\n\
                    x{path=\"a\\\\b\\\"c\\nd\",code=\"200\"} +Inf\n\
                    y -Inf\nz NaN\nw 1e3\n";
        let exp = parse_prometheus(text).expect("parses");
        assert_eq!(exp.type_of("x"), Some("gauge"));
        let x = &exp.samples[0];
        assert_eq!(x.label("path"), Some("a\\b\"c\nd"));
        assert_eq!(x.label("code"), Some("200"));
        assert_eq!(x.value, f64::INFINITY);
        assert_eq!(exp.value("y"), Some(f64::NEG_INFINITY));
        assert!(exp.value("z").unwrap().is_nan());
        assert_eq!(exp.value("w"), Some(1000.0));
    }

    #[test]
    fn prometheus_parser_rejects_malformed_lines() {
        for (bad, why) in [
            ("metric", "no value"),
            ("metric{le=\"1\" 3", "unterminated labels"),
            ("metric{le=1} 3", "unquoted label value"),
            ("metric abc", "non-numeric value"),
            ("bad name 1", "space inside the name"),
        ] {
            let err = parse_prometheus(bad).expect_err(why);
            assert!(err.contains("line 1"), "{why}: {err}");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        let s = Snapshot {
            schema: "hlpower-obs/2",
            schema_version: 2,
            sections: vec![Section {
                name: "x",
                entries: vec![
                    ("nan", Value::Float(f64::NAN)),
                    ("inf", Value::Float(f64::INFINITY)),
                    ("traj", Value::Series(vec![1.0, f64::NEG_INFINITY])),
                ],
            }],
        };
        let json = s.to_json_pretty();
        assert!(json.contains("\"nan\": null"), "{json}");
        assert!(json.contains("\"inf\": null"), "{json}");
        // Non-finite series points null out too, and the document stays
        // valid JSON end to end.
        crate::json::parse(&json).expect("snapshot JSON parses");
        assert!(json.contains("null\n    ]"), "{json}");
    }
}
