//! The result line and the environment record, as hand-written JSON.

use std::fmt::Write as _;

/// A JSON string literal for `s`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which no metric should produce)
/// become `null` so the line stays parseable.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Named metrics with their units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Human-readable table for standard error.
    pub fn table(&self) -> String {
        self.0
            .iter()
            .map(|(n, v, u)| format!("  {n:<36} {v:>16.4} {u}\n"))
            .collect()
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(n),
                    json_number(*v),
                    json_string(u)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The benchmark's last output line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    )
}

/// Flat key/value record (the environment line).
#[derive(Default)]
pub struct Record(Vec<(&'static str, String)>);

impl Record {
    /// Adds a string field.
    pub fn str(&mut self, key: &'static str, value: impl AsRef<str>) -> &mut Self {
        self.0.push((key, json_string(value.as_ref())));
        self
    }

    /// Adds a numeric field.
    pub fn num(&mut self, key: &'static str, value: f64) -> &mut Self {
        self.0.push((key, json_number(value)));
        self
    }

    /// Adds a boolean field.
    pub fn flag(&mut self, key: &'static str, value: bool) -> &mut Self {
        self.0.push((key, value.to_string()));
        self
    }

    /// The record as one JSON object.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_string(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}
