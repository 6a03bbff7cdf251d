//! What a run hands back: per-round timings and counts, output checks,
//! and the metric list printed as the final JSON line.

use crate::hostspeed::Segment;
use std::fmt::Write as _;

/// One whole round of a workload's operations.
#[derive(Debug, Default)]
pub struct Round {
    /// Steps (the unit `steps_per_s` counts) executed in the timed part.
    pub steps: u64,
    /// The timed segments that executed those steps.
    pub timed: Vec<Segment>,
    /// Set-up times measured in this round, seconds at the reference
    /// host speed.
    pub setup: Vec<f64>,
    /// Operations attempted (the unit `attempted` counts).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

/// Output checks of one run: every failed comparison is kept and
/// printed, so a wrong result names itself.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
    passed: u64,
}

impl Checks {
    /// Record one comparison; `what` describes the failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else if self.failures.len() < 32 {
            self.failures.push(what());
        } else if self.failures.len() == 32 {
            self.failures
                .push("... further failures omitted".to_string());
        }
    }

    /// Did every comparison hold?
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Comparisons that held.
    pub fn passed(&self) -> u64 {
        self.passed
    }

    /// The failed comparisons.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// One named metric as a workload measured it. Its unit is the one
/// BENCHMARK.json lists for the name.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            value,
        }
    }
}

/// A metric as printed: its value, and its name and unit as
/// BENCHMARK.json lists them.
#[derive(Debug, Clone, Copy)]
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The metrics that `section` (`"end_to_end"` or `"per_layer"`) of the
/// benchmark description `json` lists, as (name, unit) in file order.
/// The description is the crate's own file, whose strings hold no
/// escapes; a missing section yields an empty list.
pub fn listed_metrics(json: &'static str, section: &str) -> Vec<(&'static str, &'static str)> {
    let Some(at) = json.find(&format!("\"{section}\"")) else {
        return Vec::new();
    };
    let rest = &json[at..];
    let Some(open) = rest.find('[') else {
        return Vec::new();
    };
    let close = rest[open..].find(']').map_or(rest.len(), |c| open + c);
    rest[open + 1..close]
        .split('}')
        .filter_map(|object| Some((string_field(object, "name")?, string_field(object, "unit")?)))
        .collect()
}

/// The string value of `"key": "value"` in `object`.
fn string_field(object: &'static str, key: &str) -> Option<&'static str> {
    let after_key = &object[object.find(&format!("\"{key}\""))? + key.len() + 2..];
    let after_colon = after_key.trim_start().strip_prefix(':')?.trim_start();
    let value = after_colon.strip_prefix('"')?;
    Some(&value[..value.find('"')?])
}

/// Render the final result line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Reported]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints the shortest string that reads back as the same
        // f64, so no digit of the measurement is lost.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
