//! Statistics, the run header and the report a run prints and writes.

use serde::{Serialize, Value};

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (sorted in place).
/// Returns 0 for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One named, unit-carrying value with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

pub fn metric(name: &str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
        samples,
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Why a check failed (empty when `correct`).
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Workload-specific report fields, in insertion order.
    pub details: Vec<(String, Value)>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn detail(&mut self, key: &str, value: impl Serialize) {
        self.details.push((key.to_owned(), value.serialize()));
    }
}

/// The run header every report records.
#[derive(Serialize)]
pub struct Header {
    pub command: Vec<String>,
    pub git_revision: String,
    pub cpu_cores: usize,
    pub threads: usize,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Header {
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool, threads: usize) -> Self {
        Self {
            command: std::env::args().collect(),
            git_revision: git_revision(),
            cpu_cores: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            threads,
            workload: workload.to_owned(),
            seed,
            seconds,
            trace,
        }
    }
}

/// `git rev-parse HEAD` of the working directory, or `"unavailable"` when
/// it is not a git checkout.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unavailable".to_owned())
}

/// A metric on the result line. A non-finite value (already a failed
/// check, see `conform`) is written as `null`.
#[derive(Serialize)]
struct Reading {
    value: Option<f64>,
    unit: &'static str,
}

/// A metric in the report: the reading and its sample count.
#[derive(Serialize)]
struct Sampled {
    value: Option<f64>,
    unit: &'static str,
    samples: u64,
}

fn finite(v: f64) -> Option<f64> {
    v.is_finite().then_some(v)
}

/// `{name: record(metric)}` in the order of `metrics`.
fn named<T: Serialize>(metrics: &[Metric], record: impl Fn(&Metric) -> T) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|m| (m.name.clone(), record(m).serialize()))
            .collect(),
    )
}

/// The last stdout line: exactly `correct`, `attempted`, `failed`, `metrics`.
#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Value,
}

/// The full report written next to the result line.
#[derive(Serialize)]
struct Report {
    header: Header,
    correct: bool,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    error_rate: f64,
    metrics: Value,
    details: Value,
}

pub fn report_json(header: Header, outcome: &Outcome) -> Result<String, serde_json::Error> {
    serde_json::to_string(&Report {
        header,
        correct: outcome.correct,
        problems: outcome.problems.clone(),
        attempted: outcome.attempted,
        failed: outcome.failed,
        error_rate: ratio(outcome.failed as f64, outcome.attempted as f64),
        metrics: named(&outcome.metrics, |m| Sampled {
            value: finite(m.value),
            unit: m.unit,
            samples: m.samples,
        }),
        details: Value::Map(outcome.details.clone()),
    })
}

pub fn result_line(outcome: &Outcome) -> Result<String, serde_json::Error> {
    let line = ResultLine {
        correct: outcome.correct,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: named(&outcome.metrics, |m| Reading {
            value: finite(m.value),
            unit: m.unit,
        }),
    };
    serde_json::to_string(&line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
