//! The result line.
//!
//! Every run reports every metric of its kind: the end-to-end list with
//! `--trace 0`, the per-layer list with `--trace 1`. A per-layer metric
//! whose layer the workload never calls reads 0 (see README.md).

use psta_perfbench::catalogue;
use serde::Serialize;
use std::collections::BTreeMap;

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (correctness checks included).
    pub attempted: u64,
    /// Operations that failed (failed correctness checks included).
    pub failed: u64,
    /// Correctness checks that failed.
    pub checks_failed: u64,
    /// Metric values by catalogue name.
    pub values: BTreeMap<&'static str, f64>,
    /// Workload-specific names for the same numbers, printed above the
    /// result line: `(name, value, unit)`.
    pub named: Vec<(String, f64, String)>,
}

impl Outcome {
    /// Records a catalogue metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a catalogue metric and prints it under `alias` as well.
    pub fn set_named(&mut self, name: &'static str, alias: &str, value: f64) {
        self.set(name, value);
        let unit = catalogue("end_to_end")
            .into_iter()
            .chain(catalogue("per_layer"))
            .find(|(n, _)| n == name)
            .map_or(String::new(), |(_, u)| u);
        self.named.push((alias.to_owned(), value, unit));
    }

    /// Prints `value` under a workload-specific `name` only.
    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.named.push((name.into(), value, unit.to_owned()));
    }

    /// Records one correctness check; a failed one also counts as a
    /// failed operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.checks_failed += 1;
            eprintln!("correctness check failed: {what}");
        }
    }
}

#[derive(Serialize)]
struct Metric {
    value: f64,
    unit: String,
}

#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

/// The result line: end-to-end metrics untraced, per-layer traced.
/// Every end-to-end metric must have been measured; per-layer metrics
/// of layers the workload never calls read 0.
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let mut metrics = BTreeMap::new();
    for (name, unit) in catalogue(if traced { "per_layer" } else { "end_to_end" }) {
        let value = match outcome.values.get(name.as_str()) {
            Some(v) => *v,
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        metrics.insert(name, Metric { value, unit });
    }
    Ok(serde::json::to_string(&ResultLine {
        correct: outcome.checks_failed == 0 && outcome.failed == 0,
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        metrics,
    }))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
