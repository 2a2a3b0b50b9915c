//! Metric definitions, failure accounting and the result line.

use crate::json;
use crate::stats::{self, Better};
use std::time::{Duration, Instant};

/// An end-to-end metric: measured with tracing off, on every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// End-to-end metrics, in report order. `BENCHMARK.json` lists the same
/// names, units, directions and bounds (a unit test holds them equal).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_steps_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Per-layer metrics of the traced run (name, unit), in report order.
pub const PER_LAYER: [(&str, &str); 11] = [
    ("service.ms_p50", "ms"),
    ("outside.ms_p50", "ms"),
    ("env.sample_ns", "ns"),
    ("env.ms_per_op", "ms"),
    ("core.step_ns", "ns"),
    ("core.ms_per_op", "ms"),
    ("node.choose_ns", "ns"),
    ("node.ms_per_op", "ms"),
    ("harvesters.cache_hit_rate", "ratio"),
    ("layers_sum_vs_wall", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, samples: usize) -> Self {
        let unit = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| u)
            .unwrap_or_else(|| panic!("metric {name} is not defined"));
        Metric {
            name,
            unit,
            value,
            samples,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// Failure accounting: every operation and every correctness check is
/// one attempt; an attempt with any problem is one failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

/// Failure messages kept for the report (the counts stay exact).
const MAX_MESSAGES: usize = 20;

impl Checks {
    /// Records one attempt whose problems (if any) are `problems`.
    pub fn attempt(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            let room = MAX_MESSAGES.saturating_sub(self.messages.len());
            self.messages.extend(problems.into_iter().take(room));
        }
    }

    /// Records one attempted check.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempt(if ok { Vec::new() } else { vec![problem()] });
    }

    /// Records one attempted step that reports its own error.
    pub fn result(&mut self, result: Result<(), String>) {
        self.attempt(result.err().into_iter().collect());
    }
}

/// A conservation residual the simulator must keep below 1e-6 (a NaN
/// residual fails too).
pub fn audit_problem(what: &str, residual: f64) -> Option<String> {
    let closes = residual.abs() < 1e-6;
    (!closes).then(|| format!("{what}: audit residual {residual:e} is not below 1e-6"))
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (tails, shares, span self times).
    pub notes: Vec<String>,
}

/// One timed operation of the measured phase.
#[derive(Debug, Clone, Copy)]
pub struct OpTiming {
    pub start: Instant,
    pub end: Instant,
    /// Simulated steps the operation covered.
    pub steps: u64,
}

impl OpTiming {
    pub fn wall(&self) -> Duration {
        self.end - self.start
    }

    pub fn wall_ms(&self) -> f64 {
        self.wall().as_secs_f64() * 1e3
    }
}

/// The end-to-end metrics shared by every workload.
pub fn end_to_end(
    setups: &[Duration],
    ops: &[OpTiming],
    phase: Duration,
    peak_rss_mb: f64,
    out: &mut Outcome,
) {
    let setup: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    let walls: Vec<f64> = ops.iter().map(OpTiming::wall_ms).collect();
    let steps: u64 = ops.iter().map(|o| o.steps).sum();
    let secs = phase.as_secs_f64();
    let nan = f64::NAN;
    out.metrics.extend([
        Metric::new("setup_s", stats::median(&setup).unwrap_or(nan), setup.len())
            .note("median of the run's set-ups"),
        Metric::new(
            "op_ms_p50",
            stats::percentile(&walls, 50.0).unwrap_or(nan),
            walls.len(),
        ),
        Metric::new("ops_per_s", ops.len() as f64 / secs, ops.len())
            .note(format!("over {secs:.2} s")),
        Metric::new("sim_steps_per_s", steps as f64 / secs, ops.len())
            .note(format!("{steps} simulated steps")),
        Metric::new("peak_rss_mb", peak_rss_mb, 1).note("largest child process"),
    ]);
    if let Some(p) = stats::tail_percentile(walls.len()) {
        let tail = stats::percentile(&walls, p).unwrap_or(nan);
        out.notes
            .push(format!("op latency p{p}: {tail:.3} ms (n={})", walls.len()));
    }
}

/// Checks that `metrics` holds each of `expected` exactly once with a
/// finite value; returns the problems found.
pub fn missing_metrics(metrics: &[Metric], expected: &[&str]) -> Vec<String> {
    let mut problems = Vec::new();
    for name in expected {
        let found: Vec<&Metric> = metrics.iter().filter(|m| m.name == *name).collect();
        match found.as_slice() {
            [m] if m.value.is_finite() => {}
            [m] => problems.push(format!("metric {name} is not finite ({})", m.value)),
            [] => problems.push(format!("metric {name} missing")),
            _ => problems.push(format!("metric {name} reported twice")),
        }
    }
    problems
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
pub fn result_line(checks: &Checks, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                json::number(m.value),
                json::quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        fields.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_digest_or_audit_counts_as_a_failure() {
        let mut checks = Checks::default();
        checks.attempt(Vec::new());
        let digest = "00ff00ff00ff00ff";
        let corrupted = "00ff00ff00ff00fe";
        checks.check(digest == corrupted, || "digest mismatch".into());
        checks.attempt(audit_problem("run", 3e-3).into_iter().collect());
        checks.attempt(audit_problem("run", f64::NAN).into_iter().collect());
        checks.attempt(audit_problem("run", 1e-12).into_iter().collect());
        assert_eq!((checks.attempted, checks.failed), (5, 3));
        let line = result_line(&checks, &[]);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&json::Value::Bool(false)));
        assert_eq!(v.get("failed").and_then(json::Value::as_f64), Some(3.0));
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let metrics = vec![
            Metric::new("setup_s", 0.8127, 3),
            Metric::new("op_ms_p50", 1.2034, 10),
        ];
        let v = json::parse(&result_line(&Checks::default(), &metrics)).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        // No attempts at all still reports one, as the result line must.
        assert_eq!(v.get("attempted").and_then(json::Value::as_f64), Some(1.0));
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(
            setup.get("value").and_then(json::Value::as_f64),
            Some(0.8127)
        );
        assert_eq!(setup.get("unit").and_then(json::Value::as_str), Some("s"));
        assert!(missing_metrics(&metrics, &["setup_s", "op_ms_p50"]).is_empty());
        assert_eq!(missing_metrics(&metrics, &["ops_per_s"]).len(), 1);
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let manifest = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let e2e = manifest
            .get("end_to_end")
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, def) in e2e.iter().zip(END_TO_END) {
            assert_eq!(
                entry.get("name").and_then(json::Value::as_str),
                Some(def.name)
            );
            assert_eq!(
                entry.get("unit").and_then(json::Value::as_str),
                Some(def.unit)
            );
            let better = entry.get("better").and_then(json::Value::as_str);
            assert_eq!(better.and_then(Better::parse), Some(def.better));
            assert_eq!(
                entry.get("bound").and_then(json::Value::as_f64),
                Some(def.bound)
            );
        }
        let layers = manifest
            .get("per_layer")
            .and_then(json::Value::as_array)
            .unwrap();
        let listed: Vec<(&str, &str)> = layers
            .iter()
            .map(|l| {
                (
                    l.get("name").and_then(json::Value::as_str).unwrap(),
                    l.get("unit").and_then(json::Value::as_str).unwrap(),
                )
            })
            .collect();
        assert_eq!(listed, PER_LAYER);
        let workloads = manifest
            .get("workloads")
            .and_then(json::Value::as_array)
            .unwrap();
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(json::Value::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }
}
