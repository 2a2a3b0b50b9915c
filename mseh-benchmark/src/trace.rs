//! In-memory spans for the traced run, written out as JSONL at the end.
//!
//! Spans come from the benchmark's own files, around its calls into each
//! layer: one span per operation of the measured phase, plus the layer
//! replays that explain it as its children. A replay runs after the
//! measured phase, so a child's interval need not lie inside its
//! parent's; `op` ties every span of one operation together.

use crate::json;
use crate::layers::{layer_metrics, Replayed};
use crate::report::Outcome;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub op: u64,
    pub start: Instant,
    pub end: Instant,
    /// Counts and busy times measured at the span's boundary; keys
    /// ending in `_ns` are nested layer time.
    pub attrs: Vec<(&'static str, f64)>,
}

#[derive(Debug)]
pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    /// Time spent recording and writing spans.
    busy: Duration,
}

impl Tracer {
    pub fn new(workload: &'static str, origin: Instant) -> Self {
        Tracer {
            workload,
            origin,
            spans: Vec::new(),
            busy: Duration::ZERO,
        }
    }

    /// Records a span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        (start, end): (Instant, Instant),
        attrs: Vec<(&'static str, f64)>,
    ) -> u64 {
        let t = Instant::now();
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            op,
            start,
            end,
            attrs,
        });
        self.busy += t.elapsed();
        id
    }

    /// Writes the spans and adds the per-layer metrics over `replayed`,
    /// with tracing's own cost as a percentage of the measured `phase`.
    pub fn finish(mut self, replayed: &[Replayed], phase: Duration, out: &mut Outcome) {
        match self.write() {
            Ok(path) => out
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => out.checks.check(false, || format!("writing spans: {e}")),
        }
        out.notes
            .push(format!("{} operations replayed", replayed.len()));
        let overhead_pct = self.busy.as_secs_f64() / phase.as_secs_f64() * 100.0;
        out.metrics.extend(layer_metrics(replayed, overhead_pct));
        out.notes.extend(self.self_times());
    }

    /// Writes every span to `<target>/benchmark/trace-<workload>.jsonl`,
    /// where `<target>` is `$CARGO_TARGET_DIR` or `target`.
    fn write(&mut self) -> io::Result<PathBuf> {
        let t = Instant::now();
        let dir = PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or("target".into()))
            .join("benchmark");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{}.jsonl", self.workload));
        let mut text = String::new();
        let ns = |i: Instant| i.saturating_duration_since(self.origin).as_nanos();
        for s in &self.spans {
            let attrs: Vec<String> = s
                .attrs
                .iter()
                .map(|(k, v)| format!("{}: {}", json::quote(k), json::number(*v)))
                .collect();
            let _ = writeln!(
                text,
                "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"workload\": {}, \"op\": {}, \"start_ns\": {}, \"end_ns\": {}, \"attrs\": {{{}}}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json::quote(s.name),
                json::quote(self.workload),
                s.op,
                ns(s.start),
                ns(s.end),
                attrs.join(", ")
            );
        }
        std::fs::write(&path, text)?;
        self.busy += t.elapsed();
        Ok(path)
    }

    /// Per span name: count, total time and self time (total less the
    /// part of its interval its children cover, less nested layer time
    /// carried in `_ns` attributes), one line each.
    pub fn self_times(&self) -> Vec<String> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let start = s.start.max(parent.start);
                let end = s.end.min(parent.end);
                covered[p as usize] += end.saturating_duration_since(start);
            }
        }
        let mut by_name: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for (s, cover) in self.spans.iter().zip(&covered) {
            let total = (s.end - s.start).as_secs_f64() * 1e3;
            let nested: f64 = s
                .attrs
                .iter()
                .filter(|(k, _)| k.ends_with("_ns"))
                .map(|(_, v)| v / 1e6)
                .sum();
            let own = (total - cover.as_secs_f64() * 1e3 - nested).max(0.0);
            let e = by_name.entry(s.name).or_default();
            *e = (e.0 + 1, e.1 + total, e.2 + own);
            for (k, v) in s.attrs.iter().filter(|(k, _)| k.ends_with("_ns")) {
                let layer = by_name.entry(k.trim_end_matches("_ns")).or_default();
                *layer = (layer.0 + 1, layer.1 + v / 1e6, layer.2 + v / 1e6);
            }
        }
        by_name
            .into_iter()
            .map(|(name, (n, total, own))| {
                format!("span {name:<16} n={n:<6} total {total:>11.3} ms  self {own:>11.3} ms")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_nested_layers() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tracer = Tracer::new("test", t0);
        let op = tracer.record("op", None, 0, (at(0), at(10)), vec![]);
        tracer.record("service", Some(op), 0, (at(2), at(6)), vec![]);
        tracer.record(
            "replay",
            Some(op),
            0,
            (at(20), at(30)),
            vec![("env_ns", 3e6), ("core_ns", 5e6)],
        );
        let lines = tracer.self_times();
        let line = |name: &str| {
            lines
                .iter()
                .find(|l| l.starts_with(&format!("span {name} ")))
                .unwrap()
                .clone()
        };
        assert!(line("op").contains("self       6.000 ms"), "{lines:?}");
        assert!(line("replay").contains("self       2.000 ms"), "{lines:?}");
        assert!(line("core").contains("total       5.000 ms"), "{lines:?}");
    }
}
