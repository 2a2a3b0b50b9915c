//! A zero-dependency metrics registry: labeled counters, gauges and
//! histograms, snapshotable to JSON and mergeable across workers.
//!
//! The registry is the numeric half of the observability layer (the
//! event half is [`crate::SimObserver`]): anything that wants to report
//! "where the joules went" — the runner, the ensemble pool, a platform's
//! quiescent ledger — writes named series here, and a single
//! [`MetricsRegistry::snapshot_json`] call serializes the lot for
//! dashboards or regression diffing.
//!
//! Determinism: the registry stores series in a [`BTreeMap`], so
//! iteration, snapshots and [`PartialEq`] comparisons are independent
//! of insertion order, and [`MetricsRegistry::merge`] applied in a
//! fixed order (seed order, in the ensemble) gives bit-identical
//! results at any worker count.
//!
//! # Examples
//!
//! ```
//! use mseh_sim::MetricsRegistry;
//!
//! let mut m = MetricsRegistry::new();
//! m.counter_add("sim_steps_total", &[("system", "C")], 1440.0);
//! m.gauge_set("store_soc", &[], 0.83);
//! m.histogram_observe("window_residual_j", &[], 3.2e-13);
//! assert_eq!(m.counter("sim_steps_total", &[("system", "C")]), Some(1440.0));
//! let json = m.snapshot_json();
//! assert!(json.contains("\"sim_steps_total\""));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default histogram bucket upper bounds: decades from 1 n(unit) to
/// 1 M(unit), a span that covers per-window joule residuals as well as
/// harvest energies without configuration.
pub const DEFAULT_BUCKETS: [f64; 16] = [
    1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6,
];

/// A series key: metric name plus sorted `(label, value)` pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl SeriesKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_owned(), v.to_owned()))
            .collect();
        labels.sort();
        Self {
            name: name.to_owned(),
            labels,
        }
    }
}

/// A cumulative histogram: counts per upper-bound bucket plus running
/// count/sum/min/max.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (inclusive), ascending; observations above
    /// the last bound land in the implicit `+Inf` overflow.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (same length as `bounds`, plus the
    /// overflow in [`HistogramSnapshot::overflow`]).
    pub counts: Vec<u64>,
    /// Observations beyond the last bound.
    pub overflow: u64,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Smallest observation (`+Inf` when empty).
    pub min: f64,
    /// Largest observation (`-Inf` when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    fn new(bounds: Vec<f64>) -> Self {
        let n = bounds.len();
        Self {
            bounds,
            counts: vec![0; n],
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn observe(&mut self, v: f64) {
        // Binary search instead of a linear scan: bounds are ascending,
        // and `partition_point(b < v)` lands on the first bucket whose
        // (inclusive) upper bound admits `v`. NaN compares false against
        // the last bound and falls into the overflow, matching the old
        // linear scan.
        match self.bounds.last() {
            Some(&last) if v <= last => {
                let i = self.bounds.partition_point(|&b| b < v);
                self.counts[i] += 1;
            }
            _ => self.overflow += 1,
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Arithmetic mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A typed slot reference: which arena a series lives in, and where.
/// Storage is split per type so the handle paths are plain indexed f64
/// operations with no discriminant to re-check on every update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotRef {
    Counter(usize),
    Gauge(usize),
    Histogram(usize),
}

impl SlotRef {
    fn type_name(self) -> &'static str {
        match self {
            SlotRef::Counter(_) => "counter",
            SlotRef::Gauge(_) => "gauge",
            SlotRef::Histogram(_) => "histogram",
        }
    }
}

/// A pre-resolved handle to a counter series — one name/label resolution
/// at registration, O(1) array indexing on every update. Handles stay
/// valid for the life of the registry they came from (series are never
/// removed) but must not be used against a different registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterHandle(usize);

/// A pre-resolved handle to a gauge series; see [`CounterHandle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeHandle(usize);

/// A pre-resolved handle to a histogram series; see [`CounterHandle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramHandle(usize);

/// A registry of labeled metric series: counters, gauges and
/// histograms, snapshotable to JSON and mergeable across workers.
///
/// Series live in a flat slot vector; the [`BTreeMap`] only maps keys to
/// slot indices. Name-based methods pay one map lookup per call; the
/// handle methods ([`handle_counter`](Self::handle_counter) and friends)
/// resolve the key once and index directly thereafter — the hot-path
/// interface for per-step observers.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    index: BTreeMap<SeriesKey, SlotRef>,
    counters: Vec<f64>,
    gauges: Vec<f64>,
    histograms: Vec<HistogramSnapshot>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct series.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the registry holds no series.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Resolves (creating if absent) the slot for `name`/`labels`.
    fn slot(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce(&mut Self) -> SlotRef,
    ) -> SlotRef {
        if let Some(&slot) = self.index.get(&SeriesKey::new(name, labels)) {
            return slot;
        }
        let slot = make(self);
        self.index.insert(SeriesKey::new(name, labels), slot);
        slot
    }

    fn new_counter(&mut self) -> SlotRef {
        self.counters.push(0.0);
        SlotRef::Counter(self.counters.len() - 1)
    }

    fn new_gauge(&mut self) -> SlotRef {
        self.gauges.push(0.0);
        SlotRef::Gauge(self.gauges.len() - 1)
    }

    /// Pre-resolves a counter series (creating it at zero if absent) and
    /// returns its O(1) handle.
    ///
    /// # Panics
    ///
    /// Panics if the series exists with a different type.
    pub fn handle_counter(&mut self, name: &str, labels: &[(&str, &str)]) -> CounterHandle {
        match self.slot(name, labels, Self::new_counter) {
            SlotRef::Counter(i) => CounterHandle(i),
            other => panic!("metric {name} is a {}, not a counter", other.type_name()),
        }
    }

    /// Pre-resolves a gauge series (creating it at zero if absent) and
    /// returns its O(1) handle.
    ///
    /// # Panics
    ///
    /// Panics if the series exists with a different type.
    pub fn handle_gauge(&mut self, name: &str, labels: &[(&str, &str)]) -> GaugeHandle {
        match self.slot(name, labels, Self::new_gauge) {
            SlotRef::Gauge(i) => GaugeHandle(i),
            other => panic!("metric {name} is a {}, not a gauge", other.type_name()),
        }
    }

    /// Pre-resolves a histogram series (creating it with
    /// [`DEFAULT_BUCKETS`] if absent) and returns its O(1) handle.
    ///
    /// # Panics
    ///
    /// Panics if the series exists with a different type.
    pub fn handle_histogram(&mut self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        let slot = self.slot(name, labels, |me| {
            me.histograms
                .push(HistogramSnapshot::new(DEFAULT_BUCKETS.to_vec()));
            SlotRef::Histogram(me.histograms.len() - 1)
        });
        match slot {
            SlotRef::Histogram(i) => HistogramHandle(i),
            other => panic!("metric {name} is a {}, not a histogram", other.type_name()),
        }
    }

    /// Adds `v` to the counter behind `h` without any name resolution —
    /// a single indexed f64 add. Monotonicity (`v >= 0`) is checked in
    /// debug builds; handles are type-checked at creation, so the slot
    /// is always a counter.
    #[inline]
    pub fn counter_add_handle(&mut self, h: CounterHandle, v: f64) {
        debug_assert!(v >= 0.0, "counter increment must be >= 0, got {v}");
        self.counters[h.0] += v;
    }

    /// Sets the gauge behind `h` without any name resolution.
    #[inline]
    pub fn gauge_set_handle(&mut self, h: GaugeHandle, v: f64) {
        self.gauges[h.0] = v;
    }

    /// Records `v` into the histogram behind `h` without any name
    /// resolution.
    #[inline]
    pub fn histogram_observe_handle(&mut self, h: HistogramHandle, v: f64) {
        self.histograms[h.0].observe(v);
    }

    /// Adds `v` to a counter, creating it at zero first if absent.
    ///
    /// # Panics
    ///
    /// Panics if `v` is negative (counters are monotonic) or the series
    /// exists with a different type.
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        assert!(v >= 0.0, "counter {name} increment must be >= 0, got {v}");
        match self.slot(name, labels, Self::new_counter) {
            SlotRef::Counter(i) => self.counters[i] += v,
            other => panic!("metric {name} is a {}, not a counter", other.type_name()),
        }
    }

    /// Sets a gauge to `v`, creating it if absent.
    ///
    /// # Panics
    ///
    /// Panics if the series exists with a different type.
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        match self.slot(name, labels, Self::new_gauge) {
            SlotRef::Gauge(i) => self.gauges[i] = v,
            other => panic!("metric {name} is a {}, not a gauge", other.type_name()),
        }
    }

    /// Records `v` into a histogram with [`DEFAULT_BUCKETS`], creating
    /// it if absent.
    ///
    /// # Panics
    ///
    /// Panics if the series exists with a different type.
    pub fn histogram_observe(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.histogram_observe_with(name, labels, v, &DEFAULT_BUCKETS);
    }

    /// Records `v` into a histogram, creating it with the given bucket
    /// bounds if absent (bounds must be ascending).
    ///
    /// # Panics
    ///
    /// Panics if the series exists with a different type, or on
    /// non-ascending `bounds` for a new series.
    pub fn histogram_observe_with(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        v: f64,
        bounds: &[f64],
    ) {
        let slot = self.slot(name, labels, |me| {
            assert!(
                bounds.windows(2).all(|w| w[0] < w[1]),
                "histogram {name} bounds must be strictly ascending"
            );
            me.histograms.push(HistogramSnapshot::new(bounds.to_vec()));
            SlotRef::Histogram(me.histograms.len() - 1)
        });
        match slot {
            SlotRef::Histogram(i) => self.histograms[i].observe(v),
            other => panic!("metric {name} is a {}, not a histogram", other.type_name()),
        }
    }

    /// Reads a counter's value.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.index.get(&SeriesKey::new(name, labels)) {
            Some(&SlotRef::Counter(i)) => Some(self.counters[i]),
            _ => None,
        }
    }

    /// Reads a gauge's value.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.index.get(&SeriesKey::new(name, labels)) {
            Some(&SlotRef::Gauge(i)) => Some(self.gauges[i]),
            _ => None,
        }
    }

    /// Reads a histogram's snapshot.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        match self.index.get(&SeriesKey::new(name, labels)) {
            Some(&SlotRef::Histogram(i)) => Some(&self.histograms[i]),
            _ => None,
        }
    }

    /// Merges another registry into this one: counters add, gauges take
    /// `other`'s value (last writer wins — merge in a fixed order for
    /// determinism), histograms combine bucket-wise.
    ///
    /// # Panics
    ///
    /// Panics if a series exists in both registries with mismatched
    /// types or histogram bounds.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (key, &theirs) in &other.index {
            let mine = match self.index.get(key) {
                Some(&slot) => slot,
                None => {
                    let slot = match theirs {
                        SlotRef::Counter(j) => {
                            self.counters.push(other.counters[j]);
                            SlotRef::Counter(self.counters.len() - 1)
                        }
                        SlotRef::Gauge(j) => {
                            self.gauges.push(other.gauges[j]);
                            SlotRef::Gauge(self.gauges.len() - 1)
                        }
                        SlotRef::Histogram(j) => {
                            self.histograms.push(other.histograms[j].clone());
                            SlotRef::Histogram(self.histograms.len() - 1)
                        }
                    };
                    self.index.insert(key.clone(), slot);
                    continue;
                }
            };
            match (mine, theirs) {
                (SlotRef::Counter(i), SlotRef::Counter(j)) => {
                    self.counters[i] += other.counters[j];
                }
                (SlotRef::Gauge(i), SlotRef::Gauge(j)) => {
                    self.gauges[i] = other.gauges[j];
                }
                (SlotRef::Histogram(i), SlotRef::Histogram(j)) => {
                    let (a, b) = (&mut self.histograms[i], &other.histograms[j]);
                    assert_eq!(
                        a.bounds, b.bounds,
                        "merging histogram {} with mismatched buckets",
                        key.name
                    );
                    for (c, d) in a.counts.iter_mut().zip(&b.counts) {
                        *c += d;
                    }
                    a.overflow += b.overflow;
                    a.count += b.count;
                    a.sum += b.sum;
                    a.min = a.min.min(b.min);
                    a.max = a.max.max(b.max);
                }
                (mine, theirs) => panic!(
                    "merging metric {} as {} into {}",
                    key.name,
                    theirs.type_name(),
                    mine.type_name()
                ),
            }
        }
    }

    /// Serializes every series to a deterministic JSON document:
    ///
    /// ```json
    /// {"metrics":[
    ///   {"name":"...","labels":{...},"type":"counter","value":1.0},
    ///   {"name":"...","labels":{},"type":"histogram","count":3,"sum":0.5,
    ///    "min":0.1,"max":0.3,"buckets":[{"le":1e-9,"count":0}, ...],"overflow":0}
    /// ]}
    /// ```
    pub fn snapshot_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.index.len() * 96);
        out.push_str("{\"metrics\":[");
        for (i, (key, &slot)) in self.index.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_json_str(&mut out, &key.name);
            out.push_str(",\"labels\":{");
            for (j, (k, v)) in key.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, k);
                out.push(':');
                push_json_str(&mut out, v);
            }
            out.push_str("},\"type\":\"");
            out.push_str(slot.type_name());
            out.push('"');
            match slot {
                SlotRef::Counter(j) | SlotRef::Gauge(j) => {
                    let v = match slot {
                        SlotRef::Counter(_) => self.counters[j],
                        _ => self.gauges[j],
                    };
                    let _ = write!(out, ",\"value\":{}", json_num(v));
                }
                SlotRef::Histogram(j) => {
                    let h = &self.histograms[j];
                    let _ = write!(
                        out,
                        ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                        h.count,
                        json_num(h.sum),
                        json_num(h.min),
                        json_num(h.max)
                    );
                    for (j, (&le, &count)) in h.bounds.iter().zip(&h.counts).enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{{\"le\":{},\"count\":{count}}}", json_num(le));
                    }
                    let _ = write!(out, "],\"overflow\":{}", h.overflow);
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Equality is logical — same keyed series with equal contents — and
/// independent of slot numbering, so a registry built in a different
/// insertion order still compares equal (the determinism tests rely on
/// this, as they did with the old key-to-series map).
impl PartialEq for MetricsRegistry {
    fn eq(&self, other: &Self) -> bool {
        self.index.len() == other.index.len()
            && self
                .index
                .iter()
                .zip(&other.index)
                .all(|((ka, &sa), (kb, &sb))| {
                    ka == kb
                        && match (sa, sb) {
                            (SlotRef::Counter(i), SlotRef::Counter(j)) => {
                                self.counters[i] == other.counters[j]
                            }
                            (SlotRef::Gauge(i), SlotRef::Gauge(j)) => {
                                self.gauges[i] == other.gauges[j]
                            }
                            (SlotRef::Histogram(i), SlotRef::Histogram(j)) => {
                                self.histograms[i] == other.histograms[j]
                            }
                            _ => false,
                        }
                })
    }
}

/// Formats a float as a JSON-legal number (JSON has no Inf/NaN; those
/// serialize as null).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn push_json_str(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let mut m = MetricsRegistry::new();
        m.counter_add("steps", &[("system", "A")], 2.0);
        m.counter_add("steps", &[("system", "A")], 3.0);
        m.counter_add("steps", &[("system", "B")], 7.0);
        assert_eq!(m.counter("steps", &[("system", "A")]), Some(5.0));
        assert_eq!(m.counter("steps", &[("system", "B")]), Some(7.0));
        assert_eq!(m.counter("steps", &[]), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn label_order_does_not_matter() {
        let mut m = MetricsRegistry::new();
        m.counter_add("x", &[("a", "1"), ("b", "2")], 1.0);
        m.counter_add("x", &[("b", "2"), ("a", "1")], 1.0);
        assert_eq!(m.counter("x", &[("b", "2"), ("a", "1")]), Some(2.0));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = MetricsRegistry::new();
        m.gauge_set("soc", &[], 0.4);
        m.gauge_set("soc", &[], 0.9);
        assert_eq!(m.gauge("soc", &[]), Some(0.9));
    }

    #[test]
    fn histograms_bucket_and_summarize() {
        let mut m = MetricsRegistry::new();
        for v in [1e-8, 2e-8, 0.5, 2e7] {
            m.histogram_observe("residual", &[], v);
        }
        let h = m.histogram("residual", &[]).unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.overflow, 1); // 2e7 beyond the last decade
        assert_eq!(h.min, 1e-8);
        assert_eq!(h.max, 2e7);
        assert!((h.mean() - (1e-8 + 2e-8 + 0.5 + 2e7) / 4.0).abs() < 1.0);
        // 1e-8 lands in the `le = 1e-8` bucket (inclusive upper bound).
        assert_eq!(h.counts[1], 1);
    }

    #[test]
    fn merge_is_typewise() {
        let mut a = MetricsRegistry::new();
        a.counter_add("c", &[], 1.0);
        a.gauge_set("g", &[], 5.0);
        a.histogram_observe("h", &[], 0.5);
        let mut b = MetricsRegistry::new();
        b.counter_add("c", &[], 2.0);
        b.gauge_set("g", &[], 7.0);
        b.histogram_observe("h", &[], 2.5);
        b.counter_add("only_b", &[], 9.0);
        a.merge(&b);
        assert_eq!(a.counter("c", &[]), Some(3.0));
        assert_eq!(a.gauge("g", &[]), Some(7.0));
        assert_eq!(a.counter("only_b", &[]), Some(9.0));
        let h = a.histogram("h", &[]).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 3.0);
    }

    #[test]
    fn merge_order_determinism_for_counters() {
        // Counters commute: any merge order gives the same registry.
        let regs: Vec<MetricsRegistry> = (1..=4)
            .map(|i| {
                let mut m = MetricsRegistry::new();
                m.counter_add("steps", &[], i as f64);
                m.histogram_observe("e", &[], i as f64);
                m
            })
            .collect();
        let mut fwd = MetricsRegistry::new();
        for r in &regs {
            fwd.merge(r);
        }
        let mut rev = MetricsRegistry::new();
        for r in regs.iter().rev() {
            rev.merge(r);
        }
        assert_eq!(fwd, rev);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_escaped() {
        let mut m = MetricsRegistry::new();
        m.gauge_set("quirky \"name\"", &[("sys\n", "a\\b")], 1.5);
        m.counter_add("steps", &[], 3.0);
        let json = m.snapshot_json();
        assert_eq!(json, m.clone().snapshot_json());
        assert!(json.starts_with("{\"metrics\":["));
        assert!(json.contains("\\\"name\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"type\":\"counter\",\"value\":3"));
        // Series are name-ordered regardless of insertion order.
        assert!(json.find("quirky").unwrap() < json.find("steps").unwrap());
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_confusion_panics() {
        let mut m = MetricsRegistry::new();
        m.gauge_set("x", &[], 1.0);
        m.counter_add("x", &[], 1.0);
    }

    #[test]
    #[should_panic(expected = "must be >= 0")]
    fn counters_are_monotonic() {
        let mut m = MetricsRegistry::new();
        m.counter_add("c", &[], -1.0);
    }

    #[test]
    fn empty_registry_snapshot() {
        let m = MetricsRegistry::new();
        assert!(m.is_empty());
        assert_eq!(m.snapshot_json(), "{\"metrics\":[]}");
    }

    #[test]
    fn handles_address_the_same_series_as_names() {
        let mut m = MetricsRegistry::new();
        m.counter_add("steps", &[("system", "C")], 2.0);
        let c = m.handle_counter("steps", &[("system", "C")]);
        let g = m.handle_gauge("soc", &[]);
        let h = m.handle_histogram("residual", &[]);
        m.counter_add_handle(c, 3.0);
        m.gauge_set_handle(g, 0.7);
        m.histogram_observe_handle(h, 1e-7);
        assert_eq!(m.counter("steps", &[("system", "C")]), Some(5.0));
        assert_eq!(m.gauge("soc", &[]), Some(0.7));
        assert_eq!(m.histogram("residual", &[]).unwrap().count, 1);
        // Name-based writes keep flowing into the handled series.
        m.histogram_observe("residual", &[], 0.5);
        assert_eq!(m.histogram("residual", &[]).unwrap().count, 2);
    }

    #[test]
    fn equality_ignores_slot_numbering() {
        let mut a = MetricsRegistry::new();
        a.counter_add("x", &[], 1.0);
        a.gauge_set("y", &[], 2.0);
        let mut b = MetricsRegistry::new();
        b.gauge_set("y", &[], 2.0);
        b.counter_add("x", &[], 1.0);
        assert_eq!(a, b);
        b.counter_add("x", &[], 1.0);
        assert_ne!(a, b);
    }

    #[test]
    fn binary_bucketing_matches_linear_semantics() {
        let mut m = MetricsRegistry::new();
        // Exactly on a bound (inclusive), just above, well below the
        // first bound, and NaN (overflow, as before).
        for v in [1e-6, 1.000_000_1e-6, 1e-12, f64::NAN] {
            m.histogram_observe("h", &[], v);
        }
        let h = m.histogram("h", &[]).unwrap();
        assert_eq!(h.counts[3], 1); // 1e-6 bound, inclusive
        assert_eq!(h.counts[4], 1); // next decade up
        assert_eq!(h.counts[0], 1); // below the first bound
        assert_eq!(h.overflow, 1); // NaN
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn handle_resolution_checks_types() {
        let mut m = MetricsRegistry::new();
        m.counter_add("x", &[], 1.0);
        m.handle_gauge("x", &[]);
    }
}
