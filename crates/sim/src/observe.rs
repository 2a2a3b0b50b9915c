//! Structured tracing for the simulation kernel: the [`SimObserver`]
//! trait, the per-window [`WindowBooks`] record, ready-made recorders
//! (ring buffer, CSV/JSONL sink, metrics bridge) and the
//! energy-conservation auditor.
//!
//! An observed run ([`crate::run_simulation_observed`]) emits its edge
//! events — run and window boundaries, policy changes, fault firings
//! and clears, failovers — to every attached observer, and sums each
//! control window's flows once into a [`WindowBooks`] that every
//! observer receives when the window closes. Per-step events
//! (`Harvest`, `ConversionLoss`, `StoreCharge`, `StoreDischarge`,
//! `Shortfall`) go only to the observers that ask for them, as each
//! step happens. When no observer is attached the kernel builds neither
//! events nor window books, so the bare hot loop pays nothing (measured,
//! not assumed: `cargo run -p mseh-bench --bin perf` reports
//! instrumented-vs-bare throughput in `BENCH_sim.json`).
//!
//! # Examples
//!
//! Auditing energy conservation per control window:
//!
//! ```
//! use mseh_sim::{run_simulation_observed, ConservationAuditor, SimConfig};
//! use mseh_core::{PowerUnit, StoreRole, PortRequirement};
//! use mseh_power::DcDcConverter;
//! use mseh_storage::Supercap;
//! use mseh_node::{SensorNode, FixedDuty};
//! use mseh_env::Environment;
//! use mseh_units::{DutyCycle, Seconds, Volts};
//!
//! let mut cap = Supercap::edlc_22f();
//! cap.set_voltage(Volts::new(2.5));
//! let mut unit = PowerUnit::builder("audited")
//!     .store_port(
//!         PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
//!         Some(Box::new(cap)), StoreRole::PrimaryBuffer, true)
//!     .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
//!     .build();
//! let mut auditor = ConservationAuditor::new();
//! run_simulation_observed(
//!     &mut unit,
//!     &Environment::indoor_office(1),
//!     &SensorNode::submilliwatt_class(),
//!     &mut FixedDuty::new(DutyCycle::saturating(0.05)),
//!     SimConfig::over(Seconds::from_hours(2.0)),
//!     &mut [&mut auditor],
//! );
//! let report = auditor.report();
//! assert!(report.windows > 0);
//! assert!(report.worst_relative < 1e-6, "{report}");
//! ```

use crate::metrics::{json_num, CounterHandle, GaugeHandle, HistogramHandle, MetricsRegistry};
use mseh_core::StepReport;
use mseh_units::{DutyCycle, Joules, Seconds, Watts};

/// One structured event from a simulation run.
///
/// Energy events carry one step's energies and reach only the observers
/// that ask for them (see [`SimObserver::wants_step_events`]); window
/// events carry the platform's storage inventory at the boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// The run begins.
    RunStart {
        /// Simulation time of the first step.
        time: Seconds,
    },
    /// A control window opens (the policy has just decided).
    WindowStart {
        /// Window start time.
        time: Seconds,
        /// Duty cycle chosen for the window.
        duty: DutyCycle,
        /// Node average load at that duty.
        load: Watts,
        /// Platform stored energy entering the window.
        stored: Joules,
        /// Cumulative storage losses entering the window.
        losses: Joules,
    },
    /// The policy changed its duty choice between windows.
    PolicyChange {
        /// Time of the new window.
        time: Seconds,
        /// Previous window's duty.
        from: DutyCycle,
        /// New duty.
        to: DutyCycle,
    },
    /// Bus energy harvested this step.
    Harvest {
        /// Step start time.
        time: Seconds,
        /// Harvested bus energy.
        energy: Joules,
    },
    /// Conversion and housekeeping losses this step.
    ConversionLoss {
        /// Step start time.
        time: Seconds,
        /// Output-stage conversion loss.
        converter: Joules,
        /// Standing (quiescent/housekeeping) overhead.
        overhead: Joules,
    },
    /// Bus energy into stores this step.
    StoreCharge {
        /// Step start time.
        time: Seconds,
        /// Energy accepted by the stores.
        energy: Joules,
    },
    /// Bus energy out of stores this step.
    StoreDischarge {
        /// Step start time.
        time: Seconds,
        /// Energy delivered by the stores.
        energy: Joules,
    },
    /// Load energy that went unserved this step.
    Shortfall {
        /// Step start time.
        time: Seconds,
        /// Unserved load energy.
        energy: Joules,
    },
    /// Storage capacity dropped since the last check — a device failed
    /// or degraded (detected at control-window granularity), or an
    /// injected fault wrapper reported a firing through its fired-count
    /// (which also catches faults that fire *and* clear inside one
    /// window).
    FaultFire {
        /// Time of the window at which the drop was observed.
        time: Seconds,
        /// Capacity lost since the previous window.
        lost_capacity: Joules,
    },
    /// A previously fired fault cleared — the device recovered
    /// (detected at control-window granularity from the platform's
    /// fault-clear count).
    FaultClear {
        /// Time of the window at which the recovery was observed.
        time: Seconds,
        /// Capacity restored since the previous window.
        restored_capacity: Joules,
    },
    /// The duty-cycle policy engaged its failover path (degraded duty
    /// and/or a store re-route) after detecting an energy collapse.
    FailoverEngaged {
        /// Time of the window at which the failover was observed.
        time: Seconds,
        /// The duty the policy chose for the degraded window.
        duty: DutyCycle,
    },
    /// A control window closes.
    WindowEnd {
        /// Window end time.
        time: Seconds,
        /// Platform stored energy leaving the window.
        stored: Joules,
        /// Cumulative storage losses leaving the window.
        losses: Joules,
    },
    /// The run is over.
    RunEnd {
        /// Simulation time at the end of the horizon.
        time: Seconds,
    },
}

impl SimEvent {
    /// Short machine-readable event name.
    pub fn kind(&self) -> &'static str {
        match self {
            SimEvent::RunStart { .. } => "run_start",
            SimEvent::WindowStart { .. } => "window_start",
            SimEvent::PolicyChange { .. } => "policy_change",
            SimEvent::Harvest { .. } => "harvest",
            SimEvent::ConversionLoss { .. } => "conversion_loss",
            SimEvent::StoreCharge { .. } => "store_charge",
            SimEvent::StoreDischarge { .. } => "store_discharge",
            SimEvent::Shortfall { .. } => "shortfall",
            SimEvent::FaultFire { .. } => "fault_fire",
            SimEvent::FaultClear { .. } => "fault_clear",
            SimEvent::FailoverEngaged { .. } => "failover_engaged",
            SimEvent::WindowEnd { .. } => "window_end",
            SimEvent::RunEnd { .. } => "run_end",
        }
    }

    /// The event's timestamp.
    pub fn time(&self) -> Seconds {
        match *self {
            SimEvent::RunStart { time }
            | SimEvent::WindowStart { time, .. }
            | SimEvent::PolicyChange { time, .. }
            | SimEvent::Harvest { time, .. }
            | SimEvent::ConversionLoss { time, .. }
            | SimEvent::StoreCharge { time, .. }
            | SimEvent::StoreDischarge { time, .. }
            | SimEvent::Shortfall { time, .. }
            | SimEvent::FaultFire { time, .. }
            | SimEvent::FaultClear { time, .. }
            | SimEvent::FailoverEngaged { time, .. }
            | SimEvent::WindowEnd { time, .. }
            | SimEvent::RunEnd { time } => time,
        }
    }

    /// Up to four numeric payload values, in declaration order (see the
    /// per-variant field docs); used by the CSV sink's `v1..v4` columns.
    pub fn values(&self) -> [Option<f64>; 4] {
        match *self {
            SimEvent::RunStart { .. } | SimEvent::RunEnd { .. } => [None; 4],
            SimEvent::WindowStart {
                duty,
                load,
                stored,
                losses,
                ..
            } => [
                Some(duty.value()),
                Some(load.value()),
                Some(stored.value()),
                Some(losses.value()),
            ],
            SimEvent::PolicyChange { from, to, .. } => {
                [Some(from.value()), Some(to.value()), None, None]
            }
            SimEvent::Harvest { energy, .. }
            | SimEvent::StoreCharge { energy, .. }
            | SimEvent::StoreDischarge { energy, .. }
            | SimEvent::Shortfall { energy, .. } => [Some(energy.value()), None, None, None],
            SimEvent::ConversionLoss {
                converter,
                overhead,
                ..
            } => [Some(converter.value()), Some(overhead.value()), None, None],
            SimEvent::FaultFire { lost_capacity, .. } => {
                [Some(lost_capacity.value()), None, None, None]
            }
            SimEvent::FaultClear {
                restored_capacity, ..
            } => [Some(restored_capacity.value()), None, None, None],
            SimEvent::FailoverEngaged { duty, .. } => [Some(duty.value()), None, None, None],
            SimEvent::WindowEnd { stored, losses, .. } => {
                [Some(stored.value()), Some(losses.value()), None, None]
            }
        }
    }

    /// The events of one step that began at `time`: `Harvest` and
    /// `ConversionLoss`, then `StoreCharge`, `StoreDischarge` and
    /// `Shortfall` when positive.
    pub(crate) fn of_step(time: Seconds, r: &StepReport) -> impl Iterator<Item = SimEvent> {
        let positive = |energy: Joules| energy.value() > 0.0;
        [
            Some(SimEvent::Harvest {
                time,
                energy: r.harvested,
            }),
            Some(SimEvent::ConversionLoss {
                time,
                converter: r.converter_loss,
                overhead: r.overhead,
            }),
            positive(r.charged).then_some(SimEvent::StoreCharge {
                time,
                energy: r.charged,
            }),
            positive(r.discharged).then_some(SimEvent::StoreDischarge {
                time,
                energy: r.discharged,
            }),
            positive(r.shortfall).then_some(SimEvent::Shortfall {
                time,
                energy: r.shortfall,
            }),
        ]
        .into_iter()
        .flatten()
    }

    /// One CSV row (`time_s,event,v1,v2,v3,v4`; unused columns empty).
    pub fn to_csv_row(&self) -> String {
        let vs = self.values();
        let col = |v: Option<f64>| v.map(|x| x.to_string()).unwrap_or_default();
        format!(
            "{},{},{},{},{},{}",
            self.time().value(),
            self.kind(),
            col(vs[0]),
            col(vs[1]),
            col(vs[2]),
            col(vs[3]),
        )
    }

    /// One JSON object (a JSONL line, without the trailing newline).
    /// Non-finite values, which JSON cannot spell, are written as
    /// `null`.
    pub fn to_jsonl(&self) -> String {
        let names: &[&str] = match self {
            SimEvent::WindowStart { .. } => &["duty", "load_w", "stored_j", "losses_j"],
            SimEvent::PolicyChange { .. } => &["from", "to"],
            SimEvent::ConversionLoss { .. } => &["converter_j", "overhead_j"],
            SimEvent::FaultFire { .. } => &["lost_capacity_j"],
            SimEvent::FaultClear { .. } => &["restored_capacity_j"],
            SimEvent::FailoverEngaged { .. } => &["duty"],
            SimEvent::WindowEnd { .. } => &["stored_j", "losses_j"],
            SimEvent::RunStart { .. } | SimEvent::RunEnd { .. } => &[],
            _ => &["energy_j"],
        };
        let mut out = format!(
            "{{\"t\":{},\"event\":\"{}\"",
            self.time().value(),
            self.kind()
        );
        for (name, v) in names.iter().zip(self.values().iter()) {
            if let Some(v) = v {
                out.push_str(&format!(",\"{name}\":{}", json_num(*v)));
            }
        }
        out.push('}');
        out
    }
}

/// The floor applied to a window's energy turnover when normalizing the
/// residual, so near-idle windows (turnover → 0) don't divide floating
/// point dust by itself and report phantom violations.
const MIN_WINDOW_ENERGY: f64 = 1e-9;

/// One closed control window's energy books: each flow summed over the
/// window's steps in step order, the steps whose load went unserved,
/// and the platform's stored energy and cumulative storage losses at
/// both edges.
///
/// An observed run sums every window once into this record and hands it
/// to each observer's [`on_window`](SimObserver::on_window), so the
/// metrics bridge, the conservation auditor and any other consumer of
/// window totals fold the same sums instead of re-adding step events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowBooks {
    /// Window start time.
    pub start: Seconds,
    /// Duty cycle the policy chose for the window.
    pub duty: DutyCycle,
    /// Steps in the window.
    pub steps: u64,
    /// Harvested bus energy.
    pub harvested: Joules,
    /// Output-stage conversion loss.
    pub converter_loss: Joules,
    /// Standing (quiescent/housekeeping) overhead.
    pub overhead: Joules,
    /// Energy accepted by the stores.
    pub charged: Joules,
    /// Energy delivered by the stores.
    pub discharged: Joules,
    /// Unserved load energy.
    pub shortfall: Joules,
    /// Steps whose load was not fully served.
    pub brownout_steps: u64,
    /// Platform stored energy entering the window.
    pub stored_start: Joules,
    /// Cumulative storage losses entering the window.
    pub losses_start: Joules,
    /// Platform stored energy leaving the window.
    pub stored_end: Joules,
    /// Cumulative storage losses leaving the window.
    pub losses_end: Joules,
}

impl WindowBooks {
    /// Books for a window opening at `start` under `duty` on a platform
    /// holding `stored` with `losses` dissipated so far: no steps yet,
    /// and the closing edge equal to the opening one.
    pub(crate) fn open(start: Seconds, duty: DutyCycle, stored: Joules, losses: Joules) -> Self {
        Self {
            start,
            duty,
            steps: 0,
            harvested: Joules::ZERO,
            converter_loss: Joules::ZERO,
            overhead: Joules::ZERO,
            charged: Joules::ZERO,
            discharged: Joules::ZERO,
            shortfall: Joules::ZERO,
            brownout_steps: 0,
            stored_start: stored,
            losses_start: losses,
            stored_end: stored,
            losses_end: losses,
        }
    }

    /// Adds one step's flows.
    #[inline]
    pub(crate) fn record(&mut self, report: &StepReport) {
        self.steps += 1;
        self.harvested += report.harvested;
        self.converter_loss += report.converter_loss;
        self.overhead += report.overhead;
        self.charged += report.charged;
        self.discharged += report.discharged;
        self.shortfall += report.shortfall;
        self.brownout_steps += u64::from(!report.fully_served());
    }

    /// The storage conservation residual in joules,
    /// `charged − discharged − Δlosses − Δstored` (≈ 0 when no model
    /// leaks or mints energy).
    pub fn residual(&self) -> f64 {
        let (d_stored, d_losses) = self.deltas();
        self.charged.value() - self.discharged.value() - d_losses - d_stored
    }

    /// The window's energy turnover in joules, which normalizes
    /// [`residual`](Self::residual): the larger of the sum of every flow
    /// through the window and the storage movement `|Δstored| +
    /// |Δlosses|` (idle self-discharge moves both without any flow, and
    /// its floating-point dust must not be divided by ~nothing), and
    /// never less than 1 nJ.
    pub fn turnover(&self) -> f64 {
        let (d_stored, d_losses) = self.deltas();
        (self.harvested.value()
            + self.charged.value()
            + self.discharged.value()
            + self.converter_loss.value()
            + self.overhead.value())
        .max(d_stored.abs() + d_losses.abs())
        .max(MIN_WINDOW_ENERGY)
    }

    fn deltas(&self) -> (f64, f64) {
        (
            self.stored_end.value() - self.stored_start.value(),
            self.losses_end.value() - self.losses_start.value(),
        )
    }
}

/// An observer of simulation runs.
///
/// A run reports to its observers in two ways:
///
/// - [`on_event`](Self::on_event) receives the edge events in order:
///   run start, each window's start, policy change, fault firings and
///   clears, failover and end, and the run end. An observer whose
///   [`wants_step_events`](Self::wants_step_events) is `true` also
///   receives each step's `Harvest` and `ConversionLoss`, then
///   `StoreCharge`, `StoreDischarge` and `Shortfall` when positive, as
///   the step happens;
/// - [`on_window`](Self::on_window) receives each closed window's
///   [`WindowBooks`], just before its `WindowEnd` event.
#[allow(unused_variables)]
pub trait SimObserver {
    /// Receives one event.
    fn on_event(&mut self, event: &SimEvent) {}

    /// Receives a closed control window's books.
    fn on_window(&mut self, books: &WindowBooks) {}

    /// Whether this observer receives the per-step events too. Checked
    /// once, when the run opens.
    fn wants_step_events(&self) -> bool {
        false
    }
}

/// A fixed-capacity ring buffer of the most recent events — the
/// flight recorder: cheap enough to leave attached, complete enough to
/// reconstruct the recent past after an anomaly.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    buf: Vec<SimEvent>,
    capacity: usize,
    next: usize,
    total: u64,
}

impl RingRecorder {
    /// Creates a recorder keeping the last `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Self {
            buf: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            total: 0,
        }
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> Vec<SimEvent> {
        if self.buf.len() < self.capacity {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.capacity);
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
            out
        }
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events seen over the recorder's lifetime (including
    /// overwritten ones).
    pub fn total_seen(&self) -> u64 {
        self.total
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl SimObserver for RingRecorder {
    fn on_event(&mut self, event: &SimEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(*event);
        } else {
            self.buf[self.next] = *event;
        }
        self.next = (self.next + 1) % self.capacity;
        self.total += 1;
    }

    fn wants_step_events(&self) -> bool {
        true
    }
}

/// Output format for an [`EventSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkFormat {
    /// `time_s,event,v1,v2,v3,v4` rows with a header line.
    Csv,
    /// One JSON object per line.
    Jsonl,
}

/// Streams every event to a [`std::io::Write`] as CSV or JSONL.
///
/// Write errors don't panic mid-simulation; the first one is kept and
/// reported by [`EventSink::error`].
///
/// # Examples
///
/// ```
/// use mseh_sim::{EventSink, SinkFormat, SimEvent, SimObserver};
/// use mseh_units::{Joules, Seconds};
///
/// let mut out = Vec::new();
/// let mut sink = EventSink::new(&mut out, SinkFormat::Jsonl);
/// sink.on_event(&SimEvent::Harvest {
///     time: Seconds::new(60.0),
///     energy: Joules::new(0.25),
/// });
/// drop(sink);
/// assert_eq!(
///     String::from_utf8(out).unwrap(),
///     "{\"t\":60,\"event\":\"harvest\",\"energy_j\":0.25}\n"
/// );
/// ```
#[derive(Debug)]
pub struct EventSink<W: std::io::Write> {
    writer: W,
    format: SinkFormat,
    written: u64,
    error: Option<std::io::Error>,
}

impl<W: std::io::Write> EventSink<W> {
    /// Creates a sink; the CSV variant writes its header immediately.
    pub fn new(mut writer: W, format: SinkFormat) -> Self {
        let mut error = None;
        if format == SinkFormat::Csv {
            error = writeln!(writer, "time_s,event,v1,v2,v3,v4").err();
        }
        Self {
            writer,
            format,
            written: 0,
            error,
        }
    }

    /// Events successfully written (excluding the CSV header).
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The first write error, if any occurred.
    pub fn error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }

    /// Flushes the underlying writer, recording the first error.
    pub fn flush(&mut self) {
        if let Err(e) = self.writer.flush() {
            self.error.get_or_insert(e);
        }
    }
}

impl<W: std::io::Write> SimObserver for EventSink<W> {
    fn on_event(&mut self, event: &SimEvent) {
        if self.error.is_some() {
            return;
        }
        let line = match self.format {
            SinkFormat::Csv => event.to_csv_row(),
            SinkFormat::Jsonl => event.to_jsonl(),
        };
        match writeln!(self.writer, "{line}") {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }

    fn wants_step_events(&self) -> bool {
        true
    }
}

impl<W: std::io::Write> Drop for EventSink<W> {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Bridges a run into a [`MetricsRegistry`]: cumulative energy counters
/// per flow (`sim_harvested_joules_total`, charge, discharge, conversion
/// loss, overhead, shortfall), step/window/brown-out counters from each
/// window's [`WindowBooks`], policy-change, fault and failover counters
/// from the edge events, duty and stored-energy gauges, and a per-window
/// harvest histogram.
///
/// Every series is interned into a pre-resolved handle at construction,
/// so each update is one O(1) slot write — no name hashing, no label
/// allocation, no map walk. The series therefore exist (at zero) from
/// the moment the observer is built.
#[derive(Debug, Clone)]
pub struct MetricsObserver {
    registry: MetricsRegistry,
    windows: CounterHandle,
    duty: GaugeHandle,
    stored: GaugeHandle,
    policy_changes: CounterHandle,
    steps: CounterHandle,
    harvested: CounterHandle,
    conversion_loss: CounterHandle,
    overhead: CounterHandle,
    charged: CounterHandle,
    discharged: CounterHandle,
    shortfall: CounterHandle,
    brownout_steps: CounterHandle,
    faults: CounterHandle,
    lost_capacity: CounterHandle,
    fault_clears: CounterHandle,
    restored_capacity: CounterHandle,
    failovers: CounterHandle,
    window_harvest_hist: HistogramHandle,
}

impl MetricsObserver {
    /// Creates the observer, interning every series it will write.
    pub fn new() -> Self {
        let mut registry = MetricsRegistry::new();
        Self {
            windows: registry.handle_counter("sim_windows_total", &[]),
            duty: registry.handle_gauge("sim_duty_cycle", &[]),
            stored: registry.handle_gauge("sim_stored_joules", &[]),
            policy_changes: registry.handle_counter("sim_policy_changes_total", &[]),
            steps: registry.handle_counter("sim_steps_total", &[]),
            harvested: registry.handle_counter("sim_harvested_joules_total", &[]),
            conversion_loss: registry.handle_counter("sim_conversion_loss_joules_total", &[]),
            overhead: registry.handle_counter("sim_overhead_joules_total", &[]),
            charged: registry.handle_counter("sim_charged_joules_total", &[]),
            discharged: registry.handle_counter("sim_discharged_joules_total", &[]),
            shortfall: registry.handle_counter("sim_shortfall_joules_total", &[]),
            brownout_steps: registry.handle_counter("sim_brownout_steps_total", &[]),
            faults: registry.handle_counter("sim_faults_total", &[]),
            lost_capacity: registry.handle_counter("sim_lost_capacity_joules_total", &[]),
            fault_clears: registry.handle_counter("sim_fault_clears_total", &[]),
            restored_capacity: registry.handle_counter("sim_restored_capacity_joules_total", &[]),
            failovers: registry.handle_counter("sim_failovers_total", &[]),
            window_harvest_hist: registry.handle_histogram("sim_window_harvest_joules", &[]),
            registry,
        }
    }

    /// Reads the registry accumulated so far.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }
}

impl Default for MetricsObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl SimObserver for MetricsObserver {
    fn on_event(&mut self, event: &SimEvent) {
        let r = &mut self.registry;
        match *event {
            SimEvent::PolicyChange { .. } => r.counter_add_handle(self.policy_changes, 1.0),
            SimEvent::FaultFire { lost_capacity, .. } => {
                r.counter_add_handle(self.faults, 1.0);
                r.counter_add_handle(self.lost_capacity, lost_capacity.value());
            }
            SimEvent::FaultClear {
                restored_capacity, ..
            } => {
                r.counter_add_handle(self.fault_clears, 1.0);
                r.counter_add_handle(self.restored_capacity, restored_capacity.value());
            }
            SimEvent::FailoverEngaged { .. } => r.counter_add_handle(self.failovers, 1.0),
            _ => {}
        }
    }

    fn on_window(&mut self, w: &WindowBooks) {
        let r = &mut self.registry;
        r.counter_add_handle(self.windows, 1.0);
        r.gauge_set_handle(self.duty, w.duty.value());
        r.gauge_set_handle(self.stored, w.stored_end.value());
        r.counter_add_handle(self.steps, w.steps as f64);
        r.counter_add_handle(self.harvested, w.harvested.value());
        r.counter_add_handle(self.conversion_loss, w.converter_loss.value());
        r.counter_add_handle(self.overhead, w.overhead.value());
        r.counter_add_handle(self.charged, w.charged.value());
        r.counter_add_handle(self.discharged, w.discharged.value());
        r.counter_add_handle(self.shortfall, w.shortfall.value());
        r.counter_add_handle(self.brownout_steps, w.brownout_steps as f64);
        r.histogram_observe_handle(self.window_harvest_hist, w.harvested.value());
    }
}

/// Summary of a [`ConservationAuditor`] pass.
///
/// A NaN `worst_relative` means some window's books could not be closed
/// at all; [`conserved_within`](Self::conserved_within) is then false
/// for every tolerance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditReport {
    /// Control windows audited.
    pub windows: u64,
    /// Largest absolute per-window residual, in joules.
    pub worst_residual: Joules,
    /// That residual as a fraction of its window's energy turnover.
    pub worst_relative: f64,
    /// Start time of the worst window.
    pub worst_at: Seconds,
}

impl AuditReport {
    /// Whether every audited window closed within `tolerance`
    /// (relative to window energy).
    pub fn conserved_within(&self, tolerance: f64) -> bool {
        self.worst_relative <= tolerance
    }
}

impl core::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "audited {} windows; worst residual {:.3e} J ({:.3e} of window energy) at t = {}",
            self.windows,
            self.worst_residual.value(),
            self.worst_relative,
            self.worst_at,
        )
    }
}

/// An observer that cross-checks the storage conservation identity
/// every control window, from its [`WindowBooks`]:
///
/// ```text
/// charged − discharged − Δlosses − Δstored ≈ 0
/// ```
///
/// which — since every harvested joule either charges a store, serves
/// the load/overheads, spills, or dies in a converter — is the
/// windowed form of *harvested − losses − consumed − Δstored ≈ 0* with
/// the unobservable bus terms cancelled out. The worst residual,
/// normalized by the window's [`turnover`](WindowBooks::turnover), is
/// tracked with its timestamp; anything above ~1e-6 means a model is
/// leaking or minting energy. A window whose residual is NaN is the
/// worst there can be: the first one sticks, and the audit fails.
#[derive(Debug, Clone, Default)]
pub struct ConservationAuditor {
    windows: u64,
    worst_residual: f64,
    worst_relative: f64,
    worst_at: f64,
}

impl ConservationAuditor {
    /// Creates an auditor with no windows seen.
    pub fn new() -> Self {
        Self::default()
    }

    /// The audit summary so far.
    pub fn report(&self) -> AuditReport {
        AuditReport {
            windows: self.windows,
            worst_residual: Joules::new(self.worst_residual),
            worst_relative: self.worst_relative,
            worst_at: Seconds::new(self.worst_at),
        }
    }
}

impl SimObserver for ConservationAuditor {
    fn on_window(&mut self, books: &WindowBooks) {
        let residual = books.residual().abs();
        let relative = residual / books.turnover();
        self.windows += 1;
        if worse(self.worst_relative, relative) {
            self.worst_relative = relative;
            self.worst_residual = residual;
            self.worst_at = books.start.value();
        }
    }
}

/// Whether `candidate` is a worse relative residual than `worst`: larger,
/// or NaN where `worst` is not. A NaN worst stays worst.
fn worse(worst: f64, candidate: f64) -> bool {
    !worst.is_nan() && (candidate.is_nan() || candidate > worst)
}

/// The worst relative residual across `audits` (`0` for none), NaN when
/// any audit is NaN.
pub(crate) fn worst_relative<'a>(audits: impl IntoIterator<Item = &'a AuditReport>) -> f64 {
    audits
        .into_iter()
        .map(|a| a.worst_relative)
        .fold(0.0, |worst, r| if worse(worst, r) { r } else { worst })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_units::Volts;

    fn harvest_at(t: f64, e: f64) -> SimEvent {
        SimEvent::Harvest {
            time: Seconds::new(t),
            energy: Joules::new(e),
        }
    }

    #[test]
    fn ring_recorder_keeps_the_newest() {
        let mut ring = RingRecorder::new(3);
        assert!(ring.is_empty());
        for i in 0..5 {
            ring.on_event(&harvest_at(i as f64, i as f64));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total_seen(), 5);
        assert_eq!(ring.capacity(), 3);
        let times: Vec<f64> = ring.events().iter().map(|e| e.time().value()).collect();
        assert_eq!(times, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "ring capacity")]
    fn ring_rejects_zero_capacity() {
        RingRecorder::new(0);
    }

    #[test]
    fn csv_sink_writes_header_and_rows() {
        let mut out = Vec::new();
        let mut sink = EventSink::new(&mut out, SinkFormat::Csv);
        sink.on_event(&harvest_at(60.0, 0.5));
        sink.on_event(&SimEvent::PolicyChange {
            time: Seconds::new(600.0),
            from: DutyCycle::saturating(0.1),
            to: DutyCycle::saturating(0.2),
        });
        assert_eq!(sink.written(), 2);
        assert!(sink.error().is_none());
        drop(sink);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "time_s,event,v1,v2,v3,v4");
        assert_eq!(lines[1], "60,harvest,0.5,,,");
        assert_eq!(lines[2], "600,policy_change,0.1,0.2,,");
    }

    #[test]
    fn jsonl_sink_round_trips_fields() {
        let mut out = Vec::new();
        let mut sink = EventSink::new(&mut out, SinkFormat::Jsonl);
        sink.on_event(&SimEvent::WindowEnd {
            time: Seconds::new(600.0),
            stored: Joules::new(12.5),
            losses: Joules::new(0.25),
        });
        drop(sink);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text.trim(),
            "{\"t\":600,\"event\":\"window_end\",\"stored_j\":12.5,\"losses_j\":0.25}"
        );
    }

    /// A window opening at `start` on `stored` joules with no losses,
    /// closing at `stored_end` after `charged` joules in.
    fn window(start: f64, stored: f64, charged: f64, stored_end: f64) -> WindowBooks {
        WindowBooks {
            harvested: Joules::new(charged),
            charged: Joules::new(charged),
            steps: 1,
            stored_end: Joules::new(stored_end),
            ..WindowBooks::open(
                Seconds::new(start),
                DutyCycle::saturating(0.1),
                Joules::new(stored),
                Joules::ZERO,
            )
        }
    }

    fn report(harvested: f64, charged: f64, shortfall: f64) -> StepReport {
        StepReport {
            harvested: Joules::new(harvested),
            delivered: Joules::ZERO,
            shortfall: Joules::new(shortfall),
            overhead: Joules::ZERO,
            charged: Joules::new(charged),
            discharged: Joules::ZERO,
            spilled: Joules::ZERO,
            converter_loss: Joules::ZERO,
            store_voltage: Volts::new(2.5),
        }
    }

    #[test]
    fn metrics_observer_accumulates_flows() {
        let mut books = WindowBooks::open(
            Seconds::ZERO,
            DutyCycle::saturating(0.1),
            Joules::new(10.0),
            Joules::ZERO,
        );
        books.record(&report(0.5, 0.3, 0.0));
        books.record(&report(0.25, 0.0, 0.125));
        books.stored_end = Joules::new(10.3);
        let mut m = MetricsObserver::new();
        m.on_event(&SimEvent::PolicyChange {
            time: Seconds::ZERO,
            from: DutyCycle::ZERO,
            to: DutyCycle::saturating(0.1),
        });
        m.on_window(&books);
        let r = m.registry();
        assert_eq!(r.counter("sim_windows_total", &[]), Some(1.0));
        assert_eq!(r.counter("sim_policy_changes_total", &[]), Some(1.0));
        assert_eq!(r.counter("sim_steps_total", &[]), Some(2.0));
        assert_eq!(r.counter("sim_harvested_joules_total", &[]), Some(0.75));
        assert_eq!(r.counter("sim_charged_joules_total", &[]), Some(0.3));
        assert_eq!(r.counter("sim_shortfall_joules_total", &[]), Some(0.125));
        assert_eq!(r.counter("sim_brownout_steps_total", &[]), Some(1.0));
        assert_eq!(r.gauge("sim_duty_cycle", &[]), Some(0.1));
        assert_eq!(r.gauge("sim_stored_joules", &[]), Some(10.3));
        let h = r.histogram("sim_window_harvest_joules", &[]).unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 0.75);
    }

    #[test]
    fn auditor_flags_a_leaky_window() {
        let mut a = ConservationAuditor::new();
        // Window 1: books balance (charged 1 J, stored rose 1 J).
        a.on_window(&window(0.0, 5.0, 1.0, 6.0));
        assert!(a.report().conserved_within(1e-9));

        // Window 2: claims 1 J charged but stored only rose 0.5 J and no
        // losses explain the gap — half a joule vanished.
        a.on_window(&window(600.0, 6.0, 1.0, 6.5));
        let report = a.report();
        assert_eq!(report.windows, 2);
        assert!(!report.conserved_within(1e-6), "{report}");
        assert!((report.worst_residual.value() - 0.5).abs() < 1e-12);
        assert_eq!(report.worst_at, Seconds::new(600.0));
        assert!(report.to_string().contains("2 windows"));
    }

    #[test]
    fn auditor_fails_on_a_nan_window_and_keeps_it() {
        let mut a = ConservationAuditor::new();
        a.on_window(&window(0.0, 5.0, 1.0, 6.0));
        // Stored energy that closes as NaN cannot balance.
        a.on_window(&window(600.0, 6.0, 1.0, f64::NAN));
        // A later leak, however large, does not displace it.
        a.on_window(&window(1200.0, 6.0, 1.0, 2.0));
        let report = a.report();
        assert_eq!(report.windows, 3);
        assert!(report.worst_relative.is_nan(), "{report}");
        assert_eq!(report.worst_at, Seconds::new(600.0));
        assert!(!report.conserved_within(1e-6));
        assert!(!report.conserved_within(f64::INFINITY));

        let clean = ConservationAuditor::new().report();
        assert!(worst_relative([&clean, &report, &clean]).is_nan());
        assert_eq!(worst_relative([&clean]), 0.0);
    }

    #[test]
    fn jsonl_writes_non_finite_values_as_null() {
        let line = SimEvent::WindowEnd {
            time: Seconds::new(600.0),
            stored: Joules::new(f64::NAN),
            losses: Joules::new(f64::INFINITY),
        }
        .to_jsonl();
        assert_eq!(
            line,
            "{\"t\":600,\"event\":\"window_end\",\"stored_j\":null,\"losses_j\":null}"
        );
    }

    #[test]
    fn auditor_survives_idle_leakage() {
        // Self-discharge: stored falls, losses rise equally — conserved.
        let mut a = ConservationAuditor::new();
        a.on_window(&WindowBooks {
            stored_end: Joules::new(4.8),
            losses_end: Joules::new(0.3),
            ..WindowBooks::open(
                Seconds::ZERO,
                DutyCycle::ZERO,
                Joules::new(5.0),
                Joules::new(0.1),
            )
        });
        let report = a.report();
        assert_eq!(report.windows, 1);
        assert!(report.conserved_within(1e-12), "{report}");
    }
}
