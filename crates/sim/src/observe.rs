//! Structured step-event tracing for the simulation kernel: the
//! [`SimObserver`] trait, ready-made recorders (ring buffer, CSV/JSONL
//! sink, metrics bridge) and the energy-conservation auditor.
//!
//! The kernel ([`crate::run_simulation_observed`]) emits a [`SimEvent`]
//! stream — run/window boundaries, per-step harvest, conversion loss,
//! store charge/discharge, policy changes, fault firings — to every
//! attached observer. When no observer is attached the kernel skips
//! event construction entirely, so the bare hot loop pays only a branch
//! (measured, not assumed: `cargo run -p mseh-bench --bin perf` reports
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

use crate::metrics::{CounterHandle, GaugeHandle, HistogramHandle, MetricsRegistry};
use mseh_units::{DutyCycle, Joules, Seconds, Watts};

/// One structured event from a simulation run.
///
/// Energy events carry per-step energies; window events carry the
/// platform's storage inventory at the boundary, which is what lets the
/// [`ConservationAuditor`] close the books window by window.
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
                out.push_str(&format!(",\"{name}\":{v}"));
            }
        }
        out.push('}');
        out
    }
}

/// An observer of simulation events.
///
/// Implement [`on_event`](SimObserver::on_event) for generic recorders
/// (ring buffers, sinks), or override the fine-grained hooks — the
/// default `on_event` dispatches to them — for semantic consumers like
/// the [`ConservationAuditor`].
#[allow(unused_variables)]
pub trait SimObserver {
    /// The run begins.
    fn on_run_start(&mut self, time: Seconds) {}
    /// A control window opens with the policy's choice for it.
    fn on_window_start(
        &mut self,
        time: Seconds,
        duty: DutyCycle,
        load: Watts,
        stored: Joules,
        losses: Joules,
    ) {
    }
    /// The policy's duty choice changed between windows.
    fn on_policy_change(&mut self, time: Seconds, from: DutyCycle, to: DutyCycle) {}
    /// Bus energy harvested this step.
    fn on_harvest(&mut self, time: Seconds, energy: Joules) {}
    /// Conversion + housekeeping losses this step.
    fn on_conversion_loss(&mut self, time: Seconds, converter: Joules, overhead: Joules) {}
    /// Bus energy into stores this step.
    fn on_store_charge(&mut self, time: Seconds, energy: Joules) {}
    /// Bus energy out of stores this step.
    fn on_store_discharge(&mut self, time: Seconds, energy: Joules) {}
    /// Unserved load energy this step.
    fn on_shortfall(&mut self, time: Seconds, energy: Joules) {}
    /// Storage capacity dropped — a device failed or degraded.
    fn on_fault_fire(&mut self, time: Seconds, lost_capacity: Joules) {}
    /// A fired fault cleared — the device recovered.
    fn on_fault_clear(&mut self, time: Seconds, restored_capacity: Joules) {}
    /// The policy engaged its failover path.
    fn on_failover_engaged(&mut self, time: Seconds, duty: DutyCycle) {}
    /// A control window closes.
    fn on_window_end(&mut self, time: Seconds, stored: Joules, losses: Joules) {}
    /// The run is over.
    fn on_run_end(&mut self, time: Seconds) {}

    /// Receives every event; the default implementation dispatches to
    /// the fine-grained hooks above.
    fn on_event(&mut self, event: &SimEvent) {
        match *event {
            SimEvent::RunStart { time } => self.on_run_start(time),
            SimEvent::WindowStart {
                time,
                duty,
                load,
                stored,
                losses,
            } => self.on_window_start(time, duty, load, stored, losses),
            SimEvent::PolicyChange { time, from, to } => self.on_policy_change(time, from, to),
            SimEvent::Harvest { time, energy } => self.on_harvest(time, energy),
            SimEvent::ConversionLoss {
                time,
                converter,
                overhead,
            } => self.on_conversion_loss(time, converter, overhead),
            SimEvent::StoreCharge { time, energy } => self.on_store_charge(time, energy),
            SimEvent::StoreDischarge { time, energy } => self.on_store_discharge(time, energy),
            SimEvent::Shortfall { time, energy } => self.on_shortfall(time, energy),
            SimEvent::FaultFire {
                time,
                lost_capacity,
            } => self.on_fault_fire(time, lost_capacity),
            SimEvent::FaultClear {
                time,
                restored_capacity,
            } => self.on_fault_clear(time, restored_capacity),
            SimEvent::FailoverEngaged { time, duty } => self.on_failover_engaged(time, duty),
            SimEvent::WindowEnd {
                time,
                stored,
                losses,
            } => self.on_window_end(time, stored, losses),
            SimEvent::RunEnd { time } => self.on_run_end(time),
        }
    }

    /// Receives a control window's worth of per-step records.
    ///
    /// The runner buffers one compact [`StepEnergies`] record per step
    /// and delivers the window's records through a single call, so an
    /// observer behind a `dyn` pointer pays one dynamic dispatch per
    /// window instead of several per step. The default body derives
    /// from each record exactly the events the runner would have
    /// emitted one at a time — `Harvest` and `ConversionLoss` always,
    /// `StoreCharge`/`StoreDischarge`/`Shortfall` when positive, in
    /// that order — and feeds them to [`on_event`](Self::on_event),
    /// statically dispatched inside the implementor's instantiation (so
    /// the construction optimizes away against the body). Overriding
    /// observers must preserve that per-event equivalence.
    #[inline]
    fn on_step_records(&mut self, records: &[StepEnergies]) {
        for r in records {
            self.on_event(&SimEvent::Harvest {
                time: r.time,
                energy: r.harvested,
            });
            self.on_event(&SimEvent::ConversionLoss {
                time: r.time,
                converter: r.converter_loss,
                overhead: r.overhead,
            });
            if r.charged.value() > 0.0 {
                self.on_event(&SimEvent::StoreCharge {
                    time: r.time,
                    energy: r.charged,
                });
            }
            if r.discharged.value() > 0.0 {
                self.on_event(&SimEvent::StoreDischarge {
                    time: r.time,
                    energy: r.discharged,
                });
            }
            if r.shortfall.value() > 0.0 {
                self.on_event(&SimEvent::Shortfall {
                    time: r.time,
                    energy: r.shortfall,
                });
            }
        }
    }
}

/// One simulation step's energy flows, as buffered by the runner for
/// batched observer delivery (see
/// [`SimObserver::on_step_records`]): the step's events are derived
/// from this record, not stored individually.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepEnergies {
    /// Step start time.
    pub time: Seconds,
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
}

/// Fans each event out to two observers through a single dynamic
/// dispatch.
///
/// The runner calls `on_event` once per observer per event through a
/// vtable; attaching several observers multiplies that cost. `Tandem`
/// folds a pair into one slot: the runner makes one virtual call and
/// the two inner `on_event` bodies are statically dispatched (and
/// inlinable) from it. Event order and content are exactly as if both
/// observers were attached separately, so results are unchanged — this
/// is purely a hot-loop optimisation. Nest tandems for three or more.
///
/// # Examples
///
/// ```
/// use mseh_sim::{ConservationAuditor, MetricsObserver, Tandem};
///
/// let mut meter = MetricsObserver::new();
/// let mut auditor = ConservationAuditor::new();
/// let mut both = Tandem(&mut meter, &mut auditor);
/// # let _ = &mut both;
/// // run_simulation_observed(..., &mut [&mut both])
/// ```
pub struct Tandem<'a, A: SimObserver, B: SimObserver>(pub &'a mut A, pub &'a mut B);

impl<A: SimObserver, B: SimObserver> SimObserver for Tandem<'_, A, B> {
    #[inline]
    fn on_event(&mut self, event: &SimEvent) {
        self.0.on_event(event);
        self.1.on_event(event);
    }

    // Forward the whole batch to each half in turn (two small loops)
    // rather than interleaving per record (one fused body): each
    // observer still sees the window's records in order, which is all
    // the batch contract promises.
    #[inline]
    fn on_step_records(&mut self, records: &[StepEnergies]) {
        self.0.on_step_records(records);
        self.1.on_step_records(records);
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
}

impl<W: std::io::Write> Drop for EventSink<W> {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Bridges the event stream into a [`MetricsRegistry`]: cumulative
/// energy counters per flow (`sim_harvested_joules_total`, charge,
/// discharge, conversion loss, overhead, shortfall), step/window/fault
/// counters, duty and stored-energy gauges, and a per-window harvest
/// histogram.
///
/// Every series is interned into a pre-resolved handle at construction,
/// so the per-event cost is one O(1) slot update — no name hashing, no
/// label allocation, no map walk on the hot path. The series therefore
/// exist (at zero) from the moment the observer is built.
#[derive(Debug, Clone)]
pub struct MetricsObserver {
    registry: MetricsRegistry,
    window_harvest: f64,
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
            window_harvest: 0.0,
        }
    }

    /// Reads the registry accumulated so far.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Consumes the observer, returning its registry.
    pub fn into_registry(self) -> MetricsRegistry {
        self.registry
    }

    /// Folds a batch's worth of step-event sums into the registry.
    fn flush_steps(&mut self, acc: StepAccumulator) {
        if acc.steps == 0.0 {
            return;
        }
        self.registry.counter_add_handle(self.steps, acc.steps);
        self.registry
            .counter_add_handle(self.harvested, acc.harvested);
        self.window_harvest += acc.harvested;
        self.registry
            .counter_add_handle(self.conversion_loss, acc.converter);
        self.registry
            .counter_add_handle(self.overhead, acc.overhead);
        self.registry.counter_add_handle(self.charged, acc.charged);
        self.registry
            .counter_add_handle(self.discharged, acc.discharged);
        self.registry
            .counter_add_handle(self.shortfall, acc.shortfall);
        self.registry
            .counter_add_handle(self.brownout_steps, acc.brownouts);
    }
}

/// Local sums of one batch's step events, flushed to the registry in a
/// single round of handle updates.
#[derive(Default)]
struct StepAccumulator {
    steps: f64,
    harvested: f64,
    converter: f64,
    overhead: f64,
    charged: f64,
    discharged: f64,
    shortfall: f64,
    brownouts: f64,
}

impl Default for MetricsObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl SimObserver for MetricsObserver {
    // One direct match instead of the default hook dispatch: the per-step
    // events (harvest, conversion loss, charge/discharge) dominate, and
    // each lands on a handle update. Inline so a statically-dispatched
    // wrapper (e.g. `Tandem`) absorbs the whole body.
    #[inline]
    fn on_event(&mut self, event: &SimEvent) {
        match *event {
            SimEvent::Harvest { energy, .. } => {
                self.registry.counter_add_handle(self.steps, 1.0);
                self.registry
                    .counter_add_handle(self.harvested, energy.value());
                self.window_harvest += energy.value();
            }
            SimEvent::ConversionLoss {
                converter,
                overhead,
                ..
            } => {
                self.registry
                    .counter_add_handle(self.conversion_loss, converter.value());
                self.registry
                    .counter_add_handle(self.overhead, overhead.value());
            }
            SimEvent::StoreCharge { energy, .. } => {
                self.registry
                    .counter_add_handle(self.charged, energy.value());
            }
            SimEvent::StoreDischarge { energy, .. } => {
                self.registry
                    .counter_add_handle(self.discharged, energy.value());
            }
            SimEvent::Shortfall { energy, .. } => {
                self.registry
                    .counter_add_handle(self.shortfall, energy.value());
                self.registry.counter_add_handle(self.brownout_steps, 1.0);
            }
            SimEvent::WindowStart { duty, stored, .. } => {
                self.registry.counter_add_handle(self.windows, 1.0);
                self.registry.gauge_set_handle(self.duty, duty.value());
                self.registry.gauge_set_handle(self.stored, stored.value());
                self.window_harvest = 0.0;
            }
            SimEvent::WindowEnd { stored, .. } => {
                self.registry.gauge_set_handle(self.stored, stored.value());
                self.registry
                    .histogram_observe_handle(self.window_harvest_hist, self.window_harvest);
            }
            SimEvent::PolicyChange { .. } => {
                self.registry.counter_add_handle(self.policy_changes, 1.0);
            }
            SimEvent::FaultFire { lost_capacity, .. } => {
                self.registry.counter_add_handle(self.faults, 1.0);
                self.registry
                    .counter_add_handle(self.lost_capacity, lost_capacity.value());
            }
            SimEvent::FaultClear {
                restored_capacity, ..
            } => {
                self.registry.counter_add_handle(self.fault_clears, 1.0);
                self.registry
                    .counter_add_handle(self.restored_capacity, restored_capacity.value());
            }
            SimEvent::FailoverEngaged { .. } => {
                self.registry.counter_add_handle(self.failovers, 1.0);
            }
            SimEvent::RunStart { .. } | SimEvent::RunEnd { .. } => {}
        }
    }

    // Sum the window's records in locals and land them with one round
    // of handle updates. Counter totals match per-event updates up to
    // floating-point association (count-valued counters exactly).
    // Charge/discharge are summed unconditionally: the runner's events
    // gate on `> 0`, and adding a zero leaves the same sum.
    #[inline]
    fn on_step_records(&mut self, records: &[StepEnergies]) {
        let mut acc = StepAccumulator::default();
        for r in records {
            acc.steps += 1.0;
            acc.harvested += r.harvested.value();
            acc.converter += r.converter_loss.value();
            acc.overhead += r.overhead.value();
            acc.charged += r.charged.value();
            acc.discharged += r.discharged.value();
            if r.shortfall.value() > 0.0 {
                acc.shortfall += r.shortfall.value();
                acc.brownouts += 1.0;
            }
        }
        self.flush_steps(acc);
    }
}

/// The floor applied to a window's energy turnover when normalizing the
/// residual, so near-idle windows (turnover → 0) don't divide floating
/// point dust by itself and report phantom violations.
const MIN_WINDOW_ENERGY: f64 = 1e-9;

/// Summary of a [`ConservationAuditor`] pass.
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
/// every control window:
///
/// ```text
/// charged − discharged − Δlosses − Δstored ≈ 0
/// ```
///
/// which — since every harvested joule either charges a store, serves
/// the load/overheads, spills, or dies in a converter — is the
/// windowed form of *harvested − losses − consumed − Δstored ≈ 0* with
/// the unobservable bus terms cancelled out. The worst residual,
/// normalized by the window's energy turnover, is tracked with its
/// timestamp; anything above ~1e-6 means a model is leaking or minting
/// energy.
#[derive(Debug, Clone, Default)]
pub struct ConservationAuditor {
    start_stored: f64,
    start_losses: f64,
    window_start: f64,
    win_charged: f64,
    win_discharged: f64,
    win_harvested: f64,
    win_converter: f64,
    win_overhead: f64,
    in_window: bool,
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
    fn on_window_start(
        &mut self,
        time: Seconds,
        _duty: DutyCycle,
        _load: Watts,
        stored: Joules,
        losses: Joules,
    ) {
        self.start_stored = stored.value();
        self.start_losses = losses.value();
        self.window_start = time.value();
        self.win_charged = 0.0;
        self.win_discharged = 0.0;
        self.win_harvested = 0.0;
        self.win_converter = 0.0;
        self.win_overhead = 0.0;
        self.in_window = true;
    }

    fn on_harvest(&mut self, _time: Seconds, energy: Joules) {
        self.win_harvested += energy.value();
    }

    fn on_conversion_loss(&mut self, _time: Seconds, converter: Joules, overhead: Joules) {
        self.win_converter += converter.value();
        self.win_overhead += overhead.value();
    }

    fn on_store_charge(&mut self, _time: Seconds, energy: Joules) {
        self.win_charged += energy.value();
    }

    fn on_store_discharge(&mut self, _time: Seconds, energy: Joules) {
        self.win_discharged += energy.value();
    }

    // Branchless window sums: the per-event path gates charge/discharge
    // on `> 0`, and adding the zeroes those gates skip leaves the same
    // sums.
    #[inline]
    fn on_step_records(&mut self, records: &[StepEnergies]) {
        let mut harvested = 0.0;
        let mut converter = 0.0;
        let mut overhead = 0.0;
        let mut charged = 0.0;
        let mut discharged = 0.0;
        for r in records {
            harvested += r.harvested.value();
            converter += r.converter_loss.value();
            overhead += r.overhead.value();
            charged += r.charged.value();
            discharged += r.discharged.value();
        }
        self.win_harvested += harvested;
        self.win_converter += converter;
        self.win_overhead += overhead;
        self.win_charged += charged;
        self.win_discharged += discharged;
    }

    fn on_window_end(&mut self, _time: Seconds, stored: Joules, losses: Joules) {
        if !self.in_window {
            return;
        }
        self.in_window = false;
        let d_stored = stored.value() - self.start_stored;
        let d_losses = losses.value() - self.start_losses;
        let residual = self.win_charged - self.win_discharged - d_losses - d_stored;
        // Normalize by the window's energy turnover; idle self-discharge
        // moves Δstored/Δlosses without any charge/discharge flow, so
        // those deltas count as turnover too (otherwise their fp dust
        // would be divided by ~nothing and read as a violation).
        let window_energy = (self.win_harvested
            + self.win_charged
            + self.win_discharged
            + self.win_converter
            + self.win_overhead)
            .max(d_stored.abs() + d_losses.abs())
            .max(MIN_WINDOW_ENERGY);
        let relative = residual.abs() / window_energy;
        self.windows += 1;
        if relative > self.worst_relative {
            self.worst_relative = relative;
            self.worst_residual = residual.abs();
            self.worst_at = self.window_start;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn metrics_observer_accumulates_flows() {
        let mut m = MetricsObserver::new();
        m.on_event(&SimEvent::WindowStart {
            time: Seconds::ZERO,
            duty: DutyCycle::saturating(0.1),
            load: Watts::from_milli(1.0),
            stored: Joules::new(10.0),
            losses: Joules::ZERO,
        });
        m.on_event(&harvest_at(0.0, 0.5));
        m.on_event(&harvest_at(60.0, 0.25));
        m.on_event(&SimEvent::StoreCharge {
            time: Seconds::ZERO,
            energy: Joules::new(0.3),
        });
        m.on_event(&SimEvent::WindowEnd {
            time: Seconds::new(120.0),
            stored: Joules::new(10.3),
            losses: Joules::ZERO,
        });
        let r = m.registry();
        assert_eq!(r.counter("sim_steps_total", &[]), Some(2.0));
        assert_eq!(r.counter("sim_harvested_joules_total", &[]), Some(0.75));
        assert_eq!(r.counter("sim_charged_joules_total", &[]), Some(0.3));
        assert_eq!(r.gauge("sim_stored_joules", &[]), Some(10.3));
        let h = r.histogram("sim_window_harvest_joules", &[]).unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 0.75);
    }

    #[test]
    fn auditor_flags_a_leaky_window() {
        let mut a = ConservationAuditor::new();
        // Window 1: books balance (charged 1 J, stored rose 1 J).
        a.on_event(&SimEvent::WindowStart {
            time: Seconds::ZERO,
            duty: DutyCycle::saturating(0.1),
            load: Watts::ZERO,
            stored: Joules::new(5.0),
            losses: Joules::ZERO,
        });
        a.on_event(&harvest_at(0.0, 1.0));
        a.on_event(&SimEvent::StoreCharge {
            time: Seconds::ZERO,
            energy: Joules::new(1.0),
        });
        a.on_event(&SimEvent::WindowEnd {
            time: Seconds::new(600.0),
            stored: Joules::new(6.0),
            losses: Joules::ZERO,
        });
        assert!(a.report().conserved_within(1e-9));

        // Window 2: claims 1 J charged but stored only rose 0.5 J and no
        // losses explain the gap — half a joule vanished.
        a.on_event(&SimEvent::WindowStart {
            time: Seconds::new(600.0),
            duty: DutyCycle::saturating(0.1),
            load: Watts::ZERO,
            stored: Joules::new(6.0),
            losses: Joules::ZERO,
        });
        a.on_event(&harvest_at(600.0, 1.0));
        a.on_event(&SimEvent::StoreCharge {
            time: Seconds::new(600.0),
            energy: Joules::new(1.0),
        });
        a.on_event(&SimEvent::WindowEnd {
            time: Seconds::new(1200.0),
            stored: Joules::new(6.5),
            losses: Joules::ZERO,
        });
        let report = a.report();
        assert_eq!(report.windows, 2);
        assert!(!report.conserved_within(1e-6), "{report}");
        assert!((report.worst_residual.value() - 0.5).abs() < 1e-12);
        assert_eq!(report.worst_at, Seconds::new(600.0));
        assert!(report.to_string().contains("2 windows"));
    }

    #[test]
    fn auditor_survives_idle_leakage() {
        // Self-discharge: stored falls, losses rise equally — conserved.
        let mut a = ConservationAuditor::new();
        a.on_event(&SimEvent::WindowStart {
            time: Seconds::ZERO,
            duty: DutyCycle::ZERO,
            load: Watts::ZERO,
            stored: Joules::new(5.0),
            losses: Joules::new(0.1),
        });
        a.on_event(&SimEvent::WindowEnd {
            time: Seconds::new(600.0),
            stored: Joules::new(4.8),
            losses: Joules::new(0.3),
        });
        assert!(a.report().conserved_within(1e-12));
    }
}
