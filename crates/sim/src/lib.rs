//! Discrete-time simulation kernel for multi-source harvesting platforms.
//!
//! The kernel drives a [`Platform`] (a [`mseh_core::PowerUnit`], the
//! smart harvester included) against a seeded
//! [`mseh_env::Environment`], with a [`mseh_node::SensorNode`] as the
//! load and a [`mseh_node::DutyCyclePolicy`] closing the energy-awareness
//! loop. Power flow is solved quasi-statically per step (the standard
//! approach for long-horizon energy-harvesting simulation), and the run's
//! energy books are audited: the storage conservation identity must close
//! to numerical precision or the run fails in debug builds.
//!
//! [`par_sweep`], [`first_meeting`] and [`crossover`] support the
//! experiment harness: parameter sweeps, threshold search (minimum
//! buffer size) and crossover location (where MPPT starts paying off).
//!
//! Sweeps, campaigns, fleets and arenas fan out across a
//! dependency-free scoped worker pool ([`par_map`]; `MSEH_THREADS` sets
//! the width, default [`std::thread::available_parallelism`]). Because
//! every run is a pure function of its seed, parallel output is
//! bit-for-bit identical to sequential output at any thread count. A
//! seed sweep of one platform under one policy is a one-contender
//! [`ArenaSpec::boxed`] arena with [`ArenaConfig::keep_lane_results`]:
//! each kept lane equals an independent [`run_simulation`] of its seed.
//!
//! Each run kind has a plain entry point that panics on a spec or
//! config it cannot run ([`run_simulation`], [`run_resilience_campaign`],
//! [`run_fleet`], [`run_arena`]) and a daemon-facing
//! `run_*_controlled` form ([`run_simulation_controlled`],
//! [`run_resilience_campaign_controlled`], [`run_fleet_controlled`],
//! [`run_arena_controlled`]) that returns the same error as `Err` and
//! takes one [`RunControl`]: an optional [`CancelToken`] and an
//! optional `(done, total)` progress callback.
//!
//! # Examples
//!
//! ```
//! use mseh_sim::{run_simulation, SimConfig};
//! use mseh_core::{PowerUnit, StoreRole, PortRequirement};
//! use mseh_power::{InputChannel, FractionalVoc, DcDcConverter, IdealDiode};
//! use mseh_harvesters::PvModule;
//! use mseh_storage::Supercap;
//! use mseh_node::{SensorNode, VoltageThreshold};
//! use mseh_env::Environment;
//! use mseh_units::{Seconds, Volts};
//!
//! let channel = InputChannel::new(
//!     Box::new(PvModule::outdoor_panel_half_watt()),
//!     Box::new(FractionalVoc::pv_standard()),
//!     Box::new(IdealDiode::nanopower()),
//!     Box::new(DcDcConverter::mppt_front_end_5v()),
//! );
//! let mut unit = PowerUnit::builder("doc demo")
//!     .harvester_port(
//!         PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
//!         Some(channel), true)
//!     .store_port(
//!         PortRequirement::any_in_window("buf", Volts::ZERO, Volts::new(3.0)),
//!         Some(Box::new(Supercap::edlc_22f())), StoreRole::PrimaryBuffer, true)
//!     .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
//!     .build();
//!
//! let result = run_simulation(
//!     &mut unit,
//!     &Environment::outdoor_temperate(42),
//!     &SensorNode::submilliwatt_class(),
//!     &mut VoltageThreshold::supercap_ladder(),
//!     SimConfig::over(Seconds::from_days(2.0)),
//! );
//! assert!(result.harvested.value() > 0.0);
//! assert!(result.audit_residual < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod campaign;
mod cancel;
mod fault;
mod fleet;
mod metrics;
mod observe;
mod parallel;
mod platform;
mod runner;
pub mod serve;
mod steps;
mod sweep;

pub use arena::{
    default_contenders, run_arena, run_arena_controlled, ArenaConfig, ArenaResult, ArenaSpec,
    ArenaSummary, Contender, ContenderStanding, EnvFactory,
};
pub use campaign::{
    run_resilience_campaign, run_resilience_campaign_controlled, CampaignConfig, CampaignSummary,
    FaultScenario, ScenarioOutcome, Spread,
};
pub use cancel::{CancelToken, RunControl};
pub use fault::{
    BrownoutConverter, DegradingHarvester, FaultSchedule, GlitchingHarvester, IntermittentStorage,
};
pub use fleet::{
    run_fleet, run_fleet_controlled, ChannelFactory, DenseClass, DenseGroup, DenseStore,
    EnvCadence, FleetConfig, FleetGroup, FleetResult, FleetSpec, FleetSummary, HeldWindows,
    PlatformFactory, PolicyFactory, Straggler,
};
pub use metrics::{
    CounterHandle, GaugeHandle, HistogramHandle, HistogramSnapshot, MetricsRegistry,
    DEFAULT_BUCKETS,
};
pub use observe::{
    AuditReport, ConservationAuditor, EventSink, MetricsObserver, RingRecorder, SimEvent,
    SimObserver, SinkFormat, WindowBooks,
};
pub use parallel::{par_map, par_map_with, thread_count};
pub use platform::Platform;
pub use runner::{
    run_simulation, run_simulation_controlled, run_simulation_observed, SimConfig, SimResult,
    SimTraces,
};
pub use steps::UptimePercentiles;
pub use sweep::{crossover, first_meeting, par_sweep, SweepPoint};
