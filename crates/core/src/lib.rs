//! `mseh-core` — multi-source energy-harvesting system design, taxonomy
//! and management.
//!
//! This crate is the library's centre: it turns the design taxonomy of
//! Weddell et al., *"A Survey of Multi-Source Energy Harvesting Systems"*
//! (DATE 2013) into executable structure:
//!
//! * **Taxonomy as types**: the survey's four design axes —
//!   [`ConditioningPlacement`], [`Exchangeability`], [`InterfaceKind`],
//!   [`IntelligenceLocation`] — are enums a platform is positioned on.
//! * **The [`PowerUnit`]**: a composable multi-source platform — harvester
//!   ports, storage ports with [`StoreRole`]s, an output stage and a
//!   [`Supervisor`] — with a per-step power-flow solver whose energy
//!   accounting is audited (`harvested + discharged = charged + spilled +
//!   served demand`).
//! * **Plug-and-play** ([`ElectronicDatasheet`], [`PortRequirement`]):
//!   System B's mechanism — modules carry interface circuits and
//!   machine-readable datasheets, so swaps keep the platform
//!   energy-aware; everyone else keeps a possibly-stale *recognized
//!   capacity*, exactly the failure mode Table I warns about.
//! * **The digital interface** ([`EnergyBus`]): the I²C-style link of
//!   Systems A and F, with NAK behaviour matching each platform's
//!   capability tier and a traffic-energy meter.
//! * **The "smart harvester" scheme** ([`Supervisor::devolved`]): the
//!   survey's proposed future direction as a `PowerUnit` whose per-device
//!   micro-managers announce on attach and report on change, so its
//!   costs and benefits are measurable on the same hardware (E8).
//! * **The classifier** ([`classify`], [`render_table`]): Table I is
//!   *computed* from live platform models, not transcribed.
//!
//! # Examples
//!
//! Assemble a two-source platform and run a day:
//!
//! ```
//! use mseh_core::{PowerUnit, StoreRole, PortRequirement};
//! use mseh_power::{InputChannel, FractionalVoc, DcDcConverter, IdealDiode};
//! use mseh_harvesters::{PvModule, FlowTurbine};
//! use mseh_storage::Supercap;
//! use mseh_env::Environment;
//! use mseh_units::{Seconds, Volts, Watts};
//!
//! let pv = InputChannel::new(
//!     Box::new(PvModule::outdoor_panel_half_watt()),
//!     Box::new(FractionalVoc::pv_standard()),
//!     Box::new(IdealDiode::nanopower()),
//!     Box::new(DcDcConverter::mppt_front_end_5v()),
//! );
//! let wind = InputChannel::new(
//!     Box::new(FlowTurbine::micro_wind()),
//!     Box::new(FractionalVoc::thevenin_standard()),
//!     Box::new(IdealDiode::nanopower()),
//!     Box::new(DcDcConverter::mppt_front_end_5v()),
//! );
//! let mut unit = PowerUnit::builder("two-source demo")
//!     .harvester_port(
//!         PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
//!         Some(pv), true)
//!     .harvester_port(
//!         PortRequirement::any_in_window("wind", Volts::ZERO, Volts::new(12.0)),
//!         Some(wind), true)
//!     .store_port(
//!         PortRequirement::any_in_window("buffer", Volts::ZERO, Volts::new(3.0)),
//!         Some(Box::new(Supercap::edlc_22f())),
//!         StoreRole::PrimaryBuffer, true)
//!     .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
//!     .build();
//!
//! let env = Environment::outdoor_temperate(42);
//! let mut harvested = 0.0;
//! for minute in 0..(24 * 60) {
//!     let t = Seconds::from_minutes(minute as f64);
//!     let report = unit.step(&env.conditions(t), Seconds::new(60.0),
//!         Watts::from_milli(1.0));
//!     harvested += report.harvested.value();
//! }
//! assert!(harvested > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adc;
mod bus;
mod classify;
mod compat;
mod datasheet;
mod power_unit;
mod taxonomy;

pub use adc::AdcModel;
pub use bus::{BusRequest, BusResponse, EnergyBus};
pub use classify::{classify, render_table, TaxonomyRecord};
pub use compat::{CompatError, PortRequirement};
pub use datasheet::{DeviceClass, ElectronicDatasheet};
pub use power_unit::{
    BusBalance, BusHarvest, HarvesterPort, PowerUnit, PowerUnitBuilder, StepReport, StorePort,
    StoreReading, StoreRole, Supervisor,
};
pub use taxonomy::{ConditioningPlacement, Exchangeability, IntelligenceLocation, InterfaceKind};
