//! Power-conditioning building blocks for multi-source harvesting
//! platforms.
//!
//! The survey's first taxonomy axis is *power-conditioning functionality*:
//! what sits between a harvester and the store (input conditioning) and
//! between the store and the load (output conditioning), and how much
//! efficiency, adaptivity and quiescent draw each choice costs. This crate
//! implements the full menu:
//!
//! * input protection: [`DiodeStage`] (passive) and [`IdealDiode`]
//!   (active, near-lossless, small housekeeping draw);
//! * converters: [`DcDcConverter`] (buck/boost/buck-boost) with
//!   load-dependent [`EfficiencyCurve`]s, and the [`LinearRegulator`]
//!   (LDO) that System B prefers for its quiescent economy;
//! * operating-point control: [`PerturbObserve`] and [`FractionalVoc`]
//!   MPPT plus the [`FixedPoint`] compromise, each reporting its control
//!   overhead so experiment E3 can locate the MPPT-pays-off crossover;
//! * composition: [`InputChannel`] wires harvester → protection →
//!   converter into one steppable channel;
//! * accounting: the [`QuiescentLedger`] itemizes standing draw, the
//!   quantity Table I reports per system.
//!
//! # Examples
//!
//! ```
//! use mseh_power::{InputChannel, FractionalVoc, DcDcConverter, IdealDiode};
//! use mseh_harvesters::PvModule;
//! use mseh_env::Environment;
//! use mseh_units::Seconds;
//!
//! let env = Environment::outdoor_temperate(7);
//! let mut channel = InputChannel::new(
//!     Box::new(PvModule::outdoor_panel_half_watt()),
//!     Box::new(FractionalVoc::pv_standard()),
//!     Box::new(IdealDiode::nanopower()),
//!     Box::new(DcDcConverter::mppt_front_end_5v()),
//! );
//! let noon = env.conditions(Seconds::from_hours(12.0));
//! let step = channel.step(&noon, Seconds::new(1.0));
//! assert!(step.delivered.value() >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod converter;
mod diode;
mod efficiency;
mod input_stage;
mod ldo;
mod ledger;
mod mppt;
mod stage;

pub use converter::{DcDcConverter, Topology};
pub use diode::{DiodeStage, IdealDiode};
pub use efficiency::EfficiencyCurve;
pub use input_stage::{HarvestStep, InputChannel, Source};
pub use ldo::LinearRegulator;
pub use ledger::{LedgerEntry, QuiescentLedger};
pub use mppt::{
    FixedPoint, FractionalVoc, OperatingPointController, PerturbObserve, TrackingStrategy,
    WindowChoice,
};
pub use stage::PowerStage;
