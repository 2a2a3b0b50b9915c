//! Transducer models for every harvester class in the survey's Table I.
//!
//! A harvester is a [`Transducer`]: a static, environment-dependent I–V
//! characteristic (a voltage-dependent current source). All of the survey's
//! power-conditioning trade-offs — whether MPPT pays for itself, what a
//! fixed operating point forfeits, which storage devices a source can
//! charge directly — are functions of this curve and how it moves with the
//! environment.
//!
//! Implemented source classes (Table I "Harvesters" row):
//!
//! | Model | Class | Physics |
//! |---|---|---|
//! | [`PvModule`] | Light | single-diode equation with shunt leakage |
//! | [`FlowTurbine::micro_wind`] | Wind | ½ρAv³·Cp with cut-in/rated/cut-out |
//! | [`Teg`] | Thermal | Seebeck `V = S·ΔT` behind internal resistance |
//! | [`VibrationHarvester::piezo_cantilever`] | Piezo | resonant Lorentzian response |
//! | [`VibrationHarvester::electromagnetic`] | Inductive | as piezo, low impedance |
//! | [`Rectenna`] | Radio | logistic rectifier efficiency vs input power |
//! | [`FlowTurbine::micro_hydro`] | Water flow | turbine law with water density |
//! | [`AcDcInput`] | General AC/DC | fixed rectified supply (> 5 V) |
//!
//! # Examples
//!
//! ```
//! use mseh_harvesters::{PvModule, FlowTurbine, Transducer};
//! use mseh_env::Environment;
//! use mseh_units::Seconds;
//!
//! let env = Environment::outdoor_temperate(42);
//! let noon = env.conditions(Seconds::from_hours(12.0));
//!
//! let pv = PvModule::outdoor_panel_half_watt();
//! let wind = FlowTurbine::micro_wind();
//! let total = pv.mpp(&noon).power() + wind.mpp(&noon).power();
//! assert!(total.value() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acdc;
mod batch;
mod cache;
mod kind;
mod pv;
mod rf;
mod teg;
mod thevenin;
mod transducer;
mod vibration;
mod wind;

pub use acdc::AcDcInput;
pub use batch::VocBatch;
pub use cache::CacheStats;
pub use kind::HarvesterKind;
pub use mseh_units::BatchSolve;
pub use pv::{PvModule, PvVocSolver};
pub use rf::Rectenna;
pub use teg::Teg;
pub use thevenin::Thevenin;
pub use transducer::{OperatingPoint, Transducer};
pub use vibration::VibrationHarvester;
pub use wind::FlowTurbine;
