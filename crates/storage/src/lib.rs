//! Energy-storage device models for multi-source harvesting platforms.
//!
//! Covers every storage technology in the survey's Table I:
//!
//! * [`Supercap`] — EDLC with voltage-dependent capacitance, ESR and
//!   leakage (the model structure of the survey's ref \[9\]), including a
//!   lithium-ion-capacitor preset (ref \[10\]);
//! * [`Battery`] — OCV-curve battery parameterized per chemistry: LiPo,
//!   NiMH pack, thin-film (EnerChip class) and non-rechargeable lithium
//!   primary;
//! * [`FuelCell`] — System A's discharge-only hydrogen backup with warm-up
//!   dynamics.
//!
//! All devices implement [`Storage`], whose energy-accounting convention
//! (bus-side amounts returned, internal dissipation in
//! [`losses`](Storage::losses)) lets the simulation kernel audit energy
//! conservation across a whole platform.
//!
//! # Examples
//!
//! ```
//! use mseh_storage::{Supercap, Battery, Storage};
//! use mseh_units::{Watts, Seconds};
//!
//! // Charge a supercap and a LiPo with the same budget; the cap accepts
//! // high power but leaks, the battery is efficient but rate-limited.
//! let mut cap = Supercap::edlc_22f();
//! let mut batt = Battery::lipo_400mah();
//! cap.charge(Watts::new(1.0), Seconds::from_minutes(5.0));
//! batt.charge(Watts::new(1.0), Seconds::from_minutes(5.0));
//! assert!(cap.stored_energy().value() > 0.0);
//! assert!(batt.stored_energy().value() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod battery;
mod battery_lanes;
mod fuel_cell;
mod kind;
#[allow(clippy::module_inception)]
mod storage;
mod supercap;

pub use battery::Battery;
pub use battery_lanes::BatteryLanes;
pub use fuel_cell::FuelCell;
pub use kind::StorageKind;
pub use mseh_units::BatchSolve;
pub use storage::{Storage, StoreLanes};
pub use supercap::{Supercap, SupercapLanes, SupercapSolver};
