//! The [`Storage`] trait: energy buffers and backup sources seen by the
//! power unit.

use crate::kind::StorageKind;
use mseh_units::{Joules, Ratio, Seconds, Volts, Watts};

/// An energy-storage device (or backup source, for the fuel cell).
///
/// # Energy-accounting convention
///
/// The simulation kernel audits conservation, so the trait fixes an
/// unambiguous convention:
///
/// * [`charge`](Storage::charge) returns the energy **taken from the bus**;
///   the internally-stored amount is that times the charge efficiency, the
///   difference accrues in [`losses`](Storage::losses).
/// * [`discharge`](Storage::discharge) returns the energy **delivered to
///   the bus**; internal energy drops by `delivered / η_discharge`, the
///   difference accrues in `losses`.
/// * [`idle`](Storage::idle) applies self-discharge/leakage for the
///   elapsed interval; leaked energy also accrues in `losses`.
///
/// Implementations must keep the state-of-charge within `[0, capacity]`
/// and the terminal voltage within `[min_voltage, max_voltage]`; both are
/// property-tested in `tests/`.
pub trait Storage: Send + Sync {
    /// Human-readable device name.
    fn name(&self) -> &str;

    /// The device class.
    fn kind(&self) -> StorageKind;

    /// Open-circuit terminal voltage at the current state of charge.
    fn voltage(&self) -> Volts;

    /// Usable energy currently held (down to the minimum voltage / empty
    /// state).
    fn stored_energy(&self) -> Joules;

    /// Usable capacity (full minus empty).
    fn capacity(&self) -> Joules;

    /// Terminal voltage when empty (discharge cutoff).
    fn min_voltage(&self) -> Volts;

    /// Terminal voltage when full (charge cutoff).
    fn max_voltage(&self) -> Volts;

    /// Whether the device accepts charge.
    fn is_rechargeable(&self) -> bool {
        self.kind().is_rechargeable()
    }

    /// Maximum power the device accepts right now (charge acceptance,
    /// zero when full or non-rechargeable).
    fn max_charge_power(&self) -> Watts;

    /// Maximum power the device can deliver right now (zero when empty).
    fn max_discharge_power(&self) -> Watts;

    /// Pushes up to `power` for `dt` into the device; returns the energy
    /// actually taken from the bus.
    fn charge(&mut self, power: Watts, dt: Seconds) -> Joules;

    /// Draws up to `power` for `dt` from the device; returns the energy
    /// actually delivered to the bus.
    fn discharge(&mut self, power: Watts, dt: Seconds) -> Joules;

    /// Applies leakage / self-discharge over `dt`.
    fn idle(&mut self, dt: Seconds);

    /// Total energy dissipated inside the device since construction
    /// (conversion loss + leakage), for the conservation audit.
    fn losses(&self) -> Joules;

    /// State of charge as a fraction of capacity.
    fn soc(&self) -> Ratio {
        let cap = self.capacity().value();
        if cap <= 0.0 {
            Ratio::ZERO
        } else {
            Ratio::new(self.stored_energy().value() / cap)
        }
    }

    /// Whether the device is effectively empty (under 0.1 % of capacity).
    fn is_depleted(&self) -> bool {
        self.stored_energy().value() <= 1e-3 * self.capacity().value().max(1e-12)
    }

    /// Number of scheduled faults this device has fired so far.
    ///
    /// Fault-injection wrappers override this so the simulation runner
    /// can report faults that fire *and* clear between its polling
    /// points; plain devices never fault.
    fn fault_fire_count(&self) -> u64 {
        0
    }

    /// Number of fired faults that have cleared (device recovered).
    fn fault_clear_count(&self) -> u64 {
        0
    }

    /// Energy currently stranded inside the device by an active fault
    /// (content that physically exists but cannot be delivered).
    fn stranded_energy(&self) -> Joules {
        Joules::ZERO
    }
}

/// A population of identical-parameter stores held as struct-of-arrays
/// lanes ([`SupercapLanes`](crate::SupercapLanes),
/// [`BatteryLanes`](crate::BatteryLanes)): per-lane state in contiguous
/// `f64` slices, stepped by whole-lane passes.
///
/// # Bit-identity contract
///
/// A lane step runs the per-cell arithmetic the scalar [`Storage`]
/// calls run, so after any sequence of [`step`](Self::step) calls lane
/// `i`'s voltage, stored energy, losses and returned energies are
/// bit-identical to driving a private clone of the template through
/// `charge`/`discharge`, then `idle`, with the same per-step requests.
pub trait StoreLanes: Sized {
    /// Lane `i`'s terminal voltage, volts.
    fn voltage(&self, i: usize) -> f64;

    /// Lane `i`'s usable stored energy, joules.
    fn stored_energy(&self, i: usize) -> f64;

    /// Lane `i`'s accumulated internal dissipation, joules.
    fn losses(&self, i: usize) -> f64;

    /// One step across all lanes: lane `i` charges at `charge_w[i]`
    /// watts when that is positive, discharges at `discharge_w[i]` watts
    /// when that is positive (a caller stages at most one of the two),
    /// then idles for `dt` seconds. Accepted charge energy lands in
    /// `charged[i]` and delivered discharge energy in `discharged[i]`
    /// (joules; zero for lanes with no request), exactly as the scalar
    /// `charge`/`discharge` return values.
    fn step(
        &mut self,
        charge_w: &[f64],
        discharge_w: &[f64],
        dt: f64,
        charged: &mut [f64],
        discharged: &mut [f64],
    );

    /// A new population of `lanes` copies of lane 0's state, parameters
    /// carried over. A runner that knows every lane shares lane 0's
    /// inputs steps lane 0 alone and materializes the population from
    /// it on the first divergence.
    fn replicate_lane0(&self, lanes: usize) -> Self;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial in-memory store used to exercise the provided methods.
    struct Bucket {
        energy: f64,
        cap: f64,
    }

    impl Storage for Bucket {
        fn name(&self) -> &str {
            "bucket"
        }
        fn kind(&self) -> StorageKind {
            StorageKind::Supercapacitor
        }
        fn voltage(&self) -> Volts {
            Volts::new(2.0)
        }
        fn stored_energy(&self) -> Joules {
            Joules::new(self.energy)
        }
        fn capacity(&self) -> Joules {
            Joules::new(self.cap)
        }
        fn min_voltage(&self) -> Volts {
            Volts::ZERO
        }
        fn max_voltage(&self) -> Volts {
            Volts::new(3.0)
        }
        fn max_charge_power(&self) -> Watts {
            Watts::new(1.0)
        }
        fn max_discharge_power(&self) -> Watts {
            Watts::new(1.0)
        }
        fn charge(&mut self, power: Watts, dt: Seconds) -> Joules {
            let e = (power.value() * dt.value()).min(self.cap - self.energy);
            self.energy += e;
            Joules::new(e)
        }
        fn discharge(&mut self, power: Watts, dt: Seconds) -> Joules {
            let e = (power.value() * dt.value()).min(self.energy);
            self.energy -= e;
            Joules::new(e)
        }
        fn idle(&mut self, _dt: Seconds) {}
        fn losses(&self) -> Joules {
            Joules::ZERO
        }
    }

    #[test]
    fn soc_fraction() {
        let b = Bucket {
            energy: 2.5,
            cap: 10.0,
        };
        assert_eq!(b.soc().value(), 0.25);
        let empty_cap = Bucket {
            energy: 0.0,
            cap: 0.0,
        };
        assert_eq!(empty_cap.soc(), Ratio::ZERO);
    }

    #[test]
    fn depletion_threshold() {
        let b = Bucket {
            energy: 0.005,
            cap: 10.0,
        };
        assert!(b.is_depleted());
        let b2 = Bucket {
            energy: 0.02,
            cap: 10.0,
        };
        assert!(!b2.is_depleted());
    }

    #[test]
    fn rechargeable_follows_kind_by_default() {
        let b = Bucket {
            energy: 0.0,
            cap: 1.0,
        };
        assert!(b.is_rechargeable());
    }

    #[test]
    fn object_safety() {
        let mut boxed: Box<dyn Storage> = Box::new(Bucket {
            energy: 0.0,
            cap: 1.0,
        });
        let taken = boxed.charge(Watts::new(2.0), Seconds::new(1.0));
        assert_eq!(taken.value(), 1.0); // clamped at capacity
        assert_eq!(boxed.stored_energy().value(), 1.0);
    }
}
