//! The [`Platform`] abstraction: anything the simulation kernel can drive.

use mseh_core::{BusHarvest, PowerUnit, StepReport};
use mseh_env::EnvConditions;
use mseh_harvesters::CacheStats;
use mseh_node::EnergyStatus;
use mseh_units::{Joules, Seconds, Watts};

/// A complete energy platform the kernel can step. [`PowerUnit`] is the
/// one implementor outside tests: every surveyed platform and the
/// future-work smart harvester ([`mseh_core::Supervisor::devolved`]) is
/// a `PowerUnit`. The trait stays because the benchmark package names
/// it: its layer replay takes `&mut dyn Platform`, its CLI and daemon
/// workloads call `Platform::kernel_cache_stats`, and its fleet
/// factories build `Box<dyn Platform>`. The two test-only misreporting
/// platforms in the fleet and arena tests implement it too.
///
/// A step is two halves: [`harvest`](Self::harvest) solves the input
/// channels, which never depend on the load, and
/// [`settle`](Self::settle) serves the load and balances the stores.
/// The policy arena relies on the split to solve a seed's channels once
/// for every lane.
pub trait Platform {
    /// The platform's name.
    fn name(&self) -> &str;

    /// The harvest half of [`step`](Self::step): solves the input
    /// channels through `env` for `dt` and returns what they put on the
    /// bus. Touches nothing but the channels.
    fn harvest(&mut self, env: &EnvConditions, dt: Seconds) -> BusHarvest;

    /// The settle half of [`step`](Self::step): serves `load` and
    /// balances `harvest` against the stores. The harvest may come from
    /// an identically built platform stepped through the same
    /// conditions, which is how the policy arena solves a seed's
    /// channels once per control window for every lane.
    fn settle(&mut self, harvest: &BusHarvest, dt: Seconds, load: Watts) -> StepReport;

    /// Advances one interval, serving `load` at the output rail:
    /// exactly `settle(harvest(..))`.
    fn step(&mut self, env: &EnvConditions, dt: Seconds, load: Watts) -> StepReport {
        let harvest = self.harvest(env, dt);
        self.settle(&harvest, dt, load)
    }

    /// The energy status visible to the node (clamped to the platform's
    /// monitoring capability).
    fn energy_status(&self) -> EnergyStatus;

    /// Actual stored energy across all storage devices.
    fn total_stored_energy(&self) -> Joules;

    /// Total internal storage dissipation (for the conservation audit).
    fn storage_losses(&self) -> Joules;

    /// Total actual storage capacity; a drop between control windows is
    /// reported to observers as a fault firing.
    fn storage_capacity(&self) -> Joules;

    /// Cumulative `(fired, cleared)` fault counts across the platform's
    /// devices (storage, harvesters, converters).
    ///
    /// The runner polls this at control-window edges so injected faults
    /// that fire *and* clear within one window — invisible to the
    /// capacity-drop check — still produce their `FaultFire` /
    /// `FaultClear` event pair. Platforms without fault-injection
    /// wrappers report `(0, 0)`.
    fn fault_counts(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Energy currently stranded by active faults (stored content that
    /// physically exists but cannot be delivered). Zero when no fault
    /// wrapper is active.
    fn stranded_energy(&self) -> Joules {
        Joules::ZERO
    }

    /// Aggregated operating-point kernel-cache counters (each input
    /// channel's step and open-circuit-voltage memos). Platforms without
    /// caches report all-zero stats.
    fn kernel_cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Enables or disables the platform's operating-point kernel caches.
    /// Disabling drops stored entries so every step solves from scratch
    /// (the uncached reference path). Default: no-op.
    fn set_kernel_cache_enabled(&mut self, enabled: bool) {
        let _ = enabled;
    }
}

impl Platform for PowerUnit {
    fn name(&self) -> &str {
        PowerUnit::name(self)
    }

    fn harvest(&mut self, env: &EnvConditions, dt: Seconds) -> BusHarvest {
        PowerUnit::harvest(self, env, dt)
    }

    fn settle(&mut self, harvest: &BusHarvest, dt: Seconds, load: Watts) -> StepReport {
        PowerUnit::settle(self, harvest, dt, load)
    }

    fn energy_status(&self) -> EnergyStatus {
        PowerUnit::energy_status(self)
    }

    fn total_stored_energy(&self) -> Joules {
        PowerUnit::total_stored_energy(self)
    }

    fn storage_losses(&self) -> Joules {
        PowerUnit::storage_losses(self)
    }

    fn storage_capacity(&self) -> Joules {
        PowerUnit::storage_capacity(self)
    }

    fn fault_counts(&self) -> (u64, u64) {
        PowerUnit::fault_counts(self)
    }

    fn stranded_energy(&self) -> Joules {
        PowerUnit::stranded_energy(self)
    }

    fn kernel_cache_stats(&self) -> CacheStats {
        PowerUnit::kernel_cache_stats(self)
    }

    fn set_kernel_cache_enabled(&mut self, enabled: bool) {
        PowerUnit::set_kernel_cache_enabled(self, enabled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_core::{PortRequirement, StoreRole};
    use mseh_power::DcDcConverter;
    use mseh_storage::Supercap;
    use mseh_units::Volts;

    fn unit() -> PowerUnit {
        PowerUnit::builder("trait test")
            .store_port(
                PortRequirement::any_in_window("b", Volts::ZERO, Volts::new(3.0)),
                Some(Box::new(Supercap::edlc_22f())),
                StoreRole::PrimaryBuffer,
                true,
            )
            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
            .build()
    }

    #[test]
    fn power_unit_is_a_platform() {
        let mut p: Box<dyn Platform> = Box::new(unit());
        assert_eq!(p.name(), "trait test");
        let env = EnvConditions::quiescent(Seconds::ZERO);
        let r = p.step(&env, Seconds::new(1.0), Watts::ZERO);
        assert_eq!(r.harvested, Joules::ZERO);
        assert_eq!(p.total_stored_energy(), Joules::ZERO);
    }
}
