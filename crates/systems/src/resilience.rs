//! Resilience presets: seeded fault scenarios for every Table-I
//! platform.
//!
//! The survey's redundancy argument — multiple harvesters *and*
//! multiple stores exist so the platform survives a component dying in
//! the field — is only testable if components actually die. This
//! module pairs each surveyed platform with a stress plan in its
//! natural deployment: the primary store fails open intermittently
//! (connector corrosion, cell dropout) and the lead harvester glitches
//! (shading, fouling, loose lead), both on seeded stochastic
//! timelines, while a [`FailoverPolicy`] wraps the policy tier the
//! platform's monitoring level supports.
//!
//! Feed [`resilience_scenario`] straight into
//! [`mseh_sim::run_resilience_campaign`]:
//!
//! ```
//! use mseh_systems::{resilience, SystemId};
//! use mseh_sim::{run_resilience_campaign, CampaignConfig};
//! use mseh_units::Seconds;
//!
//! let horizon = Seconds::from_hours(12.0);
//! let summary = run_resilience_campaign(
//!     &[1, 2],
//!     |seed| resilience::resilience_scenario(SystemId::D, seed, horizon),
//!     &resilience::natural_node(SystemId::D),
//!     CampaignConfig::over(horizon),
//! );
//! assert_eq!(summary.outcomes.len(), 2);
//! assert!(summary.worst_audit_relative < 1e-6);
//! ```

use crate::SystemId;
use mseh_core::PowerUnit;
use mseh_env::Environment;
use mseh_node::{
    DutyCyclePolicy, EnergyNeutral, FailoverPolicy, FixedDuty, SensorNode, VoltageThreshold,
};
use mseh_sim::{FaultScenario, FaultSchedule, GlitchingHarvester, IntermittentStorage};
use mseh_units::{DutyCycle, Seconds};

/// Decorrelates the harvester glitch timeline from the store fault
/// timeline drawn from the same campaign seed.
const GLITCH_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// The environment each platform was designed for, seeded.
pub fn natural_environment(id: SystemId, seed: u64) -> Environment {
    match id {
        SystemId::A | SystemId::C => Environment::outdoor_temperate(seed),
        SystemId::D => Environment::agricultural(seed),
        SystemId::B | SystemId::E | SystemId::F | SystemId::G => {
            Environment::indoor_industrial(seed)
        }
    }
}

/// A load each platform class can plausibly carry.
pub fn natural_node(id: SystemId) -> SensorNode {
    match id {
        SystemId::A | SystemId::C | SystemId::D => SensorNode::milliwatt_class(),
        _ => SensorNode::submilliwatt_class(),
    }
}

/// The strongest duty-cycle policy the platform's Table-I monitoring
/// tier supports: full monitoring (A, B, F) runs the energy-neutral
/// controller, limited monitoring (D) the voltage ladder, and the
/// blind platforms (C, E, G) a fixed conservative duty.
pub fn natural_policy(id: SystemId) -> Box<dyn DutyCyclePolicy> {
    match id {
        SystemId::A | SystemId::B | SystemId::F => Box::new(EnergyNeutral::new()),
        SystemId::D => Box::new(VoltageThreshold::supercap_ladder()),
        SystemId::C | SystemId::E | SystemId::G => {
            Box::new(FixedDuty::new(DutyCycle::saturating(0.05)))
        }
    }
}

/// The stress plan for the platform's primary store: seeded stochastic
/// fail-open windows. The DIY research platforms (A–D) see field-grade
/// abuse (mean 6 h up, 45 min down); the potted commercial modules
/// (E–G) fail half as often but take as long to recover.
pub fn store_fault_plan(id: SystemId, seed: u64, horizon: Seconds) -> FaultSchedule {
    let (mean_up, mean_down) = match id {
        SystemId::A | SystemId::B | SystemId::C | SystemId::D => {
            (Seconds::from_hours(6.0), Seconds::from_minutes(45.0))
        }
        SystemId::E | SystemId::F | SystemId::G => {
            (Seconds::from_hours(12.0), Seconds::from_minutes(45.0))
        }
    };
    FaultSchedule::stochastic(seed, mean_up, mean_down, horizon)
}

/// The glitch plan for the platform's lead harvester: shorter, more
/// frequent dropouts than store faults (mean 3 h up, 15 min down),
/// decorrelated from the store plan drawn with the same seed.
pub fn harvester_glitch_plan(seed: u64, horizon: Seconds) -> FaultSchedule {
    FaultSchedule::stochastic(
        seed ^ GLITCH_SALT,
        Seconds::from_hours(3.0),
        Seconds::from_minutes(15.0),
        horizon,
    )
}

/// Builds the full seeded fault scenario for a platform: the unit with
/// its primary store and lead harvester instrumented, its natural
/// environment, and a [`FailoverPolicy`] around its natural policy.
///
/// Scenarios assume the campaign starts at `t = 0`: the store wrapper
/// counts its fault clock from the run start while the harvester
/// wrapper reads the absolute timestamp, and the two agree only there.
///
/// # Panics
///
/// Panics if the platform has no populated store port (all seven
/// Table-I systems ship with one).
pub fn resilience_scenario(id: SystemId, seed: u64, horizon: Seconds) -> FaultScenario<PowerUnit> {
    let mut unit = id.build();
    let store_plan = store_fault_plan(id, seed, horizon);

    let store_port = unit
        .store_ports()
        .iter()
        .position(|p| p.device().is_some())
        .expect("every surveyed platform ships with a store");
    let plan = store_plan.clone();
    assert!(
        unit.instrument_store(store_port, move |inner| {
            Box::new(IntermittentStorage::new(inner, plan))
        }),
        "store port {store_port} must be instrumentable"
    );

    if let Some(harvester_port) = unit
        .harvester_ports()
        .iter()
        .position(|p| p.channel().is_some())
    {
        let glitch = harvester_glitch_plan(seed, horizon);
        unit.instrument_harvester(harvester_port, move |inner| {
            Box::new(GlitchingHarvester::new(inner, glitch))
        });
    }

    FaultScenario::new(
        unit,
        natural_environment(id, seed),
        Box::new(FailoverPolicy::new(natural_policy(id))),
        store_plan,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_sim::{run_resilience_campaign_with_threads, CampaignConfig};

    #[test]
    fn every_platform_has_a_buildable_scenario() {
        // Long enough that even the commercial platforms' 12 h mean
        // up-time all but guarantees a drawn fault (and the draws are
        // deterministic per seed, so this can't flake).
        let horizon = Seconds::from_days(3.0);
        for id in SystemId::ALL {
            let scenario = resilience_scenario(id, 11, horizon);
            assert!(
                !scenario.schedule.is_empty(),
                "{id}: stress plan drew no faults over {horizon}"
            );
            assert!(scenario.policy.name().contains("failover"), "{id}");
            // The store wrapper is installed on the primary port.
            let port = scenario
                .platform
                .store_ports()
                .iter()
                .find(|p| p.device().is_some())
                .expect("store present");
            assert!(
                port.device()
                    .expect("present")
                    .name()
                    .contains("intermittent"),
                "{id}: primary store not instrumented"
            );
        }
    }

    #[test]
    fn scenarios_are_pure_functions_of_their_seed() {
        let horizon = Seconds::from_hours(6.0);
        let a = store_fault_plan(SystemId::A, 5, horizon);
        let b = store_fault_plan(SystemId::A, 5, horizon);
        assert_eq!(a, b);
        assert_ne!(a, store_fault_plan(SystemId::A, 6, horizon));
        // Store and glitch plans from one seed are decorrelated.
        assert_ne!(a.windows(), harvester_glitch_plan(5, horizon).windows());
    }

    #[test]
    fn campaign_runs_clean_for_a_commercial_platform() {
        let horizon = Seconds::from_hours(8.0);
        let summary = run_resilience_campaign_with_threads(
            2,
            &[1, 2],
            |seed| resilience_scenario(SystemId::E, seed, horizon),
            &natural_node(SystemId::E),
            CampaignConfig::over(horizon),
        );
        assert!(summary.worst_audit_relative < 1e-6, "{summary:?}");
        assert!(summary.total_faults > 0, "{summary:?}");
    }
}
