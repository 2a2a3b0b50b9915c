//! The seven multi-source harvesting platforms of the survey's Table I,
//! as ready-to-simulate [`mseh_core::PowerUnit`] models.
//!
//! | Id | Platform | Module |
//! |---|---|---|
//! | A | Smart Power Unit (Magno et al., DATE 2012) | [`system_a`] |
//! | B | Plug-and-Play (Weddell et al., SECON 2009) | [`system_b`] |
//! | C | AmbiMax (Park & Chou, SECON 2006) | [`system_c`] |
//! | D | MPWiNode (Morais et al., 2008) | [`system_d`] |
//! | E | Maxim MAX17710 Eval Kit | [`system_e`] |
//! | F | Cymbet EnerChip EVAL-09 | [`system_f`] |
//! | G | MicroStrain EH-Link | [`system_g`] |
//!
//! The [`prometheus`] module additionally models the survey's historical
//! single-source baseline (not a Table-I column) for before/after
//! comparisons, and [`buffer_rig`] the PV and wind rig whose buffer
//! experiments E1 and E2 size.
//!
//! Each model's Table-I row (port counts, swappability, monitoring tier,
//! interface, quiescent current, device kinds, commercial flag) is
//! *computed* by [`mseh_core::classify`] and checked against the paper's
//! values in that module's tests — the table the benchmarks print is a
//! measurement, not a transcription.
//!
//! # Examples
//!
//! ```
//! use mseh_systems::{all_systems, SystemId};
//! use mseh_core::{classify, render_table};
//!
//! let records: Vec<_> = all_systems()
//!     .iter()
//!     .map(|unit| classify(unit))
//!     .collect();
//! let table = render_table(&records);
//! assert!(table.contains("Smart Power Unit"));
//! assert!(table.contains("6 (shared)"));
//! assert_eq!(SystemId::ALL.len(), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer_rig;
mod interfaced;
pub mod parts;
pub mod prometheus;
pub mod resilience;
mod survey;
pub mod system_a;
pub mod system_b;
pub mod system_c;
pub mod system_d;
pub mod system_e;
pub mod system_f;
pub mod system_g;

pub use interfaced::InterfacedStorage;
pub use survey::{site_survey, SurveyReport, SurveyRow};

use mseh_core::PowerUnit;

/// Identifies one of the surveyed platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SystemId {
    /// Smart Power Unit.
    A,
    /// Plug-and-Play.
    B,
    /// AmbiMax.
    C,
    /// MPWiNode.
    D,
    /// Maxim MAX17710 Eval.
    E,
    /// Cymbet EVAL-09.
    F,
    /// MicroStrain EH-Link.
    G,
}

impl SystemId {
    /// All seven platforms in Table-I order.
    pub const ALL: [SystemId; 7] = [
        SystemId::A,
        SystemId::B,
        SystemId::C,
        SystemId::D,
        SystemId::E,
        SystemId::F,
        SystemId::G,
    ];

    /// Builds the platform model.
    pub fn build(self) -> PowerUnit {
        match self {
            SystemId::A => system_a::build(),
            SystemId::B => system_b::build(),
            SystemId::C => system_c::build(),
            SystemId::D => system_d::build(),
            SystemId::E => system_e::build(),
            SystemId::F => system_f::build(),
            SystemId::G => system_g::build(),
        }
    }

    /// The platform's Table-I display name.
    pub fn display_name(self) -> &'static str {
        match self {
            SystemId::A => system_a::NAME,
            SystemId::B => system_b::NAME,
            SystemId::C => system_c::NAME,
            SystemId::D => system_d::NAME,
            SystemId::E => system_e::NAME,
            SystemId::F => system_f::NAME,
            SystemId::G => system_g::NAME,
        }
    }
}

impl core::fmt::Display for SystemId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "System {self:?} ({})", self.display_name())
    }
}

/// Builds all seven platforms in Table-I order.
pub fn all_systems() -> Vec<PowerUnit> {
    SystemId::ALL.iter().map(|id| id.build()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_core::classify;

    #[test]
    fn seven_distinct_platforms() {
        let systems = all_systems();
        assert_eq!(systems.len(), 7);
        let mut names: Vec<&str> = systems.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn display_names_match_builds() {
        for id in SystemId::ALL {
            assert_eq!(id.build().name(), id.display_name());
            assert!(id.to_string().contains(id.display_name()));
        }
    }

    #[test]
    fn quiescent_ordering_matches_table_one() {
        // Table I: E (<1) < C (<5) ≈ A (5) < B (7) < F (20) < G (<32) < D (75).
        let q: Vec<f64> = SystemId::ALL
            .iter()
            .map(|id| classify(&id.build()).quiescent.as_micro())
            .collect();
        let (a, b, c, d, e, f, g) = (q[0], q[1], q[2], q[3], q[4], q[5], q[6]);
        assert!(e < c && e < a, "E lowest: {q:?}");
        assert!(a < b, "A < B: {q:?}");
        assert!(b < f, "B < F: {q:?}");
        assert!(f < g, "F < G: {q:?}");
        assert!(g < d, "G < D: {q:?}");
    }

    /// Checks that `id`'s quiescent ledger holds one entry per occupied
    /// front-end plus the supervisor and the output stage, referenced to the
    /// output rail, and returns its total current in microamps so that each
    /// system's `ledger_tests` can compare it with Table I.
    pub(crate) fn ledger_itemizes_the_idle_budget(id: SystemId) -> f64 {
        let unit = id.build();
        let ledger = unit.quiescent_ledger();
        let front_ends: Vec<String> = unit
            .harvester_ports()
            .iter()
            .filter(|p| p.channel().is_some())
            .map(|p| format!("{} front-end", p.requirement().label))
            .collect();
        let mut expected: Vec<&str> = front_ends.iter().map(String::as_str).collect();
        expected.extend(["supervisor", "output stage"]);
        let components: Vec<&str> = ledger.iter().map(|e| e.component.as_str()).collect();
        assert_eq!(components, expected, "{id}");
        assert_eq!(ledger.rail(), unit.output_rail(), "{id}");
        ledger.total_current().as_micro()
    }

    #[test]
    fn only_commercial_products_are_e_f_g() {
        let commercial: Vec<bool> = SystemId::ALL
            .iter()
            .map(|id| classify(&id.build()).commercial)
            .collect();
        assert_eq!(commercial, [false, false, false, false, true, true, true]);
    }

    #[test]
    fn only_a_and_f_offer_digital_interfaces() {
        let digital: Vec<bool> = SystemId::ALL
            .iter()
            .map(|id| classify(&id.build()).digital_interface)
            .collect();
        assert_eq!(digital, [true, false, false, false, false, true, false]);
    }

    #[test]
    fn only_d_and_g_fix_the_node_to_the_power_unit() {
        let swappable_node: Vec<bool> = SystemId::ALL
            .iter()
            .map(|id| classify(&id.build()).swappable_sensor_node)
            .collect();
        assert_eq!(swappable_node, [true, true, true, false, true, true, false]);
    }
}
