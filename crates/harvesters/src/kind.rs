//! Harvester classification: the energy-source types enumerated in
//! Table I of the survey.

use core::fmt;

/// The energy-source class a harvester transduces.
///
/// These are exactly the source types appearing in the survey's Table I
/// ("Harvesters" row): light, wind, thermal, vibration (piezo and
/// electromagnetic/inductive), radio, water flow, and System G's generic
/// AC/DC input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum HarvesterKind {
    /// Photovoltaic cell (outdoor sun or indoor light).
    Photovoltaic,
    /// Micro wind turbine.
    WindTurbine,
    /// Thermoelectric generator (Seebeck).
    Thermoelectric,
    /// Piezoelectric vibration harvester.
    Piezoelectric,
    /// Electromagnetic / inductive vibration harvester.
    Electromagnetic,
    /// RF rectenna.
    RfRectenna,
    /// Micro hydro generator (water flow).
    Hydro,
    /// Generic external AC/DC input (System G's "General AC/DC > 5 V").
    ExternalAcDc,
}

impl HarvesterKind {
    /// All kinds, in Table-I ordering.
    pub const ALL: [HarvesterKind; 8] = [
        HarvesterKind::Photovoltaic,
        HarvesterKind::WindTurbine,
        HarvesterKind::Thermoelectric,
        HarvesterKind::Piezoelectric,
        HarvesterKind::Electromagnetic,
        HarvesterKind::RfRectenna,
        HarvesterKind::Hydro,
        HarvesterKind::ExternalAcDc,
    ];

    /// The label the survey's Table I uses for this source class.
    pub fn table_label(self) -> &'static str {
        match self {
            HarvesterKind::Photovoltaic => "Light",
            HarvesterKind::WindTurbine => "Wind",
            HarvesterKind::Thermoelectric => "Thermal",
            HarvesterKind::Piezoelectric => "Piezo",
            HarvesterKind::Electromagnetic => "Inductive",
            HarvesterKind::RfRectenna => "Radio",
            HarvesterKind::Hydro => "Water Flow",
            HarvesterKind::ExternalAcDc => "General AC/DC",
        }
    }
}

impl fmt::Display for HarvesterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.table_label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_table_one() {
        assert_eq!(HarvesterKind::Photovoltaic.to_string(), "Light");
        assert_eq!(HarvesterKind::WindTurbine.to_string(), "Wind");
        assert_eq!(HarvesterKind::RfRectenna.to_string(), "Radio");
        assert_eq!(HarvesterKind::Hydro.to_string(), "Water Flow");
    }

    #[test]
    fn all_is_exhaustive_and_unique() {
        let mut kinds = HarvesterKind::ALL.to_vec();
        kinds.sort();
        kinds.dedup();
        assert_eq!(kinds.len(), 8);
    }
}
