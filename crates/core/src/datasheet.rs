//! Electronic datasheets — System B's defining mechanism.
//!
//! "System B is a notable exception, as it has an electronic datasheet on
//! each energy module which may be individually interrogated to determine
//! their properties." A datasheet is the module's machine-readable
//! self-description; reading it on attach is what lets the host stay
//! energy-aware across hardware swaps.

use mseh_harvesters::HarvesterKind;
use mseh_storage::StorageKind;
use mseh_units::{Joules, Volts, Watts};

/// The device class a module presents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// An energy harvester of the given kind.
    Harvester(HarvesterKind),
    /// A storage device of the given kind.
    Storage(StorageKind),
}

impl core::fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DeviceClass::Harvester(k) => write!(f, "harvester ({k})"),
            DeviceClass::Storage(k) => write!(f, "storage ({k})"),
        }
    }
}

/// A module's electronic datasheet.
///
/// # Examples
///
/// ```
/// use mseh_core::{ElectronicDatasheet, DeviceClass};
/// use mseh_harvesters::HarvesterKind;
/// use mseh_units::{Volts, Watts, Joules};
///
/// let ds = ElectronicDatasheet::harvester(
///     "PV-07", HarvesterKind::Photovoltaic, Watts::from_milli(50.0));
/// assert!(ds.capacity.is_none());
/// assert_eq!(ds.class, DeviceClass::Harvester(HarvesterKind::Photovoltaic));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ElectronicDatasheet {
    /// Module model identifier.
    pub model: String,
    /// What the module is.
    pub class: DeviceClass,
    /// Interface-side output/input voltage the module presents to the bus.
    pub bus_voltage: Volts,
    /// Rated power (harvest rating or max transfer rate).
    pub rated_power: Watts,
    /// Usable capacity — `Some` for storage modules, `None` for
    /// harvesters.
    pub capacity: Option<Joules>,
}

impl ElectronicDatasheet {
    /// A harvester-module datasheet (capacity absent).
    pub fn harvester(model: impl Into<String>, kind: HarvesterKind, rated: Watts) -> Self {
        Self {
            model: model.into(),
            class: DeviceClass::Harvester(kind),
            bus_voltage: Volts::new(4.1),
            rated_power: rated,
            capacity: None,
        }
    }

    /// A storage-module datasheet.
    pub fn storage(
        model: impl Into<String>,
        kind: StorageKind,
        rated: Watts,
        capacity: Joules,
    ) -> Self {
        Self {
            model: model.into(),
            class: DeviceClass::Storage(kind),
            bus_voltage: Volts::new(4.1),
            rated_power: rated,
            capacity: Some(capacity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harvester_sheet_has_no_capacity() {
        let ds = ElectronicDatasheet::harvester(
            "WT-01",
            HarvesterKind::WindTurbine,
            Watts::from_milli(80.0),
        );
        assert!(matches!(ds.class, DeviceClass::Harvester(_)));
        assert_eq!(ds.capacity, None);
        assert_eq!(ds.class.to_string(), "harvester (Wind)");
    }

    #[test]
    fn storage_sheet_reports_capacity() {
        let ds = ElectronicDatasheet::storage(
            "SC-22",
            StorageKind::Supercapacitor,
            Watts::from_milli(500.0),
            Joules::new(60.0),
        );
        assert!(matches!(ds.class, DeviceClass::Storage(_)));
        assert_eq!(ds.capacity, Some(Joules::new(60.0)));
    }
}
