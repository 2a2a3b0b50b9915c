//! The buffer-sizing rig of experiments E1 and E2, a reference platform
//! outside Table I like [`crate::prometheus`]: a half-watt PV panel, a
//! micro wind turbine or both, each behind a fractional-V_oc tracker,
//! an ideal diode and a 5 V MPPT front end, charging one EDLC of the
//! size under test (commissioned at 2.2 V) that feeds a 3.3 V
//! buck-boost output. `mseh sweep-buffer` builds it too.

use core::fmt;

use mseh_core::{PortRequirement, PowerUnit, StoreRole};
use mseh_harvesters::{FlowTurbine, PvModule, Transducer};
use mseh_power::{DcDcConverter, FractionalVoc, IdealDiode, InputChannel};
use mseh_storage::Supercap;
use mseh_units::{Farads, Ohms, Volts};

/// Which sources a rig carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceSet {
    /// Photovoltaic only.
    Solar,
    /// Wind turbine only.
    Wind,
    /// Both.
    SolarPlusWind,
}

impl SourceSet {
    /// All three sets.
    pub const ALL: [SourceSet; 3] = [SourceSet::Solar, SourceSet::Wind, SourceSet::SolarPlusWind];
}

impl fmt::Display for SourceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SourceSet::Solar => "solar",
            SourceSet::Wind => "wind",
            SourceSet::SolarPlusWind => "solar+wind",
        })
    }
}

fn channel(harvester: Box<dyn Transducer>, tracker: FractionalVoc) -> InputChannel {
    InputChannel::new(
        harvester,
        Box::new(tracker),
        Box::new(IdealDiode::nanopower()),
        Box::new(DcDcConverter::mppt_front_end_5v()),
    )
}

/// Builds the rig with `sources` and a buffer of `farads`.
pub fn build(sources: SourceSet, farads: f64) -> PowerUnit {
    let mut builder = PowerUnit::builder(format!("{sources} rig"));
    if sources != SourceSet::Wind {
        builder = builder.harvester_port(
            PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
            Some(channel(
                Box::new(PvModule::outdoor_panel_half_watt()),
                FractionalVoc::pv_standard(),
            )),
            true,
        );
    }
    if sources != SourceSet::Solar {
        builder = builder.harvester_port(
            PortRequirement::any_in_window("wind", Volts::ZERO, Volts::new(12.0)),
            Some(channel(
                Box::new(FlowTurbine::micro_wind()),
                FractionalVoc::thevenin_standard(),
            )),
            true,
        );
    }
    let mut cap = Supercap::new(
        format!("{farads} F EDLC"),
        Farads::new(farads),
        farads / 15.0,
        Ohms::from_milli(60.0),
        Ohms::from_kilo(15.0),
        Volts::new(0.8),
        Volts::new(2.7),
    );
    cap.set_voltage(Volts::new(2.2));
    builder
        .store_port(
            PortRequirement::any_in_window("buffer", Volts::ZERO, Volts::new(3.0)),
            Some(Box::new(cap)),
            StoreRole::PrimaryBuffer,
            true,
        )
        .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_core::classify;

    #[test]
    fn each_source_set_gets_its_ports_and_one_buffer() {
        for (sources, harvesters) in SourceSet::ALL.into_iter().zip([1, 1, 2]) {
            let record = classify(&build(sources, 22.0));
            assert_eq!(record.n_harvesters, harvesters, "{sources}");
            assert_eq!(record.n_stores, 1, "{sources}");
        }
    }
}
