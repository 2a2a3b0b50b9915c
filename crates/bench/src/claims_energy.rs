//! Experiments E1–E4 and E9: the survey's *energy* claims, quantified —
//! availability, buffer sizing, MPPT overhead, the quiescent/efficiency
//! trade, and storage-technology characteristics.

use std::fmt;

use mseh_core::{PortRequirement, PowerUnit, StoreRole};
use mseh_env::{EnvConditions, Environment};
use mseh_harvesters::{FlowTurbine, PvModule};
use mseh_node::{FixedDuty, SensorNode};
use mseh_power::{
    DcDcConverter, FixedPoint, FractionalVoc, IdealDiode, InputChannel, LinearRegulator,
    OperatingPointController, PerturbObserve, PowerStage,
};
use mseh_sim::{
    crossover, first_meeting, par_map, par_sweep, run_simulation, SimConfig, SweepPoint,
};
use mseh_storage::{Battery, Storage, Supercap};
use mseh_units::{DutyCycle, Farads, Joules, Ohms, Seconds, Volts, Watts, WattsPerSqM};

fn pv_channel() -> InputChannel {
    InputChannel::new(
        Box::new(PvModule::outdoor_panel_half_watt()),
        Box::new(FractionalVoc::pv_standard()),
        Box::new(IdealDiode::nanopower()),
        Box::new(DcDcConverter::mppt_front_end_5v()),
    )
}

fn wind_channel() -> InputChannel {
    InputChannel::new(
        Box::new(FlowTurbine::micro_wind()),
        Box::new(FractionalVoc::thevenin_standard()),
        Box::new(IdealDiode::nanopower()),
        Box::new(DcDcConverter::mppt_front_end_5v()),
    )
}

fn sized_cap(farads: f64, initial: Volts) -> Supercap {
    let mut cap = Supercap::new(
        format!("{farads} F EDLC"),
        Farads::new(farads),
        farads / 15.0,
        Ohms::from_milli(60.0),
        Ohms::from_kilo(15.0),
        Volts::new(0.8),
        Volts::new(2.7),
    );
    cap.set_voltage(initial);
    cap
}

/// Which sources a test platform carries.
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

fn platform(set: SourceSet, farads: f64) -> PowerUnit {
    let mut builder = PowerUnit::builder(format!("{set} rig"));
    if matches!(set, SourceSet::Solar | SourceSet::SolarPlusWind) {
        builder = builder.harvester_port(
            PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
            Some(pv_channel()),
            true,
        );
    }
    if matches!(set, SourceSet::Wind | SourceSet::SolarPlusWind) {
        builder = builder.harvester_port(
            PortRequirement::any_in_window("wind", Volts::ZERO, Volts::new(12.0)),
            Some(wind_channel()),
            true,
        );
    }
    builder
        .store_port(
            PortRequirement::any_in_window("buffer", Volts::ZERO, Volts::new(3.0)),
            Some(Box::new(sized_cap(farads, Volts::new(2.2)))),
            StoreRole::PrimaryBuffer,
            true,
        )
        .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
        .build()
}

// ------------------------------------------------------------------
// E1 — multi-source availability
// ------------------------------------------------------------------

/// One row of the E1 availability comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E1Row {
    /// The source set.
    pub sources: SourceSet,
    /// Total bus energy harvested over the horizon.
    pub harvested: Joules,
    /// Average hours per day with meaningful generation (> 50 µW on the
    /// bus).
    pub generating_hours_per_day: f64,
}

/// E1 result.
#[derive(Debug, Clone, PartialEq)]
pub struct E1Result {
    /// The three rows: solar, wind, solar+wind.
    pub rows: Vec<E1Row>,
    /// Horizon used.
    pub days: f64,
}

impl fmt::Display for E1Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E1 — availability over {} days: 'more energy … for a longer period per day'",
            self.days
        )?;
        writeln!(
            f,
            "{:>12} | {:>12} | {:>12}",
            "sources", "harvested", "gen h/day"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>12} | {:>12} | {:>12.1}",
                r.sources.to_string(),
                r.harvested.to_string(),
                r.generating_hours_per_day
            )?;
        }
        Ok(())
    }
}

/// Runs E1: the same trace, three source sets (one worker per set).
pub fn e1_multisource_availability(days: f64, seed: u64) -> E1Result {
    let env = Environment::outdoor_temperate(seed);
    let rows = par_map(&SourceSet::ALL, |&sources| {
        let mut unit = platform(sources, 22.0);
        let steps = (days * 1440.0) as usize;
        let mut harvested = Joules::ZERO;
        let mut generating_steps = 0usize;
        for minute in 0..steps {
            let t = Seconds::from_minutes(minute as f64);
            let r = unit.step(&env.conditions(t), Seconds::new(60.0), Watts::ZERO);
            harvested += r.harvested;
            if (r.harvested / Seconds::new(60.0)) > Watts::from_micro(50.0) {
                generating_steps += 1;
            }
        }
        E1Row {
            sources,
            harvested,
            generating_hours_per_day: generating_steps as f64 / 60.0 / days,
        }
    });
    E1Result { rows, days }
}

// ------------------------------------------------------------------
// E2 — buffer sizing
// ------------------------------------------------------------------

/// E2 result: the smallest zero-downtime buffer per source set.
#[derive(Debug, Clone, PartialEq)]
pub struct E2Result {
    /// Tested capacitances (F).
    pub sizes: Vec<f64>,
    /// Uptime matrix: `uptime[set][size]`.
    pub uptime: Vec<Vec<f64>>,
    /// Smallest size per source set achieving zero downtime, if any.
    pub min_zero_downtime: Vec<Option<f64>>,
    /// Horizon in days.
    pub days: f64,
}

impl fmt::Display for E2Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E2 — buffer sizing over {} days: 'the size of the energy buffer can potentially be reduced'",
            self.days
        )?;
        write!(f, "{:>12}", "size (F)")?;
        for set in SourceSet::ALL {
            write!(f, " | {:>11}", set.to_string())?;
        }
        writeln!(f)?;
        for (j, size) in self.sizes.iter().enumerate() {
            write!(f, "{size:>12.0}")?;
            for row in &self.uptime {
                write!(f, " | {:>9.2} %", row[j] * 100.0)?;
            }
            writeln!(f)?;
        }
        for (set, min) in SourceSet::ALL.iter().zip(&self.min_zero_downtime) {
            match min {
                Some(fd) => writeln!(f, "min zero-downtime buffer, {set}: {fd:.0} F")?,
                None => writeln!(f, "min zero-downtime buffer, {set}: not reached")?,
            }
        }
        Ok(())
    }
}

/// Runs E2: sweep buffer size per source set — each buffer size
/// measured on its own worker — and find the survival threshold.
pub fn e2_buffer_sizing(days: f64, seed: u64, sizes: &[f64]) -> E2Result {
    let env = Environment::outdoor_temperate(seed);
    let node = SensorNode::submilliwatt_class();
    let duty = DutyCycle::saturating(0.15);
    let mut uptime = Vec::new();
    let mut min_zero = Vec::new();
    for set in SourceSet::ALL {
        let points: Vec<SweepPoint> = par_sweep(sizes, |farads| {
            let mut unit = platform(set, farads);
            let r = run_simulation(
                &mut unit,
                &env,
                &node,
                &mut FixedDuty::new(duty),
                SimConfig::over(Seconds::from_days(days)),
            );
            r.uptime
        });
        uptime.push(points.iter().map(|p| p.outcome).collect::<Vec<_>>());
        min_zero.push(first_meeting(&points, 1.0 - 1e-9).map(|p| p.parameter));
    }
    E2Result {
        sizes: sizes.to_vec(),
        uptime,
        min_zero_downtime: min_zero,
        days,
    }
}

// ------------------------------------------------------------------
// E3 — MPPT overhead vs benefit
// ------------------------------------------------------------------

/// One operating point of the E3 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E3Point {
    /// Irradiance level.
    pub irradiance: WattsPerSqM,
    /// Net channel power (delivered − overhead) for P&O MPPT.
    pub net_perturb_observe: Watts,
    /// Net channel power for fractional-Voc MPPT.
    pub net_focv: Watts,
    /// Net channel power for the fixed operating point.
    pub net_fixed: Watts,
}

/// E3 result: net-power curves and the crossover where MPPT pays off.
#[derive(Debug, Clone, PartialEq)]
pub struct E3Result {
    /// Sweep points, irradiance-ascending.
    pub points: Vec<E3Point>,
    /// Lowest irradiance at which P&O's net beats fixed's net.
    pub po_crossover: Option<WattsPerSqM>,
    /// Lowest irradiance at which FOCV's net beats fixed's net.
    pub focv_crossover: Option<WattsPerSqM>,
}

impl fmt::Display for E3Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E3 — MPPT 'important providing that the overhead … does not exceed the delivered benefits'"
        )?;
        writeln!(
            f,
            "{:>12} | {:>12} | {:>12} | {:>12}",
            "irradiance", "P&O net", "FOCV net", "fixed net"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>12} | {:>12} | {:>12} | {:>12}",
                p.irradiance.to_string(),
                p.net_perturb_observe.to_string(),
                p.net_focv.to_string(),
                p.net_fixed.to_string()
            )?;
        }
        match self.po_crossover {
            Some(g) => writeln!(f, "P&O overtakes fixed above {g}")?,
            None => writeln!(f, "P&O never overtakes fixed in this range")?,
        }
        match self.focv_crossover {
            Some(g) => writeln!(f, "FOCV overtakes fixed above {g}")?,
            None => writeln!(f, "FOCV never overtakes fixed in this range")?,
        }
        Ok(())
    }
}

fn channel_with(controller: Box<dyn OperatingPointController>) -> InputChannel {
    InputChannel::new(
        Box::new(PvModule::outdoor_panel_half_watt()),
        controller,
        Box::new(IdealDiode::nanopower()),
        Box::new(DcDcConverter::mppt_front_end_5v()),
    )
}

/// Net steady-state channel power under constant conditions.
fn settle_net(channel: &mut InputChannel, env: &EnvConditions) -> Watts {
    let mut last = Watts::ZERO;
    for _ in 0..400 {
        last = channel.step(env, Seconds::new(1.0)).net();
    }
    last
}

/// Runs E3 over the given irradiance grid.
pub fn e3_mppt_overhead(irradiances: &[f64]) -> E3Result {
    let mut points = Vec::with_capacity(irradiances.len());
    for &g in irradiances {
        let mut env = EnvConditions::quiescent(Seconds::ZERO);
        env.irradiance = WattsPerSqM::new(g);
        let mut po = channel_with(Box::new(PerturbObserve::new()));
        let mut focv = channel_with(Box::new(FractionalVoc::pv_standard()));
        // The fixed point is the deployment-time compromise System B's
        // demonstration modules use: tuned for the middle of the expected
        // light range, so it mismatches at both ends.
        let mut fixed = channel_with(Box::new(FixedPoint::new(Volts::new(3.6))));
        points.push(E3Point {
            irradiance: WattsPerSqM::new(g),
            net_perturb_observe: settle_net(&mut po, &env),
            net_focv: settle_net(&mut focv, &env),
            net_fixed: settle_net(&mut fixed, &env),
        });
    }
    let series = |pick: fn(&E3Point) -> Watts| -> Vec<SweepPoint> {
        points
            .iter()
            .map(|p| SweepPoint {
                parameter: p.irradiance.value(),
                outcome: pick(p).value(),
            })
            .collect()
    };
    let fixed = series(|p| p.net_fixed);
    let overtakes_fixed =
        |pick: fn(&E3Point) -> Watts| crossover(&series(pick), &fixed).map(WattsPerSqM::new);
    E3Result {
        po_crossover: overtakes_fixed(|p| p.net_perturb_observe),
        focv_crossover: overtakes_fixed(|p| p.net_focv),
        points,
    }
}

// ------------------------------------------------------------------
// E4 — output-stage quiescent vs efficiency
// ------------------------------------------------------------------

/// One duty point of the E4 comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E4Point {
    /// Node duty cycle.
    pub duty: f64,
    /// End-to-end efficiency (load energy out / store energy in) through
    /// the LDO.
    pub eta_ldo: f64,
    /// End-to-end efficiency through the buck-boost.
    pub eta_buck_boost: f64,
}

/// E4 result.
#[derive(Debug, Clone, PartialEq)]
pub struct E4Result {
    /// Duty sweep points, ascending.
    pub points: Vec<E4Point>,
    /// First duty at which the buck-boost's end-to-end efficiency beats
    /// the LDO's.
    pub converter_wins_above: Option<f64>,
}

impl fmt::Display for E4Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E4 — output stage: 'a compromise between its conversion efficiency and quiescent current draw'"
        )?;
        writeln!(
            f,
            "{:>8} | {:>10} | {:>12}",
            "duty", "LDO η", "buck-boost η"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>7.3} | {:>9.1} % | {:>11.1} %",
                p.duty,
                p.eta_ldo * 100.0,
                p.eta_buck_boost * 100.0
            )?;
        }
        match self.converter_wins_above {
            Some(d) => writeln!(f, "the switching stage wins above duty {d:.3}")?,
            None => writeln!(f, "the LDO wins across the whole sweep")?,
        }
        Ok(())
    }
}

/// Runs E4: end-to-end output efficiency vs duty cycle for the two
/// output-stage families, from a 3.8 V store, with the converter sized
/// for the node's load (an oversized converter never leaves its
/// light-load region and loses everywhere — part of the design lesson).
pub fn e4_quiescent_tradeoff(duties: &[f64]) -> E4Result {
    let node = SensorNode::milliwatt_class();
    let store_v = Volts::new(3.8);
    let horizon = Seconds::from_hours(1.0);

    let eta_for = |stage: &dyn PowerStage, duty: f64| -> f64 {
        let load = node.average_power(DutyCycle::saturating(duty));
        let out = load * horizon;
        let input = stage.input_for_output(load, store_v) * horizon + stage.quiescent() * horizon;
        if input.value() <= 0.0 {
            0.0
        } else {
            (out / input).clamp(0.0, 1.0)
        }
    };

    let ldo = LinearRegulator::ldo_3v0();
    let bb = DcDcConverter::new(
        "load-sized buck-boost",
        mseh_power::Topology::BuckBoost,
        Volts::new(0.5),
        Volts::new(5.5),
        Volts::new(3.3),
        mseh_power::EfficiencyCurve::switching_small(),
        Watts::from_milli(20.0),
        Volts::new(3.3) * mseh_units::Amps::from_micro(5.0),
    );
    let points: Vec<E4Point> = duties
        .iter()
        .map(|&duty| E4Point {
            duty,
            eta_ldo: eta_for(&ldo, duty),
            eta_buck_boost: eta_for(&bb, duty),
        })
        .collect();
    let converter_wins_above = points
        .iter()
        .find(|p| p.eta_buck_boost > p.eta_ldo)
        .map(|p| p.duty);
    E4Result {
        points,
        converter_wins_above,
    }
}

// ------------------------------------------------------------------
// E9 — storage-technology characteristics
// ------------------------------------------------------------------

/// One storage technology's measured characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct E9Row {
    /// Device name.
    pub name: String,
    /// Usable capacity.
    pub capacity: Joules,
    /// Round-trip efficiency at a moderate rate.
    pub round_trip_eta: f64,
    /// Fraction of a full charge remaining after 72 h idle.
    pub retention_72h: f64,
    /// Usable terminal-voltage window.
    pub window: (Volts, Volts),
}

/// E9 result: storage characteristics table (refs \[9\], \[10\] of the
/// survey).
#[derive(Debug, Clone, PartialEq)]
pub struct E9Result {
    /// One row per technology.
    pub rows: Vec<E9Row>,
}

impl fmt::Display for E9Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E9 — storage characteristics (survey refs [9], [10])")?;
        writeln!(
            f,
            "{:>28} | {:>10} | {:>9} | {:>10} | window",
            "device", "capacity", "RT η", "72 h ret."
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>28} | {:>10} | {:>7.1} % | {:>8.1} % | {}..{}",
                r.name,
                r.capacity.to_string(),
                r.round_trip_eta * 100.0,
                r.retention_72h * 100.0,
                r.window.0,
                r.window.1
            )?;
        }
        Ok(())
    }
}

fn characterize(mut device: Box<dyn Storage>, rate: Watts) -> E9Row {
    // Round trip: charge from empty for a bounded time, then discharge
    // fully.
    let mut put = Joules::ZERO;
    for _ in 0..2000 {
        let taken = device.charge(rate, Seconds::new(60.0));
        put += taken;
        if taken.value() <= 0.0 {
            break;
        }
    }
    let mut got = Joules::ZERO;
    for _ in 0..4000 {
        let out = device.discharge(rate, Seconds::new(60.0));
        got += out;
        if out.value() <= 0.0 {
            break;
        }
    }
    let round_trip_eta = if put.value() > 0.0 {
        (got / put).clamp(0.0, 1.0)
    } else {
        // Non-rechargeable: report discharge-side efficiency as 1:1
        // against its own stored energy (round trip undefined).
        1.0
    };
    // Retention: fill again (or use remaining for primaries), idle 72 h.
    for _ in 0..2000 {
        if device.charge(rate, Seconds::new(60.0)).value() <= 0.0 {
            break;
        }
    }
    let before = device.stored_energy();
    device.idle(Seconds::from_hours(72.0));
    let retention = if before.value() > 0.0 {
        (device.stored_energy() / before).clamp(0.0, 1.0)
    } else {
        1.0
    };
    E9Row {
        name: device.name().to_owned(),
        capacity: device.capacity(),
        round_trip_eta,
        retention_72h: retention,
        window: (device.min_voltage(), device.max_voltage()),
    }
}

/// Runs E9 across the storage menagerie.
pub fn e9_storage_characteristics() -> E9Result {
    let rows = vec![
        characterize(Box::new(Supercap::edlc_22f()), Watts::from_milli(100.0)),
        characterize(
            Box::new(Supercap::lithium_ion_capacitor_40f()),
            Watts::from_milli(100.0),
        ),
        characterize(Box::new(Battery::lipo_400mah()), Watts::from_milli(100.0)),
        characterize(Box::new(Battery::nimh_aa_pair()), Watts::from_milli(100.0)),
        characterize(
            Box::new(Battery::thin_film_50uah()),
            Watts::from_micro(100.0),
        ),
    ];
    E9Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_multi_source_dominates() {
        let r = e1_multisource_availability(2.0, 7);
        let solar = &r.rows[0];
        let wind = &r.rows[1];
        let both = &r.rows[2];
        // More energy...
        assert!(both.harvested > solar.harvested);
        assert!(both.harvested > wind.harvested);
        // ...for a longer period per day.
        assert!(both.generating_hours_per_day >= solar.generating_hours_per_day - 1e-9);
        assert!(both.generating_hours_per_day >= wind.generating_hours_per_day - 1e-9);
        assert!(r.to_string().contains("gen h/day"));
    }

    #[test]
    fn e3_fixed_wins_in_the_dark_mppt_wins_in_the_sun() {
        let r = e3_mppt_overhead(&[2.0, 20.0, 200.0, 800.0]);
        let first = &r.points[0];
        let last = &r.points[3];
        // At 2 W/m² the trackers' overhead exceeds their gain.
        assert!(first.net_fixed >= first.net_perturb_observe, "{first:?}");
        // In bright sun P&O dominates.
        assert!(last.net_perturb_observe > last.net_fixed, "{last:?}");
        assert!(r.po_crossover.is_some());
    }

    #[test]
    fn e4_ldo_wins_light_loads_converter_wins_heavy() {
        let r = e4_quiescent_tradeoff(&[0.0005, 0.005, 0.05, 0.5]);
        let lightest = &r.points[0];
        let heaviest = &r.points[3];
        assert!(lightest.eta_ldo > lightest.eta_buck_boost, "{lightest:?}");
        assert!(heaviest.eta_buck_boost > heaviest.eta_ldo, "{heaviest:?}");
        assert!(r.converter_wins_above.is_some());
    }

    #[test]
    fn e9_chemistry_signatures() {
        let r = e9_storage_characteristics();
        let by_name = |needle: &str| {
            r.rows
                .iter()
                .find(|row| row.name.contains(needle))
                .unwrap_or_else(|| panic!("{needle} missing"))
        };
        let edlc = by_name("22 F");
        let lipo = by_name("LiPo");
        let nimh = by_name("NiMH");
        let thin = by_name("thin-film");
        // The battery's round trip beats the leaky supercap's.
        assert!(lipo.round_trip_eta > 0.85);
        // NiMH self-discharge is the worst of the batteries.
        assert!(nimh.retention_72h < lipo.retention_72h);
        assert!(thin.retention_72h > 0.99);
        // The supercap loses charge fastest of all.
        assert!(edlc.retention_72h < nimh.retention_72h);
    }
}
