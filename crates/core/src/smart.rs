//! The "smart harvester" scheme — the survey's proposed future direction.
//!
//! "An open research challenge … is the development of a 'smart harvester'
//! scheme. This would require each energy harvester and storage device to
//! be energy-aware, operating with a common hardware interface and
//! incorporating a low-power microprocessor to interface with each other
//! and the embedded device."
//!
//! The model: every module carries its own micro-manager (datasheet,
//! local operating-point control, event-driven status reporting). The
//! network is coordinator-free — attaching a module *announces* it, so
//! discovery is immediate, and modules push status changes instead of
//! being polled. The price is a standing MCU overhead per module, which
//! experiment E8 weighs against the reactivity gained.

use crate::datasheet::ElectronicDatasheet;
use crate::power_unit::{load_draw, shortfall_split, BusHarvest, StepReport};
use mseh_env::EnvConditions;
use mseh_power::InputChannel;
use mseh_storage::Storage;
use mseh_units::{Joules, Seconds, Volts, Watts};

/// What a smart module wraps.
pub enum SmartPayload {
    /// A harvester with its own local conditioning and tracker
    /// (boxed: an `InputChannel` dwarfs the storage variant's fat
    /// pointer).
    Harvester(Box<InputChannel>),
    /// A storage device with its own gauge.
    Storage(Box<dyn Storage>),
}

/// One self-managing energy module.
pub struct SmartModule {
    datasheet: ElectronicDatasheet,
    payload: SmartPayload,
    /// Standing draw of the module's micro-manager.
    mcu_overhead: Watts,
    /// Last reported power (for event-driven reporting).
    last_reported: Watts,
}

impl SmartModule {
    /// The standing draw of one module micro-manager: 3 µW (a sleepy
    /// sub-threshold MCU).
    pub const DEFAULT_MCU_OVERHEAD: Watts = Watts::new(3e-6);

    /// Wraps a harvester channel as a smart module.
    pub fn harvester(datasheet: ElectronicDatasheet, channel: InputChannel) -> Self {
        Self {
            datasheet,
            payload: SmartPayload::Harvester(Box::new(channel)),
            mcu_overhead: Self::DEFAULT_MCU_OVERHEAD,
            last_reported: Watts::ZERO,
        }
    }

    /// Wraps a storage device as a smart module.
    pub fn storage(datasheet: ElectronicDatasheet, device: Box<dyn Storage>) -> Self {
        Self {
            datasheet,
            payload: SmartPayload::Storage(device),
            mcu_overhead: Self::DEFAULT_MCU_OVERHEAD,
            last_reported: Watts::ZERO,
        }
    }

    /// The module's datasheet.
    pub fn datasheet(&self) -> &ElectronicDatasheet {
        &self.datasheet
    }

    /// The module micro-manager's standing draw.
    pub fn mcu_overhead(&self) -> Watts {
        self.mcu_overhead
    }
}

/// A coordinator-free network of smart modules plus an output stage.
///
/// # Examples
///
/// ```
/// use mseh_core::{SmartNetwork, SmartModule, ElectronicDatasheet};
/// use mseh_power::{InputChannel, PerturbObserve, DcDcConverter, IdealDiode};
/// use mseh_harvesters::{PvModule, HarvesterKind};
/// use mseh_units::Watts;
///
/// let mut net = SmartNetwork::new(Box::new(DcDcConverter::buck_boost_3v3()));
/// let channel = InputChannel::new(
///     Box::new(PvModule::outdoor_panel_half_watt()),
///     Box::new(PerturbObserve::new()),
///     Box::new(IdealDiode::nanopower()),
///     Box::new(DcDcConverter::mppt_front_end_5v()),
/// );
/// net.attach(SmartModule::harvester(
///     ElectronicDatasheet::harvester("PV-07", HarvesterKind::Photovoltaic,
///         Watts::from_milli(500.0)),
///     channel,
/// ));
/// // Discovery is immediate: one announcement, no polling.
/// assert_eq!(net.announcements(), 1);
/// ```
pub struct SmartNetwork {
    modules: Vec<SmartModule>,
    output: Box<dyn mseh_power::PowerStage>,
    announcements: u64,
    status_events: u64,
    /// Relative power change that triggers a status push.
    report_threshold: f64,
}

impl SmartNetwork {
    /// Creates an empty network with the given output stage.
    pub fn new(output: Box<dyn mseh_power::PowerStage>) -> Self {
        Self {
            modules: Vec::new(),
            output,
            announcements: 0,
            status_events: 0,
            report_threshold: 0.2,
        }
    }

    /// Attaches a module; it announces itself immediately (datasheet read
    /// included in the announcement — zero-latency discovery).
    pub fn attach(&mut self, module: SmartModule) {
        self.announcements += 1;
        self.modules.push(module);
    }

    /// Detaches the module at `index`, if present.
    pub fn detach(&mut self, index: usize) -> Option<SmartModule> {
        if index < self.modules.len() {
            Some(self.modules.remove(index))
        } else {
            None
        }
    }

    /// The attached modules.
    pub fn modules(&self) -> &[SmartModule] {
        &self.modules
    }

    /// Announcements heard so far (one per attach).
    pub fn announcements(&self) -> u64 {
        self.announcements
    }

    /// Event-driven status pushes so far.
    pub fn status_events(&self) -> u64 {
        self.status_events
    }

    /// Standing overhead of all module micro-managers plus the output
    /// stage — the scheme's structural cost.
    pub fn standing_overhead(&self) -> Watts {
        let mcus: Watts = self.modules.iter().map(|m| m.mcu_overhead).sum();
        mcus + self.output.quiescent()
    }

    /// The working store voltage: the first *non-depleted* storage
    /// module's terminal voltage (falling back to the first storage
    /// module when all are empty).
    pub fn store_voltage(&self) -> Volts {
        let stores: Vec<&Box<dyn Storage>> = self
            .modules
            .iter()
            .filter_map(|m| match &m.payload {
                SmartPayload::Storage(d) => Some(d),
                SmartPayload::Harvester(_) => None,
            })
            .collect();
        stores
            .iter()
            .find(|d| !d.is_depleted())
            .or_else(|| stores.first())
            .map(|d| d.voltage())
            .unwrap_or(Volts::ZERO)
    }

    /// Total stored energy across storage modules.
    pub fn stored_energy(&self) -> Joules {
        self.modules
            .iter()
            .filter_map(|m| match &m.payload {
                SmartPayload::Storage(d) => Some(d.stored_energy()),
                SmartPayload::Harvester(_) => None,
            })
            .sum()
    }

    /// Total internal dissipation across storage modules (for the
    /// conservation audit).
    pub fn storage_losses(&self) -> Joules {
        self.modules
            .iter()
            .filter_map(|m| match &m.payload {
                SmartPayload::Storage(d) => Some(d.losses()),
                SmartPayload::Harvester(_) => None,
            })
            .sum()
    }

    /// Total actual capacity across attached storage modules (the
    /// simulation kernel's fault-fire detection watches for drops).
    pub fn storage_capacity(&self) -> Joules {
        self.modules
            .iter()
            .filter_map(|m| match &m.payload {
                SmartPayload::Storage(d) => Some(d.capacity()),
                SmartPayload::Harvester(_) => None,
            })
            .sum()
    }

    /// The network-wide energy status (smart modules report everything).
    pub fn energy_status(&self) -> mseh_node::EnergyStatus {
        let cap: Joules = self
            .modules
            .iter()
            .filter_map(|m| match &m.payload {
                SmartPayload::Storage(d) => Some(d.capacity()),
                SmartPayload::Harvester(_) => None,
            })
            .sum();
        let stored = self.stored_energy();
        let soc = if cap.value() > 0.0 {
            stored.value() / cap.value()
        } else {
            0.0
        };
        let last_harvest: Watts = self.modules.iter().map(|m| m.last_reported).sum();
        mseh_node::EnergyStatus::full(
            self.store_voltage(),
            mseh_units::Ratio::new(soc),
            stored,
            last_harvest,
        )
    }

    /// Advances the network one interval, serving `load` at the output:
    /// exactly [`settle`](Self::settle) applied to
    /// [`harvest`](Self::harvest).
    pub fn step(&mut self, env: &EnvConditions, dt: Seconds, load: Watts) -> StepReport {
        let harvest = self.harvest(env, dt);
        self.settle(&harvest, dt, load)
    }

    /// The harvest half of [`step`](Self::step): every harvester module
    /// tracks locally through `env` for `dt` (the scheme's reactivity),
    /// in attachment order. Touches nothing but the channels.
    pub fn harvest(&mut self, env: &EnvConditions, dt: Seconds) -> BusHarvest {
        let mut harvest = BusHarvest::default();
        for module in &mut self.modules {
            if let SmartPayload::Harvester(channel) = &mut module.payload {
                let step = channel.step(env, dt);
                harvest.push(step.delivered, step.overhead);
            }
        }
        harvest
    }

    /// The settle half of [`step`](Self::step): harvester modules whose
    /// output in `harvest` moved more than the report threshold push a
    /// status event, then the network serves `load` and balances the
    /// harvest against its storage modules. The harvest may come from
    /// this network or from an identically built one stepped through the
    /// same conditions; the channels here are left untouched.
    pub fn settle(&mut self, harvest: &BusHarvest, dt: Seconds, load: Watts) -> StepReport {
        let harvested_w = harvest.delivered;
        let mut overhead_w = self.output.quiescent();
        let mut channels = harvest.channels();
        for module in &mut self.modules {
            overhead_w += module.mcu_overhead;
            let SmartPayload::Harvester(_) = module.payload else {
                continue;
            };
            let Some((delivered, overhead)) = channels.next() else {
                continue;
            };
            overhead_w += overhead;
            // Event-driven reporting on significant change.
            let prev = module.last_reported.value();
            let scale = prev.abs().max(1e-9);
            if (delivered.value() - prev).abs() / scale > self.report_threshold {
                self.status_events += 1;
                module.last_reported = delivered;
            }
        }

        let (load_in_w, servable) = load_draw(&*self.output, load, self.store_voltage());
        let e_h = harvested_w * dt;
        let e_load_in = load_in_w * dt;
        let e_ov = overhead_w * dt;
        let demand = e_load_in + e_ov;

        let mut charged = Joules::ZERO;
        let mut discharged = Joules::ZERO;
        let mut spilled = Joules::ZERO;
        let mut unmet = Joules::ZERO;

        if e_h >= demand {
            let mut surplus = e_h - demand;
            for module in &mut self.modules {
                if surplus.value() <= 0.0 {
                    break;
                }
                if let SmartPayload::Storage(d) = &mut module.payload {
                    let taken = d.charge(surplus / dt, dt);
                    charged += taken;
                    surplus -= taken;
                }
            }
            spilled = surplus.max(Joules::ZERO);
        } else {
            let mut deficit = demand - e_h;
            for module in &mut self.modules {
                if deficit.value() <= 0.0 {
                    break;
                }
                if let SmartPayload::Storage(d) = &mut module.payload {
                    let got = d.discharge(deficit / dt, dt);
                    discharged += got;
                    deficit -= got;
                }
            }
            unmet = deficit.max(Joules::ZERO);
        }

        for module in &mut self.modules {
            if let SmartPayload::Storage(d) = &mut module.payload {
                d.idle(dt);
            }
        }

        let (delivered, shortfall, converter_loss) =
            shortfall_split(load, dt, servable, e_load_in, unmet);

        StepReport {
            harvested: e_h,
            delivered,
            shortfall,
            overhead: e_ov,
            charged,
            discharged,
            spilled,
            converter_loss,
            store_voltage: self.store_voltage(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_harvesters::{HarvesterKind, PvModule};
    use mseh_power::{DcDcConverter, IdealDiode, PerturbObserve};
    use mseh_storage::{StorageKind, Supercap};
    use mseh_units::WattsPerSqM;

    fn pv_module() -> SmartModule {
        let channel = InputChannel::new(
            Box::new(PvModule::outdoor_panel_half_watt()),
            Box::new(PerturbObserve::new()),
            Box::new(IdealDiode::nanopower()),
            Box::new(DcDcConverter::mppt_front_end_5v()),
        );
        SmartModule::harvester(
            ElectronicDatasheet::harvester(
                "PV-07",
                HarvesterKind::Photovoltaic,
                Watts::from_milli(500.0),
            ),
            channel,
        )
    }

    fn cap_module() -> SmartModule {
        let cap = Supercap::edlc_22f();
        let sheet = ElectronicDatasheet::storage(
            "SC-22",
            StorageKind::Supercapacitor,
            Watts::from_milli(500.0),
            cap.capacity(),
        );
        SmartModule::storage(sheet, Box::new(cap))
    }

    fn sunny() -> EnvConditions {
        let mut env = EnvConditions::quiescent(Seconds::ZERO);
        env.irradiance = WattsPerSqM::new(800.0);
        env
    }

    #[test]
    fn attach_announces_immediately() {
        let mut net = SmartNetwork::new(Box::new(DcDcConverter::buck_boost_3v3()));
        assert_eq!(net.announcements(), 0);
        net.attach(pv_module());
        net.attach(cap_module());
        assert_eq!(net.announcements(), 2);
        assert_eq!(net.modules().len(), 2);
        assert_eq!(net.modules()[0].datasheet().model, "PV-07");
    }

    #[test]
    fn network_harvests_and_buffers() {
        let mut net = SmartNetwork::new(Box::new(DcDcConverter::buck_boost_3v3()));
        net.attach(pv_module());
        net.attach(cap_module());
        let mut report = StepReport::default();
        for _ in 0..120 {
            report = net.step(&sunny(), Seconds::new(60.0), Watts::from_milli(1.0));
        }
        assert!(report.harvested.value() > 0.0);
        assert!(report.fully_served());
        assert!(net.stored_energy().value() > 0.0);
    }

    #[test]
    fn status_events_fire_on_source_change() {
        let mut net = SmartNetwork::new(Box::new(DcDcConverter::buck_boost_3v3()));
        net.attach(pv_module());
        net.attach(cap_module());
        for _ in 0..50 {
            net.step(&sunny(), Seconds::new(60.0), Watts::ZERO);
        }
        let before = net.status_events();
        // The sun dies: modules push the change.
        let dark = EnvConditions::quiescent(Seconds::ZERO);
        net.step(&dark, Seconds::new(60.0), Watts::ZERO);
        assert!(net.status_events() > before);
    }

    #[test]
    fn standing_overhead_scales_with_module_count() {
        let mut net = SmartNetwork::new(Box::new(DcDcConverter::buck_boost_3v3()));
        let base = net.standing_overhead();
        net.attach(pv_module());
        net.attach(cap_module());
        let with_two = net.standing_overhead();
        assert!(
            (with_two - base - SmartModule::DEFAULT_MCU_OVERHEAD * 2.0)
                .abs()
                .value()
                < 1e-12
        );
    }

    #[test]
    fn detach_removes_module() {
        let mut net = SmartNetwork::new(Box::new(DcDcConverter::buck_boost_3v3()));
        net.attach(pv_module());
        assert!(net.detach(0).is_some());
        assert!(net.detach(0).is_none());
        assert!(net.modules().is_empty());
    }
}
