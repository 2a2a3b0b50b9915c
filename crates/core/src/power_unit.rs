//! The [`PowerUnit`]: the composable multi-source harvesting platform at
//! the heart of the library.
//!
//! A power unit owns harvester input ports, storage ports with roles, an
//! output-conditioning stage and a supervisor; [`PowerUnit::step`]
//! advances the whole energy system one interval, moving power from
//! sources through conditioning into stores and out to the load, with
//! every joule accounted for (the conservation identity is part of the
//! public contract and is property-tested).

use mseh_env::EnvConditions;
use mseh_harvesters::{CacheStats, Transducer};
use mseh_node::{EnergyStatus, MonitoringLevel};
use mseh_power::{InputChannel, PowerStage};
use mseh_storage::Storage;
use mseh_units::{Joules, Ratio, Seconds, Volts, Watts};

use crate::adc::AdcModel;
use crate::compat::{CompatError, PortRequirement};
use crate::datasheet::ElectronicDatasheet;
use crate::taxonomy::{ConditioningPlacement, IntelligenceLocation, InterfaceKind};

/// The role a storage port plays in the unit's energy strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StoreRole {
    /// First to charge, first to discharge (the working buffer —
    /// typically a supercapacitor).
    PrimaryBuffer,
    /// Charged after the primary, discharged when the primary empties
    /// (typically a rechargeable battery).
    SecondaryBuffer,
    /// Never charged; engaged only when every buffer is exhausted
    /// (System A's fuel cell, System B's primary lithium cell).
    Backup,
}

impl StoreRole {
    /// Every role in charge/discharge priority order (the `Ord` order).
    /// Iterating ports rank-by-rank in declaration order reproduces a
    /// stable sort by role without allocating — the hot loop's ordering
    /// contract.
    pub const PRIORITY: [StoreRole; 3] = [
        StoreRole::PrimaryBuffer,
        StoreRole::SecondaryBuffer,
        StoreRole::Backup,
    ];
}

/// The supervisory arrangement: who is energy-aware, what they can see,
/// and how they talk to the embedded device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Supervisor {
    /// Where the intelligence runs.
    pub location: IntelligenceLocation,
    /// What the node is allowed to see.
    pub monitoring: MonitoringLevel,
    /// How node and energy hardware communicate.
    pub interface: InterfaceKind,
    /// Standing draw of the supervisory circuitry (zero when there is
    /// none).
    pub overhead: Watts,
}

impl Supervisor {
    /// No intelligence on board, no interface, no cost.
    pub fn none() -> Self {
        Self {
            location: IntelligenceLocation::None,
            monitoring: MonitoringLevel::None,
            interface: InterfaceKind::None,
            overhead: Watts::ZERO,
        }
    }

    /// The survey's "smart harvester": intelligence on the energy devices
    /// ([`IntelligenceLocation::EnergyDevices`]), one module micro-manager
    /// per occupied port ([`PowerUnit::MODULE_DRAW`]) pushing status over
    /// a digital link, and no central supervisor drawing anything.
    pub fn devolved() -> Self {
        Self {
            location: IntelligenceLocation::EnergyDevices,
            monitoring: MonitoringLevel::Full,
            interface: InterfaceKind::Digital { two_way: true },
            overhead: Watts::ZERO,
        }
    }
}

/// Relative change of a harvester module's delivered power that makes a
/// devolved unit's module push a status event.
const REPORT_THRESHOLD: f64 = 0.2;

/// One harvester input port.
pub struct HarvesterPort {
    requirement: PortRequirement,
    channel: Option<InputChannel>,
    swappable: bool,
    /// What this port's module last pushed (devolved units only).
    reported: Watts,
}

/// One storage port.
pub struct StorePort {
    requirement: PortRequirement,
    device: Option<Box<dyn Storage>>,
    role: StoreRole,
    swappable: bool,
    /// The capacity the unit's software *believes* the device has. On
    /// datasheet-capable units this follows swaps; on the others it stays
    /// at the commissioning value — the mismatch Table I warns about.
    recognized_capacity: Joules,
}

/// Cumulative energy totals since construction (all bus-side joules).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyTotals {
    /// Energy delivered onto the bus by all input channels.
    pub harvested: Joules,
    /// Energy delivered to the load at the output rail.
    pub delivered: Joules,
    /// Load energy that could not be served (brown-out).
    pub shortfall: Joules,
    /// Housekeeping energy (channels + supervisor + output stage).
    pub overhead: Joules,
    /// Energy pushed into stores (bus side).
    pub charged: Joules,
    /// Energy drawn from stores (bus side).
    pub discharged: Joules,
    /// Surplus harvest no store could accept (dumped).
    pub spilled: Joules,
}

/// The outcome of one [`PowerUnit::step`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepReport {
    /// Harvested bus energy this step.
    pub harvested: Joules,
    /// Load energy actually delivered at the output rail.
    pub delivered: Joules,
    /// Load energy that went unserved.
    pub shortfall: Joules,
    /// Housekeeping energy this step.
    pub overhead: Joules,
    /// Bus energy into stores.
    pub charged: Joules,
    /// Bus energy out of stores.
    pub discharged: Joules,
    /// Dumped surplus.
    pub spilled: Joules,
    /// Output-stage conversion loss: bus energy drawn for the load
    /// minus what reached the load rail (zero when nothing was served).
    pub converter_loss: Joules,
    /// Primary-store terminal voltage after the step.
    pub store_voltage: Volts,
}

impl StepReport {
    /// Whether the load was fully served this step.
    pub fn fully_served(&self) -> bool {
        self.shortfall.value() <= 1e-12
    }
}

/// Channels a [`BusHarvest`] holds without allocating: every Table-I
/// platform fits (System B's six slots at most); larger units spill the
/// rest to the heap.
const INLINE_CHANNELS: usize = 6;

/// The harvest half of one [`PowerUnit::step`]: what the input channels
/// put on the bus, solved before any load or store is consulted.
///
/// Each channel sees only the ambient conditions and the step width, so
/// identically built platforms stepped through the same conditions
/// produce identical harvests. That lets one platform
/// [`harvest`](PowerUnit::harvest) and many [`settle`](PowerUnit::settle)
/// against the result, bit for bit as if each had stepped its own
/// channels.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BusHarvest {
    /// Power delivered onto the bus, summed over channels in port order.
    pub delivered: Watts,
    inline: [(Watts, Watts); INLINE_CHANNELS],
    channels: usize,
    spill: Vec<(Watts, Watts)>,
}

impl BusHarvest {
    pub(crate) fn push(&mut self, delivered: Watts, overhead: Watts) {
        self.delivered += delivered;
        match self.inline.get_mut(self.channels) {
            Some(slot) => *slot = (delivered, overhead),
            None => self.spill.push((delivered, overhead)),
        }
        self.channels += 1;
    }

    /// Each channel's `(delivered, overhead)`, in port order. The
    /// overheads stay separate because a settle folds them one by one
    /// onto the platform's own draw, the order a full step has always
    /// summed them in.
    pub fn channels(&self) -> impl Iterator<Item = (Watts, Watts)> + '_ {
        self.inline[..self.channels.min(INLINE_CHANNELS)]
            .iter()
            .chain(&self.spill)
            .copied()
    }
}

/// What `load` draws through the output stage at store voltage
/// `store_v`: the bus-side input power, and whether the stage can serve
/// the load at all. An idle load draws nothing and counts as served.
///
/// This and [`shortfall_split`] are [`PowerUnit::settle`]'s load
/// arithmetic, shared with the simulator's lane kernels so the two
/// cannot drift apart.
#[inline]
pub fn load_draw<S: PowerStage + ?Sized>(output: &S, load: Watts, store_v: Volts) -> (Watts, bool) {
    if load.value() > 0.0 {
        if output.accepts_input_voltage(store_v) {
            (output.input_for_output(load, store_v), true)
        } else {
            (Watts::ZERO, false)
        }
    } else {
        (Watts::ZERO, true)
    }
}

/// Splits one step's load energy once the bus has balanced: the load's
/// bus-side draw `e_load_in` takes the `unmet` energy first, and the
/// served fraction scales what reaches the rail. Returns `(delivered,
/// shortfall, converter_loss)`; an unservable load (see [`load_draw`])
/// is short in full.
#[inline]
pub fn shortfall_split(
    load: Watts,
    dt: Seconds,
    servable: bool,
    e_load_in: Joules,
    unmet: Joules,
) -> (Joules, Joules, Joules) {
    if !servable {
        (Joules::ZERO, load * dt, Joules::ZERO)
    } else if e_load_in.value() > 0.0 {
        let load_unmet = unmet.min(e_load_in);
        let served_in = e_load_in - load_unmet;
        let served_fraction = (served_in / e_load_in).clamp(0.0, 1.0);
        let full_load = load * dt;
        let delivered = full_load * served_fraction;
        (
            delivered,
            full_load * (1.0 - served_fraction),
            (served_in - delivered).max(Joules::ZERO),
        )
    } else {
        (Joules::ZERO, Joules::ZERO, Joules::ZERO)
    }
}

/// A multi-source energy-harvesting power unit.
///
/// Construct with [`PowerUnit::builder`]; the seven surveyed platforms in
/// `mseh-systems` are preconfigured instances of this type.
///
/// A unit placed on [`IntelligenceLocation::EnergyDevices`]
/// ([`Supervisor::devolved`]) is the survey's "smart harvester": each
/// occupied port is a module drawing [`MODULE_DRAW`](Self::MODULE_DRAW),
/// and each harvester module pushes its delivered power to the node
/// when it moves by more than a fifth ([`status_events`](Self::status_events)).
///
/// # Examples
///
/// ```
/// use mseh_core::{PowerUnit, StoreRole, Supervisor, PortRequirement};
/// use mseh_power::{InputChannel, FractionalVoc, DcDcConverter, IdealDiode};
/// use mseh_harvesters::{PvModule, HarvesterKind};
/// use mseh_storage::Supercap;
/// use mseh_env::Environment;
/// use mseh_units::{Seconds, Volts, Watts};
///
/// let channel = InputChannel::new(
///     Box::new(PvModule::outdoor_panel_half_watt()),
///     Box::new(FractionalVoc::pv_standard()),
///     Box::new(IdealDiode::nanopower()),
///     Box::new(DcDcConverter::mppt_front_end_5v()),
/// );
/// let mut unit = PowerUnit::builder("demo")
///     .harvester_port(
///         PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
///         Some(channel),
///         true,
///     )
///     .store_port(
///         PortRequirement::any_in_window("buffer", Volts::ZERO, Volts::new(3.0)),
///         Some(Box::new(Supercap::edlc_22f())),
///         StoreRole::PrimaryBuffer,
///         true,
///     )
///     .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
///     .build();
///
/// let env = Environment::outdoor_temperate(1);
/// let noon = env.conditions(Seconds::from_hours(12.0));
/// let report = unit.step(&noon, Seconds::new(60.0), Watts::from_milli(2.0));
/// assert!(report.harvested.value() > 0.0);
/// ```
pub struct PowerUnit {
    name: String,
    harvester_ports: Vec<HarvesterPort>,
    store_ports: Vec<StorePort>,
    output: Box<dyn PowerStage>,
    supervisor: Supervisor,
    conditioning: ConditioningPlacement,
    node_on_power_unit: bool,
    commercial: bool,
    datasheet_capable: bool,
    shared_ports: Option<usize>,
    sense_adc: Option<AdcModel>,
    totals: EnergyTotals,
    last_harvest: Watts,
    status_events: u64,
}

impl PowerUnit {
    /// The standing draw of one module micro-manager on a devolved unit:
    /// 3 µW, a sleepy sub-threshold MCU.
    pub const MODULE_DRAW: Watts = Watts::new(3e-6);

    /// Starts building a unit.
    pub fn builder(name: impl Into<String>) -> PowerUnitBuilder {
        PowerUnitBuilder {
            name: name.into(),
            harvester_ports: Vec::new(),
            store_ports: Vec::new(),
            output: None,
            supervisor: Supervisor::none(),
            conditioning: ConditioningPlacement::PowerUnit,
            node_on_power_unit: false,
            commercial: false,
            datasheet_capable: false,
            shared_ports: None,
            sense_adc: None,
        }
    }

    /// The unit's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The supervisory arrangement.
    pub fn supervisor(&self) -> Supervisor {
        self.supervisor
    }

    /// Where power conditioning lives.
    pub fn conditioning(&self) -> ConditioningPlacement {
        self.conditioning
    }

    /// Whether the sensor node is integrated on the power unit (Systems D
    /// and G — "the system topology is inflexible").
    pub fn node_on_power_unit(&self) -> bool {
        self.node_on_power_unit
    }

    /// Whether the platform shipped as a commercial product.
    pub fn is_commercial(&self) -> bool {
        self.commercial
    }

    /// Whether the unit re-reads electronic datasheets on swap (System B).
    pub fn is_datasheet_capable(&self) -> bool {
        self.datasheet_capable
    }

    /// For architectures whose ports accept harvesters *or* storage
    /// interchangeably (System B's six slots), the number of such shared
    /// ports; `None` for conventional dedicated-port designs.
    pub fn shared_ports(&self) -> Option<usize> {
        self.shared_ports
    }

    /// The harvester ports.
    pub fn harvester_ports(&self) -> &[HarvesterPort] {
        &self.harvester_ports
    }

    /// The storage ports.
    pub fn store_ports(&self) -> &[StorePort] {
        &self.store_ports
    }

    /// Cumulative energy totals.
    pub fn totals(&self) -> EnergyTotals {
        self.totals
    }

    /// Ports holding a device: occupied harvester ports plus occupied
    /// store ports. On a devolved unit, each is one announced module.
    pub fn occupied_ports(&self) -> usize {
        self.modules().count()
    }

    /// The occupied ports' requirements, harvesters first, each kind in
    /// port order: a devolved unit's modules.
    fn modules(&self) -> impl Iterator<Item = &PortRequirement> {
        let harvesters = self.harvester_ports.iter().filter(|p| p.channel.is_some());
        let stores = self.store_ports.iter().filter(|p| p.device.is_some());
        harvesters
            .map(|p| &p.requirement)
            .chain(stores.map(|p| &p.requirement))
    }

    /// Status events the harvester modules of a devolved unit have
    /// pushed so far; always zero on any other unit.
    pub fn status_events(&self) -> u64 {
        self.status_events
    }

    fn devolved(&self) -> bool {
        self.supervisor.location == IntelligenceLocation::EnergyDevices
    }

    /// The regulated output rail voltage.
    pub fn output_rail(&self) -> Volts {
        self.output.output_voltage()
    }

    /// Standing power draw with every source dead: channel idle
    /// overheads + supervisor + output-stage quiescent, plus a devolved
    /// unit's module micro-managers. Divided by the output rail this is
    /// Table I's "Quiescent Current Draw".
    pub fn quiescent_power(&self) -> Watts {
        let channels: Watts = self
            .harvester_ports
            .iter()
            .filter_map(|p| p.channel.as_ref())
            .map(InputChannel::idle_overhead)
            .sum();
        let mcus =
            Self::MODULE_DRAW * (usize::from(self.devolved()) * self.occupied_ports()) as f64;
        channels + self.supervisor.overhead + self.output.quiescent() + mcus
    }

    /// The standing draw itemized per component as a
    /// [`mseh_power::QuiescentLedger`] referenced to the output rail:
    /// one entry per occupied harvester channel (its idle front-end
    /// overhead), the supervisor, and the output stage, plus on a
    /// devolved unit one module-MCU entry per occupied port. The
    /// ledger's total equals [`quiescent_power`](Self::quiescent_power),
    /// so the observability layer can report not just Table I's µA
    /// figure but *which* component is drawing it.
    pub fn quiescent_ledger(&self) -> mseh_power::QuiescentLedger {
        let mut ledger = mseh_power::QuiescentLedger::new(self.output_rail());
        for port in &self.harvester_ports {
            if let Some(channel) = port.channel.as_ref() {
                ledger.add(
                    format!("{} front-end", port.requirement.label),
                    channel.idle_overhead(),
                );
            }
        }
        ledger.add("supervisor", self.supervisor.overhead);
        ledger.add("output stage", self.output.quiescent());
        if self.devolved() {
            for module in self.modules() {
                ledger.add(format!("{} module MCU", module.label), Self::MODULE_DRAW);
            }
        }
        ledger
    }

    /// Total actual capacity across *all* attached storage devices,
    /// backups included. A drop between control windows means a device
    /// failed or degraded — the simulation kernel's fault-fire
    /// detection watches exactly this.
    pub fn storage_capacity(&self) -> Joules {
        self.store_ports
            .iter()
            .filter_map(|p| p.device.as_ref())
            .map(|d| d.capacity())
            .sum()
    }

    /// The working voltage of the storage bank: the highest-priority
    /// *non-depleted* store's terminal voltage (stores are diode-OR'd, so
    /// an exhausted primary hands the bus to the next store). Falls back
    /// to the primary's voltage when everything is empty; zero with no
    /// storage attached.
    pub fn store_voltage(&self) -> Volts {
        // Visit occupied ports in role priority without materializing a
        // sorted list: iterating the role ranks outer and the ports in
        // declaration order inner reproduces exactly the order a stable
        // sort by role would give. This is the hot loop's most frequent
        // query (twice per step), so it must not allocate.
        let mut first: Option<&dyn Storage> = None;
        for role in StoreRole::PRIORITY {
            for port in &self.store_ports {
                if port.role != role {
                    continue;
                }
                if let Some(device) = port.device.as_deref() {
                    if !device.is_depleted() {
                        return device.voltage();
                    }
                    if first.is_none() {
                        first = Some(device);
                    }
                }
            }
        }
        first.map(|d| d.voltage()).unwrap_or(Volts::ZERO)
    }

    /// Total stored energy across buffers (excluding backups), actual.
    pub fn stored_energy(&self) -> Joules {
        self.store_ports
            .iter()
            .filter(|p| p.role != StoreRole::Backup)
            .filter_map(|p| p.device.as_ref())
            .map(|d| d.stored_energy())
            .sum()
    }

    /// Total internal dissipation across every attached storage device
    /// (for the simulation kernel's conservation audit).
    pub fn storage_losses(&self) -> Joules {
        self.store_ports
            .iter()
            .filter_map(|p| p.device.as_ref())
            .map(|d| d.losses())
            .sum()
    }

    /// Total stored energy across *all* attached devices, backups
    /// included (the audit needs the complete inventory, unlike
    /// [`stored_energy`](Self::stored_energy) which reports buffers only).
    pub fn total_stored_energy(&self) -> Joules {
        self.store_ports
            .iter()
            .filter_map(|p| p.device.as_ref())
            .map(|d| d.stored_energy())
            .sum()
    }

    /// Total buffer capacity the unit's software *believes* it has.
    pub fn recognized_capacity(&self) -> Joules {
        self.store_ports
            .iter()
            .filter(|p| p.role != StoreRole::Backup && p.device.is_some())
            .map(|p| p.recognized_capacity)
            .sum()
    }

    /// The energy status as reported to the node, clamped to the
    /// supervisor's monitoring level, with stored energy scaled by the
    /// *recognized* (believed) capacities. A devolved unit reports the
    /// sum of its harvester modules' last pushed values as the harvest
    /// power.
    pub fn energy_status(&self) -> EnergyStatus {
        let soc_actual = {
            let cap: Joules = self
                .store_ports
                .iter()
                .filter(|p| p.role != StoreRole::Backup)
                .filter_map(|p| p.device.as_ref())
                .map(|d| d.capacity())
                .sum();
            if cap.value() > 0.0 {
                self.stored_energy().value() / cap.value()
            } else {
                0.0
            }
        };
        let believed_stored = self.recognized_capacity() * soc_actual;
        let harvest = if self.devolved() {
            self.harvester_ports.iter().map(|p| p.reported).sum()
        } else {
            self.last_harvest
        };
        let mut status = EnergyStatus::full(
            self.store_voltage(),
            Ratio::new(soc_actual),
            believed_stored,
            harvest,
        )
        .clamped_to(self.supervisor.monitoring);
        // A store-voltage-only tier reads through the analog sense line's
        // ADC; full digital monitoring reports calibrated values.
        if self.supervisor.monitoring == MonitoringLevel::StoreVoltage {
            if let (Some(adc), Some(v)) = (self.sense_adc, status.store_voltage) {
                status.store_voltage = Some(adc.quantize(v));
            }
        }
        status
    }

    /// Attaches a harvester channel to port `port`.
    ///
    /// # Errors
    ///
    /// Returns [`CompatError`] when the port does not exist, is occupied,
    /// is not swappable after commissioning, or refuses the harvester's
    /// kind/voltage. Units with module-side conditioning
    /// ([`ConditioningPlacement::EnergyModules`]) additionally require a
    /// datasheet — the interface circuit's proof of conformance.
    pub fn attach_harvester(
        &mut self,
        port: usize,
        channel: InputChannel,
        rated_voltage: Volts,
        datasheet: Option<&ElectronicDatasheet>,
    ) -> Result<(), CompatError> {
        if self.conditioning == ConditioningPlacement::EnergyModules && datasheet.is_none() {
            return Err(CompatError::MissingInterfaceCircuit);
        }
        let slot = self
            .harvester_ports
            .get_mut(port)
            .ok_or(CompatError::NoSuchPort { index: port })?;
        if slot.channel.is_some() {
            return Err(CompatError::PortOccupied {
                port: slot.requirement.label.clone(),
            });
        }
        if !slot.swappable {
            return Err(CompatError::KindNotSupported {
                port: slot.requirement.label.clone(),
                offered: "field-attached",
            });
        }
        slot.requirement
            .check_harvester(channel.harvester().kind(), rated_voltage)?;
        slot.channel = Some(channel);
        Ok(())
    }

    /// Detaches the harvester channel at `port`, if any. On a devolved
    /// unit its module's last pushed value goes with it, so the next
    /// module attached there starts unreported.
    pub fn detach_harvester(&mut self, port: usize) -> Option<InputChannel> {
        let slot = self.harvester_ports.get_mut(port)?;
        slot.reported = Watts::ZERO;
        slot.channel.take()
    }

    /// Attaches a storage device to port `port`.
    ///
    /// The unit's *recognized* capacity for the port updates only when it
    /// is datasheet-capable and a datasheet is supplied; otherwise the
    /// commissioning-time belief persists (the Table-I caveat: "the
    /// software will not automatically be able to recognise any change in
    /// capacity").
    ///
    /// # Errors
    ///
    /// Returns [`CompatError`] under the same conditions as
    /// [`attach_harvester`](Self::attach_harvester).
    pub fn attach_storage(
        &mut self,
        port: usize,
        device: Box<dyn Storage>,
        datasheet: Option<&ElectronicDatasheet>,
    ) -> Result<(), CompatError> {
        if self.conditioning == ConditioningPlacement::EnergyModules && datasheet.is_none() {
            return Err(CompatError::MissingInterfaceCircuit);
        }
        let datasheet_capable = self.datasheet_capable;
        let slot = self
            .store_ports
            .get_mut(port)
            .ok_or(CompatError::NoSuchPort { index: port })?;
        if slot.device.is_some() {
            return Err(CompatError::PortOccupied {
                port: slot.requirement.label.clone(),
            });
        }
        if !slot.swappable {
            return Err(CompatError::KindNotSupported {
                port: slot.requirement.label.clone(),
                offered: "field-attached",
            });
        }
        slot.requirement
            .check_storage(device.kind(), device.max_voltage())?;
        if datasheet_capable {
            if let Some(cap) = datasheet.and_then(|d| d.capacity) {
                slot.recognized_capacity = cap;
            } else {
                slot.recognized_capacity = device.capacity();
            }
        }
        slot.device = Some(device);
        Ok(())
    }

    /// Detaches the storage device at `port`, if any. The recognized
    /// capacity is deliberately left as-is — forgetting requires a
    /// datasheet read, not a removal.
    pub fn detach_storage(&mut self, port: usize) -> Option<Box<dyn Storage>> {
        self.store_ports.get_mut(port)?.device.take()
    }

    /// Moves up to `amount` of energy from store port `from` to store
    /// port `to` through the management path (a two-way-interface
    /// capability: "to move energy between storage devices"). Returns the
    /// energy actually deposited in `to`.
    ///
    /// The transfer runs at the management converter's ~85 % efficiency;
    /// both devices' own transfer losses apply on top. Transfers to
    /// non-rechargeable stores deposit nothing (and nothing is drawn).
    ///
    /// # Errors
    ///
    /// Returns [`CompatError::NoSuchPort`] when either index is invalid
    /// or the two indices are equal.
    pub fn transfer_energy(
        &mut self,
        from: usize,
        to: usize,
        amount: Joules,
    ) -> Result<Joules, CompatError> {
        if from == to {
            return Err(CompatError::NoSuchPort { index: to });
        }
        if from >= self.store_ports.len() {
            return Err(CompatError::NoSuchPort { index: from });
        }
        if to >= self.store_ports.len() {
            return Err(CompatError::NoSuchPort { index: to });
        }
        const MANAGEMENT_ETA: f64 = 0.85;
        // Probe the destination's acceptance first so a non-rechargeable
        // or full target doesn't waste source energy.
        let window = Seconds::new(1.0);
        let acceptance = self.store_ports[to]
            .device
            .as_ref()
            .map_or(Watts::ZERO, |d| d.max_charge_power());
        if acceptance.value() <= 0.0 {
            return Ok(Joules::ZERO);
        }
        let want = amount.min(acceptance * window) / MANAGEMENT_ETA;
        let drawn = match self.store_ports[from].device.as_mut() {
            Some(d) => d.discharge(want / window, window),
            None => Joules::ZERO,
        };
        if drawn.value() <= 0.0 {
            return Ok(Joules::ZERO);
        }
        let offered = drawn * MANAGEMENT_ETA;
        let deposited = match self.store_ports[to].device.as_mut() {
            Some(d) => d.charge(offered / window, window),
            None => Joules::ZERO,
        };
        // Management-path dissipation (drawn − deposited beyond device
        // losses) accrues to the unit's overhead ledger.
        self.totals.overhead += drawn - deposited;
        Ok(deposited)
    }

    /// Cumulative `(fired, cleared)` fault counts across every attached
    /// device: storage faults, harvester dropouts, converter brownouts.
    ///
    /// Plain devices report zero; fault-injection wrappers (from
    /// `mseh-sim` and `mseh-power`) override the per-trait count hooks
    /// this sums. The simulation runner polls it at control-window edges
    /// so faults that fire *and* clear within one window still get
    /// reported.
    pub fn fault_counts(&self) -> (u64, u64) {
        let mut fired = self.output.fault_fire_count();
        let mut cleared = self.output.fault_clear_count();
        for port in &self.store_ports {
            if let Some(device) = port.device.as_ref() {
                fired += device.fault_fire_count();
                cleared += device.fault_clear_count();
            }
        }
        for port in &self.harvester_ports {
            if let Some(channel) = port.channel.as_ref() {
                let (f, c) = channel.fault_counts();
                fired += f;
                cleared += c;
            }
        }
        (fired, cleared)
    }

    /// Aggregated operating-point kernel-cache counters across every
    /// input channel (each channel's step and open-circuit-voltage
    /// memos).
    pub fn kernel_cache_stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for port in &self.harvester_ports {
            if let Some(channel) = port.channel.as_ref() {
                stats.merge(channel.kernel_cache_stats());
            }
        }
        stats
    }

    /// Enables or disables the operating-point kernel caches on every
    /// input channel. Disabling drops all stored entries, so a disabled
    /// unit solves every step from scratch (the uncached reference path
    /// the perf harness compares against).
    pub fn set_kernel_cache_enabled(&mut self, enabled: bool) {
        for port in &mut self.harvester_ports {
            if let Some(channel) = port.channel.as_mut() {
                channel.set_cache_enabled(enabled);
            }
        }
    }

    /// Energy currently stranded inside attached stores by active faults
    /// (content that physically exists but cannot be delivered).
    pub fn stranded_energy(&self) -> Joules {
        self.store_ports
            .iter()
            .filter_map(|p| p.device.as_ref())
            .map(|d| d.stranded_energy())
            .fold(Joules::ZERO, |acc, e| acc + e)
    }

    /// Rebuilds the storage device at `port` through `wrap` —
    /// *simulation instrumentation* (fault injection, degradation),
    /// not a field swap: it bypasses the swappability and compatibility
    /// checks of [`attach_storage`](Self::attach_storage) (soldered
    /// stores fail too) and leaves the recognized capacity untouched.
    ///
    /// Returns `false` when the port is empty or out of range.
    pub fn instrument_store(
        &mut self,
        port: usize,
        wrap: impl FnOnce(Box<dyn Storage>) -> Box<dyn Storage>,
    ) -> bool {
        match self.store_ports.get_mut(port) {
            Some(slot) => match slot.device.take() {
                Some(device) => {
                    slot.device = Some(wrap(device));
                    true
                }
                None => false,
            },
            None => false,
        }
    }

    /// Rebuilds the harvester on port `port`'s input channel through
    /// `wrap` (simulation instrumentation; see
    /// [`instrument_store`](Self::instrument_store)).
    ///
    /// Returns `false` when the port is empty or out of range.
    pub fn instrument_harvester(
        &mut self,
        port: usize,
        wrap: impl FnOnce(Box<dyn Transducer>) -> Box<dyn Transducer>,
    ) -> bool {
        match self
            .harvester_ports
            .get_mut(port)
            .and_then(|slot| slot.channel.as_mut())
        {
            Some(channel) => {
                channel.wrap_harvester(wrap);
                true
            }
            None => false,
        }
    }

    /// Rebuilds the output stage through `wrap` (simulation
    /// instrumentation, e.g. a scheduled-brownout wrapper).
    pub fn instrument_output_stage(
        &mut self,
        wrap: impl FnOnce(Box<dyn PowerStage>) -> Box<dyn PowerStage>,
    ) {
        struct Placeholder;
        impl PowerStage for Placeholder {
            fn name(&self) -> &str {
                "placeholder"
            }
            fn quiescent(&self) -> Watts {
                Watts::ZERO
            }
            fn accepts_input_voltage(&self, _v: Volts) -> bool {
                false
            }
            fn output_voltage(&self) -> Volts {
                Volts::ZERO
            }
            fn output_for_input(&self, _p: Watts, _v: Volts) -> Watts {
                Watts::ZERO
            }
            fn input_for_output(&self, _p: Watts, _v: Volts) -> Watts {
                Watts::ZERO
            }
        }
        let old = core::mem::replace(&mut self.output, Box::new(Placeholder));
        self.output = wrap(old);
    }

    /// Advances the unit one interval: harvest, serve `load` through the
    /// output stage, balance against the stores. Exactly
    /// [`settle`](Self::settle) applied to [`harvest`](Self::harvest).
    pub fn step(&mut self, env: &EnvConditions, dt: Seconds, load: Watts) -> StepReport {
        let harvest = self.harvest(env, dt);
        self.settle(&harvest, dt, load)
    }

    /// The harvest half of [`step`](Self::step): steps every input
    /// channel through `env` for `dt` and returns what they put on the
    /// bus. Touches nothing but the channels.
    pub fn harvest(&mut self, env: &EnvConditions, dt: Seconds) -> BusHarvest {
        let mut harvest = BusHarvest::default();
        for port in &mut self.harvester_ports {
            if let Some(channel) = port.channel.as_mut() {
                let step = channel.step(env, dt);
                harvest.push(step.delivered, step.overhead);
            }
        }
        harvest
    }

    /// The settle half of [`step`](Self::step): serves `load` through
    /// the output stage and balances `harvest` against the stores. The
    /// harvest may come from this unit or from an identically built one
    /// stepped through the same conditions; the channels here are left
    /// untouched.
    pub fn settle(&mut self, harvest: &BusHarvest, dt: Seconds, load: Watts) -> StepReport {
        // 0. Age stages with internal clocks (scheduled-brownout
        //    wrappers) before serving, so the step containing a brownout
        //    start already sees the stage down.
        self.output.advance(dt);

        // 1. Harvest and housekeeping.
        let harvested_w = harvest.delivered;
        let mut overhead_w = self.supervisor.overhead + self.output.quiescent();
        if self.devolved() {
            overhead_w = self.fold_modules(harvest, overhead_w);
        } else {
            for (_, overhead) in harvest.channels() {
                overhead_w += overhead;
            }
        }
        self.last_harvest = harvested_w;

        // 2. Load demand through the output stage at the store voltage.
        let (load_in_w, servable) = load_draw(&*self.output, load, self.store_voltage());

        // 3. Balance on the bus.
        let e_h = harvested_w * dt;
        let e_load_in = load_in_w * dt;
        let e_ov = overhead_w * dt;
        let demand = e_load_in + e_ov;

        let mut charged = Joules::ZERO;
        let mut discharged = Joules::ZERO;
        let mut spilled = Joules::ZERO;
        let mut unmet = Joules::ZERO;

        // Both balance directions visit occupied ports in role priority.
        // Rank-outer/declaration-inner iteration reproduces the stable
        // sort-by-role order bit for bit without allocating a sorted
        // port list per step (this runs once per node-step across the
        // whole fleet).
        if e_h >= demand {
            let mut surplus = e_h - demand;
            // Charge buffers in role priority; backups are never charged.
            'charge: for role in StoreRole::PRIORITY {
                if role == StoreRole::Backup {
                    continue;
                }
                for port in &mut self.store_ports {
                    if port.role != role {
                        continue;
                    }
                    if surplus.value() <= 0.0 {
                        break 'charge;
                    }
                    if let Some(device) = port.device.as_mut() {
                        let taken = device.charge(surplus / dt, dt);
                        charged += taken;
                        surplus -= taken;
                    }
                }
            }
            spilled = surplus.max(Joules::ZERO);
        } else {
            let mut deficit = demand - e_h;
            'discharge: for role in StoreRole::PRIORITY {
                for port in &mut self.store_ports {
                    if port.role != role {
                        continue;
                    }
                    if deficit.value() <= 0.0 {
                        break 'discharge;
                    }
                    if let Some(device) = port.device.as_mut() {
                        let got = device.discharge(deficit / dt, dt);
                        discharged += got;
                        deficit -= got;
                    }
                }
            }
            unmet = deficit.max(Joules::ZERO);
        }

        // 4. Shortfall lands on the load first (the node browns out
        //    before the power unit's own electronics).
        let (delivered, shortfall, converter_loss) =
            shortfall_split(load, dt, servable, e_load_in, unmet);

        // 5. Storage self-discharge.
        for port in &mut self.store_ports {
            if let Some(device) = port.device.as_mut() {
                device.idle(dt);
            }
        }

        let report = StepReport {
            harvested: e_h,
            delivered,
            shortfall,
            overhead: e_ov,
            charged,
            discharged,
            spilled,
            converter_loss,
            store_voltage: self.store_voltage(),
        };
        self.totals.harvested += report.harvested;
        self.totals.delivered += report.delivered;
        self.totals.shortfall += report.shortfall;
        self.totals.overhead += report.overhead;
        self.totals.charged += report.charged;
        self.totals.discharged += report.discharged;
        self.totals.spilled += report.spilled;
        report
    }

    /// A devolved unit's housekeeping onto `overhead_w`: per occupied
    /// harvester port its module's draw, its channel's overhead and a
    /// status push on a change above [`REPORT_THRESHOLD`] (1 nW floor),
    /// then one module draw per occupied store port.
    fn fold_modules(&mut self, harvest: &BusHarvest, mut overhead_w: Watts) -> Watts {
        let ports = self
            .harvester_ports
            .iter_mut()
            .filter(|p| p.channel.is_some());
        for (port, (delivered, overhead)) in ports.zip(harvest.channels()) {
            // One add per draw, in this order: the receipts pin the bits.
            overhead_w += Self::MODULE_DRAW;
            overhead_w += overhead;
            let last = port.reported.value();
            if (delivered.value() - last).abs() / last.abs().max(1e-9) > REPORT_THRESHOLD {
                self.status_events += 1;
                port.reported = delivered;
            }
        }
        for _ in self.store_ports.iter().filter(|p| p.device.is_some()) {
            overhead_w += Self::MODULE_DRAW;
        }
        overhead_w
    }
}

impl core::fmt::Debug for PowerUnit {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PowerUnit")
            .field("name", &self.name)
            .field("harvester_ports", &self.harvester_ports.len())
            .field("store_ports", &self.store_ports.len())
            .field("supervisor", &self.supervisor)
            .field("conditioning", &self.conditioning)
            .finish_non_exhaustive()
    }
}

impl HarvesterPort {
    /// The port's electrical requirement.
    pub fn requirement(&self) -> &PortRequirement {
        &self.requirement
    }

    /// The attached channel, if any.
    pub fn channel(&self) -> Option<&InputChannel> {
        self.channel.as_ref()
    }

    /// Whether devices can be exchanged on this port in the field.
    pub fn is_swappable(&self) -> bool {
        self.swappable
    }
}

impl StorePort {
    /// The port's electrical requirement.
    pub fn requirement(&self) -> &PortRequirement {
        &self.requirement
    }

    /// The attached device, if any.
    pub fn device(&self) -> Option<&dyn Storage> {
        self.device.as_deref()
    }

    /// The port's role.
    pub fn role(&self) -> StoreRole {
        self.role
    }

    /// Whether devices can be exchanged on this port in the field.
    pub fn is_swappable(&self) -> bool {
        self.swappable
    }

    /// The capacity the unit's software believes this port's device has.
    pub fn recognized_capacity(&self) -> Joules {
        self.recognized_capacity
    }
}

/// Builder for a [`PowerUnit`].
pub struct PowerUnitBuilder {
    name: String,
    harvester_ports: Vec<HarvesterPort>,
    store_ports: Vec<StorePort>,
    output: Option<Box<dyn PowerStage>>,
    supervisor: Supervisor,
    conditioning: ConditioningPlacement,
    node_on_power_unit: bool,
    commercial: bool,
    datasheet_capable: bool,
    shared_ports: Option<usize>,
    sense_adc: Option<AdcModel>,
}

impl PowerUnitBuilder {
    /// Adds a harvester port, optionally pre-populated.
    pub fn harvester_port(
        mut self,
        requirement: PortRequirement,
        channel: Option<InputChannel>,
        swappable: bool,
    ) -> Self {
        self.harvester_ports.push(HarvesterPort {
            requirement,
            channel,
            swappable,
            reported: Watts::ZERO,
        });
        self
    }

    /// Adds a storage port, optionally pre-populated. The commissioning
    /// device's capacity becomes the recognized capacity.
    pub fn store_port(
        mut self,
        requirement: PortRequirement,
        device: Option<Box<dyn Storage>>,
        role: StoreRole,
        swappable: bool,
    ) -> Self {
        let recognized_capacity = device.as_ref().map_or(Joules::ZERO, |d| d.capacity());
        self.store_ports.push(StorePort {
            requirement,
            device,
            role,
            swappable,
            recognized_capacity,
        });
        self
    }

    /// Sets the output-conditioning stage (required).
    pub fn output_stage(mut self, stage: Box<dyn PowerStage>) -> Self {
        self.output = Some(stage);
        self
    }

    /// Sets the supervisory arrangement (defaults to
    /// [`Supervisor::none`]).
    pub fn supervisor(mut self, s: Supervisor) -> Self {
        self.supervisor = s;
        self
    }

    /// Sets where power conditioning lives (defaults to the power unit).
    pub fn conditioning(mut self, c: ConditioningPlacement) -> Self {
        self.conditioning = c;
        self
    }

    /// Marks the sensor node as integrated on the power unit.
    pub fn node_on_power_unit(mut self, yes: bool) -> Self {
        self.node_on_power_unit = yes;
        self
    }

    /// Marks the platform as a commercial product.
    pub fn commercial(mut self, yes: bool) -> Self {
        self.commercial = yes;
        self
    }

    /// Enables electronic-datasheet recognition on swap (System B).
    pub fn datasheet_capable(mut self, yes: bool) -> Self {
        self.datasheet_capable = yes;
        self
    }

    /// Declares the unit's ports as shared harvester/storage slots
    /// (System B's architecture), for taxonomy reporting.
    pub fn shared_ports(mut self, count: usize) -> Self {
        self.shared_ports = Some(count);
        self
    }

    /// Puts an ADC on the analog store-voltage sense line: units whose
    /// monitoring tier is store-voltage-only report readings quantized
    /// through it (`None` models an ideal line).
    pub fn sense_adc(mut self, adc: AdcModel) -> Self {
        self.sense_adc = Some(adc);
        self
    }

    /// Finishes the unit.
    ///
    /// # Panics
    ///
    /// Panics if no output stage was set or the unit has no storage port
    /// (every surveyed architecture buffers its harvest).
    pub fn build(self) -> PowerUnit {
        assert!(
            !self.store_ports.is_empty(),
            "a power unit needs at least one storage port"
        );
        PowerUnit {
            name: self.name,
            harvester_ports: self.harvester_ports,
            store_ports: self.store_ports,
            output: self.output.expect("an output stage is required"),
            supervisor: self.supervisor,
            conditioning: self.conditioning,
            node_on_power_unit: self.node_on_power_unit,
            commercial: self.commercial,
            datasheet_capable: self.datasheet_capable,
            shared_ports: self.shared_ports,
            sense_adc: self.sense_adc,
            totals: EnergyTotals::default(),
            last_harvest: Watts::ZERO,
            status_events: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_harvesters::{HarvesterKind, PvModule};
    use mseh_power::{DcDcConverter, FractionalVoc, IdealDiode};
    use mseh_storage::{Battery, StorageKind, Supercap};
    use mseh_units::WattsPerSqM;

    fn pv_channel() -> InputChannel {
        InputChannel::new(
            Box::new(PvModule::outdoor_panel_half_watt()),
            Box::new(FractionalVoc::pv_standard()),
            Box::new(IdealDiode::nanopower()),
            Box::new(DcDcConverter::mppt_front_end_5v()),
        )
    }

    fn small_unit() -> PowerUnit {
        PowerUnit::builder("test unit")
            .harvester_port(
                PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
                Some(pv_channel()),
                true,
            )
            .store_port(
                PortRequirement::any_in_window("buffer", Volts::ZERO, Volts::new(3.0)),
                Some(Box::new(Supercap::edlc_22f())),
                StoreRole::PrimaryBuffer,
                true,
            )
            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
            .build()
    }

    fn sunny() -> EnvConditions {
        let mut env = EnvConditions::quiescent(Seconds::ZERO);
        env.irradiance = WattsPerSqM::new(800.0);
        env
    }

    fn audit(report: &StepReport) {
        // harvested + discharged = charged + spilled + served demand.
        let served_demand = report.overhead.value()
            + (report.harvested + report.discharged
                - report.charged
                - report.spilled
                - report.overhead)
                .value()
                .max(0.0);
        // Simpler: identity check as balance.
        let lhs = report.harvested.value() + report.discharged.value();
        let rhs = report.charged.value() + report.spilled.value() + served_demand;
        assert!(
            (lhs - rhs).abs() < 1e-6 * lhs.max(1.0),
            "audit failed: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn sunny_step_charges_store_and_serves_load() {
        let mut unit = small_unit();
        let mut report = StepReport::default();
        for _ in 0..60 {
            report = unit.step(&sunny(), Seconds::new(60.0), Watts::from_milli(2.0));
        }
        assert!(report.harvested.value() > 0.0);
        assert!(report.fully_served(), "{report:?}");
        assert!(unit.stored_energy().value() > 0.0);
        assert!(report.store_voltage > Volts::new(0.8));
        audit(&report);
    }

    #[test]
    fn dark_step_discharges_store() {
        let mut unit = small_unit();
        // Charge first.
        for _ in 0..120 {
            unit.step(&sunny(), Seconds::new(60.0), Watts::ZERO);
        }
        let stored_before = unit.stored_energy();
        let night = EnvConditions::quiescent(Seconds::ZERO);
        let report = unit.step(&night, Seconds::new(60.0), Watts::from_milli(2.0));
        assert!(report.discharged.value() > 0.0);
        assert!(report.fully_served());
        assert!(unit.stored_energy() < stored_before);
        audit(&report);
    }

    #[test]
    fn empty_store_causes_shortfall() {
        let mut unit = small_unit();
        let night = EnvConditions::quiescent(Seconds::ZERO);
        let report = unit.step(&night, Seconds::new(60.0), Watts::from_milli(5.0));
        assert!(!report.fully_served());
        assert!(report.shortfall.value() > 0.0);
        assert_eq!(report.delivered.value(), 0.0);
    }

    #[test]
    fn totals_accumulate() {
        let mut unit = small_unit();
        for _ in 0..10 {
            unit.step(&sunny(), Seconds::new(60.0), Watts::from_milli(1.0));
        }
        let t = unit.totals();
        assert!(t.harvested.value() > 0.0);
        assert!(t.overhead.value() > 0.0);
    }

    #[test]
    fn harvest_past_the_inline_channels_keeps_every_overhead_in_order() {
        let build = || {
            let mut builder = PowerUnit::builder("eight PV ports");
            for _ in 0..8 {
                builder = builder.harvester_port(
                    PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
                    Some(pv_channel()),
                    true,
                );
            }
            builder
                .store_port(
                    PortRequirement::any_in_window("buffer", Volts::ZERO, Volts::new(3.0)),
                    Some(Box::new(Supercap::edlc_22f())),
                    StoreRole::PrimaryBuffer,
                    true,
                )
                .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
                .build()
        };
        let (mut whole, mut split) = (build(), build());
        let dt = Seconds::new(60.0);
        for env in [sunny(), EnvConditions::quiescent(Seconds::ZERO)] {
            let expected = whole.step(&env, dt, Watts::from_milli(2.0));
            let harvest = split.harvest(&env, dt);
            assert_eq!(harvest.channels().count(), 8);
            assert_eq!(split.settle(&harvest, dt, Watts::from_milli(2.0)), expected);
        }
    }

    /// A lossless pass-through stage with a chosen standing draw.
    struct Housekeeping(Watts);

    impl PowerStage for Housekeeping {
        fn name(&self) -> &str {
            "housekeeping"
        }
        fn quiescent(&self) -> Watts {
            self.0
        }
        fn accepts_input_voltage(&self, _v: Volts) -> bool {
            true
        }
        fn output_voltage(&self) -> Volts {
            Volts::new(3.3)
        }
        fn output_for_input(&self, p: Watts, _v: Volts) -> Watts {
            p
        }
        fn input_for_output(&self, p: Watts, _v: Volts) -> Watts {
            p
        }
    }

    #[test]
    fn settle_folds_channel_overheads_one_by_one() {
        // Each channel draws 0.4 ulp of the supervisor's 1 mW, so adding
        // them one at a time rounds both away while their pre-summed
        // 0.8 ulp would round up: only the left fold gives these bits.
        let base = Watts::from_milli(1.0);
        let tiny = Watts::new(0.4 * f64::EPSILON * 2f64.powi(-10));
        let channel = || {
            InputChannel::new(
                Box::new(PvModule::outdoor_panel_half_watt()),
                Box::new(FractionalVoc::pv_standard()),
                Box::new(Housekeeping(Watts::ZERO)),
                Box::new(Housekeeping(tiny)),
            )
        };
        let port = || PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0));
        let mut unit = PowerUnit::builder("two dark channels")
            .harvester_port(port(), Some(channel()), true)
            .harvester_port(port(), Some(channel()), true)
            .store_port(
                PortRequirement::any_in_window("buffer", Volts::ZERO, Volts::new(3.0)),
                Some(Box::new(Supercap::edlc_22f())),
                StoreRole::PrimaryBuffer,
                true,
            )
            .output_stage(Box::new(Housekeeping(Watts::ZERO)))
            .supervisor(Supervisor {
                overhead: base,
                ..Supervisor::none()
            })
            .build();
        let dt = Seconds::new(1.0);
        let folded = base + tiny + tiny;
        assert_ne!(folded, base + (tiny + tiny), "the case must discriminate");
        let night = EnvConditions::quiescent(Seconds::ZERO);
        let harvest = unit.harvest(&night, dt);
        let overheads: Vec<Watts> = harvest.channels().map(|(_, o)| o).collect();
        assert_eq!(overheads, vec![tiny, tiny]);
        assert_eq!(unit.settle(&harvest, dt, Watts::ZERO).overhead, folded * dt);
    }

    #[test]
    fn devolved_unit_sits_on_energy_devices_in_the_taxonomy() {
        use mseh_storage::FuelCell;
        let build = |conditioning| {
            PowerUnit::builder("smart")
                .harvester_port(
                    PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(7.0)),
                    Some(pv_channel()),
                    true,
                )
                .harvester_port(
                    PortRequirement::any_in_window("spare", Volts::ZERO, Volts::new(7.0)),
                    None,
                    true,
                )
                .store_port(
                    PortRequirement::any_in_window("buffer", Volts::ZERO, Volts::new(3.0)),
                    Some(Box::new(Supercap::edlc_22f())),
                    StoreRole::PrimaryBuffer,
                    true,
                )
                .store_port(
                    PortRequirement::any_in_window("backup", Volts::ZERO, Volts::new(4.0)),
                    Some(Box::new(FuelCell::hydrogen_cartridge())),
                    StoreRole::Backup,
                    false,
                )
                .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
                .supervisor(Supervisor::devolved())
                .conditioning(conditioning)
                .build()
        };
        let unit = build(ConditioningPlacement::PowerUnit);
        let record = crate::classify(&unit);
        assert_eq!(record.intelligence.to_string(), "on energy devices");
        assert_eq!(record.energy_monitoring, MonitoringLevel::Full);
        assert!(record.digital_interface);
        let modular = crate::classify(&build(ConditioningPlacement::EnergyModules));
        assert_eq!(
            modular.exchangeability(),
            crate::taxonomy::Exchangeability::CompletelyFlexible
        );
        // One module micro-manager per occupied port, the backup included
        // and the empty spare left out, and the ledger totals the draw.
        let ledger = unit.quiescent_ledger();
        let modules: Vec<_> = ledger
            .iter()
            .filter(|e| e.component.ends_with("module MCU"))
            .map(|e| (e.component.as_str(), e.power))
            .collect();
        let draw = PowerUnit::MODULE_DRAW;
        assert_eq!(
            modules,
            [
                ("PV module MCU", draw),
                ("buffer module MCU", draw),
                ("backup module MCU", draw)
            ]
        );
        assert_eq!(unit.occupied_ports(), 3);
        let total = ledger.total_power();
        assert!(
            (total - unit.quiescent_power()).abs().value() <= 1e-15,
            "ledger {total:?} vs quiescent {:?}",
            unit.quiescent_power()
        );
    }

    #[test]
    fn quiescent_power_sums_components() {
        let unit = small_unit();
        let q = unit.quiescent_power();
        // Channel idle (front-end 40 µW + ideal diode 0.9 µW) + output
        // stage 16.5 µW.
        assert!((50.0..70.0).contains(&q.as_micro()), "{q}");
    }

    #[test]
    fn attach_rejects_occupied_and_missing_ports() {
        let mut unit = small_unit();
        let err = unit
            .attach_harvester(0, pv_channel(), Volts::new(6.0), None)
            .unwrap_err();
        assert!(matches!(err, CompatError::PortOccupied { .. }));
        let err = unit
            .attach_harvester(5, pv_channel(), Volts::new(6.0), None)
            .unwrap_err();
        assert!(matches!(err, CompatError::NoSuchPort { index: 5 }));
    }

    #[test]
    fn detach_then_attach_swaps_hardware() {
        let mut unit = small_unit();
        let old = unit.detach_harvester(0).expect("populated");
        assert_eq!(old.harvester().kind(), HarvesterKind::Photovoltaic);
        unit.attach_harvester(0, pv_channel(), Volts::new(6.0), None)
            .expect("port free again");
    }

    #[test]
    fn storage_swap_without_datasheet_keeps_stale_capacity() {
        let mut unit = small_unit();
        let commissioned = unit.store_ports()[0].recognized_capacity();
        unit.detach_storage(0).expect("populated");
        // Swap in a battery with far larger capacity.
        let big = Battery::lipo_400mah();
        let big_cap = big.capacity();
        // Port accepts ≤3 V; LiPo max 4.2 V violates it.
        let err = unit.attach_storage(0, Box::new(big), None).unwrap_err();
        assert!(matches!(err, CompatError::VoltageOutOfWindow { .. }));
        // A small cap fits, but the unit still believes the old capacity.
        let small = Supercap::new(
            "5 F / 2.7 V EDLC",
            mseh_units::Farads::new(5.0),
            0.3,
            mseh_units::Ohms::from_milli(100.0),
            mseh_units::Ohms::from_kilo(30.0),
            Volts::new(0.8),
            Volts::new(2.7),
        );
        unit.attach_storage(0, Box::new(small), None)
            .expect("fits the window");
        assert_eq!(unit.store_ports()[0].recognized_capacity(), commissioned);
        assert!(big_cap > commissioned);
    }

    #[test]
    fn datasheet_capable_unit_recognizes_swaps() {
        let mut unit = PowerUnit::builder("pnp-like")
            .store_port(
                PortRequirement::any_in_window("slot", Volts::ZERO, Volts::new(6.0)),
                Some(Box::new(Supercap::edlc_22f())),
                StoreRole::PrimaryBuffer,
                true,
            )
            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
            .datasheet_capable(true)
            .build();
        unit.detach_storage(0).expect("populated");
        let newcomer = Supercap::edlc_1f();
        let ds = ElectronicDatasheet::storage(
            "SC-1",
            StorageKind::Supercapacitor,
            Watts::from_milli(100.0),
            newcomer.capacity(),
        );
        unit.attach_storage(0, Box::new(newcomer), Some(&ds))
            .expect("fits");
        let port = &unit.store_ports()[0];
        assert_eq!(
            port.recognized_capacity(),
            port.device().expect("attached").capacity()
        );
    }

    #[test]
    fn module_conditioning_requires_datasheet() {
        let mut unit = PowerUnit::builder("pnp")
            .harvester_port(
                PortRequirement::any_in_window("slot", Volts::ZERO, Volts::new(20.0)),
                None,
                true,
            )
            .store_port(
                PortRequirement::any_in_window("slot2", Volts::ZERO, Volts::new(6.0)),
                Some(Box::new(Supercap::edlc_22f())),
                StoreRole::PrimaryBuffer,
                true,
            )
            .conditioning(ConditioningPlacement::EnergyModules)
            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
            .build();
        let err = unit
            .attach_harvester(0, pv_channel(), Volts::new(6.0), None)
            .unwrap_err();
        assert_eq!(err, CompatError::MissingInterfaceCircuit);
        let ds = ElectronicDatasheet::harvester(
            "PV-07",
            HarvesterKind::Photovoltaic,
            Watts::from_milli(50.0),
        );
        unit.attach_harvester(0, pv_channel(), Volts::new(6.0), Some(&ds))
            .expect("interface circuit present");
    }

    #[test]
    fn backup_store_engages_only_when_buffers_empty() {
        use mseh_storage::FuelCell;
        let mut unit = PowerUnit::builder("with backup")
            .store_port(
                PortRequirement::any_in_window("buffer", Volts::ZERO, Volts::new(3.0)),
                Some(Box::new(Supercap::edlc_22f())),
                StoreRole::PrimaryBuffer,
                false,
            )
            .store_port(
                PortRequirement::any_in_window("backup", Volts::ZERO, Volts::new(4.0)),
                Some(Box::new(FuelCell::hydrogen_cartridge())),
                StoreRole::Backup,
                false,
            )
            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
            .build();
        // Pre-charge the supercap.
        let mut sunny_unit = small_unit();
        for _ in 0..60 {
            sunny_unit.step(&sunny(), Seconds::new(60.0), Watts::ZERO);
        }
        // Give our unit the charged cap by swapping is complex; instead
        // charge through a bright step with an attached channel — simpler:
        // drain from empty and observe the fuel cell carries the load.
        let night = EnvConditions::quiescent(Seconds::ZERO);
        // Warm the stack over repeated steps.
        let mut served_eventually = false;
        for _ in 0..10 {
            let r = unit.step(&night, Seconds::new(60.0), Watts::from_milli(5.0));
            if r.fully_served() {
                served_eventually = true;
            }
        }
        assert!(served_eventually, "fuel cell backup never engaged");
        let backup = unit.store_ports()[1].device().expect("attached");
        assert!(backup.stored_energy() < backup.capacity());
    }

    #[test]
    fn energy_status_respects_monitoring_level() {
        let unit = small_unit(); // Supervisor::none → MonitoringLevel::None
        assert_eq!(unit.energy_status(), EnergyStatus::none());
    }

    #[test]
    #[should_panic(expected = "storage port")]
    fn build_requires_storage() {
        PowerUnit::builder("bad")
            .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
            .build();
    }
}
