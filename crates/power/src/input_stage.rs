//! A complete input-conditioning channel: protection stage, operating-point
//! controller and front-end converter between one harvester and the
//! storage bus.

use crate::mppt::{OperatingPointController, WindowChoice};
use crate::stage::PowerStage;
use mseh_env::EnvConditions;
use mseh_harvesters::{CacheStats, Transducer};
use mseh_units::{Seconds, Volts, Watts};

/// The outcome of one input-channel step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HarvestStep {
    /// Operating voltage held at the harvester terminals.
    pub operating_voltage: Volts,
    /// Raw power extracted from the transducer.
    pub extracted: Watts,
    /// Power delivered onto the storage bus after all stages.
    pub delivered: Watts,
    /// Controller + converter housekeeping drawn from the bus.
    pub overhead: Watts,
}

impl HarvestStep {
    /// Net power contribution to the bus (delivered minus overhead); may
    /// be negative when the channel's housekeeping exceeds its harvest.
    pub fn net(&self) -> Watts {
        self.delivered - self.overhead
    }
}

/// One harvester input channel of a power unit.
///
/// Pipeline per step: the controller picks the operating voltage → the
/// transducer yields power at that point → the protection stage and the
/// front-end converter each take their share → the result lands on the
/// bus, while controller and converter housekeeping are charged against
/// it.
///
/// A walk that reads a fresh snapshot each step calls
/// [`step`](Self::step), a plain solve. A walk that holds one snapshot
/// for a whole control window calls [`step_held`](Self::step_held),
/// which may answer the window's repeat steps from two exact
/// single-slot memos, both keyed on the IEEE-754 bit pattern of the
/// ambient fields ([`EnvConditions::ambient_bits`]), so a hit is
/// bit-identical to the solve it replaces:
///
/// * the **step memo** replays a whole [`HarvestStep`] when the
///   controller states a source-free [`WindowChoice`] at the step's
///   width and every block is time-invariant;
/// * the **open-circuit-voltage memo** answers the controller's
///   [`Source::open_circuit_voltage`] reads when the harvester is
///   time-invariant — what a perturb-and-observe tracker, which the step
///   memo never replays, re-reads on every step of a held window.
///
/// Both are flushed on [`swap_harvester`](Self::swap_harvester) and
/// [`wrap_harvester`](Self::wrap_harvester), and counted in
/// [`kernel_cache_stats`](Self::kernel_cache_stats). The two paths
/// return the same steps bit for bit; `step` is the reference.
///
/// # Examples
///
/// ```
/// use mseh_power::{InputChannel, PerturbObserve, DcDcConverter, IdealDiode};
/// use mseh_harvesters::PvModule;
/// use mseh_env::EnvConditions;
/// use mseh_units::{Seconds, WattsPerSqM};
///
/// let mut channel = InputChannel::new(
///     Box::new(PvModule::outdoor_panel_half_watt()),
///     Box::new(PerturbObserve::new()),
///     Box::new(IdealDiode::nanopower()),
///     Box::new(DcDcConverter::mppt_front_end_5v()),
/// );
/// let mut env = EnvConditions::quiescent(Seconds::ZERO);
/// env.irradiance = WattsPerSqM::new(800.0);
/// let mut last = Default::default();
/// for _ in 0..100 {
///     last = channel.step(&env, Seconds::new(1.0));
/// }
/// let step: mseh_power::HarvestStep = last;
/// assert!(step.net().value() > 0.0);
/// ```
pub struct InputChannel {
    harvester: Box<dyn Transducer>,
    controller: Box<dyn OperatingPointController>,
    protection: Box<dyn PowerStage>,
    converter: Box<dyn PowerStage>,
    /// The last fully-solved replayable step, keyed on the ambient bits
    /// and the step width.
    step_memo: Memo<([u64; 9], u64), HarvestStep>,
    /// The last open-circuit-voltage solve, keyed on the ambient bits.
    voc_memo: Memo<[u64; 9], Volts>,
    /// Scratch for batched window solves: per-lane open-circuit voltages.
    lane_voc: Vec<f64>,
}

/// One exact single-slot memo and its counters.
#[derive(Default)]
struct Memo<K, T> {
    last: Option<(K, T)>,
    stats: CacheStats,
}

impl<K: PartialEq, T: Copy> Memo<K, T> {
    /// The stored value when `key` matches it exactly (one hit).
    fn get(&mut self, key: &K) -> Option<T> {
        match &self.last {
            Some((k, value)) if k == key => {
                self.stats.hits += 1;
                Some(*value)
            }
            _ => None,
        }
    }

    /// Stores a fresh solve for `key` (one miss).
    fn put(&mut self, key: K, value: T) {
        self.stats.misses += 1;
        self.last = Some((key, value));
    }

    /// Drops the stored solve, counting an invalidation when there was
    /// one.
    fn flush(&mut self) {
        if self.last.take().is_some() {
            self.stats.invalidations += 1;
        }
    }
}

/// The live source a controller reads in
/// [`choose_voltage`](OperatingPointController::choose_voltage): a
/// harvester, behind its channel's open-circuit-voltage memo when the
/// channel supplies one.
///
/// [`Source::new`] wraps a bare device and solves on every call, as
/// [`InputChannel::step`] does. On an [`InputChannel::step_held`] step a
/// repeat of the exact ambient bit pattern returns the stored voltage
/// verbatim.
pub struct Source<'a> {
    device: &'a dyn Transducer,
    memo: Option<&'a mut Memo<[u64; 9], Volts>>,
}

impl<'a> Source<'a> {
    /// A source that solves on every call.
    pub fn new(device: &'a dyn Transducer) -> Self {
        Self { device, memo: None }
    }

    /// The open-circuit voltage under `env`.
    pub fn open_circuit_voltage(&mut self, env: &EnvConditions) -> Volts {
        let Some(memo) = self.memo.as_deref_mut() else {
            return self.device.open_circuit_voltage(env);
        };
        let key = env.ambient_bits();
        if let Some(voc) = memo.get(&key) {
            return voc;
        }
        let voc = self.device.open_circuit_voltage(env);
        memo.put(key, voc);
        voc
    }

    /// Power delivered at terminal voltage `v` under `env`.
    pub fn power_at(&self, v: Volts, env: &EnvConditions) -> Watts {
        self.device.power_at(v, env)
    }
}

impl InputChannel {
    /// Assembles a channel from its four blocks.
    pub fn new(
        harvester: Box<dyn Transducer>,
        controller: Box<dyn OperatingPointController>,
        protection: Box<dyn PowerStage>,
        converter: Box<dyn PowerStage>,
    ) -> Self {
        Self {
            harvester,
            controller,
            protection,
            converter,
            step_memo: Memo::default(),
            voc_memo: Memo::default(),
            lane_voc: Vec::new(),
        }
    }

    /// The transducer on this channel.
    pub fn harvester(&self) -> &dyn Transducer {
        self.harvester.as_ref()
    }

    /// The operating-point controller on this channel.
    pub fn controller(&self) -> &dyn OperatingPointController {
        self.controller.as_ref()
    }

    /// Replaces the harvester (a hardware swap), returning the old one.
    /// Flushes both solve memos: results solved for the old device must
    /// not answer for the new one.
    pub fn swap_harvester(&mut self, new: Box<dyn Transducer>) -> Box<dyn Transducer> {
        let old = core::mem::replace(&mut self.harvester, new);
        self.flush_memos();
        old
    }

    /// Drops both solve memos (hot-swap, instrumentation wrap).
    fn flush_memos(&mut self) {
        self.step_memo.flush();
        self.voc_memo.flush();
    }

    /// Kernel-cache counters of both solve memos: the step memo plus the
    /// open-circuit-voltage memo, with one miss for each
    /// [`step`](Self::step).
    pub fn kernel_cache_stats(&self) -> CacheStats {
        let mut stats = self.step_memo.stats;
        stats.merge(self.voc_memo.stats);
        stats
    }

    /// Rebuilds the harvester in place through `wrap` — simulation
    /// instrumentation (fault injection, derating) around whatever is
    /// plugged in, as opposed to the hardware swap above.
    pub fn wrap_harvester(
        &mut self,
        wrap: impl FnOnce(Box<dyn Transducer>) -> Box<dyn Transducer>,
    ) {
        // A transducer must sit in the slot while `wrap` runs; a dead
        // placeholder stands in and is dropped on return.
        struct Placeholder;
        impl Transducer for Placeholder {
            fn name(&self) -> &str {
                "placeholder"
            }
            fn kind(&self) -> mseh_harvesters::HarvesterKind {
                mseh_harvesters::HarvesterKind::Photovoltaic
            }
            fn current_at(&self, _v: Volts, _env: &EnvConditions) -> mseh_units::Amps {
                mseh_units::Amps::ZERO
            }
            fn open_circuit_voltage(&self, _env: &EnvConditions) -> Volts {
                Volts::ZERO
            }
        }
        let old = core::mem::replace(&mut self.harvester, Box::new(Placeholder));
        self.harvester = wrap(old);
        self.flush_memos();
    }

    /// Cumulative `(fired, cleared)` fault counts across the channel's
    /// blocks (harvester dropouts + converter/protection brownouts).
    pub fn fault_counts(&self) -> (u64, u64) {
        (
            self.harvester.fault_fire_count()
                + self.converter.fault_fire_count()
                + self.protection.fault_fire_count(),
            self.harvester.fault_clear_count()
                + self.converter.fault_clear_count()
                + self.protection.fault_clear_count(),
        )
    }

    /// The housekeeping the channel draws even when its source is dead
    /// (converter + protection standing draw; the controller gates itself
    /// off). This is the channel's contribution to the platform's
    /// quiescent current.
    pub fn idle_overhead(&self) -> Watts {
        self.converter.quiescent() + self.protection.quiescent()
    }

    /// Runs the channel for `dt` under `env`: the controller reads the
    /// bare harvester, then the chosen point is solved. Consults no memo,
    /// for a walk that reads a fresh snapshot each step, where the
    /// ambient bits never repeat. Counts one miss, so a per-step run's
    /// hit rate reads 0 rather than undefined.
    pub fn step(&mut self, env: &EnvConditions, dt: Seconds) -> HarvestStep {
        self.step_memo.stats.misses += 1;
        let v_op = self
            .controller
            .choose_voltage(Source::new(self.harvester.as_ref()), env, dt);
        let step = self.finish_step(v_op, env);
        self.advance_stages(dt);
        step
    }

    /// [`step`](Self::step) under a snapshot the walk holds for a whole
    /// control window, returning the same step bit for bit.
    ///
    /// When the step is replayable — the controller states a
    /// source-free [`WindowChoice`] at width `dt` and harvester,
    /// protection and converter are time-invariant — the result is
    /// memoised on the exact ambient bit pattern, and a repeat of the
    /// same conditions replays the stored step verbatim (bit-identical by
    /// construction) instead of re-solving. Otherwise the controller
    /// reads a time-invariant harvester through the open-circuit-voltage
    /// memo.
    pub fn step_held(&mut self, env: &EnvConditions, dt: Seconds) -> HarvestStep {
        let step = if !self.replayable(dt) {
            self.solve_step(env, dt)
        } else {
            let key = (env.ambient_bits(), dt.value().to_bits());
            match self.step_memo.get(&key) {
                Some(step) => {
                    // The controller still has to land in the same state
                    // a real choose_voltage would have left it in.
                    self.controller.reuse_voltage(step.operating_voltage, dt);
                    step
                }
                None => {
                    let step = self.solve_step(env, dt);
                    self.step_memo.put(key, step);
                    step
                }
            }
        };
        self.advance_stages(dt);
        step
    }

    /// Whether a step of width `dt` is a function of the ambient
    /// conditions and `dt` alone: the controller states a source-free
    /// [`WindowChoice`] at this width, and harvester, protection and
    /// converter are time-invariant.
    fn replayable(&self, dt: Seconds) -> bool {
        self.controller.window_choice(dt).is_some()
            && self.harvester.is_time_invariant()
            && self.protection.is_time_invariant()
            && self.converter.is_time_invariant()
    }

    /// Stages with internal clocks (scheduled-brownout wrappers) tick
    /// once per step, after it, so a stage is down for exactly the
    /// steps that start inside its fault windows.
    fn advance_stages(&mut self, dt: Seconds) {
        self.protection.advance(dt);
        self.converter.advance(dt);
    }

    /// The full held-step solve (no step memo consulted). The controller
    /// reads the harvester through the open-circuit-voltage memo unless
    /// the harvester is time-varying.
    fn solve_step(&mut self, env: &EnvConditions, dt: Seconds) -> HarvestStep {
        let memo = self
            .harvester
            .is_time_invariant()
            .then_some(&mut self.voc_memo);
        let source = Source {
            device: self.harvester.as_ref(),
            memo,
        };
        let v_op = self.controller.choose_voltage(source, env, dt);
        self.finish_step(v_op, env)
    }

    /// Completes a step whose operating voltage is already chosen — the
    /// post-controller half of every step, shared verbatim by
    /// [`step`](Self::step), [`step_held`](Self::step_held) and the
    /// batched window lanes so they stay bit-identical by construction.
    fn finish_step(&self, v_op: Volts, env: &EnvConditions) -> HarvestStep {
        if v_op.value() <= 0.0 {
            // Dead source: the channel sleeps; only converter housekeeping
            // persists (controllers gate themselves off).
            return HarvestStep {
                overhead: self.idle_overhead(),
                ..HarvestStep::default()
            };
        }
        let extracted =
            self.harvester.power_at(v_op, env) * (1.0 - self.controller.sampling_loss_fraction());
        let after_protection = self.protection.output_for_input(extracted, v_op);
        let delivered = self.converter.output_for_input(after_protection, v_op);
        HarvestStep {
            operating_voltage: v_op,
            extracted,
            delivered,
            overhead: self.controller.overhead()
                + self.converter.quiescent()
                + self.protection.quiescent(),
        }
    }

    /// Whether [`window_lanes`](Self::window_lanes) can stand in for
    /// per-node [`step`](Self::step) calls at width `dt`: the step must
    /// be replayable, as [`step_held`](Self::step_held) defines it, with
    /// a batch Voc kernel on the harvester when the controller's
    /// [`WindowChoice`] needs one.
    pub fn supports_window_lanes(&self, dt: Seconds) -> bool {
        self.replayable(dt)
            && match self.controller.window_choice(dt) {
                Some(WindowChoice::FractionOfVoc(_)) => self.harvester.voc_batch().is_some(),
                _ => true,
            }
    }

    /// One control window for a whole population: writes into `out[i]`
    /// exactly the [`HarvestStep`] a replayable per-node channel's
    /// [`step`](Self::step) would return for `envs[i]` at width `dt`,
    /// solving the operating points in one struct-of-arrays pass. The
    /// fraction-of-Voc rule batches through the harvester's
    /// [`voc_batch`](mseh_harvesters::Transducer::voc_batch) kernel, so
    /// every lane is bit-identical to the scalar solve; memo counters
    /// are not consulted or booked (the caller accounts for the lanes).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ or the channel does not
    /// [`support`](Self::supports_window_lanes) width `dt`.
    pub fn window_lanes(&mut self, envs: &[EnvConditions], dt: Seconds, out: &mut [HarvestStep]) {
        assert_eq!(envs.len(), out.len());
        let choice = self
            .controller
            .window_choice(dt)
            .expect("window_lanes requires a source-free window choice");
        match choice {
            WindowChoice::Fixed(v) => {
                for (slot, env) in out.iter_mut().zip(envs) {
                    *slot = self.finish_step(v, env);
                }
            }
            WindowChoice::FractionOfVoc(k) => {
                let mut lane_voc = core::mem::take(&mut self.lane_voc);
                lane_voc.resize(envs.len(), 0.0);
                self.harvester
                    .voc_batch()
                    .expect("FractionOfVoc windows require a harvester batch kernel")
                    .voc_lanes(envs, &mut lane_voc);
                for i in 0..envs.len() {
                    // Same arithmetic as the scalar `Voc * k` in FOCV.
                    let v_op = Volts::new(lane_voc[i]) * k;
                    out[i] = self.finish_step(v_op, &envs[i]);
                }
                self.lane_voc = lane_voc;
            }
        }
        // Mirror the per-window `step` call the scalar driver makes.
        self.advance_stages(dt);
    }

    /// The fractional closer step for a whole population: a step of width
    /// `frac` shorter than the control window. Where the controller's
    /// [`WindowChoice`] still resolves at this width the step is just a
    /// narrow window; otherwise each lane holds `held[i]` — its own
    /// previous window's operating voltage — exactly as the scalar
    /// controller's stale-hold contract does (the scalar fractional step
    /// bypasses the step memo).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    pub fn frac_lanes(
        &mut self,
        envs: &[EnvConditions],
        held: &[Volts],
        frac: Seconds,
        out: &mut [HarvestStep],
    ) {
        assert_eq!(envs.len(), held.len());
        assert_eq!(envs.len(), out.len());
        if self.controller.window_choice(frac).is_some() {
            self.window_lanes(envs, frac, out);
            return;
        }
        for i in 0..envs.len() {
            out[i] = self.finish_step(held[i], &envs[i]);
        }
        self.advance_stages(frac);
    }
}

impl core::fmt::Debug for InputChannel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("InputChannel")
            .field("harvester", &self.harvester.name())
            .field("controller", &self.controller.name())
            .field("protection", &self.protection.name())
            .field("converter", &self.converter.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::converter::DcDcConverter;
    use crate::diode::IdealDiode;
    use crate::mppt::{FixedPoint, PerturbObserve};
    use mseh_harvesters::{PvModule, Teg};
    use mseh_units::{Celsius, WattsPerSqM};

    fn sunny() -> EnvConditions {
        let mut env = EnvConditions::quiescent(Seconds::ZERO);
        env.irradiance = WattsPerSqM::new(800.0);
        env
    }

    fn pv_channel(controller: Box<dyn OperatingPointController>) -> InputChannel {
        InputChannel::new(
            Box::new(PvModule::outdoor_panel_half_watt()),
            controller,
            Box::new(IdealDiode::nanopower()),
            Box::new(DcDcConverter::mppt_front_end_5v()),
        )
    }

    #[test]
    fn mppt_channel_out_harvests_fixed_in_bright_sun() {
        let env = sunny();
        let mut mppt = pv_channel(Box::new(PerturbObserve::new()));
        // Fixed point chosen poorly relative to bright-sun MPP (~5 V).
        let mut fixed = pv_channel(Box::new(FixedPoint::new(Volts::new(3.0))));
        let (mut p_mppt, mut p_fixed) = (Watts::ZERO, Watts::ZERO);
        for _ in 0..300 {
            p_mppt = mppt.step(&env, Seconds::new(1.0)).net();
            p_fixed = fixed.step(&env, Seconds::new(1.0)).net();
        }
        assert!(p_mppt > p_fixed, "{p_mppt} vs {p_fixed}");
    }

    #[test]
    fn dead_source_costs_only_housekeeping() {
        let mut ch = pv_channel(Box::new(PerturbObserve::new()));
        let night = EnvConditions::quiescent(Seconds::ZERO);
        let step = ch.step(&night, Seconds::new(1.0));
        assert_eq!(step.delivered, Watts::ZERO);
        assert_eq!(step.extracted, Watts::ZERO);
        assert!(step.overhead.value() > 0.0);
        assert!(step.net().value() < 0.0);
    }

    #[test]
    fn swap_replaces_harvester() {
        let mut ch = pv_channel(Box::new(FixedPoint::new(Volts::new(0.4))));
        let old = ch.swap_harvester(Box::new(Teg::module_40mm()));
        assert_eq!(old.name(), "0.5 W polycrystalline panel");
        assert_eq!(ch.harvester().name(), "40 mm BiTe TEG");
        // The TEG channel now responds to thermal gradients.
        let mut env = EnvConditions::quiescent(Seconds::ZERO);
        env.hot_surface = Celsius::new(70.0);
        let step = ch.step(&env, Seconds::new(1.0));
        assert!(step.extracted.value() > 0.0);
    }

    #[test]
    fn delivered_never_exceeds_extracted() {
        let mut ch = pv_channel(Box::new(PerturbObserve::new()));
        let env = sunny();
        for _ in 0..100 {
            let step = ch.step(&env, Seconds::new(1.0));
            assert!(step.delivered <= step.extracted + Watts::new(1e-15));
        }
    }

    #[test]
    fn debug_lists_blocks() {
        let ch = pv_channel(Box::new(PerturbObserve::new()));
        let s = format!("{ch:?}");
        assert!(s.contains("polycrystalline"));
        assert!(s.contains("perturb-and-observe"));
    }

    #[test]
    fn repeated_conditions_replay_the_memo_bit_identically() {
        let mut ch = pv_channel(Box::new(FixedPoint::new(Volts::new(3.0))));
        let env = sunny();
        let dt = Seconds::new(1.0);
        let first = ch.step_held(&env, dt);
        let second = ch.step_held(&env, dt);
        assert_eq!(
            first.extracted.value().to_bits(),
            second.extracted.value().to_bits()
        );
        assert_eq!(
            first.delivered.value().to_bits(),
            second.delivered.value().to_bits()
        );
        assert_eq!(
            first.overhead.value().to_bits(),
            second.overhead.value().to_bits()
        );
        let stats = ch.kernel_cache_stats();
        assert!(stats.hits >= 1, "{stats:?}");
    }

    #[test]
    fn hidden_state_controllers_never_replay() {
        // P&O dithers around the MPP — its choice is history, not
        // environment, so the memo must stay out of the loop.
        let mut ch = pv_channel(Box::new(PerturbObserve::new()));
        let env = sunny();
        let mut last = Volts::ZERO;
        let mut moved = false;
        for _ in 0..10 {
            let step = ch.step_held(&env, Seconds::new(1.0));
            if step.operating_voltage != last {
                moved = last.value() > 0.0 || moved;
            }
            last = step.operating_voltage;
        }
        assert!(moved, "P&O should keep perturbing under constant sun");
        // The step memo never engages: the one lookup per step is the
        // tracker's open-circuit-voltage read, a history-free layer that
        // hits from the second step on.
        let stats = ch.kernel_cache_stats();
        assert_eq!((stats.hits, stats.misses), (9, 1), "{stats:?}");
    }

    /// Held conditions with changes in between, as a per-window fleet
    /// presents them.
    fn held_windows() -> Vec<EnvConditions> {
        [800.0, 800.0, 800.0, 0.0, 0.0, 350.0, 350.0, 800.0, 800.0]
            .iter()
            .enumerate()
            .map(|(i, &g)| {
                let mut env = EnvConditions::quiescent(Seconds::new(60.0 * i as f64));
                env.irradiance = WattsPerSqM::new(g);
                env
            })
            .collect()
    }

    #[test]
    fn voltage_memo_matches_fresh_source_solves_bitwise() {
        let pv = PvModule::outdoor_panel_half_watt();
        let mut memoized = pv_channel(Box::new(PerturbObserve::new()));
        let mut tracker = PerturbObserve::new();
        let dt = Seconds::new(60.0);
        for (i, env) in held_windows().iter().enumerate() {
            let step = memoized.step_held(env, dt);
            let v = tracker.choose_voltage(Source::new(&pv), env, dt);
            assert_eq!(
                step.operating_voltage.value().to_bits(),
                v.value().to_bits(),
                "step {i}"
            );
        }
        // Every repeat of a held snapshot was a memo answer.
        let stats = memoized.kernel_cache_stats();
        assert_eq!((stats.hits, stats.misses), (5, 4), "{stats:?}");
    }

    #[test]
    fn swap_and_wrap_flush_the_voltage_memo() {
        let mut ch = pv_channel(Box::new(PerturbObserve::new()));
        let env = sunny();
        let dt = Seconds::new(1.0);
        ch.step_held(&env, dt);
        ch.step_held(&env, dt);
        assert_eq!(ch.kernel_cache_stats().hits, 1);
        ch.swap_harvester(Box::new(PvModule::outdoor_panel_two_watt()));
        ch.step_held(&env, dt);
        let swapped = ch.kernel_cache_stats();
        assert_eq!((swapped.hits, swapped.invalidations), (1, 1));
        ch.wrap_harvester(|inner| inner);
        ch.step_held(&env, dt);
        let wrapped = ch.kernel_cache_stats();
        assert_eq!((wrapped.hits, wrapped.invalidations), (1, 2));
        assert_eq!(wrapped.misses, 3);
    }

    #[test]
    fn per_step_solves_never_replay_and_match_held_steps() {
        use crate::mppt::FractionalVoc;
        let builds: [fn() -> InputChannel; 3] = [
            || pv_channel(Box::new(PerturbObserve::new())),
            || pv_channel(Box::new(FractionalVoc::pv_standard())),
            || pv_channel(Box::new(FixedPoint::new(Volts::new(3.0)))),
        ];
        let dt = Seconds::new(60.0);
        for build in builds {
            let (mut fresh, mut held) = (build(), build());
            let windows = held_windows();
            for (i, env) in windows.iter().enumerate() {
                assert_eq!(fresh.step(env, dt), held.step_held(env, dt), "step {i}");
            }
            let name = fresh.controller().name().to_owned();
            // One miss per call and nothing stored: no replay, no flush.
            let expected = CacheStats {
                misses: windows.len() as u64,
                ..CacheStats::default()
            };
            assert_eq!(fresh.kernel_cache_stats(), expected, "{name}");
            fresh.swap_harvester(Box::new(PvModule::outdoor_panel_two_watt()));
            assert_eq!(fresh.kernel_cache_stats().invalidations, 0, "{name}");
            // The held channel did replay the repeated snapshots.
            assert!(held.kernel_cache_stats().hits > 0, "{name}");
        }
    }

    /// Held snapshots that differ from a base in one ambient field at a
    /// time, each held for two steps: a memo key that misses a field
    /// replays the base's solve for the moved snapshot.
    fn one_field_moves() -> Vec<EnvConditions> {
        use mseh_units::{GAccel, Hertz, Lux, MetersPerSecond};
        let base = EnvConditions {
            time: Seconds::ZERO,
            irradiance: WattsPerSqM::new(500.0),
            illuminance: Lux::new(400.0),
            wind: MetersPerSecond::new(6.0),
            ambient: Celsius::new(20.0),
            hot_surface: Celsius::new(85.0),
            vibration_amp: GAccel::new(0.4),
            vibration_freq: Hertz::new(90.0),
            rf_incident: Watts::from_micro(100.0),
            water_flow: MetersPerSecond::new(1.0),
        };
        let moves: [fn(&mut EnvConditions); 9] = [
            |e| e.irradiance = WattsPerSqM::new(700.0),
            |e| e.illuminance = Lux::new(700.0),
            |e| e.wind = MetersPerSecond::new(7.5),
            |e| e.ambient = Celsius::new(30.0),
            |e| e.hot_surface = Celsius::new(95.0),
            |e| e.vibration_amp = GAccel::new(0.6),
            |e| e.vibration_freq = Hertz::new(80.0),
            |e| e.rf_incident = Watts::from_micro(200.0),
            |e| e.water_flow = MetersPerSecond::new(1.4),
        ];
        let mut snapshots = Vec::new();
        for shift in moves {
            let mut moved = base;
            shift(&mut moved);
            snapshots.extend([base, base, moved, moved]);
        }
        for (i, env) in snapshots.iter_mut().enumerate() {
            env.time = Seconds::new(60.0 * i as f64);
        }
        snapshots
    }

    #[test]
    fn held_steps_match_fresh_solves_when_one_ambient_field_moves() {
        use crate::mppt::FractionalVoc;
        use mseh_harvesters::{FlowTurbine, Rectenna, VibrationHarvester};
        let snapshots = one_field_moves();
        let dt = Seconds::new(60.0);
        let harvesters: [fn() -> Box<dyn Transducer>; 8] = [
            || Box::new(PvModule::outdoor_panel_half_watt()),
            || Box::new(PvModule::amorphous_indoor()),
            || Box::new(Teg::module_40mm()),
            || Box::new(VibrationHarvester::piezo_cantilever()),
            || Box::new(VibrationHarvester::electromagnetic()),
            || Box::new(FlowTurbine::micro_wind()),
            || Box::new(FlowTurbine::micro_hydro()),
            || Box::new(Rectenna::rectenna_915mhz()),
        ];
        for harvester in harvesters {
            let device = harvester();
            let fixed = device.open_circuit_voltage(&snapshots[0]) * 0.6;
            let controllers: [Box<dyn Fn() -> Box<dyn OperatingPointController>>; 3] = [
                Box::new(|| Box::new(FractionalVoc::thevenin_standard())),
                Box::new(move || Box::new(FixedPoint::new(fixed))),
                Box::new(|| Box::new(PerturbObserve::new())),
            ];
            for controller in controllers {
                let channel = || {
                    InputChannel::new(
                        harvester(),
                        controller(),
                        Box::new(IdealDiode::nanopower()),
                        Box::new(DcDcConverter::mppt_front_end_5v()),
                    )
                };
                let (mut fresh, mut held) = (channel(), channel());
                let label = format!("{} / {}", device.name(), fresh.controller().name());
                let mut extracted = Watts::ZERO;
                for (i, env) in snapshots.iter().enumerate() {
                    let step = fresh.step(env, dt);
                    assert_eq!(held.step_held(env, dt), step, "{label}, snapshot {i}");
                    extracted += step.extracted;
                }
                assert!(extracted.value() > 0.0, "{label} harvested nothing");
                assert!(held.kernel_cache_stats().hits > 0, "{label} never replayed");
            }
        }
    }

    #[test]
    fn focv_channel_with_memo_matches_uncached_run_bitwise() {
        use crate::mppt::FractionalVoc;
        let build = || {
            InputChannel::new(
                Box::new(PvModule::outdoor_panel_half_watt()),
                Box::new(FractionalVoc::pv_standard()),
                Box::new(IdealDiode::nanopower()),
                Box::new(DcDcConverter::mppt_front_end_5v()),
            )
        };
        let mut cached = build();
        let mut cold = build();
        // Constant-sun spans with a condition change in the middle; the
        // 60 s step exceeds the 30 s FOCV interval, so every step samples.
        let dt = Seconds::new(60.0);
        let mut irradiances = vec![800.0; 10];
        irradiances.extend([500.0; 10]);
        irradiances.extend([800.0; 5]);
        for (i, g) in irradiances.into_iter().enumerate() {
            let mut env = EnvConditions::quiescent(Seconds::new(60.0 * i as f64));
            env.irradiance = WattsPerSqM::new(g);
            let a = cached.step_held(&env, dt);
            let b = cold.step(&env, dt);
            assert_eq!(
                a.operating_voltage.value().to_bits(),
                b.operating_voltage.value().to_bits(),
                "step {i}"
            );
            assert_eq!(
                a.delivered.value().to_bits(),
                b.delivered.value().to_bits(),
                "step {i}"
            );
        }
        let stats = cached.kernel_cache_stats();
        assert!(stats.hits >= 20, "{stats:?}");
        let cold = cold.kernel_cache_stats();
        assert_eq!((cold.hits, cold.misses), (0, 25), "{cold:?}");
    }

    #[test]
    fn swap_and_wrap_flush_the_memo() {
        let mut ch = pv_channel(Box::new(FixedPoint::new(Volts::new(3.0))));
        let env = sunny();
        ch.step_held(&env, Seconds::new(1.0));
        ch.step_held(&env, Seconds::new(1.0));
        assert!(ch.kernel_cache_stats().hits >= 1);
        let before = ch.kernel_cache_stats().invalidations;
        ch.swap_harvester(Box::new(PvModule::outdoor_panel_half_watt()));
        assert!(ch.kernel_cache_stats().invalidations > before);
        // The post-swap step must be a fresh solve, not a replay.
        let hits_before = ch.kernel_cache_stats().hits;
        ch.step_held(&env, Seconds::new(1.0));
        assert_eq!(ch.kernel_cache_stats().hits, hits_before);
    }

    #[test]
    fn window_lanes_match_fresh_scalar_channels_bitwise() {
        use crate::mppt::FractionalVoc;
        let dt = Seconds::new(60.0);
        // A spread of windows including a dark lane (dead-source branch).
        let envs: Vec<EnvConditions> = (0..9)
            .map(|i| {
                let mut env = EnvConditions::quiescent(Seconds::new(60.0 * i as f64));
                if i != 4 {
                    env.irradiance = WattsPerSqM::new(120.0 * i as f64 + 35.0);
                }
                env
            })
            .collect();
        let builds: [fn() -> InputChannel; 2] = [
            || pv_channel(Box::new(FractionalVoc::pv_standard())),
            || pv_channel(Box::new(FixedPoint::new(Volts::new(3.0)))),
        ];
        for build in builds {
            let mut batched = build();
            assert!(batched.supports_window_lanes(dt));
            let mut out = vec![HarvestStep::default(); envs.len()];
            batched.window_lanes(&envs, dt, &mut out);
            for (i, env) in envs.iter().enumerate() {
                // Each lane must equal a fresh replayable channel's first
                // window step on that lane's environment.
                let scalar = build().step(env, dt);
                assert_eq!(out[i], scalar, "lane {i}");
            }
            // The batch pass books nothing: the caller owns the counters.
            assert_eq!(batched.kernel_cache_stats(), CacheStats::default());
        }
    }

    #[test]
    fn frac_lanes_hold_matches_scalar_fractional_step_bitwise() {
        use crate::mppt::FractionalVoc;
        let dt = Seconds::new(60.0);
        let frac = Seconds::new(7.5); // below the 30 s FOCV interval
        let window_envs: Vec<EnvConditions> = (0..5)
            .map(|i| {
                let mut env = EnvConditions::quiescent(Seconds::new(60.0 * i as f64));
                if i != 2 {
                    env.irradiance = WattsPerSqM::new(700.0 - 90.0 * i as f64);
                }
                env
            })
            .collect();
        // Conditions shift before the closer step; FOCV must keep holding.
        let frac_envs: Vec<EnvConditions> = window_envs
            .iter()
            .map(|e| {
                let mut env = *e;
                env.irradiance = WattsPerSqM::new(e.irradiance.value() * 0.5);
                env
            })
            .collect();
        let build = || pv_channel(Box::new(FractionalVoc::pv_standard()));
        let mut batched = build();
        let mut window = vec![HarvestStep::default(); window_envs.len()];
        batched.window_lanes(&window_envs, dt, &mut window);
        let held: Vec<Volts> = window.iter().map(|hs| hs.operating_voltage).collect();
        let mut out = vec![HarvestStep::default(); window_envs.len()];
        batched.frac_lanes(&frac_envs, &held, frac, &mut out);
        for i in 0..window_envs.len() {
            let mut scalar = build();
            let w = scalar.step(&window_envs[i], dt);
            assert_eq!(w, window[i], "lane {i} window");
            let f = scalar.step(&frac_envs[i], frac);
            assert_eq!(f, out[i], "lane {i} closer");
            if window_envs[i].irradiance.value() > 0.0 {
                assert_eq!(f.operating_voltage, w.operating_voltage, "hold broken");
            }
        }
        // A closer step spanning the interval resamples instead.
        let wide = Seconds::new(45.0);
        let mut resampled = vec![HarvestStep::default(); window_envs.len()];
        batched.frac_lanes(&frac_envs, &held, wide, &mut resampled);
        for i in 0..window_envs.len() {
            let mut scalar = build();
            scalar.step(&window_envs[i], dt);
            assert_eq!(scalar.step(&frac_envs[i], wide), resampled[i], "lane {i}");
        }
    }

    #[test]
    fn window_lane_support_requires_batchable_chain() {
        use crate::mppt::FractionalVoc;
        let dt = Seconds::new(60.0);
        // P&O has no source-free window rule.
        assert!(!pv_channel(Box::new(PerturbObserve::new())).supports_window_lanes(dt));
        // FOCV below its sample interval holds hidden state.
        let focv = pv_channel(Box::new(FractionalVoc::pv_standard()));
        assert!(!focv.supports_window_lanes(Seconds::new(1.0)));
        assert!(focv.supports_window_lanes(dt));
        // FOCV over a harvester without a batch Voc kernel cannot batch.
        let no_kernel = InputChannel::new(
            Box::new(mseh_harvesters::Rectenna::rectenna_915mhz()),
            Box::new(FractionalVoc::thevenin_standard()),
            Box::new(IdealDiode::nanopower()),
            Box::new(DcDcConverter::mppt_front_end_5v()),
        );
        assert!(!no_kernel.supports_window_lanes(dt));
        // Time-varying stages (scheduled brownouts) break replayability.
        struct Clocked;
        impl PowerStage for Clocked {
            fn name(&self) -> &str {
                "clocked"
            }
            fn quiescent(&self) -> Watts {
                Watts::ZERO
            }
            fn accepts_input_voltage(&self, _v: Volts) -> bool {
                true
            }
            fn output_voltage(&self) -> Volts {
                Volts::new(3.3)
            }
            fn output_for_input(&self, p_in: Watts, _v: Volts) -> Watts {
                p_in
            }
            fn input_for_output(&self, p_out: Watts, _v: Volts) -> Watts {
                p_out
            }
            fn is_time_invariant(&self) -> bool {
                false
            }
        }
        let clocked = InputChannel::new(
            Box::new(PvModule::outdoor_panel_half_watt()),
            Box::new(FixedPoint::new(Volts::new(3.0))),
            Box::new(IdealDiode::nanopower()),
            Box::new(Clocked),
        );
        assert!(!clocked.supports_window_lanes(dt));
    }
}
