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
    /// Memoised result of the last fully-solved replayable step, keyed on
    /// the exact ambient bit pattern and the step width.
    memo: Option<ChannelMemo>,
    cache_enabled: bool,
    memo_hits: u64,
    memo_misses: u64,
    memo_invalidations: u64,
    /// Scratch for batched window solves: per-lane open-circuit voltages.
    lane_voc: Vec<f64>,
}

/// One memoised channel step. Replaying it is sound only when the
/// controller's choice is a pure function of `(env, dt)` and every block
/// in the chain is time-invariant — `step` checks both before looking.
#[derive(Debug, Clone, Copy)]
struct ChannelMemo {
    key: ([u64; 9], u64),
    step: HarvestStep,
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
            memo: None,
            cache_enabled: true,
            memo_hits: 0,
            memo_misses: 0,
            memo_invalidations: 0,
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
    /// Flushes every solve memo: results solved for the old device must
    /// not answer for the new one.
    pub fn swap_harvester(&mut self, new: Box<dyn Transducer>) -> Box<dyn Transducer> {
        let old = core::mem::replace(&mut self.harvester, new);
        self.invalidate_solve_memos();
        old
    }

    /// Drops the channel memo and the harvester's operating-point cache
    /// (hot-swap, instrumentation wrap, fault fire/clear).
    pub fn invalidate_solve_memos(&mut self) {
        if self.memo.take().is_some() {
            self.memo_invalidations += 1;
        }
        if let Some(cache) = self.harvester.solve_cache() {
            cache.invalidate();
        }
        // Propagate the enabled switch to whatever is now in the slot so a
        // disabled channel stays fully disabled across swaps.
        if let Some(cache) = self.harvester.solve_cache() {
            cache.set_enabled(self.cache_enabled);
        }
    }

    /// Enables or disables both layers of the channel's kernel cache
    /// (the step memo and the harvester's solve cache). Disabling drops
    /// any stored entries so a later re-enable starts cold.
    pub fn set_cache_enabled(&mut self, enabled: bool) {
        self.cache_enabled = enabled;
        self.memo = None;
        if let Some(cache) = self.harvester.solve_cache() {
            cache.set_enabled(enabled);
        }
    }

    /// Whether the channel's kernel cache is serving memoized results.
    pub fn cache_enabled(&self) -> bool {
        self.cache_enabled
    }

    /// Whether, *from the channel's current state*, a repeat [`step`]
    /// under identical conditions and the same `dt` is guaranteed to be a
    /// memo replay (bit-identical, no fresh solve).
    ///
    /// This holds when the cache is enabled, the controller's choice is a
    /// pure function of `(env, dt)` in its current state, and every block
    /// in the chain is time-invariant. The fleet engine's dense lane uses
    /// this to prove that driving one representative channel once per
    /// control window reproduces each member node's per-step channel
    /// outputs exactly.
    ///
    /// [`step`]: InputChannel::step
    pub fn is_replayable(&self, dt: Seconds) -> bool {
        self.cache_enabled
            && self.controller.is_env_pure(dt)
            && self.harvester.is_time_invariant()
            && self.protection.is_time_invariant()
            && self.converter.is_time_invariant()
    }

    /// Counters for the channel step memo alone (no harvester cache).
    pub fn memo_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.memo_hits,
            misses: self.memo_misses,
            invalidations: self.memo_invalidations,
        }
    }

    /// Combined kernel-cache counters: the channel step memo plus the
    /// harvester's operating-point solve cache.
    pub fn kernel_cache_stats(&self) -> CacheStats {
        let mut stats = self.memo_stats();
        if let Some(cache) = self.harvester.solve_cache() {
            stats.merge(cache.stats());
        }
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
        self.invalidate_solve_memos();
    }

    /// Rebuilds the front-end converter in place through `wrap` (e.g.
    /// a scheduled-brownout wrapper).
    pub fn wrap_converter(
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
        let old = core::mem::replace(&mut self.converter, Box::new(Placeholder));
        self.converter = wrap(old);
        self.invalidate_solve_memos();
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

    /// Runs the channel for `dt` under `env`.
    ///
    /// When every block in the chain is provably quasi-static for this
    /// step — the controller's choice is a pure function of `(env, dt)`
    /// and harvester, protection and converter are time-invariant — the
    /// result is memoised on the exact ambient bit pattern, and a repeat
    /// of the same conditions replays the stored step verbatim
    /// (bit-identical by construction) instead of re-solving.
    pub fn step(&mut self, env: &EnvConditions, dt: Seconds) -> HarvestStep {
        // Stages with internal clocks (scheduled-brownout wrappers) age
        // by operating time.
        self.protection.advance(dt);
        self.converter.advance(dt);
        if self.cache_enabled
            && self.controller.is_env_pure(dt)
            && self.harvester.is_time_invariant()
            && self.protection.is_time_invariant()
            && self.converter.is_time_invariant()
        {
            return self.memo_step(env, dt);
        }
        self.solve_step(env, dt)
    }

    /// The memoized step path: replay on a key match, otherwise solve
    /// `env` and store the result.
    fn memo_step(&mut self, env: &EnvConditions, dt: Seconds) -> HarvestStep {
        let key = (env.ambient_bits(), dt.value().to_bits());
        if let Some(memo) = self.memo {
            if memo.key == key {
                self.memo_hits += 1;
                // The controller still has to land in the same state a
                // real choose_voltage would have left it in.
                self.controller
                    .reuse_voltage(memo.step.operating_voltage, dt);
                return memo.step;
            }
        }
        self.memo_misses += 1;
        let step = self.solve_step(env, dt);
        self.memo = Some(ChannelMemo { key, step });
        step
    }

    /// The full per-step solve (no memo consulted).
    fn solve_step(&mut self, env: &EnvConditions, dt: Seconds) -> HarvestStep {
        let v_op = self
            .controller
            .choose_voltage(self.harvester.as_ref(), env, dt);
        self.finish_step(v_op, env)
    }

    /// Completes a step whose operating voltage is already chosen — the
    /// post-controller half of [`solve_step`](Self::solve_step), shared
    /// verbatim by the scalar path and the batched window lanes so the
    /// two stay bit-identical by construction.
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
    /// per-node [`step`](Self::step) calls at width `dt`: the chain must
    /// be replayable (cache on, every block time-invariant) *and* the
    /// controller must state a source-free [`WindowChoice`] — with a
    /// batch Voc kernel on the harvester when that choice needs one.
    pub fn supports_window_lanes(&self, dt: Seconds) -> bool {
        let batchable = match self.controller.window_choice(dt) {
            Some(WindowChoice::FractionOfVoc(_)) => self.harvester.voc_batch().is_some(),
            Some(WindowChoice::Fixed(_)) => true,
            None => false,
        };
        batchable
            && self.cache_enabled
            && self.harvester.is_time_invariant()
            && self.protection.is_time_invariant()
            && self.converter.is_time_invariant()
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
        // Mirror the per-window `step` call the scalar driver makes.
        self.protection.advance(dt);
        self.converter.advance(dt);
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
    }

    /// The fractional closer step for a whole population: a step of width
    /// `frac` shorter than the control window. Where the controller's
    /// [`WindowChoice`] still resolves at this width the step is just a
    /// narrow window; otherwise each lane holds `held[i]` — its own
    /// previous window's operating voltage — exactly as the scalar
    /// controller's stale-hold contract does (the scalar fractional step
    /// bypasses the memo).
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
        self.protection.advance(frac);
        self.converter.advance(frac);
        for i in 0..envs.len() {
            out[i] = self.finish_step(held[i], &envs[i]);
        }
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
        let first = ch.step(&env, dt);
        let second = ch.step(&env, dt);
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
            let step = ch.step(&env, Seconds::new(1.0));
            if step.operating_voltage != last {
                moved = last.value() > 0.0 || moved;
            }
            last = step.operating_voltage;
        }
        assert!(moved, "P&O should keep perturbing under constant sun");
        // The step memo never engages (the harvester's own pure-solve
        // cache may still hit — that layer is history-free).
        let memo = ch.memo_stats();
        assert_eq!((memo.hits, memo.misses), (0, 0));
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
        cold.set_cache_enabled(false);
        // Constant-sun spans with a condition change in the middle; the
        // 60 s step exceeds the 30 s FOCV interval, so every step samples.
        let dt = Seconds::new(60.0);
        let mut irradiances = vec![800.0; 10];
        irradiances.extend([500.0; 10]);
        irradiances.extend([800.0; 5]);
        for (i, g) in irradiances.into_iter().enumerate() {
            let mut env = EnvConditions::quiescent(Seconds::new(60.0 * i as f64));
            env.irradiance = WattsPerSqM::new(g);
            let a = cached.step(&env, dt);
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
        assert_eq!(cold.kernel_cache_stats().hits, 0);
    }

    #[test]
    fn swap_and_wrap_flush_the_memo() {
        let mut ch = pv_channel(Box::new(FixedPoint::new(Volts::new(3.0))));
        let env = sunny();
        ch.step(&env, Seconds::new(1.0));
        ch.step(&env, Seconds::new(1.0));
        assert!(ch.kernel_cache_stats().hits >= 1);
        let before = ch.kernel_cache_stats().invalidations;
        ch.swap_harvester(Box::new(PvModule::outdoor_panel_half_watt()));
        assert!(ch.kernel_cache_stats().invalidations > before);
        // The post-swap step must be a fresh solve, not a replay.
        let hits_before = ch.kernel_cache_stats().hits;
        ch.step(&env, Seconds::new(1.0));
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
            assert_eq!(batched.memo_stats().hits + batched.memo_stats().misses, 0);
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
        // A disabled kernel cache disables the batched lane with it.
        let mut disabled = pv_channel(Box::new(FixedPoint::new(Volts::new(3.0))));
        disabled.set_cache_enabled(false);
        assert!(!disabled.supports_window_lanes(dt));
        // Time-varying stages (scheduled brownouts) break replayability.
        let mut wrapped = pv_channel(Box::new(FixedPoint::new(Volts::new(3.0))));
        wrapped.wrap_converter(|inner| {
            Box::new(crate::BrownoutConverter::new(
                inner,
                vec![(Seconds::from_hours(1.0), Seconds::from_hours(1.1))],
            ))
        });
        assert!(!wrapped.supports_window_lanes(dt));
    }

    #[test]
    fn disabled_cache_never_replays() {
        let mut ch = pv_channel(Box::new(FixedPoint::new(Volts::new(3.0))));
        ch.set_cache_enabled(false);
        assert!(!ch.cache_enabled());
        let env = sunny();
        let a = ch.step(&env, Seconds::new(1.0));
        let b = ch.step(&env, Seconds::new(1.0));
        assert_eq!(a, b);
        let stats = ch.kernel_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }
}
