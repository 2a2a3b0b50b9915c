//! Operating-point controllers: maximum-power-point tracking (perturb &
//! observe, fractional open-circuit voltage) and the fixed-point
//! compromise.
//!
//! The survey: "Many of the systems implement some form of MPPT, which is
//! important providing that the overhead of implementing it does not
//! exceed the delivered benefits." Each controller therefore reports its
//! control-power overhead, so experiment E3 can locate the crossover.

use core::fmt;

use crate::input_stage::Source;
use mseh_env::EnvConditions;
use mseh_units::{Seconds, Volts, Watts};

/// The tracking strategy a controller implements (a taxonomy axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TrackingStrategy {
    /// Digital perturb-and-observe MPPT.
    PerturbObserve,
    /// Fractional open-circuit-voltage MPPT (periodic Voc sampling).
    FractionalVoc,
    /// A fixed operating voltage (System B's module compromise).
    FixedPoint,
}

impl fmt::Display for TrackingStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TrackingStrategy::PerturbObserve => "P&O MPPT",
            TrackingStrategy::FractionalVoc => "FOCV MPPT",
            TrackingStrategy::FixedPoint => "fixed point",
        })
    }
}

/// The environment-pure operating-point rule a controller applies over
/// one control window, stated without a live source in hand — the
/// contract the batched fleet lanes drive instead of per-node
/// [`choose_voltage`](OperatingPointController::choose_voltage) calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowChoice {
    /// Hold this fraction of the lane's own open-circuit voltage,
    /// resampled from the lane's environment at the window boundary.
    FractionOfVoc(f64),
    /// Hold a constant voltage regardless of environment.
    Fixed(Volts),
}

/// Chooses the harvester operating voltage each simulation step.
///
/// Implementations are stateful (trackers remember their last point) and
/// report a constant control-power [`overhead`](Self::overhead) drawn from
/// the bus whenever the input channel is active.
pub trait OperatingPointController: Send + Sync {
    /// Human-readable controller name.
    fn name(&self) -> &str;

    /// The strategy class, for taxonomy extraction.
    fn strategy(&self) -> TrackingStrategy;

    /// Control power drawn while the channel operates.
    fn overhead(&self) -> Watts;

    /// Picks the terminal voltage to hold the harvester at for the next
    /// `dt`, given the live source and conditions.
    fn choose_voltage(&mut self, source: Source<'_>, env: &EnvConditions, dt: Seconds) -> Volts;

    /// Fraction of the step's harvest lost to the controller's sampling
    /// action (e.g. FOCV's periodic disconnection). Defaults to zero.
    fn sampling_loss_fraction(&self) -> f64 {
        0.0
    }

    /// Restores the exact post-`choose_voltage` state for a replayed
    /// call that held `held` for `dt` — the state-side half of the memo
    /// contract below. Only invoked when
    /// [`window_choice`](Self::window_choice) answers `Some` for the same
    /// `dt`. Default: stateless, nothing to restore.
    fn reuse_voltage(&mut self, _held: Volts, _dt: Seconds) {}

    /// The source-free rule every `choose_voltage` call of width `dt`
    /// applies, whatever state the controller is in, if one exists —
    /// `None` (the default, always safe) for controllers whose choice
    /// depends on hidden history. A `Some` answer says the call is a
    /// pure function of `(env, dt)`: same voltage out and, after
    /// [`reuse_voltage`](Self::reuse_voltage), same controller state, so
    /// a channel's step memo may replay a stored result, and the fleet's
    /// batched dense lane may compute every member node's operating
    /// voltage in one struct-of-arrays pass. For widths where this
    /// returns `None`, a batchable controller must hold its previous
    /// window's voltage unchanged (the FOCV mid-interval contract), so
    /// the caller can carry it forward per lane.
    fn window_choice(&self, _dt: Seconds) -> Option<WindowChoice> {
        None
    }
}

/// Digital perturb-and-observe tracker.
///
/// Each step it perturbs the operating voltage by a fixed fraction of the
/// current open-circuit voltage, keeps the direction while power rises and
/// reverses when it falls — converging to (and dithering around) the MPP.
///
/// # Examples
///
/// ```
/// use mseh_power::{PerturbObserve, OperatingPointController, Source};
/// use mseh_harvesters::{PvModule, Transducer};
/// use mseh_env::EnvConditions;
/// use mseh_units::{Seconds, WattsPerSqM};
///
/// let pv = PvModule::outdoor_panel_half_watt();
/// let mut env = EnvConditions::quiescent(Seconds::ZERO);
/// env.irradiance = WattsPerSqM::new(800.0);
/// let mut tracker = PerturbObserve::new();
/// let mut v = mseh_units::Volts::ZERO;
/// for _ in 0..200 {
///     v = tracker.choose_voltage(Source::new(&pv), &env, Seconds::new(1.0));
/// }
/// let mpp = pv.mpp(&env);
/// assert!((v - mpp.voltage).abs().value() < 0.3);
/// ```
#[derive(Debug, Clone)]
pub struct PerturbObserve {
    v: Volts,
    last_power: Watts,
    direction: f64,
    /// Perturbation step as a fraction of Voc.
    step_fraction: f64,
    overhead: Watts,
}

impl PerturbObserve {
    /// A tracker with the default 2 % step and a 60 µW digital-controller
    /// overhead (small MCU + sensing).
    pub fn new() -> Self {
        Self::with_step(0.02, Watts::from_micro(60.0))
    }

    /// A tracker with a custom perturbation step and overhead.
    ///
    /// # Panics
    ///
    /// Panics if `step_fraction` is not in `(0, 0.5]`.
    pub fn with_step(step_fraction: f64, overhead: Watts) -> Self {
        assert!(
            step_fraction > 0.0 && step_fraction <= 0.5,
            "step fraction must be in (0, 0.5]"
        );
        Self {
            v: Volts::ZERO,
            last_power: Watts::ZERO,
            direction: 1.0,
            step_fraction,
            overhead,
        }
    }
}

impl Default for PerturbObserve {
    fn default() -> Self {
        Self::new()
    }
}

impl OperatingPointController for PerturbObserve {
    fn name(&self) -> &str {
        "perturb-and-observe tracker"
    }

    fn strategy(&self) -> TrackingStrategy {
        TrackingStrategy::PerturbObserve
    }

    fn overhead(&self) -> Watts {
        self.overhead
    }

    fn choose_voltage(
        &mut self,
        mut source: Source<'_>,
        env: &EnvConditions,
        _dt: Seconds,
    ) -> Volts {
        let voc = source.open_circuit_voltage(env);
        if voc.value() <= 0.0 {
            self.v = Volts::ZERO;
            self.last_power = Watts::ZERO;
            return Volts::ZERO;
        }
        if self.v.value() <= 0.0 || self.v > voc {
            // (Re)start near the typical MPP region.
            self.v = voc * 0.7;
        }
        let power = source.power_at(self.v, env);
        if power < self.last_power {
            self.direction = -self.direction;
        }
        self.last_power = power;
        let step = voc * (self.step_fraction * self.direction);
        self.v = (self.v + step).clamp(voc * 0.05, voc * 0.98);
        self.v
    }
}

/// Fractional open-circuit-voltage tracker.
///
/// Periodically disconnects the source to sample `Voc`, then holds
/// `k·Voc` (k ≈ 0.76 for silicon PV, 0.5 for Thevenin-like sources).
/// Cheap (analog implementation possible) but loses the sampling window's
/// harvest and mistracks between samples.
#[derive(Debug, Clone)]
pub struct FractionalVoc {
    /// Voltage fraction of Voc to hold.
    k: f64,
    /// Interval between Voc samples.
    sample_interval: Seconds,
    /// Duration of the sampling disconnection.
    sample_window: Seconds,
    overhead: Watts,
    since_sample: Seconds,
    held: Volts,
}

impl FractionalVoc {
    /// The standard PV configuration: k = 0.76, 30 s sampling interval,
    /// 50 ms window, 15 µW overhead.
    pub fn pv_standard() -> Self {
        Self::with_parameters(0.76, Seconds::new(30.0), Seconds::from_milli(50.0))
    }

    /// For Thevenin-like sources (wind, TEG, piezo): k = 0.5.
    pub fn thevenin_standard() -> Self {
        Self::with_parameters(0.5, Seconds::new(30.0), Seconds::from_milli(50.0))
    }

    /// Custom fraction and sampling cadence.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside `(0, 1)` or the window exceeds the
    /// interval.
    pub fn with_parameters(k: f64, sample_interval: Seconds, sample_window: Seconds) -> Self {
        assert!(k > 0.0 && k < 1.0, "fraction must be in (0, 1)");
        assert!(
            sample_window.value() >= 0.0 && sample_window < sample_interval,
            "sampling window must be shorter than the interval"
        );
        Self {
            k,
            sample_interval,
            sample_window,
            overhead: Watts::from_micro(15.0),
            since_sample: Seconds::new(f64::INFINITY),
            held: Volts::ZERO,
        }
    }
}

impl OperatingPointController for FractionalVoc {
    fn name(&self) -> &str {
        "fractional-Voc tracker"
    }

    fn strategy(&self) -> TrackingStrategy {
        TrackingStrategy::FractionalVoc
    }

    fn overhead(&self) -> Watts {
        self.overhead
    }

    fn sampling_loss_fraction(&self) -> f64 {
        self.sample_window.value() / self.sample_interval.value()
    }

    fn choose_voltage(
        &mut self,
        mut source: Source<'_>,
        env: &EnvConditions,
        dt: Seconds,
    ) -> Volts {
        self.since_sample += dt;
        if self.since_sample >= self.sample_interval {
            self.since_sample = Seconds::ZERO;
            self.held = source.open_circuit_voltage(env) * self.k;
        }
        self.held
    }

    fn reuse_voltage(&mut self, held: Volts, _dt: Seconds) {
        // Reproduce the exact state a resampling call leaves behind.
        self.since_sample = Seconds::ZERO;
        self.held = held;
    }

    fn window_choice(&self, dt: Seconds) -> Option<WindowChoice> {
        // A step at least as long as the interval resamples whatever the
        // clock holds (it never runs backwards) and lands it back at
        // zero, so output and post-state are functions of `(env, dt)`
        // alone. A shorter step may return the stale `held`, which is
        // history, not environment; the batched caller carries it per
        // lane.
        (dt >= self.sample_interval).then_some(WindowChoice::FractionOfVoc(self.k))
    }
}

/// A fixed operating voltage: zero tracking overhead, zero adaptivity —
/// System B's demonstration-module compromise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedPoint {
    v: Volts,
    overhead: Watts,
}

impl FixedPoint {
    /// Holds the source at `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not positive.
    pub fn new(v: Volts) -> Self {
        assert!(v.value() > 0.0, "operating voltage must be positive");
        Self {
            v,
            overhead: Watts::from_micro(2.0),
        }
    }
}

impl OperatingPointController for FixedPoint {
    fn name(&self) -> &str {
        "fixed operating point"
    }

    fn strategy(&self) -> TrackingStrategy {
        TrackingStrategy::FixedPoint
    }

    fn overhead(&self) -> Watts {
        self.overhead
    }

    fn choose_voltage(&mut self, _source: Source<'_>, _env: &EnvConditions, _dt: Seconds) -> Volts {
        self.v
    }

    fn window_choice(&self, _dt: Seconds) -> Option<WindowChoice> {
        // Stateless and constant: trivially replayable.
        Some(WindowChoice::Fixed(self.v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_harvesters::{PvModule, Transducer};
    use mseh_units::WattsPerSqM;

    fn sunny() -> EnvConditions {
        let mut env = EnvConditions::quiescent(Seconds::ZERO);
        env.irradiance = WattsPerSqM::new(800.0);
        env
    }

    fn run_tracker(
        tracker: &mut dyn OperatingPointController,
        pv: &PvModule,
        env: &EnvConditions,
        steps: usize,
    ) -> Volts {
        let mut v = Volts::ZERO;
        for _ in 0..steps {
            v = tracker.choose_voltage(Source::new(pv), env, Seconds::new(1.0));
        }
        v
    }

    #[test]
    fn perturb_observe_converges_to_mpp() {
        let pv = PvModule::outdoor_panel_half_watt();
        let env = sunny();
        let mut po = PerturbObserve::new();
        let v = run_tracker(&mut po, &pv, &env, 300);
        let mpp = pv.mpp(&env);
        let harvested = pv.power_at(v, &env);
        // Within 5 % of true MPP power despite dithering.
        assert!(
            harvested.value() > 0.95 * mpp.power().value(),
            "{} vs {}",
            harvested,
            mpp.power()
        );
    }

    #[test]
    fn perturb_observe_recovers_after_dark_spell() {
        let pv = PvModule::outdoor_panel_half_watt();
        let mut po = PerturbObserve::new();
        run_tracker(&mut po, &pv, &sunny(), 100);
        // Night: tracker resets.
        let dark = EnvConditions::quiescent(Seconds::ZERO);
        assert_eq!(
            po.choose_voltage(Source::new(&pv), &dark, Seconds::new(1.0)),
            Volts::ZERO
        );
        // Morning: converges again.
        let v = run_tracker(&mut po, &pv, &sunny(), 300);
        let mpp = pv.mpp(&sunny());
        assert!(pv.power_at(v, &sunny()).value() > 0.95 * mpp.power().value());
    }

    #[test]
    fn focv_holds_fraction_of_voc() {
        let pv = PvModule::outdoor_panel_half_watt();
        let env = sunny();
        let mut focv = FractionalVoc::pv_standard();
        let v = focv.choose_voltage(Source::new(&pv), &env, Seconds::new(1.0));
        let voc = pv.open_circuit_voltage(&env);
        assert!((v.value() - 0.76 * voc.value()).abs() < 1e-9);
        // Between samples the held voltage does not move.
        let v2 = focv.choose_voltage(Source::new(&pv), &env, Seconds::new(1.0));
        assert_eq!(v, v2);
    }

    #[test]
    fn focv_resamples_after_interval() {
        let pv = PvModule::outdoor_panel_half_watt();
        let mut focv = FractionalVoc::pv_standard();
        let v_bright = focv.choose_voltage(Source::new(&pv), &sunny(), Seconds::new(1.0));
        // Light collapses; held value persists until the next sample...
        let mut dim = sunny();
        dim.irradiance = WattsPerSqM::new(50.0);
        let v_stale = focv.choose_voltage(Source::new(&pv), &dim, Seconds::new(1.0));
        assert_eq!(v_stale, v_bright);
        // ...after which it adapts.
        let v_fresh = focv.choose_voltage(Source::new(&pv), &dim, Seconds::new(30.0));
        assert!(v_fresh < v_bright);
    }

    #[test]
    fn focv_near_mpp_for_pv() {
        let pv = PvModule::outdoor_panel_half_watt();
        let env = sunny();
        let mut focv = FractionalVoc::pv_standard();
        let v = focv.choose_voltage(Source::new(&pv), &env, Seconds::new(1.0));
        let mpp = pv.mpp(&env);
        let ratio = pv.power_at(v, &env).value() / mpp.power().value();
        assert!(ratio > 0.9, "FOCV captures {ratio} of MPP");
    }

    #[test]
    fn overhead_ordering_matches_complexity() {
        let po = PerturbObserve::new();
        let focv = FractionalVoc::pv_standard();
        let fixed = FixedPoint::new(Volts::new(2.0));
        assert!(po.overhead() > focv.overhead());
        assert!(focv.overhead() > fixed.overhead());
        assert_eq!(fixed.strategy(), TrackingStrategy::FixedPoint);
        assert_eq!(po.strategy().to_string(), "P&O MPPT");
    }

    #[test]
    fn sampling_loss_only_for_focv() {
        assert_eq!(PerturbObserve::new().sampling_loss_fraction(), 0.0);
        let focv = FractionalVoc::pv_standard();
        let loss = focv.sampling_loss_fraction();
        assert!((loss - 0.05 / 30.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "step fraction")]
    fn rejects_bad_step() {
        PerturbObserve::with_step(0.9, Watts::ZERO);
    }

    #[test]
    fn env_purity_contract_per_controller() {
        // Wherever a controller states a window rule, `choose_voltage`
        // applies that rule to the environment from whatever state the
        // controller is in.
        let pv = PvModule::outdoor_panel_half_watt();
        let env = sunny();
        let voc = pv.open_circuit_voltage(&env);
        let dt = Seconds::new(60.0);
        // FOCV with a fresh clock, in the steady state, and mid-interval
        // after a short step under dimmer light: a step spanning the
        // interval resamples from each of them.
        let mut fresh = FractionalVoc::pv_standard();
        let mut steady = FractionalVoc::pv_standard();
        steady.choose_voltage(Source::new(&pv), &env, dt);
        let mut dim = env;
        dim.irradiance = WattsPerSqM::new(50.0);
        let mut mid = FractionalVoc::pv_standard();
        mid.choose_voltage(Source::new(&pv), &dim, dt);
        mid.choose_voltage(Source::new(&pv), &dim, Seconds::new(1.0));
        let mut fixed = FixedPoint::new(Volts::new(2.0));
        let controllers: [&mut dyn OperatingPointController; 4] =
            [&mut fresh, &mut steady, &mut mid, &mut fixed];
        for c in controllers {
            let expected = match c.window_choice(dt) {
                Some(WindowChoice::FractionOfVoc(k)) => voc * k,
                Some(WindowChoice::Fixed(v)) => v,
                None => panic!("{} states no rule at {dt:?}", c.name()),
            };
            assert_eq!(c.choose_voltage(Source::new(&pv), &env, dt), expected);
        }
        // P&O: never pure (hidden dither state). FOCV below the
        // interval: a mid-interval step returns the stale hold.
        assert_eq!(PerturbObserve::new().window_choice(dt), None);
        let focv = FractionalVoc::pv_standard();
        assert_eq!(focv.window_choice(Seconds::new(1.0)), None);
    }

    #[test]
    fn window_choice_mirrors_env_purity() {
        let dt = Seconds::new(60.0);
        // Fixed point: a constant rule at any width.
        assert_eq!(
            FixedPoint::new(Volts::new(2.0)).window_choice(dt),
            Some(WindowChoice::Fixed(Volts::new(2.0)))
        );
        // P&O: hidden history, never batchable.
        assert_eq!(PerturbObserve::new().window_choice(dt), None);
        // FOCV: the resampling rule for widths spanning the interval,
        // hold (None) below it.
        let focv = FractionalVoc::pv_standard();
        assert_eq!(
            focv.window_choice(dt),
            Some(WindowChoice::FractionOfVoc(0.76))
        );
        assert_eq!(
            focv.window_choice(Seconds::new(30.0)),
            Some(WindowChoice::FractionOfVoc(0.76))
        );
        assert_eq!(focv.window_choice(Seconds::new(1.0)), None);
    }

    #[test]
    fn focv_reuse_voltage_reproduces_the_post_call_state() {
        let pv = PvModule::outdoor_panel_half_watt();
        let env = sunny();
        let dt = Seconds::new(60.0);
        let mut live = FractionalVoc::pv_standard();
        let v1 = live.choose_voltage(Source::new(&pv), &env, dt);
        let v2 = live.choose_voltage(Source::new(&pv), &env, dt);
        assert_eq!(v1, v2);

        // A replayed controller must behave identically afterwards —
        // including on a subsequent *fractional* step that returns the
        // stale held value.
        let mut replayed = FractionalVoc::pv_standard();
        replayed.choose_voltage(Source::new(&pv), &env, dt);
        replayed.reuse_voltage(v2, dt);
        let frac = Seconds::new(1.0);
        let mut dim = env;
        dim.irradiance = WattsPerSqM::new(50.0);
        let from_live = live.choose_voltage(Source::new(&pv), &dim, frac);
        let from_replayed = replayed.choose_voltage(Source::new(&pv), &dim, frac);
        assert_eq!(from_live, from_replayed);
        assert_eq!(from_live, v2, "fractional step must return the held value");
    }
}
