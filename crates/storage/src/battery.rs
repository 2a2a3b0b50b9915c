//! Electrochemical battery model: OCV-vs-SoC curve, coulombic efficiency,
//! self-discharge and C-rate limits, parameterized per chemistry.

use crate::kind::StorageKind;
use crate::storage::Storage;
use mseh_units::{Joules, Seconds, Volts, Watts};

/// A battery (rechargeable or primary).
///
/// The model tracks stored energy directly; terminal voltage follows a
/// piecewise-linear open-circuit-voltage curve over state of charge.
/// Charge acceptance and delivery are limited by C-rates; charging incurs
/// the chemistry's coulombic/energy efficiency; self-discharge is a
/// per-month fraction applied continuously.
///
/// # Examples
///
/// ```
/// use mseh_storage::{Battery, Storage};
/// use mseh_units::{Watts, Seconds};
///
/// let mut cell = Battery::lipo_400mah();
/// let taken = cell.charge(Watts::from_milli(100.0), Seconds::from_hours(1.0));
/// assert!(taken.value() > 0.0);
/// assert!(cell.soc().value() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Battery {
    name: String,
    /// The per-cell arithmetic: capacity, OCV curve, efficiencies,
    /// self-discharge and rate limits.
    chemistry: Chemistry,
    /// Present stored energy, joules.
    energy: f64,
    /// Accumulated internal dissipation, joules.
    losses: f64,
}

impl Battery {
    /// Creates a battery.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is non-positive, an efficiency is outside
    /// `(0, 1]`, the OCV curve has fewer than two knots or is not
    /// SoC-ascending, or a C-rate is non-positive (for non-rechargeable
    /// cells pass [`StorageKind::LiPrimary`], whose kind refuses charge,
    /// rather than a zero charge rate).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        kind: StorageKind,
        capacity: Joules,
        ocv_curve: Vec<(f64, f64)>,
        eta_charge: f64,
        eta_discharge: f64,
        self_discharge_month: f64,
        c_rate_charge: f64,
        c_rate_discharge: f64,
    ) -> Self {
        assert!(capacity.value() > 0.0, "capacity must be positive");
        assert!(
            (0.0..=1.0).contains(&eta_charge)
                && eta_charge > 0.0
                && (0.0..=1.0).contains(&eta_discharge)
                && eta_discharge > 0.0,
            "efficiencies must be in (0, 1]"
        );
        assert!(ocv_curve.len() >= 2, "OCV curve needs at least two knots");
        assert!(
            ocv_curve.windows(2).all(|w| w[0].0 < w[1].0),
            "OCV curve knots must be SoC-ascending"
        );
        let mut chemistry = Chemistry {
            kind,
            capacity: capacity.value(),
            ocv_curve,
            eta_charge,
            eta_discharge,
            self_discharge_month: 0.0,
            p_charge: c_rate_charge * capacity.value() / 3600.0,
            p_discharge: c_rate_discharge * capacity.value() / 3600.0,
            keep_memo: None,
        };
        chemistry.set_self_discharge_month(self_discharge_month);
        assert!(
            c_rate_charge > 0.0 && c_rate_discharge > 0.0,
            "C-rates must be positive"
        );
        Self {
            name: name.into(),
            chemistry,
            energy: 0.0,
            losses: 0.0,
        }
    }

    /// A 400 mAh lithium-polymer cell (System A's rechargeable store).
    pub fn lipo_400mah() -> Self {
        Self::new(
            "400 mAh LiPo cell",
            StorageKind::LiIon,
            Joules::from_milliamp_hours(400.0, Volts::new(3.7)),
            vec![(0.0, 3.0), (0.1, 3.55), (0.5, 3.7), (0.9, 4.0), (1.0, 4.2)],
            0.95,
            0.97,
            0.03,
            0.5,
            1.0,
        )
    }

    /// A pair of AA NiMH cells in series (the MPWiNode / Plug-and-Play
    /// store): 2000 mAh at 2.4 V nominal, high self-discharge.
    pub fn nimh_aa_pair() -> Self {
        Self::new(
            "2×AA NiMH pack",
            StorageKind::NiMh,
            Joules::from_milliamp_hours(2000.0, Volts::new(2.4)),
            vec![(0.0, 2.0), (0.1, 2.3), (0.5, 2.45), (0.9, 2.6), (1.0, 2.9)],
            0.85,
            0.95,
            0.20,
            0.3,
            1.0,
        )
    }

    /// A Cymbet EnerChip-class thin-film solid-state cell: 50 µAh at
    /// 3.7 V nominal, very low leakage, high cycle life.
    pub fn thin_film_50uah() -> Self {
        Self::new(
            "50 µAh thin-film cell",
            StorageKind::ThinFilm,
            Joules::from_milliamp_hours(0.05, Volts::new(3.7)),
            vec![(0.0, 3.0), (0.5, 3.7), (1.0, 4.1)],
            0.90,
            0.95,
            0.025,
            2.0,
            4.0,
        )
    }

    /// A non-rechargeable lithium primary AA (System B's backup store):
    /// 2400 mAh at 3.6 V, negligible self-discharge.
    pub fn li_primary_aa() -> Self {
        let mut cell = Self::new(
            "AA lithium primary",
            StorageKind::LiPrimary,
            Joules::from_milliamp_hours(2400.0, Volts::new(3.6)),
            vec![(0.0, 3.0), (0.2, 3.5), (1.0, 3.65)],
            1.0,
            0.98,
            0.001,
            1.0, // never used: primaries refuse charge
            0.5,
        );
        cell.energy = cell.chemistry.capacity; // primaries ship full
        cell
    }

    /// Sets the state of charge as a fraction of capacity (clamped).
    pub fn set_soc(&mut self, soc: f64) {
        self.energy = self.chemistry.capacity * soc.clamp(0.0, 1.0);
    }

    /// Overrides the self-discharge rate (fraction per 30 days) — the
    /// clone-modify path for deriving a datasheet variant (an aged cell,
    /// a hotter ambient) from a preset. Invalidates the idle keep-factor
    /// memo; the key also carries the rate bits, so even a future
    /// mutation path that forgets this invalidation cannot replay a
    /// stale `powf`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not a fraction in `[0, 1)`.
    pub fn set_self_discharge_month(&mut self, rate: f64) {
        self.chemistry.set_self_discharge_month(rate);
    }

    /// The cell's chemistry, for a struct-of-arrays population
    /// ([`BatteryLanes`](crate::BatteryLanes)) of clones.
    pub(crate) fn chemistry(&self) -> &Chemistry {
        &self.chemistry
    }
}

impl Storage for Battery {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> StorageKind {
        self.chemistry.kind
    }

    fn voltage(&self) -> Volts {
        Volts::new(self.chemistry.voltage(self.energy))
    }

    fn stored_energy(&self) -> Joules {
        Joules::new(self.energy)
    }

    fn capacity(&self) -> Joules {
        Joules::new(self.chemistry.capacity)
    }

    fn min_voltage(&self) -> Volts {
        Volts::new(self.chemistry.ocv_at(0.0))
    }

    fn max_voltage(&self) -> Volts {
        Volts::new(self.chemistry.ocv_at(1.0))
    }

    fn max_charge_power(&self) -> Watts {
        Watts::new(self.chemistry.max_charge_power(self.energy))
    }

    fn max_discharge_power(&self) -> Watts {
        Watts::new(self.chemistry.max_discharge_power(self.energy))
    }

    fn charge(&mut self, power: Watts, dt: Seconds) -> Joules {
        let (p, dt) = (power.value(), dt.value());
        Joules::new(
            self.chemistry
                .charge(&mut self.energy, &mut self.losses, p, dt),
        )
    }

    fn discharge(&mut self, power: Watts, dt: Seconds) -> Joules {
        let (p, dt) = (power.value(), dt.value());
        Joules::new(
            self.chemistry
                .discharge(&mut self.energy, &mut self.losses, p, dt),
        )
    }

    fn idle(&mut self, dt: Seconds) {
        if dt.value() <= 0.0 || self.energy <= 0.0 {
            return;
        }
        let keep = self.chemistry.keep(dt.value());
        Chemistry::self_discharge(&mut self.energy, &mut self.losses, keep);
    }

    fn losses(&self) -> Joules {
        Joules::new(self.losses)
    }
}

/// One battery cell's arithmetic: the OCV curve, charge and discharge
/// under the C-rate limits and efficiencies, and self-discharge, each
/// acting on a cell's stored energy and losses in joules. [`Battery`]
/// and [`BatteryLanes`](crate::BatteryLanes) each hold one and run
/// these functions, so the two agree by construction.
#[derive(Debug, Clone)]
pub(crate) struct Chemistry {
    kind: StorageKind,
    /// Usable capacity, joules.
    capacity: f64,
    /// OCV curve as (SoC, volts) knots, SoC ascending from 0 to 1.
    ocv_curve: Vec<(f64, f64)>,
    /// Fraction of charged energy actually stored.
    eta_charge: f64,
    /// Fraction of internal energy delivered on discharge.
    eta_discharge: f64,
    /// Self-discharge fraction per 30 days.
    self_discharge_month: f64,
    /// Charge C-rate as watts (`c_rate · capacity / 3600`; 1 C is a
    /// full charge in one hour).
    p_charge: f64,
    /// Discharge C-rate as watts.
    p_discharge: f64,
    /// Memoized self-discharge keep factor for the last idle `dt`
    /// (`(dt bits, rate bits)` → `(1 − r)^months`). `keep` is a pure
    /// function of `dt` and `self_discharge_month`, so replaying it for a
    /// repeated step width is bit-identical to recomputing the `powf` —
    /// fixed-step simulation hits this every step, and a lane population
    /// shares one memo. The key carries the rate bits so a mutated rate
    /// can never replay a stale factor. Excluded from equality: it is a
    /// cache, not state.
    keep_memo: Option<((u64, u64), f64)>,
}

impl PartialEq for Chemistry {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
            && self.capacity == other.capacity
            && self.ocv_curve == other.ocv_curve
            && self.eta_charge == other.eta_charge
            && self.eta_discharge == other.eta_discharge
            && self.self_discharge_month == other.self_discharge_month
            && self.p_charge == other.p_charge
            && self.p_discharge == other.p_discharge
    }
}

impl Chemistry {
    /// Sets the self-discharge rate (fraction per 30 days) and drops
    /// the keep-factor memo.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not a fraction in `[0, 1)`.
    pub(crate) fn set_self_discharge_month(&mut self, rate: f64) {
        assert!(
            (0.0..1.0).contains(&rate),
            "self-discharge must be a fraction below 1"
        );
        self.self_discharge_month = rate;
        self.forget_keep();
    }

    /// Drops the keep-factor memo: the next idle re-evaluates the
    /// `powf` from the current rate.
    pub(crate) fn forget_keep(&mut self) {
        self.keep_memo = None;
    }

    /// Piecewise-linear open-circuit voltage at state of charge `soc`.
    pub(crate) fn ocv_at(&self, soc: f64) -> f64 {
        let soc = soc.clamp(0.0, 1.0);
        let first = self.ocv_curve[0];
        if soc <= first.0 {
            return first.1;
        }
        for pair in self.ocv_curve.windows(2) {
            let (s0, v0) = pair[0];
            let (s1, v1) = pair[1];
            if soc <= s1 {
                return v0 + (v1 - v0) * (soc - s0) / (s1 - s0);
            }
        }
        self.ocv_curve.last().expect("non-empty curve").1
    }

    /// Open-circuit voltage of a cell holding `energy`.
    #[inline]
    pub(crate) fn voltage(&self, energy: f64) -> f64 {
        self.ocv_at(energy / self.capacity)
    }

    /// The power a cell holding `energy` accepts: zero when full or
    /// non-rechargeable.
    #[inline]
    fn max_charge_power(&self, energy: f64) -> f64 {
        if !self.kind.is_rechargeable() || energy >= self.capacity {
            0.0
        } else {
            self.p_charge
        }
    }

    /// The power a cell holding `energy` delivers: zero when empty.
    #[inline]
    fn max_discharge_power(&self, energy: f64) -> f64 {
        if energy <= 0.0 {
            0.0
        } else {
            self.p_discharge
        }
    }

    /// Pushes up to `power` watts for `dt` seconds into a cell holding
    /// `energy`: the energy taken from the bus, zero when nothing moves.
    /// Updates `energy`; the charge loss accrues in `losses`.
    #[inline]
    pub(crate) fn charge(&self, energy: &mut f64, losses: &mut f64, power: f64, dt: f64) -> f64 {
        let p = power.min(self.max_charge_power(*energy)).max(0.0);
        if p == 0.0 || dt <= 0.0 {
            return 0.0;
        }
        let gross = p * dt;
        let mut net = gross * self.eta_charge;
        let headroom = self.capacity - *energy;
        let mut taken = gross;
        if net > headroom {
            net = headroom;
            taken = net / self.eta_charge;
        }
        *energy += net;
        *losses += taken - net;
        taken
    }

    /// Draws up to `power` watts for `dt` seconds from a cell holding
    /// `energy`: the energy delivered to the bus, zero when nothing
    /// moves. Updates `energy`; the discharge loss accrues in `losses`.
    #[inline]
    pub(crate) fn discharge(&self, energy: &mut f64, losses: &mut f64, power: f64, dt: f64) -> f64 {
        let p = power.min(self.max_discharge_power(*energy)).max(0.0);
        if p == 0.0 || dt <= 0.0 {
            return 0.0;
        }
        let mut internal = (p * dt) / self.eta_discharge;
        if internal > *energy {
            internal = *energy;
        }
        let delivered = internal * self.eta_discharge;
        *energy -= internal;
        *losses += internal - delivered;
        delivered
    }

    /// The fraction of its content a cell keeps over an idle `dt`
    /// seconds: `(1 − r)^months` at the per-month rate `r`. The factor
    /// depends only on `dt` and the rate, so fixed-step simulation
    /// replays the memoized `powf` bit for bit instead of re-evaluating
    /// it.
    #[inline]
    pub(crate) fn keep(&mut self, dt: f64) -> f64 {
        // Both inputs sit in the key: a memo keyed on `dt` alone would
        // replay a stale factor after the rate mutates.
        let key = (dt.to_bits(), self.self_discharge_month.to_bits());
        match self.keep_memo {
            Some((memo_key, memo_keep)) if memo_key == key => memo_keep,
            _ => {
                let months = dt / (30.0 * 86_400.0);
                let keep = (1.0 - self.self_discharge_month).powf(months);
                self.keep_memo = Some((key, keep));
                keep
            }
        }
    }

    /// Self-discharges a cell holding `energy` by the factor `keep` (see
    /// [`keep`](Self::keep)); the leaked energy accrues in `losses`.
    #[inline]
    pub(crate) fn self_discharge(energy: &mut f64, losses: &mut f64, keep: f64) {
        let remaining = *energy * keep;
        *losses += *energy - remaining;
        *energy = remaining;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ocv_tracks_soc() {
        let mut b = Battery::lipo_400mah();
        assert!((b.voltage().value() - 3.0).abs() < 1e-9); // empty
        b.set_soc(0.5);
        assert!((b.voltage().value() - 3.7).abs() < 1e-9);
        b.set_soc(1.0);
        assert!((b.voltage().value() - 4.2).abs() < 1e-9);
        b.set_soc(0.95);
        let v = b.voltage().value();
        assert!((4.0..4.2).contains(&v), "{v}");
    }

    #[test]
    fn charge_respects_c_rate_and_capacity() {
        let mut b = Battery::lipo_400mah();
        // 0.5 C on 5328 J = 0.74 W max.
        let max = b.max_charge_power();
        assert!((max.value() - 0.5 * 5328.0 / 3600.0).abs() < 1e-9);
        // Asking for 10 W only takes max.
        let taken = b.charge(Watts::new(10.0), Seconds::new(3600.0));
        assert!((taken.value() - max.value() * 3600.0).abs() < 1e-6);
        // Fill completely.
        for _ in 0..100 {
            b.charge(Watts::new(10.0), Seconds::new(3600.0));
        }
        assert!((b.soc().value() - 1.0).abs() < 1e-9);
        assert_eq!(b.max_charge_power(), Watts::ZERO);
    }

    #[test]
    fn primary_cell_refuses_charge_but_ships_full() {
        let mut b = Battery::li_primary_aa();
        assert!(!b.is_rechargeable());
        assert_eq!(b.soc().value(), 1.0);
        assert_eq!(b.max_charge_power(), Watts::ZERO);
        assert_eq!(b.charge(Watts::new(1.0), Seconds::new(100.0)), Joules::ZERO);
        let delivered = b.discharge(Watts::from_milli(10.0), Seconds::new(3600.0));
        assert!(delivered.value() > 0.0);
    }

    #[test]
    fn roundtrip_efficiency_matches_parameters() {
        let mut b = Battery::lipo_400mah();
        let taken = b.charge(Watts::from_milli(500.0), Seconds::new(1000.0));
        let delivered = b.discharge(Watts::new(10.0), Seconds::new(100_000.0));
        let roundtrip = delivered.value() / taken.value();
        assert!(
            (roundtrip - 0.95 * 0.97).abs() < 0.01,
            "roundtrip {roundtrip}"
        );
    }

    #[test]
    fn conservation_with_losses() {
        let mut b = Battery::nimh_aa_pair();
        let taken = b.charge(Watts::new(1.0), Seconds::new(5000.0));
        b.idle(Seconds::from_days(10.0));
        let delivered = b.discharge(Watts::new(2.0), Seconds::new(2000.0));
        let residual =
            taken.value() - delivered.value() - b.losses().value() - b.stored_energy().value();
        assert!(residual.abs() < 1e-6 * taken.value(), "residual {residual}");
    }

    #[test]
    fn nimh_self_discharges_much_faster_than_thin_film() {
        let mut nimh = Battery::nimh_aa_pair();
        let mut tf = Battery::thin_film_50uah();
        nimh.set_soc(1.0);
        tf.set_soc(1.0);
        nimh.idle(Seconds::from_days(30.0));
        tf.idle(Seconds::from_days(30.0));
        assert!((nimh.soc().value() - 0.8).abs() < 1e-6);
        assert!(tf.soc().value() > 0.97);
    }

    #[test]
    fn mutated_self_discharge_never_replays_stale_keep_factor() {
        // Warm the idle memo at one rate, then mutate the rate and idle
        // with the same dt. A memo keyed on dt bits alone replays the old
        // `powf` — the re-keyed memo must match a never-memoized battery
        // bit for bit.
        let dt = Seconds::from_days(30.0);
        let mut warmed = Battery::lipo_400mah();
        warmed.set_soc(1.0);
        warmed.idle(dt); // memoizes keep(dt, 0.03)
        warmed.set_self_discharge_month(0.20);
        warmed.idle(dt);

        let mut reference = Battery::lipo_400mah();
        reference.set_soc(1.0);
        reference.idle(dt);
        reference.set_self_discharge_month(0.20);
        // Uncached recomputation of keep(dt, 0.20):
        let keep = (1.0f64 - 0.20).powf(dt.value() / (30.0 * 86_400.0));
        let expected = reference.stored_energy().value() * keep;
        assert_eq!(
            warmed.stored_energy().value().to_bits(),
            expected.to_bits(),
            "stale keep factor replayed after rate mutation"
        );
        // The sanity direction too: 20 %/month drains visibly more than
        // the 3 %/month the memo was warmed with.
        let naive = reference.stored_energy().value() * (1.0f64 - 0.03).powf(1.0);
        assert!(warmed.stored_energy().value() < naive * 0.999);
    }

    #[test]
    #[should_panic(expected = "SoC-ascending")]
    fn rejects_unsorted_curve() {
        Battery::new(
            "bad",
            StorageKind::LiIon,
            Joules::new(100.0),
            vec![(0.5, 3.7), (0.0, 3.0)],
            0.9,
            0.9,
            0.01,
            1.0,
            1.0,
        );
    }
}
