//! Struct-of-arrays battery state for the fleet's batched dense lane.

use crate::battery::{Battery, Chemistry};
use crate::storage::{Storage, StoreLanes};

/// Struct-of-arrays state for a population of identical-parameter
/// batteries — the storage side of the fleet's batched dense lane for
/// [`Battery`]-backed groups.
///
/// Holds per-lane stored energy and accumulated losses as contiguous
/// `Vec<f64>` slices and applies one fleet step (charge **or**
/// discharge, then idle self-discharge) across all lanes at once,
/// through the same per-cell arithmetic the scalar [`Battery`] runs.
/// The lanes share one copy of the template's chemistry, so the idle
/// pass evaluates one `powf` per distinct `(dt, rate)` bit-pattern for
/// the whole population through the `(dt bits, rate bits)`-keyed memo
/// that a scalar [`Battery`] carries per device. The bit-identity
/// contract is [`StoreLanes`]'s.
///
/// # Memo invalidation
///
/// The shared keep-factor memo is keyed on the bits of both `dt` and
/// the self-discharge rate, and
/// [`set_self_discharge_month`](Self::set_self_discharge_month) /
/// [`invalidate_idle_memo`](Self::invalidate_idle_memo) drop it
/// eagerly — the same edge-flush contract the channel solve memos
/// follow on hot-swap and fault edges, so a rate change can never
/// replay a stale `powf`.
#[derive(Debug, Clone)]
pub struct BatteryLanes {
    /// The per-cell arithmetic every lane shares with [`Battery`],
    /// keep-factor memo included.
    chemistry: Chemistry,
    /// Per-lane stored energy, joules.
    energy: Vec<f64>,
    /// Per-lane accumulated internal dissipation, joules.
    losses: Vec<f64>,
}

impl BatteryLanes {
    /// A population of `lanes` clones of `template`, all starting at the
    /// template's present stored energy and accumulated losses.
    pub fn from_template(template: &Battery, lanes: usize) -> Self {
        Self {
            chemistry: template.chemistry().clone(),
            energy: vec![template.stored_energy().value(); lanes],
            losses: vec![template.losses().value(); lanes],
        }
    }

    /// Overrides the self-discharge rate (fraction per 30 days) and
    /// drops the shared keep-factor memo, as
    /// [`Battery::set_self_discharge_month`] does.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not a fraction in `[0, 1)`.
    pub fn set_self_discharge_month(&mut self, rate: f64) {
        self.chemistry.set_self_discharge_month(rate);
    }

    /// Drops the shared keep-factor memo unconditionally — the
    /// hot-swap / fault-edge flush, matching the channel solve memos'
    /// edge contract. The next idle pass re-evaluates the `powf` from
    /// the current parameters.
    pub fn invalidate_idle_memo(&mut self) {
        self.chemistry.forget_keep();
    }
}

impl StoreLanes for BatteryLanes {
    /// The OCV-curve interpolation over the lane's state of charge.
    #[inline]
    fn voltage(&self, i: usize) -> f64 {
        self.chemistry.voltage(self.energy[i])
    }

    #[inline]
    fn stored_energy(&self, i: usize) -> f64 {
        self.energy[i]
    }

    #[inline]
    fn losses(&self, i: usize) -> f64 {
        self.losses[i]
    }

    /// A charge pass, then a discharge pass, then the idle pass; a lane
    /// with both requests positive would charge and then discharge.
    fn step(
        &mut self,
        charge_w: &[f64],
        discharge_w: &[f64],
        dt: f64,
        charged: &mut [f64],
        discharged: &mut [f64],
    ) {
        let n = self.energy.len();
        assert_eq!(charge_w.len(), n);
        assert_eq!(discharge_w.len(), n);
        assert_eq!(charged.len(), n);
        assert_eq!(discharged.len(), n);
        charged[..n].fill(0.0);
        discharged[..n].fill(0.0);
        if dt <= 0.0 {
            return;
        }
        let (energy, losses) = (&mut self.energy, &mut self.losses);
        for i in 0..n {
            charged[i] = self
                .chemistry
                .charge(&mut energy[i], &mut losses[i], charge_w[i], dt);
        }
        for i in 0..n {
            discharged[i] =
                self.chemistry
                    .discharge(&mut energy[i], &mut losses[i], discharge_w[i], dt);
        }
        // One keep factor for the whole population, resolved at the
        // first non-empty lane, so an all-empty population never warms
        // the memo (the scalar guard order).
        let mut keep = None;
        for i in 0..n {
            if energy[i] <= 0.0 {
                continue;
            }
            let keep = *keep.get_or_insert_with(|| self.chemistry.keep(dt));
            Chemistry::self_discharge(&mut energy[i], &mut losses[i], keep);
        }
    }

    fn replicate_lane0(&self, lanes: usize) -> Self {
        Self {
            chemistry: self.chemistry.clone(),
            energy: vec![self.energy[0]; lanes],
            losses: vec![self.losses[0]; lanes],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_units::{Seconds, Watts};

    /// Splitmix64 — a tiny deterministic generator for the identity
    /// tests.
    fn splitmix(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z = z ^ (z >> 31);
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn presets() -> Vec<Battery> {
        let mut half = Battery::nimh_aa_pair();
        half.set_soc(0.5);
        vec![
            Battery::lipo_400mah(),
            half,
            Battery::thin_film_50uah(),
            Battery::li_primary_aa(),
        ]
    }

    #[test]
    fn lanes_match_scalar_batteries_bitwise() {
        for template in presets() {
            let n = 13;
            let mut lanes = BatteryLanes::from_template(&template, n);
            let mut scalars: Vec<Battery> = (0..n).map(|_| template.clone()).collect();
            let cap = template.capacity().value();
            let p_scale = cap / 3600.0; // around the 1 C power
            let mut state = 0xB477_u64 ^ cap.to_bits();
            let mut charge_w = vec![0.0; n];
            let mut discharge_w = vec![0.0; n];
            let mut charged = vec![f64::NAN; n];
            let mut discharged = vec![f64::NAN; n];
            for step in 0..400 {
                // Step widths cycle through a few magnitudes so the memo
                // is exercised (repeats) and re-keyed (changes).
                let dt = match step % 5 {
                    0..=2 => 60.0,
                    3 => 1.5,
                    _ => 600.0,
                };
                for i in 0..n {
                    let r = splitmix(&mut state);
                    // Charge, discharge, or idle — including requests far
                    // beyond the C-rate clamps and zero-power lanes.
                    let (c, d) = match (i + step) % 4 {
                        0 => (r * 3.0 * p_scale, 0.0),
                        1 => (0.0, r * 3.0 * p_scale),
                        2 => (0.0, 0.0),
                        _ => (r * 0.2 * p_scale, 0.0),
                    };
                    charge_w[i] = c;
                    discharge_w[i] = d;
                }
                lanes.step(&charge_w, &discharge_w, dt, &mut charged, &mut discharged);
                for (i, s) in scalars.iter_mut().enumerate() {
                    let dt_s = Seconds::new(dt);
                    let mut taken = 0.0;
                    let mut delivered = 0.0;
                    if charge_w[i] > 0.0 {
                        taken = s.charge(Watts::new(charge_w[i]), dt_s).value();
                    } else if discharge_w[i] > 0.0 {
                        delivered = s.discharge(Watts::new(discharge_w[i]), dt_s).value();
                    }
                    s.idle(dt_s);
                    assert_eq!(
                        charged[i].to_bits(),
                        taken.to_bits(),
                        "{}: charged, lane {i}, step {step}",
                        template.name()
                    );
                    assert_eq!(
                        discharged[i].to_bits(),
                        delivered.to_bits(),
                        "{}: discharged, lane {i}, step {step}",
                        template.name()
                    );
                    assert_eq!(
                        lanes.stored_energy(i).to_bits(),
                        s.stored_energy().value().to_bits(),
                        "{}: energy, lane {i}, step {step}",
                        template.name()
                    );
                    assert_eq!(
                        lanes.losses(i).to_bits(),
                        s.losses().value().to_bits(),
                        "{}: losses, lane {i}, step {step}",
                        template.name()
                    );
                    assert_eq!(
                        lanes.voltage(i).to_bits(),
                        s.voltage().value().to_bits(),
                        "{}: voltage, lane {i}, step {step}",
                        template.name()
                    );
                }
            }
        }
    }

    #[test]
    fn shared_memo_never_replays_a_stale_keep_factor() {
        // Warm the lane-shared memo at the preset rate, then mutate the
        // rate and idle with the same dt: the population must match
        // never-memoized scalar references bit for bit. This is the
        // lane-table variant of the scalar regression in `battery.rs`.
        let mut template = Battery::lipo_400mah();
        template.set_soc(1.0);
        let n = 5;
        let dt = Seconds::from_days(30.0).value();
        let zeros = vec![0.0; n];
        let mut sink_a = vec![0.0; n];
        let mut sink_b = vec![0.0; n];

        let mut lanes = BatteryLanes::from_template(&template, n);
        lanes.step(&zeros, &zeros, dt, &mut sink_a, &mut sink_b); // memoizes keep(dt, 0.03)
        lanes.set_self_discharge_month(0.20);
        lanes.step(&zeros, &zeros, dt, &mut sink_a, &mut sink_b);

        let mut reference = template.clone();
        reference.idle(Seconds::new(dt));
        reference.set_self_discharge_month(0.20);
        let keep = (1.0f64 - 0.20).powf(dt / (30.0 * 86_400.0));
        let expected = reference.stored_energy().value() * keep;
        for i in 0..n {
            assert_eq!(
                lanes.stored_energy(i).to_bits(),
                expected.to_bits(),
                "lane {i} replayed a stale keep factor"
            );
        }
    }

    #[test]
    fn explicit_invalidation_forces_a_fresh_powf() {
        let mut template = Battery::nimh_aa_pair();
        template.set_soc(0.8);
        let n = 3;
        let dt = 3600.0;
        let zeros = vec![0.0; n];
        let mut a = vec![0.0; n];
        let mut b = vec![0.0; n];
        let mut lanes = BatteryLanes::from_template(&template, n);
        lanes.step(&zeros, &zeros, dt, &mut a, &mut b);
        lanes.invalidate_idle_memo();
        lanes.step(&zeros, &zeros, dt, &mut a, &mut b);
        // Flushing must be purely an effect on the cache, never on the
        // books: two idles at the same rate equal the scalar pair.
        let mut s = template.clone();
        s.idle(Seconds::new(dt));
        s.idle(Seconds::new(dt));
        assert_eq!(
            lanes.stored_energy(0).to_bits(),
            s.stored_energy().value().to_bits()
        );
    }

    #[test]
    fn replicate_expands_lane_zero_bitwise() {
        let mut template = Battery::lipo_400mah();
        template.set_soc(0.4);
        let mut solo = BatteryLanes::from_template(&template, 1);
        let charge_w = [0.1];
        let zeros = [0.0];
        let mut a = [0.0];
        let mut b = [0.0];
        solo.step(&charge_w, &zeros, 60.0, &mut a, &mut b);
        let n = 6;
        let lanes = solo.replicate_lane0(n);
        assert_eq!(lanes.energy.len(), n);
        for i in 0..n {
            assert_eq!(
                lanes.stored_energy(i).to_bits(),
                solo.stored_energy(0).to_bits()
            );
            assert_eq!(lanes.losses(i).to_bits(), solo.losses(0).to_bits());
            assert_eq!(lanes.voltage(i).to_bits(), solo.voltage(0).to_bits());
        }
    }

    #[test]
    fn primary_cells_refuse_charge_in_lanes_too() {
        let template = Battery::li_primary_aa();
        let n = 2;
        let mut lanes = BatteryLanes::from_template(&template, n);
        let charge_w = vec![1.0; n];
        let zeros = vec![0.0; n];
        let mut charged = vec![f64::NAN; n];
        let mut discharged = vec![f64::NAN; n];
        lanes.step(&charge_w, &zeros, 100.0, &mut charged, &mut discharged);
        let mut reference = template.clone();
        assert_eq!(
            reference
                .charge(Watts::new(1.0), Seconds::new(100.0))
                .value(),
            0.0
        );
        reference.idle(Seconds::new(100.0));
        for (i, c) in charged.iter().enumerate() {
            assert_eq!(*c, 0.0);
            assert_eq!(
                lanes.stored_energy(i).to_bits(),
                reference.stored_energy().value().to_bits()
            );
        }
    }
}
