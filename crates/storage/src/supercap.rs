//! Supercapacitor model with voltage-dependent capacitance, ESR and
//! voltage-dependent leakage — the model structure of Weddell et al.,
//! "Accurate supercapacitor modeling for energy-harvesting wireless sensor
//! nodes" (ref \[9\] of the survey). The same structure with a narrowed
//! voltage window models the lithium-ion capacitor of ref \[10\].

use crate::kind::StorageKind;
use crate::storage::{Storage, StoreLanes};
use mseh_units::{BatchSolve, Farads, Joules, Ohms, Seconds, Volts, Watts};

/// An electric double-layer capacitor (or lithium-ion capacitor).
///
/// * capacitance rises with voltage: `C(V) = C₀ + k·V` (ref \[9\] shows the
///   constant-C model misestimates usable energy by >10 %);
/// * equivalent series resistance dissipates `I²·R` during transfer;
/// * leakage current scales with voltage (`V / R_leak`).
///
/// # Examples
///
/// ```
/// use mseh_storage::{Supercap, Storage};
/// use mseh_units::{Watts, Seconds};
///
/// let mut cap = Supercap::edlc_22f();
/// let taken = cap.charge(Watts::from_milli(50.0), Seconds::from_minutes(10.0));
/// assert!(taken.value() > 0.0);
/// assert!(cap.voltage().value() > cap.min_voltage().value());
/// ```
#[derive(Debug, Clone)]
pub struct Supercap {
    name: String,
    kind: StorageKind,
    /// The per-cell arithmetic: capacitance law and voltage window,
    /// ESR, leakage and current limit.
    cell: SupercapCell,
    /// Present terminal voltage.
    v: Volts,
    /// Accumulated internal dissipation, joules.
    losses: f64,
    /// The last [`INVERSION_SLOTS`] energy→voltage inversions, most
    /// recent first, as `(target bits, start bits, voltage)`. An
    /// inversion is a pure function of its target, of the voltage its
    /// Newton iteration starts from (the cell's own voltage when it is
    /// called) and of the solver, which nothing changes after
    /// construction, so replaying an entry is bit-identical to solving
    /// again. A buffer held at its rated voltage repeats the same two or
    /// three (target, start) pairs every step. Any future setter of the
    /// solver's parameters must reset this memo. Seeded with the
    /// inversion of zero energy from the cutoff, the cutoff voltage.
    /// Excluded from equality: it is a cache, not state.
    inversions: [(u64, u64, f64); INVERSION_SLOTS],
}

/// Entries in [`Supercap`]'s inversion memo. System B's pinned step
/// solves three targets (charge, leak, interface draw), so two slots
/// evict each one just before it comes back.
const INVERSION_SLOTS: usize = 3;

impl PartialEq for Supercap {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.kind == other.kind
            && self.cell == other.cell
            && self.v == other.v
            && self.losses == other.losses
    }
}

impl Supercap {
    /// Creates a supercapacitor.
    ///
    /// # Panics
    ///
    /// Panics if the voltage window is inverted, the capacitance is
    /// non-positive, or a resistance is non-positive.
    pub fn new(
        name: impl Into<String>,
        c0: Farads,
        k_v: f64,
        esr: Ohms,
        r_leak: Ohms,
        v_min: Volts,
        v_max: Volts,
    ) -> Self {
        assert!(c0.value() > 0.0, "capacitance must be positive");
        assert!(k_v >= 0.0, "capacitance slope must be non-negative");
        assert!(
            esr.value() > 0.0 && r_leak.value() > 0.0,
            "resistances must be positive"
        );
        assert!(
            v_max.value() > v_min.value() && v_min.value() >= 0.0,
            "voltage window must satisfy 0 <= v_min < v_max"
        );
        let (a, v_max) = (v_min.value(), v_max.value());
        Self {
            name: name.into(),
            kind: StorageKind::Supercapacitor,
            cell: SupercapCell {
                solver: SupercapSolver {
                    a,
                    c0: c0.value(),
                    k: k_v,
                    v_max,
                    half_c0: 0.5 * c0.value(),
                    k3: k_v / 3.0,
                    e_min: (0.5 * c0.value() + k_v / 3.0 * a) * a * a,
                },
                esr: esr.value(),
                r_leak: r_leak.value(),
                i_max: (c0.value() / 10.0).clamp(0.05, 2.0),
            },
            v: v_min,
            losses: 0.0,
            inversions: [(0.0f64.to_bits(), a.to_bits(), a); INVERSION_SLOTS],
        }
    }

    /// A 22 F / 2.7 V EDLC with 60 mΩ ESR — the buffer class AmbiMax and
    /// the Plug-and-Play architecture use.
    pub fn edlc_22f() -> Self {
        Self::new(
            "22 F / 2.7 V EDLC",
            Farads::new(22.0),
            1.5,
            Ohms::from_milli(60.0),
            Ohms::from_kilo(15.0),
            Volts::new(0.8),
            Volts::new(2.7),
        )
    }

    /// A small 1 F / 5.5 V dual-cell EDLC (output-buffer scale).
    pub fn edlc_1f() -> Self {
        Self::new(
            "1 F / 5.5 V EDLC",
            Farads::new(1.0),
            0.05,
            Ohms::from_milli(200.0),
            Ohms::from_kilo(50.0),
            Volts::new(1.0),
            Volts::new(5.5),
        )
    }

    /// A 40 F lithium-ion capacitor, 2.2–3.8 V window (ref \[10\]): hybrid
    /// energy density with capacitor-like cycling.
    pub fn lithium_ion_capacitor_40f() -> Self {
        let mut cap = Self::new(
            "40 F lithium-ion capacitor",
            Farads::new(40.0),
            0.8,
            Ohms::from_milli(50.0),
            Ohms::from_kilo(100.0),
            Volts::new(2.2),
            Volts::new(3.8),
        );
        cap.kind = StorageKind::LithiumIonCapacitor;
        cap
    }

    /// The energy↔voltage inversion kernel for this capacitor's
    /// parameters, detached from the mutable cell state so it can run
    /// standalone or across struct-of-arrays lanes (see [`BatchSolve`]).
    #[inline]
    pub fn solver(&self) -> SupercapSolver {
        self.cell.solver
    }

    /// Inverts the energy integral: the voltage at which the usable energy
    /// above `v_min` equals `e` joules, by Newton from the cell's present
    /// voltage. A (target, start) pair the memo holds replays its
    /// voltage; any other is solved by [`SupercapSolver::solve_one`], the
    /// kernel the batched lanes share, and evicts the oldest entry. Either
    /// way the entry moves to the front.
    #[inline]
    fn voltage_for_energy(&mut self, e: f64) -> Volts {
        let (target, start) = (e, self.v.value());
        let key = (target.to_bits(), start.to_bits());
        let slot = self.inversions.iter().position(|&(t, s, _)| (t, s) == key);
        let entry = match slot {
            Some(i) => self.inversions[i],
            None => (key.0, key.1, self.cell.solver.solve_one((target, start))),
        };
        self.inversions
            .copy_within(..slot.unwrap_or(INVERSION_SLOTS - 1), 1);
        self.inversions[0] = entry;
        Volts::new(entry.2)
    }

    /// Sets the state of charge directly (clamped to the voltage window) —
    /// for initializing scenarios.
    pub fn set_voltage(&mut self, v: Volts) {
        self.v = v.clamp(self.min_voltage(), self.max_voltage());
    }
}

impl Storage for Supercap {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> StorageKind {
        self.kind
    }

    #[inline]
    fn voltage(&self) -> Volts {
        self.v
    }

    #[inline]
    fn stored_energy(&self) -> Joules {
        Joules::new(self.cell.solver.stored_energy(self.v.value()))
    }

    #[inline]
    fn capacity(&self) -> Joules {
        Joules::new(self.cell.solver.stored_energy(self.cell.solver.v_max))
    }

    fn min_voltage(&self) -> Volts {
        Volts::new(self.cell.solver.a)
    }

    fn max_voltage(&self) -> Volts {
        Volts::new(self.cell.solver.v_max)
    }

    fn max_charge_power(&self) -> Watts {
        Watts::new(self.cell.max_charge_power(self.v.value()))
    }

    fn max_discharge_power(&self) -> Watts {
        Watts::new(self.cell.max_discharge_power(self.v.value()))
    }

    #[inline]
    fn charge(&mut self, power: Watts, dt: Seconds) -> Joules {
        let (v, p, dt) = (self.v.value(), power.value(), dt.value());
        match self.cell.charge(v, &mut self.losses, p, dt) {
            Some((taken, stored)) => {
                self.v = self.voltage_for_energy(stored);
                Joules::new(taken)
            }
            None => Joules::ZERO,
        }
    }

    #[inline]
    fn discharge(&mut self, power: Watts, dt: Seconds) -> Joules {
        let (v, p, dt) = (self.v.value(), power.value(), dt.value());
        match self.cell.discharge(v, &mut self.losses, p, dt) {
            Some((delivered, stored)) => {
                self.v = self.voltage_for_energy(stored);
                Joules::new(delivered)
            }
            None => Joules::ZERO,
        }
    }

    #[inline]
    fn idle(&mut self, dt: Seconds) {
        if dt.value() <= 0.0 {
            return;
        }
        let remaining = self.cell.leak(self.v.value(), &mut self.losses, dt.value());
        self.v = self.voltage_for_energy(remaining);
    }

    #[inline]
    fn losses(&self) -> Joules {
        Joules::new(self.losses)
    }
}

/// One supercapacitor cell's arithmetic up to the energy→voltage
/// inversion: for a cell at voltage `v`, what a charge, discharge or
/// leak moves across the bus, what it dissipates inside, and the stored
/// energy it leaves, which the caller inverts. [`Supercap`] inverts
/// through its memo and [`SupercapLanes`] through the batched solver;
/// both run these functions, so the two agree by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SupercapCell {
    /// The capacitance law and voltage window (C₀, slope, `v_min`,
    /// `v_max`), with the constants of the energy→voltage inversion.
    solver: SupercapSolver,
    /// Equivalent series resistance, ohms.
    esr: f64,
    /// Leakage resistance, ohms (leakage current = V / R_leak).
    r_leak: f64,
    /// Current limit set by ESR heating, amps: up to 2 A scaled by
    /// capacitance (small caps accept less).
    i_max: f64,
}

impl SupercapCell {
    /// The power the cell accepts at voltage `v`: zero at the rail.
    #[inline]
    fn max_charge_power(&self, v: f64) -> f64 {
        if v >= self.solver.v_max {
            0.0
        } else {
            v.max(0.2) * self.i_max
        }
    }

    /// The power the cell delivers at voltage `v`: zero when empty.
    #[inline]
    fn max_discharge_power(&self, v: f64) -> f64 {
        if self.solver.stored_energy(v) <= 0.0 {
            0.0
        } else {
            v * self.i_max
        }
    }

    /// Fraction of transferred power lost in the ESR at voltage `v`, for
    /// a transfer at power `p`.
    #[inline]
    fn esr_loss_ratio(&self, v: f64, p: f64) -> f64 {
        let v_eff = v.max(0.2);
        let i = p / v_eff;
        (i * self.esr / v_eff).min(0.5)
    }

    /// Pushes up to `power` watts for `dt` seconds into the cell at `v`:
    /// the energy taken from the bus and the stored energy it leaves, or
    /// `None` when nothing moves. The ESR loss accrues in `losses`.
    #[inline]
    fn charge(&self, v: f64, losses: &mut f64, power: f64, dt: f64) -> Option<(f64, f64)> {
        let p = power.min(self.max_charge_power(v)).max(0.0);
        if p == 0.0 || dt <= 0.0 {
            return None;
        }
        let ratio = self.esr_loss_ratio(v, p);
        let gross = p * dt;
        let mut net = gross * (1.0 - ratio);
        let headroom = self.solver.energy_between(v, self.solver.v_max);
        let mut taken = gross;
        if net > headroom {
            net = headroom;
            taken = net / (1.0 - ratio);
        }
        *losses += taken - net;
        Some((taken, self.solver.stored_energy(v) + net))
    }

    /// Draws up to `power` watts for `dt` seconds from the cell at `v`:
    /// the energy delivered to the bus and the stored energy it leaves,
    /// or `None` when nothing moves. The ESR loss accrues in `losses`.
    #[inline]
    fn discharge(&self, v: f64, losses: &mut f64, power: f64, dt: f64) -> Option<(f64, f64)> {
        let p = power.min(self.max_discharge_power(v)).max(0.0);
        if p == 0.0 || dt <= 0.0 {
            return None;
        }
        let ratio = self.esr_loss_ratio(v, p);
        let mut internal = (p * dt) / (1.0 - ratio);
        let available = self.solver.stored_energy(v);
        if internal > available {
            internal = available;
        }
        let delivered = internal * (1.0 - ratio);
        *losses += internal - delivered;
        Some((delivered, available - internal))
    }

    /// Leaks the cell at `v` for `dt` seconds: leakage power V²/R_leak,
    /// integrated quasi-statically. Returns the stored energy left; the
    /// leaked energy accrues in `losses`.
    #[inline]
    fn leak(&self, v: f64, losses: &mut f64, dt: f64) -> f64 {
        let leak = v * v / self.r_leak * dt;
        let stored = self.solver.stored_energy(v);
        let remaining = (stored - leak).max(0.0);
        *losses += stored - remaining;
        remaining
    }
}

/// Newton iteration budget shared by the scalar and batched solvers.
const NEWTON_ITERS: usize = 64;
/// Newton stops once a step moves the iterate by at most this fraction
/// of it; see [`SupercapSolver`] for why the iterate is then exact.
const NEWTON_RTOL: f64 = 1e-8;
/// Bisection iteration budget for the non-convergence fallback.
const BISECT_ITERS: usize = 64;
/// Lanes per batch block — sized so the convergence mask fits one `u64`.
const LANE_BLOCK: usize = 64;

/// The energy→voltage inversion for one supercapacitor parameter set:
/// given a usable energy above `v_min` and the voltage to start from,
/// find the terminal voltage.
///
/// With `F(v) = (C₀/2 + (k/3)·v)·v²`, the energy integral from zero,
/// the solver finds the root of the residual `F(v) − (F(v_min) + e)` by
/// Newton. `C₀/2`, `k/3` and `F(v_min)` are fixed per solver, so each
/// iteration costs one division, the Newton step's own `r / F'` with
/// `F'(v) = (C₀ + k·v)·v`. The iteration starts from the given voltage,
/// the cell's present one, which a storage step moves by a small
/// fraction; a start outside `(v_min, v_max]` (an empty cell, or no cell)
/// falls back to the flat-capacitance estimate `√(v_min² + 2e/C₀)`.
///
/// Newton stops as soon as a step `Δ` satisfies `|Δ| ≤ 10⁻⁸·v`. That
/// test is enough because the iteration converges quadratically: the
/// error after a step is about `F''/(2F')·Δ²`, so its relative size is
/// `(v·F''/(2F'))·(Δ/v)²`. For `k ≥ 0` and `C₀ > 0`,
/// `v·F''/(2F') = (C₀ + 2k·v)/(2C₀ + 2k·v) < 1`, so the iterate the test
/// accepts carries a relative error below `(10⁻⁸)² = 10⁻¹⁶`, less than
/// one ulp. (Anywhere on the convex cubic a Newton step covers at least a
/// third of the distance to the root, so a small step cannot stop the
/// iteration early.) A start near the root therefore takes one or two
/// iterations.
///
/// Degenerate parameter sets (a vanishing `C₀` under a dominant `k_v`
/// slope puts the flat start orders of magnitude above the root) can
/// exhaust the iteration budget or trip the derivative guard; those
/// fall back to bracketed bisection over the full voltage window instead
/// of silently clamping a non-converged iterate. The result is clamped
/// to the voltage window, so energies beyond the capacity read `v_max`.
///
/// The batched path ([`BatchSolve::solve_lanes`]) runs the same
/// per-lane iterate sequence, through the same step function, under a
/// convergence mask, so batched and scalar results are bit-identical by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupercapSolver {
    /// Discharge cutoff voltage (the energy zero).
    a: f64,
    /// Base capacitance C₀, farads.
    c0: f64,
    /// Capacitance slope, F/V.
    k: f64,
    /// Rated voltage (clamp ceiling).
    v_max: f64,
    /// `C₀/2`.
    half_c0: f64,
    /// `k/3`.
    k3: f64,
    /// `F(v_min) = (C₀/2 + (k/3)·v_min)·v_min²`, the residual's offset.
    e_min: f64,
}

impl SupercapSolver {
    /// Usable energy between voltages `lo` and `hi` (joules).
    #[inline]
    pub fn energy_between(&self, lo: f64, hi: f64) -> f64 {
        self.c0 * (hi * hi - lo * lo) / 2.0 + self.k * (hi * hi * hi - lo * lo * lo) / 3.0
    }

    /// Usable energy above the cutoff at voltage `v` (joules).
    #[inline]
    pub fn stored_energy(&self, v: f64) -> f64 {
        self.energy_between(self.a, v)
    }

    /// Guard path: bracketed bisection over the full voltage window.
    /// Only reached when Newton fails to converge, so its cost never
    /// shows on realistic parameter sets.
    fn bisect(&self, target: f64) -> f64 {
        let (mut lo, mut hi) = (self.a, self.v_max);
        for _ in 0..BISECT_ITERS {
            let mid = 0.5 * (lo + hi);
            if self.stored_energy(mid) - target > 0.0 {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Newton's first iterate for `target` from `start`: the start itself
    /// inside `(v_min, v_max]`, else the flat-capacitance estimate.
    #[inline]
    fn first_iterate(&self, target: f64, start: f64) -> f64 {
        if start > self.a && start <= self.v_max {
            start
        } else {
            (self.a * self.a + 2.0 * target / self.c0).sqrt()
        }
    }

    /// One Newton step from `v` towards `F(v) = goal`: the next iterate
    /// and whether it passes the convergence test, or `None` when the
    /// derivative guard trips or the step leaves the finite numbers.
    #[inline]
    fn newton_step(&self, v: f64, goal: f64) -> Option<(f64, bool)> {
        let fp = (self.c0 + self.k * v) * v;
        if fp <= 0.0 || !fp.is_finite() {
            return None;
        }
        let step = ((self.half_c0 + self.k3 * v) * v * v - goal) / fp;
        let next = v - step;
        next.is_finite()
            .then(|| (next, step.abs() <= NEWTON_RTOL * next))
    }

    /// One batch block of at most [`LANE_BLOCK`] lanes: masked Newton with
    /// a fixed iteration budget. Lanes freeze at the iterate where the
    /// scalar early-exit would fire; there is no per-lane exit from the
    /// round loop, only the all-lanes-retired condition.
    fn solve_block(&self, xs: &[(f64, f64)], active: &[bool], out: &mut [f64]) {
        debug_assert!(xs.len() <= LANE_BLOCK);
        let n = xs.len();
        let mut v = [0.0f64; LANE_BLOCK];
        let mut goal = [0.0f64; LANE_BLOCK];
        let mut pending: u64 = 0;
        let mut needs_bisect: u64 = 0;
        for i in 0..n {
            if !active[i] {
                continue;
            }
            let (target, start) = xs[i];
            if target <= 0.0 {
                v[i] = self.a;
            } else {
                v[i] = self.first_iterate(target, start);
                goal[i] = self.e_min + target;
                pending |= 1 << i;
            }
        }
        let mut round = 0;
        while pending != 0 && round < NEWTON_ITERS {
            for i in 0..n {
                let bit = 1u64 << i;
                if pending & bit == 0 {
                    continue;
                }
                match self.newton_step(v[i], goal[i]) {
                    Some((next, done)) => {
                        v[i] = next;
                        if done {
                            pending &= !bit;
                        }
                    }
                    None => {
                        pending &= !bit;
                        needs_bisect |= bit;
                    }
                }
            }
            round += 1;
        }
        // Budget exhausted without meeting the convergence test.
        needs_bisect |= pending;
        for i in 0..n {
            if !active[i] {
                continue;
            }
            let vi = if needs_bisect & (1 << i) != 0 {
                self.bisect(xs[i].0)
            } else {
                v[i]
            };
            out[i] = vi.clamp(self.a, self.v_max);
        }
    }
}

impl BatchSolve for SupercapSolver {
    /// `(target energy above v_min, start voltage)`.
    type Input = (f64, f64);

    fn solve_one(&self, (target, start): (f64, f64)) -> f64 {
        if target <= 0.0 {
            return self.a;
        }
        let goal = self.e_min + target;
        let mut v = self.first_iterate(target, start);
        for _ in 0..NEWTON_ITERS {
            match self.newton_step(v, goal) {
                Some((next, done)) => {
                    v = next;
                    if done {
                        return v.clamp(self.a, self.v_max);
                    }
                }
                None => break,
            }
        }
        self.bisect(target).clamp(self.a, self.v_max)
    }

    fn solve_lanes(&self, xs: &[(f64, f64)], active: &[bool], out: &mut [f64]) {
        assert_eq!(xs.len(), active.len());
        assert_eq!(xs.len(), out.len());
        // Uniform broadcast: lanes that carry identical state (a jittered
        // PV fleet at night, before any daylight has told its nodes
        // apart) present one (target, start) pair, so one solve serves
        // every lane. Same input → same bits, so the bit-identity
        // contract holds trivially.
        let mut lanes = (0..xs.len()).filter(|&i| active[i]);
        let Some(f0) = lanes.next() else { return };
        let key = |(t, s): (f64, f64)| (t.to_bits(), s.to_bits());
        if lanes.all(|i| key(xs[i]) == key(xs[f0])) {
            let v = self.solve_one(xs[f0]);
            for (o, _) in out.iter_mut().zip(active).filter(|(_, &a)| a) {
                *o = v;
            }
            return;
        }
        let mut offset = 0;
        while offset < xs.len() {
            let end = (offset + LANE_BLOCK).min(xs.len());
            self.solve_block(
                &xs[offset..end],
                &active[offset..end],
                &mut out[offset..end],
            );
            offset = end;
        }
    }
}

/// Struct-of-arrays state for a population of identical-parameter
/// supercapacitors — the storage side of the fleet's batched dense lane.
///
/// Holds per-lane terminal voltage and accumulated losses as contiguous
/// `Vec<f64>` slices and applies one fleet step (charge **or** discharge,
/// then idle leakage) across all lanes at once. Each lane's transfer and
/// leak run the same per-cell arithmetic as the scalar [`Supercap`]'s
/// `charge`, `discharge` and `idle`; the two `voltage_for_energy`
/// Newton inversions per step are batched through [`SupercapSolver`].
/// Each lane's inversion starts from that lane's own voltage, as the
/// scalar cell's does: the pre-transfer voltage for the transfer, the
/// post-transfer voltage for the leak. The bit-identity contract is
/// [`StoreLanes`]'s.
#[derive(Debug, Clone)]
pub struct SupercapLanes {
    /// The per-cell arithmetic every lane shares with [`Supercap`].
    cell: SupercapCell,
    /// Per-lane terminal voltage, volts.
    v: Vec<f64>,
    /// Per-lane accumulated internal dissipation, joules.
    losses: Vec<f64>,
    /// Per-step solve inputs, `(target, start voltage)` (scratch,
    /// reused across steps).
    targets: Vec<(f64, f64)>,
    /// Per-step solve mask (scratch, reused across steps).
    active: Vec<bool>,
}

impl SupercapLanes {
    /// A population of `lanes` clones of `template`, all starting at the
    /// template's present voltage and accumulated losses.
    pub fn from_template(template: &Supercap, lanes: usize) -> Self {
        Self {
            cell: template.cell,
            v: vec![template.v.value(); lanes],
            losses: vec![template.losses; lanes],
            targets: vec![(0.0, 0.0); lanes],
            active: vec![false; lanes],
        }
    }
}

impl StoreLanes for SupercapLanes {
    #[inline]
    fn voltage(&self, i: usize) -> f64 {
        self.v[i]
    }

    #[inline]
    fn stored_energy(&self, i: usize) -> f64 {
        self.cell.solver.stored_energy(self.v[i])
    }

    #[inline]
    fn losses(&self, i: usize) -> f64 {
        self.losses[i]
    }

    /// Charge XOR discharge per lane: a lane with a positive charge
    /// request never discharges in the same step.
    fn step(
        &mut self,
        charge_w: &[f64],
        discharge_w: &[f64],
        dt: f64,
        charged: &mut [f64],
        discharged: &mut [f64],
    ) {
        let n = self.v.len();
        assert_eq!(charge_w.len(), n);
        assert_eq!(discharge_w.len(), n);
        assert_eq!(charged.len(), n);
        assert_eq!(discharged.len(), n);
        charged[..n].fill(0.0);
        discharged[..n].fill(0.0);
        if dt <= 0.0 {
            return;
        }
        // Pass 1 — each lane's transfer up to the inversion, staged as
        // the lane's Newton target.
        for i in 0..n {
            let v = self.v[i];
            let (moved, out) = if charge_w[i] > 0.0 {
                let taken = self.cell.charge(v, &mut self.losses[i], charge_w[i], dt);
                (taken, &mut charged[i])
            } else if discharge_w[i] > 0.0 {
                let delivered = self
                    .cell
                    .discharge(v, &mut self.losses[i], discharge_w[i], dt);
                (delivered, &mut discharged[i])
            } else {
                (None, &mut charged[i])
            };
            self.active[i] = moved.is_some();
            if let Some((energy, stored)) = moved {
                *out = energy;
                self.targets[i] = (stored, v);
            }
        }
        // Pass 2 — batched transfer inversion over the staged lanes.
        self.cell
            .solver
            .solve_lanes(&self.targets, &self.active, &mut self.v);
        // Pass 3 — every lane leaks off its post-transfer state.
        for i in 0..n {
            let v = self.v[i];
            self.targets[i] = (self.cell.leak(v, &mut self.losses[i], dt), v);
            self.active[i] = true;
        }
        // Pass 4 — batched leak inversion over all lanes.
        self.cell
            .solver
            .solve_lanes(&self.targets, &self.active, &mut self.v);
    }

    fn replicate_lane0(&self, lanes: usize) -> Self {
        Self {
            cell: self.cell,
            v: vec![self.v[0]; lanes],
            losses: vec![self.losses[0]; lanes],
            targets: vec![(0.0, 0.0); lanes],
            active: vec![false; lanes],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_at_cutoff() {
        let cap = Supercap::edlc_22f();
        assert_eq!(cap.voltage(), Volts::new(0.8));
        assert_eq!(cap.stored_energy(), Joules::ZERO);
        assert!(cap.is_depleted());
        assert!(cap.capacity().value() > 50.0); // 22 F window holds >50 J
    }

    #[test]
    fn charge_raises_voltage_and_respects_ceiling() {
        let mut cap = Supercap::edlc_22f();
        // Pump far more than capacity.
        for _ in 0..200 {
            cap.charge(Watts::new(2.0), Seconds::new(60.0));
        }
        assert!((cap.voltage() - cap.max_voltage()).abs().value() < 1e-3);
        let e = cap.stored_energy();
        assert!((e - cap.capacity()).abs().value() < 1e-3 * cap.capacity().value());
        // Full cap refuses further charge.
        assert_eq!(cap.max_charge_power(), Watts::ZERO);
    }

    #[test]
    fn discharge_returns_energy_and_respects_floor() {
        let mut cap = Supercap::edlc_22f();
        cap.set_voltage(Volts::new(2.5));
        let before = cap.stored_energy();
        let delivered = cap.discharge(Watts::new(1.0), Seconds::new(10.0));
        assert!(delivered.value() > 0.0);
        assert!(cap.stored_energy() < before);
        // Draining far beyond the content stops at the cutoff.
        for _ in 0..10_000 {
            cap.discharge(Watts::new(2.0), Seconds::new(60.0));
        }
        assert!(cap.voltage() >= cap.min_voltage());
        assert!(cap.stored_energy().value() >= 0.0);
    }

    #[test]
    fn roundtrip_loses_energy_in_esr() {
        let mut cap = Supercap::edlc_22f();
        let taken = cap.charge(Watts::new(1.0), Seconds::new(100.0));
        let delivered = cap.discharge(Watts::new(1.0), Seconds::new(1000.0));
        assert!(delivered < taken, "{delivered} vs {taken}");
        assert!(cap.losses().value() > 0.0);
        // Conservation: taken = delivered + losses + remaining.
        let residual =
            taken.value() - delivered.value() - cap.losses().value() - cap.stored_energy().value();
        assert!(residual.abs() < 1e-6 * taken.value(), "residual {residual}");
    }

    #[test]
    fn leakage_drains_idle_cap() {
        let mut cap = Supercap::edlc_22f();
        cap.set_voltage(Volts::new(2.5));
        let before = cap.stored_energy();
        cap.idle(Seconds::from_hours(24.0));
        let after = cap.stored_energy();
        assert!(after < before);
        // 2.5 V across 15 kΩ ≈ 0.42 mW ⇒ ~36 J/day; cap holds ~60 J.
        let leaked = (before - after).value();
        assert!((10.0..40.0).contains(&leaked), "leaked {leaked}");
    }

    #[test]
    fn voltage_dependent_capacitance() {
        // C(V) = 22 F + 1.5 F/V · V: the energy taken between two
        // voltages is ∫ C(v)·v dv, more than a constant 22 F would take.
        let mut cap = Supercap::edlc_22f();
        cap.set_voltage(Volts::new(1.0));
        let low = cap.stored_energy().value();
        cap.set_voltage(Volts::new(2.5));
        let between = cap.stored_energy().value() - low;
        let constant = 22.0 * (2.5f64.powi(2) - 1.0) / 2.0;
        let expected = constant + 1.5 * (2.5f64.powi(3) - 1.0) / 3.0;
        assert!(between > constant, "{between} J");
        assert!((between - expected).abs() < 1e-9, "{between} vs {expected}");
    }

    #[test]
    fn lic_has_narrow_window_and_kind() {
        let lic = Supercap::lithium_ion_capacitor_40f();
        assert_eq!(lic.kind(), StorageKind::LithiumIonCapacitor);
        assert_eq!(lic.min_voltage(), Volts::new(2.2));
        assert_eq!(lic.max_voltage(), Volts::new(3.8));
        assert!(lic.is_rechargeable());
    }

    #[test]
    fn energy_voltage_inversion_consistent() {
        let mut cap = Supercap::edlc_22f();
        for i in 0..20 {
            let v = Volts::new(0.8 + i as f64 * 0.095);
            let e = cap.solver().stored_energy(v.value());
            let back = cap.voltage_for_energy(e);
            assert!((back - v).abs().value() < 1e-6, "{back} vs {v}");
        }
    }

    /// Splitmix64 — a tiny deterministic generator for the identity tests.
    fn splitmix(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z = z ^ (z >> 31);
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn pathological_parameters_fall_back_to_bisection() {
        // A vanishing C₀ under a dominant k_v slope puts the Newton start
        // `√(2e/C₀)` ~15 orders of magnitude above the cubic root, so the
        // ~(2/3)-per-step contraction cannot land within 64 iterations.
        // The old solver fell out of the loop and silently clamped the
        // huge iterate to v_max, reporting a full capacitor for a nearly
        // empty one; the bisection fallback must find the actual root.
        let mut cap = Supercap::new(
            "pathological",
            Farads::new(1e-30),
            1e3,
            Ohms::from_milli(1.0),
            Ohms::from_kilo(1000.0),
            Volts::new(0.0),
            Volts::new(5.0),
        );
        let target = 1.0;
        // k·v³/3 = e  ⇒  v = (3e/k)^(1/3)
        let expected = (3.0 / 1e3f64).cbrt();
        let v = cap.voltage_for_energy(target);
        assert!(
            (v.value() - expected).abs() < 1e-9,
            "got {v}, expected {expected}"
        );
        // The inversion must roundtrip, not saturate at the rail.
        let back = cap.solver().stored_energy(v.value());
        assert!((back - 1.0).abs() < 1e-6, "roundtrip {back}");
        assert!(v.value() < 4.9, "must not clamp to v_max");
    }

    #[test]
    fn batched_solve_matches_scalar_bitwise() {
        for cap in [
            Supercap::edlc_22f(),
            Supercap::edlc_1f(),
            Supercap::lithium_ion_capacitor_40f(),
        ] {
            let solver = cap.solver();
            let capacity = cap.capacity().value();
            let (lo, hi) = (cap.min_voltage().value(), cap.max_voltage().value());
            let mut state = 0x00C0_FFEE_u64;
            // Random targets spanning empty, negative, in-window, and
            // beyond-capacity, from starts in the window, at its edges
            // and outside it, plus a masked-off lane pattern.
            let xs: Vec<(f64, f64)> = (0..257)
                .map(|i| {
                    let target = match i % 7 {
                        0 => 0.0,
                        1 => -0.25 * capacity,
                        2 => 1.5 * capacity,
                        _ => splitmix(&mut state) * capacity,
                    };
                    let start = match i % 5 {
                        0 => lo,
                        1 => hi,
                        2 => 0.5 * lo,
                        _ => lo + splitmix(&mut state) * (hi - lo),
                    };
                    (target, start)
                })
                .collect();
            let active: Vec<bool> = (0..xs.len()).map(|i| i % 11 != 3).collect();
            // Uniform lanes take the broadcast: one solve for them all.
            let uniform = vec![xs[3]; xs.len()];
            let mut out = vec![f64::NAN; xs.len()];
            solver.solve_lanes(&uniform, &active, &mut out);
            for i in 0..xs.len() {
                let want = if active[i] {
                    solver.solve_one(xs[3]).to_bits()
                } else {
                    f64::NAN.to_bits()
                };
                assert_eq!(out[i].to_bits(), want, "uniform lane {i}");
            }
            let mut out = vec![f64::NAN; xs.len()];
            solver.solve_lanes(&xs, &active, &mut out);
            for i in 0..xs.len() {
                if active[i] {
                    assert_eq!(
                        out[i].to_bits(),
                        solver.solve_one(xs[i]).to_bits(),
                        "{}: lane {i} (target, start) {:?}",
                        cap.name(),
                        xs[i]
                    );
                } else {
                    assert!(out[i].is_nan(), "inactive lane {i} touched");
                }
            }
        }
    }

    /// The root of `stored_energy(v) = target` by bisection carried
    /// until the bracket's ends are adjacent floats, clamped to the
    /// window as the solver clamps.
    fn bisection_reference(solver: &SupercapSolver, target: f64) -> f64 {
        if target <= 0.0 {
            return solver.a;
        }
        if target >= solver.stored_energy(solver.v_max) {
            return solver.v_max;
        }
        let (mut lo, mut hi) = (solver.a, solver.v_max);
        loop {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi {
                break;
            }
            if solver.stored_energy(mid) > target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        lo
    }

    /// Distance in ulps between two positive finite floats.
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn warm_started_inversion_is_within_two_ulp_of_bisection() {
        for cap in [
            Supercap::edlc_22f(),
            Supercap::edlc_1f(),
            Supercap::lithium_ion_capacitor_40f(),
        ] {
            let solver = cap.solver();
            let capacity = cap.capacity().value();
            let (lo, hi) = (solver.a, solver.v_max);
            let mut state = 0x5EED_u64;
            let mut pairs = Vec::new();
            // A storage step: the target lies a relative step of 1e-7 to
            // 1e-1 above or below the start's own energy.
            for _ in 0..4000 {
                let start = lo + splitmix(&mut state) * (hi - lo);
                let step = 10f64.powf(-7.0 + 6.0 * splitmix(&mut state));
                let sign = if splitmix(&mut state) < 0.5 {
                    -1.0
                } else {
                    1.0
                };
                pairs.push((solver.stored_energy(start) * (1.0 + sign * step), start));
            }
            // Starts at both edges and outside the window, targets of
            // zero, below zero and beyond capacity.
            let starts = [lo, hi, 0.5 * lo, 1.5 * hi, -1.0, f64::NAN, 0.5 * (lo + hi)];
            let targets = [
                0.0,
                -1e-3,
                -capacity,
                1e-12,
                0.5 * capacity,
                capacity,
                1.01 * capacity,
                10.0 * capacity,
            ];
            for &start in &starts {
                for &target in &targets {
                    pairs.push((target, start));
                }
                for _ in 0..200 {
                    pairs.push((splitmix(&mut state) * capacity, start));
                }
            }
            let mut worst = 0;
            for &(target, start) in &pairs {
                let v = solver.solve_one((target, start));
                assert!(
                    (lo..=hi).contains(&v),
                    "{}: {v} outside the window",
                    cap.name()
                );
                let d = ulps(v, bisection_reference(&solver, target));
                assert!(
                    d <= 2,
                    "{}: target {target:e} from {start}: {v} is {d} ulp off",
                    cap.name()
                );
                worst = worst.max(d);
            }
            assert!(worst > 0, "{}: the reference never differs", cap.name());
        }
    }

    #[test]
    fn lanes_step_matches_scalar_storage_ops_bitwise() {
        for template in [
            Supercap::edlc_22f(),
            Supercap::edlc_1f(),
            Supercap::lithium_ion_capacitor_40f(),
        ] {
            for dt in [60.0, 10.0] {
                lanes_match_scalar_caps(template.clone(), dt);
            }
        }
    }

    /// Steps 37 lanes of `template`, started 60 % up its window, and 37
    /// scalar clones through the same requests `dt` seconds apart,
    /// asserting every returned energy, voltage and loss bit for bit.
    fn lanes_match_scalar_caps(mut template: Supercap, dt: f64) {
        template.set_voltage(template.min_voltage().lerp(template.max_voltage(), 0.6));
        let name = format!("{} at dt {dt}", template.name());
        let n = 37;
        let mut lanes = SupercapLanes::from_template(&template, n);
        let mut scalars: Vec<Supercap> = (0..n).map(|_| template.clone()).collect();
        let mut state = 0xDEAD_BEEFu64;
        let (mut cw, mut dw) = (vec![0.0; n], vec![0.0; n]);
        let (mut ch, mut dis) = (vec![0.0; n], vec![0.0; n]);
        // 300 random steps, then a pinned phase: large charge requests
        // until the rail, then small constant ones that still top the
        // leak up, so every scalar cap replays its memo each step.
        for step in 0..400 {
            for i in 0..n {
                cw[i] = 0.0;
                dw[i] = 0.0;
                if step >= 300 {
                    cw[i] = if step < 330 {
                        2.0
                    } else {
                        0.01 + 0.001 * i as f64
                    };
                    continue;
                }
                let r = splitmix(&mut state);
                if r < 0.45 {
                    cw[i] = splitmix(&mut state) * 0.6;
                } else if r < 0.9 {
                    dw[i] = splitmix(&mut state) * 0.6;
                }
            }
            lanes.step(&cw, &dw, dt, &mut ch, &mut dis);
            for i in 0..n {
                let held = scalars[i].inversions;
                let c_ref = if cw[i] > 0.0 {
                    scalars[i].charge(Watts::new(cw[i]), Seconds::new(dt))
                } else {
                    Joules::ZERO
                };
                let d_ref = if dw[i] > 0.0 {
                    scalars[i].discharge(Watts::new(dw[i]), Seconds::new(dt))
                } else {
                    Joules::ZERO
                };
                scalars[i].idle(Seconds::new(dt));
                if step >= 350 {
                    // Pinned: both of the step's targets were held, so
                    // the memo comes out of the step as it went in.
                    assert_eq!(
                        scalars[i].inversions, held,
                        "{name}: step {step} lane {i} missed"
                    );
                }
                assert_eq!(
                    ch[i].to_bits(),
                    c_ref.value().to_bits(),
                    "{name}: step {step} lane {i} charged"
                );
                assert_eq!(
                    dis[i].to_bits(),
                    d_ref.value().to_bits(),
                    "{name}: step {step} lane {i} discharged"
                );
                assert_eq!(
                    lanes.voltage(i).to_bits(),
                    scalars[i].voltage().value().to_bits(),
                    "{name}: step {step} lane {i} voltage"
                );
                assert_eq!(
                    lanes.losses(i).to_bits(),
                    scalars[i].losses().value().to_bits(),
                    "{name}: step {step} lane {i} losses"
                );
            }
        }
        for cap in &scalars {
            assert!(
                cap.voltage().value() > 0.99 * cap.max_voltage().value(),
                "{name}"
            );
        }
    }

    /// The calls of one pinned step: `Charge` far past full, `Idle`, and
    /// a small constant `Draw` (System B's interface quiescent current).
    #[derive(Debug, Clone, Copy)]
    enum Call {
        Charge,
        Idle,
        Draw,
    }

    /// Runs `call` on `cap`, returning the energy it moved (zero for
    /// `Idle`).
    fn apply(cap: &mut Supercap, call: Call) -> Joules {
        let dt = Seconds::new(60.0);
        match call {
            Call::Charge => cap.charge(Watts::new(2.0), dt),
            Call::Idle => {
                cap.idle(dt);
                Joules::ZERO
            }
            Call::Draw => cap.discharge(Watts::from_micro(50.0), dt),
        }
    }

    /// Runs `call` on `cap` and on a cold twin set to `cap`'s voltage,
    /// asserting both move the same energy and leave the same voltage,
    /// bit for bit.
    fn check_against_cold_twin(cap: &mut Supercap, call: Call) {
        let mut twin = Supercap::edlc_22f();
        twin.set_voltage(cap.voltage());
        let moved = apply(cap, call);
        let twin_moved = apply(&mut twin, call);
        assert_eq!(
            moved.value().to_bits(),
            twin_moved.value().to_bits(),
            "{call:?}"
        );
        assert_eq!(
            cap.voltage().value().to_bits(),
            twin.voltage().value().to_bits(),
            "{call:?}"
        );
    }

    /// Runs `cycle` 100 times from empty against cold twins and returns
    /// how many calls of the last 50 cycles the memo answered. Every call
    /// of a pinned cycle solves a target, which then sits at the memo's
    /// front holding the cap's voltage; the memo answered the call when
    /// it already held that target.
    fn pinned_cycle_hits(cycle: &[Call]) -> usize {
        let mut cap = Supercap::edlc_22f();
        let mut hits = 0;
        for step in 0..100 {
            for &call in cycle {
                let held = cap.inversions;
                check_against_cold_twin(&mut cap, call);
                let (target, start, v) = cap.inversions[0];
                assert_eq!(v.to_bits(), cap.voltage().value().to_bits(), "{call:?}");
                if step >= 50 && held.iter().any(|&(t, s, _)| (t, s) == (target, start)) {
                    hits += 1;
                }
            }
        }
        assert!(cap.voltage().value() > 0.99 * cap.max_voltage().value());
        hits
    }

    #[test]
    fn memo_replays_pinned_cycles_bitwise() {
        // Systems A and C solve two targets per pinned step, B three.
        for cycle in [
            &[Call::Charge, Call::Idle][..],
            &[Call::Charge, Call::Idle, Call::Draw],
        ] {
            assert_eq!(pinned_cycle_hits(cycle), cycle.len() * 50, "{cycle:?}");
        }
    }

    #[test]
    fn set_voltage_on_a_warm_memo_matches_cold_twin() {
        let mut cap = Supercap::edlc_22f();
        for _ in 0..20 {
            for call in [Call::Charge, Call::Idle, Call::Draw] {
                check_against_cold_twin(&mut cap, call);
            }
        }
        for v in [2.7, 1.9, 0.8, 2.5, 2.7] {
            cap.set_voltage(Volts::new(v));
            for _ in 0..3 {
                for call in [Call::Draw, Call::Idle, Call::Charge, Call::Idle] {
                    check_against_cold_twin(&mut cap, call);
                }
            }
        }
    }

    #[test]
    fn memo_keys_on_every_bit_of_the_target() {
        // A held target, then one 2^k ulps above it, for k up to 19: a
        // key that dropped low mantissa bits would replay the held
        // target's voltage for the second, which differs from its own
        // solve from a few ulps apart on.
        let mut cap = Supercap::edlc_22f();
        cap.set_voltage(Volts::new(1.9));
        let solver = cap.solver();
        let start = cap.voltage().value();
        let held = (0.5 * cap.capacity().value()).to_bits() & !((1 << 20) - 1);
        for k in 0..20 {
            for bits in [held, held + (1 << k)] {
                let e = f64::from_bits(bits);
                assert_eq!(
                    cap.voltage_for_energy(e).value().to_bits(),
                    solver.solve_one((e, start)).to_bits(),
                    "2^{k} ulps"
                );
            }
        }
    }

    #[test]
    fn memo_keys_on_the_start_voltage() {
        // Two caps at different voltages invert one target: the second,
        // a clone of the first that holds its memo entry, must solve from
        // its own voltage, not replay the entry solved from the other.
        // Newton from two starts lands on the same root within an ulp or
        // two, so some of these pairs differ in the last bits, and a memo
        // keyed on the target alone replays the wrong ones.
        let template = Supercap::edlc_22f();
        let solver = template.solver();
        let capacity = template.capacity().value();
        let mut state = 0xFACE_u64;
        let mut differing = 0;
        for _ in 0..400 {
            let target = (0.05 + 0.9 * splitmix(&mut state)) * capacity;
            let mut first = template.clone();
            first.set_voltage(Volts::new(0.8 + 1.9 * splitmix(&mut state)));
            let from_first = first.voltage_for_energy(target).value();
            let mut second = first.clone();
            second.set_voltage(Volts::new(0.8 + 1.9 * splitmix(&mut state)));
            let own = solver.solve_one((target, second.voltage().value()));
            assert_eq!(
                second.voltage_for_energy(target).value().to_bits(),
                own.to_bits()
            );
            if from_first.to_bits() != own.to_bits() {
                differing += 1;
            }
        }
        assert!(differing > 0, "no pair tells the starts apart");
    }

    #[test]
    fn memo_is_not_part_of_equality() {
        let mut warm = Supercap::edlc_22f();
        for _ in 0..10 {
            warm.charge(Watts::new(2.0), Seconds::new(60.0));
            warm.idle(Seconds::new(60.0));
        }
        let mut cold = Supercap::edlc_22f();
        cold.set_voltage(warm.voltage());
        cold.losses = warm.losses;
        assert_ne!(warm.inversions, cold.inversions);
        assert_eq!(warm, cold);
        assert_eq!(warm.clone(), warm);
        assert_eq!(warm.clone(), cold);
    }

    #[test]
    #[should_panic(expected = "voltage window")]
    fn rejects_inverted_window() {
        Supercap::new(
            "bad",
            Farads::new(1.0),
            0.0,
            Ohms::new(0.1),
            Ohms::new(1000.0),
            Volts::new(3.0),
            Volts::new(2.0),
        );
    }
}
