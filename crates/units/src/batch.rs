//! The lane-batched solve contract shared by the workspace's numeric
//! kernels.
//!
//! The fleet engine's dense lanes keep node state as struct-of-arrays
//! slices and hand whole slices to a solver at once, instead of looping a
//! scalar Newton per node. [`BatchSolve`] is the small trait that makes
//! this possible without the simulation layer reaching into model
//! internals: each model (PV diode, TEG couple, supercapacitor energy
//! integral) exposes a solver value that implements it, and the batched
//! path is *defined* to be bit-identical to the scalar path.
//!
//! # Bit-identity contract
//!
//! For every implementor, every active lane of [`solve_lanes`] must
//! produce exactly the bits [`solve_one`] produces for the same input.
//! Batched implementations therefore replicate the scalar iteration
//! per lane — same starting iterate, same update arithmetic, same
//! convergence test — under a *convergence mask*: lanes that have met
//! the scalar early-exit condition freeze at their final iterate while
//! the remaining lanes keep stepping, up to the same fixed iteration
//! budget the scalar solver uses. There is no per-lane early exit out of
//! the batch loop (that would serialize the kernel again); the whole
//! batch retires when every lane's mask bit clears or the budget is
//! exhausted.
//!
//! [`solve_one`]: BatchSolve::solve_one
//! [`solve_lanes`]: BatchSolve::solve_lanes

/// A solver that can run one input or a whole lane batch.
///
/// `Input` is the per-lane problem statement — a `(target energy, start
/// voltage)` pair for the supercapacitor inversion, a `(photocurrent,
/// thermal voltage)` pair for the PV diode — and the output is always the solved `f64` (a voltage in
/// every current implementor).
pub trait BatchSolve {
    /// Per-lane problem statement.
    type Input: Copy;

    /// Solves a single input — the scalar reference path.
    fn solve_one(&self, x: Self::Input) -> f64;

    /// Solves every lane with `active[i] == true`, writing results to
    /// `out[i]` and leaving inactive lanes' `out` untouched.
    ///
    /// Each active lane's result is bit-identical to
    /// [`solve_one`](Self::solve_one) on the same input. All three slices
    /// must have equal lengths.
    fn solve_lanes(&self, xs: &[Self::Input], active: &[bool], out: &mut [f64]) {
        assert_eq!(xs.len(), active.len());
        assert_eq!(xs.len(), out.len());
        for i in 0..xs.len() {
            if active[i] {
                out[i] = self.solve_one(xs[i]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Doubler;
    impl BatchSolve for Doubler {
        type Input = f64;
        fn solve_one(&self, x: f64) -> f64 {
            2.0 * x
        }
    }

    #[test]
    fn default_lanes_match_scalar_and_respect_mask() {
        let xs = [1.0, 2.5, -3.0];
        let active = [true, false, true];
        let mut out = [f64::NAN; 3];
        Doubler.solve_lanes(&xs, &active, &mut out);
        assert_eq!(out[0].to_bits(), Doubler.solve_one(1.0).to_bits());
        assert!(out[1].is_nan(), "inactive lane must stay untouched");
        assert_eq!(out[2].to_bits(), Doubler.solve_one(-3.0).to_bits());
    }
}
