//! Parameter-sweep helpers for the experiment harness: run a family of
//! simulations over a parameter grid and collect one summary value per
//! point.

use crate::parallel::{par_map_with, thread_count};

/// One point of a sweep: the swept parameter value and the measured
/// outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The swept parameter's value.
    pub parameter: f64,
    /// The measured outcome at that value.
    pub outcome: f64,
}

/// Runs `measure` over each parameter value, fanned out across the
/// worker pool ([`thread_count`](crate::thread_count) workers;
/// `MSEH_THREADS` overrides): each grid point's measurement runs on its
/// own worker, and the returned points stay grid-aligned.
///
/// `measure` is shared by reference across workers, hence `Fn + Sync`.
/// Grid points whose measurement is a pure function of the parameter
/// (every simulation-backed sweep in the bench harness qualifies)
/// produce the same points at any worker count.
///
/// # Examples
///
/// ```
/// use mseh_sim::par_sweep;
///
/// let points = par_sweep(&[1.0, 2.0, 3.0], |x| x * x);
/// assert_eq!(points[2].parameter, 3.0);
/// assert_eq!(points[2].outcome, 9.0);
/// ```
pub fn par_sweep(parameters: &[f64], measure: impl Fn(f64) -> f64 + Sync) -> Vec<SweepPoint> {
    par_map_with(thread_count(), parameters, |&parameter| SweepPoint {
        parameter,
        outcome: measure(parameter),
    })
}

/// Finds the smallest parameter in an ascending sweep whose outcome meets
/// `threshold` (`outcome >= threshold`), if any — the "minimum buffer
/// size for zero downtime" pattern of experiment E2.
pub fn first_meeting(points: &[SweepPoint], threshold: f64) -> Option<SweepPoint> {
    points.iter().copied().find(|p| p.outcome >= threshold)
}

/// Locates the crossover between two outcome series measured on the same
/// ascending parameter grid: the first parameter at which series `a`'s
/// outcome overtakes series `b`'s. Returns `None` when `a` never
/// overtakes, or when the grids differ — in length *or* in any
/// parameter value, since comparing outcomes measured at different
/// parameters is meaningless.
///
/// Used by experiment E3 to find the harvest level where MPPT starts
/// paying for its overhead.
///
/// Grid equality is judged to a relative tolerance (1 part in 10⁹), so
/// two grids built by equivalent-but-reordered arithmetic (e.g.
/// `lo * r.powi(i)` versus a running product) still compare as the same
/// grid instead of being rejected over one ULP.
pub fn crossover(a: &[SweepPoint], b: &[SweepPoint]) -> Option<f64> {
    if a.len() != b.len() {
        return None;
    }
    let same = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs());
    if a.iter()
        .zip(b)
        .any(|(pa, pb)| !same(pa.parameter, pb.parameter))
    {
        return None;
    }
    a.iter()
        .zip(b)
        .find(|(pa, pb)| pa.outcome > pb.outcome)
        .map(|(pa, _)| pa.parameter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_applies_measure() {
        let pts = par_sweep(&[0.0, 1.0, 2.0], |x| 2.0 * x + 1.0);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].outcome, 1.0);
        assert_eq!(pts[2].parameter, 2.0);
        assert_eq!(pts[2].outcome, 5.0);
    }

    #[test]
    fn first_meeting_finds_threshold() {
        let pts = par_sweep(&[1.0, 2.0, 4.0, 8.0], |x| x);
        let hit = first_meeting(&pts, 3.0).expect("4 meets it");
        assert_eq!(hit.parameter, 4.0);
        assert!(first_meeting(&pts, 100.0).is_none());
    }

    #[test]
    fn crossover_detects_overtake() {
        let grid = [1.0, 2.0, 3.0, 4.0];
        let a = par_sweep(&grid, |x| x * x); // overtakes...
        let b = par_sweep(&grid, |x| 3.0 * x); // ...after x=3
        assert_eq!(crossover(&a, &b), Some(4.0));
        assert_eq!(crossover(&b, &a), Some(1.0));
        assert_eq!(crossover(&a, &a), None);
        assert_eq!(crossover(&a, &b[..2]), None);
    }

    #[test]
    fn crossover_rejects_mismatched_grids() {
        let a = par_sweep(&[1.0, 2.0, 3.0], |x| x * x);
        // Same length, different parameter values: outcomes are not
        // comparable, even though a's outcomes overtake b's everywhere.
        let b = par_sweep(&[1.0, 2.5, 3.0], |x| x);
        assert_eq!(crossover(&a, &b), None);
        assert_eq!(crossover(&b, &a), None);
        // An exactly matching grid still works.
        let c = par_sweep(&[1.0, 2.0, 3.0], |x| x);
        assert_eq!(crossover(&a, &c), Some(2.0));
    }

    #[test]
    fn par_sweep_matches_sequential() {
        let grid: Vec<f64> = (0..13).map(|i| 0.1 * 1.78f64.powi(i)).collect();
        let measure = |x: f64| (x * 1.7).sin() + x.sqrt();
        let seq: Vec<SweepPoint> = grid
            .iter()
            .map(|&parameter| SweepPoint {
                parameter,
                outcome: measure(parameter),
            })
            .collect();
        assert_eq!(par_sweep(&grid, measure), seq);
    }

    #[test]
    fn crossover_tolerates_one_ulp_of_grid_noise() {
        // Regression: grids computed by equivalent-but-reordered
        // arithmetic differ in the last bit; exact == rejected them.
        let ratio = (64.0f64 / 0.5).powf(1.0 / 8.0);
        let mut grid: Vec<f64> = (0..9).map(|i| 0.5 * ratio.powi(i)).collect();
        grid[8] = 64.0;
        // The same grid via a cumulative product instead of powi: the
        // rounding accumulates differently.
        let mut v = 0.5;
        let jittered: Vec<f64> = (0..9)
            .map(|_| {
                let cur = v;
                v *= ratio;
                cur
            })
            .collect();
        assert_ne!(grid, jittered, "jitter should actually perturb bits");
        let a = par_sweep(&grid, |x| x * x);
        let b = par_sweep(&jittered, |x| 10.0 * x);
        assert_eq!(crossover(&a, &b), Some(grid[5]));
        // A genuinely different grid is still rejected.
        let shifted: Vec<f64> = grid.iter().map(|&x| x * 1.001).collect();
        let c = par_sweep(&shifted, |x| x);
        assert_eq!(crossover(&a, &c), None);
    }
}
