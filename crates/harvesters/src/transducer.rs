//! The [`Transducer`] trait: a harvester seen as a voltage-dependent
//! current source, with derived operating-point analysis.

use crate::batch::VocBatch;
use crate::kind::HarvesterKind;
use mseh_env::EnvConditions;
use mseh_units::{Amps, Volts, Watts};

/// An electrical operating point of a source.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OperatingPoint {
    /// Terminal voltage.
    pub voltage: Volts,
    /// Delivered current.
    pub current: Amps,
}

impl OperatingPoint {
    /// The power delivered at this point.
    pub fn power(&self) -> Watts {
        self.voltage * self.current
    }
}

/// A harvesting transducer modelled as a static I–V characteristic that
/// depends on the ambient conditions.
///
/// The survey's power-conditioning trade-offs (MPPT benefit, fixed-point
/// compromise, source/converter matching) are all functions of this curve's
/// shape, which is why the trait is the substrate every higher layer builds
/// on. Implementations must guarantee:
///
/// * `current_at` is non-negative and non-increasing in `v` over
///   `[0, open_circuit_voltage]` (a passive source can't gain current from
///   a rising terminal voltage), and zero at or beyond the open-circuit
///   voltage;
/// * all outputs are finite.
///
/// Transducers carry no memo of their own. The input channel that owns
/// one (`mseh_power::InputChannel`) memoizes its solves when
/// [`is_time_invariant`](Self::is_time_invariant) holds.
///
/// The trait is object-safe; platforms store harvesters as
/// `Box<dyn Transducer>`.
pub trait Transducer: Send + Sync {
    /// Human-readable model name (e.g. `"0.5 W polycrystalline panel"`).
    fn name(&self) -> &str;

    /// The source class this harvester transduces.
    fn kind(&self) -> HarvesterKind;

    /// The DC-side current the harvester sources into a terminal held at
    /// `v`, under `env`. AC harvesters report their post-rectification
    /// characteristic.
    fn current_at(&self, v: Volts, env: &EnvConditions) -> Amps;

    /// The open-circuit voltage under `env` (the voltage at which
    /// `current_at` reaches zero).
    fn open_circuit_voltage(&self, env: &EnvConditions) -> Volts;

    /// The harvester's batched open-circuit-voltage kernel, when it has
    /// one. Lanes produced through it are bit-identical to
    /// [`open_circuit_voltage`](Self::open_circuit_voltage); the fleet
    /// engine's struct-of-arrays tier only engages for harvesters that
    /// return `Some`. Wrappers that perturb the inner device's output
    /// (fault injection, degradation) must NOT forward the inner kernel.
    fn voc_batch(&self) -> Option<&dyn VocBatch> {
        None
    }

    /// Whether this harvester's output is a pure function of the sensed
    /// ambient fields — i.e. independent of `env.time` and of any hidden
    /// internal state. Fault-injection and degradation wrappers override
    /// this to `false`; the input channel's memos never reuse a solve of
    /// a time-varying harvester.
    fn is_time_invariant(&self) -> bool {
        true
    }

    /// Short-circuit current under `env`.
    fn short_circuit_current(&self, env: &EnvConditions) -> Amps {
        self.current_at(Volts::ZERO, env)
    }

    /// Power delivered at terminal voltage `v`.
    fn power_at(&self, v: Volts, env: &EnvConditions) -> Watts {
        v * self.current_at(v, env)
    }

    /// The maximum-power point under `env`, found by golden-section search
    /// over `[0, Voc]`.
    ///
    /// For a concave power curve this converges to the true MPP; for the
    /// piecewise curves used here it lands within the numeric tolerance.
    /// Returns a zero point when the source is dead. The result is a pure
    /// function of `env` — never of solve history.
    fn mpp(&self, env: &EnvConditions) -> OperatingPoint {
        let voc = self.open_circuit_voltage(env);
        if voc <= Volts::ZERO {
            return OperatingPoint::default();
        }
        let v = Volts::new(golden_section_max(
            |v| self.power_at(Volts::new(v), env).value(),
            0.0,
            voc.value(),
        ));
        OperatingPoint {
            voltage: v,
            current: self.current_at(v, env),
        }
    }

    /// Number of scheduled dropouts this harvester has entered.
    ///
    /// Fault-injection wrappers override this so the simulation runner
    /// can report dropouts that start *and* end between its polling
    /// points; plain harvesters never fault.
    fn fault_fire_count(&self) -> u64 {
        0
    }

    /// Number of entered dropouts that have ended (output restored).
    fn fault_clear_count(&self) -> u64 {
        0
    }
}

/// Maximizes a unimodal function on `[lo, hi]` by golden-section search.
///
/// Terminates on a *relative* bracket tolerance — `(b − a)` against the
/// initial span — so a mV-scale TEG bracket and a high-Voc string both
/// resolve their peak to the same relative precision in the same ~43
/// iterations, instead of the absolute cutoff that under-resolved small
/// brackets and over-iterated large ones.
pub(crate) fn golden_section_max(f: impl Fn(f64) -> f64, lo: f64, hi: f64) -> f64 {
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    const REL_TOL: f64 = 1e-9;
    let span = (hi - lo).abs();
    let (mut a, mut b) = (lo, hi);
    let mut c = b - INV_PHI * (b - a);
    let mut d = a + INV_PHI * (b - a);
    let (mut fc, mut fd) = (f(c), f(d));
    // φ⁻⁴³ ≈ 1e-9: the relative cutoff lands near iteration 43; the cap
    // is a guard, not the usual exit.
    for _ in 0..80 {
        if fc >= fd {
            b = d;
            d = c;
            fd = fc;
            c = b - INV_PHI * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + INV_PHI * (b - a);
            fd = f(d);
        }
        if (b - a).abs() < REL_TOL * span {
            break;
        }
    }
    0.5 * (a + b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_units::Seconds;

    /// A Thevenin test source: Voc = 2 V, R = 10 Ω ⇒ MPP at 1 V, 100 mW.
    struct TestSource;

    impl Transducer for TestSource {
        fn name(&self) -> &str {
            "test thevenin"
        }
        fn kind(&self) -> HarvesterKind {
            HarvesterKind::Thermoelectric
        }
        fn current_at(&self, v: Volts, _env: &EnvConditions) -> Amps {
            Amps::new(((2.0 - v.value()) / 10.0).max(0.0))
        }
        fn open_circuit_voltage(&self, _env: &EnvConditions) -> Volts {
            Volts::new(2.0)
        }
    }

    fn env() -> EnvConditions {
        EnvConditions::quiescent(Seconds::ZERO)
    }

    #[test]
    fn operating_point_power() {
        let op = OperatingPoint {
            voltage: Volts::new(2.0),
            current: Amps::from_milli(30.0),
        };
        assert!((op.power().as_milli() - 60.0).abs() < 1e-12);
    }

    #[test]
    fn default_methods_follow_curve() {
        let s = TestSource;
        assert_eq!(s.short_circuit_current(&env()).value(), 0.2);
        assert_eq!(s.power_at(Volts::new(1.0), &env()).value(), 0.1);
        assert_eq!(s.power_at(Volts::new(2.0), &env()).value(), 0.0);
    }

    #[test]
    fn mpp_matches_thevenin_analytic() {
        let s = TestSource;
        let mpp = s.mpp(&env());
        assert!((mpp.voltage.value() - 1.0).abs() < 1e-6, "{:?}", mpp);
        assert!((mpp.power().value() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn golden_section_finds_parabola_peak() {
        let peak = golden_section_max(|x| -(x - 3.2) * (x - 3.2), 0.0, 10.0);
        assert!((peak - 3.2).abs() < 1e-7);
    }

    #[test]
    fn golden_section_resolves_millivolt_scale_brackets() {
        // A TEG-like Thevenin source: Voc = 5 mV, peak at 2.5 mV. The
        // old absolute 1e-9 cutoff stopped at ~2e-7 relative precision
        // here; the relative tolerance must resolve the peak to the same
        // relative precision as any other scale.
        let voc = 5e-3;
        let peak = golden_section_max(|v| v * (voc - v), 0.0, voc);
        assert!(
            ((peak - voc / 2.0) / voc).abs() < 1e-8,
            "relative error too large: {peak}"
        );
    }

    #[test]
    fn golden_section_resolves_high_voltage_brackets() {
        // A high-Voc string: Voc = 600 V, peak at 300 V. Relative
        // precision must match the millivolt case.
        let voc = 600.0;
        let peak = golden_section_max(|v| v * (voc - v), 0.0, voc);
        assert!(
            ((peak - voc / 2.0) / voc).abs() < 1e-8,
            "relative error too large: {peak}"
        );
    }

    #[test]
    fn trait_is_object_safe() {
        let boxed: Box<dyn Transducer> = Box::new(TestSource);
        assert_eq!(boxed.kind(), HarvesterKind::Thermoelectric);
        assert_eq!(boxed.name(), "test thevenin");
    }
}
