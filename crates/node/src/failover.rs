//! The [`FailoverPolicy`] wrapper: collapse detection + degraded-mode
//! recovery around any duty-cycle policy.

use crate::node::SensorNode;
use crate::policy::DutyCyclePolicy;
use crate::status::{EnergyStatus, MonitoringLevel};
use mseh_units::{DutyCycle, Joules, Seconds, Volts};

/// Wraps any [`DutyCyclePolicy`] with energy-collapse detection and a
/// degraded recovery mode — the reaction half of the survey's
/// monitoring/intelligence argument: a platform that can *see* a store
/// die can also *do* something about it.
///
/// Detection triggers on either signal from consecutive
/// [`EnergyStatus`] reports:
///
/// * **stored-energy collapse** — reported stored energy fell by more
///   than `collapse_fraction` between reports (catches a primary-store
///   fault on multi-store platforms, where the diode-OR bus voltage is
///   propped up by the healthy secondary and a voltage floor alone
///   would stay blind);
/// * **voltage collapse** — the store voltage crossed below
///   `collapse_voltage` (catches single-store platforms with only
///   `StoreVoltage` monitoring).
///
/// On trigger the wrapper enters degraded mode for `hold`: the inner
/// policy still runs, but its choice is capped at `degraded_duty`,
/// shedding load while whatever backup store the platform has carries
/// the bus (re-routing to the backup is the platform's diode-OR /
/// hot-swap path; the policy's job is to shrink demand to what that
/// path can serve). Each engagement increments
/// [`failover_count`](DutyCyclePolicy::failover_count), which the
/// simulation runner surfaces as a `FailoverEngaged` event.
///
/// # Examples
///
/// ```
/// use mseh_node::{DutyCyclePolicy, EnergyStatus, FailoverPolicy, FixedDuty, SensorNode};
/// use mseh_units::{DutyCycle, Joules, Ratio, Seconds, Volts, Watts};
///
/// let node = SensorNode::submilliwatt_class();
/// let mut policy = FailoverPolicy::new(Box::new(FixedDuty::new(DutyCycle::ONE)));
/// let healthy = EnergyStatus::full(
///     Volts::new(2.5), Ratio::new(0.8), Joules::new(50.0), Watts::ZERO);
/// assert_eq!(policy.choose(&node, &healthy).value(), 1.0);
/// // The primary store fails open: stored energy collapses.
/// let collapsed = EnergyStatus::full(
///     Volts::new(2.4), Ratio::new(0.1), Joules::new(5.0), Watts::ZERO)
///     .at(Seconds::from_minutes(10.0));
/// assert!(policy.choose(&node, &collapsed).value() < 0.1);
/// assert_eq!(policy.failover_count(), 1);
/// ```
pub struct FailoverPolicy {
    inner: Box<dyn DutyCyclePolicy>,
    name: String,
    degraded_duty: DutyCycle,
    hold: Seconds,
    collapse_fraction: f64,
    collapse_voltage: Volts,
    prev_stored: Option<Joules>,
    prev_voltage: Option<Volts>,
    degraded_until: Option<Seconds>,
    failovers: u64,
}

impl FailoverPolicy {
    /// Wraps `inner` with default thresholds: degraded duty 5 %, 2 h
    /// hold, 50 % stored-energy drop, 0.5 V voltage floor.
    pub fn new(inner: Box<dyn DutyCyclePolicy>) -> Self {
        let name = format!("failover({})", inner.name());
        Self {
            inner,
            name,
            degraded_duty: DutyCycle::saturating(0.05),
            hold: Seconds::from_hours(2.0),
            collapse_fraction: 0.5,
            collapse_voltage: Volts::new(0.5),
            prev_stored: None,
            prev_voltage: None,
            degraded_until: None,
            failovers: 0,
        }
    }

    /// Sets how long degraded mode holds after a trigger.
    ///
    /// # Panics
    ///
    /// Panics if `hold` is not positive.
    pub fn with_hold(mut self, hold: Seconds) -> Self {
        assert!(hold.value() > 0.0, "hold time must be positive");
        self.hold = hold;
        self
    }

    /// Whether the policy is currently in degraded mode at `now`.
    pub fn is_degraded_at(&self, now: Seconds) -> bool {
        self.degraded_until.is_some_and(|until| now < until)
    }

    fn detect_collapse(&self, status: &EnergyStatus) -> bool {
        let stored_collapse = match (self.prev_stored, status.stored) {
            (Some(prev), Some(cur)) => {
                prev.value() > 1e-9 && cur.value() < prev.value() * (1.0 - self.collapse_fraction)
            }
            _ => false,
        };
        // Edge-triggered: only a *crossing* below the floor counts, so a
        // store that lives below it (or a platform that starts empty)
        // doesn't retrigger every window.
        let voltage_collapse = match (self.prev_voltage, status.store_voltage) {
            (Some(prev), Some(cur)) => prev >= self.collapse_voltage && cur < self.collapse_voltage,
            _ => false,
        };
        stored_collapse || voltage_collapse
    }
}

impl DutyCyclePolicy for FailoverPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn required_monitoring(&self) -> MonitoringLevel {
        // Detection needs at least the sense line; the inner policy may
        // need more.
        self.inner
            .required_monitoring()
            .max(MonitoringLevel::StoreVoltage)
    }

    fn choose(&mut self, node: &SensorNode, status: &EnergyStatus) -> DutyCycle {
        let inner_duty = self.inner.choose(node, status);
        if self.detect_collapse(status) {
            self.failovers += 1;
            self.degraded_until = Some(status.time + self.hold);
        }
        self.prev_stored = status.stored;
        self.prev_voltage = status.store_voltage;
        if self.is_degraded_at(status.time) && inner_duty.value() > self.degraded_duty.value() {
            self.degraded_duty
        } else {
            inner_duty
        }
    }

    fn failover_count(&self) -> u64 {
        self.failovers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FixedDuty, VoltageThreshold};
    use mseh_units::{Ratio, Watts};

    fn full_status(stored: f64, v: f64) -> EnergyStatus {
        EnergyStatus::full(
            Volts::new(v),
            Ratio::new(0.5),
            Joules::new(stored),
            Watts::ZERO,
        )
    }

    #[test]
    fn passes_through_while_healthy() {
        let node = SensorNode::submilliwatt_class();
        let mut p = FailoverPolicy::new(Box::new(FixedDuty::new(DutyCycle::saturating(0.4))));
        for k in 0..5 {
            let status = full_status(50.0 - k as f64, 2.5).at(Seconds::from_minutes(k as f64));
            assert_eq!(p.choose(&node, &status).value(), 0.4);
        }
        assert_eq!(p.failover_count(), 0);
    }

    #[test]
    fn stored_collapse_triggers_and_holds_then_releases() {
        let node = SensorNode::submilliwatt_class();
        let mut p = FailoverPolicy::new(Box::new(FixedDuty::new(DutyCycle::ONE)))
            .with_hold(Seconds::from_hours(1.0));
        p.choose(&node, &full_status(50.0, 2.5).at(Seconds::ZERO));
        // Primary store dies: stored drops 90 % between reports.
        let d = p.choose(
            &node,
            &full_status(5.0, 2.4).at(Seconds::from_minutes(10.0)),
        );
        assert_eq!(d.value(), 0.05);
        assert_eq!(p.failover_count(), 1);
        // Still held inside the hold window.
        let d = p.choose(
            &node,
            &full_status(5.0, 2.4).at(Seconds::from_minutes(30.0)),
        );
        assert_eq!(d.value(), 0.05);
        // Released after the hold elapses (no further collapse).
        let d = p.choose(&node, &full_status(5.0, 2.4).at(Seconds::from_hours(1.5)));
        assert_eq!(d.value(), 1.0);
        assert_eq!(p.failover_count(), 1);
    }

    #[test]
    fn voltage_crossing_triggers_once() {
        let node = SensorNode::submilliwatt_class();
        // The default floor is 0.5 V.
        let mut p = FailoverPolicy::new(Box::new(FixedDuty::new(DutyCycle::ONE)));
        let v = |volts: f64, min: f64| {
            EnergyStatus::voltage_only(Volts::new(volts)).at(Seconds::from_minutes(min))
        };
        p.choose(&node, &v(2.0, 0.0));
        p.choose(&node, &v(0.4, 10.0)); // crossing: triggers
        assert_eq!(p.failover_count(), 1);
        p.choose(&node, &v(0.3, 20.0)); // still below: no retrigger
        p.choose(&node, &v(0.2, 30.0));
        assert_eq!(p.failover_count(), 1);
    }

    #[test]
    fn requires_at_least_the_sense_line() {
        let blind = FailoverPolicy::new(Box::new(FixedDuty::new(DutyCycle::ONE)));
        assert_eq!(blind.required_monitoring(), MonitoringLevel::StoreVoltage);
        let ladder = FailoverPolicy::new(Box::new(VoltageThreshold::supercap_ladder()));
        assert_eq!(ladder.required_monitoring(), MonitoringLevel::StoreVoltage);
        assert!(ladder.name.contains("failover"));
    }

    #[test]
    fn degraded_duty_caps_but_never_raises() {
        // An inner policy already below the default 5 % cap keeps its
        // own choice.
        let node = SensorNode::submilliwatt_class();
        let mut p = FailoverPolicy::new(Box::new(FixedDuty::new(DutyCycle::saturating(0.01))));
        p.choose(&node, &full_status(50.0, 2.5).at(Seconds::ZERO));
        let d = p.choose(
            &node,
            &full_status(1.0, 2.4).at(Seconds::from_minutes(10.0)),
        );
        assert_eq!(d.value(), 0.01);
        assert_eq!(p.failover_count(), 1);
    }
}
