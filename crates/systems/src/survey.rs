//! The site survey: rank harvester technologies for a deployment.
//!
//! The survey's conclusion: MPPT benefit "is deployment-specific, which
//! underlines the importance of considering the deployment environment
//! when choosing energy hardware." This module operationalizes that
//! advice — sample a deployment's conditions over a window, evaluate the
//! stock harvester of every class at its maximum-power point, and rank
//! the classes by expected harvest.

use std::fmt;

use crate::parts::harvesters;
use mseh_env::EnvSampler;
use mseh_harvesters::{HarvesterKind, Transducer};
use mseh_units::{Joules, Seconds, Watts};

/// One technology's expected performance at a site.
#[derive(Debug, Clone, PartialEq)]
pub struct SurveyRow {
    /// The harvester class.
    pub kind: HarvesterKind,
    /// The stock device evaluated.
    pub device: String,
    /// Ideal (MPP) energy over the surveyed window.
    pub energy: Joules,
    /// Fraction of samples with meaningful output (> 1 µW).
    pub availability: f64,
}

/// A ranked site survey.
///
/// # Examples
///
/// ```
/// use mseh_systems::site_survey;
/// use mseh_env::Environment;
/// use mseh_units::Seconds;
///
/// let report = site_survey(
///     &Environment::indoor_industrial(7),
///     Seconds::from_days(1.0),
///     Seconds::from_minutes(10.0),
/// );
/// // Indoors, the thermal gradient on the steam pipe is a top source.
/// assert!(report.rows[0].energy.value() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SurveyReport {
    /// Rows sorted by expected energy, best first.
    pub rows: Vec<SurveyRow>,
    /// Window surveyed.
    pub window: Seconds,
}

impl SurveyReport {
    /// The best-ranked harvester class.
    pub fn best(&self) -> HarvesterKind {
        self.rows[0].kind
    }

    /// The rank (0 = best) of a class, if it was surveyed.
    pub fn rank_of(&self, kind: HarvesterKind) -> Option<usize> {
        self.rows.iter().position(|r| r.kind == kind)
    }
}

impl fmt::Display for SurveyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "site survey over {:.1} days (ideal MPP energy per stock device)",
            self.window.as_days()
        )?;
        writeln!(
            f,
            "{:>4} | {:>14} | {:>12} | {:>12} | device",
            "rank", "class", "energy", "availability"
        )?;
        for (i, r) in self.rows.iter().enumerate() {
            writeln!(
                f,
                "{:>4} | {:>14} | {:>12} | {:>10.0} % | {}",
                i + 1,
                r.kind.to_string(),
                r.energy.to_string(),
                r.availability * 100.0,
                r.device
            )?;
        }
        Ok(())
    }
}

/// Instants sampled per [`EnvSampler::conditions_into`] call, so a long
/// survey holds one batch of rows, not the whole window.
const SURVEY_BATCH: usize = 1440;

/// Surveys `env` over `window` at `step` resolution with one stock device
/// per harvester class (the external AC/DC input is excluded — it is a
/// commissioning aid, not an ambient source).
///
/// # Panics
///
/// Panics if `step` is not positive or exceeds `window`.
pub fn site_survey(env: &dyn EnvSampler, window: Seconds, step: Seconds) -> SurveyReport {
    assert!(step.value() > 0.0, "step must be positive");
    assert!(step <= window, "step must fit in the window");
    let devices: Vec<Box<dyn Transducer>> = vec![
        harvesters::pv_small(),
        harvesters::wind(),
        harvesters::teg(),
        harvesters::piezo(),
        harvesters::electromagnetic(),
        harvesters::rectenna(),
        harvesters::hydro(),
    ];
    let steps = (window.value() / step.value()).ceil() as usize;
    // Each instant is sampled once, in batches, and every device is
    // evaluated on the batch's rows; a device still sums its instants in
    // time order.
    let mut totals = vec![(Joules::ZERO, 0usize); devices.len()];
    let mut times = Vec::with_capacity(steps.min(SURVEY_BATCH));
    let mut samples = Vec::with_capacity(times.capacity());
    for first in (0..steps).step_by(SURVEY_BATCH) {
        times.clear();
        times.extend(
            (first..steps.min(first + SURVEY_BATCH)).map(|i| Seconds::new(i as f64 * step.value())),
        );
        env.conditions_into(&times, &mut samples);
        for (device, (energy, live)) in devices.iter().zip(&mut totals) {
            for conditions in &samples {
                let p = device.mpp(conditions).power();
                *energy += p * step;
                if p > Watts::from_micro(1.0) {
                    *live += 1;
                }
            }
        }
    }
    let mut rows: Vec<SurveyRow> = devices
        .iter()
        .zip(totals)
        .map(|(device, (energy, live))| SurveyRow {
            kind: device.kind(),
            device: device.name().to_owned(),
            energy,
            availability: live as f64 / steps as f64,
        })
        .collect();
    rows.sort_by(|a, b| b.energy.total_cmp(&a.energy));
    SurveyReport { rows, window }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mseh_env::Environment;

    fn survey(env: &Environment) -> SurveyReport {
        site_survey(env, Seconds::from_days(1.0), Seconds::from_minutes(10.0))
    }

    #[test]
    fn outdoor_site_favours_sun_and_wind() {
        let report = survey(&Environment::outdoor_temperate(9));
        let pv = report
            .rank_of(HarvesterKind::Photovoltaic)
            .expect("surveyed");
        let wind = report
            .rank_of(HarvesterKind::WindTurbine)
            .expect("surveyed");
        let piezo = report
            .rank_of(HarvesterKind::Piezoelectric)
            .expect("surveyed");
        assert!(pv < piezo, "{report}");
        assert!(wind < piezo, "{report}");
        assert!(pv <= 1, "{report}");
    }

    #[test]
    fn industrial_site_favours_the_steam_pipe_and_the_motor() {
        let report = survey(&Environment::indoor_industrial(9));
        let teg = report
            .rank_of(HarvesterKind::Thermoelectric)
            .expect("surveyed");
        let wind = report
            .rank_of(HarvesterKind::WindTurbine)
            .expect("surveyed");
        let hydro = report.rank_of(HarvesterKind::Hydro).expect("surveyed");
        assert_eq!(report.rows[wind].energy, Joules::ZERO);
        assert_eq!(report.rows[hydro].energy, Joules::ZERO);
        assert!(teg <= 2, "{report}");
    }

    #[test]
    fn agricultural_site_surfaces_water_flow() {
        let report = survey(&Environment::agricultural(9));
        let hydro = report.rank_of(HarvesterKind::Hydro).expect("surveyed");
        let row = &report.rows[hydro];
        assert!(row.energy.value() > 0.0, "{report}");
        // Irrigation windows cover ~5 h of 24 → availability ~20 %.
        assert!((0.05..0.5).contains(&row.availability), "{report}");
    }

    #[test]
    fn report_renders_ranked() {
        let report = survey(&Environment::outdoor_temperate(2));
        let shown = report.to_string();
        assert!(shown.contains("rank"));
        assert!(shown.contains("availability"));
        // Rows are energy-descending.
        for pair in report.rows.windows(2) {
            assert!(pair[0].energy >= pair[1].energy);
        }
        assert_eq!(report.rank_of(report.best()), Some(0));
    }

    #[test]
    #[should_panic(expected = "step must fit")]
    fn rejects_oversized_step() {
        site_survey(
            &Environment::outdoor_temperate(1),
            Seconds::from_minutes(5.0),
            Seconds::from_hours(1.0),
        );
    }
}
