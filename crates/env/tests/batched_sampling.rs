//! `conditions_into` against `conditions`, bit for bit, for every kind of
//! sampler and every shape of slice the kernels hand it: the batched path
//! shares noise draws across a slice, and must never show it.

use mseh_env::{
    AmbientModel, EnvConditions, EnvJitter, EnvSampler, Environment, GradientSource,
    IndoorLightModel, JitterFactors, JitteredEnv, ReplayEnvironment, RfModel, SeasonalSolarModel,
    SolarModel, Trace, VibrationModel, WaterFlowModel, WindModel,
};
use mseh_units::Seconds;

/// Every field's bits, so ±0 and NaN payloads cannot hide.
fn bits(c: &EnvConditions) -> [u64; 10] {
    let [a, b, c2, d, e, f, g, h, i] = c.ambient_bits();
    [c.time.value().to_bits(), a, b, c2, d, e, f, g, h, i]
}

/// `n` instants from `start_s`, `step_s` apart.
fn grid(start_s: f64, step_s: f64, n: usize) -> Vec<Seconds> {
    (0..n)
        .map(|i| Seconds::new(start_s + i as f64 * step_s))
        .collect()
}

/// The slices under test, each with a label.
fn slices() -> Vec<(String, Vec<Seconds>)> {
    let hour = 3600.0;
    let day = 86_400.0;
    let mut slices = Vec::new();
    // The runner's control windows: ten 60 s steps per batch, two days.
    for w in 0..288 {
        slices.push((format!("window {w}"), grid(w as f64 * 600.0, 60.0, 10)));
    }
    // A whole week of 60 s steps as one slice.
    slices.push(("week".into(), grid(0.0, 60.0, 7 * 1440)));
    // Finer and uneven steps across the cloud, occupancy, RF and jitter
    // buckets, the 2 h wind and 6 h weather edges, and midnight.
    slices.push((
        "1 s across 06:00".into(),
        grid(6.0 * hour - 1500.0, 1.0, 3000),
    ));
    slices.push(("10 s across midnight".into(), grid(day - hour, 10.0, 720)));
    slices.push(("7.3 s across 12:00".into(), grid(11.0 * hour, 7.3, 1000)));
    // Unsorted and repeated instants: back one bucket, far back, ahead,
    // the same instant twice, and a day edge from both sides.
    let unsorted = [
        5.0 * hour,
        3.0 * hour,
        3.0 * hour,
        3.0 * hour - 60.0,
        10.0 * hour,
        0.0,
        0.0,
        5.0 * hour,
        3.0 * day,
        3.0 * day - 0.5,
        3.0 * day + 0.5,
        day,
    ];
    slices.push(("unsorted".into(), unsorted.map(Seconds::new).to_vec()));
    slices.push(("one".into(), vec![Seconds::new(12.0 * hour + 17.0)]));
    slices.push(("none".into(), Vec::new()));
    // Far from the epoch.
    for start in [1e6, 1e7, 1e8, 1e9] {
        slices.push((format!("from {start:e} s"), grid(start, 60.0, 360)));
    }
    slices
}

/// Asserts `conditions_into` equals `conditions` on every slice.
fn assert_batches_match(label: &str, env: &dyn EnvSampler) {
    // Stale rows must be cleared, not appended to.
    let mut out = vec![EnvConditions::default(); 3];
    for (slice, times) in slices() {
        env.conditions_into(&times, &mut out);
        assert_eq!(out.len(), times.len(), "{label}, {slice}");
        for (row, &t) in out.iter().zip(&times) {
            assert_eq!(
                bits(row),
                bits(&env.conditions(t)),
                "{label}, {slice}: t = {} s",
                t.value()
            );
        }
    }
}

#[test]
fn presets_batch_like_single_instants() {
    type Preset = fn(u64) -> Environment;
    let presets: [(&str, Preset); 5] = [
        ("outdoor temperate", Environment::outdoor_temperate),
        ("outdoor winter", Environment::outdoor_winter),
        ("indoor industrial", Environment::indoor_industrial),
        ("indoor office", Environment::indoor_office),
        ("agricultural", Environment::agricultural),
    ];
    for (name, preset) in presets {
        for seed in [7, 42, 1013] {
            assert_batches_match(&format!("{name} seed {seed}"), &preset(seed));
        }
    }
}

#[test]
fn builder_environments_batch_like_single_instants() {
    let seasonal = SeasonalSolarModel::at_latitude(50.0, 355);
    let cases = [
        (
            "seasonal solar",
            Environment::builder(5).seasonal_solar(seasonal).build(),
        ),
        (
            // Both channels draw the cloud stream, at 30 and 20 min buckets.
            "seasonal over plain solar",
            Environment::builder(5)
                .solar(SolarModel::winter())
                .seasonal_solar(seasonal)
                .build(),
        ),
        (
            "ambient-only RF",
            Environment::builder(6).rf(RfModel::ambient_only()).build(),
        ),
        (
            "stream water",
            Environment::builder(8)
                .water(WaterFlowModel::stream())
                .build(),
        ),
        (
            "every channel",
            Environment::builder(9)
                .ambient(AmbientModel::indoor())
                .solar(SolarModel::temperate())
                .seasonal_solar(SeasonalSolarModel::at_latitude(-33.9, 172))
                .wind(WindModel::sheltered())
                .indoor_light(IndoorLightModel::office())
                .gradient(GradientSource::steam_pipe())
                .vibration(VibrationModel::hvac_duct())
                .rf(RfModel::dedicated_transmitter())
                .water(WaterFlowModel::irrigation())
                .build(),
        ),
    ];
    for (name, env) in cases {
        assert_batches_match(name, &env);
    }
}

#[test]
fn replayed_and_jittered_samplers_batch_like_single_instants() {
    // An overcast log over three days, and a warm ambient log.
    let mut irradiance = Trace::new("site irradiance");
    let mut ambient = Trace::new("site ambient");
    for hour in 0..=72 {
        let h = f64::from(hour);
        let t = Seconds::from_hours(h);
        let overcast = if (10..14).contains(&(hour % 24)) {
            60.0
        } else {
            0.0
        };
        irradiance.push(t, overcast);
        ambient.push(t, 24.0 + (h / 24.0).sin());
    }
    let replay = ReplayEnvironment::new(Environment::outdoor_temperate(3))
        .with_irradiance(irradiance)
        .with_ambient(ambient);
    assert_batches_match("replay", &replay);
    let factors = JitterFactors::derive(EnvJitter::relative(0.1).with_temperature(1.5), 77);
    assert_batches_match("jittered replay", &JitteredEnv::new(&replay, factors));
}
