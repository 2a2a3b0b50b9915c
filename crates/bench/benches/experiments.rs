//! Std-only benches (`cargo bench -p mseh-bench`): one timed kernel per
//! experiment in the DESIGN.md index, no external harness — the repo
//! must build with no registry access. Each kernel runs a short warm-up
//! plus a fixed sample count and prints min/mean per-iteration time;
//! regressions in the simulator, the platform models or the trackers
//! show up as mean-time jumps.
//!
//! The full paper-shape runs live in
//! `cargo run -p mseh-bench --bin experiments`; thread-scaling numbers
//! come from `cargo run --release -p mseh-bench --bin perf`.

use std::hint::black_box;
use std::time::Instant;

use mseh_bench as bench;
use mseh_core::classify;
use mseh_env::Environment;
use mseh_node::{FixedDuty, SensorNode};
use mseh_sim::{run_simulation, SimConfig};
use mseh_storage::{Storage, Supercap};
use mseh_systems::SystemId;
use mseh_units::fuzz::Rng;
use mseh_units::{BatchSolve, DutyCycle, Seconds};

/// Times `f` over `samples` iterations after `warmup` iterations and
/// prints a one-line summary.
fn time_it<R>(name: &str, warmup: usize, samples: usize, mut f: impl FnMut() -> R) {
    for _ in 0..warmup {
        black_box(f());
    }
    let mut min = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..samples {
        let start = Instant::now();
        black_box(f());
        let dt = start.elapsed().as_secs_f64();
        min = min.min(dt);
        total += dt;
    }
    let mean = total / samples as f64;
    println!(
        "{name:<34} {samples:>3} iters   mean {:>10.3} ms   min {:>10.3} ms",
        mean * 1e3,
        min * 1e3
    );
}

fn main() {
    println!("mseh std-only bench suite (no harness, wall-clock timings)\n");

    time_it("t1_table1_classification", 1, 10, || {
        let (records, rendered) = bench::table1();
        (records.len(), rendered.len())
    });
    time_it("t1_classify_single_platform", 2, 10, || {
        let unit = SystemId::B.build();
        classify(&unit)
    });
    time_it("fig1_system_a_one_day", 1, 10, || {
        bench::fig1_system_a(1, 0.5)
    });
    time_it("fig2_system_b_hot_swap", 1, 10, || {
        bench::fig2_system_b(0.25)
    });
    time_it("e1_multisource_availability_2d", 1, 10, || {
        bench::e1_multisource_availability(2.0, 7)
    });
    time_it("e2_buffer_sizing_3_sizes_2d", 1, 10, || {
        bench::e2_buffer_sizing(2.0, 77, &[5.0, 22.0, 100.0])
    });
    time_it("e3_mppt_overhead_4_levels", 1, 10, || {
        bench::e3_mppt_overhead(&[2.0, 20.0, 200.0, 800.0])
    });
    time_it("e4_quiescent_tradeoff", 1, 10, || {
        bench::e4_quiescent_tradeoff(&[0.0005, 0.005, 0.05, 0.2, 0.5, 1.0])
    });
    time_it("e5_quiescent_by_system", 1, 10, || {
        bench::e5_quiescent_by_system()
    });
    time_it("e6_swap_compatibility", 1, 10, || {
        bench::e6_swap_compatibility()
    });
    time_it("e7_energy_awareness_2d", 1, 10, || {
        bench::e7_energy_awareness(2.0, 31)
    });
    time_it("e8_smart_harvester", 1, 10, bench::e8_smart_harvester);
    time_it("e9_storage_characteristics", 1, 10, || {
        bench::e9_storage_characteristics()
    });
    time_it("e10_forecast_policy_2d", 1, 10, || {
        bench::e10_forecast_policy(2.0, 31)
    });
    time_it("a1_capacitance_model", 1, 10, || {
        bench::a1_capacitance_model()
    });
    time_it("a2_leakage", 1, 10, bench::a2_leakage);
    time_it("a3_converter_efficiency", 1, 10, || {
        bench::a3_converter_efficiency(&[0.05, 0.5, 5.0, 50.0, 300.0])
    });

    // The hot inner loops every experiment leans on.
    {
        let env = Environment::indoor_industrial(42);
        let mut minute = 0u64;
        time_it("kernel_environment_sample_x1000", 2, 10, || {
            let mut last = None;
            for _ in 0..1000 {
                minute += 1;
                last = Some(env.conditions(Seconds::from_minutes(minute as f64)));
            }
            last
        });
    }
    {
        let env = Environment::outdoor_temperate(42);
        let noon = env.conditions(Seconds::from_hours(12.0));
        time_it("kernel_platform_step_x16", 2, 10, || {
            let mut unit = SystemId::A.build();
            for _ in 0..16 {
                black_box(unit.step(
                    &noon,
                    Seconds::new(60.0),
                    mseh_units::Watts::from_milli(1.0),
                ));
            }
            unit
        });
    }
    {
        // The supercap inversion on storage-step inputs: a start in the
        // 22 F EDLC's window, a target a relative step of 1e-7..1e-1
        // away from the start's energy.
        let cap = Supercap::edlc_22f();
        let solver = cap.solver();
        let (lo, hi) = (cap.min_voltage().value(), cap.max_voltage().value());
        let mut rng = Rng::new(0x71);
        let pairs: Vec<(f64, f64)> = (0..4096)
            .map(|_| {
                let start = rng.in_range(lo, hi);
                let step = 10f64.powf(rng.in_range(-7.0, -1.0));
                let sign = if rng.unit() < 0.5 { -1.0 } else { 1.0 };
                (solver.stored_energy(start) * (1.0 + sign * step), start)
            })
            .collect();
        time_it("kernel_supercap_solve_x4096", 2, 10, || {
            pairs
                .iter()
                .map(|&p| solver.solve_one(black_box(p)))
                .sum::<f64>()
        });
        let active = vec![true; pairs.len()];
        let mut out = vec![0.0; pairs.len()];
        time_it("kernel_supercap_lanes_x4096", 2, 10, || {
            solver.solve_lanes(black_box(&pairs), &active, &mut out);
            out[0]
        });
    }
    {
        let env = Environment::outdoor_temperate(42);
        let node = SensorNode::submilliwatt_class();
        time_it("kernel_simulation_6h", 1, 10, || {
            let mut unit = SystemId::C.build();
            let mut policy = FixedDuty::new(DutyCycle::saturating(0.05));
            run_simulation(
                &mut unit,
                &env,
                &node,
                &mut policy,
                SimConfig::over(Seconds::from_hours(6.0)),
            )
        });
    }
}
