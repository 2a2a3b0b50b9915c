//! Observability tour: run a Table-I platform with the full observer
//! stack attached — metrics registry, conservation auditor, flight
//! recorder and a JSONL event sink — then dump what each one saw.
//!
//! ```sh
//! cargo run --example observability
//! ```

use mseh::env::Environment;
use mseh::node::{SensorNode, VoltageThreshold};
use mseh::sim::{
    run_simulation_observed, ConservationAuditor, EventSink, MetricsObserver, RingRecorder,
    SimConfig, SinkFormat,
};
use mseh::systems::SystemId;
use mseh::units::Seconds;

fn main() {
    // 1. The Smart Power Unit (System A) over two days outdoors, with a
    //    voltage-aware duty ladder so the policy actually changes.
    let mut unit = SystemId::A.build();
    let env = Environment::outdoor_temperate(7);
    let node = SensorNode::submilliwatt_class();
    let mut policy = VoltageThreshold::supercap_ladder();

    // 2. Where the idle budget goes, before anything runs: the ledger
    //    itemizes Table I's quiescent-current figure per component.
    let ledger = unit.quiescent_ledger();
    println!("=== standing draw ({} total) ===", ledger.total_current());
    for entry in ledger.iter() {
        println!("  {:<22} {}", entry.component, entry.power);
    }

    // 3. Attach the whole observer stack.
    let mut meter = MetricsObserver::new();
    let mut auditor = ConservationAuditor::new();
    let mut ring = RingRecorder::new(8);
    let mut jsonl = Vec::new();
    let mut sink = EventSink::new(&mut jsonl, SinkFormat::Jsonl);
    let result = run_simulation_observed(
        &mut unit,
        &env,
        &node,
        &mut policy,
        SimConfig::over(Seconds::from_days(2.0)),
        &mut [&mut meter, &mut auditor, &mut ring, &mut sink],
    );
    drop(sink);

    // 4. The metrics registry: every energy flow as a counter, folded
    //    from each window's books, current state as gauges,
    //    snapshotable to JSON for dashboards.
    println!("\n=== metrics snapshot ===");
    let m = meter.registry();
    for name in [
        "sim_steps_total",
        "sim_windows_total",
        "sim_harvested_joules_total",
        "sim_charged_joules_total",
        "sim_discharged_joules_total",
        "sim_conversion_loss_joules_total",
        "sim_overhead_joules_total",
        "sim_policy_changes_total",
    ] {
        println!(
            "  {:<34} {:>12.3}",
            name,
            m.counter(name, &[]).unwrap_or(0.0)
        );
    }
    println!(
        "  {:<34} {:>12.3}",
        "sim_stored_joules (gauge)",
        m.gauge("sim_stored_joules", &[]).unwrap_or(0.0)
    );

    // 5. The conservation auditor: the books must balance every control
    //    window, not just on average.
    println!("\n=== conservation audit ===");
    println!("  {}", auditor.report());

    // 6. The flight recorder: the last few events, oldest first.
    println!("\n=== last {} events ===", ring.len());
    for event in ring.events() {
        println!("  {}", event.to_jsonl());
    }
    println!(
        "  ({} events seen in total; {} JSONL lines sunk)",
        ring.total_seen(),
        String::from_utf8_lossy(&jsonl).lines().count()
    );

    // 7. And the run itself, unperturbed by any of the above.
    println!("\n=== run summary ===");
    println!("  harvested        : {}", result.harvested);
    println!("  delivered        : {}", result.delivered);
    println!("  converter losses : {}", result.converter_losses);
    println!("  uptime           : {:.2} %", result.uptime * 100.0);
}
