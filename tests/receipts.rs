//! Pinned receipts: bit-identity to the last blessed tree as a test.
//!
//! Every case below runs a fixed scenario and prints one line: the
//! case name, its digest in hex and, where it helps a reader of a
//! diff, a few plain fields. `tests/receipts.txt` holds the blessed
//! lines. A change that moves any bit of a single run, a campaign, a
//! fleet, an arena, a metrics snapshot, an audit report, an event
//! stream, the smart harvester, a trace replay or a site survey changes
//! a line here, and the test prints only the lines that changed.
//!
//! The digests depend on the target's `libm`, so the file records the
//! architecture and OS it was blessed on; on any other target the test
//! says so and compares nothing.
//!
//! To re-bless after a deliberate change:
//!
//! ```text
//! MSEH_BLESS_RECEIPTS=1 cargo test -q --test receipts
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mseh::core::{PortRequirement, PowerUnit, StoreRole, Supervisor};
use mseh::daemon::{
    build_arena_spec, build_fleet_spec, digest_arena, digest_campaign, digest_fleet, digest_single,
    fleet_config, make_env, make_policy,
};
use mseh::env::{Environment, ReplayEnvironment, Trace};
use mseh::harvesters::{PvModule, Teg, Transducer};
use mseh::node::SensorNode;
use mseh::power::{DcDcConverter, IdealDiode, InputChannel, PerturbObserve};
use mseh::sim::serve::protocol::Digest;
use mseh::sim::{
    run_arena, run_fleet, run_resilience_campaign, run_simulation, run_simulation_observed,
    ArenaConfig, CampaignConfig, ConservationAuditor, EventSink, MetricsObserver, SimConfig,
    SinkFormat,
};
use mseh::storage::Supercap;
use mseh::systems::resilience::{
    natural_environment, natural_node, natural_policy, resilience_scenario,
};
use mseh::systems::{site_survey, SystemId};
use mseh::units::{Seconds, Volts};

const RECEIPTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/receipts.txt");
const BLESS_VAR: &str = "MSEH_BLESS_RECEIPTS";
const ENVS: [&str; 5] = ["outdoor", "winter", "indoor", "office", "agricultural"];

fn target() -> String {
    format!("target {} {}", std::env::consts::ARCH, std::env::consts::OS)
}

/// `digest_single` plus the kernel-cache counters of every system in
/// every environment preset, two seeds, two days.
fn single_runs(out: &mut Vec<(String, String)>) {
    let config = SimConfig::over(Seconds::from_days(2.0));
    for id in SystemId::ALL {
        for env_kind in ENVS {
            for seed in [7, 1013] {
                let mut unit = id.build();
                let env = make_env(env_kind, seed).expect("preset");
                let mut policy = natural_policy(id);
                let result =
                    run_simulation(&mut unit, &env, &natural_node(id), policy.as_mut(), config);
                let cache = unit.kernel_cache_stats();
                out.push((
                    format!("single/{id:?}/{env_kind}/{seed}"),
                    format!(
                        "{:016x} cache={}/{}/{}",
                        digest_single(&result),
                        cache.hits,
                        cache.misses,
                        cache.invalidations
                    ),
                ));
            }
        }
    }
}

/// One observed run per system: the run digest, the metrics snapshot,
/// the JSONL event stream and the audit report, every bit.
fn observed_runs(out: &mut Vec<(String, String)>) {
    let config = SimConfig::over(Seconds::from_days(2.0));
    for id in SystemId::ALL {
        let mut unit = id.build();
        let env = natural_environment(id, 7);
        let mut policy = natural_policy(id);
        let mut meter = MetricsObserver::new();
        let mut auditor = ConservationAuditor::new();
        let mut jsonl = Vec::new();
        let mut sink = EventSink::new(&mut jsonl, SinkFormat::Jsonl);
        let result = run_simulation_observed(
            &mut unit,
            &env,
            &natural_node(id),
            policy.as_mut(),
            config,
            &mut [&mut meter, &mut auditor, &mut sink],
        );
        assert!(sink.error().is_none());
        drop(sink);
        let registry = meter.registry();
        let snapshot = Digest::new().str(&registry.snapshot_json()).finish();
        let events = Digest::new()
            .str(std::str::from_utf8(&jsonl).expect("JSONL is UTF-8"))
            .finish();
        let audit = auditor.report();
        out.push((
            format!("observed/{id:?}"),
            format!(
                "{:016x} metrics={snapshot:016x} jsonl={events:016x} \
                 audit={}/{:016x}/{:016x}/{:016x} brownouts={}",
                digest_single(&result),
                audit.windows,
                audit.worst_residual.value().to_bits(),
                audit.worst_relative.to_bits(),
                audit.worst_at.value().to_bits(),
                registry
                    .counter("sim_brownout_steps_total", &[])
                    .expect("interned series"),
            ),
        ));
    }
}

/// `digest_campaign` of each system's resilience preset over seeds 1
/// and 7, with the fired/cleared fault totals and the mean time to
/// detect in seconds.
fn campaigns(out: &mut Vec<(String, String)>) {
    let horizon = Seconds::from_days(2.0);
    for id in SystemId::ALL {
        let summary = run_resilience_campaign(
            &[1, 7],
            |seed| resilience_scenario(id, seed, horizon),
            &natural_node(id),
            CampaignConfig::over(horizon).with_threads(1),
        );
        let detect = summary
            .mean_time_to_detect
            .map_or("none".into(), |t| format!("{:.1}", t.value()));
        out.push((
            format!("campaign/{id:?}"),
            format!(
                "{:016x} faults={}/{} detect_s={detect}",
                digest_campaign(&summary),
                summary.total_faults,
                summary.total_clears,
            ),
        ));
    }
}

/// The daemon's own fleet and arena specs, small.
fn fleet_and_arena(out: &mut Vec<(String, String)>) {
    let fleet = run_fleet(
        &build_fleet_spec(SystemId::C, "outdoor", 7, 64, "ladder", 0.1),
        fleet_config(1.0, 16),
    );
    out.push((
        "fleet/C".into(),
        format!("{:016x}", digest_fleet(&fleet.summary)),
    ));
    let arena = run_arena(
        &build_arena_spec(SystemId::B, "outdoor", 7, 2, "default").expect("valid spec"),
        ArenaConfig::over(Seconds::from_days(1.0)),
    );
    out.push((
        "arena/B".into(),
        format!("{:016x}", digest_arena(&arena.summary)),
    ));
}

/// A smart-harvester module's channel: PV or TEG behind a
/// perturb-and-observe tracker, as in `tests/smart_network.rs`.
fn smart_channel(transducer: Box<dyn Transducer>) -> InputChannel {
    InputChannel::new(
        transducer,
        Box::new(PerturbObserve::new()),
        Box::new(IdealDiode::nanopower()),
        Box::new(DcDcConverter::mppt_front_end_5v()),
    )
}

/// The smart harvester of `tests/smart_network.rs` (PV and TEG modules,
/// a 22 F EDLC at 2.0 V) over two outdoor days, with its kernel-cache
/// counters and status-event count.
fn smart_network(out: &mut Vec<(String, String)>) {
    let mut cap = Supercap::edlc_22f();
    cap.set_voltage(Volts::new(2.0));
    let mut unit = PowerUnit::builder("smart harvester")
        .harvester_port(
            PortRequirement::any_in_window("PV", Volts::ZERO, Volts::new(8.0)),
            Some(smart_channel(Box::new(PvModule::outdoor_panel_half_watt()))),
            true,
        )
        .harvester_port(
            PortRequirement::any_in_window("TEG", Volts::ZERO, Volts::new(2.0)),
            Some(smart_channel(Box::new(Teg::module_40mm()))),
            true,
        )
        .store_port(
            PortRequirement::any_in_window("SC", Volts::ZERO, Volts::new(3.0)),
            Some(Box::new(cap)),
            StoreRole::PrimaryBuffer,
            true,
        )
        .output_stage(Box::new(DcDcConverter::buck_boost_3v3()))
        .supervisor(Supervisor::devolved())
        .build();
    let mut policy = make_policy("ladder").expect("policy");
    let result = run_simulation(
        &mut unit,
        &Environment::outdoor_temperate(7),
        &SensorNode::submilliwatt_class(),
        policy.as_mut(),
        SimConfig::over(Seconds::from_days(2.0)),
    );
    let cache = unit.kernel_cache_stats();
    out.push((
        "smart/outdoor/7".into(),
        format!(
            "{:016x} cache={}/{}/{} events={}",
            digest_single(&result),
            cache.hits,
            cache.misses,
            cache.invalidations,
            unit.status_events()
        ),
    ));
}

/// System D over two days of `agricultural(7)` with its irradiance
/// replaced by a trace built here: an hourly clear-sky arch whose peak
/// steps through five levels from day to day and hour to hour.
fn replay_run(out: &mut Vec<(String, String)>) {
    let mut log = Trace::new("irradiance");
    for hour in 0..=48u32 {
        let arch = (std::f64::consts::PI * (f64::from(hour % 24) - 6.0) / 12.0).sin();
        let level = 0.6 + 0.1 * f64::from(hour * 7 % 5);
        log.push(
            Seconds::from_hours(f64::from(hour)),
            900.0 * level * arch.max(0.0),
        );
    }
    let env = ReplayEnvironment::new(Environment::agricultural(7)).with_irradiance(log);
    let id = SystemId::D;
    let mut unit = id.build();
    let mut policy = natural_policy(id);
    let result = run_simulation(
        &mut unit,
        &env,
        &natural_node(id),
        policy.as_mut(),
        SimConfig::over(Seconds::from_days(2.0)),
    );
    let cache = unit.kernel_cache_stats();
    out.push((
        "replay/D/agricultural/7".into(),
        format!(
            "{:016x} cache={}/{}/{}",
            digest_single(&result),
            cache.hits,
            cache.misses,
            cache.invalidations
        ),
    ));
}

/// `site_survey` of each preset over one day at the CLI's 10-minute
/// step: every row's class, energy and availability, in rank order.
fn surveys(out: &mut Vec<(String, String)>) {
    for env_kind in ENVS {
        let env = make_env(env_kind, 7).expect("preset");
        let report = site_survey(&env, Seconds::from_days(1.0), Seconds::from_minutes(10.0));
        let mut digest = Digest::new();
        for row in &report.rows {
            digest = digest
                .str(&format!("{:?}", row.kind))
                .f64(row.energy.value())
                .f64(row.availability);
        }
        out.push((
            format!("survey/{env_kind}/7"),
            format!("{:016x} best={:?}", digest.finish(), report.best()),
        ));
    }
}

fn compute() -> Vec<(String, String)> {
    let mut out = Vec::new();
    single_runs(&mut out);
    observed_runs(&mut out);
    campaigns(&mut out);
    fleet_and_arena(&mut out);
    smart_network(&mut out);
    replay_run(&mut out);
    surveys(&mut out);
    out
}

fn render(cases: &[(String, String)]) -> String {
    let mut text = String::from(
        "# Pinned receipts: one case per line, `name digest [fields]`.\n\
         # Recomputed by tests/receipts.rs; rewrite with MSEH_BLESS_RECEIPTS=1.\n",
    );
    writeln!(text, "{}", target()).unwrap();
    for (name, value) in cases {
        writeln!(text, "{name} {value}").unwrap();
    }
    text
}

#[test]
fn receipts_match_the_blessed_file() {
    let cases = compute();
    if std::env::var(BLESS_VAR).is_ok_and(|v| v == "1") {
        std::fs::write(RECEIPTS, render(&cases)).expect("write receipts");
        eprintln!("blessed {} receipts into {RECEIPTS}", cases.len());
        return;
    }
    let blessed = std::fs::read_to_string(RECEIPTS).expect("read tests/receipts.txt");
    let mut lines = blessed.lines().filter(|l| !l.starts_with('#'));
    let blessed_target = lines.next().unwrap_or_default();
    if blessed_target != target() {
        eprintln!(
            "receipts were blessed on `{blessed_target}`, this is `{}`: comparing nothing",
            target()
        );
        return;
    }
    let mut expected: BTreeMap<&str, &str> = lines.filter_map(|l| l.split_once(' ')).collect();
    let mut diff = String::new();
    for (name, value) in &cases {
        match expected.remove(name.as_str()) {
            Some(old) if old == value => {}
            Some(old) => writeln!(diff, "- {name} {old}\n+ {name} {value}").unwrap(),
            None => writeln!(diff, "+ {name} {value}").unwrap(),
        }
    }
    for (name, old) in expected {
        writeln!(diff, "- {name} {old}").unwrap();
    }
    assert!(
        diff.is_empty(),
        "receipts differ from tests/receipts.txt (bless a deliberate change with \
         {BLESS_VAR}=1):\n{diff}"
    );
}
