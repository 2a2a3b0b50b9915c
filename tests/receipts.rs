//! Pinned receipts: bit-identity to the last blessed tree as a test.
//!
//! Every case below runs a fixed scenario and prints one line: the
//! case name, its digest in hex and, where it helps a reader of a
//! diff, a few plain fields. `tests/receipts.txt` holds the blessed
//! lines. A change that moves any bit of a single run, a campaign, a
//! fleet, an arena, a metrics snapshot, an audit report or an event
//! stream changes a line here, and the test prints only the lines that
//! changed.
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

use mseh::daemon::{
    build_arena_spec, build_fleet_spec, digest_arena, digest_campaign, digest_fleet, digest_single,
    fleet_config, make_env,
};
use mseh::sim::serve::protocol::Digest;
use mseh::sim::{
    run_arena, run_fleet, run_resilience_campaign_with_threads, run_simulation,
    run_simulation_observed, ArenaConfig, CampaignConfig, ConservationAuditor, EventSink,
    MetricsObserver, SimConfig, SinkFormat,
};
use mseh::systems::resilience::{
    natural_environment, natural_node, natural_policy, resilience_scenario,
};
use mseh::systems::SystemId;
use mseh::units::Seconds;

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
/// and 7, plus the per-scenario detection and recovery times and audit
/// reports the campaign digest leaves out.
fn campaigns(out: &mut Vec<(String, String)>) {
    let horizon = Seconds::from_days(2.0);
    for id in SystemId::ALL {
        let summary = run_resilience_campaign_with_threads(
            1,
            &[1, 7],
            |seed| resilience_scenario(id, seed, horizon),
            &natural_node(id),
            CampaignConfig::over(horizon),
        );
        let never = f64::NAN.to_bits();
        let mut edges = Digest::new();
        for o in &summary.outcomes {
            edges = edges
                .u64(o.time_to_detect.map_or(never, |t| t.value().to_bits()))
                .u64(o.time_to_recover.map_or(never, |t| t.value().to_bits()))
                .u64(o.audit.windows)
                .f64(o.audit.worst_residual.value())
                .f64(o.audit.worst_relative)
                .f64(o.audit.worst_at.value());
        }
        out.push((
            format!("campaign/{id:?}"),
            format!(
                "{:016x} edges={:016x}",
                digest_campaign(&summary),
                edges.finish()
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

fn compute() -> Vec<(String, String)> {
    let mut out = Vec::new();
    single_runs(&mut out);
    observed_runs(&mut out);
    campaigns(&mut out);
    fleet_and_arena(&mut out);
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
