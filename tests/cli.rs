//! The `mseh` binary end to end: the CSV that `simulate --record` writes.

use std::process::Command;

/// Runs the release or debug `mseh` this test was built with and returns
/// its stdout, failing the test on a non-zero exit.
fn mseh(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_mseh"))
        .args(args)
        .output()
        .expect("run mseh");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "mseh {args:?} failed: {stderr}");
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

/// `--record` writes a header and one row per 60 s step, every value
/// finite, and adds nothing to stdout but the line naming the file.
#[test]
fn record_writes_one_finite_row_per_step() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("mseh-record.csv");
    let path = path.to_str().expect("UTF-8 path");
    // A file left by an earlier run must not pass for this run's.
    let _ = std::fs::remove_file(path);
    let run = [
        "simulate", "--system", "B", "--env", "indoor", "--days", "0.1", "--seed", "9",
    ];
    let recorded = mseh(&[&run[..], &["--record", path]].concat());
    let written = format!("traces written to {path}\n");
    assert_eq!(recorded.strip_suffix(&written), Some(mseh(&run).as_str()));

    let csv = std::fs::read_to_string(path).expect("the recorded CSV");
    let mut lines = csv.lines();
    assert_eq!(
        lines.next(),
        Some("time_s,store_voltage_v,harvest_power_w,duty")
    );
    let rows: Vec<Vec<f64>> = lines
        .map(|line| line.split(',').map(|v| v.parse().expect(v)).collect())
        .collect();
    // 0.1 days at 60 s steps.
    assert_eq!(rows.len(), 144);
    for (step, row) in rows.iter().enumerate() {
        assert_eq!(row.len(), 4, "row {step}: {row:?}");
        assert!(row.iter().all(|v| v.is_finite()), "row {step}: {row:?}");
        assert_eq!(row[0], 60.0 * step as f64, "row {step}: {row:?}");
    }
}
