//! Smoke tests for the `tables` harness binary: each selected experiment
//! must run, print its table, and exit cleanly.

use std::process::Command;

fn tables(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn quick_calibration_and_mounting_print_tables() {
    let (ok, stdout) = tables(&["--quick", "calibration", "mounting"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("[calibration]"), "{stdout}");
    assert!(stdout.contains("max IR (mV)"), "{stdout}");
    assert!(stdout.contains("[mounting]"), "{stdout}");
    assert!(stdout.contains("on-chip (shared PDN)"), "{stdout}");
    assert!(!stdout.contains("FAILED"), "{stdout}");
}

#[test]
fn quick_table7_matches_the_paper_shape() {
    let (ok, stdout) = tables(&["--quick", "table7"]);
    assert!(ok, "{stdout}");
    // All six cases appear.
    for case in 1..=6 {
        assert!(
            stdout
                .lines()
                .any(|l| l.trim_start().starts_with(&case.to_string())),
            "case {case} missing:\n{stdout}"
        );
    }
}

#[test]
fn unknown_experiment_names_run_nothing_and_succeed() {
    let (ok, stdout) = tables(&["--quick", "no-such-experiment"]);
    assert!(ok);
    assert!(!stdout.contains("[calibration]"));
}

/// A flag that takes a value fails when none follows, instead of taking
/// the next flag as its value (a report file named `--quick`).
#[test]
fn flag_without_a_value_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(["--metrics-out", "--quick", "calibration"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--metrics-out needs a value"), "{stderr}");
}
