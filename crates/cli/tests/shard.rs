//! Integration tests for fault-tolerant sharded sweeps (DESIGN.md §19):
//! byte-identical merged reports across shard counts, crash recovery
//! after a SIGKILLed worker, poison-unit quarantine (exit 75), and the
//! standalone verified merge.

mod common;

use common::Scratch;
use pi3d_telemetry::Json;
use std::fs;
use std::path::Path;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn pi3d(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pi3d"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Small deterministic fault sweep shared by the tests; `trials` units
/// per severity level, memory-simulator stage disabled (`--reads 0`).
fn fault_args(levels: &str, trials: &str, grid: &str) -> Vec<String> {
    [
        "faults",
        "--seed",
        "7",
        "--tsv-open",
        "0.05",
        "--bump-open",
        "0.02",
        "--levels",
        levels,
        "--trials",
        trials,
        "--reads",
        "0",
        "--grid",
        grid,
        "--threads",
        "2",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect()
}

fn run(args: &[String], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pi3d"));
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("binary runs")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn sharded_report_is_byte_identical_across_shard_counts() {
    let dir = Scratch::new("sharded_report_is_byte_identical_across_shard_counts");
    let args = fault_args("0.5", "6", "8");
    let single = run(&args, &[]);
    assert!(
        single.status.success(),
        "single-process run failed: {}",
        String::from_utf8_lossy(&single.stderr)
    );
    let expected = stdout_of(&single);
    assert!(expected.contains("fault sweep"), "{expected}");

    for shards in ["1", "2", "4"] {
        let journal = dir.join(format!("s{shards}.journal"));
        let mut sharded = args.clone();
        for extra in ["--shards", shards, "--journal", journal.to_str().unwrap()] {
            sharded.push(extra.to_owned());
        }
        let out = run(&sharded, &[]);
        assert!(
            out.status.success(),
            "--shards {shards} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            stdout_of(&out),
            expected,
            "--shards {shards} stdout diverged from the single-process run"
        );
        // The merged journal exists and the shard journals stay behind
        // for post-mortems.
        assert!(journal.exists());
        assert!(dir.join(format!("s{shards}.journal.shard0")).exists());
    }
}

/// Polls for the first worker lease under `dir` and returns its pid.
fn wait_for_lease_pid(dir: &Path, deadline: Duration) -> u32 {
    let start = Instant::now();
    while start.elapsed() < deadline {
        let entries = match fs::read_dir(dir) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("lease") {
                continue;
            }
            if let Some(pid) = fs::read_to_string(&path)
                .ok()
                .and_then(|text| Json::parse(text.lines().next()?).ok())
                .and_then(|lease| lease.get("pid").and_then(Json::as_num).map(|p| p as u32))
            {
                return pid;
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("no worker lease appeared within {deadline:?}");
}

#[test]
fn sigkilled_worker_is_respawned_and_report_stays_identical() {
    let dir = Scratch::new("sigkilled_worker_is_respawned_and_report_stays_identical");
    // Enough units at a finer grid that the kill lands mid-sweep.
    let args = fault_args("0.5,1.0", "8", "12");
    let expected = {
        let out = run(&args, &[]);
        assert!(out.status.success());
        stdout_of(&out)
    };

    let journal = dir.join("killed.journal");
    let mut sharded = args.clone();
    for extra in ["--shards", "2", "--journal", journal.to_str().unwrap()] {
        sharded.push(extra.to_owned());
    }
    let supervisor = Command::new(env!("CARGO_BIN_EXE_pi3d"))
        .args(&sharded)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("supervisor spawns");

    // The lease appears before the worker computes its first unit, so
    // killing its pid immediately interrupts the slice mid-sweep.
    let pid = wait_for_lease_pid(&dir, Duration::from_secs(20));
    let killed = Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("kill runs");
    assert!(killed.success(), "SIGKILL of worker {pid} failed");

    let out = supervisor.wait_with_output().expect("supervisor finishes");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "supervisor failed: {stderr}");
    assert!(
        stderr.contains("respawn"),
        "expected a respawn notice after SIGKILL, got: {stderr}"
    );
    assert_eq!(
        stdout_of(&out),
        expected,
        "report diverged after a worker was SIGKILLed mid-sweep"
    );
}

#[test]
fn poison_unit_is_quarantined_with_exit_75_and_healthy_units_complete() {
    let dir = Scratch::new("poison_unit_is_quarantined_with_exit_75_and_healthy_units_complete");
    let args = fault_args("0.5", "6", "8");
    let journal = dir.join("poison.journal");
    let mut sharded = args.clone();
    for extra in ["--shards", "2", "--journal", journal.to_str().unwrap()] {
        sharded.push(extra.to_owned());
    }
    // Unit 3 of the fault sweep panics deterministically in whichever
    // worker owns it (the env var is inherited by spawned workers).
    let out = run(&sharded, &[("PI3D_CHAOS_PANIC_UNITS", "fault_sweep:3")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(75),
        "expected quarantine exit code 75, got {:?}; stderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains("quarantined units"),
        "missing quarantine table: {stderr}"
    );
    assert!(stderr.contains("3"), "unit 3 not listed: {stderr}");

    // Every healthy unit completed: the merged journal holds the other
    // five records (header line + 5 unit lines).
    let merged = fs::read_to_string(&journal).expect("merged journal written");
    assert_eq!(merged.lines().count(), 6, "{merged}");
    assert!(
        !merged.lines().skip(1).any(|l| l.contains("\"unit\":3,")),
        "quarantined unit leaked into the merge: {merged}"
    );
}

#[test]
fn merge_journals_reproduces_the_supervisor_merge() {
    let dir = Scratch::new("merge_journals_reproduces_the_supervisor_merge");
    let args = fault_args("0.5", "6", "8");
    let journal = dir.join("base.journal");
    let mut sharded = args.clone();
    for extra in ["--shards", "2", "--journal", journal.to_str().unwrap()] {
        sharded.push(extra.to_owned());
    }
    assert!(run(&sharded, &[]).status.success());

    let merged = dir.join("remerged.journal");
    let out = pi3d(&[
        "merge-journals",
        "--out",
        merged.to_str().unwrap(),
        dir.join("base.journal.shard0").to_str().unwrap(),
        dir.join("base.journal.shard1").to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "merge-journals failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout_of(&out).contains("6 units"), "{}", stdout_of(&out));
    assert_eq!(
        fs::read(&merged).expect("merged"),
        fs::read(&journal).expect("supervisor merge"),
        "standalone merge differs from the supervisor's merge"
    );

    // Verification-first: a duplicated input must be rejected, not merged.
    let dup = pi3d(&[
        "merge-journals",
        "--out",
        dir.join("bad.journal").to_str().unwrap(),
        dir.join("base.journal.shard0").to_str().unwrap(),
        dir.join("base.journal.shard0").to_str().unwrap(),
    ]);
    assert_eq!(dup.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&dup.stderr).contains("shard"),
        "{}",
        String::from_utf8_lossy(&dup.stderr)
    );
}
