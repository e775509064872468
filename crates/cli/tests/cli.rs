//! Integration tests driving the compiled `pi3d` binary end to end.

mod common;

use common::Scratch;
use pi3d_telemetry::Json;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn pi3d(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pi3d"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_config(dir: &Path, name: &str, body: &str) -> PathBuf {
    let path = dir.join(name);
    fs::write(&path, body).expect("config written");
    path
}

#[test]
fn analyze_reports_ir_drop() {
    let dir = Scratch::new("analyze_reports_ir_drop");
    let cfg = write_config(&dir, "analyze.cfg", "benchmark = ddr3-off\n");
    let out = pi3d(&["analyze", cfg.to_str().unwrap(), "--grid", "10"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("max IR"), "{stdout}");
    assert!(stdout.contains("DRAM4"), "{stdout}");
}

#[test]
fn analyze_both_nets_reports_total() {
    let dir = Scratch::new("analyze_both_nets_reports_total");
    let cfg = write_config(&dir, "nets.cfg", "benchmark = ddr3-off\n");
    let out = pi3d(&[
        "analyze",
        cfg.to_str().unwrap(),
        "--grid",
        "10",
        "--both-nets",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("VSS bounce"), "{stdout}");
    assert!(stdout.contains("total"), "{stdout}");
}

#[test]
fn export_writes_svg_and_spice() {
    let dir = Scratch::new("export_writes_svg_and_spice");
    let cfg = write_config(
        &dir,
        "export.cfg",
        "benchmark = ddr3-off\nwire_bond = true\n",
    );
    let svg = dir.join("out.svg");
    let sp = dir.join("out.sp");
    let out = pi3d(&[
        "export",
        cfg.to_str().unwrap(),
        "--svg",
        svg.to_str().unwrap(),
        "--spice",
        sp.to_str().unwrap(),
        "--grid",
        "8",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let svg_text = fs::read_to_string(&svg).expect("svg exists");
    assert!(svg_text.starts_with("<svg"));
    let sp_text = fs::read_to_string(&sp).expect("deck exists");
    assert!(sp_text.trim_end().ends_with(".end"));
}

#[test]
fn bad_config_fails_with_line_number() {
    let dir = Scratch::new("bad_config_fails_with_line_number");
    let cfg = write_config(&dir, "bad.cfg", "benchmark = ddr3-off\nm2_usage = lots\n");
    let out = pi3d(&["analyze", cfg.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "{stderr}");
}

#[test]
fn unknown_command_prints_usage() {
    let out = pi3d(&["frobnicate"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = pi3d(&["analyze", "/nonexistent/design.cfg"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

/// A flag that takes a value fails, naming the flag, when none follows —
/// instead of running without it (no report, no journal).
#[test]
fn flag_without_a_value_is_a_usage_error() {
    let dir = Scratch::new("flag_without_a_value_is_a_usage_error");
    let cfg = write_config(&dir, "novalue.cfg", "benchmark = ddr3-off\n");
    let cfg = cfg.to_str().unwrap();
    let cases: [(&[&str], &str); 3] = [
        (
            &["analyze", cfg, "--metrics-out", "--grid", "10"],
            "--metrics-out",
        ),
        (
            &[
                "faults",
                cfg,
                "--trials",
                "1",
                "--reads",
                "0",
                "--grid",
                "8",
                "--journal",
                "--threads",
                "1",
            ],
            "--journal",
        ),
        (
            &["analyze", cfg, "--grid", "10", "--trace-out"],
            "--trace-out",
        ),
    ];
    for (args, flag) in cases {
        let out = pi3d(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} needs a value")),
            "{args:?}: {stderr}"
        );
    }
}

/// A malformed or out-of-range number fails at once, naming its flag.
/// `optimize --alpha 7` used to characterize the whole design space
/// first and then panic; `simulate --reads 0` built the LUT and then
/// panicked generating an empty workload.
#[test]
fn bad_numbers_fail_early_naming_the_flag() {
    let dir = Scratch::new("bad_numbers_fail_early_naming_the_flag");
    let cfg = write_config(&dir, "numbers.cfg", "benchmark = ddr3-off\n");
    let cfg = cfg.to_str().unwrap();
    let optimize = ["optimize", "ddr3-off", "--grid", "4", "--threads", "1"];
    let cases: [(&[&str], &[&str], &str); 9] = [
        (&optimize, &["--alpha", "7"], "--alpha must be in [0, 1]"),
        (&optimize, &["--alpha", "nan"], "--alpha must be in [0, 1]"),
        (
            &optimize,
            &["--alpha", "abc"],
            "--alpha must be a number, got abc",
        ),
        (
            &["optimize", "ddr3-off"],
            &["--threads", "abc"],
            "--threads must be an integer, got abc",
        ),
        (
            &["simulate", cfg],
            &["--constraint", "abc"],
            "--constraint must be a number of mV, got abc",
        ),
        (
            &["simulate", cfg],
            &["--reads", "abc"],
            "--reads must be a positive integer, got abc",
        ),
        (
            &["simulate", cfg],
            &["--reads", "0"],
            "--reads must be a positive integer, got 0",
        ),
        (
            &["transient", cfg],
            &["--steps", "abc"],
            "--steps must be a positive integer, got abc",
        ),
        (
            &["transient", cfg],
            &["--steps", "0"],
            "--steps must be a positive integer, got 0",
        ),
    ];
    for (command, flag, want) in cases {
        let args = [command, flag].concat();
        let out = pi3d(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
        assert!(!stderr.contains("characterizing"), "{args:?}: {stderr}");
    }
}

#[test]
fn help_flag_prints_usage_and_succeeds() {
    let out = pi3d(&["--help"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn lut_roundtrip_feeds_simulate() {
    let dir = Scratch::new("lut_roundtrip_feeds_simulate");
    let cfg = write_config(&dir, "lut.cfg", "benchmark = ddr3-off\n");
    let lut_path = dir.join("baseline.lut");
    let out = pi3d(&[
        "lut",
        cfg.to_str().unwrap(),
        "--out",
        lut_path.to_str().unwrap(),
        "--grid",
        "8",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = fs::read_to_string(&lut_path).expect("LUT written");
    assert!(text.starts_with("pi3d-ir-lut v1 dies=4"));

    // A tiny trace served through the prebuilt LUT.
    let trace = dir.join("trace.txt");
    let mut body = String::new();
    for i in 0..40u64 {
        body += &format!("{} {} {} {}\n", i * 6, i % 4, i % 8, i % 32);
    }
    fs::write(&trace, body).expect("trace written");

    let out = pi3d(&[
        "simulate",
        cfg.to_str().unwrap(),
        "--lut",
        lut_path.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
        "--policy",
        "fcfs",
        "--constraint",
        "40",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("runtime"), "{stdout}");
    assert!(stdout.contains("max IR"), "{stdout}");
}

/// The fault sweep's policy stage sizes its simulator from the design,
/// so a stack with a non-default die count runs its policies against
/// that stack's own LUT.
#[test]
fn faults_policies_run_on_a_two_die_stack() {
    let dir = Scratch::new("faults_policies_run_on_a_two_die_stack");
    let cfg = write_config(&dir, "two-die.cfg", "benchmark = ddr3-off\ndram_dies = 2\n");
    let out = pi3d(&[
        "faults",
        cfg.to_str().unwrap(),
        "--trials",
        "2",
        "--levels",
        "1.0",
        "--grid",
        "8",
        "--reads",
        "200",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for policy in ["standard", "ir_fcfs", "ir_distr"] {
        assert!(
            stdout.lines().any(|l| l.starts_with(policy)),
            "no {policy} row: {stdout}"
        );
    }
}

/// `--trace-out` + `--progress` on a small fault sweep must produce a
/// Chrome trace with the sweep phase, per-unit work slices on worker
/// threads, and a progress heartbeat on stderr — then `pi3d trace` must
/// turn that file into a self/total profile.
#[test]
fn faults_trace_out_progress_and_analyzer() {
    let dir = Scratch::new("faults_trace_out_progress_and_analyzer");
    let cfg = write_config(&dir, "trace.cfg", "benchmark = ddr3-off\n");
    let trace_path = dir.join("faults.trace.json");
    let out = pi3d(&[
        "faults",
        cfg.to_str().unwrap(),
        "--trials",
        "2",
        "--reads",
        "0",
        "--grid",
        "8",
        "--threads",
        "2",
        "--trace-out",
        trace_path.to_str().unwrap(),
        "--progress",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(
        stderr.contains("[fault_sweep]"),
        "no progress line: {stderr}"
    );
    assert!(
        stderr.contains("(100%)"),
        "no final progress line: {stderr}"
    );
    assert!(stderr.contains("wrote trace to"), "{stderr}");

    let text = fs::read_to_string(&trace_path).expect("trace written");
    let doc = Json::parse(&text).expect("trace is valid JSON");
    assert_eq!(
        doc.get("otherData")
            .and_then(|o| o.get("schema"))
            .and_then(Json::as_str),
        Some("pi3d.trace.v1")
    );
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    let complete_names: Vec<(&str, &str, f64)> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|e| {
            (
                e.get("name").and_then(Json::as_str).expect("name"),
                e.get("cat").and_then(Json::as_str).expect("cat"),
                e.get("tid").and_then(Json::as_num).expect("tid"),
            )
        })
        .collect();
    assert!(
        complete_names
            .iter()
            .any(|(n, c, _)| *n == "fault_sweep" && *c == "phase"),
        "no fault_sweep phase slice: {complete_names:?}"
    );
    assert!(
        complete_names
            .iter()
            .any(|(n, c, _)| n.starts_with("fault_sweep[") && *c == "jobs"),
        "no per-unit jobs slices: {complete_names:?}"
    );
    let cmd_tid = complete_names
        .iter()
        .find(|(n, c, _)| *n == "cmd:faults" && *c == "cli")
        .map(|&(_, _, tid)| tid)
        .unwrap_or_else(|| panic!("no CLI command slice: {complete_names:?}"));
    // With two workers the 6 units (2 trials x 3 levels) run on the
    // pool's threads, never on the command's own thread. (That the pool
    // really runs two at once is `pi3d_telemetry::par`'s test.)
    let on_cmd_thread: Vec<&str> = complete_names
        .iter()
        .filter(|&&(n, c, tid)| n.starts_with("fault_sweep[") && c == "jobs" && tid == cmd_tid)
        .map(|&(n, _, _)| n)
        .collect();
    assert!(
        on_cmd_thread.is_empty(),
        "units on the command thread {cmd_tid}: {on_cmd_thread:?}"
    );

    let out = pi3d(&["trace", trace_path.to_str().unwrap(), "--top", "5"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("schema pi3d.trace.v1"), "{stdout}");
    assert!(stdout.contains("hottest spans by self time"), "{stdout}");
    assert!(stdout.contains("per-thread utilization"), "{stdout}");
    assert!(stdout.contains("fault_sweep"), "{stdout}");
}

/// `--progress json` emits machine-readable JSON-lines heartbeats.
#[test]
fn progress_json_lines_parse() {
    let dir = Scratch::new("progress_json_lines_parse");
    let cfg = write_config(&dir, "progress.cfg", "benchmark = ddr3-off\n");
    let out = pi3d(&[
        "faults",
        cfg.to_str().unwrap(),
        "--trials",
        "2",
        "--reads",
        "0",
        "--grid",
        "8",
        "--progress",
        "json",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let final_line = stderr
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .unwrap_or_else(|| panic!("no JSON progress lines: {stderr}"));
    let j = Json::parse(final_line).expect("progress line parses");
    assert_eq!(
        j.get("progress").and_then(Json::as_str),
        Some("fault_sweep")
    );
    assert_eq!(
        j.get("final").and_then(|b| match b {
            Json::Bool(v) => Some(*v),
            _ => None,
        }),
        Some(true)
    );
    assert_eq!(
        j.get("done").and_then(Json::as_num),
        j.get("total").and_then(Json::as_num)
    );
}

/// The run report carries quantiles for per-unit latency histograms even
/// without `--progress`, plus peak-RSS gauges from /proc.
#[test]
fn run_report_has_quantiles_and_peak_rss() {
    let dir = Scratch::new("run_report_has_quantiles_and_peak_rss");
    let cfg = write_config(&dir, "quant.cfg", "benchmark = ddr3-off\n");
    let report_path = dir.join("quant.report.json");
    let out = pi3d(&[
        "faults",
        cfg.to_str().unwrap(),
        "--trials",
        "2",
        "--reads",
        "0",
        "--grid",
        "8",
        "--metrics-out",
        report_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = Json::parse(&fs::read_to_string(&report_path).expect("report written"))
        .expect("report parses");
    let unit_hist = report
        .get("histograms")
        .and_then(|h| h.get("jobs.fault_sweep.unit_ms"))
        .expect("per-unit latency histogram");
    for q in ["p50", "p95", "p99"] {
        assert!(
            unit_hist.get(q).and_then(Json::as_num).is_some(),
            "missing {q}: {unit_hist:?}"
        );
    }
    if cfg!(target_os = "linux") {
        let peak = report
            .get("gauges")
            .and_then(|g| g.get("mem.peak_rss_mb"))
            .and_then(Json::as_num)
            .expect("peak RSS gauge");
        assert!(peak > 0.0, "implausible peak RSS: {peak}");
    }
}

/// Spawns a serve daemon on a unix socket in `dir` and waits until it
/// accepts connections. Returns the child and the `unix:PATH` address.
fn spawn_daemon(dir: &Path, extra: &[&str]) -> (std::process::Child, String, PathBuf) {
    let sock = dir.join("serve.sock");
    let listen = format!("unix:{}", sock.display());
    let daemon = Command::new(env!("CARGO_BIN_EXE_pi3d"))
        .args([
            "serve",
            "--listen",
            &listen,
            "--grid",
            "8",
            "--workers",
            "2",
        ])
        .args(extra)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("daemon spawns");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while !sock.exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "daemon never bound {listen}"
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    (daemon, listen, sock)
}

/// Polls a child's exit for up to a minute.
fn wait_exit(child: &mut std::process::Child) -> std::process::ExitStatus {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        if let Some(status) = child.try_wait().expect("child pollable") {
            return status;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "daemon did not exit after shutdown"
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
}

#[test]
fn serve_round_trips_and_shuts_down_cleanly() {
    let dir = Scratch::new("serve_round_trips_and_shuts_down_cleanly");
    let (mut daemon, listen, sock) = spawn_daemon(&dir, &[]);

    let ping = pi3d(&["call", &listen, r#"{"cmd":"ping","id":7}"#]);
    assert!(
        ping.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&ping.stderr)
    );
    let ping_line = String::from_utf8_lossy(&ping.stdout);
    assert!(ping_line.contains(r#""pong":true"#), "{ping_line}");
    assert!(ping_line.contains(r#""id":7"#), "{ping_line}");

    // Same solve twice, over separate connections: byte-identical lines
    // (first one cold, second from the warm cache).
    let solve = r#"{"cmd":"solve","config":"benchmark = ddr3-off\n","state":"0-0-0-2"}"#;
    let first = pi3d(&["call", &listen, solve]);
    assert!(
        first.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    let second = pi3d(&["call", &listen, solve]);
    assert_eq!(
        String::from_utf8_lossy(&first.stdout),
        String::from_utf8_lossy(&second.stdout),
        "warm response differs from cold"
    );
    assert!(String::from_utf8_lossy(&first.stdout).contains("max_dram_mv"));

    // A malformed request comes back as an error outcome, and the client
    // reflects it in its exit code.
    let bad = pi3d(&["call", &listen, r#"{"cmd":"nonsense"}"#]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stdout).contains(r#""status":"error""#));

    // Stats confirm the warm hit, then shutdown drains and exits 0.
    let stats = pi3d(&["call", &listen, r#"{"cmd":"stats"}"#]);
    let stats_line = String::from_utf8_lossy(&stats.stdout);
    let doc = Json::parse(stats_line.trim()).expect("stats response parses");
    let cache = doc
        .get("result")
        .and_then(|r| r.get("cache"))
        .expect("cache stats present");
    let hits: u64 = cache
        .get("hits")
        .and_then(Json::as_str)
        .and_then(|s| s.parse().ok())
        .expect("hits counter");
    assert!(hits >= 1, "expected a warm hit, got {cache:?}");

    let shutdown = pi3d(&["call", &listen, r#"{"cmd":"shutdown"}"#]);
    assert!(
        shutdown.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&shutdown.stderr)
    );
    let status = wait_exit(&mut daemon);
    assert_eq!(status.code(), Some(0), "clean shutdown exits 0");
    assert!(!sock.exists(), "socket file removed on exit");
}
