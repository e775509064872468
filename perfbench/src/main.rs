//! perfbench: closed-loop end-to-end and per-layer benchmark of pi3d.
//!
//! ```text
//! perfbench run --workload <dse|fine-mg|serve-mixed> --seed <n> --seconds <s>
//!               --trace <0|1> --golden <file> --pi3d <binary> --run-dir <dir>
//!               [--trace-out <file>]
//! perfbench golden --out <file>
//! ```
//!
//! `run` prints one JSON result object as its last stdout line. `golden`
//! rewrites the golden answer file from the current code. `run.py` is the
//! usual entry point: it builds both binaries and isolates each run.

mod daemon;
mod dse;
mod fine_mg;
mod golden;
mod layers;
mod report;
mod seq;
mod serve;
mod stats;
mod trace;

use golden::Golden;
use std::process::ExitCode;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Set-ups before the timed window; the last one's state is timed. The
/// rest run after the window, so the median samples the host across the
/// whole run rather than only its first second.
pub const SETUPS_BEFORE: usize = 3;

/// Fewest ops in each half of a traced run.
pub const MIN_TRACED_OPS: usize = 20;

pub const WORKLOADS: [&str; 3] = ["dse", "fine-mg", "serve-mixed"];

/// Arguments of one `run`.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub golden: Golden,
    pub pi3d: String,
    pub run_dir: String,
}

/// Current value of one of the program's telemetry counters.
pub fn counter(name: &str) -> u64 {
    pi3d_telemetry::metrics::counter(name).get()
}

/// `a / (a + b)`, 0 when both are 0.
pub fn share(a: u64, b: u64) -> f64 {
    if a + b == 0 {
        0.0
    } else {
        a as f64 / (a + b) as f64
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("missing {name}"))
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let workload = required(args, "--workload")?;
            let parse = |name: &str| -> Result<f64, String> {
                required(args, name)?
                    .parse::<f64>()
                    .map_err(|e| format!("{name}: {e}"))
            };
            let a = RunArgs {
                seed: required(args, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?,
                seconds: parse("--seconds")?,
                trace: parse("--trace")? != 0.0,
                golden: Golden::load(required(args, "--golden")?)?,
                pi3d: required(args, "--pi3d")?.to_owned(),
                run_dir: required(args, "--run-dir")?.to_owned(),
            };
            let mut tracer = trace::Tracer::new();
            let report = match workload {
                "dse" => dse::run(&a, &mut tracer)?,
                "fine-mg" => fine_mg::run(&a, &mut tracer)?,
                "serve-mixed" => serve::run(&a, &mut tracer)?,
                other => return Err(format!("unknown workload {other:?} (use {WORKLOADS:?})")),
            };
            if let (true, Some(path)) = (a.trace, flag(args, "--trace-out")) {
                std::fs::write(path, tracer.to_json(workload))
                    .map_err(|e| format!("{path}: {e}"))?;
            }
            println!("{}", report.to_json());
            Ok(())
        }
        Some("golden") => {
            let out = required(args, "--out")?;
            let mut g = Golden::default();
            eprintln!("perfbench: golden answers for dse");
            dse::golden(&mut g)?;
            eprintln!("perfbench: golden answers for fine-mg");
            fine_mg::golden(&mut g)?;
            eprintln!("perfbench: golden answers for serve-mixed");
            serve::golden(&mut g)?;
            std::fs::write(out, g.render()).map_err(|e| format!("{out}: {e}"))?;
            eprintln!("perfbench: wrote {} records to {out}", g.len());
            Ok(())
        }
        _ => {
            Err("usage: perfbench run --workload <name> ... | perfbench golden --out <file>".into())
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
