//! Regenerates every table and figure of the paper from the `pi3d`
//! platform and prints them in the paper's shape.
//!
//! Usage:
//!
//! ```text
//! tables [--quick] [--threads N] [--log-level LEVEL] [--metrics-out FILE] [NAME ...]
//! ```
//!
//! With no names, all experiments run (Table 9 co-optimization last — it
//! is by far the most expensive). `--quick` switches to the coarse mesh
//! and reduced workloads. `--threads` sets the solver/characterization
//! worker count (default: available parallelism); results are
//! bit-identical for every value. Valid names: `calibration fig4 metal
//! mounting fig5 table2 table3 table4 table5 table6 table7 fig9 table9`,
//! plus the extension studies `convergence ablation ac`.

#![warn(clippy::unwrap_used)]

use pi3d_core::experiments;
use pi3d_layout::units::MilliVolts;
use pi3d_memsim::WorkloadSpec;
use pi3d_mesh::MeshOptions;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    // A flag given without a value (last, or followed by another flag)
    // is a usage error: taking the next flag as its value would write
    // `--metrics-out --quick` to a file named `--quick`.
    let flag_value = |name: &str| {
        let i = args.iter().position(|a| a == name)?;
        match args.get(i + 1) {
            Some(value) if !value.starts_with("--") => Some(value.clone()),
            _ => {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            }
        }
    };
    if let Some(level) = flag_value("--log-level") {
        match level.parse() {
            Ok(l) => pi3d_telemetry::log::set_level(l),
            Err(e) => {
                eprintln!("bad --log-level: {e}");
                std::process::exit(2);
            }
        }
    }
    pi3d_telemetry::report::reset_run();
    let metrics_out = flag_value("--metrics-out");
    let threads = match flag_value("--threads") {
        Some(t) => match t.parse::<usize>() {
            Ok(n) if (1..=256).contains(&n) => n,
            _ => {
                eprintln!("bad --threads: expected an integer in 1..=256, got {t}");
                std::process::exit(2);
            }
        },
        None => default_threads(),
    };
    let mut skip_next = false;
    let names: Vec<&str> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--log-level" || *a == "--metrics-out" || *a == "--threads" {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .map(String::as_str)
        .collect();
    let all = names.is_empty();
    let options = {
        let mut o = if quick {
            MeshOptions::coarse()
        } else {
            MeshOptions::default()
        };
        o.threads = threads;
        o
    };

    let wants = |n: &str| all || names.contains(&n);
    let mut failures = 0usize;

    let mut section = |name: &str, run: &mut dyn FnMut() -> Result<String, String>| {
        if !wants(name) {
            return;
        }
        println!("================================================================");
        println!("[{name}]");
        let t0 = Instant::now();
        let ok = match run() {
            Ok(text) => {
                println!("{text}");
                println!("({name} finished in {:.1?})\n", t0.elapsed());
                true
            }
            Err(e) => {
                println!("{name} FAILED: {e}\n");
                failures += 1;
                false
            }
        };
        pi3d_telemetry::report::record_experiment(name, t0.elapsed().as_secs_f64(), ok);
    };

    section("calibration", &mut || {
        experiments::calibration::run(&options)
            .map(|r| r.to_string())
            .map_err(|e| e.to_string())
    });
    section("fig4", &mut || {
        experiments::fig4::run(&options)
            .map(|r| r.to_string())
            .map_err(|e| e.to_string())
    });
    section("metal", &mut || {
        experiments::metal_usage::run(&options)
            .map(|r| r.to_string())
            .map_err(|e| e.to_string())
    });
    section("mounting", &mut || {
        experiments::mounting::run(&options)
            .map(|r| r.to_string())
            .map_err(|e| e.to_string())
    });
    section("fig5", &mut || {
        experiments::fig5::run(&options)
            .map(|r| r.to_string())
            .map_err(|e| e.to_string())
    });
    section("table2", &mut || {
        experiments::table2::run(&options)
            .map(|r| r.to_string())
            .map_err(|e| e.to_string())
    });
    section("table3", &mut || {
        experiments::table3::run(&options)
            .map(|r| r.to_string())
            .map_err(|e| e.to_string())
    });
    section("table4", &mut || {
        experiments::table4::run(&options)
            .map(|r| r.to_string())
            .map_err(|e| e.to_string())
    });
    section("table5", &mut || {
        experiments::table5::run(&options)
            .map(|r| r.to_string())
            .map_err(|e| e.to_string())
    });
    section("table6", &mut || {
        let workload = if quick {
            let mut w = WorkloadSpec::paper_ddr3();
            w.count = 3_000;
            w
        } else {
            WorkloadSpec::paper_ddr3()
        };
        experiments::table6::run_with(&options, workload, MilliVolts(24.0))
            .map(|r| r.to_string())
            .map_err(|e| e.to_string())
    });
    section("table7", &mut || {
        experiments::table7::run(&options)
            .map(|r| r.to_string())
            .map_err(|e| e.to_string())
    });
    section("fig9", &mut || {
        let workload = if quick {
            let mut w = WorkloadSpec::paper_ddr3();
            w.count = 2_000;
            w
        } else {
            WorkloadSpec::paper_ddr3()
        };
        let constraints: Vec<f64> = (7..=17).map(|c| 2.0 * c as f64).collect();
        experiments::fig9::run_with(&options, workload, &constraints)
            .map(|r| r.to_string())
            .map_err(|e| e.to_string())
    });
    section("convergence", &mut || {
        let grids: &[usize] = if quick {
            &[10, 16, 24]
        } else {
            &[10, 16, 24, 32, 40]
        };
        experiments::convergence::run(grids)
            .map(|r| r.to_string())
            .map_err(|e| e.to_string())
    });
    section("ablation", &mut || {
        experiments::ablation::run(&options)
            .map(|r| r.to_string())
            .map_err(|e| e.to_string())
    });
    section("policies-x", &mut || {
        let reads = if quick { 2_000 } else { 5_000 };
        // Coarse mesh regardless of --quick, but honor --threads so the
        // per-benchmark policy fan-out uses the requested worker count.
        let o = MeshOptions {
            threads,
            ..MeshOptions::coarse()
        };
        experiments::policy_cross::run(&o, reads)
            .map(|r| r.to_string())
            .map_err(|e| e.to_string())
    });
    section("ac", &mut || {
        experiments::ac::run(&MeshOptions::coarse())
            .map(|r| r.to_string())
            .map_err(|e| e.to_string())
    });
    section("table9", &mut || {
        // Co-optimization characterizes thousands of meshes; always use the
        // coarse mesh here (the regression averages out discretization).
        experiments::table9::run(&MeshOptions::coarse(), threads)
            .map(|r| r.to_string())
            .map_err(|e| e.to_string())
    });

    if let Some(path) = &metrics_out {
        match pi3d_telemetry::RunReport::collect().write_json(std::path::Path::new(path)) {
            Ok(()) => eprintln!("wrote run report to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                failures += 1;
            }
        }
    }

    if failures > 0 {
        eprintln!("{failures} experiment(s) failed");
        std::process::exit(1);
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}
