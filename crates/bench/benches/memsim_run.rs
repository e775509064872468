//! Wall-clock benchmark of the event-driven memory simulator against the
//! per-cycle reference stepper: the paper's stacked-DDR3 configuration,
//! 200k read requests, all three read policies (JEDEC standard, IR-aware
//! FCFS, IR-aware DistR) at the paper's 24 mV constraint.
//!
//! Before timing anything it asserts, once per policy, that the two loops
//! produce bit-identical `SimStats` on the full request stream — speed
//! must not change what the controller reports. Results (min/median/mean
//! per loop, per-policy and overall median speedup) are written to
//! `BENCH_memsim.json` at the workspace root so the perf trajectory has
//! data points across PRs.
//!
//! Environment overrides (for CI's regression guard, which wants a fast
//! run written somewhere other than the committed baseline):
//! `BENCH_MEMSIM_OUT` redirects the JSON output, `BENCH_MEMSIM_SAMPLES`
//! overrides the sample count, and `BENCH_MEMSIM_SKIP_REFERENCE=1` skips
//! timing the per-cycle stepper (the equivalence gate still runs it once;
//! that single elapsed time stands in as the reference sample).

use pi3d_bench::harness::{bench_stats, SampleStats};
use pi3d_core::{build_ir_lut_from_mesh, Platform};
use pi3d_layout::units::MilliVolts;
use pi3d_layout::{Benchmark, StackDesign};
use pi3d_memsim::{IrDropLut, MemorySimulator, ReadPolicy, SimConfig, TimingParams, WorkloadSpec};
use pi3d_mesh::MeshOptions;
use pi3d_telemetry::Json;

const REQUESTS: usize = 200_000;
const CONSTRAINT_MV: f64 = 24.0;
const SAMPLES: usize = 5;

fn stats_json(s: SampleStats) -> Json {
    Json::obj([
        ("min_s", Json::num(s.min_s)),
        ("median_s", Json::num(s.median_s)),
        ("mean_s", Json::num(s.mean_s)),
        ("samples", Json::num(s.samples as f64)),
    ])
}

fn fmt_s(secs: f64) -> String {
    if secs < 1.0 {
        format!("{:.1} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

/// Reads a positive integer environment override, panicking on garbage
/// (a typo'd CI variable must fail loudly, not silently bench defaults).
fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Ok(v) => {
            let n = v
                .parse()
                .unwrap_or_else(|_| panic!("{name} must be an integer, got {v:?}"));
            assert!(n > 0, "{name} must be positive");
            n
        }
        Err(_) => default,
    }
}

fn main() {
    let samples = env_usize("BENCH_MEMSIM_SAMPLES", SAMPLES);
    let skip_reference = std::env::var("BENCH_MEMSIM_SKIP_REFERENCE").is_ok_and(|v| v == "1");
    let out_override = std::env::var("BENCH_MEMSIM_OUT").ok();

    let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
    let platform = Platform::new(MeshOptions::coarse());
    let mesh = platform.evaluate(&design).expect("valid design");
    let lut: IrDropLut = build_ir_lut_from_mesh(&mesh, SimConfig::paper_ddr3().max_powered_per_die)
        .expect("lut builds");

    let mut workload = WorkloadSpec::paper_ddr3();
    workload.count = REQUESTS;
    let requests = workload.generate();

    let constraint = MilliVolts(CONSTRAINT_MV);
    let policies = [
        ("Standard/FCFS", ReadPolicy::standard()),
        ("IR-aware/FCFS", ReadPolicy::ir_aware_fcfs(constraint)),
        ("IR-aware/DistR", ReadPolicy::ir_aware_distr(constraint)),
    ];

    println!("memsim_run: paper_ddr3, {REQUESTS} requests, {CONSTRAINT_MV} mV constraint");
    let mut policy_reports = Vec::new();
    let mut median_speedups = Vec::new();
    for (name, policy) in policies {
        let sim = MemorySimulator::new(
            TimingParams::ddr3_1600(),
            SimConfig::paper_ddr3(),
            policy,
            lut.clone(),
        );

        // Equivalence gate on the full stream (doubles as warmup): the
        // event loop must report exactly what the stepper reports.
        let event_stats = sim.run(&requests).expect("event loop completes");
        let gate_started = std::time::Instant::now();
        let reference_stats = sim.run_reference(&requests).expect("stepper completes");
        let gate_elapsed = gate_started.elapsed().as_secs_f64();
        assert_eq!(
            event_stats, reference_stats,
            "{name}: SimStats must be bit-identical between loops"
        );

        let event = bench_stats(samples, || {
            sim.run(&requests).expect("event loop completes")
        });
        let reference = if skip_reference {
            SampleStats {
                min_s: gate_elapsed,
                median_s: gate_elapsed,
                mean_s: gate_elapsed,
                samples: 1,
            }
        } else {
            bench_stats(samples, || {
                sim.run_reference(&requests).expect("stepper completes")
            })
        };
        let speedup = reference.median_s / event.median_s;
        median_speedups.push(speedup);
        println!(
            "  {name}: event median {}  reference median {}  speedup {speedup:.1}x",
            fmt_s(event.median_s),
            fmt_s(reference.median_s),
        );
        policy_reports.push(Json::obj([
            ("policy", Json::str(name)),
            ("event", stats_json(event)),
            ("reference", stats_json(reference)),
            ("median_speedup", Json::num(speedup)),
        ]));
    }

    median_speedups.sort_by(|a, b| a.total_cmp(b));
    let overall = median_speedups[median_speedups.len() / 2];
    println!("  overall median speedup: {overall:.1}x");

    let doc = Json::obj([
        ("schema", Json::str("pi3d.bench_memsim.v1")),
        ("benchmark", Json::str("paper_ddr3")),
        ("timing", Json::str("ddr3_1600")),
        ("requests", Json::num(REQUESTS as f64)),
        ("constraint_mv", Json::num(CONSTRAINT_MV)),
        ("samples_per_case", Json::num(samples as f64)),
        ("policies", Json::Arr(policy_reports)),
        ("median_speedup", Json::num(overall)),
    ]);
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_memsim.json");
    let path = out_override.as_deref().unwrap_or(default_path);
    pi3d_telemetry::fsio::atomic_write(
        std::path::Path::new(path),
        doc.to_pretty_string().as_bytes(),
    )
    .expect("write bench results");
    println!("  wrote {path}");
}
