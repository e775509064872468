//! Table 6 benchmark: cycle-accurate policy simulation throughput for the
//! three read policies over a prebuilt IR-drop LUT.

use pi3d_bench::harness::Harness;
use pi3d_bench::{bench_mesh_options, bench_workload};
use pi3d_core::{build_ir_lut_from_mesh, Platform};
use pi3d_layout::units::MilliVolts;
use pi3d_layout::{Benchmark, StackDesign};
use pi3d_memsim::{MemorySimulator, ReadPolicy, SimConfig, TimingParams};

fn bench(c: &mut Harness) {
    let platform = Platform::new(bench_mesh_options());
    let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
    let mesh = platform.evaluate(&design).expect("design evaluates");
    let lut = build_ir_lut_from_mesh(&mesh, 2).expect("LUT builds");
    let requests = bench_workload().generate();

    let mut group = c.benchmark_group("table6_policy");
    group.sample_size(20);
    for (name, policy) in [
        ("standard", ReadPolicy::standard()),
        ("ir_aware_fcfs", ReadPolicy::ir_aware_fcfs(MilliVolts(24.0))),
        (
            "ir_aware_distr",
            ReadPolicy::ir_aware_distr(MilliVolts(24.0)),
        ),
    ] {
        let sim = MemorySimulator::new(
            TimingParams::ddr3_1600(),
            SimConfig::paper_ddr3(),
            policy,
            lut.clone(),
        );
        group.bench_function(name, |b| b.iter(|| sim.run(&requests).expect("completes")));
    }
    group.finish();
}

fn main() {
    bench(&mut Harness::new());
}
