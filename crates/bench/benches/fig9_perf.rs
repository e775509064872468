//! Figure 9 benchmark: LUT construction plus the runtime-vs-constraint
//! sweep for one case.

use pi3d_bench::harness::Harness;
use pi3d_bench::{bench_mesh_options, bench_workload};
use pi3d_core::experiments::cases::CaseSpec;
use pi3d_core::experiments::table6::run_policy;
use pi3d_core::{build_ir_lut_from_mesh, Platform};
use pi3d_layout::units::MilliVolts;
use pi3d_memsim::ReadPolicy;

fn bench(c: &mut Harness) {
    let platform = Platform::new(bench_mesh_options());
    let case = CaseSpec::all()[0];
    let design = case.build().expect("case builds");

    let mut group = c.benchmark_group("fig9_perf");
    group.sample_size(10);
    group.bench_function("lut_build_81_states", |b| {
        b.iter(|| {
            let mesh = platform.evaluate(&design).expect("design evaluates");
            build_ir_lut_from_mesh(&mesh, 2).expect("LUT builds")
        })
    });

    let mesh = platform.evaluate(&design).expect("design evaluates");
    let lut = build_ir_lut_from_mesh(&mesh, 2).expect("LUT builds");
    let requests = bench_workload().generate();
    group.bench_function("constraint_sweep_one_case", |b| {
        b.iter(|| {
            for cap in [16.0, 24.0, 32.0] {
                let _ = run_policy(&lut, ReadPolicy::ir_aware_fcfs(MilliVolts(cap)), &requests);
            }
        })
    });
    group.finish();
}

fn main() {
    bench(&mut Harness::new());
}
