//! Extension-feature benchmarks: combined VDD+VSS supply-noise analysis,
//! the RC transient engine, current-density reporting, and SPICE export.

use pi3d_bench::bench_mesh_options;
use pi3d_bench::harness::Harness;
use pi3d_layout::{Benchmark, StackDesign};
use pi3d_mesh::{
    export_spice, run_transient, CurrentReport, MeshOptions, StackMesh, SupplyNoiseAnalysis,
    TransientOptions,
};

fn bench(c: &mut Harness) {
    let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
    let state = "0-0-0-2".parse().expect("literal state");

    let mut group = c.benchmark_group("extensions");
    group.sample_size(10);

    group.bench_function("supply_noise_vdd_vss", |b| {
        let analysis = SupplyNoiseAnalysis::new(&design, bench_mesh_options()).expect("builds");
        b.iter(|| analysis.run(&state, 1.0).expect("solves"))
    });

    group.bench_function("transient_240_steps", |b| {
        let options = MeshOptions {
            dram_nx: 10,
            dram_ny: 10,
            ..bench_mesh_options()
        };
        b.iter(|| {
            run_transient(
                &design,
                options.clone(),
                TransientOptions::default(),
                &state,
            )
            .expect("runs")
        })
    });

    let mesh = StackMesh::new(&design, bench_mesh_options()).expect("builds");
    let solved = mesh.solve(&state, 1.0).expect("solves");
    group.bench_function("current_report", |b| {
        b.iter(|| CurrentReport::compute(&mesh, solved.node_drops()))
    });

    let loads = mesh.load_vector(&state, 1.0);
    group.bench_function("spice_export", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(1 << 20);
            export_spice(&mesh, &loads, "bench", &mut buf).expect("writes");
            buf
        })
    });
    group.finish();
}

fn main() {
    bench(&mut Harness::new());
}
