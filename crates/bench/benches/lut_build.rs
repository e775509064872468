//! Wall-clock benchmark of the Section 5.2 IR-drop LUT build: the pre-PR
//! per-solve path (preconditioner rebuilt on every solve, warm-started,
//! strictly sequential) against the factor-once batch path of
//! [`pi3d_core::build_ir_lut_from_mesh`] at 1 and 4 worker threads.
//!
//! Also asserts, once, that the batch LUT is bit-identical across thread
//! counts — speed must not change the table the memory controller sees.

use pi3d_bench::harness::Harness;
use pi3d_core::{build_ir_lut_from_mesh, Platform, LUT_ACTIVITIES};
use pi3d_layout::{Benchmark, DieState, MemoryState, StackDesign};
use pi3d_memsim::IrDropLut;
use pi3d_mesh::{MeshOptions, StackMesh};
use pi3d_solver::CgSolver;

const MAX_BANKS_PER_DIE: usize = 1;

/// Per-die bank-count vectors with entries `0..=max`, skipping all-idle.
fn states(dies: usize, max: usize) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = vec![Vec::new()];
    for _ in 0..dies {
        out = out
            .into_iter()
            .flat_map(|s| {
                (0..=max as u8).map(move |c| {
                    let mut s = s.clone();
                    s.push(c);
                    s
                })
            })
            .collect();
    }
    out.retain(|s| s.iter().any(|&c| c > 0));
    out
}

fn max_dram_mv(mesh: &StackMesh, v: &[f64]) -> f64 {
    let mut max = 0.0f64;
    for (_, grid) in mesh.registry().iter() {
        if grid.kind.is_logic() {
            continue;
        }
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                max = max.max(v[grid.node(ix, iy)]);
            }
        }
    }
    max * 1e3
}

/// The pre-PR build loop: one `CgSolver::solve_with_guess` per case, which
/// re-derives the preconditioner (including the IC(0) factorization) on
/// every call, warm-starting from the previous solution.
fn sequential_lut(mesh: &StackMesh) -> IrDropLut {
    let solver = CgSolver::new().with_tolerance(mesh.options().tolerance);
    let mut lut = IrDropLut::new(mesh.design().dram_die_count());
    let mut warm: Option<Vec<f64>> = None;
    for counts in states(mesh.design().dram_die_count(), MAX_BANKS_PER_DIE) {
        let state = MemoryState::new(
            counts
                .iter()
                .map(|&c| DieState::active(c as usize))
                .collect(),
        );
        for &activity in &LUT_ACTIVITIES {
            let loads = mesh.load_vector(&state, activity);
            let sol = solver
                .solve_with_guess(
                    mesh.matrix(),
                    &loads,
                    warm.as_deref(),
                    mesh.options().preconditioner,
                )
                .expect("solves");
            lut.insert(
                &counts,
                activity,
                pi3d_layout::units::MilliVolts(max_dram_mv(mesh, &sol.x)),
            );
            warm = Some(sol.x);
        }
    }
    lut
}

fn batch_lut(design: &StackDesign, threads: usize) -> IrDropLut {
    let platform = Platform::new(MeshOptions {
        threads,
        ..MeshOptions::coarse()
    });
    let mesh = platform.evaluate(design).expect("valid design");
    build_ir_lut_from_mesh(&mesh, MAX_BANKS_PER_DIE).expect("lut builds")
}

fn bench(c: &mut Harness) {
    let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
    let mesh = StackMesh::new(&design, MeshOptions::coarse()).expect("mesh builds");

    // Determinism gate before timing anything.
    let one = batch_lut(&design, 1);
    let four = batch_lut(&design, 4);
    assert_eq!(one, four, "LUT must be bit-identical across thread counts");

    let mut group = c.benchmark_group("lut_build");
    group.sample_size(5);
    group.bench_function("sequential_refactor_each", |b| {
        b.iter(|| sequential_lut(&mesh))
    });
    for threads in [1, 4] {
        group.bench_function(&format!("batch_{threads}_threads"), |b| {
            b.iter(|| batch_lut(&design, threads))
        });
    }
    group.finish();
}

fn main() {
    bench(&mut Harness::new());
}
