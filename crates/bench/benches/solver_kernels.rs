//! Solver-kernel microbenchmarks: SpMV, preconditioned CG, IC(0)
//! factorization and apply, and mesh assembly — the primitives behind
//! every experiment.

use pi3d_bench::harness::{BatchSize, Harness};
use pi3d_layout::{Benchmark, StackDesign};
use pi3d_mesh::{MeshOptions, StackMesh};
use pi3d_solver::{CgSolver, IncompleteCholesky, Preconditioner};

fn bench(c: &mut Harness) {
    let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
    let mesh = StackMesh::new(&design, MeshOptions::default()).expect("mesh builds");
    let state = "0-0-0-2".parse().expect("literal state");
    let loads = mesh.load_vector(&state, 1.0);
    let matrix = mesh.matrix().clone();

    let mut group = c.benchmark_group("solver_kernels");
    group.bench_function("spmv", |b| {
        let mut y = vec![0.0; matrix.dim()];
        b.iter(|| matrix.mul_vec_into(&loads, &mut y))
    });
    group.bench_function("ic0_factorization", |b| {
        b.iter(|| IncompleteCholesky::new(&matrix).expect("factors"))
    });
    // The forward and backward substitution every IC(0)-preconditioned
    // CG iteration and every multigrid smoothing step pays.
    let ic0 = IncompleteCholesky::new(&matrix).expect("factors");
    group.bench_function("ic0_apply", |b| {
        let mut z = vec![0.0; matrix.dim()];
        b.iter(|| ic0.apply(&loads, &mut z))
    });
    for (name, pc) in [
        ("cg_jacobi", Preconditioner::Jacobi),
        ("cg_ic0", Preconditioner::IncompleteCholesky),
    ] {
        let solver = CgSolver::new().with_tolerance(1e-9);
        group.bench_function(name, |b| {
            b.iter(|| solver.solve(&matrix, &loads, pc).expect("solves"))
        });
    }
    group.bench_function("mesh_assembly", |b| {
        b.iter_batched(
            || (),
            |()| StackMesh::new(&design, MeshOptions::default()).expect("mesh builds"),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn main() {
    bench(&mut Harness::new());
}
