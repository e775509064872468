//! Asserts that a [`pi3d_mesh::StackMesh`] factors its preconditioner
//! exactly once, at assembly, no matter how many solves run against it.
//!
//! This file deliberately holds a single test so the global telemetry
//! registry sees no concurrent writers from sibling tests in this binary.

use pi3d_layout::{Benchmark, MemoryState, StackDesign};
use pi3d_mesh::{MeshOptions, StackMesh};
use pi3d_telemetry::metrics;

#[test]
fn mesh_factors_its_preconditioner_exactly_once() {
    let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
    let builds = metrics::counter("solver.precond.builds");

    let before = builds.get();
    let mut mesh = StackMesh::new(
        &design,
        MeshOptions {
            threads: 2,
            ..MeshOptions::coarse()
        },
    )
    .unwrap();
    assert_eq!(
        builds.get() - before,
        1,
        "assembly performs the single factorization"
    );

    let states: Vec<MemoryState> = ["0-0-0-2", "1-0-0-0", "2-2-2-2"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    for state in &states {
        mesh.solve(state, 1.0).unwrap();
    }
    let cases: Vec<(MemoryState, f64)> = states.iter().map(|s| (s.clone(), 0.5)).collect();
    mesh.solve_batch(&cases).unwrap();

    assert_eq!(
        builds.get() - before,
        1,
        "no further factorization across sequential and batch solves"
    );
    assert_eq!(mesh.prepared().solve_count(), 6);
}
