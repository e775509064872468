//! A mesh solve answers only the memory state it is asked about: a state
//! solved after another state must equal the same state solved on a fresh
//! mesh, bit for bit, however the mesh was reached (`StackMesh::solve`
//! directly, or `max_ir` on the mesh `Platform::evaluate` hands out).

use pi3d_core::Platform;
use pi3d_layout::{Benchmark, MemoryState, StackDesign};
use pi3d_mesh::{MeshOptions, StackMesh};

#[test]
fn a_solve_does_not_depend_on_the_solve_before_it() {
    let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
    let before: MemoryState = "2-0-0-0".parse().unwrap();
    let state: MemoryState = "0-0-0-2".parse().unwrap();
    let fresh = StackMesh::new(&design, MeshOptions::coarse())
        .unwrap()
        .solve(&state, 1.0)
        .unwrap();

    let mesh = StackMesh::new(&design, MeshOptions::coarse()).unwrap();
    mesh.solve(&before, 1.0).unwrap();
    assert_eq!(
        mesh.solve(&state, 1.0).unwrap().node_drops(),
        fresh.node_drops(),
        "StackMesh::solve"
    );

    let platform = Platform::new(MeshOptions::coarse());
    let fresh_max = platform
        .evaluate(&design)
        .unwrap()
        .max_ir(&state, 1.0)
        .unwrap();
    let mesh = platform.evaluate(&design).unwrap();
    mesh.max_ir(&before, 1.0).unwrap();
    assert_eq!(
        mesh.max_ir(&state, 1.0).unwrap().value().to_bits(),
        fresh_max.value().to_bits(),
        "Platform::evaluate(..).max_ir"
    );
}
