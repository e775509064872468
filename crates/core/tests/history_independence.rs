//! A mesh solve answers only the memory state it is asked about: a state
//! solved after another state must equal the same state solved on a fresh
//! mesh, bit for bit, at every layer that solves (`StackMesh`,
//! `IrAnalysis`, `DesignEvaluation`).

use pi3d_core::Platform;
use pi3d_layout::{Benchmark, MemoryState, StackDesign};
use pi3d_mesh::{IrAnalysis, MeshOptions, StackMesh};

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
        *mesh.solve(&state, 1.0).unwrap(),
        *fresh,
        "StackMesh::solve"
    );

    let analysis = IrAnalysis::new(&design, MeshOptions::coarse()).unwrap();
    analysis.run(&before, 1.0).unwrap();
    let report = analysis.run(&state, 1.0).unwrap();
    assert_eq!(report.node_drops(), &fresh[..], "IrAnalysis::run");

    let platform = Platform::new(MeshOptions::coarse());
    let fresh_max = platform
        .evaluate(&design)
        .unwrap()
        .max_ir(&state, 1.0)
        .unwrap();
    let eval = platform.evaluate(&design).unwrap();
    eval.max_ir(&before, 1.0).unwrap();
    assert_eq!(
        eval.max_ir(&state, 1.0).unwrap().value().to_bits(),
        fresh_max.value().to_bits(),
        "DesignEvaluation::max_ir"
    );
}
