//! The Section 5.2 IR-drop LUT must not depend on how many worker threads
//! built it: `build_ir_lut_from_mesh` solves its superposition basis
//! through the batch API, and this test pins two contracts:
//!
//! 1. the table is *bit-identical* at 1 and 4 threads, and bit-identical
//!    to a build whose basis is solved strictly sequentially through
//!    single `PreparedSystem::solve` calls;
//! 2. the superposed values agree with direct per-case solves to solver
//!    tolerance (the superposition is a refactoring, not an approximation);
//! 3. the run report's phase tree, paths and call counts, is the same at
//!    1 and 4 threads: the basis solves sit under `lut_build` either way,
//!    as one `cg_solve` span around the batch (its lanes interleave
//!    their solves), and the `solver.cg.solves` counter moves by one per
//!    basis solve.
//!
//! One `#[test]`, since the phase table is process-wide.

use pi3d_core::{build_ir_lut_from_mesh, Platform, LUT_ACTIVITIES};
use pi3d_layout::{Benchmark, DieState, MemoryState, StackDesign};
use pi3d_mesh::MeshOptions;

const MAX_BANKS: usize = 1;

#[test]
fn lut_is_bit_identical_across_thread_counts() {
    let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);

    let reference = {
        let platform = Platform::new(MeshOptions::coarse());
        let mesh = platform.evaluate(&design).unwrap();
        build_ir_lut_from_mesh(&mesh, MAX_BANKS).unwrap()
    };
    assert_eq!(reference.state_count(), 15);

    // Batch basis solves at several thread counts must reproduce the
    // single-threaded table bit for bit (solve_batch itself is pinned
    // against sequential PreparedSystem::solve calls in pi3d-solver).
    let mut trees = Vec::new();
    for threads in [1, 4] {
        pi3d_telemetry::span::reset();
        let platform = Platform::new(MeshOptions {
            threads,
            ..MeshOptions::coarse()
        });
        let mesh = platform.evaluate(&design).unwrap();
        let solves = pi3d_telemetry::metrics::counter("solver.cg.solves");
        let before = solves.get();
        let lut = build_ir_lut_from_mesh(&mesh, MAX_BANKS).unwrap();
        assert_eq!(lut, reference, "threads {threads}");
        // 1 background + 2 per die: all 9 basis solves inside the LUT
        // build.
        assert_eq!(solves.get() - before, 9, "threads {threads}");
        let tree: Vec<(String, u64)> = pi3d_telemetry::span::snapshot()
            .into_iter()
            .map(|p| (p.path, p.calls))
            .collect();
        trees.push(tree);
    }
    assert_eq!(trees[0], trees[1], "phase tree moved with --threads");
    let batch = ("lut_build/cg_solve".to_owned(), 1);
    assert!(trees[0].contains(&batch), "{:?}", trees[0]);

    // Superposition accuracy: every tabulated value matches a direct
    // per-case solve to well within solver tolerance.
    let platform = Platform::new(MeshOptions::coarse());
    let mesh = platform.evaluate(&design).unwrap();
    for bits in 1u8..16 {
        let counts: Vec<u8> = (0..4).map(|d| (bits >> d) & 1).collect();
        let state = MemoryState::new(
            counts
                .iter()
                .map(|&c| DieState::active(c as usize))
                .collect(),
        );
        for &activity in &LUT_ACTIVITIES {
            let direct = mesh.max_ir(&state, activity).unwrap();
            let tabulated = reference.lookup(&counts, activity).unwrap();
            assert!(
                (direct.value() - tabulated.value()).abs() < 1e-4,
                "state {counts:?} activity {activity}: direct {direct} vs lut {tabulated}"
            );
        }
    }
}
