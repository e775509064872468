//! A warm `simulate` does no analysis work: the cached design and LUT
//! answer it, so a repeat of a cold request assembles no mesh and runs no
//! CG solve, and returns the cold response's bytes.
//!
//! Telemetry counters are process-wide, so this binary holds exactly one
//! `#[test]`: no other test can move the counters between the reads.

use pi3d_core::serve::{ServeOptions, ServeState};
use pi3d_mesh::MeshOptions;
use pi3d_telemetry::{metrics, Json};

/// Mesh assemblies and CG solves recorded so far in this process.
fn work_done() -> (u64, u64) {
    (
        metrics::counter("mesh.builds").get(),
        metrics::counter("solver.cg.solves").get(),
    )
}

#[test]
fn warm_simulate_skips_mesh_assembly_and_solves() {
    let server = ServeState::new(ServeOptions {
        mesh: MeshOptions::coarse(),
        ..ServeOptions::default()
    });
    let request = Json::obj([
        ("cmd", Json::str("simulate")),
        ("config", Json::str("benchmark = ddr3-off\n")),
        ("policy", Json::str("distr")),
        ("reads", Json::num(500.0)),
    ]);

    let (builds, solves) = work_done();
    let cold = server.handle_request(&request).to_compact_string();
    assert!(cold.contains(r#""status":"ok""#), "{cold}");
    let (cold_builds, cold_solves) = work_done();
    assert!(cold_builds > builds, "cold simulate built no mesh");
    assert!(cold_solves > solves, "cold simulate ran no CG solve");

    let warm = server.handle_request(&request).to_compact_string();
    assert_eq!(
        work_done(),
        (cold_builds, cold_solves),
        "warm simulate repeated analysis work"
    );
    assert_eq!(cold, warm, "cache hit must not change response bytes");
}
