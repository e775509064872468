//! Layer calls the traced runs share.

use crate::stats::percentile;
use crate::trace::Tracer;
use pi3d_mesh::StackMesh;
use pi3d_solver::{CgSolver, PreparedSystem};

/// Times the preconditioner set-up alone (`PreparedSystem::with_geometry`
/// on a copy of the mesh's matrix and its grids, copied before the span
/// opens) and returns the span's duration in ms. `StackMesh::new` minus
/// this is mesh assembly.
pub fn precond_setup(tr: &mut Tracer, mesh: &StackMesh) -> Result<f64, String> {
    let options = mesh.options();
    let matrix = mesh.matrix().clone();
    let grids = mesh.registry().stencil_grids();
    let solver = CgSolver::new().with_tolerance(options.tolerance);
    let id = tr.begin("solver.precond_setup", None);
    let built = PreparedSystem::with_geometry(matrix, options.preconditioner, solver, &grids);
    tr.end(id);
    built.map_err(|e| e.to_string())?;
    Ok(tr.duration_ms(id))
}

/// Traced p50 over untraced p50, as a percentage above 100 %.
pub fn overhead_pct(traced_sorted: &[f64], untraced_sorted: &[f64]) -> Result<f64, String> {
    Ok((percentile(traced_sorted, 50.0)? / percentile(untraced_sorted, 50.0)? - 1.0) * 100.0)
}
