//! Golden-reference validation of the R-Mesh solver (the paper's Figure 4).
//!
//! The paper validates its R-Mesh + HSPICE flow against Cadence Encounter
//! Power System on a 2D DDR3 design, reporting 1.3% max-IR error and a 517x
//! speedup. We have no commercial sign-off tool, so the golden reference is
//! a dense Cholesky direct solve of the same nodal system — exact to
//! machine precision — with the speed comparison made between the sparse
//! iterative production path and the dense direct path.

use crate::build::{MeshOptions, StackMesh};
use crate::error::MeshError;
use pi3d_layout::units::MilliVolts;
use pi3d_layout::{MemoryState, StackDesign};
use pi3d_solver::DenseMatrix;
use std::time::{Duration, Instant};

/// Result of validating the sparse R-Mesh path against the dense golden
/// reference.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Maximum DRAM IR drop from the sparse (R-Mesh) path.
    pub rmesh_max: MilliVolts,
    /// Maximum DRAM IR drop from the dense golden solve.
    pub golden_max: MilliVolts,
    /// Relative error of the R-Mesh max against the golden max.
    pub relative_error: f64,
    /// Worst per-node relative discrepancy.
    pub max_node_error: f64,
    /// Wall-clock time of the sparse solve.
    pub rmesh_time: Duration,
    /// Wall-clock time of the dense factorization + solve.
    pub golden_time: Duration,
}

impl ValidationReport {
    /// Speedup of the R-Mesh path over the golden reference.
    pub fn speedup(&self) -> f64 {
        if self.rmesh_time.as_secs_f64() == 0.0 {
            f64::INFINITY
        } else {
            self.golden_time.as_secs_f64() / self.rmesh_time.as_secs_f64()
        }
    }
}

/// Runs the Figure 4 style validation: solve one memory state with both the
/// sparse production path and a dense Cholesky golden reference, and compare
/// maxima, per-node errors, and runtimes.
///
/// # Errors
///
/// Propagates mesh-assembly and solver errors.
///
/// # Examples
///
/// ```
/// use pi3d_layout::{Benchmark, StackDesign};
/// use pi3d_mesh::{validate_against_golden, MeshOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
/// let report = validate_against_golden(
///     &design,
///     MeshOptions::coarse(),
///     &"0-0-0-2".parse()?,
///     1.0,
/// )?;
/// assert!(report.relative_error < 0.02); // paper reports 1.3%
/// # Ok(())
/// # }
/// ```
pub fn validate_against_golden(
    design: &StackDesign,
    options: MeshOptions,
    state: &MemoryState,
    io_activity: f64,
) -> Result<ValidationReport, MeshError> {
    let mesh = StackMesh::new(design, options)?;
    let loads = mesh.load_vector(state, io_activity);

    let t0 = Instant::now();
    let report = mesh.solve(state, io_activity)?;
    let rmesh_time = t0.elapsed();
    let sparse = report.node_drops();

    let t1 = Instant::now();
    let dense = DenseMatrix::from_csr(mesh.matrix());
    let golden = dense.cholesky()?.solve(&loads)?;
    let golden_time = t1.elapsed();

    // Compare only DRAM nodes (the paper's metric).
    let mut rmesh_max = 0.0f64;
    let mut golden_max = 0.0f64;
    let mut max_node_error = 0.0f64;
    for (_, grid) in mesh.registry().iter() {
        if grid.kind.is_logic() {
            continue;
        }
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                let n = grid.node(ix, iy);
                rmesh_max = rmesh_max.max(sparse[n]);
                golden_max = golden_max.max(golden[n]);
                let scale = golden[n].abs().max(1e-9);
                max_node_error = max_node_error.max((sparse[n] - golden[n]).abs() / scale);
            }
        }
    }

    Ok(ValidationReport {
        rmesh_max: MilliVolts(rmesh_max * 1e3),
        golden_max: MilliVolts(golden_max * 1e3),
        relative_error: (rmesh_max - golden_max).abs() / golden_max.max(1e-12),
        max_node_error,
        rmesh_time,
        golden_time,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pi3d_layout::Benchmark;

    #[test]
    fn sparse_path_matches_golden_to_solver_tolerance() {
        let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let report = validate_against_golden(
            &design,
            MeshOptions::coarse(),
            &"0-0-0-2".parse().unwrap(),
            1.0,
        )
        .unwrap();
        assert!(
            report.relative_error < 1e-5,
            "max-IR relative error {}",
            report.relative_error
        );
        assert!(
            report.max_node_error < 1e-4,
            "worst node error {}",
            report.max_node_error
        );
        assert!(report.rmesh_max.value() > 0.0);
    }

    #[test]
    fn speedup_is_reported() {
        let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let report = validate_against_golden(
            &design,
            MeshOptions::coarse(),
            &"0-0-0-2".parse().unwrap(),
            1.0,
        )
        .unwrap();
        assert!(report.speedup() > 0.0);
    }
}
