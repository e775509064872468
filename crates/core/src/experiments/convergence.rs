//! Mesh-resolution convergence study: how the reported max IR drop of the
//! baseline design changes with the R-Mesh grid density. This quantifies
//! the discretization error behind every other experiment (the paper's
//! 1.3% R-Mesh-vs-EPS error bar plays the same role).

use crate::error::CoreError;
use crate::platform::Platform;
use crate::report::{mv, pct, TextTable};
use pi3d_layout::{Benchmark, MemoryState, StackDesign};
use pi3d_mesh::MeshOptions;
use std::fmt;

/// One resolution sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceRow {
    /// Grid nodes per DRAM-die axis.
    pub grid: usize,
    /// Total mesh nodes.
    pub nodes: usize,
    /// Max IR drop, mV.
    pub max_ir_mv: f64,
}

/// Convergence-study result.
#[derive(Debug, Clone)]
pub struct Convergence {
    /// Rows in increasing resolution order.
    pub rows: Vec<ConvergenceRow>,
}

impl Convergence {
    /// Relative change between the two finest resolutions — the
    /// discretization-error estimate.
    pub fn residual_error(&self) -> f64 {
        match self.rows.as_slice() {
            [.., a, b] => ((b.max_ir_mv - a.max_ir_mv) / b.max_ir_mv).abs(),
            _ => 0.0,
        }
    }
}

impl fmt::Display for Convergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Mesh-resolution convergence, off-chip DDR3 baseline, 0-0-0-2"
        )?;
        let mut t = TextTable::new(vec!["grid", "nodes", "max IR (mV)", "vs finest"]);
        let finest = self.rows.last().map(|r| r.max_ir_mv).unwrap_or(1.0);
        for r in &self.rows {
            t.row(vec![
                format!("{0}x{0}", r.grid),
                r.nodes.to_string(),
                mv(r.max_ir_mv),
                pct(r.max_ir_mv, finest),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "residual discretization error: {:.2}%",
            self.residual_error() * 100.0
        )
    }
}

/// Sweeps the DRAM grid over the given per-axis node counts.
///
/// # Errors
///
/// Propagates design and solver errors.
pub fn run(grids: &[usize]) -> Result<Convergence, CoreError> {
    let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
    let state: MemoryState = "0-0-0-2".parse().expect("literal state");
    let mut rows = Vec::new();
    for &grid in grids {
        let platform = Platform::new(MeshOptions::default().with_grid(grid));
        let mesh = platform.evaluate(&design)?;
        let report = mesh.solve(&state, 1.0)?;
        rows.push(ConvergenceRow {
            grid,
            nodes: report.registry().total_nodes(),
            max_ir_mv: report.max_dram().value(),
        });
    }
    Ok(Convergence { rows })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn resolution_refinement_converges() {
        let c = run(&[10, 16, 24, 32]).unwrap();
        assert_eq!(c.rows.len(), 4);
        // Successive refinements change the answer less and less.
        let d1 = (c.rows[1].max_ir_mv - c.rows[0].max_ir_mv).abs();
        let d2 = (c.rows[2].max_ir_mv - c.rows[1].max_ir_mv).abs();
        let d3 = (c.rows[3].max_ir_mv - c.rows[2].max_ir_mv).abs();
        assert!(d3 < d1, "not converging: |d1|={d1} |d3|={d3}");
        let _ = d2;
        // The finest pair agrees to a few percent.
        assert!(c.residual_error() < 0.06, "residual {}", c.residual_error());
    }
}
