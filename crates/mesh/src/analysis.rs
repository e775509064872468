use crate::build::StackMesh;
use crate::error::MeshError;
use crate::grid::{GridId, GridKind, GridRegistry};
use pi3d_layout::units::MilliVolts;
use pi3d_layout::MemoryState;
use pi3d_solver::SolverError;
use std::sync::Arc;

/// Per-grid IR-drop statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct GridIrStats {
    /// Which layer this summarizes.
    pub kind: GridKind,
    /// Maximum IR drop on the grid.
    pub max: MilliVolts,
    /// Average IR drop on the grid.
    pub avg: MilliVolts,
    /// Grid coordinates of the maximum-drop node.
    pub max_at: (usize, usize),
}

/// Full IR-drop analysis result for one memory state.
///
/// Produced by [`IrAnalysis::run`]; keeps the raw per-node drop map so
/// callers can render heat maps or inspect individual layers.
#[derive(Debug, Clone)]
pub struct IrDropReport {
    state: MemoryState,
    io_activity: f64,
    per_grid: Vec<GridIrStats>,
    // Shared handles: reports reference the mesh's solution vector and
    // registry instead of deep-copying them (a registry clone per report
    // used to dominate small-mesh analysis time).
    voltages: Arc<Vec<f64>>,
    registry: Arc<GridRegistry>,
}

impl IrDropReport {
    /// The memory state analyzed.
    pub fn state(&self) -> &MemoryState {
        &self.state
    }

    /// The per-active-die I/O activity analyzed.
    pub fn io_activity(&self) -> f64 {
        self.io_activity
    }

    /// Per-grid statistics.
    pub fn per_grid(&self) -> &[GridIrStats] {
        &self.per_grid
    }

    /// Maximum IR drop over all DRAM grids — the paper's headline metric.
    pub fn max_dram(&self) -> MilliVolts {
        self.per_grid
            .iter()
            .filter(|g| !g.kind.is_logic())
            .map(|g| g.max)
            .fold(MilliVolts(0.0), MilliVolts::max)
    }

    /// Maximum IR drop over the logic grids (zero for off-chip designs).
    pub fn max_logic(&self) -> MilliVolts {
        self.per_grid
            .iter()
            .filter(|g| g.kind.is_logic())
            .map(|g| g.max)
            .fold(MilliVolts(0.0), MilliVolts::max)
    }

    /// Maximum IR drop on one DRAM die (over both its metal layers).
    pub fn max_die(&self, die: usize) -> MilliVolts {
        self.per_grid
            .iter()
            .filter(|g| {
                g.kind.dram_die() == Some(die) && matches!(g.kind, GridKind::DramMetal { .. })
            })
            .map(|g| g.max)
            .fold(MilliVolts(0.0), MilliVolts::max)
    }

    /// Raw per-node IR drop in volts, indexed by global node id.
    pub fn node_drops(&self) -> &[f64] {
        &self.voltages
    }

    /// IR-drop map of one grid as an `ny × nx` row-major vector (mV).
    pub fn grid_map(&self, id: GridId) -> Vec<f64> {
        let g = self.registry.grid(id);
        let mut out = Vec::with_capacity(g.node_count());
        for iy in 0..g.ny {
            for ix in 0..g.nx {
                out.push(self.voltages[g.node(ix, iy)] * 1e3);
            }
        }
        out
    }

    /// The grid registry for geometric lookups.
    pub fn registry(&self) -> &GridRegistry {
        &self.registry
    }
}

/// Convenience front end running solves and summarizing them.
///
/// # Examples
///
/// ```
/// use pi3d_layout::{Benchmark, StackDesign};
/// use pi3d_mesh::{IrAnalysis, MeshOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
/// let mut analysis = IrAnalysis::new(&design, MeshOptions::coarse())?;
/// let report = analysis.run(&"0-0-0-2".parse()?, 1.0)?;
/// assert!(report.max_dram().value() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct IrAnalysis {
    mesh: StackMesh,
}

impl IrAnalysis {
    /// Builds the mesh for a design.
    ///
    /// # Errors
    ///
    /// Propagates assembly errors from [`StackMesh::new`], including
    /// [`MeshError::DegradedSupply`] for fault-disconnected meshes.
    pub fn new(
        design: &pi3d_layout::StackDesign,
        options: crate::MeshOptions,
    ) -> Result<Self, MeshError> {
        Ok(IrAnalysis {
            mesh: StackMesh::new(design, options)?,
        })
    }

    /// Wraps an existing mesh.
    pub fn from_mesh(mesh: StackMesh) -> Self {
        IrAnalysis { mesh }
    }

    /// The underlying mesh.
    pub fn mesh(&self) -> &StackMesh {
        &self.mesh
    }

    /// Solves one memory state and summarizes the drop map.
    ///
    /// # Errors
    ///
    /// Propagates solver non-convergence.
    pub fn run(
        &mut self,
        state: &MemoryState,
        io_activity: f64,
    ) -> Result<IrDropReport, SolverError> {
        self.run_op(state, io_activity, pi3d_layout::OpKind::Read)
    }

    /// As [`run`](Self::run), for an explicit operation kind (read vs
    /// write current distribution, Section 2.2).
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run).
    pub fn run_op(
        &mut self,
        state: &MemoryState,
        io_activity: f64,
        op: pi3d_layout::OpKind,
    ) -> Result<IrDropReport, SolverError> {
        let _span = pi3d_telemetry::span::span("ir_analysis");
        pi3d_telemetry::metrics::counter("mesh.ir_analyses").incr(1);
        let v = self.mesh.solve_op(state, io_activity, op)?;
        Ok(self.summarize(state, io_activity, v))
    }

    /// Solves many `(state, io_activity)` cases in one batch against the
    /// mesh's already-factored matrix — see [`StackMesh::solve_batch_op`]
    /// for the threading and determinism contract. Reports come back in
    /// input order.
    ///
    /// Takes `&self`: the batch path runs cold (no warm-start cache), so
    /// a shared analysis — e.g. one held in the serve daemon's cache and
    /// hit from many worker threads — yields bit-identical reports
    /// regardless of what was solved before or concurrently.
    ///
    /// # Errors
    ///
    /// Returns the first (by input index) solver failure, if any.
    pub fn run_batch(
        &self,
        cases: &[(MemoryState, f64)],
        op: pi3d_layout::OpKind,
    ) -> Result<Vec<IrDropReport>, SolverError> {
        let _span = pi3d_telemetry::span::span("ir_analysis_batch");
        pi3d_telemetry::metrics::counter("mesh.ir_analyses").incr(cases.len() as u64);
        let solutions = self.mesh.solve_batch_op(cases, op)?;
        Ok(cases
            .iter()
            .zip(solutions)
            .map(|((state, io), v)| self.summarize(state, *io, v))
            .collect())
    }

    fn summarize(&self, state: &MemoryState, io_activity: f64, v: Arc<Vec<f64>>) -> IrDropReport {
        let registry = Arc::clone(self.mesh.registry_shared());
        let mut per_grid = Vec::new();
        for (_, grid) in registry.iter() {
            let mut max = f64::MIN;
            let mut sum = 0.0;
            let mut max_at = (0, 0);
            for iy in 0..grid.ny {
                for ix in 0..grid.nx {
                    let drop = v[grid.node(ix, iy)];
                    sum += drop;
                    if drop > max {
                        max = drop;
                        max_at = (ix, iy);
                    }
                }
            }
            per_grid.push(GridIrStats {
                kind: grid.kind,
                max: MilliVolts(max * 1e3),
                avg: MilliVolts(sum / grid.node_count() as f64 * 1e3),
                max_at,
            });
        }
        IrDropReport {
            state: state.clone(),
            io_activity,
            per_grid,
            voltages: v,
            registry,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::MeshOptions;
    use pi3d_layout::{Benchmark, StackDesign};

    fn analysis(b: Benchmark) -> IrAnalysis {
        IrAnalysis::new(&StackDesign::baseline(b), MeshOptions::coarse()).expect("mesh builds")
    }

    #[test]
    fn report_summaries_are_consistent() {
        let mut a = analysis(Benchmark::StackedDdr3OffChip);
        let r = a.run(&"0-0-0-2".parse().unwrap(), 1.0).unwrap();
        // Max over grids equals max over DRAM dies.
        let die_max = (0..4).map(|d| r.max_die(d).value()).fold(0.0f64, f64::max);
        assert!((r.max_dram().value() - die_max).abs() < 1e-9);
        // Avg <= max per grid.
        for g in r.per_grid() {
            assert!(g.avg.value() <= g.max.value() + 1e-12, "{}", g.kind);
        }
        // Off-chip: no logic.
        assert_eq!(r.max_logic().value(), 0.0);
    }

    #[test]
    fn active_die_has_the_highest_drop() {
        let mut a = analysis(Benchmark::StackedDdr3OffChip);
        let r = a.run(&"0-0-0-2".parse().unwrap(), 1.0).unwrap();
        let top = r.max_die(3).value();
        for d in 0..3 {
            assert!(
                r.max_die(d).value() <= top + 1e-9,
                "die {d} ({}) exceeds active die ({top})",
                r.max_die(d).value()
            );
        }
    }

    #[test]
    fn grid_map_dimensions_match() {
        let mut a = analysis(Benchmark::StackedDdr3OffChip);
        let r = a.run(&"0-0-0-2".parse().unwrap(), 1.0).unwrap();
        let (id, grid) = r.registry().iter().next().unwrap();
        let map = r.grid_map(id);
        assert_eq!(map.len(), grid.node_count());
    }

    #[test]
    fn on_chip_reports_logic_noise() {
        let mut a = analysis(Benchmark::StackedDdr3OnChip);
        let r = a.run(&"0-0-0-2".parse().unwrap(), 1.0).unwrap();
        assert!(r.max_logic().value() > 1.0, "logic noise {}", r.max_logic());
    }

    #[test]
    fn deeper_dies_see_more_drop_when_uniformly_active() {
        let mut a = analysis(Benchmark::StackedDdr3OffChip);
        let r = a.run(&"2-2-2-2".parse().unwrap(), 1.0).unwrap();
        // Supply enters at the bottom: the top die must be at least as
        // stressed as the bottom die.
        assert!(r.max_die(3).value() >= r.max_die(0).value());
    }
}
