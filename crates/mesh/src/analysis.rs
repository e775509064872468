use crate::grid::{GridId, GridKind, GridRegistry};
use pi3d_layout::units::MilliVolts;
use pi3d_layout::MemoryState;
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
/// Produced by [`StackMesh::solve`](crate::StackMesh::solve); owns the
/// raw per-node drop map so callers can render heat maps or inspect
/// individual layers.
#[derive(Debug, Clone)]
pub struct IrDropReport {
    state: MemoryState,
    io_activity: f64,
    per_grid: Vec<GridIrStats>,
    drops: Vec<f64>,
    // Shared with the mesh, not deep-copied: a registry clone per report
    // would dominate small-mesh analysis time.
    registry: Arc<GridRegistry>,
}

impl IrDropReport {
    /// Summarizes a solved drop map (volts, indexed by global node id)
    /// grid by grid.
    pub(crate) fn new(
        state: &MemoryState,
        io_activity: f64,
        drops: Vec<f64>,
        registry: Arc<GridRegistry>,
    ) -> Self {
        let mut per_grid = Vec::new();
        for (_, grid) in registry.iter() {
            let mut max = f64::MIN;
            let mut sum = 0.0;
            let mut max_at = (0, 0);
            for iy in 0..grid.ny {
                for ix in 0..grid.nx {
                    let drop = drops[grid.node(ix, iy)];
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
            drops,
            registry,
        }
    }

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
        &self.drops
    }

    /// IR-drop map of one grid as an `ny × nx` row-major vector (mV).
    pub fn grid_map(&self, id: GridId) -> Vec<f64> {
        let g = self.registry.grid(id);
        let mut out = Vec::with_capacity(g.node_count());
        for iy in 0..g.ny {
            for ix in 0..g.nx {
                out.push(self.drops[g.node(ix, iy)] * 1e3);
            }
        }
        out
    }

    /// The grid registry for geometric lookups.
    pub fn registry(&self) -> &GridRegistry {
        &self.registry
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use crate::{MeshOptions, StackMesh};
    use pi3d_layout::{Benchmark, StackDesign};

    fn mesh(b: Benchmark) -> StackMesh {
        StackMesh::new(&StackDesign::baseline(b), MeshOptions::coarse()).expect("mesh builds")
    }

    #[test]
    fn report_summaries_are_consistent() {
        let m = mesh(Benchmark::StackedDdr3OffChip);
        let r = m.solve(&"0-0-0-2".parse().unwrap(), 1.0).unwrap();
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
        let m = mesh(Benchmark::StackedDdr3OffChip);
        let r = m.solve(&"0-0-0-2".parse().unwrap(), 1.0).unwrap();
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
        let m = mesh(Benchmark::StackedDdr3OffChip);
        let r = m.solve(&"0-0-0-2".parse().unwrap(), 1.0).unwrap();
        let (id, grid) = r.registry().iter().next().unwrap();
        let map = r.grid_map(id);
        assert_eq!(map.len(), grid.node_count());
    }

    #[test]
    fn on_chip_reports_logic_noise() {
        let m = mesh(Benchmark::StackedDdr3OnChip);
        let r = m.solve(&"0-0-0-2".parse().unwrap(), 1.0).unwrap();
        assert!(r.max_logic().value() > 1.0, "logic noise {}", r.max_logic());
    }

    #[test]
    fn deeper_dies_see_more_drop_when_uniformly_active() {
        let m = mesh(Benchmark::StackedDdr3OffChip);
        let r = m.solve(&"2-2-2-2".parse().unwrap(), 1.0).unwrap();
        // Supply enters at the bottom: the top die must be at least as
        // stressed as the bottom die.
        assert!(r.max_die(3).value() >= r.max_die(0).value());
    }
}
