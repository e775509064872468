//! Current-density and TSV current-crowding analysis.
//!
//! Section 3.2 of the paper builds on Zhao, Scheuermann & Lim's DC
//! current-crowding analysis for TSV-based 3D connections: when vertical
//! elements are few or poorly placed, a handful of TSVs carry most of the
//! stack's supply current. This module computes per-element currents from
//! a solved drop map and summarizes crowding per element class and the
//! worst strap-segment currents per metal layer.

use crate::build::{Element, ElementKind, StackMesh};
use crate::grid::GridKind;

/// Current statistics for one class of vertical elements.
#[derive(Debug, Clone, PartialEq)]
pub struct ElementCurrentStats {
    /// Number of elements in the class.
    pub count: usize,
    /// Largest element current, A.
    pub max_a: f64,
    /// Mean element current, A.
    pub avg_a: f64,
    /// Total current through the class, A.
    pub total_a: f64,
    /// Position of the hottest element (DRAM die-local mm).
    pub max_at: (f64, f64),
}

impl ElementCurrentStats {
    /// Current-crowding factor: max / mean. 1.0 means perfectly even
    /// sharing; large values mean a few elements carry the load.
    pub fn crowding(&self) -> f64 {
        if self.avg_a > 0.0 {
            self.max_a / self.avg_a
        } else {
            1.0
        }
    }
}

/// Maximum strap-segment current of one metal-layer grid.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCurrentStats {
    /// Which layer.
    pub kind: GridKind,
    /// Largest current through any strap segment, A.
    pub max_segment_a: f64,
}

/// Full current-density report for one solved memory state.
#[derive(Debug, Clone)]
pub struct CurrentReport {
    /// Stats for the supply-entry contacts.
    pub supply_entries: Option<ElementCurrentStats>,
    /// Stats per TSV interface (index 0 = bottom).
    pub tsv_interfaces: Vec<ElementCurrentStats>,
    /// Stats for the B2B connections (F2F designs only).
    pub b2b: Option<ElementCurrentStats>,
    /// Stats for the bond wires (wire-bonded designs only).
    pub wire_bonds: Option<ElementCurrentStats>,
    /// Per-layer worst strap currents.
    pub layers: Vec<LayerCurrentStats>,
}

impl CurrentReport {
    /// Computes the report from a mesh and its solved drop vector.
    ///
    /// # Panics
    ///
    /// Panics if `drops` has a different length than the mesh's node
    /// count.
    pub fn compute(mesh: &StackMesh, drops: &[f64]) -> Self {
        assert_eq!(
            drops.len(),
            mesh.node_count(),
            "drop vector length mismatch"
        );

        let stats_for = |pred: &dyn Fn(&Element) -> bool| -> Option<ElementCurrentStats> {
            let mut count = 0usize;
            let mut max_a = 0.0f64;
            let mut total_a = 0.0f64;
            let mut max_at = (0.0, 0.0);
            for e in mesh.elements().iter().filter(|e| pred(e)) {
                let i = e.current(drops);
                count += 1;
                total_a += i;
                if i > max_a {
                    max_a = i;
                    max_at = e.position;
                }
            }
            (count > 0).then(|| ElementCurrentStats {
                count,
                max_a,
                avg_a: total_a / count as f64,
                total_a,
                max_at,
            })
        };

        let supply_entries = stats_for(&|e| e.kind == ElementKind::SupplyEntry);
        let max_interface = mesh
            .elements()
            .iter()
            .filter_map(|e| match e.kind {
                ElementKind::Tsv { interface } => Some(interface),
                _ => None,
            })
            .max();
        let tsv_interfaces = (0..=max_interface.unwrap_or(0))
            .filter_map(|i| stats_for(&|e| e.kind == ElementKind::Tsv { interface: i }))
            .collect();
        let b2b = stats_for(&|e| e.kind == ElementKind::B2b);
        let wire_bonds = stats_for(&|e| matches!(e.kind, ElementKind::WireBond { .. }));

        // Strap-segment currents from the per-grid sheet conductances.
        let mut layers = Vec::new();
        for (id, grid) in mesh.registry().iter() {
            let (g_x, g_y) = mesh.sheet_conductance(id);
            let mut max_segment_a = 0.0f64;
            for iy in 0..grid.ny {
                for ix in 0..grid.nx {
                    let v = drops[grid.node(ix, iy)];
                    if ix + 1 < grid.nx {
                        max_segment_a =
                            max_segment_a.max((g_x * (v - drops[grid.node(ix + 1, iy)])).abs());
                    }
                    if iy + 1 < grid.ny {
                        max_segment_a =
                            max_segment_a.max((g_y * (v - drops[grid.node(ix, iy + 1)])).abs());
                    }
                }
            }
            layers.push(LayerCurrentStats {
                kind: grid.kind,
                max_segment_a,
            });
        }

        CurrentReport {
            supply_entries,
            tsv_interfaces,
            b2b,
            wire_bonds,
            layers,
        }
    }

    /// Total current delivered by supply entries, bond wires, and C4 bumps
    /// — must equal the total injected load current (KCL).
    pub fn total_delivered_a(&self, mesh: &StackMesh, drops: &[f64]) -> f64 {
        mesh.elements()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    ElementKind::SupplyEntry | ElementKind::WireBond { .. } | ElementKind::C4Bump
                )
            })
            .map(|e| e.current(drops))
            .sum()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::MeshOptions;
    use pi3d_layout::{Benchmark, MemoryState, StackDesign, TsvConfig, TsvPlacement};

    fn solve(design: &StackDesign) -> (StackMesh, Vec<f64>, f64) {
        let mesh = StackMesh::new(design, MeshOptions::coarse()).expect("mesh builds");
        let state: MemoryState = "0-0-0-2".parse().unwrap();
        let drops = mesh
            .solve(&state, 1.0)
            .expect("solves")
            .node_drops()
            .to_vec();
        let injected: f64 = mesh.load_vector(&state, 1.0).iter().sum();
        (mesh, drops, injected)
    }

    #[test]
    fn delivered_current_matches_injected_current() {
        let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let (mesh, drops, injected) = solve(&design);
        let report = CurrentReport::compute(&mesh, &drops);
        let delivered = report.total_delivered_a(&mesh, &drops);
        assert!(
            (delivered - injected).abs() / injected < 1e-6,
            "KCL violated: delivered {delivered} vs injected {injected}"
        );
    }

    #[test]
    fn every_tsv_interface_carries_the_upper_die_current() {
        let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let (mesh, drops, _) = solve(&design);
        let report = CurrentReport::compute(&mesh, &drops);
        // F2B with 4 dies: interfaces 1..=3 between dies.
        assert_eq!(report.tsv_interfaces.len(), 3);
        // The workload sits on the top die, so each interface carries
        // roughly the top-die current; deeper interfaces carry at least as
        // much as shallower ones carry for dies above them.
        for s in &report.tsv_interfaces {
            assert!(s.total_a > 0.01, "interface total {}", s.total_a);
            assert!(s.crowding() >= 1.0);
        }
    }

    #[test]
    fn fewer_tsvs_crowd_more_current_per_tsv() {
        let state: MemoryState = "0-0-0-2".parse().unwrap();
        let per_tsv = |count: usize| {
            let design = StackDesign::builder(Benchmark::StackedDdr3OffChip)
                .tsv(TsvConfig::new(count, TsvPlacement::Edge).unwrap())
                .build()
                .unwrap();
            let mesh = StackMesh::new(&design, MeshOptions::coarse()).unwrap();
            let solved = mesh.solve(&state, 1.0).unwrap();
            let report = CurrentReport::compute(&mesh, solved.node_drops());
            report.tsv_interfaces.last().unwrap().avg_a
        };
        // The same die current spread over fewer TSVs raises the average
        // per-TSV current. (The *max* is dominated by the fixed pad-row
        // TSVs next to the I/O load, which do not scale with the count.)
        assert!(
            per_tsv(15) > 1.5 * per_tsv(120),
            "15 TSVs: {} vs 120 TSVs: {}",
            per_tsv(15),
            per_tsv(120)
        );
    }

    #[test]
    fn wire_bonds_offload_the_supply_entries() {
        let state: MemoryState = "0-0-0-2".parse().unwrap();
        let entry_current = |wb: bool| {
            let design = StackDesign::builder(Benchmark::StackedDdr3OffChip)
                .wire_bond(wb)
                .build()
                .unwrap();
            let mesh = StackMesh::new(&design, MeshOptions::coarse()).unwrap();
            let solved = mesh.solve(&state, 1.0).unwrap();
            let report = CurrentReport::compute(&mesh, solved.node_drops());
            report.supply_entries.expect("entries exist").total_a
        };
        assert!(entry_current(true) < entry_current(false));
    }

    #[test]
    fn layer_currents_are_reported_for_every_grid() {
        let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let (mesh, drops, _) = solve(&design);
        let report = CurrentReport::compute(&mesh, &drops);
        assert_eq!(report.layers.len(), 8); // 4 dies x 2 layers
        assert!(report.layers.iter().any(|l| l.max_segment_a > 1e-4));
    }
}
