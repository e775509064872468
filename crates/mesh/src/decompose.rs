//! Vertical-vs-horizontal IR-drop decomposition.
//!
//! Section 3 of the paper observes that "the vertical IR drop becomes more
//! significant in 3D IC", which motivates its TSV-focused design solutions.
//! This module splits each die's max drop into:
//!
//! * **vertical pedestal** — the minimum drop anywhere on the die, i.e.
//!   the potential of its best-supplied point. Everything below that comes
//!   from the supply path *into* the die (TSVs, interfaces, lower dies).
//! * **horizontal (in-die) drop** — the die's max minus its pedestal: the
//!   lateral spreading resistance from the die's entry points to its
//!   hottest cell.

use crate::analysis::IrDropReport;
use crate::grid::GridKind;
use pi3d_layout::units::MilliVolts;

/// Per-die decomposition of the drop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DieDecomposition {
    /// DRAM die index (0 = bottom).
    pub die: usize,
    /// Max drop anywhere on the die.
    pub max: MilliVolts,
    /// Vertical pedestal: min drop on the die.
    pub vertical: MilliVolts,
    /// Horizontal component: `max − vertical`.
    pub horizontal: MilliVolts,
}

impl DieDecomposition {
    /// Fraction of the die's max drop contributed by the vertical path.
    pub fn vertical_share(&self) -> f64 {
        if self.max.value() > 0.0 {
            self.vertical.value() / self.max.value()
        } else {
            0.0
        }
    }
}

/// Decomposes a solved report into per-die vertical/horizontal components.
///
/// # Examples
///
/// ```
/// use pi3d_layout::{Benchmark, StackDesign};
/// use pi3d_mesh::{decompose_ir, MeshOptions, StackMesh};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
/// let mesh = StackMesh::new(&design, MeshOptions::coarse())?;
/// let report = mesh.solve(&"2-2-2-2".parse()?, 0.25)?;
/// let parts = decompose_ir(&report);
/// // The top die's vertical pedestal exceeds the bottom die's.
/// assert!(parts[3].vertical.value() > parts[0].vertical.value());
/// # Ok(())
/// # }
/// ```
pub fn decompose_ir(report: &IrDropReport) -> Vec<DieDecomposition> {
    let drops = report.node_drops();
    let mut per_die: Vec<(f64, f64)> = Vec::new(); // (min, max)
    for (_, grid) in report.registry().iter() {
        let GridKind::DramMetal { die, .. } = grid.kind else {
            continue;
        };
        if per_die.len() <= die {
            per_die.resize(die + 1, (f64::INFINITY, 0.0));
        }
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                let v = drops[grid.node(ix, iy)];
                per_die[die].0 = per_die[die].0.min(v);
                per_die[die].1 = per_die[die].1.max(v);
            }
        }
    }
    per_die
        .into_iter()
        .enumerate()
        .map(|(die, (min, max))| DieDecomposition {
            die,
            max: MilliVolts(max * 1e3),
            vertical: MilliVolts(min * 1e3),
            horizontal: MilliVolts((max - min) * 1e3),
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{MeshOptions, StackMesh};
    use pi3d_layout::{Benchmark, MemoryState, StackDesign};

    fn report(state: &str) -> IrDropReport {
        let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let mesh = StackMesh::new(&design, MeshOptions::coarse()).unwrap();
        let state: MemoryState = state.parse().unwrap();
        mesh.solve(&state, 0.25).unwrap()
    }

    #[test]
    fn vertical_pedestal_grows_with_stack_height() {
        let parts = decompose_ir(&report("2-2-2-2"));
        assert_eq!(parts.len(), 4);
        for w in parts.windows(2) {
            assert!(
                w[1].vertical.value() >= w[0].vertical.value() - 1e-9,
                "die {} pedestal {} < die {} pedestal {}",
                w[1].die,
                w[1].vertical,
                w[0].die,
                w[0].vertical
            );
        }
    }

    #[test]
    fn decomposition_is_consistent() {
        let parts = decompose_ir(&report("0-0-0-2"));
        for p in &parts {
            assert!(p.vertical.value() >= 0.0);
            assert!(p.horizontal.value() >= 0.0);
            let sum = p.vertical.value() + p.horizontal.value();
            assert!((sum - p.max.value()).abs() < 1e-9);
            assert!((0.0..=1.0).contains(&p.vertical_share()));
        }
        // The active top die has by far the largest horizontal component.
        let top = parts.last().unwrap();
        for p in &parts[..3] {
            assert!(top.horizontal.value() > p.horizontal.value());
        }
    }
}
