//! §2.2 calibration: read vs write IR drop on the 2D (single-die) DDR3
//! design. The paper measures 22.5 mV (read) and 22.4 mV (write) with
//! similar distributions, justifying its read-only focus.

use crate::error::CoreError;
use crate::platform::Platform;
use crate::report::{mv, TextTable};
use pi3d_layout::{Benchmark, DieState, MemoryState, OpKind, StackDesign};
use pi3d_mesh::MeshOptions;
use std::fmt;

/// Result of the 2D read/write calibration.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Max IR drop of a one-bank-pair interleaving read, mV.
    pub read_mv: f64,
    /// Max IR drop of the matching write, mV.
    pub write_mv: f64,
    /// Normalized L2 difference between the read and write drop maps.
    pub distribution_distance: f64,
}

impl Calibration {
    /// Relative read/write difference.
    pub fn relative_difference(&self) -> f64 {
        (self.read_mv - self.write_mv).abs() / self.read_mv
    }
}

impl fmt::Display for Calibration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "2D DDR3 one-bank interleaving operation (paper: 22.5 / 22.4 mV)"
        )?;
        let mut t = TextTable::new(vec!["operation", "max IR (mV)"]);
        t.row(vec!["read".into(), mv(self.read_mv)]);
        t.row(vec!["write".into(), mv(self.write_mv)]);
        write!(f, "{t}")?;
        writeln!(
            f,
            "distribution distance (normalized L2): {:.4}",
            self.distribution_distance
        )
    }
}

/// Runs the calibration on a single-die (2D) stacked-DDR3 design.
///
/// # Errors
///
/// Propagates design and solver errors.
pub fn run(options: &MeshOptions) -> Result<Calibration, CoreError> {
    let design = StackDesign::builder(Benchmark::StackedDdr3OffChip)
        .dram_dies(1)
        .build()?;
    let platform = Platform::new(options.clone());
    let mesh = platform.evaluate(&design)?;
    let state = MemoryState::new(vec![DieState::active(2)]);

    let read = mesh.solve_op(&state, 1.0, OpKind::Read)?;
    let write = mesh.solve_op(&state, 1.0, OpKind::Write)?;

    // Compare the full drop maps.
    let (r, w) = (read.node_drops(), write.node_drops());
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..r.len() {
        num += (r[i] - w[i]).powi(2);
        den += r[i].powi(2);
    }
    let distribution_distance = (num / den.max(1e-30)).sqrt();

    Ok(Calibration {
        read_mv: read.max_dram().value(),
        write_mv: write.max_dram().value(),
        distribution_distance,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn read_and_write_are_close_like_the_paper() {
        let c = run(&MeshOptions::coarse()).unwrap();
        assert!(c.read_mv > 5.0, "read {}", c.read_mv);
        // Paper: 22.5 vs 22.4 mV (0.4%); allow a few percent.
        assert!(
            c.relative_difference() < 0.08,
            "difference {}",
            c.relative_difference()
        );
        // Distributions are similar.
        assert!(
            c.distribution_distance < 0.2,
            "distance {}",
            c.distribution_distance
        );
    }

    #[test]
    fn single_die_ir_is_near_the_paper_magnitude() {
        // Paper: 22.5 mV for the 2D design; our calibrated substrate should
        // land in the same neighbourhood.
        let c = run(&MeshOptions::default()).unwrap();
        assert!((14.0..32.0).contains(&c.read_mv), "read {}", c.read_mv);
    }
}
