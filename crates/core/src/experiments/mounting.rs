//! §3.1: stand-alone vs mounted-on-logic. With a shared PDN, the logic
//! die's ~50 mV noise couples into the DRAM stack, raising the paper's
//! DRAM IR drop from 30.03 mV (off-chip) to 64.41 mV (on-chip).

use crate::error::CoreError;
use crate::platform::Platform;
use crate::report::{mv, TextTable};
use pi3d_layout::{Benchmark, MemoryState, Mounting, StackDesign};
use pi3d_mesh::MeshOptions;
use std::fmt;

/// §3.1 result rows.
#[derive(Debug, Clone)]
pub struct MountingStudy {
    /// Off-chip DRAM max IR, mV (paper: 30.03).
    pub off_chip_mv: f64,
    /// On-chip (shared PDN) DRAM max IR, mV (paper: 64.41).
    pub on_chip_mv: f64,
    /// Logic die's own max IR, mV (paper: 50.05).
    pub logic_noise_mv: f64,
}

impl fmt::Display for MountingStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Stand-alone vs mounted stacked DDR3, 0-0-0-2 (paper: 30.03 / 64.41 mV, logic 50.05 mV)"
        )?;
        let mut t = TextTable::new(vec![
            "configuration",
            "DRAM max IR (mV)",
            "logic max IR (mV)",
        ]);
        t.row(vec!["off-chip".into(), mv(self.off_chip_mv), "-".into()]);
        t.row(vec![
            "on-chip (shared PDN)".into(),
            mv(self.on_chip_mv),
            mv(self.logic_noise_mv),
        ]);
        write!(f, "{t}")
    }
}

/// Runs the mounting study.
///
/// # Errors
///
/// Propagates design and solver errors.
pub fn run(options: &MeshOptions) -> Result<MountingStudy, CoreError> {
    let platform = Platform::new(options.clone());
    let state: MemoryState = "0-0-0-2".parse().expect("literal state");

    let off = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
    let off_mesh = platform.evaluate(&off)?;
    let off_chip_mv = off_mesh.max_ir(&state, 1.0)?.value();

    let on = StackDesign::builder(Benchmark::StackedDdr3OnChip)
        .mounting(Mounting::OnChip {
            dedicated_tsvs: false,
        })
        .build()?;
    let on_mesh = platform.evaluate(&on)?;
    let report = on_mesh.solve(&state, 1.0)?;

    Ok(MountingStudy {
        off_chip_mv,
        on_chip_mv: report.max_dram().value(),
        logic_noise_mv: report.max_logic().value(),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn logic_coupling_roughly_doubles_the_dram_drop() {
        let s = run(&MeshOptions::coarse()).unwrap();
        // Paper ratio: 64.41 / 30.03 = 2.14.
        let ratio = s.on_chip_mv / s.off_chip_mv;
        assert!((1.5..3.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn logic_noise_is_near_fifty_millivolts() {
        let s = run(&MeshOptions::default()).unwrap();
        assert!(
            (35.0..70.0).contains(&s.logic_noise_mv),
            "logic {}",
            s.logic_noise_mv
        );
    }
}
