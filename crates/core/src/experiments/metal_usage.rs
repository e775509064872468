//! §3 design solution: PDN metal-usage scaling. The paper reports that
//! doubling the PDN metal usage reduces IR drop by more than 40% on
//! stacked DDR3.

use crate::error::CoreError;
use crate::platform::Platform;
use crate::report::{mv, pct, TextTable};
use pi3d_layout::{Benchmark, MemoryState, PdnSpec, StackDesign};
use pi3d_mesh::MeshOptions;
use std::fmt;

/// One row of the metal-usage sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetalUsageRow {
    /// Usage multiplier relative to the 10%/20% baseline.
    pub scale: f64,
    /// Resulting max IR drop, mV.
    pub max_ir_mv: f64,
}

/// The §3 metal-usage sweep result.
#[derive(Debug, Clone)]
pub struct MetalUsage {
    /// Rows in increasing scale order; the first is the 1x baseline.
    pub rows: Vec<MetalUsageRow>,
}

impl MetalUsage {
    /// IR-drop reduction of the `2x` row relative to baseline.
    pub fn reduction_at_2x(&self) -> Option<f64> {
        let base = self.rows.first()?.max_ir_mv;
        let twox = self.rows.iter().find(|r| (r.scale - 2.0).abs() < 1e-9)?;
        Some(1.0 - twox.max_ir_mv / base)
    }
}

impl fmt::Display for MetalUsage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "PDN metal usage scaling, off-chip stacked DDR3, 0-0-0-2 (paper: 2x -> >40% lower IR)"
        )?;
        let mut t = TextTable::new(vec!["PDN usage", "max IR (mV)", "vs 1x"]);
        let base = self.rows.first().map(|r| r.max_ir_mv).unwrap_or(1.0);
        for r in &self.rows {
            t.row(vec![
                format!("{:.2}x", r.scale),
                mv(r.max_ir_mv),
                pct(r.max_ir_mv, base),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Runs the sweep over usage multipliers `{1.0, 1.25, 1.5, 1.75, 2.0}`.
///
/// # Errors
///
/// Propagates design and solver errors.
pub fn run(options: &MeshOptions) -> Result<MetalUsage, CoreError> {
    let platform = Platform::new(options.clone());
    let state: MemoryState = "0-0-0-2".parse().expect("literal state");
    let mut rows = Vec::new();
    for &scale in &[1.0, 1.25, 1.5, 1.75, 2.0] {
        let design = StackDesign::builder(Benchmark::StackedDdr3OffChip)
            .pdn(PdnSpec::baseline().scaled(scale))
            .build()?;
        let mesh = platform.evaluate(&design)?;
        let ir = mesh.max_ir(&state, 1.0)?;
        rows.push(MetalUsageRow {
            scale,
            max_ir_mv: ir.value(),
        });
    }
    Ok(MetalUsage { rows })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn more_metal_monotonically_lowers_ir() {
        let result = run(&MeshOptions::coarse()).unwrap();
        for w in result.rows.windows(2) {
            assert!(
                w[1].max_ir_mv < w[0].max_ir_mv,
                "{}x ({}) !< {}x ({})",
                w[1].scale,
                w[1].max_ir_mv,
                w[0].scale,
                w[0].max_ir_mv
            );
        }
    }

    #[test]
    fn doubling_usage_cuts_ir_by_more_than_40_percent() {
        let result = run(&MeshOptions::coarse()).unwrap();
        let reduction = result.reduction_at_2x().expect("2x row present");
        assert!(reduction > 0.40, "2x reduction {reduction}");
    }
}
