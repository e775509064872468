//! Combined supply-noise analysis: VDD drop plus VSS (ground) bounce.
//!
//! The paper's R-Mesh targets the VDD net; Section 2.2 notes the ground
//! net "can be analyzed in complementary fashion". The DRAM PDN is laid
//! out symmetrically, so the same extraction runs with the VSS usages and
//! the same load currents (every milliamp drawn from VDD returns through
//! VSS). The voltage a DRAM cell actually sees collapses by the *sum* of
//! the local VDD drop and VSS bounce.

use crate::analysis::IrDropReport;
use crate::build::{MeshOptions, StackMesh};
use crate::error::MeshError;
use pi3d_layout::units::MilliVolts;
use pi3d_layout::{MemoryState, PowerNet, StackDesign};
use pi3d_solver::SolverError;

/// Combined VDD + VSS noise result for one memory state.
#[derive(Debug, Clone)]
pub struct SupplyNoiseReport {
    /// The VDD-net analysis.
    pub vdd: IrDropReport,
    /// The VSS-net analysis.
    pub vss: IrDropReport,
}

impl SupplyNoiseReport {
    /// Worst-case total supply-voltage collapse across DRAM nodes: the
    /// per-node sum of VDD drop and VSS bounce, maximized over the stack.
    ///
    /// The two meshes share node numbering (identical geometry), so the
    /// sum is exact per node rather than a max-plus-max overestimate.
    pub fn max_total(&self) -> MilliVolts {
        let vdd = self.vdd.node_drops();
        let vss = self.vss.node_drops();
        let mut max = 0.0f64;
        for (_, grid) in self.vdd.registry().iter() {
            if grid.kind.is_logic() {
                continue;
            }
            for iy in 0..grid.ny {
                for ix in 0..grid.nx {
                    let n = grid.node(ix, iy);
                    max = max.max(vdd[n] + vss[n]);
                }
            }
        }
        MilliVolts(max * 1e3)
    }
}

/// Analyzer holding both nets' meshes for repeated state solves.
///
/// # Examples
///
/// ```
/// use pi3d_layout::{Benchmark, StackDesign};
/// use pi3d_mesh::{MeshOptions, SupplyNoiseAnalysis};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
/// let analysis = SupplyNoiseAnalysis::new(&design, MeshOptions::coarse())?;
/// let report = analysis.run(&"0-0-0-2".parse()?, 1.0)?;
/// // Symmetric nets: total collapse is twice the single-net drop.
/// assert!(report.max_total().value() > report.vdd.max_dram().value());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SupplyNoiseAnalysis {
    vdd: StackMesh,
    vss: StackMesh,
}

impl SupplyNoiseAnalysis {
    /// Builds both nets' meshes for a design.
    ///
    /// # Errors
    ///
    /// Propagates mesh-assembly failures.
    pub fn new(design: &StackDesign, options: MeshOptions) -> Result<Self, MeshError> {
        let vdd_options = MeshOptions {
            net: PowerNet::Vdd,
            ..options.clone()
        };
        let vss_options = MeshOptions {
            net: PowerNet::Vss,
            ..options
        };
        Ok(SupplyNoiseAnalysis {
            vdd: StackMesh::new(design, vdd_options)?,
            vss: StackMesh::new(design, vss_options)?,
        })
    }

    /// Solves both nets for one memory state.
    ///
    /// # Errors
    ///
    /// Propagates solver non-convergence.
    pub fn run(
        &self,
        state: &MemoryState,
        io_activity: f64,
    ) -> Result<SupplyNoiseReport, SolverError> {
        Ok(SupplyNoiseReport {
            vdd: self.vdd.solve(state, io_activity)?,
            vss: self.vss.solve(state, io_activity)?,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pi3d_layout::{Benchmark, PdnSpec};

    #[test]
    fn symmetric_nets_double_the_noise() {
        let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let analysis = SupplyNoiseAnalysis::new(&design, MeshOptions::coarse()).unwrap();
        let report = analysis.run(&"0-0-0-2".parse().unwrap(), 1.0).unwrap();
        let vdd = report.vdd.max_dram().value();
        let vss = report.vss.max_dram().value();
        assert!(
            (vdd - vss).abs() / vdd < 1e-9,
            "symmetric nets differ: {vdd} vs {vss}"
        );
        let total = report.max_total().value();
        assert!(
            (total - 2.0 * vdd).abs() / total < 1e-9,
            "total {total} vs 2x {vdd}"
        );
    }

    #[test]
    fn asymmetric_vss_changes_only_the_vss_net() {
        let pdn = PdnSpec::baseline().with_vss_usage(0.15, 0.30).unwrap();
        let design = StackDesign::builder(Benchmark::StackedDdr3OffChip)
            .pdn(pdn)
            .build()
            .unwrap();
        let analysis = SupplyNoiseAnalysis::new(&design, MeshOptions::coarse()).unwrap();
        let report = analysis.run(&"0-0-0-2".parse().unwrap(), 1.0).unwrap();
        let vdd = report.vdd.max_dram().value();
        let vss = report.vss.max_dram().value();
        // The beefier VSS net bounces less than the VDD net drops.
        assert!(vss < vdd, "vss {vss} !< vdd {vdd}");
        // Combined noise is between 1x and 2x the VDD drop.
        let total = report.max_total().value();
        assert!(total > vdd && total < 2.0 * vdd);
    }
}
