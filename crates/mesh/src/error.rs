//! Typed mesh-level errors: solver failures plus graceful degradation of
//! defective supply networks.
//!
//! A partially-faulted mesh whose every node still reaches the supply
//! solves normally; a mesh with *islanded* nodes has a singular conductance
//! matrix, and without intervention the failure surfaces only deep inside
//! the solver (a diverging CG run or a broken preconditioner pivot). The
//! connectivity audit in [`StackMesh::new`](crate::StackMesh::new)
//! intercepts that case before factoring and reports it as
//! [`MeshError::DegradedSupply`] with the full diagnostic.

use crate::faults::FaultReport;
use pi3d_solver::SolverError;
use std::error::Error;
use std::fmt;

/// Diagnostic for a supply network degraded to the point of disconnection:
/// at least one node has no resistive path to the ideal supply.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct DegradedSupplyReport {
    /// Nodes with no path to the supply.
    pub islanded_nodes: usize,
    /// Total node count of the mesh.
    pub total_nodes: usize,
    /// Number of disconnected components among the islanded nodes.
    pub islands: usize,
    /// DRAM dies (0 = bottom) owning at least one islanded node.
    pub affected_dies: Vec<usize>,
    /// Whether the logic die owns islanded nodes.
    pub logic_affected: bool,
    /// Supply contacts (entries, C4 bumps, bond wires) still present.
    pub surviving_supply_paths: usize,
    /// Supply contacts the design intended (surviving + opened).
    pub total_supply_paths: usize,
    /// Resistance of the worst (highest-Ω) surviving supply contact, if
    /// any survive.
    pub worst_surviving_path_ohms: Option<f64>,
    /// The injected-defect tally, when the mesh was built with faults.
    pub faults: Option<FaultReport>,
}

impl fmt::Display for DegradedSupplyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} of {} nodes have no path to the supply ({} island{})",
            self.islanded_nodes,
            self.total_nodes,
            self.islands,
            if self.islands == 1 { "" } else { "s" }
        )?;
        if !self.affected_dies.is_empty() {
            let dies: Vec<String> = self
                .affected_dies
                .iter()
                .map(|d| format!("DRAM{}", d + 1))
                .collect();
            write!(f, "; affected dies: {}", dies.join(", "))?;
        }
        if self.logic_affected {
            write!(f, "; logic die affected")?;
        }
        write!(
            f,
            "; {} of {} supply contacts surviving",
            self.surviving_supply_paths, self.total_supply_paths
        )?;
        if let Some(r) = self.worst_surviving_path_ohms {
            write!(f, " (worst {r:.3} ohm)")?;
        }
        Ok(())
    }
}

/// Errors produced while building or solving a stack mesh.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MeshError {
    /// A matrix-assembly or solve failure from the linear-algebra layer.
    Solver(SolverError),
    /// The supply network is degraded past the point of solvability:
    /// the connectivity audit found nodes with no path to the supply.
    DegradedSupply(Box<DegradedSupplyReport>),
}

impl MeshError {
    /// The degradation report, if this is a [`MeshError::DegradedSupply`].
    pub fn degraded_supply(&self) -> Option<&DegradedSupplyReport> {
        match self {
            MeshError::DegradedSupply(report) => Some(report),
            MeshError::Solver(_) => None,
        }
    }
}

impl fmt::Display for MeshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeshError::Solver(e) => write!(f, "{e}"),
            MeshError::DegradedSupply(report) => {
                write!(f, "degraded supply: {report}")
            }
        }
    }
}

impl Error for MeshError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MeshError::Solver(e) => Some(e),
            MeshError::DegradedSupply(_) => None,
        }
    }
}

impl From<SolverError> for MeshError {
    fn from(e: SolverError) -> Self {
        MeshError::Solver(e)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn report() -> DegradedSupplyReport {
        DegradedSupplyReport {
            islanded_nodes: 392,
            total_nodes: 1568,
            islands: 1,
            affected_dies: vec![3],
            logic_affected: false,
            surviving_supply_paths: 12,
            total_supply_paths: 30,
            worst_surviving_path_ohms: Some(1.25),
            faults: None,
        }
    }

    #[test]
    fn degraded_supply_display_names_the_damage() {
        let msg = MeshError::DegradedSupply(Box::new(report())).to_string();
        assert!(
            msg.starts_with("degraded supply: 392 of 1568 nodes"),
            "{msg}"
        );
        assert!(msg.contains("DRAM4"), "{msg}");
        assert!(msg.contains("12 of 30 supply contacts"), "{msg}");
        assert!(msg.contains("1.25"), "{msg}");
    }

    #[test]
    fn solver_errors_convert_and_chain() {
        let e: MeshError = SolverError::FloatingNode { row: 7 }.into();
        assert!(e.to_string().contains("node 7"));
        assert!(e.degraded_supply().is_none());
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn accessor_exposes_the_report() {
        let e = MeshError::DegradedSupply(Box::new(report()));
        assert_eq!(e.degraded_supply().unwrap().islanded_nodes, 392);
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MeshError>();
    }
}
