//! Table 7: max IR drop of the six case-study designs (the inputs to the
//! Figure 9 performance sweep).
//!
//! Paper values: 30.03 / 22.15 / 17.18 / 64.41 / 30.04 / 65.43 mV.

use crate::error::CoreError;
use crate::experiments::cases::CaseSpec;
use crate::platform::Platform;
use crate::report::{mv, TextTable};
use pi3d_layout::MemoryState;
use pi3d_mesh::MeshOptions;
use std::fmt;

/// One Table 7 case row.
#[derive(Debug, Clone)]
pub struct Table7Row {
    /// The case specification.
    pub case: CaseSpec,
    /// Max DRAM IR at the default `0-0-0-2` state, mV.
    pub max_ir_mv: f64,
}

/// Table 7 result.
#[derive(Debug, Clone)]
pub struct Table7 {
    /// The six cases in order.
    pub rows: Vec<Table7Row>,
}

impl Table7 {
    /// Row by 1-based case id.
    pub fn case(&self, id: usize) -> Option<&Table7Row> {
        self.rows.iter().find(|r| r.case.id == id)
    }
}

impl fmt::Display for Table7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Case study, stacked DDR3, 0-0-0-2 (paper: 30.03/22.15/17.18/64.41/30.04/65.43 mV)"
        )?;
        let mut t = TextTable::new(vec!["case", "configuration", "max IR (mV)"]);
        for r in &self.rows {
            t.row(vec![r.case.id.to_string(), r.case.label(), mv(r.max_ir_mv)]);
        }
        write!(f, "{t}")
    }
}

/// Runs all six cases.
///
/// # Errors
///
/// Propagates design and solver errors.
pub fn run(options: &MeshOptions) -> Result<Table7, CoreError> {
    let platform = Platform::new(options.clone());
    let state: MemoryState = "0-0-0-2".parse().expect("literal state");
    let mut rows = Vec::new();
    for case in CaseSpec::all() {
        let design = case.build()?;
        let mesh = platform.evaluate(&design)?;
        rows.push(Table7Row {
            case,
            max_ir_mv: mesh.max_ir(&state, 1.0)?.value(),
        });
    }
    Ok(Table7 { rows })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn case_orderings_match_the_paper() {
        let t = run(&MeshOptions::coarse()).unwrap();
        let ir = |id: usize| t.case(id).unwrap().max_ir_mv;
        // 1.5x PDN (2) beats baseline (1); F2F (3) beats both.
        assert!(ir(2) < ir(1), "case2 {} !< case1 {}", ir(2), ir(1));
        assert!(ir(3) < ir(2), "case3 {} !< case2 {}", ir(3), ir(2));
        // On-chip shared (4) is far worse than off-chip (1).
        assert!(ir(4) > 1.5 * ir(1), "case4 {} vs case1 {}", ir(4), ir(1));
        // Wire bonding (5) recovers the on-chip penalty to near off-chip.
        assert!(ir(5) < 0.7 * ir(4), "case5 {} vs case4 {}", ir(5), ir(4));
        // On-chip F2F (6) stays about as bad as case 4 (paper: 65.43 vs
        // 64.41 — F2F does not fix logic coupling).
        assert!(
            (ir(6) / ir(4) - 1.0).abs() < 0.25,
            "case6 {} vs case4 {}",
            ir(6),
            ir(4)
        );
    }
}
