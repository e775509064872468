//! Figure 9: workload runtime vs IR-drop constraint for the six Table 7
//! cases. Tighter constraints allow fewer memory states, serializing the
//! controller; designs with lower IR drops tolerate tighter constraints.
//! The paper highlights that the F2F design (case 3) overtakes the 1.5x-PDN
//! design (case 2) below an ~18 mV constraint because PDN sharing shines at
//! low bank activity.

use crate::error::CoreError;
use crate::experiments::cases::CaseSpec;
use crate::experiments::table6::run_policy;
use crate::lut_builder::build_ir_lut_from_mesh;
use crate::platform::Platform;
use crate::report::TextTable;
use pi3d_layout::units::MilliVolts;
use pi3d_memsim::{ReadPolicy, SimConfig, WorkloadSpec};
use pi3d_mesh::MeshOptions;
use std::fmt;

/// Runtime of every case at one IR-drop constraint.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// The IR-drop constraint, mV.
    pub constraint_mv: f64,
    /// Runtime (µs) per case id (index 0 = case 1); `None` when the
    /// constraint admits no memory state for that design.
    pub runtime_us: Vec<Option<f64>>,
}

/// Figure 9 result: the runtime-vs-constraint series for all six cases.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// The cases, in Table 7 order.
    pub cases: Vec<CaseSpec>,
    /// One row per swept constraint, ascending.
    pub rows: Vec<Fig9Row>,
}

impl Fig9 {
    /// Runtime series for one 1-based case id.
    pub fn series(&self, case_id: usize) -> Vec<(f64, Option<f64>)> {
        let idx = case_id - 1;
        self.rows
            .iter()
            .map(|r| (r.constraint_mv, r.runtime_us[idx]))
            .collect()
    }
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Runtime (us) vs IR-drop constraint (dash = no state allowed)"
        )?;
        let mut headers = vec!["constraint (mV)".to_owned()];
        headers.extend(
            self.cases
                .iter()
                .map(|c| format!("case {} ({})", c.id, c.label())),
        );
        let mut t = TextTable::new(headers);
        for r in &self.rows {
            let mut cells = vec![format!("{:.0}", r.constraint_mv)];
            cells.extend(r.runtime_us.iter().map(|v| match v {
                Some(us) => format!("{us:.1}"),
                None => "-".to_owned(),
            }));
            t.row(cells);
        }
        write!(f, "{t}")
    }
}

/// Runs the sweep: `workload` under IR-aware FCFS at each constraint, for
/// each case (the paper: 10,000 reads, constraints 14–34 mV).
///
/// # Errors
///
/// Propagates design, solver, and simulation errors.
pub fn run_with(
    options: &MeshOptions,
    workload: WorkloadSpec,
    constraints: &[f64],
) -> Result<Fig9, CoreError> {
    let platform = Platform::new(options.clone());
    let cases: Vec<CaseSpec> = CaseSpec::all().to_vec();
    let requests = workload.generate();

    // One LUT per case design.
    let mut luts = Vec::new();
    for case in &cases {
        let design = case.build()?;
        let mesh = platform.evaluate(&design)?;
        luts.push(build_ir_lut_from_mesh(
            &mesh,
            SimConfig::paper_ddr3().max_powered_per_die,
        )?);
    }

    let mut rows = Vec::new();
    for &c in constraints {
        let mut runtime_us = Vec::new();
        for lut in &luts {
            let policy = ReadPolicy::ir_aware_fcfs(MilliVolts(c));
            match run_policy(lut, policy, &requests) {
                Ok(stats) => runtime_us.push(Some(stats.runtime_us)),
                Err(CoreError::Simulate(_)) => runtime_us.push(None),
                Err(e) => return Err(e),
            }
        }
        rows.push(Fig9Row {
            constraint_mv: c,
            runtime_us,
        });
    }
    Ok(Fig9 { cases, rows })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn quick() -> Fig9 {
        let mut workload = WorkloadSpec::paper_ddr3();
        workload.count = 1_500;
        run_with(&MeshOptions::coarse(), workload, &[14.0, 20.0, 28.0, 40.0]).unwrap()
    }

    #[test]
    fn looser_constraints_never_slow_a_case_down() {
        let fig = quick();
        for case in 1..=6 {
            let series = fig.series(case);
            let mut last: Option<f64> = None;
            for (c, rt) in series {
                if let (Some(prev), Some(now)) = (last, rt) {
                    assert!(
                        now <= prev * 1.05,
                        "case {case}: runtime rose from {prev} to {now} at {c} mV"
                    );
                }
                if rt.is_some() {
                    last = rt;
                }
            }
        }
    }

    #[test]
    fn low_ir_designs_tolerate_tighter_constraints() {
        let fig = quick();
        // At the tightest constraint the F2F case (3) must still run while
        // the on-chip shared cases (4, 6) cannot.
        let tight = &fig.rows[0];
        assert!(tight.runtime_us[2].is_some(), "case 3 should survive 14 mV");
        assert!(
            tight.runtime_us[3].is_none(),
            "case 4 should stall at 14 mV"
        );
        assert!(
            tight.runtime_us[5].is_none(),
            "case 6 should stall at 14 mV"
        );
    }

    #[test]
    fn f2f_wins_over_extra_metal_under_tight_constraints() {
        // The paper's crossover: below ~18 mV case 3 (F2F) outperforms
        // case 2 (1.5x PDN).
        let fig = quick();
        let tight = &fig.rows[0]; // 14 mV
        match (tight.runtime_us[2], tight.runtime_us[1]) {
            (Some(f2f), Some(metal)) => {
                assert!(
                    f2f <= metal * 1.02,
                    "F2F {f2f} vs 1.5x metal {metal} at 14 mV"
                )
            }
            (Some(_), None) => {} // F2F runs, extra metal stalls: also a win
            other => panic!("unexpected survival pattern {other:?}"),
        }
    }
}
