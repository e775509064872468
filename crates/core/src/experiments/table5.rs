//! Table 5: impact of memory state and I/O activity in off-chip stacked
//! DDR3 — die power, total power, and max IR under F2B and F2F+B2B.

use crate::error::CoreError;
use crate::platform::Platform;
use crate::report::{mv, TextTable};
use pi3d_layout::{Benchmark, BondingStyle, MemoryState, StackDesign};
use pi3d_mesh::MeshOptions;
use std::fmt;

/// One Table 5 row.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// The memory state.
    pub state: MemoryState,
    /// I/O activity per active die.
    pub io_activity: f64,
    /// Power of one active die, mW.
    pub active_die_mw: f64,
    /// Total stack power, mW.
    pub total_mw: f64,
    /// F2B max IR, mV.
    pub f2b_mv: f64,
    /// F2F+B2B max IR, mV.
    pub f2f_mv: f64,
}

/// Table 5 result.
#[derive(Debug, Clone)]
pub struct Table5 {
    /// Rows in paper order.
    pub rows: Vec<Table5Row>,
}

impl Table5 {
    /// Finds the row for `(state, activity)`.
    pub fn row(&self, state: &str, activity: f64) -> Option<&Table5Row> {
        self.rows
            .iter()
            .find(|r| r.state.to_string() == state && (r.io_activity - activity).abs() < 1e-9)
    }
}

impl fmt::Display for Table5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Memory state and I/O activity, off-chip stacked DDR3")?;
        let mut t = TextTable::new(vec![
            "state",
            "IO/die",
            "active die (mW)",
            "total (mW)",
            "F2B (mV)",
            "F2F+B2B (mV)",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.state.to_string(),
                format!("{:.0}%", r.io_activity * 100.0),
                format!("{:.1}", r.active_die_mw),
                format!("{:.1}", r.total_mw),
                mv(r.f2b_mv),
                mv(r.f2f_mv),
            ]);
        }
        write!(f, "{t}")
    }
}

/// The paper's six (state, activity) combinations.
pub const TABLE5_CASES: [(&str, f64); 6] = [
    ("0-0-0-2", 1.0),
    ("2-0-0-0", 1.0),
    ("0-0-0-2", 0.5),
    ("0-0-2-2", 0.5),
    ("0-0-0-2", 0.25),
    ("2-2-2-2", 0.25),
];

/// Runs all six combinations under both bondings.
///
/// # Errors
///
/// Propagates design and solver errors.
pub fn run(options: &MeshOptions) -> Result<Table5, CoreError> {
    let platform = Platform::new(options.clone());
    let f2b = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
    let f2f = StackDesign::builder(Benchmark::StackedDdr3OffChip)
        .bonding(BondingStyle::F2F)
        .build()?;
    let model = f2b.power_model();
    let f2b_mesh = platform.evaluate(&f2b)?;
    let f2f_mesh = platform.evaluate(&f2f)?;

    let mut rows = Vec::new();
    for (text, io_activity) in TABLE5_CASES {
        let state: MemoryState = text.parse().expect("literal state");
        let active_die_mw = model
            .die_power(
                state.dies().map(|d| d.active_banks).max().unwrap_or(0),
                io_activity,
            )
            .value();
        let total_mw: f64 = state
            .dies()
            .map(|d| model.die_power(d.active_banks, io_activity).value())
            .sum();
        let f2b_mv = f2b_mesh.max_ir(&state, io_activity)?.value();
        let f2f_mv = f2f_mesh.max_ir(&state, io_activity)?.value();
        rows.push(Table5Row {
            state,
            io_activity,
            active_die_mw,
            total_mw,
            f2b_mv,
            f2f_mv,
        });
    }
    Ok(Table5 { rows })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn lower_activity_lowers_power_and_ir() {
        let t = run(&MeshOptions::coarse()).unwrap();
        let full = t.row("0-0-0-2", 1.0).unwrap();
        let half = t.row("0-0-0-2", 0.5).unwrap();
        let quarter = t.row("0-0-0-2", 0.25).unwrap();
        assert!(full.active_die_mw > half.active_die_mw);
        assert!(half.active_die_mw > quarter.active_die_mw);
        assert!(full.f2b_mv > half.f2b_mv && half.f2b_mv > quarter.f2b_mv);
        assert!(full.f2f_mv > half.f2f_mv && half.f2f_mv > quarter.f2f_mv);
    }

    #[test]
    fn balanced_reads_beat_concentrated_reads_at_full_bandwidth() {
        // Paper: 2-2-2-2 @ 25% has lower max IR than 0-0-0-2 @ 100%
        // for F2B even though total power is higher.
        let t = run(&MeshOptions::coarse()).unwrap();
        let concentrated = t.row("0-0-0-2", 1.0).unwrap();
        let balanced = t.row("2-2-2-2", 0.25).unwrap();
        assert!(balanced.total_mw > concentrated.total_mw);
        assert!(
            balanced.f2b_mv < concentrated.f2b_mv,
            "balanced {} !< concentrated {}",
            balanced.f2b_mv,
            concentrated.f2b_mv
        );
    }

    #[test]
    fn f2f_worst_case_is_the_overlapping_pair_state() {
        // Paper: for F2F the worst case moves from 0-0-0-2 @ 100% to the
        // intra-pair-overlapping 0-0-2-2 @ 50%.
        let t = run(&MeshOptions::coarse()).unwrap();
        let default_state = t.row("0-0-0-2", 1.0).unwrap();
        let overlap = t.row("0-0-2-2", 0.5).unwrap();
        assert!(
            overlap.f2f_mv > default_state.f2f_mv,
            "F2F worst case: 0-0-2-2@50% {} !> 0-0-0-2@100% {}",
            overlap.f2f_mv,
            default_state.f2f_mv
        );
        // While under F2B the default state stays the worse of the two
        // within a modest margin.
        assert!(overlap.f2b_mv < default_state.f2b_mv * 1.15);
    }

    #[test]
    fn bottom_die_activity_is_cheaper_than_top_die_activity() {
        let t = run(&MeshOptions::coarse()).unwrap();
        let top = t.row("0-0-0-2", 1.0).unwrap();
        let bottom = t.row("2-0-0-0", 1.0).unwrap();
        assert!(bottom.f2b_mv < top.f2b_mv);
        assert!(bottom.f2f_mv < top.f2f_mv);
    }
}
