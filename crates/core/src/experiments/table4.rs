//! Table 4: impact of intra-pair overlapping on the F2F benefit. All
//! states have four active banks over two dies, so the zero-bubble I/O
//! activity per die is 50% (which is why the paper's `0-0-2a-2a` row
//! equals its Table 5 `0-0-2-2 @ 50%` row).

use crate::error::CoreError;
use crate::platform::Platform;
use crate::report::{mv, pct, TextTable};
use pi3d_layout::{Benchmark, BondingStyle, MemoryState, StackDesign};
use pi3d_mesh::MeshOptions;
use std::fmt;

/// One Table 4 memory-state row.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// The memory state, e.g. `0-0-2b-2a`.
    pub state: MemoryState,
    /// Whether both dies of an F2F pair have overlapping active banks.
    pub intra_pair_overlap: bool,
    /// F2B max IR, mV.
    pub f2b_mv: f64,
    /// F2F+B2B max IR, mV.
    pub f2f_mv: f64,
}

impl Table4Row {
    /// Relative F2F benefit.
    pub fn delta(&self) -> f64 {
        self.f2f_mv / self.f2b_mv - 1.0
    }
}

/// Table 4 result.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// Rows in paper order.
    pub rows: Vec<Table4Row>,
}

impl Table4 {
    /// Finds the row for a state string.
    pub fn state(&self, text: &str) -> Option<&Table4Row> {
        self.rows.iter().find(|r| r.state.to_string() == text)
    }
}

impl fmt::Display for Table4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Intra-pair overlapping, stacked DDR3 off-chip, 50% I/O activity"
        )?;
        let mut t = TextTable::new(vec![
            "state",
            "overlap",
            "F2B (mV)",
            "F2F+B2B (mV)",
            "delta",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.state.to_string(),
                if r.intra_pair_overlap { "yes" } else { "no" }.into(),
                mv(r.f2b_mv),
                mv(r.f2f_mv),
                pct(r.f2f_mv, r.f2b_mv),
            ]);
        }
        write!(f, "{t}")
    }
}

/// The seven Table 4 states.
pub const TABLE4_STATES: [&str; 7] = [
    "0-0-2a-2a",
    "0-0-2b-2b",
    "0-2a-0-2a",
    "2a-0-0-2a",
    "0-0-2b-2a",
    "0-0-2c-2a",
    "0-0-2d-2a",
];

/// Runs all seven states under both bondings.
///
/// # Errors
///
/// Propagates design and solver errors.
pub fn run(options: &MeshOptions) -> Result<Table4, CoreError> {
    let platform = Platform::new(options.clone());
    let f2b = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
    let f2f = StackDesign::builder(Benchmark::StackedDdr3OffChip)
        .bonding(BondingStyle::F2F)
        .build()?;
    let f2b_mesh = platform.evaluate(&f2b)?;
    let f2f_mesh = platform.evaluate(&f2f)?;

    let mut rows = Vec::new();
    for text in TABLE4_STATES {
        let state: MemoryState = text.parse().expect("literal state");
        let activity = 0.5; // four banks over two dies share the bus
        let f2b_mv = f2b_mesh.max_ir(&state, activity)?.value();
        let f2f_mv = f2f_mesh.max_ir(&state, activity)?.value();
        rows.push(Table4Row {
            intra_pair_overlap: state.has_intra_pair_overlap(),
            state,
            f2b_mv,
            f2f_mv,
        });
    }
    Ok(Table4 { rows })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn overlap_classification_matches_the_paper() {
        let t = run(&MeshOptions::coarse()).unwrap();
        assert!(t.state("0-0-2a-2a").unwrap().intra_pair_overlap);
        assert!(t.state("0-0-2b-2b").unwrap().intra_pair_overlap);
        for s in [
            "0-2a-0-2a",
            "2a-0-0-2a",
            "0-0-2b-2a",
            "0-0-2c-2a",
            "0-0-2d-2a",
        ] {
            assert!(!t.state(s).unwrap().intra_pair_overlap, "{s}");
        }
    }

    #[test]
    fn f2f_benefit_requires_separation() {
        let t = run(&MeshOptions::coarse()).unwrap();
        // Overlapping states see almost no F2F benefit.
        for s in ["0-0-2a-2a", "0-0-2b-2b"] {
            let d = t.state(s).unwrap().delta();
            assert!(d.abs() < 0.12, "{s}: delta {d}");
        }
        // Banks in different pairs see a large benefit (paper ~-44%).
        for s in ["0-2a-0-2a", "2a-0-0-2a"] {
            let d = t.state(s).unwrap().delta();
            assert!(d < -0.25, "{s}: delta {d}");
        }
        // Same-pair separated states sit in between.
        for s in ["0-0-2b-2a", "0-0-2c-2a", "0-0-2d-2a"] {
            let d = t.state(s).unwrap().delta();
            assert!((-0.40..-0.05).contains(&d), "{s}: delta {d}");
        }
    }

    #[test]
    fn edge_banks_have_lower_ir_than_centre_banks() {
        let t = run(&MeshOptions::coarse()).unwrap();
        // Paper: 0-0-2b-2b (18.06) well below 0-0-2a-2a (28.14) under F2B.
        let a = t.state("0-0-2a-2a").unwrap().f2b_mv;
        let b = t.state("0-0-2b-2b").unwrap().f2b_mv;
        assert!(b < a * 0.9, "b {b} !<< a {a}");
    }
}
