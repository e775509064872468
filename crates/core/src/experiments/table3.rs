//! Table 3: impact of dedicated TSVs and backside wire bonding.
//!
//! | design | dedicated | baseline (mV) | wire-bonded (mV) | Δ |
//! |---|---|---|---|---|
//! | on-chip | no | 64.41 | 30.04 | −53.4% |
//! | on-chip | yes | 31.18 | 27.18 | −12.8% |
//! | off-chip | — | 30.03 | 27.10 | −9.76% |

use crate::error::CoreError;
use crate::platform::Platform;
use crate::report::{mv, pct, TextTable};
use pi3d_layout::{Benchmark, MemoryState, Mounting, StackDesign};
use pi3d_mesh::MeshOptions;
use std::fmt;

/// One Table 3 row: a mounting/dedicated combination, with and without
/// wire bonding.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Row label matching the paper.
    pub label: &'static str,
    /// Max IR without wire bonding, mV.
    pub baseline_mv: f64,
    /// Max IR with wire bonding, mV.
    pub wire_bonded_mv: f64,
}

impl Table3Row {
    /// Relative change from wire bonding.
    pub fn delta(&self) -> f64 {
        self.wire_bonded_mv / self.baseline_mv - 1.0
    }
}

/// Table 3 result.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// The three paper rows.
    pub rows: Vec<Table3Row>,
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Dedicated TSVs and wire bonding, stacked DDR3, 0-0-0-2")?;
        let mut t = TextTable::new(vec!["design", "baseline (mV)", "wire-bonded (mV)", "delta"]);
        for r in &self.rows {
            t.row(vec![
                r.label.into(),
                mv(r.baseline_mv),
                mv(r.wire_bonded_mv),
                pct(r.wire_bonded_mv, r.baseline_mv),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Runs the three Table 3 design rows.
///
/// # Errors
///
/// Propagates design and solver errors.
pub fn run(options: &MeshOptions) -> Result<Table3, CoreError> {
    let platform = Platform::new(options.clone());
    let state: MemoryState = "0-0-0-2".parse().expect("literal state");
    let configs: [(&'static str, Benchmark, Option<Mounting>); 3] = [
        (
            "on-chip, no dedicated",
            Benchmark::StackedDdr3OnChip,
            Some(Mounting::OnChip {
                dedicated_tsvs: false,
            }),
        ),
        (
            "on-chip, dedicated",
            Benchmark::StackedDdr3OnChip,
            Some(Mounting::OnChip {
                dedicated_tsvs: true,
            }),
        ),
        ("off-chip", Benchmark::StackedDdr3OffChip, None),
    ];
    let mut rows = Vec::new();
    for (label, benchmark, mounting) in configs {
        let mut with = Vec::new();
        for wire_bond in [false, true] {
            let mut builder = StackDesign::builder(benchmark).wire_bond(wire_bond);
            if let Some(m) = mounting {
                builder = builder.mounting(m);
            }
            let design = builder.build()?;
            let mesh = platform.evaluate(&design)?;
            with.push(mesh.max_ir(&state, 1.0)?.value());
        }
        rows.push(Table3Row {
            label,
            baseline_mv: with[0],
            wire_bonded_mv: with[1],
        });
    }
    Ok(Table3 { rows })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn wire_bonding_always_helps_and_most_without_dedicated_tsvs() {
        let t = run(&MeshOptions::coarse()).unwrap();
        assert_eq!(t.rows.len(), 3);
        for r in &t.rows {
            assert!(
                r.delta() < 0.0,
                "{}: WB made it worse ({})",
                r.label,
                r.delta()
            );
        }
        // The shared-PDN on-chip case gains by far the most (paper -53.4%
        // vs -12.8% / -9.76%).
        let shared = t.rows[0].delta().abs();
        assert!(shared > t.rows[1].delta().abs(), "shared {shared}");
        assert!(shared > t.rows[2].delta().abs());
        assert!(shared > 0.30, "shared-PDN WB benefit only {shared}");
    }

    #[test]
    fn dedicated_tsvs_match_off_chip_supply_quality() {
        let t = run(&MeshOptions::coarse()).unwrap();
        let dedicated = t.rows[1].baseline_mv;
        let off_chip = t.rows[2].baseline_mv;
        // Paper: 31.18 vs 30.03 (within ~5%).
        let rel = (dedicated - off_chip).abs() / off_chip;
        assert!(rel < 0.15, "dedicated {dedicated} vs off-chip {off_chip}");
    }
}
