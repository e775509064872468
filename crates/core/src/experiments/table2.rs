//! Table 2: TSV location and RDL options (the four designs of Figure 6).
//!
//! | option | DRAM TSVs | supply entry | RDL | paper IR (mV) | paper cost |
//! |---|---|---|---|---|---|
//! | (a) | edge | at TSVs | no | 30.03 | highest |
//! | (b) | centre | at TSVs | no | 50.76 | lowest |
//! | (c) | edge | centre | yes | 38.46 | high |
//! | (d) | centre | centre | yes | 49.36 | medium |

use crate::error::CoreError;
use crate::platform::Platform;
use crate::report::{mv, TextTable};
use pi3d_layout::{
    Benchmark, MemoryState, RdlConfig, RdlScope, StackDesign, TsvConfig, TsvPlacement,
};
use pi3d_mesh::MeshOptions;
use std::fmt;

/// One Table 2 design option.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Option letter, `(a)`–`(d)`.
    pub option: char,
    /// DRAM TSV placement.
    pub placement: TsvPlacement,
    /// Whether an RDL bridges the bottom interface.
    pub rdl: bool,
    /// Max DRAM IR, mV.
    pub max_ir_mv: f64,
    /// Table 8 cost.
    pub cost: f64,
}

/// Table 2 result.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Rows (a)–(d).
    pub rows: Vec<Table2Row>,
}

impl Table2 {
    /// Finds a row by its option letter.
    pub fn option(&self, letter: char) -> Option<&Table2Row> {
        self.rows.iter().find(|r| r.option == letter)
    }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TSV location and RDL options, off-chip DDR3 (paper: 30.03 / 50.76 / 38.46 / 49.36 mV)"
        )?;
        let mut t = TextTable::new(vec!["option", "TSVs", "RDL", "max IR (mV)", "cost"]);
        for r in &self.rows {
            t.row(vec![
                format!("({})", r.option),
                r.placement.to_string(),
                if r.rdl { "yes" } else { "no" }.into(),
                mv(r.max_ir_mv),
                format!("{:.3}", r.cost),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Runs the four Table 2 options on the off-chip stacked DDR3 design.
///
/// # Errors
///
/// Propagates design and solver errors.
pub fn run(options: &MeshOptions) -> Result<Table2, CoreError> {
    let platform = Platform::new(options.clone());
    let state: MemoryState = "0-0-0-2".parse().expect("literal state");
    let specs: [(char, TsvPlacement, bool); 4] = [
        ('a', TsvPlacement::Edge, false),
        ('b', TsvPlacement::Center, false),
        ('c', TsvPlacement::Edge, true),
        ('d', TsvPlacement::Center, true),
    ];
    let mut rows = Vec::new();
    for (option, placement, rdl) in specs {
        let design = StackDesign::builder(Benchmark::StackedDdr3OffChip)
            .tsv(TsvConfig::new(33, placement)?)
            .rdl(if rdl {
                RdlConfig::enabled(RdlScope::BottomOnly)
            } else {
                RdlConfig::none()
            })
            .build()?;
        let cost = design.cost().total;
        let mesh = platform.evaluate(&design)?;
        let max_ir_mv = mesh.max_ir(&state, 1.0)?.value();
        rows.push(Table2Row {
            option,
            placement,
            rdl,
            max_ir_mv,
            cost,
        });
    }
    Ok(Table2 { rows })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn option_orderings_match_the_paper() {
        let t = run(&MeshOptions::coarse()).unwrap();
        let a = t.option('a').unwrap();
        let b = t.option('b').unwrap();
        let c = t.option('c').unwrap();
        let d = t.option('d').unwrap();

        // IR: edge TSVs (a) best; centre without RDL (b) worst;
        // RDL recovers part of the edge benefit (a < c < b).
        assert!(
            a.max_ir_mv < c.max_ir_mv,
            "a {} !< c {}",
            a.max_ir_mv,
            c.max_ir_mv
        );
        assert!(
            c.max_ir_mv < b.max_ir_mv,
            "c {} !< b {}",
            c.max_ir_mv,
            b.max_ir_mv
        );
        // RDL on a centre-TSV design helps a little (d <= b).
        assert!(
            d.max_ir_mv <= b.max_ir_mv + 0.5,
            "d {} !<= b {}",
            d.max_ir_mv,
            b.max_ir_mv
        );

        // Cost: centre-only (b) is the cheapest; edge without RDL costs
        // more than centre with RDL is not guaranteed, but (a) > (b).
        assert!(b.cost < a.cost);
        assert!(b.cost < c.cost && b.cost < d.cost);
    }
}
