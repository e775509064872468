//! Renders ASCII IR-drop heat maps of every layer in a 3D DRAM stack —
//! the textual equivalent of the paper's Figure 3/4 drop-map plots.
//!
//! Run with `cargo run --release --example ir_heatmap [state]`, e.g.
//! `cargo run --release --example ir_heatmap 0-0-2b-2a`.

use pi3d::layout::{Benchmark, MemoryState, StackDesign};
use pi3d::mesh::{GridKind, MeshOptions, StackMesh};

const SHADES: &[u8] = b" .:-=+*#%@";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let state: MemoryState = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "0-0-0-2".to_owned())
        .parse()?;

    let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
    let mesh = StackMesh::new(&design, MeshOptions::default())?;
    let report = mesh.solve(&state, 1.0)?;

    println!(
        "IR-drop heat map, {} state {state} (max {:.2})\n",
        design.benchmark(),
        report.max_dram()
    );

    let global_max = report.max_dram().value().max(1e-9);
    for (id, grid) in report.registry().iter() {
        // Show the top metal layer of each DRAM die.
        if !matches!(grid.kind, GridKind::DramMetal { layer: 1, .. }) {
            continue;
        }
        let map = report.grid_map(id);
        let stats = report
            .per_grid()
            .iter()
            .find(|g| g.kind == grid.kind)
            .expect("per-grid stats exist");
        println!(
            "{} (max {:.2}, avg {:.2}):",
            grid.kind, stats.max, stats.avg
        );
        for iy in (0..grid.ny).rev() {
            let mut line = String::with_capacity(grid.nx);
            for ix in 0..grid.nx {
                let v = map[iy * grid.nx + ix] / global_max;
                let idx = ((v * (SHADES.len() - 1) as f64).round() as usize).min(SHADES.len() - 1);
                line.push(SHADES[idx] as char);
            }
            println!("  {line}");
        }
        println!();
    }
    println!("scale: ' ' = 0 mV ... '@' = {global_max:.2} mV");
    Ok(())
}
