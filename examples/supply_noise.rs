//! Combined VDD + VSS supply-noise and current-crowding analysis — the
//! §2.2 "complementary ground net" extension plus the §3.2 current-
//! crowding view.
//!
//! Run with `cargo run --release --example supply_noise`.

use pi3d::layout::{Benchmark, MemoryState, StackDesign};
use pi3d::mesh::{CurrentReport, MeshOptions, StackMesh, SupplyNoiseAnalysis};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
    let state: MemoryState = "0-0-0-2".parse()?;

    // Combined VDD drop + VSS bounce.
    let noise = SupplyNoiseAnalysis::new(&design, MeshOptions::default())?;
    let report = noise.run(&state, 1.0)?;
    println!("state {state}:");
    println!("  VDD drop  : {:.2}", report.vdd.max_dram());
    println!("  VSS bounce: {:.2}", report.vss.max_dram());
    println!(
        "  total     : {:.2}  (what the cell actually loses)",
        report.max_total()
    );

    // Current crowding through the vertical elements.
    let mesh = StackMesh::new(&design, MeshOptions::default())?;
    let solved = mesh.solve(&state, 1.0)?;
    let currents = CurrentReport::compute(&mesh, solved.node_drops());
    println!("\ncurrent crowding:");
    if let Some(entries) = &currents.supply_entries {
        println!(
            "  supply entries: {} contacts, max {:.1} mA, avg {:.1} mA (crowding {:.2}x)",
            entries.count,
            entries.max_a * 1e3,
            entries.avg_a * 1e3,
            entries.crowding()
        );
    }
    for (i, tsv) in currents.tsv_interfaces.iter().enumerate() {
        println!(
            "  TSV interface {}: {} TSVs, max {:.1} mA, avg {:.1} mA (crowding {:.2}x)",
            i + 1,
            tsv.count,
            tsv.max_a * 1e3,
            tsv.avg_a * 1e3,
            tsv.crowding()
        );
    }
    for layer in &currents.layers {
        println!(
            "  {}: max strap segment {:.1} mA",
            layer.kind,
            layer.max_segment_a * 1e3
        );
    }
    Ok(())
}
