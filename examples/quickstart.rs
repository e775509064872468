//! Quickstart: build a 3D DRAM design, analyze its IR drop, and print a
//! summary for a few memory states.
//!
//! Run with `cargo run --release --example quickstart`.

use pi3d::layout::{Benchmark, BondingStyle, MemoryState, StackDesign};
use pi3d::mesh::{MeshOptions, StackMesh};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's baseline: off-chip stacked DDR3, 33 edge TSVs, F2B.
    let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
    println!("design: {}", design.benchmark());
    println!("{}", design.cost());

    let mesh = StackMesh::new(&design, MeshOptions::default())?;

    for text in ["0-0-0-2", "2-0-0-0", "0-0-2-2", "2-2-2-2"] {
        let state: MemoryState = text.parse()?;
        let report = mesh.solve(&state, 1.0)?;
        println!(
            "state {text:>8}: max IR {:.2}  (per-die:{})",
            report.max_dram(),
            (0..4)
                .map(|d| format!(" {:.1}", report.max_die(d).value()))
                .collect::<String>(),
        );
    }

    // Compare bonding styles on the default state.
    let f2f = StackDesign::builder(Benchmark::StackedDdr3OffChip)
        .bonding(BondingStyle::F2F)
        .build()?;
    let f2f_mesh = StackMesh::new(&f2f, MeshOptions::default())?;
    let state: MemoryState = "0-0-0-2".parse()?;
    let f2b_ir = mesh.max_ir(&state, 1.0)?;
    let f2f_ir = f2f_mesh.max_ir(&state, 1.0)?;
    println!(
        "bonding on 0-0-0-2: F2B {:.2} vs F2F+B2B {:.2} ({:+.1}%)",
        f2b_ir,
        f2f_ir,
        (f2f_ir.value() / f2b_ir.value() - 1.0) * 100.0
    );

    Ok(())
}
