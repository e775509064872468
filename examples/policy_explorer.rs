//! Explores IR-drop-aware read scheduling: builds the IR lookup table for
//! the baseline stacked-DDR3 design, then sweeps the IR-drop constraint for
//! the three policies of the paper's Section 5.2, printing runtime,
//! bandwidth, and the max IR drop actually entered.
//!
//! Run with `cargo run --release --example policy_explorer`.

use pi3d::core::{build_ir_lut_from_mesh, Platform};
use pi3d::layout::units::MilliVolts;
use pi3d::layout::{Benchmark, StackDesign};
use pi3d::memsim::{MemorySimulator, ReadPolicy, SimConfig, TimingParams, WorkloadSpec};
use pi3d::mesh::MeshOptions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
    let platform = Platform::new(MeshOptions::default());
    println!(
        "building IR-drop lookup table for {} ...",
        design.benchmark()
    );
    let mesh = platform.evaluate(&design)?;
    let lut = build_ir_lut_from_mesh(&mesh, 2)?;
    println!("tabulated {} memory states\n", lut.state_count());

    let workload = WorkloadSpec::paper_ddr3();
    let requests = workload.generate();
    println!(
        "workload: {} reads, one every {} cycles, {:.0}% row-hit locality\n",
        workload.count,
        workload.arrival_interval,
        workload.row_hit_rate * 100.0
    );

    // The standard policy is constraint-blind; run it once as the anchor.
    let standard = MemorySimulator::new(
        TimingParams::ddr3_1600(),
        SimConfig::paper_ddr3(),
        ReadPolicy::standard(),
        lut.clone(),
    )
    .run(&requests)?;
    println!(
        "standard policy (tRRD/tFAW): runtime {:7.2} us, bandwidth {:.3} read/clk, max IR {:.2}",
        standard.runtime_us, standard.bandwidth_reads_per_clk, standard.max_ir
    );

    println!("\nconstraint sweep (IR-aware policies):");
    println!(
        "{:>10}  {:>22}  {:>22}",
        "cap (mV)", "FCFS runtime/BW", "DistR runtime/BW"
    );
    for cap in [18.0, 20.0, 22.0, 24.0, 26.0, 30.0] {
        let mut cells = Vec::new();
        for policy in [
            ReadPolicy::ir_aware_fcfs(MilliVolts(cap)),
            ReadPolicy::ir_aware_distr(MilliVolts(cap)),
        ] {
            let sim = MemorySimulator::new(
                TimingParams::ddr3_1600(),
                SimConfig::paper_ddr3(),
                policy,
                lut.clone(),
            );
            match sim.run(&requests) {
                Ok(stats) => cells.push(format!(
                    "{:7.2} us / {:.3}",
                    stats.runtime_us, stats.bandwidth_reads_per_clk
                )),
                Err(_) => cells.push("no state allowed".to_owned()),
            }
        }
        println!("{cap:>10.0}  {:>22}  {:>22}", cells[0], cells[1]);
    }
    Ok(())
}
