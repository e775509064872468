//! Cross-crate integration tests: design → mesh → IR drop → LUT →
//! memory-controller policy, end to end, plus the paper's headline
//! qualitative results.

use pi3d::core::{build_ir_lut_from_mesh, config, ir_cost, sim_setup, Platform};
use pi3d::layout::units::MilliVolts;
use pi3d::layout::{Benchmark, BondingStyle, MemoryState, Mounting, StackDesign};
use pi3d::memsim::{IrDropLut, MemorySimulator, ReadPolicy, SimConfig, TimingParams, WorkloadSpec};
use pi3d::mesh::MeshOptions;

fn platform() -> Platform {
    Platform::new(MeshOptions::coarse())
}

#[test]
fn design_to_policy_pipeline_runs_end_to_end() {
    // The full platform loop the paper's Figure 2 describes: floorplan +
    // PDN generation (layout), R-Mesh analysis (mesh), LUT (core), and
    // cycle-accurate scheduling (memsim).
    let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
    let mesh = platform().evaluate(&design).expect("design evaluates");
    let lut = build_ir_lut_from_mesh(&mesh, 2).expect("LUT builds");
    assert_eq!(lut.state_count(), 80); // 3^4 - 1 non-idle states

    let mut workload = WorkloadSpec::paper_ddr3();
    workload.count = 1_000;
    let sim = MemorySimulator::new(
        TimingParams::ddr3_1600(),
        SimConfig::paper_ddr3(),
        ReadPolicy::ir_aware_distr(MilliVolts(24.0)),
        lut,
    );
    let stats = sim.run(&workload.generate()).expect("simulation completes");
    assert_eq!(stats.completed, 1_000);
    assert!(stats.max_ir.value() <= 24.0 + 1e-9);

    // Cost and Equation (1) compose on top.
    let objective = ir_cost(stats.max_ir.value(), design.cost().total, 0.3);
    assert!(objective > 0.0);
}

/// Runs `policies` through both loops on `design`'s platform LUT with
/// its own `sim_setup` and `reads` requests, and asserts identical stats.
fn assert_loops_agree(
    platform: &Platform,
    design: &StackDesign,
    reads: usize,
    policies: &[ReadPolicy],
) {
    let mesh = platform.evaluate(design).expect("design evaluates");
    let (timing, config, mut workload) = sim_setup(design);
    let lut = build_ir_lut_from_mesh(&mesh, config.max_powered_per_die).expect("LUT builds");
    workload.count = reads;
    let requests = workload.generate();
    for &policy in policies {
        let sim = MemorySimulator::new(timing, config.clone(), policy, lut.clone());
        let event = sim.run(&requests).expect("event loop completes");
        let reference = sim.run_reference(&requests).expect("stepper completes");
        assert_eq!(event, reference, "{:?} {policy:?}", design.benchmark());
        assert_eq!(event.completed, reads as u64, "{policy:?}");
    }
}

fn all_policies(constraint: f64) -> [ReadPolicy; 3] {
    [
        ReadPolicy::standard(),
        ReadPolicy::ir_aware_fcfs(MilliVolts(constraint)),
        ReadPolicy::ir_aware_distr(MilliVolts(constraint)),
    ]
}

#[test]
fn event_loop_matches_reference_stepper_on_a_platform_lut() {
    // The equivalence suite in pi3d-memsim drives synthetic LUTs; this
    // runs both loops on the LUTs the platform builds, as `simulate`,
    // `serve` and Table 6 do. First the ddr3-off baseline at the coarse
    // mesh on the paper's read stream.
    let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
    assert_loops_agree(&platform(), &design, 10_000, &all_policies(24.0));

    // Then the simulate configs `perfbench`'s serve-mixed workload
    // sends: every baseline at the default mesh with its own stack (Wide
    // I/O 4 channels x 16 banks, HMC 16 x 32) and timings, all three
    // policies at 30 and 40 mV ...
    let default_mesh = Platform::new(MeshOptions::default());
    for benchmark in Benchmark::ALL {
        let design = StackDesign::baseline(benchmark);
        let [standard, fcfs_30, distr_30] = all_policies(30.0);
        let [_, fcfs_40, distr_40] = all_policies(40.0);
        assert_loops_agree(
            &default_mesh,
            &design,
            10_000,
            &[standard, fcfs_30, distr_30, fcfs_40, distr_40],
        );
    }
    // ... and its first cold config, a ddr3-on metal-usage variant.
    let cold = config::parse_design("benchmark = ddr3-on\nm2_usage = 0.10\nm3_usage = 0.10\n")
        .expect("cold config parses");
    assert_loops_agree(
        &default_mesh,
        &cold,
        10_000,
        &[ReadPolicy::ir_aware_distr(MilliVolts(40.0))],
    );
}

/// The paper's 200,000-read stream through both loops, on the coarse
/// ddr3-off LUT at 24 mV. About 20 s, most of it in the reference
/// stepper, so it is ignored by default; `ci.sh` runs it with
/// `--ignored`.
#[test]
#[ignore = "slow: about 20 s; ci.sh runs it"]
fn event_loop_matches_reference_stepper_on_the_paper_long_stream() {
    let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
    assert_loops_agree(&platform(), &design, 200_000, &all_policies(24.0));
}

#[test]
fn headline_packaging_results_hold() {
    let p = platform();
    let state: MemoryState = "0-0-0-2".parse().unwrap();

    let baseline = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
    let base_ir = p.evaluate(&baseline).unwrap().max_ir(&state, 1.0).unwrap();

    // F2F+B2B cuts the default-state IR by a large fraction (paper -42.8%).
    let f2f = StackDesign::builder(Benchmark::StackedDdr3OffChip)
        .bonding(BondingStyle::F2F)
        .build()
        .unwrap();
    let f2f_ir = p.evaluate(&f2f).unwrap().max_ir(&state, 1.0).unwrap();
    let gain = 1.0 - f2f_ir.value() / base_ir.value();
    assert!(gain > 0.3, "F2F gain {gain}");

    // Logic-PDN sharing inflates the DRAM drop (paper 30.03 -> 64.41).
    let shared = StackDesign::builder(Benchmark::StackedDdr3OnChip)
        .mounting(Mounting::OnChip {
            dedicated_tsvs: false,
        })
        .build()
        .unwrap();
    let shared_ir = p.evaluate(&shared).unwrap().max_ir(&state, 1.0).unwrap();
    assert!(shared_ir.value() > 1.4 * base_ir.value());

    // Dedicated TSVs restore roughly off-chip quality (paper 31.18).
    let dedicated = StackDesign::baseline(Benchmark::StackedDdr3OnChip);
    let dedicated_ir = p.evaluate(&dedicated).unwrap().max_ir(&state, 1.0).unwrap();
    assert!((dedicated_ir.value() - base_ir.value()).abs() / base_ir.value() < 0.15);
}

#[test]
fn all_four_benchmarks_analyze() {
    let p = platform();
    for benchmark in Benchmark::ALL {
        let design = StackDesign::baseline(benchmark);
        let dies = design.dram_die_count();
        let mut state = MemoryState::idle(dies);
        state = state.with_die(dies - 1, pi3d::layout::DieState::active(2));
        let ir = p.evaluate(&design).unwrap().max_ir(&state, 1.0).unwrap();
        assert!(
            ir.value() > 1.0 && ir.value() < 200.0,
            "{benchmark}: IR {ir} out of plausible range"
        );
    }
}

#[test]
fn hmc_runs_hotter_than_wide_io() {
    // Table 9 baselines: HMC 47.90 mV vs Wide I/O 13.56 mV.
    let p = platform();
    let ir_of = |benchmark: Benchmark, banks: usize| {
        let design = StackDesign::baseline(benchmark);
        let dies = design.dram_die_count();
        let state =
            MemoryState::idle(dies).with_die(dies - 1, pi3d::layout::DieState::active(banks));
        p.evaluate(&design)
            .unwrap()
            .max_ir(&state, 1.0)
            .unwrap()
            .value()
    };
    let hmc = ir_of(Benchmark::Hmc, 8);
    let wide_io = ir_of(Benchmark::WideIo, 4);
    assert!(hmc > 2.0 * wide_io, "HMC {hmc} vs Wide I/O {wide_io}");
}

#[test]
fn tighter_constraints_trade_performance_monotonically() {
    let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
    let mesh = platform().evaluate(&design).unwrap();
    let lut = build_ir_lut_from_mesh(&mesh, 2).unwrap();
    let mut workload = WorkloadSpec::paper_ddr3();
    workload.count = 1_500;
    let requests = workload.generate();

    let mut last_runtime = f64::INFINITY;
    for cap in [20.0, 24.0, 30.0] {
        let sim = MemorySimulator::new(
            TimingParams::ddr3_1600(),
            SimConfig::paper_ddr3(),
            ReadPolicy::ir_aware_fcfs(MilliVolts(cap)),
            lut.clone(),
        );
        let stats = sim.run(&requests).expect("runs at this cap");
        assert!(
            stats.runtime_us <= last_runtime * 1.02,
            "cap {cap}: runtime {} vs previous {last_runtime}",
            stats.runtime_us
        );
        last_runtime = stats.runtime_us;
    }
}

#[test]
fn lut_reflects_mesh_orderings() {
    // The LUT the controller uses must preserve the physics: top-die
    // states cost more than bottom-die states, more banks cost more,
    // higher activity costs more.
    let design = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
    let mesh = platform().evaluate(&design).unwrap();
    let lut: IrDropLut = build_ir_lut_from_mesh(&mesh, 2).unwrap();

    let at = |counts: &[u8], act: f64| lut.lookup(counts, act).unwrap().value();
    assert!(at(&[0, 0, 0, 1], 1.0) > at(&[1, 0, 0, 0], 1.0));
    assert!(at(&[0, 0, 0, 2], 1.0) > at(&[0, 0, 0, 1], 1.0));
    assert!(at(&[0, 0, 0, 2], 1.0) > at(&[0, 0, 0, 2], 0.25));
    // Balanced beats concentrated at matched total work.
    assert!(at(&[2, 2, 2, 2], 0.25) < at(&[0, 0, 0, 2], 1.0));
}
