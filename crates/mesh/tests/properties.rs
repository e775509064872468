//! Property-based tests on the R-Mesh engine: physical invariants must
//! hold for arbitrary valid designs and memory states.
//!
//! Random designs come from the seeded [`SplitMix64`] generator (the
//! proptest crate is unavailable offline); every case is reproducible
//! from the loop index printed in the assertion message.

use pi3d_layout::{
    Benchmark, BondingStyle, DieState, MemoryState, Mounting, PdnSpec, RdlConfig, RdlScope,
    StackDesign, TsvConfig, TsvPlacement,
};
use pi3d_mesh::{MeshOptions, StackMesh};
use pi3d_telemetry::rng::SplitMix64;

const CASES: u64 = 24;

fn arb_design(rng: &mut SplitMix64) -> StackDesign {
    let benchmark = match rng.next_below(3) {
        0 => Benchmark::StackedDdr3OffChip,
        1 => Benchmark::StackedDdr3OnChip,
        _ => Benchmark::WideIo,
    };
    let m2 = rng.range_f64(0.10, 0.20);
    let m3 = rng.range_f64(0.10, 0.40);
    let placement = if rng.chance(0.5) {
        TsvPlacement::Edge
    } else {
        TsvPlacement::Center
    };
    let tc = if benchmark == Benchmark::WideIo {
        160
    } else {
        rng.range(15, 200) as usize
    };
    let f2f = rng.chance(0.5);
    let rdl = rng.next_below(3);
    let wb = rng.chance(0.5);
    let dedicated = rng.chance(0.5);
    let mut builder = StackDesign::builder(benchmark)
        .pdn(PdnSpec::new(m2, m3).expect("in range"))
        .tsv(TsvConfig::new(tc, placement).expect("in range"))
        .bonding(if f2f {
            BondingStyle::F2F
        } else {
            BondingStyle::F2B
        })
        .rdl(match rdl {
            0 => RdlConfig::none(),
            1 => RdlConfig::enabled(RdlScope::BottomOnly),
            _ => RdlConfig::enabled(RdlScope::AllDies),
        })
        .wire_bond(wb);
    if benchmark != Benchmark::StackedDdr3OffChip {
        builder = builder.mounting(Mounting::OnChip {
            dedicated_tsvs: dedicated,
        });
    }
    builder.build().expect("generated designs are valid")
}

fn arb_state(rng: &mut SplitMix64) -> MemoryState {
    MemoryState::new(
        (0..4)
            .map(|_| DieState::active(rng.next_below(3) as usize))
            .collect(),
    )
}

fn tiny() -> MeshOptions {
    MeshOptions {
        dram_nx: 10,
        dram_ny: 10,
        logic_nx: 12,
        logic_ny: 10,
        ..MeshOptions::coarse()
    }
}

#[test]
fn matrices_are_physical() {
    let mut rng = SplitMix64::new(0x4e54_0001);
    for case in 0..CASES {
        let design = arb_design(&mut rng);
        let mesh = StackMesh::new(&design, tiny()).expect("mesh builds");
        assert!(mesh.matrix().is_symmetric(1e-9), "case {case}");
        assert!(mesh.matrix().is_diagonally_dominant(1e-6), "case {case}");
    }
}

#[test]
fn drops_are_nonnegative_and_bounded() {
    let mut rng = SplitMix64::new(0x4e54_0002);
    for case in 0..CASES {
        let design = arb_design(&mut rng);
        let state = arb_state(&mut rng);
        let mesh = StackMesh::new(&design, tiny()).expect("mesh builds");
        let report = mesh.solve(&state, 1.0).expect("solves");
        for (i, &drop) in report.node_drops().iter().enumerate() {
            assert!(drop >= -1e-9, "case {case} node {i} negative: {drop}");
            assert!(drop < 0.9, "case {case} node {i} implausible: {drop} V");
        }
    }
}

#[test]
fn drops_scale_linearly_with_activity_current() {
    // The DC system is linear: scaling every injected current scales
    // every drop. Compare a state against itself through the load
    // vector (activity changes power nonlinearly, so scale loads
    // directly).
    let mut rng = SplitMix64::new(0x4e54_0003);
    for case in 0..CASES {
        let design = arb_design(&mut rng);
        let mesh = StackMesh::new(&design, tiny()).expect("mesh builds");
        let state: MemoryState = "0-0-0-2".parse().expect("literal");
        let report = mesh.solve(&state, 1.0).expect("solves");
        let v1 = report.node_drops();
        let loads = mesh.load_vector(&state, 1.0);
        let scaled: Vec<f64> = loads.iter().map(|x| 2.0 * x).collect();
        let v2 = pi3d_solver::PreparedSystem::with_solver(
            mesh.matrix().clone(),
            pi3d_solver::Preconditioner::IncompleteCholesky,
            pi3d_solver::CgSolver::new().with_tolerance(1e-10),
        )
        .expect("preconditioner builds")
        .solve(&scaled, None)
        .expect("solves")
        .x;
        for i in 0..v1.len() {
            assert!((v2[i] - 2.0 * v1[i]).abs() < 1e-6, "case {case} node {i}");
        }
    }
}

#[test]
fn more_metal_never_hurts() {
    // Monotonicity: scaling PDN usage up cannot raise the max drop.
    let mut rng = SplitMix64::new(0x4e54_0004);
    for case in 0..CASES {
        let design = arb_design(&mut rng);
        let state: MemoryState = "0-0-0-2".parse().expect("literal");
        let base_pdn = design.pdn();
        let mesh = StackMesh::new(&design, tiny()).expect("mesh builds");
        let report = mesh.solve(&state, 1.0).expect("solves");
        let base_max = report.node_drops().iter().cloned().fold(0.0f64, f64::max);

        let upgraded = StackDesign::builder(design.benchmark())
            .mounting(design.mounting())
            .pdn(base_pdn.scaled(1.4))
            .tsv(design.tsv())
            .bonding(design.bonding())
            .rdl(design.rdl())
            .wire_bond(design.has_wire_bond())
            .build()
            .expect("still valid");
        let mesh2 = StackMesh::new(&upgraded, tiny()).expect("mesh builds");
        let report2 = mesh2.solve(&state, 1.0).expect("solves");
        let up_max = report2.node_drops().iter().cloned().fold(0.0f64, f64::max);
        assert!(
            up_max <= base_max * 1.001,
            "case {case}: 1.4x metal raised max drop: {base_max} -> {up_max}"
        );
    }
}

#[test]
fn adding_wire_bonds_never_hurts() {
    let mut rng = SplitMix64::new(0x4e54_0005);
    let mut tested = 0;
    // Skip designs that already have wire bonds (proptest's prop_assume
    // did the same filtering).
    for case in 0..(CASES * 2) {
        if tested >= CASES {
            break;
        }
        let design = arb_design(&mut rng);
        let state = arb_state(&mut rng);
        if design.has_wire_bond() {
            continue;
        }
        tested += 1;
        let mesh = StackMesh::new(&design, tiny()).expect("mesh builds");
        let report = mesh.solve(&state, 0.5).expect("solves");
        let base_max = report.node_drops().iter().cloned().fold(0.0f64, f64::max);

        let bonded = StackDesign::builder(design.benchmark())
            .mounting(design.mounting())
            .pdn(design.pdn())
            .tsv(design.tsv())
            .bonding(design.bonding())
            .rdl(design.rdl())
            .wire_bond(true)
            .build()
            .expect("still valid");
        let mesh2 = StackMesh::new(&bonded, tiny()).expect("mesh builds");
        let report2 = mesh2.solve(&state, 0.5).expect("solves");
        let bonded_max = report2.node_drops().iter().cloned().fold(0.0f64, f64::max);
        assert!(
            bonded_max <= base_max * 1.001,
            "case {case}: wire bonding raised max drop: {base_max} -> {bonded_max}"
        );
    }
    assert!(tested > 0, "never drew a bond-free design");
}
