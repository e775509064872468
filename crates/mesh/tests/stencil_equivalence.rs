//! Equivalence tests between the matrix-free stencil path and the plain
//! CSR path on *real* stack meshes (not hand-built grids): extraction must
//! succeed on every regular mesh the builder produces — including faulted
//! ones, since defects only strike vertical elements, never sheet straps —
//! and the two operators must agree bit-for-bit. The geometric-multigrid
//! preconditioner must reproduce the Jacobi/IC(0) solutions while
//! spending fewer CG iterations.

use pi3d_layout::{
    Benchmark, BondingStyle, FaultSpec, MemoryState, PdnSpec, RdlConfig, RdlScope, StackDesign,
    TsvConfig, TsvPlacement,
};
use pi3d_mesh::{MeshOptions, StackMesh};
use pi3d_solver::{Operator, Preconditioner};
use pi3d_telemetry::rng::SplitMix64;

fn arb_design(rng: &mut SplitMix64) -> StackDesign {
    let benchmark = match rng.next_below(3) {
        0 => Benchmark::StackedDdr3OffChip,
        1 => Benchmark::StackedDdr3OnChip,
        _ => Benchmark::WideIo,
    };
    let tc = if benchmark == Benchmark::WideIo {
        160
    } else {
        rng.range(15, 200) as usize
    };
    let mut builder = StackDesign::builder(benchmark)
        .pdn(PdnSpec::new(rng.range_f64(0.10, 0.20), rng.range_f64(0.10, 0.40)).expect("in range"))
        .tsv(
            TsvConfig::new(
                tc,
                if rng.chance(0.5) {
                    TsvPlacement::Edge
                } else {
                    TsvPlacement::Center
                },
            )
            .expect("in range"),
        )
        .bonding(if rng.chance(0.5) {
            BondingStyle::F2F
        } else {
            BondingStyle::F2B
        })
        .rdl(match rng.next_below(3) {
            0 => RdlConfig::none(),
            1 => RdlConfig::enabled(RdlScope::BottomOnly),
            _ => RdlConfig::enabled(RdlScope::AllDies),
        })
        .wire_bond(rng.chance(0.5));
    if benchmark != Benchmark::StackedDdr3OffChip {
        builder = builder.mounting(pi3d_layout::Mounting::OnChip {
            dedicated_tsvs: rng.chance(0.5),
        });
    }
    builder.build().expect("generated designs are valid")
}

fn tiny(faults: Option<FaultSpec>) -> MeshOptions {
    MeshOptions {
        dram_nx: 10,
        dram_ny: 10,
        logic_nx: 12,
        logic_ny: 10,
        faults,
        ..MeshOptions::coarse()
    }
}

fn unit_excitation(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect()
}

#[test]
fn real_meshes_extract_stencils_that_apply_bitwise() {
    let mut rng = SplitMix64::new(0x57e2_0001);
    let mut faulted_seen = 0u32;
    for case in 0..16u64 {
        let design = arb_design(&mut rng);
        // Every other case injects moderate defects; EM drift perturbs
        // element conductances, opens delete them — neither touches the
        // in-sheet straps the stencil describes.
        let faults = if case % 2 == 1 {
            faulted_seen += 1;
            Some(FaultSpec::new(case).with_tsv_open(0.05).with_em_drift(0.25))
        } else {
            None
        };
        let mesh = match StackMesh::new(&design, tiny(faults)) {
            Ok(mesh) => mesh,
            // A heavily damaged draw can island nodes; that typed error
            // is the fault-injection suite's concern, not this one's.
            Err(pi3d_mesh::MeshError::DegradedSupply(_)) => continue,
            Err(other) => panic!("case {case}: unexpected error {other}"),
        };
        let stencil = mesh
            .prepared()
            .stencil()
            .unwrap_or_else(|| panic!("case {case}: regular mesh must extract a stencil"));
        let a = mesh.matrix();
        assert_eq!(stencil.dim(), a.dim(), "case {case}");

        let x = unit_excitation(a.dim(), 0xab5e_0000 + case);
        let mut want = vec![0.0; a.dim()];
        let mut got = vec![0.0; a.dim()];
        a.mul_vec_into(&x, &mut want);
        stencil.apply_into(&x, &mut got);
        for i in 0..want.len() {
            assert_eq!(
                want[i].to_bits(),
                got[i].to_bits(),
                "case {case}: apply differs at row {i}: {} vs {}",
                want[i],
                got[i]
            );
        }
    }
    assert!(faulted_seen >= 4, "too few faulted meshes survived");
}

#[test]
fn multigrid_matches_jacobi_and_ic_with_fewer_iterations() {
    let state: MemoryState = "0-0-0-2".parse().expect("literal");
    let mut rng = SplitMix64::new(0x57e2_0002);
    for case in 0..4u64 {
        let design = arb_design(&mut rng);
        let solve = |pc: Preconditioner| {
            let mesh = StackMesh::new(
                &design,
                MeshOptions {
                    preconditioner: pc,
                    ..MeshOptions::coarse()
                },
            )
            .expect("mesh builds");
            let rhs = mesh.load_vector(&state, 1.0);
            mesh.prepared().solve(&rhs, None).expect("solves")
        };
        let jacobi = solve(Preconditioner::Jacobi);
        let ic = solve(Preconditioner::IncompleteCholesky);
        let mg = solve(Preconditioner::Multigrid);
        assert!(
            mg.iterations < jacobi.iterations,
            "case {case}: mg {} vs jacobi {}",
            mg.iterations,
            jacobi.iterations
        );
        for i in 0..mg.x.len() {
            assert!(
                (mg.x[i] - jacobi.x[i]).abs() < 1e-7,
                "case {case} node {i}: mg {} vs jacobi {}",
                mg.x[i],
                jacobi.x[i]
            );
            assert!(
                (mg.x[i] - ic.x[i]).abs() < 1e-7,
                "case {case} node {i}: mg {} vs ic {}",
                mg.x[i],
                ic.x[i]
            );
        }
    }
}
