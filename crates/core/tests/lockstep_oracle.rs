//! The LUT basis solves that `solve_batch` runs in lockstep lanes must
//! equal single `PreparedSystem::solve(rhs, None)` calls bit for bit: `x`,
//! iteration count, relative residual and residual trace, at 1, 2 and 4
//! threads. The designs are the ones a `pi3d serve` benchmark mix builds
//! LUTs for: the four benchmark baselines and nine ddr3-on metal-usage
//! variants, at the default mesh and two powered banks per die (17
//! solves each).
//!
//! The `solver.cg.*` counters must move as the sequential solves move
//! them. One `#[test]`, since the counters are process-wide.

use pi3d_core::{config, lut_basis_loads, Platform};
use pi3d_mesh::{MeshOptions, StackMesh};
use pi3d_solver::CgSolution;
use pi3d_telemetry::metrics;

const MAX_BANKS: usize = 2;

const DESIGNS: [&str; 13] = [
    "benchmark = ddr3-off\n",
    "benchmark = ddr3-on\n",
    "benchmark = wideio\n",
    "benchmark = hmc\n",
    "benchmark = ddr3-on\nm2_usage = 0.1\nm3_usage = 0.1\n",
    "benchmark = ddr3-on\nm2_usage = 0.1\nm3_usage = 0.3\n",
    "benchmark = ddr3-on\nm2_usage = 0.15\nm3_usage = 0.1\n",
    "benchmark = ddr3-on\nm2_usage = 0.15\nm3_usage = 0.3\n",
    "benchmark = ddr3-on\nm2_usage = 0.2\nm3_usage = 0.1\n",
    "benchmark = ddr3-on\nm2_usage = 0.2\nm3_usage = 0.3\n",
    "benchmark = ddr3-on\nm2_usage = 0.12\nm3_usage = 0.25\n",
    "benchmark = ddr3-on\nm2_usage = 0.18\nm3_usage = 0.25\n",
    "benchmark = ddr3-on\nm2_usage = 0.13\nm3_usage = 0.13\n",
];

fn mesh(design: &str, threads: usize) -> StackMesh {
    let design = config::parse_design(design).unwrap();
    Platform::new(MeshOptions {
        threads,
        ..MeshOptions::default()
    })
    .evaluate(&design)
    .unwrap()
}

fn cg_counters() -> [u64; 3] {
    [
        "solver.cg.solves",
        "solver.cg.iterations",
        "solver.cg.failures",
    ]
    .map(|name| metrics::counter(name).get())
}

fn delta(before: [u64; 3]) -> [u64; 3] {
    let after = cg_counters();
    std::array::from_fn(|k| after[k] - before[k])
}

fn bits(sol: &CgSolution) -> (Vec<u64>, usize, u64, Vec<u64>) {
    (
        sol.x.iter().map(|v| v.to_bits()).collect(),
        sol.iterations,
        sol.relative_residual.to_bits(),
        sol.residual_trace.iter().map(|v| v.to_bits()).collect(),
    )
}

#[test]
fn lockstep_lut_basis_matches_single_solves_bitwise() {
    for (d, design) in DESIGNS.iter().enumerate() {
        let single = mesh(design, 1);
        let loads = lut_basis_loads(&single, MAX_BANKS);
        assert_eq!(loads.len(), 17, "design {d}");
        let before = cg_counters();
        let want: Vec<CgSolution> = loads
            .iter()
            .map(|b| single.prepared().solve(b, None).unwrap())
            .collect();
        let sequential = delta(before);
        if d == 4 {
            // ddr3-on at 10 % M2 and M3 usage, the first cold design.
            assert_eq!(sequential, [17, 1_192, 0], "design {d}");
        }
        for threads in [1, 2, 4] {
            let mesh = mesh(design, threads);
            let before = cg_counters();
            let got = mesh.prepared().solve_batch(&loads).unwrap();
            assert_eq!(delta(before), sequential, "design {d}, threads {threads}");
            for (k, (w, g)) in want.iter().zip(&got).enumerate() {
                assert_eq!(bits(w), bits(g), "design {d}, threads {threads}, rhs {k}");
            }
        }
    }
}
