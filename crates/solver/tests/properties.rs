//! Property-based tests for the solver crate: CG must agree with the dense
//! Cholesky golden path on arbitrary well-posed resistive networks.
//!
//! Randomized inputs come from the seeded [`SplitMix64`] generator (the
//! proptest crate is unavailable offline); every case is reproducible
//! from the loop index printed in the assertion message.

#![allow(clippy::needless_range_loop)]

use pi3d_solver::{CgSolver, CooBuilder, CsrMatrix, DenseMatrix, Preconditioner, PreparedSystem};
use pi3d_telemetry::rng::SplitMix64;

const CASES: u64 = 64;

/// Builds a random connected resistive network over `n` nodes:
/// a spanning chain plus `extra` random chords, with every node having a
/// small ground tie so the system is SPD.
fn random_network(n: usize, chords: &[(usize, usize)], gs: &[f64]) -> CsrMatrix {
    let mut b = CooBuilder::new(n);
    for i in 0..n {
        b.stamp_to_ground(i, 0.01 + gs[i % gs.len()].abs());
    }
    for i in 0..n - 1 {
        b.stamp_conductance(i, i + 1, 0.5 + gs[(i + 1) % gs.len()].abs());
    }
    for &(a, c) in chords {
        let (a, c) = (a % n, c % n);
        if a != c {
            b.stamp_conductance(a, c, 0.25 + gs[(a + c) % gs.len()].abs());
        }
    }
    b.into_csr().expect("network must be well-posed")
}

fn draw_vec(rng: &mut SplitMix64, len_lo: usize, len_hi: usize, lo: f64, hi: f64) -> Vec<f64> {
    let len = rng.range(len_lo as u64, len_hi as u64) as usize;
    (0..len).map(|_| rng.range_f64(lo, hi)).collect()
}

fn draw_chords(rng: &mut SplitMix64, max: usize) -> Vec<(usize, usize)> {
    let len = rng.next_below(max as u64 + 1) as usize;
    (0..len)
        .map(|_| (rng.next_below(64) as usize, rng.next_below(64) as usize))
        .collect()
}

fn spread_loads(loads: &[f64], n: usize) -> Vec<f64> {
    let mut b = vec![0.0; n];
    for (i, v) in loads.iter().enumerate() {
        b[i % n] += v;
    }
    b
}

#[test]
fn cg_agrees_with_cholesky() {
    let mut rng = SplitMix64::new(0x5013_e401);
    for case in 0..CASES {
        let n = rng.range(2, 40) as usize;
        let chords = draw_chords(&mut rng, 11);
        let gs = draw_vec(&mut rng, 1, 8, 0.0, 4.0);
        let loads = draw_vec(&mut rng, 2, 40, 0.0, 1e-2);
        let a = random_network(n, &chords, &gs);
        let b = spread_loads(&loads, n);
        let exact = DenseMatrix::from_csr(&a)
            .cholesky()
            .unwrap()
            .solve(&b)
            .unwrap();
        let sol = PreparedSystem::with_solver(
            a,
            Preconditioner::Jacobi,
            CgSolver::new().with_tolerance(1e-12),
        )
        .unwrap()
        .solve(&b, None)
        .unwrap();
        for i in 0..n {
            assert!(
                (sol.x[i] - exact[i]).abs() < 1e-7,
                "case {case} node {i}: cg {} vs exact {}",
                sol.x[i],
                exact[i]
            );
        }
    }
}

#[test]
fn solution_is_nonnegative_for_nonnegative_injection() {
    // A conductance matrix is an M-matrix: nonnegative injections give
    // nonnegative voltages (voltage drops in our reduced formulation).
    let mut rng = SplitMix64::new(0x5013_e402);
    for case in 0..CASES {
        let n = rng.range(2, 30) as usize;
        let gs = draw_vec(&mut rng, 1, 6, 0.0, 2.0);
        let loads = draw_vec(&mut rng, 1, 30, 0.0, 1e-2);
        let a = random_network(n, &[], &gs);
        let b = spread_loads(&loads, n);
        let sol = PreparedSystem::new(a, Preconditioner::IncompleteCholesky)
            .unwrap()
            .solve(&b, None)
            .unwrap();
        for (i, &v) in sol.x.iter().enumerate() {
            assert!(v >= -1e-9, "case {case} node {i} went negative: {v}");
        }
    }
}

#[test]
fn stamped_matrices_are_symmetric_diagonally_dominant() {
    let mut rng = SplitMix64::new(0x5013_e403);
    for case in 0..CASES {
        let n = rng.range(2, 50) as usize;
        let chords = draw_chords(&mut rng, 19);
        let gs = draw_vec(&mut rng, 1, 8, 0.0, 4.0);
        let a = random_network(n, &chords, &gs);
        assert!(a.is_symmetric(1e-12), "case {case}");
        assert!(a.is_diagonally_dominant(1e-9), "case {case}");
    }
}

#[test]
fn superposition_holds() {
    // Linear system: solve(b1) + solve(b2) == solve(b1 + b2).
    let mut rng = SplitMix64::new(0x5013_e404);
    for case in 0..CASES {
        let n = rng.range(2, 25) as usize;
        let gs = draw_vec(&mut rng, 1, 6, 0.0, 2.0);
        let l1 = draw_vec(&mut rng, 1, 25, 0.0, 1e-2);
        let l2 = draw_vec(&mut rng, 1, 25, 0.0, 1e-2);
        let a = random_network(n, &[], &gs);
        let b1 = spread_loads(&l1, n);
        let b2 = spread_loads(&l2, n);
        let system = PreparedSystem::with_solver(
            a,
            Preconditioner::Jacobi,
            CgSolver::new().with_tolerance(1e-13),
        )
        .unwrap();
        let s1 = system.solve(&b1, None).unwrap();
        let s2 = system.solve(&b2, None).unwrap();
        let sum_b: Vec<f64> = b1.iter().zip(&b2).map(|(x, y)| x + y).collect();
        let s12 = system.solve(&sum_b, None).unwrap();
        for i in 0..n {
            assert!(
                (s1.x[i] + s2.x[i] - s12.x[i]).abs() < 1e-7,
                "case {case} node {i}"
            );
        }
    }
}
