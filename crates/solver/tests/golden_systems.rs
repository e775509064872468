//! Golden tests against closed-form solutions of structured resistive
//! networks — the strongest possible check on the whole stamping + solve
//! path, since the expected voltages come from pencil-and-paper analysis
//! rather than another numerical routine.

use pi3d_solver::{
    CgSolution, CgSolver, CooBuilder, CsrMatrix, DenseMatrix, Preconditioner, PreparedSystem,
};

/// One CG solve of `a·x = rhs` at relative tolerance `tol`.
fn cg(a: CsrMatrix, rhs: &[f64], pc: Preconditioner, tol: f64) -> CgSolution {
    PreparedSystem::with_solver(a, pc, CgSolver::new().with_tolerance(tol))
        .unwrap()
        .solve(rhs, None)
        .unwrap()
}

/// A chain of `n` unit resistors between two grounded ends, with current
/// `i` injected at node `k`, has the closed form of two resistors in
/// parallel: `R_eq = (k+1)(n−k)/(n+1)` (node indices 0-based, ends tied to
/// ground through the chain's terminal resistors).
#[test]
fn resistor_chain_matches_the_closed_form() {
    // Nodes 0..n-1; node i connects to i+1 with 1 Ω; node 0 and n-1 each
    // connect to ground with 1 Ω. Inject 1 A at node k.
    let n = 11;
    for k in [0usize, 3, 5, 10] {
        let mut b = CooBuilder::new(n);
        b.stamp_to_ground(0, 1.0);
        b.stamp_to_ground(n - 1, 1.0);
        for i in 0..n - 1 {
            b.stamp_conductance(i, i + 1, 1.0);
        }
        let a = b.into_csr().unwrap();
        let mut rhs = vec![0.0; n];
        rhs[k] = 1.0;
        let sol = cg(a, &rhs, Preconditioner::IncompleteCholesky, 1e-13);

        // Left path: k+1 resistors to ground; right path: n-k resistors.
        let r_left = (k + 1) as f64;
        let r_right = (n - k) as f64;
        let r_eq = r_left * r_right / (r_left + r_right);
        assert!(
            (sol.x[k] - r_eq).abs() < 1e-9,
            "inject at {k}: v = {} but R_eq = {r_eq}",
            sol.x[k]
        );

        // The voltage profile is linear on each side of the injection:
        // node j sits j+1 resistors from its ground on the left side
        // (n-j resistors on the right), all carrying that side's share.
        for j in 0..n {
            let expect = if j <= k {
                sol.x[k] * (j + 1) as f64 / r_left
            } else {
                sol.x[k] * (n - j) as f64 / r_right
            };
            assert!(
                (sol.x[j] - expect).abs() < 1e-9,
                "inject at {k}, node {j}: {} vs linear {expect}",
                sol.x[j]
            );
        }
    }
}

/// Two nodes joined by `g12`, each grounded through `g1`/`g2`: solve the
/// 2×2 system by hand and compare.
#[test]
fn two_node_network_matches_hand_solution() {
    let (g1, g2, g12) = (0.5, 0.25, 2.0);
    let (i1, i2) = (1e-3, 3e-3);
    let mut b = CooBuilder::new(2);
    b.stamp_to_ground(0, g1);
    b.stamp_to_ground(1, g2);
    b.stamp_conductance(0, 1, g12);
    let a = b.into_csr().unwrap();
    let sol = cg(a, &[i1, i2], Preconditioner::Jacobi, 1e-14);

    // [g1+g12, -g12; -g12, g2+g12] v = i, Cramer's rule:
    let det = (g1 + g12) * (g2 + g12) - g12 * g12;
    let v1 = (i1 * (g2 + g12) + i2 * g12) / det;
    let v2 = ((g1 + g12) * i2 + g12 * i1) / det;
    assert!((sol.x[0] - v1).abs() < 1e-12);
    assert!((sol.x[1] - v2).abs() < 1e-12);
}

/// Reciprocity: for a symmetric conductance matrix, the voltage at node B
/// from a unit injection at node A equals the voltage at A from a unit
/// injection at B.
#[test]
fn reciprocity_holds_on_a_grid() {
    let (nx, ny) = (7, 5);
    let idx = |x: usize, y: usize| y * nx + x;
    let mut b = CooBuilder::new(nx * ny);
    for y in 0..ny {
        for x in 0..nx {
            b.stamp_to_ground(idx(x, y), 0.05);
            if x + 1 < nx {
                b.stamp_conductance(idx(x, y), idx(x + 1, y), 1.3);
            }
            if y + 1 < ny {
                b.stamp_conductance(idx(x, y), idx(x, y + 1), 0.7);
            }
        }
    }
    let a = b.into_csr().unwrap();
    let chol = DenseMatrix::from_csr(&a).cholesky().unwrap();

    for (na, nb) in [(0, nx * ny - 1), (idx(3, 2), idx(6, 0)), (1, idx(2, 4))] {
        let mut ia = vec![0.0; nx * ny];
        ia[na] = 1.0;
        let va = chol.solve(&ia).unwrap();
        let mut ib = vec![0.0; nx * ny];
        ib[nb] = 1.0;
        let vb = chol.solve(&ib).unwrap();
        assert!(
            (va[nb] - vb[na]).abs() < 1e-12,
            "reciprocity violated between {na} and {nb}: {} vs {}",
            va[nb],
            vb[na]
        );
    }
}

/// A uniformly loaded symmetric grid must produce a symmetric solution.
#[test]
fn symmetric_problem_gives_symmetric_solution() {
    let n = 9; // odd: a well-defined centre
    let idx = |x: usize, y: usize| y * n + x;
    let mut b = CooBuilder::new(n * n);
    for y in 0..n {
        for x in 0..n {
            b.stamp_to_ground(idx(x, y), 0.01);
            if x + 1 < n {
                b.stamp_conductance(idx(x, y), idx(x + 1, y), 1.0);
            }
            if y + 1 < n {
                b.stamp_conductance(idx(x, y), idx(x, y + 1), 1.0);
            }
        }
    }
    let a = b.into_csr().unwrap();
    let mut rhs = vec![0.0; n * n];
    rhs[idx(n / 2, n / 2)] = 1e-2; // centre injection
    let sol = cg(a, &rhs, Preconditioner::IncompleteCholesky, 1e-13);
    for y in 0..n {
        for x in 0..n {
            let mirror_x = sol.x[idx(n - 1 - x, y)];
            let mirror_y = sol.x[idx(x, n - 1 - y)];
            let transpose = sol.x[idx(y, x)];
            let v = sol.x[idx(x, y)];
            assert!((v - mirror_x).abs() < 1e-10, "x-mirror at ({x},{y})");
            assert!((v - mirror_y).abs() < 1e-10, "y-mirror at ({x},{y})");
            assert!((v - transpose).abs() < 1e-10, "transpose at ({x},{y})");
        }
    }
}
