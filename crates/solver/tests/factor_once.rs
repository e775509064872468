//! Asserts the factor-once guarantee of `PreparedSystem` through the
//! telemetry counters: one preconditioner build per handle, no matter how
//! many solves run through it.
//!
//! This file deliberately holds a single test so the global telemetry
//! registry sees no concurrent writers from sibling tests in this binary.

use pi3d_solver::{CooBuilder, Preconditioner, PreparedSystem};
use pi3d_telemetry::metrics;

#[test]
fn preconditioner_is_built_exactly_once_across_n_solves() {
    let n = 24;
    let mut b = CooBuilder::new(n * n);
    let idx = |x: usize, y: usize| y * n + x;
    for y in 0..n {
        for x in 0..n {
            b.stamp_to_ground(idx(x, y), 0.05);
            if x + 1 < n {
                b.stamp_conductance(idx(x, y), idx(x + 1, y), 1.0);
            }
            if y + 1 < n {
                b.stamp_conductance(idx(x, y), idx(x, y + 1), 1.0);
            }
        }
    }
    let a = b.into_csr().unwrap();

    let builds = metrics::counter("solver.precond.builds");
    let prepared_solves = metrics::counter("solver.prepared.solves");
    let avoided = metrics::counter("solver.prepared.factorizations_avoided");

    let builds_before = builds.get();
    let system = PreparedSystem::new(a, Preconditioner::IncompleteCholesky)
        .unwrap()
        .with_threads(4);
    assert_eq!(
        builds.get() - builds_before,
        1,
        "construction performs the single factorization"
    );

    let solves_before = prepared_solves.get();
    let avoided_before = avoided.get();
    let total_solves = 10u64;
    for i in 0..4u64 {
        let rhs: Vec<f64> = (0..n * n)
            .map(|j| 1e-3 * ((i + j as u64) % 7) as f64)
            .collect();
        system.solve(&rhs, None).unwrap();
    }
    let batch: Vec<Vec<f64>> = (0..6u64)
        .map(|i| {
            (0..n * n)
                .map(|j| 1e-3 * ((i + j as u64) % 5) as f64)
                .collect()
        })
        .collect();
    system.solve_batch(&batch).unwrap();

    assert_eq!(
        builds.get() - builds_before,
        1,
        "no further factorization across {total_solves} solves"
    );
    assert_eq!(prepared_solves.get() - solves_before, total_solves);
    assert_eq!(
        avoided.get() - avoided_before,
        total_solves - 1,
        "every solve but the first avoids a factorization"
    );
    assert_eq!(system.solve_count(), total_solves);
}
