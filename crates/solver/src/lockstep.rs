//! Lockstep batch CG: [`PreparedSystem::solve_batch`] on an
//! IC(0)-preconditioned system solves its right-hand sides [`LANES`] at
//! a time per worker.
//!
//! Lane vectors are interleaved, one `[f64; LANES]` per row, so one
//! operator apply and one IC(0) forward/backward pass load each matrix
//! and factor entry once for all lanes. The kernels are the single
//! solve's own, generic over the lane count (`StencilOperator::apply_lanes`,
//! `CsrMatrix::mul_lanes_into`, `IncompleteCholesky::apply_lanes`; a
//! single apply is their one-lane instance), so every lane sums each row
//! in the single solve's order by construction. The rest of the
//! arithmetic of `CgSolver::solve_prepared` is kept here in its order:
//! dot products as sequential index-order sums from the value
//! [`vecops::dot`] starts from, and the same α, β, stopping test, errors
//! and per-solve telemetry. So each lane's `x`, iteration count and
//! residual trace are bit-identical to `solve(rhs, None)`.
//!
//! A lane whose solve converges or fails hands back its result, its `x`
//! de-interleaved, and refills from the next pending right-hand side.
//! Once none is pending the lane idles on zero vectors, which the shared
//! kernels leave at zero.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::cg::record_solve;
use crate::precond::IncompleteCholesky;
use crate::{vecops, CgSolution, PreparedSystem, SolverError};
use pi3d_telemetry::par::parallel_map;

/// Right-hand sides one worker solves at once. Eight lanes measured no
/// faster per right-hand side than four, with twice the lane memory.
const LANES: usize = 4;

/// One row of the interleaved lane vectors.
type Lanes = [f64; LANES];

type Outcome = Result<CgSolution, SolverError>;

/// Solves every member of `batch` against `system`, whose preconditioner
/// is `ic`, in lanes of [`LANES`] on up to `system.threads()` workers.
/// Results come back in input order, and the per-solve telemetry is
/// recorded in that order on the calling thread, so it does not depend
/// on the thread count either.
pub(crate) fn solve_batch(
    system: &PreparedSystem,
    ic: &IncompleteCholesky,
    batch: &[Vec<f64>],
) -> Vec<Outcome> {
    // One phase span for the batch: lanes interleave their solves, so
    // per-solve spans would overlap.
    let _span = pi3d_telemetry::span::span("cg_solve");
    let n = system.matrix().dim();
    // Every single solve starts from the residual b − A·0.
    let mut a_zero = vec![0.0; n];
    system.operator().apply_into(&vec![0.0; n], &mut a_zero);
    let next = AtomicUsize::new(0);
    // No more groups than the batch fills: an idle lane still costs its
    // share of every step. So a 17-solve LUT basis runs on at most five
    // workers (DESIGN §11 on what that may cost on many cores).
    let workers = batch.len().div_ceil(LANES).min(system.threads());
    let per_worker = parallel_map(&vec![(); workers], workers, |_, _| {
        Group::new(system, ic, batch, &a_zero, &next).run()
    });

    let mut slots: Vec<Option<Outcome>> = vec![None; batch.len()];
    for (index, outcome) in per_worker.into_iter().flatten() {
        slots[index] = Some(outcome);
    }
    let outcomes: Vec<Outcome> = slots
        .into_iter()
        .map(|s| s.expect("every right-hand side is solved once"))
        .collect();
    for outcome in &outcomes {
        match outcome {
            // A zero right-hand side returns before the single solve
            // records anything; every other success has a trace.
            Ok(sol) if !sol.residual_trace.is_empty() => {
                record_solve(sol.iterations, sol.relative_residual, &sol.residual_trace);
            }
            // The single solve's failure telemetry, which it records
            // inline.
            Err(SolverError::NonConverged {
                iterations,
                residual,
                tolerance,
                ..
            }) => {
                pi3d_telemetry::metrics::counter("solver.cg.failures").incr(1);
                pi3d_telemetry::warn!(
                    "cg failed to converge: {iterations} iterations, relres {residual:.3e} \
                     > tol {tolerance:.1e}"
                );
            }
            _ => {}
        }
    }
    outcomes
}

/// The scalar state of one lane's solve.
#[derive(Debug, Default)]
struct Lane {
    /// Input index of the right-hand side in the lane; `None` once the
    /// batch has run dry.
    rhs: Option<usize>,
    /// Set at refill: the lane's next preconditioner apply starts its
    /// solve (`p = z`) instead of continuing it.
    starting: bool,
    norm_b: f64,
    /// Relative residual of the starting guess.
    start_relres: f64,
    rz: f64,
    iterations: usize,
    trace: Vec<f64>,
}

/// One worker's lanes and their interleaved vectors.
struct Group<'a> {
    system: &'a PreparedSystem,
    ic: &'a IncompleteCholesky,
    batch: &'a [Vec<f64>],
    a_zero: &'a [f64],
    next: &'a AtomicUsize,
    lanes: [Lane; LANES],
    x: Vec<Lanes>,
    r: Vec<Lanes>,
    p: Vec<Lanes>,
    /// `z = M⁻¹·r` after [`precondition`](Self::precondition), `A·p`
    /// after [`iterate`](Self::iterate): neither outlives its step, so
    /// they share the buffer.
    w: Vec<Lanes>,
    done: Vec<(usize, Outcome)>,
}

impl<'a> Group<'a> {
    fn new(
        system: &'a PreparedSystem,
        ic: &'a IncompleteCholesky,
        batch: &'a [Vec<f64>],
        a_zero: &'a [f64],
        next: &'a AtomicUsize,
    ) -> Self {
        let n = a_zero.len();
        Group {
            system,
            ic,
            batch,
            a_zero,
            next,
            lanes: Default::default(),
            x: vec![[0.0; LANES]; n],
            r: vec![[0.0; LANES]; n],
            p: vec![[0.0; LANES]; n],
            w: vec![[0.0; LANES]; n],
            done: Vec::new(),
        }
    }

    fn run(mut self) -> Vec<(usize, Outcome)> {
        let _slice = pi3d_telemetry::trace::span("solver", "cg_lanes");
        for l in 0..LANES {
            self.refill(l);
        }
        loop {
            if !self.working() {
                return self.done;
            }
            self.precondition();
            if !self.working() {
                return self.done;
            }
            self.iterate();
        }
    }

    fn working(&self) -> bool {
        self.lanes.iter().any(|lane| lane.rhs.is_some())
    }

    /// Loads the next pending right-hand side into lane `l`, answering
    /// on the spot those the single solve answers before iterating (a
    /// wrong length, a zero vector). Idles the lane once none is left.
    fn refill(&mut self, l: usize) {
        let n = self.a_zero.len();
        loop {
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(b) = self.batch.get(index) else {
                self.lanes[l] = Lane::default();
                for row in self.r.iter_mut().chain(self.p.iter_mut()) {
                    row[l] = 0.0;
                }
                return;
            };
            if b.len() != n {
                let mismatch = SolverError::DimensionMismatch {
                    expected: n,
                    found: b.len(),
                };
                self.done.push((index, Err(mismatch)));
                continue;
            }
            let norm_b = vecops::norm2(b);
            if norm_b == 0.0 {
                let zero = CgSolution {
                    x: vec![0.0; n],
                    iterations: 0,
                    relative_residual: 0.0,
                    residual_trace: Vec::new(),
                };
                self.done.push((index, Ok(zero)));
                continue;
            }
            let mut rr = sum_start();
            for (i, (&bi, &a0)) in b.iter().zip(self.a_zero).enumerate() {
                let ri = bi - a0;
                self.x[i][l] = 0.0;
                self.r[i][l] = ri;
                rr += ri * ri;
            }
            self.lanes[l] = Lane {
                rhs: Some(index),
                starting: true,
                norm_b,
                start_relres: rr.sqrt() / norm_b,
                rz: 0.0,
                iterations: 0,
                trace: Vec::with_capacity(128),
            };
            return;
        }
    }

    /// Hands back lane `l`'s result and refills the lane.
    fn retire(&mut self, l: usize, result: Result<(), SolverError>) {
        let lane = std::mem::take(&mut self.lanes[l]);
        let index = lane.rhs.expect("only a working lane retires");
        let outcome = result.map(|()| CgSolution {
            x: self.x.iter().map(|row| row[l]).collect(),
            iterations: lane.iterations,
            relative_residual: *lane.trace.last().expect("a finished solve has a residual"),
            residual_trace: lane.trace,
        });
        self.done.push((index, outcome));
        self.refill(l);
    }

    /// `z = M⁻¹·r` for every lane, then the step that follows it: a lane
    /// that is starting takes `p = z` and checks its starting guess
    /// (retiring with 0 iterations if it already meets the tolerance),
    /// every other lane takes `p = z + β·p`. Repeats for lanes that a
    /// 0-iteration retirement refilled, so every working lane leaves
    /// ready for [`iterate`](Self::iterate).
    fn precondition(&mut self) {
        let mut continuing: [bool; LANES] =
            std::array::from_fn(|l| self.lanes[l].rhs.is_some() && !self.lanes[l].starting);
        loop {
            {
                let _apply = pi3d_telemetry::trace::span("solver", "precond_apply");
                self.ic.apply_lanes(&self.r, &mut self.w);
            }
            let rz = dot_lanes(&self.r, &self.w);
            let starting: [bool; LANES] = std::array::from_fn(|l| self.lanes[l].starting);
            let mut beta = [0.0; LANES];
            for l in 0..LANES {
                let lane = &mut self.lanes[l];
                if starting[l] {
                    lane.rz = rz[l];
                } else if continuing[l] {
                    beta[l] = rz[l] / lane.rz;
                    lane.rz = rz[l];
                }
            }
            update_direction(&mut self.p, &self.w, &beta, &starting, &continuing);

            let mut again = false;
            for l in 0..LANES {
                if !starting[l] {
                    continue;
                }
                let lane = &mut self.lanes[l];
                lane.starting = false;
                let relres = lane.start_relres;
                if relres <= self.system.solver().tolerance() {
                    lane.trace.push(relres);
                    self.retire(l, Ok(()));
                    again |= self.lanes[l].starting;
                }
            }
            if !again {
                return;
            }
            continuing = [false; LANES];
        }
    }

    /// One CG iteration for every working lane: `A·p`, the step along
    /// `p`, the new residual and the stopping test. Retired lanes refill.
    fn iterate(&mut self) {
        let solver = self.system.solver();
        match self.system.stencil() {
            Some(stencil) => stencil.apply_lanes(&self.p, &mut self.w),
            None => self.system.matrix().mul_lanes_into(&self.p, &mut self.w),
        }
        let pap = dot_lanes(&self.p, &self.w);
        let mut alpha = [0.0; LANES];
        let mut finished: [Option<Result<(), SolverError>>; LANES] = Default::default();
        for l in 0..LANES {
            let lane = &mut self.lanes[l];
            if lane.rhs.is_none() {
                continue;
            }
            lane.iterations += 1;
            if pap[l] <= 0.0 || !pap[l].is_finite() {
                finished[l] = Some(Err(SolverError::NotPositiveDefinite {
                    index: lane.iterations,
                    value: pap[l],
                }));
            } else {
                alpha[l] = lane.rz / pap[l];
            }
        }
        let neg_alpha = alpha.map(|a| -a);
        let mut rr = [sum_start(); LANES];
        for ((xi, ri), (pi, api)) in self
            .x
            .iter_mut()
            .zip(self.r.iter_mut())
            .zip(self.p.iter().zip(&self.w))
        {
            for l in 0..LANES {
                xi[l] += alpha[l] * pi[l];
                ri[l] += neg_alpha[l] * api[l];
                rr[l] += ri[l] * ri[l];
            }
        }
        for l in 0..LANES {
            let lane = &mut self.lanes[l];
            if lane.rhs.is_none() || finished[l].is_some() {
                continue;
            }
            let relres = rr[l].sqrt() / lane.norm_b;
            lane.trace.push(relres);
            if relres <= solver.tolerance() {
                finished[l] = Some(Ok(()));
            } else if lane.iterations == solver.max_iterations() {
                finished[l] = Some(Err(SolverError::NonConverged {
                    iterations: lane.iterations,
                    residual: relres,
                    tolerance: solver.tolerance(),
                    partial: Box::new(CgSolution {
                        x: self.x.iter().map(|row| row[l]).collect(),
                        iterations: lane.iterations,
                        relative_residual: relres,
                        residual_trace: std::mem::take(&mut lane.trace),
                    }),
                }));
            }
        }
        for (l, result) in finished.into_iter().enumerate() {
            if let Some(result) = result {
                self.retire(l, result);
            }
        }
    }
}

/// The value [`vecops::dot`] starts its sum from: `f64`'s `Sum` folds
/// from −0.0, which keeps the sign of an all-(−0.0) sum.
fn sum_start() -> f64 {
    vecops::dot(&[], &[])
}

/// Per lane, `vecops::dot` of the two lanes: a sequential sum in index
/// order.
fn dot_lanes(x: &[Lanes], y: &[Lanes]) -> Lanes {
    let mut acc = [sum_start(); LANES];
    for (xi, yi) in x.iter().zip(y) {
        for l in 0..LANES {
            acc[l] += xi[l] * yi[l];
        }
    }
    acc
}

/// The search direction after a preconditioner apply: `p = z` for a
/// starting lane, `p = z + β·p` (`vecops::xpby`) for a continuing one,
/// and `p` unchanged for the rest.
fn update_direction(
    p: &mut [Lanes],
    z: &[Lanes],
    beta: &Lanes,
    starting: &[bool; LANES],
    continuing: &[bool; LANES],
) {
    if continuing.iter().all(|&c| c) {
        for (pi, zi) in p.iter_mut().zip(z) {
            for l in 0..LANES {
                pi[l] = zi[l] + beta[l] * pi[l];
            }
        }
        return;
    }
    for l in 0..LANES {
        if starting[l] {
            for (pi, zi) in p.iter_mut().zip(z) {
                pi[l] = zi[l];
            }
        } else if continuing[l] {
            for (pi, zi) in p.iter_mut().zip(z) {
                pi[l] = zi[l] + beta[l] * pi[l];
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::stencil::StencilGrid;
    use crate::{CgSolver, CooBuilder, CsrMatrix, Preconditioner};
    use pi3d_telemetry::rng::SplitMix64;

    /// Two stacked `nx × ny` sheets joined node by node, with seeded
    /// ground ties on the lower one: stencil-extractable, and IC(0)
    /// needs tens of iterations on it.
    fn two_sheets(nx: usize, ny: usize) -> (CsrMatrix, Vec<StencilGrid>) {
        let sheet = nx * ny;
        let mut rng = SplitMix64::new(7);
        let mut b = CooBuilder::new(2 * sheet);
        for (base, gx, gy) in [(0, 1.0, 0.2), (sheet, 0.3, 1.5)] {
            for y in 0..ny {
                for x in 0..nx {
                    let node = base + y * nx + x;
                    if x + 1 < nx {
                        b.stamp_conductance(node, node + 1, gx);
                    }
                    if y + 1 < ny {
                        b.stamp_conductance(node, node + nx, gy);
                    }
                }
            }
        }
        for node in 0..sheet {
            b.stamp_conductance(node, sheet + node, rng.range_f64(2.0, 8.0));
            if rng.chance(0.05) {
                b.stamp_to_ground(node, rng.range_f64(0.5, 3.0));
            }
        }
        b.stamp_to_ground(0, 1.0);
        let grids = vec![
            StencilGrid { base: 0, nx, ny },
            StencilGrid {
                base: sheet,
                nx,
                ny,
            },
        ];
        (b.into_csr().unwrap(), grids)
    }

    /// Right-hand sides that converge after different numbers of
    /// iterations, with a zero one (answered at once) and a NaN one
    /// (`NotPositiveDefinite` at the first iteration) among them.
    fn mixed_batch(n: usize, len: usize) -> Vec<Vec<f64>> {
        let mut rng = SplitMix64::new(len as u64);
        (0..len)
            .map(|k| match k % 6 {
                1 => vec![0.0; n],
                3 => (0..n).map(|i| if i == k { 1e-3 } else { 0.0 }).collect(),
                4 => vec![1e-3; n],
                5 if k == 11 => (0..n)
                    .map(|i| if i == 5 { f64::NAN } else { 0.0 })
                    .collect(),
                _ => (0..n).map(|_| rng.range_f64(-1e-3, 1e-3)).collect(),
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every field of a solution, floats as bits.
    fn solution_bits(sol: &CgSolution) -> (Vec<u64>, usize, u64, Vec<u64>) {
        (
            bits(&sol.x),
            sol.iterations,
            sol.relative_residual.to_bits(),
            bits(&sol.residual_trace),
        )
    }

    fn assert_same(want: &Outcome, got: &Outcome, label: &str) {
        match (want, got) {
            (Ok(w), Ok(g)) => assert_eq!(solution_bits(w), solution_bits(g), "{label}"),
            (
                Err(SolverError::NonConverged {
                    iterations: wi,
                    residual: wr,
                    partial: wp,
                    ..
                }),
                Err(SolverError::NonConverged {
                    iterations: gi,
                    residual: gr,
                    partial: gp,
                    ..
                }),
            ) => {
                assert_eq!((wi, wr.to_bits()), (gi, gr.to_bits()), "{label}");
                assert_eq!(solution_bits(wp), solution_bits(gp), "{label}");
            }
            (
                Err(SolverError::NotPositiveDefinite {
                    index: wi,
                    value: wv,
                }),
                Err(SolverError::NotPositiveDefinite {
                    index: gi,
                    value: gv,
                }),
            ) => assert_eq!((wi, wv.to_bits()), (gi, gv.to_bits()), "{label}"),
            _ => assert_eq!(want, got, "{label}"),
        }
    }

    /// Batches of every size around the lane count, through the stencil
    /// and the CSR operator, at several thread counts: each member
    /// equals its single solve bit for bit.
    #[test]
    fn every_lane_matches_its_single_solve_bitwise() {
        let (a, grids) = two_sheets(9, 7);
        let n = a.dim();
        let systems = |threads: usize| {
            let stencil = PreparedSystem::with_geometry(
                a.clone(),
                Preconditioner::IncompleteCholesky,
                CgSolver::new(),
                &grids,
            )
            .unwrap()
            .with_threads(threads);
            assert!(stencil.stencil().is_some());
            let csr = PreparedSystem::new(a.clone(), Preconditioner::IncompleteCholesky)
                .unwrap()
                .with_threads(threads);
            [("stencil", stencil), ("csr", csr)]
        };
        for len in [1, 3, 4, 5, 17] {
            let batch = mixed_batch(n, len);
            let want: Vec<Outcome> = {
                let [(_, system), _] = systems(1);
                batch.iter().map(|b| system.solve(b, None)).collect()
            };
            if len == 17 {
                let mut counts: Vec<usize> = want
                    .iter()
                    .filter_map(|o| o.as_ref().ok())
                    .map(|s| s.iterations)
                    .collect();
                counts.sort_unstable();
                counts.dedup();
                assert!(counts.len() >= 3, "iteration counts {counts:?}");
                assert!(want.iter().any(Result::is_err), "no failing member");
            }
            for threads in [1, 2, 4] {
                for (path, system) in systems(threads) {
                    let got = system.solve_members(&batch);
                    assert_eq!(got.len(), len);
                    for (k, (w, g)) in want.iter().zip(&got).enumerate() {
                        assert_same(
                            w,
                            g,
                            &format!("{path}, len {len}, threads {threads}, rhs {k}"),
                        );
                    }
                }
            }
        }
    }

    /// An iteration cap between the members' counts: lanes that hit it
    /// fail `NonConverged` with the single solve's partial `x` while the
    /// others converge, and `solve_batch` returns the first error by
    /// input index.
    #[test]
    fn capped_lanes_fail_like_their_single_solves() {
        let (a, grids) = two_sheets(9, 7);
        let batch: Vec<Vec<f64>> = mixed_batch(a.dim(), 17)
            .into_iter()
            .filter(|b| b.iter().all(|v| v.is_finite()))
            .collect();
        let system = |cap: usize, threads: usize| {
            let solver = CgSolver::new().with_max_iterations(cap);
            PreparedSystem::with_geometry(
                a.clone(),
                Preconditioner::IncompleteCholesky,
                solver,
                &grids,
            )
            .unwrap()
            .with_threads(threads)
        };
        let mut counts: Vec<usize> = batch
            .iter()
            .map(|b| system(20_000, 1).solve(b, None).unwrap().iterations)
            .filter(|&k| k > 0)
            .collect();
        counts.sort_unstable();
        let cap = counts[0];
        assert!(
            counts[counts.len() - 1] > cap,
            "iteration counts {counts:?}"
        );
        let want: Vec<Outcome> = batch
            .iter()
            .map(|b| system(cap, 1).solve(b, None))
            .collect();
        assert!(want.iter().any(Result::is_ok) && want.iter().any(Result::is_err));
        for threads in [1, 4] {
            let system = system(cap, threads);
            for (k, (w, g)) in want.iter().zip(system.solve_members(&batch)).enumerate() {
                assert_same(w, &g, &format!("cap {cap}, threads {threads}, rhs {k}"));
            }
            let first = want.iter().find_map(|o| o.as_ref().err()).unwrap();
            assert_eq!(&system.solve_batch(&batch).unwrap_err(), first);
        }
    }

    /// A wrong-length member fails on its own, and the error that comes
    /// back is the lowest-index one.
    #[test]
    fn first_error_by_input_index_wins() {
        let (a, grids) = two_sheets(6, 5);
        let n = a.dim();
        let system = PreparedSystem::with_geometry(
            a,
            Preconditioner::IncompleteCholesky,
            CgSolver::new().with_max_iterations(3),
            &grids,
        )
        .unwrap();
        let mut batch = mixed_batch(n, 6);
        batch[2] = vec![1.0; n - 1];
        let got = system.solve_members(&batch);
        assert!(got[0].is_err(), "rhs 0 needs more than 3 iterations");
        assert_eq!(
            got[2],
            Err(SolverError::DimensionMismatch {
                expected: n,
                found: n - 1
            })
        );
        assert!(matches!(
            system.solve_batch(&batch),
            Err(SolverError::NonConverged { .. })
        ));
        assert!(matches!(
            system.solve_batch(&batch[1..]),
            Err(SolverError::DimensionMismatch { .. })
        ));
    }

    /// The lane sum starts where `vecops::dot` does, so a sum of −0.0
    /// products keeps its sign bit in every lane.
    #[test]
    fn lane_dot_keeps_the_sign_of_zero_sums() {
        let x: Vec<Lanes> = vec![[-0.0, 0.0, -0.0, 1.5]; 3];
        let y: Vec<Lanes> = vec![[1.0, 1.0, 0.0, -2.0]; 3];
        let got = dot_lanes(&x, &y);
        for l in 0..LANES {
            let xl: Vec<f64> = x.iter().map(|r| r[l]).collect();
            let yl: Vec<f64> = y.iter().map(|r| r[l]).collect();
            assert_eq!(
                got[l].to_bits(),
                vecops::dot(&xl, &yl).to_bits(),
                "lane {l}"
            );
        }
        assert!(got[0].is_sign_negative());
    }
}
