//! Geometric multigrid preconditioner for stacked-grid PDN systems.
//!
//! Jacobi and IC(0) preconditioners transfer information one mesh edge
//! per CG iteration, so iteration counts grow roughly with mesh width as
//! the stack is refined. A multigrid V-cycle moves the smooth (long
//! wavelength) part of the error through a hierarchy of coarser grids —
//! each level halving every sheet's resolution — and resolves it with a
//! small dense Cholesky at the bottom, which keeps preconditioned CG
//! iteration counts essentially flat under refinement.
//!
//! The hierarchy is built from the same [`StencilGrid`] geometry the
//! matrix-free operator uses: prolongation is per-grid bilinear
//! interpolation in index space (cell-centered coarsening,
//! `n → ⌈n/2⌉`), restriction is its transpose (full weighting), and
//! each coarse matrix is the Galerkin product `Pᵀ·A·P`, so inter-grid
//! vertical links and faulted entries coarsen consistently without any
//! special casing. Smoothing is one IC(0) solve per sweep (falling back
//! to damped Jacobi, `ω = 0.7`, if a level's incomplete factorization
//! breaks down), one pre-sweep from a zero guess and one symmetric
//! post-sweep, which makes the V-cycle a symmetric positive operator —
//! a valid CG preconditioner. Every apply runs sequentially in a fixed
//! order, so solves stay bit-identical across `--threads` values.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::csr::{CooBuilder, CsrMatrix};
use crate::dense::{CholeskyFactor, DenseMatrix};
use crate::error::SolverError;
use crate::precond::IncompleteCholesky;
use crate::stencil::{Operator, StencilGrid, StencilOperator};

/// Damping factor for the weighted-Jacobi fallback smoother.
const OMEGA: f64 = 0.7;
/// Stop coarsening once a level has at most this many nodes; the level
/// is then factored densely (at 600 nodes: a one-off ~7·10⁷-flop
/// factorization into two packed triangles, `L` and `Lᵀ`, of 1.4 MB
/// each).
const COARSE_LIMIT: usize = 600;
/// Hard cap on hierarchy depth (a 2^24-wide sheet would hit the node
/// limits long before this does).
const MAX_LEVELS: usize = 24;
/// Largest system the coarsest-level dense factorization accepts when
/// coarsening stops making progress (degenerate geometry).
const DENSE_COARSE_MAX: usize = 2_048;

/// Per-grid bilinear prolongation from a coarse level to a fine level,
/// stored as one short row (≤ 4 weights) per fine node. Restriction
/// reuses the same rows transposed (full weighting).
#[derive(Debug)]
struct Interp {
    row_ptr: Vec<usize>,
    col: Vec<u32>,
    weight: Vec<f64>,
}

impl Interp {
    fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        self.col[lo..hi]
            .iter()
            .zip(&self.weight[lo..hi])
            .map(|(&c, &w)| (c as usize, w))
    }
}

/// Storage behind one smoothing level's operator: the finest level
/// shares the mesh's matrix-free stencil when one extracted (compact),
/// coarser levels own their Galerkin matrices.
enum LevelOp {
    Stencil(Arc<StencilOperator>),
    Csr(CsrMatrix),
}

impl LevelOp {
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        match self {
            LevelOp::Stencil(s) => s.apply_into(x, y),
            LevelOp::Csr(m) => m.mul_vec_into(x, y),
        }
    }
}

/// Per-level smoother. PDN stacks glue each die's metal sheets together
/// with per-node vias whose conductance dwarfs the in-sheet straps, so
/// the via terms dominate every diagonal and point-Jacobi barely touches
/// in-plane error — V-cycles built on it degrade as the mesh refines.
/// IC(0) absorbs those stiff couplings (and the sheets' ~20× x/y strap
/// anisotropy) into its triangular factors, keeping iteration counts
/// flat; damped Jacobi remains as the fallback for the rare level where
/// IC(0) pivots break down on a Galerkin-coarsened matrix.
enum Smoother {
    Ic(IncompleteCholesky),
    Jacobi(Vec<f64>),
}

impl Smoother {
    /// One smoothing solve `z = M⁻¹·r` (damped for the Jacobi fallback).
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        match self {
            Smoother::Ic(ic) => ic.apply(r, z),
            Smoother::Jacobi(inv_diag) => {
                for i in 0..r.len() {
                    z[i] = OMEGA * inv_diag[i] * r[i];
                }
            }
        }
    }
}

/// One smoothing level: its operator, smoother, and the prolongation
/// from the next-coarser level.
struct MgLevel {
    op: LevelOp,
    smoother: Smoother,
    interp: Interp,
    coarse_dim: usize,
}

/// Scratch vectors for one V-cycle descent, pooled so concurrent
/// batch-member solves don't allocate per apply.
struct LevelBuffers {
    tmp: Vec<f64>,
    res: Vec<f64>,
    rc: Vec<f64>,
    zc: Vec<f64>,
}

/// Geometric multigrid V-cycle preconditioner (see the module docs).
pub struct Multigrid {
    dim: usize,
    levels: Vec<MgLevel>,
    coarse: CholeskyFactor,
    workspaces: Mutex<Vec<Vec<LevelBuffers>>>,
    cycles: AtomicU64,
}

impl std::fmt::Debug for Multigrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Multigrid")
            .field("dim", &self.dim)
            .field("levels", &(self.levels.len() + 1))
            .field("coarse_dim", &self.coarse.dim())
            .field("cycles", &self.cycles.load(Ordering::Relaxed))
            .finish()
    }
}

/// Cell-centered coarse geometry: each grid halves along both axes
/// (`n → ⌈n/2⌉`, floor 1) with bases repacked contiguously. Coarsening
/// is deliberately full (not semi) even though individual sheets route
/// ~20× stronger along one axis: each die's two sheets are glued
/// node-by-node with strong vias and have *opposite* strong axes, so the
/// composite system is near-isotropic — and per-sheet semi-coarsening
/// would give glued partners mismatched coarse spaces.
fn coarsen_grids(grids: &[StencilGrid]) -> Vec<StencilGrid> {
    let mut base = 0usize;
    grids
        .iter()
        .map(|g| {
            let nx = g.nx.div_ceil(2).max(1);
            let ny = g.ny.div_ceil(2).max(1);
            let coarse = StencilGrid { base, nx, ny };
            base += nx * ny;
            coarse
        })
        .collect()
}

fn total_nodes(grids: &[StencilGrid]) -> usize {
    grids.iter().map(StencilGrid::node_count).sum()
}

/// The two coarse indices and weights a fine index interpolates from
/// along one axis (cell-centered bilinear; clamped at the boundary,
/// where the second weight is zero).
fn axis_weights(i: usize, n_fine: usize, n_coarse: usize) -> ((usize, f64), (usize, f64)) {
    if n_coarse <= 1 {
        return ((0, 1.0), (0, 0.0));
    }
    let u = (i as f64 + 0.5) / n_fine as f64;
    let c = u * n_coarse as f64 - 0.5;
    if c <= 0.0 {
        ((0, 1.0), (0, 0.0))
    } else if c >= (n_coarse - 1) as f64 {
        ((n_coarse - 1, 1.0), (n_coarse - 1, 0.0))
    } else {
        let i0 = c as usize;
        let w = c - i0 as f64;
        ((i0, 1.0 - w), (i0 + 1, w))
    }
}

/// Builds the bilinear prolongation rows from `coarse` geometry to
/// `fine` geometry (grid by grid; entries per row emitted in ascending
/// coarse-column order).
fn build_interp(fine: &[StencilGrid], coarse: &[StencilGrid]) -> Interp {
    let n = total_nodes(fine);
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0usize);
    let mut col = Vec::with_capacity(n * 4);
    let mut weight = Vec::with_capacity(n * 4);
    for (g, cg) in fine.iter().zip(coarse) {
        for iy in 0..g.ny {
            let (y0, y1) = axis_weights(iy, g.ny, cg.ny);
            for ix in 0..g.nx {
                let (x0, x1) = axis_weights(ix, g.nx, cg.nx);
                for (cy, wy) in [y0, y1] {
                    if wy == 0.0 {
                        continue;
                    }
                    for (cx, wx) in [x0, x1] {
                        let w = wy * wx;
                        if w == 0.0 {
                            continue;
                        }
                        col.push((cg.base + cy * cg.nx + cx) as u32);
                        weight.push(w);
                    }
                }
                row_ptr.push(col.len());
            }
        }
    }
    Interp {
        row_ptr,
        col,
        weight,
    }
}

/// Galerkin coarse operator `Pᵀ·A·P`, computed one coarse row at a time
/// with a dense scratch accumulator and an explicit touched list (sorted
/// before emission, so assembly is deterministic).
fn galerkin(a: &CsrMatrix, p: &Interp, coarse_dim: usize) -> Result<CsrMatrix, SolverError> {
    let n = p.rows();
    // Transpose of P: which fine rows feed each coarse row.
    let mut counts = vec![0usize; coarse_dim];
    for &c in &p.col {
        counts[c as usize] += 1;
    }
    let mut rt_ptr = vec![0usize; coarse_dim + 1];
    for i in 0..coarse_dim {
        rt_ptr[i + 1] = rt_ptr[i] + counts[i];
    }
    let mut rt_fine = vec![0u32; p.col.len()];
    let mut rt_w = vec![0.0f64; p.col.len()];
    let mut cursor = rt_ptr.clone();
    for i in 0..n {
        for (c, w) in p.row(i) {
            let k = cursor[c];
            rt_fine[k] = i as u32;
            rt_w[k] = w;
            cursor[c] += 1;
        }
    }

    let mut coo = CooBuilder::with_capacity(coarse_dim, coarse_dim * 9);
    let mut scratch = vec![0.0f64; coarse_dim];
    let mut epoch = vec![0u32; coarse_dim];
    let mut touched: Vec<u32> = Vec::with_capacity(32);
    for (coarse_row, window) in rt_ptr.windows(2).enumerate() {
        let generation = coarse_row as u32 + 1;
        for k in window[0]..window[1] {
            let (i, wi) = (rt_fine[k] as usize, rt_w[k]);
            for (j, aij) in a.row(i) {
                let scale = wi * aij;
                for (cj, wj) in p.row(j) {
                    if epoch[cj] != generation {
                        epoch[cj] = generation;
                        scratch[cj] = 0.0;
                        touched.push(cj as u32);
                    }
                    scratch[cj] += scale * wj;
                }
            }
        }
        touched.sort_unstable();
        for &cj in &touched {
            coo.add(coarse_row, cj as usize, scratch[cj as usize]);
        }
        touched.clear();
    }
    coo.into_csr()
}

/// The Galerkin operator one level below `a` over `grids`, as
/// [`Multigrid::new`] builds it.
#[cfg(test)]
pub(crate) fn coarse_operator(a: &CsrMatrix, grids: &[StencilGrid]) -> CsrMatrix {
    let coarse = coarsen_grids(grids);
    let interp = build_interp(grids, &coarse);
    galerkin(a, &interp, total_nodes(&coarse)).expect("the Galerkin product assembles")
}

fn inverse_diagonal(diag: &[f64]) -> Result<Vec<f64>, SolverError> {
    diag.iter()
        .enumerate()
        .map(|(index, &d)| {
            if d <= 0.0 {
                Err(SolverError::NotPositiveDefinite { index, value: d })
            } else {
                Ok(1.0 / d)
            }
        })
        .collect()
}

impl Multigrid {
    /// Builds the hierarchy for `a` over the given grid geometry,
    /// sharing `fine_op` (the mesh's extracted stencil, when available)
    /// for finest-level applies instead of cloning the fine matrix.
    ///
    /// # Errors
    ///
    /// [`SolverError::MissingGridGeometry`] when the grids do not tile
    /// `[0, a.dim())` contiguously (or coarsening cannot make progress
    /// on a degenerate geometry); [`SolverError::NotPositiveDefinite`]
    /// when a level's diagonal or the coarse factorization breaks down.
    pub fn new(
        a: &CsrMatrix,
        grids: &[StencilGrid],
        fine_op: Option<Arc<StencilOperator>>,
    ) -> Result<Multigrid, SolverError> {
        let dim = a.dim();
        let mut next = 0usize;
        for g in grids {
            if g.nx == 0 || g.ny == 0 || g.base != next {
                return Err(SolverError::MissingGridGeometry);
            }
            next = g.base + g.node_count();
        }
        if grids.is_empty() || next != dim {
            return Err(SolverError::MissingGridGeometry);
        }

        let mut levels: Vec<MgLevel> = Vec::new();
        let mut owned: Option<CsrMatrix> = None;
        let mut cur_grids = grids.to_vec();
        let coarse = loop {
            let cur_a = owned.as_ref().unwrap_or(a);
            let cur_dim = cur_a.dim();
            let coarse_grids = coarsen_grids(&cur_grids);
            let coarse_dim = total_nodes(&coarse_grids);
            if cur_dim <= COARSE_LIMIT || levels.len() >= MAX_LEVELS || coarse_dim >= cur_dim {
                if coarse_dim >= cur_dim && cur_dim > DENSE_COARSE_MAX {
                    // Coarsening stalled far from the dense regime —
                    // the geometry can't support a hierarchy.
                    return Err(SolverError::MissingGridGeometry);
                }
                break DenseMatrix::from_csr(cur_a).cholesky()?;
            }
            let interp = build_interp(&cur_grids, &coarse_grids);
            let coarse_a = galerkin(cur_a, &interp, coarse_dim)?;
            let smoother = match IncompleteCholesky::new(cur_a) {
                Ok(ic) => Smoother::Ic(ic),
                Err(_) => Smoother::Jacobi(inverse_diagonal(&cur_a.diagonal())?),
            };
            let op = if let Some(m) = owned.take() {
                LevelOp::Csr(m)
            } else if let Some(s) = &fine_op {
                LevelOp::Stencil(s.clone())
            } else {
                LevelOp::Csr(a.clone())
            };
            levels.push(MgLevel {
                op,
                smoother,
                interp,
                coarse_dim,
            });
            owned = Some(coarse_a);
            cur_grids = coarse_grids;
        };

        pi3d_telemetry::metrics::counter("solver.mg.builds").incr(1);
        pi3d_telemetry::metrics::gauge("solver.mg.levels").set((levels.len() + 1) as f64);
        pi3d_telemetry::metrics::gauge("solver.mg.coarse_dim").set(coarse.dim() as f64);
        pi3d_telemetry::debug!(
            "multigrid hierarchy: {} levels, coarse dim {}",
            levels.len() + 1,
            coarse.dim()
        );

        Ok(Multigrid {
            dim,
            levels,
            coarse,
            workspaces: Mutex::new(Vec::new()),
            cycles: AtomicU64::new(0),
        })
    }

    /// Dimension of the finest level.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of levels in the hierarchy, counting the dense coarsest.
    pub fn levels(&self) -> usize {
        self.levels.len() + 1
    }

    /// Nodes on the dense coarsest level.
    pub fn coarse_dim(&self) -> usize {
        self.coarse.dim()
    }

    /// V-cycles applied so far.
    pub fn cycles(&self) -> u64 {
        self.cycles.load(Ordering::Relaxed)
    }

    fn new_workspace(&self) -> Vec<LevelBuffers> {
        self.levels
            .iter()
            .map(|level| LevelBuffers {
                tmp: vec![0.0; level.interp.rows()],
                res: vec![0.0; level.interp.rows()],
                rc: vec![0.0; level.coarse_dim],
                zc: vec![0.0; level.coarse_dim],
            })
            .collect()
    }

    /// Applies one V-cycle: `z ≈ A⁻¹·r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `z` have a length other than [`dim`](Self::dim).
    pub fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.dim);
        assert_eq!(z.len(), self.dim);
        let total = self.cycles.fetch_add(1, Ordering::Relaxed) + 1;
        static CYCLES: std::sync::OnceLock<&'static pi3d_telemetry::Counter> =
            std::sync::OnceLock::new();
        CYCLES
            .get_or_init(|| pi3d_telemetry::metrics::counter("solver.mg.cycles"))
            .incr(1);
        pi3d_telemetry::trace::counter("solver", "mg.cycles", total as f64);
        let mut ws = {
            let mut pool = self.workspaces.lock().unwrap_or_else(|e| e.into_inner());
            pool.pop().unwrap_or_else(|| self.new_workspace())
        };
        self.vcycle(0, r, z, &mut ws);
        let mut pool = self.workspaces.lock().unwrap_or_else(|e| e.into_inner());
        pool.push(ws);
    }

    fn vcycle(&self, k: usize, r: &[f64], z: &mut [f64], ws: &mut [LevelBuffers]) {
        let Some(level) = self.levels.get(k) else {
            // Coarsest level: direct dense solve. Dimensions match by
            // construction, so the factor cannot fail here.
            let _span = pi3d_telemetry::trace::span("mg", "mg:coarse:solve");
            z.copy_from_slice(r);
            self.coarse
                .solve_in_place(z)
                .expect("coarse-level dimensions match by construction");
            return;
        };
        let Some((buf, rest)) = ws.split_first_mut() else {
            unreachable!("one buffer set per smoothing level");
        };

        // Pre-smooth from a zero guess: z = M⁻¹·r (no operator apply
        // needed), then form the residual the coarse grid will correct.
        {
            let _span = pi3d_telemetry::trace::span_with("mg", || format!("mg:level{k}:smooth"));
            level.smoother.apply(r, z);
            level.op.apply(z, &mut buf.tmp);
            for i in 0..r.len() {
                buf.res[i] = r[i] - buf.tmp[i];
            }
        }

        // Restrict the residual (full weighting, Pᵀ scatter).
        {
            let _span = pi3d_telemetry::trace::span_with("mg", || format!("mg:level{k}:restrict"));
            buf.rc.fill(0.0);
            for i in 0..r.len() {
                let res_i = buf.res[i];
                for (c, w) in level.interp.row(i) {
                    buf.rc[c] += w * res_i;
                }
            }
        }

        self.vcycle(k + 1, &buf.rc, &mut buf.zc, rest);

        // Prolong the coarse correction back up.
        {
            let _span = pi3d_telemetry::trace::span_with("mg", || format!("mg:level{k}:prolong"));
            for i in 0..r.len() {
                let mut acc = 0.0;
                for (c, w) in level.interp.row(i) {
                    acc += w * buf.zc[c];
                }
                z[i] += acc;
            }
        }

        // Symmetric post-smooth: z += M⁻¹·(r − A·z), the same smoother
        // as the pre-sweep so the V-cycle stays a symmetric operator.
        {
            let _span = pi3d_telemetry::trace::span_with("mg", || format!("mg:level{k}:smooth"));
            level.op.apply(z, &mut buf.tmp);
            for i in 0..r.len() {
                buf.res[i] = r[i] - buf.tmp[i];
            }
            level.smoother.apply(&buf.res, &mut buf.tmp);
            for i in 0..r.len() {
                z[i] += buf.tmp[i];
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::cg::CgSolver;
    use crate::precond::{AppliedPreconditioner, JacobiScaling};

    /// 2D Poisson-like grid with ground ties: the classic refinement
    /// stress for preconditioners.
    fn poisson(nx: usize, ny: usize) -> (CsrMatrix, Vec<StencilGrid>) {
        let mut coo = CooBuilder::new(nx * ny);
        for iy in 0..ny {
            for ix in 0..nx {
                let n = iy * nx + ix;
                if ix + 1 < nx {
                    coo.stamp_conductance(n, n + 1, 1.0);
                }
                if iy + 1 < ny {
                    coo.stamp_conductance(n, n + nx, 1.0);
                }
                if ix == 0 {
                    coo.stamp_to_ground(n, 1.0);
                }
            }
        }
        (
            coo.into_csr().unwrap(),
            vec![StencilGrid { base: 0, nx, ny }],
        )
    }

    fn hotspot(n: usize) -> Vec<f64> {
        let mut b = vec![0.0; n];
        b[n / 2] = 1.0;
        b[n - 1] = 0.5;
        b
    }

    #[test]
    fn hierarchy_builds_and_reports_shape() {
        let (a, grids) = poisson(40, 40);
        let mg = Multigrid::new(&a, &grids, None).unwrap();
        assert_eq!(mg.dim(), 1600);
        assert!(mg.levels() >= 2, "expected a real hierarchy");
        assert!(mg.coarse_dim() <= COARSE_LIMIT);
        assert_eq!(mg.cycles(), 0);
    }

    #[test]
    fn tiny_systems_become_a_direct_solve() {
        let (a, grids) = poisson(5, 5);
        let mg = Multigrid::new(&a, &grids, None).unwrap();
        assert_eq!(mg.levels(), 1);
        // One application of an exact preconditioner gives CG the
        // answer almost immediately.
        let solver = CgSolver::new();
        let m = AppliedPreconditioner::Multigrid(mg);
        let sol = solver.solve_prepared(&a, &hotspot(25), None, &m).unwrap();
        assert!(sol.iterations <= 2, "iterations {}", sol.iterations);
    }

    #[test]
    fn mg_matches_jacobi_solution_with_fewer_iterations() {
        let (a, grids) = poisson(48, 48);
        let b = hotspot(a.dim());
        let solver = CgSolver::new().with_tolerance(1e-10);

        let jacobi = AppliedPreconditioner::Jacobi(JacobiScaling::new(&a).unwrap());
        let base = solver.solve_prepared(&a, &b, None, &jacobi).unwrap();

        let mg = Multigrid::new(&a, &grids, None).unwrap();
        let m = AppliedPreconditioner::Multigrid(mg);
        let fast = solver.solve_prepared(&a, &b, None, &m).unwrap();

        assert!(
            fast.iterations < base.iterations / 2,
            "mg {} vs jacobi {}",
            fast.iterations,
            base.iterations
        );
        for i in 0..b.len() {
            assert!(
                (fast.x[i] - base.x[i]).abs() < 1e-7,
                "solution mismatch at {i}: {} vs {}",
                fast.x[i],
                base.x[i]
            );
        }
    }

    #[test]
    fn iteration_counts_stay_flat_under_refinement() {
        let solver = CgSolver::new().with_tolerance(1e-10);
        let mut mg_iters = Vec::new();
        let mut jacobi_iters = Vec::new();
        // Every size is above COARSE_LIMIT so each run exercises a real
        // V-cycle rather than the direct coarse solve.
        for n in [32usize, 64, 96] {
            let (a, grids) = poisson(n, n);
            let b = hotspot(a.dim());
            let mg = Multigrid::new(&a, &grids, None).unwrap();
            let m = AppliedPreconditioner::Multigrid(mg);
            mg_iters.push(solver.solve_prepared(&a, &b, None, &m).unwrap().iterations);
            let j = AppliedPreconditioner::Jacobi(JacobiScaling::new(&a).unwrap());
            jacobi_iters.push(solver.solve_prepared(&a, &b, None, &j).unwrap().iterations);
        }
        // Jacobi iteration counts grow with mesh width; MG's stay ~flat
        // (allow a little drift, but nothing like the Jacobi slope).
        assert!(
            jacobi_iters[2] > jacobi_iters[0] * 2,
            "jacobi should degrade under refinement: {jacobi_iters:?}"
        );
        assert!(
            mg_iters[2] <= mg_iters[0] + 6,
            "mg iterations should stay flat: {mg_iters:?}"
        );
    }

    #[test]
    fn bad_geometry_is_a_typed_error() {
        let (a, _) = poisson(10, 10);
        let wrong = vec![StencilGrid {
            base: 0,
            nx: 3,
            ny: 3,
        }];
        assert!(matches!(
            Multigrid::new(&a, &wrong, None),
            Err(SolverError::MissingGridGeometry)
        ));
        assert!(matches!(
            Multigrid::new(&a, &[], None),
            Err(SolverError::MissingGridGeometry)
        ));
    }

    #[test]
    fn interp_rows_are_convex_weights() {
        let (_, fine) = poisson(9, 7);
        let coarse = coarsen_grids(&fine);
        let p = build_interp(&fine, &coarse);
        assert_eq!(p.rows(), 63);
        for i in 0..p.rows() {
            let sum: f64 = p.row(i).map(|(_, w)| w).sum();
            assert!((sum - 1.0).abs() < 1e-12, "row {i} weights sum to {sum}");
            for (c, w) in p.row(i) {
                assert!(c < total_nodes(&coarse));
                assert!(w > 0.0 && w <= 1.0);
            }
        }
    }
}
