use std::sync::Arc;

use crate::multigrid::Multigrid;
use crate::stencil::{StencilGrid, StencilOperator};
use crate::{CsrMatrix, SolverError};

/// Preconditioner selection for a [`PreparedSystem`](crate::PreparedSystem).
///
/// Power-grid conductance matrices are SPD and strongly diagonally dominant,
/// so Jacobi is usually sufficient; IC(0) roughly halves iteration counts on
/// ill-conditioned meshes (very low metal usage) at the cost of a
/// factorization pass. Multigrid keeps iteration counts ~flat as the mesh
/// is refined, but needs the stack's grid geometry to build (see
/// [`PreparedSystem::with_geometry`](crate::PreparedSystem::with_geometry)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Preconditioner {
    /// Diagonal (Jacobi) scaling. The default.
    #[default]
    Jacobi,
    /// Zero fill-in incomplete Cholesky, IC(0).
    IncompleteCholesky,
    /// Geometric multigrid V-cycle (see [`Multigrid`]). Requires grid
    /// geometry at build time.
    Multigrid,
}

/// A concrete, applied preconditioner `M ≈ A` supporting `z = M⁻¹·r`.
///
/// Building one (in particular the IC(0) factorization) is the expensive,
/// matrix-dependent part of a preconditioned CG solve. An
/// `AppliedPreconditioner` is immutable and `Sync` once built, so it can be
/// constructed once per matrix and shared across many solves and threads —
/// the factor-once/solve-many pattern of
/// [`PreparedSystem`](crate::PreparedSystem), its only owner.
pub(crate) enum AppliedPreconditioner {
    /// Diagonal (Jacobi) scaling.
    Jacobi(JacobiScaling),
    /// Zero fill-in incomplete Cholesky factors.
    Ic0(IncompleteCholesky),
    /// Geometric multigrid V-cycle hierarchy.
    Multigrid(Multigrid),
}

impl std::fmt::Debug for AppliedPreconditioner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppliedPreconditioner::Jacobi(_) => f.write_str("AppliedPreconditioner::Jacobi"),
            AppliedPreconditioner::Ic0(_) => f.write_str("AppliedPreconditioner::Ic0"),
            AppliedPreconditioner::Multigrid(_) => f.write_str("AppliedPreconditioner::Multigrid"),
        }
    }
}

impl AppliedPreconditioner {
    /// Builds the concrete preconditioner of `kind` for the matrix `a`,
    /// supplying the stack's grid geometry (and, when one was extracted,
    /// the matrix-free stencil operator to share for fine-level applies)
    /// so [`Preconditioner::Multigrid`] can construct its hierarchy.
    /// Other kinds ignore the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NotPositiveDefinite`] if the diagonal scaling
    /// or IC(0) factorization breaks down, and
    /// [`SolverError::MissingGridGeometry`] for multigrid when `grids` are
    /// empty or do not tile the matrix dimension.
    pub fn build_with_geometry(
        kind: Preconditioner,
        a: &CsrMatrix,
        grids: &[StencilGrid],
        stencil: Option<&Arc<StencilOperator>>,
    ) -> Result<Self, SolverError> {
        pi3d_telemetry::metrics::counter("solver.precond.builds").incr(1);
        pi3d_telemetry::trace!("building {kind:?} preconditioner for n={}", a.dim());
        match kind {
            Preconditioner::Jacobi => Ok(AppliedPreconditioner::Jacobi(JacobiScaling::new(a)?)),
            Preconditioner::IncompleteCholesky => {
                Ok(AppliedPreconditioner::Ic0(IncompleteCholesky::new(a)?))
            }
            Preconditioner::Multigrid => Ok(AppliedPreconditioner::Multigrid(Multigrid::new(
                a,
                grids,
                stencil.cloned(),
            )?)),
        }
    }

    /// Applies `z = M⁻¹·r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `z` length differs from the matrix dimension the
    /// preconditioner was built for.
    pub fn apply(&self, r: &[f64], z: &mut [f64]) {
        match self {
            AppliedPreconditioner::Jacobi(j) => j.apply(r, z),
            AppliedPreconditioner::Ic0(ic) => ic.apply(r, z),
            AppliedPreconditioner::Multigrid(mg) => mg.apply(r, z),
        }
    }
}

/// Diagonal (Jacobi) preconditioner: `M = diag(A)`.
#[derive(Debug, Clone)]
pub struct JacobiScaling {
    inv_diag: Vec<f64>,
}

impl JacobiScaling {
    /// Builds the preconditioner from the diagonal of `a`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NotPositiveDefinite`] if any diagonal entry is
    /// not strictly positive.
    pub fn new(a: &CsrMatrix) -> Result<Self, SolverError> {
        let diag = a.diagonal();
        for (i, &d) in diag.iter().enumerate() {
            if d <= 0.0 || !d.is_finite() {
                return Err(SolverError::NotPositiveDefinite { index: i, value: d });
            }
        }
        Ok(JacobiScaling {
            inv_diag: diag.iter().map(|d| 1.0 / d).collect(),
        })
    }

    /// Applies `z = diag(A)⁻¹·r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `z` length differs from the matrix dimension.
    pub fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.inv_diag.len());
        assert_eq!(z.len(), self.inv_diag.len());
        for i in 0..r.len() {
            z[i] = r[i] * self.inv_diag[i];
        }
    }
}

/// Rows per block of [`IncompleteCholesky`]'s solve order. Each block is
/// solved level by level, so its rows read and write `z` out of index
/// order; at 2,048 rows the block's 16 KiB slice of `z` stays in L1.
const IC_BLOCK: usize = 2_048;

/// Zero fill-in incomplete Cholesky factorization, IC(0).
///
/// Factors `A ≈ L·Lᵀ` where `L` keeps exactly the sparsity pattern of the
/// lower triangle of `A`. Application solves the two triangular systems.
///
/// The factor is stored in the order its rows are solved, not in index
/// order. In index order every row of a mesh reads the row before it, so
/// each row's sum waits for the previous row's division. Instead, the
/// rows are cut into blocks of consecutive indices, and each block is
/// sorted by dependency level: a row's level is one more than the highest
/// level among the rows of its block it reads. Rows of one level are
/// independent, so their divisions overlap. The forward pass reads `L`'s
/// rows in that order. The backward pass gathers over `Lᵀ`'s rows in the
/// reverse order, each row's dependents highest first, which is the order
/// a row-by-row scatter from the last row down reaches them in. `Lᵀ` holds
/// indices into `L`'s values, not a copy of them. Every row sums its
/// terms in the order the row-by-row algorithm does, so the factor and
/// every [`apply`](Self::apply) are bit-identical to it.
#[derive(Debug, Clone)]
pub struct IncompleteCholesky {
    /// `order[p]` is the `p`-th row the forward pass solves; the backward
    /// pass solves them from the last position down.
    order: Vec<u32>,
    /// Off-diagonal entries of `L` by rows in solve order: row `order[p]`
    /// has columns `l_col[l_ptr[p]..l_ptr[p + 1]]` (ascending) and the
    /// matching `l_val`.
    l_ptr: Vec<usize>,
    l_col: Vec<u32>,
    l_val: Vec<f64>,
    /// `diag[p]` is row `order[p]`'s diagonal entry of `L`.
    diag: Vec<f64>,
    /// Off-diagonal entries of `Lᵀ` by rows in solve order: the rows that
    /// read row `order[p]`, highest first, are `t_row[t_ptr[p]..t_ptr[p +
    /// 1]]`, and `t_val` holds the index of each one's entry in `l_val`.
    t_ptr: Vec<usize>,
    t_row: Vec<u32>,
    t_val: Vec<u32>,
}

impl IncompleteCholesky {
    /// Computes the IC(0) factorization of an SPD sparse matrix.
    ///
    /// Rows are factored in index order, so a breakdown reports the
    /// lowest-index row that fails.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NotPositiveDefinite`] if a pivot breakdown
    /// occurs (possible for IC(0) even on SPD matrices, though rare for
    /// diagonally dominant grids), or with value `0.0` for a row that
    /// stores no diagonal entry.
    pub fn new(a: &CsrMatrix) -> Result<Self, SolverError> {
        let n = a.dim();
        assert!(
            u32::try_from(a.nnz().max(n)).is_ok(),
            "IC(0) indexes rows and entries with u32: {n} rows, {} entries",
            a.nnz()
        );
        let (order, levels) = solve_order(a);
        let mut pos = vec![0u32; n];
        for (p, &i) in order.iter().enumerate() {
            pos[i as usize] = p as u32;
        }

        // Copy the lower triangle into solve order, noting the first row
        // that stores no diagonal entry and counting each row's
        // dependents, the entries of its row of Lᵀ.
        let mut l_ptr = Vec::with_capacity(n + 1);
        // A symmetric matrix with a full diagonal has this many.
        let below = a.nnz().saturating_sub(n) / 2;
        let mut l_col: Vec<u32> = Vec::with_capacity(below);
        let mut l_val: Vec<f64> = Vec::with_capacity(below);
        let mut diag = vec![0.0; n];
        let mut t_ptr = vec![0usize; n + 1];
        let mut missing = n;
        l_ptr.push(0);
        for (p, &i) in order.iter().enumerate() {
            let i = i as usize;
            let mut has_diag = false;
            for (c, v) in a.row(i) {
                if c < i {
                    l_col.push(c as u32);
                    l_val.push(v);
                    t_ptr[pos[c] as usize + 1] += 1;
                } else {
                    if c == i {
                        diag[p] = v;
                        has_diag = true;
                    }
                    break;
                }
            }
            if !has_diag {
                missing = missing.min(i);
            }
            l_ptr.push(l_col.len());
        }
        let off_diagonals = l_col.len();
        for p in 0..n {
            t_ptr[p + 1] += t_ptr[p];
        }
        let mut t_row = vec![0u32; off_diagonals];
        let mut t_val = vec![0u32; off_diagonals];
        let mut t_end = t_ptr[1..].to_vec();

        // In-place IKJ-style factorization restricted to the pattern, in
        // row-index order. For each k < i in row i's pattern:
        // l_ik = (a_ik − Σ_{j<k} l_ij·l_kj) / l_kk, then
        // l_ii = √(a_ii − Σ_{k<i} l_ik²). Each l_ik is also filed in row
        // k of Lᵀ, which fills from its end, so every row of Lᵀ lists its
        // dependents highest first.
        for i in 0..missing {
            let p = pos[i] as usize;
            let (lo, hi) = (l_ptr[p], l_ptr[p + 1]);
            for ki in lo..hi {
                let q = pos[l_col[ki] as usize] as usize;
                let (lo_k, hi_k) = (l_ptr[q], l_ptr[q + 1]);
                // Merge-walk the two sorted rows over columns < k.
                let mut v = l_val[ki];
                let (mut pi, mut pk) = (lo, lo_k);
                while pi < ki && pk < hi_k {
                    match l_col[pi].cmp(&l_col[pk]) {
                        std::cmp::Ordering::Less => pi += 1,
                        std::cmp::Ordering::Greater => pk += 1,
                        std::cmp::Ordering::Equal => {
                            v -= l_val[pi] * l_val[pk];
                            pi += 1;
                            pk += 1;
                        }
                    }
                }
                l_val[ki] = v / diag[q];
                t_end[q] -= 1;
                t_row[t_end[q]] = i as u32;
                t_val[t_end[q]] = ki as u32;
            }
            let mut d = diag[p];
            for &lik in &l_val[lo..hi] {
                d -= lik * lik;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(SolverError::NotPositiveDefinite { index: i, value: d });
            }
            diag[p] = d.sqrt();
        }
        if missing < n {
            return Err(SolverError::NotPositiveDefinite {
                index: missing,
                value: 0.0,
            });
        }

        pi3d_telemetry::metrics::gauge("solver.ic0.levels").set(levels as f64);
        pi3d_telemetry::debug!(
            "IC(0) factor: {n} rows, {off_diagonals} off-diagonals, {levels} levels"
        );
        Ok(IncompleteCholesky {
            order,
            l_ptr,
            l_col,
            l_val,
            diag,
            t_ptr,
            t_row,
            t_val,
        })
    }

    /// Applies `z = (L·Lᵀ)⁻¹·r` via forward/backward substitution.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `z` length differs from the matrix dimension.
    pub fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.apply_lanes::<1>(r.as_chunks().0, z.as_chunks_mut().0);
    }

    /// Applies `z = (L·Lᵀ)⁻¹·r` to `K` vectors at once, interleaved one
    /// `[f64; K]` per row, so one pass over the factor serves all of
    /// them. [`apply`](Self::apply) is the `K` = 1 instance, and every
    /// lane takes the rows in the stored order and each row's terms in
    /// the same order, so each lane is bit-identical to a single apply.
    pub(crate) fn apply_lanes<const K: usize>(&self, r: &[[f64; K]], z: &mut [[f64; K]]) {
        assert_eq!(r.len(), self.order.len());
        assert_eq!(z.len(), self.order.len());
        // Forward: L·y = r. A row reads only rows solved before it.
        for (p, &i) in self.order.iter().enumerate() {
            let (lo, hi) = (self.l_ptr[p], self.l_ptr[p + 1]);
            let mut acc = r[i as usize];
            for (&c, &v) in self.l_col[lo..hi].iter().zip(&self.l_val[lo..hi]) {
                let zc = z[c as usize];
                for l in 0..K {
                    acc[l] -= v * zc[l];
                }
            }
            z[i as usize] = acc.map(|a| a / self.diag[p]);
        }
        // Backward: Lᵀ·z = y, from the last position down.
        for (p, &j) in self.order.iter().enumerate().rev() {
            let (lo, hi) = (self.t_ptr[p], self.t_ptr[p + 1]);
            let mut acc = z[j as usize];
            for (&i, &e) in self.t_row[lo..hi].iter().zip(&self.t_val[lo..hi]) {
                let (v, zi) = (self.l_val[e as usize], z[i as usize]);
                for l in 0..K {
                    acc[l] -= v * zi[l];
                }
            }
            z[j as usize] = acc.map(|a| a / self.diag[p]);
        }
    }
}

/// The solve order of `a`'s rows: blocks of [`IC_BLOCK`] consecutive
/// rows, each sorted stably by its rows' levels within the block (a row
/// that reads no row of its block is level 0). Returns the order and the
/// number of levels summed over the blocks.
fn solve_order(a: &CsrMatrix) -> (Vec<u32>, usize) {
    let n = a.dim();
    let mut order = Vec::with_capacity(n);
    let mut level = vec![0u32; IC_BLOCK.min(n)];
    let mut levels = 0;
    for start in (0..n).step_by(IC_BLOCK) {
        let rows = IC_BLOCK.min(n - start);
        let mut depth = 0;
        for r in 0..rows {
            let mut lvl = 0;
            for (c, _) in a.row(start + r) {
                if c >= start + r {
                    break;
                }
                if c >= start {
                    lvl = lvl.max(level[c - start] + 1);
                }
            }
            level[r] = lvl;
            depth = depth.max(lvl as usize + 1);
        }
        // Counting sort by level: `first[l]` is where level `l` starts.
        let mut first = vec![0usize; depth + 1];
        for &lvl in &level[..rows] {
            first[lvl as usize + 1] += 1;
        }
        for l in 0..depth {
            first[l + 1] += first[l];
        }
        let base = order.len();
        order.resize(base + rows, 0);
        for (r, &lvl) in level[..rows].iter().enumerate() {
            order[base + first[lvl as usize]] = (start + r) as u32;
            first[lvl as usize] += 1;
        }
        levels += depth;
    }
    (order, levels)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::multigrid::coarse_operator;
    use crate::CooBuilder;
    use pi3d_telemetry::rng::SplitMix64;

    fn grid_matrix(n: usize) -> CsrMatrix {
        // 1D chain grounded at both ends.
        let mut b = CooBuilder::new(n);
        b.stamp_to_ground(0, 2.0);
        b.stamp_to_ground(n - 1, 2.0);
        for i in 0..n - 1 {
            b.stamp_conductance(i, i + 1, 1.0);
        }
        b.into_csr().unwrap()
    }

    /// Stamps one `nx × ny` sheet at `base` with x- and y-strap
    /// conductances `gx` and `gy`.
    fn stamp_sheet(b: &mut CooBuilder, base: usize, nx: usize, ny: usize, gx: f64, gy: f64) {
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

    /// 2-D grid with every node weakly grounded.
    fn grid_2d(nx: usize, ny: usize) -> (CooBuilder, Vec<StencilGrid>) {
        let mut b = CooBuilder::new(nx * ny);
        stamp_sheet(&mut b, 0, nx, ny, 1.0, 1.0);
        for node in 0..nx * ny {
            b.stamp_to_ground(node, 0.05);
        }
        (b, vec![StencilGrid { base: 0, nx, ny }])
    }

    /// One die's two sheets, strong axes crossed, glued node by node by
    /// stiff vias, grounded through seeded contacts on the upper sheet,
    /// and joined by sparse seeded cross links. A lower-sheet row's
    /// partner lies above it and an upper-sheet row's below it, so rows
    /// have extras on both sides of their in-sheet neighbours.
    fn two_sheet_stack(nx: usize, ny: usize, seed: u64) -> (CsrMatrix, Vec<StencilGrid>) {
        let sheet = nx * ny;
        let mut rng = SplitMix64::new(seed);
        let mut b = CooBuilder::new(2 * sheet);
        stamp_sheet(&mut b, 0, nx, ny, 1.0, 0.05);
        stamp_sheet(&mut b, sheet, nx, ny, 0.05, 1.0);
        for node in 0..sheet {
            b.stamp_conductance(node, sheet + node, rng.range_f64(15.0, 25.0));
            if rng.chance(0.1) {
                b.stamp_to_ground(sheet + node, rng.range_f64(0.5, 5.0));
            }
        }
        b.stamp_to_ground(sheet, 1.0);
        for _ in 0..sheet / 16 {
            let p = rng.next_below(sheet as u64) as usize;
            let q = sheet + rng.next_below(sheet as u64) as usize;
            if q != sheet + p {
                b.stamp_conductance(p, q, rng.range_f64(0.1, 2.0));
            }
        }
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

    /// The row-by-row IC(0) the level-ordered factor replaces: the lower
    /// triangle in index order (diagonal last in each row), factored in
    /// place, forward pass by rows, backward pass scattering each row
    /// from the last up. The bit-identity oracle.
    #[derive(Debug)]
    struct Reference {
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    }

    impl Reference {
        fn new(a: &CsrMatrix) -> Result<Self, SolverError> {
            let n = a.dim();
            let mut row_ptr = vec![0];
            let mut col_idx = Vec::new();
            let mut values = Vec::new();
            for r in 0..n {
                for (c, v) in a.row(r) {
                    if c <= r {
                        col_idx.push(c as u32);
                        values.push(v);
                    }
                }
                row_ptr.push(col_idx.len());
            }
            for i in 0..n {
                let (lo_i, hi_i) = (row_ptr[i], row_ptr[i + 1]);
                for ki in lo_i..hi_i {
                    let k = col_idx[ki] as usize;
                    if k == i {
                        let mut d = values[ki];
                        for kk in lo_i..ki {
                            d -= values[kk] * values[kk];
                        }
                        if d <= 0.0 || !d.is_finite() {
                            return Err(SolverError::NotPositiveDefinite { index: i, value: d });
                        }
                        values[ki] = d.sqrt();
                    } else {
                        let mut v = values[ki];
                        let (lo_k, hi_k) = (row_ptr[k], row_ptr[k + 1]);
                        let (mut pi, mut pk) = (lo_i, lo_k);
                        while pi < ki && pk < hi_k - 1 {
                            match col_idx[pi].cmp(&col_idx[pk]) {
                                std::cmp::Ordering::Less => pi += 1,
                                std::cmp::Ordering::Greater => pk += 1,
                                std::cmp::Ordering::Equal => {
                                    v -= values[pi] * values[pk];
                                    pi += 1;
                                    pk += 1;
                                }
                            }
                        }
                        values[ki] = v / values[hi_k - 1];
                    }
                }
            }
            Ok(Reference {
                row_ptr,
                col_idx,
                values,
            })
        }

        fn apply(&self, r: &[f64]) -> Vec<f64> {
            let n = r.len();
            let mut z = r.to_vec();
            for i in 0..n {
                let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
                let mut acc = z[i];
                for k in lo..hi - 1 {
                    acc -= self.values[k] * z[self.col_idx[k] as usize];
                }
                z[i] = acc / self.values[hi - 1];
            }
            for i in (0..n).rev() {
                let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
                z[i] /= self.values[hi - 1];
                let zi = z[i];
                for k in lo..hi - 1 {
                    z[self.col_idx[k] as usize] -= self.values[k] * zi;
                }
            }
            z
        }
    }

    /// Asserts that the level-ordered factor of `a` holds the reference's
    /// columns and values bit for bit, and applies identically to three
    /// seeded right-hand sides.
    fn assert_matches_reference(name: &str, a: &CsrMatrix) {
        let want = Reference::new(a).unwrap();
        let ic = IncompleteCholesky::new(a).unwrap();
        let n = a.dim();
        let mut seen = vec![false; n];
        for (p, &i) in ic.order.iter().enumerate() {
            let i = i as usize;
            assert!(!seen[i], "{name}: row {i} solved twice");
            seen[i] = true;
            let (lo, hi) = (want.row_ptr[i], want.row_ptr[i + 1]);
            assert_eq!(
                ic.diag[p].to_bits(),
                want.values[hi - 1].to_bits(),
                "{name}: L[{i}][{i}]"
            );
            let got = ic.l_ptr[p]..ic.l_ptr[p + 1];
            assert_eq!(
                ic.l_col[got.clone()],
                want.col_idx[lo..hi - 1],
                "{name}: row {i} pattern"
            );
            for (e, k) in got.zip(lo..hi - 1) {
                let j = want.col_idx[k];
                assert_eq!(
                    ic.l_val[e].to_bits(),
                    want.values[k].to_bits(),
                    "{name}: L[{i}][{j}]"
                );
            }
        }
        let mut rng = SplitMix64::new(n as u64);
        for trial in 0..3 {
            let r: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            let expected = want.apply(&r);
            let mut z = vec![f64::NAN; n];
            ic.apply(&r, &mut z);
            for i in 0..n {
                assert_eq!(
                    z[i].to_bits(),
                    expected[i].to_bits(),
                    "{name}: trial {trial} z[{i}]"
                );
            }
        }
    }

    #[test]
    fn level_order_matches_the_row_by_row_reference_bitwise() {
        for n in [1, 2, 10, IC_BLOCK, 2 * IC_BLOCK + 3] {
            assert_matches_reference(&format!("chain {n}"), &grid_matrix(n));
        }
        // 64×32 is exactly one block; 50×45 is one block and a 202-row
        // tail.
        for (nx, ny) in [(8, 8), (64, 32), (50, 45)] {
            let (b, grids) = grid_2d(nx, ny);
            let a = b.into_csr().unwrap();
            assert_matches_reference(&format!("grid {nx}x{ny}"), &a);
            assert_matches_reference(
                &format!("grid {nx}x{ny} Galerkin level"),
                &coarse_operator(&a, &grids),
            );
        }
        for (seed, (nx, ny)) in [(6, 5), (40, 33), (37, 29)].into_iter().enumerate() {
            let (a, grids) = two_sheet_stack(nx, ny, seed as u64);
            assert_matches_reference(&format!("stack {nx}x{ny}"), &a);
            assert_matches_reference(
                &format!("stack {nx}x{ny} Galerkin level"),
                &coarse_operator(&a, &grids),
            );
        }
    }

    #[test]
    fn breakdown_names_the_reference_row_and_pivot() {
        // On a 10×10 grid row 15 (x 5, y 1) sits at level 6 and row 20
        // (x 0, y 2) at level 2, so the level order reaches row 20 first.
        // Both pivots break down; index order reports row 15.
        let (mut b, _) = grid_2d(10, 10);
        b.add(15, 15, -9.0);
        b.add(20, 20, -7.0);
        let a = b.into_csr().unwrap();
        let (order, _) = solve_order(&a);
        let at = |row: u32| order.iter().position(|&i| i == row).unwrap();
        assert!(at(20) < at(15), "row 20 must be solved before row 15");
        let want = Reference::new(&a).unwrap_err();
        assert!(matches!(
            want,
            SolverError::NotPositiveDefinite { index: 15, .. }
        ));
        assert_eq!(IncompleteCholesky::new(&a).unwrap_err(), want);
    }

    #[test]
    fn ic0_names_the_first_row_without_a_diagonal() {
        // Row 0 stores only its upper entry, so its lower triangle is
        // empty.
        let mut b = CooBuilder::new(2);
        b.add(0, 1, -1.0);
        b.add(1, 0, -1.0);
        b.add(1, 1, 2.0);
        let a = b.into_csr().unwrap();
        let want = SolverError::NotPositiveDefinite {
            index: 0,
            value: 0.0,
        };
        assert_eq!(JacobiScaling::new(&a).unwrap_err(), want);
        assert_eq!(IncompleteCholesky::new(&a).unwrap_err(), want);
        let prepared = crate::PreparedSystem::new(a, Preconditioner::IncompleteCholesky);
        assert_eq!(prepared.unwrap_err(), want);
    }

    #[test]
    fn ic0_names_a_later_row_whose_diagonal_cancelled() {
        // Row 1's diagonal sums to zero and is dropped, so its last
        // stored lower entry is an off-diagonal, not a pivot.
        let mut b = CooBuilder::new(3);
        b.stamp_conductance(0, 1, 1.0);
        b.stamp_conductance(1, 2, 1.0);
        b.stamp_to_ground(0, 1.0);
        b.stamp_to_ground(2, 1.0);
        b.add(1, 1, -2.0);
        let a = b.into_csr().unwrap();
        assert_eq!(a.get(1, 1), 0.0);
        let want = SolverError::NotPositiveDefinite {
            index: 1,
            value: 0.0,
        };
        assert_eq!(JacobiScaling::new(&a).unwrap_err(), want);
        assert_eq!(IncompleteCholesky::new(&a).unwrap_err(), want);
    }

    #[test]
    fn jacobi_inverts_diagonal() {
        let a = grid_matrix(4);
        let j = JacobiScaling::new(&a).unwrap();
        let r = vec![3.0, 2.0, 2.0, 3.0];
        let mut z = vec![0.0; 4];
        j.apply(&r, &mut z);
        for i in 0..4 {
            assert!((z[i] * a.get(i, i) - r[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn jacobi_rejects_nonpositive_diagonal() {
        let mut b = CooBuilder::new(2);
        b.add(0, 0, -1.0);
        b.add(1, 1, 1.0);
        let a = b.into_csr().unwrap();
        assert!(matches!(
            JacobiScaling::new(&a),
            Err(SolverError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn ic0_on_tridiagonal_is_exact() {
        // For a tridiagonal SPD matrix IC(0) equals the full Cholesky factor,
        // so applying it must solve the system exactly.
        let a = grid_matrix(10);
        let ic = IncompleteCholesky::new(&a).unwrap();
        let r: Vec<f64> = (0..10).map(|i| (i as f64 * 0.7).sin() + 2.0).collect();
        let mut z = vec![0.0; 10];
        ic.apply(&r, &mut z);
        let az = a.mul_vec(&z).unwrap();
        for i in 0..10 {
            assert!(
                (az[i] - r[i]).abs() < 1e-10,
                "residual at {i}: {}",
                az[i] - r[i]
            );
        }
    }

    #[test]
    fn ic0_application_is_spd_like() {
        // z = M^-1 r should satisfy r.z > 0 for r != 0 (M SPD).
        let a = grid_matrix(16);
        let ic = IncompleteCholesky::new(&a).unwrap();
        let r: Vec<f64> = (0..16)
            .map(|i| if i % 3 == 0 { -1.0 } else { 0.5 })
            .collect();
        let mut z = vec![0.0; 16];
        ic.apply(&r, &mut z);
        let dot: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
        assert!(dot > 0.0);
    }

    #[test]
    fn ic0_rejects_indefinite() {
        let mut b = CooBuilder::new(2);
        b.add(0, 0, 1.0);
        b.add(1, 1, 1.0);
        b.add(0, 1, -2.0);
        b.add(1, 0, -2.0);
        let a = b.into_csr().unwrap();
        assert!(matches!(
            IncompleteCholesky::new(&a),
            Err(SolverError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn default_preconditioner_is_jacobi() {
        assert_eq!(Preconditioner::default(), Preconditioner::Jacobi);
    }

    #[test]
    fn multigrid_without_geometry_is_a_typed_error() {
        let a = grid_matrix(8);
        assert!(matches!(
            AppliedPreconditioner::build_with_geometry(Preconditioner::Multigrid, &a, &[], None),
            Err(SolverError::MissingGridGeometry)
        ));
    }
}
