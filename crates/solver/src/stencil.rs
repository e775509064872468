//! Matrix-free application of stacked-grid PDN systems.
//!
//! A 3D-DRAM power mesh is a stack of regular `nx × ny` sheets: inside a
//! sheet every east-west edge carries the same conductance and every
//! north-south edge carries the same conductance, so the in-sheet part of
//! the nodal matrix is a 5-point stencil described by two scalars per
//! grid. Only the diagonal (which absorbs ground/pad ties and fault
//! drift) and the sparse inter-grid vertical links (TSVs, bumps, vias —
//! the entries faults actually perturb) need per-entry storage.
//!
//! [`StencilOperator::from_csr`] recovers that structure from an
//! assembled [`CsrMatrix`] by *verification*, not by trust: every
//! in-grid off-diagonal must be bit-for-bit equal to its grid's stencil
//! coefficient, and every geometric edge must actually be present,
//! otherwise extraction declines (`None`) and callers keep the CSR. The
//! apply then visits each row's terms in the same ascending-column order
//! as [`CsrMatrix::mul_vec_into`], with values copied or verified
//! bitwise from the CSR, so `y = A·x` is **bit-identical** to the CSR
//! product — swapping the operator can never change a result, only the
//! time and memory it takes to produce it.

use crate::csr::CsrMatrix;

/// Geometry of one regular grid inside the global node numbering:
/// `nx × ny` nodes at indices `base .. base + nx·ny`, row-major with
/// `ix` fastest (node `(ix, iy)` is `base + iy·nx + ix`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StencilGrid {
    /// Index of the grid's first node in the global numbering.
    pub base: usize,
    /// Node count along x.
    pub nx: usize,
    /// Node count along y.
    pub ny: usize,
}

impl StencilGrid {
    /// Number of nodes in this grid.
    pub fn node_count(&self) -> usize {
        self.nx * self.ny
    }
}

/// A linear operator `y = A·x` that the CG loop can apply without
/// knowing the storage scheme behind it.
///
/// Implemented by [`CsrMatrix`] (general sparse storage) and
/// [`StencilOperator`] (matrix-free stacked-grid form). Both
/// implementations promise the same bits for the same input: each row
/// is summed in ascending-column order, so results are independent of
/// which implementation ran.
pub trait Operator: std::fmt::Debug + Send + Sync {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;

    /// Computes `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` have a length other than [`dim`](Self::dim).
    fn apply_into(&self, x: &[f64], y: &mut [f64]);

    /// Returns the operator's diagonal.
    fn diagonal(&self) -> Vec<f64>;
}

impl Operator for CsrMatrix {
    fn dim(&self) -> usize {
        self.dim()
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.mul_vec_into(x, y);
    }

    fn diagonal(&self) -> Vec<f64> {
        self.diagonal()
    }
}

/// Per-grid stencil coefficients as they appear in the matrix: the
/// off-diagonal *values* (negated conductances, so typically ≤ 0).
#[derive(Debug, Clone, Copy)]
struct GridStencil {
    base: usize,
    nx: usize,
    ny: usize,
    /// Value of every east/west off-diagonal entry in this grid.
    x_edge: f64,
    /// Value of every north/south off-diagonal entry in this grid.
    y_edge: f64,
}

/// Matrix-free form of a stacked-grid PDN system: per-grid 5-point
/// stencil coefficients, a per-node diagonal, and a sparse list of
/// inter-grid entries ("extras": TSVs, bumps, bond vias — whatever the
/// stamping put between grids).
///
/// Built by [`StencilOperator::from_csr`]; applying it reproduces the
/// source CSR product bit-for-bit (see the module docs). Compared to the
/// CSR it replaces, it stores ~1 value per node instead of ~7 values +
/// ~7 column indices, and the in-grid terms index `x` arithmetically
/// instead of through `col_idx`, which is where the speed comes from.
pub struct StencilOperator {
    dim: usize,
    grids: Vec<GridStencil>,
    diag: Vec<f64>,
    extras_row_ptr: Vec<usize>,
    extras_col: Vec<u32>,
    extras_val: Vec<f64>,
}

impl std::fmt::Debug for StencilOperator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StencilOperator")
            .field("dim", &self.dim)
            .field("grids", &self.grids.len())
            .field("extras_nnz", &self.extras_col.len())
            .finish()
    }
}

impl StencilOperator {
    /// Attempts to recover the stencil structure of `a` given the grid
    /// geometry, verifying every assumption bitwise along the way.
    ///
    /// Returns `None` — callers fall back to the CSR — when the matrix
    /// does not match the claimed geometry exactly: grids that do not
    /// tile `[0, dim)` contiguously, a missing diagonal or geometric
    /// edge, an in-grid off-diagonal that is not bit-equal to the grid's
    /// uniform coefficient, or an in-grid entry off the 5-point pattern.
    pub fn from_csr(a: &CsrMatrix, grids: &[StencilGrid]) -> Option<StencilOperator> {
        let dim = a.dim();
        if grids.is_empty() {
            return None;
        }
        let mut next = 0usize;
        for g in grids {
            if g.nx == 0 || g.ny == 0 || g.base != next {
                return None;
            }
            next = g.base + g.nx * g.ny;
        }
        if next != dim {
            return None;
        }

        let mut out_grids = Vec::with_capacity(grids.len());
        let mut diag = vec![0.0f64; dim];
        let mut extras_row_ptr = Vec::with_capacity(dim + 1);
        extras_row_ptr.push(0usize);
        let mut extras_col: Vec<u32> = Vec::new();
        let mut extras_val: Vec<f64> = Vec::new();

        for g in grids {
            let (base, nx, ny) = (g.base, g.nx, g.ny);
            let end = base + nx * ny;
            // Uniform edge values, fixed by the first edge seen and
            // verified bitwise against every other edge of the same
            // orientation in this grid.
            let mut x_edge: Option<u64> = None;
            let mut y_edge: Option<u64> = None;
            for r in base..end {
                let off = r - base;
                let (ix, iy) = (off % nx, off / nx);
                // Which stencil terms this row must contain.
                let mut saw_diag = false;
                let mut need = 0u8; // bit 0: W, 1: E, 2: S, 3: N
                for (c, v) in a.row(r) {
                    if c == r {
                        diag[r] = v;
                        saw_diag = true;
                    } else if c < base || c >= end {
                        extras_col.push(c as u32);
                        extras_val.push(v);
                    } else {
                        let (edge, bit) = if c + 1 == r && ix > 0 {
                            (&mut x_edge, 0)
                        } else if c == r + 1 && ix + 1 < nx {
                            (&mut x_edge, 1)
                        } else if c + nx == r && iy > 0 {
                            (&mut y_edge, 2)
                        } else if c == r + nx && iy + 1 < ny {
                            (&mut y_edge, 3)
                        } else {
                            // In-grid coupling off the 5-point pattern.
                            return None;
                        };
                        match *edge {
                            Some(bits) if bits != v.to_bits() => return None,
                            Some(_) => {}
                            None => *edge = Some(v.to_bits()),
                        }
                        need |= 1 << bit;
                    }
                }
                // Every geometric edge must be present: a dropped
                // (exactly cancelled) entry would make the stencil
                // apply a term the CSR no longer has.
                let mut expect = 0u8;
                if ix > 0 {
                    expect |= 1;
                }
                if ix + 1 < nx {
                    expect |= 2;
                }
                if iy > 0 {
                    expect |= 4;
                }
                if iy + 1 < ny {
                    expect |= 8;
                }
                if !saw_diag || need != expect {
                    return None;
                }
                extras_row_ptr.push(extras_col.len());
            }
            out_grids.push(GridStencil {
                base,
                nx,
                ny,
                x_edge: f64::from_bits(x_edge.unwrap_or(0)),
                y_edge: f64::from_bits(y_edge.unwrap_or(0)),
            });
        }

        Some(StencilOperator {
            dim,
            grids: out_grids,
            diag,
            extras_row_ptr,
            extras_col,
            extras_val,
        })
    }

    /// Dimension of the operator.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of regular grids.
    pub fn grid_count(&self) -> usize {
        self.grids.len()
    }

    /// Number of stored inter-grid (irregular) entries.
    pub fn extras_nnz(&self) -> usize {
        self.extras_col.len()
    }

    /// The grid geometry this operator was extracted against.
    pub fn grids(&self) -> Vec<StencilGrid> {
        self.grids
            .iter()
            .map(|g| StencilGrid {
                base: g.base,
                nx: g.nx,
                ny: g.ny,
            })
            .collect()
    }
}

impl Operator for StencilOperator {
    fn dim(&self) -> usize {
        self.dim
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.dim);
        assert_eq!(y.len(), self.dim);
        static SPMV: std::sync::OnceLock<&'static pi3d_telemetry::Counter> =
            std::sync::OnceLock::new();
        SPMV.get_or_init(|| pi3d_telemetry::metrics::counter("solver.stencil.spmv"))
            .incr(1);
        // Per row, the in-grid stencil columns (`r−nx, r−1, r, r+1, r+nx`,
        // already ascending) all lie inside the row's grid while extras
        // lie strictly outside it, so the CSR row's ascending-column order
        // is always "extras below the grid, stencil terms, extras above
        // the grid" — reproduced here without any per-term merge. Each row
        // drains its extras completely, so the cursor `e` lands on the next
        // row's first extra; the grids tile `[0, dim)` in order, so `r`
        // walks every row once.
        let (mut r, mut e) = (0, 0);
        for g in &self.grids {
            for iy in 0..g.ny {
                for ix in 0..g.nx {
                    let hi = self.extras_row_ptr[r + 1];
                    let mut acc = 0.0;
                    while e < hi && (self.extras_col[e] as usize) < g.base {
                        acc += self.extras_val[e] * x[self.extras_col[e] as usize];
                        e += 1;
                    }
                    if iy > 0 {
                        acc += g.y_edge * x[r - g.nx];
                    }
                    if ix > 0 {
                        acc += g.x_edge * x[r - 1];
                    }
                    acc += self.diag[r] * x[r];
                    if ix + 1 < g.nx {
                        acc += g.x_edge * x[r + 1];
                    }
                    if iy + 1 < g.ny {
                        acc += g.y_edge * x[r + g.nx];
                    }
                    while e < hi {
                        acc += self.extras_val[e] * x[self.extras_col[e] as usize];
                        e += 1;
                    }
                    y[r] = acc;
                    r += 1;
                }
            }
        }
    }

    fn diagonal(&self) -> Vec<f64> {
        self.diag.clone()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::csr::CooBuilder;
    use pi3d_telemetry::rng::SplitMix64;

    /// Builds a small two-grid stack: an `nx × ny` sheet over an
    /// `nx2 × ny2` sheet, vertical links between a few node pairs, and
    /// ground ties on the bottom sheet.
    fn stack_system(nx: usize, ny: usize, nx2: usize, ny2: usize, seed: u64) -> CsrStack {
        let mut rng = SplitMix64::new(seed);
        let mut coo = CooBuilder::new(nx * ny + nx2 * ny2);
        let grids = vec![
            StencilGrid { base: 0, nx, ny },
            StencilGrid {
                base: nx * ny,
                nx: nx2,
                ny: ny2,
            },
        ];
        let gx = [0.8, 1.7];
        let gy = [1.3, 0.9];
        for (gi, g) in grids.iter().enumerate() {
            for iy in 0..g.ny {
                for ix in 0..g.nx {
                    let n = g.base + iy * g.nx + ix;
                    if ix + 1 < g.nx {
                        coo.stamp_conductance(n, n + 1, gx[gi]);
                    }
                    if iy + 1 < g.ny {
                        coo.stamp_conductance(n, n + g.nx, gy[gi]);
                    }
                }
            }
        }
        // Sparse vertical links with per-link random conductance.
        for _ in 0..(nx * ny / 3).max(1) {
            let a = rng.next_below((nx * ny) as u64) as usize;
            let b = nx * ny + rng.next_below((nx2 * ny2) as u64) as usize;
            coo.stamp_conductance(a, b, 0.05 + rng.next_below(100) as f64 / 50.0);
        }
        // Ground ties so the system is SPD.
        for i in 0..nx2 * ny2 {
            if i % 5 == 0 {
                coo.stamp_to_ground(nx * ny + i, 2.0);
            }
        }
        coo.stamp_to_ground(0, 1.0);
        CsrStack {
            matrix: coo.into_csr().unwrap(),
            grids,
        }
    }

    struct CsrStack {
        matrix: CsrMatrix,
        grids: Vec<StencilGrid>,
    }

    fn random_x(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| rng.next_below(2_000_000) as f64 / 1e6 - 1.0)
            .collect()
    }

    #[test]
    fn extraction_succeeds_on_regular_stack() {
        let s = stack_system(7, 5, 4, 6, 1);
        let op = StencilOperator::from_csr(&s.matrix, &s.grids).expect("regular stack extracts");
        assert_eq!(op.dim(), s.matrix.dim());
        assert_eq!(op.grid_count(), 2);
        assert!(op.extras_nnz() > 0);
    }

    #[test]
    fn apply_is_bit_identical_to_csr() {
        for seed in 0..8 {
            let s = stack_system(6 + seed as usize % 3, 5, 4, 7, seed);
            let op = StencilOperator::from_csr(&s.matrix, &s.grids).unwrap();
            let x = random_x(s.matrix.dim(), seed.wrapping_mul(0x9e37));
            let mut y_csr = vec![0.0; s.matrix.dim()];
            let mut y_st = vec![0.0; s.matrix.dim()];
            s.matrix.mul_vec_into(&x, &mut y_csr);
            op.apply_into(&x, &mut y_st);
            for i in 0..x.len() {
                assert_eq!(
                    y_csr[i].to_bits(),
                    y_st[i].to_bits(),
                    "row {i} differs (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn irregular_matrices_decline_extraction() {
        // An in-grid diagonal coupling is off the 5-point pattern.
        let mut coo = CooBuilder::new(9);
        let grids = [StencilGrid {
            base: 0,
            nx: 3,
            ny: 3,
        }];
        for iy in 0..3usize {
            for ix in 0..3usize {
                let n = iy * 3 + ix;
                if ix < 2 {
                    coo.stamp_conductance(n, n + 1, 1.0);
                }
                if iy < 2 {
                    coo.stamp_conductance(n, n + 3, 1.0);
                }
                coo.stamp_to_ground(n, 0.5);
            }
        }
        coo.stamp_conductance(0, 4, 0.3); // diagonal in-grid link
        let m = coo.into_csr().unwrap();
        assert!(StencilOperator::from_csr(&m, &grids).is_none());

        // Non-uniform edge conductance.
        let mut coo = CooBuilder::new(4);
        let grids = [StencilGrid {
            base: 0,
            nx: 2,
            ny: 2,
        }];
        coo.stamp_conductance(0, 1, 1.0);
        coo.stamp_conductance(2, 3, 1.5); // differs from row 0's x-edge
        coo.stamp_conductance(0, 2, 1.0);
        coo.stamp_conductance(1, 3, 1.0);
        for n in 0..4 {
            coo.stamp_to_ground(n, 0.5);
        }
        let m = coo.into_csr().unwrap();
        assert!(StencilOperator::from_csr(&m, &grids).is_none());

        // Geometry that does not tile the dimension.
        let s = stack_system(4, 4, 3, 3, 3);
        let bad = [StencilGrid {
            base: 0,
            nx: 4,
            ny: 4,
        }];
        assert!(StencilOperator::from_csr(&s.matrix, &bad).is_none());
    }

    #[test]
    fn csr_operator_impl_matches_direct_calls() {
        let s = stack_system(5, 5, 4, 4, 9);
        let x = random_x(s.matrix.dim(), 11);
        let mut y1 = vec![0.0; s.matrix.dim()];
        let mut y2 = vec![0.0; s.matrix.dim()];
        s.matrix.mul_vec_into(&x, &mut y1);
        let op: &dyn Operator = &s.matrix;
        op.apply_into(&x, &mut y2);
        assert_eq!(y1, y2);
        assert_eq!(op.diagonal(), s.matrix.diagonal());
        assert_eq!(op.dim(), s.matrix.dim());
    }
}
