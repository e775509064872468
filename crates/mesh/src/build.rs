//! Stack-mesh construction: turns a [`StackDesign`] into the nodal
//! conductance matrix of its full VDD power-delivery network.
//!
//! # Electrical topology
//!
//! The unknown at every node is the *voltage drop* from the ideal supply, so
//! supply connections stamp a conductance to ground and current sinks inject
//! positive current; the solved vector is the IR-drop map directly.
//!
//! **Per die**: two PDN metal grids (M2 with vertical straps, M3 with
//! horizontal straps), connected node-by-node through the via mesh. Strap
//! conductance scales with the layer's VDD usage fraction; the orthogonal
//! direction gets a small stitching fraction.
//!
//! **F2B stacks** (all dies face-down): die *i*'s M2 reaches its backside
//! pads through its power TSVs, which bond to die *i+1*'s face (M3), so each
//! interface contributes `R_tsv + R_bump` per TSV site. The bottom die's
//! face bonds to the supply (package balls off-chip, the logic die's PDN or
//! dedicated via-last TSVs on-chip).
//!
//! **F2F + B2B stacks**: dies 1–2 and 3–4 bond face-to-face through a dense
//! micro-via array (stamped at every grid node), merging the pair's PDNs —
//! this is the paper's *PDN sharing*. The pairs connect back-to-back through
//! both dies' TSVs (`2·R_tsv + R_pad`), and the bottom die reaches the
//! supply through its own TSVs.
//!
//! **RDL**: an extra low-resistance grid inserted at the bottom (or at
//! every) interface; supply current enters the RDL at the *entry* sites
//! (centre pads when the RDL is used to replace edge TSVs) and leaves at
//! the DRAM TSV sites.
//!
//! **Wire bonding**: every die's backside edge pads get a direct
//! `R_tsv + R_wire` path to the supply.
//!
//! **Misalignment**: each bottom-interface TSV carries an extra series
//! resistance proportional to its distance from the nearest C4 bump or
//! package ball, unless the design's TSV placement is alignment-optimized.

use crate::error::{DegradedSupplyReport, MeshError};
use crate::faults::{FaultInjector, FaultReport, FaultSite};
use crate::grid::{GridId, GridKind, GridRegistry};
use pi3d_layout::{
    bump_grid, BondingStyle, FaultSpec, MemoryState, PowerMap, PowerNet, StackDesign, TsvConfig,
    TsvPlacement, C4_PITCH_MM,
};
use pi3d_solver::{CgSolver, CooBuilder, CsrMatrix, Preconditioner, PreparedSystem, SolverError};
use std::sync::Arc;

/// Fraction of the preferred-direction strap conductance available in the
/// orthogonal direction (stitching straps).
const ORTHO_FRACTION: f64 = 0.05;
/// VDD usage fraction of an RDL (thick, sparsely routed backside layer).
const RDL_USAGE: f64 = 0.50;
/// Wire-bond sites per die edge (left and right edges each).
const WIREBOND_SITES_PER_EDGE: usize = 6;
/// Usage fraction of the logic die's two global PDN layers.
const LOGIC_PDN_USAGE: [f64; 2] = [0.25, 0.40];

/// The kind of discrete vertical element a recorded branch belongs to,
/// for current-density analysis (Section 3.2 / the current-crowding study
/// of Zhao et al. the paper builds on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ElementKind {
    /// A power TSV at a die-to-die interface (0 = bottom interface).
    Tsv {
        /// Interface index, counting from the supply side.
        interface: usize,
    },
    /// A supply-entry contact (package ball, C4 + logic TSV, or dedicated
    /// TSV).
    SupplyEntry,
    /// A back-to-back pad connection between F2F pairs.
    B2b,
    /// A backside bond wire.
    WireBond {
        /// DRAM die the wire bonds to.
        die: usize,
    },
    /// A C4 bump tying the logic die to the package supply.
    C4Bump,
}

/// One discrete element and its (bilinearly spread) resistor bundle:
/// `(node_a, Some(node_b), g)` for grid-to-grid branches or
/// `(node_a, None, g)` for branches to the ideal supply.
#[derive(Debug, Clone)]
pub struct Element {
    /// What the element is.
    pub kind: ElementKind,
    /// Die-local position of the element (DRAM coordinates), mm.
    pub position: (f64, f64),
    /// The element's sub-branches.
    pub branches: Vec<(usize, Option<usize>, f64)>,
}

impl Element {
    /// Total current through the element for a solved drop vector, in
    /// amperes (current flows from the supply toward loads, so entries are
    /// positive in normal operation).
    pub fn current(&self, drops: &[f64]) -> f64 {
        self.branches
            .iter()
            .map(|&(a, b, g)| match b {
                Some(b) => g * (drops[b] - drops[a]),
                None => g * (0.0 - drops[a]),
            })
            .sum::<f64>()
            .abs()
    }
}

/// Mesh-construction options: grid resolutions and solver configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshOptions {
    /// DRAM-die grid nodes along x.
    pub dram_nx: usize,
    /// DRAM-die grid nodes along y.
    pub dram_ny: usize,
    /// Logic-die grid nodes along x.
    pub logic_nx: usize,
    /// Logic-die grid nodes along y.
    pub logic_ny: usize,
    /// CG relative tolerance.
    pub tolerance: f64,
    /// CG preconditioner.
    pub preconditioner: Preconditioner,
    /// Where supply current enters the bottom interface when an RDL is
    /// present. Defaults to centre pads (the paper's "RDL replaces edge
    /// TSVs" usage); ignored without an RDL.
    pub rdl_entry: TsvPlacement,
    /// Which supply net to extract (§2.2: the ground net is analyzed in
    /// complementary fashion).
    pub net: PowerNet,
    /// Power/ground TSVs in the centre pad row. DDR3-style dies route
    /// their pads through a centre stripe; the TSV stack reuses that row
    /// for signal and supply TSVs (Kang et al.), independent of the
    /// configurable power-TSV placement. They carry the I/O supply current
    /// drawn by the pad drivers. Set to 0 for ablation studies.
    pub pad_row_tsvs: usize,
    /// How many right-hand sides a batch solve
    /// ([`StackMesh::solve_batch`]) runs at once. A single solve always
    /// runs on the calling thread; results are bit-identical for every
    /// value (see [`pi3d_solver::PreparedSystem`]).
    pub threads: usize,
    /// Seeded PDN defects to inject during assembly (`None` = pristine
    /// mesh). The draw order is fixed by the single-threaded assembly
    /// walk, so equal specs always produce the identical defect set —
    /// regardless of [`threads`](Self::threads).
    pub faults: Option<FaultSpec>,
}

impl Default for MeshOptions {
    fn default() -> Self {
        MeshOptions {
            dram_nx: 24,
            dram_ny: 24,
            logic_nx: 26,
            logic_ny: 24,
            tolerance: 1e-9,
            preconditioner: Preconditioner::IncompleteCholesky,
            rdl_entry: TsvPlacement::Center,
            net: PowerNet::Vdd,
            pad_row_tsvs: 10,
            threads: 1,
            faults: None,
        }
    }
}

impl MeshOptions {
    /// A coarse, fast configuration for sweeps and tests.
    pub fn coarse() -> Self {
        MeshOptions {
            dram_nx: 14,
            dram_ny: 14,
            logic_nx: 16,
            logic_ny: 14,
            ..Self::default()
        }
    }

    /// A fine configuration for validation runs.
    pub fn fine() -> Self {
        MeshOptions {
            dram_nx: 40,
            dram_ny: 40,
            logic_nx: 44,
            logic_ny: 40,
            ..Self::default()
        }
    }
}

/// Bounded cache of previous solutions keyed by the per-die active-bank
/// signature of the solved memory state. Sequential sweeps (the optimizer,
/// the memory simulator) revisit similar states; warm-starting CG from the
/// *nearest* previously-solved state typically halves the iteration count,
/// and keeping several candidates beats a single last-solution slot when
/// the sweep alternates between distant states.
#[derive(Debug, Default)]
struct WarmStartCache {
    entries: Vec<(Vec<u8>, Arc<Vec<f64>>)>,
}

/// Warm-start cache capacity; oldest entry is evicted first.
const WARM_CACHE_CAP: usize = 16;

impl WarmStartCache {
    fn key(state: &MemoryState) -> Vec<u8> {
        state
            .dies()
            .map(|d| d.active_banks.min(u8::MAX as usize) as u8)
            .collect()
    }

    /// The cached solution whose state signature has the smallest L1
    /// distance to `key`. Ties resolve to the earliest-inserted entry, so
    /// the lookup is deterministic.
    fn nearest(&self, key: &[u8]) -> Option<&Arc<Vec<f64>>> {
        self.entries
            .iter()
            .min_by_key(|(k, _)| {
                k.iter()
                    .zip(key)
                    .map(|(&a, &b)| u32::from(a.abs_diff(b)))
                    .sum::<u32>()
            })
            .map(|(_, v)| v)
    }

    fn insert(&mut self, key: Vec<u8>, value: Arc<Vec<f64>>) {
        match self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some(entry) => entry.1 = value,
            None => {
                if self.entries.len() >= WARM_CACHE_CAP {
                    self.entries.remove(0);
                }
                self.entries.push((key, value));
            }
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// The assembled R-Mesh of a full 3D DRAM stack: conductance matrix plus
/// the geometric registry needed to place loads and read back IR drops.
///
/// The conductance matrix never changes after assembly, so the mesh holds
/// it inside a [`PreparedSystem`]: the CG preconditioner is factored once
/// here and reused by every subsequent solve (sequential or batch).
#[derive(Debug)]
pub struct StackMesh {
    design: StackDesign,
    options: MeshOptions,
    registry: Arc<GridRegistry>,
    prepared: PreparedSystem,
    warm_cache: WarmStartCache,
    elements: Vec<Element>,
    /// Per-grid effective edge conductances `(g_x, g_y)`, summed over
    /// stamped sheets (index = grid id).
    sheet_conductances: Vec<(f64, f64)>,
    /// Defect tally when the mesh was assembled with fault injection.
    fault_report: Option<FaultReport>,
}

impl StackMesh {
    /// Builds the mesh for a design.
    ///
    /// Before factoring, a union-find connectivity audit classifies every
    /// node as supplied or islanded. A pristine or partially-faulted mesh
    /// whose nodes all still reach the supply proceeds normally; islanded
    /// nodes make the conductance matrix singular, so that case returns
    /// [`MeshError::DegradedSupply`] with the full diagnostic instead of
    /// surfacing as a CG divergence or preconditioner breakdown later.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::DegradedSupply`] when the audit finds nodes
    /// with no path to the supply (only reachable with fault injection),
    /// or [`MeshError::Solver`] if matrix assembly detects a floating node
    /// or an invalid stamp — the latter indicate an internal topology bug
    /// rather than a user error.
    pub fn new(design: &StackDesign, options: MeshOptions) -> Result<Self, MeshError> {
        let _build_span = pi3d_telemetry::span::span("mesh_build");
        let mut builder = MeshAssembler::new(design, &options);
        {
            let _stamp_span = pi3d_telemetry::span::span("stamping");
            builder.assemble();
        }
        let fault_report = builder.faults.as_ref().map(FaultInjector::report);
        if let Some(r) = fault_report {
            use pi3d_telemetry::metrics;
            metrics::counter("faults.injected.tsv_open").incr(r.tsv_opens as u64);
            metrics::counter("faults.injected.bump_open").incr(r.contact_opens as u64);
            metrics::counter("faults.injected.via_void").incr(r.via_voids as u64);
            metrics::counter("faults.injected.em_drift").incr(r.drifted as u64);
            pi3d_telemetry::debug!(
                "faults injected: {} opens / {} drifts over {} sites",
                r.total_opens(),
                r.drifted,
                r.total_sites()
            );
        }
        let matrix = {
            let _csr_span = pi3d_telemetry::span::span("csr_assembly");
            std::mem::take(&mut builder.coo).into_csr()?
        };
        {
            let _audit_span = pi3d_telemetry::span::span("connectivity_audit");
            let (islanded, islands) = audit_connectivity(&matrix, &builder.supply_nodes);
            let islanded_count = islanded.iter().filter(|&&i| i).count();
            pi3d_telemetry::metrics::gauge("mesh.islanded_nodes").set(islanded_count as f64);
            if islanded_count > 0 {
                return Err(MeshError::DegradedSupply(Box::new(degradation_report(
                    &builder,
                    &islanded,
                    islands,
                    fault_report,
                ))));
            }
        }
        {
            use pi3d_telemetry::{metrics, report};
            let nodes = builder.registry.total_nodes();
            let layers = builder.registry.iter().count();
            let nnz = matrix.nnz();
            // Off-diagonal entries are stamped symmetrically; each resistive
            // edge contributes two of them.
            let edges = (nnz - matrix.dim()) / 2;
            metrics::counter("mesh.builds").incr(1);
            metrics::gauge("mesh.last_nodes").set(nodes as f64);
            metrics::gauge("mesh.last_nnz").set(nnz as f64);
            report::record_mesh_stats(report::MeshStatsRecord {
                label: format!("{:?}", design.benchmark()),
                nodes: nodes as u64,
                edges: edges as u64,
                layers: layers as u64,
                nnz: nnz as u64,
            });
            pi3d_telemetry::debug!(
                "mesh built: {nodes} nodes, {edges} edges, {layers} layers, {nnz} nnz"
            );
        }
        let prepared = {
            let _factor_span = pi3d_telemetry::span::span("mesh_factor");
            // Hand the solver the per-sheet grid geometry: it extracts a
            // matrix-free stencil operator for the SpMV hot loop and feeds
            // the geometric-multigrid preconditioner, both falling back to
            // plain CSR when a mesh turns out to be irregular.
            PreparedSystem::with_geometry(
                matrix,
                options.preconditioner,
                CgSolver::new().with_tolerance(options.tolerance),
                &builder.registry.stencil_grids(),
            )?
            .with_threads(options.threads)
        };
        Ok(StackMesh {
            design: design.clone(),
            options: options.clone(),
            registry: Arc::new(builder.registry),
            prepared,
            warm_cache: WarmStartCache::default(),
            elements: builder.elements,
            sheet_conductances: builder.sheets,
            fault_report,
        })
    }

    /// The defect tally from assembly, when the mesh was built with a
    /// [`MeshOptions::faults`] spec.
    pub fn fault_report(&self) -> Option<FaultReport> {
        self.fault_report
    }

    /// The discrete vertical elements (TSVs, entries, bond wires, bumps)
    /// recorded during assembly, for current-density analysis.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Effective `(g_x, g_y)` edge conductances of one grid's strap mesh.
    pub fn sheet_conductance(&self, id: GridId) -> (f64, f64) {
        self.sheet_conductances[id.index()]
    }

    /// The design this mesh models.
    pub fn design(&self) -> &StackDesign {
        &self.design
    }

    /// Mesh options used at construction.
    pub fn options(&self) -> &MeshOptions {
        &self.options
    }

    /// The grid registry (geometry of every layer).
    pub fn registry(&self) -> &GridRegistry {
        &self.registry
    }

    /// The grid registry behind its shared handle, for reports that need
    /// to keep the geometry alive without deep-copying it.
    pub fn registry_shared(&self) -> &Arc<GridRegistry> {
        &self.registry
    }

    /// The assembled nodal conductance matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        self.prepared.matrix()
    }

    /// The factored solve handle (matrix + preconditioner built once at
    /// assembly).
    pub fn prepared(&self) -> &PreparedSystem {
        &self.prepared
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.registry.total_nodes()
    }

    /// Computes the current-injection vector for a memory state at the
    /// given per-active-die I/O activity.
    ///
    /// # Panics
    ///
    /// Panics if the state's die count differs from the design's.
    pub fn load_vector(&self, state: &MemoryState, io_activity: f64) -> Vec<f64> {
        self.load_vector_op(state, io_activity, pi3d_layout::OpKind::Read)
    }

    /// As [`load_vector`](Self::load_vector), for an explicit operation
    /// kind (read vs write current distribution).
    ///
    /// # Panics
    ///
    /// As for [`load_vector`](Self::load_vector).
    pub fn load_vector_op(
        &self,
        state: &MemoryState,
        io_activity: f64,
        op: pi3d_layout::OpKind,
    ) -> Vec<f64> {
        assert_eq!(
            state.die_count(),
            self.design.dram_die_count(),
            "memory state die count does not match the design"
        );
        let mut loads = vec![0.0; self.registry.total_nodes()];
        let vdd = self.design.dram_tech().vdd();
        let fp = self.design.dram_floorplan();
        let model = self.design.power_model();

        for (die_idx, die_state) in state.dies().enumerate() {
            let map = model.power_map_op(
                &fp,
                die_state,
                io_activity,
                op,
                self.options.dram_nx,
                self.options.dram_ny,
            );
            let grid_id = self
                .registry
                .find(GridKind::DramMetal {
                    die: die_idx,
                    layer: 0,
                })
                .expect("every DRAM die has an M2 grid");
            let grid = self.registry.grid(grid_id);
            for (ix, iy, mw) in map.iter() {
                if mw > 0.0 {
                    loads[grid.node(ix, iy)] += mw * 1e-3 / vdd.value();
                }
            }
        }

        // Logic-die load (the T2 / HMC controller burns power regardless of
        // the DRAM state).
        if let (Some(logic_fp), Some(grid_id)) = (
            self.design.logic_floorplan(),
            self.registry.find(GridKind::LogicMetal { layer: 0 }),
        ) {
            let total = self.design.benchmark().spec().logic_power;
            let map = PowerMap::logic_t2(
                &logic_fp,
                total,
                self.options.logic_nx,
                self.options.logic_ny,
            );
            let vdd_l = self.design.logic_tech().vdd();
            let grid = self.registry.grid(grid_id);
            for (ix, iy, mw) in map.iter() {
                if mw > 0.0 {
                    loads[grid.node(ix, iy)] += mw * 1e-3 / vdd_l.value();
                }
            }
        }

        loads
    }

    /// Solves the mesh for a memory state, returning the per-node IR drop
    /// in volts. The preconditioner was factored at assembly; CG warm-starts
    /// from the cached solution of the *nearest* previously-solved state.
    ///
    /// # Errors
    ///
    /// Propagates solver failures (non-convergence on pathological
    /// configurations).
    pub fn solve(
        &mut self,
        state: &MemoryState,
        io_activity: f64,
    ) -> Result<Arc<Vec<f64>>, SolverError> {
        self.solve_op(state, io_activity, pi3d_layout::OpKind::Read)
    }

    /// As [`solve`](Self::solve), for an explicit operation kind.
    ///
    /// # Errors
    ///
    /// As for [`solve`](Self::solve).
    pub fn solve_op(
        &mut self,
        state: &MemoryState,
        io_activity: f64,
        op: pi3d_layout::OpKind,
    ) -> Result<Arc<Vec<f64>>, SolverError> {
        let _solve_span = pi3d_telemetry::span::span("mesh_solve");
        let loads = self.load_vector_op(state, io_activity, op);
        let key = WarmStartCache::key(state);
        let guess = self.warm_cache.nearest(&key).map(Arc::clone);
        if guess.is_some() {
            pi3d_telemetry::metrics::counter("mesh.warm_cache.hits").incr(1);
        }
        let solution = self
            .prepared
            .solve(&loads, guess.as_ref().map(|g| g.as_slice()))?;
        let x = Arc::new(solution.x);
        self.warm_cache.insert(key, Arc::clone(&x));
        Ok(x)
    }

    /// Solves many `(state, io_activity)` cases against the already-factored
    /// matrix, fanning them across [`MeshOptions::threads`] workers.
    /// Results come back in input order and are bit-identical for every
    /// thread count; batch solves run cold (no warm starts) and do not
    /// touch the warm-start cache, precisely so the output cannot depend on
    /// what was solved before.
    ///
    /// # Errors
    ///
    /// Returns the first (by input index) solver failure, if any.
    ///
    /// # Panics
    ///
    /// Panics if any state's die count differs from the design's.
    pub fn solve_batch(
        &self,
        cases: &[(MemoryState, f64)],
    ) -> Result<Vec<Arc<Vec<f64>>>, SolverError> {
        self.solve_batch_op(cases, pi3d_layout::OpKind::Read)
    }

    /// As [`solve_batch`](Self::solve_batch), for an explicit operation
    /// kind.
    ///
    /// # Errors
    ///
    /// As for [`solve_batch`](Self::solve_batch).
    ///
    /// # Panics
    ///
    /// As for [`solve_batch`](Self::solve_batch).
    pub fn solve_batch_op(
        &self,
        cases: &[(MemoryState, f64)],
        op: pi3d_layout::OpKind,
    ) -> Result<Vec<Arc<Vec<f64>>>, SolverError> {
        let _span = pi3d_telemetry::span::span("mesh_solve_batch");
        let loads: Vec<Vec<f64>> = cases
            .iter()
            .map(|(state, io)| self.load_vector_op(state, *io, op))
            .collect();
        let solutions = self.prepared.solve_batch(&loads)?;
        Ok(solutions.into_iter().map(|s| Arc::new(s.x)).collect())
    }
}

/// Internal assembler walking the design and stamping conductances.
struct MeshAssembler<'d> {
    design: &'d StackDesign,
    options: &'d MeshOptions,
    registry: GridRegistry,
    coo: CooBuilder,
    tsv_sites: Vec<(f64, f64)>,
    elements: Vec<Element>,
    sheets: Vec<(f64, f64)>,
    faults: Option<FaultInjector>,
    /// Nodes tied directly to the ideal supply, for the connectivity
    /// audit.
    supply_nodes: Vec<usize>,
}

impl<'d> MeshAssembler<'d> {
    fn new(design: &'d StackDesign, options: &'d MeshOptions) -> Self {
        let spec = design.benchmark().spec();
        let (w, h) = (spec.dram_width.value(), spec.dram_height.value());
        let mut tsv_sites = design.tsv().positions(w, h);
        // Fixed pad-row supply TSVs along the centre stripe.
        for i in 0..options.pad_row_tsvs {
            let x = w * (i as f64 + 0.5) / options.pad_row_tsvs as f64;
            tsv_sites.push((x, h / 2.0));
        }
        MeshAssembler {
            design,
            options,
            registry: GridRegistry::new(),
            coo: CooBuilder::new(0),
            tsv_sites,
            elements: Vec::new(),
            sheets: Vec::new(),
            faults: options
                .faults
                .filter(FaultSpec::is_active)
                .map(FaultInjector::new),
            supply_nodes: Vec::new(),
        }
    }

    fn assemble(&mut self) {
        let spec = self.design.benchmark().spec();
        let (w, h) = (spec.dram_width.value(), spec.dram_height.value());
        let dies = self.design.dram_die_count();
        let (nx, ny) = (self.options.dram_nx, self.options.dram_ny);

        // Register all grids first so node numbering is fixed.
        for die in 0..dies {
            self.registry
                .add(GridKind::DramMetal { die, layer: 0 }, nx, ny, w, h);
            self.registry
                .add(GridKind::DramMetal { die, layer: 1 }, nx, ny, w, h);
        }
        let rdl_dies = self.rdl_dies();
        for &die in &rdl_dies {
            self.registry.add(GridKind::Rdl { die }, nx, ny, w, h);
        }
        let on_chip = self.design.mounting().is_on_chip();
        if on_chip {
            let (lw, lh) = spec.logic_size.expect("on-chip designs have a logic die");
            self.registry.add(
                GridKind::LogicMetal { layer: 0 },
                self.options.logic_nx,
                self.options.logic_ny,
                lw.value(),
                lh.value(),
            );
            self.registry.add(
                GridKind::LogicMetal { layer: 1 },
                self.options.logic_nx,
                self.options.logic_ny,
                lw.value(),
                lh.value(),
            );
        }
        self.coo =
            CooBuilder::with_capacity(self.registry.total_nodes(), self.registry.total_nodes() * 8);
        self.sheets = vec![(0.0, 0.0); self.registry.iter().count()];

        // Intra-die meshes.
        let tech = self.design.dram_tech().clone();
        let pdn = self.design.pdn();
        let layers = tech.dram_pdn_layers();
        let net = self.options.net;
        for die in 0..dies {
            for (layer_idx, layer) in layers.iter().enumerate() {
                let usage = if layer_idx == 0 {
                    pdn.m2_usage_of(net)
                } else {
                    pdn.m3_usage_of(net)
                };
                let id = self
                    .registry
                    .find(GridKind::DramMetal {
                        die,
                        layer: layer_idx,
                    })
                    .expect("registered above");
                self.stamp_sheet(
                    id,
                    usage / layer.sheet_resistance.value(),
                    layer.direction == pi3d_layout::RouteDirection::Vertical,
                );
            }
            // Via mesh M2 <-> M3 at every node.
            let m2 = self
                .registry
                .find(GridKind::DramMetal { die, layer: 0 })
                .expect("m2");
            let m3 = self
                .registry
                .find(GridKind::DramMetal { die, layer: 1 })
                .expect("m3");
            self.stamp_plane_connection(m2, m3, 1.0 / tech.via_cell_resistance().value());
        }
        for &die in &rdl_dies {
            let id = self
                .registry
                .find(GridKind::Rdl { die })
                .expect("rdl registered");
            self.stamp_sheet(id, RDL_USAGE / tech.rdl_sheet_resistance().value(), true);
            self.stamp_sheet(id, RDL_USAGE / tech.rdl_sheet_resistance().value(), false);
        }

        // Logic-die mesh.
        if on_chip {
            let logic_tech = self.design.logic_tech().clone();
            let low = self
                .registry
                .find(GridKind::LogicMetal { layer: 0 })
                .expect("logic low");
            let top = self
                .registry
                .find(GridKind::LogicMetal { layer: 1 })
                .expect("logic top");
            self.stamp_sheet(
                low,
                LOGIC_PDN_USAGE[0] / logic_tech.m2_sheet_resistance().value(),
                true,
            );
            self.stamp_sheet(
                top,
                LOGIC_PDN_USAGE[1] / logic_tech.m3_sheet_resistance().value(),
                false,
            );
            self.stamp_plane_connection(low, top, 1.0 / logic_tech.via_cell_resistance().value());
            // C4 bumps: supply ties on the logic top (package-facing) layer.
            let (lw, lh) = spec.logic_size.expect("on-chip");
            let bumps = bump_grid(lw.value(), lh.value(), C4_PITCH_MM);
            let top_grid = self.registry.grid(top).clone();
            for (x, y) in bumps {
                self.tie_to_ground(
                    &top_grid,
                    x,
                    y,
                    1.0 / logic_tech.bump_resistance().value(),
                    ElementKind::C4Bump,
                );
            }
        }

        // Die-to-die interfaces + bottom interface + extras.
        match self.design.bonding() {
            BondingStyle::F2B => self.assemble_f2b(),
            BondingStyle::F2F => self.assemble_f2f(),
        }
        if self.design.has_wire_bond() {
            self.stamp_wire_bonds();
        }
    }

    /// DRAM dies that carry an RDL on their supply-facing backside.
    ///
    /// F2F pairs have no per-die backside interface above the bottom die —
    /// pair faces bond through micro-vias and pair backs through B2B pads
    /// — so only the bottom RDL exists there; registering the others would
    /// leave unconnected grids (flagged by the connectivity audit).
    fn rdl_dies(&self) -> Vec<usize> {
        let upper_rdls = self.design.bonding() == BondingStyle::F2B;
        match self.design.rdl() {
            r if !r.is_enabled() => Vec::new(),
            r => (0..self.design.dram_die_count())
                .filter(|&d| r.applies_to_die(d) && (d == 0 || upper_rdls))
                .collect(),
        }
    }

    /// Stamps the strap mesh of one layer. `g_sheet` is the effective sheet
    /// conductance (usage / sheet resistance); `vertical` selects the
    /// preferred strap direction.
    fn stamp_sheet(&mut self, id: GridId, g_sheet: f64, vertical: bool) {
        let grid = self.registry.grid(id).clone();
        let (dx, dy) = (grid.dx(), grid.dy());
        let (g_x, g_y) = if vertical {
            (ORTHO_FRACTION * g_sheet * dy / dx, g_sheet * dx / dy)
        } else {
            (g_sheet * dy / dx, ORTHO_FRACTION * g_sheet * dx / dy)
        };
        self.sheets[id.index()].0 += g_x;
        self.sheets[id.index()].1 += g_y;
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                if ix + 1 < grid.nx {
                    self.coo
                        .stamp_conductance(grid.node(ix, iy), grid.node(ix + 1, iy), g_x);
                }
                if iy + 1 < grid.ny {
                    self.coo
                        .stamp_conductance(grid.node(ix, iy), grid.node(ix, iy + 1), g_y);
                }
            }
        }
    }

    /// Draws the fate of one element of `kind` with nominal conductance
    /// `g`: `None` when the defect model opens it, otherwise the surviving
    /// (possibly drifted) conductance. Fault-free meshes pass through.
    fn surviving_conductance(&mut self, kind: ElementKind, g: f64) -> Option<f64> {
        let site = match kind {
            ElementKind::Tsv { .. } | ElementKind::B2b => FaultSite::Tsv,
            ElementKind::SupplyEntry | ElementKind::C4Bump | ElementKind::WireBond { .. } => {
                FaultSite::Contact
            }
        };
        match &mut self.faults {
            Some(injector) => injector.draw(site, g),
            None => Some(g),
        }
    }

    /// Ties the point `(x, y)` of a grid to the ideal supply through
    /// conductance `g`, spread bilinearly over the surrounding nodes, and
    /// records the element for current-density analysis. An element opened
    /// by the fault model is neither stamped nor recorded.
    fn tie_to_ground(
        &mut self,
        grid: &crate::grid::GridSpec,
        x: f64,
        y: f64,
        g: f64,
        kind: ElementKind,
    ) {
        let Some(g) = self.surviving_conductance(kind, g) else {
            return;
        };
        let mut branches = Vec::new();
        for (node, w) in grid.bilinear(x, y) {
            self.coo.stamp_to_ground(node, g * w);
            self.supply_nodes.push(node);
            branches.push((node, None, g * w));
        }
        self.elements.push(Element {
            kind,
            position: (x, y),
            branches,
        });
    }

    /// Connects point `(xa, ya)` of grid `a` to point `(xb, yb)` of grid
    /// `b` through conductance `g`, spread bilinearly on both sides (a
    /// 4×4 resistor bundle summing to `g`). An element opened by the fault
    /// model is neither stamped nor recorded.
    fn connect_points(
        &mut self,
        a: &crate::grid::GridSpec,
        (xa, ya): (f64, f64),
        b: &crate::grid::GridSpec,
        (xb, yb): (f64, f64),
        g: f64,
        kind: ElementKind,
    ) {
        let Some(g) = self.surviving_conductance(kind, g) else {
            return;
        };
        let wa = a.bilinear(xa, ya);
        let wb = b.bilinear(xb, yb);
        let mut branches = Vec::new();
        for &(na, fa) in &wa {
            for &(nb, fb) in &wb {
                if na != nb {
                    self.coo.stamp_conductance(na, nb, g * fa * fb);
                    branches.push((nb, Some(na), g * fa * fb));
                }
            }
        }
        self.elements.push(Element {
            kind,
            position: (xa, ya),
            branches,
        });
    }

    /// Connects two same-geometry grids node-by-node (via mesh / F2F
    /// vias). Each node's via cell draws its own void fate.
    fn stamp_plane_connection(&mut self, a: GridId, b: GridId, g: f64) {
        let ga = self.registry.grid(a).clone();
        let gb = self.registry.grid(b).clone();
        assert_eq!(
            (ga.nx, ga.ny),
            (gb.nx, gb.ny),
            "plane connection needs matching grids"
        );
        for iy in 0..ga.ny {
            for ix in 0..ga.nx {
                let g = match &mut self.faults {
                    Some(injector) => match injector.draw(FaultSite::Via, g) {
                        Some(g) => g,
                        None => continue,
                    },
                    None => g,
                };
                self.coo
                    .stamp_conductance(ga.node(ix, iy), gb.node(ix, iy), g);
            }
        }
    }

    /// Connects two grids at the TSV sites with the given per-site series
    /// resistance. Grids may belong to different die sizes; sites are given
    /// in DRAM-die coordinates and translated into each grid's frame
    /// (dies are centred over each other).
    fn stamp_site_connection(&mut self, a: GridId, b: GridId, r_site: f64, kind: ElementKind) {
        let ga = self.registry.grid(a).clone();
        let gb = self.registry.grid(b).clone();
        let spec = self.design.benchmark().spec();
        let (dw, dh) = (spec.dram_width.value(), spec.dram_height.value());
        let sites = self.tsv_sites.clone();
        for (x, y) in sites {
            self.connect_points(
                &ga,
                (x + (ga.width - dw) / 2.0, y + (ga.height - dh) / 2.0),
                &gb,
                (x + (gb.width - dw) / 2.0, y + (gb.height - dh) / 2.0),
                1.0 / r_site,
                kind,
            );
        }
    }

    /// Bottom supply interface: connects the given DRAM grid to the supply
    /// (off-chip / dedicated) or to the logic die (on-chip shared), with
    /// per-site misalignment penalties, optionally through a bottom RDL.
    fn stamp_bottom_interface(&mut self, dram_grid: GridId, base_r: f64) {
        let tech = self.design.dram_tech().clone();
        let spec = self.design.benchmark().spec();
        let mis = self.misalignment_distances();
        let has_bottom_rdl = self.design.rdl().applies_to_die(0);

        if has_bottom_rdl {
            // Supply enters the RDL at the entry sites, leaves at the DRAM
            // TSV sites.
            let rdl = self
                .registry
                .find(GridKind::Rdl { die: 0 })
                .expect("bottom RDL");
            // RDL -> DRAM die at TSV sites.
            self.stamp_site_connection(
                rdl,
                dram_grid,
                tech.bump_resistance().value(),
                ElementKind::Tsv { interface: 0 },
            );
            // Supply -> RDL at entry sites.
            let entry_cfg = TsvConfig::new(
                self.design.tsv().count().clamp(15, 480),
                self.options.rdl_entry,
            )
            .expect("count already validated");
            let entry_sites =
                entry_cfg.positions(spec.dram_width.value(), spec.dram_height.value());
            let rdl_grid = self.registry.grid(rdl).clone();
            match self.supply_target() {
                SupplyTarget::Ideal => {
                    for (i, (x, y)) in entry_sites.iter().enumerate() {
                        let r = base_r + mis.get(i).copied().unwrap_or(0.0);
                        self.tie_to_ground(&rdl_grid, *x, *y, 1.0 / r, ElementKind::SupplyEntry);
                    }
                }
                SupplyTarget::Logic(top) => {
                    let logic = self.registry.grid(top).clone();
                    let (dw, dh) = (spec.dram_width.value(), spec.dram_height.value());
                    for (i, (x, y)) in entry_sites.iter().enumerate() {
                        let landing = self.logic_landing(
                            x + (logic.width - dw) / 2.0,
                            y + (logic.height - dh) / 2.0,
                        );
                        let r = base_r + mis.get(i).copied().unwrap_or(0.0);
                        self.connect_points(
                            &rdl_grid,
                            (*x, *y),
                            &logic,
                            landing,
                            1.0 / r,
                            ElementKind::SupplyEntry,
                        );
                    }
                }
            }
        } else {
            let grid = self.registry.grid(dram_grid).clone();
            let sites = self.tsv_sites.clone();
            match self.supply_target() {
                SupplyTarget::Ideal => {
                    for (i, (x, y)) in sites.iter().enumerate() {
                        self.tie_to_ground(
                            &grid,
                            *x,
                            *y,
                            1.0 / (base_r + mis[i]),
                            ElementKind::SupplyEntry,
                        );
                    }
                }
                SupplyTarget::Logic(top) => {
                    let logic = self.registry.grid(top).clone();
                    let (dw, dh) = (spec.dram_width.value(), spec.dram_height.value());
                    for (i, (x, y)) in sites.iter().enumerate() {
                        let landing = self.logic_landing(
                            x + (logic.width - dw) / 2.0,
                            y + (logic.height - dh) / 2.0,
                        );
                        self.connect_points(
                            &grid,
                            (*x, *y),
                            &logic,
                            landing,
                            1.0 / (base_r + mis[i]),
                            ElementKind::SupplyEntry,
                        );
                    }
                }
            }
        }
    }

    /// Where a TSV lands on the logic die. Alignment-optimized designs
    /// place each TSV next to its nearest power C4 bump, so the landing is
    /// snapped to the bump position; otherwise the TSV lands at its own
    /// (misaligned) position and pays the lateral detour penalty.
    fn logic_landing(&self, gx: f64, gy: f64) -> (f64, f64) {
        if !self.design.tsv().is_aligned() {
            return (gx, gy);
        }
        let spec = self.design.benchmark().spec();
        let (lw, lh) = match spec.logic_size {
            Some((w, h)) => (w.value(), h.value()),
            None => return (gx, gy),
        };
        bump_grid(lw, lh, C4_PITCH_MM)
            .into_iter()
            .min_by(|a, b| {
                let da = (a.0 - gx).powi(2) + (a.1 - gy).powi(2);
                let db = (b.0 - gx).powi(2) + (b.1 - gy).powi(2);
                da.partial_cmp(&db).expect("distances are finite")
            })
            .unwrap_or((gx, gy))
    }

    /// Where the DRAM stack's supply current comes from.
    fn supply_target(&self) -> SupplyTarget {
        if self.design.mounting().is_on_chip() && !self.design.mounting().has_dedicated_tsvs() {
            SupplyTarget::Logic(
                self.registry
                    .find(GridKind::LogicMetal { layer: 1 })
                    .expect("logic top"),
            )
        } else {
            SupplyTarget::Ideal
        }
    }

    /// Per-TSV misalignment series resistance (Ω), from the distance to the
    /// nearest C4 bump on the logic die.
    ///
    /// Off-chip stacks see no misalignment: the package substrate routes
    /// its balls directly to the die's backside pads, so the penalty is the
    /// small alignment residual. On-chip, the C4 bump array of the logic
    /// die is fixed at its own pitch, and every TSV pays for the lateral
    /// detour to its nearest bump unless the design is alignment-optimized
    /// (Section 3.2).
    fn misalignment_distances(&self) -> Vec<f64> {
        let tech = self.design.dram_tech();
        let spec = self.design.benchmark().spec();
        let cfg = self.design.tsv();
        // Off-chip: the package routes balls to the pads directly.
        // Dedicated: via-last TSVs are drilled at the C4 positions.
        // Aligned: the Section 3.2 optimization placed TSVs next to bumps.
        let aligned_only = !self.design.mounting().is_on_chip()
            || self.design.mounting().has_dedicated_tsvs()
            || cfg.is_aligned();
        let (bw, bh) = match spec.logic_size {
            Some((w, h)) => (w.value(), h.value()),
            None => (spec.dram_width.value(), spec.dram_height.value()),
        };
        let bumps = bump_grid(bw, bh, C4_PITCH_MM);
        let (dw, dh) = (spec.dram_width.value(), spec.dram_height.value());
        self.tsv_sites
            .iter()
            .map(|&(x, y)| {
                let gx = x + (bw - dw) / 2.0;
                let gy = y + (bh - dh) / 2.0;
                let dist = if aligned_only {
                    0.02
                } else {
                    bumps
                        .iter()
                        .map(|&(bx, by)| ((gx - bx).powi(2) + (gy - by).powi(2)).sqrt())
                        .fold(f64::INFINITY, f64::min)
                };
                dist * tech.misalignment_resistance_per_mm().value()
            })
            .collect()
    }

    /// F2B: every die faces down; interface i is
    /// `die_i.M2 --(R_tsv + R_bump)-- die_{i+1}.M3`, and the bottom die's
    /// face (M3) bonds toward the supply.
    fn assemble_f2b(&mut self) {
        let tech = self.design.dram_tech().clone();
        let dies = self.design.dram_die_count();
        let rdl = self.design.rdl();
        for die in 0..dies - 1 {
            let m2 = self
                .registry
                .find(GridKind::DramMetal { die, layer: 0 })
                .expect("m2");
            let m3_above = self
                .registry
                .find(GridKind::DramMetal {
                    die: die + 1,
                    layer: 1,
                })
                .expect("m3");
            let r = tech.tsv_resistance().value() + tech.bump_resistance().value();
            if rdl.applies_to_die(die + 1)
                && matches!(rdl.scope(), Some(pi3d_layout::RdlScope::AllDies))
            {
                // Inter-die RDL: die_i.M2 -tsv-> RDL_{i+1} -bump-> die_{i+1}.M3.
                let rdl_grid = self
                    .registry
                    .find(GridKind::Rdl { die: die + 1 })
                    .expect("rdl grid");
                let kind = ElementKind::Tsv { interface: die + 1 };
                self.stamp_site_connection(m2, rdl_grid, tech.tsv_resistance().value(), kind);
                self.stamp_site_connection(
                    rdl_grid,
                    m3_above,
                    tech.bump_resistance().value(),
                    kind,
                );
            } else {
                self.stamp_site_connection(
                    m2,
                    m3_above,
                    r,
                    ElementKind::Tsv { interface: die + 1 },
                );
            }
        }
        // Bottom interface on die0's face (M3).
        let m3_bottom = self
            .registry
            .find(GridKind::DramMetal { die: 0, layer: 1 })
            .expect("m3");
        let base_r = self.bottom_base_resistance();
        self.stamp_bottom_interface(m3_bottom, base_r);
    }

    /// F2F + B2B: dies 0/2 face up, dies 1/3 face down. Pair faces bond
    /// through dense micro-vias (PDN sharing); pair backs bond through both
    /// dies' TSVs; the bottom die reaches the supply through its own TSVs.
    fn assemble_f2f(&mut self) {
        let tech = self.design.dram_tech().clone();
        let dies = self.design.dram_die_count();
        // F2F interfaces: M3 <-> M3 at every node within each pair.
        let g_f2f = 1.0 / tech.f2f_via_resistance().value();
        let mut pair_start = 0;
        while pair_start + 1 < dies {
            let a = self
                .registry
                .find(GridKind::DramMetal {
                    die: pair_start,
                    layer: 1,
                })
                .expect("m3 lower");
            let b = self
                .registry
                .find(GridKind::DramMetal {
                    die: pair_start + 1,
                    layer: 1,
                })
                .expect("m3 upper");
            self.stamp_plane_connection(a, b, g_f2f);
            pair_start += 2;
        }
        // B2B between pairs: die1.M2 --(2·R_tsv + R_pad)-- die2.M2.
        let mut upper = 1;
        while upper + 1 < dies {
            let a = self
                .registry
                .find(GridKind::DramMetal {
                    die: upper,
                    layer: 0,
                })
                .expect("m2");
            let b = self
                .registry
                .find(GridKind::DramMetal {
                    die: upper + 1,
                    layer: 0,
                })
                .expect("m2 next pair");
            let r = 2.0 * tech.tsv_resistance().value() + tech.b2b_pad_resistance().value();
            self.stamp_site_connection(a, b, r, ElementKind::B2b);
            upper += 2;
        }
        // Bottom interface through die0's TSVs onto its M2.
        let m2_bottom = self
            .registry
            .find(GridKind::DramMetal { die: 0, layer: 0 })
            .expect("m2");
        let base_r = self.bottom_base_resistance() + tech.tsv_resistance().value();
        self.stamp_bottom_interface(m2_bottom, base_r);
    }

    /// Per-site contact resistance of the bottom interface, excluding
    /// misalignment and any F2F bottom-TSV term.
    fn bottom_base_resistance(&self) -> f64 {
        let tech = self.design.dram_tech();
        match self.design.mounting() {
            pi3d_layout::Mounting::OffChip => tech.ball_resistance().value(),
            pi3d_layout::Mounting::OnChip {
                dedicated_tsvs: true,
            } => tech.bump_resistance().value() + tech.dedicated_tsv_resistance().value(),
            pi3d_layout::Mounting::OnChip {
                dedicated_tsvs: false,
            } => tech.bump_resistance().value() + tech.tsv_resistance().value(),
        }
    }

    /// Wire bonds: each die's backside edge pads tie to the supply through
    /// `R_tsv + R_wire`.
    fn stamp_wire_bonds(&mut self) {
        let tech = self.design.dram_tech().clone();
        let spec = self.design.benchmark().spec();
        let (w, h) = (spec.dram_width.value(), spec.dram_height.value());
        let r = tech.tsv_resistance().value() + tech.wirebond_resistance().value();
        for die in 0..self.design.dram_die_count() {
            let m2 = self
                .registry
                .find(GridKind::DramMetal { die, layer: 0 })
                .expect("m2");
            let grid = self.registry.grid(m2).clone();
            for edge_x in [w * 0.02, w * 0.98] {
                for i in 0..WIREBOND_SITES_PER_EDGE {
                    let y = h * (i as f64 + 0.5) / WIREBOND_SITES_PER_EDGE as f64;
                    self.tie_to_ground(&grid, edge_x, y, 1.0 / r, ElementKind::WireBond { die });
                }
            }
        }
    }
}

/// Union-find connectivity audit over the assembled conductance matrix:
/// classifies every node as supplied (some resistive path reaches a
/// supply-tied node) or islanded. Returns the per-node islanded flags and
/// the number of disconnected islands.
///
/// Runs in near-linear `O(nnz · α)` time, a negligible cost next to the
/// preconditioner factorization it guards.
fn audit_connectivity(matrix: &CsrMatrix, supply_nodes: &[usize]) -> (Vec<bool>, usize) {
    let n = matrix.dim();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut i: u32) -> u32 {
        while parent[i as usize] != i {
            // Path halving keeps the traversal near-constant amortized.
            parent[i as usize] = parent[parent[i as usize] as usize];
            i = parent[i as usize];
        }
        i
    }
    for r in 0..n {
        for (c, g) in matrix.row(r) {
            if c > r && g != 0.0 {
                let (a, b) = (find(&mut parent, r as u32), find(&mut parent, c as u32));
                if a != b {
                    parent[a as usize] = b;
                }
            }
        }
    }
    let mut supplied = vec![false; n];
    for &s in supply_nodes {
        let root = find(&mut parent, s as u32);
        supplied[root as usize] = true;
    }
    let mut islanded = vec![false; n];
    let mut island_roots = Vec::new();
    for i in 0..n {
        let root = find(&mut parent, i as u32);
        if !supplied[root as usize] {
            islanded[i] = true;
            if !island_roots.contains(&root) {
                island_roots.push(root);
            }
        }
    }
    (islanded, island_roots.len())
}

/// Builds the [`DegradedSupplyReport`] for a failed audit.
fn degradation_report(
    builder: &MeshAssembler<'_>,
    islanded: &[bool],
    islands: usize,
    faults: Option<FaultReport>,
) -> DegradedSupplyReport {
    let mut affected_dies = Vec::new();
    let mut logic_affected = false;
    for (_, grid) in builder.registry.iter() {
        let hit = (0..grid.node_count()).any(|i| islanded[grid.base + i]);
        if !hit {
            continue;
        }
        match grid.kind.dram_die() {
            Some(die) if !affected_dies.contains(&die) => affected_dies.push(die),
            Some(_) => {}
            None => logic_affected = true,
        }
    }
    affected_dies.sort_unstable();
    let is_contact = |kind: ElementKind| {
        matches!(
            kind,
            ElementKind::SupplyEntry | ElementKind::C4Bump | ElementKind::WireBond { .. }
        )
    };
    let surviving: Vec<&Element> = builder
        .elements
        .iter()
        .filter(|e| is_contact(e.kind))
        .collect();
    let opened = faults.map_or(0, |r| r.contact_opens);
    let worst = surviving
        .iter()
        .map(|e| {
            let g: f64 = e.branches.iter().map(|&(_, _, g)| g).sum();
            1.0 / g
        })
        .fold(None, |acc: Option<f64>, r| {
            Some(acc.map_or(r, |a| a.max(r)))
        });
    DegradedSupplyReport {
        islanded_nodes: islanded.iter().filter(|&&i| i).count(),
        total_nodes: islanded.len(),
        islands,
        affected_dies,
        logic_affected,
        surviving_supply_paths: surviving.len(),
        total_supply_paths: surviving.len() + opened,
        worst_surviving_path_ohms: worst,
        faults,
    }
}

/// Where the bottom interface terminates.
enum SupplyTarget {
    /// Directly at the ideal supply (package balls or dedicated TSVs).
    Ideal,
    /// Into the logic die's top (C4-side) PDN grid.
    Logic(GridId),
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pi3d_layout::{Benchmark, RdlConfig, RdlScope, StackDesign};

    fn mesh(design: &StackDesign) -> StackMesh {
        StackMesh::new(design, MeshOptions::coarse()).expect("mesh builds")
    }

    #[test]
    fn off_chip_baseline_builds_and_is_spd_like() {
        let d = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let m = mesh(&d);
        assert!(m.matrix().is_symmetric(1e-9));
        assert!(m.matrix().is_diagonally_dominant(1e-9));
        // 4 dies x 2 layers x 14 x 14 nodes.
        assert_eq!(m.node_count(), 4 * 2 * 14 * 14);
    }

    #[test]
    fn on_chip_adds_logic_grids() {
        let d = StackDesign::baseline(Benchmark::StackedDdr3OnChip);
        let m = mesh(&d);
        assert_eq!(m.node_count(), 4 * 2 * 14 * 14 + 2 * 16 * 14);
        assert!(m
            .registry()
            .find(GridKind::LogicMetal { layer: 0 })
            .is_some());
    }

    #[test]
    fn rdl_adds_a_grid_per_scoped_die() {
        let d = StackDesign::builder(Benchmark::StackedDdr3OffChip)
            .rdl(RdlConfig::enabled(RdlScope::BottomOnly))
            .build()
            .unwrap();
        let m = mesh(&d);
        assert!(m.registry().find(GridKind::Rdl { die: 0 }).is_some());
        assert!(m.registry().find(GridKind::Rdl { die: 1 }).is_none());

        let d = StackDesign::builder(Benchmark::StackedDdr3OffChip)
            .rdl(RdlConfig::enabled(RdlScope::AllDies))
            .build()
            .unwrap();
        let m = mesh(&d);
        for die in 0..4 {
            assert!(
                m.registry().find(GridKind::Rdl { die }).is_some(),
                "die {die}"
            );
        }
    }

    #[test]
    fn all_benchmark_baselines_build() {
        for b in Benchmark::ALL {
            let d = StackDesign::baseline(b);
            let m = mesh(&d);
            assert!(m.matrix().is_symmetric(1e-9), "{b}");
        }
    }

    #[test]
    fn f2f_mesh_builds() {
        let d = StackDesign::builder(Benchmark::StackedDdr3OffChip)
            .bonding(BondingStyle::F2F)
            .build()
            .unwrap();
        let m = mesh(&d);
        assert!(m.matrix().is_symmetric(1e-9));
    }

    #[test]
    fn load_vector_conserves_current() {
        let d = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let m = mesh(&d);
        let state: MemoryState = "0-0-0-2".parse().unwrap();
        let loads = m.load_vector(&state, 1.0);
        let model = d.power_model();
        let expect_mw = model.die_power(2, 1.0).value() + 3.0 * model.die_power(0, 1.0).value();
        let total_a: f64 = loads.iter().sum();
        let expect_a = expect_mw * 1e-3 / d.dram_tech().vdd().value();
        assert!(
            (total_a - expect_a).abs() < 1e-9,
            "loads {total_a} A vs expected {expect_a} A"
        );
    }

    #[test]
    fn solve_produces_positive_bounded_drops() {
        let d = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let mut m = mesh(&d);
        let state: MemoryState = "0-0-0-2".parse().unwrap();
        let v = m.solve(&state, 1.0).expect("solve");
        let max = v.iter().cloned().fold(0.0f64, f64::max);
        let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min >= -1e-9, "negative drop {min}");
        assert!(max > 1e-4, "suspiciously small max drop {max}");
        assert!(max < 0.5, "max drop {max} V exceeds half the supply");
    }

    #[test]
    fn warm_start_cache_is_populated_and_reused() {
        let d = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let mut m = mesh(&d);
        let state: MemoryState = "0-0-0-2".parse().unwrap();
        let _ = m.solve(&state, 1.0).unwrap();
        assert_eq!(m.warm_cache.len(), 1);
        // Same state: re-solving replaces the entry rather than growing.
        let _ = m.solve(&state, 0.5).unwrap();
        assert_eq!(m.warm_cache.len(), 1);
        // A different state adds a second entry; the nearest lookup picks
        // the closest signature.
        let other: MemoryState = "2-0-0-0".parse().unwrap();
        let _ = m.solve(&other, 1.0).unwrap();
        assert_eq!(m.warm_cache.len(), 2);
        let near = m.warm_cache.nearest(&[2, 0, 0, 1]).unwrap();
        let direct = m.warm_cache.nearest(&WarmStartCache::key(&other)).unwrap();
        assert!(Arc::ptr_eq(near, direct));
    }

    #[test]
    fn faulted_but_connected_mesh_solves_normally() {
        let d = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let spec = FaultSpec::new(42)
            .with_tsv_open(0.05)
            .with_via_void(0.02)
            .with_em_drift(0.1);
        let mut m = StackMesh::new(
            &d,
            MeshOptions {
                faults: Some(spec),
                ..MeshOptions::coarse()
            },
        )
        .expect("lightly faulted mesh still builds");
        let report = m.fault_report().expect("fault report recorded");
        assert!(report.total_sites() > 0);
        assert!(report.drifted > 0);

        let state: MemoryState = "0-0-0-2".parse().unwrap();
        let faulted = m.solve(&state, 1.0).expect("connected mesh solves");
        let pristine = mesh(&d).solve(&state, 1.0).unwrap();
        let max_f = faulted.iter().cloned().fold(0.0f64, f64::max);
        let max_p = pristine.iter().cloned().fold(0.0f64, f64::max);
        // Losing TSVs and drifting resistances can only hurt.
        assert!(max_f > max_p, "faulted {max_f} !> pristine {max_p}");
        assert!(max_f < 0.5, "faulted drop {max_f} V is implausible");
    }

    #[test]
    fn fault_injection_is_reproducible() {
        let d = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let opts = MeshOptions {
            faults: Some(FaultSpec::new(7).with_tsv_open(0.2).with_em_drift(0.3)),
            ..MeshOptions::coarse()
        };
        let a = StackMesh::new(&d, opts.clone()).unwrap();
        let b = StackMesh::new(&d, opts).unwrap();
        assert_eq!(a.fault_report(), b.fault_report());
        assert_eq!(a.matrix(), b.matrix());
    }

    #[test]
    fn inactive_fault_spec_leaves_the_mesh_pristine() {
        let d = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let faulted = StackMesh::new(
            &d,
            MeshOptions {
                faults: Some(FaultSpec::none()),
                ..MeshOptions::coarse()
            },
        )
        .unwrap();
        assert!(faulted.fault_report().is_none());
        assert_eq!(faulted.matrix(), mesh(&d).matrix());
    }

    #[test]
    fn severed_stack_reports_degraded_supply() {
        // Opening every TSV cuts dies 2..4 off the supply; die 1 still
        // reaches the package balls directly.
        let d = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let err = StackMesh::new(
            &d,
            MeshOptions {
                faults: Some(FaultSpec::new(1).with_tsv_open(1.0)),
                ..MeshOptions::coarse()
            },
        )
        .expect_err("severed stack must not build");
        let report = err.degraded_supply().expect("typed degradation");
        assert_eq!(report.affected_dies, vec![1, 2, 3]);
        assert!(!report.logic_affected);
        assert!(report.islanded_nodes > 0);
        assert!(report.islanded_nodes < report.total_nodes);
        assert!(report.surviving_supply_paths > 0);
        assert!(report.worst_surviving_path_ohms.unwrap() > 0.0);
        assert!(report.faults.unwrap().tsv_opens > 0);
        let msg = err.to_string();
        assert!(msg.starts_with("degraded supply:"), "{msg}");
    }

    #[test]
    fn all_supply_contacts_open_islands_everything() {
        let d = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let err = StackMesh::new(
            &d,
            MeshOptions {
                faults: Some(FaultSpec::new(1).with_bump_open(1.0)),
                ..MeshOptions::coarse()
            },
        )
        .expect_err("supply-less mesh must not build");
        let report = err.degraded_supply().unwrap();
        assert_eq!(report.islanded_nodes, report.total_nodes);
        assert_eq!(report.surviving_supply_paths, 0);
        assert_eq!(report.worst_surviving_path_ohms, None);
        assert_eq!(report.affected_dies, vec![0, 1, 2, 3]);
    }

    #[test]
    fn solve_batch_matches_sequential_solves_bitwise() {
        let d = StackDesign::baseline(Benchmark::StackedDdr3OffChip);
        let cases: Vec<(MemoryState, f64)> = [
            ("0-0-0-2", 1.0),
            ("1-0-0-0", 0.5),
            ("2-2-2-2", 0.25),
            ("0-1-0-1", 1.0),
        ]
        .into_iter()
        .map(|(s, a)| (s.parse().unwrap(), a))
        .collect();

        // Sequential reference on a cold mesh per case (no warm starts).
        let reference: Vec<Vec<f64>> = cases
            .iter()
            .map(|(state, io)| {
                let m = mesh(&d);
                let loads = m.load_vector(state, *io);
                m.prepared().solve(&loads, None).unwrap().x
            })
            .collect();

        for threads in [1, 4] {
            let m = StackMesh::new(
                &d,
                MeshOptions {
                    threads,
                    ..MeshOptions::coarse()
                },
            )
            .unwrap();
            let batch = m.solve_batch(&cases).unwrap();
            for (i, v) in batch.iter().enumerate() {
                assert_eq!(**v, reference[i], "threads {threads}, case {i}");
            }
        }
    }
}
