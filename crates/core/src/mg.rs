//! The multigrid hierarchy: Galerkin coarse operators, V-cycle, and full
//! multigrid (the "Epimetheus" layer plus Figure 1 of the paper).

use crate::classify::VertexClasses;
use crate::coarsen::{coarsen_level, CoarseLevel, CoarsenOptions};
use pmg_geometry::Vec3;
use pmg_parallel::{DistMatFree, DistMatrix, DistVec, Layout, Sim, SimOperator};
use pmg_partition::{recursive_coordinate_bisection, Graph};
use pmg_solver::{BlockJacobi, Chebyshev, CoarseDirect, Precond};
use pmg_sparse::{CooBuilder, CsrMatrix, MatrixFreeFactory, RapPlan};
use std::sync::Arc;

/// Multigrid cycle used as the CG preconditioner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CycleType {
    /// One V-cycle (Figure 1).
    V,
    /// One full multigrid cycle (the paper's choice, §2: "we use the 'full'
    /// multigrid algorithm (FMG) in our numerical experiments").
    Fmg,
    /// W-cycle: visit the coarse grid twice per level (more robust on hard
    /// coefficients, more coarse-grid work).
    W,
}

/// Which smoother the hierarchy uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SmootherType {
    /// The paper's smoother: damped block Jacobi, blocks from the graph
    /// partitioner.
    BlockJacobi,
    /// Chebyshev polynomial smoothing of the given degree (no
    /// factorizations, no inner products).
    Chebyshev {
        /// Polynomial degree of one smoothing application.
        degree: usize,
    },
}

/// Which backend applies the fine-grid (level 0) operator during the
/// solve. Coarse Galerkin levels are always assembled — they are small,
/// reused by RAP, and their sparsity is the product pattern, not an
/// element loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FineOperator {
    /// Assembled CSR (promoted to BSR3 for 3-dof problems): the default.
    #[default]
    Assembled,
    /// Element-loop on-the-fly apply: the fine matrix is never promoted
    /// to BSR3 and the solve-time `A x` walks the element geometry
    /// instead of assembled rows. Requires a
    /// [`MatrixFreeFactory`] at build time (see
    /// [`MgHierarchy::build_with_factory`]).
    MatrixFree,
}

impl FineOperator {
    /// Read the backend from `PMG_FINE_OP` (`matrixfree` / `mf` selects
    /// the matrix-free path; anything else, or unset, is assembled).
    pub fn from_env() -> FineOperator {
        match std::env::var("PMG_FINE_OP") {
            Ok(v) if v.eq_ignore_ascii_case("matrixfree") || v.eq_ignore_ascii_case("mf") => {
                FineOperator::MatrixFree
            }
            _ => FineOperator::Assembled,
        }
    }
}

/// A smoother bound to one grid level.
pub enum Smoother {
    /// The paper's damped block Jacobi.
    BlockJacobi(BlockJacobi),
    /// Chebyshev polynomial smoother.
    Chebyshev(Chebyshev),
}

impl Smoother {
    fn build(sim: &mut Sim, a: &DistMatrix, opts: &MgOptions) -> Smoother {
        match opts.smoother {
            SmootherType::BlockJacobi => {
                Smoother::BlockJacobi(BlockJacobi::new(a, opts.blocks_per_1000, opts.omega))
            }
            SmootherType::Chebyshev { degree } => {
                Smoother::Chebyshev(Chebyshev::new(sim, a, degree, 30.0))
            }
        }
    }

    /// [`Smoother::build`] for a new operator on the same grid: a
    /// block-Jacobi smoother reuses this one's cached block plans (bitwise
    /// the same result as a fresh build).
    fn rebuild(&self, sim: &mut Sim, a: &DistMatrix, opts: &MgOptions) -> Smoother {
        match (self, opts.smoother) {
            (Smoother::BlockJacobi(prev), SmootherType::BlockJacobi) => Smoother::BlockJacobi(
                BlockJacobi::new_reusing(a, opts.blocks_per_1000, opts.omega, prev),
            ),
            _ => Smoother::build(sim, a, opts),
        }
    }

    /// `sweeps` stationary smoothing passes on `A x = b`. The operator is
    /// only *applied* here, so assembled and matrix-free backends are both
    /// accepted; the smoother's setup-time factorizations always come from
    /// the assembled matrix handed to `Smoother::build`.
    pub fn smooth(
        &self,
        sim: &mut Sim,
        a: &dyn SimOperator,
        b: &DistVec,
        x: &mut DistVec,
        sweeps: usize,
    ) {
        match self {
            Smoother::BlockJacobi(s) => s.smooth(sim, a, b, x, sweeps),
            Smoother::Chebyshev(s) => s.smooth(sim, a, b, x, sweeps),
        }
    }
}

/// Hierarchy construction and cycling options (paper defaults).
#[derive(Clone, Copy, Debug)]
pub struct MgOptions {
    /// Maximum number of grid levels (including the fine grid).
    pub max_levels: usize,
    /// Solve directly once a grid has at most this many dofs.
    pub coarse_dof_threshold: usize,
    /// Pre/post smoothing steps (paper: one of each).
    pub pre_smooth: usize,
    /// Post-smoothing steps per level visit.
    pub post_smooth: usize,
    /// Block-Jacobi damping.
    pub omega: f64,
    /// Paper: 6 blocks per 1000 unknowns.
    pub blocks_per_1000: f64,
    /// V-cycle or W-cycle preconditioner.
    pub cycle: CycleType,
    /// Degrees of freedom per vertex (3 for elasticity, 1 for scalar
    /// tests).
    pub dofs_per_vertex: usize,
    /// Smoother family; see [`SmootherType`].
    pub smoother: SmootherType,
    /// Coarsening (MIS + remesh) options per level.
    pub coarsen: CoarsenOptions,
    /// Route 3-dof level operators through 3x3 BSR storage (numerically
    /// identical to the scalar path; off only for A/B comparisons).
    pub block3: bool,
    /// Fine-grid (level 0) apply backend; see [`FineOperator`].
    pub fine_operator: FineOperator,
    /// Thread-pool size for this solver's parallel kernels. `None` uses
    /// the process-global pool (sized by `PMG_THREADS`); `Some(n)` gives
    /// the solver a dedicated pool of `n` threads. Results are bitwise
    /// identical either way — the pool only changes who does the work.
    pub threads: Option<usize>,
}

impl Default for MgOptions {
    fn default() -> Self {
        MgOptions {
            max_levels: 10,
            coarse_dof_threshold: 600,
            pre_smooth: 1,
            post_smooth: 1,
            omega: 0.6,
            blocks_per_1000: 6.0,
            cycle: CycleType::Fmg,
            dofs_per_vertex: 3,
            smoother: SmootherType::BlockJacobi,
            coarsen: CoarsenOptions::default(),
            block3: true,
            fine_operator: FineOperator::Assembled,
            threads: None,
        }
    }
}

/// One grid of the hierarchy.
pub struct MgLevel {
    /// The level operator, partitioned over the virtual ranks.
    pub a: DistMatrix,
    /// This level's smoother (factored once at setup).
    pub smoother: Smoother,
    /// Restriction to the next coarser grid (`None` on the coarsest).
    pub r: Option<DistMatrix>,
    /// Prolongation from the next coarser grid (`Rᵀ`).
    pub p: Option<DistMatrix>,
    /// Direct solver (only on the coarsest level).
    pub coarse: Option<CoarseDirect>,
    /// Vertices on this grid.
    pub num_vertices: usize,
    /// Global (dof-level) restriction, kept so a new fine operator can be
    /// re-Galerkin-ed through the existing grids (the paper's "matrix
    /// setup" phase, repeated per Newton iteration while the "mesh setup"
    /// phase is amortized).
    pub r_global: Option<CsrMatrix>,
    /// Cached symbolic plan of `R A Rᵀ` for this level's operator. Built
    /// with the hierarchy; [`MgHierarchy::update_operator`] re-executes it
    /// numerically in O(nnz) while this level's sparsity pattern is
    /// unchanged, and rebuilds it transparently otherwise.
    pub rap_plan: Option<RapPlan>,
}

/// The assembled hierarchy; implements [`Precond`] as one MG cycle.
pub struct MgHierarchy {
    /// The grids, finest first.
    pub levels: Vec<MgLevel>,
    /// The options the hierarchy was built with.
    pub opts: MgOptions,
    /// Per-level coarsening diagnostics (level 1..): selected counts, lost
    /// vertices.
    pub coarsen_info: Vec<(usize, usize)>,
    /// Matrix-free fine-grid apply (`Some` iff
    /// `opts.fine_operator == MatrixFree`). The assembled `levels[0].a`
    /// is still kept — Galerkin products and smoother factorizations need
    /// it — but every solve-time level-0 `A x` routes through this
    /// operator instead.
    pub fine_mf: Option<DistMatFree>,
}

/// Expand a scalar (per-vertex) restriction to `dofs` unknowns per vertex.
pub fn expand_restriction(r: &CsrMatrix, dofs: usize) -> CsrMatrix {
    let mut b = CooBuilder::new(r.nrows() * dofs, r.ncols() * dofs);
    for (c, f, w) in r.iter() {
        for d in 0..dofs {
            b.push(c * dofs + d, f * dofs + d, w);
        }
    }
    b.build()
}

impl MgHierarchy {
    /// Build the hierarchy from the fine operator and fine-grid geometry.
    /// All grid and matrix setup work is charged to the sim phases
    /// `"mesh setup"` (coarsening: MIS, Delaunay, restriction) and
    /// `"matrix setup"` (Galerkin products, smoother factorizations).
    ///
    /// Telemetry: records the scopes `coarsen` (with `mis` / `delaunay` /
    /// `restriction` / `classify` children from [`coarsen_level`]), `rap`,
    /// `smoother`, and `coarse_direct` under the caller's current path
    /// (`setup/...` when driven by `Prometheus`), plus per-level
    /// `mg/level{i}/rows|nnz` gauges and `mg/operator_complexity`.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        sim: &mut Sim,
        a_fine: &CsrMatrix,
        coords: &[Vec3],
        graph: &Graph,
        classes: &VertexClasses,
        opts: MgOptions,
    ) -> MgHierarchy {
        Self::build_with_factory(sim, a_fine, coords, graph, classes, opts, None)
    }

    /// [`build`](Self::build), plus an optional matrix-free factory for
    /// the fine-grid apply. Required when
    /// `opts.fine_operator == FineOperator::MatrixFree`: once the fine
    /// layout is partitioned, the factory builds one element-loop kernel
    /// per rank and the hierarchy routes every solve-time level-0 `A x`
    /// through them (the assembled fine matrix stays — in scalar CSR form
    /// only, never promoted to BSR3 — for Galerkin products and smoother
    /// factorizations).
    #[allow(clippy::too_many_arguments)]
    pub fn build_with_factory(
        sim: &mut Sim,
        a_fine: &CsrMatrix,
        coords: &[Vec3],
        graph: &Graph,
        classes: &VertexClasses,
        opts: MgOptions,
        factory: Option<&dyn MatrixFreeFactory>,
    ) -> MgHierarchy {
        let nranks = sim.num_ranks();
        let dofs = opts.dofs_per_vertex;
        assert_eq!(a_fine.nrows(), coords.len() * dofs);

        let make_layout = |coords: &[Vec3]| -> Arc<Layout> {
            let part = recursive_coordinate_bisection(coords, nranks);
            let vlayout = Layout::from_part(part, nranks);
            Layout::expand_dofs(&vlayout, dofs)
        };
        // Level operators of 3-dof displacement problems run blocked
        // (BSR3); R/P and scalar problems stay on the scalar CSR path.
        // A matrix-free fine grid skips the promotion: its assembled copy
        // is only read by RAP and the smoother setup, so carrying a second
        // (BSR3) image of the largest matrix would waste exactly the
        // memory the matrix-free path exists to save.
        let make_da = move |a: &CsrMatrix, l: &Arc<Layout>, promote: bool| -> DistMatrix {
            if promote && dofs == 3 && opts.block3 {
                DistMatrix::from_global_blocked(a, l.clone(), l.clone())
            } else {
                DistMatrix::from_global(a, l.clone(), l.clone())
            }
        };

        let mut levels: Vec<MgLevel> = Vec::new();
        let mut coarsen_info = Vec::new();
        let fine_nnz = a_fine.nnz();
        let mut total_nnz = 0usize;

        let mut cur_a = a_fine.clone();
        let mut cur_coords = coords.to_vec();
        let mut cur_graph = graph.clone();
        let mut cur_classes = classes.clone();
        let mut cur_layout = make_layout(&cur_coords);

        loop {
            let n = cur_a.nrows();
            let lvl_index = levels.len();
            let promote = lvl_index != 0 || opts.fine_operator == FineOperator::Assembled;
            total_nnz += cur_a.nnz();
            if pmg_telemetry::enabled() {
                pmg_telemetry::gauge_set(&format!("mg/level{lvl_index}/rows"), n as f64);
                pmg_telemetry::gauge_set(&format!("mg/level{lvl_index}/nnz"), cur_a.nnz() as f64);
            }
            let at_bottom = n <= opts.coarse_dof_threshold
                || lvl_index + 1 >= opts.max_levels
                || cur_coords.len() < 24;

            if at_bottom {
                sim.phase("matrix setup");
                let da = make_da(&cur_a, &cur_layout, promote);
                let smoother = {
                    let _t = pmg_telemetry::scope("smoother");
                    Smoother::build(sim, &da, &opts)
                };
                let coarse = {
                    let _t = pmg_telemetry::scope("coarse_direct");
                    CoarseDirect::new(&da)
                };
                charge_setup_flops(sim);
                levels.push(MgLevel {
                    a: da,
                    smoother,
                    r: None,
                    p: None,
                    coarse: Some(coarse),
                    num_vertices: cur_coords.len(),
                    r_global: None,
                    rap_plan: None,
                });
                break;
            }

            // Coarsen the grid (mesh setup).
            sim.phase("mesh setup");
            let mut copts = opts.coarsen;
            copts.nproc = nranks;
            // Paper: reclassify the third and subsequent grids.
            copts.reclassify = lvl_index >= 1;
            let cl: CoarseLevel = {
                let _t = pmg_telemetry::scope("coarsen");
                coarsen_level(&cur_coords, &cur_graph, &cur_classes, &copts)
            };
            let nc = cl.selected.len();
            coarsen_info.push((nc, cl.lost_vertices));
            charge_setup_flops(sim);

            if nc * 100 >= cur_coords.len() * 95 || nc < 4 {
                // Coarsening stalled: finish with a direct solve here.
                sim.phase("matrix setup");
                let da = make_da(&cur_a, &cur_layout, promote);
                let smoother = {
                    let _t = pmg_telemetry::scope("smoother");
                    Smoother::build(sim, &da, &opts)
                };
                let coarse = {
                    let _t = pmg_telemetry::scope("coarse_direct");
                    CoarseDirect::new(&da)
                };
                charge_setup_flops(sim);
                levels.push(MgLevel {
                    a: da,
                    smoother,
                    r: None,
                    p: None,
                    coarse: Some(coarse),
                    num_vertices: cur_coords.len(),
                    r_global: None,
                    rap_plan: None,
                });
                break;
            }

            // Galerkin coarse operator and distributed operators (matrix
            // setup).
            sim.phase("matrix setup");
            let r_dof = expand_restriction(&cl.restriction, dofs);
            let ((a_coarse, rap_plan), _) = {
                let _t = pmg_telemetry::scope("rap");
                pmg_sparse::flops::measure(|| {
                    let mut plan = RapPlan::new(&cur_a, &r_dof);
                    let ac = plan.execute(&cur_a);
                    (ac, plan)
                })
            };
            let coarse_layout = make_layout(&cl.coords);
            let da = make_da(&cur_a, &cur_layout, promote);
            let dr = DistMatrix::from_global(&r_dof, coarse_layout.clone(), cur_layout.clone());
            let dp = DistMatrix::from_global(
                &r_dof.transpose(),
                cur_layout.clone(),
                coarse_layout.clone(),
            );
            let smoother = {
                let _t = pmg_telemetry::scope("smoother");
                Smoother::build(sim, &da, &opts)
            };
            charge_setup_flops(sim);

            levels.push(MgLevel {
                a: da,
                smoother,
                r: Some(dr),
                p: Some(dp),
                coarse: None,
                num_vertices: cur_coords.len(),
                r_global: Some(r_dof),
                rap_plan: Some(rap_plan),
            });

            cur_a = a_coarse;
            cur_coords = cl.coords;
            cur_graph = cl.graph;
            cur_classes = cl.classes;
            cur_layout = coarse_layout;
        }

        if pmg_telemetry::enabled() {
            pmg_telemetry::gauge_set("mg/levels", levels.len() as f64);
            // Σ nnz(A_l) / nnz(A_0): the grid-complexity measure the AMG
            // literature reports alongside iteration counts.
            pmg_telemetry::gauge_set(
                "mg/operator_complexity",
                total_nnz as f64 / fine_nnz.max(1) as f64,
            );
        }
        let fine_mf = if opts.fine_operator == FineOperator::MatrixFree {
            let factory = factory.expect(
                "MgOptions.fine_operator = MatrixFree needs a matrix-free factory: \
                 call MgHierarchy::build_with_factory (or Prometheus::from_mesh, which \
                 wires the FEM element loop in automatically)",
            );
            sim.phase("matrix setup");
            let mf = {
                let _t = pmg_telemetry::scope("matfree_setup");
                DistMatFree::from_factory(levels[0].a.row_layout().clone(), factory)
            };
            Some(mf)
        } else {
            None
        };
        MgHierarchy {
            levels,
            opts,
            coarsen_info,
            fine_mf,
        }
    }

    /// The operator PCG and the cycles apply on the finest grid: the
    /// matrix-free kernels when installed, the assembled matrix otherwise.
    pub fn fine_op(&self) -> &dyn SimOperator {
        match &self.fine_mf {
            Some(mf) => mf,
            None => &self.levels[0].a,
        }
    }

    /// The apply operator for level `lvl` (level 0 routes through
    /// [`fine_op`](Self::fine_op)).
    pub fn level_op(&self, lvl: usize) -> &dyn SimOperator {
        if lvl == 0 {
            self.fine_op()
        } else {
            &self.levels[lvl].a
        }
    }

    /// Re-run the *matrix setup* phase only: push a new fine operator
    /// through the existing restriction operators (Galerkin products),
    /// refactor the smoothers and the coarse direct solve, but keep the
    /// grids, layouts, and restriction operators. This is what each Newton
    /// iteration pays in the paper (the mesh setup is amortized, §6).
    ///
    /// Each level's Galerkin product re-executes its cached [`RapPlan`]
    /// numerically — no symbolic work — as long as the level's sparsity
    /// pattern is unchanged (the common case: Newton only changes values).
    /// A pattern change is detected and the plan rebuilt transparently.
    /// Block-Jacobi levels likewise keep their block partitions and gather
    /// maps and only re-factor (see [`BlockJacobi::new_reusing`]).
    pub fn update_operator(&mut self, sim: &mut Sim, a_fine: &CsrMatrix) {
        sim.phase("matrix setup");
        // Any installed matrix-free kernels linearize the *previous*
        // operator; drop them so the hierarchy falls back to the fresh
        // assembled matrix until install_fine_matrix_free is called again.
        self.fine_mf = None;
        let dofs = self.opts.dofs_per_vertex;
        let mut cur = a_fine.clone();
        for lvl in 0..self.levels.len() {
            let row_layout = self.levels[lvl].a.row_layout().clone();
            assert_eq!(
                cur.nrows(),
                row_layout.num_global(),
                "operator size changed"
            );
            let promote = lvl != 0 || self.opts.fine_operator == FineOperator::Assembled;
            let da = if promote && dofs == 3 && self.opts.block3 {
                DistMatrix::from_global_blocked(&cur, row_layout.clone(), row_layout)
            } else {
                DistMatrix::from_global(&cur, row_layout.clone(), row_layout)
            };
            let opts = self.opts;
            let smoother = {
                let _t = pmg_telemetry::scope("smoother");
                self.levels[lvl].smoother.rebuild(sim, &da, &opts)
            };
            let level = &mut self.levels[lvl];
            let next = level.r_global.is_some().then(|| {
                let _t = pmg_telemetry::scope("rap");
                let planned = level.rap_plan.as_ref().is_some_and(|p| p.matches(&cur));
                if !planned {
                    let r = level.r_global.as_ref().expect("checked above");
                    let (plan, _) = pmg_sparse::flops::measure(|| RapPlan::new(&cur, r));
                    level.rap_plan = Some(plan);
                }
                let plan = level.rap_plan.as_mut().expect("plan set above");
                let (ac, _) = pmg_sparse::flops::measure(|| plan.execute(&cur));
                ac
            });
            if level.coarse.is_some() {
                let _t = pmg_telemetry::scope("coarse_direct");
                level.coarse = Some(CoarseDirect::new(&da));
            }
            level.a = da;
            level.smoother = smoother;
            match next {
                Some(ac) => cur = ac,
                None => break,
            }
        }
        charge_setup_flops(sim);
    }

    /// (Re-)install the matrix-free fine-grid apply from a factory built
    /// at the current linearization point.
    /// [`update_operator`](Self::update_operator) drops the previous
    /// kernels (they froze the old tangent); call this after it to put
    /// the solve back on the matrix-free path.
    pub fn install_fine_matrix_free(&mut self, factory: &dyn MatrixFreeFactory) {
        let _t = pmg_telemetry::scope("matfree_setup");
        self.fine_mf = Some(DistMatFree::from_factory(
            self.levels[0].a.row_layout().clone(),
            factory,
        ));
    }

    /// Number of grid levels in the hierarchy.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Grid sizes (vertices per level), finest first.
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.num_vertices).collect()
    }

    /// One V-cycle at `lvl` for right-hand side `r`; returns the correction.
    pub fn vcycle(&self, sim: &mut Sim, lvl: usize, r: &DistVec) -> DistVec {
        self.cycle(sim, lvl, r, 1)
    }

    /// One W-cycle (two coarse-grid visits per level).
    pub fn wcycle(&self, sim: &mut Sim, lvl: usize, r: &DistVec) -> DistVec {
        self.cycle(sim, lvl, r, 2)
    }

    /// The µ-cycle: `mu` = 1 gives the V-cycle, `mu` = 2 the W-cycle.
    ///
    /// Telemetry: each level records `level{lvl}/smooth`, `level{lvl}/
    /// restrict`, `level{lvl}/prolong` and (on the coarsest) `level{lvl}/
    /// coarse` under the caller's current path. The scopes are opened
    /// around individual kernels — not the recursion — so every level's
    /// records are siblings, ready for flat per-level aggregation.
    fn cycle(&self, sim: &mut Sim, lvl: usize, r: &DistVec, mu: usize) -> DistVec {
        let level = &self.levels[lvl];
        let mut x = DistVec::zeros(r.layout().clone());
        if let Some(direct) = &level.coarse {
            let _t = pmg_telemetry::scoped!("level{lvl}/coarse");
            direct.apply(sim, r, &mut x);
            return x;
        }
        {
            let _t = pmg_telemetry::scoped!("level{lvl}/smooth");
            level
                .smoother
                .smooth(sim, self.level_op(lvl), r, &mut x, self.opts.pre_smooth);
        }

        let rmat = level.r.as_ref().expect("non-coarsest level has R");
        let pmat = level.p.as_ref().expect("non-coarsest level has P");
        for _ in 0..mu {
            let mut rc = DistVec::zeros(rmat.row_layout().clone());
            {
                let _t = pmg_telemetry::scoped!("level{lvl}/restrict");
                let mut res = DistVec::zeros(r.layout().clone());
                self.level_op(lvl).spmv(sim, &x, &mut res);
                res.aypx(sim, -1.0, r); // res = r - A x
                rmat.spmv(sim, &res, &mut rc);
            }
            let xc = self.cycle(sim, lvl + 1, &rc, mu);
            {
                let _t = pmg_telemetry::scoped!("level{lvl}/prolong");
                let mut corr = DistVec::zeros(r.layout().clone());
                pmat.spmv(sim, &xc, &mut corr);
                x.axpy(sim, 1.0, &corr);
            }
            if self.levels[lvl + 1].coarse.is_some() {
                break; // next level is a direct solve: revisiting is a no-op
            }
        }

        {
            let _t = pmg_telemetry::scoped!("level{lvl}/smooth");
            level
                .smoother
                .smooth(sim, self.level_op(lvl), r, &mut x, self.opts.post_smooth);
        }
        x
    }

    /// One full multigrid cycle: restrict the right-hand side to every
    /// grid, solve the coarsest directly, then work back up — prolongate,
    /// correct with a V-cycle on each grid (§2).
    pub fn fmg(&self, sim: &mut Sim, r: &DistVec) -> DistVec {
        let nl = self.levels.len();
        // Restrict r through all levels.
        let mut rs: Vec<DistVec> = Vec::with_capacity(nl);
        rs.push(r.clone());
        for lvl in 0..nl - 1 {
            let _t = pmg_telemetry::scoped!("level{lvl}/restrict");
            let rmat = self.levels[lvl].r.as_ref().unwrap();
            let mut rc = DistVec::zeros(rmat.row_layout().clone());
            rmat.spmv(sim, &rs[lvl], &mut rc);
            rs.push(rc);
        }
        // Coarsest: direct solve.
        let mut x = {
            let _t = pmg_telemetry::scoped!("level{}/coarse", nl - 1);
            let level = &self.levels[nl - 1];
            let mut z = DistVec::zeros(rs[nl - 1].layout().clone());
            level
                .coarse
                .as_ref()
                .unwrap()
                .apply(sim, &rs[nl - 1], &mut z);
            z
        };
        // Work up: prolongate, V-cycle-correct.
        for lvl in (0..nl - 1).rev() {
            let pmat = self.levels[lvl].p.as_ref().unwrap();
            let mut xf = DistVec::zeros(pmat.row_layout().clone());
            {
                let _t = pmg_telemetry::scoped!("level{lvl}/prolong");
                pmat.spmv(sim, &x, &mut xf);
            }
            // Residual on this grid, then V-cycle correction.
            let mut res = DistVec::zeros(xf.layout().clone());
            self.level_op(lvl).spmv(sim, &xf, &mut res);
            res.aypx(sim, -1.0, &rs[lvl]);
            let corr = self.vcycle(sim, lvl, &res);
            xf.axpy(sim, 1.0, &corr);
            x = xf;
        }
        x
    }
}

impl Precond for MgHierarchy {
    fn apply(&self, sim: &mut Sim, r: &DistVec, z: &mut DistVec) {
        let _t = pmg_telemetry::scope("precond");
        let x = match self.opts.cycle {
            CycleType::V => self.vcycle(sim, 0, r),
            CycleType::W => self.wcycle(sim, 0, r),
            CycleType::Fmg => self.fmg(sim, r),
        };
        z.copy_from(&x);
    }
}

/// Move the globally counted setup flops into the current sim phase,
/// distributed evenly over ranks (setup kernels are data-parallel; their
/// load balance mirrors the vertex partition, which RCB keeps even).
fn charge_setup_flops(sim: &mut Sim) {
    let total = pmg_sparse::flops::total();
    pmg_sparse::flops::reset();
    let per = total / sim.num_ranks() as u64;
    sim.compute(&vec![per; sim.num_ranks()]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_mesh;
    use pmg_parallel::MachineModel;
    use pmg_solver::{pcg, PcgOptions};

    /// 3D Laplacian (scalar) on an n^3-element cube mesh with Dirichlet
    /// conditions baked in by keeping the operator SPD: A = graph Laplacian
    /// + identity.
    fn scalar_problem(n: usize) -> (CsrMatrix, Vec<Vec3>, Graph, VertexClasses) {
        let m = pmg_mesh::generators::cube(n);
        let g = m.vertex_graph();
        let classes = classify_mesh(&m, 0.7);
        let nv = m.num_vertices();
        let mut b = CooBuilder::new(nv, nv);
        for v in 0..nv {
            b.push(v, v, g.degree(v) as f64 + 1.0);
            for &w in g.neighbors(v) {
                b.push(v, w as usize, -1.0);
            }
        }
        (b.build(), m.coords.clone(), g, classes)
    }

    fn opts_scalar() -> MgOptions {
        MgOptions {
            dofs_per_vertex: 1,
            coarse_dof_threshold: 60,
            ..Default::default()
        }
    }

    #[test]
    fn hierarchy_builds_multiple_levels() {
        let (a, coords, g, c) = scalar_problem(8); // 729 vertices
        let mut sim = Sim::new(2, MachineModel::default());
        let mg = MgHierarchy::build(&mut sim, &a, &coords, &g, &c, opts_scalar());
        assert!(mg.num_levels() >= 2, "levels: {:?}", mg.level_sizes());
        let sizes = mg.level_sizes();
        for w in sizes.windows(2) {
            assert!(w[1] < w[0], "{sizes:?}");
        }
        assert!(mg.levels.last().unwrap().coarse.is_some());
    }

    #[test]
    fn vcycle_reduces_error() {
        let (a, coords, g, c) = scalar_problem(8);
        let mut sim = Sim::new(1, MachineModel::default());
        let mg = MgHierarchy::build(&mut sim, &a, &coords, &g, &c, opts_scalar());
        let layout = mg.levels[0].a.row_layout().clone();
        let n = a.nrows();
        let bg: Vec<f64> = (0..n).map(|i| ((i * 31) % 17) as f64 - 8.0).collect();
        let b = DistVec::from_global(layout.clone(), &bg);
        // Stationary iteration x <- x + Vcycle(b - A x) must contract.
        let mut x = DistVec::zeros(layout.clone());
        let mut norms = Vec::new();
        for _ in 0..4 {
            let mut r = DistVec::zeros(layout.clone());
            mg.levels[0].a.spmv(&mut sim, &x, &mut r);
            r.aypx(&mut sim, -1.0, &b);
            norms.push(r.norm2(&mut sim));
            let corr = mg.vcycle(&mut sim, 0, &r);
            x.axpy(&mut sim, 1.0, &corr);
        }
        assert!(
            norms[3] < 0.2 * norms[0],
            "V-cycle contraction too weak: {norms:?}"
        );
    }

    #[test]
    fn mg_pcg_converges_fast() {
        let (a, coords, g, c) = scalar_problem(10); // 1331 vertices
        for p in [1, 4] {
            let mut sim = Sim::new(p, MachineModel::default());
            let mg = MgHierarchy::build(&mut sim, &a, &coords, &g, &c, opts_scalar());
            let layout = mg.levels[0].a.row_layout().clone();
            let n = a.nrows();
            let bg: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let b = DistVec::from_global(layout.clone(), &bg);
            let mut x = DistVec::zeros(layout.clone());
            sim.phase("solve");
            let res = pcg(
                &mut sim,
                &mg.levels[0].a,
                &mg,
                &b,
                &mut x,
                PcgOptions {
                    rtol: 1e-8,
                    max_iters: 60,
                    ..Default::default()
                },
            );
            assert!(res.converged, "p={p}: {res:?}");
            assert!(res.iterations < 25, "p={p}: {} iters", res.iterations);
            // Verify against the serial operator.
            let xg = x.to_global();
            let mut ax = vec![0.0; n];
            a.spmv(&xg, &mut ax);
            let err: f64 = ax
                .iter()
                .zip(&bg)
                .map(|(u, v)| (u - v) * (u - v))
                .sum::<f64>()
                .sqrt();
            let bn: f64 = bg.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(err < 1e-6 * bn);
        }
    }

    #[test]
    fn fmg_cycle_beats_vcycle_start() {
        // FMG produces a better initial correction than a single V-cycle
        // (it nails the coarse content first).
        let (a, coords, g, c) = scalar_problem(9);
        let mut sim = Sim::new(1, MachineModel::default());
        let mg = MgHierarchy::build(&mut sim, &a, &coords, &g, &c, opts_scalar());
        let layout = mg.levels[0].a.row_layout().clone();
        let n = a.nrows();
        let bg = vec![1.0; n];
        let b = DistVec::from_global(layout.clone(), &bg);
        let resid_after = |x: &DistVec, sim: &mut Sim| {
            let mut r = DistVec::zeros(layout.clone());
            mg.levels[0].a.spmv(sim, x, &mut r);
            r.aypx(sim, -1.0, &b);
            r.norm2(sim)
        };
        let xv = mg.vcycle(&mut sim, 0, &b);
        let xf = mg.fmg(&mut sim, &b);
        let rv = resid_after(&xv, &mut sim);
        let rf = resid_after(&xf, &mut sim);
        assert!(rf <= rv * 1.5, "fmg {rf} vs vcycle {rv}");
    }

    #[test]
    fn update_operator_matches_rebuild() {
        // Updating the hierarchy with a scaled operator must solve the
        // scaled system just as well as a fresh hierarchy.
        let (a, coords, g, c) = scalar_problem(8);
        let mut sim = Sim::new(2, MachineModel::default());
        let mut mg = MgHierarchy::build(&mut sim, &a, &coords, &g, &c, opts_scalar());
        let mut a2 = a.clone();
        a2.scale(3.0);
        mg.update_operator(&mut sim, &a2);
        let layout = mg.levels[0].a.row_layout().clone();
        let n = a.nrows();
        let bg: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();
        let b = DistVec::from_global(layout.clone(), &bg);
        let mut x = DistVec::zeros(layout);
        let res = pcg(
            &mut sim,
            &mg.levels[0].a,
            &mg,
            &b,
            &mut x,
            PcgOptions {
                rtol: 1e-8,
                max_iters: 60,
                ..Default::default()
            },
        );
        assert!(res.converged);
        assert!(res.iterations < 25, "{} iters after update", res.iterations);
        let xg = x.to_global();
        let mut ax = vec![0.0; n];
        a2.spmv(&xg, &mut ax);
        let err: f64 = ax
            .iter()
            .zip(&bg)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        let bn: f64 = bg.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err < 1e-6 * bn);
    }

    /// Every level's block-Jacobi smoother applied to a fixed vector,
    /// against a fresh [`BlockJacobi::new`] on that level's operator: the
    /// bits must agree.
    fn assert_smoothers_match_fresh_builds(mg: &MgHierarchy, sim: &mut Sim) {
        let bits = |z: &DistVec| {
            z.to_global()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        for (lvl, level) in mg.levels.iter().enumerate() {
            let Smoother::BlockJacobi(bj) = &level.smoother else {
                panic!("level {lvl} is not block Jacobi");
            };
            let fresh = BlockJacobi::new(&level.a, mg.opts.blocks_per_1000, mg.opts.omega);
            let layout = level.a.row_layout().clone();
            let rg: Vec<f64> = (0..layout.num_global())
                .map(|i| ((i * 13) % 11) as f64 - 5.0)
                .collect();
            let r = DistVec::from_global(layout.clone(), &rg);
            let mut z_updated = DistVec::zeros(layout.clone());
            let mut z_fresh = DistVec::zeros(layout);
            bj.apply(sim, &r, &mut z_updated);
            fresh.apply(sim, &r, &mut z_fresh);
            assert_eq!(bits(&z_updated), bits(&z_fresh), "level {lvl}");
        }
    }

    #[test]
    fn updated_smoothers_match_fresh_builds_bitwise() {
        let (a, coords, g, c) = scalar_problem(8);
        let mut sim = Sim::new(2, MachineModel::default());
        let mut mg = MgHierarchy::build(&mut sim, &a, &coords, &g, &c, opts_scalar());

        // Same pattern, new (non-uniformly changed) values: the smoothers
        // re-factor through their cached block plans.
        let mut a2 = a.clone();
        for i in 0..a2.nrows() {
            assert!(a2.add_to(i, i, 0.25 * (i % 5) as f64));
        }
        mg.update_operator(&mut sim, &a2);
        assert_smoothers_match_fresh_builds(&mg, &mut sim);

        // One extra off-diagonal pair changes level 0's pattern (and the
        // Galerkin patterns below it): the smoothers are still exactly
        // those of a fresh build. (`tests/symbolic_numeric.rs` counts the
        // plan rebuild.)
        assert_eq!(a2.get(0, 2), 0.0, "pair (0, 2) must be new");
        let mut extra = CooBuilder::new(a2.nrows(), a2.ncols());
        extra.push(0, 2, -0.1);
        extra.push(2, 0, -0.1);
        let a3 = a2.add_scaled(&extra.build(), 1.0);
        assert_eq!(a3.nnz(), a2.nnz() + 2);
        mg.update_operator(&mut sim, &a3);
        assert_smoothers_match_fresh_builds(&mg, &mut sim);
    }

    #[test]
    fn expand_restriction_blocks() {
        let mut b = CooBuilder::new(1, 2);
        b.push(0, 0, 0.25);
        b.push(0, 1, 0.75);
        let r = b.build();
        let r3 = expand_restriction(&r, 3);
        assert_eq!(r3.nrows(), 3);
        assert_eq!(r3.ncols(), 6);
        assert_eq!(r3.get(0, 0), 0.25);
        assert_eq!(r3.get(1, 4), 0.75);
        assert_eq!(r3.get(0, 1), 0.0);
    }

    #[test]
    fn preconditioner_is_linear() {
        // M(a r1 + b r2) == a M r1 + b M r2 — required for CG.
        let (a, coords, g, c) = scalar_problem(6);
        let mut sim = Sim::new(1, MachineModel::default());
        let mg = MgHierarchy::build(&mut sim, &a, &coords, &g, &c, opts_scalar());
        let layout = mg.levels[0].a.row_layout().clone();
        let n = a.nrows();
        let r1g: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let r2g: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let r1 = DistVec::from_global(layout.clone(), &r1g);
        let r2 = DistVec::from_global(layout.clone(), &r2g);
        let combo_g: Vec<f64> = r1g
            .iter()
            .zip(&r2g)
            .map(|(a, b)| 2.0 * a - 3.0 * b)
            .collect();
        let combo = DistVec::from_global(layout.clone(), &combo_g);
        let mut z1 = DistVec::zeros(layout.clone());
        let mut z2 = DistVec::zeros(layout.clone());
        let mut zc = DistVec::zeros(layout.clone());
        mg.apply(&mut sim, &r1, &mut z1);
        mg.apply(&mut sim, &r2, &mut z2);
        mg.apply(&mut sim, &combo, &mut zc);
        let z1g = z1.to_global();
        let z2g = z2.to_global();
        let zcg = zc.to_global();
        for i in 0..n {
            let expect = 2.0 * z1g[i] - 3.0 * z2g[i];
            assert!(
                (zcg[i] - expect).abs() < 1e-8 * (1.0 + expect.abs()),
                "nonlinear preconditioner at {i}"
            );
        }
    }
}
