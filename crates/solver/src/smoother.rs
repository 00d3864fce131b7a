//! Damped block-Jacobi smoother.
//!
//! The paper's multigrid smoother: "block Jacobi with 6 blocks for every
//! 1,000 unknowns (these block Jacobi sub-domains are constructed with
//! METIS)". Blocks are built *within* each rank's sub-domain (block Jacobi
//! needs no communication beyond the residual's matrix product), factored
//! densely once per matrix setup, and applied with damping `ω` so the
//! smoothing iteration contracts the high-frequency error.

use crate::precond::Precond;
use pmg_parallel::{DistMatrix, DistVec, Sim, SimOperator};
use pmg_partition::{partition_graph, Graph};
use pmg_sparse::dense::{Cholesky, DenseMatrix, Lu};
use pmg_sparse::{pattern_fingerprint, CsrMatrix};
use rayon::prelude::*;
use std::cell::RefCell;
use std::sync::Arc;

enum BlockFactor {
    Chol(Cholesky),
    Lu(Lu),
    /// Last-resort inverse diagonal (singular block).
    Diag(Vec<f64>),
}

impl BlockFactor {
    /// Cholesky, else pivoted LU, else the inverse diagonal.
    fn new(sub: &DenseMatrix) -> BlockFactor {
        if let Some(c) = Cholesky::factor(sub) {
            BlockFactor::Chol(c)
        } else if let Some(l) = Lu::factor(sub) {
            BlockFactor::Lu(l)
        } else {
            let d: Vec<f64> = (0..sub.nrows())
                .map(|i| {
                    let v = sub[(i, i)];
                    if v != 0.0 {
                        1.0 / v
                    } else {
                        1.0
                    }
                })
                .collect();
            BlockFactor::Diag(d)
        }
    }

    fn solve_in_place(&self, b: &mut [f64]) {
        match self {
            BlockFactor::Chol(c) => c.solve_in_place(b),
            BlockFactor::Lu(l) => l.solve_in_place(b),
            BlockFactor::Diag(d) => b.iter_mut().zip(d).for_each(|(x, di)| *x *= di),
        }
    }

    fn solve_flops(&self) -> u64 {
        match self {
            BlockFactor::Chol(c) => 2 * (c.dim() * c.dim()) as u64,
            BlockFactor::Lu(l) => 2 * (l.dim() * l.dim()) as u64,
            BlockFactor::Diag(d) => d.len() as u64,
        }
    }
}

/// The symbolic half of one rank's block-Jacobi setup: the METIS-style
/// block partition of the local pattern and the map that gathers each
/// block's dense principal submatrix from the local CSR values. It
/// depends only on the sparsity pattern, so a Newton re-linearization —
/// new values, same pattern — reuses it and only re-gathers and
/// re-factors.
///
/// Valid only for a local block whose pattern matches the one it was
/// built from; [`BlockPlan::matches`] checks the row count, the stored
/// nonzero count and the FNV-1a pattern fingerprint, as
/// [`pmg_sparse::RapPlan::matches`] does.
struct BlockPlan {
    nrows: usize,
    nnz: usize,
    fingerprint: u64,
    /// Local dof indices per block, ascending.
    blocks: Vec<Vec<u32>>,
    /// Per local row: the block holding it and its position in that
    /// block's dense submatrix.
    block_of: Vec<u32>,
    slot: Vec<u32>,
}

impl BlockPlan {
    /// Partition `local`'s off-diagonal graph into `blocks_per_1000`
    /// blocks per 1000 unknowns.
    fn new(local: &CsrMatrix, blocks_per_1000: f64) -> BlockPlan {
        let n = local.nrows();
        let mut blocks = Vec::new();
        if n > 0 {
            let nblocks = ((blocks_per_1000 * n as f64 / 1000.0).round() as usize).clamp(1, n);
            let part = partition_graph(&csr_graph(local), nblocks);
            blocks = vec![Vec::new(); nblocks];
            for (v, &p) in part.iter().enumerate() {
                blocks[p as usize].push(v as u32);
            }
            blocks.retain(|b| !b.is_empty());
        }
        let mut block_of = vec![0u32; n];
        let mut slot = vec![0u32; n];
        for (b, blk) in blocks.iter().enumerate() {
            for (l, &v) in blk.iter().enumerate() {
                block_of[v as usize] = b as u32;
                slot[v as usize] = l as u32;
            }
        }
        BlockPlan {
            nrows: n,
            nnz: local.nnz(),
            fingerprint: pattern_fingerprint(local),
            blocks,
            block_of,
            slot,
        }
    }

    /// Whether `local` has the exact sparsity pattern this plan was built
    /// for.
    fn matches(&self, local: &CsrMatrix) -> bool {
        local.nrows() == self.nrows
            && local.nnz() == self.nnz
            && pattern_fingerprint(local) == self.fingerprint
    }

    /// Block `b`'s principal submatrix of `local`, dense.
    fn gather(&self, local: &CsrMatrix, b: usize) -> DenseMatrix {
        let blk = &self.blocks[b];
        let mut sub = DenseMatrix::zeros(blk.len(), blk.len());
        for (l, &v) in blk.iter().enumerate() {
            let (cols, vals) = local.row(v as usize);
            for (&j, &val) in cols.iter().zip(vals) {
                if self.block_of[j] == b as u32 {
                    sub[(l, self.slot[j] as usize)] = val;
                }
            }
        }
        sub
    }
}

thread_local! {
    /// Per-thread gather buffer for [`RankBlocks::apply_into`]: grown to
    /// the largest block once, then reused by every sweep.
    static BLOCK_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

struct RankBlocks {
    /// Shared with every refactorization on the same pattern.
    plan: Arc<BlockPlan>,
    factors: Vec<BlockFactor>,
    apply_flops: u64,
}

impl RankBlocks {
    /// Numeric setup: gather and factor every block of `plan` from
    /// `local`'s values. The single per-rank build both the orchestrated
    /// [`BlockJacobi`] and the SPMD-setup [`RankJacobi`] run — the
    /// factorizations depend only on this rank's local block, so the two
    /// paths are bitwise identical by construction.
    fn factor(plan: Arc<BlockPlan>, local: &CsrMatrix) -> RankBlocks {
        let factors: Vec<BlockFactor> = (0..plan.blocks.len())
            .map(|b| BlockFactor::new(&plan.gather(local, b)))
            .collect();
        let apply_flops = factors.iter().map(|f| f.solve_flops()).sum();
        RankBlocks {
            plan,
            factors,
            apply_flops,
        }
    }

    /// `zp = ω · B⁻¹ rp` for this rank's blocks (zeroes `zp` first). The
    /// single per-rank kernel both the orchestrated path and the SPMD
    /// [`RankSmoother`] run, so their results are bitwise identical.
    fn apply_into(&self, omega: f64, rp: &[f64], zp: &mut [f64]) {
        zp.iter_mut().for_each(|v| *v = 0.0);
        BLOCK_SCRATCH.with_borrow_mut(|scratch| {
            for (blk, fac) in self.plan.blocks.iter().zip(&self.factors) {
                if scratch.len() < blk.len() {
                    scratch.resize(blk.len(), 0.0);
                }
                let buf = &mut scratch[..blk.len()];
                for (x, &v) in buf.iter_mut().zip(blk) {
                    *x = rp[v as usize];
                }
                fac.solve_in_place(buf);
                for (&v, &s) in blk.iter().zip(buf.iter()) {
                    zp[v as usize] = omega * s;
                }
            }
        });
    }
}

/// One rank's borrowed view of a [`BlockJacobi`] smoother: block Jacobi
/// needs no communication beyond the residual's product, so the view is a
/// purely local kernel for SPMD execution.
pub struct RankSmoother<'a> {
    blocks: &'a RankBlocks,
    omega: f64,
}

impl RankSmoother<'_> {
    /// `zp = ω · B⁻¹ rp` on this rank's share.
    pub fn apply(&self, rp: &[f64], zp: &mut [f64]) {
        self.blocks.apply_into(self.omega, rp, zp);
    }
}

/// The block-Jacobi smoother / one-level preconditioner.
pub struct BlockJacobi {
    ranks: Vec<RankBlocks>,
    blocks_per_1000: f64,
    omega: f64,
    apply_flops: Vec<u64>,
}

/// Adjacency graph of a CSR matrix's off-diagonal sparsity.
fn csr_graph(a: &CsrMatrix) -> Graph {
    let mut edges = Vec::new();
    for i in 0..a.nrows() {
        let (cols, _) = a.row(i);
        for &j in cols {
            if j != i {
                edges.push((i as u32, j as u32));
            }
        }
    }
    Graph::from_edges(a.nrows(), edges)
}

/// **One** rank's owned block-Jacobi smoother — the SPMD-setup counterpart
/// of [`BlockJacobi`], which factors every rank's blocks. Block Jacobi is
/// purely rank-local, so the distributed setup builds exactly this rank's
/// sub-domain factorizations from its local operator block and nothing
/// else; [`RankJacobi::view`] yields the same [`RankSmoother`] kernel the
/// borrowed path uses.
pub struct RankJacobi {
    blocks: RankBlocks,
    omega: f64,
}

impl RankJacobi {
    /// Factor this rank's blocks from its local (owned × owned) operator
    /// block at the paper's `blocks_per_1000` density.
    pub fn new(local: &CsrMatrix, blocks_per_1000: f64, omega: f64) -> RankJacobi {
        pmg_telemetry::counter_add("smoother/plan_build", 1);
        let plan = Arc::new(BlockPlan::new(local, blocks_per_1000));
        RankJacobi {
            blocks: RankBlocks::factor(plan, local),
            omega,
        }
    }

    /// Number of sub-domain blocks (diagnostics).
    pub fn num_blocks(&self) -> usize {
        self.blocks.plan.blocks.len()
    }

    /// The per-rank application kernel (same type the borrowed
    /// [`BlockJacobi::rank_view`] returns).
    pub fn view(&self) -> RankSmoother<'_> {
        RankSmoother {
            blocks: &self.blocks,
            omega: self.omega,
        }
    }
}

impl BlockJacobi {
    /// Build with the paper's density of `blocks_per_1000` blocks per 1000
    /// local unknowns and damping `omega`.
    pub fn new(a: &DistMatrix, blocks_per_1000: f64, omega: f64) -> BlockJacobi {
        Self::build(a, blocks_per_1000, omega, None)
    }

    /// [`BlockJacobi::new`] for a new operator `a` on `prev`'s layout,
    /// reusing `prev`'s symbolic setup where it still applies: a rank
    /// whose local pattern matches its cached block plan (partition and
    /// gather map, at the same density) shares that plan and only
    /// re-gathers and re-factors its blocks; any other rank gets a fresh
    /// plan. Either way the result is bitwise the
    /// smoother `BlockJacobi::new(a, blocks_per_1000, omega)` builds.
    ///
    /// Telemetry: counts `smoother/plan_reuse` when every rank's plan was
    /// reused, `smoother/plan_build` otherwise (as `new` does).
    pub fn new_reusing(
        a: &DistMatrix,
        blocks_per_1000: f64,
        omega: f64,
        prev: &BlockJacobi,
    ) -> BlockJacobi {
        Self::build(a, blocks_per_1000, omega, Some(prev))
    }

    fn build(
        a: &DistMatrix,
        blocks_per_1000: f64,
        omega: f64,
        prev: Option<&BlockJacobi>,
    ) -> BlockJacobi {
        let nranks = a.row_layout().num_ranks();
        let prev_plan = |r: usize| {
            let prev = prev.filter(|p| p.blocks_per_1000 == blocks_per_1000)?;
            let plan = &prev.ranks.get(r)?.plan;
            plan.matches(a.local_block(r)).then(|| Arc::clone(plan))
        };
        let reused: Vec<Option<Arc<BlockPlan>>> = (0..nranks).map(prev_plan).collect();
        let all_reused = nranks > 0 && reused.iter().all(Option::is_some);
        if all_reused {
            pmg_telemetry::counter_add("smoother/plan_reuse", 1);
        } else {
            pmg_telemetry::counter_add("smoother/plan_build", 1);
        }
        let ranks: Vec<RankBlocks> = reused
            .into_par_iter()
            .enumerate()
            .map(|(r, plan)| {
                let local = a.local_block(r);
                let plan = plan.unwrap_or_else(|| Arc::new(BlockPlan::new(local, blocks_per_1000)));
                RankBlocks::factor(plan, local)
            })
            .collect();
        let apply_flops = ranks.iter().map(|r| r.apply_flops).collect();
        BlockJacobi {
            ranks,
            blocks_per_1000,
            omega,
            apply_flops,
        }
    }

    pub fn omega(&self) -> f64 {
        self.omega
    }

    /// Number of blocks on rank `r` (diagnostics).
    pub fn num_blocks(&self, r: usize) -> usize {
        self.ranks[r].plan.blocks.len()
    }

    /// Rank `r`'s borrowed view for SPMD execution.
    pub fn rank_view(&self, r: usize) -> RankSmoother<'_> {
        RankSmoother {
            blocks: &self.ranks[r],
            omega: self.omega,
        }
    }

    /// `z = ω · B⁻¹ r` where `B` is the block diagonal.
    fn apply_inner(&self, sim: &mut Sim, r: &DistVec, z: &mut DistVec) {
        let omega = self.omega;
        let parts: Vec<Vec<f64>> = self
            .ranks
            .par_iter()
            .enumerate()
            .map(|(rank, rb)| {
                let rp = r.part(rank);
                let mut zp = vec![0.0; rp.len()];
                rb.apply_into(omega, rp, &mut zp);
                zp
            })
            .collect();
        for (rank, p) in parts.into_iter().enumerate() {
            z.part_mut(rank).copy_from_slice(&p);
        }
        sim.compute(&self.apply_flops);
    }

    /// One (or more) stationary smoothing sweeps
    /// `x ← x + ω B⁻¹ (b − A x)`. The residual refresh goes through the
    /// [`SimOperator`] abstraction, so the operator may be assembled or
    /// matrix-free (the block factors themselves always come from an
    /// assembled local block at setup).
    pub fn smooth(
        &self,
        sim: &mut Sim,
        a: &dyn SimOperator,
        b: &DistVec,
        x: &mut DistVec,
        sweeps: usize,
    ) {
        let mut r = DistVec::zeros(b.layout().clone());
        let mut z = DistVec::zeros(b.layout().clone());
        for _ in 0..sweeps {
            a.spmv(sim, x, &mut r); // r = A x
            r.aypx(sim, -1.0, b); // r = b - A x
            self.apply_inner(sim, &r, &mut z);
            x.axpy(sim, 1.0, &z);
        }
    }
}

impl Precond for BlockJacobi {
    fn apply(&self, sim: &mut Sim, r: &DistVec, z: &mut DistVec) {
        self.apply_inner(sim, r, z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmg_parallel::{Layout, MachineModel};
    use pmg_sparse::CooBuilder;

    fn laplacian(n: usize) -> CsrMatrix {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 2.0);
            if i > 0 {
                b.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.push(i, i + 1, -1.0);
            }
        }
        b.build()
    }

    #[test]
    fn single_block_is_direct() {
        // With one block covering the rank, one sweep with ω=1 solves the
        // system exactly.
        let n = 12;
        let a = laplacian(n);
        let l = Layout::block(n, 1);
        let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l.clone());
        let bj = BlockJacobi::new(&da, 0.1, 1.0); // 0.1 blocks/1000 -> 1 block
        assert_eq!(bj.num_blocks(0), 1);
        let mut sim = Sim::new(1, MachineModel::default());
        let b = DistVec::from_global(l.clone(), &vec![1.0; n]);
        let mut x = DistVec::zeros(l);
        bj.smooth(&mut sim, &da, &b, &mut x, 1);
        let mut ax = vec![0.0; n];
        a.spmv(&x.to_global(), &mut ax);
        for (u, v) in ax.iter().zip(b.to_global().iter()) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn smoothing_reduces_residual() {
        // A smoother kills high-frequency residual components fast but
        // barely touches the smoothest modes: test with a frequency-rich
        // right-hand side and expect a solid (not dramatic) reduction.
        let n = 60;
        let a = laplacian(n);
        for p in [1, 3] {
            let l = Layout::block(n, p);
            let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l.clone());
            let bj = BlockJacobi::new(&da, 100.0, 0.66); // ~6 unknowns/block
            let mut sim = Sim::new(p, MachineModel::default());
            let bg: Vec<f64> = (0..n)
                .map(|i| if i % 2 == 0 { 1.0 } else { -0.5 } + (i as f64 * 0.4).sin())
                .collect();
            let b = DistVec::from_global(l.clone(), &bg);
            let mut x = DistVec::zeros(l.clone());
            let norm0 = {
                let mut r = DistVec::zeros(l.clone());
                da.spmv(&mut sim, &x, &mut r);
                r.aypx(&mut sim, -1.0, &b);
                r.norm2(&mut sim)
            };
            bj.smooth(&mut sim, &da, &b, &mut x, 10);
            let norm1 = {
                let mut r = DistVec::zeros(l.clone());
                da.spmv(&mut sim, &x, &mut r);
                r.aypx(&mut sim, -1.0, &b);
                r.norm2(&mut sim)
            };
            assert!(norm1 < 0.5 * norm0, "p={p}: {norm0} -> {norm1}");
        }
    }

    #[test]
    fn block_count_follows_density() {
        let n = 1000;
        let a = laplacian(n);
        let l = Layout::block(n, 2);
        let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l);
        let bj = BlockJacobi::new(&da, 6.0, 0.66);
        // 500 unknowns per rank -> 3 blocks per rank.
        assert_eq!(bj.num_blocks(0), 3);
        assert_eq!(bj.num_blocks(1), 3);
    }

    #[test]
    fn apply_is_symmetric() {
        // <B z, w> == <z, B w> for the preconditioner application.
        let n = 20;
        let a = laplacian(n);
        let l = Layout::block(n, 2);
        let da = pmg_parallel::DistMatrix::from_global(&a, l.clone(), l.clone());
        let bj = BlockJacobi::new(&da, 200.0, 0.66);
        let mut sim = Sim::new(2, MachineModel::default());
        let z: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let w: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let dz = DistVec::from_global(l.clone(), &z);
        let dw = DistVec::from_global(l.clone(), &w);
        let mut bz = DistVec::zeros(l.clone());
        let mut bw = DistVec::zeros(l);
        bj.apply(&mut sim, &dz, &mut bz);
        bj.apply(&mut sim, &dw, &mut bw);
        let s1: f64 = bz.to_global().iter().zip(&w).map(|(a, b)| a * b).sum();
        let s2: f64 = bw.to_global().iter().zip(&z).map(|(a, b)| a * b).sum();
        assert!((s1 - s2).abs() < 1e-10 * s1.abs().max(1.0));
    }

    /// Tridiagonal `s · (2, −1)` with an optional extra symmetric
    /// off-diagonal pair `(0, 5)`.
    fn scaled_laplacian(n: usize, s: f64, extra: bool) -> CsrMatrix {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 2.0 * s);
            if i > 0 {
                b.push(i, i - 1, -s);
            }
            if i + 1 < n {
                b.push(i, i + 1, -s);
            }
        }
        if extra {
            b.push(0, 5, -0.5 * s);
            b.push(5, 0, -0.5 * s);
        }
        b.build()
    }

    fn apply_bits(bj: &BlockJacobi, l: &Arc<Layout>) -> Vec<u64> {
        let n = l.num_global();
        let mut sim = Sim::new(l.num_ranks(), MachineModel::default());
        let rg: Vec<f64> = (0..n).map(|i| (i as f64 * 0.71).sin() + 0.1).collect();
        let r = DistVec::from_global(l.clone(), &rg);
        let mut z = DistVec::zeros(l.clone());
        bj.apply(&mut sim, &r, &mut z);
        z.to_global().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn apply_matches_submatrix_factors_bitwise() {
        // The planned gather plus in-place solves against the CSR
        // principal-submatrix gather plus allocating solves, on each
        // factor arm: SPD (Cholesky), negative definite (LU), and all-zero
        // values (inverse-diagonal fallback).
        let n = 90;
        for s in [1.0, -1.0, 0.0] {
            let a = scaled_laplacian(n, s, false);
            let rj = RankJacobi::new(&a, 40.0, 0.7);
            let rp: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
            let mut zp = vec![0.0; n];
            rj.view().apply(&rp, &mut zp);
            let mut expect = vec![0.0; n];
            for blk in &rj.blocks.plan.blocks {
                let idx: Vec<usize> = blk.iter().map(|&v| v as usize).collect();
                let sub = a.principal_submatrix(&idx).to_dense();
                let rb: Vec<f64> = idx.iter().map(|&v| rp[v]).collect();
                let sol = if let Some(c) = Cholesky::factor(&sub) {
                    assert!(s > 0.0);
                    c.solve(&rb)
                } else if let Some(l) = Lu::factor(&sub) {
                    assert!(s < 0.0);
                    l.solve(&rb)
                } else {
                    assert_eq!(s, 0.0);
                    rb
                };
                for (&v, x) in idx.iter().zip(sol) {
                    expect[v] = 0.7 * x;
                }
            }
            for (u, v) in zp.iter().zip(&expect) {
                assert_eq!(u.to_bits(), v.to_bits(), "scale {s}");
            }
        }
    }

    #[test]
    fn new_reusing_shares_plan_and_matches_fresh_build() {
        let n = 120;
        let l = Layout::block(n, 2);
        let dist = |a: &CsrMatrix| pmg_parallel::DistMatrix::from_global(a, l.clone(), l.clone());
        let first = BlockJacobi::new(&dist(&scaled_laplacian(n, 1.0, false)), 50.0, 0.6);

        // Same pattern, new values: every rank's plan is shared.
        let a2 = dist(&scaled_laplacian(n, 2.5, false));
        let reused = BlockJacobi::new_reusing(&a2, 50.0, 0.6, &first);
        for (p, q) in first.ranks.iter().zip(&reused.ranks) {
            assert!(Arc::ptr_eq(&p.plan, &q.plan));
        }
        assert_eq!(
            apply_bits(&reused, &l),
            apply_bits(&BlockJacobi::new(&a2, 50.0, 0.6), &l)
        );

        // One extra off-diagonal pair on rank 0: that rank gets a fresh
        // plan, rank 1 keeps its own, and the result is a fresh build's.
        let a3 = dist(&scaled_laplacian(n, 2.5, true));
        let rebuilt = BlockJacobi::new_reusing(&a3, 50.0, 0.6, &first);
        assert!(!Arc::ptr_eq(&first.ranks[0].plan, &rebuilt.ranks[0].plan));
        assert!(Arc::ptr_eq(&first.ranks[1].plan, &rebuilt.ranks[1].plan));
        assert_eq!(
            apply_bits(&rebuilt, &l),
            apply_bits(&BlockJacobi::new(&a3, 50.0, 0.6), &l)
        );

        // A different density never reuses a plan.
        let denser = BlockJacobi::new_reusing(&a2, 100.0, 0.6, &first);
        for (p, q) in first.ranks.iter().zip(&denser.ranks) {
            assert!(!Arc::ptr_eq(&p.plan, &q.plan));
        }
        assert_eq!(denser.num_blocks(0), 6);
    }
}
