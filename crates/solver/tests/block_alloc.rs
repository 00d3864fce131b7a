//! Steady-state block-Jacobi application must not allocate: the smoother
//! runs on every level of every V-cycle, and each block's right-hand side
//! is gathered into a per-thread scratch buffer and solved in place. The
//! first application on a thread grows that buffer to the largest block;
//! every later one must be allocation-free, on each factor arm (Cholesky,
//! pivoted LU, and the inverse-diagonal fallback).
//!
//! Asserted with a counting global allocator, so this lives in its own
//! integration-test binary (the `#[global_allocator]` must not leak into
//! other tests).

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pmg_solver::RankJacobi;
use pmg_sparse::{CooBuilder, CsrMatrix};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Minimum allocation count over a few trials of `f`. The counter is
/// process-global, so a concurrent harness thread can charge unrelated
/// allocations to one trial; a hot path that really allocates does so in
/// *every* trial, so the minimum still catches regressions.
fn min_allocations_during(mut f: impl FnMut()) -> u64 {
    (0..5).map(|_| allocations_during(&mut f)).min().unwrap()
}

/// Tridiagonal `s · (2, −1)`: SPD for `s > 0`, negative definite for
/// `s < 0`, all-zero values (singular blocks) for `s = 0`.
fn scaled_laplacian(n: usize, s: f64) -> CsrMatrix {
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
    b.build()
}

#[test]
fn steady_state_block_apply_allocates_nothing() {
    let n = 200;
    let rp: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.13).sin()).collect();
    let mut zp = vec![0.0; n];
    for s in [1.0, -1.0, 0.0] {
        // 30 blocks per 1000 unknowns: 6 blocks of ~33.
        let rj = RankJacobi::new(&scaled_laplacian(n, s), 30.0, 0.6);
        assert_eq!(rj.num_blocks(), 6);
        let view = rj.view();
        // Warm up: the first apply on this thread may grow the scratch.
        view.apply(&rp, &mut zp);

        let n_alloc = min_allocations_during(|| {
            view.apply(&rp, &mut zp);
            view.apply(&rp, &mut zp);
        });
        assert_eq!(
            n_alloc, 0,
            "steady-state block-Jacobi apply (scale {s}) allocated {n_alloc} times"
        );
    }
}
