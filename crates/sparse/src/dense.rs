//! Small dense matrices and factorizations.
//!
//! Used for the coarsest-grid direct solve and for the block-Jacobi
//! smoother's per-block factorizations (the paper factors each METIS block
//! once per matrix setup).

use crate::flops;
use std::ops::{Index, IndexMut};

/// Row-major dense matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// An `nrows` x `ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// The `n` x `n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Fill an `nrows` x `ncols` matrix from `f(i, j)`.
    pub fn from_fn(nrows: usize, ncols: usize, f: impl Fn(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(nrows, ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `y = A x`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        for i in 0..self.nrows {
            let row = &self.data[i * self.ncols..(i + 1) * self.ncols];
            y[i] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        flops::add((2 * self.nrows * self.ncols) as u64);
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.ncols + j]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.ncols + j]
    }
}

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive definite matrix.
///
/// The factor is stored as `Lᵀ` rows: row `j` of the storage holds column
/// `j` of `L` (entries `j..n`), so the left-looking factorization and the
/// forward solve run as contiguous axpys and the backward solve as a
/// contiguous dot. Every entry sees the same IEEE operation sequence as the
/// textbook row-by-row dot form — `a[i][j] − Σₖ L[i,k]·L[j,k]` with `k`
/// ascending, then the square root or the divide — so the factor and the
/// solutions are bitwise those of that form, at any vector width.
#[derive(Clone, Debug)]
pub struct Cholesky {
    lt: DenseMatrix,
}

impl Cholesky {
    /// Factor `a` from its lower triangle; returns `None` if the matrix is
    /// not (numerically) SPD.
    pub fn factor(a: &DenseMatrix) -> Option<Cholesky> {
        assert_eq!(a.nrows, a.ncols);
        let n = a.nrows;
        let mut lt = DenseMatrix::zeros(n, n);
        for j in 0..n {
            let (done, rest) = lt.data.split_at_mut(j * n);
            let col_j = &mut rest[j..n];
            for (i, x) in col_j.iter_mut().enumerate() {
                *x = a[(j + i, j)];
            }
            // Left-looking update: column j -= L[j..n, k] · L[j, k], k ascending.
            for row_k in done.chunks_exact(n) {
                let ljk = row_k[j];
                for (x, &lik) in col_j.iter_mut().zip(&row_k[j..]) {
                    *x -= lik * ljk;
                }
            }
            let d = col_j[0];
            if d <= 0.0 || !d.is_finite() {
                return None;
            }
            let d = d.sqrt();
            col_j[0] = d;
            for x in &mut col_j[1..] {
                *x /= d;
            }
        }
        flops::add((n * n * n / 3).max(1) as u64);
        Some(Cholesky { lt })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lt.nrows
    }

    /// Solve `A x = b` in place.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        let n = self.lt.nrows;
        assert_eq!(b.len(), n);
        // Forward: L y = b, column by column (each b[i] still subtracts
        // L[i,k]·y[k] in ascending k before its divide).
        for k in 0..n {
            let col_k = self.lt.row(k);
            let yk = b[k] / col_k[k];
            b[k] = yk;
            for (bi, &lik) in b[k + 1..].iter_mut().zip(&col_k[k + 1..]) {
                *bi -= lik * yk;
            }
        }
        // Backward: Lᵀ x = y.
        for i in (0..n).rev() {
            let col_i = self.lt.row(i);
            let mut sum = b[i];
            for (&lki, &xk) in col_i[i + 1..].iter().zip(&b[i + 1..]) {
                sum -= lki * xk;
            }
            b[i] = sum / col_i[i];
        }
        flops::add((2 * n * n) as u64);
    }

    /// Solve `A x = b`, returning a fresh `x`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }
}

/// LU factorization with partial pivoting (for indefinite or unsymmetric
/// systems, e.g. coarse operators that lost definiteness to roundoff).
#[derive(Clone, Debug)]
pub struct Lu {
    lu: DenseMatrix,
    /// Row interchanges in elimination order: step `k` swapped rows `k`
    /// and `swaps[k]`.
    swaps: Vec<usize>,
}

impl Lu {
    /// Factor `a`; returns `None` for (numerically) singular matrices.
    pub fn factor(a: &DenseMatrix) -> Option<Lu> {
        assert_eq!(a.nrows, a.ncols);
        let n = a.nrows;
        let mut lu = a.clone();
        let mut swaps: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Pivot search.
            let mut p = k;
            let mut pmax = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax == 0.0 || !pmax.is_finite() {
                return None;
            }
            if p != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
                swaps[k] = p;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                for j in (k + 1)..n {
                    let v = m * lu[(k, j)];
                    lu[(i, j)] -= v;
                }
            }
        }
        flops::add((2 * n * n * n / 3).max(1) as u64);
        Some(Lu { lu, swaps })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.nrows
    }

    /// Solve `A x = b` in place.
    pub fn solve_in_place(&self, x: &mut [f64]) {
        let n = self.lu.nrows;
        assert_eq!(x.len(), n);
        for (k, &p) in self.swaps.iter().enumerate() {
            x.swap(k, p);
        }
        // Forward: L y = P b (unit diagonal).
        for i in 0..n {
            let mut sum = x[i];
            for k in 0..i {
                sum -= self.lu[(i, k)] * x[k];
            }
            x[i] = sum;
        }
        // Backward: U x = y.
        for i in (0..n).rev() {
            let mut sum = x[i];
            for k in (i + 1)..n {
                sum -= self.lu[(i, k)] * x[k];
            }
            x[i] = sum / self.lu[(i, i)];
        }
        flops::add((2 * n * n) as u64);
    }

    /// Solve `A x = b`, returning a fresh `x`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spd3() -> DenseMatrix {
        // Diagonally dominant symmetric => SPD.
        DenseMatrix::from_fn(3, 3, |i, j| if i == j { 4.0 } else { -1.0 })
    }

    #[test]
    fn cholesky_solves() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x = ch.solve(&b);
        let mut ax = vec![0.0; 3];
        a.matvec(&x, &mut ax);
        for (u, v) in ax.iter().zip(&b) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let mut a = spd3();
        a[(1, 1)] = -5.0;
        assert!(Cholesky::factor(&a).is_none());
    }

    #[test]
    fn lu_solves_unsymmetric() {
        let a = DenseMatrix::from_fn(3, 3, |i, j| {
            (1 + i * 3 + j) as f64 + if i == j { 10.0 } else { 0.0 }
        });
        let lu = Lu::factor(&a).unwrap();
        let b = vec![3.0, -1.0, 4.0];
        let x = lu.solve(&b);
        let mut ax = vec![0.0; 3];
        a.matvec(&x, &mut ax);
        for (u, v) in ax.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn lu_needs_pivoting() {
        // Zero on the leading diagonal forces a row swap.
        let mut a = DenseMatrix::zeros(2, 2);
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&[2.0, 3.0]);
        assert!((x[0] - 3.0).abs() < 1e-15);
        assert!((x[1] - 2.0).abs() < 1e-15);
    }

    #[test]
    fn lu_rejects_singular() {
        let a = DenseMatrix::from_fn(2, 2, |i, _| (i + 1) as f64);
        assert!(Lu::factor(&a).is_none());
    }

    #[test]
    fn identity_matvec() {
        let i = DenseMatrix::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let mut y = vec![0.0; 4];
        i.matvec(&x, &mut y);
        assert_eq!(x, y);
    }

    /// The row-by-row dot-form Cholesky the column-oriented kernel
    /// replaced: `L` row-major, each entry one ascending-`k` dot.
    fn reference_factor(a: &DenseMatrix) -> Option<DenseMatrix> {
        let n = a.nrows;
        let mut l = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return None;
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Some(l)
    }

    /// The dot-form forward and backward solves on a row-major `L`.
    fn reference_solve(l: &DenseMatrix, b: &mut [f64]) {
        let n = l.nrows;
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[(i, k)] * b[k];
            }
            b[i] = sum / l[(i, i)];
        }
        for i in (0..n).rev() {
            let mut sum = b[i];
            for k in (i + 1)..n {
                sum -= l[(k, i)] * b[k];
            }
            b[i] = sum / l[(i, i)];
        }
    }

    /// A random `n`×`n` test matrix of the given kind: 0 = SPD
    /// (`M Mᵀ + s·I`), 1 = symmetric indefinite, 2 = SPD with one
    /// non-finite lower-triangle entry, 3 = SPD but nonsymmetric in its
    /// upper triangle (only the lower triangle may be read), 4 = SPD with
    /// one non-finite diagonal entry.
    fn test_matrix(n: usize, kind: usize, seed: u64) -> DenseMatrix {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let vals: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let m = DenseMatrix::from_fn(n, n, |i, j| vals[i * n + j]);
        let shift = if kind == 1 { -(n as f64) * 0.3 } else { 0.5 };
        let mut a = DenseMatrix::from_fn(n, n, |i, j| {
            let acc: f64 = (0..n).map(|k| m[(i, k)] * m[(j, k)]).sum();
            acc + if i == j { shift } else { 0.0 }
        });
        let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3)];
        match kind {
            2 => a[(i.max(j), i.min(j))] = bad,
            4 => a[(i, i)] = bad,
            3 if i != j => a[(i.min(j), i.max(j))] += 1e3,
            _ => {}
        }
        a
    }

    proptest! {
        #[test]
        fn prop_cholesky_bitwise_vs_dot_form(
            n in 1usize..200,
            kind in 0usize..5,
            seed in 0u64..u64::MAX,
        ) {
            let a = test_matrix(n, kind, seed);
            let fast = Cholesky::factor(&a);
            let slow = reference_factor(&a);
            prop_assert_eq!(fast.is_some(), slow.is_some());
            if let (Some(fast), Some(slow)) = (fast, slow) {
                for i in 0..n {
                    for j in 0..=i {
                        prop_assert_eq!(fast.lt[(j, i)].to_bits(), slow[(i, j)].to_bits());
                    }
                }
                let b: Vec<f64> = (0..n).map(|i| ((i as u64 ^ seed) % 97) as f64 - 48.0).collect();
                let mut x_ref = b.clone();
                reference_solve(&slow, &mut x_ref);
                let x = fast.solve(&b);
                for (u, v) in x.iter().zip(&x_ref) {
                    prop_assert_eq!(u.to_bits(), v.to_bits());
                }
            }
        }

        #[test]
        fn prop_cholesky_random_spd(
            vals in proptest::collection::vec(-1.0f64..1.0, 16),
            b in proptest::collection::vec(-5.0f64..5.0, 4),
        ) {
            // Build A = M Mᵀ + n·I which is SPD.
            let m = DenseMatrix::from_fn(4, 4, |i, j| vals[i * 4 + j]);
            let mut a = DenseMatrix::zeros(4, 4);
            for i in 0..4 {
                for j in 0..4 {
                    let mut acc = if i == j { 4.0 } else { 0.0 };
                    for k in 0..4 {
                        acc += m[(i, k)] * m[(j, k)];
                    }
                    a[(i, j)] = acc;
                }
            }
            let ch = Cholesky::factor(&a).unwrap();
            let x = ch.solve(&b);
            let mut ax = vec![0.0; 4];
            a.matvec(&x, &mut ax);
            for (u, v) in ax.iter().zip(&b) {
                prop_assert!((u - v).abs() < 1e-8);
            }
            // LU must agree with Cholesky.
            let lu = Lu::factor(&a).unwrap();
            let x2 = lu.solve(&b);
            for (u, v) in x.iter().zip(&x2) {
                prop_assert!((u - v).abs() < 1e-8);
            }
        }
    }
}
