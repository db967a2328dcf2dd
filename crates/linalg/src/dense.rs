//! Dense matrices (column-major) with the level-2/3 kernels the resilient
//! algorithms need: GEMV, GEMM, small QR-style helpers — and the banded LU
//! the block-Jacobi preconditioner factors its local sparse block with.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::ops::LocalOps;
use crate::sparse::CsrMatrix;

/// A dense column-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    /// Column-major storage: element (i, j) lives at `data[j * nrows + i]`.
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Zero matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Build from a row-major nested slice (convenient in tests).
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map(Vec::len).unwrap_or(0);
        let mut m = Self::zeros(nrows, ncols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), ncols, "ragged rows");
            for (j, &v) in row.iter().enumerate() {
                m.set(i, j, v);
            }
        }
        m
    }

    /// Matrix with entries drawn uniformly from `[-1, 1]`.
    pub fn random(nrows: usize, ncols: usize, rng: &mut ChaCha8Rng) -> Self {
        let data = (0..nrows * ncols)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        Self { nrows, ncols, data }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Element (i, j).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[j * self.nrows + i]
    }

    /// Set element (i, j).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[j * self.nrows + i] = v;
    }

    /// Add `v` to element (i, j).
    #[inline]
    pub fn add_to(&mut self, i: usize, j: usize, v: f64) {
        self.data[j * self.nrows + i] += v;
    }

    /// Borrow column `j` as a slice.
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Borrow column `j` mutably.
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Copy of row `i`.
    pub fn row(&self, i: usize) -> Vec<f64> {
        (0..self.ncols).map(|j| self.get(i, j)).collect()
    }

    /// Raw column-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Raw column-major data, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// y = A·x.
    pub fn gemv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "gemv: dimension mismatch");
        let mut y = vec![0.0; self.nrows];
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            let col = self.col(j);
            for i in 0..self.nrows {
                y[i] += col[i] * xj;
            }
        }
        y
    }

    /// y = Aᵀ·x.
    pub fn gemv_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.nrows, "gemv_t: dimension mismatch");
        (0..self.ncols)
            .map(|j| self.col(j).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// C = A·B.
    pub fn gemm(&self, b: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.ncols, b.nrows, "gemm: inner dimension mismatch");
        let mut c = DenseMatrix::zeros(self.nrows, b.ncols);
        for j in 0..b.ncols {
            for k in 0..self.ncols {
                let bkj = b.get(k, j);
                if bkj == 0.0 {
                    continue;
                }
                let a_col = self.col(k);
                let c_col = c.col_mut(j);
                for i in 0..self.nrows {
                    c_col[i] += a_col[i] * bkj;
                }
            }
        }
        c
    }

    /// Transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.ncols, self.nrows);
        for j in 0..self.ncols {
            for i in 0..self.nrows {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0, |m: f64, v| m.max(v.abs()))
    }

    /// Element-wise difference `self - other`.
    pub fn sub(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Self {
            nrows: self.nrows,
            ncols: self.ncols,
            data,
        }
    }

    /// Solve the upper-triangular system `R·x = b` for `x` by back
    /// substitution, using the leading `n × n` block of `self`.
    ///
    /// # Panics
    /// Panics if a diagonal entry is exactly zero.
    pub fn solve_upper_triangular(&self, b: &[f64], n: usize) -> Vec<f64> {
        assert!(n <= self.nrows && n <= self.ncols && n <= b.len());
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = b[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                sum -= self.get(i, j) * xj;
            }
            let d = self.get(i, i);
            assert!(d != 0.0, "singular triangular factor at row {i}");
            x[i] = sum / d;
        }
        x
    }
}

/// A banded LU factorization with partial pivoting, `P·A = L·U`, of a
/// square sparse block, factored straight from CSR.
///
/// The block's lower and upper bandwidths `kl`, `ku` bound the work:
/// pivoting can widen `U` to `kl + ku` superdiagonals, never more, so the
/// factorization costs `O(n·kl·(kl+ku))` and one solve `O(n·(kl+ku))`.
/// The loops are the dense partial-pivot LU's — the same pivot choice,
/// the same `m != 0` skip, the same right-looking update order — restricted
/// to the entries that can be nonzero. Every update that changes a value
/// happens in the same order, so on finite inputs the solution is
/// `to_bits`-identical to the dense LU's (an exactly-zero entry may differ
/// in the sign of zero; pinned by the `ops_parity` proptests against a
/// dense reference).
///
/// Storage is at most the dense `n²` plus `O(n)` for any bandwidth: the
/// multipliers of step `k` are kept **unpermuted** and contiguous (later
/// row swaps do not touch them), and `U` is kept by rows, diagonal first,
/// each trimmed to its last nonzero.
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    /// Lower bandwidth: step `k` has multipliers for rows `k+1..=k+kl`.
    kl: usize,
    /// Row swapped with row `k` at elimination step `k`.
    pivots: Vec<usize>,
    /// Step `k`'s `min(kl, n-1-k)` multipliers, steps in order.
    l: Vec<f64>,
    /// `U` by rows: row `i` is `u[u_off[i]..u_off[i+1]]`, diagonal first.
    u: Vec<f64>,
    u_off: Vec<usize>,
    /// Floating-point operations the factorization performed.
    factor_flops: usize,
}

impl LuFactors {
    /// Factor a square sparse matrix. A pivot column whose remaining
    /// entries are all exactly zero is replaced by a unit pivot (the
    /// corresponding solution component passes through unscaled), so the
    /// factorization is always defined — the same always-defined convention
    /// the Jacobi preconditioner uses for zero diagonal entries.
    ///
    /// # Panics
    /// Panics if `a` is not square.
    pub fn factor(a: &CsrMatrix) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "LU requires a square matrix");
        let n = a.nrows();
        let (mut kl, mut ku) = (0, 0);
        for i in 0..n {
            for &j in a.row(i).0 {
                kl = kl.max(i.saturating_sub(j));
                ku = ku.max(j.saturating_sub(i));
            }
        }
        // Row windows: the active rows of step k span columns k..k+w.
        let w = kl + ku + 1;
        let mut l_off = Vec::with_capacity(n + 1);
        let mut u_off = Vec::with_capacity(n + 1);
        l_off.push(0);
        u_off.push(0);
        for i in 0..n {
            l_off.push(l_off[i] + kl.min(n - 1 - i));
            u_off.push(u_off[i] + w.min(n - i));
        }
        // Entry (i, j) lives in L's column j below the diagonal, in U's row
        // i on and above it.
        let lu_at = |i: usize, j: usize| -> (bool, usize) {
            if j < i {
                (true, l_off[j] + i - j - 1)
            } else {
                (false, u_off[i] + j - i)
            }
        };
        let mut l = vec![0.0; l_off[n]];
        let mut u = vec![0.0; u_off[n]];
        for i in 0..n {
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                match lu_at(i, j) {
                    (true, p) => l[p] += v,
                    (false, p) => u[p] += v,
                }
            }
        }

        let mut pivots = vec![0usize; n];
        let mut u_len = vec![0usize; n];
        let mut factor_flops = 0;
        for k in 0..n {
            let col = l_off[k]..l_off[k + 1];
            let hi = (k + w).min(n);
            // Partial pivoting: largest |entry| in column k, rows k..=k+kl.
            let mut piv = k;
            let mut best = u[u_off[k]].abs();
            for (r, v) in l[col.clone()].iter().enumerate() {
                if v.abs() > best {
                    best = v.abs();
                    piv = k + 1 + r;
                }
            }
            pivots[k] = piv;
            if piv != k {
                // Swap from column k on: earlier multipliers stay put.
                for j in k..hi {
                    let a = u_off[k] + j - k;
                    match lu_at(piv, j) {
                        (true, b) => std::mem::swap(&mut u[a], &mut l[b]),
                        (false, b) => u.swap(a, b),
                    }
                }
            }
            let mut pivot = u[u_off[k]];
            if pivot == 0.0 {
                // Structurally singular column: unit pivot, zero multipliers.
                pivot = 1.0;
                u[u_off[k]] = pivot;
            }
            // Row k of U is final: trim it to its last nonzero.
            let row_k = u_off[k]..u_off[k] + (hi - k);
            let len = u[row_k]
                .iter()
                .rposition(|&v| v != 0.0)
                .map_or(1, |p| p + 1);
            u_len[k] = len;
            factor_flops += col.len();
            for (r, i) in (k + 1..k + 1 + col.len()).enumerate() {
                let m = l[col.start + r] / pivot;
                l[col.start + r] = m;
                if m != 0.0 {
                    factor_flops += 2 * (len - 1);
                    // Columns k+1..i of row i sit in L, i.. in U.
                    for j in k + 1..(k + len).min(i) {
                        l[l_off[j] + i - j - 1] += -m * u[u_off[k] + j - k];
                    }
                    if k + len > i {
                        let (head, tail) = u.split_at_mut(u_off[i]);
                        let src = &head[u_off[k] + i - k..u_off[k] + len];
                        for (dst, &ukj) in tail.iter_mut().zip(src) {
                            *dst += -m * ukj;
                        }
                    }
                }
            }
        }
        // Compact U to the trimmed rows.
        let mut end = 0;
        for (i, &len) in u_len.iter().enumerate() {
            u.copy_within(u_off[i]..u_off[i] + len, end);
            u_off[i] = end;
            end += len;
        }
        u_off[n] = end;
        u.truncate(end);
        u.shrink_to_fit();
        Self {
            n,
            kl,
            pivots,
            l,
            u,
            u_off,
            factor_flops,
        }
    }

    /// Order of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// FLOPs the factorization performed (multipliers and updates).
    pub fn factor_flops(&self) -> usize {
        self.factor_flops
    }

    /// FLOPs of one [`LuFactors::solve_with`]: a multiply–add per stored
    /// multiplier and off-diagonal `U` entry, a division per row — `2n²`
    /// for a full-width block, `O(n·(kl+ku))` for a banded one.
    pub fn flops_per_solve(&self) -> usize {
        2 * (self.l.len() + self.u.len())
    }

    /// Solve `A·x = b` into the first `n` entries of `x` through a
    /// [`LocalOps`] backend, allocation-free — the form the block-Jacobi
    /// preconditioner applies every iteration.
    ///
    /// The forward sweep does step `k`'s row swap and then one `ops.axpy`
    /// of its (unpermuted) multipliers: each value receives the dense
    /// forward substitution's updates in the same ascending-step order,
    /// `(-x_k)·l ≡ -(l·x_k)` bitwise. Back substitution keeps the
    /// order-sensitive sequential recurrence ([`LocalOps::msub_seq`]) over
    /// each trimmed `U` row.
    ///
    /// # Panics
    /// Panics if `b` or `x` is shorter than the factored dimension.
    pub fn solve_with(&self, ops: &dyn LocalOps, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        assert!(b.len() >= n && x.len() >= n, "LU solve: length mismatch");
        let xs = &mut x[..n];
        xs.copy_from_slice(&b[..n]);
        let mut off = 0;
        for (k, &piv) in self.pivots.iter().enumerate() {
            xs.swap(k, piv);
            let len = self.kl.min(n - 1 - k);
            let (head, tail) = xs.split_at_mut(k + 1);
            ops.axpy(-head[k], &self.l[off..off + len], &mut tail[..len]);
            off += len;
        }
        for i in (0..n).rev() {
            let row = &self.u[self.u_off[i]..self.u_off[i + 1]];
            let (head, tail) = xs.split_at_mut(i + 1);
            head[i] = ops.msub_seq(head[i], &row[1..], &tail[..row.len() - 1]) / row[0];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn construction_and_access() {
        let mut m = DenseMatrix::zeros(2, 3);
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        m.add_to(1, 2, 1.0);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(1), vec![0.0, 0.0, 6.0]);
        assert_eq!(m.col(2), &[0.0, 6.0]);
    }

    #[test]
    fn identity_gemv_is_identity() {
        let i3 = DenseMatrix::identity(3);
        let x = [1.0, -2.0, 3.0];
        assert_eq!(i3.gemv(&x), vec![1.0, -2.0, 3.0]);
    }

    #[test]
    fn from_rows_and_gemv() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(a.gemv(&[1.0, 1.0]), vec![3.0, 7.0, 11.0]);
        assert_eq!(a.gemv_t(&[1.0, 0.0, 1.0]), vec![6.0, 8.0]);
    }

    #[test]
    fn gemm_matches_manual() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.gemm(&b);
        assert_eq!(c.get(0, 0), 19.0);
        assert_eq!(c.get(0, 1), 22.0);
        assert_eq!(c.get(1, 0), 43.0);
        assert_eq!(c.get(1, 1), 50.0);
    }

    #[test]
    fn gemm_identity_is_noop() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = DenseMatrix::random(4, 4, &mut rng);
        let c = a.gemm(&DenseMatrix::identity(4));
        assert!(a.sub(&c).norm_max() < 1e-15);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a = DenseMatrix::random(3, 5, &mut rng);
        let att = a.transpose().transpose();
        assert!(a.sub(&att).norm_max() == 0.0);
        assert_eq!(a.transpose().nrows(), 5);
    }

    #[test]
    fn norms() {
        let a = DenseMatrix::from_rows(&[vec![3.0, 0.0], vec![0.0, -4.0]]);
        assert_eq!(a.norm_fro(), 5.0);
        assert_eq!(a.norm_max(), 4.0);
    }

    #[test]
    fn upper_triangular_solve() {
        let r = DenseMatrix::from_rows(&[vec![2.0, 1.0], vec![0.0, 4.0]]);
        let x = r.solve_upper_triangular(&[4.0, 8.0], 2);
        assert_eq!(x, vec![1.0, 2.0]);
    }

    /// CSR copy of the nonzeros of a dense matrix.
    fn csr(a: &DenseMatrix) -> CsrMatrix {
        let mut coo = crate::sparse::CooMatrix::new(a.nrows(), a.ncols());
        for i in 0..a.nrows() {
            for j in 0..a.ncols() {
                if a.get(i, j) != 0.0 {
                    coo.push(i, j, a.get(i, j));
                }
            }
        }
        coo.to_csr()
    }

    fn solve(lu: &LuFactors, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; lu.dim()];
        lu.solve_with(crate::ops::scalar_ops(), b, &mut x);
        x
    }

    #[test]
    fn lu_solves_random_systems() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for n in [1usize, 2, 5, 17] {
            // Diagonal boost keeps the random matrix comfortably nonsingular.
            let mut a = DenseMatrix::random(n, n, &mut rng);
            for i in 0..n {
                a.add_to(i, i, n as f64);
            }
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 1.0).collect();
            let b = a.gemv(&x_true);
            let lu = LuFactors::factor(&csr(&a));
            assert_eq!(lu.dim(), n);
            // Full width: the dense operation count and storage, no more.
            assert_eq!(lu.flops_per_solve(), 2 * n * n);
            let x = solve(&lu, &b);
            for (got, want) in x.iter().zip(&x_true) {
                assert!((got - want).abs() < 1e-10, "n={n}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn lu_of_a_banded_block_costs_the_band() {
        // 2-D Poisson, 12x12: bandwidth 12, no pivoting, U filled to ku.
        let a = crate::generators::poisson2d(12, 12);
        let n = a.nrows();
        let lu = LuFactors::factor(&a);
        let band = n * 12 - 12 * 13 / 2;
        assert_eq!(lu.flops_per_solve(), 2 * (band + band + n));
        assert!(lu.factor_flops() < 2 * n * n * n / 3 / 10);
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let x = solve(&lu, &a.spmv(&x_true));
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn lu_solve_into_is_allocation_shaped() {
        // The solve writes into a caller buffer longer than n and leaves
        // the tail untouched.
        let a = DenseMatrix::from_rows(&[vec![4.0, 1.0], vec![2.0, 3.0]]);
        let lu = LuFactors::factor(&csr(&a));
        let mut x = vec![7.0; 4];
        lu.solve_with(crate::ops::scalar_ops(), &[6.0, 8.0], &mut x);
        assert!(
            (a.gemv(&x[..2]).iter().zip([6.0, 8.0])).all(|(got, want)| (got - want).abs() < 1e-12)
        );
        assert_eq!(&x[2..], &[7.0, 7.0]);
    }

    #[test]
    fn lu_zero_pivot_column_degrades_to_identity_row() {
        // A zero matrix factors to unit pivots: solve returns b unchanged.
        let lu = LuFactors::factor(&csr(&DenseMatrix::zeros(3, 3)));
        assert_eq!(solve(&lu, &[1.0, -2.0, 3.0]), vec![1.0, -2.0, 3.0]);
        // Empty blocks (a rank owning zero rows) are fine too.
        let empty = LuFactors::factor(&csr(&DenseMatrix::zeros(0, 0)));
        assert_eq!(empty.dim(), 0);
        empty.solve_with(crate::ops::scalar_ops(), &[], &mut []);
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn singular_triangular_panics() {
        let r = DenseMatrix::from_rows(&[vec![0.0]]);
        r.solve_upper_triangular(&[1.0], 1);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn gemv_dimension_mismatch_panics() {
        DenseMatrix::zeros(2, 2).gemv(&[1.0]);
    }
}
