//! Bit-parity pins for the device-op layer.
//!
//! The SIMD backend is *specified* to be bit-identical to the scalar
//! reference (the 4-lane reassociation of `vector::dot` is part of the
//! algorithm, not an implementation detail), and the SELL-C-σ layout is
//! specified to be a lossless permutation of CSR whose SpMV performs the
//! same per-row left-to-right accumulation. These properties are what let
//! the solver crates swap backends and layouts freely without perturbing
//! convergence histories; this suite pins them with `to_bits` equality on
//! random inputs, including non-finite specials.
//!
//! On machines without AVX2 `simd_ops()` falls back to the scalar backend
//! and the cross-backend assertions hold trivially — the suite still
//! exercises the SELL and banded-LU pins.

use proptest::prelude::*;
use resilient_linalg::{
    scalar_ops, simd_ops, CooMatrix, CsrMatrix, DenseMatrix, LuFactors, SellMatrix,
};

fn any_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, len..=len)
}

/// Sprinkle ±∞ into a finite vector according to per-element tags:
/// bit-parity must hold through non-finite arithmetic too (a NaN or ∞
/// produced by identical operation order has identical bits).
fn with_specials(finite: &[f64], tags: &[u8]) -> Vec<f64> {
    finite
        .iter()
        .zip(tags)
        .map(|(&v, &t)| match t {
            8 => f64::INFINITY,
            9 => f64::NEG_INFINITY,
            _ => v,
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Random square CSR matrix with controllable shape irregularity.
fn ragged_csr(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for &(i, j, v) in entries {
        coo.push(i % n, j % n, v);
    }
    coo.to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 96 }))]

    /// Every level-1 op is `to_bits`-identical across backends, at lengths
    /// that cover empty, sub-lane, exact-lane and ragged-tail cases.
    #[test]
    fn level1_ops_bitwise_identical(
        len in 0usize..130,
        x0 in any_vec(130),
        y0 in any_vec(130),
        a in -1e3f64..1e3,
        b in -1e3f64..1e3,
    ) {
        let (s, v) = (scalar_ops(), simd_ops());
        let x = &x0[..len];
        let y = &y0[..len];

        prop_assert_eq!(s.dot(x, y).to_bits(), v.dot(x, y).to_bits());
        prop_assert_eq!(s.nrm2(x).to_bits(), v.nrm2(x).to_bits());
        prop_assert_eq!(
            s.msub_seq(a, x, y).to_bits(),
            v.msub_seq(a, x, y).to_bits()
        );

        let mut ys = y.to_vec();
        let mut yv = y.to_vec();
        s.axpy(a, x, &mut ys);
        v.axpy(a, x, &mut yv);
        prop_assert_eq!(bits(&ys), bits(&yv));

        let mut xs = x.to_vec();
        let mut xv = x.to_vec();
        s.scale(a, &mut xs);
        v.scale(a, &mut xv);
        prop_assert_eq!(bits(&xs), bits(&xv));

        let mut ys = y.to_vec();
        let mut yv = y.to_vec();
        s.xpby(x, b, &mut ys);
        v.xpby(x, b, &mut yv);
        prop_assert_eq!(bits(&ys), bits(&yv));

        let mut ws = vec![0.0; len];
        let mut wv = vec![0.0; len];
        s.waxpby_into(a, x, b, y, &mut ws);
        v.waxpby_into(a, x, b, y, &mut wv);
        prop_assert_eq!(bits(&ws), bits(&wv));
    }

    /// The fused multi-dot used by the pipelined kernels matches both the
    /// scalar backend and k separate dots, bitwise.
    #[test]
    fn dot_pairs_bitwise_identical(
        len in 0usize..90,
        k in 0usize..12,
        xs in prop::collection::vec(any_vec(90), 12),
        ys in prop::collection::vec(any_vec(90), 12),
    ) {
        let pairs: Vec<(&[f64], &[f64])> = (0..k)
            .map(|i| (&xs[i][..len], &ys[i][..len]))
            .collect();
        let mut out_s = vec![0.0; k];
        let mut out_v = vec![0.0; k];
        scalar_ops().dot_pairs(&pairs, &mut out_s);
        simd_ops().dot_pairs(&pairs, &mut out_v);
        prop_assert_eq!(bits(&out_s), bits(&out_v));
        for i in 0..k {
            prop_assert_eq!(out_s[i].to_bits(), scalar_ops().dot(pairs[i].0, pairs[i].1).to_bits());
        }
    }

    /// Non-finite inputs propagate identically through both backends: a NaN
    /// or ±∞ produced by the same operation order has the same bits.
    #[test]
    fn specials_propagate_bitwise(
        len in 0usize..70,
        xf in any_vec(70),
        yf in any_vec(70),
        xtags in prop::collection::vec(0u8..10, 70..=70),
        ytags in prop::collection::vec(0u8..10, 70..=70),
        a in prop::sample::select(vec![0.0f64, f64::INFINITY, -3.5, 2.0]),
    ) {
        let (s, v) = (scalar_ops(), simd_ops());
        let x0 = with_specials(&xf, &xtags);
        let y0 = with_specials(&yf, &ytags);
        let x = &x0[..len];
        let y = &y0[..len];
        prop_assert_eq!(s.dot(x, y).to_bits(), v.dot(x, y).to_bits());
        let mut ys = y.to_vec();
        let mut yv = y.to_vec();
        s.axpy(a, x, &mut ys);
        v.axpy(a, x, &mut yv);
        prop_assert_eq!(bits(&ys), bits(&yv));
    }

    /// SELL-C-σ is a lossless re-layout: `from_csr ∘ to_csr` is the
    /// identity, and its SpMV is bit-identical to CSR's on both backends.
    #[test]
    fn sell_round_trip_and_spmv_parity(
        n in 1usize..24,
        entries in prop::collection::vec((0usize..24, 0usize..24, -10.0f64..10.0), 0..160),
        sigma in prop::sample::select(vec![1usize, 4, 8, 256]),
        x0 in any_vec(24),
    ) {
        let a = ragged_csr(n, &entries);
        let sell = SellMatrix::from_csr(&a, sigma);
        let back = sell.to_csr();
        prop_assert_eq!(back.to_dense(), a.to_dense());
        prop_assert_eq!(back.nnz(), a.nnz());

        let x = &x0[..n];
        let reference = a.spmv(x);
        for ops in [scalar_ops(), simd_ops()] {
            let mut y_sell = vec![0.0; n];
            ops.spmv_sell(&sell, x, &mut y_sell);
            prop_assert_eq!(bits(&y_sell), bits(&reference));
            let mut y_csr = vec![0.0; n];
            ops.spmv_csr(&a, x, &mut y_csr);
            prop_assert_eq!(bits(&y_csr), bits(&reference));
        }
    }

    /// The banded LU — factored from CSR, solved through either backend —
    /// is `to_bits`-identical to the dense partial-pivot reference: banded
    /// nonsymmetric blocks whose shrunken diagonal forces row swaps,
    /// full-width blocks, a zero column (the unit-pivot convention) and the
    /// empty block.
    #[test]
    fn banded_lu_matches_dense_reference_lu(
        n_raw in 0usize..44,
        kl in 0usize..40,
        ku in 0usize..40,
        full in any::<bool>(),
        zero_col in 0usize..80,
        raw in prop::collection::vec((-1.0f64..1.0, any::<bool>()), 1600),
        b0 in any_vec(40),
    ) {
        // About one case in nine is the empty block; half have a zero column.
        let n = n_raw.saturating_sub(4);
        let zero_col = (zero_col < 40).then(|| zero_col % n.max(1));
        let (kl, ku) = if full { (n, n) } else { (kl, ku) };
        let mut m = DenseMatrix::zeros(n, n);
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in i.saturating_sub(kl)..n.min(i + ku + 1) {
                let (v, keep) = raw[i * 40 + j];
                if (keep || i == j) && zero_col != Some(j) {
                    let v = if i == j { 0.1 * v } else { v };
                    m.set(i, j, v);
                    coo.push(i, j, v);
                }
            }
        }
        let reference = DenseLu::factor(&m);
        let lu = LuFactors::factor(&coo.to_csr());
        let b = &b0[..n];
        let x_ref = reference.solve(b);
        for ops in [scalar_ops(), simd_ops()] {
            let mut x = vec![0.0; n];
            lu.solve_with(ops, b, &mut x);
            prop_assert_eq!(bits(&x), bits(&x_ref));
        }
    }
}

/// Dense LU with partial pivoting, `P·A = L·U` packed in one column-major
/// matrix with the multipliers permuted — the textbook algorithm the
/// banded [`LuFactors`] must reproduce bit for bit. Test-only: it is the
/// oracle, not a second solve path.
struct DenseLu {
    lu: DenseMatrix,
    /// Row swapped with row `k` at elimination step `k`.
    pivots: Vec<usize>,
}

impl DenseLu {
    fn factor(a: &DenseMatrix) -> Self {
        let n = a.nrows();
        let mut lu = a.clone();
        let mut pivots = vec![0usize; n];
        for (k, pivot_slot) in pivots.iter_mut().enumerate() {
            let mut piv = k;
            let mut best = lu.get(k, k).abs();
            for i in k + 1..n {
                let v = lu.get(i, k).abs();
                if v > best {
                    best = v;
                    piv = i;
                }
            }
            *pivot_slot = piv;
            if piv != k {
                for j in 0..n {
                    let tmp = lu.get(k, j);
                    lu.set(k, j, lu.get(piv, j));
                    lu.set(piv, j, tmp);
                }
            }
            let mut pivot = lu.get(k, k);
            if pivot == 0.0 {
                pivot = 1.0;
                lu.set(k, k, pivot);
            }
            for i in k + 1..n {
                let m = lu.get(i, k) / pivot;
                lu.set(i, k, m);
                if m != 0.0 {
                    for j in k + 1..n {
                        lu.add_to(i, j, -m * lu.get(k, j));
                    }
                }
            }
        }
        Self { lu, pivots }
    }

    /// Permute, then row-oriented forward and back substitution.
    fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = b.len();
        let mut x = b.to_vec();
        for (k, &piv) in self.pivots.iter().enumerate() {
            x.swap(k, piv);
        }
        for i in 1..n {
            let mut s = x[i];
            for (j, &xj) in x[..i].iter().enumerate() {
                s -= self.lu.get(i, j) * xj;
            }
            x[i] = s;
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for (j, &xj) in x[i + 1..n].iter().enumerate() {
                s -= self.lu.get(i, i + 1 + j) * xj;
            }
            x[i] = s / self.lu.get(i, i);
        }
        x
    }
}
