//! Property-based tests for the linear-algebra substrate.

use ff_linalg::cholesky::{CholeskyFactor, GrowingCholesky};
use ff_linalg::{fft, qr, special, vector, Matrix};
use proptest::prelude::*;

/// Strategy: a random matrix with entries in [-10, 10].
fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #[test]
    fn transpose_is_involution(m in matrix_strategy(4, 7)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_distributes_over_add(
        a in matrix_strategy(3, 4),
        b in matrix_strategy(4, 2),
        c in matrix_strategy(4, 2),
    ) {
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        for i in 0..lhs.rows() {
            for j in 0..lhs.cols() {
                prop_assert!((lhs.get(i, j) - rhs.get(i, j)).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn gram_is_symmetric_psd_diag(m in matrix_strategy(6, 3)) {
        let g = m.gram();
        for i in 0..3 {
            prop_assert!(g.get(i, i) >= -1e-12);
            for j in 0..3 {
                prop_assert!((g.get(i, j) - g.get(j, i)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn cholesky_solve_residual_is_small(m in matrix_strategy(5, 3), b in prop::collection::vec(-5.0f64..5.0, 3)) {
        // A = MᵀM + I is SPD.
        let mut a = m.gram();
        a.add_diagonal(1.0);
        let f = CholeskyFactor::new(&a).unwrap();
        let x = f.solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (axi, bi) in ax.iter().zip(&b) {
            prop_assert!((axi - bi).abs() < 1e-7);
        }
    }

    #[test]
    fn cholesky_reconstruction(m in matrix_strategy(4, 4)) {
        let mut a = m.gram();
        a.add_diagonal(0.5);
        let f = CholeskyFactor::new(&a).unwrap();
        let rec = f.l().matmul(&f.l().transpose()).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                prop_assert!((rec.get(i, j) - a.get(i, j)).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn qr_least_squares_residual_orthogonal_to_columns(
        m in matrix_strategy(8, 3),
        y in prop::collection::vec(-5.0f64..5.0, 8),
    ) {
        // Guard against accidental rank deficiency by adding distinct ramps.
        let a = Matrix::from_fn(8, 3, |i, j| m.get(i, j) + (i as f64 + 1.0) * (j as f64 + 1.0) * 0.01);
        if let Ok(beta) = qr::lstsq(&a, &y) {
            let pred = a.matvec(&beta).unwrap();
            let resid = vector::sub(&y, &pred);
            // Normal equations: Aᵀ r = 0 at the optimum.
            let atr = a.t_matvec(&resid).unwrap();
            for v in atr {
                prop_assert!(v.abs() < 1e-6);
            }
        }
    }

    #[test]
    fn fft_roundtrip_via_conjugate(x in prop::collection::vec(-100.0f64..100.0, 32)) {
        // IFFT(X) = conj(FFT(conj(X)))/n; applied to a real signal this
        // must reproduce the input.
        let spec = fft::fft_real(&x);
        let mut conj: Vec<(f64, f64)> = spec.iter().map(|&(re, im)| (re, -im)).collect();
        fft::fft_in_place(&mut conj);
        let n = conj.len() as f64;
        for (i, &xi) in x.iter().enumerate() {
            prop_assert!((conj[i].0 / n - xi).abs() < 1e-8);
            prop_assert!((conj[i].1 / n).abs() < 1e-8);
        }
    }

    #[test]
    fn normal_cdf_monotone_and_bounded(a in -6.0f64..6.0, b in -6.0f64..6.0) {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (cl, ch) = (special::normal_cdf(lo), special::normal_cdf(hi));
        prop_assert!((0.0..=1.0).contains(&cl));
        prop_assert!((0.0..=1.0).contains(&ch));
        prop_assert!(cl <= ch + 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A growing factor equals the one-shot jittered factorization of every
    /// leading block bit for bit, and fails exactly where it fails. `G Gᵀ`
    /// with fewer columns than rows is singular, so the stream climbs the
    /// ladder: the unshifted rung fails once the rank is exceeded, and
    /// scaled-up entries make rounding decide the shifted ones, up to
    /// exhausting the ladder.
    #[test]
    fn growing_factor_matches_new_with_jitter_on_every_prefix(
        g in matrix_strategy(24, 3),
        dup in 0usize..24,
        scale in prop_oneof![Just(1.0), Just(1e2), Just(1e3)],
        first in prop_oneof![Just(1e-12), Just(1e-10), Just(1e-8)],
        tries in prop_oneof![Just(2usize), Just(6usize)],
    ) {
        let n = 24;
        let mut g = g.scale(scale);
        for j in 0..3 {
            let v = g.get((dup + 1) % n, j);
            g.set(dup, j, v);
        }
        let a = g.matmul(&g.transpose()).unwrap();
        let mut growing = GrowingCholesky::new(first, tries);
        for k in 1..=n {
            let pushed = growing.push(|i, j| a.get(i, j));
            let lead = Matrix::from_fn(k, k, |i, j| a.get(i, j));
            match CholeskyFactor::new_with_jitter(&lead, first, tries) {
                Ok(one_shot) => {
                    prop_assert!(pushed.is_ok(), "k={} growing failed", k);
                    let f = growing.factor().unwrap();
                    for i in 0..k {
                        let got: Vec<u64> = f.row(i).iter().map(|v| v.to_bits()).collect();
                        let want: Vec<u64> = one_shot.row(i).iter().map(|v| v.to_bits()).collect();
                        prop_assert_eq!(got, want);
                    }
                }
                Err(_) => {
                    prop_assert!(pushed.is_err(), "k={} one-shot failed", k);
                    prop_assert!(growing.factor().is_none());
                }
            }
        }
    }
}
