//! Coordinate-descent core for L1/L2-regularized linear regression.
//!
//! Minimizes `1/(2n) ‖y − Xβ − b‖² + α·ρ‖β‖₁ + α(1−ρ)/2 ‖β‖²`
//! (the scikit-learn elastic-net objective), with cyclic or random
//! coordinate selection — the `selection` hyperparameter of Table 2.

use ff_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Coordinate selection order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// Sweep coordinates in order every pass.
    Cyclic,
    /// Pick a random coordinate each update.
    Random,
}

impl Selection {
    /// Parses the Table 2 categorical value.
    pub fn from_name(name: &str) -> Selection {
        match name {
            "random" => Selection::Random,
            _ => Selection::Cyclic,
        }
    }
}

/// Soft-thresholding operator `S(z, t) = sign(z)·max(|z| − t, 0)`.
#[inline]
pub fn soft_threshold(z: f64, t: f64) -> f64 {
    if z > t {
        z - t
    } else if z < -t {
        z + t
    } else {
        0.0
    }
}

/// Result of a coordinate-descent solve.
#[derive(Debug, Clone)]
pub struct CdFit {
    /// Coefficients in the (standardized) feature space used by the caller.
    pub coef: Vec<f64>,
    /// Intercept in the same space.
    pub intercept: f64,
    /// Number of full passes performed.
    pub passes: usize,
}

/// Solves the elastic-net problem by coordinate descent.
///
/// `xt` is the design transposed, one row per feature, so each coordinate
/// update reads its column contiguously; callers make it once per fit. The
/// solve uses the first `y.len()` rows of the design, so forward-chaining
/// folds are row prefixes of one layout. The design should be standardized
/// by the caller for good conditioning. `alpha` is the overall
/// regularization strength, `l1_ratio ∈ [0, 1]` mixes L1 vs L2. Converges
/// when the largest coefficient update in a pass falls below `tol`.
///
/// # Panics
/// Panics if `y` has more entries than the design has rows (`xt.cols()`).
#[allow(clippy::too_many_arguments)] // solver knobs are clearest as a flat list
pub fn coordinate_descent(
    xt: &Matrix,
    y: &[f64],
    alpha: f64,
    l1_ratio: f64,
    selection: Selection,
    max_passes: usize,
    tol: f64,
    seed: u64,
) -> CdFit {
    let n = y.len();
    let p = xt.rows();
    assert!(n <= xt.cols(), "{n} targets for a {}-row design", xt.cols());
    let nf = n as f64;
    let l1 = alpha * l1_ratio;
    let l2 = alpha * (1.0 - l1_ratio);
    let col = |j: usize| &xt.row(j)[..n];

    // Column squared norms / n, each summed in row order.
    let col_sq: Vec<f64> = (0..p)
        .map(|j| col(j).iter().fold(0.0, |c, &v| c + v * v) / nf)
        .collect();

    let mut coef = vec![0.0; p];
    let y_mean = ff_linalg::vector::mean(y);
    let mut intercept = y_mean;
    // Residual r = y − Xβ − b.
    let mut resid: Vec<f64> = y.iter().map(|&v| v - intercept).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut passes = 0;

    for pass in 0..max_passes {
        passes = pass + 1;
        let mut max_delta = 0.0f64;
        for step in 0..p {
            let j = match selection {
                Selection::Cyclic => step,
                Selection::Random => rng.gen_range(0..p),
            };
            if col_sq[j] <= 1e-300 {
                continue;
            }
            // rho_j = (1/n) x_jᵀ r + col_sq[j] * coef[j], summed in row order.
            let xj = col(j);
            let rho = xj.iter().zip(&resid).fold(0.0, |rho, (&v, &r)| rho + v * r);
            let rho = rho / nf + col_sq[j] * coef[j];
            let new = soft_threshold(rho, l1) / (col_sq[j] + l2);
            let delta = new - coef[j];
            if delta != 0.0 {
                for (r, &v) in resid.iter_mut().zip(xj) {
                    *r -= delta * v;
                }
                coef[j] = new;
                max_delta = max_delta.max(delta.abs());
            }
        }
        // Update intercept to the residual mean (unpenalized).
        let r_mean = ff_linalg::vector::mean(&resid);
        if r_mean.abs() > 0.0 {
            intercept += r_mean;
            for r in resid.iter_mut() {
                *r -= r_mean;
            }
            max_delta = max_delta.max(r_mean.abs());
        }
        if max_delta < tol {
            break;
        }
    }
    CdFit {
        coef,
        intercept,
        passes,
    }
}

/// The row-major solver the column-major one replaced, kept as the
/// reference its fits must match bit for bit: it reads a row-major design
/// a column at a time and solves on all of its rows.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn coordinate_descent(
        x: &Matrix,
        y: &[f64],
        alpha: f64,
        l1_ratio: f64,
        selection: Selection,
        max_passes: usize,
        tol: f64,
        seed: u64,
    ) -> CdFit {
        let n = x.rows();
        let p = x.cols();
        let nf = n as f64;
        let l1 = alpha * l1_ratio;
        let l2 = alpha * (1.0 - l1_ratio);
        let mut col_sq = vec![0.0; p];
        for i in 0..n {
            for (c, &v) in col_sq.iter_mut().zip(x.row(i)) {
                *c += v * v;
            }
        }
        for c in col_sq.iter_mut() {
            *c /= nf;
        }
        let mut coef = vec![0.0; p];
        let mut intercept = ff_linalg::vector::mean(y);
        let mut resid: Vec<f64> = y.iter().map(|&v| v - intercept).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut passes = 0;
        for pass in 0..max_passes {
            passes = pass + 1;
            let mut max_delta = 0.0f64;
            for step in 0..p {
                let j = match selection {
                    Selection::Cyclic => step,
                    Selection::Random => rng.gen_range(0..p),
                };
                if col_sq[j] <= 1e-300 {
                    continue;
                }
                let mut rho = 0.0;
                for i in 0..n {
                    rho += x.get(i, j) * resid[i];
                }
                rho = rho / nf + col_sq[j] * coef[j];
                let new = soft_threshold(rho, l1) / (col_sq[j] + l2);
                let delta = new - coef[j];
                if delta != 0.0 {
                    for i in 0..n {
                        resid[i] -= delta * x.get(i, j);
                    }
                    coef[j] = new;
                    max_delta = max_delta.max(delta.abs());
                }
            }
            let r_mean = ff_linalg::vector::mean(&resid);
            if r_mean.abs() > 0.0 {
                intercept += r_mean;
                for r in resid.iter_mut() {
                    *r -= r_mean;
                }
                max_delta = max_delta.max(r_mean.abs());
            }
            if max_delta < tol {
                break;
            }
        }
        CdFit {
            coef,
            intercept,
            passes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Standardizer;

    /// The design transposed (one row per feature) and its targets.
    fn design() -> (Matrix, Vec<f64>) {
        // y = 2 x0 − 1 x1 + 3, x2 is pure noise-free junk (constant 0 signal).
        let n = 60;
        let mut rows = Vec::new();
        let mut y = Vec::new();
        let mut state = 5u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 30) as f64) - 1.0
        };
        for _ in 0..n {
            let a = rnd();
            let b = rnd();
            let c = rnd();
            rows.push(vec![a, b, c]);
            y.push(2.0 * a - b + 3.0);
        }
        (Matrix::from_fn(3, n, |j, i| rows[i][j]), y)
    }

    #[test]
    fn unregularized_recovers_ols() {
        let (xt, y) = design();
        let fit = coordinate_descent(&xt, &y, 1e-9, 1.0, Selection::Cyclic, 500, 1e-10, 0);
        assert!((fit.coef[0] - 2.0).abs() < 1e-4, "{:?}", fit.coef);
        assert!((fit.coef[1] + 1.0).abs() < 1e-4);
        assert!(fit.coef[2].abs() < 1e-4);
        assert!((fit.intercept - 3.0).abs() < 1e-4);
    }

    #[test]
    fn strong_l1_zeroes_weak_feature() {
        let (xt, y) = design();
        let fit = coordinate_descent(&xt, &y, 0.3, 1.0, Selection::Cyclic, 500, 1e-10, 0);
        assert_eq!(fit.coef[2], 0.0, "junk feature should be exactly zero");
        assert!(fit.coef[0].abs() < 2.0, "L1 must shrink");
        assert!(fit.coef[0] > 0.5, "signal must survive");
    }

    #[test]
    fn random_selection_converges_to_same_solution() {
        let (xt, y) = design();
        let a = coordinate_descent(&xt, &y, 0.05, 1.0, Selection::Cyclic, 2000, 1e-12, 0);
        let b = coordinate_descent(&xt, &y, 0.05, 1.0, Selection::Random, 4000, 1e-12, 9);
        for (ca, cb) in a.coef.iter().zip(&b.coef) {
            assert!((ca - cb).abs() < 1e-3, "{:?} vs {:?}", a.coef, b.coef);
        }
    }

    #[test]
    fn l2_component_shrinks_without_sparsity() {
        let (xt, y) = design();
        let fit = coordinate_descent(&xt, &y, 0.5, 0.0, Selection::Cyclic, 500, 1e-10, 0);
        // Pure ridge: coefficients shrink but normally stay nonzero.
        assert!(fit.coef[0] > 0.1 && fit.coef[0] < 2.0);
        assert!(fit.coef[1] < -0.1 && fit.coef[1] > -1.0);
    }

    #[test]
    fn soft_threshold_cases() {
        assert_eq!(soft_threshold(3.0, 1.0), 2.0);
        assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
    }

    /// Every bit of a fit: coefficients, intercept and pass count.
    fn cd_bits(fit: &CdFit) -> (Vec<u64>, u64, usize) {
        let coef = fit.coef.iter().map(|c| c.to_bits()).collect();
        (coef, fit.intercept.to_bits(), fit.passes)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]

        /// The column-major solver fits bit-identically to the row-major
        /// reference, pass for pass, on the whole design and on a row
        /// prefix of the same layout, under both selections, every mix and
        /// alphas from 1e-6 to 1, over constant and tie-heavy columns, raw
        /// and standardized.
        #[test]
        fn column_major_solver_matches_the_row_major_reference(
            seed in proptest::prelude::any::<u64>(),
            n in 1usize..100,
            p in 1usize..9,
            log_alpha in -6.0f64..0.0,
            max_passes in 1usize..120,
            standardize in proptest::prelude::any::<bool>(),
        ) {
            let mut data = StdRng::seed_from_u64(seed);
            let raw = crate::tree::tests::tie_heavy(n, p, &mut data);
            let x = if standardize { Standardizer::fit(&raw).transform(&raw) } else { raw };
            let y: Vec<f64> = (0..n)
                .map(|i| x.get(i, 0) * 1.5 - x.get(i, p - 1) + data.gen::<f64>() - 0.5)
                .collect();
            let xt = x.transpose();
            let prefix = data.gen_range(1..=n);
            for m in [n, prefix] {
                let x_m = Matrix::from_fn(m, p, |i, j| x.get(i, j));
                for selection in [Selection::Cyclic, Selection::Random] {
                    for l1_ratio in [0.0, 0.3, 1.0] {
                        for alpha in [1e-6, 10f64.powf(log_alpha), 1.0] {
                            let fast = coordinate_descent(
                                &xt, &y[..m], alpha, l1_ratio, selection, max_passes, 1e-7, seed,
                            );
                            let slow = reference::coordinate_descent(
                                &x_m, &y[..m], alpha, l1_ratio, selection, max_passes, 1e-7, seed,
                            );
                            proptest::prop_assert_eq!(
                                cd_bits(&fast),
                                cd_bits(&slow),
                                "alpha {} l1_ratio {} {:?} rows {}",
                                alpha,
                                l1_ratio,
                                selection,
                                m
                            );
                        }
                    }
                }
            }
        }
    }
}
