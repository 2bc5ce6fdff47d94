//! XGBoost-style gradient-boosted regression trees (Table 2: `n_estimators`,
//! `max_depth`, `learning_rate`, `reg_lambda`, `subsample`).
//!
//! Squared-error boosting with second-order leaf weights
//! `w = −G/(H + λ)`, exact greedy splits, row subsampling per tree, and
//! shrinkage.

use crate::tree::{GhTree, GhTreeConfig, SortedDesign};
use crate::{validate_xy, ModelError, Regressor, Result};
use ff_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Gradient-boosted tree regressor.
#[derive(Debug, Clone)]
pub struct XgbRegressor {
    /// Number of boosting rounds.
    pub n_estimators: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Shrinkage per round.
    pub learning_rate: f64,
    /// L2 leaf regularization.
    pub reg_lambda: f64,
    /// Row subsample fraction per tree, in (0, 1].
    pub subsample: f64,
    /// RNG seed.
    pub seed: u64,
    base: f64,
    trees: Vec<GhTree>,
}

impl XgbRegressor {
    /// Creates a booster with the given Table 2 hyperparameters.
    pub fn new(
        n_estimators: usize,
        max_depth: usize,
        learning_rate: f64,
        reg_lambda: f64,
        subsample: f64,
    ) -> XgbRegressor {
        XgbRegressor {
            n_estimators: n_estimators.max(1),
            max_depth,
            learning_rate: learning_rate.clamp(1e-3, 1.0),
            reg_lambda: reg_lambda.max(0.0),
            subsample: subsample.clamp(0.05, 1.0),
            seed: 17,
            base: 0.0,
            trees: Vec::new(),
        }
    }

    /// Serializes the fitted ensemble into an opaque byte blob (version,
    /// base score, shrinkage, trees). See [`crate::ser`].
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        if self.trees.is_empty() {
            return Err(ModelError::NotFitted);
        }
        let mut w = crate::ser::Writer::new();
        w.u8(1); // format version
        w.f64(self.base);
        w.f64(self.learning_rate);
        w.u32(self.trees.len() as u32);
        for t in &self.trees {
            t.write_to(&mut w);
        }
        Ok(w.finish())
    }

    /// Reconstructs a fitted ensemble from [`XgbRegressor::to_bytes`]
    /// output. The training hyperparameters are restored to defaults — only
    /// the prediction function is preserved, which is all a federated
    /// aggregate needs.
    pub fn from_bytes(blob: &[u8]) -> Result<XgbRegressor> {
        let mut r = crate::ser::Reader::new(blob);
        let err = |e: crate::ser::SerError| ModelError::InvalidData(e.to_string());
        let version = r.u8().map_err(err)?;
        if version != 1 {
            return Err(ModelError::InvalidData(format!(
                "unsupported model version {version}"
            )));
        }
        let base = r.f64().map_err(err)?;
        let learning_rate = r.f64().map_err(err)?;
        let n = r.u32().map_err(err)? as usize;
        if n == 0 || n > 100_000 {
            return Err(ModelError::InvalidData(format!("bad tree count {n}")));
        }
        // A count the remaining input cannot hold is truncation, refused
        // before any room is reserved for it.
        if n.saturating_mul(crate::tree::MIN_TREE_BYTES) > r.remaining() {
            return Err(err(crate::ser::SerError::Truncated));
        }
        let mut trees = Vec::with_capacity(n);
        for _ in 0..n {
            trees.push(GhTree::read_from(&mut r).map_err(err)?);
        }
        let p = trees[0].feature_gains.len();
        if trees.iter().any(|t| t.feature_gains.len() != p) {
            return Err(ModelError::InvalidData(
                "trees disagree on their feature count".into(),
            ));
        }
        let mut out = XgbRegressor::new(n, 0, learning_rate.max(1e-3), 0.0, 1.0);
        out.base = base;
        out.learning_rate = learning_rate;
        out.trees = trees;
        Ok(out)
    }

    /// Normalized split-gain feature importances.
    pub fn feature_importances(&self) -> Result<Vec<f64>> {
        if self.trees.is_empty() {
            return Err(ModelError::NotFitted);
        }
        let p = self.trees[0].feature_gains.len();
        let mut gains = vec![0.0; p];
        for t in &self.trees {
            for (g, &tg) in gains.iter_mut().zip(&t.feature_gains) {
                *g += tg;
            }
        }
        let total: f64 = gains.iter().sum();
        if total > 0.0 {
            for g in gains.iter_mut() {
                *g /= total;
            }
        }
        Ok(gains)
    }

    /// Fits the ensemble, drawing each round's row subsample from `rng`.
    /// Every round refits rows of the same design, so its features are
    /// sorted once here rather than once per tree.
    fn boost(&mut self, x: &Matrix, y: &[f64], rng: &mut StdRng) {
        let n = x.rows();
        self.base = ff_linalg::vector::mean(y);
        let mut pred = vec![self.base; n];
        let cfg = GhTreeConfig {
            max_depth: self.max_depth,
            min_child_weight: 1.0,
            lambda: self.reg_lambda,
            feature_subsample: 1.0,
            random_thresholds: false,
        };
        let design = SortedDesign::new(x);
        self.trees.clear();
        let hess = vec![1.0; n];
        for _ in 0..self.n_estimators {
            let grad: Vec<f64> = pred.iter().zip(y).map(|(&p, &t)| p - t).collect();
            // Ascending, as `GhTree::fit_sorted` requires.
            let rows: Vec<usize> = if self.subsample < 1.0 {
                (0..n)
                    .filter(|_| rng.gen::<f64>() < self.subsample)
                    .collect()
            } else {
                (0..n).collect()
            };
            let rows = if rows.len() < 2 {
                (0..n).collect()
            } else {
                rows
            };
            let tree = GhTree::fit_sorted(&design, &grad, &hess, &rows, &cfg, rng);
            for (p, i) in pred.iter_mut().zip(0..n) {
                *p += self.learning_rate * tree.predict_row(x.row(i));
            }
            self.trees.push(tree);
        }
    }
}

impl Regressor for XgbRegressor {
    fn to_blob(&self) -> Option<Vec<u8>> {
        self.to_bytes().ok()
    }

    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        validate_xy(x, y)?;
        self.boost(x, y, &mut StdRng::seed_from_u64(self.seed));
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        if self.trees.is_empty() {
            return Err(ModelError::NotFitted);
        }
        // Every tree has this width (`fit` and `from_bytes` see to it), and
        // a split on a feature past the row's end would panic.
        let p = self.trees[0].feature_gains.len();
        if x.cols() != p {
            return Err(ModelError::InvalidData(format!(
                "{} cols vs trees over {p} features",
                x.cols()
            )));
        }
        Ok((0..x.rows())
            .map(|i| {
                let row = x.row(i);
                self.base
                    + self.learning_rate
                        * self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>()
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mse;

    fn friedman_like(n: usize) -> (Matrix, Vec<f64>) {
        let mut state = 12u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a = rnd();
            let b = rnd();
            let c = rnd();
            rows.push(vec![a, b, c]);
            y.push(10.0 * (a * b).sin() + 5.0 * c * c + 0.05 * (rnd() - 0.5));
        }
        (Matrix::from_fn(n, 3, |i, j| rows[i][j]), y)
    }

    #[test]
    fn boosting_reduces_error_with_more_rounds() {
        let (x, y) = friedman_like(300);
        let mut weak = XgbRegressor::new(2, 3, 0.3, 1.0, 1.0);
        let mut strong = XgbRegressor::new(40, 3, 0.3, 1.0, 1.0);
        weak.fit(&x, &y).unwrap();
        strong.fit(&x, &y).unwrap();
        let e_weak = mse(&y, &weak.predict(&x).unwrap());
        let e_strong = mse(&y, &strong.predict(&x).unwrap());
        assert!(e_strong < e_weak * 0.5, "weak {e_weak} strong {e_strong}");
    }

    #[test]
    fn fits_nonlinear_function_well() {
        let (x, y) = friedman_like(400);
        let mut m = XgbRegressor::new(60, 4, 0.2, 1.0, 1.0);
        m.fit(&x, &y).unwrap();
        let err = mse(&y, &m.predict(&x).unwrap());
        let var = ff_linalg::vector::variance(&y);
        assert!(err < 0.1 * var, "mse {err} vs var {var}");
    }

    #[test]
    fn subsample_still_learns() {
        let (x, y) = friedman_like(400);
        let mut m = XgbRegressor::new(60, 4, 0.2, 1.0, 0.5);
        m.fit(&x, &y).unwrap();
        let err = mse(&y, &m.predict(&x).unwrap());
        let var = ff_linalg::vector::variance(&y);
        assert!(err < 0.3 * var, "mse {err} vs var {var}");
    }

    #[test]
    fn single_round_predicts_near_mean_plus_one_tree() {
        let (x, y) = friedman_like(100);
        let mut m = XgbRegressor::new(1, 2, 1.0, 1.0, 1.0);
        m.fit(&x, &y).unwrap();
        let pred = m.predict(&x).unwrap();
        assert!(pred.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn importances_are_normalized() {
        let (x, y) = friedman_like(200);
        let mut m = XgbRegressor::new(20, 3, 0.3, 1.0, 1.0);
        m.fit(&x, &y).unwrap();
        let imp = m.feature_importances().unwrap();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn not_fitted_errors() {
        let m = XgbRegressor::new(5, 3, 0.1, 1.0, 1.0);
        assert!(m.predict(&Matrix::zeros(1, 3)).is_err());
        assert!(m.to_bytes().is_err());
    }

    #[test]
    fn serialization_roundtrip_preserves_predictions() {
        let (x, y) = friedman_like(200);
        let mut m = XgbRegressor::new(15, 4, 0.3, 1.0, 0.8);
        m.fit(&x, &y).unwrap();
        let blob = m.to_bytes().unwrap();
        let restored = XgbRegressor::from_bytes(&blob).unwrap();
        assert_eq!(m.predict(&x).unwrap(), restored.predict(&x).unwrap());
    }

    #[test]
    fn corrupt_blobs_are_rejected_gracefully() {
        let (x, y) = friedman_like(60);
        let mut m = XgbRegressor::new(5, 3, 0.3, 1.0, 1.0);
        m.fit(&x, &y).unwrap();
        let blob = m.to_bytes().unwrap();
        // Truncations at every prefix must error, never panic.
        for cut in 0..blob.len().min(200) {
            assert!(XgbRegressor::from_bytes(&blob[..cut]).is_err(), "cut {cut}");
        }
        // A wrong version byte is rejected.
        let mut bad = blob.clone();
        bad[0] = 99;
        assert!(XgbRegressor::from_bytes(&bad).is_err());
    }

    /// The boosting loop before the ensemble shared one presort: each
    /// round's [`GhTree::fit`] sorts that round's rows again.
    fn per_round_sort_trees(
        m: &XgbRegressor,
        x: &Matrix,
        y: &[f64],
        rng: &mut StdRng,
    ) -> Vec<GhTree> {
        let n = x.rows();
        let mut pred = vec![ff_linalg::vector::mean(y); n];
        let cfg = GhTreeConfig {
            max_depth: m.max_depth,
            min_child_weight: 1.0,
            lambda: m.reg_lambda,
            feature_subsample: 1.0,
            random_thresholds: false,
        };
        let hess = vec![1.0; n];
        let mut trees = Vec::new();
        for _ in 0..m.n_estimators {
            let grad: Vec<f64> = pred.iter().zip(y).map(|(&p, &t)| p - t).collect();
            let rows: Vec<usize> = if m.subsample < 1.0 {
                (0..n).filter(|_| rng.gen::<f64>() < m.subsample).collect()
            } else {
                (0..n).collect()
            };
            let rows = if rows.len() < 2 {
                (0..n).collect()
            } else {
                rows
            };
            let tree = GhTree::fit(x, &grad, &hess, &rows, &cfg, rng);
            for (p, i) in pred.iter_mut().zip(0..n) {
                *p += m.learning_rate * tree.predict_row(x.row(i));
            }
            trees.push(tree);
        }
        trees
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]

        /// Sorting the design once per ensemble grows every round's tree
        /// bit-identical to sorting each round's rows again, and draws the
        /// same random numbers, with all rows and with a row subsample.
        #[test]
        fn xgb_matches_the_per_round_sort(
            seed in proptest::prelude::any::<u64>(),
            n in 2usize..80,
            p in 1usize..6,
            n_estimators in 1usize..10,
            max_depth in 0usize..7,
            lambda in 0usize..2,
            subsample in 0.05f64..1.0,
        ) {
            let mut data = StdRng::seed_from_u64(seed);
            let x = crate::tree::tests::tie_heavy(n, p, &mut data);
            let y: Vec<f64> = (0..n).map(|_| data.gen::<f64>() * 6.0 - 3.0).collect();
            for subsample in [1.0, subsample] {
                let mut m = XgbRegressor::new(n_estimators, max_depth, 0.3, lambda as f64, subsample);
                let mut r1 = StdRng::seed_from_u64(seed ^ 7);
                let mut r2 = r1.clone();
                m.boost(&x, &y, &mut r1);
                let slow = per_round_sort_trees(&m, &x, &y, &mut r2);
                let bits = |trees: &[GhTree]| -> Vec<Vec<u8>> {
                    trees.iter().map(crate::tree::tests::gh_bits).collect()
                };
                proptest::prop_assert_eq!(bits(&m.trees), bits(&slow), "subsample {}", subsample);
                proptest::prop_assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
            }
        }
    }
}
