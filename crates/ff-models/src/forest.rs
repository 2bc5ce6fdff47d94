//! Random forests and Extra-Trees.
//!
//! [`RandomForestRegressor`] provides the impurity-based feature importances
//! that drive the paper's feature selection (§4.2.2: keep features covering
//! 95% of cumulative importance). [`RandomForestClassifier`] is the winning
//! meta-model of Table 4; [`ExtraTreesClassifier`] and
//! [`ExtraTreesRegressor`] are additional zoo members.

use crate::tree::{ClassificationTree, ClsTreeConfig, GhTree, GhTreeConfig};
use crate::{validate_xy, Classifier, ModelError, Regressor, Result};
use ff_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-tree RNG seed: a splitmix64 hash of the forest seed and the tree
/// index. Each tree owns an independent stream, so trees can be fitted in
/// any order (or in parallel) with a thread-count-independent result.
fn derive_tree_seed(seed: u64, tree: u64) -> u64 {
    let mut z = seed ^ tree.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Bagged regression forest.
#[derive(Debug, Clone)]
pub struct RandomForestRegressor {
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum depth per tree.
    pub max_depth: usize,
    /// Fraction of features per split.
    pub feature_subsample: f64,
    /// Use bootstrap sampling of rows.
    pub bootstrap: bool,
    /// Extra-Trees random thresholds.
    pub random_thresholds: bool,
    /// RNG seed.
    pub seed: u64,
    trees: Vec<GhTree>,
    importances: Vec<f64>,
}

impl RandomForestRegressor {
    /// Creates a forest with sensible defaults (100 trees, depth 8,
    /// 1/3 feature subsample — the scikit-learn regression convention).
    pub fn new(n_trees: usize, max_depth: usize, seed: u64) -> Self {
        RandomForestRegressor {
            n_trees,
            max_depth,
            feature_subsample: 1.0 / 3.0,
            bootstrap: true,
            random_thresholds: false,
            seed,
            trees: Vec::new(),
            importances: Vec::new(),
        }
    }

    /// Extra-Trees variant: random thresholds, no bootstrap.
    pub fn extra_trees(n_trees: usize, max_depth: usize, seed: u64) -> Self {
        RandomForestRegressor {
            bootstrap: false,
            random_thresholds: true,
            ..Self::new(n_trees, max_depth, seed)
        }
    }

    /// Normalized impurity-based feature importances (sum to 1 when any
    /// split occurred).
    pub fn feature_importances(&self) -> Result<&[f64]> {
        if self.trees.is_empty() {
            return Err(ModelError::NotFitted);
        }
        Ok(&self.importances)
    }
}

impl Regressor for RandomForestRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        validate_xy(x, y)?;
        let n = x.rows();
        let grad: Vec<f64> = y.iter().map(|&v| -v).collect();
        let hess = vec![1.0; n];
        let cfg = GhTreeConfig {
            max_depth: self.max_depth,
            min_child_weight: 1.0,
            lambda: 1e-6,
            feature_subsample: self.feature_subsample,
            random_thresholds: self.random_thresholds,
        };
        // Each tree gets its own derived RNG stream, so the fits are
        // independent tasks; ff-par returns them in tree order and the
        // forest is identical at every thread count.
        let (seed, bootstrap) = (self.seed, self.bootstrap);
        self.trees = ff_par::run_indexed(self.n_trees, |t| {
            let mut rng = StdRng::seed_from_u64(derive_tree_seed(seed, t as u64));
            let rows: Vec<usize> = if bootstrap {
                (0..n).map(|_| rng.gen_range(0..n)).collect()
            } else {
                (0..n).collect()
            };
            GhTree::fit(x, &grad, &hess, &rows, &cfg, &mut rng)
        });
        let mut gains = vec![0.0; x.cols()];
        for tree in &self.trees {
            for (g, t) in gains.iter_mut().zip(&tree.feature_gains) {
                *g += t;
            }
        }
        let total: f64 = gains.iter().sum();
        self.importances = if total > 0.0 {
            gains.iter().map(|g| g / total).collect()
        } else {
            vec![0.0; x.cols()]
        };
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        if self.trees.is_empty() {
            return Err(ModelError::NotFitted);
        }
        Ok((0..x.rows())
            .map(|i| {
                let row = x.row(i);
                self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>() / self.trees.len() as f64
            })
            .collect())
    }
}

/// Bagged classification forest (Gini trees, majority soft-vote).
#[derive(Debug, Clone)]
pub struct RandomForestClassifier {
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum depth per tree.
    pub max_depth: usize,
    /// Fraction of features per split (√p convention ≈ use `None` to auto).
    pub feature_subsample: Option<f64>,
    /// Bootstrap rows.
    pub bootstrap: bool,
    /// Extra-Trees random thresholds.
    pub random_thresholds: bool,
    /// RNG seed.
    pub seed: u64,
    trees: Vec<ClassificationTree>,
    n_classes: usize,
    importances: Vec<f64>,
}

impl RandomForestClassifier {
    /// Standard random forest.
    pub fn new(n_trees: usize, max_depth: usize, seed: u64) -> Self {
        RandomForestClassifier {
            n_trees,
            max_depth,
            feature_subsample: None,
            bootstrap: true,
            random_thresholds: false,
            seed,
            trees: Vec::new(),
            n_classes: 0,
            importances: Vec::new(),
        }
    }

    /// Extra-Trees variant.
    pub fn extra_trees(n_trees: usize, max_depth: usize, seed: u64) -> Self {
        RandomForestClassifier {
            bootstrap: false,
            random_thresholds: true,
            ..Self::new(n_trees, max_depth, seed)
        }
    }

    /// Normalized feature importances.
    pub fn feature_importances(&self) -> Result<&[f64]> {
        if self.trees.is_empty() {
            return Err(ModelError::NotFitted);
        }
        Ok(&self.importances)
    }
}

impl Classifier for RandomForestClassifier {
    fn fit(&mut self, x: &Matrix, labels: &[usize], n_classes: usize) -> Result<()> {
        if x.rows() == 0 || x.rows() != labels.len() {
            return Err(ModelError::InvalidData("bad shapes".into()));
        }
        if labels.iter().any(|&l| l >= n_classes) {
            return Err(ModelError::InvalidData("label out of range".into()));
        }
        let n = x.rows();
        let p = x.cols();
        let subsample = self
            .feature_subsample
            .unwrap_or_else(|| ((p as f64).sqrt() / p as f64).clamp(0.05, 1.0));
        let cfg = ClsTreeConfig {
            max_depth: self.max_depth,
            min_samples_leaf: 1,
            feature_subsample: subsample,
            random_thresholds: self.random_thresholds,
        };
        self.n_classes = n_classes;
        // Independent per-tree RNG streams; see the regressor fit above.
        let (seed, bootstrap) = (self.seed, self.bootstrap);
        self.trees = ff_par::run_indexed(self.n_trees, |t| {
            let mut rng = StdRng::seed_from_u64(derive_tree_seed(seed, t as u64));
            let rows: Vec<usize> = if bootstrap {
                (0..n).map(|_| rng.gen_range(0..n)).collect()
            } else {
                (0..n).collect()
            };
            ClassificationTree::fit(x, labels, n_classes, &rows, &cfg, &mut rng)
        });
        let mut gains = vec![0.0; p];
        for tree in &self.trees {
            for (g, t) in gains.iter_mut().zip(&tree.feature_gains) {
                *g += t;
            }
        }
        let total: f64 = gains.iter().sum();
        self.importances = if total > 0.0 {
            gains.iter().map(|g| g / total).collect()
        } else {
            vec![0.0; p]
        };
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Matrix> {
        if self.trees.is_empty() {
            return Err(ModelError::NotFitted);
        }
        let mut out = Matrix::zeros(x.rows(), self.n_classes);
        for i in 0..x.rows() {
            let (row, acc) = (x.row(i), out.row_mut(i));
            for tree in &self.trees {
                for (a, &p) in acc.iter_mut().zip(tree.predict_row(row)) {
                    *a += p;
                }
            }
            let sum: f64 = acc.iter().sum();
            if sum > 0.0 {
                for a in acc.iter_mut() {
                    *a /= sum;
                }
            }
        }
        Ok(out)
    }
}

/// Extra-Trees classifier: a [`RandomForestClassifier`] with random
/// thresholds and no bootstrap, packaged as its own type for the Table 4 zoo.
pub type ExtraTreesClassifier = RandomForestClassifier;

/// Extra-Trees regressor alias.
pub type ExtraTreesRegressor = RandomForestRegressor;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, mse};

    fn regression_data(n: usize) -> (Matrix, Vec<f64>) {
        let mut state = 2u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 30) as f64) - 1.0
        };
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a = rnd();
            let b = rnd();
            let junk = rnd();
            rows.push(vec![a, b, junk]);
            y.push(if a > 0.0 { 5.0 } else { 0.0 } + b + 0.05 * rnd());
        }
        (Matrix::from_fn(n, 3, |i, j| rows[i][j]), y)
    }

    #[test]
    fn forest_fits_nonlinear_signal() {
        let (x, y) = regression_data(300);
        let mut f = RandomForestRegressor::new(30, 6, 3);
        f.feature_subsample = 1.0;
        f.fit(&x, &y).unwrap();
        let pred = f.predict(&x).unwrap();
        assert!(mse(&y, &pred) < 1.0, "mse {}", mse(&y, &pred));
    }

    #[test]
    fn importances_rank_signal_over_junk() {
        let (x, y) = regression_data(300);
        let mut f = RandomForestRegressor::new(30, 6, 3);
        f.feature_subsample = 1.0;
        f.fit(&x, &y).unwrap();
        let imp = f.feature_importances().unwrap();
        assert!(imp[0] > imp[2] * 5.0, "importances {imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn classifier_learns_separable_data() {
        let n = 200;
        let x = Matrix::from_fn(n, 2, |i, j| {
            if j == 0 {
                (i % 10) as f64
            } else {
                (i / 10) as f64
            }
        });
        let labels: Vec<usize> = (0..n).map(|i| usize::from((i / 10) >= 10)).collect();
        let mut c = RandomForestClassifier::new(20, 8, 5);
        c.fit(&x, &labels, 2).unwrap();
        let pred = c.predict(&x).unwrap();
        assert!(accuracy(&labels, &pred) > 0.95);
    }

    #[test]
    fn proba_rows_sum_to_one() {
        let x = Matrix::from_fn(50, 1, |i, _| i as f64);
        let labels: Vec<usize> = (0..50).map(|i| i % 3).collect();
        let mut c = RandomForestClassifier::new(10, 4, 1);
        c.fit(&x, &labels, 3).unwrap();
        let p = c.predict_proba(&x).unwrap();
        for i in 0..p.rows() {
            let s: f64 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn extra_trees_variants_work() {
        let (x, y) = regression_data(200);
        let mut f = RandomForestRegressor::extra_trees(20, 8, 7);
        f.feature_subsample = 1.0;
        f.fit(&x, &y).unwrap();
        assert!(mse(&y, &f.predict(&x).unwrap()) < 2.0);

        let labels: Vec<usize> = y.iter().map(|&v| usize::from(v > 2.0)).collect();
        let mut c = RandomForestClassifier::extra_trees(20, 8, 7);
        c.fit(&x, &labels, 2).unwrap();
        assert!(accuracy(&labels, &c.predict(&x).unwrap()) > 0.9);
    }

    #[test]
    fn forest_fit_and_predict_are_thread_count_invariant() {
        let (x, y) = regression_data(150);
        let labels: Vec<usize> = y.iter().map(|&v| usize::from(v > 2.0)).collect();
        let run = |threads: usize| {
            ff_par::with_threads(threads, || {
                let mut f = RandomForestRegressor::new(16, 5, 9);
                f.fit(&x, &y).unwrap();
                let pred: Vec<u64> = f.predict(&x).unwrap().iter().map(|v| v.to_bits()).collect();
                let imp: Vec<u64> = f
                    .feature_importances()
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let mut c = RandomForestClassifier::new(16, 5, 9);
                c.fit(&x, &labels, 2).unwrap();
                let proba: Vec<u64> = c
                    .predict_proba(&x)
                    .unwrap()
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                (pred, imp, proba)
            })
        };
        let seq = run(1);
        assert_eq!(run(2), seq);
        assert_eq!(run(8), seq);
    }

    #[test]
    fn invalid_labels_rejected() {
        let x = Matrix::zeros(3, 1);
        let mut c = RandomForestClassifier::new(5, 3, 0);
        assert!(c.fit(&x, &[0, 1, 5], 2).is_err());
    }

    #[test]
    fn not_fitted_errors() {
        let f = RandomForestRegressor::new(5, 3, 0);
        assert!(f.predict(&Matrix::zeros(1, 1)).is_err());
        assert!(f.feature_importances().is_err());
        let c = RandomForestClassifier::new(5, 3, 0);
        assert!(c.predict_proba(&Matrix::zeros(1, 1)).is_err());
    }
}
