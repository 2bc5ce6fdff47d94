//! Boosted multi-class classifiers for the Table 4 meta-model zoo.
//!
//! All four share one softmax gradient-boosting loop (one tree per class
//! per round on the softmax gradients `p − y`, hessians `p(1 − p)`); they
//! differ in the weak learner, which is what gives each library family its
//! characteristic inductive bias:
//!
//! - [`XgbClassifier`] — exact-greedy depth-wise trees, second-order.
//! - [`GradientBoostingClassifier`] — exact-greedy trees, first-order
//!   (classic sklearn-style residual fitting).
//! - [`LightGbmClassifier`] — histogram bins + leaf-wise growth.
//! - [`CatBoostClassifier`] — oblivious (symmetric) trees.

use crate::boosting::histogram::{BinMapper, HistogramTree};
use crate::boosting::oblivious::ObliviousTree;
use crate::tree::{GhTree, GhTreeConfig, SortedDesign};
use crate::{Classifier, ModelError, Result};
use ff_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Weak-learner family used by [`BoostedClassifier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeakLearner {
    /// Exact greedy CART (XGBoost / sklearn style).
    Exact,
    /// Histogram bins with leaf-wise growth (LightGBM style).
    Histogram,
    /// Oblivious symmetric trees (CatBoost style).
    Oblivious,
}

enum FittedTree {
    Exact(GhTree),
    Histogram(HistogramTree),
    Oblivious(ObliviousTree),
}

impl FittedTree {
    fn predict_row(&self, row: &[f64]) -> f64 {
        match self {
            FittedTree::Exact(t) => t.predict_row(row),
            FittedTree::Histogram(t) => t.predict_row(row),
            FittedTree::Oblivious(t) => t.predict_row(row),
        }
    }
}

/// Generic softmax gradient-boosted classifier.
pub struct BoostedClassifier {
    /// Weak learner family.
    pub learner: WeakLearner,
    /// Boosting rounds.
    pub n_rounds: usize,
    /// Tree depth (or `max_leaves = 2^depth` for the leaf-wise learner).
    pub depth: usize,
    /// Shrinkage.
    pub learning_rate: f64,
    /// L2 leaf regularization.
    pub lambda: f64,
    /// Use second-order hessians (false = classic first-order boosting).
    pub second_order: bool,
    /// RNG seed.
    pub seed: u64,
    n_classes: usize,
    base_scores: Vec<f64>,
    /// `trees[round][class]`.
    trees: Vec<Vec<FittedTree>>,
}

impl std::fmt::Debug for BoostedClassifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoostedClassifier")
            .field("learner", &self.learner)
            .field("n_rounds", &self.n_rounds)
            .field("depth", &self.depth)
            .field("fitted_rounds", &self.trees.len())
            .finish()
    }
}

impl BoostedClassifier {
    /// Creates a boosted classifier.
    pub fn new(learner: WeakLearner, n_rounds: usize, depth: usize, learning_rate: f64) -> Self {
        BoostedClassifier {
            learner,
            n_rounds: n_rounds.max(1),
            depth: depth.max(1),
            learning_rate: learning_rate.clamp(1e-3, 1.0),
            lambda: 1.0,
            second_order: true,
            seed: 23,
            n_classes: 0,
            base_scores: Vec::new(),
            trees: Vec::new(),
        }
    }

    fn scores(&self, x: &Matrix) -> Matrix {
        let mut s = Matrix::from_fn(x.rows(), self.n_classes, |_, c| self.base_scores[c]);
        for round in &self.trees {
            for i in 0..x.rows() {
                let row = x.row(i);
                for (c, tree) in round.iter().enumerate() {
                    let v = s.get(i, c) + self.learning_rate * tree.predict_row(row);
                    s.set(i, c, v);
                }
            }
        }
        s
    }

    /// Fits the ensemble on checked inputs with `rng`. Every round refits
    /// all rows of the same design, so the exact learner sorts its
    /// features once here rather than once per tree.
    fn boost(&mut self, x: &Matrix, labels: &[usize], n_classes: usize, rng: &mut StdRng) {
        let n = x.rows();
        self.n_classes = n_classes;
        // Base scores: log class priors.
        let mut counts = vec![1.0; n_classes]; // +1 smoothing
        for &l in labels {
            counts[l] += 1.0;
        }
        let total: f64 = counts.iter().sum();
        self.base_scores = counts.iter().map(|c| (c / total).ln()).collect();
        self.trees.clear();

        let mapper = if self.learner == WeakLearner::Histogram {
            Some(BinMapper::fit(x))
        } else {
            None
        };
        let binned = mapper.as_ref().map(|m| m.quantize(x));
        let design = (self.learner == WeakLearner::Exact).then(|| SortedDesign::new(x));
        let rows: Vec<usize> = (0..n).collect();
        let cfg = GhTreeConfig {
            max_depth: self.depth,
            min_child_weight: 1.0,
            lambda: self.lambda,
            feature_subsample: 1.0,
            random_thresholds: false,
        };

        // Current scores.
        let mut scores = Matrix::from_fn(n, n_classes, |_, c| self.base_scores[c]);
        for _ in 0..self.n_rounds {
            let probs = crate::classifiers::logistic::softmax(&scores);
            let mut round_trees = Vec::with_capacity(n_classes);
            for c in 0..n_classes {
                let grad: Vec<f64> = (0..n)
                    .map(|i| probs.get(i, c) - f64::from(u8::from(labels[i] == c)))
                    .collect();
                let hess: Vec<f64> = if self.second_order {
                    (0..n)
                        .map(|i| (probs.get(i, c) * (1.0 - probs.get(i, c))).max(1e-6))
                        .collect()
                } else {
                    vec![1.0; n]
                };
                let tree = match self.learner {
                    WeakLearner::Exact => FittedTree::Exact(GhTree::fit_sorted(
                        design.as_ref().expect("the exact learner sorts its design"),
                        &grad,
                        &hess,
                        &rows,
                        &cfg,
                        rng,
                    )),
                    WeakLearner::Histogram => FittedTree::Histogram(HistogramTree::fit(
                        binned.as_ref().unwrap(),
                        mapper.as_ref().unwrap(),
                        &grad,
                        &hess,
                        &rows,
                        1 << self.depth.min(6),
                        self.lambda,
                        1.0,
                    )),
                    WeakLearner::Oblivious => FittedTree::Oblivious(ObliviousTree::fit(
                        x,
                        &grad,
                        &hess,
                        &rows,
                        self.depth.min(8),
                        self.lambda,
                        8,
                    )),
                };
                for i in 0..n {
                    let v = scores.get(i, c) + self.learning_rate * tree.predict_row(x.row(i));
                    scores.set(i, c, v);
                }
                round_trees.push(tree);
            }
            self.trees.push(round_trees);
        }
    }
}

impl Classifier for BoostedClassifier {
    fn fit(&mut self, x: &Matrix, labels: &[usize], n_classes: usize) -> Result<()> {
        if x.rows() == 0 || x.rows() != labels.len() {
            return Err(ModelError::InvalidData("bad shapes".into()));
        }
        if labels.iter().any(|&l| l >= n_classes) {
            return Err(ModelError::InvalidData("label out of range".into()));
        }
        self.boost(x, labels, n_classes, &mut StdRng::seed_from_u64(self.seed));
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Matrix> {
        if self.trees.is_empty() {
            return Err(ModelError::NotFitted);
        }
        Ok(crate::classifiers::logistic::softmax(&self.scores(x)))
    }
}

/// XGBoost-style classifier: exact greedy trees, second-order.
pub fn xgb_classifier(n_rounds: usize, depth: usize, learning_rate: f64) -> BoostedClassifier {
    BoostedClassifier::new(WeakLearner::Exact, n_rounds, depth, learning_rate)
}

/// Classic gradient boosting: exact greedy trees, first-order, no leaf L2.
pub fn gradient_boosting_classifier(
    n_rounds: usize,
    depth: usize,
    learning_rate: f64,
) -> BoostedClassifier {
    let mut c = BoostedClassifier::new(WeakLearner::Exact, n_rounds, depth, learning_rate);
    c.second_order = false;
    c.lambda = 0.0;
    c
}

/// LightGBM-style classifier: histogram bins, leaf-wise growth.
pub fn lightgbm_classifier(n_rounds: usize, depth: usize, learning_rate: f64) -> BoostedClassifier {
    BoostedClassifier::new(WeakLearner::Histogram, n_rounds, depth, learning_rate)
}

/// CatBoost-style classifier: oblivious trees.
pub fn catboost_classifier(n_rounds: usize, depth: usize, learning_rate: f64) -> BoostedClassifier {
    BoostedClassifier::new(WeakLearner::Oblivious, n_rounds, depth, learning_rate)
}

/// Convenience aliases matching the Table 4 row names.
pub type XgbClassifier = BoostedClassifier;
/// See [`gradient_boosting_classifier`].
pub type GradientBoostingClassifier = BoostedClassifier;
/// See [`lightgbm_classifier`].
pub type LightGbmClassifier = BoostedClassifier;
/// See [`catboost_classifier`].
pub type CatBoostClassifier = BoostedClassifier;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    fn clusters() -> (Matrix, Vec<usize>) {
        let n_per = 40;
        let centers = [(-4.0, 0.0), (4.0, 0.0), (0.0, 5.0)];
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut state = 6u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 30) as f64) - 1.0
        };
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..n_per {
                rows.push(vec![cx + rnd(), cy + rnd()]);
                labels.push(c);
            }
        }
        (Matrix::from_fn(rows.len(), 2, |i, j| rows[i][j]), labels)
    }

    fn check_learner(mut clf: BoostedClassifier, min_acc: f64) {
        let (x, labels) = clusters();
        clf.fit(&x, &labels, 3).unwrap();
        let pred = clf.predict(&x).unwrap();
        let acc = accuracy(&labels, &pred);
        assert!(acc >= min_acc, "{:?} accuracy {acc}", clf);
        let proba = clf.predict_proba(&x).unwrap();
        for i in 0..proba.rows() {
            let s: f64 = proba.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn xgb_classifier_separates_clusters() {
        check_learner(xgb_classifier(20, 3, 0.3), 0.97);
    }

    #[test]
    fn gradient_boosting_separates_clusters() {
        check_learner(gradient_boosting_classifier(20, 3, 0.3), 0.97);
    }

    #[test]
    fn lightgbm_separates_clusters() {
        check_learner(lightgbm_classifier(20, 3, 0.3), 0.95);
    }

    #[test]
    fn catboost_separates_clusters() {
        check_learner(catboost_classifier(20, 3, 0.3), 0.95);
    }

    #[test]
    fn more_rounds_increase_confidence() {
        let (x, labels) = clusters();
        let mut few = xgb_classifier(2, 3, 0.3);
        let mut many = xgb_classifier(30, 3, 0.3);
        few.fit(&x, &labels, 3).unwrap();
        many.fit(&x, &labels, 3).unwrap();
        let conf = |p: &Matrix| -> f64 {
            (0..p.rows())
                .map(|i| p.row(i).iter().cloned().fold(0.0, f64::max))
                .sum::<f64>()
                / p.rows() as f64
        };
        let c_few = conf(&few.predict_proba(&x).unwrap());
        let c_many = conf(&many.predict_proba(&x).unwrap());
        assert!(c_many > c_few, "few {c_few} many {c_many}");
    }

    #[test]
    fn not_fitted_errors() {
        let clf = xgb_classifier(5, 3, 0.3);
        assert!(clf.predict_proba(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn label_out_of_range_rejected() {
        let x = Matrix::zeros(2, 1);
        let mut clf = xgb_classifier(2, 2, 0.3);
        assert!(clf.fit(&x, &[0, 3], 2).is_err());
    }

    /// The exact learner's boosting loop before the ensemble shared one
    /// presort: each tree's [`GhTree::fit`] sorts the rows again.
    fn per_round_sort_trees(
        clf: &BoostedClassifier,
        x: &Matrix,
        labels: &[usize],
        n_classes: usize,
        rng: &mut StdRng,
    ) -> Vec<GhTree> {
        let n = x.rows();
        let mut counts = vec![1.0; n_classes];
        for &l in labels {
            counts[l] += 1.0;
        }
        let total: f64 = counts.iter().sum();
        let base: Vec<f64> = counts.iter().map(|c| (c / total).ln()).collect();
        let rows: Vec<usize> = (0..n).collect();
        let cfg = GhTreeConfig {
            max_depth: clf.depth,
            min_child_weight: 1.0,
            lambda: clf.lambda,
            feature_subsample: 1.0,
            random_thresholds: false,
        };
        let mut scores = Matrix::from_fn(n, n_classes, |_, c| base[c]);
        let mut trees = Vec::new();
        for _ in 0..clf.n_rounds {
            let probs = crate::classifiers::logistic::softmax(&scores);
            for c in 0..n_classes {
                let grad: Vec<f64> = (0..n)
                    .map(|i| probs.get(i, c) - f64::from(u8::from(labels[i] == c)))
                    .collect();
                let hess: Vec<f64> = if clf.second_order {
                    (0..n)
                        .map(|i| (probs.get(i, c) * (1.0 - probs.get(i, c))).max(1e-6))
                        .collect()
                } else {
                    vec![1.0; n]
                };
                let tree = GhTree::fit(x, &grad, &hess, &rows, &cfg, rng);
                for i in 0..n {
                    let v = scores.get(i, c) + clf.learning_rate * tree.predict_row(x.row(i));
                    scores.set(i, c, v);
                }
                trees.push(tree);
            }
        }
        trees
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]

        /// The exact learner's trees, first- and second-order, are
        /// bit-identical to sorting the rows again for every tree, and the
        /// fit draws the same random numbers.
        #[test]
        fn exact_classifier_matches_the_per_round_sort(
            seed in proptest::prelude::any::<u64>(),
            n in 2usize..60,
            p in 1usize..5,
            n_classes in 2usize..4,
            n_rounds in 1usize..6,
            depth in 1usize..6,
            second_order in proptest::prelude::any::<bool>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut data = StdRng::seed_from_u64(seed);
            let x = crate::tree::tests::tie_heavy(n, p, &mut data);
            let labels: Vec<usize> = (0..n).map(|_| data.gen_range(0..n_classes)).collect();
            let mut clf = if second_order {
                xgb_classifier(n_rounds, depth, 0.3)
            } else {
                gradient_boosting_classifier(n_rounds, depth, 0.3)
            };
            let mut r1 = StdRng::seed_from_u64(seed ^ 7);
            let mut r2 = r1.clone();
            clf.boost(&x, &labels, n_classes, &mut r1);
            let slow = per_round_sort_trees(&clf, &x, &labels, n_classes, &mut r2);
            let fast: Vec<Vec<u8>> = clf
                .trees
                .iter()
                .flatten()
                .map(|t| match t {
                    FittedTree::Exact(t) => crate::tree::tests::gh_bits(t),
                    _ => unreachable!("the exact learner grows exact trees"),
                })
                .collect();
            let slow: Vec<Vec<u8>> = slow.iter().map(crate::tree::tests::gh_bits).collect();
            proptest::prop_assert_eq!(fast, slow);
            proptest::prop_assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        }
    }
}
