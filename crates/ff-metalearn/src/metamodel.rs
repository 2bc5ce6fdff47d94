//! The meta-model: recommends forecasting algorithms from aggregated
//! meta-features, and reproduces the Table 4 classifier comparison.

use crate::kb::KnowledgeBase;
use ff_linalg::Matrix;
use ff_models::boosting::clf::{
    catboost_classifier, gradient_boosting_classifier, lightgbm_classifier, xgb_classifier,
};
use ff_models::classifiers::logistic::LogisticRegression;
use ff_models::classifiers::mlp::MlpClassifier;
use ff_models::forest::RandomForestClassifier;
use ff_models::metrics::{f1_macro, mrr_at_k, rank_classes};
use ff_models::zoo::AlgorithmKind;
use ff_models::{Classifier, ModelError, Result};

/// The classifier families compared in Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaClassifierKind {
    /// XGBClassifier.
    Xgb,
    /// Multinomial logistic regression.
    Logistic,
    /// Classic gradient boosting.
    GradientBoosting,
    /// Random forest (the paper's winner).
    RandomForest,
    /// CatBoost-style oblivious-tree boosting.
    CatBoost,
    /// LightGBM-style histogram boosting.
    LightGbm,
    /// Extra-Trees.
    ExtraTrees,
    /// MLP.
    Mlp,
}

impl MetaClassifierKind {
    /// All families, in Table 4 row order.
    pub const ALL: [MetaClassifierKind; 8] = [
        MetaClassifierKind::Xgb,
        MetaClassifierKind::Logistic,
        MetaClassifierKind::GradientBoosting,
        MetaClassifierKind::RandomForest,
        MetaClassifierKind::CatBoost,
        MetaClassifierKind::LightGbm,
        MetaClassifierKind::ExtraTrees,
        MetaClassifierKind::Mlp,
    ];

    /// Table 4 display name.
    pub fn name(&self) -> &'static str {
        match self {
            MetaClassifierKind::Xgb => "XGBClassifier",
            MetaClassifierKind::Logistic => "Logistic Regression",
            MetaClassifierKind::GradientBoosting => "Gradient Boosting",
            MetaClassifierKind::RandomForest => "Random Forest",
            MetaClassifierKind::CatBoost => "CatBoost",
            MetaClassifierKind::LightGbm => "LightGBM",
            MetaClassifierKind::ExtraTrees => "Extra Trees",
            MetaClassifierKind::Mlp => "MLPClassifier",
        }
    }

    /// Instantiates the classifier with KB-scale defaults.
    pub fn build(&self, seed: u64) -> Box<dyn Classifier + Send> {
        match self {
            MetaClassifierKind::Xgb => Box::new(xgb_classifier(30, 3, 0.3)),
            MetaClassifierKind::Logistic => Box::new(LogisticRegression::new(1.0)),
            MetaClassifierKind::GradientBoosting => {
                Box::new(gradient_boosting_classifier(30, 3, 0.3))
            }
            MetaClassifierKind::RandomForest => Box::new(RandomForestClassifier::new(60, 10, seed)),
            MetaClassifierKind::CatBoost => Box::new(catboost_classifier(30, 4, 0.3)),
            MetaClassifierKind::LightGbm => Box::new(lightgbm_classifier(30, 4, 0.3)),
            MetaClassifierKind::ExtraTrees => {
                Box::new(RandomForestClassifier::extra_trees(60, 10, seed))
            }
            MetaClassifierKind::Mlp => Box::new(MlpClassifier::new(vec![64, 32], 300, seed)),
        }
    }

    /// Hyperparameter candidates for the Table 4 protocol ("hyperparameter
    /// tuning was performed using Random Search on the validation set"):
    /// three settings per family, spanning capacity.
    pub fn candidates(&self, seed: u64) -> Vec<Box<dyn Classifier + Send>> {
        match self {
            MetaClassifierKind::Xgb => vec![
                Box::new(xgb_classifier(20, 2, 0.3)),
                Box::new(xgb_classifier(30, 3, 0.3)),
                Box::new(xgb_classifier(60, 4, 0.1)),
            ],
            MetaClassifierKind::Logistic => vec![
                Box::new(LogisticRegression::new(0.1)),
                Box::new(LogisticRegression::new(1.0)),
                Box::new(LogisticRegression::new(10.0)),
            ],
            MetaClassifierKind::GradientBoosting => vec![
                Box::new(gradient_boosting_classifier(20, 2, 0.3)),
                Box::new(gradient_boosting_classifier(30, 3, 0.3)),
                Box::new(gradient_boosting_classifier(60, 4, 0.1)),
            ],
            MetaClassifierKind::RandomForest => vec![
                Box::new(RandomForestClassifier::new(40, 8, seed)),
                Box::new(RandomForestClassifier::new(60, 10, seed)),
                Box::new(RandomForestClassifier::new(120, 14, seed)),
            ],
            MetaClassifierKind::CatBoost => vec![
                Box::new(catboost_classifier(20, 3, 0.3)),
                Box::new(catboost_classifier(30, 4, 0.3)),
                Box::new(catboost_classifier(60, 5, 0.1)),
            ],
            MetaClassifierKind::LightGbm => vec![
                Box::new(lightgbm_classifier(20, 3, 0.3)),
                Box::new(lightgbm_classifier(30, 4, 0.3)),
                Box::new(lightgbm_classifier(60, 5, 0.1)),
            ],
            MetaClassifierKind::ExtraTrees => vec![
                Box::new(RandomForestClassifier::extra_trees(40, 8, seed)),
                Box::new(RandomForestClassifier::extra_trees(60, 10, seed)),
                Box::new(RandomForestClassifier::extra_trees(120, 14, seed)),
            ],
            MetaClassifierKind::Mlp => vec![
                Box::new(MlpClassifier::new(vec![32], 200, seed)),
                Box::new(MlpClassifier::new(vec![64, 32], 300, seed)),
                Box::new(MlpClassifier::new(vec![128, 64], 500, seed)),
            ],
        }
    }
}

/// The trained meta-model: maps a global meta-feature vector to a ranked
/// list of forecasting algorithms.
pub struct MetaModel {
    clf: Box<dyn Classifier + Send>,
    n_classes: usize,
}

impl std::fmt::Debug for MetaModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetaModel")
            .field("n_classes", &self.n_classes)
            .finish()
    }
}

impl MetaModel {
    /// Trains the given classifier family on the knowledge base.
    pub fn train(kb: &KnowledgeBase, kind: MetaClassifierKind, seed: u64) -> Result<MetaModel> {
        if kb.is_empty() {
            return Err(ModelError::InvalidData("empty knowledge base".into()));
        }
        let x = kb_matrix(kb);
        let labels = kb.labels();
        let n_classes = AlgorithmKind::builtin().len();
        let mut clf = kind.build(seed);
        clf.fit(&x, &labels, n_classes)?;
        Ok(MetaModel { clf, n_classes })
    }

    /// Recommends the top-K algorithms for a global meta-feature vector
    /// (K = 3 in the paper).
    pub fn recommend(&self, features: &[f64], k: usize) -> Result<Vec<AlgorithmKind>> {
        let x = Matrix::from_vec(1, features.len(), features.to_vec());
        let probs = self.clf.predict_proba(&x)?;
        let ranking = rank_classes(probs.row(0));
        Ok(ranking
            .into_iter()
            .take(k.min(self.n_classes))
            .filter_map(AlgorithmKind::from_index)
            .collect())
    }
}

/// One Table 4 evaluation row.
#[derive(Debug, Clone)]
pub struct ZooResult {
    /// Classifier family.
    pub kind: MetaClassifierKind,
    /// Mean Reciprocal Rank at K = 3.
    pub mrr3: f64,
    /// Macro F1 of the top-1 prediction.
    pub f1: f64,
}

/// Reproduces Table 4: trains each classifier family on an 80/20 KB split,
/// tunes each family's hyperparameters on the validation part (the paper's
/// protocol: "hyperparameter tuning was performed using Random Search on
/// the validation set"), and reports the tuned MRR@3 and macro-F1.
pub fn evaluate_zoo(kb: &KnowledgeBase, seed: u64) -> Result<Vec<ZooResult>> {
    let (train_kb, valid_kb) = split_kb(kb, 0.8, seed);
    if train_kb.is_empty() || valid_kb.is_empty() {
        return Err(ModelError::InvalidData("KB too small to split".into()));
    }
    let x_valid = kb_matrix(&valid_kb);
    let y_valid = valid_kb.labels();
    let n_classes = AlgorithmKind::builtin().len();
    let x_train = kb_matrix(&train_kb);
    let y_train = train_kb.labels();
    let mut out = Vec::new();
    for kind in MetaClassifierKind::ALL {
        let mut best: Option<ZooResult> = None;
        for mut clf in kind.candidates(seed) {
            clf.fit(&x_train, &y_train, n_classes)?;
            let probs = clf.predict_proba(&x_valid)?;
            let rankings: Vec<Vec<usize>> = (0..probs.rows())
                .map(|i| rank_classes(probs.row(i)))
                .collect();
            let top1: Vec<usize> = rankings.iter().map(|r| r[0]).collect();
            let candidate = ZooResult {
                kind,
                mrr3: mrr_at_k(&y_valid, &rankings, 3),
                f1: f1_macro(&y_valid, &top1, n_classes),
            };
            match &best {
                Some(b) if candidate.mrr3 <= b.mrr3 => {}
                _ => best = Some(candidate),
            }
        }
        out.push(best.expect("candidates are non-empty"));
    }
    Ok(out)
}

/// Deterministic shuffled split of the KB into train/validation parts.
pub fn split_kb(
    kb: &KnowledgeBase,
    train_fraction: f64,
    seed: u64,
) -> (KnowledgeBase, KnowledgeBase) {
    let n = kb.len();
    let mut order: Vec<usize> = (0..n).collect();
    // Fisher–Yates with an LCG (deterministic, dependency-free).
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    let cut = ((n as f64) * train_fraction).round() as usize;
    let cut = cut.clamp(1, n.saturating_sub(1).max(1));
    let mut train = KnowledgeBase::default();
    let mut valid = KnowledgeBase::default();
    for (pos, &idx) in order.iter().enumerate() {
        if pos < cut {
            train.records.push(kb.records[idx].clone());
        } else {
            valid.records.push(kb.records[idx].clone());
        }
    }
    (train, valid)
}

fn kb_matrix(kb: &KnowledgeBase) -> Matrix {
    let dim = kb.records[0].features.len();
    Matrix::from_fn(kb.len(), dim, |i, j| {
        let v = kb.records[i].features[j];
        if v.is_finite() {
            v
        } else {
            0.0
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::KbRecord;

    /// A synthetic KB where the label is a deterministic function of the
    /// features — any competent classifier should learn it.
    fn synthetic_kb(n: usize) -> KnowledgeBase {
        let mut kb = KnowledgeBase::default();
        let mut state = 99u64;
        for i in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = ((state >> 33) as f64 / (1u64 << 30) as f64) - 1.0;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = ((state >> 33) as f64 / (1u64 << 30) as f64) - 1.0;
            let label = if a > 0.3 {
                AlgorithmKind::LASSO
            } else if b > 0.0 {
                AlgorithmKind::XGB_REGRESSOR
            } else {
                AlgorithmKind::HUBER_REGRESSOR
            };
            kb.records.push(KbRecord {
                dataset: format!("d{i}"),
                features: vec![a, b, a * b, a - b],
                best_algorithm: label,
                best_mse: 1.0,
                n_clients: 5,
            });
        }
        kb
    }

    #[test]
    fn metamodel_learns_separable_rule() {
        let kb = synthetic_kb(300);
        let mm = MetaModel::train(&kb, MetaClassifierKind::RandomForest, 1).unwrap();
        let rec = mm.recommend(&[0.9, 0.0, 0.0, 0.9], 3).unwrap();
        assert_eq!(rec[0], AlgorithmKind::LASSO);
        assert_eq!(rec.len(), 3);
        let rec = mm.recommend(&[-0.9, 0.8, -0.72, -1.7], 1).unwrap();
        assert_eq!(rec, vec![AlgorithmKind::XGB_REGRESSOR]);
    }

    #[test]
    fn zoo_evaluation_produces_all_rows_with_valid_scores() {
        let kb = synthetic_kb(200);
        let results = evaluate_zoo(&kb, 7).unwrap();
        assert_eq!(results.len(), 8);
        for r in &results {
            assert!((0.0..=1.0).contains(&r.mrr3), "{:?} mrr {}", r.kind, r.mrr3);
            assert!((0.0..=1.0).contains(&r.f1));
        }
        // On an easily separable KB, tree ensembles should do well.
        let rf = results
            .iter()
            .find(|r| r.kind == MetaClassifierKind::RandomForest)
            .unwrap();
        assert!(rf.mrr3 > 0.8, "RF mrr {}", rf.mrr3);
    }

    #[test]
    fn split_kb_partitions() {
        let kb = synthetic_kb(50);
        let (tr, va) = split_kb(&kb, 0.8, 3);
        assert_eq!(tr.len() + va.len(), 50);
        assert_eq!(tr.len(), 40);
        // Different seeds shuffle differently.
        let (tr2, _) = split_kb(&kb, 0.8, 4);
        let names1: Vec<&str> = tr.records.iter().map(|r| r.dataset.as_str()).collect();
        let names2: Vec<&str> = tr2.records.iter().map(|r| r.dataset.as_str()).collect();
        assert_ne!(names1, names2);
    }

    #[test]
    fn empty_kb_rejected() {
        let kb = KnowledgeBase::default();
        assert!(MetaModel::train(&kb, MetaClassifierKind::RandomForest, 0).is_err());
    }

    #[test]
    fn recommendation_k_is_capped() {
        let kb = synthetic_kb(100);
        let mm = MetaModel::train(&kb, MetaClassifierKind::Logistic, 1).unwrap();
        let rec = mm.recommend(&[0.5, 0.5, 0.25, 0.0], 100).unwrap();
        assert_eq!(rec.len(), AlgorithmKind::builtin().len());
    }
}
