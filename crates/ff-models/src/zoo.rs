//! The forecasting-algorithm zoo: the shared [`HyperParams`] bundle and
//! table-backed helpers for instantiating any of the algorithms.
//!
//! The portfolio itself lives in [`crate::spec`] — a fixed table of the six
//! Table 2 algorithms. This module is shared by the knowledge-base labeller
//! (`ff-metalearn`), which grid searches over the table, and by the
//! FedForecaster engine, which maps meta-model recommendations and
//! Bayesian-optimization configurations onto concrete model instances.

use crate::linear::cd::Selection;
use crate::Regressor;
use std::collections::BTreeMap;

pub use crate::spec::{AlgorithmKind, FinalizeStrategy};

/// Plain hyperparameter bundle for instantiating any of the algorithms —
/// the union of all per-algorithm hyperparameters with sensible defaults,
/// plus an open-ended `extras` map for pipeline-node parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperParams {
    /// Regularization strength (`Lasso`, `Huber`, `Quantile`).
    pub alpha: f64,
    /// Coordinate selection (`Lasso`, `ElasticNetCV`).
    pub selection: Selection,
    /// SVR penalty.
    pub c: f64,
    /// SVR tube / Huber threshold.
    pub epsilon: f64,
    /// Elastic-net mixing ratio.
    pub l1_ratio: f64,
    /// Boosting rounds.
    pub n_estimators: usize,
    /// Tree depth.
    pub max_depth: usize,
    /// Boosting shrinkage.
    pub learning_rate: f64,
    /// Leaf L2.
    pub reg_lambda: f64,
    /// Row subsample.
    pub subsample: f64,
    /// Target quantile.
    pub quantile: f64,
    /// Numeric pipeline-node parameters, keyed by their namespaced param
    /// key (see `ParamDef::extra` in [`crate::spec`] and
    /// [`crate::pipeline`]).
    pub extras: BTreeMap<String, f64>,
}

impl Default for HyperParams {
    fn default() -> Self {
        HyperParams {
            alpha: 0.01,
            selection: Selection::Cyclic,
            c: 5.0,
            epsilon: 0.05,
            l1_ratio: 0.5,
            n_estimators: 10,
            max_depth: 4,
            learning_rate: 0.3,
            reg_lambda: 1.0,
            subsample: 1.0,
            quantile: 0.5,
            extras: BTreeMap::new(),
        }
    }
}

/// Instantiates a regressor of the given kind with the given
/// hyperparameters (delegates to the algorithm's table builder).
///
/// # Examples
///
/// ```
/// use ff_linalg::Matrix;
/// use ff_models::zoo::{build_regressor, AlgorithmKind, HyperParams};
///
/// let x = Matrix::from_fn(50, 1, |i, _| i as f64);
/// let y: Vec<f64> = (0..50).map(|i| 2.0 * i as f64 + 1.0).collect();
/// let mut model = build_regressor(AlgorithmKind::LASSO, &HyperParams::default());
/// model.fit(&x, &y).unwrap();
/// let pred = model.predict(&x).unwrap();
/// assert!((pred[10] - 21.0).abs() < 1.0);
/// ```
pub fn build_regressor(kind: AlgorithmKind, hp: &HyperParams) -> Box<dyn Regressor + Send + Sync> {
    kind.spec().build(hp)
}

/// The algorithm's per-algorithm hyperparameter grid for the offline
/// knowledge-base labelling (§4.1.1 "comprehensive grid search" — scaled to
/// a handful of representative points per algorithm so the 500+-dataset KB
/// build stays tractable).
pub fn grid_for(kind: AlgorithmKind) -> Vec<HyperParams> {
    kind.spec().grid().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_linalg::Matrix;

    #[test]
    fn registry_roundtrips() {
        for kind in AlgorithmKind::builtin() {
            assert_eq!(AlgorithmKind::from_name(kind.name()), Some(kind));
            assert_eq!(AlgorithmKind::from_index(kind.index()), Some(kind));
        }
        assert!(AlgorithmKind::from_name("NBeats").is_none());
        assert!(AlgorithmKind::from_index(AlgorithmKind::builtin().len()).is_none());
    }

    #[test]
    fn every_algorithm_fits_and_predicts() {
        let n = 80;
        let x = Matrix::from_fn(n, 2, |i, j| ((i * (j + 1)) % 13) as f64 * 0.1);
        let y: Vec<f64> = (0..n).map(|i| x.get(i, 0) * 2.0 + 1.0).collect();
        for kind in AlgorithmKind::builtin() {
            let mut model = build_regressor(kind, &HyperParams::default());
            model
                .fit(&x, &y)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            let pred = model.predict(&x).unwrap();
            assert_eq!(pred.len(), n);
            assert!(pred.iter().all(|v| v.is_finite()), "{kind:?}");
        }
    }

    #[test]
    fn grids_are_nonempty_and_distinct() {
        for kind in AlgorithmKind::builtin() {
            let grid = grid_for(kind);
            assert!(grid.len() >= 3, "{kind:?}");
            assert_ne!(grid[0], grid[1]);
        }
    }

    #[test]
    fn linear_family_flag() {
        assert!(AlgorithmKind::LASSO.is_linear());
        assert!(!AlgorithmKind::XGB_REGRESSOR.is_linear());
    }
}
