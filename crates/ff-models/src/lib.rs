// Index-based loops across parallel arrays are the clearest form for the
// numeric kernels in this crate; the iterator rewrites clippy suggests
// obscure the math.
#![allow(clippy::needless_range_loop)]

//! From-scratch forecasting regressors and meta-model classifiers.
//!
//! This crate reimplements every learner the paper depends on:
//!
//! **Table 2 forecasting regressors** (scikit-learn / XGBoost in the paper):
//! - [`linear::lasso::Lasso`] — L1 coordinate descent (cyclic/random).
//! - [`linear::elastic_net::ElasticNetCv`] — elastic-net with internal
//!   time-series cross-validated alpha selection.
//! - [`linear::svr::LinearSvr`] — ε-insensitive linear SVR.
//! - [`linear::huber::HuberRegressor`] — Huber loss via IRLS.
//! - [`linear::quantile::QuantileRegressor`] — pinball loss.
//! - [`boosting::gbdt::XgbRegressor`] — second-order gradient-boosted trees
//!   with `reg_lambda`, `subsample`, `max_depth`.
//!
//! **Feature selection** (§4.2.2): [`forest::RandomForestRegressor`] with
//! impurity-based feature importances.
//!
//! **Table 4 meta-model classifier zoo**: [`forest::RandomForestClassifier`],
//! [`forest::ExtraTreesClassifier`], [`classifiers::logistic::LogisticRegression`],
//! [`boosting::clf::XgbClassifier`], [`boosting::clf::GradientBoostingClassifier`],
//! [`boosting::clf::CatBoostClassifier`] (oblivious trees),
//! [`boosting::clf::LightGbmClassifier`] (histogram + leaf-wise growth), and
//! [`classifiers::mlp::MlpClassifier`].

pub mod data;
pub mod forest;
pub mod metrics;
pub mod pipeline;
pub mod ser;
pub mod spec;
pub mod tree;
pub mod zoo;

pub mod linear {
    //! Linear-family regressors (Table 2).
    pub mod cd;
    pub mod elastic_net;
    pub mod huber;
    pub mod lasso;
    pub mod quantile;
    pub mod svr;
}

pub mod boosting {
    //! Gradient-boosting regressors and classifiers.
    pub mod clf;
    pub mod gbdt;
    pub mod histogram;
    pub mod oblivious;
}

pub mod classifiers {
    //! Non-tree classifiers for the meta-model zoo.
    pub mod logistic;
    pub mod mlp;
}

use ff_linalg::Matrix;

/// Errors produced by model fitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// Training data is empty or has inconsistent shapes.
    InvalidData(String),
    /// The optimizer failed to produce finite parameters.
    Numerical(String),
    /// Predict was called before fit.
    NotFitted,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::InvalidData(m) => write!(f, "invalid training data: {m}"),
            ModelError::Numerical(m) => write!(f, "numerical failure: {m}"),
            ModelError::NotFitted => write!(f, "model is not fitted"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ModelError>;

/// A supervised regressor mapping feature rows to a scalar target.
pub trait Regressor {
    /// Fits on a design matrix (rows = samples) and target vector.
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()>;
    /// Predicts one value per row. Must be called after a successful
    /// [`Regressor::fit`].
    fn predict(&self, x: &Matrix) -> Result<Vec<f64>>;
    /// Serializes the fitted model for ensemble-union aggregation. `None`
    /// (the default) means the model cannot ship as a blob; algorithms
    /// whose table entry uses `FinalizeStrategy::EnsembleUnion` must
    /// override this and pair it with the entry's decoder, which
    /// [`spec::AlgorithmSpec::deserialize_model`] calls. A decoded model
    /// must refuse, at [`Regressor::predict`], a matrix whose width is not
    /// the one it was fitted on: the member decoders check a blob's scaler
    /// against its model that way.
    fn to_blob(&self) -> Option<Vec<u8>> {
        None
    }
}

/// A probabilistic multi-class classifier.
pub trait Classifier {
    /// Fits on labeled rows; `labels[i] < n_classes`.
    fn fit(&mut self, x: &Matrix, labels: &[usize], n_classes: usize) -> Result<()>;
    /// Class probabilities, one row per sample (rows sum to 1).
    fn predict_proba(&self, x: &Matrix) -> Result<Matrix>;
    /// Hard class predictions (argmax of probabilities).
    fn predict(&self, x: &Matrix) -> Result<Vec<usize>> {
        let p = self.predict_proba(x)?;
        Ok((0..p.rows())
            .map(|i| ff_linalg::vector::argmax(p.row(i)).unwrap_or(0))
            .collect())
    }
}

/// Linear models expose their parameters for federated weight averaging.
pub trait LinearParams {
    /// Feature coefficients.
    fn coefficients(&self) -> Result<&[f64]>;
    /// Intercept term.
    fn intercept(&self) -> Result<f64>;
    /// Overwrites coefficients and intercept (used by FedAvg-style
    /// aggregation of linear forecasters).
    fn set_linear_params(&mut self, coef: &[f64], intercept: f64);
}

fn validate_xy(x: &Matrix, y: &[f64]) -> Result<()> {
    if x.rows() == 0 || x.cols() == 0 {
        return Err(ModelError::InvalidData("empty design matrix".into()));
    }
    if x.rows() != y.len() {
        return Err(ModelError::InvalidData(format!(
            "{} rows vs {} targets",
            x.rows(),
            y.len()
        )));
    }
    if y.iter().any(|v| v.is_nan()) || !x.is_finite() {
        return Err(ModelError::InvalidData("non-finite values".into()));
    }
    Ok(())
}
