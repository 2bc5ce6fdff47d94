// Index-based loops across parallel arrays are the clearest form for the
// numeric kernels in this crate; the iterator rewrites clippy suggests
// obscure the math.
#![allow(clippy::needless_range_loop)]

//! FedForecaster: automated federated learning for univariate time-series
//! forecasting — the paper's core contribution (Algorithm 1).
//!
//! The engine automates the full forecasting pipeline over a federation of
//! clients holding private splits:
//!
//! 1. **Meta-learning** (§4.1): clients compute Table 1 meta-features; the
//!    server aggregates them and a pre-trained meta-model recommends the
//!    top-K forecasting algorithms.
//! 2. **Feature engineering** (§4.2): clients build trend, time, lag, and
//!    seasonality features using globally agreed parameters (lag count from
//!    the aggregated meta-features; seasonal periods from the sum of the
//!    clients' spectra), then a Random-Forest importance vote selects
//!    the features covering 95% of cumulative importance.
//! 3. **Hyperparameter tuning** (§4.3): GP Bayesian optimization with
//!    Expected Improvement, warm-started with the recommendations, asks
//!    configurations; clients fit/evaluate locally; the server aggregates
//!    the weighted global loss (Equation 1) and tells it back.
//! 4. **Inference** (§4.4): the best configuration is refit on each client;
//!    linear-family coefficients are FedAvg-aggregated into one global
//!    model; tree ensembles are serialized and deployed as the weighted
//!    union of client models (see DESIGN.md §5 on this aggregation choice).
//!
//! Baselines: [`random_search`] (same pipeline, uniform sampling over the
//! full space) and [`nbeats_baseline`] (federated N-BEATS with FedAvg, plus
//! the consolidated variant).
//!
//! # Quickstart
//!
//! ```no_run
//! use fedforecaster::prelude::*;
//!
//! // Train a tiny meta-model and run the engine on a simulated federation.
//! let kb = ff_metalearn::kb::KnowledgeBase::build(
//!     &ff_metalearn::synth::synthetic_kb(16), &[3], 100);
//! let meta = ff_metalearn::metamodel::MetaModel::train(
//!     &kb, ff_metalearn::metamodel::MetaClassifierKind::RandomForest, 0).unwrap();
//! let clients = ff_datasets::benchmark_datasets()[2].generate_federation(1, 0.1);
//! let cfg = EngineConfig { budget: Budget::Iterations(10), ..Default::default() };
//! let result = FedForecaster::new(cfg, &meta).run(&clients).unwrap();
//! println!("best = {} test MSE = {}", result.best_algorithm.name(), result.test_mse);
//! ```

pub mod adaptive;
pub mod aggregate;
pub mod budget;
pub mod ckpt;
pub mod client;
pub mod config;
pub mod engine;
pub mod feature_engineering;
pub mod nbeats_baseline;
pub mod random_search;
pub mod report;
pub mod search_space;

pub use budget::Budget;
pub use config::{CkptConfig, EngineConfig, TraceConfig};
pub use engine::{FedForecaster, RunResult};
pub use report::RunTelemetry;

/// Convenient re-exports for examples and benches.
pub mod prelude {
    pub use crate::budget::Budget;
    pub use crate::config::{CkptConfig, EngineConfig, TraceConfig};
    pub use crate::engine::{FedForecaster, RunResult};
    pub use crate::nbeats_baseline::{run_consolidated_nbeats, run_federated_nbeats};
    pub use crate::random_search::RandomSearch;
    pub use crate::report::{render_rounds, RoundReport, RunTelemetry};
    pub use ff_fl::robust::{AggregationStrategy, GuardPolicy};
    pub use ff_fl::runtime::RoundPolicy;
    pub use ff_models::zoo::AlgorithmKind;
}

/// Engine errors.
#[derive(Debug)]
pub enum EngineError {
    /// Federation construction or communication failed.
    Federation(ff_fl::FlError),
    /// A model-level failure.
    Model(ff_models::ModelError),
    /// Bayesian optimization failed.
    Optimizer(ff_bayesopt::BoError),
    /// The data is unusable (too short, all-NaN, …).
    InvalidData(String),
    /// Checkpoint I/O, corruption, or an injected crash point fired.
    Checkpoint(ff_ckpt::CkptError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Federation(e) => write!(f, "federation error: {e}"),
            EngineError::Model(e) => write!(f, "model error: {e}"),
            EngineError::Optimizer(e) => write!(f, "optimizer error: {e}"),
            EngineError::InvalidData(m) => write!(f, "invalid data: {m}"),
            EngineError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ff_fl::FlError> for EngineError {
    fn from(e: ff_fl::FlError) -> Self {
        EngineError::Federation(e)
    }
}

impl From<ff_models::ModelError> for EngineError {
    fn from(e: ff_models::ModelError) -> Self {
        EngineError::Model(e)
    }
}

impl From<ff_bayesopt::BoError> for EngineError {
    fn from(e: ff_bayesopt::BoError) -> Self {
        EngineError::Optimizer(e)
    }
}

impl From<ff_ckpt::CkptError> for EngineError {
    fn from(e: ff_ckpt::CkptError) -> Self {
        EngineError::Checkpoint(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, EngineError>;
