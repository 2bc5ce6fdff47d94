//! Gaussian-process Bayesian optimization with Expected Improvement.
//!
//! §4.3 of the paper: "The Bayesian optimization algorithm was set to use
//! the expected improvement as an acquisition function with the Gaussian
//! processes surrogate model." This crate provides exactly that stack:
//!
//! - [`space`]: mixed search spaces — continuous (linear or log scale),
//!   integer, and categorical parameters, encoded into `[0, 1]^d` for the
//!   kernel.
//! - [`kernel`]: RBF and Matérn-5/2 covariance functions.
//! - [`gp`]: GP regression posterior via jittered Cholesky — fitted from
//!   scratch ([`gp::GaussianProcess`]) or kept up to date bit for bit by
//!   extending one factor per length scale ([`gp::IncrementalGp`]).
//! - [`acquisition`]: Expected Improvement (minimization convention).
//! - [`optimizer`]: the ask/tell loop with warm-start support — the
//!   meta-model's recommended configurations seed the optimizer before any
//!   random exploration, exactly as in Algorithm 1 (line 14).

pub mod acquisition;
pub mod gp;
pub mod kernel;
pub mod optimizer;
pub mod space;

/// Errors produced by the optimizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoError {
    /// The search space has no parameters.
    EmptySpace,
    /// GP fitting failed numerically.
    Numerical(String),
    /// A point's length differs from the training inputs'.
    DimensionMismatch {
        /// Length of the training inputs.
        expected: usize,
        /// Length of the offending point.
        got: usize,
    },
    /// A tell() did not match a previous ask().
    Protocol(String),
}

impl std::fmt::Display for BoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoError::EmptySpace => write!(f, "search space is empty"),
            BoError::Numerical(m) => write!(f, "numerical failure: {m}"),
            BoError::DimensionMismatch { expected, got } => {
                write!(f, "point of length {got}, expected {expected}")
            }
            BoError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for BoError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, BoError>;
