//! Univariate time-series substrate for FedForecaster.
//!
//! The paper's pipeline consumes a rich set of time-series statistics
//! (Table 1 meta-features) and transformations (§4.2 feature engineering).
//! This crate provides all of them from scratch:
//!
//! - [`series::TimeSeries`]: the core container (timestamps + values, with
//!   NaN marking missing observations) including time-ordered train/valid
//!   splitting and federated client splitting.
//! - [`interpolate`]: linear interpolation of missing-value gaps (§4.2).
//! - [`stats`]: moments (skewness, kurtosis), histograms, entropy, and
//!   KL divergence between histograms (Table 1).
//! - [`acf`]: autocorrelation and partial autocorrelation (Durbin–Levinson)
//!   with significant-lag detection (Table 1, lag features).
//! - [`stationarity`]: the Augmented Dickey–Fuller test and differencing
//!   (Table 1 stationarity meta-features).
//! - [`periodogram`]: FFT periodogram, seasonality-component detection, and
//!   the shared log-period grid on which clients report their spectra for
//!   the federated periodogram of §4.2.1(4).
//! - [`fractal`]: Higuchi fractal dimension (Table 1).
//! - [`calendar`]: civil-calendar decomposition of unix timestamps for the
//!   time features of §4.2.1(2).
//! - [`synthesis`]: configurable synthetic series generation (used by the
//!   knowledge base of §4.1.1 and the dataset simulators).
//! - [`wilcoxon`]: the Wilcoxon signed-rank test used in §5.2.

pub mod acf;
pub mod calendar;
pub mod fractal;
pub mod interpolate;
pub mod periodogram;
pub mod series;
pub mod stationarity;
pub mod stats;
pub mod synthesis;
pub mod wilcoxon;
pub mod windowing;

pub use series::TimeSeries;

/// Errors produced by time-series operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TsError {
    /// The operation needs more observations than the series has.
    TooShort {
        /// Minimum length required.
        needed: usize,
        /// Actual length.
        got: usize,
    },
    /// Timestamps are not strictly increasing.
    UnsortedTimestamps,
    /// Timestamps and values have different lengths.
    LengthMismatch,
    /// A numeric routine failed to converge or produced non-finite values.
    Numerical(String),
}

impl std::fmt::Display for TsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TsError::TooShort { needed, got } => {
                write!(f, "series too short: need {needed}, got {got}")
            }
            TsError::UnsortedTimestamps => write!(f, "timestamps must be strictly increasing"),
            TsError::LengthMismatch => write!(f, "timestamps and values must have equal length"),
            TsError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
        }
    }
}

impl std::error::Error for TsError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TsError>;
