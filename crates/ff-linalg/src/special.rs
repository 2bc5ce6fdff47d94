//! Special functions: `erf` and the standard normal distribution.
//!
//! Consumers: Expected Improvement in `ff-bayesopt` and the Wilcoxon
//! signed-rank normal approximation in `ff-timeseries`.

use std::f64::consts::{PI, SQRT_2};

/// Error function, via the Abramowitz–Stegun 7.1.26 rational approximation
/// (|error| < 1.5e-7, more than enough for acquisition functions and tests).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal probability density function.
pub fn normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * PI).sqrt()
}

/// Standard normal cumulative distribution function.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / SQRT_2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        assert!(erf(0.0).abs() < 1.5e-7); // approximation error bound
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(2.0) - 0.9953222650).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1.5e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(normal_cdf(8.0) > 0.999999);
    }

    #[test]
    fn normal_pdf_peak_and_symmetry() {
        assert!((normal_pdf(0.0) - 0.3989422804).abs() < 1e-9);
        assert!((normal_pdf(1.3) - normal_pdf(-1.3)).abs() < 1e-15);
    }
}
