//! Augmented Dickey–Fuller stationarity test and differencing.
//!
//! Table 1 uses stationarity meta-features at the raw series, the first
//! difference, and the second difference.

use crate::{Result, TsError};
use ff_linalg::{solve, Matrix};

/// Deterministic-term specification of the ADF regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdfRegression {
    /// Constant only (`c` in statsmodels).
    Constant,
    /// Constant and linear time trend (`ct`).
    ConstantTrend,
}

/// Result of the ADF test.
#[derive(Debug, Clone)]
pub struct AdfResult {
    /// The Dickey–Fuller t-statistic of the `γ y_{t-1}` coefficient.
    pub statistic: f64,
    /// Number of lagged difference terms included.
    pub lags: usize,
    /// Approximate critical values at 1%, 5%, and 10%.
    pub critical: [f64; 3],
    /// True when the unit-root null is rejected at 5% (series is stationary).
    pub stationary: bool,
}

/// MacKinnon-style asymptotic critical values (large-n approximations, as
/// tabulated by statsmodels for n → ∞).
fn critical_values(reg: AdfRegression) -> [f64; 3] {
    match reg {
        AdfRegression::Constant => [-3.43, -2.86, -2.57],
        AdfRegression::ConstantTrend => [-3.96, -3.41, -3.13],
    }
}

/// Schwert's rule for the maximum lag order: `12 · (n/100)^{1/4}`.
pub fn schwert_max_lag(n: usize) -> usize {
    (12.0 * (n as f64 / 100.0).powf(0.25)).floor() as usize
}

/// One Augmented Dickey–Fuller regression at a fixed lag order.
///
/// Regresses `Δy_t` on `y_{t-1}`, `lags` lagged differences, and the chosen
/// deterministic terms; the t-statistic of the `y_{t-1}` coefficient is the
/// test statistic. More negative ⇒ stronger evidence of stationarity.
/// Returns the test result plus the fit's AIC,
/// `rows · ln(RSS / rows) + 2 · cols`, which [`adf_test`] compares across
/// lag orders.
fn adf_fit(y: &[f64], lags: usize, reg: AdfRegression) -> Result<(AdfResult, f64)> {
    let n = y.len();
    let det_terms = match reg {
        AdfRegression::Constant => 1,
        AdfRegression::ConstantTrend => 2,
    };
    let rows = n.saturating_sub(lags + 1);
    let cols = 1 + lags + det_terms;
    if rows < cols + 4 {
        return Err(TsError::TooShort {
            needed: lags + cols + 5,
            got: n,
        });
    }
    let dy: Vec<f64> = y.windows(2).map(|w| w[1] - w[0]).collect();
    // Row t (t = lags..dy.len()) models dy[t] with regressors:
    //   y[t] (the level lagged once relative to dy[t] = y[t+1]-y[t]),
    //   dy[t-1..t-lags], constant, optional trend.
    let mut x = Matrix::zeros(rows, cols);
    let mut target = Vec::with_capacity(rows);
    for (r, t) in (lags..dy.len()).enumerate() {
        target.push(dy[t]);
        x.set(r, 0, y[t]);
        for j in 1..=lags {
            x.set(r, j, dy[t - j]);
        }
        x.set(r, lags + 1, 1.0);
        if det_terms == 2 {
            x.set(r, lags + 2, (t + 1) as f64);
        }
    }
    let fit = solve::ols_with_stats(&x, &target).map_err(|e| TsError::Numerical(e.to_string()))?;
    let statistic = fit.t_stat(0);
    let critical = critical_values(reg);
    let sigma2 = (fit.rss / rows as f64).max(1e-300);
    let aic = rows as f64 * sigma2.ln() + 2.0 * cols as f64;
    let result = AdfResult {
        statistic,
        lags,
        critical,
        stationary: statistic < critical[1],
    };
    Ok((result, aic))
}

/// ADF test with automatic lag selection: tries Schwert's maximum and
/// shrinks until the regression is feasible, picking the lag order with the
/// smallest AIC.
///
/// # Examples
///
/// ```
/// use ff_timeseries::stationarity::{adf_test, AdfRegression};
///
/// // An oscillating (strongly mean-reverting) series is stationary.
/// let y: Vec<f64> = (0..200).map(|t| if t % 2 == 0 { 1.0 } else { -1.0 } * (1.0 + (t as f64 * 0.37).sin())).collect();
/// let result = adf_test(&y, AdfRegression::Constant).unwrap();
/// assert!(result.stationary);
/// ```
pub fn adf_test(y: &[f64], reg: AdfRegression) -> Result<AdfResult> {
    let n = y.len();
    if n < 12 {
        return Err(TsError::TooShort { needed: 12, got: n });
    }
    let max_lag = schwert_max_lag(n).min(n / 4);
    let mut best: Option<(f64, AdfResult)> = None;
    for lags in 0..=max_lag {
        let (res, aic) = match adf_fit(y, lags, reg) {
            Ok(fit) => fit,
            Err(_) => break,
        };
        match &best {
            Some((best_aic, _)) if aic >= *best_aic => {}
            _ => best = Some((aic, res)),
        }
    }
    best.map(|(_, r)| r)
        .ok_or_else(|| TsError::Numerical("ADF failed for all lag orders".into()))
}

/// n-th order difference of a series.
pub fn difference(y: &[f64], order: usize) -> Vec<f64> {
    let mut out = y.to_vec();
    for _ in 0..order {
        if out.len() < 2 {
            return Vec::new();
        }
        out = out.windows(2).map(|w| w[1] - w[0]).collect();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_noise(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 30) as f64) - 1.0
            })
            .collect()
    }

    #[test]
    fn white_noise_is_stationary() {
        let y = lcg_noise(500, 42);
        let r = adf_test(&y, AdfRegression::Constant).unwrap();
        assert!(
            r.statistic < r.critical[0],
            "white noise should strongly reject unit root, stat={}",
            r.statistic
        );
        assert!(r.stationary);
    }

    #[test]
    fn random_walk_is_not_stationary() {
        let noise = lcg_noise(500, 7);
        let mut y = vec![0.0];
        for e in noise {
            y.push(y.last().unwrap() + e);
        }
        let r = adf_test(&y, AdfRegression::Constant).unwrap();
        assert!(
            r.statistic > r.critical[0],
            "random walk should not reject at 1%, stat={}",
            r.statistic
        );
        assert!(!r.stationary || r.statistic > r.critical[1] - 0.5);
    }

    #[test]
    fn differenced_random_walk_is_stationary() {
        let noise = lcg_noise(400, 11);
        let mut y = vec![0.0];
        for e in noise {
            y.push(y.last().unwrap() + e);
        }
        let d = difference(&y, 1);
        assert!(adf_test(&d, AdfRegression::Constant).unwrap().stationary);
    }

    #[test]
    fn ar1_is_stationary() {
        let noise = lcg_noise(600, 3);
        let mut y = vec![0.0];
        for e in noise {
            y.push(0.5 * y.last().unwrap() + e);
        }
        assert!(adf_test(&y, AdfRegression::Constant).unwrap().stationary);
    }

    #[test]
    fn trending_series_needs_trend_regression() {
        // Strong deterministic trend + noise: the trend specification should
        // produce a much more negative statistic than implied by a unit root.
        let noise = lcg_noise(400, 99);
        let y: Vec<f64> = noise
            .iter()
            .enumerate()
            .map(|(t, e)| 0.05 * t as f64 + e)
            .collect();
        let r = adf_test(&y, AdfRegression::ConstantTrend).unwrap();
        assert!(
            r.stationary,
            "trend-stationary series, stat={}",
            r.statistic
        );
    }

    #[test]
    fn too_short_errors() {
        assert!(matches!(
            adf_test(&[1.0, 2.0, 3.0], AdfRegression::Constant),
            Err(TsError::TooShort { .. })
        ));
    }

    #[test]
    fn difference_orders() {
        let y = [1.0, 4.0, 9.0, 16.0];
        assert_eq!(difference(&y, 1), vec![3.0, 5.0, 7.0]);
        assert_eq!(difference(&y, 2), vec![2.0, 2.0]);
        assert_eq!(difference(&y, 4), Vec::<f64>::new());
    }

    #[test]
    fn schwert_rule() {
        assert_eq!(schwert_max_lag(100), 12);
        assert_eq!(schwert_max_lag(1600), 24);
    }
}
