//! Autocorrelation and partial autocorrelation.
//!
//! The pACF drives two Table 1 meta-features ("Significant Lags using pACF"
//! and "Insignificant lags between 1st and last significant ones") and the
//! lag-feature count of §4.2.1(3).

use ff_linalg::vector;

/// Sample autocorrelation function up to `max_lag` (inclusive), using the
/// biased estimator `ρ̂(k) = c(k)/c(0)`. `NaN`s should be interpolated away
/// before calling; any remaining NaNs are treated as the series mean.
pub fn acf(x: &[f64], max_lag: usize) -> Vec<f64> {
    let n = x.len();
    if n == 0 {
        return vec![];
    }
    let clean: Vec<f64> = {
        let m = vector::mean(
            &x.iter()
                .copied()
                .filter(|v| !v.is_nan())
                .collect::<Vec<_>>(),
        );
        x.iter().map(|&v| if v.is_nan() { m } else { v }).collect()
    };
    let mean = vector::mean(&clean);
    let c0: f64 = clean.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
    let max_lag = max_lag.min(n.saturating_sub(1));
    let mut out = Vec::with_capacity(max_lag + 1);
    out.push(1.0);
    if c0 <= 1e-300 {
        out.resize(max_lag + 1, 0.0);
        return out;
    }
    out.extend((1..=max_lag).map(|k| {
        let ck: f64 = (0..n - k)
            .map(|t| (clean[t] - mean) * (clean[t + k] - mean))
            .sum::<f64>()
            / n as f64;
        ck / c0
    }));
    out
}

/// Partial autocorrelation via the Durbin–Levinson recursion. `pacf[0]` is
/// defined as 1; `pacf[k]` for `k ≥ 1` is the lag-k partial autocorrelation.
pub fn pacf(x: &[f64], max_lag: usize) -> Vec<f64> {
    let rho = acf(x, max_lag);
    let max_lag = rho.len().saturating_sub(1);
    let mut out = vec![1.0];
    if max_lag == 0 {
        return out;
    }
    // Durbin–Levinson: phi[k][j] coefficients of the AR(k) fit.
    let mut phi_prev = vec![0.0; max_lag + 1];
    let mut phi_curr = vec![0.0; max_lag + 1];
    phi_prev[1] = rho[1];
    out.push(rho[1]);
    for k in 2..=max_lag {
        let mut num = rho[k];
        let mut den = 1.0;
        for j in 1..k {
            num -= phi_prev[j] * rho[k - j];
            den -= phi_prev[j] * rho[j];
        }
        let phi_kk = if den.abs() < 1e-12 { 0.0 } else { num / den };
        phi_curr[k] = phi_kk;
        for j in 1..k {
            phi_curr[j] = phi_prev[j] - phi_kk * phi_prev[k - j];
        }
        out.push(phi_kk);
        std::mem::swap(&mut phi_prev, &mut phi_curr);
    }
    out
}

/// Lags whose pACF magnitude exceeds the 95% white-noise band `1.96/√n`.
/// Lag 0 is excluded. Returns lag indices in increasing order.
pub fn significant_pacf_lags(x: &[f64], max_lag: usize) -> Vec<usize> {
    let n = x.len();
    if n < 3 {
        return vec![];
    }
    let threshold = 1.96 / (n as f64).sqrt();
    pacf(x, max_lag)
        .iter()
        .enumerate()
        .skip(1)
        .filter(|(_, &v)| v.abs() > threshold)
        .map(|(k, _)| k)
        .collect()
}

/// Number of *insignificant* lags strictly between the first and last
/// significant pACF lags — a Table 1 meta-feature capturing how "gappy"
/// the dependence structure is.
pub fn insignificant_gap_count(significant: &[usize]) -> usize {
    match (significant.first(), significant.last()) {
        (Some(&first), Some(&last)) if last > first => (last - first + 1) - significant.len(),
        _ => 0,
    }
}

/// Default maximum lag used across the workspace: `min(n/2, 10·log10(n))`,
/// the statsmodels-style rule of thumb.
pub fn default_max_lag(n: usize) -> usize {
    if n < 4 {
        return 1;
    }
    let rule = (10.0 * (n as f64).log10()).floor() as usize;
    rule.min(n / 2).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic AR(1) driven by a fixed pseudo-noise sequence.
    fn ar1(phi: f64, n: usize) -> Vec<f64> {
        let mut x = vec![0.0; n];
        let mut state = 0x12345678u64;
        for t in 1..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((state >> 33) as f64 / (1u64 << 30) as f64) - 1.0;
            x[t] = phi * x[t - 1] + u;
        }
        x
    }

    #[test]
    fn acf_lag_zero_is_one() {
        let x = ar1(0.5, 200);
        let r = acf(&x, 10);
        assert_eq!(r[0], 1.0);
        assert!(r.iter().all(|v| v.abs() <= 1.0 + 1e-9));
    }

    #[test]
    fn acf_of_ar1_decays_geometrically() {
        let x = ar1(0.8, 5000);
        let r = acf(&x, 3);
        assert!((r[1] - 0.8).abs() < 0.05, "rho1={}", r[1]);
        assert!((r[2] - 0.64).abs() < 0.07, "rho2={}", r[2]);
    }

    #[test]
    fn pacf_of_ar1_cuts_off_after_lag_one() {
        let x = ar1(0.7, 5000);
        let p = pacf(&x, 6);
        assert!((p[1] - 0.7).abs() < 0.05, "pacf1={}", p[1]);
        for &v in &p[2..] {
            assert!(v.abs() < 0.08, "pacf tail should vanish, got {v}");
        }
    }

    #[test]
    fn significant_lags_of_ar1_is_lag_one() {
        let x = ar1(0.7, 2000);
        let lags = significant_pacf_lags(&x, 10);
        assert!(lags.contains(&1));
        // Almost all of the remaining lags must be insignificant.
        assert!(lags.len() <= 3, "lags={lags:?}");
    }

    #[test]
    fn constant_series_has_no_significant_lags() {
        let x = vec![3.0; 100];
        assert!(significant_pacf_lags(&x, 10).is_empty());
    }

    #[test]
    fn insignificant_gap_counting() {
        assert_eq!(insignificant_gap_count(&[1, 2, 3]), 0);
        assert_eq!(insignificant_gap_count(&[1, 5]), 3);
        assert_eq!(insignificant_gap_count(&[2]), 0);
        assert_eq!(insignificant_gap_count(&[]), 0);
        assert_eq!(insignificant_gap_count(&[1, 3, 7]), 4);
    }

    #[test]
    fn default_max_lag_rules() {
        assert_eq!(default_max_lag(2), 1);
        assert_eq!(default_max_lag(100), 20);
        assert_eq!(default_max_lag(10), 5); // n/2 binds
    }

    #[test]
    fn acf_is_bit_identical_across_thread_counts() {
        let x = ar1(0.6, 4000);
        let seq = ff_par::with_threads(1, || acf(&x, 30));
        for &threads in &[2usize, 8] {
            let par = ff_par::with_threads(threads, || acf(&x, 30));
            for (a, b) in par.iter().zip(&seq) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn acf_handles_empty_and_nan() {
        assert!(acf(&[], 5).is_empty());
        let x = vec![1.0, f64::NAN, 3.0, 2.0, f64::NAN, 4.0, 2.5, 3.5];
        let r = acf(&x, 3);
        assert!(r.iter().all(|v| v.is_finite()));
    }
}
