//! Moment statistics, histograms, entropy, and KL divergence.
//!
//! These feed the Table 1 meta-features: skewness, kurtosis, the entropy
//! aggregation of target stationarity across clients, and the KL divergence
//! among clients' value histograms (which `ff-metalearn` computes from the
//! histograms the clients report).

use ff_linalg::vector;

/// Sample skewness (Fisher–Pearson, adjusted): `g1 · sqrt(n(n-1))/(n-2)`.
/// Returns 0 for degenerate inputs (fewer than 3 points or zero variance).
pub fn skewness(x: &[f64]) -> f64 {
    let n = x.len();
    if n < 3 {
        return 0.0;
    }
    let m = vector::mean(x);
    let (mut m2, mut m3) = (0.0, 0.0);
    for &v in x {
        let d = v - m;
        m2 += d * d;
        m3 += d * d * d;
    }
    m2 /= n as f64;
    m3 /= n as f64;
    if m2 <= 1e-300 {
        return 0.0;
    }
    let g1 = m3 / m2.powf(1.5);
    let nf = n as f64;
    g1 * (nf * (nf - 1.0)).sqrt() / (nf - 2.0)
}

/// Excess kurtosis (`m4/m2² − 3`), population form. Returns 0 for degenerate
/// inputs.
pub fn kurtosis(x: &[f64]) -> f64 {
    let n = x.len();
    if n < 4 {
        return 0.0;
    }
    let m = vector::mean(x);
    let (mut m2, mut m4) = (0.0, 0.0);
    for &v in x {
        let d = v - m;
        let d2 = d * d;
        m2 += d2;
        m4 += d2 * d2;
    }
    m2 /= n as f64;
    m4 /= n as f64;
    if m2 <= 1e-300 {
        return 0.0;
    }
    m4 / (m2 * m2) - 3.0
}

/// A fixed-bin histogram over a shared `[lo, hi]` range, used to compare
/// client distributions on a common support.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Bin probabilities (sum to 1 for non-empty input).
    pub probs: Vec<f64>,
    /// Inclusive lower bound of the support.
    pub lo: f64,
    /// Inclusive upper bound of the support.
    pub hi: f64,
}

impl Histogram {
    /// Builds a histogram of `x` with `bins` equal-width bins over `[lo, hi]`.
    /// Values outside the range are clamped into the edge bins; NaNs are
    /// skipped.
    pub fn new(x: &[f64], bins: usize, lo: f64, hi: f64) -> Histogram {
        assert!(bins > 0, "need at least one bin");
        let mut counts = vec![0.0; bins];
        let width = (hi - lo).max(1e-300);
        let mut total = 0.0;
        for &v in x {
            if v.is_nan() {
                continue;
            }
            let idx = (((v - lo) / width) * bins as f64).floor() as isize;
            let idx = idx.clamp(0, bins as isize - 1) as usize;
            counts[idx] += 1.0;
            total += 1.0;
        }
        if total > 0.0 {
            for c in counts.iter_mut() {
                *c /= total;
            }
        }
        Histogram {
            probs: counts,
            lo,
            hi,
        }
    }
}

/// Shannon entropy (nats) of a discrete distribution; zero-probability bins
/// contribute nothing.
pub fn entropy(probs: &[f64]) -> f64 {
    probs
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| -p * p.ln())
        .sum()
}

/// Shannon entropy of a Bernoulli/indicator sample (e.g. the "is this
/// client's target stationary" flags aggregated across clients, Table 1).
pub fn binary_entropy(flags: &[bool]) -> f64 {
    if flags.is_empty() {
        return 0.0;
    }
    let p = flags.iter().filter(|&&f| f).count() as f64 / flags.len() as f64;
    entropy(&[p, 1.0 - p])
}

/// KL divergence `D(p ‖ q)` in nats, with additive smoothing `eps` so the
/// divergence stays finite when `q` has empty bins.
pub fn kl_divergence(p: &[f64], q: &[f64], eps: f64) -> f64 {
    debug_assert_eq!(p.len(), q.len());
    let norm = |d: &[f64]| -> Vec<f64> {
        let s: f64 = d.iter().map(|v| v + eps).sum();
        d.iter().map(|v| (v + eps) / s).collect()
    };
    let p = norm(p);
    let q = norm(q);
    p.iter()
        .zip(&q)
        .map(|(&pi, &qi)| if pi > 0.0 { pi * (pi / qi).ln() } else { 0.0 })
        .sum()
}

/// Simple summary of a sample used by the meta-feature aggregators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Sample standard deviation.
    pub std: f64,
    /// Sum.
    pub sum: f64,
}

/// Computes [`Summary`] statistics, skipping NaNs. All-NaN input yields
/// a zeroed summary.
pub fn summary(x: &[f64]) -> Summary {
    let clean: Vec<f64> = x.iter().copied().filter(|v| !v.is_nan()).collect();
    if clean.is_empty() {
        return Summary {
            mean: 0.0,
            min: 0.0,
            max: 0.0,
            std: 0.0,
            sum: 0.0,
        };
    }
    Summary {
        mean: vector::mean(&clean),
        min: clean.iter().cloned().fold(f64::INFINITY, f64::min),
        max: clean.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        std: vector::stddev(&clean),
        sum: clean.iter().sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewness_symmetric_is_zero() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!(skewness(&x).abs() < 1e-12);
    }

    #[test]
    fn skewness_right_tail_is_positive() {
        let x = [1.0, 1.0, 1.0, 1.0, 10.0];
        assert!(skewness(&x) > 1.0);
    }

    #[test]
    fn kurtosis_uniformlike_is_negative_normallike_near_zero() {
        // Two-point distribution has kurtosis -2 (minimum possible).
        let x = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0];
        assert!((kurtosis(&x) + 2.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_moments_are_zero() {
        assert_eq!(skewness(&[1.0, 1.0, 1.0, 1.0]), 0.0);
        assert_eq!(kurtosis(&[2.0, 2.0, 2.0, 2.0]), 0.0);
        assert_eq!(skewness(&[1.0]), 0.0);
    }

    #[test]
    fn histogram_probabilities_sum_to_one() {
        let h = Histogram::new(&[0.0, 0.5, 1.0, 0.25, f64::NAN], 4, 0.0, 1.0);
        let s: f64 = h.probs.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert_eq!(h.probs.len(), 4);
    }

    #[test]
    fn histogram_clamps_outliers() {
        let h = Histogram::new(&[-100.0, 100.0], 2, 0.0, 1.0);
        assert!((h.probs[0] - 0.5).abs() < 1e-12);
        assert!((h.probs[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn entropy_uniform_is_log_n() {
        let p = [0.25; 4];
        assert!((entropy(&p) - 4.0f64.ln()).abs() < 1e-12);
        assert_eq!(entropy(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn binary_entropy_extremes() {
        assert_eq!(binary_entropy(&[true, true]), 0.0);
        assert!((binary_entropy(&[true, false]) - 2.0f64.ln()).abs() < 1e-12);
        assert_eq!(binary_entropy(&[]), 0.0);
    }

    #[test]
    fn kl_zero_for_identical_positive_for_different() {
        let p = [0.5, 0.5];
        let q = [0.9, 0.1];
        assert!(kl_divergence(&p, &p, 1e-9).abs() < 1e-9);
        assert!(kl_divergence(&p, &q, 1e-9) > 0.1);
    }

    #[test]
    fn summary_known_values() {
        let s = summary(&[1.0, 2.0, 3.0, f64::NAN]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.sum, 6.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_all_nan_is_zeroed() {
        let s = summary(&[f64::NAN, f64::NAN]);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.sum, 0.0);
    }
}
