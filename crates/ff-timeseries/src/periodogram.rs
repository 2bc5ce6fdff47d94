//! Seasonality detection via the FFT periodogram.
//!
//! Table 1 needs "Detected seasonality components" and "Periods of
//! seasonality components"; §4.2.1(4) extracts the top-N seasonal components
//! from a periodogram across all clients. Each client reports its spectrum
//! on a shared log-period grid ([`spectrum_on_grid`]); the server sums the
//! reports and picks peaks ([`peaks_on_grid`]), so no raw sample leaves a
//! client.

use ff_linalg::fft;

/// One detected seasonal component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Seasonality {
    /// Period in samples (1/frequency).
    pub period: f64,
    /// Periodogram power at the peak.
    pub power: f64,
}

/// Detects seasonality components as local maxima of the periodogram whose
/// power exceeds `threshold_factor` × the median power. Returns at most
/// `max_components`, strongest first.
pub fn detect_seasonality(
    x: &[f64],
    max_components: usize,
    threshold_factor: f64,
) -> Vec<Seasonality> {
    let (freqs, power) = fft::periodogram(x);
    peaks_from_spectrum(&freqs, &power, max_components, threshold_factor, x.len())
}

/// Shared peak-picking over a (frequency, power) spectrum.
fn peaks_from_spectrum(
    freqs: &[f64],
    power: &[f64],
    max_components: usize,
    threshold_factor: f64,
    n_samples: usize,
) -> Vec<Seasonality> {
    if power.len() < 3 {
        return Vec::new();
    }
    let mut sorted = power.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let median = sorted[sorted.len() / 2];
    let threshold = threshold_factor * median.max(1e-300);
    let mut candidates: Vec<Seasonality> = Vec::new();
    for i in 1..power.len() - 1 {
        if power[i] > power[i - 1] && power[i] >= power[i + 1] && power[i] > threshold {
            let period = 1.0 / freqs[i];
            // Periods longer than half the sample are indistinguishable from trend.
            if period <= n_samples as f64 / 2.0 && period >= 2.0 {
                candidates.push(Seasonality {
                    period,
                    power: power[i],
                });
            }
        }
    }
    candidates.sort_by(|a, b| b.power.total_cmp(&a.power));
    dedup_harmonics(&mut candidates);
    candidates.truncate(max_components);
    candidates
}

/// Removes components whose period is within 5% of an already-kept stronger
/// component (spectral leakage produces clusters of near-identical peaks).
fn dedup_harmonics(cands: &mut Vec<Seasonality>) {
    let mut kept: Vec<Seasonality> = Vec::new();
    for c in cands.iter() {
        if kept
            .iter()
            .all(|k| (k.period - c.period).abs() / k.period > 0.05)
        {
            kept.push(*c);
        }
    }
    *cands = kept;
}

/// Number of points on the shared log-period spectral grid used by the
/// federated periodogram protocol.
pub const SPECTRAL_GRID_LEN: usize = 256;

/// The shared log-spaced period grid from 2 samples up to `max_period`.
pub fn log_period_grid(max_period: f64) -> Vec<f64> {
    let max_period = max_period.max(4.0);
    let log_lo = 2.0f64.ln();
    let log_hi = max_period.ln();
    (0..SPECTRAL_GRID_LEN)
        .map(|i| (log_lo + (log_hi - log_lo) * i as f64 / (SPECTRAL_GRID_LEN - 1) as f64).exp())
        .collect()
}

/// One client's periodogram resampled onto the shared period grid and
/// normalized to unit total power. This is the anonymized spectral summary
/// a client shares with the server (no raw samples).
pub fn spectrum_on_grid(values: &[f64], grid_periods: &[f64]) -> Vec<f64> {
    let (freqs, power) = fft::periodogram(values);
    if freqs.is_empty() {
        return vec![0.0; grid_periods.len()];
    }
    let total: f64 = power.iter().sum::<f64>().max(1e-300);
    grid_periods
        .iter()
        .map(|&p| interp_spectrum(&freqs, &power, 1.0 / p) / total)
        .collect()
}

/// Server-side peak picking over an aggregated grid spectrum.
/// `longest` is the longest client length (bounds credible periods).
pub fn peaks_on_grid(
    grid_periods: &[f64],
    agg_power: &[f64],
    max_components: usize,
    threshold_factor: f64,
    longest: usize,
) -> Vec<Seasonality> {
    // The grid is ordered by increasing period = decreasing frequency; peak
    // picking expects increasing frequency, so reverse both.
    let mut fs: Vec<f64> = grid_periods.iter().map(|p| 1.0 / p).collect();
    let mut ps = agg_power.to_vec();
    fs.reverse();
    ps.reverse();
    peaks_from_spectrum(&fs, &ps, max_components, threshold_factor, longest)
}

/// Linear interpolation of a spectrum at frequency `f` (0 outside range).
fn interp_spectrum(freqs: &[f64], power: &[f64], f: f64) -> f64 {
    if freqs.is_empty() || f < freqs[0] || f > *freqs.last().unwrap() {
        return 0.0;
    }
    match freqs.binary_search_by(|x| x.total_cmp(&f)) {
        Ok(i) => power[i],
        Err(i) => {
            let (f0, f1) = (freqs[i - 1], freqs[i]);
            let w = (f - f0) / (f1 - f0);
            power[i - 1] * (1.0 - w) + power[i] * w
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn sine(period: f64, n: usize, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|t| amp * (2.0 * PI * t as f64 / period).sin())
            .collect()
    }

    #[test]
    fn single_seasonality_detected() {
        let x = sine(16.0, 512, 1.0);
        let s = detect_seasonality(&x, 3, 5.0);
        assert!(!s.is_empty());
        assert!((s[0].period - 16.0).abs() < 1.0, "period={}", s[0].period);
    }

    #[test]
    fn two_components_ranked_by_power() {
        let a = sine(8.0, 1024, 2.0);
        let b = sine(64.0, 1024, 1.0);
        let x: Vec<f64> = a.iter().zip(&b).map(|(p, q)| p + q).collect();
        let s = detect_seasonality(&x, 4, 5.0);
        assert!(s.len() >= 2, "components: {s:?}");
        assert!((s[0].period - 8.0).abs() < 0.5);
        assert!((s[1].period - 64.0).abs() < 4.0);
        assert!(s[0].power > s[1].power);
    }

    #[test]
    fn noise_yields_few_or_no_components() {
        let mut state = 9u64;
        let x: Vec<f64> = (0..512)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as f64 / (1u64 << 30) as f64) - 1.0
            })
            .collect();
        let s = detect_seasonality(&x, 5, 20.0);
        assert!(
            s.len() <= 2,
            "white noise should have few strong peaks: {s:?}"
        );
    }

    #[test]
    fn short_input_is_empty() {
        assert!(detect_seasonality(&[1.0, 2.0, 3.0], 3, 5.0).is_empty());
    }

    #[test]
    fn grid_spectra_find_shared_period() {
        // Three clients observe the same period-12 cycle with phase shifts;
        // their summed grid spectra peak at the shared period.
        let grid = log_period_grid(256.0);
        let mut agg = vec![0.0; grid.len()];
        for c in 0..3 {
            let x: Vec<f64> = (0..512)
                .map(|t| (2.0 * PI * (t as f64 + 30.0 * c as f64) / 12.0).sin())
                .collect();
            for (a, s) in agg.iter_mut().zip(spectrum_on_grid(&x, &grid)) {
                *a += s;
            }
        }
        let s = peaks_on_grid(&grid, &agg, 3, 5.0, 512);
        assert!(!s.is_empty());
        assert!((s[0].period - 12.0).abs() < 1.0, "period={}", s[0].period);
    }

    #[test]
    fn harmonic_dedup_keeps_distinct_periods() {
        let mut cands = vec![
            Seasonality {
                period: 12.0,
                power: 10.0,
            },
            Seasonality {
                period: 12.3,
                power: 8.0,
            },
            Seasonality {
                period: 24.0,
                power: 5.0,
            },
        ];
        dedup_harmonics(&mut cands);
        assert_eq!(cands.len(), 2);
        assert_eq!(cands[1].period, 24.0);
    }
}
