//! Domain-shaped stochastic generators for the evaluation datasets.

use ff_timeseries::synthesis::gaussian;
use ff_timeseries::TimeSeries;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DAY: i64 = 86_400;
const START: i64 = 1_262_304_000; // 2010-01-01

/// FX-rate-like series (BOE-XUDLERD): a slow geometric random walk around
/// 1.0 with tiny daily moves and occasional intervention spikes — the
/// paper reports MSEs of order 1e-3 and a HuberRegressor win, so the
/// outliers matter.
pub fn fx_rate(n: usize, seed: u64) -> TimeSeries {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut level: f64 = 1.1;
    let values = (0..n)
        .map(|_| {
            level *= 1.0 + 0.002 * gaussian(&mut rng);
            // Gentle mean reversion keeps the rate in a realistic band.
            level += 0.0005 * (1.1 - level);
            // Rare central-bank interventions: sharp one-day displacements.
            if rng_next(&mut rng) < 0.008 {
                level += 0.02 * gaussian(&mut rng);
            }
            level
        })
        .collect();
    TimeSeries::with_regular_index(START, DAY, values)
}

/// Daily sunspot counts: ~11-year solar cycle, non-negative, noisy, with
/// amplitude modulation across cycles.
pub fn sunspots(n: usize, seed: u64) -> TimeSeries {
    let mut rng = StdRng::seed_from_u64(seed);
    let cycle = 11.0 * 365.25;
    let values = (0..n)
        .map(|t| {
            let phase = std::f64::consts::TAU * t as f64 / cycle;
            let cycle_idx = (t as f64 / cycle).floor();
            let amp = 80.0 + 30.0 * ((cycle_idx * 2.39).sin());
            let base = amp * (0.5 - 0.5 * (phase).cos()).powf(1.3);
            (base + 12.0 * gaussian(&mut rng) * (1.0 + base / 60.0)).max(0.0)
        })
        .collect();
    TimeSeries::with_regular_index(START, DAY, values)
}

/// Daily US births: strong weekly seasonality (weekend dip), mild yearly
/// cycle, level ≈ 10 000 — the paper reports MSEs of order several hundred.
pub fn us_births(n: usize, seed: u64) -> TimeSeries {
    let mut rng = StdRng::seed_from_u64(seed);
    let values = (0..n)
        .map(|t| {
            let dow = t % 7;
            let weekend_dip = if dow == 5 || dow == 6 { -900.0 } else { 100.0 };
            let yearly = 150.0 * (std::f64::consts::TAU * t as f64 / 365.25).sin();
            10_000.0 + weekend_dip + yearly + 60.0 * gaussian(&mut rng)
        })
        .collect();
    TimeSeries::with_regular_index(START, DAY, values)
}

/// Central-bank policy-rate-like series: long flat regimes with occasional
/// step changes plus tiny noise (Brazil base financial rate).
pub fn policy_rate(n: usize, seed: u64, step_scale: f64) -> TimeSeries {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut level: f64 = 10.0;
    let mut until = 0usize;
    let values = (0..n)
        .map(|t| {
            if t >= until {
                // A new regime every 30–250 days.
                until = t + 30 + (rng_next(&mut rng) * 220.0) as usize;
                level += step_scale * (rng_next(&mut rng) - 0.5) * 2.0;
                level = level.clamp(1.0, 25.0);
            }
            level + 0.01 * gaussian(&mut rng)
        })
        .collect();
    TimeSeries::with_regular_index(START, DAY, values)
}

/// Savings-deposit-rate-like: smooth mean-reverting series.
pub fn deposit_rate(n: usize, seed: u64) -> TimeSeries {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut level: f64 = 6.0;
    let values = (0..n)
        .map(|_| {
            level += 0.05 * (6.0 - level) + 0.08 * gaussian(&mut rng);
            level
        })
        .collect();
    TimeSeries::with_regular_index(START, DAY, values)
}

/// Commodity-price-like (WTI crude): random walk with volatility
/// clustering and occasional heavy-tailed shocks (supply events), level
/// ≈ 60. The outliers reward robust losses (SVR/Huber) over squared-loss
/// fits — mirroring the paper's LinearSVR win on this dataset.
pub fn commodity_price(n: usize, seed: u64) -> TimeSeries {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut level: f64 = 60.0;
    let mut vol: f64 = 1.0;
    let values = (0..n)
        .map(|_| {
            vol = 0.95 * vol + 0.05 * (0.5 + 1.5 * rng_next(&mut rng));
            level += vol * gaussian(&mut rng) + 0.002 * (60.0 - level);
            // ~1% of days: a geopolitical shock with a heavy tail.
            if rng_next(&mut rng) < 0.01 {
                level += 8.0 * gaussian(&mut rng);
            }
            level = level.max(5.0);
            level
        })
        .collect();
    TimeSeries::with_regular_index(START, DAY, values)
}

/// Single-equity GBM with drift (AAPL-like).
pub fn equity_price(n: usize, seed: u64, start_price: f64, drift: f64, vol: f64) -> TimeSeries {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut level = start_price;
    let values = (0..n)
        .map(|_| {
            level *= 1.0 + drift + vol * gaussian(&mut rng);
            level = level.max(0.5);
            level
        })
        .collect();
    TimeSeries::with_regular_index(START, DAY, values)
}

/// A basket of `n_stocks` sector-correlated equities over a shared period —
/// the ETF federations, where each client holds one stock.
///
/// Prices share a common market factor (correlation) plus idiosyncratic
/// moves; `sector_vol` controls the dispersion (utilities < energy < tech)
/// and `crash_rate` the frequency of asymmetric downward jumps (tech-style
/// drawdowns reward median/quantile losses over squared loss).
pub fn etf_basket(
    n_stocks: usize,
    n: usize,
    seed: u64,
    base_price: f64,
    sector_vol: f64,
    crash_rate: f64,
) -> Vec<TimeSeries> {
    let mut market_rng = StdRng::seed_from_u64(seed);
    let market: Vec<f64> = (0..n).map(|_| gaussian(&mut market_rng)).collect();
    (0..n_stocks)
        .map(|s| {
            let mut rng = StdRng::seed_from_u64(seed + 31 * (s as u64 + 1));
            let mut level = base_price * (0.5 + rng_next(&mut rng));
            let beta = 0.6 + 0.8 * rng_next(&mut rng);
            let values = (0..n)
                .map(|t| {
                    let idio = gaussian(&mut rng);
                    level *= 1.0 + sector_vol * (beta * market[t] + 0.7 * idio) + 0.0002;
                    // Asymmetric drawdowns: sudden drops, slow recoveries.
                    if rng_next(&mut rng) < crash_rate {
                        level *= 1.0 - 0.05 - 0.05 * rng_next(&mut rng);
                    }
                    level = level.max(1.0);
                    level
                })
                .collect();
            TimeSeries::with_regular_index(START, DAY, values)
        })
        .collect()
}

fn rng_next(rng: &mut StdRng) -> f64 {
    use rand::Rng;
    rng.gen::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_timeseries::stationarity;

    #[test]
    fn fx_rate_is_small_and_slow() {
        let s = fx_rate(2000, 1);
        let v = s.values();
        assert!(v.iter().all(|&x| (0.5..2.5).contains(&x)), "range");
        // Daily changes are tiny.
        let mean_abs_diff: f64 =
            s.diff().iter().map(|d| d.abs()).sum::<f64>() / (v.len() - 1) as f64;
        assert!(mean_abs_diff < 0.01, "mean |Δ| = {mean_abs_diff}");
    }

    #[test]
    fn sunspots_nonnegative_with_long_cycle() {
        let s = sunspots(12_000, 2);
        assert!(s.values().iter().all(|&v| v >= 0.0));
        let comps = ff_timeseries::periodogram::detect_seasonality(s.values(), 3, 5.0);
        assert!(!comps.is_empty());
        // ~11-year cycle ≈ 4018 days; allow generous tolerance.
        assert!(
            comps[0].period > 2000.0,
            "dominant period {}",
            comps[0].period
        );
    }

    #[test]
    fn births_have_weekly_seasonality() {
        let s = us_births(1500, 3);
        let comps = ff_timeseries::periodogram::detect_seasonality(s.values(), 4, 5.0);
        assert!(
            comps.iter().any(|c| (c.period - 7.0).abs() < 0.5),
            "components {comps:?}"
        );
        let mean = ff_linalg::vector::mean(s.values());
        assert!((9_000.0..11_000.0).contains(&mean));
    }

    #[test]
    fn policy_rate_is_steppy() {
        let s = policy_rate(2000, 4, 1.0);
        // Most days have nearly zero change, occasionally a jump.
        let diffs = s.diff();
        let small = diffs.iter().filter(|d| d.abs() < 0.05).count();
        assert!(small as f64 / diffs.len() as f64 > 0.9);
        assert!(diffs.iter().any(|d| d.abs() > 0.2), "needs jumps");
    }

    #[test]
    fn commodity_price_is_random_walk_like() {
        let s = commodity_price(3000, 5);
        let adf = stationarity::adf_test(s.values(), stationarity::AdfRegression::Constant);
        assert!(!adf.unwrap().stationary);
        assert!(s.values().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn etf_basket_stocks_are_correlated() {
        let basket = etf_basket(5, 1500, 7, 50.0, 0.015, 0.005);
        assert_eq!(basket.len(), 5);
        // Log-return correlation between two stocks should be clearly
        // positive thanks to the shared market factor.
        let rets = |s: &TimeSeries| -> Vec<f64> {
            s.values().windows(2).map(|w| (w[1] / w[0]).ln()).collect()
        };
        let a = rets(&basket[0]);
        let b = rets(&basket[1]);
        let ma = ff_linalg::vector::mean(&a);
        let mb = ff_linalg::vector::mean(&b);
        let cov: f64 = a.iter().zip(&b).map(|(&x, &y)| (x - ma) * (y - mb)).sum();
        let corr = cov
            / (a.iter().map(|x| (x - ma) * (x - ma)).sum::<f64>().sqrt()
                * b.iter().map(|y| (y - mb) * (y - mb)).sum::<f64>().sqrt());
        assert!(corr > 0.2, "market correlation {corr}");
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(fx_rate(100, 9), fx_rate(100, 9));
        assert_ne!(fx_rate(100, 9), fx_rate(100, 10));
        assert_eq!(
            etf_basket(3, 100, 1, 50.0, 0.01, 0.0),
            etf_basket(3, 100, 1, 50.0, 0.01, 0.0)
        );
    }
}
