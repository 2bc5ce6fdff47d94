//! The acquisition function (minimization convention): Expected
//! Improvement, the paper's choice (§4.3).

use ff_linalg::special::{normal_cdf, normal_pdf};

/// Expected improvement of a candidate with posterior `(mean, variance)`
/// over the current best (lowest) observed value, for minimization:
///
/// `EI = (best − μ) Φ(z) + σ φ(z)`, `z = (best − μ)/σ`.
///
/// `xi` is the exploration margin (improvement must exceed `xi` to count).
pub fn expected_improvement(mean: f64, variance: f64, best: f64, xi: f64) -> f64 {
    let sigma = variance.max(0.0).sqrt();
    let improvement = best - mean - xi;
    if sigma < 1e-12 {
        return improvement.max(0.0);
    }
    let z = improvement / sigma;
    (improvement * normal_cdf(z) + sigma * normal_pdf(z)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ei_is_nonnegative() {
        for &(m, v, b) in &[(0.0, 1.0, -5.0), (10.0, 0.5, 0.0), (-3.0, 2.0, -3.0)] {
            assert!(expected_improvement(m, v, b, 0.0) >= 0.0);
        }
    }

    #[test]
    fn lower_mean_gives_higher_ei() {
        let best = 1.0;
        let good = expected_improvement(0.0, 0.1, best, 0.0);
        let bad = expected_improvement(2.0, 0.1, best, 0.0);
        assert!(good > bad);
    }

    #[test]
    fn higher_variance_gives_higher_ei_at_equal_mean() {
        let best = 0.0;
        let explore = expected_improvement(1.0, 4.0, best, 0.0);
        let exploit = expected_improvement(1.0, 0.01, best, 0.0);
        assert!(explore > exploit);
    }

    #[test]
    fn zero_variance_is_plain_improvement() {
        assert!((expected_improvement(0.3, 0.0, 1.0, 0.0) - 0.7).abs() < 1e-12);
        assert_eq!(expected_improvement(2.0, 0.0, 1.0, 0.0), 0.0);
    }

    #[test]
    fn xi_margin_discourages_marginal_gains() {
        let with_margin = expected_improvement(0.9, 0.01, 1.0, 0.5);
        let without = expected_improvement(0.9, 0.01, 1.0, 0.0);
        assert!(with_margin < without);
    }
}
