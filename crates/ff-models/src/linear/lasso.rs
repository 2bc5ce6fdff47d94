//! Lasso regressor (Table 2: `alpha`, `selection ∈ {cyclic, random}`).

use crate::data::{Standardizer, TargetScaler};
use crate::linear::cd::{coordinate_descent, Selection};
use crate::{validate_xy, LinearParams, ModelError, Regressor, Result};
use ff_linalg::Matrix;

/// L1-regularized linear regression fitted by coordinate descent on
/// standardized features.
#[derive(Debug, Clone)]
pub struct Lasso {
    /// Regularization strength.
    pub alpha: f64,
    /// Coordinate selection order.
    pub selection: Selection,
    /// Maximum coordinate-descent passes.
    pub max_passes: usize,
    state: Option<FitState>,
}

#[derive(Debug, Clone)]
struct FitState {
    scaler: Standardizer,
    target: TargetScaler,
    /// Coefficients in standardized space.
    coef: Vec<f64>,
    intercept: f64,
}

impl Lasso {
    /// Creates a Lasso with the given regularization strength.
    pub fn new(alpha: f64, selection: Selection) -> Lasso {
        Lasso {
            alpha,
            selection,
            max_passes: 300,
            state: None,
        }
    }
}

impl Regressor for Lasso {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        validate_xy(x, y)?;
        let scaler = Standardizer::fit(x);
        let target = TargetScaler::fit(y);
        let xs = scaler.transform(x);
        let ys: Vec<f64> = y.iter().map(|&v| target.scale(v)).collect();
        let fit = coordinate_descent(
            &xs.transpose(),
            &ys,
            self.alpha,
            1.0,
            self.selection,
            self.max_passes,
            1e-7,
            42,
        );
        if fit.coef.iter().any(|c| !c.is_finite()) {
            return Err(ModelError::Numerical("non-finite coefficients".into()));
        }
        self.state = Some(FitState {
            scaler,
            target,
            coef: fit.coef,
            intercept: fit.intercept,
        });
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        let s = self.state.as_ref().ok_or(ModelError::NotFitted)?;
        let xs = s.scaler.transform(x);
        Ok((0..xs.rows())
            .map(|i| {
                let z = ff_linalg::vector::dot(xs.row(i), &s.coef) + s.intercept;
                s.target.unscale(z)
            })
            .collect())
    }
}

impl LinearParams for Lasso {
    fn coefficients(&self) -> Result<&[f64]> {
        self.state
            .as_ref()
            .map(|s| s.coef.as_slice())
            .ok_or(ModelError::NotFitted)
    }

    fn intercept(&self) -> Result<f64> {
        self.state
            .as_ref()
            .map(|s| s.intercept)
            .ok_or(ModelError::NotFitted)
    }

    fn set_linear_params(&mut self, coef: &[f64], intercept: f64) {
        if let Some(s) = self.state.as_mut() {
            s.coef = coef.to_vec();
            s.intercept = intercept;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mse;

    fn linear_data(n: usize) -> (Matrix, Vec<f64>) {
        let mut state = 77u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 30) as f64) - 1.0
        };
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a = rnd();
            let b = rnd();
            rows.push(vec![a, b]);
            y.push(4.0 * a + 0.5 * b + 10.0 + 0.01 * rnd());
        }
        (Matrix::from_fn(n, 2, |i, j| rows[i][j]), y)
    }

    #[test]
    fn fits_linear_relationship() {
        let (x, y) = linear_data(100);
        let mut m = Lasso::new(1e-4, Selection::Cyclic);
        m.fit(&x, &y).unwrap();
        let pred = m.predict(&x).unwrap();
        assert!(mse(&y, &pred) < 0.01, "mse {}", mse(&y, &pred));
    }

    #[test]
    fn heavy_alpha_predicts_mean() {
        let (x, y) = linear_data(100);
        let mut m = Lasso::new(100.0, Selection::Cyclic);
        m.fit(&x, &y).unwrap();
        let pred = m.predict(&x).unwrap();
        let mean = ff_linalg::vector::mean(&y);
        for p in pred {
            assert!((p - mean).abs() < 0.5);
        }
    }

    #[test]
    fn predict_before_fit_errors() {
        let m = Lasso::new(0.1, Selection::Cyclic);
        assert_eq!(
            m.predict(&Matrix::zeros(1, 2)).unwrap_err(),
            ModelError::NotFitted
        );
    }

    #[test]
    fn linear_params_roundtrip_changes_predictions() {
        let (x, y) = linear_data(50);
        let mut m = Lasso::new(1e-3, Selection::Random);
        m.fit(&x, &y).unwrap();
        let coef = m.coefficients().unwrap().to_vec();
        let zeroed = vec![0.0; coef.len()];
        m.set_linear_params(&zeroed, 0.0);
        let pred = m.predict(&x).unwrap();
        // All predictions collapse to unscale(0) = target mean.
        let mean = ff_linalg::vector::mean(&y);
        for p in pred {
            assert!((p - mean).abs() < 0.2);
        }
    }

    #[test]
    fn rejects_nan_target() {
        let x = Matrix::zeros(2, 1);
        let mut m = Lasso::new(0.1, Selection::Cyclic);
        assert!(m.fit(&x, &[1.0, f64::NAN]).is_err());
    }
}
