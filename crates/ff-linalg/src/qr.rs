//! Householder QR factorization and least-squares solves.
//!
//! The ADF stationarity regressions solve tall least-squares systems
//! whose Gram matrices can be poorly conditioned; QR is the numerically
//! safe path for those.

use crate::{LinalgError, Matrix, Result};

/// QR factorization of an `m × n` matrix (`m ≥ n`) via Householder
/// reflections, stored in compact form.
#[derive(Debug, Clone)]
pub struct QrFactor {
    /// Householder vectors below the diagonal; R on and above it.
    qr: Matrix,
    /// Scaling factors of the Householder reflections.
    tau: Vec<f64>,
}

impl QrFactor {
    /// Factorizes `a`. Requires `a.rows() >= a.cols()` and a non-empty matrix.
    pub fn new(a: &Matrix) -> Result<Self> {
        let (m, n) = (a.rows(), a.cols());
        if m == 0 || n == 0 {
            return Err(LinalgError::Empty);
        }
        if m < n {
            return Err(LinalgError::DimensionMismatch {
                expected: "rows >= cols".into(),
                got: format!("{m}x{n}"),
            });
        }
        let mut qr = a.clone();
        let mut tau = vec![0.0; n];
        for k in 0..n {
            // Compute the norm of the k-th column below the diagonal.
            let mut norm = 0.0;
            for i in k..m {
                let v = qr.get(i, k);
                norm += v * v;
            }
            let norm = norm.sqrt();
            if norm == 0.0 {
                tau[k] = 0.0;
                continue;
            }
            let alpha = if qr.get(k, k) >= 0.0 { -norm } else { norm };
            // v = x - alpha * e1, normalized so v[k] = 1.
            let vkk = qr.get(k, k) - alpha;
            for i in (k + 1)..m {
                let v = qr.get(i, k) / vkk;
                qr.set(i, k, v);
            }
            tau[k] = -vkk / alpha;
            qr.set(k, k, alpha);
            // Apply the reflection to the remaining columns.
            for j in (k + 1)..n {
                let mut s = qr.get(k, j);
                for i in (k + 1)..m {
                    s += qr.get(i, k) * qr.get(i, j);
                }
                s *= tau[k];
                let v = qr.get(k, j) - s;
                qr.set(k, j, v);
                for i in (k + 1)..m {
                    let v = qr.get(i, j) - s * qr.get(i, k);
                    qr.set(i, j, v);
                }
            }
        }
        Ok(QrFactor { qr, tau })
    }

    /// Applies `Qᵀ` to `b` in place.
    fn apply_qt(&self, b: &mut [f64]) {
        let (m, n) = (self.qr.rows(), self.qr.cols());
        for k in 0..n {
            if self.tau[k] == 0.0 {
                continue;
            }
            let mut s = b[k];
            for i in (k + 1)..m {
                s += self.qr.get(i, k) * b[i];
            }
            s *= self.tau[k];
            b[k] -= s;
            for i in (k + 1)..m {
                b[i] -= s * self.qr.get(i, k);
            }
        }
    }

    /// Solves the least-squares problem `min ‖A x − b‖₂`.
    ///
    /// Returns [`LinalgError::Singular`] when R has a (near-)zero diagonal,
    /// i.e. the columns of `A` are linearly dependent.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let (m, n) = (self.qr.rows(), self.qr.cols());
        if b.len() != m {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("vector of length {m}"),
                got: format!("length {}", b.len()),
            });
        }
        let mut y = b.to_vec();
        self.apply_qt(&mut y);
        // Back substitution with R.
        let mut x = vec![0.0; n];
        let scale = self.qr.max_abs().max(1.0);
        for i in (0..n).rev() {
            let mut sum = y[i];
            for j in (i + 1)..n {
                sum -= self.qr.get(i, j) * x[j];
            }
            let rii = self.qr.get(i, i);
            if rii.abs() < 1e-12 * scale {
                return Err(LinalgError::Singular);
            }
            x[i] = sum / rii;
        }
        Ok(x)
    }
}

/// One-shot least-squares solve `min ‖A x − b‖₂` via Householder QR.
pub fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    QrFactor::new(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_square_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let b = [5.0, 10.0];
        let x = lstsq(&a, &b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn overdetermined_regression_recovers_line() {
        // y = 3 + 2t with noise-free observations.
        let n = 20;
        let a = Matrix::from_fn(n, 2, |i, j| if j == 0 { 1.0 } else { i as f64 });
        let b: Vec<f64> = (0..n).map(|i| 3.0 + 2.0 * i as f64).collect();
        let x = lstsq(&a, &b).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-9);
        assert!((x[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn least_squares_minimizes_residual() {
        // Inconsistent system: solution should be the projection.
        let a = Matrix::from_rows(&[&[1.0], &[1.0], &[1.0]]);
        let b = [1.0, 2.0, 6.0];
        let x = lstsq(&a, &b).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-10); // mean minimizes squared error
    }

    #[test]
    fn singular_columns_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        assert_eq!(
            lstsq(&a, &[1.0, 2.0, 3.0]).unwrap_err(),
            LinalgError::Singular
        );
    }

    #[test]
    fn wide_matrix_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(QrFactor::new(&a).is_err());
    }

    #[test]
    fn negative_leading_coefficient() {
        // Regression against a column starting negative exercises the
        // sign-handling branch of the Householder construction.
        let a = Matrix::from_rows(&[&[-1.0, 1.0], &[-2.0, 1.0], &[-3.0, 1.0]]);
        let b = [2.0, 3.0, 4.0]; // y = -x + 1
        let x = lstsq(&a, &b).unwrap();
        assert!((x[0] + 1.0).abs() < 1e-10);
        assert!((x[1] - 1.0).abs() < 1e-10);
    }
}
