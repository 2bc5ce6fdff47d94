//! Covariance kernels for the GP surrogate.

/// A stationary covariance kernel over `[0, 1]^d` inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// Squared-exponential `σ² exp(−r²/(2ℓ²))`.
    Rbf {
        /// Length scale ℓ.
        length_scale: f64,
        /// Signal variance σ².
        variance: f64,
    },
    /// Matérn ν = 5/2: `σ² (1 + √5 r/ℓ + 5r²/(3ℓ²)) exp(−√5 r/ℓ)` — the
    /// standard BO default (twice differentiable but less smooth than RBF).
    Matern52 {
        /// Length scale ℓ.
        length_scale: f64,
        /// Signal variance σ².
        variance: f64,
    },
}

/// Squared Euclidean distance `Σₖ (aₖ − bₖ)²`, summed in ascending `k`.
fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

impl Kernel {
    /// Evaluates `k(a, b)`.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.of_sq_dist(sq_dist(a, b))
    }

    /// The kernel at squared distance `r2`: `eval(a, b)` is
    /// `of_sq_dist(sq_dist(a, b))`, so callers that batch the distances
    /// get the same bits.
    pub(crate) fn of_sq_dist(&self, r2: f64) -> f64 {
        match *self {
            Kernel::Rbf {
                length_scale,
                variance,
            } => variance * (-r2 / (2.0 * length_scale * length_scale)).exp(),
            Kernel::Matern52 {
                length_scale,
                variance,
            } => {
                let r = r2.sqrt();
                let s = 5f64.sqrt() * r / length_scale;
                variance * (1.0 + s + s * s / 3.0) * (-s).exp()
            }
        }
    }

    /// Signal variance `k(x, x)`.
    pub fn diag(&self) -> f64 {
        match *self {
            Kernel::Rbf { variance, .. } | Kernel::Matern52 { variance, .. } => variance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_one_at_zero_distance() {
        for k in [
            Kernel::Rbf {
                length_scale: 0.3,
                variance: 1.0,
            },
            Kernel::Matern52 {
                length_scale: 0.3,
                variance: 1.0,
            },
        ] {
            let x = [0.2, 0.7];
            assert!((k.eval(&x, &x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn kernel_decays_with_distance() {
        for k in [
            Kernel::Rbf {
                length_scale: 0.3,
                variance: 2.0,
            },
            Kernel::Matern52 {
                length_scale: 0.3,
                variance: 2.0,
            },
        ] {
            let a = [0.0];
            let near = k.eval(&a, &[0.1]);
            let far = k.eval(&a, &[0.9]);
            assert!(near > far);
            assert!(far > 0.0);
            assert!(near < 2.0 + 1e-12);
        }
    }

    #[test]
    fn kernel_is_symmetric() {
        let k = Kernel::Matern52 {
            length_scale: 0.5,
            variance: 1.3,
        };
        let a = [0.1, 0.9, 0.4];
        let b = [0.7, 0.2, 0.5];
        assert!((k.eval(&a, &b) - k.eval(&b, &a)).abs() < 1e-15);
    }

    #[test]
    fn matern_is_rougher_than_rbf_nearby() {
        // At small distances the Matérn kernel drops off faster than RBF
        // with the same length scale (linear vs quadratic decay).
        let rbf = Kernel::Rbf {
            length_scale: 0.5,
            variance: 1.0,
        };
        let mat = Kernel::Matern52 {
            length_scale: 0.5,
            variance: 1.0,
        };
        let a = [0.0];
        let b = [0.05];
        assert!(mat.eval(&a, &b) < rbf.eval(&a, &b));
    }
}
