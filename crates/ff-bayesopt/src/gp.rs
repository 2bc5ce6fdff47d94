//! Gaussian-process regression posterior.
//!
//! [`GaussianProcess::fit_auto`] fits from scratch: a kernel-matrix fill
//! and a jittered Cholesky factorization per grid length scale.
//! [`IncrementalGp`] keeps the same model up to date as observations
//! arrive, bit for bit, by extending one carried factor per length scale.
//! Both hand out a [`Posterior`], the one prediction path.

use crate::kernel::Kernel;
use crate::{BoError, Result};
use ff_linalg::cholesky::{CholeskyFactor, GrowingCholesky};
use ff_linalg::Matrix;

/// Length scales `fit_auto` selects from by marginal likelihood.
const GRID: [f64; 5] = [0.1, 0.2, 0.4, 0.7, 1.2];
/// First diagonal jitter of the factorization ladder, and its rung count.
const JITTER: f64 = 1e-8;
const JITTER_TRIES: usize = 10;

fn matern(length_scale: f64) -> Kernel {
    Kernel::Matern52 {
        length_scale,
        variance: 1.0,
    }
}

/// The observation noise as added to the kernel diagonal.
fn diagonal_noise(noise: f64) -> f64 {
    noise.max(1e-10)
}

/// Standardized targets, so kernel variance ~1 is well-matched, with the
/// mean and spread to undo it.
fn standardize(ys: &[f64]) -> (Vec<f64>, f64, f64) {
    let y_mean = ff_linalg::vector::mean(ys);
    let y_std = ff_linalg::vector::stddev(ys).max(1e-9);
    let ys_n = ys.iter().map(|&v| (v - y_mean) / y_std).collect();
    (ys_n, y_mean, y_std)
}

/// `fit_auto`'s selection rule: the first length scale of highest log
/// marginal likelihood wins.
fn improves(lml: f64, best: Option<f64>) -> bool {
    !matches!(best, Some(b) if lml <= b)
}

fn numerical(e: ff_linalg::LinalgError) -> BoError {
    BoError::Numerical(e.to_string())
}

fn empty_training_set() -> BoError {
    BoError::Numerical("empty or mismatched training set".into())
}

/// A fitted GP posterior over observed `(x, y)` pairs.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    kernel: Kernel,
    noise: f64,
    xs: Vec<Vec<f64>>,
    /// α = K⁻¹ (y − μ)
    alpha: Vec<f64>,
    factor: CholeskyFactor,
    y_mean: f64,
    y_std: f64,
}

impl GaussianProcess {
    /// Fits the posterior. `noise` is the observation noise variance added
    /// to the kernel diagonal (on the standardized-target scale).
    pub fn fit(kernel: Kernel, noise: f64, xs: &[Vec<f64>], ys: &[f64]) -> Result<GaussianProcess> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(empty_training_set());
        }
        if let Some(x) = xs.iter().find(|x| x.len() != xs[0].len()) {
            return Err(BoError::DimensionMismatch {
                expected: xs[0].len(),
                got: x.len(),
            });
        }
        let n = xs.len();
        let (ys_n, y_mean, y_std) = standardize(ys);

        let mut k = Matrix::from_fn(n, n, |i, j| kernel.eval(&xs[i], &xs[j]));
        k.add_diagonal(diagonal_noise(noise));
        let factor =
            CholeskyFactor::new_with_jitter(&k, JITTER, JITTER_TRIES).map_err(numerical)?;
        let alpha = factor.solve(&ys_n).map_err(numerical)?;
        Ok(GaussianProcess {
            kernel,
            noise,
            xs: xs.to_vec(),
            alpha,
            factor,
            y_mean,
            y_std,
        })
    }

    /// Fits a Matérn-5/2 GP, selecting the length scale from a small grid by
    /// maximum log marginal likelihood — the standard type-II ML model
    /// selection, replacing hand-tuned heuristics. This is the from-scratch
    /// reference [`IncrementalGp`] reproduces.
    pub fn fit_auto(noise: f64, xs: &[Vec<f64>], ys: &[f64]) -> Result<GaussianProcess> {
        let mut best: Option<(f64, GaussianProcess)> = None;
        for &length_scale in &GRID {
            let gp = match Self::fit(matern(length_scale), noise, xs, ys) {
                Ok(gp) => gp,
                Err(_) => continue,
            };
            let lml = gp.log_marginal_likelihood();
            if improves(lml, best.as_ref().map(|(b, _)| *b)) {
                best = Some((lml, gp));
            }
        }
        best.map(|(_, gp)| gp)
            .ok_or_else(|| BoError::Numerical("no length scale factorized".into()))
    }

    /// The posterior as the prediction path reads it.
    pub fn posterior(&self) -> Posterior<'_> {
        Posterior {
            kernel: self.kernel,
            noise: self.noise,
            xs: &self.xs,
            alpha: &self.alpha,
            factor: &self.factor,
            y_mean: self.y_mean,
            y_std: self.y_std,
        }
    }

    /// Log marginal likelihood of the (standardized) training targets.
    pub fn log_marginal_likelihood(&self) -> f64 {
        self.posterior().log_marginal_likelihood()
    }

    /// Posterior mean and variance at `x` (in original target units).
    pub fn predict(&self, x: &[f64]) -> Result<(f64, f64)> {
        self.posterior().predict(x)
    }

    /// Number of training points.
    pub fn n_observations(&self) -> usize {
        self.xs.len()
    }
}

/// A GP posterior as prediction reads it, borrowed from the
/// [`GaussianProcess`] or [`IncrementalGp`] that fitted it.
#[derive(Debug, Clone, Copy)]
pub struct Posterior<'a> {
    kernel: Kernel,
    noise: f64,
    xs: &'a [Vec<f64>],
    alpha: &'a [f64],
    factor: &'a CholeskyFactor,
    y_mean: f64,
    y_std: f64,
}

impl Posterior<'_> {
    /// The covariance kernel, with the selected length scale.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// α = K⁻¹ (y − μ) on the standardized targets.
    pub fn alpha(&self) -> &[f64] {
        self.alpha
    }

    /// Log marginal likelihood of the (standardized) training targets:
    /// `−½ yᵀα − Σᵢ log Lᵢᵢ − n/2 log 2π`.
    pub fn log_marginal_likelihood(&self) -> f64 {
        let n = self.xs.len() as f64;
        // yᵀα = (LLᵀα)ᵀα = ‖Lᵀα‖². Each (Lᵀα)ᵢ = Σ_{j ≥ i} Lⱼᵢ αⱼ sums in
        // ascending j; walking L by rows keeps that order.
        let mut lt_alpha = vec![0.0; self.alpha.len()];
        for (j, &a) in self.alpha.iter().enumerate() {
            for (o, &l) in lt_alpha.iter_mut().zip(self.factor.row(j)) {
                *o += l * a;
            }
        }
        let quad: f64 = lt_alpha.iter().map(|v| v * v).sum();
        -0.5 * quad - 0.5 * self.factor.log_det() - 0.5 * n * (2.0 * std::f64::consts::PI).ln()
    }

    fn check_dim(&self, x: &[f64]) -> Result<()> {
        let expected = self.xs[0].len();
        if x.len() != expected {
            return Err(BoError::DimensionMismatch {
                expected,
                got: x.len(),
            });
        }
        Ok(())
    }

    /// Mean and variance in target units from `k*ᵀα` and `‖L⁻¹k*‖²`.
    fn moments(&self, k_alpha: f64, v_sq: f64) -> (f64, f64) {
        let var_n = (self.kernel.diag() + self.noise - v_sq).max(0.0);
        (
            k_alpha * self.y_std + self.y_mean,
            var_n * self.y_std * self.y_std,
        )
    }

    /// Posterior mean and variance at `x` (in original target units).
    pub fn predict(&self, x: &[f64]) -> Result<(f64, f64)> {
        self.check_dim(x)?;
        let kstar: Vec<f64> = self.xs.iter().map(|xi| self.kernel.eval(xi, x)).collect();
        // var = k(x,x) − k*ᵀ K⁻¹ k*.
        let v = self.factor.solve_lower(&kstar).map_err(numerical)?;
        Ok(self.moments(
            ff_linalg::vector::dot(&kstar, self.alpha),
            ff_linalg::vector::dot(&v, &v),
        ))
    }

    /// [`predict`](Self::predict) at every row of `zs`, bit for bit, with
    /// one blocked triangular solve for all of them. `zs` holds the points
    /// row-major, each as long as the training inputs; a trailing partial
    /// row is a [`BoError::DimensionMismatch`] reporting its length.
    pub fn predict_block(&self, zs: &[f64]) -> Result<Vec<(f64, f64)>> {
        let d = self.xs[0].len();
        let m = zs.len().checked_div(d).unwrap_or(0);
        if m * d != zs.len() {
            return Err(BoError::DimensionMismatch {
                expected: d,
                got: zs.len() - m * d,
            });
        }
        if m == 0 {
            return Ok(Vec::new());
        }
        // Row i holds k(xᵢ, z) for every z: column c is point c's k*. The
        // squared distances accumulate lane by lane in `sq_dist`'s order —
        // ascending coordinate, from `Iterator::sum`'s −0.0 — over the
        // points' coordinates laid out lane-major, so they vectorise across
        // points and every entry equals `kernel.eval(xᵢ, z)` bit for bit.
        let mut lanes = vec![0.0; d * m];
        for (c, z) in zs.chunks_exact(d).enumerate() {
            for (k, &v) in z.iter().enumerate() {
                lanes[k * m + c] = v;
            }
        }
        let mut block = vec![-0.0; self.xs.len() * m];
        for (xi, row) in self.xs.iter().zip(block.chunks_exact_mut(m)) {
            for (&x, zk) in xi.iter().zip(lanes.chunks_exact(m)) {
                for (r2, &y) in row.iter_mut().zip(zk) {
                    *r2 += (x - y) * (x - y);
                }
            }
            for v in row.iter_mut() {
                *v = self.kernel.of_sq_dist(*v);
            }
        }
        // Per-lane dot products in `dot`'s order: ascending i, from the
        // −0.0 that `Iterator::sum` starts at.
        let mut k_alpha = vec![-0.0; m];
        for (row, &a) in block.chunks_exact(m).zip(self.alpha) {
            for (s, &k) in k_alpha.iter_mut().zip(row) {
                *s += k * a;
            }
        }
        self.factor
            .solve_lower_block(&mut block, m)
            .map_err(numerical)?;
        let mut v_sq = vec![-0.0; m];
        for row in block.chunks_exact(m) {
            for (s, &v) in v_sq.iter_mut().zip(row) {
                *s += v * v;
            }
        }
        Ok(k_alpha
            .into_iter()
            .zip(v_sq)
            .map(|(ka, vv)| self.moments(ka, vv))
            .collect())
    }
}

/// The type-II maximum-likelihood GP of [`GaussianProcess::fit_auto`],
/// kept up to date as observations arrive.
///
/// Each grid length scale carries a [`GrowingCholesky`] — its rung on the
/// jitter ladder and its packed factor — that [`fit`](Self::fit) extends
/// by one bordered row per observation pushed since the last fit: n kernel
/// evaluations and an O(n²) row instead of a kernel-matrix fill and an
/// O(n³) factorization. α, the log marginal likelihood and the
/// length-scale choice are then recomputed from the carried factors in
/// O(n²). Every fit is bit-identical to `fit_auto` on the same
/// observations, and a length scale `fit_auto` cannot factor stays skipped.
#[derive(Debug, Clone, Default)]
pub struct IncrementalGp {
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    /// The noise the carried factors were built with.
    noise: f64,
    /// One factor per `GRID` length scale; empty until the first fit.
    scales: Vec<GrowingCholesky>,
    /// α of the length scale the last fit selected.
    alpha: Vec<f64>,
}

impl IncrementalGp {
    /// An empty model.
    pub fn new() -> IncrementalGp {
        IncrementalGp::default()
    }

    /// Records an observation; the factors catch up at the next fit.
    pub fn push(&mut self, x: Vec<f64>, y: f64) -> Result<()> {
        if let Some(first) = self.xs.first() {
            if x.len() != first.len() {
                return Err(BoError::DimensionMismatch {
                    expected: first.len(),
                    got: x.len(),
                });
            }
        }
        self.xs.push(x);
        self.ys.push(y);
        Ok(())
    }

    /// Brings every length scale's factor up to the current observations
    /// and returns the posterior `fit_auto(noise, xs, ys)` would give, bit
    /// for bit. A change of `noise` restarts the factors.
    pub fn fit(&mut self, noise: f64) -> Result<Posterior<'_>> {
        if self.xs.is_empty() {
            return Err(empty_training_set());
        }
        if self.scales.is_empty() || noise.to_bits() != self.noise.to_bits() {
            self.noise = noise;
            self.scales = GRID
                .iter()
                .map(|_| GrowingCholesky::new(JITTER, JITTER_TRIES))
                .collect();
        }
        let n = self.xs.len();
        let (ys_n, y_mean, y_std) = standardize(&self.ys);
        let diagonal = diagonal_noise(noise);
        let xs = &self.xs;
        let mut best: Option<(f64, usize, Vec<f64>)> = None;
        for (s, growing) in self.scales.iter_mut().enumerate() {
            let kernel = matern(GRID[s]);
            let entry = |i: usize, j: usize| {
                let k = kernel.eval(&xs[i], &xs[j]);
                if i == j {
                    k + diagonal
                } else {
                    k
                }
            };
            while growing.factor().is_some_and(|f| f.dim() < n) {
                if growing.push(entry).is_err() {
                    break;
                }
            }
            let Some(factor) = growing.factor() else {
                continue;
            };
            let alpha = factor.solve(&ys_n).map_err(numerical)?;
            let lml = Posterior {
                kernel,
                noise,
                xs,
                alpha: &alpha,
                factor,
                y_mean,
                y_std,
            }
            .log_marginal_likelihood();
            if improves(lml, best.as_ref().map(|(b, _, _)| *b)) {
                best = Some((lml, s, alpha));
            }
        }
        let (_, s, alpha) =
            best.ok_or_else(|| BoError::Numerical("no length scale factorized".into()))?;
        self.alpha = alpha;
        Ok(Posterior {
            kernel: matern(GRID[s]),
            noise,
            xs,
            alpha: &self.alpha,
            factor: self.scales[s].factor().expect("selected scale factored"),
            y_mean,
            y_std,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> Kernel {
        Kernel::Matern52 {
            length_scale: 0.2,
            variance: 1.0,
        }
    }

    #[test]
    fn posterior_interpolates_observations() {
        let xs: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 / 5.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 6.0).sin() * 3.0 + 10.0).collect();
        let gp = GaussianProcess::fit(kernel(), 1e-8, &xs, &ys).unwrap();
        for (x, &y) in xs.iter().zip(&ys) {
            let (m, v) = gp.predict(x).unwrap();
            assert!((m - y).abs() < 1e-3, "mean {m} vs obs {y}");
            assert!(v < 1e-4, "variance at observation {v}");
        }
    }

    #[test]
    fn variance_grows_away_from_data() {
        let xs = vec![vec![0.0], vec![0.1]];
        let ys = vec![1.0, 2.0];
        let gp = GaussianProcess::fit(kernel(), 1e-6, &xs, &ys).unwrap();
        let (_, v_near) = gp.predict(&[0.05]).unwrap();
        let (_, v_far) = gp.predict(&[0.9]).unwrap();
        assert!(v_far > v_near * 5.0, "near {v_near} far {v_far}");
    }

    #[test]
    fn posterior_mean_reverts_to_prior_far_away() {
        let xs = vec![vec![0.0]];
        let ys = vec![100.0];
        let gp = GaussianProcess::fit(kernel(), 1e-6, &xs, &ys).unwrap();
        let (m_far, _) = gp.predict(&[50.0]).unwrap();
        // Far from data, mean returns toward the (standardized) prior mean,
        // i.e. the observed y mean = 100 here. With one point mean IS 100;
        // use two points to test reversion to their average.
        let xs = vec![vec![0.0], vec![0.05]];
        let ys = vec![90.0, 110.0];
        let gp = GaussianProcess::fit(kernel(), 1e-6, &xs, &ys).unwrap();
        let (m_far2, _) = gp.predict(&[50.0]).unwrap();
        assert!((m_far2 - 100.0).abs() < 1.0, "far mean {m_far2}");
        let _ = m_far;
    }

    #[test]
    fn noise_smooths_interpolation() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let ys: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let exact = GaussianProcess::fit(kernel(), 1e-8, &xs, &ys).unwrap();
        let noisy = GaussianProcess::fit(kernel(), 1.0, &xs, &ys).unwrap();
        let (m_exact, _) = exact.predict(&xs[0]).unwrap();
        let (m_noisy, _) = noisy.predict(&xs[0]).unwrap();
        assert!((m_exact - 1.0).abs() < 0.05);
        assert!(
            m_noisy.abs() < (m_exact - 0.0).abs(),
            "noise should shrink toward mean"
        );
    }

    #[test]
    fn auto_fit_prefers_matching_length_scale() {
        // Smooth function: the marginal likelihood should prefer a longer
        // length scale over a tiny one.
        let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 / 11.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 3.0).sin()).collect();
        let auto = GaussianProcess::fit_auto(1e-6, &xs, &ys).unwrap();
        let tiny = GaussianProcess::fit(
            Kernel::Matern52 {
                length_scale: 0.01,
                variance: 1.0,
            },
            1e-6,
            &xs,
            &ys,
        )
        .unwrap();
        assert!(auto.log_marginal_likelihood() > tiny.log_marginal_likelihood());
        // Interpolation quality at a midpoint should be decent.
        let (m, _) = auto.predict(&[0.5 / 11.0 + 0.04]).unwrap();
        assert!(m.is_finite());
    }

    #[test]
    fn log_marginal_likelihood_is_finite_and_ordered() {
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x[0]).collect();
        let good = GaussianProcess::fit(
            Kernel::Matern52 {
                length_scale: 0.5,
                variance: 1.0,
            },
            1e-6,
            &xs,
            &ys,
        )
        .unwrap();
        assert!(good.log_marginal_likelihood().is_finite());
    }

    #[test]
    fn empty_training_set_rejected() {
        assert!(GaussianProcess::fit(kernel(), 1e-6, &[], &[]).is_err());
    }

    #[test]
    fn predict_rejects_a_point_of_the_wrong_length() {
        let xs = vec![vec![0.1, 0.2], vec![0.7, 0.4]];
        let gp = GaussianProcess::fit(kernel(), 1e-6, &xs, &[1.0, 2.0]).unwrap();
        let mismatch = BoError::DimensionMismatch {
            expected: 2,
            got: 1,
        };
        assert_eq!(gp.predict(&[0.1]), Err(mismatch.clone()));
        assert_eq!(gp.posterior().predict_block(&[0.1]), Err(mismatch.clone()));
        assert!(matches!(
            gp.predict(&[0.1, 0.2, 0.3]),
            Err(BoError::DimensionMismatch { got: 3, .. })
        ));
        let ragged = vec![vec![0.1, 0.2], vec![0.7]];
        assert_eq!(
            GaussianProcess::fit(kernel(), 1e-6, &ragged, &[1.0, 2.0]).unwrap_err(),
            mismatch
        );
        let mut inc = IncrementalGp::new();
        inc.push(vec![0.1, 0.2], 1.0).unwrap();
        assert_eq!(inc.push(vec![0.1], 1.0), Err(mismatch));
        assert_eq!(inc.xs.len(), 1);
    }

    #[test]
    fn incremental_fit_follows_a_noise_change() {
        let xs: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64 / 8.0, 0.5]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 5.0).cos()).collect();
        let mut inc = IncrementalGp::new();
        for (x, &y) in xs.iter().zip(&ys) {
            inc.push(x.clone(), y).unwrap();
        }
        for noise in [1e-4, 1e-2, 1e-4] {
            let got = inc.fit(noise).unwrap().log_marginal_likelihood();
            let want = GaussianProcess::fit_auto(noise, &xs, &ys)
                .unwrap()
                .log_marginal_likelihood();
            assert_eq!(got.to_bits(), want.to_bits(), "noise {noise}");
        }
    }

    #[test]
    fn incremental_fit_of_nothing_is_an_error() {
        assert!(IncrementalGp::new().fit(1e-4).is_err());
    }

    #[test]
    fn duplicate_inputs_survive_via_jitter() {
        let xs = vec![vec![0.5], vec![0.5], vec![0.5]];
        let ys = vec![1.0, 1.1, 0.9];
        let gp = GaussianProcess::fit(kernel(), 1e-6, &xs, &ys).unwrap();
        let (m, _) = gp.predict(&[0.5]).unwrap();
        assert!((m - 1.0).abs() < 0.1);
    }
}
