//! A sequential multi-layer perceptron with regression (MSE) and
//! classification (softmax cross-entropy) heads.

use crate::activation::{softmax_rows, Relu};
use crate::adam::Adam;
use crate::dense::Dense;
use crate::{Layer, Parameterized};
use ff_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A ReLU MLP: `Dense → ReLU → … → Dense`.
#[derive(Debug, Clone)]
pub struct Mlp {
    denses: Vec<Dense>,
    relus: Vec<Relu>,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes, e.g. `[8, 32, 32, 3]` for
    /// 8 inputs, two hidden layers of 32, and 3 outputs.
    ///
    /// # Panics
    /// Panics if fewer than two sizes are given.
    pub fn new(sizes: &[usize], seed: u64) -> Mlp {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let mut rng = StdRng::seed_from_u64(seed);
        let denses: Vec<Dense> = sizes
            .windows(2)
            .map(|w| Dense::new(&mut rng, w[0], w[1]))
            .collect();
        let relus = vec![Relu::new(); denses.len().saturating_sub(1)];
        Mlp { denses, relus }
    }

    /// Forward pass (training mode: caches activations).
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        let n = self.denses.len();
        for i in 0..n {
            h = self.denses[i].forward(&h);
            if i + 1 < n {
                h = self.relus[i].forward(&h);
            }
        }
        h
    }

    /// Inference forward through `&self` (no caching).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        let n = self.denses.len();
        for i in 0..n {
            h = self.denses[i].forward_inference(&h);
            if i + 1 < n {
                h = Matrix::from_vec(
                    h.rows(),
                    h.cols(),
                    h.as_slice().iter().map(|&v| v.max(0.0)).collect(),
                );
            }
        }
        h
    }

    /// Backward pass from `∂L/∂output`.
    pub fn backward(&mut self, grad: &Matrix) -> Matrix {
        let mut g = grad.clone();
        let n = self.denses.len();
        for i in (0..n).rev() {
            if i + 1 < n {
                g = self.relus[i].backward(&g);
            }
            g = self.denses[i].backward(&g);
        }
        g
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        for d in &mut self.denses {
            d.zero_grad();
        }
    }

    /// Visits `(param, grad)` pairs of all layers.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut f64, &mut f64)) {
        for d in &mut self.denses {
            d.visit_params(f);
        }
    }

    /// One MSE training step on a batch; returns the batch loss.
    pub fn train_step_mse(&mut self, x: &Matrix, y: &Matrix, opt: &mut Adam) -> f64 {
        self.zero_grad();
        let pred = self.forward(x);
        let n = (pred.rows() * pred.cols()) as f64;
        let diff = pred.sub(y).expect("target shape mismatch");
        let loss = diff.as_slice().iter().map(|d| d * d).sum::<f64>() / n;
        let grad = diff.scale(2.0 / n);
        self.backward(&grad);
        opt.step(|f| self.visit_params(f));
        loss
    }

    /// One softmax-cross-entropy step on a batch of class labels; returns
    /// the batch loss (nats).
    pub fn train_step_cross_entropy(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        opt: &mut Adam,
    ) -> f64 {
        self.zero_grad();
        let logits = self.forward(x);
        let probs = softmax_rows(&logits);
        let n = x.rows() as f64;
        let mut loss = 0.0;
        let mut grad = probs.clone();
        for (i, &label) in labels.iter().enumerate() {
            loss -= probs.get(i, label).max(1e-12).ln();
            let v = grad.get(i, label) - 1.0;
            grad.set(i, label, v);
        }
        let grad = grad.scale(1.0 / n);
        self.backward(&grad);
        opt.step(|f| self.visit_params(f));
        loss / n
    }

    /// Class probabilities for a batch.
    pub fn predict_proba(&self, x: &Matrix) -> Matrix {
        softmax_rows(&self.forward_inference(x))
    }
}

impl Parameterized for Mlp {
    fn params_flat(&mut self) -> Vec<f64> {
        let mut out = Vec::new();
        self.visit_params(&mut |p, _| out.push(*p));
        out
    }

    fn set_params_flat(&mut self, flat: &[f64]) {
        let mut it = flat.iter();
        self.visit_params(&mut |p, _| {
            *p = *it.next().expect("flat parameter vector too short");
        });
        assert!(it.next().is_none(), "flat parameter vector too long");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_learns_xor() {
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let y = Matrix::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]);
        let mut net = Mlp::new(&[2, 16, 1], 7);
        let mut opt = Adam::new(0.02);
        let mut loss = f64::INFINITY;
        for _ in 0..2000 {
            loss = net.train_step_mse(&x, &y, &mut opt);
        }
        assert!(loss < 0.02, "XOR loss {loss}");
    }

    #[test]
    fn mlp_classifier_separates_clusters() {
        // Three well-separated 2-D clusters.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let centers = [(0.0, 0.0), (5.0, 5.0), (-5.0, 5.0)];
        let mut state = 1u64;
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..30 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let dx = ((state >> 33) as f64 / (1u64 << 30) as f64) - 1.0;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let dy = ((state >> 33) as f64 / (1u64 << 30) as f64) - 1.0;
                rows.push(vec![cx + dx * 0.5, cy + dy * 0.5]);
                labels.push(c);
            }
        }
        let x = Matrix::from_fn(rows.len(), 2, |i, j| rows[i][j]);
        let mut net = Mlp::new(&[2, 24, 3], 11);
        let mut opt = Adam::new(0.01);
        for _ in 0..400 {
            net.train_step_cross_entropy(&x, &labels, &mut opt);
        }
        let probs = net.predict_proba(&x);
        let mut correct = 0;
        for (i, &label) in labels.iter().enumerate() {
            let pred = ff_linalg::vector::argmax(probs.row(i)).unwrap();
            correct += usize::from(pred == label);
        }
        let acc = correct as f64 / labels.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn params_roundtrip() {
        let mut a = Mlp::new(&[3, 8, 2], 1);
        let mut b = Mlp::new(&[3, 8, 2], 2);
        let pa = a.params_flat();
        b.set_params_flat(&pa);
        assert_eq!(pa, b.params_flat());
        // Identical parameters ⇒ identical predictions.
        let x = Matrix::from_rows(&[&[0.1, -0.2, 0.3]]);
        let ya = a.forward_inference(&x);
        let yb = b.forward_inference(&x);
        assert_eq!(ya.as_slice(), yb.as_slice());
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn set_params_wrong_length_panics() {
        let mut net = Mlp::new(&[2, 2], 0);
        net.set_params_flat(&[1.0]);
    }

    #[test]
    fn gradient_check_full_network() {
        let mut net = Mlp::new(&[2, 4, 1], 9);
        let x = Matrix::from_rows(&[&[0.3, -0.6]]);
        let y = Matrix::from_rows(&[&[1.0]]);

        net.zero_grad();
        let pred = net.forward(&x);
        let diff = pred.sub(&y).unwrap();
        net.backward(&diff.scale(2.0));

        let mut analytic = Vec::new();
        net.visit_params(&mut |_, g| analytic.push(*g));

        let loss_of = |net: &Mlp| {
            let p = net.forward_inference(&x);
            let d = p.get(0, 0) - 1.0;
            d * d
        };
        let eps = 1e-6;
        for k in 0..analytic.len() {
            let mut idx = 0;
            net.visit_params(&mut |p, _| {
                if idx == k {
                    *p += eps;
                }
                idx += 1;
            });
            let plus = loss_of(&net);
            idx = 0;
            net.visit_params(&mut |p, _| {
                if idx == k {
                    *p -= 2.0 * eps;
                }
                idx += 1;
            });
            let minus = loss_of(&net);
            idx = 0;
            net.visit_params(&mut |p, _| {
                if idx == k {
                    *p += eps;
                }
                idx += 1;
            });
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (analytic[k] - numeric).abs() < 1e-4 * (1.0 + numeric.abs()),
                "param {k}: analytic {} vs numeric {numeric}",
                analytic[k]
            );
        }
    }
}
