//! Decision trees: a gradient/hessian CART shared by every boosting variant
//! and the random-forest regressor, plus a Gini classification tree for the
//! forest classifiers.
//!
//! The gradient/hessian formulation (XGBoost-style) subsumes plain
//! regression: fitting targets `y` is `grad = −y, hess = 1`, which makes the
//! optimal leaf weight `Σy/(n+λ)` and the gain criterion equivalent to
//! variance reduction.

use ff_linalg::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

/// Configuration of a gradient/hessian tree.
#[derive(Debug, Clone, Copy)]
pub struct GhTreeConfig {
    /// Maximum tree depth (0 = a single leaf).
    pub max_depth: usize,
    /// Minimum hessian sum per child (≈ min samples for hess = 1).
    pub min_child_weight: f64,
    /// L2 regularization on leaf weights (XGBoost's `reg_lambda`).
    pub lambda: f64,
    /// Fraction of features considered at each split, in (0, 1].
    pub feature_subsample: f64,
    /// Extra-Trees mode: draw one random threshold per feature instead of
    /// scanning all cut points.
    pub random_thresholds: bool,
}

impl Default for GhTreeConfig {
    fn default() -> Self {
        GhTreeConfig {
            max_depth: 6,
            min_child_weight: 1.0,
            lambda: 1.0,
            feature_subsample: 1.0,
            random_thresholds: false,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// The fewest bytes [`GhTree::write_to`] writes for one node (a leaf: tag
/// and value) and for one tree (node count, one leaf, empty gains).
const MIN_NODE_BYTES: usize = 1 + 8;
pub(crate) const MIN_TREE_BYTES: usize = 4 + MIN_NODE_BYTES + 4;

/// A fitted gradient/hessian regression tree.
#[derive(Debug, Clone)]
pub struct GhTree {
    nodes: Vec<Node>,
    /// Total split gain attributed to each feature (impurity importance).
    pub feature_gains: Vec<f64>,
}

impl GhTree {
    /// Fits a tree to gradients/hessians over the given row subset.
    pub fn fit(
        x: &Matrix,
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        cfg: &GhTreeConfig,
        rng: &mut StdRng,
    ) -> GhTree {
        let mut tree = GhTree {
            nodes: Vec::new(),
            feature_gains: vec![0.0; x.cols()],
        };
        let mut rows_buf = rows.to_vec();
        tree.build(x, grad, hess, &mut rows_buf, 0, cfg, rng);
        tree
    }

    fn leaf_value(grad_sum: f64, hess_sum: f64, lambda: f64) -> f64 {
        -grad_sum / (hess_sum + lambda)
    }

    #[allow(clippy::too_many_arguments)] // internal recursion carries its full context
    fn build(
        &mut self,
        x: &Matrix,
        grad: &[f64],
        hess: &[f64],
        rows: &mut [usize],
        depth: usize,
        cfg: &GhTreeConfig,
        rng: &mut StdRng,
    ) -> usize {
        let (g_sum, h_sum) = rows
            .iter()
            .fold((0.0, 0.0), |(g, h), &i| (g + grad[i], h + hess[i]));
        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf {
                value: Self::leaf_value(g_sum, h_sum, cfg.lambda),
            });
            nodes.len() - 1
        };
        if depth >= cfg.max_depth || rows.len() < 2 || h_sum < 2.0 * cfg.min_child_weight {
            return make_leaf(&mut self.nodes);
        }
        // Candidate features.
        let p = x.cols();
        let k = ((p as f64 * cfg.feature_subsample).ceil() as usize).clamp(1, p);
        let features: Vec<usize> = if k == p {
            (0..p).collect()
        } else {
            let mut all: Vec<usize> = (0..p).collect();
            for i in 0..k {
                let j = rng.gen_range(i..p);
                all.swap(i, j);
            }
            all.truncate(k);
            all
        };

        let parent_score = g_sum * g_sum / (h_sum + cfg.lambda);
        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)

        for &f in &features {
            if cfg.random_thresholds {
                // Extra-Trees: a single uniform threshold in [min, max).
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for &i in rows.iter() {
                    let v = x.get(i, f);
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                if hi <= lo {
                    continue;
                }
                let thr = lo + rng.gen::<f64>() * (hi - lo);
                let (mut gl, mut hl) = (0.0, 0.0);
                for &i in rows.iter() {
                    if x.get(i, f) < thr {
                        gl += grad[i];
                        hl += hess[i];
                    }
                }
                let (gr, hr) = (g_sum - gl, h_sum - hl);
                if hl < cfg.min_child_weight || hr < cfg.min_child_weight {
                    continue;
                }
                let gain = 0.5
                    * (gl * gl / (hl + cfg.lambda) + gr * gr / (hr + cfg.lambda) - parent_score);
                if gain > best.map_or(1e-12, |b| b.0) {
                    best = Some((gain, f, thr));
                }
            } else {
                // Exact greedy: scan sorted cut points.
                let mut order: Vec<usize> = rows.to_vec();
                order.sort_by(|&a, &b| x.get(a, f).total_cmp(&x.get(b, f)));
                let (mut gl, mut hl) = (0.0, 0.0);
                for w in 0..order.len() - 1 {
                    let i = order[w];
                    gl += grad[i];
                    hl += hess[i];
                    let v_here = x.get(i, f);
                    let v_next = x.get(order[w + 1], f);
                    if v_next <= v_here {
                        continue; // no valid cut between equal values
                    }
                    let (gr, hr) = (g_sum - gl, h_sum - hl);
                    if hl < cfg.min_child_weight || hr < cfg.min_child_weight {
                        continue;
                    }
                    let gain = 0.5
                        * (gl * gl / (hl + cfg.lambda) + gr * gr / (hr + cfg.lambda)
                            - parent_score);
                    if gain > best.map_or(1e-12, |b| b.0) {
                        best = Some((gain, f, 0.5 * (v_here + v_next)));
                    }
                }
            }
        }

        let Some((gain, feature, threshold)) = best else {
            return make_leaf(&mut self.nodes);
        };
        self.feature_gains[feature] += gain;

        // Partition rows in place.
        let mut split_point = 0;
        for i in 0..rows.len() {
            if x.get(rows[i], feature) < threshold {
                rows.swap(i, split_point);
                split_point += 1;
            }
        }
        if split_point == 0 || split_point == rows.len() {
            return make_leaf(&mut self.nodes);
        }
        // Reserve the split node slot, then build children.
        let node_idx = self.nodes.len();
        self.nodes.push(Node::Leaf { value: 0.0 }); // placeholder
        let (left_rows, right_rows) = rows.split_at_mut(split_point);
        let left = self.build(x, grad, hess, left_rows, depth + 1, cfg, rng);
        let right = self.build(x, grad, hess, right_rows, depth + 1, cfg, rng);
        self.nodes[node_idx] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        node_idx
    }

    /// Predicts the leaf weight for one feature row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if row[*feature] < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Serializes the tree into `w` (see [`crate::ser`]).
    pub fn write_to(&self, w: &mut crate::ser::Writer) {
        w.u32(self.nodes.len() as u32);
        for node in &self.nodes {
            match node {
                Node::Leaf { value } => {
                    w.u8(0);
                    w.f64(*value);
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    w.u8(1);
                    w.u32(*feature as u32);
                    w.f64(*threshold);
                    w.u32(*left as u32);
                    w.u32(*right as u32);
                }
            }
        }
        w.f64s(&self.feature_gains);
    }

    /// Deserializes a tree written by [`GhTree::write_to`]. Child indices
    /// are bounds-checked so corrupt input cannot cause out-of-range
    /// traversal.
    pub fn read_from(r: &mut crate::ser::Reader<'_>) -> Result<GhTree, crate::ser::SerError> {
        let n = r.u32()? as usize;
        if n == 0 || n > 1_000_000 {
            return Err(crate::ser::SerError::BadLength(n as u64));
        }
        // A count the remaining input cannot hold is truncation, refused
        // before any room is reserved for it.
        if n.saturating_mul(MIN_NODE_BYTES) > r.remaining() {
            return Err(crate::ser::SerError::Truncated);
        }
        let mut nodes = Vec::with_capacity(n);
        for _ in 0..n {
            let tag = r.u8()?;
            nodes.push(match tag {
                0 => Node::Leaf { value: r.f64()? },
                1 => {
                    let feature = r.u32()? as usize;
                    let threshold = r.f64()?;
                    let left = r.u32()? as usize;
                    let right = r.u32()? as usize;
                    if left >= n || right >= n {
                        return Err(crate::ser::SerError::BadLength(left.max(right) as u64));
                    }
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    }
                }
                t => return Err(crate::ser::SerError::BadTag(t)),
            });
        }
        let feature_gains = r.f64s(100_000)?;
        Ok(GhTree {
            nodes,
            feature_gains,
        })
    }
}

/// A Gini-impurity classification tree with class-distribution leaves.
#[derive(Debug, Clone)]
pub struct ClassificationTree {
    nodes: Vec<ClsNode>,
    n_classes: usize,
    /// Total impurity decrease per feature.
    pub feature_gains: Vec<f64>,
}

#[derive(Debug, Clone)]
enum ClsNode {
    Leaf {
        probs: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// Configuration for classification trees.
#[derive(Debug, Clone, Copy)]
pub struct ClsTreeConfig {
    /// Maximum depth.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Fraction of features per split.
    pub feature_subsample: f64,
    /// Extra-Trees random thresholds.
    pub random_thresholds: bool,
}

impl Default for ClsTreeConfig {
    fn default() -> Self {
        ClsTreeConfig {
            max_depth: 12,
            min_samples_leaf: 1,
            feature_subsample: 1.0,
            random_thresholds: false,
        }
    }
}

fn gini(counts: &[f64], total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    1.0 - counts
        .iter()
        .map(|c| (c / total) * (c / total))
        .sum::<f64>()
}

impl ClassificationTree {
    /// Fits the tree on labeled rows.
    pub fn fit(
        x: &Matrix,
        labels: &[usize],
        n_classes: usize,
        rows: &[usize],
        cfg: &ClsTreeConfig,
        rng: &mut StdRng,
    ) -> ClassificationTree {
        let mut tree = ClassificationTree {
            nodes: Vec::new(),
            n_classes,
            feature_gains: vec![0.0; x.cols()],
        };
        let mut rows_buf = rows.to_vec();
        tree.build(x, labels, &mut rows_buf, 0, cfg, rng);
        tree
    }

    fn build(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        rows: &mut [usize],
        depth: usize,
        cfg: &ClsTreeConfig,
        rng: &mut StdRng,
    ) -> usize {
        let n_classes = self.n_classes;
        let mut counts = vec![0.0; n_classes];
        for &i in rows.iter() {
            counts[labels[i]] += 1.0;
        }
        let total = rows.len() as f64;
        let node_gini = gini(&counts, total);
        let make_leaf = |nodes: &mut Vec<ClsNode>| {
            let probs: Vec<f64> = counts.iter().map(|c| c / total.max(1.0)).collect();
            nodes.push(ClsNode::Leaf { probs });
            nodes.len() - 1
        };
        if depth >= cfg.max_depth || node_gini <= 1e-12 || rows.len() < 2 * cfg.min_samples_leaf {
            return make_leaf(&mut self.nodes);
        }

        let p = x.cols();
        let k = ((p as f64 * cfg.feature_subsample).ceil() as usize).clamp(1, p);
        let features: Vec<usize> = if k == p {
            (0..p).collect()
        } else {
            let mut all: Vec<usize> = (0..p).collect();
            for i in 0..k {
                let j = rng.gen_range(i..p);
                all.swap(i, j);
            }
            all.truncate(k);
            all
        };

        let mut best: Option<(f64, usize, f64)> = None;
        for &f in &features {
            if cfg.random_thresholds {
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for &i in rows.iter() {
                    let v = x.get(i, f);
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                if hi <= lo {
                    continue;
                }
                let thr = lo + rng.gen::<f64>() * (hi - lo);
                let mut lc = vec![0.0; n_classes];
                let mut ln = 0.0;
                for &i in rows.iter() {
                    if x.get(i, f) < thr {
                        lc[labels[i]] += 1.0;
                        ln += 1.0;
                    }
                }
                let rn = total - ln;
                if ln < cfg.min_samples_leaf as f64 || rn < cfg.min_samples_leaf as f64 {
                    continue;
                }
                let rc: Vec<f64> = counts.iter().zip(&lc).map(|(c, l)| c - l).collect();
                let gain = node_gini - (ln / total) * gini(&lc, ln) - (rn / total) * gini(&rc, rn);
                if gain > best.map_or(1e-12, |b| b.0) {
                    best = Some((gain, f, thr));
                }
            } else {
                let mut order: Vec<usize> = rows.to_vec();
                order.sort_by(|&a, &b| x.get(a, f).total_cmp(&x.get(b, f)));
                let mut lc = vec![0.0; n_classes];
                for w in 0..order.len() - 1 {
                    let i = order[w];
                    lc[labels[i]] += 1.0;
                    let v_here = x.get(i, f);
                    let v_next = x.get(order[w + 1], f);
                    if v_next <= v_here {
                        continue;
                    }
                    let ln = (w + 1) as f64;
                    let rn = total - ln;
                    if ln < cfg.min_samples_leaf as f64 || rn < cfg.min_samples_leaf as f64 {
                        continue;
                    }
                    let rc: Vec<f64> = counts.iter().zip(&lc).map(|(c, l)| c - l).collect();
                    let gain =
                        node_gini - (ln / total) * gini(&lc, ln) - (rn / total) * gini(&rc, rn);
                    if gain > best.map_or(1e-12, |b| b.0) {
                        best = Some((gain, f, 0.5 * (v_here + v_next)));
                    }
                }
            }
        }

        let Some((gain, feature, threshold)) = best else {
            return make_leaf(&mut self.nodes);
        };
        self.feature_gains[feature] += gain * total;

        let mut split_point = 0;
        for i in 0..rows.len() {
            if x.get(rows[i], feature) < threshold {
                rows.swap(i, split_point);
                split_point += 1;
            }
        }
        if split_point == 0 || split_point == rows.len() {
            return make_leaf(&mut self.nodes);
        }
        let node_idx = self.nodes.len();
        self.nodes.push(ClsNode::Leaf { probs: vec![] });
        let (left_rows, right_rows) = rows.split_at_mut(split_point);
        let left = self.build(x, labels, left_rows, depth + 1, cfg, rng);
        let right = self.build(x, labels, right_rows, depth + 1, cfg, rng);
        self.nodes[node_idx] = ClsNode::Split {
            feature,
            threshold,
            left,
            right,
        };
        node_idx
    }

    /// Class probabilities for one row.
    pub fn predict_row(&self, row: &[f64]) -> &[f64] {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                ClsNode::Leaf { probs } => return probs,
                ClsNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if row[*feature] < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn gh_tree_fits_step_function() {
        // y = 1 for x < 0.5, y = 5 otherwise.
        let n = 100;
        let x = Matrix::from_fn(n, 1, |i, _| i as f64 / n as f64);
        let y: Vec<f64> = (0..n)
            .map(|i| {
                if (i as f64 / n as f64) < 0.5 {
                    1.0
                } else {
                    5.0
                }
            })
            .collect();
        let grad: Vec<f64> = y.iter().map(|&v| -v).collect();
        let hess = vec![1.0; n];
        let rows: Vec<usize> = (0..n).collect();
        let cfg = GhTreeConfig {
            max_depth: 2,
            lambda: 0.0,
            min_child_weight: 1.0,
            ..Default::default()
        };
        let tree = GhTree::fit(&x, &grad, &hess, &rows, &cfg, &mut rng());
        assert!((tree.predict_row(&[0.2]) - 1.0).abs() < 0.2);
        assert!((tree.predict_row(&[0.8]) - 5.0).abs() < 0.2);
        assert!(tree.feature_gains[0] > 0.0);
    }

    #[test]
    fn lambda_shrinks_leaf_values() {
        let x = Matrix::from_fn(10, 1, |i, _| i as f64);
        let y = [10.0; 10];
        let grad: Vec<f64> = y.iter().map(|&v| -v).collect();
        let hess = vec![1.0; 10];
        let rows: Vec<usize> = (0..10).collect();
        let small = GhTree::fit(
            &x,
            &grad,
            &hess,
            &rows,
            &GhTreeConfig {
                max_depth: 0,
                lambda: 0.0,
                ..Default::default()
            },
            &mut rng(),
        );
        let big = GhTree::fit(
            &x,
            &grad,
            &hess,
            &rows,
            &GhTreeConfig {
                max_depth: 0,
                lambda: 10.0,
                ..Default::default()
            },
            &mut rng(),
        );
        assert!((small.predict_row(&[0.0]) - 10.0).abs() < 1e-9);
        assert!((big.predict_row(&[0.0]) - 5.0).abs() < 1e-9); // 100/(10+10)
    }

    #[test]
    fn max_depth_zero_is_single_leaf() {
        let x = Matrix::from_fn(10, 2, |i, j| (i * (j + 1)) as f64);
        let grad = vec![-1.0; 10];
        let hess = vec![1.0; 10];
        let rows: Vec<usize> = (0..10).collect();
        let tree = GhTree::fit(
            &x,
            &grad,
            &hess,
            &rows,
            &GhTreeConfig {
                max_depth: 0,
                ..Default::default()
            },
            &mut rng(),
        );
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn classification_tree_separates_classes() {
        let n = 90;
        let x = Matrix::from_fn(n, 1, |i, _| i as f64);
        let labels: Vec<usize> = (0..n).map(|i| i / 30).collect();
        let rows: Vec<usize> = (0..n).collect();
        let tree =
            ClassificationTree::fit(&x, &labels, 3, &rows, &ClsTreeConfig::default(), &mut rng());
        assert!(tree.predict_row(&[5.0])[0] > 0.9);
        assert!(tree.predict_row(&[45.0])[1] > 0.9);
        assert!(tree.predict_row(&[75.0])[2] > 0.9);
    }

    #[test]
    fn pure_node_stops_early() {
        let x = Matrix::from_fn(20, 1, |i, _| i as f64);
        let labels = vec![0usize; 20];
        let rows: Vec<usize> = (0..20).collect();
        let tree =
            ClassificationTree::fit(&x, &labels, 2, &rows, &ClsTreeConfig::default(), &mut rng());
        assert_eq!(tree.nodes.len(), 1);
    }

    #[test]
    fn random_thresholds_still_learn() {
        let n = 100;
        let x = Matrix::from_fn(n, 1, |i, _| i as f64 / n as f64);
        let labels: Vec<usize> = (0..n).map(|i| usize::from(i >= 50)).collect();
        let rows: Vec<usize> = (0..n).collect();
        let cfg = ClsTreeConfig {
            random_thresholds: true,
            max_depth: 6,
            ..Default::default()
        };
        let tree = ClassificationTree::fit(&x, &labels, 2, &rows, &cfg, &mut rng());
        assert!(tree.predict_row(&[0.1])[0] > 0.8);
        assert!(tree.predict_row(&[0.9])[1] > 0.8);
    }
}
