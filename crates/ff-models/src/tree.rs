//! Decision trees: a gradient/hessian CART shared by every boosting variant
//! and the random-forest regressor, plus a Gini classification tree for the
//! forest classifiers.
//!
//! The gradient/hessian formulation (XGBoost-style) subsumes plain
//! regression: fitting targets `y` is `grad = −y, hess = 1`, which makes the
//! optimal leaf weight `Σy/(n+λ)` and the gain criterion equivalent to
//! variance reduction.
//!
//! Both trees search exact-greedy splits through one presorted finder:
//! each fit sorts every feature once, and each split carries those orders
//! into its children in linear time. The trees it builds are bit-identical
//! to sorting every node's rows per feature (the reference the unit tests
//! compare against).

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

/// The split finder both trees share. Its entries are *slots*, positions in
/// the row list the tree is fitted on, so a bootstrap duplicate or a row
/// subset needs no special case.
///
/// A node is a range `start..end` of `perm`, which holds each node's slots
/// in the order the swap partition leaves them. For every feature,
/// `order(f, start, end)` lists the same slots sorted by (`total_cmp` of
/// the value, position in `perm`): exactly what a stable sort of the
/// node's rows by that feature gives, so ties are scanned, and gradient
/// sums folded, in the order the per-node sort used.
struct Presorted {
    /// Slots in the tree's row list.
    m: usize,
    /// Feature count.
    p: usize,
    /// Feature values by slot, column-major: `cols[f * m + s]`.
    cols: Vec<f64>,
    /// Each node's slots in swap-partition order.
    perm: Vec<usize>,
    /// Per feature, each node's slots in presorted order:
    /// `sorted[f * m + start..f * m + end]`. Empty when nothing scans it.
    sorted: Vec<usize>,
    /// The current node's candidate features.
    features: Vec<usize>,
    /// Scratch of [`Presorted::split`], `m` long each: the side each slot
    /// went to, the right child's slots in value order, the place each
    /// slot's run of equal values starts, and each run's next free place.
    goes_left: Vec<bool>,
    right: Vec<usize>,
    run: Vec<usize>,
    next: Vec<usize>,
}

impl Presorted {
    /// Copies `x`'s rows at `rows` into column-major slots and, when
    /// `presort` is set, sorts each feature once by (value, slot).
    fn new(x: &Matrix, rows: &[usize], presort: bool) -> Presorted {
        let (m, p) = (rows.len(), x.cols());
        let mut cols = vec![0.0; m * p];
        for (s, &i) in rows.iter().enumerate() {
            for (f, &v) in x.row(i).iter().enumerate() {
                cols[f * m + s] = v;
            }
        }
        let mut sorted = Vec::new();
        if presort {
            sorted.reserve_exact(m * p);
            for f in 0..p {
                let col = &cols[f * m..(f + 1) * m];
                sorted.extend(0..m);
                // Stable: equal values stay in slot order, which is the
                // root's row order.
                sorted[f * m..].sort_by(|&a, &b| col[a].total_cmp(&col[b]));
            }
        }
        Presorted {
            m,
            p,
            cols,
            perm: (0..m).collect(),
            sorted,
            features: Vec::with_capacity(p),
            goes_left: vec![false; m],
            right: vec![0; m],
            run: vec![0; m],
            next: vec![0; m],
        }
    }

    /// The node's slots in row order.
    fn node(&self, start: usize, end: usize) -> &[usize] {
        &self.perm[start..end]
    }

    /// Feature `f`'s values, indexed by slot.
    fn column(&self, f: usize) -> &[f64] {
        &self.cols[f * self.m..(f + 1) * self.m]
    }

    /// The node's slots sorted by feature `f`, ties in row order.
    fn order(&self, f: usize, start: usize, end: usize) -> &[usize] {
        &self.sorted[f * self.m + start..f * self.m + end]
    }

    /// Draws the node's candidate features into `self.features`: a partial
    /// Fisher–Yates over `0..p`, drawing nothing when every feature is kept.
    fn draw_features(&mut self, subsample: f64, rng: &mut StdRng) {
        let p = self.p;
        let k = ((p as f64 * subsample).ceil() as usize).clamp(1, p);
        self.features.clear();
        self.features.extend(0..p);
        if k < p {
            for i in 0..k {
                let j = rng.gen_range(i..p);
                self.features.swap(i, j);
            }
            self.features.truncate(k);
        }
    }

    /// Partitions the node in place, rows with `feature < threshold` first,
    /// and returns the split point. With `carry`, every feature's order is
    /// then carried into the two children.
    fn split(
        &mut self,
        start: usize,
        end: usize,
        feature: usize,
        threshold: f64,
        carry: bool,
    ) -> usize {
        let col = &self.cols[feature * self.m..(feature + 1) * self.m];
        let mut mid = start;
        for i in start..end {
            let s = self.perm[i];
            let left = col[s] < threshold;
            self.goes_left[s] = left;
            if left {
                self.perm.swap(i, mid);
                mid += 1;
            }
        }
        if carry && start < mid && mid < end && !self.sorted.is_empty() {
            for f in 0..self.p {
                self.carry(f, start, mid, end);
            }
        }
        mid
    }

    /// Splits feature `f`'s order of node `start..end` into its children
    /// `start..mid` and `mid..end` in O(n).
    fn carry(&mut self, f: usize, start: usize, mid: usize, end: usize) {
        let m = self.m;
        let col = &self.cols[f * m..(f + 1) * m];
        let seg = &mut self.sorted[f * m + start..f * m + end];
        // The swap partition keeps the left child's rows in their relative
        // order, so a stable filter leaves them sorted by (value, position).
        let (mut nl, mut nr) = (0, 0);
        for j in 0..seg.len() {
            let s = seg[j];
            let left = self.goes_left[s];
            seg[nl] = s;
            self.right[nr] = s;
            nl += usize::from(left);
            nr += usize::from(!left);
        }
        // It does reorder the right child's rows, so each run of
        // bit-identical values is re-placed in the child's row order: every
        // slot notes where its run starts, then the child's rows, taken in
        // order, fill each run from its start.
        let right = &self.right[..nr];
        let mut run = 0;
        for a in 0..nr {
            if a > 0 && col[right[a]].to_bits() != col[right[a - 1]].to_bits() {
                run = a;
            }
            self.run[right[a]] = run;
            self.next[run] = run;
        }
        let dst = &mut seg[nl..];
        for &s in &self.perm[mid..end] {
            let at = &mut self.next[self.run[s]];
            dst[*at] = s;
            *at += 1;
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

/// What one [`GhTree`] fit carries through its recursion: the finder and
/// the gradients and hessians by slot.
struct GhFit {
    finder: Presorted,
    grad: Vec<f64>,
    hess: Vec<f64>,
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
        let mut fit = GhFit {
            finder: Presorted::new(x, rows, !cfg.random_thresholds && cfg.max_depth > 0),
            grad: rows.iter().map(|&i| grad[i]).collect(),
            hess: rows.iter().map(|&i| hess[i]).collect(),
        };
        tree.build(&mut fit, 0, rows.len(), 0, cfg, rng);
        tree
    }

    fn leaf_value(grad_sum: f64, hess_sum: f64, lambda: f64) -> f64 {
        -grad_sum / (hess_sum + lambda)
    }

    fn build(
        &mut self,
        fit: &mut GhFit,
        start: usize,
        end: usize,
        depth: usize,
        cfg: &GhTreeConfig,
        rng: &mut StdRng,
    ) -> usize {
        let (g_sum, h_sum) = fit
            .finder
            .node(start, end)
            .iter()
            .fold((0.0, 0.0), |(g, h), &s| (g + fit.grad[s], h + fit.hess[s]));
        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf {
                value: Self::leaf_value(g_sum, h_sum, cfg.lambda),
            });
            nodes.len() - 1
        };
        if depth >= cfg.max_depth || end - start < 2 || h_sum < 2.0 * cfg.min_child_weight {
            return make_leaf(&mut self.nodes);
        }
        fit.finder.draw_features(cfg.feature_subsample, rng);

        let parent_score = g_sum * g_sum / (h_sum + cfg.lambda);
        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        let (finder, grad, hess) = (&fit.finder, &fit.grad, &fit.hess);

        for &f in &finder.features {
            let col = finder.column(f);
            if cfg.random_thresholds {
                // Extra-Trees: a single uniform threshold in [min, max).
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for &s in finder.node(start, end) {
                    let v = col[s];
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                if hi <= lo {
                    continue;
                }
                let thr = lo + rng.gen::<f64>() * (hi - lo);
                let (mut gl, mut hl) = (0.0, 0.0);
                for &s in finder.node(start, end) {
                    if col[s] < thr {
                        gl += grad[s];
                        hl += hess[s];
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
                let order = finder.order(f, start, end);
                let (mut gl, mut hl) = (0.0, 0.0);
                for w in 0..order.len() - 1 {
                    let s = order[w];
                    gl += grad[s];
                    hl += hess[s];
                    let v_here = col[s];
                    let v_next = col[order[w + 1]];
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

        // Children at the depth limit are leaves and read no order.
        let mid = fit
            .finder
            .split(start, end, feature, threshold, depth + 1 < cfg.max_depth);
        if mid == start || mid == end {
            return make_leaf(&mut self.nodes);
        }
        // Reserve the split node slot, then build children.
        let node_idx = self.nodes.len();
        self.nodes.push(Node::Leaf { value: 0.0 }); // placeholder
        let left = self.build(fit, start, mid, depth + 1, cfg, rng);
        let right = self.build(fit, mid, end, depth + 1, cfg, rng);
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

    /// Deserializes a tree written by [`GhTree::write_to`]. A split's
    /// children must come after it and inside the tree, and its feature
    /// inside `feature_gains`, so [`GhTree::predict_row`] on a row that
    /// wide always ends at a leaf: `write_to` stores nodes in preorder,
    /// which every genuine tree meets.
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
        for i in 0..n {
            let tag = r.u8()?;
            nodes.push(match tag {
                0 => Node::Leaf { value: r.f64()? },
                1 => {
                    let feature = r.u32()? as usize;
                    let threshold = r.f64()?;
                    let left = r.u32()? as usize;
                    let right = r.u32()? as usize;
                    for child in [left, right] {
                        if child <= i || child >= n {
                            return Err(crate::ser::SerError::BadIndex(child as u64));
                        }
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
        for node in &nodes {
            if let Node::Split { feature, .. } = *node {
                if feature >= feature_gains.len() {
                    return Err(crate::ser::SerError::BadIndex(feature as u64));
                }
            }
        }
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

/// What one [`ClassificationTree`] fit carries through its recursion: the
/// finder, the labels by slot, and the class-count buffers every node
/// reuses (the node's counts, the left side's, the right side's).
struct ClsFit {
    finder: Presorted,
    labels: Vec<usize>,
    counts: Vec<f64>,
    lc: Vec<f64>,
    rc: Vec<f64>,
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
            feature_gains: vec![0.0; x.cols()],
        };
        let mut fit = ClsFit {
            finder: Presorted::new(x, rows, !cfg.random_thresholds && cfg.max_depth > 0),
            labels: rows.iter().map(|&i| labels[i]).collect(),
            counts: vec![0.0; n_classes],
            lc: vec![0.0; n_classes],
            rc: vec![0.0; n_classes],
        };
        tree.build(&mut fit, 0, rows.len(), 0, cfg, rng);
        tree
    }

    fn build(
        &mut self,
        fit: &mut ClsFit,
        start: usize,
        end: usize,
        depth: usize,
        cfg: &ClsTreeConfig,
        rng: &mut StdRng,
    ) -> usize {
        fit.counts.fill(0.0);
        for &s in fit.finder.node(start, end) {
            fit.counts[fit.labels[s]] += 1.0;
        }
        let total = (end - start) as f64;
        let counts = &fit.counts;
        let node_gini = gini(counts, total);
        let make_leaf = |nodes: &mut Vec<ClsNode>| {
            let probs: Vec<f64> = counts.iter().map(|c| c / total.max(1.0)).collect();
            nodes.push(ClsNode::Leaf { probs });
            nodes.len() - 1
        };
        if depth >= cfg.max_depth || node_gini <= 1e-12 || end - start < 2 * cfg.min_samples_leaf {
            return make_leaf(&mut self.nodes);
        }
        fit.finder.draw_features(cfg.feature_subsample, rng);

        let mut best: Option<(f64, usize, f64)> = None;
        let (finder, labels) = (&fit.finder, &fit.labels);
        let (lc, rc) = (&mut fit.lc, &mut fit.rc);
        for &f in &finder.features {
            let col = finder.column(f);
            if cfg.random_thresholds {
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for &s in finder.node(start, end) {
                    let v = col[s];
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                if hi <= lo {
                    continue;
                }
                let thr = lo + rng.gen::<f64>() * (hi - lo);
                lc.fill(0.0);
                let mut ln = 0.0;
                for &s in finder.node(start, end) {
                    if col[s] < thr {
                        lc[labels[s]] += 1.0;
                        ln += 1.0;
                    }
                }
                let rn = total - ln;
                if ln < cfg.min_samples_leaf as f64 || rn < cfg.min_samples_leaf as f64 {
                    continue;
                }
                right_counts(rc, counts, lc);
                let gain = node_gini - (ln / total) * gini(lc, ln) - (rn / total) * gini(rc, rn);
                if gain > best.map_or(1e-12, |b| b.0) {
                    best = Some((gain, f, thr));
                }
            } else {
                let order = finder.order(f, start, end);
                lc.fill(0.0);
                for w in 0..order.len() - 1 {
                    let s = order[w];
                    lc[labels[s]] += 1.0;
                    let v_here = col[s];
                    let v_next = col[order[w + 1]];
                    if v_next <= v_here {
                        continue;
                    }
                    let ln = (w + 1) as f64;
                    let rn = total - ln;
                    if ln < cfg.min_samples_leaf as f64 || rn < cfg.min_samples_leaf as f64 {
                        continue;
                    }
                    right_counts(rc, counts, lc);
                    let gain =
                        node_gini - (ln / total) * gini(lc, ln) - (rn / total) * gini(rc, rn);
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

        let mid = fit
            .finder
            .split(start, end, feature, threshold, depth + 1 < cfg.max_depth);
        if mid == start || mid == end {
            return make_leaf(&mut self.nodes);
        }
        let node_idx = self.nodes.len();
        self.nodes.push(ClsNode::Leaf { probs: vec![] });
        let left = self.build(fit, start, mid, depth + 1, cfg, rng);
        let right = self.build(fit, mid, end, depth + 1, cfg, rng);
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

/// The right side's class counts: the node's minus the left side's.
fn right_counts(rc: &mut [f64], counts: &[f64], lc: &[f64]) {
    for ((r, c), l) in rc.iter_mut().zip(counts).zip(lc) {
        *r = c - l;
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

    /// The per-node sort the presorted finder replaced, kept as the
    /// reference its trees must match bit for bit: at every node, each
    /// candidate feature's rows are cloned and stable-sorted.
    mod reference {
        use super::*;

        pub fn gh(
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
            gh_build(&mut tree, x, grad, hess, &mut rows_buf, 0, cfg, rng);
            tree
        }

        #[allow(clippy::too_many_arguments)]
        fn gh_build(
            tree: &mut GhTree,
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
                    value: GhTree::leaf_value(g_sum, h_sum, cfg.lambda),
                });
                nodes.len() - 1
            };
            if depth >= cfg.max_depth || rows.len() < 2 || h_sum < 2.0 * cfg.min_child_weight {
                return make_leaf(&mut tree.nodes);
            }
            let features = draw_features(x.cols(), cfg.feature_subsample, rng);
            let parent_score = g_sum * g_sum / (h_sum + cfg.lambda);
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
                        * (gl * gl / (hl + cfg.lambda) + gr * gr / (hr + cfg.lambda)
                            - parent_score);
                    if gain > best.map_or(1e-12, |b| b.0) {
                        best = Some((gain, f, thr));
                    }
                } else {
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
                            continue;
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
                return make_leaf(&mut tree.nodes);
            };
            tree.feature_gains[feature] += gain;
            let split_point = swap_partition(x, rows, feature, threshold);
            if split_point == 0 || split_point == rows.len() {
                return make_leaf(&mut tree.nodes);
            }
            let node_idx = tree.nodes.len();
            tree.nodes.push(Node::Leaf { value: 0.0 });
            let (left_rows, right_rows) = rows.split_at_mut(split_point);
            let left = gh_build(tree, x, grad, hess, left_rows, depth + 1, cfg, rng);
            let right = gh_build(tree, x, grad, hess, right_rows, depth + 1, cfg, rng);
            tree.nodes[node_idx] = Node::Split {
                feature,
                threshold,
                left,
                right,
            };
            node_idx
        }

        pub fn cls(
            x: &Matrix,
            labels: &[usize],
            n_classes: usize,
            rows: &[usize],
            cfg: &ClsTreeConfig,
            rng: &mut StdRng,
        ) -> ClassificationTree {
            let mut tree = ClassificationTree {
                nodes: Vec::new(),
                feature_gains: vec![0.0; x.cols()],
            };
            let mut rows_buf = rows.to_vec();
            cls_build(&mut tree, x, labels, n_classes, &mut rows_buf, 0, cfg, rng);
            tree
        }

        #[allow(clippy::too_many_arguments)]
        fn cls_build(
            tree: &mut ClassificationTree,
            x: &Matrix,
            labels: &[usize],
            n_classes: usize,
            rows: &mut [usize],
            depth: usize,
            cfg: &ClsTreeConfig,
            rng: &mut StdRng,
        ) -> usize {
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
            if depth >= cfg.max_depth || node_gini <= 1e-12 || rows.len() < 2 * cfg.min_samples_leaf
            {
                return make_leaf(&mut tree.nodes);
            }
            let features = draw_features(x.cols(), cfg.feature_subsample, rng);
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
                    let gain =
                        node_gini - (ln / total) * gini(&lc, ln) - (rn / total) * gini(&rc, rn);
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
                return make_leaf(&mut tree.nodes);
            };
            tree.feature_gains[feature] += gain * total;
            let split_point = swap_partition(x, rows, feature, threshold);
            if split_point == 0 || split_point == rows.len() {
                return make_leaf(&mut tree.nodes);
            }
            let node_idx = tree.nodes.len();
            tree.nodes.push(ClsNode::Leaf { probs: vec![] });
            let (left_rows, right_rows) = rows.split_at_mut(split_point);
            let left = cls_build(tree, x, labels, n_classes, left_rows, depth + 1, cfg, rng);
            let right = cls_build(tree, x, labels, n_classes, right_rows, depth + 1, cfg, rng);
            tree.nodes[node_idx] = ClsNode::Split {
                feature,
                threshold,
                left,
                right,
            };
            node_idx
        }

        fn draw_features(p: usize, subsample: f64, rng: &mut StdRng) -> Vec<usize> {
            let k = ((p as f64 * subsample).ceil() as usize).clamp(1, p);
            if k == p {
                return (0..p).collect();
            }
            let mut all: Vec<usize> = (0..p).collect();
            for i in 0..k {
                let j = rng.gen_range(i..p);
                all.swap(i, j);
            }
            all.truncate(k);
            all
        }

        fn swap_partition(x: &Matrix, rows: &mut [usize], feature: usize, threshold: f64) -> usize {
            let mut split_point = 0;
            for i in 0..rows.len() {
                if x.get(rows[i], feature) < threshold {
                    rows.swap(i, split_point);
                    split_point += 1;
                }
            }
            split_point
        }
    }

    /// A tie-heavy design: each column is constant, takes two or three
    /// distinct values, mixes -0.0 and +0.0, or is continuous on a coarse
    /// grid (so it ties too).
    fn tie_heavy(n: usize, p: usize, rng: &mut StdRng) -> Matrix {
        let kinds: Vec<usize> = (0..p).map(|_| rng.gen_range(0..4)).collect();
        let levels = rng.gen_range(2..4);
        Matrix::from_fn(n, p, |_, j| match kinds[j] {
            0 => 1.5,
            1 => [-1.0, 0.25, 3.0][rng.gen_range(0..levels)],
            2 => [-0.0, 0.0, 0.5][rng.gen_range(0..3)],
            _ => (rng.gen::<f64>() * 40.0).round() / 8.0,
        })
    }

    /// The tree's rows: all in order, a bootstrap draw, or a subset.
    fn row_list(n: usize, scheme: usize, rng: &mut StdRng) -> Vec<usize> {
        match scheme {
            0 => (0..n).collect(),
            1 => (0..n).map(|_| rng.gen_range(0..n)).collect(),
            _ => (0..n).filter(|_| rng.gen::<f64>() < 0.6).collect(),
        }
    }

    /// Every bit of a regression tree: its serialized nodes and gains.
    fn gh_bits(tree: &GhTree) -> Vec<u8> {
        let mut w = crate::ser::Writer::new();
        tree.write_to(&mut w);
        w.finish()
    }

    /// Every bit of a classification tree: nodes, thresholds, class
    /// probabilities and gains.
    fn cls_bits(tree: &ClassificationTree) -> Vec<u64> {
        let mut out = Vec::new();
        for node in &tree.nodes {
            match node {
                ClsNode::Leaf { probs } => {
                    out.push(0);
                    out.extend(probs.iter().map(|v| v.to_bits()));
                }
                ClsNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => out.extend([
                    1,
                    *feature as u64,
                    threshold.to_bits(),
                    *left as u64,
                    *right as u64,
                ]),
            }
        }
        out.extend(tree.feature_gains.iter().map(|v| v.to_bits()));
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// The presorted finder builds regression trees bit-identical to the
        /// per-node sort, and draws the same random numbers, on every
        /// depth, `lambda`, feature subsample and row scheme.
        #[test]
        fn gh_tree_matches_the_per_node_sort(
            seed in proptest::prelude::any::<u64>(),
            n in 2usize..64,
            p in 1usize..7,
        ) {
            let mut data = StdRng::seed_from_u64(seed);
            let x = tie_heavy(n, p, &mut data);
            let grad: Vec<f64> = (0..n).map(|_| data.gen::<f64>() * 6.0 - 3.0).collect();
            let varied: Vec<f64> = (0..n).map(|_| data.gen_range(0.05..1.0)).collect();
            let unit = vec![1.0; n];
            for scheme in 0..3 {
                let rows = row_list(n, scheme, &mut data);
                for hess in [&unit, &varied] {
                    for max_depth in 0..=8 {
                        for lambda in [1e-6, 1.0] {
                            for feature_subsample in [1.0 / 3.0, 1.0] {
                                for random_thresholds in [false, true] {
                                    let cfg = GhTreeConfig {
                                        max_depth,
                                        min_child_weight: if scheme == 2 { 0.5 } else { 1.0 },
                                        lambda,
                                        feature_subsample,
                                        random_thresholds,
                                    };
                                    let mut r1 = StdRng::seed_from_u64(seed ^ 7);
                                    let mut r2 = r1.clone();
                                    let fast = GhTree::fit(&x, &grad, hess, &rows, &cfg, &mut r1);
                                    let slow = reference::gh(&x, &grad, hess, &rows, &cfg, &mut r2);
                                    assert_eq!(gh_bits(&fast), gh_bits(&slow), "{cfg:?} rows {rows:?}");
                                    assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
                                }
                            }
                        }
                    }
                }
            }
        }

        /// The same for classification trees.
        #[test]
        fn classification_tree_matches_the_per_node_sort(
            seed in proptest::prelude::any::<u64>(),
            n in 2usize..64,
            p in 1usize..7,
            n_classes in 2usize..5,
        ) {
            let mut data = StdRng::seed_from_u64(seed);
            let x = tie_heavy(n, p, &mut data);
            let labels: Vec<usize> = (0..n).map(|_| data.gen_range(0..n_classes)).collect();
            for scheme in 0..3 {
                let rows = row_list(n, scheme, &mut data);
                for max_depth in 0..=8 {
                    for min_samples_leaf in [1, 2] {
                        for feature_subsample in [1.0 / 3.0, 1.0] {
                            for random_thresholds in [false, true] {
                                let cfg = ClsTreeConfig {
                                    max_depth,
                                    min_samples_leaf,
                                    feature_subsample,
                                    random_thresholds,
                                };
                                let mut r1 = StdRng::seed_from_u64(seed ^ 7);
                                let mut r2 = r1.clone();
                                let fast =
                                    ClassificationTree::fit(&x, &labels, n_classes, &rows, &cfg, &mut r1);
                                let slow =
                                    reference::cls(&x, &labels, n_classes, &rows, &cfg, &mut r2);
                                assert_eq!(cls_bits(&fast), cls_bits(&slow), "{cfg:?} rows {rows:?}");
                                assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
                            }
                        }
                    }
                }
            }
        }
    }
}
