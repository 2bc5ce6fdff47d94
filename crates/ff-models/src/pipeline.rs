//! Composable, tunable forecasting pipelines.
//!
//! The flat portfolio (one [`AlgorithmKind`] = one model fitted on
//! externally engineered features) is generalized here into *pipelines*:
//! ordered stages of [`NodeId`] nodes that transform the raw series before
//! an inner regressor, with an optional two-branch shape — a trend branch
//! joined to the lagged-regression branch by a weighted ensemble (FEDOT's
//! `polyfit + lagged→ridge` composition). Every node carries its own
//! namespaced [`ParamDef`]s, so the joint (structure × node × algorithm)
//! space is tunable by the same Bayesian optimizer that tunes the flat
//! space, with the same cross-namespace no-leak guarantee.
//!
//! Three fixed tables:
//! - **nodes** ([`NodeId`] / [`NodeId::spec`]) — the seven preprocessing
//!   operators promoted out of the engine's feature-engineering path: lag
//!   windowing, moving-average and Gaussian smoothing, differencing,
//!   polynomial and EMA trend extraction, and the two-branch join weight;
//! - **pipelines** ([`PipelineId`] / [`PipelineId::spec`]) — the seven
//!   named node compositions the search space ranges over;
//! - **algorithms** ([`AlgorithmKind`] / [`AlgorithmKind::spec`], in
//!   [`crate::spec`]) supply the inner regressor.
//!
//! A fitted [`PipelineModel`] serializes as **blob v3**, which embeds the
//! full composition (pipeline name, node parameter values, fitted trend
//! state, scalers, inner model). Blob v2 — the flat format — still revives,
//! as a [`RevivedMember::SingleNode`]: a degenerate single-node pipeline
//! whose features are engineered externally. [`decode_member_blob`] accepts
//! both, so federated ensembles may mix generations.
//!
//! **Causality contract:** every transform is strictly causal. The value a
//! pipeline predicts at index `t` depends only on `values[..t]` — trend
//! estimates are either frozen functions of `t` (polynomial, fitted on the
//! training region only) or expanding EMAs of the past, smoothing kernels
//! are one-sided, and lag features end at `t-1`. This is the same
//! no-leakage discipline the engine's feature engineering follows, and it
//! makes one-step-ahead evaluation with true history exact.

use crate::data::{Standardizer, TargetScaler};
use crate::ser::{Reader, SerError, Writer};
use crate::spec::{ParamDef, ParamKind, SpecValue};
use crate::zoo::{build_regressor, AlgorithmKind, HyperParams};
use crate::{ModelError, Regressor};
use ff_linalg::Matrix;
use std::sync::LazyLock;

/// A pipeline node. The variant is what the pipeline executor dispatches
/// on; [`NodeId::spec`] holds its name, namespace and parameter domain.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeId {
    /// Lag-window feature extraction (the mandatory final stage before the
    /// inner regressor).
    Lagged,
    /// Trailing moving-average smoothing of the residual series.
    SmoothMa,
    /// Causal (one-sided) Gaussian smoothing of the residual series.
    SmoothGauss,
    /// Differencing of the residual series (order 0–2).
    Diff,
    /// Polynomial trend fitted on the training region and extrapolated.
    TrendPoly,
    /// Expanding EMA trend (strictly causal level estimate).
    TrendEma,
    /// Weighted ensemble join of the trend branch into the prediction.
    Join,
}

impl std::fmt::Debug for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One node's table entry: a named, namespaced, tunable transform.
#[derive(Debug)]
pub struct NodeSpec {
    name: &'static str,
    prefix: &'static str,
    params: Vec<ParamDef>,
}

impl NodeSpec {
    /// Display name (e.g. `lagged`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Namespace prefix every param key starts with (e.g. `node_lag_`).
    pub fn prefix(&self) -> &'static str {
        self.prefix
    }

    /// Namespaced parameter definitions.
    pub fn params(&self) -> &[ParamDef] {
        &self.params
    }
}

/// The node table, in [`NodeId`] declaration order. Node params are
/// `extras`-bound and numeric (they serialize into blob v3 as `f64`s), and
/// each declares its warm value, which is also its default.
static NODES: LazyLock<[NodeSpec; 7]> = LazyLock::new(|| {
    let int = |key: &str, lo, hi, warm: i64| {
        ParamDef::extra(key, ParamKind::Integer { lo, hi }, warm as f64)
            .with_warm(SpecValue::Int(warm))
    };
    let float = |key: &str, lo, hi, warm: f64| {
        ParamDef::extra(key, ParamKind::Continuous { lo, hi }, warm)
            .with_warm(SpecValue::Float(warm))
    };
    let node = |name, prefix, param| NodeSpec {
        name,
        prefix,
        params: vec![param],
    };
    [
        node("lagged", "node_lag_", int("node_lag_window", 2, 20, 8)),
        node("smooth_ma", "node_ma_", int("node_ma_width", 2, 12, 3)),
        node(
            "smooth_gauss",
            "node_gauss_",
            float("node_gauss_sigma", 0.5, 5.0, 1.5),
        ),
        node("diff", "node_diff_", int("node_diff_order", 0, 2, 1)),
        node("trend_poly", "node_poly_", int("node_poly_degree", 1, 3, 2)),
        node("trend_ema", "node_ema_", int("node_ema_span", 5, 60, 12)),
        node(
            "join",
            "node_join_",
            float("node_join_weight", 0.0, 1.0, 1.0),
        ),
    ]
});

impl NodeId {
    /// The seven nodes in table order.
    pub fn builtin() -> [NodeId; 7] {
        [
            NodeId::Lagged,
            NodeId::SmoothMa,
            NodeId::SmoothGauss,
            NodeId::Diff,
            NodeId::TrendPoly,
            NodeId::TrendEma,
            NodeId::Join,
        ]
    }

    /// This node's spec.
    pub fn spec(&self) -> &'static NodeSpec {
        &NODES[*self as usize]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        self.spec().name
    }

    /// Parses a display name.
    pub fn from_name(name: &str) -> Option<NodeId> {
        NodeId::builtin().into_iter().find(|n| n.name() == name)
    }
}

/// A named pipeline structure: ordered stages of nodes, with an optional
/// trend branch joined by [`NodeId::Join`].
#[derive(Debug)]
pub struct PipelineSpec {
    name: &'static str,
    nodes: &'static [NodeId],
}

impl PipelineSpec {
    /// Display name (e.g. `trend_lagged`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The stages, in declaration order (trend branch first, then the
    /// join, then residual preprocessing, then the lag window).
    pub fn nodes(&self) -> &'static [NodeId] {
        self.nodes
    }

    /// Every node [`ParamDef`] of this pipeline, in node order. This is
    /// the flattened tunable surface of the structure.
    pub fn params(&self) -> Vec<&'static ParamDef> {
        self.nodes
            .iter()
            .flat_map(|n| n.spec().params().iter())
            .collect()
    }

    /// Decodes this pipeline's node params from `lookup` into the bundle's
    /// `extras`; missing keys fall back to the node's warm value. Keys of
    /// nodes outside this structure are never consulted — the namespacing
    /// makes cross-branch leaks impossible by construction (the same
    /// contract as `AlgorithmSpec::decode`).
    pub fn decode_into(&self, hp: &mut HyperParams, lookup: impl Fn(&str) -> Option<SpecValue>) {
        for pd in self.params() {
            let value = lookup(pd.key()).map(|v| pd.canonical(&v));
            pd.apply(hp, value.as_ref().unwrap_or(pd.warm()));
        }
    }

    /// Encodes the bundle's node params into `(key, value)` pairs, one per
    /// node param, canonicalized. Inverse of [`PipelineSpec::decode_into`].
    pub fn encode(&self, hp: &HyperParams) -> Vec<(String, SpecValue)> {
        self.params()
            .iter()
            .map(|pd| (pd.key().to_string(), pd.read(hp)))
            .collect()
    }

    /// The warm-start `(key, value)` pairs of this structure.
    pub fn warm_values(&self) -> Vec<(String, SpecValue)> {
        self.params()
            .iter()
            .map(|pd| (pd.key().to_string(), pd.warm().clone()))
            .collect()
    }
}

/// The pipeline table, in [`PipelineId`] order. Every structure has
/// exactly one `Lagged` node, at most one smoothing node, at most one
/// trend node, and a `Join` exactly when a trend node is present (the
/// join is what merges the two branches).
static PIPELINES: [PipelineSpec; 7] = [
    PipelineSpec {
        name: "lagged",
        nodes: &[NodeId::Lagged],
    },
    PipelineSpec {
        name: "smooth_lagged",
        nodes: &[NodeId::SmoothMa, NodeId::Lagged],
    },
    PipelineSpec {
        name: "gauss_lagged",
        nodes: &[NodeId::SmoothGauss, NodeId::Lagged],
    },
    PipelineSpec {
        name: "diff_lagged",
        nodes: &[NodeId::Diff, NodeId::Lagged],
    },
    PipelineSpec {
        name: "trend_lagged",
        nodes: &[NodeId::TrendPoly, NodeId::Join, NodeId::Lagged],
    },
    PipelineSpec {
        name: "trend_smooth_lagged",
        nodes: &[
            NodeId::TrendPoly,
            NodeId::Join,
            NodeId::SmoothMa,
            NodeId::Lagged,
        ],
    },
    PipelineSpec {
        name: "ema_trend_lagged",
        nodes: &[NodeId::TrendEma, NodeId::Join, NodeId::Lagged],
    },
];

/// Index into the pipeline table (associated consts below).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PipelineId(u16);

impl std::fmt::Debug for PipelineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.spec().name())
    }
}

impl PipelineId {
    /// Pure lag-window regression (the flat portfolio's shape).
    pub const LAGGED: PipelineId = PipelineId(0);
    /// Moving-average smoothing → lagged regression.
    pub const SMOOTH_LAGGED: PipelineId = PipelineId(1);
    /// Gaussian smoothing → lagged regression.
    pub const GAUSS_LAGGED: PipelineId = PipelineId(2);
    /// Differencing → lagged regression.
    pub const DIFF_LAGGED: PipelineId = PipelineId(3);
    /// FEDOT's two-branch shape: polynomial trend branch + lagged
    /// regression branch → weighted ensemble join.
    pub const TREND_LAGGED: PipelineId = PipelineId(4);
    /// Two-branch with smoothing on the residual branch.
    pub const TREND_SMOOTH_LAGGED: PipelineId = PipelineId(5);
    /// Two-branch with an EMA (expanding, causal) trend branch.
    pub const EMA_TREND_LAGGED: PipelineId = PipelineId(6);

    /// The seven structures in table order.
    pub fn builtin() -> [PipelineId; 7] {
        std::array::from_fn(|i| PipelineId(i as u16))
    }

    /// This pipeline's spec.
    pub fn spec(&self) -> &'static PipelineSpec {
        &PIPELINES[self.0 as usize]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        self.spec().name
    }

    /// Parses a display name.
    pub fn from_name(name: &str) -> Option<PipelineId> {
        PIPELINES
            .iter()
            .position(|s| s.name == name)
            .map(|i| PipelineId(i as u16))
    }

    /// Table index.
    pub fn index(&self) -> usize {
        self.0 as usize
    }

    /// Inverse of [`PipelineId::index`].
    pub fn from_index(idx: usize) -> Option<PipelineId> {
        (idx < PIPELINES.len()).then_some(PipelineId(idx as u16))
    }
}

// --- Execution ------------------------------------------------------------

/// Causal expanding-EMA level estimate: `out[t]` summarizes `values[..t]`
/// (strictly — `out[t]` never sees `values[t]`), seeded at the first
/// observation. Shared by the EMA trend node and the engine's
/// feature-engineering trend feature (which fixes `span = (n/10)` clamped
/// to `[5, 60]`).
pub fn causal_ema_trend(values: &[f64], span: f64) -> Vec<f64> {
    let alpha = 2.0 / (span + 1.0);
    let mut out = Vec::with_capacity(values.len());
    let mut ema = values.first().copied().unwrap_or(0.0);
    for (t, &v) in values.iter().enumerate() {
        out.push(ema); // summary of values[..t]
        if t == 0 {
            ema = v; // seed with the first observation
        } else {
            ema = (1.0 - alpha) * ema + alpha * v;
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Smoothing {
    None,
    Ma { width: usize },
    Gauss { sigma: f64 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum TrendKind {
    None,
    Poly { degree: usize },
    Ema { span: f64 },
}

/// The numeric view of one structure's node params, extracted from the
/// bundle with domains clamped to executable ranges.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PipelineParams {
    window: usize,
    smoothing: Smoothing,
    diff: usize,
    trend: TrendKind,
    join_weight: f64,
}

impl PipelineParams {
    fn extract(spec: &PipelineSpec, hp: &HyperParams) -> PipelineParams {
        let mut p = PipelineParams {
            window: 8,
            smoothing: Smoothing::None,
            diff: 0,
            trend: TrendKind::None,
            join_weight: 1.0,
        };
        for &node in spec.nodes() {
            let read = |i: usize| node.spec().params()[i].read(hp).as_f64();
            match node {
                NodeId::Lagged => p.window = (read(0).round() as i64).clamp(1, 64) as usize,
                NodeId::SmoothMa => {
                    p.smoothing = Smoothing::Ma {
                        width: (read(0).round() as i64).clamp(2, 64) as usize,
                    }
                }
                NodeId::SmoothGauss => {
                    p.smoothing = Smoothing::Gauss {
                        sigma: read(0).clamp(0.3, 16.0),
                    }
                }
                NodeId::Diff => p.diff = (read(0).round() as i64).clamp(0, 2) as usize,
                NodeId::TrendPoly => {
                    p.trend = TrendKind::Poly {
                        degree: (read(0).round() as i64).clamp(1, 3) as usize,
                    }
                }
                NodeId::TrendEma => {
                    p.trend = TrendKind::Ema {
                        span: read(0).clamp(2.0, 512.0),
                    }
                }
                NodeId::Join => p.join_weight = read(0).clamp(0.0, 1.0),
            }
        }
        p
    }
}

/// Fitted trend-branch state, serialized into blob v3.
#[derive(Debug, Clone, PartialEq)]
enum TrendModel {
    None,
    /// Frozen polynomial in normalized time `t / (n_fit - 1)`, fitted by
    /// least squares on the training region and extrapolated beyond it.
    Poly {
        coeffs: Vec<f64>,
        n_fit: usize,
    },
    /// Stateless causal EMA recomputed from true history at predict time.
    Ema {
        span: f64,
    },
}

impl TrendModel {
    fn fit(kind: TrendKind, values: &[f64], fit_end: usize) -> TrendModel {
        match kind {
            TrendKind::None => TrendModel::None,
            TrendKind::Ema { span } => TrendModel::Ema { span },
            TrendKind::Poly { degree } => {
                let y = &values[..fit_end];
                let degree = degree.min(fit_end.saturating_sub(2));
                let coeffs = polyfit(y, degree)
                    .unwrap_or_else(|| vec![y.iter().sum::<f64>() / y.len().max(1) as f64]);
                TrendModel::Poly {
                    coeffs,
                    n_fit: fit_end,
                }
            }
        }
    }

    /// The trend series over `0..end` (strictly causal; see module docs).
    fn series(&self, values: &[f64], end: usize) -> Vec<f64> {
        match self {
            TrendModel::None => vec![0.0; end],
            TrendModel::Ema { span } => causal_ema_trend(&values[..end], *span),
            TrendModel::Poly { coeffs, n_fit } => {
                let denom = (n_fit.saturating_sub(1)).max(1) as f64;
                (0..end)
                    .map(|t| {
                        let x = t as f64 / denom;
                        coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
                    })
                    .collect()
            }
        }
    }
}

/// Least-squares polynomial fit of `y[t]` in normalized time
/// `x = t / (n-1)`, returning coefficients low-order first. `None` when the
/// normal equations are singular.
fn polyfit(y: &[f64], degree: usize) -> Option<Vec<f64>> {
    let n = y.len();
    if n == 0 {
        return None;
    }
    let p = degree + 1;
    let denom = (n - 1).max(1) as f64;
    // Normal equations: A[j][k] = Σ x^(j+k), b[j] = Σ x^j y.
    let mut a = vec![vec![0.0; p]; p];
    let mut b = vec![0.0; p];
    for (t, &yt) in y.iter().enumerate() {
        let x = t as f64 / denom;
        let mut xp = 1.0;
        let mut powers = Vec::with_capacity(2 * p - 1);
        for _ in 0..(2 * p - 1) {
            powers.push(xp);
            xp *= x;
        }
        for j in 0..p {
            b[j] += powers[j] * yt;
            for k in 0..p {
                a[j][k] += powers[j + k];
            }
        }
    }
    solve_dense(&mut a, &mut b)
}

/// Gaussian elimination with partial pivoting for the tiny (≤ 4×4) trend
/// systems. Returns `None` on a (near-)singular matrix.
fn solve_dense(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..n {
            let f = a[row][col] / a[col][col];
            for k in col..n {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut v = b[col];
        for k in (col + 1)..n {
            v -= a[col][k] * x[k];
        }
        x[col] = v / a[col][col];
    }
    x.iter().all(|v| v.is_finite()).then_some(x)
}

/// The causal transform chain applied to a raw series before lag-window
/// extraction: subtract the (weighted) trend, difference, smooth.
struct Transformed {
    /// `join_weight · trend[t]` — what the prediction adds back.
    base: Vec<f64>,
    /// Residual `values[t] − base[t]`.
    r: Vec<f64>,
    /// Smoothed, differenced residual; defined for `t ≥ diff` (leading
    /// entries are zeros and never read).
    s: Vec<f64>,
    /// Differenced residual (the regression target); same domain as `s`.
    z: Vec<f64>,
}

fn transform(values: &[f64], end: usize, trend: &TrendModel, p: &PipelineParams) -> Transformed {
    let tr = trend.series(values, end);
    let base: Vec<f64> = tr.iter().map(|&v| p.join_weight * v).collect();
    let r: Vec<f64> = values[..end]
        .iter()
        .zip(&base)
        .map(|(&v, &b)| v - b)
        .collect();
    let d = p.diff;
    let mut z = vec![0.0; end];
    for t in d..end {
        z[t] = match d {
            0 => r[t],
            1 => r[t] - r[t - 1],
            _ => r[t] - 2.0 * r[t - 1] + r[t - 2],
        };
    }
    let s = match p.smoothing {
        Smoothing::None => z.clone(),
        Smoothing::Ma { width } => {
            let mut s = vec![0.0; end];
            for t in d..end {
                let lo = (t + 1).saturating_sub(width).max(d);
                let k = (t + 1 - lo) as f64;
                s[t] = z[lo..=t].iter().sum::<f64>() / k;
            }
            s
        }
        Smoothing::Gauss { sigma } => {
            let reach = (3.0 * sigma).ceil() as usize;
            let w: Vec<f64> = (0..=reach)
                .map(|j| (-((j * j) as f64) / (2.0 * sigma * sigma)).exp())
                .collect();
            let mut s = vec![0.0; end];
            for t in d..end {
                let mut num = 0.0;
                let mut den = 0.0;
                for (j, &wj) in w.iter().enumerate() {
                    if t < d + j {
                        break;
                    }
                    num += wj * z[t - j];
                    den += wj;
                }
                s[t] = num / den;
            }
            s
        }
    };
    Transformed { base, r, s, z }
}

// --- The fitted pipeline model --------------------------------------------

/// A fitted pipeline: trend-branch state, the causal transform parameters,
/// locally fitted scalers, and the inner regressor. Operates on the raw
/// series (not pre-engineered matrices) and serializes as blob v3.
pub struct PipelineModel {
    pipeline: PipelineId,
    algorithm: AlgorithmKind,
    /// Canonical node param values in [`PipelineSpec::params`] order — the
    /// blob's record of the composition's tuning.
    node_values: Vec<f64>,
    params: PipelineParams,
    trend: TrendModel,
    scaler: Standardizer,
    yscaler: TargetScaler,
    model: Box<dyn Regressor + Send + Sync>,
}

impl std::fmt::Debug for PipelineModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineModel")
            .field("pipeline", &self.pipeline)
            .field("algorithm", &self.algorithm)
            .field("node_values", &self.node_values)
            .field("params", &self.params)
            .field("trend", &self.trend)
            .finish()
    }
}

impl PipelineModel {
    /// Fits the full pipeline end-to-end on `values[..fit_end]`: the trend
    /// branch on the training region, then the inner regressor on
    /// standardized lag-window features of the transformed residual. Node
    /// and algorithm params are both read from `hp` (each layer consults
    /// only its own namespace).
    pub fn fit(
        pipeline: PipelineId,
        algorithm: AlgorithmKind,
        hp: &HyperParams,
        values: &[f64],
        fit_end: usize,
    ) -> crate::Result<PipelineModel> {
        let spec = pipeline.spec();
        let params = PipelineParams::extract(spec, hp);
        if fit_end > values.len() {
            return Err(ModelError::InvalidData(format!(
                "fit_end {fit_end} past series length {}",
                values.len()
            )));
        }
        let t0 = params.diff + params.window;
        if fit_end < t0 + 4 {
            return Err(ModelError::InvalidData(format!(
                "series too short for pipeline {}: need > {} training points, have {fit_end}",
                pipeline.name(),
                t0 + 3
            )));
        }
        let trend = TrendModel::fit(params.trend, values, fit_end);
        let tf = transform(values, fit_end, &trend, &params);
        let rows = fit_end - t0;
        let x = Matrix::from_fn(rows, params.window, |i, j| tf.s[t0 + i - 1 - j]);
        let y: Vec<f64> = (t0..fit_end).map(|t| tf.z[t]).collect();
        let scaler = Standardizer::fit(&x);
        let yscaler = TargetScaler::fit(&y);
        let xs = scaler.transform(&x);
        let ys: Vec<f64> = y.iter().map(|&v| yscaler.scale(v)).collect();
        let mut model = build_regressor(algorithm, hp);
        model.fit(&xs, &ys)?;
        let node_values = spec
            .params()
            .iter()
            .map(|pd| pd.read(hp).as_f64())
            .collect();
        Ok(PipelineModel {
            pipeline,
            algorithm,
            node_values,
            params,
            trend,
            scaler,
            yscaler,
            model,
        })
    }

    /// The structure this model was fitted as.
    pub fn pipeline(&self) -> PipelineId {
        self.pipeline
    }

    /// The inner regressor's algorithm.
    pub fn algorithm(&self) -> AlgorithmKind {
        self.algorithm
    }

    /// Earliest index this pipeline can predict (it needs `diff + window`
    /// true past values).
    pub fn min_predict_index(&self) -> usize {
        self.params.diff + self.params.window
    }

    /// One-step-ahead predictions for indices `start..end` given the true
    /// history: the prediction at `t` uses `values[..t]` only (transforms
    /// are recomputed causally from the actual series). This matches the
    /// engine's evaluation protocol, where every test row conditions on
    /// real lagged observations.
    pub fn predict_range(
        &self,
        values: &[f64],
        start: usize,
        end: usize,
    ) -> crate::Result<Vec<f64>> {
        let t0 = self.min_predict_index();
        if start < t0 || start >= end || end > values.len() {
            return Err(ModelError::InvalidData(format!(
                "bad predict range {start}..{end} (min {t0}, len {})",
                values.len()
            )));
        }
        let tf = transform(values, end, &self.trend, &self.params);
        let rows = end - start;
        let x = Matrix::from_fn(rows, self.params.window, |i, j| tf.s[start + i - 1 - j]);
        let xs = self.scaler.transform(&x);
        let zhat = self.model.predict(&xs)?;
        let d = self.params.diff;
        Ok((start..end)
            .zip(zhat)
            .map(|(t, zh)| {
                let z = self.yscaler.unscale(zh);
                let rhat = match d {
                    0 => z,
                    1 => z + tf.r[t - 1],
                    _ => z + 2.0 * tf.r[t - 1] - tf.r[t - 2],
                };
                tf.base[t] + rhat
            })
            .collect())
    }

    /// Serializes as blob v3: the full composition (structure name, node
    /// values, trend state), the local scalers, and the inner model —
    /// either the algorithm's codec bytes ([`Regressor::to_blob`]) or, for
    /// affine models without a codec, probed `[coef.., intercept]` in the
    /// standardized space. Errors when the model is neither serializable
    /// nor affine.
    pub fn to_blob(&self) -> std::result::Result<Vec<u8>, String> {
        let mut w = Writer::new();
        w.u8(3); // blob version
        w.str(self.pipeline.name());
        w.str(self.algorithm.name());
        w.f64s(&self.node_values);
        match &self.trend {
            TrendModel::None => w.u8(0),
            TrendModel::Poly { coeffs, n_fit } => {
                w.u8(1);
                w.f64s(coeffs);
                w.u32(*n_fit as u32);
            }
            TrendModel::Ema { span } => {
                w.u8(2);
                w.f64(*span);
            }
        }
        w.f64s(self.scaler.means());
        w.f64s(self.scaler.stds());
        w.f64(self.yscaler.mean);
        w.f64(self.yscaler.std);
        match self.model.to_blob() {
            Some(bytes) => {
                w.u8(1);
                w.bytes(&bytes);
            }
            None => {
                let affine = probe_affine(self.model.as_ref(), self.scaler.dim())
                    .filter(|a| a.iter().all(|v| v.is_finite()))
                    .ok_or_else(|| {
                        format!(
                            "pipeline inner model {} is neither blob-serializable nor affine",
                            self.algorithm.name()
                        )
                    })?;
                w.u8(0);
                w.f64s(&affine);
            }
        }
        Ok(w.finish())
    }

    /// Revives a blob-v3 pipeline. Inverse of [`PipelineModel::to_blob`].
    pub fn from_blob(blob: &[u8]) -> std::result::Result<PipelineModel, String> {
        let err = |e: SerError| e.to_string();
        let mut r = Reader::new(blob);
        let version = r.u8().map_err(err)?;
        if version != 3 {
            return Err(format!("unsupported pipeline blob version {version}"));
        }
        let pname = r.str(256).map_err(err)?.to_string();
        let pipeline = PipelineId::from_name(&pname)
            .ok_or_else(|| format!("blob names unknown pipeline {pname:?}"))?;
        let aname = r.str(256).map_err(err)?.to_string();
        let algorithm = AlgorithmKind::from_name(&aname)
            .ok_or_else(|| format!("blob names unknown algorithm {aname:?}"))?;
        let node_values = r.f64s(4096).map_err(err)?;
        let spec = pipeline.spec();
        let defs = spec.params();
        if node_values.len() != defs.len() {
            return Err(format!(
                "pipeline {pname} expects {} node values, blob has {}",
                defs.len(),
                node_values.len()
            ));
        }
        let mut hp = HyperParams::default();
        for (pd, &v) in defs.iter().zip(&node_values) {
            pd.apply(&mut hp, &SpecValue::Float(v));
        }
        let params = PipelineParams::extract(spec, &hp);
        let trend = match r.u8().map_err(err)? {
            0 => TrendModel::None,
            1 => {
                let coeffs = r.f64s(16).map_err(err)?;
                let n_fit = r.u32().map_err(err)? as usize;
                TrendModel::Poly { coeffs, n_fit }
            }
            2 => TrendModel::Ema {
                span: r.f64().map_err(err)?,
            },
            t => return Err(format!("unknown trend tag {t}")),
        };
        let means = r.f64s(100_000).map_err(err)?;
        let stds = r.f64s(100_000).map_err(err)?;
        if means.len() != stds.len() {
            return Err("scaler shape mismatch".into());
        }
        if means.len() != params.window {
            return Err(format!(
                "pipeline {pname} has a {}-lag window but a {}-column scaler",
                params.window,
                means.len()
            ));
        }
        let ymean = r.f64().map_err(err)?;
        let ystd = r.f64().map_err(err)?;
        let model: Box<dyn Regressor + Send + Sync> = match r.u8().map_err(err)? {
            1 => {
                let bytes = r.bytes(100_000_000).map_err(err)?;
                algorithm.spec().deserialize_model(bytes)?
            }
            0 => {
                let affine = r.f64s(100_000).map_err(err)?;
                if affine.len() != means.len() + 1 {
                    return Err("affine parameter shape mismatch".into());
                }
                Box::new(AffineModel {
                    coef: affine[..means.len()].to_vec(),
                    intercept: affine[means.len()],
                })
            }
            k => return Err(format!("unknown model kind {k}")),
        };
        check_model_width(model.as_ref(), means.len())?;
        Ok(PipelineModel {
            pipeline,
            algorithm,
            node_values,
            params,
            trend,
            scaler: Standardizer::from_parts(means, stds),
            yscaler: TargetScaler {
                mean: ymean,
                std: ystd.max(1e-12),
            },
            model,
        })
    }
}

/// Probes an affine predictor for `[coef.., intercept]` with unit vectors —
/// exact for any affine model regardless of internal standardization.
/// `None` when prediction fails; non-finite values are passed through, so
/// each caller decides what a diverged model means.
pub fn probe_affine(model: &dyn Regressor, p: usize) -> Option<Vec<f64>> {
    let mut probe = Matrix::zeros(p + 1, p);
    for j in 0..p {
        probe.set(j + 1, j, 1.0);
    }
    let pred = model.predict(&probe).ok()?;
    let intercept = pred[0];
    let mut out: Vec<f64> = (0..p).map(|j| pred[j + 1] - intercept).collect();
    out.push(intercept);
    Some(out)
}

/// A revived affine inner model (blob-v3 `model_kind = 0`): predicts
/// `coef·x + intercept` in the standardized feature space.
#[derive(Debug, Clone)]
struct AffineModel {
    coef: Vec<f64>,
    intercept: f64,
}

impl Regressor for AffineModel {
    fn fit(&mut self, _x: &Matrix, _y: &[f64]) -> crate::Result<()> {
        Err(ModelError::InvalidData(
            "revived affine models are frozen".into(),
        ))
    }
    fn predict(&self, x: &Matrix) -> crate::Result<Vec<f64>> {
        if x.cols() != self.coef.len() {
            return Err(ModelError::InvalidData(format!(
                "{} cols vs {} coefficients",
                x.cols(),
                self.coef.len()
            )));
        }
        Ok((0..x.rows())
            .map(|i| ff_linalg::vector::dot(x.row(i), &self.coef) + self.intercept)
            .collect())
    }
}

// --- The member codec (blob v2 + v3) --------------------------------------

/// One revived federated-ensemble member. v3 blobs revive as full
/// pipelines over the raw series; v2 blobs revive as *single-node
/// pipelines* — the model plus its local scalers, applied to externally
/// engineered feature rows (the flat portfolio's shape).
pub enum RevivedMember {
    /// A flat (blob-v2) member: inner model + local scalers, fed
    /// pre-engineered feature matrices.
    SingleNode {
        /// The member's local feature scaler.
        scaler: Standardizer,
        /// The member's local target scaler.
        yscaler: TargetScaler,
        /// The revived inner model.
        model: Box<dyn Regressor + Send + Sync>,
    },
    /// A full (blob-v3) pipeline member operating on the raw series.
    Pipeline(Box<PipelineModel>),
}

impl RevivedMember {
    /// Predicts from pre-engineered feature rows (single-node members
    /// only).
    pub fn predict_features(&self, x: &Matrix) -> std::result::Result<Vec<f64>, String> {
        match self {
            RevivedMember::SingleNode {
                scaler,
                yscaler,
                model,
            } => {
                if scaler.dim() != x.cols() {
                    return Err("member dimension mismatch".into());
                }
                let xs = scaler.transform(x);
                let pred = model.predict(&xs).map_err(|e| e.to_string())?;
                Ok(pred.iter().map(|&v| yscaler.unscale(v)).collect())
            }
            RevivedMember::Pipeline(_) => {
                Err("pipeline members predict from the raw series".into())
            }
        }
    }

    /// Predicts indices `start..end` from the raw series with true history
    /// (pipeline members only).
    pub fn predict_series(
        &self,
        values: &[f64],
        start: usize,
        end: usize,
    ) -> std::result::Result<Vec<f64>, String> {
        match self {
            RevivedMember::Pipeline(m) => m
                .predict_range(values, start, end)
                .map_err(|e| e.to_string()),
            RevivedMember::SingleNode { .. } => {
                Err("single-node members predict from engineered features".into())
            }
        }
    }
}

/// Encodes a flat (non-pipeline) ensemble-union contribution as blob v2:
/// the algorithm name, the local scalers, and the model's codec bytes with
/// the model section trailing the framed header. This is the wire form the
/// PR-2 clients shipped; it is kept bit-compatible so old blobs revive.
pub fn encode_external_blob(
    algo: AlgorithmKind,
    scaler: &Standardizer,
    yscaler: &TargetScaler,
    model_bytes: &[u8],
) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(2); // blob version
    w.str(algo.name());
    w.f64s(scaler.means());
    w.f64s(scaler.stds());
    w.f64(yscaler.mean);
    w.f64(yscaler.std);
    w.u32(model_bytes.len() as u32);
    let mut out = w.finish();
    out.extend_from_slice(model_bytes);
    out
}

/// Decodes any supported member blob: v2 ([`encode_external_blob`]) →
/// [`RevivedMember::SingleNode`], v3 ([`PipelineModel::to_blob`]) →
/// [`RevivedMember::Pipeline`].
pub fn decode_member_blob(blob: &[u8]) -> std::result::Result<RevivedMember, String> {
    match blob.first() {
        Some(2) => decode_v2_blob(blob),
        Some(3) => PipelineModel::from_blob(blob).map(|m| RevivedMember::Pipeline(Box::new(m))),
        Some(v) => Err(format!("unsupported blob version {v}")),
        None => Err("empty blob".into()),
    }
}

fn decode_v2_blob(blob: &[u8]) -> std::result::Result<RevivedMember, String> {
    let err = |e: SerError| e.to_string();
    let mut r = Reader::new(blob);
    let version = r.u8().map_err(err)?;
    if version != 2 {
        return Err(format!("unsupported blob version {version}"));
    }
    let name = r.str(256).map_err(err)?.to_string();
    let algo = AlgorithmKind::from_name(&name)
        .ok_or_else(|| format!("blob names unknown algorithm {name:?}"))?;
    let means = r.f64s(100_000).map_err(err)?;
    let stds = r.f64s(100_000).map_err(err)?;
    if means.len() != stds.len() {
        return Err("scaler shape mismatch".into());
    }
    let ymean = r.f64().map_err(err)?;
    let ystd = r.f64().map_err(err)?;
    let model_len = r.u32().map_err(err)? as usize;
    if blob.len() < model_len {
        return Err("truncated model section".into());
    }
    let model_bytes = &blob[blob.len() - model_len..];
    let model = algo.spec().deserialize_model(model_bytes)?;
    check_model_width(model.as_ref(), means.len())?;
    Ok(RevivedMember::SingleNode {
        scaler: Standardizer::from_parts(means, stds),
        yscaler: TargetScaler {
            mean: ymean,
            std: ystd.max(1e-12),
        },
        model,
    })
}

/// Refuses a revived model that does not read `width` columns, the width
/// of the scaler in front of it. Every decoded model refuses a matrix of
/// another width at predict (see [`Regressor::to_blob`]), so a zero-row
/// probe checks the width without predicting anything.
fn check_model_width(model: &dyn Regressor, width: usize) -> std::result::Result<(), String> {
    match model.predict(&Matrix::zeros(0, width)) {
        Ok(_) => Ok(()),
        Err(e) => Err(format!("model does not fit its {width}-column scaler: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|t| 10.0 + 0.08 * t as f64 + 2.0 * (std::f64::consts::TAU * t as f64 / 12.0).sin())
            .collect()
    }

    #[test]
    fn builtin_node_registry_order_and_roundtrip() {
        let names: Vec<&str> = NodeId::builtin().iter().map(|n| n.name()).collect();
        assert_eq!(
            names,
            [
                "lagged",
                "smooth_ma",
                "smooth_gauss",
                "diff",
                "trend_poly",
                "trend_ema",
                "join"
            ]
        );
        for n in NodeId::builtin() {
            assert_eq!(NodeId::from_name(n.name()), Some(n));
        }
    }

    #[test]
    fn builtin_pipeline_registry_order_and_roundtrip() {
        let names: Vec<&str> = PipelineId::builtin().iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "lagged",
                "smooth_lagged",
                "gauss_lagged",
                "diff_lagged",
                "trend_lagged",
                "trend_smooth_lagged",
                "ema_trend_lagged"
            ]
        );
        for p in PipelineId::builtin() {
            assert_eq!(PipelineId::from_name(p.name()), Some(p));
            assert_eq!(PipelineId::from_index(p.index()), Some(p));
        }
    }

    #[test]
    fn two_branch_target_is_fedot_shape() {
        // The first search target: polyfit trend branch + lagged→regressor
        // branch → weighted ensemble join.
        let spec = PipelineId::TREND_LAGGED.spec();
        assert_eq!(
            spec.nodes(),
            [NodeId::TrendPoly, NodeId::Join, NodeId::Lagged]
        );
    }

    #[test]
    fn every_builtin_pipeline_has_an_executable_shape() {
        // Exactly one lag window, at most one smoothing node, at most one
        // trend node, a join exactly when a trend branch exists, and no
        // node twice.
        for p in PipelineId::builtin() {
            let nodes = p.spec().nodes();
            let count = |set: &[NodeId]| nodes.iter().filter(|n| set.contains(n)).count();
            assert_eq!(count(&[NodeId::Lagged]), 1, "{p:?}");
            assert!(
                count(&[NodeId::SmoothMa, NodeId::SmoothGauss]) <= 1,
                "{p:?}"
            );
            let trend = count(&[NodeId::TrendPoly, NodeId::TrendEma]);
            assert!(trend <= 1, "{p:?}");
            assert_eq!(count(&[NodeId::Join]), trend, "{p:?}");
            for n in NodeId::builtin() {
                assert!(count(&[n]) <= 1, "{p:?} repeats {n:?}");
            }
        }
    }

    #[test]
    fn node_namespaces_are_disjoint_and_numeric() {
        let nodes = NodeId::builtin();
        for a in nodes {
            let spec = a.spec();
            assert!(spec.prefix().ends_with('_'), "{a:?}");
            for pd in spec.params() {
                assert!(pd.key().starts_with(spec.prefix()), "{}", pd.key());
                assert!(!matches!(pd.kind(), ParamKind::Categorical { .. }));
                assert!(pd.warm().as_f64().is_finite(), "{}", pd.key());
            }
            for b in nodes.into_iter().filter(|&b| b != a) {
                assert!(!b.spec().prefix().starts_with(spec.prefix()), "{a:?}/{b:?}");
            }
        }
    }

    #[test]
    fn decode_into_ignores_foreign_node_namespaces() {
        // Decoding diff_lagged must never consult smoothing keys.
        let spec = PipelineId::DIFF_LAGGED.spec();
        let mut hp = HyperParams::default();
        spec.decode_into(&mut hp, |key| match key {
            "node_diff_order" => Some(SpecValue::Int(2)),
            "node_lag_window" => Some(SpecValue::Int(5)),
            "node_ma_width" => Some(SpecValue::Int(11)), // unselected branch
            _ => None,
        });
        assert_eq!(hp.extras.get("node_diff_order"), Some(&2.0));
        assert_eq!(hp.extras.get("node_lag_window"), Some(&5.0));
        assert!(!hp.extras.contains_key("node_ma_width"));
    }

    #[test]
    fn encode_decode_roundtrip_across_builtin_pipelines() {
        for p in PipelineId::builtin() {
            let spec = p.spec();
            let mut hp = HyperParams::default();
            spec.decode_into(&mut hp, |_| None); // warm values
            let pairs = spec.encode(&hp);
            assert_eq!(pairs, spec.warm_values(), "{p:?}");
            let mut back = HyperParams::default();
            spec.decode_into(&mut back, |key| {
                pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
            });
            assert_eq!(spec.encode(&back), pairs, "{p:?}");
        }
    }

    #[test]
    fn every_builtin_pipeline_fits_and_predicts_finite() {
        let v = series(160);
        for p in PipelineId::builtin() {
            let m = PipelineModel::fit(p, AlgorithmKind::LASSO, &HyperParams::default(), &v, 130)
                .unwrap_or_else(|e| panic!("{p:?}: {e}"));
            let pred = m.predict_range(&v, 130, 160).unwrap();
            assert_eq!(pred.len(), 30);
            assert!(pred.iter().all(|x| x.is_finite()), "{p:?}");
            // On a clean trend+seasonal series every structure should do
            // far better than predicting the mean.
            let mean = v[..130].iter().sum::<f64>() / 130.0;
            let mse = |ps: &[f64]| {
                ps.iter()
                    .zip(&v[130..])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    / 30.0
            };
            let base = mse(&vec![mean; 30]);
            assert!(mse(&pred) < base, "{p:?}: {} !< {}", mse(&pred), base);
        }
    }

    #[test]
    fn prediction_at_t_never_sees_value_at_t() {
        let v = series(140);
        for p in [
            PipelineId::EMA_TREND_LAGGED,
            PipelineId::TREND_SMOOTH_LAGGED,
        ] {
            let m = PipelineModel::fit(p, AlgorithmKind::LASSO, &HyperParams::default(), &v, 110)
                .unwrap();
            let clean = m.predict_range(&v, 120, 121).unwrap();
            let mut spiked = v.clone();
            spiked[120] += 1000.0;
            let with_spike = m.predict_range(&spiked, 120, 121).unwrap();
            assert_eq!(clean[0].to_bits(), with_spike[0].to_bits(), "{p:?}");
        }
    }

    #[test]
    fn polyfit_recovers_linear_and_quadratic_trends() {
        let y: Vec<f64> = (0..50).map(|t| 3.0 + 2.0 * t as f64 / 49.0).collect();
        let c = polyfit(&y, 1).unwrap();
        assert!((c[0] - 3.0).abs() < 1e-8 && (c[1] - 2.0).abs() < 1e-8);
        let y: Vec<f64> = (0..50)
            .map(|t| {
                let x = t as f64 / 49.0;
                1.0 - x + 4.0 * x * x
            })
            .collect();
        let c = polyfit(&y, 2).unwrap();
        assert!((c[2] - 4.0).abs() < 1e-6, "{c:?}");
    }

    #[test]
    fn blob_v3_roundtrip_is_bit_identical() {
        let v = series(150);
        for algo in [AlgorithmKind::LASSO, AlgorithmKind::XGB_REGRESSOR] {
            let m = PipelineModel::fit(
                PipelineId::TREND_LAGGED,
                algo,
                &HyperParams::default(),
                &v,
                120,
            )
            .unwrap();
            let blob = m.to_blob().unwrap();
            let back = PipelineModel::from_blob(&blob).unwrap();
            assert_eq!(back.pipeline(), PipelineId::TREND_LAGGED);
            assert_eq!(back.algorithm(), algo);
            let a = m.predict_range(&v, 120, 150).unwrap();
            let b = back.predict_range(&v, 120, 150).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "{algo:?}");
            }
        }
    }

    #[test]
    fn blob_v2_still_revives_as_single_node_member() {
        // Fit a flat XGB on an engineered-style matrix, ship it as v2, and
        // revive it through the unified member codec.
        let x = Matrix::from_fn(60, 3, |i, j| ((i * (j + 2)) % 11) as f64 * 0.3);
        let y: Vec<f64> = (0..60)
            .map(|i| x.get(i, 0) * 1.5 - x.get(i, 1) + 2.0)
            .collect();
        let scaler = Standardizer::fit(&x);
        let yscaler = TargetScaler::fit(&y);
        let xs = scaler.transform(&x);
        let ys: Vec<f64> = y.iter().map(|&v| yscaler.scale(v)).collect();
        let mut model = build_regressor(AlgorithmKind::XGB_REGRESSOR, &HyperParams::default());
        model.fit(&xs, &ys).unwrap();
        let direct: Vec<f64> = model
            .predict(&xs)
            .unwrap()
            .iter()
            .map(|&p| yscaler.unscale(p))
            .collect();
        let blob = encode_external_blob(
            AlgorithmKind::XGB_REGRESSOR,
            &scaler,
            &yscaler,
            &model.to_blob().unwrap(),
        );
        let member = decode_member_blob(&blob).unwrap();
        let revived = member.predict_features(&x).unwrap();
        for (a, b) in direct.iter().zip(&revived) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(member.predict_series(&[0.0; 10], 5, 6).is_err());
    }

    #[test]
    fn affine_inner_models_ship_via_probe() {
        // Lasso has no model codec; its pipeline blob must carry probed
        // affine parameters and revive to bit-identical predictions.
        let v = series(150);
        let m = PipelineModel::fit(
            PipelineId::DIFF_LAGGED,
            AlgorithmKind::LASSO,
            &HyperParams::default(),
            &v,
            120,
        )
        .unwrap();
        let blob = m.to_blob().unwrap();
        let member = decode_member_blob(&blob).unwrap();
        let a = m.predict_range(&v, 120, 150).unwrap();
        let b = member.predict_series(&v, 120, 150).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn corrupt_blobs_error_not_panic() {
        assert!(decode_member_blob(&[]).is_err());
        assert!(decode_member_blob(&[9, 9, 9]).is_err());
        assert!(decode_member_blob(&[3, 1, 2, 3]).is_err());
        let v = series(150);
        let m = PipelineModel::fit(
            PipelineId::LAGGED,
            AlgorithmKind::LASSO,
            &HyperParams::default(),
            &v,
            120,
        )
        .unwrap();
        let mut blob = m.to_blob().unwrap();
        blob.truncate(blob.len() / 2);
        assert!(PipelineModel::from_blob(&blob).is_err());
    }

    #[test]
    fn too_short_series_is_a_typed_error() {
        let v = series(10);
        let e = PipelineModel::fit(
            PipelineId::LAGGED,
            AlgorithmKind::LASSO,
            &HyperParams::default(),
            &v,
            10,
        )
        .unwrap_err();
        assert!(matches!(e, ModelError::InvalidData(_)));
    }

    #[test]
    fn causal_ema_trend_matches_spike_contract() {
        let mut v = vec![1.0; 50];
        v[30] = 100.0;
        let tr = causal_ema_trend(&v, 9.0);
        assert!((tr[30] - 1.0).abs() < 1e-9, "leaked: {}", tr[30]);
        assert!(tr[31] > 1.0);
    }
}
