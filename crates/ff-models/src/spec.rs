//! Self-describing algorithm specifications and the fixed algorithm table.
//!
//! An [`AlgorithmSpec`] carries everything the rest of the system needs to
//! know about one forecasting algorithm: its display name, its namespaced
//! hyperparameter definitions (Table 2 ranges), how to map values in and
//! out of the [`HyperParams`] bundle, its grid-search sweet spot (used both
//! as the Bayesian-optimization warm start and the decode default), its
//! builder, and its federated finalize strategy. The search-space builder,
//! the engine's finalize stage, the client's final-fit op, and the
//! knowledge-base labeller all read these specs rather than matching on
//! the algorithm.
//!
//! The six Table 2 algorithms form one fixed table indexed by
//! [`AlgorithmKind`]; an entry's index is its meta-model class label. A
//! new algorithm is a new entry plus a const, appended at the end so no
//! existing label shifts.

use crate::boosting::gbdt::XgbRegressor;
use crate::linear::cd::Selection;
use crate::linear::elastic_net::ElasticNetCv;
use crate::linear::huber::HuberRegressor;
use crate::linear::lasso::Lasso;
use crate::linear::quantile::QuantileRegressor;
use crate::linear::svr::LinearSvr;
use crate::zoo::HyperParams;
use crate::Regressor;
use std::sync::LazyLock;

/// How a federation turns per-client final fits into one global model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinalizeStrategy {
    /// FedAvg over standardized linear coefficients — requires the fitted
    /// model to be an affine predictor (probed parameters are exact).
    CoefficientAverage,
    /// Serialize every client's fitted model and deploy the weighted union
    /// `ŷ(x) = Σ αⱼ fⱼ(x)` — requires a model codec (see
    /// [`AlgorithmSpec::deserialize_model`]).
    EnsembleUnion,
}

/// A hyperparameter value exchanged with an [`AlgorithmSpec`].
///
/// This is `ff-models`' own neutral value type: the crate must not depend
/// on the optimizer, so the search-space layer translates these to its
/// `ParamValue` generically.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecValue {
    /// Continuous value.
    Float(f64),
    /// Integer value.
    Int(i64),
    /// Categorical option.
    Cat(String),
}

impl SpecValue {
    /// Numeric view (categorical options parse; unparsable → NaN).
    pub fn as_f64(&self) -> f64 {
        match self {
            SpecValue::Float(v) => *v,
            SpecValue::Int(v) => *v as f64,
            SpecValue::Cat(s) => s.parse().unwrap_or(f64::NAN),
        }
    }

    /// Integer view (floats round).
    pub fn as_i64(&self) -> i64 {
        match self {
            SpecValue::Float(v) => v.round() as i64,
            SpecValue::Int(v) => *v,
            SpecValue::Cat(s) => s.parse().unwrap_or(0),
        }
    }

    /// Categorical view (empty for numeric values).
    pub fn as_str(&self) -> &str {
        match self {
            SpecValue::Cat(s) => s,
            _ => "",
        }
    }
}

/// The sampling domain of one hyperparameter (mirrors the optimizer's
/// `ParamSpec` without depending on it).
#[derive(Debug, Clone, PartialEq)]
pub enum ParamKind {
    /// Uniform over `[lo, hi]`.
    Continuous {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Log-uniform over `[lo, hi]`.
    LogContinuous {
        /// Lower bound (must be positive).
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Uniform integer over `[lo, hi]`.
    Integer {
        /// Lower bound.
        lo: i64,
        /// Upper bound.
        hi: i64,
    },
    /// One of a fixed set of options.
    Categorical {
        /// The options.
        options: Vec<String>,
    },
}

enum ParamBinding {
    /// Reads/writes a named [`HyperParams`] field through accessors.
    Field {
        set: fn(&mut HyperParams, &SpecValue),
        get: fn(&HyperParams) -> SpecValue,
    },
    /// Reads/writes `HyperParams::extras[key]` as an `f64` — how pipeline
    /// nodes carry their parameters without touching the struct.
    Extra { default: f64 },
}

/// One namespaced hyperparameter of an algorithm: its key, domain, warm
/// value, and binding into [`HyperParams`].
pub struct ParamDef {
    key: String,
    kind: ParamKind,
    binding: ParamBinding,
    /// Grid sweet-spot value, filled from an algorithm's middle grid entry
    /// (or declared by [`ParamDef::with_warm`]).
    warm: SpecValue,
}

impl std::fmt::Debug for ParamDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParamDef")
            .field("key", &self.key)
            .field("kind", &self.kind)
            .field("warm", &self.warm)
            .finish()
    }
}

impl ParamDef {
    /// A hyperparameter bound to a [`HyperParams`] field through accessor
    /// functions.
    pub fn field(
        key: impl Into<String>,
        kind: ParamKind,
        set: fn(&mut HyperParams, &SpecValue),
        get: fn(&HyperParams) -> SpecValue,
    ) -> ParamDef {
        ParamDef {
            key: key.into(),
            kind,
            binding: ParamBinding::Field { set, get },
            warm: SpecValue::Float(f64::NAN),
        }
    }

    /// A hyperparameter stored in `HyperParams::extras` under its own key
    /// (numeric only), with a default for grid entries that omit it.
    pub fn extra(key: impl Into<String>, kind: ParamKind, default: f64) -> ParamDef {
        ParamDef {
            key: key.into(),
            kind,
            binding: ParamBinding::Extra { default },
            warm: SpecValue::Float(f64::NAN),
        }
    }

    /// Sets the warm (decode-fallback) value explicitly, canonicalized for
    /// the domain. Algorithm params take their warm values from the grid
    /// sweet spot; pipeline nodes (see [`crate::pipeline`]) have no grid, so
    /// their defs declare the warm value directly.
    pub fn with_warm(mut self, value: SpecValue) -> ParamDef {
        self.warm = self.canonical(&value);
        self
    }

    /// Fully namespaced key (e.g. `lasso_alpha`).
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Sampling domain.
    pub fn kind(&self) -> &ParamKind {
        &self.kind
    }

    /// Grid sweet-spot value (canonicalized for the domain).
    pub fn warm(&self) -> &SpecValue {
        &self.warm
    }

    /// Writes a value into the bundle.
    pub fn apply(&self, hp: &mut HyperParams, value: &SpecValue) {
        match &self.binding {
            ParamBinding::Field { set, .. } => set(hp, value),
            ParamBinding::Extra { .. } => {
                hp.extras.insert(self.key.clone(), value.as_f64());
            }
        }
    }

    /// Reads the bundle's current value, canonicalized for the domain
    /// (integers round, categorical values snap to the nearest option).
    pub fn read(&self, hp: &HyperParams) -> SpecValue {
        let raw = match &self.binding {
            ParamBinding::Field { get, .. } => get(hp),
            ParamBinding::Extra { default } => {
                SpecValue::Float(hp.extras.get(&self.key).copied().unwrap_or(*default))
            }
        };
        self.canonical(&raw)
    }

    /// Snaps a raw value onto the domain: `Continuous`/`LogContinuous` →
    /// `Float`, `Integer` → `Int`, `Categorical` → the matching option (or
    /// the option whose numeric parse is nearest, for numeric inputs).
    pub fn canonical(&self, raw: &SpecValue) -> SpecValue {
        match &self.kind {
            ParamKind::Continuous { .. } | ParamKind::LogContinuous { .. } => {
                SpecValue::Float(raw.as_f64())
            }
            ParamKind::Integer { .. } => SpecValue::Int(raw.as_i64()),
            ParamKind::Categorical { options } => {
                if let SpecValue::Cat(s) = raw {
                    if options.iter().any(|o| o == s) {
                        return raw.clone();
                    }
                }
                let target = raw.as_f64();
                let nearest = options
                    .iter()
                    .min_by(|a, b| {
                        let da = (a.parse::<f64>().unwrap_or(f64::INFINITY) - target).abs();
                        let db = (b.parse::<f64>().unwrap_or(f64::INFINITY) - target).abs();
                        da.total_cmp(&db)
                    })
                    .cloned()
                    .unwrap_or_default();
                SpecValue::Cat(nearest)
            }
        }
    }
}

/// A freshly built or revived model.
type Model = Box<dyn Regressor + Send + Sync>;
/// Revives a model from the bytes its [`Regressor::to_blob`] wrote.
type Decoder = fn(&[u8]) -> std::result::Result<Model, String>;

/// Everything the system knows about one forecasting algorithm.
pub struct AlgorithmSpec {
    name: &'static str,
    prefix: &'static str,
    finalize: FinalizeStrategy,
    build: fn(&HyperParams) -> Model,
    grid: Vec<HyperParams>,
    params: Vec<ParamDef>,
    deserialize: Option<Decoder>,
}

impl std::fmt::Debug for AlgorithmSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlgorithmSpec")
            .field("name", &self.name)
            .field("prefix", &self.prefix)
            .field("finalize", &self.finalize)
            .field("params", &self.params)
            .finish()
    }
}

impl AlgorithmSpec {
    /// One table entry. Each [`ParamDef`]'s warm value is taken from the
    /// middle grid entry, so "grid sweet spot" is true by construction.
    fn new(
        name: &'static str,
        prefix: &'static str,
        finalize: FinalizeStrategy,
        build: fn(&HyperParams) -> Model,
        grid: Vec<HyperParams>,
        mut params: Vec<ParamDef>,
        deserialize: Option<Decoder>,
    ) -> AlgorithmSpec {
        if let Some(center) = grid.get(grid.len() / 2) {
            for pd in &mut params {
                pd.warm = pd.read(center);
            }
        }
        AlgorithmSpec {
            name,
            prefix,
            finalize,
            build,
            grid,
            params,
            deserialize,
        }
    }

    /// Display name (the "Best Model" column of Table 3).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Namespace prefix every param key starts with (e.g. `lasso_`).
    pub fn prefix(&self) -> &'static str {
        self.prefix
    }

    /// Federated finalize strategy.
    pub fn finalize(&self) -> FinalizeStrategy {
        self.finalize
    }

    /// Namespaced hyperparameter definitions.
    pub fn params(&self) -> &[ParamDef] {
        &self.params
    }

    /// The offline grid-search hyperparameter grid.
    pub fn grid(&self) -> &[HyperParams] {
        &self.grid
    }

    /// Instantiates a fresh regressor.
    pub fn build(&self, hp: &HyperParams) -> Box<dyn Regressor + Send + Sync> {
        (self.build)(hp)
    }

    /// Revives a model serialized by [`Regressor::to_blob`]. Errors when
    /// the spec has no codec, which only coefficient-average entries lack.
    pub fn deserialize_model(
        &self,
        bytes: &[u8],
    ) -> std::result::Result<Box<dyn Regressor + Send + Sync>, String> {
        match self.deserialize {
            Some(f) => f(bytes),
            None => Err(format!("algorithm {} has no model codec", self.name)),
        }
    }

    /// Decodes the params present in `lookup` into a bundle; missing keys
    /// fall back to the warm (grid sweet-spot) value. Keys of other
    /// algorithms are never consulted — namespacing makes cross-algorithm
    /// leaks impossible by construction.
    pub fn decode(&self, lookup: impl Fn(&str) -> Option<SpecValue>) -> HyperParams {
        let mut hp = HyperParams::default();
        for pd in &self.params {
            let value = lookup(&pd.key).map(|v| pd.canonical(&v));
            pd.apply(&mut hp, value.as_ref().unwrap_or(&pd.warm));
        }
        hp
    }

    /// Encodes a bundle into `(key, value)` pairs, one per param,
    /// canonicalized for each domain. Inverse of [`AlgorithmSpec::decode`].
    pub fn encode(&self, hp: &HyperParams) -> Vec<(String, SpecValue)> {
        self.params
            .iter()
            .map(|pd| (pd.key.clone(), pd.read(hp)))
            .collect()
    }

    /// The warm-start `(key, value)` pairs (grid sweet spot).
    pub fn warm_values(&self) -> Vec<(String, SpecValue)> {
        self.params
            .iter()
            .map(|pd| (pd.key.clone(), pd.warm.clone()))
            .collect()
    }
}

/// An index into the algorithm table: the six Table 2 algorithms
/// (associated consts below), whose index is the meta-model class label.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AlgorithmKind(u16);

impl std::fmt::Debug for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl AlgorithmKind {
    /// L1-regularized linear regression.
    pub const LASSO: AlgorithmKind = AlgorithmKind(0);
    /// ε-insensitive linear SVR.
    pub const LINEAR_SVR: AlgorithmKind = AlgorithmKind(1);
    /// Elastic net with internal CV over alpha.
    pub const ELASTIC_NET_CV: AlgorithmKind = AlgorithmKind(2);
    /// Gradient-boosted trees.
    pub const XGB_REGRESSOR: AlgorithmKind = AlgorithmKind(3);
    /// Huber-loss robust regression.
    pub const HUBER_REGRESSOR: AlgorithmKind = AlgorithmKind(4);
    /// Pinball-loss quantile regression.
    pub const QUANTILE_REGRESSOR: AlgorithmKind = AlgorithmKind(5);

    /// The six Table 2 algorithms, in meta-model class-label order.
    pub fn builtin() -> [AlgorithmKind; 6] {
        std::array::from_fn(|i| AlgorithmKind(i as u16))
    }

    /// This algorithm's spec.
    pub fn spec(&self) -> &'static AlgorithmSpec {
        &ALGORITHMS[self.0 as usize]
    }

    /// The display name (matches the "Best Model" column of Table 3).
    pub fn name(&self) -> &'static str {
        self.spec().name
    }

    /// Parses a display name.
    pub fn from_name(name: &str) -> Option<AlgorithmKind> {
        AlgorithmKind::builtin()
            .into_iter()
            .find(|k| k.name() == name)
    }

    /// Table index (the class label used by the meta-model).
    pub fn index(&self) -> usize {
        self.0 as usize
    }

    /// Inverse of [`AlgorithmKind::index`].
    pub fn from_index(idx: usize) -> Option<AlgorithmKind> {
        AlgorithmKind::builtin().get(idx).copied()
    }

    /// True for algorithms whose final federated model is built by
    /// coefficient averaging (vs ensemble union).
    pub fn is_linear(&self) -> bool {
        matches!(self.spec().finalize, FinalizeStrategy::CoefficientAverage)
    }
}

// --- Field accessors shared by the table entries ---------------------------

fn set_alpha(hp: &mut HyperParams, v: &SpecValue) {
    hp.alpha = v.as_f64();
}
fn get_alpha(hp: &HyperParams) -> SpecValue {
    SpecValue::Float(hp.alpha)
}
fn set_selection(hp: &mut HyperParams, v: &SpecValue) {
    hp.selection = Selection::from_name(v.as_str());
}
fn get_selection(hp: &HyperParams) -> SpecValue {
    SpecValue::Cat(
        match hp.selection {
            Selection::Cyclic => "cyclic",
            Selection::Random => "random",
        }
        .into(),
    )
}
fn set_epsilon(hp: &mut HyperParams, v: &SpecValue) {
    hp.epsilon = v.as_f64();
}
fn get_epsilon(hp: &HyperParams) -> SpecValue {
    SpecValue::Float(hp.epsilon)
}

fn selection_param(key: &str) -> ParamDef {
    ParamDef::field(
        key,
        ParamKind::Categorical {
            options: vec!["cyclic".into(), "random".into()],
        },
        set_selection,
        get_selection,
    )
}

fn alpha_param(key: &str) -> ParamDef {
    ParamDef::field(
        key,
        ParamKind::LogContinuous { lo: 1e-5, hi: 10.0 },
        set_alpha,
        get_alpha,
    )
}

/// The algorithm table, in [`AlgorithmKind`] order.
static ALGORITHMS: LazyLock<[AlgorithmSpec; 6]> = LazyLock::new(|| {
    let base = HyperParams::default;
    [
        AlgorithmSpec::new(
            "Lasso",
            "lasso_",
            FinalizeStrategy::CoefficientAverage,
            |hp| Box::new(Lasso::new(hp.alpha, hp.selection)),
            [1e-4, 1e-2, 0.5]
                .iter()
                .map(|&alpha| HyperParams { alpha, ..base() })
                .collect(),
            vec![
                alpha_param("lasso_alpha"),
                selection_param("lasso_selection"),
            ],
            None,
        ),
        AlgorithmSpec::new(
            "LinearSVR",
            "svr_",
            FinalizeStrategy::CoefficientAverage,
            |hp| Box::new(LinearSvr::new(hp.c, hp.epsilon)),
            [(1.0, 0.01), (5.0, 0.05), (10.0, 0.1)]
                .iter()
                .map(|&(c, epsilon)| HyperParams {
                    c,
                    epsilon,
                    ..base()
                })
                .collect(),
            vec![
                ParamDef::field(
                    "svr_c",
                    ParamKind::Continuous { lo: 1.0, hi: 10.0 },
                    |hp, v| hp.c = v.as_f64(),
                    |hp| SpecValue::Float(hp.c),
                ),
                ParamDef::field(
                    "svr_epsilon",
                    ParamKind::Continuous { lo: 0.01, hi: 0.1 },
                    set_epsilon,
                    get_epsilon,
                ),
            ],
            None,
        ),
        AlgorithmSpec::new(
            "ElasticNetCV",
            "enet_",
            FinalizeStrategy::CoefficientAverage,
            |hp| Box::new(ElasticNetCv::new(hp.l1_ratio, hp.selection)),
            [0.3, 0.7, 1.0]
                .iter()
                .map(|&l1_ratio| HyperParams { l1_ratio, ..base() })
                .collect(),
            vec![
                // Table 2 prints l1_ratio ∈ [0.3, 10], but the mixing ratio
                // is only defined on [0, 1]; the space samples the valid
                // range directly (DESIGN.md §4).
                ParamDef::field(
                    "enet_l1_ratio",
                    ParamKind::Continuous { lo: 0.3, hi: 1.0 },
                    |hp, v| hp.l1_ratio = v.as_f64(),
                    |hp| SpecValue::Float(hp.l1_ratio),
                ),
                selection_param("enet_selection"),
            ],
            None,
        ),
        AlgorithmSpec::new(
            "XGBRegressor",
            "xgb_",
            FinalizeStrategy::EnsembleUnion,
            |hp| {
                Box::new(XgbRegressor::new(
                    hp.n_estimators,
                    hp.max_depth,
                    hp.learning_rate,
                    hp.reg_lambda,
                    hp.subsample,
                ))
            },
            [(5, 2, 0.3), (10, 4, 0.3), (20, 6, 0.1)]
                .iter()
                .map(|&(n, d, lr)| HyperParams {
                    n_estimators: n,
                    max_depth: d,
                    learning_rate: lr,
                    ..base()
                })
                .collect(),
            vec![
                ParamDef::field(
                    "xgb_n_estimators",
                    ParamKind::Integer { lo: 5, hi: 20 },
                    |hp, v| hp.n_estimators = v.as_i64().max(1) as usize,
                    |hp| SpecValue::Int(hp.n_estimators as i64),
                ),
                ParamDef::field(
                    "xgb_max_depth",
                    ParamKind::Integer { lo: 2, hi: 10 },
                    |hp, v| hp.max_depth = v.as_i64().max(1) as usize,
                    |hp| SpecValue::Int(hp.max_depth as i64),
                ),
                ParamDef::field(
                    "xgb_learning_rate",
                    ParamKind::Continuous { lo: 0.01, hi: 1.0 },
                    |hp, v| hp.learning_rate = v.as_f64(),
                    |hp| SpecValue::Float(hp.learning_rate),
                ),
                ParamDef::field(
                    "xgb_reg_lambda",
                    ParamKind::Continuous { lo: 0.8, hi: 10.0 },
                    |hp, v| hp.reg_lambda = v.as_f64(),
                    |hp| SpecValue::Float(hp.reg_lambda),
                ),
                ParamDef::field(
                    "xgb_subsample",
                    ParamKind::Continuous { lo: 0.1, hi: 1.0 },
                    |hp, v| hp.subsample = v.as_f64(),
                    |hp| SpecValue::Float(hp.subsample),
                ),
            ],
            Some(|bytes| {
                XgbRegressor::from_bytes(bytes)
                    .map(|m| Box::new(m) as Model)
                    .map_err(|e| e.to_string())
            }),
        ),
        AlgorithmSpec::new(
            "HuberRegressor",
            "huber_",
            FinalizeStrategy::CoefficientAverage,
            |hp| Box::new(HuberRegressor::new(hp.epsilon.max(1.0), hp.alpha)),
            [(1.0, 1e-3), (1.35, 1e-2), (1.5, 1e-1)]
                .iter()
                .map(|&(epsilon, alpha)| HyperParams {
                    epsilon,
                    alpha,
                    ..base()
                })
                .collect(),
            vec![
                ParamDef::field(
                    "huber_epsilon",
                    ParamKind::Categorical {
                        options: vec!["1.0".into(), "1.35".into(), "1.5".into()],
                    },
                    set_epsilon,
                    get_epsilon,
                ),
                alpha_param("huber_alpha"),
            ],
            None,
        ),
        AlgorithmSpec::new(
            "QuantileRegressor",
            "quantile_",
            FinalizeStrategy::CoefficientAverage,
            |hp| Box::new(QuantileRegressor::new(hp.quantile, hp.alpha)),
            [(0.5, 1e-3), (0.5, 1e-1), (0.7, 1e-2)]
                .iter()
                .map(|&(quantile, alpha)| HyperParams {
                    quantile,
                    alpha,
                    ..base()
                })
                .collect(),
            vec![
                alpha_param("quantile_alpha"),
                ParamDef::field(
                    "quantile_q",
                    ParamKind::Continuous { lo: 0.1, hi: 1.0 },
                    |hp, v| hp.quantile = v.as_f64(),
                    |hp| SpecValue::Float(hp.quantile),
                ),
            ],
            None,
        ),
    ]
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_has_table2_order() {
        let names: Vec<&str> = AlgorithmKind::builtin().iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            [
                "Lasso",
                "LinearSVR",
                "ElasticNetCV",
                "XGBRegressor",
                "HuberRegressor",
                "QuantileRegressor"
            ]
        );
        for (i, k) in AlgorithmKind::builtin().into_iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(AlgorithmKind::from_index(i), Some(k));
            assert_eq!(AlgorithmKind::from_name(k.name()), Some(k));
        }
    }

    #[test]
    fn warm_values_are_grid_middles() {
        let lasso = AlgorithmKind::LASSO.spec();
        assert_eq!(lasso.params()[0].warm(), &SpecValue::Float(1e-2));
        assert_eq!(lasso.params()[1].warm(), &SpecValue::Cat("cyclic".into()));
        let huber = AlgorithmKind::HUBER_REGRESSOR.spec();
        assert_eq!(huber.params()[0].warm(), &SpecValue::Cat("1.35".into()));
        assert_eq!(huber.params()[1].warm(), &SpecValue::Float(1e-2));
        let xgb = AlgorithmKind::XGB_REGRESSOR.spec();
        assert_eq!(xgb.params()[0].warm(), &SpecValue::Int(10));
        assert_eq!(xgb.params()[1].warm(), &SpecValue::Int(4));
    }

    #[test]
    fn decode_ignores_foreign_namespaces() {
        let lasso = AlgorithmKind::LASSO.spec();
        // A lookup that "knows" an SVR key: Lasso must never consult it.
        let hp = lasso.decode(|key| match key {
            "lasso_alpha" => Some(SpecValue::Float(0.25)),
            "svr_c" => Some(SpecValue::Float(9.0)),
            _ => None,
        });
        assert_eq!(hp.alpha, 0.25);
        assert_eq!(hp.c, HyperParams::default().c);
    }

    #[test]
    fn encode_decode_roundtrip_for_every_builtin() {
        for kind in AlgorithmKind::builtin() {
            let spec = kind.spec();
            for hp in spec.grid() {
                let pairs = spec.encode(hp);
                let back =
                    spec.decode(|key| pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()));
                assert_eq!(spec.encode(&back), pairs, "{kind:?}");
            }
        }
    }

    #[test]
    fn algorithm_table_keeps_the_namespace_contract() {
        let specs: Vec<&AlgorithmSpec> =
            AlgorithmKind::builtin().iter().map(|k| k.spec()).collect();
        let node_prefixes: Vec<&str> = crate::pipeline::NodeId::builtin()
            .iter()
            .map(|n| n.spec().prefix())
            .collect();
        for (i, a) in specs.iter().enumerate() {
            assert!(!a.name.is_empty(), "entry {i} has no name");
            assert!(a.prefix.ends_with('_'), "{}: prefix {:?}", a.name, a.prefix);
            assert!(!a.grid.is_empty(), "{} has an empty grid", a.name);
            assert_eq!(
                a.deserialize.is_some(),
                a.finalize == FinalizeStrategy::EnsembleUnion,
                "{}: a decoder exactly when ensemble-union",
                a.name
            );
            let mut keys: Vec<&str> = a.params.iter().map(|p| p.key()).collect();
            assert!(
                keys.iter().all(|k| k.starts_with(a.prefix)),
                "{}: {keys:?}",
                a.name
            );
            keys.sort_unstable();
            assert!(keys.windows(2).all(|w| w[0] != w[1]), "{}", a.name);
            for b in &specs[i + 1..] {
                assert_ne!(a.name, b.name);
                assert!(
                    !a.prefix.starts_with(b.prefix) && !b.prefix.starts_with(a.prefix),
                    "{} / {}",
                    a.prefix,
                    b.prefix
                );
            }
            for node in &node_prefixes {
                assert!(
                    !a.prefix.starts_with(node) && !node.starts_with(a.prefix),
                    "{} / {node}",
                    a.prefix
                );
            }
        }
    }

    #[test]
    fn extras_binding_roundtrips() {
        let pd = ParamDef::extra("toy_k", ParamKind::Integer { lo: 1, hi: 9 }, 3.0);
        let mut hp = HyperParams::default();
        assert_eq!(
            ParamDef {
                warm: SpecValue::Int(3),
                ..pd
            }
            .read(&hp),
            SpecValue::Int(3)
        );
        let pd = ParamDef::extra("toy_k", ParamKind::Integer { lo: 1, hi: 9 }, 3.0);
        pd.apply(&mut hp, &SpecValue::Int(7));
        assert_eq!(pd.read(&hp), SpecValue::Int(7));
    }

    #[test]
    fn categorical_canonicalization_snaps_to_nearest_option() {
        let huber = AlgorithmKind::HUBER_REGRESSOR.spec();
        let eps = &huber.params()[0];
        assert_eq!(
            eps.canonical(&SpecValue::Float(1.34)),
            SpecValue::Cat("1.35".into())
        );
        assert_eq!(
            eps.canonical(&SpecValue::Float(0.05)),
            SpecValue::Cat("1.0".into())
        );
        assert_eq!(
            eps.canonical(&SpecValue::Cat("1.5".into())),
            SpecValue::Cat("1.5".into())
        );
    }
}
