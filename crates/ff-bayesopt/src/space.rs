//! Mixed hyperparameter search spaces.
//!
//! Table 2's spaces mix log-scaled continuous parameters (`alpha`), linear
//! ranges (`subsample`), integer ranges (`n_estimators`), and categoricals
//! (`selection`). Every parameter is encoded into `[0, 1]` (categoricals
//! one-hot) so the GP kernel sees a homogeneous unit cube.

use rand::Rng;
use std::collections::BTreeMap;

/// Specification of one hyperparameter.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamSpec {
    /// Continuous on a linear scale.
    Continuous {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
    },
    /// Continuous on a log10 scale (`lo`, `hi` in raw units, both > 0).
    LogContinuous {
        /// Lower bound (inclusive, > 0).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
    },
    /// Integer range (inclusive).
    Integer {
        /// Lower bound.
        lo: i64,
        /// Upper bound.
        hi: i64,
    },
    /// Categorical choice.
    Categorical {
        /// The option names.
        options: Vec<String>,
    },
}

impl ParamSpec {
    /// Encoded width: one dimension per option for a categorical, else one.
    fn width(&self) -> usize {
        match self {
            ParamSpec::Categorical { options } => options.len(),
            _ => 1,
        }
    }

    /// Draws one value with this kind's single `gen_range` call.
    fn draw<R: Rng>(&self, rng: &mut R) -> RawValue {
        match self {
            ParamSpec::Continuous { lo, hi } => RawValue::Float(rng.gen_range(*lo..=*hi)),
            ParamSpec::LogContinuous { lo, hi } => {
                RawValue::Float(10f64.powf(rng.gen_range(lo.log10()..=hi.log10())))
            }
            ParamSpec::Integer { lo, hi } => RawValue::Int(rng.gen_range(*lo..=*hi)),
            ParamSpec::Categorical { options } => RawValue::Choice(rng.gen_range(0..options.len())),
        }
    }

    /// The unit-cube coordinate of a scalar parameter's value `x`, in raw
    /// units: its position in `[lo, hi]`, on the log10 scale for
    /// `LogContinuous`, clamped to `[0, 1]`.
    fn unit(&self, x: f64) -> f64 {
        let (x, lo, span) = match *self {
            ParamSpec::Continuous { lo, hi } => (x, lo, hi - lo),
            ParamSpec::LogContinuous { lo, hi } => {
                (x.max(1e-300).log10(), lo.log10(), hi.log10() - lo.log10())
            }
            ParamSpec::Integer { lo, hi } => (x, lo as f64, (hi - lo).max(1) as f64),
            ParamSpec::Categorical { .. } => unreachable!("categoricals encode one-hot"),
        };
        ((x - lo) / span.max(1e-300)).clamp(0.0, 1.0)
    }
}

/// One drawn value before it becomes a [`ParamValue`]: a float, an
/// integer, or the index of a categorical option.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RawValue {
    Float(f64),
    Int(i64),
    Choice(usize),
}

impl RawValue {
    fn value(self, spec: &ParamSpec) -> ParamValue {
        match (self, spec) {
            (RawValue::Float(v), _) => ParamValue::Float(v),
            (RawValue::Int(v), _) => ParamValue::Int(v),
            (RawValue::Choice(i), ParamSpec::Categorical { options }) => {
                ParamValue::Cat(options[i].clone())
            }
            (RawValue::Choice(_), _) => unreachable!("option indices are drawn for categoricals"),
        }
    }
}

/// A concrete sampled value.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// A float value (continuous/log parameters).
    Float(f64),
    /// An integer value.
    Int(i64),
    /// A categorical choice by name.
    Cat(String),
}

impl ParamValue {
    /// Float accessor (ints coerce).
    pub fn as_f64(&self) -> f64 {
        match self {
            ParamValue::Float(v) => *v,
            ParamValue::Int(v) => *v as f64,
            ParamValue::Cat(_) => f64::NAN,
        }
    }

    /// Integer accessor (floats round).
    pub fn as_i64(&self) -> i64 {
        match self {
            ParamValue::Float(v) => v.round() as i64,
            ParamValue::Int(v) => *v,
            ParamValue::Cat(_) => 0,
        }
    }

    /// Categorical accessor.
    pub fn as_str(&self) -> &str {
        match self {
            ParamValue::Cat(s) => s,
            _ => "",
        }
    }
}

/// A named configuration: parameter name → value.
pub type Configuration = BTreeMap<String, ParamValue>;

/// Activation guard for a conditional dimension: the guarded parameter is
/// *active* only when the categorical parameter `key` takes one of
/// `options`. Inactive dimensions still exist in every configuration (the
/// CASH convention — sampling and decoding are unconditional, so fallback
/// machinery keeps working), but [`SearchSpace::encode`] masks them to a
/// constant so the surrogate model never attributes loss variation to
/// branches that were not selected.
#[derive(Debug, Clone, PartialEq)]
pub struct Condition {
    key: String,
    options: Vec<String>,
}

impl Condition {
    /// Active when `key` equals any of `options`.
    pub fn any_of(key: impl Into<String>, options: impl IntoIterator<Item = String>) -> Condition {
        Condition {
            key: key.into(),
            options: options.into_iter().collect(),
        }
    }

    /// Active when `key` equals `option`.
    pub fn equals(key: impl Into<String>, option: impl Into<String>) -> Condition {
        Condition {
            key: key.into(),
            options: vec![option.into()],
        }
    }

    /// The controlling parameter name.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The activating options.
    pub fn options(&self) -> &[String] {
        &self.options
    }

    /// Evaluates the guard against a configuration.
    pub fn holds(&self, config: &Configuration) -> bool {
        config
            .get(&self.key)
            .map(|v| self.options.iter().any(|o| o == v.as_str()))
            .unwrap_or(false)
    }
}

/// A [`Condition`] resolved when its parameter was added: the index of
/// the controlling categorical and, per option of it, whether that option
/// activates the guarded parameter.
#[derive(Debug, Clone, PartialEq)]
struct Guard {
    cond: Condition,
    key: usize,
    active: Vec<bool>,
}

/// An ordered collection of named parameters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchSpace {
    params: Vec<(String, ParamSpec)>,
    /// One entry per parameter; `None` for an unconditional one.
    guards: Vec<Option<Guard>>,
}

impl SearchSpace {
    /// Creates an empty space.
    pub fn new() -> SearchSpace {
        SearchSpace::default()
    }

    /// Adds a parameter (builder style).
    ///
    /// # Panics
    ///
    /// If `name` is already a parameter of the space, or a categorical
    /// `spec` lists an option twice. Spaces are built by code, so either
    /// is a bug in the caller.
    pub fn with(self, name: &str, spec: ParamSpec) -> SearchSpace {
        self.push(name, spec, None)
    }

    /// Adds a parameter that is active only under `cond` (structure-
    /// conditional spaces: pipeline-node and per-algorithm dimensions
    /// guarded by the structure/algorithm categoricals).
    ///
    /// # Panics
    ///
    /// As [`with`](Self::with), and also if `cond`'s key does not name a
    /// categorical parameter added earlier.
    pub fn with_conditional(self, name: &str, spec: ParamSpec, cond: Condition) -> SearchSpace {
        let (key, options) = self
            .params
            .iter()
            .enumerate()
            .find_map(|(i, (n, spec))| match spec {
                ParamSpec::Categorical { options } if n == cond.key() => Some((i, options)),
                _ => None,
            })
            .unwrap_or_else(|| {
                panic!(
                    "search space: {name:?} is guarded by {:?}, which is not an earlier \
                     categorical parameter",
                    cond.key()
                )
            });
        let active = options.iter().map(|o| cond.options.contains(o)).collect();
        self.push(name, spec, Some(Guard { cond, key, active }))
    }

    fn push(mut self, name: &str, spec: ParamSpec, guard: Option<Guard>) -> SearchSpace {
        assert!(
            self.params.iter().all(|(n, _)| n != name),
            "search space: parameter {name:?} is defined twice"
        );
        if let ParamSpec::Categorical { options } = &spec {
            for (i, option) in options.iter().enumerate() {
                assert!(
                    !options[..i].contains(option),
                    "search space: {name:?} lists option {option:?} twice"
                );
            }
        }
        self.params.push((name.to_string(), spec));
        self.guards.push(guard);
        self
    }

    /// The activation guard of a parameter, if it has one.
    pub fn condition(&self, name: &str) -> Option<&Condition> {
        let i = self.params.iter().position(|(n, _)| n == name)?;
        self.guards[i].as_ref().map(|g| &g.cond)
    }

    /// True when the parameter participates in `config`'s selected
    /// structure (unconditional parameters are always active).
    pub fn is_active(&self, name: &str, config: &Configuration) -> bool {
        self.condition(name).is_none_or(|c| c.holds(config))
    }

    /// Parameter count (before one-hot expansion).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are defined.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// The parameters in declaration order.
    pub fn params(&self) -> &[(String, ParamSpec)] {
        &self.params
    }

    /// Dimension of the encoded `[0,1]^d` representation (categoricals
    /// expand to one dimension per option).
    pub fn encoded_dim(&self) -> usize {
        self.params.iter().map(|(_, s)| s.width()).sum()
    }

    /// Samples a uniform random configuration.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Configuration {
        let mut raw = vec![RawValue::Int(0); self.len()];
        self.draw_raw(rng, &mut raw);
        self.configuration(&raw)
    }

    /// Draws one value per parameter into `raw`, in parameter order — the
    /// one place the RNG order of a random configuration is defined.
    fn draw_raw<R: Rng>(&self, rng: &mut R, raw: &mut [RawValue]) {
        for (slot, (_, spec)) in raw.iter_mut().zip(&self.params) {
            *slot = spec.draw(rng);
        }
    }

    /// Draws one candidate exactly as [`sample`](Self::sample) does, into
    /// `raw` (one value per parameter) and its encoding into `row`
    /// (`encoded_dim()` wide): the row equals `encode` of the sampled
    /// configuration bit for bit. Guards resolve through option indices.
    pub(crate) fn draw<R: Rng>(&self, rng: &mut R, raw: &mut [RawValue], row: &mut [f64]) {
        self.draw_raw(rng, raw);
        let mut at = 0;
        for (((_, spec), guard), &value) in self.params.iter().zip(&self.guards).zip(&*raw) {
            let out = &mut row[at..at + spec.width()];
            at += out.len();
            out.fill(0.0);
            let active = guard
                .as_ref()
                .is_none_or(|g| matches!(raw[g.key], RawValue::Choice(i) if g.active[i]));
            if active {
                match value {
                    RawValue::Float(x) => out[0] = spec.unit(x),
                    RawValue::Int(x) => out[0] = spec.unit(x as f64),
                    RawValue::Choice(i) => out[i] = 1.0,
                }
            }
        }
    }

    /// The configuration of a drawn record.
    pub(crate) fn configuration(&self, raw: &[RawValue]) -> Configuration {
        self.params
            .iter()
            .zip(raw)
            .map(|((name, spec), value)| (name.clone(), value.value(spec)))
            .collect()
    }

    /// Encodes a configuration into `[0, 1]^d`. Dimensions whose
    /// [`Condition`] does not hold are masked to a constant `0.0`
    /// (all-zero one-hot for categoricals), so two configurations that
    /// differ only in an unselected branch encode identically and the
    /// surrogate's kernel sees no phantom distance between them.
    pub fn encode(&self, config: &Configuration) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.encoded_dim());
        for ((name, spec), guard) in self.params.iter().zip(&self.guards) {
            let at = out.len();
            out.resize(at + spec.width(), 0.0);
            if !guard.as_ref().is_none_or(|g| g.cond.holds(config)) {
                continue;
            }
            let v = config.get(name);
            match spec {
                ParamSpec::Continuous { lo, .. } | ParamSpec::LogContinuous { lo, .. } => {
                    out[at] = spec.unit(v.map(|p| p.as_f64()).unwrap_or(*lo));
                }
                ParamSpec::Integer { lo, .. } => {
                    out[at] = spec.unit(v.map(|p| p.as_i64()).unwrap_or(*lo) as f64);
                }
                ParamSpec::Categorical { options } => {
                    let choice = v.map(|p| p.as_str()).unwrap_or("");
                    for (slot, opt) in out[at..].iter_mut().zip(options) {
                        if opt == choice {
                            *slot = 1.0;
                        }
                    }
                }
            }
        }
        out
    }

    /// Decodes a point in `[0, 1]^d` back into a configuration (inverse of
    /// [`SearchSpace::encode`] up to integer rounding / categorical argmax).
    pub fn decode(&self, z: &[f64]) -> Configuration {
        let mut out = Configuration::new();
        let mut i = 0;
        for (name, spec) in &self.params {
            match spec {
                ParamSpec::Continuous { lo, hi } => {
                    out.insert(
                        name.clone(),
                        ParamValue::Float(lo + z[i].clamp(0.0, 1.0) * (hi - lo)),
                    );
                    i += 1;
                }
                ParamSpec::LogContinuous { lo, hi } => {
                    let l = lo.log10();
                    let h = hi.log10();
                    out.insert(
                        name.clone(),
                        ParamValue::Float(10f64.powf(l + z[i].clamp(0.0, 1.0) * (h - l))),
                    );
                    i += 1;
                }
                ParamSpec::Integer { lo, hi } => {
                    let v = *lo as f64 + z[i].clamp(0.0, 1.0) * (*hi - *lo) as f64;
                    out.insert(name.clone(), ParamValue::Int(v.round() as i64));
                    i += 1;
                }
                ParamSpec::Categorical { options } => {
                    let slice = &z[i..i + options.len()];
                    let best = ff_linalg::vector::argmax(slice).unwrap_or(0);
                    out.insert(name.clone(), ParamValue::Cat(options[best].clone()));
                    i += options.len();
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> SearchSpace {
        SearchSpace::new()
            .with("alpha", ParamSpec::LogContinuous { lo: 1e-4, hi: 10.0 })
            .with("depth", ParamSpec::Integer { lo: 2, hi: 10 })
            .with(
                "selection",
                ParamSpec::Categorical {
                    options: vec!["cyclic".into(), "random".into()],
                },
            )
            .with("subsample", ParamSpec::Continuous { lo: 0.1, hi: 1.0 })
    }

    #[test]
    fn encoded_dim_counts_one_hot() {
        assert_eq!(space().encoded_dim(), 5);
    }

    #[test]
    fn samples_respect_bounds() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..200 {
            let c = s.sample(&mut rng);
            let alpha = c["alpha"].as_f64();
            assert!((1e-4..=10.0).contains(&alpha));
            let depth = c["depth"].as_i64();
            assert!((2..=10).contains(&depth));
            assert!(["cyclic", "random"].contains(&c["selection"].as_str()));
            let sub = c["subsample"].as_f64();
            assert!((0.1..=1.0).contains(&sub));
        }
    }

    #[test]
    fn log_sampling_covers_decades() {
        let s = SearchSpace::new().with("a", ParamSpec::LogContinuous { lo: 1e-4, hi: 1.0 });
        let mut rng = StdRng::seed_from_u64(1);
        let mut small = 0;
        for _ in 0..500 {
            if s.sample(&mut rng)["a"].as_f64() < 1e-2 {
                small += 1;
            }
        }
        // Log-uniform ⇒ half the samples below the geometric midpoint 1e-2.
        assert!((150..350).contains(&small), "small count {small}");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let c = s.sample(&mut rng);
            let z = s.encode(&c);
            assert_eq!(z.len(), s.encoded_dim());
            assert!(z.iter().all(|v| (0.0..=1.0).contains(v)));
            let back = s.decode(&z);
            assert!((back["alpha"].as_f64().log10() - c["alpha"].as_f64().log10()).abs() < 1e-9);
            assert_eq!(back["depth"].as_i64(), c["depth"].as_i64());
            assert_eq!(back["selection"].as_str(), c["selection"].as_str());
            assert!((back["subsample"].as_f64() - c["subsample"].as_f64()).abs() < 1e-9);
        }
    }

    #[test]
    fn missing_params_encode_to_lower_bound() {
        let s = space();
        let z = s.encode(&Configuration::new());
        assert_eq!(z[0], 0.0);
        assert_eq!(z[1], 0.0);
    }

    fn conditional_space() -> SearchSpace {
        SearchSpace::new()
            .with(
                "pipeline",
                ParamSpec::Categorical {
                    options: vec!["plain".into(), "trended".into()],
                },
            )
            .with_conditional(
                "degree",
                ParamSpec::Integer { lo: 1, hi: 3 },
                Condition::equals("pipeline", "trended"),
            )
            .with("width", ParamSpec::Continuous { lo: 0.0, hi: 1.0 })
    }

    #[test]
    fn inactive_dimensions_encode_to_constant_zero() {
        let s = conditional_space();
        let mut a = Configuration::new();
        a.insert("pipeline".into(), ParamValue::Cat("plain".into()));
        a.insert("degree".into(), ParamValue::Int(1));
        a.insert("width".into(), ParamValue::Float(0.5));
        let mut b = a.clone();
        b.insert("degree".into(), ParamValue::Int(3));
        // Same selected structure, different unselected-branch value: the
        // encodings must be identical — no phantom kernel distance.
        assert_eq!(s.encode(&a), s.encode(&b));
        assert!(!s.is_active("degree", &a));
        // Selecting the branch re-activates the dimension.
        a.insert("pipeline".into(), ParamValue::Cat("trended".into()));
        assert!(s.is_active("degree", &a));
        assert_ne!(s.encode(&a), s.encode(&b));
    }

    #[test]
    fn conditional_sampling_and_decoding_stay_unconditional() {
        // CASH convention: every dimension is sampled and decoded so warm-
        // start and fallback machinery see complete configurations.
        let s = conditional_space();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let c = s.sample(&mut rng);
            assert!(c.contains_key("degree"));
            let back = s.decode(&s.encode(&c));
            assert!(back.contains_key("degree"));
        }
    }

    #[test]
    fn condition_free_spaces_are_unchanged() {
        let s = space();
        assert!(s.is_active("alpha", &Configuration::new()));
        assert!(s.condition("alpha").is_none());
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn a_repeated_name_is_refused() {
        let _ = space().with("depth", ParamSpec::Integer { lo: 0, hi: 1 });
    }

    #[test]
    #[should_panic(expected = "lists option \"a\" twice")]
    fn a_repeated_option_is_refused() {
        let _ = SearchSpace::new().with(
            "c",
            ParamSpec::Categorical {
                options: vec!["a".into(), "b".into(), "a".into()],
            },
        );
    }

    #[test]
    #[should_panic(expected = "not an earlier categorical")]
    fn a_guard_on_a_later_parameter_is_refused() {
        let _ = SearchSpace::new().with_conditional(
            "width",
            ParamSpec::Continuous { lo: 0.0, hi: 1.0 },
            Condition::equals("pipeline", "plain"),
        );
    }

    #[test]
    #[should_panic(expected = "not an earlier categorical")]
    fn a_guard_on_a_scalar_parameter_is_refused() {
        let _ = space().with_conditional(
            "width",
            ParamSpec::Continuous { lo: 0.0, hi: 1.0 },
            Condition::equals("depth", "3"),
        );
    }

    /// One parameter of a generated space: kind, base value, span (0
    /// gives `lo == hi`; decades for a log range), option count, and the
    /// bits that choose its guard.
    type Recipe = (u8, f64, u32, usize, u64);

    fn recipes() -> impl Strategy<Value = Vec<Recipe>> {
        prop::collection::vec(
            (0u8..4, -3.0f64..3.0, 0u32..9, 1usize..5, any::<u64>()),
            1..=12,
        )
    }

    /// Builds a space from recipes. Two in three parameters after the
    /// first categorical are guarded by an earlier categorical (guarded
    /// or not), active under any subset of its options.
    fn space_from(recipes: &[Recipe]) -> SearchSpace {
        let mut space = SearchSpace::new();
        let mut categoricals: Vec<(String, Vec<String>)> = Vec::new();
        for (i, &(kind, a, span, n_options, guard)) in recipes.iter().enumerate() {
            let name = format!("p{i}");
            let spec = match kind {
                0 => ParamSpec::Continuous {
                    lo: a,
                    hi: a + 0.75 * span as f64,
                },
                1 => ParamSpec::LogContinuous {
                    lo: 10f64.powf(a),
                    hi: 10f64.powf(a + span as f64),
                },
                2 => {
                    let lo = (10.0 * a) as i64;
                    ParamSpec::Integer {
                        lo,
                        hi: lo + 3 * i64::from(span),
                    }
                }
                _ => ParamSpec::Categorical {
                    options: (0..n_options).map(|o| format!("{name}_o{o}")).collect(),
                },
            };
            let key = categoricals.get((guard >> 2) as usize % categoricals.len().max(1));
            space = match key {
                Some((key, options)) if guard % 3 != 0 => {
                    let active = options
                        .iter()
                        .enumerate()
                        .filter(|&(o, _)| guard >> (8 + o) & 1 == 1)
                        .map(|(_, option)| option.clone());
                    space.with_conditional(&name, spec.clone(), Condition::any_of(key, active))
                }
                _ => space.with(&name, spec.clone()),
            };
            if let ParamSpec::Categorical { options } = spec {
                categoricals.push((name, options));
            }
        }
        space
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        /// The acquisition draw path is `sample` followed by `encode`, bit
        /// for bit: each drawn row is the sampled configuration's
        /// encoding, the record is that configuration, and both paths
        /// leave the RNG at the same point.
        #[test]
        fn drawn_rows_are_encoded_samples(recipes in recipes(), seed in any::<u64>()) {
            let space = space_from(&recipes);
            let mut drawn = StdRng::seed_from_u64(seed);
            let mut sampled = drawn.clone();
            let mut raw = vec![RawValue::Int(0); space.len()];
            let mut row = vec![f64::NAN; space.encoded_dim()];
            for _ in 0..64 {
                space.draw(&mut drawn, &mut raw, &mut row);
                let config = space.sample(&mut sampled);
                prop_assert_eq!(bits(&row), bits(&space.encode(&config)));
                prop_assert_eq!(space.configuration(&raw), config);
            }
            prop_assert_eq!(drawn.gen::<u64>(), sampled.gen::<u64>());
        }
    }
}
