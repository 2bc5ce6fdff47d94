//! The Table 2 search space and its encodings — driven by the algorithm
//! table.
//!
//! The joint space has a categorical `algorithm` dimension restricted to
//! the meta-model's recommendations plus every algorithm's hyperparameters
//! (a flattened conditional space — dimensions of unselected algorithms are
//! inert, the standard CASH-space trick). All per-algorithm knowledge
//! (keys, ranges, warm starts, decode) comes from the `ff_models::spec`
//! table, so a new table entry extends this space with no edits here.
//! Conversions are provided to the [`HyperParams`] bundle used to
//! instantiate models and to [`ConfigMap`]s for transmission to clients.
//!
//! Ranges follow Table 2 exactly, with one normalization documented in
//! DESIGN.md §4: the printed ElasticNetCV `l1_ratio ∈ [0.3, 10]` is a typo
//! (the mixing ratio is only defined on `[0, 1]`), so the table samples
//! `[0.3, 1.0]` directly.

use ff_bayesopt::space::{Condition, Configuration, ParamSpec, ParamValue, SearchSpace};
use ff_fl::config::{ConfigMap, ConfigMapExt};
use ff_models::pipeline::{NodeId, PipelineId};
use ff_models::spec::{ParamKind, SpecValue};
use ff_models::zoo::{AlgorithmKind, HyperParams};

fn to_param_spec(kind: &ParamKind) -> ParamSpec {
    match kind {
        ParamKind::Continuous { lo, hi } => ParamSpec::Continuous { lo: *lo, hi: *hi },
        ParamKind::LogContinuous { lo, hi } => ParamSpec::LogContinuous { lo: *lo, hi: *hi },
        ParamKind::Integer { lo, hi } => ParamSpec::Integer { lo: *lo, hi: *hi },
        ParamKind::Categorical { options } => ParamSpec::Categorical {
            options: options.clone(),
        },
    }
}

fn to_param_value(v: &SpecValue) -> ParamValue {
    match v {
        SpecValue::Float(x) => ParamValue::Float(*x),
        SpecValue::Int(x) => ParamValue::Int(*x),
        SpecValue::Cat(s) => ParamValue::Cat(s.clone()),
    }
}

fn to_spec_value(v: &ParamValue) -> SpecValue {
    match v {
        ParamValue::Float(x) => SpecValue::Float(*x),
        ParamValue::Int(x) => SpecValue::Int(*x),
        ParamValue::Cat(s) => SpecValue::Cat(s.clone()),
    }
}

/// Builds the joint Table 2 search space over the given algorithms by
/// iterating their specs.
pub fn table2_space(algorithms: &[AlgorithmKind]) -> SearchSpace {
    assert!(!algorithms.is_empty());
    let names: Vec<String> = algorithms.iter().map(|a| a.name().to_string()).collect();
    let mut space = SearchSpace::new().with("algorithm", ParamSpec::Categorical { options: names });
    for algo in algorithms {
        for pd in algo.spec().params() {
            space = space.with(pd.key(), to_param_spec(pd.kind()));
        }
    }
    space
}

/// Extracts the algorithm choice from a sampled configuration.
pub fn algorithm_of(config: &Configuration) -> Option<AlgorithmKind> {
    AlgorithmKind::from_name(config.get("algorithm")?.as_str())
}

/// Converts a sampled configuration to the concrete hyperparameter bundle.
///
/// Only the selected algorithm's own namespaced keys are consulted; any
/// missing key falls back to that algorithm's warm (grid sweet-spot) value.
/// Dimensions of unselected algorithms never leak into the result — they
/// stay at [`HyperParams::default`].
pub fn to_hyperparams(config: &Configuration) -> HyperParams {
    match algorithm_of(config) {
        Some(algo) => algo.spec().decode(|key| config.get(key).map(to_spec_value)),
        None => HyperParams::default(),
    }
}

/// Encodes a bundle back into a configuration for the given algorithm
/// (inverse of [`to_hyperparams`] over that algorithm's dimensions).
pub fn from_hyperparams(algo: AlgorithmKind, hp: &HyperParams) -> Configuration {
    let mut c = Configuration::new();
    c.insert("algorithm".into(), ParamValue::Cat(algo.name().to_string()));
    for (key, value) in algo.spec().encode(hp) {
        c.insert(key, to_param_value(&value));
    }
    c
}

/// Warm-start configurations for the recommended algorithms: each
/// recommendation seeds one configuration at its grid-search
/// sweet spot (the middle entry of the KB labelling grid).
pub fn warm_start_configs(algorithms: &[AlgorithmKind]) -> Vec<Configuration> {
    algorithms
        .iter()
        .map(|&a| {
            let mut c = Configuration::new();
            c.insert("algorithm".into(), ParamValue::Cat(a.name().to_string()));
            for (key, value) in a.spec().warm_values() {
                c.insert(key, to_param_value(&value));
            }
            c
        })
        .collect()
}

/// The categorical dimension naming the selected pipeline structure.
pub const PIPELINE_KEY: &str = "pipeline";

/// Builds the joint structure-conditional pipeline space: a categorical
/// `pipeline` dimension over the given structures, the `algorithm`
/// dimension over the recommendations, one dimension per distinct node
/// param across the structures (guarded by the set of structures that
/// contain the node), and every algorithm's own params (guarded by the
/// algorithm selection). Sampling and decoding stay unconditional — the
/// CASH fallback machinery is unchanged — but the guards mask unselected-
/// branch dimensions out of the surrogate's encoding, so tuning one
/// structure never pays kernel distance for another structure's knobs.
pub fn pipeline_space(algorithms: &[AlgorithmKind], pipelines: &[PipelineId]) -> SearchSpace {
    assert!(!algorithms.is_empty() && !pipelines.is_empty());
    let pnames: Vec<String> = pipelines.iter().map(|p| p.name().to_string()).collect();
    let anames: Vec<String> = algorithms.iter().map(|a| a.name().to_string()).collect();
    let mut space = SearchSpace::new()
        .with(PIPELINE_KEY, ParamSpec::Categorical { options: pnames })
        .with("algorithm", ParamSpec::Categorical { options: anames });
    let mut seen: Vec<NodeId> = Vec::new();
    for p in pipelines {
        for &node in p.spec().nodes() {
            if seen.contains(&node) {
                continue;
            }
            seen.push(node);
            let activating: Vec<String> = pipelines
                .iter()
                .filter(|q| q.spec().nodes().contains(&node))
                .map(|q| q.name().to_string())
                .collect();
            for pd in node.spec().params() {
                space = space.with_conditional(
                    pd.key(),
                    to_param_spec(pd.kind()),
                    Condition::any_of(PIPELINE_KEY, activating.clone()),
                );
            }
        }
    }
    for algo in algorithms {
        for pd in algo.spec().params() {
            space = space.with_conditional(
                pd.key(),
                to_param_spec(pd.kind()),
                Condition::equals("algorithm", algo.name()),
            );
        }
    }
    space
}

/// Extracts the pipeline-structure choice from a sampled configuration
/// (`None` for flat-portfolio configurations).
pub fn pipeline_of(config: &Configuration) -> Option<PipelineId> {
    PipelineId::from_name(config.get(PIPELINE_KEY)?.as_str())
}

/// Converts a joint configuration to the bundle carrying both the selected
/// algorithm's hyperparameters and the selected structure's node params
/// (in `extras`). Each layer consults only its own namespaced keys;
/// unselected-branch dimensions never leak (same contract as
/// [`to_hyperparams`], extended to node namespaces).
pub fn to_pipeline_hyperparams(config: &Configuration) -> HyperParams {
    let mut hp = to_hyperparams(config);
    if let Some(p) = pipeline_of(config) {
        p.spec()
            .decode_into(&mut hp, |key| config.get(key).map(to_spec_value));
    }
    hp
}

/// Warm-start configurations for the joint space: every structure paired
/// with the first recommended algorithm, then every remaining algorithm
/// paired with the first structure — `|P| + |A| − 1` seeds that cover both
/// axes without the full cross product. All node and algorithm params sit
/// at their warm values.
pub fn warm_start_pipeline_configs(
    algorithms: &[AlgorithmKind],
    pipelines: &[PipelineId],
) -> Vec<Configuration> {
    assert!(!algorithms.is_empty() && !pipelines.is_empty());
    let warm = |p: PipelineId, a: AlgorithmKind| {
        let mut c = Configuration::new();
        c.insert(PIPELINE_KEY.into(), ParamValue::Cat(p.name().to_string()));
        c.insert("algorithm".into(), ParamValue::Cat(a.name().to_string()));
        for (key, value) in p.spec().warm_values() {
            c.insert(key, to_param_value(&value));
        }
        for (key, value) in a.spec().warm_values() {
            c.insert(key, to_param_value(&value));
        }
        c
    };
    let mut out: Vec<Configuration> = pipelines.iter().map(|&p| warm(p, algorithms[0])).collect();
    out.extend(algorithms[1..].iter().map(|&a| warm(pipelines[0], a)));
    out
}

/// Serializes a configuration into a [`ConfigMap`] for the wire.
pub fn config_to_map(config: &Configuration) -> ConfigMap {
    let mut map = ConfigMap::new();
    for (k, v) in config {
        map = match v {
            ParamValue::Float(x) => map.with_float(k, *x),
            ParamValue::Int(x) => map.with_int(k, *x),
            ParamValue::Cat(s) => map.with_str(k, s),
        };
    }
    map
}

/// Parses a wire [`ConfigMap`] back into a configuration.
pub fn map_to_config(map: &ConfigMap) -> Configuration {
    let mut config = Configuration::new();
    for (k, v) in map {
        let pv = if let Some(s) = v.as_str() {
            ParamValue::Cat(s.to_string())
        } else if let Some(i) = v.as_int() {
            ParamValue::Int(i)
        } else if let Some(f) = v.as_float() {
            ParamValue::Float(f)
        } else {
            continue;
        };
        config.insert(k.clone(), pv);
    }
    config
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn full_space_has_all_table2_dimensions() {
        let space = table2_space(&AlgorithmKind::builtin());
        // algorithm + 2 + 2 + 2 + 5 + 2 + 2 = 16 named params.
        assert_eq!(space.len(), 16);
    }

    /// Snapshot of the six Table 2 algorithms' space against hard-coded
    /// literals — the algorithm table must keep producing exactly these
    /// dimensions. Two intentional deviations are baked into the
    /// expectations: `enet_l1_ratio` now samples the valid
    /// `[0.3, 1.0]` range (the declared `[0.3, 10]` was a Table 2 typo that
    /// collapsed ~97% of samples onto plain Lasso), and warm starts carry
    /// real grid sweet-spot values (see `warm_start_matches_grid_centers`).
    #[test]
    fn table2_space_snapshot() {
        let space = table2_space(&AlgorithmKind::builtin());
        let cat = |opts: &[&str]| ParamSpec::Categorical {
            options: opts.iter().map(|s| s.to_string()).collect(),
        };
        let expected: Vec<(&str, ParamSpec)> = vec![
            (
                "algorithm",
                cat(&[
                    "Lasso",
                    "LinearSVR",
                    "ElasticNetCV",
                    "XGBRegressor",
                    "HuberRegressor",
                    "QuantileRegressor",
                ]),
            ),
            (
                "lasso_alpha",
                ParamSpec::LogContinuous { lo: 1e-5, hi: 10.0 },
            ),
            ("lasso_selection", cat(&["cyclic", "random"])),
            ("svr_c", ParamSpec::Continuous { lo: 1.0, hi: 10.0 }),
            ("svr_epsilon", ParamSpec::Continuous { lo: 0.01, hi: 0.1 }),
            ("enet_l1_ratio", ParamSpec::Continuous { lo: 0.3, hi: 1.0 }),
            ("enet_selection", cat(&["cyclic", "random"])),
            ("xgb_n_estimators", ParamSpec::Integer { lo: 5, hi: 20 }),
            ("xgb_max_depth", ParamSpec::Integer { lo: 2, hi: 10 }),
            (
                "xgb_learning_rate",
                ParamSpec::Continuous { lo: 0.01, hi: 1.0 },
            ),
            (
                "xgb_reg_lambda",
                ParamSpec::Continuous { lo: 0.8, hi: 10.0 },
            ),
            ("xgb_subsample", ParamSpec::Continuous { lo: 0.1, hi: 1.0 }),
            ("huber_epsilon", cat(&["1.0", "1.35", "1.5"])),
            (
                "huber_alpha",
                ParamSpec::LogContinuous { lo: 1e-5, hi: 10.0 },
            ),
            (
                "quantile_alpha",
                ParamSpec::LogContinuous { lo: 1e-5, hi: 10.0 },
            ),
            ("quantile_q", ParamSpec::Continuous { lo: 0.1, hi: 1.0 }),
        ];
        let actual: Vec<(&str, ParamSpec)> = space
            .params()
            .iter()
            .map(|(n, s)| (n.as_str(), s.clone()))
            .collect();
        assert_eq!(actual, expected);
    }

    /// Warm starts seed the documented grid sweet spots (middle grid entry
    /// per algorithm), not bare algorithm names.
    #[test]
    fn warm_start_matches_grid_centers() {
        let ws = warm_start_configs(&AlgorithmKind::builtin());
        assert_eq!(ws.len(), 6);
        let get = |c: &Configuration, k: &str| c.get(k).cloned().unwrap();
        assert_eq!(get(&ws[0], "lasso_alpha"), ParamValue::Float(1e-2));
        assert_eq!(
            get(&ws[0], "lasso_selection"),
            ParamValue::Cat("cyclic".into())
        );
        assert_eq!(get(&ws[1], "svr_c"), ParamValue::Float(5.0));
        assert_eq!(get(&ws[1], "svr_epsilon"), ParamValue::Float(0.05));
        assert_eq!(get(&ws[2], "enet_l1_ratio"), ParamValue::Float(0.7));
        assert_eq!(get(&ws[3], "xgb_n_estimators"), ParamValue::Int(10));
        assert_eq!(get(&ws[3], "xgb_max_depth"), ParamValue::Int(4));
        assert_eq!(get(&ws[3], "xgb_learning_rate"), ParamValue::Float(0.3));
        assert_eq!(get(&ws[4], "huber_epsilon"), ParamValue::Cat("1.35".into()));
        assert_eq!(get(&ws[4], "huber_alpha"), ParamValue::Float(1e-2));
        assert_eq!(get(&ws[5], "quantile_q"), ParamValue::Float(0.5));
        assert_eq!(get(&ws[5], "quantile_alpha"), ParamValue::Float(1e-1));
        // Every warm config decodes into a bundle that round-trips.
        for c in &ws {
            let algo = algorithm_of(c).unwrap();
            let hp = to_hyperparams(c);
            assert_eq!(from_hyperparams(algo, &hp), *c);
        }
    }

    #[test]
    fn restricted_space_omits_unrecommended_params() {
        let space = table2_space(&[AlgorithmKind::LASSO]);
        assert_eq!(space.len(), 3); // algorithm, lasso_alpha, lasso_selection
    }

    #[test]
    fn sampled_configs_build_models() {
        let space = table2_space(&AlgorithmKind::builtin());
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            let c = space.sample(&mut rng);
            let algo = algorithm_of(&c).unwrap();
            let hp = to_hyperparams(&c);
            let model = ff_models::zoo::build_regressor(algo, &hp);
            drop(model);
            // Table 2 ranges respected after conversion.
            assert!((5..=20).contains(&hp.n_estimators));
            assert!((0.1..=1.0).contains(&hp.subsample));
        }
    }

    /// Regression test for the cross-namespace decode leak: dimensions of
    /// unselected algorithms must never reach `HyperParams`. Before the
    /// namespaced specs, an SVR config fell back to
    /// `lasso_alpha`/`lasso_selection`.
    #[test]
    fn unselected_dimensions_never_leak() {
        let space = table2_space(&AlgorithmKind::builtin());
        let defaults = HyperParams::default();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..60 {
            let c = space.sample(&mut rng);
            let algo = algorithm_of(&c).unwrap();
            let hp = to_hyperparams(&c);
            let prefix = algo.spec().prefix();
            // Corrupt every foreign dimension to an extreme value and
            // decode again: the result must be unchanged.
            let mut poisoned = c.clone();
            for (key, value) in poisoned.iter_mut() {
                if key != "algorithm" && !key.starts_with(prefix) {
                    *value = match value {
                        ParamValue::Float(_) => ParamValue::Float(9e9),
                        ParamValue::Int(_) => ParamValue::Int(999),
                        ParamValue::Cat(_) => ParamValue::Cat("random".into()),
                    };
                }
            }
            assert_eq!(to_hyperparams(&poisoned), hp, "{algo:?} leaked");
            // And fields owned by no dimension of the selected algorithm
            // stay at their defaults.
            if algo != AlgorithmKind::XGB_REGRESSOR {
                assert_eq!(hp.n_estimators, defaults.n_estimators);
                assert_eq!(hp.learning_rate, defaults.learning_rate);
            }
            if algo != AlgorithmKind::LINEAR_SVR {
                assert_eq!(hp.c, defaults.c);
            }
        }
    }

    #[test]
    fn huber_epsilon_categorical_parses() {
        let space = table2_space(&[AlgorithmKind::HUBER_REGRESSOR]);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let c = space.sample(&mut rng);
            let hp = to_hyperparams(&c);
            assert!(
                [1.0, 1.35, 1.5].contains(&hp.epsilon),
                "epsilon {}",
                hp.epsilon
            );
        }
    }

    #[test]
    fn wire_roundtrip_preserves_configuration() {
        let space = table2_space(&AlgorithmKind::builtin());
        let mut rng = StdRng::seed_from_u64(2);
        let c = space.sample(&mut rng);
        let map = config_to_map(&c);
        let back = map_to_config(&map);
        assert_eq!(c, back);
    }

    #[test]
    fn warm_start_covers_recommendations_in_order() {
        let recs = [AlgorithmKind::XGB_REGRESSOR, AlgorithmKind::LASSO];
        let ws = warm_start_configs(&recs);
        assert_eq!(ws.len(), 2);
        assert_eq!(algorithm_of(&ws[0]), Some(AlgorithmKind::XGB_REGRESSOR));
        assert_eq!(algorithm_of(&ws[1]), Some(AlgorithmKind::LASSO));
    }

    #[test]
    fn pipeline_space_has_structure_and_branch_dimensions() {
        let space = pipeline_space(
            &[AlgorithmKind::LASSO, AlgorithmKind::XGB_REGRESSOR],
            &PipelineId::builtin(),
        );
        // pipeline + algorithm + 7 node params (one each) + 2 + 5 algo
        // params = 16 named dimensions.
        assert_eq!(space.len(), 16);
        // The lag window is active in every builtin structure; trend degree
        // only in the polyfit structures.
        let names: Vec<&str> = space.params().iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"node_lag_window"));
        assert!(names.contains(&"node_poly_degree"));
        let cond = space.condition("node_poly_degree").unwrap();
        assert_eq!(cond.key(), PIPELINE_KEY);
        assert_eq!(cond.options(), ["trend_lagged", "trend_smooth_lagged"]);
        // Algorithm params are guarded by the algorithm selection.
        let cond = space.condition("lasso_alpha").unwrap();
        assert_eq!(cond.key(), "algorithm");
    }

    #[test]
    fn pipeline_warm_starts_cover_both_axes() {
        let algos = [AlgorithmKind::LASSO, AlgorithmKind::XGB_REGRESSOR];
        let pipes = PipelineId::builtin();
        let ws = warm_start_pipeline_configs(&algos, &pipes);
        assert_eq!(ws.len(), pipes.len() + algos.len() - 1);
        for (i, &p) in pipes.iter().enumerate() {
            assert_eq!(pipeline_of(&ws[i]), Some(p));
            assert_eq!(algorithm_of(&ws[i]), Some(AlgorithmKind::LASSO));
        }
        let last = &ws[pipes.len()];
        assert_eq!(pipeline_of(last), Some(PipelineId::LAGGED));
        assert_eq!(algorithm_of(last), Some(AlgorithmKind::XGB_REGRESSOR));
        // Warm node params decode back out of the bundle.
        let hp = to_pipeline_hyperparams(&ws[4]); // trend_lagged
        assert_eq!(hp.extras.get("node_poly_degree"), Some(&2.0));
        assert_eq!(hp.extras.get("node_lag_window"), Some(&8.0));
    }

    /// The pipeline extension of `unselected_dimensions_never_leak`:
    /// poisoning dimensions of unselected structures (and unselected
    /// algorithms) must not change the decoded bundle.
    #[test]
    fn unselected_branch_params_never_leak_into_pipelines() {
        let space = pipeline_space(&AlgorithmKind::builtin(), &PipelineId::builtin());
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..60 {
            let c = space.sample(&mut rng);
            let pipe = pipeline_of(&c).unwrap();
            let algo = algorithm_of(&c).unwrap();
            let hp = to_pipeline_hyperparams(&c);
            let own_nodes: Vec<&str> = pipe.spec().nodes().iter().map(|n| n.name()).collect();
            let mut poisoned = c.clone();
            for (key, value) in poisoned.iter_mut() {
                let keep = key == "algorithm"
                    || key == PIPELINE_KEY
                    || key.starts_with(algo.spec().prefix())
                    || pipe
                        .spec()
                        .nodes()
                        .iter()
                        .any(|n| key.starts_with(n.spec().prefix()));
                if !keep {
                    *value = match value {
                        ParamValue::Float(_) => ParamValue::Float(9e9),
                        ParamValue::Int(_) => ParamValue::Int(999),
                        ParamValue::Cat(_) => ParamValue::Cat("random".into()),
                    };
                }
            }
            assert_eq!(
                to_pipeline_hyperparams(&poisoned),
                hp,
                "{pipe:?}/{algo:?} leaked (own nodes {own_nodes:?})"
            );
            // Node params of structures outside the selection stay absent.
            for node in NodeId::builtin() {
                if !pipe.spec().nodes().contains(&node) {
                    for pd in node.spec().params() {
                        assert!(
                            !hp.extras.contains_key(pd.key()),
                            "{pipe:?} absorbed foreign node key {}",
                            pd.key()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sampled_pipeline_configs_fit_end_to_end() {
        let space = pipeline_space(
            &[AlgorithmKind::LASSO, AlgorithmKind::XGB_REGRESSOR],
            &PipelineId::builtin(),
        );
        let values: Vec<f64> = (0..160)
            .map(|t| 4.0 + 0.05 * t as f64 + (std::f64::consts::TAU * t as f64 / 9.0).sin())
            .collect();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..12 {
            let c = space.sample(&mut rng);
            let pipe = pipeline_of(&c).unwrap();
            let algo = algorithm_of(&c).unwrap();
            let hp = to_pipeline_hyperparams(&c);
            let m = ff_models::pipeline::PipelineModel::fit(pipe, algo, &hp, &values, 130)
                .unwrap_or_else(|e| panic!("{pipe:?}/{algo:?}: {e}"));
            let pred = m.predict_range(&values, 130, 160).unwrap();
            assert!(pred.iter().all(|v| v.is_finite()), "{pipe:?}/{algo:?}");
        }
    }

    #[test]
    fn pipeline_wire_roundtrip_preserves_configuration() {
        let space = pipeline_space(&AlgorithmKind::builtin(), &PipelineId::builtin());
        let mut rng = StdRng::seed_from_u64(6);
        let c = space.sample(&mut rng);
        assert_eq!(map_to_config(&config_to_map(&c)), c);
    }
}
