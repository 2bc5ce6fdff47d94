//! Property-based tests for the engine's pure components: feature
//! engineering, selection, the search space, and the report machinery.

use fedforecaster::feature_engineering::{
    causal_trend, engineer, select_features, GlobalFeatureSpec,
};
use fedforecaster::report::fmt_loss;
use fedforecaster::search_space::{
    algorithm_of, config_to_map, from_hyperparams, map_to_config, pipeline_of, pipeline_space,
    table2_space, to_hyperparams, to_pipeline_hyperparams,
};
use ff_bayesopt::space::ParamValue;
use ff_models::pipeline::{NodeId, PipelineId};
use ff_models::spec::SpecValue;
use ff_models::zoo::AlgorithmKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #[test]
    fn causal_trend_is_strictly_causal(values in prop::collection::vec(-100.0f64..100.0, 10..60)) {
        let tr = causal_trend(&values);
        prop_assert_eq!(tr.len(), values.len());
        // Changing the tail must not change earlier trend values.
        let mut perturbed = values.clone();
        let last = perturbed.len() - 1;
        perturbed[last] += 1000.0;
        let tr2 = causal_trend(&perturbed);
        for (a, b) in tr.iter().zip(&tr2) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn causal_trend_stays_in_value_hull(values in prop::collection::vec(-50.0f64..50.0, 5..40)) {
        let tr = causal_trend(&values);
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for &t in &tr {
            prop_assert!(t >= lo - 1e-9 && t <= hi + 1e-9);
        }
    }

    #[test]
    fn engineered_rows_partition_and_lags_are_history(
        seed in 0u64..200,
        n in 60usize..200,
    ) {
        let mut state = seed;
        let values: Vec<f64> = (0..n).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 30) as f64) * 10.0
        }).collect();
        let timestamps: Vec<i64> = (0..n as i64).map(|t| t * 3600).collect();
        let train_end = n * 7 / 10;
        let valid_end = n * 85 / 100;
        let spec = GlobalFeatureSpec {
            lags: vec![1, 2, 4],
            seasonal_periods: vec![7.0],
            use_trend: true,
            use_time: true,
        };
        let e = engineer(&values, &timestamps, train_end, valid_end, &spec).unwrap();
        // Partition: rows cover every index from max_lag to n.
        let total = e.y_train.len() + e.y_valid.len() + e.y_test.len();
        prop_assert_eq!(total, n - 4);
        // lag_1 of every train row equals the previous value.
        for (i, &y) in e.y_train.iter().enumerate() {
            let t = 4 + i; // row index in the original series
            prop_assert_eq!(y, values[t]);
            prop_assert_eq!(e.x_train.get(i, 0), values[t - 1]);
            prop_assert_eq!(e.x_train.get(i, 2), values[t - 4]);
        }
    }

    #[test]
    fn selection_is_sorted_unique_and_nonempty(
        imps in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 8), 1..5),
        threshold in 0.05f64..1.0,
    ) {
        let weights = vec![1.0; imps.len()];
        let kept = select_features(&imps, &weights, threshold);
        prop_assert!(!kept.is_empty());
        prop_assert!(kept.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(kept.iter().all(|&j| j < 8));
        // Monotone: a higher threshold keeps at least as many features.
        let kept_more = select_features(&imps, &weights, (threshold + 0.3).min(1.0));
        prop_assert!(kept_more.len() >= kept.len());
    }

    #[test]
    fn search_space_samples_always_instantiate(seed in 0u64..300) {
        let space = table2_space(&AlgorithmKind::builtin());
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = space.sample(&mut rng);
        let algo = algorithm_of(&cfg).unwrap();
        let hp = to_hyperparams(&cfg);
        // Every sampled configuration builds a model without panicking.
        let _ = ff_models::zoo::build_regressor(algo, &hp);
        // Wire roundtrip is lossless.
        let back = map_to_config(&config_to_map(&cfg));
        prop_assert_eq!(back, cfg);
    }

    #[test]
    fn sample_decode_encode_decode_is_stable(seed in 0u64..500) {
        // For every algorithm: sample → decode → encode → decode is a
        // fixed point (each spec's encode/decode are inverse on
        // canonicalized values).
        let space = table2_space(&AlgorithmKind::builtin());
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = space.sample(&mut rng);
        let algo = algorithm_of(&cfg).unwrap();
        let hp = to_hyperparams(&cfg);
        let encoded = from_hyperparams(algo, &hp);
        let hp2 = to_hyperparams(&encoded);
        prop_assert_eq!(&hp2, &hp);
        prop_assert_eq!(from_hyperparams(algo, &hp2), encoded);
    }

    #[test]
    fn unselected_algorithm_dimensions_never_leak(seed in 0u64..300, poison in -1e9f64..1e9) {
        // Poisoning every foreign-namespace dimension must not change the
        // decoded bundle of the selected algorithm.
        let space = table2_space(&AlgorithmKind::builtin());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cfg = space.sample(&mut rng);
        let algo = algorithm_of(&cfg).unwrap();
        let clean = to_hyperparams(&cfg);
        for other in AlgorithmKind::builtin() {
            if other == algo {
                continue;
            }
            for pd in other.spec().params() {
                cfg.insert(pd.key().to_string(), ParamValue::Float(poison));
            }
        }
        prop_assert_eq!(to_hyperparams(&cfg), clean);
    }

    #[test]
    fn pipeline_sample_encode_decode_encode_is_stable(seed in 0u64..500) {
        // Joint-space roundtrip across node namespaces: sample → decode →
        // encode → decode → encode is a fixed point for both the selected
        // structure's node params and the selected algorithm's params.
        let space = pipeline_space(&AlgorithmKind::builtin(), &PipelineId::builtin());
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = space.sample(&mut rng);
        let pipe = pipeline_of(&cfg).unwrap();
        let algo = algorithm_of(&cfg).unwrap();
        let hp = to_pipeline_hyperparams(&cfg);
        // Re-encode into a fresh configuration holding only the selected
        // branches, then decode again.
        let mut cfg2 = from_hyperparams(algo, &hp);
        cfg2.insert(
            fedforecaster::search_space::PIPELINE_KEY.to_string(),
            ParamValue::Cat(pipe.name().to_string()),
        );
        let encoded = pipe.spec().encode(&hp);
        for (key, value) in &encoded {
            let pv = match value {
                SpecValue::Float(v) => ParamValue::Float(*v),
                SpecValue::Int(v) => ParamValue::Int(*v),
                SpecValue::Cat(s) => ParamValue::Cat(s.clone()),
            };
            cfg2.insert(key.clone(), pv);
        }
        let hp2 = to_pipeline_hyperparams(&cfg2);
        prop_assert_eq!(&hp2, &hp);
        prop_assert_eq!(pipe.spec().encode(&hp2), encoded);
    }

    #[test]
    fn unselected_pipeline_branch_params_never_leak(seed in 0u64..300, poison in -1e9f64..1e9) {
        // Poisoning the node dimensions of every structure the sample did
        // NOT select (and every foreign algorithm namespace) must not
        // change the decoded bundle — the conditional space's inert
        // dimensions are truly inert.
        let space = pipeline_space(&AlgorithmKind::builtin(), &PipelineId::builtin());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cfg = space.sample(&mut rng);
        let pipe = pipeline_of(&cfg).unwrap();
        let algo = algorithm_of(&cfg).unwrap();
        let clean = to_pipeline_hyperparams(&cfg);
        for node in NodeId::builtin() {
            if pipe.spec().nodes().contains(&node) {
                continue;
            }
            for pd in node.spec().params() {
                cfg.insert(pd.key().to_string(), ParamValue::Float(poison));
            }
        }
        for other in AlgorithmKind::builtin() {
            if other == algo {
                continue;
            }
            for pd in other.spec().params() {
                cfg.insert(pd.key().to_string(), ParamValue::Float(poison));
            }
        }
        prop_assert_eq!(to_pipeline_hyperparams(&cfg), clean);
        // Foreign node keys never reach the extras map at all.
        let decoded = to_pipeline_hyperparams(&cfg);
        for node in NodeId::builtin() {
            if !pipe.spec().nodes().contains(&node) {
                for pd in node.spec().params() {
                    prop_assert!(!decoded.extras.contains_key(pd.key()));
                }
            }
        }
    }

    #[test]
    fn fmt_loss_parses_back_close(v in 1e-6f64..1e6) {
        let s = fmt_loss(v);
        let parsed: f64 = s.parse().unwrap();
        prop_assert!((parsed - v).abs() <= 0.002 * v.abs() + 1e-12, "{v} → {s}");
    }
}
