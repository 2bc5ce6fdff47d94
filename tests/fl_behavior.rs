//! Integration tests of federated-runtime behaviors through the full
//! FedForecaster client: sampling, fault tolerance, communication
//! accounting, and tree-aggregation modes.

use fedforecaster::client::{FedForecasterClient, OP};
use fedforecaster::config::TreeAggregation;
use fedforecaster::engine::{build_runtime, finalize, run_feature_engineering, RoundCtx};
use fedforecaster::feature_engineering::GlobalFeatureSpec;
use fedforecaster::prelude::*;
use ff_bayesopt::space::{Configuration, ParamValue};
use ff_fl::client::FlClient;
use ff_fl::config::{ConfigMap, ConfigMapExt};
use ff_fl::message::Instruction;
use ff_fl::runtime::FederatedRuntime;
use ff_timeseries::synthesis::{generate, SeasonSpec, SynthesisSpec};
use ff_timeseries::TimeSeries;

fn federation(n_clients: usize) -> Vec<TimeSeries> {
    generate(
        &SynthesisSpec {
            n: 900,
            seasons: vec![SeasonSpec {
                period: 12.0,
                amplitude: 3.0,
            }],
            snr: Some(15.0),
            ..Default::default()
        },
        31,
    )
    .split_clients(n_clients)
}

fn prepared_runtime(n_clients: usize) -> FederatedRuntime {
    let cfg = EngineConfig::default();
    let rt = build_runtime(&federation(n_clients), &cfg).unwrap();
    let spec = GlobalFeatureSpec::lags_only(4);
    run_feature_engineering(&mut RoundCtx::strict(&rt), &spec, 0.95).unwrap();
    rt
}

fn xgb_config() -> Configuration {
    let mut c = Configuration::new();
    c.insert("algorithm".into(), ParamValue::Cat("XGBRegressor".into()));
    c
}

/// Blocks until every client replies; fails unless all of them do.
fn strict(n_clients: usize) -> RoundPolicy {
    RoundPolicy {
        deadline: None,
        min_responses: n_clients,
        ..RoundPolicy::default()
    }
}

#[test]
fn sampled_rounds_reach_a_strict_subset() {
    let rt = prepared_runtime(6).with_cohort(0.5, 9).unwrap();
    let outcome = rt
        .run_round(
            &Instruction::GetProperties(ConfigMap::new().with_str(OP, "meta_features")),
            &strict(3),
        )
        .unwrap();
    assert_eq!(outcome.replies.len(), 3);
    let ids: Vec<usize> = outcome.replies.iter().map(|(i, _)| *i).collect();
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted ids {ids:?}");
}

#[test]
fn tolerant_broadcast_survives_unknown_ops() {
    // FedForecaster clients answer unknown fit ops with an error metric but
    // a valid reply; round tolerance is about transport-level failures,
    // which a malformed op does NOT produce — so all replies count as
    // healthy here and the floor is satisfied.
    let rt = prepared_runtime(3);
    let outcome = rt
        .run_round(
            &Instruction::Fit {
                params: vec![],
                config: ConfigMap::new()
                    .with_str(OP, "fit_eval")
                    .with_str("algorithm", "Lasso"),
            },
            &strict(3),
        )
        .unwrap();
    assert_eq!(outcome.replies.len(), 3);
}

#[test]
fn ensemble_and_per_client_aggregation_both_work_and_differ_in_kind() {
    let rt = prepared_runtime(4);
    let config = xgb_config();
    let finalize_as = |mode| {
        let outcome = finalize(&mut RoundCtx::strict(&rt), &config, mode).unwrap();
        (outcome.global_model, outcome.test_mse)
    };
    let (union_model, union_mse) = finalize_as(TreeAggregation::EnsembleUnion);
    assert!(matches!(
        union_model,
        fedforecaster::aggregate::GlobalModel::Ensemble { members: 4, .. }
    ));
    assert!(union_mse.is_finite());
    let (local_model, local_mse) = finalize_as(TreeAggregation::PerClient);
    assert!(matches!(
        local_model,
        fedforecaster::aggregate::GlobalModel::PerClient { .. }
    ));
    assert!(local_mse.is_finite());
    // On an IID federation (time splits of one homogeneous series) the
    // union should not be catastrophically worse than local deployment.
    assert!(
        union_mse < local_mse * 5.0,
        "union {union_mse} vs local {local_mse}"
    );
}

#[test]
fn communication_grows_linearly_with_rounds() {
    let clients = federation(3);
    let cfg = EngineConfig::default();
    let rt = build_runtime(&clients, &cfg).unwrap();
    let spec = GlobalFeatureSpec::lags_only(3);
    run_feature_engineering(&mut RoundCtx::strict(&rt), &spec, 0.95).unwrap();
    let (_, before_up) = rt.log().byte_totals();
    let fit_ins = Instruction::Fit {
        params: vec![],
        config: ConfigMap::new()
            .with_str(OP, "fit_eval")
            .with_str("algorithm", "Lasso"),
    };
    rt.run_round(&fit_ins, &strict(3)).unwrap();
    let (_, after_one) = rt.log().byte_totals();
    for _ in 0..3 {
        rt.run_round(&fit_ins, &strict(3)).unwrap();
    }
    let (_, after_four) = rt.log().byte_totals();
    let per_round = after_one - before_up;
    let growth = after_four - after_one;
    assert!(per_round > 0);
    // Three more identical rounds ⇒ ~3× the per-round upstream bytes.
    assert!(
        (growth as f64 - 3.0 * per_round as f64).abs() < 0.2 * per_round as f64,
        "per-round {per_round}, growth over 3 rounds {growth}"
    );
}

#[test]
fn standalone_client_direct_use() {
    // The client type is usable without the runtime (library flexibility).
    let series = federation(1).pop().unwrap();
    let mut client = FedForecasterClient::new(&series, 0.15, 0.15);
    let props = client.get_properties(&ConfigMap::new().with_str(OP, "meta_features"));
    assert!(props.contains_key("meta_features"));
    let spec = GlobalFeatureSpec::lags_only(3);
    let out = client.fit(
        &[],
        &spec.to_config_map().with_str(OP, "feature_engineering"),
    );
    assert!(!out.metrics.contains_key("error"));
}
