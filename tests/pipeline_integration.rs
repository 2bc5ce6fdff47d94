//! Cross-crate integration tests: the full Algorithm 1 pipeline driven
//! through the public API, including the privacy invariant over every
//! reply that crosses the wire.

use fedforecaster::client::FedForecasterClient;
use fedforecaster::engine::FedForecaster;
use fedforecaster::prelude::*;
use ff_fl::client::{EvalOutput, FitOutput, FlClient};
use ff_fl::config::ConfigMap;
use ff_fl::runtime::FederatedRuntime;
use ff_metalearn::kb::KnowledgeBase;
use ff_metalearn::metamodel::{MetaClassifierKind, MetaModel};
use ff_metalearn::synth::synthetic_kb;
use ff_timeseries::synthesis::{generate, SeasonSpec, SynthesisSpec, TrendSpec};
use ff_timeseries::TimeSeries;
use std::sync::{Arc, Mutex};

fn metamodel() -> MetaModel {
    let kb = KnowledgeBase::build(&synthetic_kb(12), &[3], 50);
    MetaModel::train(&kb, MetaClassifierKind::RandomForest, 0).expect("meta-model")
}

fn seasonal_federation(n_clients: usize, seed: u64) -> Vec<TimeSeries> {
    generate(
        &SynthesisSpec {
            n: 1000,
            trend: TrendSpec::Linear(0.005),
            seasons: vec![SeasonSpec {
                period: 12.0,
                amplitude: 3.0,
            }],
            snr: Some(20.0),
            missing_fraction: 0.01,
            ..Default::default()
        },
        seed,
    )
    .split_clients(n_clients)
}

#[test]
fn end_to_end_engine_run() {
    let meta = metamodel();
    let cfg = EngineConfig {
        budget: Budget::Iterations(8),
        ..Default::default()
    };
    let clients = seasonal_federation(4, 1);
    let result = FedForecaster::new(cfg, &meta).run(&clients).unwrap();
    assert!(result.test_mse.is_finite());
    assert!(result.best_valid_loss.is_finite());
    assert_eq!(result.recommended.len(), 3);
    assert_eq!(result.evaluations, 8);
}

/// A client that forwards every call to the engine's client and keeps a
/// copy of each reply exactly as it crosses the wire, after the inner
/// client's own `wire_transform`.
struct WireTap {
    inner: FedForecasterClient,
    replies: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl FlClient for WireTap {
    fn get_properties(&mut self, config: &ConfigMap) -> ConfigMap {
        self.inner.get_properties(config)
    }

    fn fit(&mut self, params: &[f64], config: &ConfigMap) -> FitOutput {
        self.inner.fit(params, config)
    }

    fn evaluate(&mut self, params: &[f64], config: &ConfigMap) -> EvalOutput {
        self.inner.evaluate(params, config)
    }

    fn wire_transform(&mut self, encoded_reply: Vec<u8>) -> Option<Vec<u8>> {
        let sent = self.inner.wire_transform(encoded_reply);
        if let Some(bytes) = &sent {
            self.replies.lock().unwrap().push(bytes.clone());
        }
        sent
    }
}

#[test]
fn privacy_no_raw_samples_cross_the_wire() {
    // The invariant behind the paper's privacy claim: no run of raw
    // consecutive client samples appears in any client→server payload.
    let meta = metamodel();
    let cfg = EngineConfig {
        budget: Budget::Iterations(4),
        ..Default::default()
    };
    let clients = seasonal_federation(3, 2);
    let replies = Arc::new(Mutex::new(Vec::new()));
    let tapped: Vec<Box<dyn FlClient>> = clients
        .iter()
        .map(|s| {
            Box::new(WireTap {
                inner: FedForecasterClient::new(s, cfg.valid_fraction, cfg.test_fraction),
                replies: Arc::clone(&replies),
            }) as Box<dyn FlClient>
        })
        .collect();
    let rt = FederatedRuntime::new(tapped);
    let result = FedForecaster::new(cfg, &meta).run_on(&rt).unwrap();
    assert!(result.test_mse.is_finite());

    let replies = replies.lock().unwrap();
    assert!(!replies.is_empty());
    // The tap saw every byte the server received.
    let tapped_bytes: usize = replies.iter().map(Vec::len).sum();
    assert_eq!(tapped_bytes, rt.log().byte_totals().1);
    for c in &clients {
        let values = c.values();
        // Check several raw fragments from each client's private split.
        for start in [0usize, values.len() / 2, values.len() - 8] {
            let fragment = &values[start..start + 6];
            if fragment.iter().any(|v| v.is_nan()) {
                continue;
            }
            let pattern: Vec<u8> = fragment.iter().flat_map(|v| v.to_le_bytes()).collect();
            assert!(
                !replies
                    .iter()
                    .any(|r| r.windows(pattern.len()).any(|w| w == pattern.as_slice())),
                "raw sample run leaked to the server"
            );
        }
    }
}

#[test]
fn engine_vs_baselines_on_strongly_seasonal_data() {
    // On cleanly seasonal data with a decent budget the engine should beat
    // federated N-BEATS trained under the same budget (the paper's central
    // claim at small per-client splits).
    let meta = metamodel();
    let clients = seasonal_federation(5, 3);
    let budget = Budget::Iterations(10);
    let cfg = EngineConfig {
        budget,
        ..Default::default()
    };
    let ff = FedForecaster::new(cfg, &meta).run(&clients).unwrap();
    let nb = run_federated_nbeats(&clients, budget, 30, false, 3).unwrap();
    assert!(
        ff.test_mse < nb.test_mse,
        "FedForecaster {} should beat N-Beats {} here",
        ff.test_mse,
        nb.test_mse
    );
}

#[test]
fn heterogeneous_federation_still_works() {
    // Clients with different regimes (trend vs seasonal vs noise).
    let meta = metamodel();
    let clients = vec![
        generate(
            &SynthesisSpec {
                n: 400,
                trend: TrendSpec::Linear(0.02),
                snr: Some(10.0),
                ..Default::default()
            },
            10,
        ),
        generate(
            &SynthesisSpec {
                n: 300,
                seasons: vec![SeasonSpec {
                    period: 7.0,
                    amplitude: 4.0,
                }],
                snr: Some(10.0),
                ..Default::default()
            },
            11,
        ),
        generate(
            &SynthesisSpec {
                n: 500,
                trend: TrendSpec::RandomWalk(0.3),
                snr: None,
                ..Default::default()
            },
            12,
        ),
    ];
    let cfg = EngineConfig {
        budget: Budget::Iterations(5),
        ..Default::default()
    };
    let result = FedForecaster::new(cfg, &meta).run(&clients).unwrap();
    assert!(result.test_mse.is_finite());
}

#[test]
fn missing_values_are_handled_end_to_end() {
    let meta = metamodel();
    let clients = generate(
        &SynthesisSpec {
            n: 900,
            seasons: vec![SeasonSpec {
                period: 12.0,
                amplitude: 2.0,
            }],
            missing_fraction: 0.10,
            snr: Some(10.0),
            ..Default::default()
        },
        13,
    )
    .split_clients(3);
    let cfg = EngineConfig {
        budget: Budget::Iterations(4),
        ..Default::default()
    };
    let result = FedForecaster::new(cfg, &meta).run(&clients).unwrap();
    assert!(result.test_mse.is_finite());
}

#[test]
fn random_search_and_engine_share_evaluation_protocol() {
    // Same data, same split fractions: both methods' losses are measured on
    // identical test points, so they are directly comparable.
    let meta = metamodel();
    let clients = seasonal_federation(3, 14);
    let cfg = EngineConfig {
        budget: Budget::Iterations(6),
        ..Default::default()
    };
    let ff = FedForecaster::new(cfg.clone(), &meta)
        .run(&clients)
        .unwrap();
    let rs = RandomSearch::new(cfg).run(&clients).unwrap();
    assert!(ff.test_mse.is_finite() && rs.test_mse.is_finite());
    // Both within two orders of magnitude — they optimize the same space.
    let ratio = ff.test_mse / rs.test_mse;
    assert!((0.01..100.0).contains(&ratio), "ratio {ratio}");
}

#[test]
fn time_budget_is_respected() {
    let meta = metamodel();
    let clients = seasonal_federation(3, 15);
    let cfg = EngineConfig {
        budget: Budget::Time(std::time::Duration::from_millis(1500)),
        ..Default::default()
    };
    let start = std::time::Instant::now();
    let result = FedForecaster::new(cfg, &meta).run(&clients).unwrap();
    // Generous overhead allowance: the budget bounds the *optimization*
    // loop; meta-features and finalization add a bounded tail.
    assert!(start.elapsed().as_secs() < 30);
    assert!(result.evaluations >= 1);
}

#[test]
fn exogenous_covariates_improve_covariate_driven_targets() {
    use fedforecaster::client::FedForecasterClient;
    use fedforecaster::engine::build_runtime_from;
    use fedforecaster::feature_engineering::ExogenousData;
    use ff_linalg::Matrix;

    // Target driven mostly by a covariate known at prediction time plus a
    // small autoregressive remainder — lags alone cannot explain it.
    let meta = metamodel();
    let n = 600;
    let mut clients_plain = Vec::new();
    let mut clients_exog = Vec::new();
    for c in 0..3u64 {
        let mut state = 77 + c;
        let mut rnd = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 30) as f64) - 1.0
        };
        let driver: Vec<f64> = (0..n).map(|_| rnd() * 5.0).collect();
        let mut y = vec![0.0f64];
        for t in 1..n {
            let prev: f64 = y[t - 1];
            y.push(0.3 * prev + 2.0 * driver[t] + 0.1 * rnd());
        }
        let series = TimeSeries::with_regular_index(0, 3600, y);
        let exog = ExogenousData::new(
            vec!["driver".into()],
            Matrix::from_fn(n, 1, |i, _| driver[i]),
        );
        clients_plain.push(FedForecasterClient::new(&series, 0.15, 0.15));
        clients_exog.push(FedForecasterClient::new(&series, 0.15, 0.15).with_exogenous(exog));
    }
    let cfg = EngineConfig {
        budget: Budget::Iterations(5),
        ..Default::default()
    };
    let engine = FedForecaster::new(cfg, &meta);
    let plain = engine.run_on(&build_runtime_from(clients_plain)).unwrap();
    let exog = engine.run_on(&build_runtime_from(clients_exog)).unwrap();
    assert!(
        exog.test_mse < plain.test_mse * 0.5,
        "covariate should cut the error: exog {} vs plain {}",
        exog.test_mse,
        plain.test_mse
    );
}
