//! End-to-end chaos acceptance test: Algorithm 1 must complete on a
//! federation where half the clients misbehave — panicking, hanging past
//! the deadline, corrupting their replies — with the faulty clients
//! quarantined, the dropouts reported per round, and neither the rounds
//! nor runtime teardown blocking on the hung client.

use std::time::{Duration, Instant};

use fedforecaster::client::{FedForecasterClient, OP};
use fedforecaster::prelude::*;
use ff_fl::chaos::ChaosClient;
use ff_fl::client::{EvalOutput, FitOutput, FlClient};
use ff_fl::config::{ConfigMap, ConfigMapExt};
use ff_fl::health::ClientState;
use ff_fl::runtime::FederatedRuntime;
use ff_metalearn::kb::KnowledgeBase;
use ff_metalearn::metamodel::{MetaClassifierKind, MetaModel};
use ff_metalearn::synth::synthetic_kb;
use ff_timeseries::synthesis::{generate, SeasonSpec, SynthesisSpec, TrendSpec};
use ff_timeseries::TimeSeries;

/// Chaos seed for this run: `CHAOS_SEED` env override (the CI matrix runs
/// several), or the test's default. The suite's assertions are
/// seed-independent — probabilities here are 0 or 1 — so every seed must
/// reach the same verdicts.
fn chaos_seed(default: u64) -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn tiny_metamodel() -> MetaModel {
    let kb = KnowledgeBase::build(&synthetic_kb(8), &[2], 50);
    MetaModel::train(&kb, MetaClassifierKind::RandomForest, 0).unwrap()
}

fn federation(n_clients: usize) -> Vec<TimeSeries> {
    generate(
        &SynthesisSpec {
            n: 200 * n_clients,
            trend: TrendSpec::Linear(0.01),
            seasons: vec![SeasonSpec {
                period: 12.0,
                amplitude: 2.0,
            }],
            snr: Some(20.0),
            ..Default::default()
        },
        9,
    )
    .split_clients(n_clients)
}

fn good_client(series: &TimeSeries) -> Box<dyn FlClient> {
    Box::new(FedForecasterClient::new(series, 0.15, 0.15))
}

fn chaos_policy() -> RoundPolicy {
    RoundPolicy {
        deadline: Some(Duration::from_millis(1500)),
        min_responses: 2,
        retries: 0,
        backoff: Duration::ZERO,
    }
}

/// The ISSUE acceptance scenario: 8 clients — two panic on every call, one
/// hangs far past the deadline, one corrupts every reply — and a
/// multi-round engine run still completes on the 4 healthy survivors.
#[test]
fn engine_completes_on_half_faulty_federation() {
    let series = federation(8);
    let clients: Vec<Box<dyn FlClient>> = series
        .iter()
        .enumerate()
        .map(|(id, s)| match id {
            1 | 4 => Box::new(ChaosClient::panicking(good_client(s))) as Box<dyn FlClient>,
            5 => Box::new(ChaosClient::hanging(good_client(s), Duration::from_secs(8))),
            6 => Box::new(ChaosClient::corrupting(good_client(s), chaos_seed(7))),
            _ => good_client(s),
        })
        .collect();
    let mut rt = FederatedRuntime::new(clients);
    rt.set_shutdown_timeout(Duration::from_millis(250));

    let cfg = EngineConfig {
        budget: Budget::Iterations(3),
        round_policy: chaos_policy(),
        ..Default::default()
    };
    let meta = tiny_metamodel();
    let result = FedForecaster::new(cfg, &meta).run_on(&rt).unwrap();

    assert!(result.test_mse.is_finite(), "mse {}", result.test_mse);
    assert!(result.best_valid_loss.is_finite());
    assert!(!result.rounds.is_empty());

    // Every faulty client is quarantined; every healthy one stays healthy.
    for id in [1usize, 4, 5, 6] {
        assert_eq!(
            rt.client_state(id),
            Some(ClientState::Quarantined),
            "client {id} should be quarantined"
        );
    }
    for id in [0usize, 2, 3, 7] {
        assert_eq!(
            rt.client_state(id),
            Some(ClientState::Healthy),
            "client {id} should be healthy"
        );
    }
    let report = &result.health;
    assert_eq!(report.count(ClientState::Quarantined), 4);
    assert_eq!(report.count(ClientState::Healthy), 4);

    // Dropouts are recorded per round, and only the faulty clients appear.
    let dropped: Vec<usize> = result
        .rounds
        .iter()
        .flat_map(|r| r.dropouts.iter().map(|(id, _)| *id))
        .collect();
    assert!(!dropped.is_empty(), "no dropouts recorded");
    assert!(
        dropped.iter().all(|id| [1, 4, 5, 6].contains(id)),
        "{dropped:?}"
    );
    // The first round sees all three failure modes at once.
    let first = &result.rounds[0];
    assert_eq!(first.participants, 8);
    assert_eq!(first.usable, 4);
    assert_eq!(first.dropouts.len(), 4);
    let log = render_rounds(&result.rounds);
    assert!(log.contains("panicked"), "{log}");

    // No trial was lost: 4 healthy responders always beat min_responses=2.
    assert_eq!(result.failed_trials, 0);
    assert_eq!(result.evaluations, 3);
    assert_eq!(result.loss_history.len(), 3);

    // Teardown must detach the hung client, not wait out its 8 s naps.
    let started = Instant::now();
    drop(rt);
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "drop blocked for {:?}",
        started.elapsed()
    );
}

/// Wraps a well-behaved client but reports a NaN validation loss for every
/// tuning-loop fit, like a client whose local solver diverged.
struct PoisonLoss {
    inner: FedForecasterClient,
}

impl FlClient for PoisonLoss {
    fn get_properties(&mut self, config: &ConfigMap) -> ConfigMap {
        self.inner.get_properties(config)
    }
    fn fit(&mut self, params: &[f64], config: &ConfigMap) -> FitOutput {
        let mut out = self.inner.fit(params, config);
        if config.str_or(OP, "") == "fit_eval" {
            out.metrics = out.metrics.with_float("valid_loss", f64::NAN);
        }
        out
    }
    fn evaluate(&mut self, params: &[f64], config: &ConfigMap) -> EvalOutput {
        self.inner.evaluate(params, config)
    }
}

/// A non-finite client loss is a round dropout, not a trial abort: the
/// aggregated loss comes from the finite survivors and the poisoned client
/// is listed in the round report — but it is NOT a transport failure, so
/// the client stays healthy.
#[test]
fn non_finite_loss_is_excluded_not_fatal() {
    let series = federation(3);
    let clients: Vec<Box<dyn FlClient>> = series
        .iter()
        .enumerate()
        .map(|(id, s)| {
            if id == 1 {
                Box::new(PoisonLoss {
                    inner: FedForecasterClient::new(s, 0.15, 0.15),
                }) as Box<dyn FlClient>
            } else {
                good_client(s)
            }
        })
        .collect();
    let rt = FederatedRuntime::new(clients);
    let cfg = EngineConfig {
        budget: Budget::Iterations(3),
        round_policy: RoundPolicy {
            min_responses: 1,
            ..RoundPolicy::default()
        },
        ..Default::default()
    };
    let meta = tiny_metamodel();
    let result = FedForecaster::new(cfg, &meta).run_on(&rt).unwrap();

    assert!(result.test_mse.is_finite());
    assert_eq!(result.failed_trials, 0);
    assert_eq!(result.loss_history.len(), 3);
    assert!(result.loss_history.iter().all(|l| l.is_finite()));

    // Every optimization round flagged client 1's loss as non-finite and
    // aggregated over the other two.
    let opt_rounds: Vec<_> = result
        .rounds
        .iter()
        .filter(|r| r.phase == "optimization")
        .collect();
    assert_eq!(opt_rounds.len(), 3);
    for r in &opt_rounds {
        assert_eq!(r.non_finite, vec![1]);
        assert_eq!(r.usable, 2);
        assert_eq!(r.responses, 3);
        assert!(r.dropouts.is_empty());
    }
    // Reporting a bad number is an application-level fault; the transport
    // succeeded, so health is unaffected.
    assert_eq!(rt.client_state(1), Some(ClientState::Healthy));
}

/// Wraps a well-behaved client but ships NaN coefficients from the final
/// fit, like a client whose local solver diverged on train + valid.
struct PoisonFinalFit {
    inner: FedForecasterClient,
}

impl FlClient for PoisonFinalFit {
    fn get_properties(&mut self, config: &ConfigMap) -> ConfigMap {
        self.inner.get_properties(config)
    }
    fn fit(&mut self, params: &[f64], config: &ConfigMap) -> FitOutput {
        let mut out = self.inner.fit(params, config);
        if config.str_or(OP, "") == "final_fit" {
            out.params.iter_mut().for_each(|v| *v = f64::NAN);
        }
        out
    }
    fn evaluate(&mut self, params: &[f64], config: &ConfigMap) -> EvalOutput {
        self.inner.evaluate(params, config)
    }
}

/// A non-finite coefficient vector in the plain FedAvg finalization is
/// fatal, and the error must name the client that sent it — not its
/// position among the survivors, which differs once an earlier client
/// has dropped out.
#[test]
fn non_finite_final_update_names_the_sending_client() {
    let series = federation(3);
    let clients: Vec<Box<dyn FlClient>> = series
        .iter()
        .enumerate()
        .map(|(id, s)| match id {
            0 => Box::new(ChaosClient::panicking(good_client(s))) as Box<dyn FlClient>,
            2 => Box::new(PoisonFinalFit {
                inner: FedForecasterClient::new(s, 0.15, 0.15),
            }),
            _ => good_client(s),
        })
        .collect();
    let rt = FederatedRuntime::new(clients);
    let cfg = EngineConfig {
        budget: Budget::Iterations(2),
        portfolio: Some(vec![AlgorithmKind::LASSO]),
        round_policy: RoundPolicy {
            min_responses: 1,
            ..RoundPolicy::default()
        },
        ..Default::default()
    };
    let meta = tiny_metamodel();
    match FedForecaster::new(cfg, &meta).run_on(&rt) {
        Err(fedforecaster::EngineError::Federation(ff_fl::FlError::NonFiniteUpdate { client })) => {
            assert_eq!(client, 2, "the error names the wrong client")
        }
        other => panic!("expected a non-finite update error, got {other:?}"),
    }
}
