//! Golden pins of the engine's observable output: absolute
//! [`run_fingerprint`] values and communication totals for five
//! representative runs, each checked at one worker and at four.
//!
//! The other determinism suites compare runs against each other (crash vs
//! no crash, one thread vs eight); none of them would notice a change that
//! moves every run the same way. These constants would. They were recorded
//! before the federated round runtime was consolidated and must not move
//! unless a change deliberately alters engine results — in which case the
//! new values and the reason belong in the change log.

use fedforecaster::ckpt::run_fingerprint;
use fedforecaster::client::FedForecasterClient;
use fedforecaster::prelude::*;
use ff_ckpt::CrashPoint;
use ff_fl::chaos::{AdversarialMode, ChaosClient};
use ff_fl::client::FlClient;
use ff_fl::runtime::FederatedRuntime;
use ff_metalearn::kb::KnowledgeBase;
use ff_metalearn::metamodel::{MetaClassifierKind, MetaModel};
use ff_metalearn::synth::synthetic_kb;
use ff_models::pipeline::PipelineId;
use ff_timeseries::synthesis::{generate, SeasonSpec, SynthesisSpec, TrendSpec};
use ff_timeseries::TimeSeries;
use std::time::Duration;

/// `(run_fingerprint, bytes_to_clients, bytes_to_server)`.
type Pin = (u64, usize, usize);

fn train_meta() -> MetaModel {
    let kb = KnowledgeBase::build(&synthetic_kb(8), &[2], 50);
    MetaModel::train(&kb, MetaClassifierKind::RandomForest, 0).unwrap()
}

fn federation(n_clients: usize, trend: f64, seed: u64) -> Vec<TimeSeries> {
    generate(
        &SynthesisSpec {
            n: 200 * n_clients,
            trend: TrendSpec::Linear(trend),
            seasons: vec![SeasonSpec {
                period: 12.0,
                amplitude: 2.0,
            }],
            snr: Some(20.0),
            ..Default::default()
        },
        seed,
    )
    .split_clients(n_clients)
}

fn cfg(threads: usize) -> EngineConfig {
    EngineConfig {
        budget: Budget::Iterations(4),
        seed: 17,
        par: ff_par::ParConfig::with_threads(threads),
        ..Default::default()
    }
}

fn pin(result: &RunResult) -> Pin {
    (
        run_fingerprint(result),
        result.bytes_to_clients,
        result.bytes_to_server,
    )
}

fn honest(series: &TimeSeries) -> Box<dyn FlClient> {
    Box::new(FedForecasterClient::new(series, 0.15, 0.15))
}

/// Asserts the scenario reproduces `expected` at one worker and at four.
fn assert_pinned(expected: Pin, scenario: impl Fn(usize) -> Pin) {
    for threads in [1usize, 4] {
        let got = scenario(threads);
        assert_eq!(
            got, expected,
            "golden pin moved at {threads} thread(s): got {got:#x?}"
        );
    }
}

#[test]
fn flat_table2_search_is_pinned() {
    let meta = train_meta();
    assert_pinned((0xf30d_9466_a988_fba7, 9630, 8886), |threads| {
        let result = FedForecaster::new(cfg(threads), &meta)
            .run(&federation(3, 0.01, 9))
            .unwrap();
        pin(&result)
    });
}

#[test]
fn pipeline_search_is_pinned() {
    let meta = train_meta();
    assert_pinned((0x6e2f_bd30_dacf_08e3, 13617, 9642), |threads| {
        let cfg = EngineConfig {
            pipelines: Some(PipelineId::builtin().to_vec()),
            ..cfg(threads)
        };
        let result = FedForecaster::new(cfg, &meta)
            .run(&federation(3, 0.02, 31))
            .unwrap();
        pin(&result)
    });
}

#[test]
fn coordinate_median_with_guard_is_pinned() {
    let meta = train_meta();
    assert_pinned((0xe542_c7cc_5332_4b34, 18786, 17336), |threads| {
        let series = federation(6, 0.01, 9);
        let clients: Vec<Box<dyn FlClient>> = series
            .iter()
            .enumerate()
            .map(|(id, s)| match id {
                2 => Box::new(ChaosClient::adversarial(
                    honest(s),
                    AdversarialMode::ScaleBy(1e6),
                    2,
                )) as Box<dyn FlClient>,
                4 => Box::new(ChaosClient::adversarial(
                    honest(s),
                    AdversarialMode::NanInject,
                    4,
                )),
                _ => honest(s),
            })
            .collect();
        let rt = FederatedRuntime::new(clients);
        let cfg = EngineConfig {
            aggregation: AggregationStrategy::CoordinateMedian,
            ..cfg(threads)
        };
        let result = FedForecaster::new(cfg, &meta).run_on(&rt).unwrap();
        pin(&result)
    });
}

#[test]
fn checkpointed_run_resumed_after_trial_two_is_pinned() {
    let meta = train_meta();
    assert_pinned((0xf30d_9466_a988_fba7, 9630, 8886), |threads| {
        let dir = std::env::temp_dir().join(format!("ff-engine-golden-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("resume-{threads}.wal"));
        let _ = std::fs::remove_file(&path);
        let mut ck = CkptConfig::at(&path);
        ck.crash = Some(CrashPoint::parse("trial:2").unwrap());
        let crashed = FedForecaster::new(
            EngineConfig {
                checkpoint: Some(ck),
                ..cfg(threads)
            },
            &meta,
        )
        .run(&federation(3, 0.01, 9));
        assert!(crashed.is_err(), "the injected crash did not fire");
        let result = FedForecaster::new(
            EngineConfig {
                checkpoint: Some(CkptConfig::at(&path)),
                ..cfg(threads)
            },
            &meta,
        )
        .resume(&federation(3, 0.01, 9))
        .unwrap();
        pin(&result)
    });
}

#[test]
fn chaos_federation_with_panics_and_corruption_is_pinned() {
    let meta = train_meta();
    assert_pinned((0x88bb_a70d_37ed_04f0, 20553, 14614), |threads| {
        let series = federation(6, 0.01, 9);
        let clients: Vec<Box<dyn FlClient>> = series
            .iter()
            .enumerate()
            .map(|(id, s)| match id {
                1 => Box::new(ChaosClient::panicking(honest(s))) as Box<dyn FlClient>,
                4 => Box::new(ChaosClient::corrupting(honest(s), 7)),
                _ => honest(s),
            })
            .collect();
        let rt = FederatedRuntime::new(clients);
        let cfg = EngineConfig {
            round_policy: RoundPolicy {
                deadline: Some(Duration::from_secs(60)),
                min_responses: 2,
                retries: 1,
                backoff: Duration::ZERO,
            },
            ..cfg(threads)
        };
        let result = FedForecaster::new(cfg, &meta).run_on(&rt).unwrap();
        pin(&result)
    });
}
