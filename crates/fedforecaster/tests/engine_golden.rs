//! Golden pins of the engine's observable output: absolute
//! [`run_fingerprint`] values and communication totals for five
//! representative runs, plus the random-search baseline and the adaptive
//! walk-forward loop, each checked at one worker and at four.
//!
//! The other determinism suites compare runs against each other (crash vs
//! no crash, one thread vs eight); none of them would notice a change that
//! moves every run the same way. These constants would. They were recorded
//! before the federated round runtime was consolidated and must not move
//! unless a change deliberately alters engine results — in which case the
//! new values and the reason belong in the change log.

use fedforecaster::adaptive::{AdaptiveConfig, AdaptiveForecaster};
use fedforecaster::ckpt::run_fingerprint;
use fedforecaster::client::FedForecasterClient;
use fedforecaster::config::TreeAggregation;
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

fn cfg() -> EngineConfig {
    EngineConfig {
        budget: Budget::Iterations(4),
        seed: 17,
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

/// Asserts the scenario reproduces `expected` at one worker and at four:
/// the count is set process-wide (the runtime's client threads read it)
/// and as this thread's override, which concurrent tests cannot move.
fn assert_pinned<P: PartialEq + std::fmt::Debug>(expected: P, scenario: impl Fn(usize) -> P) {
    for threads in [1usize, 4] {
        ff_par::set_global_threads(threads);
        let got = ff_par::with_threads(threads, || scenario(threads));
        assert_eq!(
            got, expected,
            "golden pin moved at {threads} thread(s): got {got:#x?}"
        );
    }
}

#[test]
fn flat_table2_search_is_pinned() {
    let meta = train_meta();
    assert_pinned((0xf30d_9466_a988_fba7, 9630, 8886), |_| {
        let result = FedForecaster::new(cfg(), &meta)
            .run(&federation(3, 0.01, 9))
            .unwrap();
        pin(&result)
    });
}

#[test]
fn pipeline_search_is_pinned() {
    let meta = train_meta();
    assert_pinned((0x6e2f_bd30_dacf_08e3, 13617, 9642), |_| {
        let cfg = EngineConfig {
            pipelines: Some(PipelineId::builtin().to_vec()),
            ..cfg()
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
    assert_pinned((0xe542_c7cc_5332_4b34, 18786, 17336), |_| {
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
            ..cfg()
        };
        let result = FedForecaster::new(cfg, &meta).run_on(&rt).unwrap();
        pin(&result)
    });
}

#[test]
fn checkpointed_run_resumed_after_trial_two_is_pinned() {
    let meta = train_meta();
    let dir = std::env::temp_dir().join(format!("ff-engine-golden-{}-resume", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    assert_pinned((0xf30d_9466_a988_fba7, 9630, 8886), |threads| {
        let path = dir.join(format!("resume-{threads}.wal"));
        let mut ck = CkptConfig::at(&path);
        ck.crash = Some(CrashPoint::AfterTrial(2));
        let crashed = FedForecaster::new(
            EngineConfig {
                checkpoint: Some(ck),
                ..cfg()
            },
            &meta,
        )
        .run(&federation(3, 0.01, 9));
        assert!(crashed.is_err(), "the injected crash did not fire");
        let result = FedForecaster::new(
            EngineConfig {
                checkpoint: Some(CkptConfig::at(&path)),
                ..cfg()
            },
            &meta,
        )
        .resume(&federation(3, 0.01, 9))
        .unwrap();
        pin(&result)
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_federation_with_panics_and_corruption_is_pinned() {
    let meta = train_meta();
    assert_pinned((0x88bb_a70d_37ed_04f0, 20553, 14614), |_| {
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
            ..cfg()
        };
        let result = FedForecaster::new(cfg, &meta).run_on(&rt).unwrap();
        pin(&result)
    });
}

#[test]
fn random_search_baseline_is_pinned() {
    assert_pinned((0xdb02_0b41_15de_e542, 14541, 8886), |_| {
        let result = RandomSearch::new(cfg())
            .run(&federation(3, 0.01, 9))
            .unwrap();
        pin(&result)
    });
}

/// Chunk losses and the retune count of a walk-forward run. The engine
/// deploys by ensemble union here, the aggregation the chunk evaluation
/// has always used, so the pin holds whichever mode that evaluation reads.
#[test]
fn adaptive_walk_forward_with_ensemble_union_is_pinned() {
    let meta = train_meta();
    let losses = vec![
        0x3ff2_637a_ef1a_6196,
        0x3fec_ba6c_176b_81c2,
        0x3fea_b807_020d_aaa7,
    ];
    assert_pinned((losses, 1usize), |_| {
        let cfg = AdaptiveConfig {
            n_chunks: 3,
            drift_factor: 0.5,
            engine: EngineConfig {
                budget: Budget::Iterations(3),
                seed: 17,
                tree_aggregation: TreeAggregation::EnsembleUnion,
                ..Default::default()
            },
            ..Default::default()
        };
        let result = AdaptiveForecaster::new(cfg, &meta)
            .run(&federation(2, 0.02, 5))
            .unwrap();
        let losses = result.chunks.iter().map(|c| c.loss.to_bits()).collect();
        (losses, result.retunes)
    });
}
