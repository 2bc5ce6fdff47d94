//! End-to-end pipeline search: the engine tunes the joint
//! structure-conditional space (pipeline × node params × algorithm ×
//! algorithm params), finalizes the winning composed forecaster by
//! ensemble union of blob-v3 members, and stays deterministic and
//! bit-identical across worker-thread counts.

use fedforecaster::budget::Budget;
use fedforecaster::config::EngineConfig;
use fedforecaster::engine::FedForecaster;
use fedforecaster::report::best_model_label;
use ff_metalearn::kb::KnowledgeBase;
use ff_metalearn::metamodel::{MetaClassifierKind, MetaModel};
use ff_metalearn::synth::synthetic_kb;
use ff_models::pipeline::PipelineId;
use ff_timeseries::synthesis::{generate, SeasonSpec, SynthesisSpec, TrendSpec};
use ff_timeseries::TimeSeries;

fn tiny_metamodel() -> MetaModel {
    let kb = KnowledgeBase::build(&synthetic_kb(8), &[2], 50);
    MetaModel::train(&kb, MetaClassifierKind::RandomForest, 0).unwrap()
}

/// A trending seasonal federation — the shape the two-branch pipelines
/// (polyfit trend ⊕ lagged regression) are built for.
fn federation() -> Vec<TimeSeries> {
    let s = generate(
        &SynthesisSpec {
            n: 800,
            trend: TrendSpec::Linear(0.02),
            seasons: vec![SeasonSpec {
                period: 12.0,
                amplitude: 2.0,
            }],
            snr: Some(25.0),
            ..Default::default()
        },
        31,
    );
    s.split_clients(3)
}

fn pipeline_cfg() -> EngineConfig {
    EngineConfig {
        budget: Budget::Iterations(8),
        pipelines: Some(PipelineId::builtin().to_vec()),
        ..Default::default()
    }
}

#[test]
fn pipeline_search_runs_end_to_end_and_records_the_structure() {
    let meta = tiny_metamodel();
    let result = FedForecaster::new(pipeline_cfg(), &meta)
        .run(&federation())
        .unwrap();
    assert!(result.best_valid_loss.is_finite());
    assert!(result.test_mse.is_finite());
    assert_eq!(result.evaluations, 8);
    // Every configuration in the composed space selects a structure, so
    // the winner always reports one.
    let structure = result.best_pipeline.as_deref().expect("structure recorded");
    assert!(PipelineId::from_name(structure).is_some(), "{structure}");
    // Report label composes structure and algorithm.
    let label = best_model_label(&result);
    assert!(
        label.starts_with(structure) && label.contains('/'),
        "{label}"
    );
}

#[test]
fn flat_runs_report_no_pipeline() {
    let meta = tiny_metamodel();
    let cfg = EngineConfig {
        budget: Budget::Iterations(3),
        ..Default::default()
    };
    let result = FedForecaster::new(cfg, &meta).run(&federation()).unwrap();
    assert!(result.best_pipeline.is_none());
    assert_eq!(
        best_model_label(&result),
        result.best_algorithm.name().to_string()
    );
}

#[test]
fn pipeline_search_is_deterministic_given_seed() {
    let meta = tiny_metamodel();
    let a = FedForecaster::new(pipeline_cfg(), &meta)
        .run(&federation())
        .unwrap();
    let b = FedForecaster::new(pipeline_cfg(), &meta)
        .run(&federation())
        .unwrap();
    assert_eq!(a.best_pipeline, b.best_pipeline);
    assert_eq!(a.best_config, b.best_config);
    assert_eq!(a.loss_history, b.loss_history);
    assert!((a.test_mse - b.test_mse).abs() < 1e-15);
}

#[test]
fn pipeline_search_is_bit_identical_across_thread_counts() {
    let meta = tiny_metamodel();
    ff_par::set_global_threads(1);
    let a = FedForecaster::new(pipeline_cfg(), &meta)
        .run(&federation())
        .unwrap();
    ff_par::set_global_threads(8);
    let b = FedForecaster::new(pipeline_cfg(), &meta)
        .run(&federation())
        .unwrap();
    assert_eq!(a.best_pipeline, b.best_pipeline);
    assert_eq!(a.loss_history, b.loss_history, "losses diverged");
    assert_eq!(
        a.test_mse.to_bits(),
        b.test_mse.to_bits(),
        "test MSE not bit-identical: {} vs {}",
        a.test_mse,
        b.test_mse
    );
    assert_eq!(a.best_valid_loss.to_bits(), b.best_valid_loss.to_bits());
}

#[test]
fn restricted_structure_set_is_honored() {
    // A single-structure space still searches algorithms and node params.
    let meta = tiny_metamodel();
    let cfg = EngineConfig {
        budget: Budget::Iterations(4),
        pipelines: Some(vec![PipelineId::TREND_LAGGED]),
        ..Default::default()
    };
    let result = FedForecaster::new(cfg, &meta).run(&federation()).unwrap();
    assert_eq!(result.best_pipeline.as_deref(), Some("trend_lagged"));
    assert!(result.test_mse.is_finite());
}
