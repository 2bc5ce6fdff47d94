//! Dynamic model adaptation under distribution shift — the paper's first
//! future-work direction (§6: "exploring dynamic model adaptation to adjust
//! for shifting data distributions over time").
//!
//! [`AdaptiveForecaster`] deploys the engine in a walk-forward loop: the
//! pipeline is fitted on a prefix of each client's stream, then monitors the
//! one-step loss over successive evaluation chunks. When the rolling loss
//! degrades beyond `drift_factor ×` the loss observed at fit time, drift is
//! declared and the entire AutoML pipeline re-runs on all data seen so far —
//! algorithm selection included, since a regime change can dethrone the
//! previously best algorithm.

use crate::budget::Budget;
use crate::config::EngineConfig;
use crate::engine::{
    build_runtime, collect_global_meta, feature_spec, finalize, run_feature_engineering,
    FedForecaster, RoundCtx,
};
use crate::{EngineError, Result};
use ff_bayesopt::space::Configuration;
use ff_metalearn::metamodel::MetaModel;
use ff_models::zoo::AlgorithmKind;
use ff_timeseries::TimeSeries;

/// Configuration of the walk-forward adaptation loop.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Fraction of the stream used for the initial fit.
    pub initial_fraction: f64,
    /// Number of walk-forward evaluation chunks after the initial fit.
    pub n_chunks: usize,
    /// Re-tune when `chunk_loss > drift_factor × reference_loss`.
    pub drift_factor: f64,
    /// Engine settings used for every (re-)tuning run.
    pub engine: EngineConfig,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            initial_fraction: 0.5,
            n_chunks: 5,
            drift_factor: 3.0,
            engine: EngineConfig {
                budget: Budget::Iterations(6),
                ..Default::default()
            },
        }
    }
}

/// One walk-forward step's outcome.
#[derive(Debug, Clone)]
pub struct ChunkReport {
    /// Chunk index (0-based, after the initial fit).
    pub chunk: usize,
    /// Aggregated test MSE of the currently deployed model on this chunk.
    pub loss: f64,
    /// Reference loss the drift detector compared against.
    pub reference: f64,
    /// Whether drift was declared and the pipeline re-tuned.
    pub retuned: bool,
    /// Algorithm deployed *after* this chunk.
    pub algorithm: AlgorithmKind,
}

/// Result of a full adaptive run.
#[derive(Debug, Clone)]
pub struct AdaptiveResult {
    /// Per-chunk reports, in stream order.
    pub chunks: Vec<ChunkReport>,
    /// Number of re-tuning events.
    pub retunes: usize,
    /// Mean chunk loss with adaptation enabled.
    pub mean_loss: f64,
}

/// Walk-forward deployment with drift-triggered re-tuning.
pub struct AdaptiveForecaster<'m> {
    cfg: AdaptiveConfig,
    meta: &'m MetaModel,
}

impl<'m> AdaptiveForecaster<'m> {
    /// Creates the adaptive wrapper around a pre-trained meta-model.
    pub fn new(cfg: AdaptiveConfig, meta: &'m MetaModel) -> AdaptiveForecaster<'m> {
        AdaptiveForecaster { cfg, meta }
    }

    /// Runs the walk-forward loop over full client streams.
    ///
    /// At each step the deployed model's loss on the next unseen chunk is
    /// measured by refitting the engine's final configuration on the data
    /// available *before* the chunk (no leakage) with the chunk as the test
    /// region.
    pub fn run(&self, streams: &[TimeSeries]) -> Result<AdaptiveResult> {
        if streams.is_empty() {
            return Err(EngineError::InvalidData("no client streams".into()));
        }
        let n = streams.iter().map(|s| s.len()).min().unwrap_or(0);
        let initial = ((n as f64) * self.cfg.initial_fraction) as usize;
        if initial < 60 {
            return Err(EngineError::InvalidData(
                "initial fraction leaves too little data".into(),
            ));
        }
        let chunk_len = (n - initial) / self.cfg.n_chunks.max(1);
        if chunk_len < 10 {
            return Err(EngineError::InvalidData("chunks too small".into()));
        }

        // Initial fit on the prefix.
        let prefix: Vec<TimeSeries> = streams.iter().map(|s| s.slice(0, initial)).collect();
        let engine = FedForecaster::new(self.cfg.engine.clone(), self.meta);
        let mut current = engine.run(&prefix)?;
        let mut reference = current.test_mse.max(1e-12);

        let mut chunks = Vec::new();
        let mut retunes = 0;
        for c in 0..self.cfg.n_chunks {
            let end = (initial + (c + 1) * chunk_len).min(n);
            // Evaluate the deployed configuration with the new chunk as the
            // test region: test_fraction chosen so the chunk is exactly the
            // held-out tail.
            let eval_cfg = EngineConfig {
                budget: Budget::Iterations(1),
                test_fraction: chunk_len as f64 / end as f64,
                disable_warm_start: true,
                ..self.cfg.engine.clone()
            };
            let window: Vec<TimeSeries> = streams.iter().map(|s| s.slice(0, end)).collect();
            let loss = evaluate_fixed_config(&eval_cfg, &current.best_config, &window)?;

            let drifted = loss > self.cfg.drift_factor * reference;
            if drifted {
                // Full re-tune on everything seen so far.
                current = FedForecaster::new(self.cfg.engine.clone(), self.meta).run(&window)?;
                reference = current.test_mse.max(1e-12);
                retunes += 1;
            } else {
                // Slowly track the observed level so the detector adapts to
                // benign loss inflation (EWMA of the reference).
                reference = 0.8 * reference + 0.2 * loss.max(1e-12);
            }
            chunks.push(ChunkReport {
                chunk: c,
                loss,
                reference,
                retuned: drifted,
                algorithm: current.best_algorithm,
            });
        }
        let mean_loss = chunks.iter().map(|c| c.loss).sum::<f64>() / chunks.len().max(1) as f64;
        Ok(AdaptiveResult {
            chunks,
            retunes,
            mean_loss,
        })
    }
}

/// Refits `best_config` on `window` (train+valid) and returns the
/// aggregated loss on the held-out tail, deployed the way the engine
/// deploys it (`cfg.tree_aggregation`).
fn evaluate_fixed_config(
    cfg: &EngineConfig,
    best_config: &Configuration,
    window: &[TimeSeries],
) -> Result<f64> {
    let rt = build_runtime(window, cfg)?;
    let mut ctx = RoundCtx::strict(&rt);
    let (global, max_len) = collect_global_meta(&mut ctx)?;
    let spec = feature_spec(&mut ctx, &global, max_len, cfg)?;
    run_feature_engineering(&mut ctx, &spec, cfg.importance_threshold)?;
    Ok(finalize(&mut ctx, best_config, cfg.tree_aggregation)?.test_mse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeAggregation;
    use ff_metalearn::kb::KnowledgeBase;
    use ff_metalearn::metamodel::MetaClassifierKind;
    use ff_metalearn::synth::synthetic_kb;
    use ff_timeseries::synthesis::{generate, SeasonSpec, SynthesisSpec};

    fn meta() -> MetaModel {
        let kb = KnowledgeBase::build(&synthetic_kb(8), &[2], 50);
        MetaModel::train(&kb, MetaClassifierKind::RandomForest, 0).unwrap()
    }

    fn stationary_streams() -> Vec<TimeSeries> {
        let s = generate(
            &SynthesisSpec {
                n: 1600,
                seasons: vec![SeasonSpec {
                    period: 12.0,
                    amplitude: 3.0,
                }],
                snr: Some(20.0),
                ..Default::default()
            },
            21,
        );
        s.split_clients(2)
    }

    /// Streams where EVERY client's own dynamics flip halfway: amplitude,
    /// level, and noise jump at the midpoint of each client stream.
    fn shifting_streams() -> Vec<TimeSeries> {
        (0..2u64)
            .map(|i| {
                let a = generate(
                    &SynthesisSpec {
                        n: 400,
                        seasons: vec![SeasonSpec {
                            period: 12.0,
                            amplitude: 2.0,
                        }],
                        snr: Some(30.0),
                        level: 10.0,
                        ..Default::default()
                    },
                    22 + i,
                );
                let b = generate(
                    &SynthesisSpec {
                        n: 400,
                        seasons: vec![SeasonSpec {
                            period: 5.0,
                            amplitude: 9.0,
                        }],
                        snr: Some(5.0),
                        level: 60.0,
                        ..Default::default()
                    },
                    40 + i,
                );
                let mut values = a.values().to_vec();
                values.extend_from_slice(b.values());
                TimeSeries::with_regular_index(0, 86_400, values)
            })
            .collect()
    }

    #[test]
    fn stable_stream_rarely_retunes() {
        let meta = meta();
        let cfg = AdaptiveConfig {
            n_chunks: 4,
            ..Default::default()
        };
        let result = AdaptiveForecaster::new(cfg, &meta)
            .run(&stationary_streams())
            .unwrap();
        assert_eq!(result.chunks.len(), 4);
        assert!(
            result.retunes <= 1,
            "stationary stream retuned {} times",
            result.retunes
        );
        assert!(result.mean_loss.is_finite());
    }

    #[test]
    fn regime_shift_triggers_retune() {
        let meta = meta();
        let cfg = AdaptiveConfig {
            initial_fraction: 0.4, // fit entirely inside regime A
            n_chunks: 4,
            drift_factor: 4.0,
            ..Default::default()
        };
        let result = AdaptiveForecaster::new(cfg, &meta)
            .run(&shifting_streams())
            .unwrap();
        assert!(
            result.retunes >= 1,
            "regime shift must trigger at least one retune: {:?}",
            result
                .chunks
                .iter()
                .map(|c| (c.loss, c.retuned))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn chunk_loss_deploys_with_the_configured_tree_aggregation() {
        let meta = meta();
        let streams = stationary_streams();
        let engine = EngineConfig {
            budget: Budget::Iterations(2),
            portfolio: Some(vec![AlgorithmKind::XGB_REGRESSOR]),
            tree_aggregation: TreeAggregation::PerClient,
            ..Default::default()
        };
        let cfg = AdaptiveConfig {
            n_chunks: 1,
            engine: engine.clone(),
            ..Default::default()
        };
        let result = AdaptiveForecaster::new(cfg, &meta).run(&streams).unwrap();
        // One chunk: the window is the whole stream and the chunk its
        // second half.
        let n = streams[0].len();
        let initial = n / 2;
        let prefix: Vec<TimeSeries> = streams.iter().map(|s| s.slice(0, initial)).collect();
        let best = FedForecaster::new(engine.clone(), &meta)
            .run(&prefix)
            .unwrap()
            .best_config;
        let eval_cfg = EngineConfig {
            test_fraction: (n - initial) as f64 / n as f64,
            ..engine
        };
        let rt = build_runtime(&streams, &eval_cfg).unwrap();
        let mut ctx = RoundCtx::strict(&rt);
        let (global, max_len) = collect_global_meta(&mut ctx).unwrap();
        let spec = feature_spec(&mut ctx, &global, max_len, &eval_cfg).unwrap();
        run_feature_engineering(&mut ctx, &spec, eval_cfg.importance_threshold).unwrap();
        let mut loss_as = |mode| finalize(&mut ctx, &best, mode).unwrap().test_mse;
        let per_client = loss_as(TreeAggregation::PerClient);
        let union = loss_as(TreeAggregation::EnsembleUnion);
        assert_ne!(per_client.to_bits(), union.to_bits(), "modes must differ");
        assert_eq!(result.chunks[0].loss.to_bits(), per_client.to_bits());
    }

    #[test]
    fn input_validation() {
        let meta = meta();
        let ad = AdaptiveForecaster::new(AdaptiveConfig::default(), &meta);
        assert!(ad.run(&[]).is_err());
        let tiny = TimeSeries::with_regular_index(0, 60, vec![1.0; 50]);
        assert!(ad.run(&[tiny]).is_err());
    }
}
