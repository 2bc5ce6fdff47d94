//! The random-search baseline (§5.1).
//!
//! Identical pipeline to the engine — same federation, same feature
//! engineering, same budget accounting — but configurations are sampled
//! uniformly from the **full** Table 2 space: no meta-model warm start and
//! no surrogate guidance. This isolates exactly the contribution of the
//! meta-learning + Bayesian-optimization layers.

use crate::budget::BudgetTracker;
use crate::config::EngineConfig;
use crate::engine::{
    build_runtime, collect_global_meta, evaluate_config, feature_spec, finalize,
    run_feature_engineering, RoundCtx, RunResult,
};
use crate::search_space::{pipeline_of, pipeline_space, table2_space};
use crate::{EngineError, Result};
use ff_fl::FlError;
use ff_models::zoo::AlgorithmKind;
use ff_timeseries::TimeSeries;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random-search baseline over the full Table 2 space.
pub struct RandomSearch {
    cfg: EngineConfig,
}

impl RandomSearch {
    /// Creates the baseline with the same configuration surface as the
    /// engine (warm-start / meta-model options are ignored).
    pub fn new(cfg: EngineConfig) -> RandomSearch {
        RandomSearch { cfg }
    }

    /// Runs the baseline on a federation.
    pub fn run(&self, clients: &[TimeSeries]) -> Result<RunResult> {
        let rt = build_runtime(clients, &self.cfg)?;
        let mut ctx = RoundCtx::strict(&rt);
        let (global, max_len) = collect_global_meta(&mut ctx)?;
        let spec = feature_spec(&mut ctx, &global, max_len, &self.cfg)?;
        run_feature_engineering(&mut ctx, &spec, self.cfg.importance_threshold)?;

        // Honors the same pipeline switch as the engine so ablations
        // compare like with like (guided vs random over the same space).
        let space = match &self.cfg.pipelines {
            Some(pipes) => pipeline_space(&AlgorithmKind::builtin(), pipes),
            None => table2_space(&AlgorithmKind::builtin()),
        };
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut best: Option<(ff_bayesopt::space::Configuration, f64)> = None;
        let mut loss_history = Vec::new();
        // The budget covers the tuning loop, matching the engine exactly;
        // at least one configuration is always evaluated.
        let mut tracker = BudgetTracker::start(self.cfg.budget);
        while tracker.iterations() == 0 || !tracker.exhausted() {
            let config = space.sample(&mut rng);
            let loss = match evaluate_config(&mut ctx, &config) {
                Ok(loss) => loss,
                // A configuration some client cannot score is the worst
                // possible trial, never an abort.
                Err(EngineError::Federation(FlError::Quorum { .. })) => 1e30,
                Err(e) => return Err(e),
            };
            loss_history.push(loss);
            match &best {
                Some((_, b)) if loss >= *b => {}
                _ => best = Some((config, loss)),
            }
            tracker.record_iteration();
        }
        let (best_config, best_valid_loss) =
            best.ok_or_else(|| EngineError::InvalidData("no configuration evaluated".into()))?;
        let outcome = finalize(&mut ctx, &best_config, self.cfg.tree_aggregation)?;
        let (bytes_to_clients, bytes_to_server) = rt.log().byte_totals();
        Ok(RunResult {
            best_algorithm: outcome.global_model.algorithm(),
            best_pipeline: pipeline_of(&best_config).map(|p| p.name().to_string()),
            best_config,
            best_valid_loss,
            test_mse: outcome.test_mse,
            global_model: outcome.global_model,
            evaluations: tracker.iterations(),
            loss_history,
            recommended: vec![],
            elapsed: tracker.elapsed(),
            bytes_to_clients,
            bytes_to_server,
            phase_bytes: vec![],
            rounds: vec![],
            failed_trials: 0,
            health: rt.health_report(),
            telemetry: None,
            ensemble_members: vec![],
            feature_lags: vec![],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use ff_timeseries::synthesis::{generate, SeasonSpec, SynthesisSpec};

    fn federation() -> Vec<TimeSeries> {
        let s = generate(
            &SynthesisSpec {
                n: 700,
                seasons: vec![SeasonSpec {
                    period: 10.0,
                    amplitude: 2.0,
                }],
                snr: Some(15.0),
                ..Default::default()
            },
            4,
        );
        s.split_clients(2)
    }

    #[test]
    fn random_search_completes_with_finite_losses() {
        let cfg = EngineConfig {
            budget: Budget::Iterations(5),
            ..Default::default()
        };
        let result = RandomSearch::new(cfg).run(&federation()).unwrap();
        assert_eq!(result.evaluations, 5);
        assert!(result.test_mse.is_finite());
        assert!(result.recommended.is_empty());
        assert_eq!(result.loss_history.len(), 5);
    }

    #[test]
    fn best_valid_loss_is_minimum_of_history() {
        let cfg = EngineConfig {
            budget: Budget::Iterations(6),
            seed: 5,
            ..Default::default()
        };
        let result = RandomSearch::new(cfg).run(&federation()).unwrap();
        let min = result
            .loss_history
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!((result.best_valid_loss - min).abs() < 1e-12);
    }

    #[test]
    fn different_seeds_explore_differently() {
        let mk = |seed| EngineConfig {
            budget: Budget::Iterations(4),
            seed,
            ..Default::default()
        };
        let a = RandomSearch::new(mk(1)).run(&federation()).unwrap();
        let b = RandomSearch::new(mk(2)).run(&federation()).unwrap();
        assert_ne!(a.loss_history, b.loss_history);
    }
}
