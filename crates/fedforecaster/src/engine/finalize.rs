//! Phase IV: final fit on train+valid, federated model aggregation, and
//! test evaluation (§4.4).
//!
//! [`finalize`] is driven by the winning algorithm's declared
//! [`ff_models::spec::FinalizeStrategy`] — not by matching on the
//! algorithm itself. `CoefficientAverage` winners are
//! FedAvg-ed into one global linear model; `EnsembleUnion` winners ship
//! serialized members that are deployed as a weighted union (or fall back
//! to per-client models, per [`crate::config::TreeAggregation`]).

use super::rounds::{fit_error, unexpected, RoundCtx};
use crate::aggregate::GlobalModel;
use crate::client::OP;
use crate::config::TreeAggregation;
use crate::search_space::{algorithm_of, config_to_map, pipeline_of};
use crate::{EngineError, Result};
use ff_bayesopt::space::Configuration;
use ff_fl::config::{ConfigMap, ConfigMapExt};
use ff_fl::message::{Instruction, Reply};
use ff_fl::secure::{mask_contribution, unmask_average};
use ff_fl::strategy::{fit_updates, unwrap_fit_replies};
use ff_models::spec::FinalizeStrategy;

/// What Phase IV produced: the deployed global model, its aggregated
/// test MSE, and — for `EnsembleUnion` winners — the exact weighted
/// member set that was deployed, so the run can be sealed into a serving
/// artifact ([`crate::engine::RunResult::export_artifact`]) without
/// re-asking the clients for their models.
#[derive(Debug, Clone)]
pub struct FinalizeOutcome {
    /// The deployed global model.
    pub global_model: GlobalModel,
    /// Aggregated test MSE of the deployed model.
    pub test_mse: f64,
    /// `(blob, weight)` pairs collected from the final-fit survivors, in
    /// reply order — the serving-layer member set. Empty for
    /// `CoefficientAverage` winners (the global model is the coefficients
    /// themselves) and for rounds where no survivor shipped a blob.
    pub members: Vec<(Vec<u8>, f64)>,
}

/// Phase IV: the final fit, aggregation, and test rounds, each under the
/// context's policy (§4.4; see DESIGN.md §5 for the tree-aggregation
/// trade-off). FedAvg (`CoefficientAverage` winners) and ensemble weights
/// (`EnsembleUnion` winners) renormalize over whichever clients delivered
/// a final model; the union deployment is "available" when every
/// *survivor* of the final-fit round contributed a blob.
pub fn finalize(
    ctx: &mut RoundCtx,
    best_config: &Configuration,
    tree_aggregation: TreeAggregation,
) -> Result<FinalizeOutcome> {
    let algorithm = algorithm_of(best_config)
        .ok_or_else(|| EngineError::InvalidData("config has no algorithm".into()))?;
    let ins = Instruction::Fit {
        params: vec![],
        config: config_to_map(best_config).with_str(OP, "final_fit"),
    };
    let (usable, idx) = ctx.usable_round("finalization", &ins, |r| match &r {
        Reply::FitRes { metrics, .. } => match fit_error(metrics) {
            Some(err) => Err(err),
            None => Ok(r),
        },
        _ => Err(unexpected(r)),
    })?;
    ctx.require_quorum(idx, usable.len())?;

    // Pipeline winners always finalize by ensemble union: each member is a
    // self-contained blob-v3 forecaster (non-codec models ship in probed
    // affine form), and coefficient averaging is ill-defined across
    // per-client trend branches.
    let strategy = if pipeline_of(best_config).is_some() {
        FinalizeStrategy::EnsembleUnion
    } else {
        algorithm.spec().finalize()
    };
    match strategy {
        FinalizeStrategy::CoefficientAverage => {
            let global_params = if ctx.secure {
                // Masked path (FedAvg only, enforced by config validation):
                // each survivor uploads `weight·params + Σ pairwise masks`;
                // the masks cancel in the sum, so the server recovers the
                // weighted average without seeing any individual update.
                let fit_results = unwrap_fit_replies(usable).map_err(EngineError::Federation)?;
                let n = fit_results.len();
                let round_seed = ctx.rounds[idx].round;
                let total_weight: f64 = fit_results.iter().map(|(_, w)| *w as f64).sum();
                let uploads: Vec<Vec<f64>> = fit_results
                    .iter()
                    .enumerate()
                    .map(|(i, (p, w))| mask_contribution(p, *w as f64, i, n, round_seed))
                    .collect();
                unmask_average(&uploads, total_weight).ok_or_else(|| {
                    EngineError::InvalidData(
                        "secure aggregation failed to unmask the final fit \
                         (mismatched dimensions or zero total weight)"
                            .into(),
                    )
                })?
            } else {
                let mut updates = fit_updates(usable).map_err(EngineError::Federation)?;
                if ctx.strategy.is_robust() {
                    // Robust path: screen per-client coefficient vectors and
                    // feed the verdicts to the health registry before the
                    // configured rule aggregates the survivors.
                    let screened = ctx.guard.screen_updates(updates);
                    let accepted_ids: Vec<usize> =
                        screened.accepted.iter().map(|(id, _, _)| *id).collect();
                    ctx.record_screen(idx, &accepted_ids, &screened.rejected);
                    ctx.rounds[idx].usable = screened.accepted.len();
                    ctx.require_quorum(idx, screened.accepted.len())?;
                    updates = screened.accepted;
                }
                ctx.strategy
                    .aggregate(updates)
                    .map_err(EngineError::Federation)?
            };
            // Split off what the deployed model keeps *before* the eval
            // round takes ownership of the full vector — the broadcast
            // path never clones the global model.
            let p = global_params.len() - 1;
            let coef = global_params[..p].to_vec();
            let intercept = global_params[p];
            let test_mse = ctx.eval_round(
                global_params,
                ConfigMap::new().with_str(OP, "test_global_linear"),
            )?;
            Ok(FinalizeOutcome {
                global_model: GlobalModel::Linear {
                    algorithm,
                    coef,
                    intercept,
                },
                test_mse,
                members: vec![],
            })
        }
        FinalizeStrategy::EnsembleUnion => finalize_union(ctx, algorithm, usable, tree_aggregation),
    }
}

/// The `EnsembleUnion` arm: gather serialized members from the final-fit
/// survivors and deploy either the weighted union or the per-client
/// fallback, per the tree-aggregation mode.
fn finalize_union(
    ctx: &mut RoundCtx,
    algorithm: ff_models::zoo::AlgorithmKind,
    usable: Vec<(usize, Reply)>,
    tree_aggregation: TreeAggregation,
) -> Result<FinalizeOutcome> {
    let mut blobs: Vec<Vec<u8>> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    for (_, r) in &usable {
        if let Reply::FitRes {
            num_examples,
            metrics,
            ..
        } = r
        {
            if let Some(b) = metrics.get("model_blob").and_then(|v| v.as_bytes()) {
                blobs.push(b.to_vec());
                weights.push(*num_examples as f64);
            }
        }
    }
    // The member set outlives this function in the outcome, so the run
    // can seal a serving artifact. Clone it here, before deployment moves
    // the blobs into round configs.
    let exported: Vec<(Vec<u8>, f64)> = blobs
        .iter()
        .zip(&weights)
        .map(|(b, &w)| (b.clone(), w))
        .collect();
    let union_available = blobs.len() == usable.len() && !blobs.is_empty();
    let members = blobs.len();
    // Takes the blobs by value: the ConfigMap absorbs them without
    // copying, so the round that ends a blob's life moves it. Only the
    // `Auto` validation probe — which needs the blobs again for the test
    // round — pays for a copy.
    fn ensemble_config(split: &str, blobs: Vec<Vec<u8>>, weights: &[f64]) -> ConfigMap {
        let wsum: f64 = weights.iter().sum();
        let mut config = ConfigMap::new()
            .with_str(OP, "test_global_ensemble")
            .with_str("split", split)
            .with_floats("weights", weights.iter().map(|w| w / wsum).collect());
        for (j, b) in blobs.into_iter().enumerate() {
            config = config.with_bytes(&format!("blob_{j}"), b);
        }
        config
    }
    let local_config = |split: &str| {
        ConfigMap::new()
            .with_str(OP, "test_local")
            .with_str("split", split)
    };

    let use_union = match tree_aggregation {
        TreeAggregation::EnsembleUnion => union_available,
        TreeAggregation::PerClient => false,
        TreeAggregation::Auto => {
            // Leakage-free model selection: compare both deployments on the
            // validation split and pick the better.
            union_available && {
                let union_valid =
                    ctx.eval_round(vec![], ensemble_config("valid", blobs.clone(), &weights))?;
                let local_valid = ctx.eval_round(vec![], local_config("valid"))?;
                union_valid <= local_valid
            }
        }
    };
    if use_union {
        let test_mse = ctx.eval_round(vec![], ensemble_config("test", blobs, &weights))?;
        Ok(FinalizeOutcome {
            global_model: GlobalModel::Ensemble { algorithm, members },
            test_mse,
            members: exported,
        })
    } else {
        let test_mse = ctx.eval_round(vec![], local_config("test"))?;
        Ok(FinalizeOutcome {
            global_model: GlobalModel::PerClient { algorithm },
            test_mse,
            members: exported,
        })
    }
}
