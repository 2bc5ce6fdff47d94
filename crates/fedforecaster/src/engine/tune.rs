//! Phase III trial evaluation: one federated fit-and-validate round per
//! candidate configuration, aggregated by Equation 1.
//!
//! Candidates from the composed pipeline space need no special handling
//! here: the `pipeline` selector and node hyperparameters travel inside
//! the same wire `ConfigMap` as the algorithm dimensions, and the client
//! dispatches on their presence (see
//! [`crate::search_space::pipeline_space`]).

use super::rounds::{
    aggregate_losses, fit_error, strict_policy, unexpected, usable_round, RobustCtx,
};
use crate::client::OP;
use crate::report::RoundReport;
use crate::search_space::config_to_map;
use crate::Result;
use ff_bayesopt::space::Configuration;
use ff_fl::config::ConfigMapExt;
use ff_fl::message::{Instruction, Reply};
use ff_fl::runtime::{FederatedRuntime, RoundPolicy};

/// Evaluates one configuration across the federation: clients fit locally
/// and report validation losses; the server aggregates via Equation 1.
/// Runs [`evaluate_config_tolerant`] under the strict round policy, so a
/// client that cannot score the configuration fails the evaluation with
/// [`ff_fl::FlError::Quorum`].
pub fn evaluate_config(rt: &FederatedRuntime, config: &Configuration) -> Result<f64> {
    evaluate_config_tolerant(
        rt,
        ff_par::ParConfig::auto(),
        config,
        &strict_policy(rt),
        &mut Vec::new(),
        &mut RobustCtx::permissive(),
    )
}

/// Fault-tolerant [`evaluate_config`]: the global loss is aggregated over
/// the responsive clients with finite validation losses; non-finite losses
/// and application errors are per-round dropouts. Fails with
/// [`ff_fl::FlError::Quorum`] — which the engine treats as a failed
/// *trial*, not a failed run — when fewer than `min_responses` usable
/// losses remain.
pub fn evaluate_config_tolerant(
    rt: &FederatedRuntime,
    par: ff_par::ParConfig,
    config: &Configuration,
    policy: &RoundPolicy,
    rounds: &mut Vec<RoundReport>,
    ctx: &mut RobustCtx,
) -> Result<f64> {
    par.scope(|| evaluate_config_tolerant_inner(rt, config, policy, rounds, ctx))
}

fn evaluate_config_tolerant_inner(
    rt: &FederatedRuntime,
    config: &Configuration,
    policy: &RoundPolicy,
    rounds: &mut Vec<RoundReport>,
    ctx: &mut RobustCtx,
) -> Result<f64> {
    let ins = Instruction::Fit {
        params: vec![],
        config: config_to_map(config).with_str(OP, "fit_eval"),
    };
    // Candidates keep client ids and non-finite losses so the robust path
    // can screen them.
    let (candidates, idx) = usable_round(rt, "optimization", &ins, policy, rounds, |r| match r {
        Reply::FitRes {
            num_examples,
            metrics,
            ..
        } => match fit_error(&metrics) {
            Some(err) => Err(err),
            None => Ok((metrics.float_or("valid_loss", f64::NAN), num_examples)),
        },
        other => Err(unexpected(other)),
    })?;
    aggregate_losses(rt, candidates, policy, rounds, idx, ctx)
}
