//! Phase III trial evaluation: one federated fit-and-validate round per
//! candidate configuration, aggregated by Equation 1.
//!
//! Candidates from the composed pipeline space need no special handling
//! here: the `pipeline` selector and node hyperparameters travel inside
//! the same wire `ConfigMap` as the algorithm dimensions, and the client
//! dispatches on their presence (see
//! [`crate::search_space::pipeline_space`]).

use super::rounds::{fit_error, unexpected, RoundCtx};
use crate::client::OP;
use crate::search_space::config_to_map;
use crate::Result;
use ff_bayesopt::space::Configuration;
use ff_fl::config::ConfigMapExt;
use ff_fl::message::{Instruction, Reply};

/// Evaluates one configuration across the federation: clients fit locally
/// and report validation losses; the server aggregates them via Equation 1
/// over the responsive clients with finite losses (non-finite losses and
/// application errors are per-round dropouts). Fails with
/// [`ff_fl::FlError::Quorum`] — which the engine treats as a failed
/// *trial*, not a failed run — when fewer than `min_responses` usable
/// losses remain.
pub fn evaluate_config(ctx: &mut RoundCtx, config: &Configuration) -> Result<f64> {
    let ins = Instruction::Fit {
        params: vec![],
        config: config_to_map(config).with_str(OP, "fit_eval"),
    };
    // Candidates keep client ids and non-finite losses so the robust path
    // can screen them.
    let (candidates, idx) = ctx.usable_round("optimization", &ins, |r| match r {
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
    ctx.aggregate_losses(candidates, idx)
}
