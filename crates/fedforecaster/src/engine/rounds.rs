//! Policy-bounded round plumbing shared by every pipeline stage.
//!
//! The `*_tolerant` stage variants drive the protocol through
//! [`FederatedRuntime::run_round`]: every collect is bounded by the policy
//! deadline, clients that time out, panic, or reply garbage become recorded
//! dropouts, and each stage proceeds with whichever healthy subset remains
//! (FedAvg and Equation 1 renormalize over survivors automatically). The
//! strict variants require every client to reply and are kept for the
//! baselines and for federations known to be well-behaved.

use crate::config::EngineConfig;
use crate::report::RoundReport;
use crate::{EngineError, Result};
use ff_fl::config::ConfigMap;
use ff_fl::message::{Instruction, Reply};
use ff_fl::robust::{AggregationStrategy, RejectReason, UpdateGuard};
use ff_fl::runtime::{FederatedRuntime, RoundOutcome, RoundPolicy};
use ff_fl::FlError;

/// Per-run robust-aggregation state threaded through every tolerant stage:
/// which aggregation rule to apply, the stateful pre-aggregation screen
/// (its running medians span rounds), and whether the final linear fit
/// must go through pairwise masking. Under the default FedAvg strategy
/// `is_robust()` is false and every stage takes its legacy path untouched.
pub struct RobustCtx {
    /// The server-side aggregation rule.
    pub strategy: AggregationStrategy,
    /// Stateful screen applied to every reply before robust aggregation.
    pub guard: UpdateGuard,
    /// Mask the final-fit coefficient uploads (FedAvg only; enforced by
    /// [`EngineConfig::validate`]).
    pub secure: bool,
}

impl RobustCtx {
    /// Builds the per-run context from a validated engine config.
    pub fn from_config(cfg: &EngineConfig) -> RobustCtx {
        RobustCtx {
            strategy: cfg.aggregation,
            guard: UpdateGuard::new(cfg.guard),
            secure: cfg.secure_aggregation,
        }
    }

    /// Plain FedAvg, no screening, no masking — the context the strict
    /// baselines use so their behavior stays bit-identical.
    pub fn permissive() -> RobustCtx {
        RobustCtx {
            strategy: AggregationStrategy::FedAvg,
            guard: UpdateGuard::new(Default::default()),
            secure: false,
        }
    }

    /// Whether replies must be screened and robustly aggregated.
    pub fn is_robust(&self) -> bool {
        self.strategy.is_robust()
    }
}

/// Feeds guard verdicts back into the health registry and the round
/// report: every rejection escalates the client's integrity streak (and
/// bumps the `fl.updates_rejected` counter via the runtime); every
/// acceptance clears it.
pub(crate) fn record_screen(
    rt: &FederatedRuntime,
    rounds: &mut [RoundReport],
    idx: usize,
    accepted: &[usize],
    rejected: &[(usize, RejectReason)],
) {
    for id in accepted {
        rt.record_update_accepted(*id);
    }
    for (id, why) in rejected {
        rt.record_update_rejected(*id);
        rounds[idx].rejected.push((*id, why.to_string()));
    }
}

/// The policy that reproduces strict-round semantics through the tolerant
/// machinery: block until every client replies, and fail the stage unless
/// all of them produced a usable reply.
pub(crate) fn strict_policy(rt: &FederatedRuntime) -> RoundPolicy {
    RoundPolicy {
        deadline: None,
        min_responses: rt.n_clients(),
        ..RoundPolicy::default()
    }
}

/// Runs one policy-bounded round and appends its [`RoundReport`]. Returns
/// the outcome plus the report's index so the caller can amend the
/// app-level fields (`usable`, `app_errors`, `non_finite`).
pub(crate) fn tolerant_round(
    rt: &FederatedRuntime,
    phase: &'static str,
    ins: &Instruction,
    policy: &RoundPolicy,
    rounds: &mut Vec<RoundReport>,
) -> Result<(RoundOutcome, usize)> {
    match rt.run_round(ins, policy) {
        Ok(outcome) => {
            rounds.push(RoundReport {
                phase,
                round: outcome.round,
                participants: outcome.participants.len(),
                responses: outcome.replies.len(),
                usable: outcome.replies.len(),
                dropouts: outcome
                    .dropouts
                    .iter()
                    .map(|(id, e)| (*id, e.to_string()))
                    .collect(),
                app_errors: vec![],
                non_finite: vec![],
                rejected: vec![],
                quorum_met: true,
            });
            let idx = rounds.len() - 1;
            Ok((outcome, idx))
        }
        Err(e) => {
            if let FlError::Quorum { healthy, .. } = &e {
                rounds.push(RoundReport {
                    phase,
                    round: rt.health_report().rounds,
                    participants: 0,
                    responses: *healthy,
                    usable: *healthy,
                    dropouts: vec![],
                    app_errors: vec![],
                    non_finite: vec![],
                    rejected: vec![],
                    quorum_met: false,
                });
            }
            Err(EngineError::Federation(e))
        }
    }
}

/// Runs one policy-bounded round and sorts its replies: `accept` maps a
/// reply to a usable value or to the reason it is unusable, which becomes
/// the client's application error. Sets the report's `usable` count and
/// returns the usable values in client order plus the report's index.
pub(crate) fn usable_round<T>(
    rt: &FederatedRuntime,
    phase: &'static str,
    ins: &Instruction,
    policy: &RoundPolicy,
    rounds: &mut Vec<RoundReport>,
    mut accept: impl FnMut(Reply) -> std::result::Result<T, String>,
) -> Result<(Vec<(usize, T)>, usize)> {
    let (outcome, idx) = tolerant_round(rt, phase, ins, policy, rounds)?;
    let mut usable = Vec::new();
    for (id, reply) in outcome.replies {
        match accept(reply) {
            Ok(value) => usable.push((id, value)),
            Err(why) => rounds[idx].app_errors.push((id, why)),
        }
    }
    rounds[idx].usable = usable.len();
    Ok((usable, idx))
}

/// The application error for a reply of the wrong kind.
pub(crate) fn unexpected(reply: Reply) -> String {
    match reply {
        Reply::Error(e) => e,
        other => format!("unexpected reply {other:?}"),
    }
}

/// The error a client reported in a fit reply's metrics, if any.
pub(crate) fn fit_error(metrics: &ConfigMap) -> Option<String> {
    metrics
        .get("error")
        .and_then(|v| v.as_str())
        .map(str::to_string)
}

/// One tolerant Evaluate round aggregated by Equation 1 over the finite
/// survivor losses (or the configured robust loss rule when the context
/// is robust). Takes ownership of `params` — callers that still need the
/// vector extract what they keep *before* handing it over rather than
/// cloning a full model copy per evaluation.
pub(crate) fn tolerant_eval_round(
    rt: &FederatedRuntime,
    params: Vec<f64>,
    op_config: ConfigMap,
    policy: &RoundPolicy,
    rounds: &mut Vec<RoundReport>,
    ctx: &mut RobustCtx,
) -> Result<f64> {
    let ins = Instruction::Evaluate {
        params,
        config: op_config,
    };
    let (candidates, idx) = usable_round(rt, "finalization", &ins, policy, rounds, |r| match r {
        Reply::EvaluateRes {
            loss, num_examples, ..
        } => Ok((loss, num_examples)),
        other => Err(unexpected(other)),
    })?;
    aggregate_losses(rt, candidates, policy, rounds, idx, ctx)
}

/// Aggregates one round's `(client_id, (loss, num_examples))` candidates.
/// Robust contexts screen every candidate — non-finite included — through
/// the guard, whose verdicts feed the health registry; otherwise
/// non-finite losses are excluded (recorded, not escalated) and the rest
/// aggregate by Equation 1. Fails with [`FlError::Quorum`] when fewer than
/// `min_responses` losses remain.
pub(crate) fn aggregate_losses(
    rt: &FederatedRuntime,
    candidates: Vec<(usize, (f64, u64))>,
    policy: &RoundPolicy,
    rounds: &mut [RoundReport],
    idx: usize,
    ctx: &mut RobustCtx,
) -> Result<f64> {
    let losses: Vec<(f64, u64)> = if ctx.is_robust() {
        let candidates = candidates.into_iter().map(|(id, (l, n))| (id, l, n));
        let screened = ctx.guard.screen_losses(candidates.collect());
        let accepted_ids: Vec<usize> = screened.accepted.iter().map(|(id, _, _)| *id).collect();
        record_screen(rt, rounds, idx, &accepted_ids, &screened.rejected);
        screened
            .accepted
            .into_iter()
            .map(|(_, loss, n)| (loss, n))
            .collect()
    } else {
        let (finite, non_finite): (Vec<_>, Vec<_>) = candidates
            .into_iter()
            .partition(|(_, (l, _))| l.is_finite());
        rounds[idx].non_finite = non_finite.into_iter().map(|(id, _)| id).collect();
        finite.into_iter().map(|(_, loss)| loss).collect()
    };
    rounds[idx].usable = losses.len();
    require_quorum(rounds, idx, losses.len(), policy)?;
    ctx.strategy
        .aggregate_loss(&losses)
        .map_err(EngineError::Federation)
}

/// Fails the round at `idx` — marking it quorum-unmet — when fewer than
/// the policy's `min_responses` of its replies are usable.
pub(crate) fn require_quorum(
    rounds: &mut [RoundReport],
    idx: usize,
    usable: usize,
    policy: &RoundPolicy,
) -> Result<()> {
    let required = policy.min_responses.max(1);
    if usable < required {
        rounds[idx].quorum_met = false;
        return Err(EngineError::Federation(FlError::Quorum {
            healthy: usable,
            required,
        }));
    }
    Ok(())
}
