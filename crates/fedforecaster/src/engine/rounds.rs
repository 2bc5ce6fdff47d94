//! Policy-bounded round plumbing shared by every pipeline stage.
//!
//! Every stage drives the protocol through [`FederatedRuntime::run_round`]
//! under the context's [`RoundPolicy`]: each collect is bounded by the
//! policy deadline, clients that time out, panic, or reply garbage become
//! recorded dropouts, and the stage proceeds with whichever healthy subset
//! remains (FedAvg and Equation 1 renormalize over survivors
//! automatically). The strict context demands a usable reply from every
//! client instead.

use crate::config::EngineConfig;
use crate::report::RoundReport;
use crate::{EngineError, Result};
use ff_fl::config::ConfigMap;
use ff_fl::message::{Instruction, Reply};
use ff_fl::robust::{AggregationStrategy, RejectReason, UpdateGuard};
use ff_fl::runtime::{FederatedRuntime, RoundOutcome, RoundPolicy};
use ff_fl::FlError;

/// The per-run round context every stage takes: the federation, the
/// policy bounding each round, the log of [`RoundReport`]s the rounds
/// append to, and the robust-aggregation state — which aggregation rule
/// to apply, the stateful pre-aggregation screen (its running medians
/// span rounds), and whether the final linear fit must go through
/// pairwise masking. Under FedAvg every stage takes its plain path.
pub struct RoundCtx<'rt> {
    /// The federation the rounds run on.
    pub(crate) rt: &'rt FederatedRuntime,
    /// Deadline, quorum and retries applied to every round.
    pub(crate) policy: RoundPolicy,
    /// One report per round, in round order.
    pub(crate) rounds: Vec<RoundReport>,
    /// The server-side aggregation rule.
    pub(crate) strategy: AggregationStrategy,
    /// Stateful screen applied to every reply before robust aggregation.
    pub(crate) guard: UpdateGuard,
    /// Mask the final-fit coefficient uploads (FedAvg only; enforced by
    /// [`EngineConfig::validate`]).
    pub(crate) secure: bool,
}

impl<'rt> RoundCtx<'rt> {
    /// The engine's context, built from a validated engine config.
    pub fn new(rt: &'rt FederatedRuntime, cfg: &EngineConfig) -> RoundCtx<'rt> {
        RoundCtx {
            rt,
            policy: cfg.round_policy.clone(),
            rounds: Vec::new(),
            strategy: cfg.aggregation,
            guard: UpdateGuard::new(cfg.guard),
            secure: cfg.secure_aggregation,
        }
    }

    /// The baselines' context: every round blocks until every client
    /// replies and fails unless all of them replied usably; plain FedAvg,
    /// no screening, no masking.
    pub fn strict(rt: &'rt FederatedRuntime) -> RoundCtx<'rt> {
        RoundCtx {
            rt,
            policy: RoundPolicy {
                deadline: None,
                min_responses: rt.n_clients(),
                ..RoundPolicy::default()
            },
            rounds: Vec::new(),
            strategy: AggregationStrategy::FedAvg,
            guard: UpdateGuard::new(Default::default()),
            secure: false,
        }
    }

    /// Feeds guard verdicts back into the health registry and the round
    /// report at `idx`: every rejection escalates the client's integrity
    /// streak (and bumps the `fl.updates_rejected` counter via the
    /// runtime); every acceptance clears it.
    pub(crate) fn record_screen(
        &mut self,
        idx: usize,
        accepted: &[usize],
        rejected: &[(usize, RejectReason)],
    ) {
        for id in accepted {
            self.rt.record_update_accepted(*id);
        }
        for (id, why) in rejected {
            self.rt.record_update_rejected(*id);
            self.rounds[idx].rejected.push((*id, why.to_string()));
        }
    }

    /// Runs one policy-bounded round and appends its [`RoundReport`].
    /// Returns the outcome plus the report's index so the caller can amend
    /// the app-level fields (`usable`, `app_errors`, `non_finite`).
    pub(crate) fn round(
        &mut self,
        phase: &'static str,
        ins: &Instruction,
    ) -> Result<(RoundOutcome, usize)> {
        match self.rt.run_round(ins, &self.policy) {
            Ok(outcome) => {
                self.rounds.push(RoundReport {
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
                Ok((outcome, self.rounds.len() - 1))
            }
            Err(e) => {
                if let FlError::Quorum { healthy, .. } = &e {
                    self.rounds.push(RoundReport {
                        phase,
                        round: self.rt.health_report().rounds,
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

    /// Runs one policy-bounded round and sorts its replies: `accept` maps
    /// a reply to a usable value or to the reason it is unusable, which
    /// becomes the client's application error. Sets the report's `usable`
    /// count and returns the usable values in client order plus the
    /// report's index.
    pub(crate) fn usable_round<T>(
        &mut self,
        phase: &'static str,
        ins: &Instruction,
        mut accept: impl FnMut(Reply) -> std::result::Result<T, String>,
    ) -> Result<(Vec<(usize, T)>, usize)> {
        let (outcome, idx) = self.round(phase, ins)?;
        let mut usable = Vec::new();
        for (id, reply) in outcome.replies {
            match accept(reply) {
                Ok(value) => usable.push((id, value)),
                Err(why) => self.rounds[idx].app_errors.push((id, why)),
            }
        }
        self.rounds[idx].usable = usable.len();
        Ok((usable, idx))
    }

    /// One Evaluate round aggregated by Equation 1 over the finite
    /// survivor losses (or the configured robust loss rule when the
    /// context is robust). Takes ownership of `params` — callers that
    /// still need the vector extract what they keep *before* handing it
    /// over rather than cloning a full model copy per evaluation.
    pub(crate) fn eval_round(&mut self, params: Vec<f64>, op_config: ConfigMap) -> Result<f64> {
        let ins = Instruction::Evaluate {
            params,
            config: op_config,
        };
        let (candidates, idx) = self.usable_round("finalization", &ins, |r| match r {
            Reply::EvaluateRes {
                loss, num_examples, ..
            } => Ok((loss, num_examples)),
            other => Err(unexpected(other)),
        })?;
        self.aggregate_losses(candidates, idx)
    }

    /// Aggregates one round's `(client_id, (loss, num_examples))`
    /// candidates. Robust contexts screen every candidate — non-finite
    /// included — through the guard, whose verdicts feed the health
    /// registry; otherwise non-finite losses are excluded (recorded, not
    /// escalated) and the rest aggregate by Equation 1. Fails with
    /// [`FlError::Quorum`] when fewer than `min_responses` losses remain.
    pub(crate) fn aggregate_losses(
        &mut self,
        candidates: Vec<(usize, (f64, u64))>,
        idx: usize,
    ) -> Result<f64> {
        let losses: Vec<(f64, u64)> = if self.strategy.is_robust() {
            let candidates = candidates.into_iter().map(|(id, (l, n))| (id, l, n));
            let screened = self.guard.screen_losses(candidates.collect());
            let accepted_ids: Vec<usize> = screened.accepted.iter().map(|(id, _, _)| *id).collect();
            self.record_screen(idx, &accepted_ids, &screened.rejected);
            screened
                .accepted
                .into_iter()
                .map(|(_, loss, n)| (loss, n))
                .collect()
        } else {
            let (finite, non_finite): (Vec<_>, Vec<_>) = candidates
                .into_iter()
                .partition(|(_, (l, _))| l.is_finite());
            self.rounds[idx].non_finite = non_finite.into_iter().map(|(id, _)| id).collect();
            finite.into_iter().map(|(_, loss)| loss).collect()
        };
        self.rounds[idx].usable = losses.len();
        self.require_quorum(idx, losses.len())?;
        self.strategy
            .aggregate_loss(&losses)
            .map_err(EngineError::Federation)
    }

    /// Fails the round at `idx` — marking it quorum-unmet — when fewer
    /// than the policy's `min_responses` of its replies are usable.
    pub(crate) fn require_quorum(&mut self, idx: usize, usable: usize) -> Result<()> {
        let required = self.policy.min_responses.max(1);
        if usable < required {
            self.rounds[idx].quorum_met = false;
            return Err(EngineError::Federation(FlError::Quorum {
                healthy: usable,
                required,
            }));
        }
        Ok(())
    }
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
