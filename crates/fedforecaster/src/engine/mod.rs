//! The FedForecaster engine: Algorithm 1 end-to-end over the federated
//! runtime, plus the shared pipeline stages reused by the random-search
//! baseline and the adaptive walk-forward loop.
//!
//! The pipeline is decomposed into stage modules, one public entry point
//! per stage:
//! - [`recommend`] — [`collect_global_meta`], the federated
//!   [`feature_spec`] (lag count and the clients' summed spectra), and
//!   [`run_feature_engineering`] (Phases I–III prep);
//! - [`tune`] — [`evaluate_config`], one federated evaluation per
//!   configuration of the Bayesian optimization loop (Phase III);
//! - [`mod@finalize`] — [`finalize()`], the strategy-driven final fit /
//!   aggregate / test stage (Phase IV);
//! - `rounds` (private) — the policy-bounded round plumbing the stages
//!   share.
//!
//! Every stage takes one per-run [`RoundCtx`]: the runtime, the
//! [`ff_fl::runtime::RoundPolicy`] bounding each round, the log of
//! [`RoundReport`]s, and the robust-aggregation state (update guard,
//! aggregation rule, masking). The engine builds it with
//! [`RoundCtx::new`] from its config; the baselines and tests use
//! [`RoundCtx::strict`], under which every client must reply usably.
//!
//! Kernels inside the stages use the ambient worker count (`FF_THREADS`,
//! [`ff_par::set_global_threads`], [`ff_par::with_threads`]); results are
//! bit-identical at every count.

pub mod finalize;
pub mod recommend;
mod rounds;
pub mod tune;

pub use finalize::{finalize, FinalizeOutcome};
pub use recommend::{collect_global_meta, feature_spec, run_feature_engineering};
pub use rounds::RoundCtx;
pub use tune::evaluate_config;

use crate::aggregate::GlobalModel;
use crate::budget::BudgetTracker;
use crate::ckpt::{
    config_fingerprint, reports_fingerprint, run_fingerprint, trial_config_fingerprint, CkptSink,
    Record, Replay, RuntimeSnapshot,
};
use crate::client::FedForecasterClient;
use crate::config::EngineConfig;
use crate::report::{RoundReport, RunTelemetry};
use crate::search_space::{
    pipeline_of, pipeline_space, table2_space, warm_start_configs, warm_start_pipeline_configs,
};
use crate::{EngineError, Result};
use ff_bayesopt::optimizer::BayesOpt;
use ff_bayesopt::space::Configuration;
use ff_ckpt::{CkptError, CrashPoint};
use ff_fl::client::FlClient;
use ff_fl::health::HealthReport;
use ff_fl::runtime::FederatedRuntime;
use ff_fl::FlError;
use ff_metalearn::metamodel::MetaModel;
use ff_models::zoo::AlgorithmKind;
use ff_timeseries::TimeSeries;
use ff_trace::ClientCommsRow;
use std::time::Duration;

/// Communication spent in one pipeline phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseBytes {
    /// Phase name (`meta_features`, `feature_engineering`, `optimization`,
    /// `finalization`).
    pub phase: &'static str,
    /// Bytes sent server → clients during the phase.
    pub to_clients: usize,
    /// Bytes sent clients → server during the phase.
    pub to_server: usize,
}

/// Outcome of one engine (or baseline) run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Winning algorithm.
    pub best_algorithm: AlgorithmKind,
    /// Winning pipeline structure name, when the run searched composed
    /// pipelines ([`EngineConfig::pipelines`]); `None` for flat runs.
    pub best_pipeline: Option<String>,
    /// Winning configuration.
    pub best_config: Configuration,
    /// Best aggregated validation loss observed during optimization.
    pub best_valid_loss: f64,
    /// Aggregated test MSE of the deployed global model.
    pub test_mse: f64,
    /// The deployed global model.
    pub global_model: GlobalModel,
    /// Number of configurations evaluated.
    pub evaluations: usize,
    /// Aggregated validation loss after each evaluation (for budget sweeps).
    pub loss_history: Vec<f64>,
    /// The meta-model's recommendations (empty for baselines).
    pub recommended: Vec<AlgorithmKind>,
    /// Wall-clock spent in the optimization loop.
    pub elapsed: Duration,
    /// Bytes sent server→clients over the run.
    pub bytes_to_clients: usize,
    /// Bytes sent clients→server over the run.
    pub bytes_to_server: usize,
    /// Per-phase communication breakdown (empty for baselines that do not
    /// track phases).
    pub phase_bytes: Vec<PhaseBytes>,
    /// Per-round fault-tolerance log: participants, responders, dropouts
    /// (empty for baselines that run strict rounds).
    pub rounds: Vec<RoundReport>,
    /// Tuning-loop trials abandoned because the round quorum was unmet.
    /// These consume budget but contribute no loss observation.
    pub failed_trials: usize,
    /// Final per-client health snapshot from the runtime.
    pub health: HealthReport,
    /// Telemetry from the run: `Some` only when the config enabled
    /// [`crate::config::TraceConfig`]; `None` costs nothing.
    pub telemetry: Option<RunTelemetry>,
    /// The deployed ensemble's `(blob, weight)` member set, in reply
    /// order — what [`RunResult::export_artifact`] seals for the serving
    /// layer. Empty for `CoefficientAverage` winners and for baselines
    /// that do not collect members.
    pub ensemble_members: Vec<(Vec<u8>, f64)>,
    /// Lag offsets the surviving engineered schema reads — the serving
    /// recipe for flat (blob-v2) members. Empty when the surviving
    /// schema contains non-lag columns (trend/time/seasonal survived
    /// selection) or the run tracked no selection.
    pub feature_lags: Vec<usize>,
}

impl RunResult {
    /// Seals the run into a serving artifact for
    /// [`ff_serve::ModelStore::publish`]: the winning algorithm and
    /// pipeline names, the flat-member lag recipe, and the deployed
    /// weighted member set. Returns `None` when the run has no members to
    /// serve (a `CoefficientAverage` winner, or a baseline that did not
    /// collect blobs).
    pub fn export_artifact(&self) -> Option<ff_serve::Artifact> {
        if self.ensemble_members.is_empty() {
            return None;
        }
        Some(ff_serve::Artifact {
            algorithm: self.best_algorithm.name().to_string(),
            pipeline: self.best_pipeline.clone(),
            lags: self.feature_lags.clone(),
            members: self
                .ensemble_members
                .iter()
                .map(|(b, w)| (*w, b.clone()))
                .collect(),
        })
    }
}

/// The FedForecaster engine. Borrows the (expensive-to-train) meta-model
/// so many runs — sweeps, repeated seeds — share one offline phase.
pub struct FedForecaster<'m> {
    cfg: EngineConfig,
    meta: &'m MetaModel,
}

impl<'m> FedForecaster<'m> {
    /// Creates an engine with a pre-trained meta-model (Figure 2 offline
    /// phase output).
    pub fn new(cfg: EngineConfig, meta: &'m MetaModel) -> FedForecaster<'m> {
        FedForecaster { cfg, meta }
    }

    /// Runs Algorithm 1 on a federation of private series.
    pub fn run(&self, clients: &[TimeSeries]) -> Result<RunResult> {
        let runtime = build_runtime(clients, &self.cfg)?;
        self.run_on(&runtime)
    }

    /// Runs Algorithm 1 on an existing runtime (lets tests inspect logs).
    pub fn run_on(&self, rt: &FederatedRuntime) -> Result<RunResult> {
        self.run_or_resume(rt, false)
    }

    /// Resumes a crashed run from its checkpoint log and continues to the
    /// bit-identical result the uninterrupted run would have produced.
    /// Requires [`EngineConfig::checkpoint`]; the federation, seed, and
    /// config must match the crashed run (the log's header is verified).
    /// A missing or empty log degrades to a fresh run.
    pub fn resume(&self, clients: &[TimeSeries]) -> Result<RunResult> {
        let runtime = build_runtime(clients, &self.cfg)?;
        self.resume_on(&runtime)
    }

    /// [`FedForecaster::resume`] on an existing runtime.
    pub fn resume_on(&self, rt: &FederatedRuntime) -> Result<RunResult> {
        if self.cfg.checkpoint.is_none() {
            return Err(EngineError::InvalidData(
                "resume requires EngineConfig::checkpoint".into(),
            ));
        }
        self.run_or_resume(rt, true)
    }

    fn run_or_resume(&self, rt: &FederatedRuntime, resuming: bool) -> Result<RunResult> {
        self.cfg.validate()?;
        let par_before = ff_par::stats();
        let workers_before = ff_par::worker_loads();
        let mut ctx = RoundCtx::new(rt, &self.cfg);
        let tracer = self.cfg.trace.tracer();
        if tracer.is_enabled() {
            rt.set_tracer(tracer.clone());
        }
        // Flight recorder: the engine commits one frame per fault-tolerant
        // round report; a distress trigger freezes the ring into a dump.
        let recorder = self.cfg.trace.recorder();
        let mut committed_rounds = 0usize;
        // Exposition endpoint: alive exactly for the duration of the run;
        // dropping the handle at the end of this function stops the
        // listener thread.
        let _expo = match self.cfg.trace.expo_config() {
            Some(expo_cfg) => Some(
                ff_trace::ExpoServer::start(tracer.clone(), expo_cfg).map_err(|e| {
                    EngineError::InvalidData(format!("exposition endpoint failed to bind: {e}"))
                })?,
            ),
            None => None,
        };
        // Checkpoint sink: `None` when disabled — that path allocates
        // nothing and writes nothing. On resume, open the existing log and
        // extract the replay; a fresh run truncates any stale log.
        let (mut ckpt, replay): (Option<CkptSink>, Option<Replay>) = match &self.cfg.checkpoint {
            Some(ck) => {
                let config_fp = config_fingerprint(&self.cfg);
                let n_clients = rt.n_clients() as u32;
                if resuming {
                    let (sink, replay) =
                        CkptSink::resume(ck, self.cfg.seed, config_fp, n_clients, tracer.clone())?;
                    (Some(sink), replay)
                } else {
                    let sink =
                        CkptSink::create(ck, self.cfg.seed, config_fp, n_clients, tracer.clone())?;
                    (Some(sink), None)
                }
            }
            None => (None, None),
        };
        if let Some(rep) = &replay {
            if tracer.is_enabled() {
                tracer.counter_add("ckpt.recoveries", 1);
            }
            recorder.commit_with(|| ff_trace::RoundFrame {
                round: 0,
                phase: "recovery",
                cohort: rt.n_clients() as u64,
                admitted: 0,
                accepted: 0,
                probes: 0,
                rejected: Vec::new(),
                dropouts: Vec::new(),
                quarantined: Vec::new(),
                loss: None,
                quorum_met: true,
                non_finite: false,
                counters: vec![
                    ("replayed_trials", rep.trials.len() as u64),
                    ("replayed_phases", rep.phases.len() as u64),
                ],
            });
        }
        let mut replay_phase_cursor = 0usize;
        let run_span = tracer.span("run");
        let mut phase_bytes = Vec::new();
        let mut phase_mark = rt.log().byte_totals();
        let mut end_phase = |name: &'static str, rt: &FederatedRuntime| {
            let now = rt.log().byte_totals();
            let entry = PhaseBytes {
                phase: name,
                to_clients: now.0 - phase_mark.0,
                to_server: now.1 - phase_mark.1,
            };
            phase_mark = now;
            entry
        };
        // Phase I–II: meta-features → aggregation → recommendation. An
        // explicit portfolio bypasses the meta-model entirely (ablations,
        // forcing one algorithm).
        let phase_span = tracer.span("phase.meta_features");
        let (global, max_len) = collect_global_meta(&mut ctx)?;
        let recommended: Vec<AlgorithmKind> = if let Some(portfolio) = &self.cfg.portfolio {
            portfolio.clone()
        } else if self.cfg.disable_warm_start {
            AlgorithmKind::builtin().to_vec()
        } else {
            self.meta
                .recommend(global.values(), self.cfg.top_k)
                .map_err(EngineError::Model)?
        };
        // Phase III prep: feature engineering with globally agreed params.
        let spec = feature_spec(&mut ctx, &global, max_len, &self.cfg)?;
        phase_bytes.push(end_phase("meta_features", rt));
        commit_round_frames(&recorder, &ctx.rounds, &mut committed_rounds);
        checkpoint_phase(&mut ckpt, &replay, &mut replay_phase_cursor, 0, &ctx.rounds)?;
        drop(phase_span);
        let phase_span = tracer.span("phase.feature_engineering");
        let kept = run_feature_engineering(&mut ctx, &spec, self.cfg.importance_threshold)?;
        // The serving-layer lag recipe: lag columns lead the engineered
        // schema, so when every surviving column is a raw lag the flat
        // (blob-v2) members can be re-fed from series history alone.
        // Any surviving trend/time/seasonal column makes the recipe
        // non-representable; export an empty recipe and let the serving
        // layer refuse flat members with a typed error instead.
        let feature_lags: Vec<usize> = if kept.iter().all(|&j| j < spec.lags.len()) {
            kept.iter().map(|&j| spec.lags[j]).collect()
        } else {
            vec![]
        };
        phase_bytes.push(end_phase("feature_engineering", rt));
        commit_round_frames(&recorder, &ctx.rounds, &mut committed_rounds);
        checkpoint_phase(&mut ckpt, &replay, &mut replay_phase_cursor, 1, &ctx.rounds)?;
        drop(phase_span);

        // Phase III: Bayesian optimization with warm start. The budget T
        // covers the tuning loop (§5.1: "time budget ... for the
        // hyperparameter tuning"); at least one configuration is always
        // evaluated so a result exists even under a degenerate budget.
        // A trial whose round misses its quorum is abandoned — it consumes
        // budget but tells the optimizer nothing — and the run continues.
        let phase_span = tracer.span("phase.optimization");
        // The search space is flat (algorithms only) or composed (pipeline
        // structure × node params × algorithm × algorithm params, with
        // branch dimensions conditionally masked for the surrogate).
        let (space, warm) = match &self.cfg.pipelines {
            Some(pipes) => (
                pipeline_space(&recommended, pipes),
                warm_start_pipeline_configs(&recommended, pipes),
            ),
            None => (table2_space(&recommended), warm_start_configs(&recommended)),
        };
        let mut bo = BayesOpt::new(space, self.cfg.seed).map_err(EngineError::Optimizer)?;
        bo.set_tracer(tracer.clone());
        bo.warm_start(warm);
        let mut loss_history = Vec::new();
        let mut failed_trials = 0usize;
        let mut trial_index = 0u32;
        // Replay recorded trials without any federated round: `ask`
        // regenerates each configuration deterministically (the optimizer's
        // RNG advances only inside `ask`), the recorded fingerprint verifies
        // the match, and `tell` rebuilds the surrogate's observation set.
        if let Some(rep) = &replay {
            for trial in &rep.trials {
                trial_index += 1;
                let config = bo.ask().map_err(EngineError::Optimizer)?;
                let fp = trial_config_fingerprint(&config);
                if fp != trial.config_fp {
                    return Err(EngineError::Checkpoint(CkptError::Corrupt(format!(
                        "replayed trial {trial_index} regenerated a different configuration \
                         ({fp:#018x} vs recorded {:#018x}); the checkpoint belongs to a \
                         different run or optimizer version",
                        trial.config_fp
                    ))));
                }
                match trial.loss {
                    Some(loss) => {
                        bo.tell(&config, loss).map_err(EngineError::Optimizer)?;
                        loss_history.push(loss);
                    }
                    None => failed_trials += 1,
                }
                ctx.rounds.extend(trial.reports.iter().cloned());
                commit_round_frames(&recorder, &ctx.rounds, &mut committed_rounds);
            }
            // Server-side counters the replay cannot recompute restore from
            // the resume point's snapshot. The re-executed setup phases
            // produced byte-for-byte identical traffic, so overwriting the
            // log totals with the recorded post-trial totals keeps the
            // phase accounting exact.
            if let Some(snap) = &rep.snapshot {
                rt.restore_health(&snap.health)?;
                rt.log().restore_totals(&snap.log);
                ctx.guard
                    .restore_history(&snap.guard_norms, &snap.guard_losses);
                failed_trials = snap.failed_trials as usize;
            }
        }
        let mut tracker = match replay.as_ref().and_then(|r| r.snapshot.as_ref()) {
            Some(snap) => BudgetTracker::resume(
                self.cfg.budget,
                Duration::from_micros(snap.consumed_us),
                snap.iterations as usize,
            ),
            None => BudgetTracker::start(self.cfg.budget),
        };
        if tracer.is_enabled() {
            tracer.gauge_set("engine.budget_remaining", tracker.remaining_fraction());
        }
        while tracker.iterations() == 0 || !tracker.exhausted() {
            let trial_span = tracer.span_labeled("trial", tracker.iterations() as u64 + 1);
            let config = bo.ask().map_err(EngineError::Optimizer)?;
            let round_mark = ctx.rounds.len();
            trial_index += 1;
            let trial_loss = match evaluate_config(&mut ctx, &config) {
                Ok(loss) => {
                    bo.tell(&config, loss).map_err(EngineError::Optimizer)?;
                    loss_history.push(loss);
                    Some(loss)
                }
                Err(EngineError::Federation(FlError::Quorum { .. })) => {
                    failed_trials += 1;
                    None
                }
                Err(e) => return Err(e),
            };
            commit_round_frames(&recorder, &ctx.rounds, &mut committed_rounds);
            tracker.record_iteration();
            // One atomic commit point per trial: config fingerprint, loss,
            // the trial's round reports, and the post-trial runtime
            // snapshot land in a single durable record, so there is never
            // torn state between the BO tell and the server counters.
            if let Some(sink) = ckpt.as_mut() {
                let snapshot = RuntimeSnapshot::capture(rt, &ctx.guard, failed_trials, &tracker);
                sink.append(&Record::TrialDone {
                    index: trial_index,
                    config_fp: trial_config_fingerprint(&config),
                    loss: trial_loss,
                    reports: ctx.rounds[round_mark..].to_vec(),
                    snapshot,
                })?;
                // Engine-level injection: die right after the commit became
                // durable, the worst case for double-execution bugs.
                if let Some(CrashPoint::AfterTrial(n)) = sink.crash_point() {
                    if n == trial_index {
                        return Err(EngineError::Checkpoint(CkptError::Crash(
                            CrashPoint::AfterTrial(n),
                        )));
                    }
                }
            }
            drop(trial_span);
            if tracer.is_enabled() {
                tracer.gauge_set("engine.budget_remaining", tracker.remaining_fraction());
            }
        }
        let (best_config, best_valid_loss) = bo
            .best()
            .map(|(c, l)| (c.clone(), l))
            .ok_or_else(|| EngineError::InvalidData("no configuration evaluated".into()))?;
        phase_bytes.push(end_phase("optimization", rt));
        drop(phase_span);

        // Phase IV: final fit, aggregation, test evaluation.
        let phase_span = tracer.span("phase.finalization");
        let FinalizeOutcome {
            global_model,
            test_mse,
            members: ensemble_members,
        } = finalize(&mut ctx, &best_config, self.cfg.tree_aggregation)?;
        phase_bytes.push(end_phase("finalization", rt));
        commit_round_frames(&recorder, &ctx.rounds, &mut committed_rounds);
        drop(phase_span);
        drop(run_span);
        let (bytes_to_clients, bytes_to_server) = rt.log().byte_totals();
        let health = rt.health_report();
        if tracer.is_enabled() {
            let par_now = ff_par::stats();
            tracer.gauge_set("par.workers", ff_par::effective_threads() as f64);
            tracer.counter_add("par.tasks", par_now.tasks.saturating_sub(par_before.tasks));
            tracer.counter_add(
                "par.steal_idle_ms",
                par_now.idle_us.saturating_sub(par_before.idle_us) / 1000,
            );
            tracer.gauge_set("par.queue_depth", par_now.queue_depth as f64);
            tracer.gauge_set("par.queue_peak", par_now.queue_peak as f64);
            // Per-worker task deltas over the run: the pool-balance line
            // in the summary and the profiler's imbalance view read the
            // merged histogram; per-worker labels keep the breakdown.
            let workers_now = ff_par::worker_loads();
            for (w, &now) in workers_now.iter().enumerate() {
                let before = workers_before.get(w).copied().unwrap_or(0);
                let delta = now.saturating_sub(before);
                if delta > 0 {
                    tracer.record_labeled("par.worker_tasks", w as u64, delta as f64);
                }
            }
        }
        let telemetry = tracer.is_enabled().then(|| {
            build_telemetry(
                &tracer,
                rt,
                &health,
                &recorder,
                self.cfg.trace.profile_enabled(),
            )
        });
        let result = RunResult {
            best_algorithm: global_model.algorithm(),
            best_pipeline: pipeline_of(&best_config).map(|p| p.name().to_string()),
            best_config,
            best_valid_loss,
            test_mse,
            global_model,
            evaluations: tracker.iterations(),
            loss_history,
            recommended,
            elapsed: tracker.elapsed(),
            bytes_to_clients,
            bytes_to_server,
            phase_bytes,
            rounds: ctx.rounds,
            failed_trials,
            health,
            telemetry,
            ensemble_members,
            feature_lags,
        };
        if let Some(sink) = ckpt.as_mut() {
            sink.append(&Record::RunDone {
                result_fp: run_fingerprint(&result),
            })?;
        }
        Ok(result)
    }
}

/// Commits (or, on resume, verifies) one setup phase. The resumed run
/// re-executes the phase live — client-side feature state cannot be
/// restored from the server — and the fingerprint over the accumulated
/// round reports proves the re-execution reproduced the recorded one.
///
/// With checkpointing disabled this is a branch and a return: no
/// fingerprint is computed, nothing allocates (asserted by the
/// `ckpt_no_alloc` integration test, which is why this is `pub`).
#[doc(hidden)]
pub fn checkpoint_phase(
    ckpt: &mut Option<CkptSink>,
    replay: &Option<Replay>,
    cursor: &mut usize,
    phase: u8,
    rounds: &[RoundReport],
) -> Result<()> {
    if ckpt.is_none() && replay.is_none() {
        return Ok(());
    }
    let fp = reports_fingerprint(rounds);
    if let Some(rep) = replay {
        if let Some(&(rec_phase, rec_fp)) = rep.phases.get(*cursor) {
            *cursor += 1;
            if rec_phase != phase || rec_fp != fp {
                return Err(EngineError::Checkpoint(CkptError::Corrupt(format!(
                    "re-executed setup phase {phase} diverged from the recorded run \
                     ({fp:#018x} vs recorded {rec_fp:#018x} for phase {rec_phase}); \
                     the federation's data changed since the crash"
                ))));
            }
            return Ok(()); // already durable in the log
        }
    }
    if let Some(sink) = ckpt {
        sink.append(&Record::PhaseDone { phase, fp })?;
    }
    Ok(())
}

/// Maps one fault-tolerant round report to a flight-recorder frame. The
/// frame deliberately carries no wall-clock data so forensic dumps are
/// bit-identical across thread counts and reruns.
fn round_frame(r: &RoundReport) -> ff_trace::RoundFrame {
    ff_trace::RoundFrame {
        round: r.round,
        phase: r.phase,
        cohort: r.participants as u64,
        admitted: r.participants as u64,
        accepted: r.usable as u64,
        probes: 0,
        rejected: r
            .rejected
            .iter()
            .map(|(id, why)| (*id as u64, why.clone()))
            .chain(
                r.non_finite
                    .iter()
                    .map(|id| (*id as u64, "non-finite loss".to_string())),
            )
            .collect(),
        dropouts: r
            .dropouts
            .iter()
            .map(|(id, why)| (*id as u64, why.clone()))
            .chain(
                r.app_errors
                    .iter()
                    .map(|(id, e)| (*id as u64, format!("app error: {e}"))),
            )
            .collect(),
        quarantined: Vec::new(),
        loss: None,
        quorum_met: r.quorum_met,
        non_finite: !r.non_finite.is_empty(),
        counters: vec![("responses", r.responses as u64)],
    }
}

/// Commits every round report past the cursor to the flight recorder.
/// A disabled recorder costs one branch — the frame builder never runs.
fn commit_round_frames(
    recorder: &ff_trace::FlightRecorder,
    rounds: &[RoundReport],
    committed: &mut usize,
) {
    if !recorder.is_enabled() {
        *committed = rounds.len();
        return;
    }
    while *committed < rounds.len() {
        let r = &rounds[*committed];
        *committed += 1;
        recorder.commit_with(|| round_frame(r));
    }
}

/// Assembles the per-client comms table from the message log's exact
/// totals and the health registry, then snapshots the tracer (plus the
/// opt-in profile and flight-recorder contents).
fn build_telemetry(
    tracer: &ff_trace::Tracer,
    rt: &FederatedRuntime,
    health: &HealthReport,
    recorder: &ff_trace::FlightRecorder,
    profile: bool,
) -> RunTelemetry {
    let clients = rt
        .log()
        .client_totals()
        .into_iter()
        .map(|(id, comms)| {
            let snap = health.clients.iter().find(|c| c.client_id == id);
            ClientCommsRow {
                client_id: id as u64,
                bytes_to_client: comms.bytes_to_client as u64,
                bytes_to_server: comms.bytes_to_server as u64,
                messages: comms.messages as u64,
                dropouts: snap.map(|c| c.failures).unwrap_or(0),
                state: snap
                    .map(|c| format!("{:?}", c.state).to_lowercase())
                    .unwrap_or_else(|| "unknown".into()),
            }
        })
        .collect();
    let trace = tracer.snapshot();
    let profile = profile.then(|| ff_trace::Profile::build(&trace));
    RunTelemetry {
        trace,
        clients,
        profile,
        recorder_frames: recorder.frames(),
        recorder_dumps: recorder.dumps(),
    }
}

/// Spawns a runtime from pre-built clients (e.g. clients carrying
/// exogenous covariates via
/// [`FedForecasterClient::with_exogenous`]); pair with
/// [`FedForecaster::run_on`].
pub fn build_runtime_from(clients: Vec<FedForecasterClient>) -> FederatedRuntime {
    let boxed: Vec<Box<dyn FlClient>> = clients
        .into_iter()
        .map(|c| Box::new(c) as Box<dyn FlClient>)
        .collect();
    FederatedRuntime::new(boxed)
}

/// Spawns the federated runtime with one [`FedForecasterClient`] per series.
pub fn build_runtime(clients: &[TimeSeries], cfg: &EngineConfig) -> Result<FederatedRuntime> {
    if clients.is_empty() {
        return Err(EngineError::InvalidData("no clients".into()));
    }
    if let Some(short) = clients.iter().find(|c| c.len() < 30) {
        return Err(EngineError::InvalidData(format!(
            "client split too short: {} points",
            short.len()
        )));
    }
    Ok(build_runtime_from(
        clients
            .iter()
            .map(|s| FedForecasterClient::new(s, cfg.valid_fraction, cfg.test_fraction))
            .collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::config::TreeAggregation;
    use crate::feature_engineering::GlobalFeatureSpec;
    use ff_metalearn::kb::KnowledgeBase;
    use ff_metalearn::metamodel::MetaClassifierKind;
    use ff_metalearn::synth::synthetic_kb;
    use ff_timeseries::synthesis::{generate, SeasonSpec, SynthesisSpec, TrendSpec};

    fn tiny_metamodel() -> MetaModel {
        let kb = KnowledgeBase::build(&synthetic_kb(8), &[2], 50);
        MetaModel::train(&kb, MetaClassifierKind::RandomForest, 0).unwrap()
    }

    fn federation() -> Vec<TimeSeries> {
        let s = generate(
            &SynthesisSpec {
                n: 800,
                trend: TrendSpec::Linear(0.01),
                seasons: vec![SeasonSpec {
                    period: 12.0,
                    amplitude: 2.0,
                }],
                snr: Some(20.0),
                ..Default::default()
            },
            9,
        );
        s.split_clients(3)
    }

    #[test]
    fn full_pipeline_produces_finite_result() {
        let cfg = EngineConfig {
            budget: Budget::Iterations(6),
            ..Default::default()
        };
        let meta = tiny_metamodel();
        let engine = FedForecaster::new(cfg, &meta);
        let result = engine.run(&federation()).unwrap();
        assert!(result.best_valid_loss.is_finite());
        assert!(result.test_mse.is_finite());
        assert_eq!(result.evaluations, 6);
        assert_eq!(result.loss_history.len(), 6);
        assert!(!result.recommended.is_empty());
        assert!(result.bytes_to_server > 0);
    }

    #[test]
    fn engine_beats_mean_predictor() {
        let cfg = EngineConfig {
            budget: Budget::Iterations(8),
            ..Default::default()
        };
        let meta = tiny_metamodel();
        let engine = FedForecaster::new(cfg, &meta);
        let clients = federation();
        let result = engine.run(&clients).unwrap();
        // Mean-forecast baseline on the same test region.
        let mut baseline = 0.0;
        let mut total = 0usize;
        for c in &clients {
            let n = c.len();
            let test_start = (n as f64 * 0.85).round() as usize;
            let train: Vec<f64> = c.values()[..test_start].to_vec();
            let mean = ff_linalg::vector::mean(&train);
            for &v in &c.values()[test_start..] {
                baseline += (v - mean) * (v - mean);
                total += 1;
            }
        }
        baseline /= total as f64;
        assert!(
            result.test_mse < baseline,
            "engine {} vs mean baseline {}",
            result.test_mse,
            baseline
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = EngineConfig {
            budget: Budget::Iterations(4),
            seed: 123,
            ..Default::default()
        };
        let meta = tiny_metamodel();
        let a = FedForecaster::new(cfg.clone(), &meta)
            .run(&federation())
            .unwrap();
        let b = FedForecaster::new(cfg, &meta).run(&federation()).unwrap();
        assert_eq!(a.best_algorithm, b.best_algorithm);
        assert_eq!(a.loss_history, b.loss_history);
        assert!((a.test_mse - b.test_mse).abs() < 1e-12);
    }

    #[test]
    fn ablations_run() {
        let cfg = EngineConfig {
            budget: Budget::Iterations(3),
            disable_feature_engineering: true,
            disable_warm_start: true,
            ..Default::default()
        };
        let meta = tiny_metamodel();
        let result = FedForecaster::new(cfg, &meta).run(&federation()).unwrap();
        assert!(result.test_mse.is_finite());
        assert_eq!(result.recommended.len(), AlgorithmKind::builtin().len());
    }

    #[test]
    fn portfolio_override_restricts_search() {
        let cfg = EngineConfig {
            budget: Budget::Iterations(2),
            portfolio: Some(vec![AlgorithmKind::LASSO]),
            ..Default::default()
        };
        let meta = tiny_metamodel();
        let result = FedForecaster::new(cfg, &meta).run(&federation()).unwrap();
        assert_eq!(result.recommended, vec![AlgorithmKind::LASSO]);
        assert_eq!(result.best_algorithm, AlgorithmKind::LASSO);
        assert!(!result.rounds.is_empty());
        assert!(result.rounds.iter().all(|r| r.quorum_met));
        // A forced linear portfolio deploys one FedAvg-ed affine model.
        match &result.global_model {
            GlobalModel::Linear {
                algorithm, coef, ..
            } => {
                assert_eq!(*algorithm, AlgorithmKind::LASSO);
                assert!(!coef.is_empty());
            }
            other => panic!("expected a linear global model, got {other:?}"),
        }
        // An empty portfolio is a configuration error, not a silent no-op.
        let bad = EngineConfig {
            portfolio: Some(vec![]),
            ..Default::default()
        };
        assert!(FedForecaster::new(bad, &meta).run(&federation()).is_err());
    }

    #[test]
    fn empty_federation_rejected() {
        let meta = tiny_metamodel();
        let engine = FedForecaster::new(EngineConfig::default(), &meta);
        assert!(engine.run(&[]).is_err());
    }

    #[test]
    fn short_client_rejected() {
        let tiny = TimeSeries::with_regular_index(0, 60, vec![1.0; 10]);
        let meta = tiny_metamodel();
        let engine = FedForecaster::new(EngineConfig::default(), &meta);
        assert!(engine.run(&[tiny]).is_err());
    }

    #[test]
    fn phase_byte_accounting_sums_to_totals() {
        let cfg = EngineConfig {
            budget: Budget::Iterations(3),
            ..Default::default()
        };
        let meta = tiny_metamodel();
        let result = FedForecaster::new(cfg, &meta).run(&federation()).unwrap();
        assert_eq!(result.phase_bytes.len(), 4);
        let down: usize = result.phase_bytes.iter().map(|p| p.to_clients).sum();
        let up: usize = result.phase_bytes.iter().map(|p| p.to_server).sum();
        assert_eq!(down, result.bytes_to_clients);
        assert_eq!(up, result.bytes_to_server);
        // Every phase actually communicates.
        for p in &result.phase_bytes {
            assert!(p.to_clients > 0, "{} sent nothing down", p.phase);
            assert!(p.to_server > 0, "{} sent nothing up", p.phase);
        }
        // Optimization dominates downstream traffic relative to the
        // meta-feature phase only when budgets are large; just check order
        // of phases is stable.
        assert_eq!(result.phase_bytes[0].phase, "meta_features");
        assert_eq!(result.phase_bytes[3].phase, "finalization");
    }

    #[test]
    fn forced_xgb_finalize_builds_ensemble_union() {
        use ff_bayesopt::space::{Configuration, ParamValue};
        let clients = federation();
        let cfg = EngineConfig::default();
        let rt = build_runtime(&clients, &cfg).unwrap();
        let mut ctx = RoundCtx::strict(&rt);
        let spec = GlobalFeatureSpec::lags_only(4);
        run_feature_engineering(&mut ctx, &spec, 0.95).unwrap();
        let mut config = Configuration::new();
        config.insert("algorithm".into(), ParamValue::Cat("XGBRegressor".into()));
        let union = finalize(&mut ctx, &config, TreeAggregation::EnsembleUnion).unwrap();
        assert!(union.test_mse.is_finite());
        match union.global_model {
            GlobalModel::Ensemble { algorithm, members } => {
                assert_eq!(algorithm, AlgorithmKind::XGB_REGRESSOR);
                assert_eq!(members, clients.len());
            }
            other => panic!("expected ensemble union, got {other:?}"),
        }
        // PerClient mode still works on the same runtime.
        let local = finalize(&mut ctx, &config, TreeAggregation::PerClient).unwrap();
        assert!(matches!(local.global_model, GlobalModel::PerClient { .. }));
        assert!(local.test_mse.is_finite());
    }

    #[test]
    fn auto_aggregation_avoids_biased_union_on_trending_non_iid_data() {
        use ff_bayesopt::space::{Configuration, ParamValue};
        // A strong trend split by time ⇒ clients live at disjoint levels;
        // the tree union cannot extrapolate and must be rejected by the
        // validation comparison.
        let series = generate(
            &SynthesisSpec {
                n: 800,
                trend: TrendSpec::Linear(0.2),
                snr: Some(50.0),
                ..Default::default()
            },
            77,
        );
        let clients = series.split_clients(4);
        let cfg = EngineConfig::default();
        let rt = build_runtime(&clients, &cfg).unwrap();
        let mut ctx = RoundCtx::strict(&rt);
        run_feature_engineering(&mut ctx, &GlobalFeatureSpec::lags_only(4), 0.95).unwrap();
        let mut config = Configuration::new();
        config.insert("algorithm".into(), ParamValue::Cat("XGBRegressor".into()));
        let auto = finalize(&mut ctx, &config, TreeAggregation::Auto).unwrap();
        let model = auto.global_model;
        let auto_mse = auto.test_mse;
        assert!(
            matches!(model, GlobalModel::PerClient { .. }),
            "auto mode should reject the biased union, got {model:?}"
        );
        // And the auto choice should not be worse than the forced union.
        let union_mse = finalize(&mut ctx, &config, TreeAggregation::EnsembleUnion)
            .unwrap()
            .test_mse;
        assert!(
            auto_mse <= union_mse * 1.01,
            "auto {auto_mse} vs forced union {union_mse}"
        );
    }

    #[test]
    fn lag_count_derivation_is_clamped() {
        let clients = federation();
        let cfg = EngineConfig::default();
        let rt = build_runtime(&clients, &cfg).unwrap();
        let (global, max_len) = collect_global_meta(&mut RoundCtx::strict(&rt)).unwrap();
        let lags = recommend::derive_lag_count(&global, 10);
        assert!((3..=10).contains(&lags));
        assert!(max_len > 0);
    }
}
