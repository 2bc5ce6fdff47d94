//! Durable run checkpointing: the engine-side record codec and sink over
//! the [`ff_ckpt`] write-ahead log (see DESIGN.md §16).
//!
//! Every commit point of a run appends one [`Record`]: the run header,
//! each setup-phase completion, each finished trial (bundled with a
//! [`RuntimeSnapshot`] of the server-side counters so resume can
//! fast-forward them), and the run footer. The log is only appended to,
//! except that [`CkptSink::resume`] cuts a torn tail and the footer of a
//! completed run. [`crate::engine::FedForecaster::resume_on`] replays the
//! log: setup phases re-execute live (client-side feature state is a pure
//! function of the data and the recorded phase fingerprints verify the
//! match), recorded trials replay as `ask`/`tell` pairs without any
//! federated round, the runtime counters restore from the last snapshot,
//! and the run continues to a bit-identical [`crate::engine::RunResult`].
//!
//! Everything here is `Option`-gated by
//! [`crate::config::EngineConfig::checkpoint`]: a `None` config never
//! constructs a sink, so the disabled path costs zero bytes and zero
//! allocations.

use crate::config::CkptConfig;
use crate::report::RoundReport;
use crate::{EngineError, Result};
use ff_ckpt::{read_wal, CkptError, CrashPoint, Wal, FRAME_HEADER};
use ff_fl::health::{ClientHealthState, ClientState, HealthState};
use ff_fl::log::{ClientComms, LogTotals};
use ff_models::ser::{Reader, SerError, Writer};
use ff_trace::Tracer;

/// Engine record-format version inside the WAL payloads (the WAL frames
/// themselves are versioned separately by [`ff_ckpt::MAGIC`]).
pub const FORMAT: u32 = 2;

const MAX_VEC: usize = 1 << 20;
const MAX_STR: usize = 1 << 14;

fn bad(e: SerError) -> CkptError {
    CkptError::Corrupt(format!("undecodable checkpoint record: {e}"))
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

/// FNV-1a over a byte string: tiny, stable across platforms and Rust
/// versions (unlike `DefaultHasher`), and collision-resistant enough for
/// mismatch *detection* — these fingerprints gate nothing secret.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Fingerprint of the run-defining configuration fields. Deliberately
/// excludes execution-environment knobs that may differ between the
/// crashed run and the resume — observability (`trace`) and the
/// checkpoint config itself — since the engine is bit-identical across
/// them (and across worker counts, which no config field sets).
pub fn config_fingerprint(cfg: &crate::config::EngineConfig) -> u64 {
    let canon = format!(
        "{}|{:?}|{}|{}|{}|{}|{}|{}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}",
        cfg.seed,
        cfg.budget,
        cfg.top_k,
        cfg.valid_fraction,
        cfg.test_fraction,
        cfg.max_lags,
        cfg.max_seasonal_components,
        cfg.importance_threshold,
        cfg.disable_feature_engineering,
        cfg.disable_warm_start,
        cfg.tree_aggregation,
        cfg.round_policy,
        cfg.portfolio,
        cfg.pipelines,
        cfg.aggregation,
        cfg.guard,
        cfg.secure_aggregation,
    );
    fnv1a64(canon.as_bytes())
}

/// Fingerprint of one BO configuration (a `BTreeMap`, so the `Debug`
/// rendering is deterministically ordered).
pub fn trial_config_fingerprint(config: &ff_bayesopt::space::Configuration) -> u64 {
    fnv1a64(format!("{config:?}").as_bytes())
}

/// Fingerprint of every deterministic field of a finished run — the
/// bit-identity witness of the crash-recovery tests. Wall-clock
/// (`elapsed`) and telemetry are excluded; everything else, down to the
/// per-round reports and health counters, participates.
pub fn run_fingerprint(r: &crate::engine::RunResult) -> u64 {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = write!(
        s,
        "{:?}|{:?}|{:?}|{:016x}|{:016x}|{:?}|{}|",
        r.best_algorithm,
        r.best_pipeline,
        r.best_config,
        r.best_valid_loss.to_bits(),
        r.test_mse.to_bits(),
        r.global_model,
        r.evaluations,
    );
    for l in &r.loss_history {
        let _ = write!(s, "{:016x},", l.to_bits());
    }
    let _ = write!(
        s,
        "|{:?}|{}|{}|{:?}|{}|{:?}|{:?}",
        r.recommended,
        r.bytes_to_clients,
        r.bytes_to_server,
        r.phase_bytes,
        r.failed_trials,
        r.rounds,
        r.health,
    );
    fnv1a64(s.as_bytes())
}

/// Fingerprint of a slice of round reports via the binary codec — used
/// to verify that a re-executed setup phase reproduced the recorded run.
pub fn reports_fingerprint(reports: &[RoundReport]) -> u64 {
    let mut w = Writer::new();
    for r in reports {
        enc_report(&mut w, r);
    }
    fnv1a64(&w.finish())
}

// ---------------------------------------------------------------------------
// Runtime snapshot
// ---------------------------------------------------------------------------

/// The server-side state a resumed run cannot recompute by replay alone:
/// health-registry streaks and probe schedules, exact message-log totals,
/// the update guard's median history, the failed-trial count, and the
/// budget already consumed. Captured after every trial commit; restored
/// once, at the resume point.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeSnapshot {
    /// Trials abandoned for unmet quorum so far.
    pub failed_trials: u32,
    /// Wall-clock consumed by the tuning loop so far, in microseconds.
    pub consumed_us: u64,
    /// Tuning iterations recorded so far (successful + failed).
    pub iterations: u32,
    /// Full health-registry state.
    pub health: HealthState,
    /// Exact message-log totals.
    pub log: LogTotals,
    /// Update-guard norm-median history (oldest first).
    pub guard_norms: Vec<f64>,
    /// Update-guard loss-median history (oldest first).
    pub guard_losses: Vec<f64>,
}

impl RuntimeSnapshot {
    /// Captures the current server-side state of a live run.
    pub fn capture(
        rt: &ff_fl::runtime::FederatedRuntime,
        guard: &ff_fl::robust::UpdateGuard,
        failed_trials: usize,
        tracker: &crate::budget::BudgetTracker,
    ) -> RuntimeSnapshot {
        let (consumed, iterations) = tracker.consumed();
        let (guard_norms, guard_losses) = guard.history();
        RuntimeSnapshot {
            failed_trials: failed_trials as u32,
            consumed_us: consumed.as_micros() as u64,
            iterations: iterations as u32,
            health: rt.export_health(),
            log: rt.log().export_totals(),
            guard_norms,
            guard_losses,
        }
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One durable commit point. The WAL stores each record as an opaque
/// CRC-framed payload; this enum is the payload codec.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Run header: identifies the run a log belongs to. A resume whose
    /// seed, config fingerprint, or client count differs is refused.
    RunStart {
        /// Engine RNG seed.
        seed: u64,
        /// [`config_fingerprint`] of the engine config.
        config_fp: u64,
        /// Number of federated clients.
        n_clients: u32,
    },
    /// A setup phase completed; `fp` fingerprints the round reports
    /// accumulated so far so resume can verify its re-execution.
    PhaseDone {
        /// 1 = meta-features + spec agreement, 2 = feature engineering.
        phase: u8,
        /// [`reports_fingerprint`] over all reports at phase end.
        fp: u64,
    },
    /// One tuning trial committed: the asked config's fingerprint, the
    /// observed loss (`None` for a quorum-failed trial), the round
    /// reports the trial appended, and the post-trial runtime snapshot.
    /// This is the atomic unit of resume — there is no torn state
    /// between a trial's BO tell and its counters.
    TrialDone {
        /// 1-based trial index (failed trials count).
        index: u32,
        /// [`trial_config_fingerprint`] of the asked configuration.
        config_fp: u64,
        /// Aggregated validation loss, or `None` if the quorum failed.
        loss: Option<f64>,
        /// Round reports appended by this trial.
        reports: Vec<RoundReport>,
        /// Post-trial server state; resume restores the last trial's.
        snapshot: RuntimeSnapshot,
    },
    /// Run footer: the [`run_fingerprint`] of the returned result.
    RunDone {
        /// Fingerprint of the final [`crate::engine::RunResult`].
        result_fp: u64,
    },
}

fn phase_tag(phase: &str) -> u8 {
    match phase {
        "meta_features" => 0,
        "feature_engineering" => 1,
        "optimization" => 2,
        "finalization" => 3,
        _ => u8::MAX,
    }
}

fn phase_name(tag: u8) -> ff_ckpt::Result<&'static str> {
    Ok(match tag {
        0 => "meta_features",
        1 => "feature_engineering",
        2 => "optimization",
        3 => "finalization",
        t => return Err(CkptError::Corrupt(format!("unknown phase tag {t}"))),
    })
}

fn enc_id_msgs(w: &mut Writer, v: &[(usize, String)]) {
    w.u32(v.len() as u32);
    for (id, msg) in v {
        w.u32(*id as u32);
        w.str(msg);
    }
}

fn dec_id_msgs(r: &mut Reader<'_>) -> ff_ckpt::Result<Vec<(usize, String)>> {
    let n = r.u32().map_err(bad)? as usize;
    if n > MAX_VEC {
        return Err(bad(SerError::BadLength(n as u64)));
    }
    let mut v = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let id = r.u32().map_err(bad)? as usize;
        let msg = r.str(MAX_STR).map_err(bad)?.to_string();
        v.push((id, msg));
    }
    Ok(v)
}

fn enc_report(w: &mut Writer, r: &RoundReport) {
    w.u8(phase_tag(r.phase));
    w.u64(r.round);
    w.u32(r.participants as u32);
    w.u32(r.responses as u32);
    w.u32(r.usable as u32);
    enc_id_msgs(w, &r.dropouts);
    enc_id_msgs(w, &r.app_errors);
    w.u32(r.non_finite.len() as u32);
    for &id in &r.non_finite {
        w.u32(id as u32);
    }
    enc_id_msgs(w, &r.rejected);
    w.u8(r.quorum_met as u8);
}

fn dec_report(r: &mut Reader<'_>) -> ff_ckpt::Result<RoundReport> {
    let phase = phase_name(r.u8().map_err(bad)?)?;
    let round = r.u64().map_err(bad)?;
    let participants = r.u32().map_err(bad)? as usize;
    let responses = r.u32().map_err(bad)? as usize;
    let usable = r.u32().map_err(bad)? as usize;
    let dropouts = dec_id_msgs(r)?;
    let app_errors = dec_id_msgs(r)?;
    let n = r.u32().map_err(bad)? as usize;
    if n > MAX_VEC {
        return Err(bad(SerError::BadLength(n as u64)));
    }
    let mut non_finite = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        non_finite.push(r.u32().map_err(bad)? as usize);
    }
    let rejected = dec_id_msgs(r)?;
    let quorum_met = r.u8().map_err(bad)? != 0;
    Ok(RoundReport {
        phase,
        round,
        participants,
        responses,
        usable,
        dropouts,
        app_errors,
        non_finite,
        rejected,
        quorum_met,
    })
}

fn enc_snapshot(w: &mut Writer, s: &RuntimeSnapshot) {
    w.u32(s.failed_trials);
    w.u64(s.consumed_us);
    w.u32(s.iterations);
    w.u64(s.health.round);
    w.u32(s.health.clients.len() as u32);
    for c in &s.health.clients {
        w.u8(match c.state {
            ClientState::Healthy => 0,
            ClientState::Suspect => 1,
            ClientState::Quarantined => 2,
        });
        w.u32(c.consecutive_failures);
        w.u64(c.successes);
        w.u64(c.failures);
        w.u64(c.byzantine);
        w.u32(c.consecutive_rejections);
        w.u32(c.probe_level);
        w.u64(c.next_probe_round);
    }
    w.u64(s.log.recorded as u64);
    w.u64(s.log.to_client_bytes as u64);
    w.u64(s.log.to_server_bytes as u64);
    w.u32(s.log.per_client.len() as u32);
    for (id, c) in &s.log.per_client {
        w.u64(*id as u64);
        w.u64(c.bytes_to_client as u64);
        w.u64(c.bytes_to_server as u64);
        w.u64(c.messages as u64);
    }
    w.f64s(&s.guard_norms);
    w.f64s(&s.guard_losses);
}

fn dec_snapshot(r: &mut Reader<'_>) -> ff_ckpt::Result<RuntimeSnapshot> {
    let failed_trials = r.u32().map_err(bad)?;
    let consumed_us = r.u64().map_err(bad)?;
    let iterations = r.u32().map_err(bad)?;
    let round = r.u64().map_err(bad)?;
    let n = r.u32().map_err(bad)? as usize;
    if n > MAX_VEC {
        return Err(bad(SerError::BadLength(n as u64)));
    }
    let mut clients = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let state = match r.u8().map_err(bad)? {
            0 => ClientState::Healthy,
            1 => ClientState::Suspect,
            2 => ClientState::Quarantined,
            t => return Err(bad(SerError::BadTag(t))),
        };
        clients.push(ClientHealthState {
            state,
            consecutive_failures: r.u32().map_err(bad)?,
            successes: r.u64().map_err(bad)?,
            failures: r.u64().map_err(bad)?,
            byzantine: r.u64().map_err(bad)?,
            consecutive_rejections: r.u32().map_err(bad)?,
            probe_level: r.u32().map_err(bad)?,
            next_probe_round: r.u64().map_err(bad)?,
        });
    }
    let recorded = r.u64().map_err(bad)? as usize;
    let to_client_bytes = r.u64().map_err(bad)? as usize;
    let to_server_bytes = r.u64().map_err(bad)? as usize;
    let m = r.u32().map_err(bad)? as usize;
    if m > MAX_VEC {
        return Err(bad(SerError::BadLength(m as u64)));
    }
    let mut per_client = Vec::with_capacity(m.min(1024));
    for _ in 0..m {
        let id = r.u64().map_err(bad)? as usize;
        per_client.push((
            id,
            ClientComms {
                bytes_to_client: r.u64().map_err(bad)? as usize,
                bytes_to_server: r.u64().map_err(bad)? as usize,
                messages: r.u64().map_err(bad)? as usize,
            },
        ));
    }
    let guard_norms = r.f64s(MAX_VEC).map_err(bad)?;
    let guard_losses = r.f64s(MAX_VEC).map_err(bad)?;
    Ok(RuntimeSnapshot {
        failed_trials,
        consumed_us,
        iterations,
        health: HealthState { round, clients },
        log: LogTotals {
            recorded,
            to_client_bytes,
            to_server_bytes,
            per_client,
        },
        guard_norms,
        guard_losses,
    })
}

impl Record {
    /// Encodes the record into a WAL payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(FORMAT);
        match self {
            Record::RunStart {
                seed,
                config_fp,
                n_clients,
            } => {
                w.u8(0);
                w.u64(*seed);
                w.u64(*config_fp);
                w.u32(*n_clients);
            }
            Record::PhaseDone { phase, fp } => {
                w.u8(1);
                w.u8(*phase);
                w.u64(*fp);
            }
            Record::TrialDone {
                index,
                config_fp,
                loss,
                reports,
                snapshot,
            } => {
                w.u8(2);
                w.u32(*index);
                w.u64(*config_fp);
                match loss {
                    Some(l) => {
                        w.u8(1);
                        w.f64(*l);
                    }
                    None => w.u8(0),
                }
                w.u32(reports.len() as u32);
                for rep in reports {
                    enc_report(&mut w, rep);
                }
                enc_snapshot(&mut w, snapshot);
            }
            Record::RunDone { result_fp } => {
                w.u8(3);
                w.u64(*result_fp);
            }
        }
        w.finish()
    }

    /// Decodes a WAL payload. Any structural defect — wrong format
    /// version, unknown tag, truncation, implausible length, bytes left
    /// after the record — is a [`CkptError::Corrupt`], never a panic or
    /// unbounded allocation.
    pub fn decode(payload: &[u8]) -> ff_ckpt::Result<Record> {
        let mut r = Reader::new(payload);
        let format = r.u32().map_err(bad)?;
        if format != FORMAT {
            return Err(CkptError::Corrupt(format!(
                "checkpoint record format {format}, expected {FORMAT}"
            )));
        }
        let rec = match r.u8().map_err(bad)? {
            0 => Record::RunStart {
                seed: r.u64().map_err(bad)?,
                config_fp: r.u64().map_err(bad)?,
                n_clients: r.u32().map_err(bad)?,
            },
            1 => Record::PhaseDone {
                phase: r.u8().map_err(bad)?,
                fp: r.u64().map_err(bad)?,
            },
            2 => {
                let index = r.u32().map_err(bad)?;
                let config_fp = r.u64().map_err(bad)?;
                let loss = match r.u8().map_err(bad)? {
                    0 => None,
                    _ => Some(r.f64().map_err(bad)?),
                };
                let n = r.u32().map_err(bad)? as usize;
                if n > MAX_VEC {
                    return Err(bad(SerError::BadLength(n as u64)));
                }
                let mut reports = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    reports.push(dec_report(&mut r)?);
                }
                Record::TrialDone {
                    index,
                    config_fp,
                    loss,
                    reports,
                    snapshot: dec_snapshot(&mut r)?,
                }
            }
            3 => Record::RunDone {
                result_fp: r.u64().map_err(bad)?,
            },
            t => return Err(CkptError::Corrupt(format!("unknown record tag {t}"))),
        };
        if !r.is_exhausted() {
            return Err(CkptError::Corrupt(format!(
                "{} trailing bytes after a checkpoint record",
                r.remaining()
            )));
        }
        Ok(rec)
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// One recorded trial, ready to replay against a fresh optimizer.
#[derive(Debug, Clone)]
pub struct ReplayTrial {
    /// Fingerprint the regenerated `ask` must match.
    pub config_fp: u64,
    /// The loss to `tell` (skipped for quorum-failed trials).
    pub loss: Option<f64>,
    /// Round reports to splice back into the run's report history.
    pub reports: Vec<RoundReport>,
}

/// What a valid checkpoint log contributes to a resumed run.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Recorded `(phase_tag, fingerprint)` pairs, in commit order. The
    /// resumed run re-executes each phase live and verifies its
    /// fingerprint against the recorded one.
    pub phases: Vec<(u8, u64)>,
    /// Trials up to (and including) the resume point.
    pub trials: Vec<ReplayTrial>,
    /// Server-state snapshot at the resume point (`None` when the crash
    /// predates the first committed trial).
    pub snapshot: Option<RuntimeSnapshot>,
}

// ---------------------------------------------------------------------------
// Sink
// ---------------------------------------------------------------------------

/// The engine's handle on the checkpoint log: encodes records, appends
/// them durably, and tracks the `ckpt.records` / `ckpt.bytes` counters.
pub struct CkptSink {
    wal: Wal,
    tracer: Tracer,
}

impl CkptSink {
    /// Creates a fresh log (truncating any previous one) and writes the
    /// run header.
    pub fn create(
        cfg: &CkptConfig,
        seed: u64,
        config_fp: u64,
        n_clients: u32,
        tracer: Tracer,
    ) -> Result<CkptSink> {
        let mut wal = Wal::create(&cfg.path).map_err(EngineError::Checkpoint)?;
        wal.arm_crash(cfg.crash);
        let mut sink = CkptSink { wal, tracer };
        sink.append(&Record::RunStart {
            seed,
            config_fp,
            n_clients,
        })?;
        Ok(sink)
    }

    /// Opens an existing log for resume. Returns the sink positioned
    /// after the resume point plus the [`Replay`] to apply. A missing or
    /// empty log degrades to a fresh run (`Replay` = `None`); a log whose
    /// header does not match this run's seed / config / client count is
    /// refused.
    ///
    /// The resume point is the last phase or trial record. Only the run
    /// footer of a completed run can follow it; [`Wal::open_append`] cuts
    /// it, with any torn tail, and the resumed run commits a new one.
    pub fn resume(
        cfg: &CkptConfig,
        seed: u64,
        config_fp: u64,
        n_clients: u32,
        tracer: Tracer,
    ) -> Result<(CkptSink, Option<Replay>)> {
        if !cfg.path.exists() {
            return Ok((Self::create(cfg, seed, config_fp, n_clients, tracer)?, None));
        }
        let read = read_wal(&cfg.path).map_err(EngineError::Checkpoint)?;
        if read.records.is_empty() {
            return Ok((Self::create(cfg, seed, config_fp, n_clients, tracer)?, None));
        }
        let decoded: Vec<Record> = read
            .records
            .iter()
            .map(|p| Record::decode(p))
            .collect::<ff_ckpt::Result<_>>()
            .map_err(EngineError::Checkpoint)?;
        match decoded[0] {
            Record::RunStart {
                seed: s,
                config_fp: fp,
                n_clients: n,
            } => {
                if s != seed || fp != config_fp || n != n_clients {
                    return Err(EngineError::Checkpoint(CkptError::Corrupt(format!(
                        "checkpoint belongs to a different run: log has \
                         (seed {s}, config {fp:#018x}, {n} clients), this run is \
                         (seed {seed}, config {config_fp:#018x}, {n_clients} clients)"
                    ))));
                }
            }
            _ => {
                return Err(EngineError::Checkpoint(CkptError::Corrupt(
                    "checkpoint log does not start with a run header".into(),
                )))
            }
        }
        let keep = decoded
            .iter()
            .rposition(|r| matches!(r, Record::PhaseDone { .. } | Record::TrialDone { .. }))
            .map_or(1, |i| i + 1);
        let mut wal = Wal::open_append(&cfg.path, read.prefix_len(keep), keep as u64)
            .map_err(EngineError::Checkpoint)?;
        wal.arm_crash(cfg.crash);
        let mut replay = Replay {
            phases: Vec::new(),
            trials: Vec::new(),
            snapshot: None,
        };
        for rec in decoded.into_iter().take(keep) {
            match rec {
                Record::PhaseDone { phase, fp } => replay.phases.push((phase, fp)),
                Record::TrialDone {
                    config_fp,
                    loss,
                    reports,
                    snapshot,
                    ..
                } => {
                    replay.snapshot = Some(snapshot);
                    replay.trials.push(ReplayTrial {
                        config_fp,
                        loss,
                        reports,
                    });
                }
                Record::RunStart { .. } | Record::RunDone { .. } => {}
            }
        }
        Ok((CkptSink { wal, tracer }, Some(replay)))
    }

    /// Appends one record durably.
    pub fn append(&mut self, rec: &Record) -> Result<()> {
        let payload = rec.encode();
        self.wal.append(&payload).map_err(EngineError::Checkpoint)?;
        if self.tracer.is_enabled() {
            self.tracer.counter_add("ckpt.records", 1);
            self.tracer
                .counter_add("ckpt.bytes", payload.len() as u64 + FRAME_HEADER);
        }
        Ok(())
    }

    /// The armed crash point (engine-level [`CrashPoint::AfterTrial`]
    /// injection reads this).
    pub fn crash_point(&self) -> Option<CrashPoint> {
        self.wal.crash_point()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(phase: &'static str) -> RoundReport {
        RoundReport {
            phase,
            round: 7,
            participants: 4,
            responses: 3,
            usable: 2,
            dropouts: vec![(3, "timeout after 250ms".into())],
            app_errors: vec![(1, "singular matrix".into())],
            non_finite: vec![2],
            rejected: vec![(0, "norm outlier 12.5x median".into())],
            quorum_met: true,
        }
    }

    fn sample_snapshot() -> RuntimeSnapshot {
        RuntimeSnapshot {
            failed_trials: 2,
            consumed_us: 1_234_567,
            iterations: 9,
            health: HealthState {
                round: 41,
                clients: vec![ClientHealthState {
                    state: ClientState::Quarantined,
                    consecutive_failures: 3,
                    successes: 17,
                    failures: 5,
                    byzantine: 1,
                    consecutive_rejections: 0,
                    probe_level: 2,
                    next_probe_round: 49,
                }],
            },
            log: LogTotals {
                recorded: 120,
                to_client_bytes: 9000,
                to_server_bytes: 4000,
                per_client: vec![(
                    0,
                    ClientComms {
                        bytes_to_client: 9000,
                        bytes_to_server: 4000,
                        messages: 120,
                    },
                )],
            },
            guard_norms: vec![1.5, 2.5],
            guard_losses: vec![0.25],
        }
    }

    #[test]
    fn every_record_kind_round_trips() {
        let records = vec![
            Record::RunStart {
                seed: 42,
                config_fp: 0xDEAD_BEEF,
                n_clients: 3,
            },
            Record::PhaseDone { phase: 1, fp: 99 },
            Record::TrialDone {
                index: 5,
                config_fp: 0xABCD,
                loss: Some(0.125),
                reports: vec![sample_report("optimization")],
                snapshot: sample_snapshot(),
            },
            Record::TrialDone {
                index: 6,
                config_fp: 0xEF01,
                loss: None,
                reports: vec![],
                snapshot: sample_snapshot(),
            },
            Record::RunDone { result_fp: 77 },
        ];
        for rec in records {
            let bytes = rec.encode();
            assert_eq!(Record::decode(&bytes).unwrap(), rec, "round-trip failed");
        }
    }

    #[test]
    fn report_codec_preserves_every_field() {
        for phase in [
            "meta_features",
            "feature_engineering",
            "optimization",
            "finalization",
        ] {
            let rep = sample_report(phase);
            let mut w = Writer::new();
            enc_report(&mut w, &rep);
            let bytes = w.finish();
            let mut r = Reader::new(&bytes);
            let back = dec_report(&mut r).unwrap();
            assert_eq!(format!("{back:?}"), format!("{rep:?}"));
            assert!(r.is_exhausted());
        }
    }

    #[test]
    fn truncated_and_garbled_records_error_not_panic() {
        let full = Record::TrialDone {
            index: 1,
            config_fp: 2,
            loss: Some(3.0),
            reports: vec![sample_report("optimization")],
            snapshot: sample_snapshot(),
        }
        .encode();
        for cut in 0..full.len() {
            assert!(
                Record::decode(&full[..cut]).is_err(),
                "prefix {cut} decoded"
            );
        }
        let mut garbled = full.clone();
        garbled[4] = 200; // unknown tag
        assert!(Record::decode(&garbled).is_err());
        let mut wrong_format = full.clone();
        wrong_format[0] = 9;
        assert!(Record::decode(&wrong_format).is_err());
        // A format-1 record (its trial snapshot behind a presence byte)
        // is refused by its stamp, before any field is read.
        let mut format_1 = full;
        format_1[..4].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            Record::decode(&format_1),
            Err(CkptError::Corrupt(m)) if m.contains("format 1")
        ));
    }

    #[test]
    fn trailing_bytes_after_a_record_are_corrupt() {
        let records = [
            Record::RunStart {
                seed: 42,
                config_fp: 0xDEAD_BEEF,
                n_clients: 3,
            },
            Record::PhaseDone { phase: 1, fp: 99 },
            Record::TrialDone {
                index: 5,
                config_fp: 0xABCD,
                loss: Some(0.125),
                reports: vec![sample_report("optimization")],
                snapshot: sample_snapshot(),
            },
            Record::RunDone { result_fp: 7 },
        ];
        for rec in records {
            let mut bytes = rec.encode();
            bytes.extend_from_slice(&[0xAA; 5]);
            assert!(
                matches!(
                    Record::decode(&bytes),
                    Err(CkptError::Corrupt(m)) if m.contains("5 trailing bytes")
                ),
                "{rec:?} decoded with trailing bytes"
            );
        }
    }

    #[test]
    fn fnv_is_stable_and_discriminating() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        let cfg = crate::config::EngineConfig::default();
        let fp = config_fingerprint(&cfg);
        assert_eq!(fp, config_fingerprint(&cfg.clone()), "fingerprint unstable");
        let other = crate::config::EngineConfig {
            seed: 43,
            ..Default::default()
        };
        assert_ne!(fp, config_fingerprint(&other));
        // Execution-environment knobs do not participate.
        let traced = crate::config::EngineConfig {
            trace: crate::config::TraceConfig::enabled(),
            checkpoint: Some(CkptConfig::at("/tmp/x.wal")),
            ..Default::default()
        };
        assert_eq!(fp, config_fingerprint(&traced));
    }
}
