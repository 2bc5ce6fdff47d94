//! The in-process federated simulation engine: one round loop for every
//! federation size, from the paper's eight clients to a 10,000-client
//! fleet. DESIGN.md §8 describes it in full.
//!
//! Clients live on at most [`MAX_HOSTS`] *host* threads the runtime owns
//! (one per client up to 64 clients). Every round admits the cohort plus
//! due probes, encodes the instruction once, drives each client through
//! a real serialization hop (decode, `catch_unwind`, `wire_transform`,
//! log, decode), collects against the [`RoundPolicy`], books health and
//! `fl.*` counters, and commits one flight-recorder frame.
//! [`run_round`] returns the healthy replies; the caller screens them
//! ([`UpdateGuard`](crate::robust::UpdateGuard)) and aggregates them
//! ([`AggregationStrategy`](crate::robust::AggregationStrategy)). Every
//! round runs on the hosts: under a deadline a host that misses it is
//! abandoned, and without one the round waits for every host. Replies
//! come back sorted by client id and the partition depends only on the
//! federation size, so results do not depend on `FF_THREADS`.
//!
//! [`run_round`]: FederatedRuntime::run_round

use crate::client::FlClient;
use crate::health::{ClientState, HealthPolicy, HealthRegistry, HealthReport, HealthState};
use crate::log::{Direction, MessageLog};
use crate::message::{Instruction, Reply};
use crate::{FlError, Result};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use ff_trace::{FlightRecorder, RoundFrame, Tracer};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Most host threads one runtime spawns. A hung client can only be
/// abandoned if it has a thread of its own, so clients cannot share a
/// pool; capping the host count bounds a 10,000-client fleet to 64
/// threads while federations of up to 64 clients keep one per client.
pub const MAX_HOSTS: usize = 64;

/// Per-round fault-tolerance policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundPolicy {
    /// How long to wait for all replies after the send phase. `None`
    /// blocks indefinitely (only safe with well-behaved clients).
    pub deadline: Option<Duration>,
    /// Minimum healthy replies for the round to count (clamped to ≥ 1).
    /// Below this the round fails with [`FlError::Quorum`].
    pub min_responses: usize,
    /// How many times to re-send to clients that timed out or returned
    /// undecodable bytes (transient faults). Panics and disconnects are
    /// never retried.
    pub retries: u32,
    /// Sleep between retry attempts, scaled linearly by attempt number.
    pub backoff: Duration,
}

impl Default for RoundPolicy {
    fn default() -> Self {
        RoundPolicy {
            deadline: Some(Duration::from_secs(30)),
            min_responses: 1,
            retries: 0,
            backoff: Duration::from_millis(50),
        }
    }
}

/// Result of one round. Id lists are sorted.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// Round number (1-based, shared with the health registry).
    pub round: u64,
    /// The sampled cohort, before health admission.
    pub cohort: Vec<usize>,
    /// Clients driven: admitted cohort members plus due probes.
    pub participants: Vec<usize>,
    /// How many participants were quarantine probes.
    pub probes: usize,
    /// Healthy `(client_id, reply)` pairs.
    pub replies: Vec<(usize, Reply)>,
    /// Clients that produced no usable reply, with the transport error.
    pub dropouts: Vec<(usize, FlError)>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic per-round client sampler.
///
/// Conceptually the sampler concatenates an infinite sequence of
/// *blocks*, block `b` being a Fisher–Yates permutation of all `n`
/// client ids seeded by `(seed, b)`. Round `r` (1-based) takes positions
/// `[(r−1)·k, r·k)` of that virtual sequence (`k` = cohort size), sorted
/// and deduplicated — a window can straddle two blocks, so a cohort may
/// rarely shrink by a few duplicate ids.
///
/// Contracts (property-tested in `fleet_proptests`): `cohort(r)` is a
/// pure function of `(n, k, seed, r)`, and any `2·⌈n/k⌉` consecutive
/// rounds contain a full block, so no client is ever starved.
#[derive(Debug, Clone)]
pub struct CohortSampler {
    n: usize,
    k: usize,
    seed: u64,
}

impl CohortSampler {
    /// A sampler over `n` clients engaging `round(n × fraction)` of them
    /// per round (clamped to `[1, n]`).
    pub fn new(n: usize, fraction: f64, seed: u64) -> Result<CohortSampler> {
        if n == 0 {
            return Err(FlError::Client("sampler needs at least one client".into()));
        }
        let k = ((n as f64 * fraction.clamp(0.0, 1.0)).round() as usize).clamp(1, n);
        Ok(CohortSampler { n, k, seed })
    }

    /// Nominal cohort size.
    pub fn cohort_size(&self) -> usize {
        self.k
    }

    /// The seeded Fisher–Yates permutation of all ids for block `b`.
    fn block_perm(&self, b: u64) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..self.n as u32).collect();
        let mut state = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(1);
        for i in (1..self.n).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            ids.swap(i, j);
        }
        ids
    }

    /// The cohort for `round` (1-based), sorted ascending, deduplicated.
    pub fn cohort(&self, round: u64) -> Vec<usize> {
        assert!(round >= 1, "rounds are 1-based");
        let n = self.n as u64;
        let start = (round - 1).wrapping_mul(self.k as u64);
        let mut block = start / n;
        let mut perm = self.block_perm(block);
        let mut ids = Vec::with_capacity(self.k);
        for pos in start..start + self.k as u64 {
            if pos / n != block {
                block = pos / n;
                perm = self.block_perm(block);
            }
            ids.push(perm[(pos % n) as usize] as usize);
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// One round's work, shared by every host it runs on.
#[derive(Clone)]
struct Job {
    seq: u64,
    encoded: Bytes,
    deadline: Option<Instant>,
}

/// The answer to one job: each driven client's healthy reply or error.
struct HostOut {
    seq: u64,
    outcomes: Vec<(usize, Result<Reply>)>,
}

struct Host {
    /// Jobs over the host's admitted clients, in id order. `None` once
    /// shut down: a closed channel stops the host.
    tx: Option<Sender<(Job, Vec<usize>)>>,
    rx: Receiver<HostOut>,
    join: Option<JoinHandle<()>>,
    next_seq: AtomicU64,
}

impl Host {
    fn send(&self, job: &Job, ids: &[usize]) -> Option<u64> {
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        let job = Job { seq, ..job.clone() };
        self.tx
            .as_ref()?
            .send((job, ids.to_vec()))
            .ok()
            .map(|_| seq)
    }

    /// Waits for the answer to job `seq`, discarding stale answers to
    /// jobs abandoned in earlier rounds.
    fn collect(
        &self,
        seq: u64,
        deadline: Option<Instant>,
    ) -> std::result::Result<HostOut, RecvTimeoutError> {
        loop {
            let out = match deadline {
                None => self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected)?,
                Some(at) => self
                    .rx
                    .recv_timeout(at.saturating_duration_since(Instant::now()))?,
            };
            if out.seq >= seq {
                return Ok(out);
            }
        }
    }
}

fn handle(client: &mut dyn FlClient, ins: Instruction) -> Reply {
    match ins {
        Instruction::GetProperties(cfg) => Reply::Properties(client.get_properties(&cfg)),
        Instruction::Fit { params, config } => {
            let out = client.fit(&params, &config);
            Reply::FitRes {
                params: out.params,
                num_examples: out.num_examples,
                metrics: out.metrics,
            }
        }
        Instruction::Evaluate { params, config } => {
            let out = client.evaluate(&params, &config);
            Reply::EvaluateRes {
                loss: out.loss,
                num_examples: out.num_examples,
                metrics: out.metrics,
            }
        }
    }
}

/// Drives one client through one hop: decode, handle under
/// `catch_unwind`, `wire_transform`, decode. Returns the raw reply bytes
/// for the message log (none when the reply was dropped on the wire,
/// which is a [`FlError::Timeout`] at once) and the decoded reply.
fn drive(client: &mut dyn FlClient, id: usize, encoded: &Bytes) -> (Option<Bytes>, Result<Reply>) {
    let raw = match Instruction::decode(encoded.clone()) {
        // An undecodable instruction bounces as an application error.
        Err(e) => Reply::Error(e.to_string()).encode(),
        Ok(ins) => {
            let reply =
                catch_unwind(AssertUnwindSafe(|| handle(client, ins))).unwrap_or_else(|payload| {
                    let msg = match payload.downcast::<String>() {
                        Ok(s) => *s,
                        Err(p) => p
                            .downcast_ref::<&str>()
                            .map_or("panic of unknown type", |s| s)
                            .to_string(),
                    };
                    Reply::Panicked(msg)
                });
            match client.wire_transform(reply.encode().to_vec()) {
                Some(bytes) => Bytes::from(bytes),
                None => return (None, Err(FlError::Timeout(id))),
            }
        }
    };
    (Some(raw.clone()), Reply::decode(raw))
}

/// Drives the host's clients, which start at id `first`, through each
/// job's ids in order. A client the host cannot start before the job's
/// deadline times out without being driven.
fn host_loop(
    first: usize,
    mut clients: Vec<Box<dyn FlClient>>,
    log: MessageLog,
    rx: Receiver<(Job, Vec<usize>)>,
    tx: Sender<HostOut>,
) {
    while let Ok((job, ids)) = rx.recv() {
        let mut outcomes = Vec::with_capacity(ids.len());
        // Raw replies, logged once per job so hosts do not contend on the
        // log per message.
        let mut raws: Vec<(usize, Bytes)> = Vec::new();
        for id in ids {
            let outcome = if job.deadline.is_some_and(|at| Instant::now() >= at) {
                Err(FlError::Timeout(id))
            } else {
                let (raw, reply) = drive(clients[id - first].as_mut(), id, &job.encoded);
                raws.extend(raw.map(|raw| (id, raw)));
                match reply {
                    Ok(Reply::Panicked(_)) => Err(FlError::ClientPanicked(id)),
                    other => other,
                }
            };
            outcomes.push((id, outcome));
        }
        log.record_all(
            Direction::ToServer,
            raws.iter().map(|(id, raw)| (*id, &raw[..])),
        );
        let out = HostOut {
            seq: job.seq,
            outcomes,
        };
        if tx.send(out).is_err() {
            return;
        }
    }
}

fn fresh_quarantine(before: Option<ClientState>, after: Option<ClientState>) -> bool {
    after == Some(ClientState::Quarantined) && before != Some(ClientState::Quarantined)
}

/// Escalates `id`'s integrity streak and counts `fl.updates_rejected` /
/// `fl.byzantine_suspected`. Returns whether it is a fresh quarantine.
fn note_rejection(health: &mut HealthRegistry, id: usize, tracer: &Tracer) -> bool {
    let before = health.state(id);
    let after = health.record_rejection(id);
    if after.is_some() {
        tracer.counter_add("fl.updates_rejected", 1);
        if before == Some(ClientState::Healthy) && after != Some(ClientState::Healthy) {
            tracer.counter_add("fl.byzantine_suspected", 1);
        }
    }
    fresh_quarantine(before, after)
}

/// The federated runtime: owns the host threads and runs every round the
/// higher layers (FedForecaster's Algorithm 1, fleet-scale FedAvg) build
/// on. See the module docs for the architecture.
pub struct FederatedRuntime {
    hosts: Vec<Host>,
    /// Clients per host: client `id` lives on host `id / per_host`.
    per_host: usize,
    n_clients: usize,
    log: MessageLog,
    health: Mutex<HealthRegistry>,
    /// `None` is full participation.
    sampler: Option<CohortSampler>,
    tracer: Mutex<Tracer>,
    recorder: Mutex<FlightRecorder>,
    shutdown_timeout: Duration,
}

impl FederatedRuntime {
    /// Spawns the host threads with the default [`HealthPolicy`].
    pub fn new(clients: Vec<Box<dyn FlClient>>) -> FederatedRuntime {
        FederatedRuntime::with_health_policy(clients, HealthPolicy::default())
    }

    /// Spawns the host threads with an explicit health policy.
    pub fn with_health_policy(
        clients: Vec<Box<dyn FlClient>>,
        policy: HealthPolicy,
    ) -> FederatedRuntime {
        let n = clients.len();
        let per_host = n.div_ceil(MAX_HOSTS).max(1);
        let log = MessageLog::new();
        let mut clients = clients.into_iter();
        let hosts = (0..n.div_ceil(per_host))
            .map(|h| {
                let mine = clients.by_ref().take(per_host).collect();
                let (tx, host_rx) = unbounded();
                let (host_tx, rx) = unbounded();
                let (first, log) = (h * per_host, log.clone());
                let join =
                    std::thread::spawn(move || host_loop(first, mine, log, host_rx, host_tx));
                Host {
                    tx: Some(tx),
                    rx,
                    join: Some(join),
                    next_seq: AtomicU64::new(0),
                }
            })
            .collect();
        FederatedRuntime {
            hosts,
            per_host,
            n_clients: n,
            log,
            health: Mutex::new(HealthRegistry::new(n, policy)),
            sampler: None,
            tracer: Mutex::new(Tracer::disabled()),
            recorder: Mutex::new(FlightRecorder::disabled()),
            shutdown_timeout: Duration::from_secs(5),
        }
    }

    /// Engages a seeded cohort of `round(n × fraction)` clients per round
    /// (see [`CohortSampler`]) instead of every client. Errors for an
    /// empty federation.
    pub fn with_cohort(mut self, fraction: f64, seed: u64) -> Result<FederatedRuntime> {
        self.sampler = Some(CohortSampler::new(self.n_clients, fraction, seed)?);
        Ok(self)
    }

    /// Attaches a tracer: rounds get `fl.round` spans and the `fl.rounds`
    /// / `fl.probes` / `fl.retries` / `fl.deadline_misses` /
    /// `fl.dropouts` / `fl.quarantines` counters, guard verdicts
    /// ([`record_update_rejected`](Self::record_update_rejected)) the
    /// `fl.updates_rejected` / `fl.byzantine_suspected` ones; the message
    /// log feeds per-message byte histograms.
    pub fn set_tracer(&self, tracer: Tracer) {
        self.log.set_tracer(tracer.clone());
        *self.tracer.lock() = tracer;
    }

    /// Attaches a flight recorder: every round, failed ones included,
    /// commits one [`RoundFrame`]; distress (a fresh quarantine or a
    /// quorum failure) freezes the ring into a forensic dump.
    pub fn set_recorder(&self, recorder: FlightRecorder) {
        *self.recorder.lock() = recorder;
    }

    /// Number of clients.
    pub fn n_clients(&self) -> usize {
        self.n_clients
    }

    /// The message transcript.
    pub fn log(&self) -> &MessageLog {
        &self.log
    }

    /// A snapshot of every client's health state.
    pub fn health_report(&self) -> HealthReport {
        self.health.lock().report()
    }

    /// The health state of one client, or `None` for an unknown id.
    pub fn client_state(&self, id: usize) -> Option<ClientState> {
        self.health.lock().state(id)
    }

    /// Exports the full health-registry state for durable checkpointing.
    pub fn export_health(&self) -> HealthState {
        self.health.lock().export_state()
    }

    /// Restores a previously exported health-registry state. Errors if
    /// the client count differs from this runtime's.
    pub fn restore_health(&self, state: &HealthState) -> Result<()> {
        self.health
            .lock()
            .restore_state(state)
            .map_err(FlError::Client)
    }

    /// Bounds how long [`shutdown`](Self::shutdown) (and therefore `Drop`)
    /// waits for hosts before detaching hung ones. Default: 5 s.
    pub fn set_shutdown_timeout(&mut self, timeout: Duration) {
        self.shutdown_timeout = timeout;
    }

    /// Runs one round of `ins` and returns the healthy replies. Timeouts
    /// and undecodable replies are retried up to `policy.retries` times;
    /// panics and disconnects are terminal. The round succeeds with
    /// whichever healthy subset replied, as long as the quorum is met;
    /// every non-responder is a typed dropout and a health failure. See
    /// the module docs for the round loop.
    pub fn run_round(&self, ins: &Instruction, policy: &RoundPolicy) -> Result<RoundOutcome> {
        let phase = match ins {
            Instruction::GetProperties(_) => "fl.properties",
            Instruction::Fit { .. } => "fl.fit",
            Instruction::Evaluate { .. } => "fl.eval",
        };
        let encoded = ins.encode();
        let tracer = self.tracer.lock().clone();
        let recorder = self.recorder.lock().clone();
        let (round, cohort, participants, probes) = {
            let mut health = self.health.lock();
            let round = health.begin_round();
            let cohort = match &self.sampler {
                Some(sampler) => sampler.cohort(round),
                None => (0..self.n_clients).collect(),
            };
            // Due probes ride along whether or not the sampler picked
            // them: a quarantined client must not wait for it to cycle.
            let due = health.probes_due(round);
            let probes = due.len();
            let mut participants: Vec<usize> = cohort
                .iter()
                .copied()
                .filter(|&id| health.is_admitted(id, round))
                .chain(due)
                .collect();
            participants.sort_unstable();
            participants.dedup();
            (round, cohort, participants, probes)
        };
        let _round_span = tracer.span_labeled("fl.round", round);
        tracer.counter_add("fl.rounds", 1);
        if probes > 0 {
            tracer.counter_add("fl.probes", probes as u64);
        }

        let mut replies: Vec<(usize, Reply)> = Vec::new();
        let mut dropouts: Vec<(usize, FlError)> = Vec::new();
        let mut round_retries = 0u64;
        let mut pending = participants.clone();
        let mut attempt = 0u32;
        while !pending.is_empty() {
            attempt += 1;
            // One shared deadline per attempt: hosts run in parallel.
            let deadline = policy.deadline.map(|d| Instant::now() + d);
            let batches: Vec<&[usize]> = pending
                .chunk_by(|a, b| a / self.per_host == b / self.per_host)
                .collect();
            self.log.record_all(
                Direction::ToClient,
                pending.iter().map(|&id| (id, &encoded[..])),
            );
            let host_of = |ids: &[usize]| &self.hosts[ids[0] / self.per_host];
            let job = Job {
                seq: 0,
                encoded: encoded.clone(),
                deadline,
            };
            let seqs: Vec<Option<u64>> = batches
                .iter()
                .map(|ids| host_of(ids).send(&job, ids))
                .collect();
            let mut failures: Vec<(usize, FlError)> = Vec::new();
            for (ids, seq) in batches.iter().zip(seqs) {
                let out = match seq {
                    Some(seq) => host_of(ids).collect(seq, deadline),
                    None => Err(RecvTimeoutError::Disconnected),
                };
                match out {
                    Ok(out) => {
                        for (id, outcome) in out.outcomes {
                            match outcome {
                                Ok(reply) => replies.push((id, reply)),
                                Err(e) => failures.push((id, e)),
                            }
                        }
                    }
                    Err(lost) => {
                        let error: fn(usize) -> FlError = match lost {
                            RecvTimeoutError::Timeout => FlError::Timeout,
                            RecvTimeoutError::Disconnected => FlError::ClientUnavailable,
                        };
                        failures.extend(ids.iter().map(|&id| (id, error(id))));
                    }
                }
            }
            let misses = failures
                .iter()
                .filter(|(_, e)| matches!(e, FlError::Timeout(_)))
                .count() as u64;
            if misses > 0 {
                tracer.counter_add("fl.deadline_misses", misses);
            }
            let can_retry = attempt <= policy.retries;
            let (retry, terminal): (Vec<_>, Vec<_>) = failures.into_iter().partition(|(_, e)| {
                can_retry && matches!(e, FlError::Timeout(_) | FlError::Codec(_))
            });
            dropouts.extend(terminal);
            pending = retry.into_iter().map(|(id, _)| id).collect();
            pending.sort_unstable();
            if !pending.is_empty() {
                tracer.counter_add("fl.retries", pending.len() as u64);
                round_retries += pending.len() as u64;
                if !policy.backoff.is_zero() {
                    std::thread::sleep(policy.backoff * attempt);
                }
            }
        }
        replies.sort_by_key(|(id, _)| *id);
        dropouts.sort_by_key(|(id, _)| *id);

        // Health bookkeeping: one lock, O(participants).
        let mut quarantined: Vec<u64> = Vec::new();
        {
            let mut health = self.health.lock();
            for (id, _) in &replies {
                health.record_success(*id);
            }
            for (id, _) in &dropouts {
                let before = health.state(*id);
                if fresh_quarantine(before, health.record_failure(*id)) {
                    quarantined.push(*id as u64);
                }
            }
        }
        quarantined.sort_unstable();
        if !dropouts.is_empty() {
            tracer.counter_add("fl.dropouts", dropouts.len() as u64);
        }
        if !quarantined.is_empty() {
            tracer.counter_add("fl.quarantines", quarantined.len() as u64);
        }

        let required = policy.min_responses.max(1);
        let quorum_met = replies.len() >= required;
        // One frame per round, free of wall-clock data so dumps are
        // bit-identical across thread counts; a disabled recorder never
        // builds it.
        recorder.commit_with(|| RoundFrame {
            round,
            phase,
            cohort: cohort.len() as u64,
            admitted: participants.len() as u64,
            accepted: replies.len() as u64,
            probes: probes as u64,
            dropouts: dropouts
                .iter()
                .map(|(id, e)| (*id as u64, e.to_string()))
                .collect(),
            quarantined,
            quorum_met,
            counters: vec![("fl.retries", round_retries), ("fl.probes", probes as u64)],
            ..RoundFrame::default()
        });
        if !quorum_met {
            return Err(FlError::Quorum {
                healthy: replies.len(),
                required,
            });
        }
        Ok(RoundOutcome {
            round,
            cohort,
            participants,
            probes,
            replies,
            dropouts,
        })
    }

    /// Records that the robust-aggregation guard rejected `id`'s on-time
    /// reply as Byzantine: escalates the client's integrity streak (repeat
    /// offenders quarantine exactly like crash faults) and emits the
    /// `fl.updates_rejected` / `fl.byzantine_suspected` counters. Returns
    /// the client's new health state, or `None` for an unknown id.
    pub fn record_update_rejected(&self, id: usize) -> Option<ClientState> {
        let tracer = self.tracer.lock().clone();
        let mut health = self.health.lock();
        if note_rejection(&mut health, id, &tracer) {
            tracer.counter_add("fl.quarantines", 1);
        }
        health.state(id)
    }

    /// Records that the guard accepted `id`'s update, clearing its
    /// integrity streak (see [`HealthRegistry::record_accepted`]).
    pub fn record_update_accepted(&self, id: usize) {
        self.health.lock().record_accepted(id);
    }

    /// Shuts all hosts down within the configured shutdown timeout.
    pub fn shutdown(&mut self) {
        self.shutdown_within(self.shutdown_timeout);
    }

    /// Shuts all hosts down, waiting at most `timeout` overall. Hosts hung
    /// in a handler are detached rather than joined, so this — and
    /// therefore `Drop` — never blocks longer than `timeout`.
    pub fn shutdown_within(&mut self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        for host in &mut self.hosts {
            host.tx = None;
        }
        for join in self.hosts.iter_mut().filter_map(|h| h.join.take()) {
            while !join.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            // A host still inside a hung handler is detached; it exits
            // once the handler returns.
            if join.is_finished() {
                let _ = join.join();
            }
        }
    }
}

impl Drop for FederatedRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{AdversarialMode, ChaosClient};
    use crate::client::{EvalOutput, FitOutput};
    use crate::config::{ConfigMap, ConfigMapExt};
    use crate::robust::{AggregationStrategy, GuardPolicy, RejectReason, UpdateGuard};
    use crate::strategy::{fit_updates, unwrap_eval_replies};
    use std::collections::BTreeSet;

    /// Toy client: holds a private scalar dataset; fit returns its mean.
    struct MeanClient {
        data: Vec<f64>,
    }

    impl FlClient for MeanClient {
        fn get_properties(&mut self, _config: &ConfigMap) -> ConfigMap {
            ConfigMap::new().with_int("n", self.data.len() as i64)
        }

        fn fit(&mut self, _params: &[f64], _config: &ConfigMap) -> FitOutput {
            let mean = self.data.iter().sum::<f64>() / self.data.len() as f64;
            FitOutput {
                params: vec![mean],
                num_examples: self.data.len() as u64,
                metrics: ConfigMap::new(),
            }
        }

        fn evaluate(&mut self, params: &[f64], _config: &ConfigMap) -> EvalOutput {
            let center = params.first().copied().unwrap_or(0.0);
            let loss = self
                .data
                .iter()
                .map(|v| (v - center) * (v - center))
                .sum::<f64>()
                / self.data.len() as f64;
            EvalOutput {
                loss,
                num_examples: self.data.len() as u64,
                metrics: ConfigMap::new(),
            }
        }
    }

    /// Client that panics on every call.
    struct PanicClient;

    impl FlClient for PanicClient {
        fn get_properties(&mut self, _config: &ConfigMap) -> ConfigMap {
            panic!("simulated device crash");
        }
        fn fit(&mut self, _params: &[f64], _config: &ConfigMap) -> FitOutput {
            panic!("simulated device crash");
        }
        fn evaluate(&mut self, _params: &[f64], _config: &ConfigMap) -> EvalOutput {
            panic!("simulated device crash");
        }
    }

    /// Client that sleeps a per-call duration before answering.
    struct SlowClient {
        delays: Vec<Duration>,
        call: usize,
    }

    impl SlowClient {
        fn nap(&mut self) {
            let d = self
                .delays
                .get(self.call)
                .copied()
                .unwrap_or(Duration::ZERO);
            self.call += 1;
            std::thread::sleep(d);
        }
    }

    impl FlClient for SlowClient {
        fn get_properties(&mut self, _config: &ConfigMap) -> ConfigMap {
            self.nap();
            ConfigMap::new().with_int("slow", 1)
        }
        fn fit(&mut self, _params: &[f64], _config: &ConfigMap) -> FitOutput {
            self.nap();
            FitOutput {
                params: vec![],
                num_examples: 1,
                metrics: ConfigMap::new(),
            }
        }
        fn evaluate(&mut self, _params: &[f64], _config: &ConfigMap) -> EvalOutput {
            self.nap();
            EvalOutput {
                loss: 0.0,
                num_examples: 1,
                metrics: ConfigMap::new(),
            }
        }
    }

    /// Toy client: fit returns a constant vector scaled by `value`.
    struct Constant {
        value: f64,
        dim: usize,
        examples: u64,
    }

    impl FlClient for Constant {
        fn get_properties(&mut self, _config: &ConfigMap) -> ConfigMap {
            ConfigMap::new()
        }
        fn fit(&mut self, _params: &[f64], _config: &ConfigMap) -> FitOutput {
            FitOutput {
                params: vec![self.value; self.dim],
                num_examples: self.examples,
                metrics: ConfigMap::new(),
            }
        }
        fn evaluate(&mut self, params: &[f64], _config: &ConfigMap) -> EvalOutput {
            let center = params.first().copied().unwrap_or(0.0);
            EvalOutput {
                loss: (self.value - center).abs(),
                num_examples: self.examples,
                metrics: ConfigMap::new(),
            }
        }
    }

    fn constant(value: f64, dim: usize) -> Box<dyn FlClient> {
        Box::new(Constant {
            value,
            dim,
            examples: 1,
        })
    }

    fn constant_fleet(n: usize, dim: usize) -> Vec<Box<dyn FlClient>> {
        (0..n)
            .map(|i| {
                Box::new(Constant {
                    value: 1.0 + (i % 7) as f64 * 0.1,
                    dim,
                    examples: 1 + (i % 3) as u64,
                }) as Box<dyn FlClient>
            })
            .collect()
    }

    fn runtime() -> FederatedRuntime {
        let clients: Vec<Box<dyn FlClient>> = vec![
            Box::new(MeanClient {
                data: vec![1.0, 2.0, 3.0],
            }),
            Box::new(MeanClient {
                data: vec![10.0, 20.0],
            }),
        ];
        FederatedRuntime::new(clients)
    }

    fn properties() -> Instruction {
        Instruction::GetProperties(ConfigMap::new())
    }

    fn no_deadline() -> RoundPolicy {
        RoundPolicy {
            deadline: None,
            min_responses: 1,
            retries: 0,
            backoff: Duration::ZERO,
        }
    }

    fn ids(replies: &[(usize, Reply)]) -> Vec<usize> {
        replies.iter().map(|(id, _)| *id).collect()
    }

    fn fit(dim: usize) -> Instruction {
        Instruction::Fit {
            params: vec![0.0; dim],
            config: ConfigMap::new(),
        }
    }

    /// One fit round screened and aggregated the way the engine's
    /// `RoundCtx` does: screen the updates, book each verdict with the
    /// runtime, aggregate the survivors. Returns the round, the guard's
    /// rejections and the aggregate.
    fn screened_fit_round(
        rt: &FederatedRuntime,
        guard: &mut UpdateGuard,
        strategy: AggregationStrategy,
        dim: usize,
    ) -> (RoundOutcome, Vec<(usize, RejectReason)>, Vec<f64>) {
        let mut out = rt.run_round(&fit(dim), &no_deadline()).unwrap();
        let updates = fit_updates(std::mem::take(&mut out.replies)).unwrap();
        let screened = guard.screen_updates(updates);
        for (id, _) in &screened.rejected {
            rt.record_update_rejected(*id);
        }
        for (id, _, _) in &screened.accepted {
            rt.record_update_accepted(*id);
        }
        let global = strategy.aggregate(screened.accepted).unwrap();
        (out, screened.rejected, global)
    }

    #[test]
    fn properties_roundtrip_through_runtime() {
        let rt = runtime();
        let out = rt.run_round(&properties(), &no_deadline()).unwrap();
        match (&out.replies[0].1, &out.replies[1].1) {
            (Reply::Properties(a), Reply::Properties(b)) => {
                assert_eq!(a.int_or("n", 0), 3);
                assert_eq!(b.int_or("n", 0), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fit_round_returns_all_results_in_order() {
        let rt = runtime();
        let fit = Instruction::Fit {
            params: vec![],
            config: ConfigMap::new(),
        };
        let out = rt.run_round(&fit, &no_deadline()).unwrap();
        assert_eq!(ids(&out.replies), vec![0, 1]);
        match &out.replies[0].1 {
            Reply::FitRes {
                params,
                num_examples,
                ..
            } => {
                assert!((params[0] - 2.0).abs() < 1e-12);
                assert_eq!(*num_examples, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &out.replies[1].1 {
            Reply::FitRes { params, .. } => assert!((params[0] - 15.0).abs() < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn evaluate_computes_local_losses() {
        let rt = runtime();
        let eval = Instruction::Evaluate {
            params: vec![2.0],
            config: ConfigMap::new(),
        };
        let out = rt.run_round(&eval, &no_deadline()).unwrap();
        match &out.replies[0].1 {
            Reply::EvaluateRes { loss, .. } => assert!((loss - 2.0 / 3.0).abs() < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn log_records_all_traffic() {
        let rt = runtime();
        rt.run_round(&properties(), &no_deadline()).unwrap();
        // 2 instructions + 2 replies.
        assert_eq!(rt.log().len(), 4);
        let (to_client, to_server) = rt.log().byte_totals();
        assert!(to_client > 0 && to_server > 0);
    }

    #[test]
    fn sampled_rounds_hit_a_deterministic_subset() {
        let clients: Vec<Box<dyn FlClient>> = (0..10)
            .map(|i| {
                Box::new(MeanClient {
                    data: vec![i as f64 + 1.0],
                }) as Box<dyn FlClient>
            })
            .collect();
        let rt = FederatedRuntime::new(clients).with_cohort(0.3, 7).unwrap();
        let out = rt.run_round(&properties(), &no_deadline()).unwrap();
        assert_eq!(out.replies.len(), 3);
        assert_eq!(out.cohort, out.participants);
        let sampler = CohortSampler::new(10, 0.3, 7).unwrap();
        assert_eq!(out.participants, sampler.cohort(1));
        // Zero fraction still reaches one client; empty federations
        // cannot sample.
        let one = FederatedRuntime::new(vec![constant(1.0, 1), constant(2.0, 1)])
            .with_cohort(0.0, 3)
            .unwrap();
        assert_eq!(
            one.run_round(&properties(), &no_deadline())
                .unwrap()
                .replies
                .len(),
            1
        );
        assert!(FederatedRuntime::new(vec![]).with_cohort(0.5, 1).is_err());
    }

    #[test]
    fn shutdown_is_idempotent_via_drop() {
        let mut rt = runtime();
        rt.shutdown();
        // Dropping after an explicit shutdown must not hang or panic.
        drop(rt);
    }

    #[test]
    fn panicked_client_becomes_structured_dropout() {
        let clients: Vec<Box<dyn FlClient>> = vec![
            Box::new(MeanClient {
                data: vec![1.0, 2.0],
            }),
            Box::new(PanicClient),
        ];
        let rt = FederatedRuntime::new(clients);
        let policy = RoundPolicy {
            min_responses: 1,
            ..RoundPolicy::default()
        };
        let outcome = rt.run_round(&properties(), &policy).unwrap();
        assert_eq!(outcome.participants, vec![0, 1]);
        assert_eq!(ids(&outcome.replies), vec![0]);
        assert_eq!(outcome.dropouts, vec![(1, FlError::ClientPanicked(1))]);
        // The panicked client's host survives: the next round still
        // reaches it (and it panics again).
        let outcome2 = rt.run_round(&properties(), &policy).unwrap();
        assert_eq!(outcome2.dropouts.len(), 1);
        // Two consecutive failures quarantine the client.
        assert_eq!(rt.client_state(1), Some(ClientState::Quarantined));
        let outcome3 = rt.run_round(&properties(), &policy).unwrap();
        assert_eq!(outcome3.participants, vec![0]);
    }

    #[test]
    fn deadline_times_out_stragglers_and_late_reply_is_discarded() {
        let clients: Vec<Box<dyn FlClient>> = vec![
            Box::new(MeanClient { data: vec![5.0] }),
            // Slow on the first call only; instant afterwards.
            Box::new(SlowClient {
                delays: vec![Duration::from_millis(400)],
                call: 0,
            }),
        ];
        let mut rt = FederatedRuntime::new(clients);
        rt.set_shutdown_timeout(Duration::from_millis(1500));
        let policy = RoundPolicy {
            deadline: Some(Duration::from_millis(60)),
            min_responses: 1,
            retries: 0,
            backoff: Duration::ZERO,
        };
        let started = Instant::now();
        let outcome = rt.run_round(&properties(), &policy).unwrap();
        assert!(
            started.elapsed() < Duration::from_millis(350),
            "deadline not enforced"
        );
        assert_eq!(outcome.replies.len(), 1);
        assert_eq!(outcome.dropouts, vec![(1, FlError::Timeout(1))]);
        // Round 2: the straggler's late round-1 reply must be discarded,
        // not mistaken for the round-2 answer.
        std::thread::sleep(Duration::from_millis(450));
        let outcome2 = rt.run_round(&properties(), &policy).unwrap();
        assert_eq!(
            outcome2.replies.len(),
            2,
            "recovered straggler should answer round 2"
        );
        match &outcome2.replies[1].1 {
            Reply::Properties(cfg) => assert_eq!(cfg.int_or("slow", 0), 1),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(rt.client_state(1), Some(ClientState::Healthy));
    }

    #[test]
    fn quorum_unmet_fails_the_round_not_the_runtime() {
        let clients: Vec<Box<dyn FlClient>> = vec![
            Box::new(PanicClient),
            Box::new(MeanClient { data: vec![1.0] }),
        ];
        let rt = FederatedRuntime::new(clients);
        let policy = RoundPolicy {
            min_responses: 2,
            ..RoundPolicy::default()
        };
        match rt.run_round(&properties(), &policy) {
            Err(FlError::Quorum { healthy, required }) => {
                assert_eq!((healthy, required), (1, 2));
            }
            other => panic!("expected quorum error, got {other:?}"),
        }
        // The healthy client is still usable afterwards.
        let outcome = rt.run_round(&properties(), &no_deadline()).unwrap();
        assert_eq!(outcome.replies.len(), 1);
    }

    #[test]
    fn guard_rejections_escalate_health_and_emit_counters() {
        let clients: Vec<Box<dyn FlClient>> = vec![
            Box::new(MeanClient { data: vec![1.0] }),
            Box::new(MeanClient { data: vec![2.0] }),
        ];
        let rt = FederatedRuntime::new(clients);
        let tracer = Tracer::enabled();
        rt.set_tracer(tracer.clone());
        let policy = RoundPolicy::default();
        // Two rounds where client 1 replies on time but the guard rejects
        // its update: Suspect, then a fresh quarantine.
        rt.run_round(&properties(), &policy).unwrap();
        assert_eq!(
            rt.record_update_rejected(1),
            Some(ClientState::Suspect),
            "first rejection"
        );
        rt.record_update_accepted(0);
        rt.run_round(&properties(), &policy).unwrap();
        assert_eq!(rt.record_update_rejected(1), Some(ClientState::Quarantined));
        assert_eq!(rt.client_state(1), Some(ClientState::Quarantined));
        assert_eq!(rt.client_state(0), Some(ClientState::Healthy));
        let snap = tracer.snapshot();
        assert_eq!(snap.counter("fl.updates_rejected"), 2);
        assert_eq!(snap.counter("fl.byzantine_suspected"), 1);
        assert_eq!(snap.counter("fl.quarantines"), 1);
        assert_eq!(rt.record_update_rejected(99), None, "unknown id");
    }

    #[test]
    fn tracer_captures_round_spans_counters_and_byte_histograms() {
        let clients: Vec<Box<dyn FlClient>> = vec![
            Box::new(MeanClient {
                data: vec![1.0, 2.0],
            }),
            Box::new(PanicClient),
        ];
        let rt = FederatedRuntime::new(clients);
        let tracer = Tracer::enabled();
        rt.set_tracer(tracer.clone());
        for _ in 0..2 {
            rt.run_round(&properties(), &RoundPolicy::default())
                .unwrap();
        }
        let snap = tracer.snapshot();
        let rounds = snap.spans_named("fl.round");
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0].label, Some(1));
        assert!(rounds.iter().all(|s| s.end_us.is_some()));
        assert_eq!(snap.counter("fl.rounds"), 2);
        // The panicking client drops out of both rounds and the second
        // failure is a fresh quarantine.
        assert_eq!(snap.counter("fl.dropouts"), 2);
        assert_eq!(snap.counter("fl.quarantines"), 1);
        // Byte histograms flow through the message log in both directions.
        for name in ["fl.msg_bytes_to_client", "fl.msg_bytes_to_server"] {
            assert!(snap
                .histograms
                .iter()
                .any(|(id, h)| id.name == name && !h.is_empty()));
        }
    }

    #[test]
    fn shutdown_with_hung_client_is_bounded() {
        let clients: Vec<Box<dyn FlClient>> = vec![
            Box::new(MeanClient { data: vec![1.0] }),
            Box::new(SlowClient {
                delays: vec![Duration::from_secs(30)],
                call: 0,
            }),
        ];
        let mut rt = FederatedRuntime::new(clients);
        // Park the slow client's host inside its 30 s handler.
        let policy = RoundPolicy {
            deadline: Some(Duration::from_millis(20)),
            ..RoundPolicy::default()
        };
        rt.run_round(&properties(), &policy).unwrap();
        rt.set_shutdown_timeout(Duration::from_millis(100));
        let started = Instant::now();
        drop(rt);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "drop blocked on a hung client"
        );
    }

    #[test]
    fn large_federations_share_at_most_max_hosts_threads() {
        let rt = FederatedRuntime::new(constant_fleet(200, 1));
        assert_eq!(rt.hosts.len(), 50, "200 clients on hosts of 4");
        let small = FederatedRuntime::new(constant_fleet(MAX_HOSTS, 1));
        assert_eq!(small.hosts.len(), MAX_HOSTS, "one host per client");
        let out = rt.run_round(&properties(), &no_deadline()).unwrap();
        assert_eq!(ids(&out.replies), (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn sampler_is_deterministic_and_covers_everyone() {
        let sampler = CohortSampler::new(100, 0.1, 42).unwrap();
        assert_eq!(sampler.cohort_size(), 10);
        for round in 1..=5 {
            assert_eq!(sampler.cohort(round), sampler.cohort(round));
        }
        // Rounds 1..=10 walk block 0 exactly: every client appears.
        let mut seen = BTreeSet::new();
        for round in 1..=10 {
            let cohort = sampler.cohort(round);
            assert!(!cohort.is_empty() && cohort.len() <= 10);
            seen.extend(cohort);
        }
        assert_eq!(seen.len(), 100, "starved clients: {}", 100 - seen.len());
        // Different seeds give different schedules.
        let other = CohortSampler::new(100, 0.1, 43).unwrap();
        assert_ne!(
            (1..=10).map(|r| sampler.cohort(r)).collect::<Vec<_>>(),
            (1..=10).map(|r| other.cohort(r)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fit_round_aggregates_the_sampled_cohort() {
        let rt = FederatedRuntime::new(constant_fleet(50, 3))
            .with_cohort(0.2, 0)
            .unwrap();
        let out = rt.run_round(&fit(3), &no_deadline()).unwrap();
        assert_eq!(out.round, 1);
        assert_eq!(out.cohort.len(), 10);
        assert_eq!(ids(&out.replies), out.participants);
        assert!(out.dropouts.is_empty());
        let updates = fit_updates(out.replies).unwrap();
        let global = AggregationStrategy::FedAvg.aggregate(updates).unwrap();
        assert_eq!(global.len(), 3);
        // FedAvg of the cohort's constants, weighted by examples.
        let mut num = 0.0;
        let mut den = 0.0;
        for &id in &out.participants {
            let w = (1 + (id % 3)) as f64;
            num += w * (1.0 + (id % 7) as f64 * 0.1);
            den += w;
        }
        assert!((global[0] - num / den).abs() < 1e-12);
    }

    #[test]
    fn screened_rounds_are_bit_identical_across_thread_counts() {
        let run = |threads: usize| -> (Vec<usize>, Vec<u64>) {
            ff_par::with_threads(threads, || {
                let rt = FederatedRuntime::new(constant_fleet(200, 4))
                    .with_cohort(0.25, 7)
                    .unwrap();
                let mut guard = UpdateGuard::new(GuardPolicy::default());
                let mut cohorts = Vec::new();
                let mut bits = Vec::new();
                for _ in 0..3 {
                    let (out, _, global) = screened_fit_round(
                        &rt,
                        &mut guard,
                        AggregationStrategy::CoordinateMedian,
                        4,
                    );
                    cohorts.extend(out.cohort);
                    bits.extend(global.iter().map(|v| v.to_bits()));
                }
                (cohorts, bits)
            })
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn byzantine_updates_are_screened_and_quarantined() {
        let dim = 3;
        let clients: Vec<Box<dyn FlClient>> = (0..40)
            .map(|i| {
                let inner = constant(1.0, dim);
                if i == 5 {
                    Box::new(ChaosClient::adversarial(
                        inner,
                        AdversarialMode::ScaleBy(1e9),
                        9,
                    )) as Box<dyn FlClient>
                } else {
                    inner
                }
            })
            .collect();
        let rt = FederatedRuntime::new(clients);
        let mut guard = UpdateGuard::new(GuardPolicy::default());
        let median = AggregationStrategy::CoordinateMedian;
        // Round 1: the screen's median pools this round's honest norms,
        // so the attacker is screened at once and the median aggregate
        // never sees it.
        let (_, rejected, global) = screened_fit_round(&rt, &mut guard, median, dim);
        assert_eq!(rejected.len(), 1);
        assert_eq!(rejected[0].0, 5);
        assert!(matches!(rejected[0].1, RejectReason::NormOutlier { .. }));
        assert_eq!(global, vec![1.0; dim]);
        assert_eq!(rt.client_state(5), Some(ClientState::Suspect));
        // A second rejection quarantines it like a repeat crasher.
        let (_, rejected, _) = screened_fit_round(&rt, &mut guard, median, dim);
        assert_eq!(rejected.len(), 1);
        assert_eq!(rt.client_state(5), Some(ClientState::Quarantined));
        let (out, _, _) = screened_fit_round(&rt, &mut guard, median, dim);
        assert!(!out.participants.contains(&5));
    }

    #[test]
    fn chaos_drops_become_deterministic_timeouts_without_waiting() {
        let clients: Vec<Box<dyn FlClient>> = (0..30)
            .map(|i| {
                let inner = constant(2.0, 2);
                if i % 3 == 0 {
                    Box::new(ChaosClient::flaky(inner, 1.0, i as u64)) as Box<dyn FlClient>
                } else {
                    inner
                }
            })
            .collect();
        let rt = FederatedRuntime::new(clients);
        let policy = RoundPolicy {
            deadline: Some(Duration::from_secs(30)),
            ..no_deadline()
        };
        let started = Instant::now();
        let out = rt.run_round(&fit(2), &policy).unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "drops must not wait on wall clocks"
        );
        assert_eq!(out.dropouts.len(), 10);
        assert!(out
            .dropouts
            .iter()
            .all(|(id, e)| *e == FlError::Timeout(*id) && id % 3 == 0));
        assert_eq!(out.replies.len(), 20);
        let updates = fit_updates(out.replies).unwrap();
        let global = AggregationStrategy::FedAvg.aggregate(updates).unwrap();
        assert!((global[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn probes_ride_along_and_recovering_clients_rejoin() {
        // Client 0 always drops; quarantine it, then verify its probes
        // ride along with later rounds.
        let clients: Vec<Box<dyn FlClient>> = (0..20)
            .map(|i| {
                let inner = constant(1.0, 1);
                if i == 0 {
                    Box::new(ChaosClient::flaky(inner, 1.0, 1)) as Box<dyn FlClient>
                } else {
                    inner
                }
            })
            .collect();
        let rt = FederatedRuntime::new(clients);
        let mut saw_probe = false;
        for _ in 0..12 {
            let out = rt.run_round(&fit(1), &no_deadline()).unwrap();
            if out.probes > 0 {
                saw_probe = true;
                assert!(out.participants.contains(&0));
            }
        }
        assert!(saw_probe, "quarantined client was never probed");
        assert_eq!(rt.client_state(0), Some(ClientState::Quarantined));
    }

    #[test]
    fn eval_round_aggregates_losses() {
        let rt = FederatedRuntime::new(constant_fleet(30, 2))
            .with_cohort(0.5, 0)
            .unwrap();
        let eval = Instruction::Evaluate {
            params: vec![1.0, 1.0],
            config: ConfigMap::new(),
        };
        let out = rt.run_round(&eval, &no_deadline()).unwrap();
        let losses = unwrap_eval_replies(out.replies).unwrap();
        assert_eq!(losses.len(), 15);
        for strategy in [
            AggregationStrategy::FedAvg,
            AggregationStrategy::CoordinateMedian,
        ] {
            let loss = strategy.aggregate_loss(&losses).unwrap();
            assert!((0.0..=0.6).contains(&loss), "loss {loss}");
        }
    }

    #[test]
    fn all_dropouts_fail_the_quorum() {
        let clients: Vec<Box<dyn FlClient>> = (0..10)
            .map(|i| {
                Box::new(ChaosClient::flaky(constant(1.0, 1), 1.0, i as u64)) as Box<dyn FlClient>
            })
            .collect();
        let rt = FederatedRuntime::new(clients);
        match rt.run_round(&fit(1), &no_deadline()) {
            Err(FlError::Quorum { healthy, required }) => {
                assert_eq!((healthy, required), (0, 1));
            }
            other => panic!("expected quorum failure, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_replies_retry_then_drop_out() {
        let clients: Vec<Box<dyn FlClient>> = (0..6)
            .map(|i| {
                let inner = constant(1.0, 1);
                if i == 2 {
                    Box::new(ChaosClient::corrupting(inner, 3)) as Box<dyn FlClient>
                } else {
                    inner
                }
            })
            .collect();
        let rt = FederatedRuntime::new(clients);
        let tracer = Tracer::enabled();
        rt.set_tracer(tracer.clone());
        let policy = RoundPolicy {
            retries: 2,
            ..no_deadline()
        };
        let out = rt.run_round(&fit(1), &policy).unwrap();
        assert_eq!(out.dropouts.len(), 1);
        assert!(matches!(out.dropouts[0], (2, FlError::Codec(_))));
        let snap = tracer.snapshot();
        assert_eq!(snap.counter("fl.retries"), 2);
        assert_eq!(snap.counter("fl.rounds"), 1);
        assert_eq!(snap.counter("fl.dropouts"), 1);
    }
}
