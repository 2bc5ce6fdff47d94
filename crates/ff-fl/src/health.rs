//! Per-client health tracking across federated rounds.
//!
//! The runtime records a transport-level outcome (reply, timeout, panic,
//! corrupt payload, disconnect) for every client in every tolerant round
//! and feeds it into this registry. The state machine per client:
//!
//! ```text
//!            failure                      failure × quarantine_after
//! Healthy ───────────▶ Suspect ──────────────────────▶ Quarantined
//!    ▲                    │                                  │
//!    └────── success ─────┘            probe round (admitted again,
//!    ▲                                  exponential backoff on repeat
//!    └──────────── successful probe ◀── failures, capped at probe_max)
//! ```
//!
//! Quarantined clients are excluded from rounds until their next probe
//! round comes up; a successful probe restores them to `Healthy`
//! immediately, a failed probe doubles the wait (capped at
//! [`HealthPolicy::probe_max`] rounds, so a recovered client is always
//! re-admitted within a bounded number of rounds — the no-starvation
//! property checked by the crate's proptests).
//!
//! Two failure kinds feed the same state machine but keep separate
//! streaks: *transport* failures ([`HealthRegistry::record_failure`]:
//! timeouts, panics, corrupt payloads) and *integrity* failures
//! ([`HealthRegistry::record_rejection`]: the robust-aggregation guard
//! rejected the client's on-time reply as Byzantine). A transport-level
//! success does **not** clear an integrity streak — a Byzantine client
//! replies punctually every round — only an accepted update
//! ([`HealthRegistry::record_accepted`]) restores trust.

use std::collections::BTreeSet;

/// Health state of one client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClientState {
    /// Replying normally.
    #[default]
    Healthy,
    /// Failed recently, but not often enough to quarantine.
    Suspect,
    /// Excluded from rounds except periodic re-admission probes.
    Quarantined,
}

/// Knobs of the health state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Consecutive transport failures before a client is quarantined.
    pub quarantine_after: u32,
    /// Rounds to wait before the first re-admission probe.
    pub probe_base: u64,
    /// Cap on the exponential probe backoff, in rounds. This bounds the
    /// time a recovered client waits before it is probed again.
    pub probe_max: u64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            quarantine_after: 2,
            probe_base: 2,
            probe_max: 16,
        }
    }
}

impl ClientHealthState {
    /// Escalates after a failure of either kind, `streak` being the
    /// relevant consecutive counter.
    fn escalate(&mut self, streak: u32, round: u64, policy: &HealthPolicy) {
        let wait = |level: u32| -> u64 {
            policy
                .probe_base
                .saturating_mul(1u64 << level.min(20))
                .min(policy.probe_max)
                .max(1)
        };
        match self.state {
            ClientState::Quarantined => {
                // Failed probe: deepen the backoff (capped, so the client
                // is still probed again within probe_max rounds).
                self.probe_level = self.probe_level.saturating_add(1).min(32);
                self.next_probe_round = round + wait(self.probe_level);
            }
            _ if streak >= policy.quarantine_after => {
                self.state = ClientState::Quarantined;
                self.probe_level = 0;
                self.next_probe_round = round + wait(0);
            }
            _ => self.state = ClientState::Suspect,
        }
    }
}

/// Tracks health state for a fixed set of clients across rounds.
///
/// Alongside the per-client records, the registry keeps every
/// quarantined client in a `(next_probe_round, id)` ordered index, so a
/// round pays per-*cohort* costs, not per-fleet:
/// [`is_admitted`](Self::is_admitted) answers a single admission query in
/// O(1) and [`probes_due`](Self::probes_due) finds every due probe with
/// one range scan — no walk over 10,000 records.
#[derive(Debug, Clone)]
pub struct HealthRegistry {
    policy: HealthPolicy,
    records: Vec<ClientHealthState>,
    round: u64,
    /// `(next_probe_round, id)` for every quarantined client, kept
    /// coherent by routing every state transition through
    /// [`update`](Self::update).
    probe_index: BTreeSet<(u64, usize)>,
}

impl HealthRegistry {
    /// A registry for `n_clients` clients, all initially healthy.
    pub fn new(n_clients: usize, policy: HealthPolicy) -> HealthRegistry {
        HealthRegistry {
            policy,
            records: vec![ClientHealthState::default(); n_clients],
            round: 0,
            probe_index: BTreeSet::new(),
        }
    }

    /// Applies `change` to `id`'s record (given the current round and
    /// policy), keeps the probe index coherent, and returns the new state
    /// — `None` for an unknown id. Every state transition goes through
    /// here.
    fn update(
        &mut self,
        id: usize,
        change: impl FnOnce(&mut ClientHealthState, u64, &HealthPolicy),
    ) -> Option<ClientState> {
        let rec = self.records.get_mut(id)?;
        let (was_quarantined, old_probe) =
            (rec.state == ClientState::Quarantined, rec.next_probe_round);
        change(rec, self.round, &self.policy);
        let now_quarantined = rec.state == ClientState::Quarantined;
        if was_quarantined && (!now_quarantined || rec.next_probe_round != old_probe) {
            self.probe_index.remove(&(old_probe, id));
        }
        if now_quarantined {
            self.probe_index.insert((rec.next_probe_round, id));
        }
        Some(rec.state)
    }

    /// Advances the round counter and returns the new round number
    /// (1-based).
    pub fn begin_round(&mut self) -> u64 {
        self.round += 1;
        self.round
    }

    /// The current round number.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Whether one client is admitted to `round`: everyone who is not
    /// quarantined, plus quarantined clients whose probe round has come
    /// up. O(1); unknown ids are not admitted. The runtime asks this per
    /// sampled cohort member, so admission costs scale with the cohort,
    /// not the fleet.
    pub fn is_admitted(&self, id: usize, round: u64) -> bool {
        match self.records.get(id) {
            None => false,
            Some(rec) => match rec.state {
                ClientState::Healthy | ClientState::Suspect => true,
                ClientState::Quarantined => round >= rec.next_probe_round,
            },
        }
    }

    /// Quarantined clients whose re-admission probe is due at `round`,
    /// sorted by id. One ordered range scan over the probe index — cost
    /// proportional to the number of *due* probes, independent of fleet
    /// size. (A failed probe pushes the client's entry into the future,
    /// so an id leaves this list the round after it is probed.)
    pub fn probes_due(&self, round: u64) -> Vec<usize> {
        let mut due: Vec<usize> = self
            .probe_index
            .range(..=(round, usize::MAX))
            .map(|&(_, id)| id)
            .collect();
        due.sort_unstable();
        due
    }

    /// Number of currently quarantined clients (O(1) from the index).
    pub fn quarantined_count(&self) -> usize {
        self.probe_index.len()
    }

    /// Records a transport-level success: the client returns to `Healthy`
    /// and its probe backoff resets — unless it has an open integrity
    /// streak, in which case replying on time earns nothing (a Byzantine
    /// client is punctual by design) and only
    /// [`record_accepted`](Self::record_accepted) restores it.
    pub fn record_success(&mut self, id: usize) {
        self.update(id, |rec, _, _| {
            rec.successes += 1;
            rec.consecutive_failures = 0;
            if rec.consecutive_rejections == 0 {
                rec.probe_level = 0;
                rec.state = ClientState::Healthy;
            }
        });
    }

    /// Records a transport-level failure (timeout, panic, corrupt payload,
    /// disconnect), advancing the state machine. Returns the client's new
    /// state so callers can observe transitions (e.g. count fresh
    /// quarantines), or `None` for an unknown id.
    pub fn record_failure(&mut self, id: usize) -> Option<ClientState> {
        self.update(id, |rec, round, policy| {
            rec.failures += 1;
            rec.consecutive_failures += 1;
            rec.escalate(rec.consecutive_failures, round, policy);
        })
    }

    /// Records an integrity failure: the robust-aggregation guard rejected
    /// this client's on-time reply (non-finite, dimension mismatch, norm
    /// or loss outlier). Escalates through the same Suspect → Quarantined
    /// machinery as transport faults — repeat offenders are excluded and
    /// probed on backoff exactly like crashed clients. Returns the new
    /// state, or `None` for an unknown id.
    pub fn record_rejection(&mut self, id: usize) -> Option<ClientState> {
        self.update(id, |rec, round, policy| {
            rec.byzantine += 1;
            rec.consecutive_rejections += 1;
            rec.escalate(rec.consecutive_rejections, round, policy);
        })
    }

    /// Records that the guard accepted this client's update: the
    /// integrity streak clears and the client returns to `Healthy` (its
    /// transport streak is necessarily clear too — an accepted update
    /// implies an on-time reply this round).
    pub fn record_accepted(&mut self, id: usize) {
        self.update(id, |rec, _, _| {
            rec.consecutive_rejections = 0;
            if rec.consecutive_failures == 0 {
                rec.probe_level = 0;
                rec.state = ClientState::Healthy;
            }
        });
    }

    /// The state of one client, or `None` for an unknown id.
    pub fn state(&self, id: usize) -> Option<ClientState> {
        self.records.get(id).map(|r| r.state)
    }

    /// Exports the full registry state — round counter plus every
    /// per-client record — for durable checkpointing. The probe index is
    /// *not* exported: they are derived data, rebuilt
    /// from the records on [`restore_state`](Self::restore_state).
    pub fn export_state(&self) -> HealthState {
        HealthState {
            round: self.round,
            clients: self.records.clone(),
        }
    }

    /// Overwrites this registry with a previously exported state,
    /// rebuilding the probe index. Errors if the client
    /// count differs — a checkpoint from one federation must not be
    /// grafted onto another.
    pub fn restore_state(&mut self, state: &HealthState) -> Result<(), String> {
        if state.clients.len() != self.records.len() {
            return Err(format!(
                "health state has {} clients, registry has {}",
                state.clients.len(),
                self.records.len()
            ));
        }
        self.round = state.round;
        self.records = state.clients.clone();
        self.probe_index = (self.records.iter().enumerate())
            .filter(|(_, rec)| rec.state == ClientState::Quarantined)
            .map(|(id, rec)| (rec.next_probe_round, id))
            .collect();
        Ok(())
    }

    /// A snapshot of every client's health counters.
    pub fn report(&self) -> HealthReport {
        HealthReport {
            rounds: self.round,
            clients: self
                .records
                .iter()
                .enumerate()
                .map(|(id, r)| ClientHealthSnapshot {
                    client_id: id,
                    state: r.state,
                    successes: r.successes,
                    failures: r.failures,
                    byzantine: r.byzantine,
                    consecutive_failures: r.consecutive_failures,
                })
                .collect(),
        }
    }
}

/// One client's complete state — the registry's own record, exported by
/// [`HealthRegistry::export_state`]. Unlike [`ClientHealthSnapshot`]
/// (a reporting view), this carries everything the state machine needs
/// to resume: both failure streaks and the probe backoff schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClientHealthState {
    /// Current state.
    pub state: ClientState,
    /// Consecutive transport-failure streak.
    pub consecutive_failures: u32,
    /// Total transport-level successes.
    pub successes: u64,
    /// Total transport-level failures.
    pub failures: u64,
    /// Total integrity failures (guard-rejected updates).
    pub byzantine: u64,
    /// Consecutive integrity-rejection streak.
    pub consecutive_rejections: u32,
    /// Probe backoff level (exponent).
    pub probe_level: u32,
    /// Round at which the next re-admission probe is due.
    pub next_probe_round: u64,
}

/// Durable snapshot of a whole [`HealthRegistry`], suitable for
/// checkpointing and exact resume via
/// [`restore_state`](HealthRegistry::restore_state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthState {
    /// Round counter at export time.
    pub round: u64,
    /// Per-client durable state, indexed by client id.
    pub clients: Vec<ClientHealthState>,
}

/// One client's health counters at report time.
#[derive(Debug, Clone)]
pub struct ClientHealthSnapshot {
    /// Client id.
    pub client_id: usize,
    /// Current state.
    pub state: ClientState,
    /// Total transport-level successes.
    pub successes: u64,
    /// Total transport-level failures.
    pub failures: u64,
    /// Total integrity failures (guard-rejected updates).
    pub byzantine: u64,
    /// Current consecutive-failure streak.
    pub consecutive_failures: u32,
}

/// Snapshot of the whole federation's health.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Rounds elapsed.
    pub rounds: u64,
    /// Per-client counters.
    pub clients: Vec<ClientHealthSnapshot>,
}

impl HealthReport {
    /// Number of clients currently in `state`.
    pub fn count(&self, state: ClientState) -> usize {
        self.clients.iter().filter(|c| c.state == state).count()
    }
}

impl std::fmt::Display for HealthReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "health after {} rounds: {} healthy / {} suspect / {} quarantined",
            self.rounds,
            self.count(ClientState::Healthy),
            self.count(ClientState::Suspect),
            self.count(ClientState::Quarantined)
        )?;
        for c in &self.clients {
            writeln!(
                f,
                "  client {:>3}: {:?} (ok {}, failed {}, rejected {}, streak {})",
                c.client_id, c.state, c.successes, c.failures, c.byzantine, c.consecutive_failures
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry(n: usize) -> HealthRegistry {
        HealthRegistry::new(n, HealthPolicy::default())
    }

    /// Every client admitted to `round`, in id order.
    fn admitted(reg: &HealthRegistry, round: u64) -> Vec<usize> {
        (0..reg.records.len())
            .filter(|&id| reg.is_admitted(id, round))
            .collect()
    }

    #[test]
    fn all_clients_start_healthy_and_admitted() {
        let mut reg = registry(3);
        let round = reg.begin_round();
        assert_eq!(admitted(&reg, round), vec![0, 1, 2]);
        assert_eq!(reg.state(1), Some(ClientState::Healthy));
    }

    #[test]
    fn single_failure_makes_suspect_not_quarantined() {
        let mut reg = registry(2);
        let round = reg.begin_round();
        let _ = reg.record_failure(0);
        assert_eq!(reg.state(0), Some(ClientState::Suspect));
        // Still admitted next round.
        let _ = round;
        let next = reg.begin_round();
        assert!(admitted(&reg, next).contains(&0));
    }

    #[test]
    fn consecutive_failures_quarantine_and_exclude() {
        let mut reg = registry(2);
        for _ in 0..2 {
            let _ = reg.begin_round();
            let _ = reg.record_failure(0);
        }
        assert_eq!(reg.state(0), Some(ClientState::Quarantined));
        let next = reg.begin_round();
        assert_eq!(admitted(&reg, next), vec![1]);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut reg = registry(1);
        let _ = reg.begin_round();
        let _ = reg.record_failure(0);
        let _ = reg.begin_round();
        reg.record_success(0);
        let _ = reg.begin_round();
        let _ = reg.record_failure(0);
        // One failure after a success: suspect, not quarantined.
        assert_eq!(reg.state(0), Some(ClientState::Suspect));
    }

    #[test]
    fn quarantined_client_is_probed_and_readmitted_on_success() {
        let policy = HealthPolicy {
            quarantine_after: 2,
            probe_base: 2,
            probe_max: 16,
        };
        let mut reg = HealthRegistry::new(1, policy);
        // Rounds 1-2 fail → quarantined with probe at round 4.
        for _ in 0..2 {
            let _ = reg.begin_round();
            let _ = reg.record_failure(0);
        }
        let r3 = reg.begin_round();
        assert!(admitted(&reg, r3).is_empty());
        let r4 = reg.begin_round();
        assert_eq!(admitted(&reg, r4), vec![0]);
        reg.record_success(0);
        assert_eq!(reg.state(0), Some(ClientState::Healthy));
    }

    #[test]
    fn failed_probes_back_off_exponentially_but_stay_bounded() {
        let policy = HealthPolicy {
            quarantine_after: 1,
            probe_base: 2,
            probe_max: 8,
        };
        let mut reg = HealthRegistry::new(1, policy.clone());
        let mut admitted_rounds = Vec::new();
        for _ in 0..60 {
            let round = reg.begin_round();
            if admitted(&reg, round).contains(&0) {
                admitted_rounds.push(round);
                let _ = reg.record_failure(0);
            }
        }
        // Gaps grow (2, 4, 8) and then stay capped at probe_max.
        let gaps: Vec<u64> = admitted_rounds.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            gaps.len() >= 4,
            "expected several probes, got {admitted_rounds:?}"
        );
        assert!(
            gaps.windows(2).all(|w| w[1] >= w[0]),
            "gaps must not shrink: {gaps:?}"
        );
        assert!(
            gaps.iter().all(|&g| g <= policy.probe_max),
            "gap exceeds cap: {gaps:?}"
        );
        assert_eq!(*gaps.last().unwrap(), policy.probe_max);
    }

    #[test]
    fn repeated_rejections_quarantine_like_crashes() {
        let mut reg = registry(2);
        let _ = reg.begin_round();
        reg.record_success(0); // replied on time...
        let _ = reg.record_rejection(0); // ...with garbage
        assert_eq!(reg.state(0), Some(ClientState::Suspect));
        let _ = reg.begin_round();
        reg.record_success(0);
        let _ = reg.record_rejection(0);
        assert_eq!(reg.state(0), Some(ClientState::Quarantined));
        let next = reg.begin_round();
        assert_eq!(admitted(&reg, next), vec![1]);
    }

    #[test]
    fn transport_success_does_not_clear_integrity_streak() {
        let mut reg = registry(1);
        let _ = reg.begin_round();
        let _ = reg.record_rejection(0);
        // Next round: punctual reply, but no accepted update.
        let _ = reg.begin_round();
        reg.record_success(0);
        assert_eq!(
            reg.state(0),
            Some(ClientState::Suspect),
            "punctuality must not launder a Byzantine streak"
        );
        let _ = reg.record_rejection(0);
        assert_eq!(reg.state(0), Some(ClientState::Quarantined));
    }

    #[test]
    fn accepted_update_restores_health() {
        let mut reg = registry(1);
        let _ = reg.begin_round();
        reg.record_success(0);
        let _ = reg.record_rejection(0);
        let _ = reg.begin_round();
        reg.record_success(0);
        reg.record_accepted(0);
        assert_eq!(reg.state(0), Some(ClientState::Healthy));
        // A later single rejection is suspect, not quarantined: the
        // streak reset.
        let _ = reg.begin_round();
        let _ = reg.record_rejection(0);
        assert_eq!(reg.state(0), Some(ClientState::Suspect));
    }

    #[test]
    fn rejected_probes_back_off_like_failed_probes() {
        let mut reg = registry(1);
        // Quarantine via rejections.
        for _ in 0..2 {
            let _ = reg.begin_round();
            reg.record_success(0);
            let _ = reg.record_rejection(0);
        }
        assert_eq!(reg.state(0), Some(ClientState::Quarantined));
        let mut probes = Vec::new();
        for _ in 0..40 {
            let round = reg.begin_round();
            if admitted(&reg, round).contains(&0) {
                probes.push(round);
                reg.record_success(0);
                let _ = reg.record_rejection(0);
            }
        }
        assert!(probes.len() >= 3, "expected repeated probes: {probes:?}");
        let gaps: Vec<u64> = probes.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            gaps.windows(2).all(|w| w[1] >= w[0]),
            "gaps shrank: {gaps:?}"
        );
        let report = reg.report();
        assert!(report.clients[0].byzantine >= 4);
        assert!(report.to_string().contains("rejected"));
    }

    #[test]
    fn admission_is_the_unquarantined_plus_due_probes() {
        let mut reg = registry(6);
        // Drive a mixed history: crashes, rejections, recoveries.
        for step in 0..30u64 {
            let round = reg.begin_round();
            for id in admitted(&reg, round) {
                match (id + step as usize) % 4 {
                    0 => {
                        let _ = reg.record_failure(id);
                    }
                    1 => {
                        reg.record_success(id);
                        let _ = reg.record_rejection(id);
                    }
                    2 => {
                        reg.record_success(id);
                        reg.record_accepted(id);
                    }
                    _ => reg.record_success(id),
                }
            }
            let round = reg.round();
            let due = reg.probes_due(round);
            let mut expected: Vec<usize> = (0..6)
                .filter(|&id| reg.state(id) != Some(ClientState::Quarantined))
                .chain(due)
                .collect();
            expected.sort_unstable();
            assert_eq!(
                admitted(&reg, round),
                expected,
                "divergence at round {round}"
            );
        }
        assert!(!reg.is_admitted(99, 1), "unknown id admitted");
    }

    #[test]
    fn probes_due_tracks_quarantined_probe_rounds() {
        let mut reg = registry(3);
        // Quarantine clients 0 and 2.
        for _ in 0..2 {
            let _ = reg.begin_round();
            let _ = reg.record_failure(0);
            let _ = reg.record_failure(2);
        }
        assert_eq!(reg.quarantined_count(), 2);
        // Probes become due at their scheduled round, all at once, and a
        // recovery removes the client from the index.
        let mut saw_due = false;
        for _ in 0..10 {
            let round = reg.begin_round();
            let due = reg.probes_due(round);
            for &id in &due {
                assert!(reg.is_admitted(id, round), "due probe not admitted");
            }
            if !due.is_empty() {
                saw_due = true;
                assert_eq!(due, vec![0, 2]);
                reg.record_success(0); // client 0 recovers
                let _ = reg.record_failure(2); // client 2 fails its probe
                break;
            }
        }
        assert!(saw_due, "no probe ever came due");
        assert_eq!(reg.quarantined_count(), 1);
        let round = reg.round();
        assert!(reg.probes_due(round).is_empty(), "failed probe still due");
        assert_eq!(reg.state(0), Some(ClientState::Healthy));
        // Client 2's deepened backoff eventually comes due again.
        let mut due_again = false;
        for _ in 0..20 {
            let round = reg.begin_round();
            if reg.probes_due(round) == vec![2] {
                due_again = true;
                break;
            }
        }
        assert!(due_again, "backoff starved the failed probe");
    }

    /// Drives a registry through a scripted future and returns the full
    /// observable trace: per-round admitted sets plus the final report.
    fn drive(reg: &mut HealthRegistry, rounds: u64) -> Vec<Vec<usize>> {
        let mut trace = Vec::new();
        for step in 0..rounds {
            let round = reg.begin_round();
            let admitted = admitted(reg, round);
            for &id in &admitted {
                match (id as u64 + step) % 5 {
                    0 => {
                        let _ = reg.record_failure(id);
                    }
                    1 => {
                        reg.record_success(id);
                        let _ = reg.record_rejection(id);
                    }
                    2 => {
                        reg.record_success(id);
                        reg.record_accepted(id);
                    }
                    _ => reg.record_success(id),
                }
            }
            trace.push(admitted);
        }
        trace
    }

    #[test]
    fn export_restore_round_trips_exactly() {
        let mut reg = registry(5);
        let _ = drive(&mut reg, 13);
        let state = reg.export_state();
        let mut restored = registry(5);
        restored.restore_state(&state).unwrap();
        assert_eq!(restored.export_state(), state);
        // Indexes were rebuilt, not copied: O(1) queries agree.
        assert_eq!(restored.quarantined_count(), reg.quarantined_count());
        let round = reg.round();
        for id in 0..5 {
            assert_eq!(restored.state(id), reg.state(id));
            assert_eq!(restored.is_admitted(id, round), reg.is_admitted(id, round));
        }
        assert_eq!(restored.probes_due(round + 4), reg.probes_due(round + 4));
    }

    #[test]
    fn restored_registry_drives_future_rounds_identically() {
        // Quarantine sets, integrity streaks, and probe backoff schedules
        // must all survive the round trip: the restored registry and the
        // original must admit the same clients in every future round.
        let mut reg = registry(6);
        let _ = drive(&mut reg, 17);
        let state = reg.export_state();
        let mut restored = registry(6);
        restored.restore_state(&state).unwrap();
        let future_a = drive(&mut reg, 25);
        let future_b = drive(&mut restored, 25);
        assert_eq!(future_a, future_b, "futures diverged after restore");
        assert_eq!(reg.export_state(), restored.export_state());
    }

    #[test]
    fn restore_preserves_integrity_streaks() {
        // A client one rejection away from quarantine must still be one
        // rejection away after restore — punctual replies in between must
        // not launder the streak (same rule as the live registry).
        let mut reg = registry(1);
        let _ = reg.begin_round();
        reg.record_success(0);
        let _ = reg.record_rejection(0);
        assert_eq!(reg.state(0), Some(ClientState::Suspect));
        let mut restored = registry(1);
        restored.restore_state(&reg.export_state()).unwrap();
        let _ = restored.begin_round();
        restored.record_success(0);
        assert_eq!(restored.state(0), Some(ClientState::Suspect));
        let _ = restored.record_rejection(0);
        assert_eq!(restored.state(0), Some(ClientState::Quarantined));
    }

    #[test]
    fn restore_preserves_probe_backoff_schedule() {
        let policy = HealthPolicy {
            quarantine_after: 1,
            probe_base: 2,
            probe_max: 8,
        };
        let mut reg = HealthRegistry::new(1, policy.clone());
        // Fail several probes to deepen the backoff.
        for _ in 0..20 {
            let round = reg.begin_round();
            if admitted(&reg, round).contains(&0) {
                let _ = reg.record_failure(0);
            }
        }
        let mut restored = HealthRegistry::new(1, policy);
        restored.restore_state(&reg.export_state()).unwrap();
        for _ in 0..20 {
            let ra = reg.begin_round();
            let rb = restored.begin_round();
            assert_eq!(ra, rb);
            assert_eq!(admitted(&reg, ra), admitted(&restored, rb));
            assert_eq!(reg.probes_due(ra), restored.probes_due(rb));
            if admitted(&reg, ra).contains(&0) {
                let _ = reg.record_failure(0);
                let _ = restored.record_failure(0);
            }
        }
    }

    #[test]
    fn restore_rejects_client_count_mismatch() {
        let reg = registry(3);
        let state = reg.export_state();
        let mut other = registry(4);
        let err = other.restore_state(&state).unwrap_err();
        assert!(err.contains("3 clients"), "unhelpful error: {err}");
    }

    #[test]
    fn report_counts_states() {
        let mut reg = registry(3);
        for _ in 0..2 {
            let _ = reg.begin_round();
            let _ = reg.record_failure(2);
            reg.record_success(0);
        }
        let _ = reg.begin_round();
        let _ = reg.record_failure(1);
        let report = reg.report();
        assert_eq!(report.count(ClientState::Healthy), 1);
        assert_eq!(report.count(ClientState::Suspect), 1);
        assert_eq!(report.count(ClientState::Quarantined), 1);
        let quarantined: Vec<usize> = report
            .clients
            .iter()
            .filter(|c| c.state == ClientState::Quarantined)
            .map(|c| c.client_id)
            .collect();
        assert_eq!(quarantined, vec![2]);
        let rendered = report.to_string();
        assert!(rendered.contains("1 healthy / 1 suspect / 1 quarantined"));
    }
}
