//! Fleet-scale acceptance: a 10,000-client federation survives chaos
//! plus a Byzantine minority, deterministically, within a bounded process
//! peak RSS. Each round runs through `run_round` and is then screened and
//! aggregated the way the engine's `RoundCtx` does it.
//!
//! The fault schedule is seeded from `CHAOS_SEED` (the CI chaos matrix
//! exports 0, 1, 2) via [`ChaosConfig::fleet_profile`]; every assertion
//! here is seed-independent by design — a seed that breaks one is a bug
//! in the fleet machinery, not in the test.

use ff_fl::chaos::{ChaosClient, ChaosConfig};
use ff_fl::client::{EvalOutput, FitOutput, FlClient};
use ff_fl::config::ConfigMap;
use ff_fl::health::ClientState;
use ff_fl::message::Instruction;
use ff_fl::robust::{AggregationStrategy, GuardPolicy, UpdateGuard};
use ff_fl::runtime::{FederatedRuntime, RoundOutcome, RoundPolicy};
use ff_fl::strategy::fit_updates;

const FLEET: usize = 10_000;
const DIM: usize = 32;

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Honest client fitting `self.0` coordinates: constant unit parameters,
/// loss = distance to broadcast.
struct Honest(usize);

impl FlClient for Honest {
    fn get_properties(&mut self, _config: &ConfigMap) -> ConfigMap {
        ConfigMap::new()
    }
    fn fit(&mut self, _params: &[f64], _config: &ConfigMap) -> FitOutput {
        FitOutput {
            params: vec![1.0; self.0],
            num_examples: 1,
            metrics: ConfigMap::new(),
        }
    }
    fn evaluate(&mut self, params: &[f64], _config: &ConfigMap) -> EvalOutput {
        let center = params.first().copied().unwrap_or(0.0);
        EvalOutput {
            loss: (1.0 - center).abs(),
            num_examples: 1,
            metrics: ConfigMap::new(),
        }
    }
}

/// Builds the 10,000-client fleet of `dim`-coordinate clients: every
/// client wrapped in its deterministic chaos profile — `byz` Byzantine,
/// `fault` availability-faulty, both seeded from `(seed, client_id)`.
fn chaotic_fleet(seed: u64, byz: f64, fault: f64, dim: usize) -> Vec<Box<dyn FlClient>> {
    (0..FLEET)
        .map(|id| {
            let profile = ChaosConfig::fleet_profile(seed, id, byz, fault);
            Box::new(ChaosClient::new(Box::new(Honest(dim)), profile)) as Box<dyn FlClient>
        })
        .collect()
}

/// A fleet sampling `fraction` of its clients per round.
fn fleet(clients: Vec<Box<dyn FlClient>>, fraction: f64) -> FederatedRuntime {
    FederatedRuntime::new(clients)
        .with_cohort(fraction, 42)
        .unwrap()
}

/// One coordinate-median fit round of `dim` coordinates, screened and
/// aggregated the way the engine's `RoundCtx` does it: screen the
/// updates, book each verdict with the runtime, aggregate the survivors.
/// Returns the round, the accepted ids and the aggregate.
fn fit_round(
    rt: &FederatedRuntime,
    guard: &mut UpdateGuard,
    dim: usize,
) -> (RoundOutcome, Vec<usize>, Vec<f64>) {
    let fit = Instruction::Fit {
        params: vec![0.0; dim],
        config: ConfigMap::new(),
    };
    let mut out = rt.run_round(&fit, &policy()).unwrap();
    let updates = fit_updates(std::mem::take(&mut out.replies)).unwrap();
    let screened = guard.screen_updates(updates);
    for (id, _) in &screened.rejected {
        rt.record_update_rejected(*id);
    }
    let accepted: Vec<usize> = screened.accepted.iter().map(|(id, _, _)| *id).collect();
    for &id in &accepted {
        rt.record_update_accepted(id);
    }
    let global = AggregationStrategy::CoordinateMedian
        .aggregate(screened.accepted)
        .unwrap();
    (out, accepted, global)
}

fn guard() -> UpdateGuard {
    UpdateGuard::new(GuardPolicy::default())
}

fn policy() -> RoundPolicy {
    RoundPolicy {
        deadline: None, // chaos drops surface as deterministic timeouts
        min_responses: 1,
        retries: 1,
        backoff: std::time::Duration::ZERO,
    }
}

/// The headline acceptance test: 2% Byzantine + 3% flaky links across
/// 10,000 clients. Every round must complete, the robust aggregate must
/// stay within tolerance of the clean (all-honest) value, repeat
/// offenders must end up quarantined, and nobody honest may be.
#[test]
fn ten_thousand_client_rounds_survive_chaos_and_byzantine() {
    let seed = chaos_seed();
    let (byz, fault) = (0.02, 0.03);
    let fleet = fleet(chaotic_fleet(seed, byz, fault, DIM), 0.1); // cohort of 1,000 per round
    let mut guard = guard();

    // 20 rounds: the 10%-participation sampler cycles the full fleet
    // twice, so every persistent attacker is observed (and rejected) at
    // least twice — enough for the health registry to quarantine it.
    for round in 1..=20u64 {
        let (out, _, global) = fit_round(&fleet, &mut guard, DIM);
        assert_eq!(out.round, round);
        assert_eq!(global.len(), DIM);
        // The clean-run aggregate is exactly 1.0 per coordinate.
        for g in &global {
            assert!(
                (g - 1.0).abs() < 0.05,
                "round {round}: aggregate drifted to {g} under attack"
            );
        }
    }

    // Quarantine precision: every quarantined client misbehaves by
    // construction; no honest client may be collateral damage.
    let mut quarantined_byzantine = 0usize;
    let mut quarantined = 0usize;
    for id in 0..FLEET {
        if fleet.client_state(id) == Some(ClientState::Quarantined) {
            quarantined += 1;
            let profile = ChaosConfig::fleet_profile(seed, id, byz, fault);
            assert!(
                profile.is_byzantine() || profile.drop_prob > 0.0 || profile.corrupt_prob > 0.0,
                "honest client {id} was quarantined"
            );
            if profile.is_byzantine() {
                quarantined_byzantine += 1;
            }
        }
    }
    assert!(
        quarantined_byzantine > 0,
        "no Byzantine client was quarantined after 20 rounds \
         ({quarantined} quarantined total)"
    );
}

/// The determinism acceptance test: a fixed seed must produce the same
/// cohorts and a bit-identical aggregate whether the process runs one
/// worker or four.
#[test]
fn fleet_rounds_are_bit_identical_across_thread_counts() {
    /// Cohort, accepted, dropout ids, and aggregate bits for one round.
    type RoundTrace = (Vec<usize>, Vec<usize>, Vec<usize>, Vec<u64>);
    let seed = chaos_seed();
    let run = |threads: usize| {
        ff_par::with_threads(threads, || {
            let fleet = fleet(chaotic_fleet(seed, 0.02, 0.03, DIM), 0.1);
            let mut guard = guard();
            let mut trace: Vec<RoundTrace> = Vec::new();
            for _ in 0..3 {
                let (out, accepted, global) = fit_round(&fleet, &mut guard, DIM);
                trace.push((
                    out.cohort,
                    accepted,
                    out.dropouts.into_iter().map(|(id, _)| id).collect(),
                    global.iter().map(|g| g.to_bits()).collect(),
                ));
            }
            trace
        })
    };
    assert_eq!(run(1), run(4));
}

/// Process-wide peak resident set (`VmHWM`) in MiB, from
/// `/proc/self/status`; 0.0 where unavailable (non-Linux).
fn rss_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    (status.lines())
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The real-hardware memory ceiling: ten rounds of a 10,000-client,
/// 64-coordinate chaos fleet (1% Byzantine, 2% flaky links) under
/// coordinate median with a 10% cohort, at one worker and at four, must
/// leave the whole process's peak RSS within 512 MiB.
#[test]
fn fleet_rounds_stay_under_the_peak_rss_ceiling() {
    const RSS_CEILING_MB: f64 = 512.0;
    const WIDE: usize = 64;
    for threads in [1, 4] {
        ff_par::with_threads(threads, || {
            let fleet = fleet(chaotic_fleet(0, 0.01, 0.02, WIDE), 0.1);
            let mut guard = guard();
            for _ in 0..10 {
                let (_, _, global) = fit_round(&fleet, &mut guard, WIDE);
                assert_eq!(global.len(), WIDE);
            }
        });
    }
    let peak = rss_hwm_mb();
    assert!(
        peak <= RSS_CEILING_MB,
        "peak RSS {peak:.1} MiB exceeds the {RSS_CEILING_MB} MiB ceiling"
    );
}
