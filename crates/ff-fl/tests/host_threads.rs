//! The runtime's thread budget: a 10,000-client round runs on at most
//! [`MAX_HOSTS`] host threads. A probe client reads the process's live
//! thread count from `/proc/self/status` while the round is running.
//! (Alone in its test binary, so no other test's threads are counted.)

use ff_fl::client::{EvalOutput, FitOutput, FlClient};
use ff_fl::config::ConfigMap;
use ff_fl::message::Instruction;
use ff_fl::robust::AggregationStrategy;
use ff_fl::runtime::{FederatedRuntime, RoundPolicy, MAX_HOSTS};
use ff_fl::strategy::fit_updates;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const FLEET: usize = 10_000;

/// Fits a unit parameter; the probe additionally records the process's
/// thread count mid-round.
struct Client {
    threads_seen: Option<Arc<AtomicUsize>>,
}

/// `Threads:` from `/proc/self/status`.
fn live_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads line")
}

impl FlClient for Client {
    fn get_properties(&mut self, _config: &ConfigMap) -> ConfigMap {
        ConfigMap::new()
    }
    fn fit(&mut self, _params: &[f64], _config: &ConfigMap) -> FitOutput {
        if let Some(seen) = &self.threads_seen {
            seen.fetch_max(live_threads(), Ordering::SeqCst);
        }
        FitOutput {
            params: vec![1.0],
            num_examples: 1,
            metrics: ConfigMap::new(),
        }
    }
    fn evaluate(&mut self, _params: &[f64], _config: &ConfigMap) -> EvalOutput {
        EvalOutput {
            loss: 0.0,
            num_examples: 1,
            metrics: ConfigMap::new(),
        }
    }
}

#[test]
fn ten_thousand_clients_run_on_at_most_max_hosts_threads() {
    if std::fs::metadata("/proc/self/status").is_err() {
        return; // no procfs on this platform
    }
    let seen = Arc::new(AtomicUsize::new(0));
    let clients: Vec<Box<dyn FlClient>> = (0..FLEET)
        .map(|id| {
            Box::new(Client {
                threads_seen: (id % 1_000 == 999).then(|| seen.clone()),
            }) as Box<dyn FlClient>
        })
        .collect();
    let rt = FederatedRuntime::new(clients);
    let policy = RoundPolicy {
        deadline: None,
        ..RoundPolicy::default()
    };
    let fit = Instruction::Fit {
        params: vec![0.0],
        config: ConfigMap::new(),
    };
    let out = rt.run_round(&fit, &policy).unwrap();
    assert_eq!(out.replies.len(), FLEET);
    // FedAvg, as the engine's `RoundCtx` aggregates it: no screen.
    let updates = fit_updates(out.replies).unwrap();
    let global = AggregationStrategy::FedAvg.aggregate(updates).unwrap();
    assert_eq!(global, vec![1.0]);
    // The hosts drive every client, so the hosts plus the harness's main
    // and test threads are all that may run.
    let budget = MAX_HOSTS + 2;
    let threads = seen.load(Ordering::SeqCst);
    assert!(
        threads > MAX_HOSTS,
        "probe saw {threads} threads: hosts missing?"
    );
    assert!(
        threads <= budget,
        "{threads} live threads during a {FLEET}-client round (budget {budget})"
    );
}
