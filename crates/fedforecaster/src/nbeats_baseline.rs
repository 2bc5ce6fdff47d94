//! The N-BEATS baselines of §5: federated N-BEATS trained with FedAvg
//! across the clients, and "N-Beats Cons." trained centrally on the
//! consolidated series.

use crate::budget::{Budget, BudgetTracker};
use crate::engine::RoundCtx;
use crate::{EngineError, Result};
use ff_fl::client::{EvalOutput, FitOutput, FlClient};
use ff_fl::config::{ConfigMap, ConfigMapExt};
use ff_fl::message::Instruction;
use ff_fl::runtime::FederatedRuntime;
use ff_fl::secure::{mask_contribution, unmask_average};
use ff_fl::strategy::{aggregate_loss, fedavg, unwrap_eval_replies, unwrap_fit_replies};
use ff_models::metrics::mse;
use ff_neural::nbeats::{NBeats, NBeatsConfig};
use ff_neural::Parameterized;
use ff_timeseries::{interpolate, TimeSeries};
use std::time::Duration;

/// Result of an N-BEATS baseline run.
#[derive(Debug, Clone)]
pub struct NBeatsResult {
    /// Aggregated one-step test MSE.
    pub test_mse: f64,
    /// FedAvg rounds completed (1 for the consolidated variant).
    pub rounds: usize,
    /// Wall-clock spent training.
    pub elapsed: Duration,
}

/// A federated N-BEATS client: trains the shared architecture locally and
/// ships flat weights for FedAvg.
struct NBeatsClient {
    /// The client's id in the federation (the secure-aggregation mask
    /// pairing needs it).
    id: usize,
    net: NBeats,
    train: Vec<f64>,
    valid: Vec<f64>,
    test: Vec<f64>,
    local_steps: usize,
}

impl NBeatsClient {
    fn new(id: usize, series: &TimeSeries, cfg: NBeatsConfig, local_steps: usize) -> NBeatsClient {
        let filled = interpolate::interpolated(series);
        let v = filled.values();
        let n = v.len();
        let test_start = ((n as f64) * 0.85).round() as usize;
        let train_end = ((n as f64) * 0.70).round() as usize;
        NBeatsClient {
            id,
            net: NBeats::new(cfg),
            train: v[..train_end].to_vec(),
            valid: v[train_end..test_start].to_vec(),
            test: v[test_start..].to_vec(),
            local_steps,
        }
    }

    fn eval_split(&self, split: &str) -> (f64, usize) {
        let (history, eval): (Vec<f64>, &[f64]) = match split {
            "valid" => (self.train.clone(), &self.valid),
            _ => {
                let mut h = self.train.clone();
                h.extend_from_slice(&self.valid);
                (h, &self.test)
            }
        };
        if eval.is_empty() {
            return (f64::INFINITY, 0);
        }
        let preds = self.net.predict_one_step(&history, eval);
        (mse(eval, &preds), eval.len())
    }
}

impl FlClient for NBeatsClient {
    fn get_properties(&mut self, _config: &ConfigMap) -> ConfigMap {
        ConfigMap::new().with_int("n_train", self.train.len() as i64)
    }

    fn fit(&mut self, params: &[f64], config: &ConfigMap) -> FitOutput {
        if !params.is_empty() {
            self.net.set_params_flat(params);
        }
        let steps = config.int_or("local_steps", self.local_steps as i64) as usize;
        // Local training on train + valid (the baselines tune against the
        // same optimization data the engine sees).
        let mut data = self.train.clone();
        data.extend_from_slice(&self.valid);
        let done = self.net.fit_series(&data, steps, || false);
        let num_examples = data.len() as u64;
        let raw = self.net.params_flat();
        // Secure aggregation: mask the weighted update so the server only
        // ever sees the sum (ff_fl::secure). The round seed and federation
        // size arrive in the config (models a completed key agreement).
        let upload = match (
            config.int_or("secure_round", -1),
            config.int_or("n_clients", -1),
        ) {
            (round, n) if round >= 0 && n > 0 => {
                mask_contribution(&raw, num_examples as f64, self.id, n as usize, round as u64)
            }
            _ => raw,
        };
        FitOutput {
            params: upload,
            num_examples,
            metrics: ConfigMap::new().with_int("steps_done", done as i64),
        }
    }

    fn evaluate(&mut self, params: &[f64], config: &ConfigMap) -> EvalOutput {
        if !params.is_empty() {
            self.net.set_params_flat(params);
        }
        let (loss, n) = self.eval_split(config.str_or("split", "test"));
        EvalOutput {
            loss,
            num_examples: n as u64,
            metrics: ConfigMap::new(),
        }
    }
}

/// Runs federated N-BEATS with FedAvg until the budget is exhausted.
///
/// `local_steps` mini-batch steps per client per round; the architecture is
/// [`NBeatsConfig::small`] by default (pass `paper_config = true` for the
/// §5.1 architecture — 512 seasonal / 64 trend neurons, batch 256,
/// lr 5e-4 — which is markedly slower).
pub fn run_federated_nbeats(
    clients: &[TimeSeries],
    budget: Budget,
    local_steps: usize,
    paper_config: bool,
    seed: u64,
) -> Result<NBeatsResult> {
    run_federated_nbeats_opts(clients, budget, local_steps, paper_config, seed, false)
}

/// [`run_federated_nbeats`] with secure aggregation: when `secure` is set,
/// every round's weight uploads are pairwise-masked
/// ([`ff_fl::secure`]) so the server only sees their sum. The resulting
/// global model is numerically identical to plain FedAvg (the masks cancel
/// exactly up to floating-point round-off); only the privacy surface
/// changes.
pub fn run_federated_nbeats_opts(
    clients: &[TimeSeries],
    budget: Budget,
    local_steps: usize,
    paper_config: bool,
    seed: u64,
    secure: bool,
) -> Result<NBeatsResult> {
    if clients.is_empty() {
        return Err(EngineError::InvalidData("no clients".into()));
    }
    let n_clients = clients.len();
    let cfg = nbeats_config(paper_config, seed);
    let boxed: Vec<Box<dyn FlClient>> = clients
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Box::new(NBeatsClient::new(id, s, cfg.clone(), local_steps)) as Box<dyn FlClient>
        })
        .collect();
    let rt = FederatedRuntime::new(boxed);
    // Every round needs every client.
    let strict = RoundCtx::strict(&rt).policy;

    let mut tracker = BudgetTracker::start(budget);
    // Server-side initialization: broadcast one canonical weight vector so
    // round-one FedAvg averages aligned parameters.
    let mut server_net = NBeats::new(cfg);
    let mut global = server_net.params_flat();
    let mut rounds = 0usize;
    while !tracker.exhausted() {
        let mut config = ConfigMap::new().with_int("local_steps", local_steps as i64);
        if secure {
            config = config
                .with_int("secure_round", rounds as i64)
                .with_int("n_clients", n_clients as i64);
        }
        let ins = Instruction::Fit {
            params: global,
            config,
        };
        let fit_results = unwrap_fit_replies(rt.run_round(&ins, &strict)?.replies)
            .map_err(EngineError::Federation)?;
        global = if secure {
            let total_weight: f64 = fit_results.iter().map(|(_, w)| *w as f64).sum();
            let uploads: Vec<Vec<f64>> = fit_results.into_iter().map(|(p, _)| p).collect();
            unmask_average(&uploads, total_weight).ok_or_else(|| {
                EngineError::Federation(ff_fl::FlError::Client("unmasking failed".into()))
            })?
        } else {
            fedavg(&fit_results).map_err(EngineError::Federation)?
        };
        rounds += 1;
        tracker.record_iteration();
    }
    let eval = rt.run_round(
        &Instruction::Evaluate {
            params: global,
            config: ConfigMap::new().with_str("split", "test"),
        },
        &strict,
    )?;
    let losses = unwrap_eval_replies(eval.replies).map_err(EngineError::Federation)?;
    let test_mse = aggregate_loss(&losses).map_err(EngineError::Federation)?;
    Ok(NBeatsResult {
        test_mse,
        rounds,
        elapsed: tracker.elapsed(),
    })
}

/// Trains N-BEATS centrally on a consolidated series ("N-Beats Cons."):
/// fit on the first 85%, report one-step MSE on the last 15%.
pub fn run_consolidated_nbeats(
    series: &TimeSeries,
    budget: Budget,
    paper_config: bool,
    seed: u64,
) -> Result<NBeatsResult> {
    let filled = interpolate::interpolated(series);
    let v = filled.values();
    if v.len() < 60 {
        return Err(EngineError::InvalidData("series too short".into()));
    }
    let test_start = ((v.len() as f64) * 0.85).round() as usize;
    let mut net = NBeats::new(nbeats_config(paper_config, seed));
    let tracker = BudgetTracker::start(budget);
    let max_steps = match budget {
        Budget::Iterations(n) => n * 50, // rounds × typical local steps
        Budget::Time(_) => usize::MAX,
    };
    {
        let t = &tracker;
        net.fit_series(&v[..test_start], max_steps, move || t.exhausted());
    }
    let preds = net.predict_one_step(&v[..test_start], &v[test_start..]);
    Ok(NBeatsResult {
        test_mse: mse(&v[test_start..], &preds),
        rounds: 1,
        elapsed: tracker.elapsed(),
    })
}

fn nbeats_config(paper_config: bool, seed: u64) -> NBeatsConfig {
    if paper_config {
        NBeatsConfig {
            lookback: 24,
            seed,
            ..Default::default()
        }
    } else {
        NBeatsConfig {
            batch_size: 64,
            learning_rate: 2e-3,
            ..NBeatsConfig::small(12, seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_timeseries::synthesis::{generate, SeasonSpec, SynthesisSpec};

    fn federation() -> Vec<TimeSeries> {
        let s = generate(
            &SynthesisSpec {
                n: 600,
                seasons: vec![SeasonSpec {
                    period: 12.0,
                    amplitude: 2.0,
                }],
                snr: Some(30.0),
                ..Default::default()
            },
            11,
        );
        s.split_clients(3)
    }

    #[test]
    fn federated_nbeats_runs_and_reports_finite_mse() {
        let r = run_federated_nbeats(&federation(), Budget::Iterations(3), 20, false, 0).unwrap();
        assert_eq!(r.rounds, 3);
        assert!(r.test_mse.is_finite());
    }

    #[test]
    fn more_rounds_do_not_catastrophically_diverge() {
        let short = run_federated_nbeats(&federation(), Budget::Iterations(1), 10, false, 0)
            .unwrap()
            .test_mse;
        let long = run_federated_nbeats(&federation(), Budget::Iterations(6), 10, false, 0)
            .unwrap()
            .test_mse;
        assert!(long.is_finite() && short.is_finite());
        assert!(long < short * 10.0, "training diverged: {short} → {long}");
    }

    #[test]
    fn secure_aggregation_matches_plain_fedavg() {
        let clients = federation();
        let plain = run_federated_nbeats_opts(&clients, Budget::Iterations(2), 15, false, 3, false)
            .unwrap();
        let secure =
            run_federated_nbeats_opts(&clients, Budget::Iterations(2), 15, false, 3, true).unwrap();
        // Masks cancel exactly up to floating-point round-off, so the final
        // test losses agree tightly.
        assert!(
            (plain.test_mse - secure.test_mse).abs() < 1e-6 * (1.0 + plain.test_mse),
            "plain {} vs secure {}",
            plain.test_mse,
            secure.test_mse
        );
    }

    #[test]
    fn consolidated_nbeats_runs() {
        let s = generate(
            &SynthesisSpec {
                n: 700,
                seasons: vec![SeasonSpec {
                    period: 12.0,
                    amplitude: 2.0,
                }],
                snr: Some(30.0),
                ..Default::default()
            },
            12,
        );
        let r = run_consolidated_nbeats(&s, Budget::Iterations(4), false, 0).unwrap();
        assert!(r.test_mse.is_finite());
    }

    #[test]
    fn consolidated_rejects_short_series() {
        let s = TimeSeries::with_regular_index(0, 60, vec![1.0; 20]);
        assert!(run_consolidated_nbeats(&s, Budget::Iterations(1), false, 0).is_err());
    }

    #[test]
    fn empty_federation_rejected() {
        assert!(run_federated_nbeats(&[], Budget::Iterations(1), 5, false, 0).is_err());
    }
}
