//! The ask/tell Bayesian-optimization loop.
//!
//! Algorithm 1 (lines 14–22): the server initializes the optimizer with the
//! meta-model's recommended configurations (warm start), then iteratively
//! asks for the next configuration, evaluates it on the federation, and
//! tells the observed *global* loss back.

use crate::acquisition::expected_improvement;
use crate::gp::IncrementalGp;
use crate::space::{Configuration, RawValue, SearchSpace};
use crate::{BoError, Result};
use ff_trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Purely random configurations asked before the first model-guided step
/// when no warm start is queued.
const N_INITIAL: usize = 5;
/// Candidate pool size for the acquisition argmax.
const N_CANDIDATES: usize = 500;
/// Candidates scored per ff-par task: one kernel block and one blocked
/// triangular solve each.
const ACQUIRE_BLOCK: usize = 64;
/// GP observation-noise variance.
const NOISE: f64 = 1e-4;
/// Expected Improvement's exploration margin (the paper's acquisition).
const XI: f64 = 0.01;

/// Gaussian-process Bayesian optimizer over a [`SearchSpace`]
/// (minimization), guided by Expected Improvement.
///
/// # Examples
///
/// ```
/// use ff_bayesopt::optimizer::BayesOpt;
/// use ff_bayesopt::space::{ParamSpec, SearchSpace};
///
/// let space = SearchSpace::new().with("x", ParamSpec::Continuous { lo: 0.0, hi: 1.0 });
/// let mut bo = BayesOpt::new(space, 7).unwrap();
/// for _ in 0..15 {
///     let cfg = bo.ask().unwrap();
///     let x = cfg["x"].as_f64();
///     bo.tell(&cfg, (x - 0.3) * (x - 0.3)).unwrap(); // minimize (x-0.3)²
/// }
/// let (_, best_loss) = bo.best().unwrap();
/// assert!(best_loss < 0.05);
/// ```
pub struct BayesOpt {
    space: SearchSpace,
    /// Warm-start configurations evaluated before any model-guided step.
    warm_start: Vec<Configuration>,
    observations: Vec<(Configuration, f64)>,
    /// The GP over the encoded observations, extended at each model-guided
    /// ask.
    surrogate: IncrementalGp,
    pending: Option<Configuration>,
    rng: StdRng,
    tracer: Tracer,
}

impl std::fmt::Debug for BayesOpt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BayesOpt")
            .field("observations", &self.observations.len())
            .field("warm_start_remaining", &self.warm_start.len())
            .finish()
    }
}

impl BayesOpt {
    /// Creates an optimizer over the given space.
    pub fn new(space: SearchSpace, seed: u64) -> Result<BayesOpt> {
        if space.is_empty() {
            return Err(BoError::EmptySpace);
        }
        Ok(BayesOpt {
            space,
            warm_start: Vec::new(),
            observations: Vec::new(),
            surrogate: IncrementalGp::new(),
            pending: None,
            rng: StdRng::seed_from_u64(seed),
            tracer: Tracer::disabled(),
        })
    }

    /// Attaches a tracer: model-guided steps get `gp.fit` / `gp.acquire`
    /// spans and every `tell` bumps the `bo.tells` counter and updates
    /// the `bo.incumbent_loss` gauge.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Queues warm-start configurations (evaluated first, in order) — the
    /// meta-model recommendations of Algorithm 1.
    pub fn warm_start(&mut self, configs: Vec<Configuration>) {
        // Stored reversed so pop() yields them in the given order.
        self.warm_start = configs;
        self.warm_start.reverse();
    }

    /// The search space.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// Number of completed observations.
    pub fn n_observations(&self) -> usize {
        self.observations.len()
    }

    /// Asks for the next configuration to evaluate.
    pub fn ask(&mut self) -> Result<Configuration> {
        if let Some(pending) = &self.pending {
            // Re-asking without telling returns the same configuration.
            return Ok(pending.clone());
        }
        let next = if let Some(cfg) = self.warm_start.pop() {
            cfg
        } else if self.observations.len() < N_INITIAL {
            self.space.sample(&mut self.rng)
        } else {
            self.model_guided()?
        };
        self.pending = Some(next.clone());
        Ok(next)
    }

    fn model_guided(&mut self) -> Result<Configuration> {
        // Length scale by type-II maximum likelihood over a small grid; the
        // carried factors grow by the observations told since the last ask.
        let fit_span = self.tracer.span("gp.fit");
        let fitted = self.surrogate.fit(NOISE);
        drop(fit_span);
        let gp = match fitted {
            Ok(gp) => gp,
            // Numerical trouble: fall back to random search for this step.
            Err(_) => return Ok(self.space.sample(&mut self.rng)),
        };
        let _acquire_span = self.tracer.span("gp.acquire");
        let best = self
            .observations
            .iter()
            .map(|(_, y)| *y)
            .fold(f64::INFINITY, f64::min);
        // Draw every candidate and its tie-break jitter sequentially first,
        // in the RNG order of one `sample` and one jitter per candidate, so
        // the chosen configuration does not depend on the thread count.
        // Each candidate lands as its raw values plus its encoded row; only
        // the winner becomes a `Configuration`.
        let (p, d) = (self.space.len(), self.space.encoded_dim());
        let mut raw = vec![RawValue::Int(0); N_CANDIDATES * p];
        let mut rows = vec![0.0; N_CANDIDATES * d];
        let mut jitter = vec![0.0; N_CANDIDATES];
        for ((raw, row), jitter) in raw
            .chunks_exact_mut(p)
            .zip(rows.chunks_exact_mut(d))
            .zip(&mut jitter)
        {
            self.space.draw(&mut self.rng, raw, row);
            // Tiny jitter breaks exact ties deterministically via the RNG.
            *jitter = self.rng.gen::<f64>() * 1e-12;
        }
        // Scoring is pure — fixed-size blocks on the ff-par pool, each
        // candidate's prediction bit-identical to a one-at-a-time predict,
        // then the earliest maximum, matching the sequential keep-first
        // semantics.
        let blocks = ff_par::par_chunks_map(&rows, ACQUIRE_BLOCK * d, |b, block| {
            let moments = gp.predict_block(block)?;
            Ok(moments
                .into_iter()
                .zip(&jitter[b * ACQUIRE_BLOCK..])
                .map(|((mean, var), jitter)| expected_improvement(mean, var, best, XI) + jitter)
                .collect::<Vec<f64>>())
        });
        let scores = blocks.into_iter().collect::<Result<Vec<_>>>()?.concat();
        let chosen = scores
            .iter()
            .enumerate()
            .fold(0, |b, (i, &score)| if score <= scores[b] { b } else { i });
        Ok(self.space.configuration(&raw[chosen * p..(chosen + 1) * p]))
    }

    /// Reports the observed loss for the configuration most recently asked.
    pub fn tell(&mut self, config: &Configuration, loss: f64) -> Result<()> {
        match &self.pending {
            Some(p) if p == config => {}
            _ => {
                return Err(BoError::Protocol(
                    "tell() must follow ask() with the same configuration".into(),
                ))
            }
        }
        self.pending = None;
        let loss = if loss.is_finite() {
            loss
        } else {
            f64::MAX / 1e6
        };
        self.surrogate.push(self.space.encode(config), loss)?;
        self.observations.push((config.clone(), loss));
        if self.tracer.is_enabled() {
            self.tracer.counter_add("bo.tells", 1);
            if let Some((_, incumbent)) = self.best() {
                self.tracer.gauge_set("bo.incumbent_loss", incumbent);
            }
        }
        Ok(())
    }

    /// The best (lowest-loss) observation so far.
    pub fn best(&self) -> Option<(&Configuration, f64)> {
        self.observations
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(c, y)| (c, *y))
    }

    /// All observations as `(config, loss)` pairs, in evaluation order.
    pub fn history(&self) -> Vec<(&Configuration, f64)> {
        self.observations.iter().map(|(c, y)| (c, *y)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{ParamSpec, ParamValue};

    fn space_1d() -> SearchSpace {
        SearchSpace::new().with("x", ParamSpec::Continuous { lo: 0.0, hi: 1.0 })
    }

    /// Quadratic bowl with minimum at x = 0.3.
    fn objective(c: &Configuration) -> f64 {
        let x = c["x"].as_f64();
        (x - 0.3) * (x - 0.3)
    }

    #[test]
    fn optimizer_approaches_known_minimum() {
        let mut bo = BayesOpt::new(space_1d(), 7).unwrap();
        for _ in 0..30 {
            let cfg = bo.ask().unwrap();
            let loss = objective(&cfg);
            bo.tell(&cfg, loss).unwrap();
        }
        let (best_cfg, best_loss) = bo.best().unwrap();
        assert!(best_loss < 0.01, "best loss {best_loss}");
        assert!((best_cfg["x"].as_f64() - 0.3).abs() < 0.15);
    }

    #[test]
    fn bo_beats_pure_random_on_average() {
        // Same budget, same seeds: model-guided search should find a better
        // or equal optimum in most runs.
        let mut bo_wins = 0;
        for seed in 0..10u64 {
            let mut bo = BayesOpt::new(space_1d(), seed).unwrap();
            for _ in 0..20 {
                let cfg = bo.ask().unwrap();
                let loss = objective(&cfg);
                bo.tell(&cfg, loss).unwrap();
            }
            let bo_best = bo.best().unwrap().1;

            let mut rng = StdRng::seed_from_u64(seed + 1000);
            let space = space_1d();
            let rs_best = (0..20)
                .map(|_| objective(&space.sample(&mut rng)))
                .fold(f64::INFINITY, f64::min);
            if bo_best <= rs_best + 1e-9 {
                bo_wins += 1;
            }
        }
        assert!(bo_wins >= 6, "BO won only {bo_wins}/10 runs");
    }

    #[test]
    fn warm_start_is_evaluated_first_in_order() {
        let mut bo = BayesOpt::new(space_1d(), 0).unwrap();
        let mut c1 = Configuration::new();
        c1.insert("x".into(), ParamValue::Float(0.11));
        let mut c2 = Configuration::new();
        c2.insert("x".into(), ParamValue::Float(0.22));
        bo.warm_start(vec![c1.clone(), c2.clone()]);
        let a1 = bo.ask().unwrap();
        assert_eq!(a1, c1);
        bo.tell(&a1, 1.0).unwrap();
        let a2 = bo.ask().unwrap();
        assert_eq!(a2, c2);
        bo.tell(&a2, 0.5).unwrap();
        assert_eq!(bo.best().unwrap().1, 0.5);
    }

    #[test]
    fn re_ask_without_tell_returns_same_config() {
        let mut bo = BayesOpt::new(space_1d(), 3).unwrap();
        let a = bo.ask().unwrap();
        let b = bo.ask().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn tell_without_ask_is_protocol_error() {
        let mut bo = BayesOpt::new(space_1d(), 3).unwrap();
        let cfg = space_1d().sample(&mut StdRng::seed_from_u64(0));
        assert!(matches!(bo.tell(&cfg, 1.0), Err(BoError::Protocol(_))));
    }

    #[test]
    fn non_finite_losses_are_quarantined() {
        let mut bo = BayesOpt::new(space_1d(), 3).unwrap();
        let a = bo.ask().unwrap();
        bo.tell(&a, f64::NAN).unwrap();
        let b = bo.ask().unwrap();
        bo.tell(&b, 0.5).unwrap();
        assert_eq!(bo.best().unwrap().1, 0.5);
    }

    #[test]
    fn empty_space_rejected() {
        assert!(matches!(
            BayesOpt::new(SearchSpace::new(), 0),
            Err(BoError::EmptySpace)
        ));
    }

    #[test]
    fn tracer_sees_gp_spans_and_incumbent_gauge() {
        let tracer = Tracer::enabled();
        let mut bo = BayesOpt::new(space_1d(), 7).unwrap();
        bo.set_tracer(tracer.clone());
        for _ in 0..10 {
            let cfg = bo.ask().unwrap();
            let loss = objective(&cfg);
            bo.tell(&cfg, loss).unwrap();
        }
        let snap = tracer.snapshot();
        // N_INITIAL = 5, so later asks are model-guided and timed.
        assert!(!snap.spans_named("gp.fit").is_empty());
        assert!(!snap.spans_named("gp.acquire").is_empty());
        assert_eq!(snap.gauge("bo.incumbent_loss"), Some(bo.best().unwrap().1));
        // The gauge trajectory never increases (incumbent = running min).
        let traj: Vec<f64> = snap
            .events
            .iter()
            .filter(|e| e.name == "bo.incumbent_loss")
            .map(|e| e.value)
            .collect();
        assert_eq!(traj.len(), 10);
        assert!(traj.windows(2).all(|w| w[1] <= w[0] + 1e-15));
    }

    #[test]
    fn ask_sequence_is_identical_across_thread_counts() {
        // The whole ask/tell trajectory — including model-guided steps with
        // parallel acquisition scoring — must not depend on FF_THREADS.
        let run = |threads: usize| {
            ff_par::with_threads(threads, || {
                let mut bo = BayesOpt::new(space_1d(), 42).unwrap();
                let mut asked = Vec::new();
                for _ in 0..12 {
                    let cfg = bo.ask().unwrap();
                    let loss = objective(&cfg);
                    asked.push((cfg.clone(), loss.to_bits()));
                    bo.tell(&cfg, loss).unwrap();
                }
                asked
            })
        };
        let seq = run(1);
        assert_eq!(run(2), seq);
        assert_eq!(run(8), seq);
    }

    #[test]
    fn history_preserves_order() {
        let mut bo = BayesOpt::new(space_1d(), 5).unwrap();
        for i in 0..5 {
            let cfg = bo.ask().unwrap();
            bo.tell(&cfg, i as f64).unwrap();
        }
        let h = bo.history();
        assert_eq!(h.len(), 5);
        assert_eq!(h[0].1, 0.0);
        assert_eq!(h[4].1, 4.0);
    }
}
