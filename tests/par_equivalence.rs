//! Thread-count invariance suite: every kernel and every ff-par task loop
//! must produce **bit-identical** output at every thread count. Each is
//! pinned under `FF_THREADS ∈ {1, 2, 8}` (via the thread-local override,
//! which takes the same resolution path), and one full engine run is
//! compared end-to-end — `RunResult` numerics and the serialized global
//! model, byte for byte — between a process-global worker count of 1
//! and 8.

use fedforecaster::engine::FedForecaster;
use fedforecaster::prelude::*;
use ff_bayesopt::gp::GaussianProcess;
use ff_linalg::{CholeskyFactor, Matrix};
use ff_metalearn::kb::KnowledgeBase;
use ff_metalearn::metamodel::{MetaClassifierKind, MetaModel};
use ff_metalearn::synth::synthetic_kb;
use ff_models::forest::RandomForestRegressor;
use ff_models::Regressor;
use ff_timeseries::synthesis::{generate, SeasonSpec, SynthesisSpec, TrendSpec};
use ff_timeseries::TimeSeries;

/// A cheap deterministic value stream for building test inputs.
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `f` under thread counts 1, 2, and 8 and asserts every run returns
/// the same value.
fn assert_thread_invariant<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) {
    let seq = ff_par::with_threads(1, &f);
    for threads in [2usize, 8] {
        let par = ff_par::with_threads(threads, &f);
        assert_eq!(par, seq, "output changed at {threads} threads");
    }
}

#[test]
fn matmul_bits_are_thread_invariant() {
    let mut next = lcg(1);
    let a = Matrix::from_fn(96, 80, |_, _| next());
    let b = Matrix::from_fn(80, 64, |_, _| next());
    assert_thread_invariant(|| bits(a.matmul(&b).unwrap().as_slice()));
}

#[test]
fn cholesky_factor_bits_are_thread_invariant() {
    let n = 130;
    let mut next = lcg(2);
    let g = Matrix::from_fn(n, n, |_, _| next());
    let mut spd = g.gram();
    spd.add_diagonal(n as f64);
    assert_thread_invariant(|| bits(CholeskyFactor::new(&spd).unwrap().l().as_slice()));
}

#[test]
fn gp_fit_and_predict_bits_are_thread_invariant() {
    // n = 96 kernel matrix: the fill and the Cholesky behind the GP fit.
    let mut next = lcg(3);
    let xs: Vec<Vec<f64>> = (0..96).map(|_| vec![next(), next(), next()]).collect();
    let ys: Vec<f64> = xs.iter().map(|x| x[0].sin() + 0.5 * x[1] - x[2]).collect();
    let probes: Vec<Vec<f64>> = (0..16).map(|_| vec![next(), next(), next()]).collect();
    assert_thread_invariant(|| {
        let gp = GaussianProcess::fit_auto(1e-6, &xs, &ys).unwrap();
        let mut out = Vec::new();
        for p in &probes {
            let (m, v) = gp.predict(p).unwrap();
            out.push(m.to_bits());
            out.push(v.to_bits());
        }
        out.push(gp.log_marginal_likelihood().to_bits());
        out
    });
}

#[test]
fn forest_fit_bits_are_thread_invariant() {
    let mut next = lcg(4);
    let x = Matrix::from_fn(200, 6, |_, _| next());
    let y: Vec<f64> = (0..200)
        .map(|i| x.get(i, 0) * 2.0 - x.get(i, 3) + x.get(i, 5).abs())
        .collect();
    assert_thread_invariant(|| {
        let mut f = RandomForestRegressor::new(24, 6, 7);
        f.fit(&x, &y).unwrap();
        (
            bits(&f.predict(&x).unwrap()),
            bits(f.feature_importances().unwrap()),
        )
    });
}

#[test]
fn kb_grid_labelling_is_thread_invariant() {
    let datasets = synthetic_kb(3);
    assert_thread_invariant(|| {
        let kb = KnowledgeBase::build(&datasets, &[2], 100);
        kb.records
            .iter()
            .map(|r| {
                (
                    r.dataset.clone(),
                    r.best_algorithm,
                    r.best_mse.to_bits(),
                    bits(&r.features),
                )
            })
            .collect::<Vec<_>>()
    });
}

fn federation(n_clients: usize, seed: u64) -> Vec<TimeSeries> {
    generate(
        &SynthesisSpec {
            n: 900,
            trend: TrendSpec::Linear(0.01),
            seasons: vec![SeasonSpec {
                period: 12.0,
                amplitude: 2.5,
            }],
            snr: Some(20.0),
            ..Default::default()
        },
        seed,
    )
    .split_clients(n_clients)
}

/// The acceptance bar for the whole PR: one full Algorithm 1 run must be
/// bit-identical between 1 and 8 workers — every loss, the winning config,
/// the communication totals, and the serialized global model.
#[test]
fn full_engine_run_is_bit_identical_across_thread_counts() {
    // The meta-model is trained once (outside the comparison) so both runs
    // share it; the global worker count is what FL client threads resolve
    // through, which the thread-local override cannot reach.
    let kb = KnowledgeBase::build(&synthetic_kb(8), &[2], 50);
    let meta = MetaModel::train(&kb, MetaClassifierKind::RandomForest, 0).unwrap();
    let run = |threads: usize| {
        ff_par::set_global_threads(threads);
        let cfg = EngineConfig {
            budget: Budget::Iterations(5),
            seed: 7,
            ..Default::default()
        };
        let result = FedForecaster::new(cfg, &meta)
            .run(&federation(3, 11))
            .unwrap();
        // Everything except wall-clock, rendered to comparable form. The
        // Debug rendering of f64 round-trips exactly, so the model string
        // is a faithful byte-for-byte serialization of the deployed model.
        (
            result.best_algorithm,
            format!("{:?}", result.best_config).into_bytes(),
            result.best_valid_loss.to_bits(),
            result.test_mse.to_bits(),
            format!("{:?}", result.global_model).into_bytes(),
            result.evaluations,
            bits(&result.loss_history),
            result.recommended.clone(),
            result.bytes_to_clients,
            result.bytes_to_server,
            result.failed_trials,
        )
    };
    let seq = run(1);
    let par = run(8);
    assert_eq!(par, seq, "engine output changed with the worker count");
    // Leave the ambient count as hardware-auto resolution for other tests.
    ff_par::set_global_threads(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );
}
