//! Criterion benchmarks of the Bayesian-optimization server loop: GP fit +
//! EI argmax per ask() as the observation count grows — the server-side
//! cost of each communication round in §4.3. The sweep spans 16 to 256
//! observations, so the per-ask growth rate of the incremental surrogate
//! (O(n²) fit, blocked O(n²) acquisition per candidate block) shows.
//!
//! Two spaces are swept: the flat six-algorithm Table 2 space (16
//! unconditional parameters) and the `train_search` pipeline space (the
//! Lasso portfolio over every builtin structure: 11 parameters, most of
//! them guarded), whose masked candidate draws are the fixed part of
//! every ask that workload pays.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fedforecaster::search_space::{pipeline_space, table2_space};
use ff_bayesopt::optimizer::BayesOpt;
use ff_models::pipeline::PipelineId;
use ff_models::zoo::AlgorithmKind;

fn bench_bayesopt(c: &mut Criterion) {
    let mut group = c.benchmark_group("bayesopt");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let spaces = [
        (
            "ask_after_n_observations",
            table2_space(&AlgorithmKind::builtin()),
        ),
        (
            "pipeline_ask_after_n_observations",
            pipeline_space(&[AlgorithmKind::LASSO], &PipelineId::builtin()),
        ),
    ];
    for (name, space) in &spaces {
        for n_obs in [16usize, 64, 256] {
            group.bench_with_input(BenchmarkId::new(name, n_obs), &n_obs, |b, &n_obs| {
                // Pre-populate an optimizer with n_obs synthetic evaluations.
                let mut bo = BayesOpt::new(space.clone(), 3).unwrap();
                for i in 0..n_obs {
                    let cfg = bo.ask().unwrap();
                    // A deterministic pseudo-loss keeps the landscape fixed.
                    let loss = (i as f64 * 0.37).sin().abs();
                    bo.tell(&cfg, loss).unwrap();
                }
                b.iter(|| {
                    let cfg = bo.ask().unwrap();
                    black_box(&cfg);
                    // Re-asking is cheap (pending); measure the guided path
                    // by telling and asking again.
                    bo.tell(&cfg, 0.5).unwrap();
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_bayesopt);
criterion_main!(benches);
