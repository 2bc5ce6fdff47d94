//! Criterion benchmarks of the six Table 2 forecasting algorithms —
//! fit + predict on a lag-feature design, the inner loop of both the grid
//! search (offline) and every federated evaluation (online).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ff_linalg::Matrix;
use ff_models::zoo::{build_regressor, AlgorithmKind, HyperParams};
use ff_timeseries::synthesis::{generate, SeasonSpec, SynthesisSpec};
use ff_timeseries::windowing::lag_matrix;

fn design(n: usize) -> (Matrix, Vec<f64>) {
    let s = generate(
        &SynthesisSpec {
            n: n + 10,
            seasons: vec![SeasonSpec {
                period: 12.0,
                amplitude: 3.0,
            }],
            snr: Some(10.0),
            ..Default::default()
        },
        3,
    );
    lag_matrix(s.values(), &[1, 2, 3, 4, 5, 6, 7]).expect("windows")
}

fn bench_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("models_fit_predict");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let (x, y) = design(1000);
    for kind in AlgorithmKind::builtin() {
        group.bench_with_input(BenchmarkId::new("fit", kind.name()), &kind, |b, &kind| {
            b.iter(|| {
                let mut m = build_regressor(kind, &HyperParams::default());
                m.fit(black_box(&x), black_box(&y)).unwrap();
                m.predict(black_box(&x)).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_models);
criterion_main!(benches);
