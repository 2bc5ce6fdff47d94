//! Criterion benchmarks of the six Table 2 forecasting algorithms —
//! fit + predict on a lag-feature design, the inner loop of both the grid
//! search (offline) and every federated evaluation (online) — and of the
//! client's feature-importance forest.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fedforecaster::feature_engineering::{engineer, GlobalFeatureSpec};
use ff_linalg::Matrix;
use ff_models::forest::RandomForestRegressor;
use ff_models::zoo::{build_regressor, AlgorithmKind, HyperParams};
use ff_models::Regressor;
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

/// A client's training design as `train_flat` engineers it: 146 rows of
/// seven lags, the causal trend and the six calendar columns of a daily
/// series, so both hour columns are constant.
fn client_design() -> (Matrix, Vec<f64>) {
    let n = 200;
    let s = generate(
        &SynthesisSpec {
            n,
            seasons: vec![SeasonSpec {
                period: 7.0,
                amplitude: 3.0,
            }],
            snr: Some(10.0),
            ..Default::default()
        },
        5,
    );
    let timestamps: Vec<i64> = (0..n as i64).map(|t| 1_600_000_000 + t * 86_400).collect();
    let spec = GlobalFeatureSpec {
        lags: (1..=7).collect(),
        seasonal_periods: vec![],
        use_trend: true,
        use_time: true,
    };
    let data = engineer(s.values(), &timestamps, 153, 180, &spec).expect("engineered design");
    (data.x_train, data.y_train)
}

/// The §4.2.2 feature-importance forest exactly as the client fits it,
/// on one thread so the number is the tree fits' own cost.
fn bench_forest(c: &mut Criterion) {
    let mut group = c.benchmark_group("models_forest");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let (x, y) = client_design();
    group.bench_function("forest_importances", |b| {
        b.iter(|| {
            ff_par::with_threads(1, || {
                let mut rf = RandomForestRegressor::new(20, 6, 7);
                rf.feature_subsample = 1.0;
                rf.fit(black_box(&x), black_box(&y)).unwrap();
                rf.feature_importances().unwrap().to_vec()
            })
        })
    });
    group.finish();
}

criterion_group!(benches, bench_models, bench_forest);
criterion_main!(benches);
