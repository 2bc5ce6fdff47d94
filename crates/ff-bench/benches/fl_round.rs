//! Criterion benchmarks of federated-round overhead: message codec
//! round-trips and a full send/collect round over the runtime's host
//! threads — the communication tax every §4.3 optimization iteration pays.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ff_fl::client::{EvalOutput, FitOutput, FlClient};
use ff_fl::config::{ConfigMap, ConfigMapExt};
use ff_fl::message::{Instruction, Reply};
use ff_fl::runtime::{FederatedRuntime, RoundPolicy};

struct NoopClient;

impl FlClient for NoopClient {
    fn get_properties(&mut self, _config: &ConfigMap) -> ConfigMap {
        ConfigMap::new().with_float("x", 1.0)
    }
    fn fit(&mut self, _params: &[f64], _config: &ConfigMap) -> FitOutput {
        FitOutput {
            params: vec![0.0; 64],
            num_examples: 100,
            metrics: ConfigMap::new().with_float("valid_loss", 0.5),
        }
    }
    fn evaluate(&mut self, _params: &[f64], _config: &ConfigMap) -> EvalOutput {
        EvalOutput {
            loss: 0.5,
            num_examples: 100,
            metrics: ConfigMap::new(),
        }
    }
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("fl_codec");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for dim in [64usize, 1024, 16384] {
        let ins = Instruction::Fit {
            params: vec![1.0; dim],
            config: ConfigMap::new()
                .with_str("op", "fit_eval")
                .with_float("alpha", 0.1),
        };
        group.bench_with_input(BenchmarkId::new("roundtrip", dim), &ins, |b, ins| {
            b.iter(|| {
                let bytes = black_box(ins).encode();
                Instruction::decode(bytes).unwrap()
            })
        });
    }
    let reply = Reply::FitRes {
        params: vec![0.5; 1024],
        num_examples: 500,
        metrics: ConfigMap::new().with_float("valid_loss", 0.25),
    };
    group.bench_function("reply_roundtrip_1024", |b| {
        b.iter(|| Reply::decode(black_box(&reply).encode()).unwrap())
    });
    group.finish();
}

fn bench_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("fl_round");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for n_clients in [5usize, 10, 20] {
        group.bench_with_input(
            BenchmarkId::new("fit_round", n_clients),
            &n_clients,
            |b, &n| {
                let clients: Vec<Box<dyn FlClient>> = (0..n)
                    .map(|_| Box::new(NoopClient) as Box<dyn FlClient>)
                    .collect();
                let rt = FederatedRuntime::new(clients);
                let ins = Instruction::Fit {
                    params: vec![0.0; 64],
                    config: ConfigMap::new().with_str("op", "noop"),
                };
                let policy = RoundPolicy {
                    deadline: None,
                    min_responses: n,
                    ..RoundPolicy::default()
                };
                b.iter(|| rt.run_round(black_box(&ins), &policy).unwrap());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_codec, bench_round);
criterion_main!(benches);
