//! **Parallel kernels benchmark** — sequential vs parallel wall-clock for
//! the ff-par hot loops (matmul, GP fit, random-forest fit), written to
//! `BENCH_pr5.json`. Because every kernel is bit-identical across thread
//! counts, the speedup column is the *entire* observable effect of
//! `FF_THREADS`; the `host_cpus` field records how much hardware the run
//! actually had (speedup ≈ 1.0 is expected on a single-core container).
//!
//! ```text
//! cargo run -p ff-bench --release --bin par_kernels -- \
//!     [--threads 4] [--reps 3] [--out BENCH_pr5.json]
//! ```
//!
//! `--fingerprint <path>` instead runs one telemetry-off engine run under
//! the ambient `FF_THREADS` and writes the bitwise fingerprint of its
//! output, followed by the ask sequence (configuration fingerprints and
//! loss bits) of a 96-ask pipeline-space `BayesOpt` run; CI diffs this
//! file between `FF_THREADS=1` and `FF_THREADS=4` to pin the engine-level
//! determinism contract. The engine run's five trials are warm starts and
//! initial points only; the ask sequence covers the model-guided path,
//! where acquisition is scored in blocks on the pool.

use fedforecaster::ckpt::trial_config_fingerprint;
use fedforecaster::engine::FedForecaster;
use fedforecaster::prelude::*;
use fedforecaster::search_space::{pipeline_space, warm_start_pipeline_configs};
use ff_bayesopt::gp::GaussianProcess;
use ff_bayesopt::optimizer::BayesOpt;
use ff_bench::{build_metamodel, Args};
use ff_linalg::Matrix;
use ff_models::forest::RandomForestRegressor;
use ff_models::pipeline::PipelineId;
use ff_models::zoo::AlgorithmKind;
use ff_models::Regressor;
use ff_timeseries::synthesis::{generate, SeasonSpec, SynthesisSpec, TrendSpec};
use ff_trace::push_json_f64;
use std::fmt::Write as _;
use std::time::Instant;

type Kernel<'a> = (&'a str, Box<dyn Fn()>);

/// A cheap deterministic value stream for benchmark inputs.
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    }
}

/// Median-of-`reps` wall-clock of `f` under `threads` workers.
fn time_under(threads: usize, reps: usize, f: &dyn Fn()) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            ff_par::with_threads(threads, || {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn fingerprint(path: &str) {
    let (_, meta) = build_metamodel(8);
    let clients = generate(
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
        11,
    )
    .split_clients(3);
    let cfg = EngineConfig {
        budget: Budget::Iterations(5),
        seed: 7,
        ..Default::default()
    };
    let r = FedForecaster::new(cfg, &meta)
        .run(&clients)
        .expect("engine");
    let mut out = String::new();
    let _ = writeln!(out, "best_algorithm {:?}", r.best_algorithm);
    let _ = writeln!(out, "best_config {:?}", r.best_config);
    let _ = writeln!(out, "best_valid_loss {:016x}", r.best_valid_loss.to_bits());
    let _ = writeln!(out, "test_mse {:016x}", r.test_mse.to_bits());
    let _ = writeln!(out, "global_model {:?}", r.global_model);
    let _ = writeln!(out, "evaluations {}", r.evaluations);
    for (i, l) in r.loss_history.iter().enumerate() {
        let _ = writeln!(out, "loss[{i}] {:016x}", l.to_bits());
    }
    let _ = writeln!(out, "recommended {:?}", r.recommended);
    let _ = writeln!(out, "bytes {} {}", r.bytes_to_clients, r.bytes_to_server);
    let (algorithms, pipelines) = ([AlgorithmKind::LASSO], PipelineId::builtin());
    let mut bo = BayesOpt::new(pipeline_space(&algorithms, &pipelines), 7).expect("space");
    bo.warm_start(warm_start_pipeline_configs(&algorithms, &pipelines));
    for i in 0..96 {
        let config = bo.ask().expect("ask");
        let loss: f64 = bo
            .space()
            .encode(&config)
            .iter()
            .enumerate()
            .map(|(k, &v)| (v - 0.3 - 0.02 * k as f64).powi(2))
            .sum();
        let fp = trial_config_fingerprint(&config);
        let _ = writeln!(out, "ask[{i}] {fp:016x} {:016x}", loss.to_bits());
        bo.tell(&config, loss).expect("tell");
    }
    std::fs::write(path, &out).expect("write fingerprint");
    println!(
        "fingerprint ({} workers): {path}",
        ff_par::effective_threads()
    );
}

fn main() {
    let args = Args::parse();
    if args.has("fingerprint") {
        fingerprint(&args.string("fingerprint", "par_fingerprint.txt"));
        return;
    }
    let threads = args.usize("threads", 4);
    let reps = args.usize("reps", 3);
    let out_path = args.string("out", "BENCH_pr5.json");
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Kernel 1: 512×512 dense matmul (row-parallel).
    let mut next = lcg(1);
    let a = Matrix::from_fn(512, 512, |_, _| next());
    let b = Matrix::from_fn(512, 512, |_, _| next());
    let matmul = move || {
        let c = a.matmul(&b).unwrap();
        assert!(c.get(0, 0).is_finite());
    };

    // Kernel 2: GP fit at n = 256 (parallel kernel-matrix fill + blocked
    // Cholesky panels).
    let mut next = lcg(2);
    let xs: Vec<Vec<f64>> = (0..256)
        .map(|_| vec![next(), next(), next(), next()])
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| x[0].sin() + x[1] * x[2] - x[3]).collect();
    let gp_fit = move || {
        let gp = GaussianProcess::fit_auto(1e-6, &xs, &ys).unwrap();
        assert!(gp.log_marginal_likelihood().is_finite());
    };

    // Kernel 3: random forest, 100 trees (per-tree parallel fits).
    let mut next = lcg(3);
    let x = Matrix::from_fn(400, 8, |_, _| next());
    let y: Vec<f64> = (0..400)
        .map(|i| x.get(i, 0) * 2.0 - x.get(i, 4) + x.get(i, 7).abs())
        .collect();
    let forest = move || {
        let mut f = RandomForestRegressor::new(100, 8, 7);
        f.fit(&x, &y).unwrap();
    };

    let kernels: Vec<Kernel> = vec![
        ("matmul_512", Box::new(matmul)),
        ("gp_fit_256", Box::new(gp_fit)),
        ("forest_100_trees", Box::new(forest)),
    ];

    let mut json = String::from("{\n  \"bench\": \"par_kernels\",\n");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    json.push_str("  \"kernels\": [\n");
    for (i, (name, f)) in kernels.iter().enumerate() {
        let seq = time_under(1, reps, f.as_ref());
        let par = time_under(threads, reps, f.as_ref());
        let speedup = seq / par.max(1e-12);
        println!("{name:18} seq {seq:.4}s  par({threads}) {par:.4}s  speedup {speedup:.2}x");
        let _ = write!(json, "    {{\"name\": \"{name}\", \"seq_s\": ");
        push_json_f64(&mut json, seq);
        json.push_str(", \"par_s\": ");
        push_json_f64(&mut json, par);
        json.push_str(", \"speedup\": ");
        push_json_f64(&mut json, speedup);
        json.push('}');
        json.push_str(if i + 1 < kernels.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path} (host_cpus = {host_cpus})");
}
