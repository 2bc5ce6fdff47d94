//! **Experiment E2 — Table 2**: prints the implemented search space of
//! forecasting algorithms and verifies that sampled configurations respect
//! every published range by drawing and checking a large sample.
//!
//! ```text
//! cargo run -p ff-bench --release --bin table2_search_space -- [--samples 2000]
//! ```

use fedforecaster::search_space::{algorithm_of, table2_space, to_hyperparams};
use ff_bayesopt::space::ParamSpec;
use ff_bench::Args;
use ff_models::zoo::AlgorithmKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse();
    let n_samples = args.usize("samples", 2000);
    let space = table2_space(&AlgorithmKind::builtin());

    println!("Table 2: Search Space for Forecasting Algorithms in FedForecaster\n");
    println!("{:<20} {:<22} Range / options", "Parameter", "Type");
    for (name, spec) in space.params() {
        let (ty, range) = match spec {
            ParamSpec::Continuous { lo, hi } => ("continuous", format!("[{lo}, {hi}]")),
            ParamSpec::LogContinuous { lo, hi } => ("log-continuous", format!("[{lo:e}, {hi}]")),
            ParamSpec::Integer { lo, hi } => ("integer", format!("[{lo}, {hi}]")),
            ParamSpec::Categorical { options } => ("categorical", format!("{options:?}")),
        };
        println!("{:<20} {:<22} {}", name, ty, range);
    }
    println!("\nEncoded dimension: {}", space.encoded_dim());

    // Verify ranges over a large sample and count per-algorithm coverage.
    let mut rng = StdRng::seed_from_u64(0);
    let mut counts = vec![0usize; AlgorithmKind::builtin().len()];
    for _ in 0..n_samples {
        let cfg = space.sample(&mut rng);
        let algo = algorithm_of(&cfg).expect("algorithm present");
        counts[algo.index()] += 1;
        let hp = to_hyperparams(&cfg);
        assert!((5..=20).contains(&hp.n_estimators));
        assert!((2..=10).contains(&hp.max_depth));
        assert!((0.01..=1.0).contains(&hp.learning_rate));
        assert!((0.8..=10.0).contains(&hp.reg_lambda));
        assert!((0.1..=1.0).contains(&hp.subsample));
        assert!(hp.alpha >= 1e-5 && hp.alpha <= 10.0);
        assert!((1.0..=10.0).contains(&hp.c));
        let z = space.encode(&cfg);
        assert!(z.iter().all(|v| (0.0..=1.0).contains(v)));
    }
    println!("\nSampled {n_samples} configurations; all Table 2 ranges respected.");
    println!("Per-algorithm sample counts (uniform categorical expected):");
    for (kind, c) in AlgorithmKind::builtin().into_iter().zip(counts) {
        println!("  {:<20} {}", kind.name(), c);
    }
}
