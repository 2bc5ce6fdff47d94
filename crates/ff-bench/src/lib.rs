//! Shared harness for the benchmark binaries that regenerate every table
//! and figure of the paper (see DESIGN.md §3 for the experiment index).
//!
//! Each binary accepts `--key value` arguments; the defaults are scaled so
//! a full run finishes in minutes on a laptop. Paper-fidelity settings
//! (`--scale 1.0 --secs 300 --kb 512`) reproduce the original compute
//! envelope.

use fedforecaster::prelude::*;
use fedforecaster::report::ComparisonRow;
use fedforecaster::FedForecaster;
use ff_datasets::BenchmarkDataset;
use ff_metalearn::kb::KnowledgeBase;
use ff_metalearn::metamodel::{MetaClassifierKind, MetaModel};
use ff_metalearn::synth::{reallike_kb, synthetic_kb};
use std::collections::BTreeMap;
use std::time::Duration;

/// Minimal `--key value` / `--flag` argument parser.
#[derive(Debug, Default)]
pub struct Args {
    map: BTreeMap<String, String>,
}

impl Args {
    /// Parses `std::env::args()`.
    pub fn parse() -> Args {
        let mut map = BTreeMap::new();
        let mut args = std::env::args().skip(1).peekable();
        while let Some(a) = args.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = match args.peek() {
                    Some(v) if !v.starts_with("--") => args.next().unwrap(),
                    _ => "true".to_string(),
                };
                map.insert(key.to_string(), value);
            }
        }
        Args { map }
    }

    /// Float argument with default.
    pub fn f64(&self, key: &str, default: f64) -> f64 {
        self.map
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Integer argument with default.
    pub fn usize(&self, key: &str, default: usize) -> usize {
        self.map
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// String argument with default.
    pub fn string(&self, key: &str, default: &str) -> String {
        self.map
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Boolean flag.
    pub fn flag(&self, key: &str) -> bool {
        self.map.get(key).map(|v| v == "true").unwrap_or(false)
    }

    /// True when the key was supplied.
    pub fn has(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }
}

/// Shared run settings derived from CLI arguments.
#[derive(Debug, Clone)]
pub struct RunSettings {
    /// Dataset length scale in (0, 1].
    pub scale: f64,
    /// Shared optimization budget for all methods.
    pub budget: Budget,
    /// Random seeds (paper: 3 repetitions).
    pub seeds: Vec<u64>,
    /// Synthetic KB size for the meta-model.
    pub kb_size: usize,
}

impl RunSettings {
    /// Reads `--scale`, `--iters`/`--secs`, `--seeds`, `--kb`.
    pub fn from_args(args: &Args) -> RunSettings {
        let budget = if args.has("secs") {
            Budget::Time(Duration::from_secs_f64(args.f64("secs", 10.0)))
        } else {
            Budget::Iterations(args.usize("iters", 12))
        };
        RunSettings {
            scale: args.f64("scale", 0.15),
            budget,
            seeds: (0..args.usize("seeds", 3) as u64).collect(),
            kb_size: args.usize("kb", 64),
        }
    }

    /// An engine configuration for one seeded run.
    pub fn engine_config(&self, seed: u64) -> EngineConfig {
        EngineConfig {
            budget: self.budget,
            seed,
            ..Default::default()
        }
    }
}

/// Builds the offline knowledge base (synthetic grid + 30 real-like) and
/// trains the Random-Forest meta-model the engine uses online.
pub fn build_metamodel(kb_size: usize) -> (KnowledgeBase, MetaModel) {
    let mut datasets = synthetic_kb(kb_size);
    datasets.extend(reallike_kb());
    let kb = KnowledgeBase::build(&datasets, &[5, 10, 15, 20], 60);
    let meta =
        MetaModel::train(&kb, MetaClassifierKind::RandomForest, 7).expect("meta-model training");
    (kb, meta)
}

/// Runs all four Table 3 methods on one dataset, averaging MSEs over the
/// seeds, and returns the comparison row.
pub fn compare_on_dataset(
    ds: &BenchmarkDataset,
    settings: &RunSettings,
    meta: &MetaModel,
) -> ComparisonRow {
    let mut ff = Vec::new();
    let mut rs = Vec::new();
    let mut nb = Vec::new();
    let mut cons = Vec::new();
    let mut best_models: Vec<String> = Vec::new();
    for &seed in &settings.seeds {
        let clients = ds.generate_federation(seed, settings.scale);
        let cfg = settings.engine_config(seed);

        let r = FedForecaster::new(cfg.clone(), meta)
            .run(&clients)
            .expect("engine run");
        best_models.push(r.best_algorithm.name().to_string());
        ff.push(r.test_mse);

        rs.push(
            RandomSearch::new(cfg.clone())
                .run(&clients)
                .expect("random search")
                .test_mse,
        );

        nb.push(
            run_federated_nbeats(&clients, cfg.budget, 40, false, seed)
                .expect("federated nbeats")
                .test_mse,
        );
        if let Some(series) = ds.generate_consolidated(seed, settings.scale) {
            cons.push(
                run_consolidated_nbeats(&series, cfg.budget, false, seed)
                    .expect("consolidated nbeats")
                    .test_mse,
            );
        }
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    // Majority-vote best model across seeds.
    best_models.sort();
    let best_model = best_models
        .chunk_by(|a, b| a == b)
        .max_by_key(|c| c.len())
        .map(|c| c[0].clone())
        .unwrap_or_default();
    ComparisonRow {
        dataset: ds.name.to_string(),
        len: ds.len,
        clients: ds.clients,
        nbeats_cons: if cons.is_empty() {
            None
        } else {
            Some(avg(&cons))
        },
        fedforecaster: avg(&ff),
        random_search: avg(&rs),
        nbeats: avg(&nb),
        best_model,
    }
}
