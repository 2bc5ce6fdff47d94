//! Knowledge-base construction (§4.1.1, Figure 2 offline phase).
//!
//! For each KB dataset: split it into a federation, extract + aggregate
//! meta-features, grid search the Table 2 algorithms on the federated
//! splits (weighted global validation MSE, Equation 1), and record the
//! winning algorithm as the class label.

use crate::aggregate::GlobalMetaFeatures;
use crate::features::ClientMetaFeatures;
use crate::synth::KbDataset;
use ff_models::metrics::mse;
use ff_models::zoo::{build_regressor, grid_for, AlgorithmKind};
use ff_timeseries::windowing::train_valid_lag_split;
use ff_timeseries::{interpolate, synthesis, TimeSeries};

/// One labelled KB record.
#[derive(Debug, Clone)]
pub struct KbRecord {
    /// Source dataset name.
    pub dataset: String,
    /// Aggregated global meta-feature vector.
    pub features: Vec<f64>,
    /// The grid-search winner (the class label).
    pub best_algorithm: AlgorithmKind,
    /// The winner's global weighted MSE.
    pub best_mse: f64,
    /// Number of clients in the simulated federation.
    pub n_clients: usize,
}

/// The knowledge base: labelled meta-feature records.
#[derive(Debug, Clone, Default)]
pub struct KnowledgeBase {
    /// All records.
    pub records: Vec<KbRecord>,
}

/// Minimum instances per client split (§4.1.1: "each client receives at
/// least 500 instances per split"; datasets below the threshold are
/// excluded). Scaled-down builds may pass a smaller value.
pub const PAPER_MIN_INSTANCES_PER_CLIENT: usize = 500;

impl KnowledgeBase {
    /// Builds the KB from generated datasets. Client counts cycle through
    /// `client_counts`, skipping counts whose splits would fall below
    /// `min_per_client` (the paper's exclusion rule).
    pub fn build(
        datasets: &[KbDataset],
        client_counts: &[usize],
        min_per_client: usize,
    ) -> KnowledgeBase {
        // Each dataset is synthesized and labelled independently on the
        // ff-par pool; results are collected in dataset order, so the KB is
        // identical at every thread count.
        let labelled = ff_par::run_indexed(datasets.len(), |i| {
            let ds = &datasets[i];
            let series = synthesis::generate(&ds.spec, ds.seed);
            let n_clients = client_counts[i % client_counts.len()];
            if series.len() / n_clients < min_per_client {
                return None; // excluded per §4.1.1
            }
            let clients = series.split_clients(n_clients);
            label_federation(&clients).map(|(features, best_algorithm, best_mse)| KbRecord {
                dataset: ds.name.clone(),
                features,
                best_algorithm,
                best_mse,
                n_clients,
            })
        });
        KnowledgeBase {
            records: labelled.into_iter().flatten().collect(),
        }
    }

    /// Class labels as algorithm-table indices.
    pub fn labels(&self) -> Vec<usize> {
        self.records
            .iter()
            .map(|r| r.best_algorithm.index())
            .collect()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Extracts + aggregates meta-features over a federation and labels it with
/// the grid-search-winning algorithm. Returns `None` when the splits are
/// too short to model.
pub fn label_federation(clients: &[TimeSeries]) -> Option<(Vec<f64>, AlgorithmKind, f64)> {
    let (features, per_client) = federation_features(clients)?;
    let (best_algorithm, best_mse) = grid_search_best(&per_client)?;
    Some((features, best_algorithm, best_mse))
}

/// Per-client prepared splits: interpolated train/valid values.
pub struct PreparedClient {
    /// Interpolated training values.
    pub train: Vec<f64>,
    /// Interpolated validation values.
    pub valid: Vec<f64>,
}

/// Computes the aggregated global meta-feature vector and the prepared
/// per-client splits used by the grid search.
pub fn federation_features(clients: &[TimeSeries]) -> Option<(Vec<f64>, Vec<PreparedClient>)> {
    if clients.is_empty() {
        return None;
    }
    // Per-client extraction is independent; aggregation stays sequential in
    // client order, so the feature vector is thread-count invariant.
    let (metas, prepared): (Vec<_>, Vec<_>) = ff_par::par_map_indexed(clients, |_, c| {
        let (train, valid) = c.train_valid_split(0.2);
        let meta = ClientMetaFeatures::extract(&train);
        let train = interpolate::interpolated(&train);
        let valid = interpolate::interpolated(&valid);
        (
            meta,
            PreparedClient {
                train: train.values().to_vec(),
                valid: valid.values().to_vec(),
            },
        )
    })
    .into_iter()
    .unzip();
    let global = GlobalMetaFeatures::aggregate(&metas);
    Some((global.values().to_vec(), prepared))
}

/// Grid-searches all Table 2 algorithms over the federation; returns the
/// winner and its weighted global MSE.
///
/// Near-ties (losses within 0.5% of the best) are broken by table order:
/// on easy datasets several linear models are statistically equivalent, and
/// without deterministic tie-breaking the KB labels become unlearnable
/// noise for the meta-model.
pub fn grid_search_best(clients: &[PreparedClient]) -> Option<(AlgorithmKind, f64)> {
    // Each algorithm's grid is evaluated independently on the ff-par pool;
    // collecting in table order preserves the tie-break semantics below.
    let kinds = AlgorithmKind::builtin();
    let per_algorithm: Vec<(AlgorithmKind, f64)> = ff_par::run_indexed(kinds.len(), |i| {
        let kind = kinds[i];
        let mut best_for_kind = f64::INFINITY;
        for hp in grid_for(kind) {
            if let Some(loss) = federated_eval(kind, &hp, clients) {
                best_for_kind = best_for_kind.min(loss);
            }
        }
        best_for_kind.is_finite().then_some((kind, best_for_kind))
    })
    .into_iter()
    .flatten()
    .collect();
    let (_, best_loss) = *per_algorithm.iter().min_by(|a, b| a.1.total_cmp(&b.1))?;
    // First algorithm (table order) within the tolerance band wins.
    per_algorithm
        .into_iter()
        .find(|(_, l)| *l <= best_loss * 1.005)
        .map(|(k, _)| (k, best_loss.max(0.0)))
}

/// Fits one algorithm+HP on each client's training lags and returns the
/// weighted global validation MSE (Equation 1). Lags 1..=5 are the fixed
/// KB-labelling feature set (the full engine's feature engineering is
/// richer; the KB label only needs a consistent comparison basis).
pub fn federated_eval(
    kind: AlgorithmKind,
    hp: &ff_models::zoo::HyperParams,
    clients: &[PreparedClient],
) -> Option<f64> {
    let lags: Vec<usize> = (1..=5).collect();
    let mut weighted = 0.0;
    let mut total = 0usize;
    for c in clients {
        let (xtr, ytr, xva, yva) = train_valid_lag_split(&c.train, &c.valid, &lags)?;
        let mut model = build_regressor(kind, hp);
        model.fit(&xtr, &ytr).ok()?;
        let pred = model.predict(&xva).ok()?;
        let loss = mse(&yva, &pred);
        if !loss.is_finite() {
            return None;
        }
        weighted += loss * yva.len() as f64;
        total += yva.len();
    }
    if total == 0 {
        None
    } else {
        Some(weighted / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{reallike_kb, synthetic_kb};
    use ff_timeseries::synthesis::{generate, SeasonSpec, SynthesisSpec};

    fn federation(seed: u64, n_clients: usize) -> Vec<TimeSeries> {
        let s = generate(
            &SynthesisSpec {
                n: 900,
                seasons: vec![SeasonSpec {
                    period: 12.0,
                    amplitude: 3.0,
                }],
                snr: Some(20.0),
                ..Default::default()
            },
            seed,
        );
        s.split_clients(n_clients)
    }

    #[test]
    fn label_federation_produces_valid_record() {
        let clients = federation(3, 3);
        let (features, algo, loss) = label_federation(&clients).unwrap();
        assert_eq!(features.len(), GlobalMetaFeatures::dim());
        assert!(AlgorithmKind::builtin().contains(&algo));
        assert!(loss.is_finite() && loss >= 0.0);
    }

    #[test]
    fn winner_beats_every_other_algorithm() {
        let clients = federation(5, 2);
        let (_, prepared) = federation_features(&clients).unwrap();
        let (winner, best_loss) = grid_search_best(&prepared).unwrap();
        for kind in AlgorithmKind::builtin() {
            for hp in grid_for(kind) {
                if let Some(loss) = federated_eval(kind, &hp, &prepared) {
                    assert!(
                        loss >= best_loss - 1e-12,
                        "{kind:?} loss {loss} beats winner {winner:?} {best_loss}"
                    );
                }
            }
        }
    }

    #[test]
    fn kb_build_small_sample() {
        let mut datasets = synthetic_kb(4);
        datasets.extend(reallike_kb().into_iter().take(2));
        let kb = KnowledgeBase::build(&datasets, &[2, 3], 100);
        assert_eq!(kb.len(), 6);
        for r in &kb.records {
            assert_eq!(r.features.len(), GlobalMetaFeatures::dim());
            assert!(r.best_mse.is_finite());
        }
        assert_eq!(kb.labels().len(), 6);
    }

    #[test]
    fn min_instance_rule_excludes_small_splits() {
        let datasets = synthetic_kb(2); // n = 1500 each
                                        // 20 clients × 500 min = 10 000 > 1500 ⇒ everything excluded.
        let kb = KnowledgeBase::build(&datasets, &[20], PAPER_MIN_INSTANCES_PER_CLIENT);
        assert!(kb.is_empty());
    }

    #[test]
    fn empty_federation_is_none() {
        assert!(label_federation(&[]).is_none());
    }

    #[test]
    fn kb_build_is_thread_count_invariant() {
        let datasets = synthetic_kb(4);
        let build = |threads: usize| {
            ff_par::with_threads(threads, || KnowledgeBase::build(&datasets, &[2, 3], 100))
        };
        let seq = build(1);
        for &threads in &[2usize, 8] {
            let par = build(threads);
            assert_eq!(par.len(), seq.len(), "threads={threads}");
            for (a, b) in par.records.iter().zip(&seq.records) {
                assert_eq!(a.dataset, b.dataset);
                assert_eq!(a.best_algorithm, b.best_algorithm);
                assert_eq!(a.best_mse.to_bits(), b.best_mse.to_bits());
                let af: Vec<u64> = a.features.iter().map(|v| v.to_bits()).collect();
                let bf: Vec<u64> = b.features.iter().map(|v| v.to_bits()).collect();
                assert_eq!(af, bf);
            }
        }
    }
}
