//! Property tests for the Byzantine-robust aggregation layer: the
//! mean rules' bit identities (FedAvg and norm clipping are the textbook
//! weighted mean, `TrimmedMean { 0 }` is FedAvg) and their input
//! contract, and the survival guarantees of the robust estimators when a
//! bounded minority of clients is adversarial. Adversarial updates are produced
//! by real [`ChaosClient::adversarial`] fit calls — the same injection
//! path the end-to-end chaos tests drive — so every failure shrinks to a
//! concrete seed + attacker configuration.

use ff_fl::chaos::{AdversarialMode, ChaosClient};
use ff_fl::client::{EvalOutput, FitOutput, FlClient};
use ff_fl::config::ConfigMap;
use ff_fl::robust::AggregationStrategy;
use ff_fl::strategy::fedavg;
use ff_fl::FlError;
use proptest::prelude::*;

/// Inner client that reports fixed local parameters (the honest content
/// a wrapper corrupts).
struct Fixed(Vec<f64>);

impl FlClient for Fixed {
    fn get_properties(&mut self, _config: &ConfigMap) -> ConfigMap {
        ConfigMap::new()
    }
    fn fit(&mut self, _params: &[f64], _config: &ConfigMap) -> FitOutput {
        FitOutput {
            params: self.0.clone(),
            num_examples: 1,
            metrics: ConfigMap::new(),
        }
    }
    fn evaluate(&mut self, _params: &[f64], _config: &ConfigMap) -> EvalOutput {
        EvalOutput {
            loss: 0.0,
            num_examples: 1,
            metrics: ConfigMap::new(),
        }
    }
}

/// Client id of the update at position `i`, distinct from `i` so an
/// error that names the sender cannot be mistaken for one naming the
/// position.
fn sender(i: usize) -> usize {
    1000 + i
}

/// `strategy` over `updates`, the one at position `i` sent by
/// [`sender`]`(i)`.
fn aggregate(
    strategy: AggregationStrategy,
    updates: &[(Vec<f64>, u64)],
) -> Result<Vec<f64>, FlError> {
    let ided = updates
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, (p, n))| (sender(i), p, n));
    strategy.aggregate(ided)
}

/// The rule over updates it must accept.
fn exact(strategy: AggregationStrategy, updates: &[(Vec<f64>, u64)]) -> Vec<f64> {
    aggregate(strategy, updates).unwrap()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Textbook weighted mean, written independently of the crate's mean
/// loop: weights totalled first, then `w·θ` per coordinate, each update
/// rescaled to `max_norm` first when it is longer.
fn reference_mean(updates: &[(Vec<f64>, u64)], max_norm: Option<f64>) -> Vec<f64> {
    let mut acc = vec![0.0; updates[0].0.len()];
    let mut total = 0.0;
    for (p, w) in updates {
        let wf = *w as f64;
        total += wf;
        let norm = p.iter().map(|v| v * v).sum::<f64>().sqrt();
        let scale = max_norm.filter(|&m| norm > m).map(|m| m / norm);
        for (a, &v) in acc.iter_mut().zip(p) {
            *a += match scale {
                Some(s) => wf * (v * s),
                None => wf * v,
            };
        }
    }
    acc.iter().map(|a| a / total).collect()
}

/// Runs one fit through a (possibly adversarial) chaos wrapper and
/// returns the parameters the server would receive.
fn fit_through_chaos(honest: Vec<f64>, mode: AdversarialMode, seed: u64) -> Vec<f64> {
    let mut client = ChaosClient::adversarial(Box::new(Fixed(honest)), mode, seed);
    client.fit(&[], &ConfigMap::new()).params
}

fn adversary_mode() -> impl Strategy<Value = AdversarialMode> {
    prop_oneof![
        Just(AdversarialMode::SignFlip),
        (1e3f64..1e9).prop_map(AdversarialMode::ScaleBy),
        Just(AdversarialMode::NanInject),
        (-1e9f64..1e9).prop_map(AdversarialMode::Stuck),
    ]
}

proptest! {
    /// `TrimmedMean { trim_ratio: 0 }` must be *bit-for-bit* FedAvg —
    /// not merely close — so flipping the default strategy knob to the
    /// robust family with zero trimming cannot change any golden output.
    /// FedAvg and norm clipping are the textbook weighted mean bit for
    /// bit, an empty update (a client whose results travel in metrics)
    /// changes no bit, a non-finite update fails both mean rules naming
    /// its sender, and a dimension mismatch fails every rule.
    #[test]
    fn trimmed_mean_zero_is_bitwise_fedavg(
        updates in prop::collection::vec(
            (prop::collection::vec(-1e6f64..1e6, 6), 1u64..1000),
            1..8,
        ),
        max_norm in 1.0f64..1e7,
        empty_at in 0usize..8,
        empty_weight in 0u64..1000,
        bad_at in 0usize..8,
    ) {
        let trimmed = exact(AggregationStrategy::TrimmedMean { trim_ratio: 0.0 }, &updates);
        let avg = fedavg(&updates).unwrap();
        prop_assert_eq!(trimmed.len(), avg.len());
        for (t, a) in trimmed.iter().zip(&avg) {
            prop_assert_eq!(t.to_bits(), a.to_bits(), "{} != {} bitwise", t, a);
        }

        let clipped = AggregationStrategy::NormClippedFedAvg { max_norm };
        let means = [
            (AggregationStrategy::FedAvg, None),
            (clipped, Some(max_norm)),
        ];
        let mut with_empty = updates.clone();
        with_empty.insert(empty_at % (updates.len() + 1), (vec![], empty_weight));
        let bad = bad_at % updates.len();
        let mut with_nan = updates.clone();
        with_nan[bad].0[bad % 6] = f64::NAN;
        for (strategy, max_norm) in means {
            let textbook = bits(&reference_mean(&updates, max_norm));
            prop_assert_eq!(bits(&exact(strategy, &updates)), textbook.clone());
            prop_assert_eq!(bits(&exact(strategy, &with_empty)), textbook);
            prop_assert_eq!(
                aggregate(strategy, &with_nan),
                Err(FlError::NonFiniteUpdate { client: sender(bad) })
            );
        }

        if updates.len() > 1 {
            let mut mismatched = updates.clone();
            mismatched[bad].0.push(1.0);
            for strategy in [
                AggregationStrategy::FedAvg,
                clipped,
                AggregationStrategy::CoordinateMedian,
                AggregationStrategy::TrimmedMean { trim_ratio: 0.2 },
                AggregationStrategy::Krum { f: 0 },
            ] {
                prop_assert!(
                    matches!(aggregate(strategy, &mismatched), Err(FlError::Client(_))),
                    "{} accepted a dimension mismatch",
                    strategy.name()
                );
            }
        }
    }

    /// With an honest majority (n odd, f ≤ (n−1)/2 adversaries injected
    /// through real chaos clients), the coordinate median stays finite
    /// and inside the per-coordinate honest hull, whatever the attack.
    /// The rank rules drop a non-finite update: adding one at any
    /// position changes no bit of either rule's aggregate.
    #[test]
    fn coordinate_median_survives_minority_adversaries(
        n_half in 2usize..5,                 // n = 2·n_half + 1 ∈ {5, 7, 9}
        f in 0usize..5,
        base in prop::collection::vec(-100.0f64..100.0, 4),
        spread in 0.0f64..10.0,
        mode in adversary_mode(),
        seed in any::<u64>(),
        nan_at in 0usize..10,
        trim_ratio in 0.0f64..0.45,
    ) {
        let n = 2 * n_half + 1;
        let f = f.min(n_half);               // honest strict majority
        let honest: Vec<Vec<f64>> = (0..n - f)
            .map(|i| base.iter().map(|b| b + spread * i as f64).collect())
            .collect();
        let mut updates: Vec<(Vec<f64>, u64)> =
            honest.iter().map(|p| (p.clone(), 1)).collect();
        for a in 0..f {
            let received = fit_through_chaos(base.clone(), mode, seed ^ a as u64);
            updates.push((received, 1));
        }
        let agg = exact(AggregationStrategy::CoordinateMedian, &updates);
        prop_assert_eq!(agg.len(), base.len());
        for (j, v) in agg.iter().enumerate() {
            prop_assert!(v.is_finite(), "coordinate {} not finite: {}", j, v);
            let lo = honest.iter().map(|p| p[j]).fold(f64::INFINITY, f64::min);
            let hi = honest.iter().map(|p| p[j]).fold(f64::NEG_INFINITY, f64::max);
            // The hull bound needs an honest weight majority among the
            // *finite* survivors, which NaN-dropping only strengthens.
            prop_assert!(
                *v >= lo - 1e-9 && *v <= hi + 1e-9,
                "coordinate {} = {} escaped honest hull [{}, {}]",
                j, v, lo, hi
            );
        }

        let mut with_nan = updates.clone();
        with_nan.insert(nan_at % (updates.len() + 1), (vec![f64::NAN; base.len()], 1));
        for strategy in [
            AggregationStrategy::CoordinateMedian,
            AggregationStrategy::TrimmedMean { trim_ratio },
        ] {
            prop_assert_eq!(
                bits(&exact(strategy, &with_nan)),
                bits(&exact(strategy, &updates))
            );
        }
    }

    /// Krum with a correctly provisioned federation (n ≥ 2f + 3) returns
    /// a finite vector — in fact one of the submitted updates verbatim —
    /// no matter what the f adversaries inject.
    #[test]
    fn krum_stays_finite_under_budgeted_adversaries(
        f in 0usize..3,
        extra in 0usize..3,
        base in prop::collection::vec(-100.0f64..100.0, 3),
        spread in 0.0f64..5.0,
        mode in adversary_mode(),
        seed in any::<u64>(),
    ) {
        let n = 2 * f + 3 + extra;
        let honest: Vec<Vec<f64>> = (0..n - f)
            .map(|i| base.iter().map(|b| b + spread * i as f64).collect())
            .collect();
        let mut updates: Vec<(Vec<f64>, u64)> =
            honest.iter().map(|p| (p.clone(), 1)).collect();
        for a in 0..f {
            let received = fit_through_chaos(base.clone(), mode, seed ^ a as u64);
            updates.push((received, 1));
        }
        let agg = exact(AggregationStrategy::Krum { f }, &updates);
        prop_assert!(agg.iter().all(|v| v.is_finite()), "Krum output not finite: {:?}", agg);
        // Classic Krum selects: the output is one of the finite inputs,
        // bit-for-bit.
        prop_assert!(
            updates.iter().any(|(p, _)| p
                .iter()
                .zip(&agg)
                .all(|(a, b)| a.to_bits() == b.to_bits())),
            "Krum output {:?} is not a submitted update",
            agg
        );
    }
}
