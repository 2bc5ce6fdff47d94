//! Property tests for the fleet-scale layer: the streaming aggregation
//! contracts (bit-identity within `exact_cap`, the documented error
//! bounds after spill) and the cohort sampler contracts (pure function
//! of `(seed, round)`, no starvation over a bounded horizon).

use ff_fl::robust::AggregationStrategy;
use ff_fl::runtime::CohortSampler;
use ff_fl::stream::StreamAgg;
use ff_trace::QuantileSketch;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The exact (batch) rule over positional updates.
fn exact(strategy: AggregationStrategy, updates: &[(Vec<f64>, u64)]) -> Vec<f64> {
    let ided = updates
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, (p, n))| (i, p, n));
    strategy.aggregate(ided).unwrap()
}

fn updates_strategy(max_n: usize, dim: usize) -> impl Strategy<Value = Vec<(Vec<f64>, u64)>> {
    prop::collection::vec(
        (prop::collection::vec(-1e3f64..1e3, dim), 1u64..20),
        2..max_n,
    )
}

/// Sorted per-coordinate lower/upper weighted-median endpoints. The
/// batch rule midpoint-averages exact ties, so the streaming bound is
/// stated against either endpoint.
fn weighted_median_endpoints(col: &mut [(f64, u64)]) -> (f64, f64) {
    col.sort_by(|a, b| a.0.total_cmp(&b.0));
    let half = col.iter().map(|&(_, w)| w).sum::<u64>() as f64 / 2.0;
    let (mut lo, mut hi) = (col[0].0, col[col.len() - 1].0);
    let mut cum = 0.0;
    let mut found_lo = false;
    for &(v, w) in col.iter() {
        cum += w as f64;
        if !found_lo && cum >= half {
            lo = v;
            found_lo = true;
        }
        if cum > half {
            hi = v;
            break;
        }
    }
    (lo, hi)
}

proptest! {
    /// While the update count stays within `exact_cap`, the streaming
    /// coordinate median is *bit-identical* to the batch rule — the
    /// exact phase of a fold round is not approximately right, it is the
    /// same computation.
    #[test]
    fn streaming_median_within_cap_is_bitwise_batch(
        updates in updates_strategy(16, 4),
    ) {
        let mut agg = StreamAgg::new(&AggregationStrategy::CoordinateMedian, 16).unwrap();
        for (p, w) in &updates {
            agg.fold(p.clone(), *w).unwrap();
        }
        prop_assert!(!agg.spilled());
        let stream = agg.finalize().unwrap();
        let batch = exact(AggregationStrategy::CoordinateMedian, &updates);
        for (s, b) in stream.iter().zip(&batch) {
            prop_assert_eq!(s.to_bits(), b.to_bits(), "{} != {} bitwise", s, b);
        }
    }

    /// After spilling, the streaming median stays within the documented
    /// `ε·|m|` bound of a true weighted-median endpoint per coordinate.
    #[test]
    fn streaming_median_after_spill_is_within_bound(
        updates in updates_strategy(120, 3),
    ) {
        let mut agg = StreamAgg::new(&AggregationStrategy::CoordinateMedian, 4).unwrap();
        for (p, w) in &updates {
            agg.fold(p.clone(), *w).unwrap();
        }
        let stream = agg.finalize().unwrap();
        for (j, s) in stream.iter().enumerate() {
            let mut col: Vec<(f64, u64)> =
                updates.iter().map(|(p, w)| (p[j], *w)).collect();
            let (lo, hi) = weighted_median_endpoints(&mut col);
            let ok = [lo, hi].iter().any(|m| {
                (s - m).abs() <= QuantileSketch::RELATIVE_ERROR * m.abs() + 1e-9
            });
            prop_assert!(ok, "coord {}: {} outside bound of [{}, {}]", j, s, lo, hi);
        }
    }

    /// After spilling with equal weights, the streaming trimmed mean
    /// stays within the documented
    /// `ε·max|v| + 2·range/(n·(1−2·trim))` bound of the batch rule.
    #[test]
    fn streaming_trimmed_mean_after_spill_is_within_bound(
        raw in updates_strategy(120, 3),
        trim in 0.05f64..0.3,
    ) {
        let updates: Vec<(Vec<f64>, u64)> =
            raw.into_iter().map(|(p, _)| (p, 1)).collect();
        let strategy = AggregationStrategy::TrimmedMean { trim_ratio: trim };
        let mut agg = StreamAgg::new(&strategy, 4).unwrap();
        for (p, w) in &updates {
            agg.fold(p.clone(), *w).unwrap();
        }
        let stream = agg.finalize().unwrap();
        let batch = exact(AggregationStrategy::TrimmedMean { trim_ratio: trim }, &updates);
        let n = updates.len() as f64;
        for (j, (s, b)) in stream.iter().zip(&batch).enumerate() {
            let col: Vec<f64> = updates.iter().map(|(p, _)| p[j]).collect();
            let max_abs = col.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let range = col.iter().fold(f64::MIN, |m, &v| m.max(v))
                - col.iter().fold(f64::MAX, |m, &v| m.min(v));
            let bound = QuantileSketch::RELATIVE_ERROR * max_abs
                + 2.0 * range / (n * (1.0 - 2.0 * trim));
            prop_assert!(
                (s - b).abs() <= bound,
                "coord {}: stream {} vs batch {} (bound {})", j, s, b, bound
            );
        }
    }

    /// Sharded fold + in-order merge equals a sequential fold for the
    /// rank family whenever everything stays exact, regardless of how
    /// the updates are split into shards.
    #[test]
    fn sharded_rank_merge_is_bitwise_sequential_when_exact(
        updates in updates_strategy(24, 3),
        n_shards in 1usize..6,
    ) {
        let cap = 64;
        let mut seq = StreamAgg::new(&AggregationStrategy::CoordinateMedian, cap).unwrap();
        for (p, w) in &updates {
            seq.fold(p.clone(), *w).unwrap();
        }
        let mut parts: Vec<StreamAgg> = (0..n_shards)
            .map(|_| StreamAgg::new(&AggregationStrategy::CoordinateMedian, cap).unwrap())
            .collect();
        // Contiguous split, like the runtime's host partition.
        let chunk = updates.len().div_ceil(n_shards);
        for (i, (p, w)) in updates.iter().enumerate() {
            parts[i / chunk].fold(p.clone(), *w).unwrap();
        }
        let mut it = parts.into_iter();
        let mut merged = it.next().unwrap();
        for part in it {
            merged.merge(part).unwrap();
        }
        prop_assert!(!merged.spilled());
        let a = seq.finalize().unwrap();
        let b = merged.finalize().unwrap();
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The cohort for `(n, fraction, seed, round)` is a pure function:
    /// two independently built samplers agree everywhere, and cohorts
    /// are always sorted, deduplicated, in-range, and non-empty.
    #[test]
    fn sampler_is_a_pure_function_of_seed_and_round(
        n in 1usize..400,
        fraction in 0.01f64..1.0,
        seed in any::<u64>(),
        round in 1u64..200,
    ) {
        let a = CohortSampler::new(n, fraction, seed).unwrap();
        let b = CohortSampler::new(n, fraction, seed).unwrap();
        let cohort = a.cohort(round);
        prop_assert_eq!(&cohort, &b.cohort(round));
        prop_assert!(!cohort.is_empty());
        prop_assert!(cohort.len() <= a.cohort_size());
        prop_assert!(cohort.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        prop_assert!(cohort.iter().all(|&id| id < n));
    }

    /// No starvation: from *any* starting round, every client appears in
    /// some cohort within `2·⌈n/k⌉` consecutive rounds — the window
    /// always contains at least one complete block permutation.
    #[test]
    fn sampler_covers_every_client_in_bounded_rounds(
        n in 1usize..250,
        fraction in 0.02f64..1.0,
        seed in any::<u64>(),
        start in 1u64..1000,
    ) {
        let sampler = CohortSampler::new(n, fraction, seed).unwrap();
        let k = sampler.cohort_size();
        let horizon = 2 * n.div_ceil(k) as u64;
        let mut seen = BTreeSet::new();
        for round in start..start + horizon {
            seen.extend(sampler.cohort(round));
        }
        prop_assert_eq!(
            seen.len(), n,
            "{} of {} clients never sampled in rounds {}..{}",
            n - seen.len(), n, start, start + horizon
        );
    }
}
