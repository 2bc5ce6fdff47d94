//! Property tests for the cohort sampler contracts: a pure function of
//! `(seed, round)`, with no starvation over a bounded horizon.

use ff_fl::runtime::CohortSampler;
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
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
