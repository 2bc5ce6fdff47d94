//! Property-based tests for the Bayesian-optimization substrate.

use ff_bayesopt::acquisition::expected_improvement;
use ff_bayesopt::gp::{GaussianProcess, IncrementalGp, Posterior};
use ff_bayesopt::kernel::Kernel;
use ff_bayesopt::space::{ParamSpec, SearchSpace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn mixed_space() -> SearchSpace {
    SearchSpace::new()
        .with("a", ParamSpec::Continuous { lo: -2.0, hi: 5.0 })
        .with(
            "b",
            ParamSpec::LogContinuous {
                lo: 1e-4,
                hi: 100.0,
            },
        )
        .with("c", ParamSpec::Integer { lo: 0, hi: 9 })
        .with(
            "d",
            ParamSpec::Categorical {
                options: vec!["x".into(), "y".into(), "z".into()],
            },
        )
}

proptest! {
    #[test]
    fn encode_is_unit_cube_and_decode_roundtrips(seed in 0u64..500) {
        let space = mixed_space();
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = space.sample(&mut rng);
        let z = space.encode(&cfg);
        prop_assert_eq!(z.len(), space.encoded_dim());
        prop_assert!(z.iter().all(|v| (0.0..=1.0).contains(v)));
        let back = space.decode(&z);
        prop_assert!((back["a"].as_f64() - cfg["a"].as_f64()).abs() < 1e-9);
        prop_assert!(
            (back["b"].as_f64().ln() - cfg["b"].as_f64().ln()).abs() < 1e-9
        );
        prop_assert_eq!(back["c"].as_i64(), cfg["c"].as_i64());
        prop_assert_eq!(back["d"].as_str(), cfg["d"].as_str());
    }

    #[test]
    fn gp_posterior_variance_is_nonnegative_everywhere(
        ys in prop::collection::vec(-10.0f64..10.0, 6),
        q in 0.0f64..1.0,
    ) {
        let xs: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 / 5.0]).collect();
        let gp = GaussianProcess::fit(
            Kernel::Matern52 { length_scale: 0.3, variance: 1.0 },
            1e-6,
            &xs,
            &ys,
        )
        .unwrap();
        let (m, v) = gp.predict(&[q]).unwrap();
        prop_assert!(v >= 0.0, "negative variance {v}");
        prop_assert!(m.is_finite());
    }

    #[test]
    fn gp_interpolates_within_observed_range(
        ys in prop::collection::vec(-5.0f64..5.0, 5),
    ) {
        let xs: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64 / 4.0]).collect();
        let gp = GaussianProcess::fit(
            Kernel::Rbf { length_scale: 0.4, variance: 1.0 },
            1e-8,
            &xs,
            &ys,
        )
        .unwrap();
        for (x, &y) in xs.iter().zip(&ys) {
            let (m, _) = gp.predict(x).unwrap();
            prop_assert!((m - y).abs() < 0.05 * (1.0 + y.abs()), "m {m} vs y {y}");
        }
    }

    #[test]
    fn ei_nonnegative_and_monotone_in_best(
        mean in -5.0f64..5.0,
        var in 0.0f64..4.0,
        best in -5.0f64..5.0,
    ) {
        let ei = expected_improvement(mean, var, best, 0.0);
        prop_assert!(ei >= 0.0);
        // A looser incumbent (higher best) can only increase EI.
        let ei_loose = expected_improvement(mean, var, best + 1.0, 0.0);
        prop_assert!(ei_loose >= ei - 1e-12);
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn prediction_bits(post: &Posterior<'_>, probes: &[Vec<f64>]) -> Vec<(u64, u64)> {
    probes
        .iter()
        .map(|p| {
            let (m, v) = post.predict(p).unwrap();
            (m.to_bits(), v.to_bits())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After every observation the incremental surrogate is `fit_auto` bit
    /// for bit: the chosen length scale, α, the log marginal likelihood,
    /// and predictions at random probes, one at a time and blocked.
    /// Streams repeat inputs exactly; an occasional poisoned input makes
    /// every length scale fail from then on, as it does for `fit_auto`.
    #[test]
    fn incremental_surrogate_matches_fit_auto_bitwise(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = rng.gen_range(1..=20usize);
        let n = rng.gen_range(1..=96usize);
        let noise = [0.0, 1e-6, 1e-4][rng.gen_range(0..3usize)];
        let poison_at = if rng.gen_bool(0.15) { Some(rng.gen_range(0..n)) } else { None };
        let probes: Vec<Vec<f64>> = (0..5)
            .map(|_| (0..d).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let mut inc = IncrementalGp::new();
        let (mut xs, mut ys): (Vec<Vec<f64>>, Vec<f64>) = (Vec::new(), Vec::new());
        for t in 0..n {
            let mut x: Vec<f64> = if t > 0 && rng.gen_bool(0.25) {
                xs[rng.gen_range(0..t)].clone()
            } else {
                (0..d).map(|_| rng.gen::<f64>()).collect()
            };
            if poison_at == Some(t) {
                x[0] = f64::NAN;
            }
            let y = rng.gen::<f64>() * 10.0 - 5.0;
            inc.push(x.clone(), y).unwrap();
            xs.push(x);
            ys.push(y);
            let reference = GaussianProcess::fit_auto(noise, &xs, &ys);
            match (inc.fit(noise), &reference) {
                (Ok(post), Ok(gp)) => {
                    let want = gp.posterior();
                    prop_assert_eq!(post.kernel(), want.kernel(), "t={}", t);
                    prop_assert_eq!(bits(post.alpha()), bits(want.alpha()), "t={}", t);
                    prop_assert_eq!(
                        post.log_marginal_likelihood().to_bits(),
                        want.log_marginal_likelihood().to_bits()
                    );
                    let one_by_one = prediction_bits(&want, &probes);
                    prop_assert_eq!(prediction_bits(&post, &probes), one_by_one.clone());
                    let blocked: Vec<(u64, u64)> = post
                        .predict_block(&probes.concat())
                        .unwrap()
                        .iter()
                        .map(|(m, v)| (m.to_bits(), v.to_bits()))
                        .collect();
                    prop_assert_eq!(blocked, one_by_one);
                }
                (Err(_), Err(_)) => prop_assert!(poison_at.is_some_and(|p| p <= t)),
                (got, _) => prop_assert!(
                    false,
                    "t={} incremental ok={} but fit_auto ok={}",
                    t,
                    got.is_ok(),
                    reference.is_ok()
                ),
            }
        }
    }
}
