//! Property-based tests for the model substrate.

use ff_linalg::Matrix;
use ff_models::boosting::gbdt::XgbRegressor;
use ff_models::forest::{RandomForestClassifier, RandomForestRegressor};
use ff_models::linear::cd::{coordinate_descent, soft_threshold, Selection};
use ff_models::linear::lasso::Lasso;
use ff_models::metrics;
use ff_models::{Classifier, Regressor};
use proptest::prelude::*;

fn design(n: usize, p: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-5.0f64..5.0, n * p).prop_map(move |d| Matrix::from_vec(n, p, d))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn soft_threshold_is_shrinkage(z in -10.0f64..10.0, t in 0.0f64..5.0) {
        let s = soft_threshold(z, t);
        prop_assert!(s.abs() <= z.abs() + 1e-12);
        prop_assert!(s * z >= 0.0, "sign must not flip");
        if z.abs() <= t {
            prop_assert_eq!(s, 0.0);
        }
    }

    #[test]
    fn lasso_predictions_are_finite(x in design(30, 3), noise in prop::collection::vec(-0.1f64..0.1, 30)) {
        let y: Vec<f64> = (0..30).map(|i| x.get(i, 0) * 2.0 + noise[i]).collect();
        let mut m = Lasso::new(0.01, Selection::Cyclic);
        m.fit(&x, &y).unwrap();
        let pred = m.predict(&x).unwrap();
        prop_assert!(pred.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn cd_objective_decreases_with_weaker_regularization(x in design(40, 2)) {
        let y: Vec<f64> = (0..40).map(|i| 3.0 * x.get(i, 0) - x.get(i, 1)).collect();
        let xt = x.transpose();
        let weak = coordinate_descent(&xt, &y, 1e-6, 1.0, Selection::Cyclic, 300, 1e-9, 0);
        let strong = coordinate_descent(&xt, &y, 1.0, 1.0, Selection::Cyclic, 300, 1e-9, 0);
        let sse = |coef: &[f64], b: f64| -> f64 {
            (0..40).map(|i| {
                let p = ff_linalg::vector::dot(x.row(i), coef) + b;
                (y[i] - p) * (y[i] - p)
            }).sum()
        };
        prop_assert!(sse(&weak.coef, weak.intercept) <= sse(&strong.coef, strong.intercept) + 1e-6);
    }

    #[test]
    fn forest_predictions_within_target_range(x in design(40, 2)) {
        let y: Vec<f64> = (0..40).map(|i| x.get(i, 0)).collect();
        let mut f = RandomForestRegressor::new(10, 4, 1);
        f.fit(&x, &y).unwrap();
        let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for p in f.predict(&x).unwrap() {
            // Averages of leaf means can never escape the convex hull of y.
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    }

    #[test]
    fn forest_importances_form_distribution(x in design(40, 3)) {
        let y: Vec<f64> = (0..40).map(|i| x.get(i, 1) * 2.0).collect();
        let mut f = RandomForestRegressor::new(10, 4, 2);
        f.feature_subsample = 1.0;
        f.fit(&x, &y).unwrap();
        let imp = f.feature_importances().unwrap();
        let sum: f64 = imp.iter().sum();
        prop_assert!(imp.iter().all(|&v| v >= 0.0));
        prop_assert!(sum < 1.0 + 1e-9);
    }

    #[test]
    fn classifier_proba_is_distribution(x in design(30, 2), seed in 0u64..100) {
        let labels: Vec<usize> = (0..30).map(|i| i % 2).collect();
        let mut c = RandomForestClassifier::new(8, 4, seed);
        c.fit(&x, &labels, 2).unwrap();
        let p = c.predict_proba(&x).unwrap();
        for i in 0..p.rows() {
            let s: f64 = p.row(i).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
            prop_assert!(p.row(i).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn xgb_train_error_beats_mean_baseline(x in design(60, 2)) {
        let y: Vec<f64> = (0..60).map(|i| (x.get(i, 0) * 1.3).sin() * 4.0 + x.get(i, 1)).collect();
        let mut m = XgbRegressor::new(25, 3, 0.3, 1.0, 1.0);
        m.fit(&x, &y).unwrap();
        let pred = m.predict(&x).unwrap();
        let mean = ff_linalg::vector::mean(&y);
        let base: Vec<f64> = vec![mean; 60];
        prop_assert!(metrics::mse(&y, &pred) <= metrics::mse(&y, &base) + 1e-9);
    }

    #[test]
    fn mrr_bounded_unit_interval(
        labels in prop::collection::vec(0usize..4, 10),
        perm_seed in 0u64..50,
    ) {
        let mut state = perm_seed;
        let rankings: Vec<Vec<usize>> = (0..10).map(|_| {
            let mut order = vec![0usize, 1, 2, 3];
            for i in (1..4).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let j = (state >> 33) as usize % (i + 1);
                order.swap(i, j);
            }
            order
        }).collect();
        let mrr = metrics::mrr_at_k(&labels, &rankings, 3);
        prop_assert!((0.0..=1.0).contains(&mrr));
    }

    #[test]
    fn average_ranks_sum_is_invariant(losses in prop::collection::vec(prop::collection::vec(0.0f64..10.0, 4), 5)) {
        let ranks = metrics::average_ranks(&losses);
        // Ranks of m methods always sum to m(m+1)/2 per dataset.
        let sum: f64 = ranks.iter().sum();
        prop_assert!((sum - 10.0).abs() < 1e-9, "rank sum {sum}");
    }
}
