//! Evaluation metrics: regression errors, classification scores, and the
//! Mean Reciprocal Rank used for meta-model selection (Table 4).

/// Mean squared error.
pub fn mse(y_true: &[f64], y_pred: &[f64]) -> f64 {
    assert_eq!(y_true.len(), y_pred.len());
    if y_true.is_empty() {
        return 0.0;
    }
    y_true
        .iter()
        .zip(y_pred)
        .map(|(&t, &p)| (t - p) * (t - p))
        .sum::<f64>()
        / y_true.len() as f64
}

/// Mean absolute error.
pub fn mae(y_true: &[f64], y_pred: &[f64]) -> f64 {
    assert_eq!(y_true.len(), y_pred.len());
    if y_true.is_empty() {
        return 0.0;
    }
    y_true
        .iter()
        .zip(y_pred)
        .map(|(&t, &p)| (t - p).abs())
        .sum::<f64>()
        / y_true.len() as f64
}

/// Coefficient of determination R².
pub fn r2(y_true: &[f64], y_pred: &[f64]) -> f64 {
    let mean = ff_linalg::vector::mean(y_true);
    let ss_tot: f64 = y_true.iter().map(|&t| (t - mean) * (t - mean)).sum();
    let ss_res: f64 = y_true
        .iter()
        .zip(y_pred)
        .map(|(&t, &p)| (t - p) * (t - p))
        .sum();
    if ss_tot <= 1e-300 {
        if ss_res <= 1e-300 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// Classification accuracy.
pub fn accuracy(y_true: &[usize], y_pred: &[usize]) -> f64 {
    assert_eq!(y_true.len(), y_pred.len());
    if y_true.is_empty() {
        return 0.0;
    }
    y_true.iter().zip(y_pred).filter(|(t, p)| t == p).count() as f64 / y_true.len() as f64
}

/// Macro-averaged F1 score over `n_classes` classes. Classes absent from
/// both truth and prediction contribute F1 = 0 only if they appear in the
/// ground truth (standard macro-F1 over observed classes).
pub fn f1_macro(y_true: &[usize], y_pred: &[usize], n_classes: usize) -> f64 {
    assert_eq!(y_true.len(), y_pred.len());
    let mut f1s = Vec::new();
    for c in 0..n_classes {
        let tp = y_true
            .iter()
            .zip(y_pred)
            .filter(|(&t, &p)| t == c && p == c)
            .count() as f64;
        let fp = y_true
            .iter()
            .zip(y_pred)
            .filter(|(&t, &p)| t != c && p == c)
            .count() as f64;
        let fn_ = y_true
            .iter()
            .zip(y_pred)
            .filter(|(&t, &p)| t == c && p != c)
            .count() as f64;
        let support = y_true.iter().filter(|&&t| t == c).count();
        if support == 0 {
            continue;
        }
        let denom = 2.0 * tp + fp + fn_;
        f1s.push(if denom == 0.0 { 0.0 } else { 2.0 * tp / denom });
    }
    if f1s.is_empty() {
        0.0
    } else {
        f1s.iter().sum::<f64>() / f1s.len() as f64
    }
}

/// Mean Reciprocal Rank at K: for each sample, the reciprocal rank of the
/// true label within the top-K ranked predictions (0 if absent).
///
/// `rankings[i]` lists class indices ordered from most to least likely.
pub fn mrr_at_k(y_true: &[usize], rankings: &[Vec<usize>], k: usize) -> f64 {
    assert_eq!(y_true.len(), rankings.len());
    if y_true.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for (&truth, ranking) in y_true.iter().zip(rankings) {
        if let Some(pos) = ranking.iter().take(k).position(|&c| c == truth) {
            total += 1.0 / (pos + 1) as f64;
        }
    }
    total / y_true.len() as f64
}

/// Ranks class indices by descending probability for one probability row.
pub fn rank_classes(probs: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..probs.len()).collect();
    idx.sort_by(|&a, &b| probs[b].total_cmp(&probs[a]));
    idx
}

/// Average rank (1-based) of each method across datasets, given a loss
/// matrix `losses[dataset][method]` (lower is better). Ties share the
/// average of their rank positions.
pub fn average_ranks(losses: &[Vec<f64>]) -> Vec<f64> {
    if losses.is_empty() {
        return Vec::new();
    }
    let m = losses[0].len();
    let mut sums = vec![0.0; m];
    for row in losses {
        assert_eq!(row.len(), m);
        // Rank with average ties.
        let mut idx: Vec<usize> = (0..m).collect();
        idx.sort_by(|&a, &b| row[a].total_cmp(&row[b]));
        let mut i = 0;
        while i < m {
            let mut j = i;
            while j + 1 < m && row[idx[j + 1]] == row[idx[i]] {
                j += 1;
            }
            let avg_rank = (i + j) as f64 / 2.0 + 1.0;
            for k in i..=j {
                sums[idx[k]] += avg_rank;
            }
            i = j + 1;
        }
    }
    sums.iter().map(|s| s / losses.len() as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_metrics_known_values() {
        let t = [1.0, 2.0, 3.0];
        let p = [1.0, 2.0, 5.0];
        assert!((mse(&t, &p) - 4.0 / 3.0).abs() < 1e-12);
        assert!((mae(&t, &p) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn r2_perfect_and_mean_predictor() {
        let t = [1.0, 2.0, 3.0, 4.0];
        assert!((r2(&t, &t) - 1.0).abs() < 1e-12);
        let mean_pred = [2.5; 4];
        assert!(r2(&t, &mean_pred).abs() < 1e-12);
    }

    #[test]
    fn accuracy_and_f1() {
        let t = [0, 0, 1, 1, 2, 2];
        let p = [0, 1, 1, 1, 2, 0];
        assert!((accuracy(&t, &p) - 4.0 / 6.0).abs() < 1e-12);
        // Per-class F1: c0: tp=1 fp=1 fn=1 → 0.5; c1: tp=2 fp=1 fn=0 → 0.8;
        // c2: tp=1 fp=0 fn=1 → 2/3. Macro = (0.5+0.8+0.6667)/3.
        let f1 = f1_macro(&t, &p, 3);
        assert!((f1 - (0.5 + 0.8 + 2.0 / 3.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn f1_skips_classes_without_support() {
        let t = [0, 0, 1];
        let p = [0, 0, 1];
        // Class 2 has no support: macro over classes 0 and 1 only.
        assert!((f1_macro(&t, &p, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mrr_at_k_values() {
        let t = [0, 1, 2];
        let rankings = vec![
            vec![0, 1, 2], // rank 1 → 1.0
            vec![0, 1, 2], // rank 2 → 0.5
            vec![0, 1, 2], // rank 3 → 1/3
        ];
        assert!((mrr_at_k(&t, &rankings, 3) - (1.0 + 0.5 + 1.0 / 3.0) / 3.0).abs() < 1e-12);
        // K = 2 cuts off the third sample.
        assert!((mrr_at_k(&t, &rankings, 2) - (1.0 + 0.5) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rank_classes_descending() {
        assert_eq!(rank_classes(&[0.1, 0.7, 0.2]), vec![1, 2, 0]);
    }

    #[test]
    fn average_ranks_with_ties() {
        // Two datasets, three methods.
        let losses = vec![vec![1.0, 2.0, 3.0], vec![2.0, 1.0, 1.0]];
        let ranks = average_ranks(&losses);
        assert!((ranks[0] - 2.0).abs() < 1e-12); // (1 + 3)/2
        assert!((ranks[1] - 1.75).abs() < 1e-12); // (2 + 1.5)/2
        assert!((ranks[2] - 2.25).abs() < 1e-12); // (3 + 1.5)/2
    }
}
