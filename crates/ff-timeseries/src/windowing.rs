//! Lag-window design matrices for supervised forecasting.
//!
//! One-step-ahead forecasting is cast as tabular regression: each row holds
//! the chosen lagged values of the target and the target is the next
//! observation. Both the knowledge-base labeller and the FedForecaster
//! feature engineering build on this.

use ff_linalg::Matrix;

/// Builds a `(X, y)` pair from a series using the given lag offsets
/// (e.g. `[1, 2, 7]` uses `y[t-1], y[t-2], y[t-7]` to predict `y[t]`).
///
/// Rows start at `max(lags)` so every lag is available. Returns `None` when
/// the series is too short to produce a single row. `NaN` rows (target or
/// any lag) are skipped.
pub fn lag_matrix(values: &[f64], lags: &[usize]) -> Option<(Matrix, Vec<f64>)> {
    if lags.is_empty() || values.is_empty() {
        return None;
    }
    let max_lag = *lags.iter().max().unwrap();
    if max_lag == 0 || values.len() <= max_lag {
        return None;
    }
    let mut rows = Vec::new();
    let mut y = Vec::new();
    for t in max_lag..values.len() {
        if values[t].is_nan() {
            continue;
        }
        let feat: Vec<f64> = lags.iter().map(|&l| values[t - l]).collect();
        if feat.iter().any(|v| v.is_nan()) {
            continue;
        }
        rows.push(feat);
        y.push(values[t]);
    }
    if rows.is_empty() {
        return None;
    }
    let p = lags.len();
    let x = Matrix::from_fn(rows.len(), p, |i, j| rows[i][j]);
    Some((x, y))
}

/// Builds aligned train/validation lag matrices for one-step-ahead
/// evaluation with teacher forcing: validation rows may draw their lags
/// from the tail of the training split (true history), never from model
/// predictions.
///
/// Returns `None` when either side produces no rows.
#[allow(clippy::type_complexity)]
pub fn train_valid_lag_split(
    train: &[f64],
    valid: &[f64],
    lags: &[usize],
) -> Option<(Matrix, Vec<f64>, Matrix, Vec<f64>)> {
    let (xtr, ytr) = lag_matrix(train, lags)?;
    let max_lag = *lags.iter().max()?;
    if train.len() < max_lag {
        return None;
    }
    // Validation rows: context = last max_lag train values ++ valid.
    let mut ctx = train[train.len() - max_lag..].to_vec();
    ctx.extend_from_slice(valid);
    let (xva_full, yva_full) = lag_matrix(&ctx, lags)?;
    // Rows of xva_full start at index max_lag of ctx == first valid point.
    if yva_full.is_empty() {
        return None;
    }
    Some((xtr, ytr, xva_full, yva_full))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_alignment() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        let (x, y) = lag_matrix(&v, &[1, 2]).unwrap();
        assert_eq!(x.rows(), 3);
        assert_eq!(y, vec![30.0, 40.0, 50.0]);
        // First row: lags of y=30 are y[t-1]=20, y[t-2]=10.
        assert_eq!(x.row(0), &[20.0, 10.0]);
        assert_eq!(x.row(2), &[40.0, 30.0]);
    }

    #[test]
    fn sparse_lags() {
        let v: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let (x, y) = lag_matrix(&v, &[3]).unwrap();
        assert_eq!(x.rows(), 7);
        assert_eq!(y[0], 3.0);
        assert_eq!(x.row(0), &[0.0]);
    }

    #[test]
    fn too_short_returns_none() {
        assert!(lag_matrix(&[1.0, 2.0], &[5]).is_none());
        assert!(lag_matrix(&[], &[1]).is_none());
        assert!(lag_matrix(&[1.0, 2.0, 3.0], &[]).is_none());
        assert!(lag_matrix(&[1.0, 2.0, 3.0], &[0]).is_none());
    }

    #[test]
    fn nan_rows_are_skipped() {
        let v = [1.0, f64::NAN, 3.0, 4.0, 5.0];
        let (x, y) = lag_matrix(&v, &[1, 2]).unwrap();
        // t=2 needs v[1] (NaN) → skipped; t=3 needs v[2],v[1] (NaN) → skipped;
        // t=4 uses v[3], v[2] → kept.
        assert_eq!(x.rows(), 1);
        assert_eq!(y, vec![5.0]);
        assert_eq!(x.row(0), &[4.0, 3.0]);
    }

    #[test]
    fn train_valid_split_uses_true_history() {
        let train: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let valid: Vec<f64> = (10..14).map(|i| i as f64).collect();
        let (xtr, ytr, xva, yva) = train_valid_lag_split(&train, &valid, &[1, 2]).unwrap();
        assert_eq!(ytr.len(), 8);
        assert_eq!(yva, vec![10.0, 11.0, 12.0, 13.0]);
        // First validation row's lags come from the train tail.
        assert_eq!(xva.row(0), &[9.0, 8.0]);
        assert_eq!(xva.row(1), &[10.0, 9.0]);
        assert_eq!(xtr.row(0), &[1.0, 0.0]);
    }

    #[test]
    fn train_valid_split_too_short_is_none() {
        assert!(train_valid_lag_split(&[1.0], &[2.0], &[3]).is_none());
        assert!(train_valid_lag_split(&[1.0, 2.0, 3.0, 4.0], &[], &[1]).is_none());
    }
}
