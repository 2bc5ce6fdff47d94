//! Client-side automated feature engineering (§4.2).
//!
//! Given the *globally agreed* parameters (lag count from the aggregated
//! meta-features, seasonal periods from the federated periodogram) each
//! client builds, from its own private data only:
//!
//! 1. **Trend feature** — a causal trend: an expanding exponential moving
//!    average whose value at row `t` summarizes observations strictly
//!    before `t` ([`causal_trend`]). It plays the role of the paper's
//!    Prophet trend component without leaking the current value.
//! 2. **Time features** — cyclic encodings of hour-of-day, day-of-week, and
//!    month-of-year from the row's timestamp.
//! 3. **Lag features** — the agreed number of lagged target values.
//! 4. **Seasonality features** — sin/cos at each agreed global period.

use ff_fl::config::{ConfigMap, ConfigMapExt};
use ff_linalg::Matrix;
use ff_timeseries::calendar;

/// Exogenous covariates aligned with a client's series — the contained step
/// toward the paper's multivariate future work (§6). Each row holds the
/// covariate values *known at prediction time* for that timestamp (weather
/// forecasts, holiday flags, tariff schedules…).
///
/// Every client in a federation must use the identical covariate schema
/// (same names, same order); FedAvg over the resulting coefficients is
/// otherwise meaningless, and the runtime rejects mismatched dimensions at
/// aggregation time.
#[derive(Debug, Clone)]
pub struct ExogenousData {
    /// Column names (shared schema across the federation).
    pub names: Vec<String>,
    /// One row per series observation.
    pub values: Matrix,
}

impl ExogenousData {
    /// Builds and validates the covariate block.
    ///
    /// # Panics
    /// Panics if the column count does not match `names`.
    pub fn new(names: Vec<String>, values: Matrix) -> ExogenousData {
        assert_eq!(names.len(), values.cols(), "exogenous schema mismatch");
        ExogenousData { names, values }
    }
}

/// Globally agreed feature-engineering parameters, decided by the server
/// from aggregated (privacy-preserving) statistics and broadcast to all
/// clients so every client builds the *same feature schema*.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalFeatureSpec {
    /// Lag offsets (1-based).
    pub lags: Vec<usize>,
    /// Seasonal periods in samples.
    pub seasonal_periods: Vec<f64>,
    /// Include the trend feature.
    pub use_trend: bool,
    /// Include cyclic time features.
    pub use_time: bool,
}

impl GlobalFeatureSpec {
    /// The raw-lags-only spec used by the feature-engineering ablation.
    pub fn lags_only(n_lags: usize) -> GlobalFeatureSpec {
        GlobalFeatureSpec {
            lags: (1..=n_lags.max(1)).collect(),
            seasonal_periods: vec![],
            use_trend: false,
            use_time: false,
        }
    }

    /// Column names of the engineered matrix, in order.
    pub fn feature_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.lags.iter().map(|l| format!("lag_{l}")).collect();
        if self.use_trend {
            names.push("trend".into());
        }
        if self.use_time {
            names.extend(calendar::TIME_FEATURE_NAMES.iter().map(|s| s.to_string()));
        }
        for p in &self.seasonal_periods {
            names.push(format!("season_sin_{p:.1}"));
            names.push(format!("season_cos_{p:.1}"));
        }
        names
    }

    /// Number of feature columns.
    pub fn dim(&self) -> usize {
        self.feature_names().len()
    }

    /// Serializes for the server→client broadcast.
    pub fn to_config_map(&self) -> ConfigMap {
        ConfigMap::new()
            .with_floats("lags", self.lags.iter().map(|&l| l as f64).collect())
            .with_floats("seasonal_periods", self.seasonal_periods.clone())
            .with_int("use_trend", i64::from(self.use_trend))
            .with_int("use_time", i64::from(self.use_time))
    }

    /// Parses the broadcast form.
    pub fn from_config_map(map: &ConfigMap) -> Option<GlobalFeatureSpec> {
        let lags = map
            .get("lags")?
            .as_float_vec()?
            .iter()
            .map(|&l| l as usize)
            .filter(|&l| l > 0)
            .collect::<Vec<_>>();
        if lags.is_empty() {
            return None;
        }
        Some(GlobalFeatureSpec {
            lags,
            seasonal_periods: map.get("seasonal_periods")?.as_float_vec()?.to_vec(),
            use_trend: map.int_or("use_trend", 1) != 0,
            use_time: map.int_or("use_time", 1) != 0,
        })
    }
}

/// The engineered supervised matrices of one client, split by time.
#[derive(Debug, Clone)]
pub struct EngineeredData {
    /// Feature column names.
    pub feature_names: Vec<String>,
    /// Training design matrix.
    pub x_train: Matrix,
    /// Training targets.
    pub y_train: Vec<f64>,
    /// Validation design matrix.
    pub x_valid: Matrix,
    /// Validation targets.
    pub y_valid: Vec<f64>,
    /// Test design matrix.
    pub x_test: Matrix,
    /// Test targets.
    pub y_test: Vec<f64>,
}

impl EngineeredData {
    /// Restricts all matrices to the given column subset (feature
    /// selection, §4.2.2).
    pub fn select_columns(&self, keep: &[usize]) -> EngineeredData {
        let pick = |m: &Matrix| -> Matrix {
            Matrix::from_fn(m.rows(), keep.len(), |i, j| m.get(i, keep[j]))
        };
        EngineeredData {
            feature_names: keep
                .iter()
                .map(|&j| self.feature_names[j].clone())
                .collect(),
            x_train: pick(&self.x_train),
            y_train: self.y_train.clone(),
            x_valid: pick(&self.x_valid),
            y_valid: self.y_valid.clone(),
            x_test: pick(&self.x_test),
            y_test: self.y_test.clone(),
        }
    }
}

/// Builds the engineered matrices from a client's interpolated values and
/// timestamps, with `train_end`/`valid_end` marking the time-ordered split
/// boundaries. Returns `None` when the training region is too short to
/// produce a row.
pub fn engineer(
    values: &[f64],
    timestamps: &[i64],
    train_end: usize,
    valid_end: usize,
    spec: &GlobalFeatureSpec,
) -> Option<EngineeredData> {
    engineer_with_exog(values, timestamps, train_end, valid_end, spec, None)
}

/// [`engineer`] with optional exogenous covariates appended as extra feature
/// columns (their row `t` values are used for predicting `y[t]`).
pub fn engineer_with_exog(
    values: &[f64],
    timestamps: &[i64],
    train_end: usize,
    valid_end: usize,
    spec: &GlobalFeatureSpec,
    exog: Option<&ExogenousData>,
) -> Option<EngineeredData> {
    let n = values.len();
    if n != timestamps.len() || train_end == 0 || train_end > valid_end || valid_end > n {
        return None;
    }
    if let Some(e) = exog {
        if e.values.rows() != n {
            return None;
        }
    }
    let max_lag = *spec.lags.iter().max()?;
    if train_end <= max_lag + 2 {
        return None;
    }
    // Trend feature: a *causal* trend estimate — an expanding exponential
    // moving average of past values. The paper extracts the Prophet trend
    // component as a feature; a fitted-once trend curve is nearly collinear
    // with the lag features in-sample yet diverges out-of-sample (models
    // that split weight onto it break at test time on level-shifting
    // series), so we evaluate the trend causally: the value at row `t`
    // summarizes observations strictly before `t` on every split. Same
    // semantic role, no leakage, no train/test distribution shift.
    let trend = if spec.use_trend {
        Some(causal_trend(values))
    } else {
        None
    };
    let mut names = spec.feature_names();
    if let Some(e) = exog {
        names.extend(e.names.iter().map(|n| format!("exog_{n}")));
    }
    let dim = names.len();

    let mut rows: [Vec<Vec<f64>>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut targets: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for t in max_lag..n {
        let mut row = Vec::with_capacity(dim);
        for &l in &spec.lags {
            row.push(values[t - l]);
        }
        if let Some(tr) = &trend {
            row.push(tr[t]);
        }
        if spec.use_time {
            row.extend_from_slice(&calendar::time_features(timestamps[t]));
        }
        for &p in &spec.seasonal_periods {
            let ang = std::f64::consts::TAU * t as f64 / p.max(2.0);
            row.push(ang.sin());
            row.push(ang.cos());
        }
        if let Some(e) = exog {
            row.extend_from_slice(e.values.row(t));
        }
        let bucket = if t < train_end {
            0
        } else if t < valid_end {
            1
        } else {
            2
        };
        rows[bucket].push(row);
        targets[bucket].push(values[t]);
    }
    if rows[0].is_empty() {
        return None;
    }
    let build = |rs: &Vec<Vec<f64>>| -> Matrix { Matrix::from_fn(rs.len(), dim, |i, j| rs[i][j]) };
    Some(EngineeredData {
        feature_names: names,
        x_train: build(&rows[0]),
        y_train: targets[0].clone(),
        x_valid: build(&rows[1]),
        y_valid: targets[1].clone(),
        x_test: build(&rows[2]),
        y_test: targets[2].clone(),
    })
}

/// Causal trend estimate: `trend[t]` is an exponential moving average of
/// `values[..t]` (span `n/10`, clamped to `[5, 60]`), seeded at the first
/// observation. Strictly causal: `trend[t]` never sees `values[t]`.
///
/// The EMA kernel itself lives in [`ff_models::pipeline::causal_ema_trend`]
/// — it is also the `trend_ema` pipeline node, where the span is tunable;
/// this wrapper keeps the feature-engineering span heuristic.
pub fn causal_trend(values: &[f64]) -> Vec<f64> {
    let span = (values.len() / 10).clamp(5, 60) as f64;
    ff_models::pipeline::causal_ema_trend(values, span)
}

/// Server-side feature selection (§4.2.2): averages the clients' importance
/// vectors with the given weights and keeps the smallest set of columns
/// whose cumulative importance reaches `threshold`. Always keeps at least
/// one column; returns sorted column indices.
pub fn select_features(importances: &[Vec<f64>], weights: &[f64], threshold: f64) -> Vec<usize> {
    assert_eq!(importances.len(), weights.len());
    assert!(!importances.is_empty());
    let dim = importances[0].len();
    let wsum: f64 = weights.iter().sum::<f64>().max(1e-300);
    let mut avg = vec![0.0; dim];
    for (imp, &w) in importances.iter().zip(weights) {
        assert_eq!(imp.len(), dim);
        for (a, &v) in avg.iter_mut().zip(imp) {
            *a += w / wsum * v.max(0.0);
        }
    }
    let total: f64 = avg.iter().sum();
    if total <= 0.0 {
        return (0..dim).collect();
    }
    let mut order: Vec<usize> = (0..dim).collect();
    order.sort_by(|&a, &b| avg[b].total_cmp(&avg[a]));
    let mut kept = Vec::new();
    let mut acc = 0.0;
    for &j in &order {
        kept.push(j);
        acc += avg[j] / total;
        if acc >= threshold {
            break;
        }
    }
    kept.sort_unstable();
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> GlobalFeatureSpec {
        GlobalFeatureSpec {
            lags: vec![1, 2, 3],
            seasonal_periods: vec![7.0],
            use_trend: true,
            use_time: true,
        }
    }

    fn sample_data(n: usize) -> (Vec<f64>, Vec<i64>) {
        let values: Vec<f64> = (0..n)
            .map(|t| 10.0 + 0.05 * t as f64 + (std::f64::consts::TAU * t as f64 / 7.0).sin())
            .collect();
        let timestamps: Vec<i64> = (0..n as i64).map(|t| t * 86_400).collect();
        (values, timestamps)
    }

    #[test]
    fn engineered_shapes_and_names() {
        let (v, ts) = sample_data(100);
        let e = engineer(&v, &ts, 70, 85, &spec()).unwrap();
        // 3 lags + trend + 6 time + 2 seasonal = 12 columns.
        assert_eq!(e.feature_names.len(), 12);
        assert_eq!(e.x_train.cols(), 12);
        // Rows: 100 − 3 = 97 total, split at 70/85.
        assert_eq!(e.y_train.len(), 67);
        assert_eq!(e.y_valid.len(), 15);
        assert_eq!(e.y_test.len(), 15);
    }

    #[test]
    fn lag_columns_hold_true_history() {
        let (v, ts) = sample_data(50);
        let e = engineer(&v, &ts, 40, 45, &spec()).unwrap();
        // First row is t = 3: lag_1 = v[2], lag_2 = v[1], lag_3 = v[0].
        assert_eq!(e.x_train.get(0, 0), v[2]);
        assert_eq!(e.x_train.get(0, 1), v[1]);
        assert_eq!(e.x_train.get(0, 2), v[0]);
        assert_eq!(e.y_train[0], v[3]);
    }

    #[test]
    fn trend_feature_tracks_level_causally() {
        let (v, ts) = sample_data(200);
        let e = engineer(&v, &ts, 150, 175, &spec()).unwrap();
        let trend_col = e.feature_names.iter().position(|n| n == "trend").unwrap();
        // The trend rises with the upward slope and KEEPS tracking through
        // validation and test (causal estimate, not a frozen fit).
        let first = e.x_train.get(0, trend_col);
        let last_train = e.x_train.get(e.x_train.rows() - 1, trend_col);
        let last_test = e.x_test.get(e.x_test.rows() - 1, trend_col);
        assert!(last_train > first, "trend {first} → {last_train}");
        assert!(
            last_test > last_train,
            "trend must keep tracking: {last_train} → {last_test}"
        );
    }

    #[test]
    fn causal_trend_never_sees_the_current_value() {
        // A single spike at position k must not affect trend[k].
        let mut v = vec![1.0; 50];
        v[30] = 100.0;
        let tr = causal_trend(&v);
        assert!((tr[30] - 1.0).abs() < 1e-9, "leaked: {}", tr[30]);
        assert!(tr[31] > 1.0, "spike must enter the next step");
    }

    #[test]
    fn causal_trend_converges_to_level() {
        let v = vec![7.5; 200];
        let tr = causal_trend(&v);
        assert!((tr[199] - 7.5).abs() < 1e-6);
    }

    #[test]
    fn spec_roundtrips_via_config_map() {
        let s = spec();
        let m = s.to_config_map();
        let back = GlobalFeatureSpec::from_config_map(&m).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn lags_only_ablation_spec() {
        let s = GlobalFeatureSpec::lags_only(4);
        assert_eq!(s.dim(), 4);
        assert_eq!(s.feature_names(), vec!["lag_1", "lag_2", "lag_3", "lag_4"]);
    }

    #[test]
    fn too_short_train_is_none() {
        let (v, ts) = sample_data(10);
        assert!(engineer(&v, &ts, 4, 7, &spec()).is_none());
    }

    #[test]
    fn exogenous_columns_are_appended_and_aligned() {
        let (v, ts) = sample_data(80);
        // Covariate = the index itself, so alignment is directly checkable.
        let exog = ExogenousData::new(
            vec!["temp".into()],
            ff_linalg::Matrix::from_fn(80, 1, |i, _| i as f64 * 10.0),
        );
        let e = engineer_with_exog(&v, &ts, 55, 68, &spec(), Some(&exog)).unwrap();
        assert_eq!(*e.feature_names.last().unwrap(), "exog_temp");
        let col = e.feature_names.len() - 1;
        // First train row is t = 3 → exog value 30.
        assert_eq!(e.x_train.get(0, col), 30.0);
        // First test row is t = 68 → exog value 680.
        assert_eq!(e.x_test.get(0, col), 680.0);
    }

    #[test]
    fn exogenous_row_mismatch_is_rejected() {
        let (v, ts) = sample_data(80);
        let exog = ExogenousData::new(vec!["temp".into()], ff_linalg::Matrix::zeros(40, 1));
        assert!(engineer_with_exog(&v, &ts, 55, 68, &spec(), Some(&exog)).is_none());
    }

    #[test]
    fn select_features_cumulative_rule() {
        // Importances: col1 dominates.
        let imps = vec![vec![0.1, 0.8, 0.05, 0.05], vec![0.1, 0.8, 0.05, 0.05]];
        let kept = select_features(&imps, &[1.0, 1.0], 0.85);
        assert_eq!(kept, vec![0, 1]); // 0.8 + 0.1 ≥ 0.85, sorted
        let all = select_features(&imps, &[1.0, 1.0], 1.0);
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn select_features_weighted_average() {
        // Client A loves col0, client B loves col1; B has all the weight.
        let imps = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let kept = select_features(&imps, &[0.01, 0.99], 0.9);
        assert_eq!(kept, vec![1]);
    }

    #[test]
    fn zero_importances_keep_everything() {
        let imps = vec![vec![0.0, 0.0, 0.0]];
        assert_eq!(select_features(&imps, &[1.0], 0.95), vec![0, 1, 2]);
    }

    #[test]
    fn column_selection_preserves_rows() {
        let (v, ts) = sample_data(60);
        let e = engineer(&v, &ts, 40, 50, &spec()).unwrap();
        let sel = e.select_columns(&[0, 3]);
        assert_eq!(sel.x_train.cols(), 2);
        assert_eq!(sel.y_train, e.y_train);
        assert_eq!(sel.feature_names[0], "lag_1");
        assert_eq!(sel.feature_names[1], "trend");
        assert_eq!(sel.x_train.get(0, 1), e.x_train.get(0, 3));
    }
}
