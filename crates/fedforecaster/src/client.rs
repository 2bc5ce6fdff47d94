//! The FedForecaster client: owns one private time-series split and
//! services the server's protocol over `ff-fl`.
//!
//! Every reply contains only statistics, losses, feature importances, or
//! model parameters — never raw samples (asserted by the integration
//! tests via the message log).

use crate::feature_engineering::{
    engineer_with_exog, EngineeredData, ExogenousData, GlobalFeatureSpec,
};
use crate::search_space::{
    algorithm_of, map_to_config, pipeline_of, to_hyperparams, to_pipeline_hyperparams,
};
use ff_bayesopt::space::Configuration;
use ff_fl::client::{EvalOutput, FitOutput, FlClient};
use ff_fl::config::{ConfigMap, ConfigMapExt};
use ff_linalg::Matrix;
use ff_metalearn::features::ClientMetaFeatures;
use ff_models::data::{Standardizer, TargetScaler};
use ff_models::forest::RandomForestRegressor;
use ff_models::metrics::mse;
use ff_models::pipeline::{
    decode_member_blob, encode_external_blob, probe_affine, PipelineId, PipelineModel,
    RevivedMember,
};
use ff_models::zoo::{build_regressor, AlgorithmKind, FinalizeStrategy};
use ff_models::Regressor;
use ff_timeseries::{interpolate, periodogram, TimeSeries};

/// Protocol operation key.
pub const OP: &str = "op";

/// A client in the FedForecaster federation.
pub struct FedForecasterClient {
    /// Interpolated values (train ++ valid ++ test).
    values: Vec<f64>,
    timestamps: Vec<i64>,
    train_end: usize,
    valid_end: usize,
    /// Meta-features are computed on the raw (pre-interpolation) train part.
    raw_train: TimeSeries,
    exogenous: Option<ExogenousData>,
    engineered: Option<EngineeredData>,
    final_model: Option<(AlgorithmKind, Box<dyn Regressor + Send + Sync>)>,
    /// Local feature/target scalers fitted at final_fit time. Linear model
    /// parameters are exchanged in this *standardized* space: each client
    /// re-centers its own (non-IID) level locally — the same local-
    /// normalization convention the federated N-BEATS baseline uses — so
    /// FedAvg averages comparable weights.
    final_scalers: Option<(Standardizer, TargetScaler)>,
    /// Fitted composed forecaster when the winning configuration selects a
    /// pipeline structure; mutually exclusive with `final_model`.
    final_pipeline: Option<PipelineModel>,
}

impl FedForecasterClient {
    /// Builds a client from its private series with the given validation
    /// and test fractions (time-ordered).
    pub fn new(series: &TimeSeries, valid_fraction: f64, test_fraction: f64) -> Self {
        let n = series.len();
        let test_start = ((n as f64) * (1.0 - test_fraction)).round() as usize;
        let test_start = test_start.clamp(2, n.saturating_sub(1).max(2));
        let train_end = ((n as f64) * (1.0 - test_fraction - valid_fraction)).round() as usize;
        let train_end = train_end.clamp(1, test_start - 1);
        let raw_train = series.slice(0, train_end);
        let filled = interpolate::interpolated(series);
        FedForecasterClient {
            values: filled.values().to_vec(),
            timestamps: filled.timestamps().to_vec(),
            train_end,
            valid_end: test_start,
            raw_train,
            exogenous: None,
            engineered: None,
            final_model: None,
            final_scalers: None,
            final_pipeline: None,
        }
    }

    /// Attaches exogenous covariates (one row per observation, values known
    /// at prediction time). All clients in a federation must use the same
    /// schema; see [`ExogenousData`].
    pub fn with_exogenous(mut self, exog: ExogenousData) -> Self {
        assert_eq!(
            exog.values.rows(),
            self.values.len(),
            "exogenous rows must match the series length"
        );
        self.exogenous = Some(exog);
        self
    }

    /// Total number of observations (the Equation 1 weight |D_j|).
    pub fn total_len(&self) -> usize {
        self.values.len()
    }

    fn err_fit(msg: &str) -> FitOutput {
        FitOutput {
            params: vec![],
            num_examples: 0,
            metrics: ConfigMap::new().with_str("error", msg),
        }
    }

    fn op_meta_features(&self) -> ConfigMap {
        let mf = ClientMetaFeatures::extract(&self.raw_train);
        ConfigMap::new()
            .with_floats("meta_features", mf.to_vec())
            .with_int("n_total", self.total_len() as i64)
            .with_int("n_train", self.train_end as i64)
    }

    fn op_spectrum(&self, config: &ConfigMap) -> ConfigMap {
        let grid = config
            .get("grid_periods")
            .and_then(|v| v.as_float_vec())
            .unwrap_or(&[])
            .to_vec();
        let spec = periodogram::spectrum_on_grid(&self.values[..self.train_end], &grid);
        ConfigMap::new().with_floats("spectrum", spec)
    }

    fn op_feature_engineering(&mut self, config: &ConfigMap) -> FitOutput {
        let Some(spec) = GlobalFeatureSpec::from_config_map(config) else {
            return Self::err_fit("bad feature spec");
        };
        let Some(data) = engineer_with_exog(
            &self.values,
            &self.timestamps,
            self.train_end,
            self.valid_end,
            &spec,
            self.exogenous.as_ref(),
        ) else {
            return Self::err_fit("series too short for feature engineering");
        };
        // §4.2.2: Random-Forest feature importances on the training rows.
        let mut rf = RandomForestRegressor::new(20, 6, 7);
        rf.feature_subsample = 1.0;
        let importances = match rf.fit(&data.x_train, &data.y_train) {
            Ok(()) => rf
                .feature_importances()
                .map(|v| v.to_vec())
                .unwrap_or_default(),
            Err(_) => vec![1.0 / data.x_train.cols() as f64; data.x_train.cols()],
        };
        let n_rows = data.y_train.len() as u64;
        self.engineered = Some(data);
        FitOutput {
            params: vec![],
            num_examples: n_rows,
            metrics: ConfigMap::new().with_floats("importances", importances),
        }
    }

    fn op_apply_selection(&mut self, config: &ConfigMap) -> FitOutput {
        let Some(keep) = config.get("keep").and_then(|v| v.as_float_vec()) else {
            return Self::err_fit("missing selection mask");
        };
        let Some(data) = &self.engineered else {
            return Self::err_fit("feature engineering not run");
        };
        let keep: Vec<usize> = keep
            .iter()
            .map(|&v| v as usize)
            .filter(|&j| j < data.x_train.cols())
            .collect();
        if keep.is_empty() {
            return Self::err_fit("empty selection");
        }
        self.engineered = Some(data.select_columns(&keep));
        FitOutput {
            params: vec![],
            num_examples: keep.len() as u64,
            metrics: ConfigMap::new().with_int("kept", keep.len() as i64),
        }
    }

    fn op_fit_eval(&mut self, config: &ConfigMap) -> FitOutput {
        let cfg = map_to_config(config);
        let Some(algo) = algorithm_of(&cfg) else {
            return Self::err_fit("missing algorithm");
        };
        if let Some(pipe) = pipeline_of(&cfg) {
            return self.pipeline_fit_eval(pipe, algo, &cfg);
        }
        let Some(data) = &self.engineered else {
            return Self::err_fit("feature engineering not run");
        };
        let hp = to_hyperparams(&cfg);
        let mut model = build_regressor(algo, &hp);
        if let Err(e) = model.fit(&data.x_train, &data.y_train) {
            return Self::err_fit(&format!("fit failed: {e}"));
        }
        let loss = match model.predict(&data.x_valid) {
            Ok(pred) if !pred.is_empty() => mse(&data.y_valid, &pred),
            _ => f64::INFINITY,
        };
        FitOutput {
            params: vec![],
            num_examples: self.total_len() as u64,
            metrics: ConfigMap::new().with_float("valid_loss", loss),
        }
    }

    /// Tunes one pipeline candidate: fits the composed forecaster on the
    /// train prefix only and scores one-step-ahead MSE over the validation
    /// range — the same rows the flat path's engineered `y_valid` covers,
    /// so losses are comparable across both kinds of candidate.
    fn pipeline_fit_eval(
        &self,
        pipe: PipelineId,
        algo: AlgorithmKind,
        cfg: &Configuration,
    ) -> FitOutput {
        let hp = to_pipeline_hyperparams(cfg);
        let model = match PipelineModel::fit(pipe, algo, &hp, &self.values, self.train_end) {
            Ok(m) => m,
            Err(e) => return Self::err_fit(&format!("pipeline fit failed: {e}")),
        };
        let loss = match model.predict_range(&self.values, self.train_end, self.valid_end) {
            Ok(pred) => mse(&self.values[self.train_end..self.valid_end], &pred),
            Err(_) => f64::INFINITY,
        };
        FitOutput {
            params: vec![],
            num_examples: self.total_len() as u64,
            metrics: ConfigMap::new().with_float("valid_loss", loss),
        }
    }

    /// Final pipeline fit on train ++ valid (Algorithm 1 line 24). Ships a
    /// blob-v3 member for server-side ensemble union; every algorithm in
    /// the table can ship because [`PipelineModel::to_blob`] probes
    /// non-codec models into frozen affine form.
    fn pipeline_final_fit(
        &mut self,
        pipe: PipelineId,
        algo: AlgorithmKind,
        cfg: &Configuration,
    ) -> FitOutput {
        let hp = to_pipeline_hyperparams(cfg);
        let model = match PipelineModel::fit(pipe, algo, &hp, &self.values, self.valid_end) {
            Ok(m) => m,
            Err(e) => return Self::err_fit(&format!("pipeline final fit failed: {e}")),
        };
        let test_loss = match model.predict_range(&self.values, self.valid_end, self.values.len()) {
            Ok(pred) => mse(&self.values[self.valid_end..], &pred),
            Err(_) => f64::INFINITY,
        };
        let blob = match model.to_blob() {
            Ok(b) => b,
            Err(e) => return Self::err_fit(&format!("pipeline serialization failed: {e}")),
        };
        self.final_model = None;
        self.final_scalers = None;
        self.final_pipeline = Some(model);
        FitOutput {
            params: vec![],
            num_examples: self.total_len() as u64,
            metrics: ConfigMap::new()
                .with_float("test_loss_local", test_loss)
                .with_bytes("model_blob", blob),
        }
    }

    fn op_final_fit(&mut self, config: &ConfigMap) -> FitOutput {
        let cfg = map_to_config(config);
        let Some(algo) = algorithm_of(&cfg) else {
            return Self::err_fit("missing algorithm");
        };
        if let Some(pipe) = pipeline_of(&cfg) {
            return self.pipeline_final_fit(pipe, algo, &cfg);
        }
        let Some(data) = &self.engineered else {
            return Self::err_fit("feature engineering not run");
        };
        let hp = to_hyperparams(&cfg);
        // Refit on train + valid (Algorithm 1 line 24).
        let x_full = vstack(&data.x_train, &data.x_valid);
        let mut y_full = data.y_train.clone();
        y_full.extend_from_slice(&data.y_valid);
        // Local standardization (client-private preprocessing): model
        // parameters exchanged with the server live in this space.
        let scaler = Standardizer::fit(&x_full);
        let yscaler = TargetScaler::fit(&y_full);
        let xs_full = scaler.transform(&x_full);
        let ys_full: Vec<f64> = y_full.iter().map(|&v| yscaler.scale(v)).collect();
        let mut model = build_regressor(algo, &hp);
        if let Err(e) = model.fit(&xs_full, &ys_full) {
            return Self::err_fit(&format!("final fit failed: {e}"));
        }
        // The algorithm's declared finalize strategy — not the algorithm
        // itself — decides what the client ships back: ensemble-union
        // winners serialize the fitted model for server-side union
        // aggregation; coefficient-average winners derive raw-space
        // (coef, intercept) by probing so the server can FedAvg
        // comparable weights. Diverged (non-finite) coefficients ship as
        // they are, so FedAvg refuses them naming this client.
        let (params, blob) = match algo.spec().finalize() {
            FinalizeStrategy::CoefficientAverage => (
                probe_affine(model.as_ref(), x_full.cols()).unwrap_or_default(),
                None,
            ),
            FinalizeStrategy::EnsembleUnion => {
                let blob = model
                    .to_blob()
                    .map(|model_bytes| encode_external_blob(algo, &scaler, &yscaler, &model_bytes));
                (vec![], blob)
            }
        };
        let test_loss = self.local_test_loss(model.as_ref(), &scaler, &yscaler, data);
        let mut metrics = ConfigMap::new().with_float("test_loss_local", test_loss);
        if let Some(b) = blob {
            metrics = metrics.with_bytes("model_blob", b);
        }
        self.final_model = Some((algo, model));
        self.final_scalers = Some((scaler, yscaler));
        self.final_pipeline = None;
        FitOutput {
            params,
            num_examples: self.total_len() as u64,
            metrics,
        }
    }

    fn err_eval(msg: &str) -> EvalOutput {
        EvalOutput {
            loss: f64::INFINITY,
            num_examples: 0,
            metrics: ConfigMap::new().with_str("error", msg),
        }
    }

    /// Evaluates the weighted union of serialized client models on the
    /// requested split: `ŷ = Σ wⱼ · memberⱼ`. Members mix freely —
    /// single-node (blob v2) members predict from the engineered feature
    /// rows, pipeline (blob v3) members recompute their transforms causally
    /// from the raw series over the matching index range; both produce one
    /// prediction per target row because the engineered `y_valid` / `y_test`
    /// are exactly `values[train_end..valid_end]` / `values[valid_end..]`.
    fn op_test_global_ensemble(&self, config: &ConfigMap) -> EvalOutput {
        let Some(data) = &self.engineered else {
            return Self::err_eval("not engineered");
        };
        let Some(weights) = config.get("weights").and_then(|v| v.as_float_vec()) else {
            return Self::err_eval("missing weights");
        };
        let split = config.str_or("split", "test");
        let (x_eval, y_eval) = Self::eval_split(data, split);
        if y_eval.is_empty() {
            return Self::err_eval("empty eval split");
        }
        let mut agg = vec![0.0; y_eval.len()];
        for (j, &w) in weights.iter().enumerate() {
            let Some(blob) = config.get(&format!("blob_{j}")).and_then(|v| v.as_bytes()) else {
                return Self::err_eval(&format!("missing blob_{j}"));
            };
            let member = match decode_member_blob(blob) {
                Ok(m) => m,
                Err(e) => return Self::err_eval(&e),
            };
            let pred = match &member {
                RevivedMember::SingleNode { .. } => member.predict_features(x_eval),
                RevivedMember::Pipeline(_) => {
                    let (start, end) = self.eval_range(split);
                    member.predict_series(&self.values, start, end)
                }
            };
            match pred {
                Ok(p) if p.len() == y_eval.len() => {
                    for (a, v) in agg.iter_mut().zip(p) {
                        *a += w * v;
                    }
                }
                Ok(_) => return Self::err_eval("member length mismatch"),
                Err(e) => return Self::err_eval(&e),
            }
        }
        EvalOutput {
            loss: mse(y_eval, &agg),
            num_examples: y_eval.len() as u64,
            metrics: ConfigMap::new(),
        }
    }

    fn local_test_loss(
        &self,
        model: &dyn Regressor,
        scaler: &Standardizer,
        yscaler: &TargetScaler,
        data: &EngineeredData,
    ) -> f64 {
        if data.y_test.is_empty() {
            return f64::INFINITY;
        }
        let xs_test = scaler.transform(&data.x_test);
        match model.predict(&xs_test) {
            Ok(pred) => {
                let raw: Vec<f64> = pred.iter().map(|&v| yscaler.unscale(v)).collect();
                mse(&data.y_test, &raw)
            }
            Err(_) => f64::INFINITY,
        }
    }

    /// Picks the evaluation split for the deployment ops: "valid" (used by
    /// the Auto aggregation mode for leakage-free model selection) or
    /// "test" (the default, for final reporting).
    fn eval_split<'d>(data: &'d EngineeredData, split: &str) -> (&'d Matrix, &'d [f64]) {
        if split == "valid" {
            (&data.x_valid, &data.y_valid)
        } else {
            (&data.x_test, &data.y_test)
        }
    }

    /// Raw-series index range of the requested split, elementwise aligned
    /// with [`Self::eval_split`]'s targets.
    fn eval_range(&self, split: &str) -> (usize, usize) {
        if split == "valid" {
            (self.train_end, self.valid_end)
        } else {
            (self.valid_end, self.values.len())
        }
    }

    fn op_test_global_linear(&self, params: &[f64]) -> EvalOutput {
        let (Some(data), Some((scaler, yscaler))) = (&self.engineered, &self.final_scalers) else {
            return Self::err_eval("not finalized");
        };
        let p = data.x_test.cols();
        if params.len() != p + 1 || data.y_test.is_empty() {
            return Self::err_eval("bad global params");
        }
        let (coef, intercept) = (&params[..p], params[p]);
        let xs_test = scaler.transform(&data.x_test);
        let pred: Vec<f64> = (0..xs_test.rows())
            .map(|i| yscaler.unscale(ff_linalg::vector::dot(xs_test.row(i), coef) + intercept))
            .collect();
        EvalOutput {
            loss: mse(&data.y_test, &pred),
            num_examples: data.y_test.len() as u64,
            metrics: ConfigMap::new(),
        }
    }

    fn op_test_local(&self, config: &ConfigMap) -> EvalOutput {
        if let Some(model) = &self.final_pipeline {
            let (start, end) = self.eval_range(config.str_or("split", "test"));
            if start >= end {
                return Self::err_eval("empty eval split");
            }
            let loss = match model.predict_range(&self.values, start, end) {
                Ok(pred) => mse(&self.values[start..end], &pred),
                Err(_) => f64::INFINITY,
            };
            return EvalOutput {
                loss,
                num_examples: (end - start) as u64,
                metrics: ConfigMap::new(),
            };
        }
        let (Some(data), Some((_, model)), Some((scaler, yscaler))) =
            (&self.engineered, &self.final_model, &self.final_scalers)
        else {
            return Self::err_eval("no final model");
        };
        let (x_eval, y_eval) = Self::eval_split(data, config.str_or("split", "test"));
        if y_eval.is_empty() {
            return Self::err_eval("empty eval split");
        }
        let xs = scaler.transform(x_eval);
        let loss = match model.predict(&xs) {
            Ok(pred) => {
                let raw: Vec<f64> = pred.iter().map(|&v| yscaler.unscale(v)).collect();
                mse(y_eval, &raw)
            }
            Err(_) => f64::INFINITY,
        };
        EvalOutput {
            loss,
            num_examples: y_eval.len() as u64,
            metrics: ConfigMap::new(),
        }
    }
}

fn vstack(a: &Matrix, b: &Matrix) -> Matrix {
    if b.rows() == 0 {
        return a.clone();
    }
    Matrix::from_fn(a.rows() + b.rows(), a.cols(), |i, j| {
        if i < a.rows() {
            a.get(i, j)
        } else {
            b.get(i - a.rows(), j)
        }
    })
}

impl FlClient for FedForecasterClient {
    fn get_properties(&mut self, config: &ConfigMap) -> ConfigMap {
        match config.str_or(OP, "") {
            "meta_features" => self.op_meta_features(),
            "spectrum" => self.op_spectrum(config),
            other => ConfigMap::new().with_str("error", &format!("unknown op {other}")),
        }
    }

    fn fit(&mut self, _params: &[f64], config: &ConfigMap) -> FitOutput {
        match config.str_or(OP, "") {
            "feature_engineering" => self.op_feature_engineering(config),
            "apply_selection" => self.op_apply_selection(config),
            "fit_eval" => self.op_fit_eval(config),
            "final_fit" => self.op_final_fit(config),
            other => Self::err_fit(&format!("unknown op {other}")),
        }
    }

    fn evaluate(&mut self, params: &[f64], config: &ConfigMap) -> EvalOutput {
        match config.str_or(OP, "") {
            "test_global_linear" => self.op_test_global_linear(params),
            "test_global_ensemble" => self.op_test_global_ensemble(config),
            "test_local" => self.op_test_local(config),
            other => EvalOutput {
                loss: f64::INFINITY,
                num_examples: 0,
                metrics: ConfigMap::new().with_str("error", &format!("unknown op {other}")),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search_space::config_to_map;
    use ff_bayesopt::space::{Configuration, ParamValue};

    fn series(n: usize) -> TimeSeries {
        let values: Vec<f64> = (0..n)
            .map(|t| 5.0 + 0.02 * t as f64 + (std::f64::consts::TAU * t as f64 / 7.0).sin())
            .collect();
        TimeSeries::with_regular_index(0, 86_400, values)
    }

    fn engineered_client() -> FedForecasterClient {
        let mut c = FedForecasterClient::new(&series(200), 0.15, 0.15);
        let spec = GlobalFeatureSpec {
            lags: vec![1, 2, 3],
            seasonal_periods: vec![7.0],
            use_trend: true,
            use_time: true,
        };
        let out = c.fit(
            &[],
            &spec.to_config_map().with_str(OP, "feature_engineering"),
        );
        assert!(!out.metrics.contains_key("error"), "{:?}", out.metrics);
        c
    }

    fn lasso_config() -> ConfigMap {
        let mut cfg = Configuration::new();
        cfg.insert("algorithm".into(), ParamValue::Cat("Lasso".into()));
        cfg.insert("lasso_alpha".into(), ParamValue::Float(1e-3));
        config_to_map(&cfg).with_str(OP, "fit_eval")
    }

    #[test]
    fn meta_features_property_roundtrips() {
        let mut c = FedForecasterClient::new(&series(300), 0.15, 0.15);
        let props = c.get_properties(&ConfigMap::new().with_str(OP, "meta_features"));
        let mf = props["meta_features"].as_float_vec().unwrap();
        assert!(ClientMetaFeatures::from_vec(mf).is_some());
        assert_eq!(props.int_or("n_total", 0), 300);
    }

    #[test]
    fn spectrum_property_matches_grid_length() {
        let mut c = FedForecasterClient::new(&series(300), 0.15, 0.15);
        let grid = periodogram::log_period_grid(100.0);
        let props = c.get_properties(
            &ConfigMap::new()
                .with_str(OP, "spectrum")
                .with_floats("grid_periods", grid.clone()),
        );
        assert_eq!(props["spectrum"].as_float_vec().unwrap().len(), grid.len());
    }

    #[test]
    fn fit_eval_returns_finite_loss() {
        let mut c = engineered_client();
        let out = c.fit(&[], &lasso_config());
        let loss = out.metrics.float_or("valid_loss", f64::NAN);
        assert!(loss.is_finite() && loss >= 0.0, "loss {loss}");
        assert_eq!(out.num_examples, 200);
    }

    #[test]
    fn fit_eval_before_engineering_is_an_error() {
        let mut c = FedForecasterClient::new(&series(200), 0.15, 0.15);
        let out = c.fit(&[], &lasso_config());
        assert!(out.metrics.contains_key("error"));
    }

    #[test]
    fn selection_reduces_columns() {
        let mut c = engineered_client();
        let out = c.fit(
            &[],
            &ConfigMap::new()
                .with_str(OP, "apply_selection")
                .with_floats("keep", vec![0.0, 1.0, 2.0]),
        );
        assert_eq!(out.metrics.int_or("kept", 0), 3);
        // fit_eval still works on the reduced matrix.
        let out = c.fit(&[], &lasso_config());
        assert!(out.metrics.float_or("valid_loss", f64::NAN).is_finite());
    }

    #[test]
    fn final_fit_linear_returns_probed_params_and_global_eval_matches_local() {
        let mut c = engineered_client();
        let out = c.fit(&[], &lasso_config().with_str(OP, "final_fit"));
        let data_cols = c.engineered.as_ref().unwrap().x_train.cols();
        assert_eq!(out.params.len(), data_cols + 1);
        // Evaluating the client's own params globally must equal its local
        // test loss (same model, same data).
        let local = c.evaluate(&[], &ConfigMap::new().with_str(OP, "test_local"));
        let global = c.evaluate(
            &out.params,
            &ConfigMap::new().with_str(OP, "test_global_linear"),
        );
        assert!((local.loss - global.loss).abs() < 1e-6 * (1.0 + local.loss));
    }

    #[test]
    fn final_fit_xgb_returns_no_params_but_evaluates_locally() {
        let mut c = engineered_client();
        let mut cfg = Configuration::new();
        cfg.insert("algorithm".into(), ParamValue::Cat("XGBRegressor".into()));
        let out = c.fit(&[], &config_to_map(&cfg).with_str(OP, "final_fit"));
        assert!(out.params.is_empty());
        let local = c.evaluate(&[], &ConfigMap::new().with_str(OP, "test_local"));
        assert!(local.loss.is_finite());
        assert!(local.num_examples > 0);
    }

    #[test]
    fn final_fit_xgb_ships_a_model_blob_and_singleton_ensemble_matches_local() {
        let mut c = engineered_client();
        let mut cfg = Configuration::new();
        cfg.insert("algorithm".into(), ParamValue::Cat("XGBRegressor".into()));
        let out = c.fit(&[], &config_to_map(&cfg).with_str(OP, "final_fit"));
        let blob = out.metrics["model_blob"].as_bytes().unwrap().to_vec();
        assert!(!blob.is_empty());
        // A one-member ensemble of the client's own model must reproduce its
        // local test loss exactly.
        let local = c.evaluate(&[], &ConfigMap::new().with_str(OP, "test_local"));
        let ens = c.evaluate(
            &[],
            &ConfigMap::new()
                .with_str(OP, "test_global_ensemble")
                .with_floats("weights", vec![1.0])
                .with_bytes("blob_0", blob),
        );
        assert!(
            (local.loss - ens.loss).abs() < 1e-9 * (1.0 + local.loss),
            "local {} vs singleton ensemble {}",
            local.loss,
            ens.loss
        );
    }

    #[test]
    fn ensemble_with_corrupt_blob_reports_error() {
        let mut c = engineered_client();
        let ens = c.evaluate(
            &[],
            &ConfigMap::new()
                .with_str(OP, "test_global_ensemble")
                .with_floats("weights", vec![1.0])
                .with_bytes("blob_0", vec![9, 9, 9]),
        );
        assert!(ens.loss.is_infinite());
        assert!(ens.metrics.contains_key("error"));
    }

    #[test]
    fn unknown_ops_are_reported() {
        let mut c = FedForecasterClient::new(&series(100), 0.15, 0.15);
        let props = c.get_properties(&ConfigMap::new().with_str(OP, "nope"));
        assert!(props.contains_key("error"));
        let out = c.fit(&[], &ConfigMap::new().with_str(OP, "nope"));
        assert!(out.metrics.contains_key("error"));
        let ev = c.evaluate(&[], &ConfigMap::new().with_str(OP, "nope"));
        assert!(ev.loss.is_infinite());
    }

    fn pipeline_config(structure: &str, algo: &str) -> ConfigMap {
        let mut cfg = Configuration::new();
        cfg.insert(
            crate::search_space::PIPELINE_KEY.into(),
            ParamValue::Cat(structure.into()),
        );
        cfg.insert("algorithm".into(), ParamValue::Cat(algo.into()));
        config_to_map(&cfg)
    }

    #[test]
    fn pipeline_fit_eval_returns_finite_loss_without_engineering() {
        let mut c = FedForecasterClient::new(&series(200), 0.15, 0.15);
        let out = c.fit(
            &[],
            &pipeline_config("trend_lagged", "Lasso").with_str(OP, "fit_eval"),
        );
        let loss = out.metrics.float_or("valid_loss", f64::NAN);
        assert!(loss.is_finite() && loss >= 0.0, "{:?}", out.metrics);
        assert_eq!(out.num_examples, 200);
    }

    #[test]
    fn pipeline_final_fit_ships_v3_blob_and_singleton_ensemble_matches_local() {
        let mut c = engineered_client();
        let out = c.fit(
            &[],
            &pipeline_config("trend_lagged", "XGBRegressor").with_str(OP, "final_fit"),
        );
        let blob = out.metrics["model_blob"].as_bytes().unwrap().to_vec();
        assert_eq!(blob[0], 3, "pipeline members ship blob v3");
        let local = c.evaluate(&[], &ConfigMap::new().with_str(OP, "test_local"));
        assert!(local.loss.is_finite());
        let ens = c.evaluate(
            &[],
            &ConfigMap::new()
                .with_str(OP, "test_global_ensemble")
                .with_floats("weights", vec![1.0])
                .with_bytes("blob_0", blob),
        );
        assert!(
            (local.loss - ens.loss).abs() < 1e-9 * (1.0 + local.loss),
            "local {} vs singleton ensemble {}",
            local.loss,
            ens.loss
        );
    }

    #[test]
    fn ensembles_mix_v2_and_v3_members() {
        // One client finalizes a flat XGB (blob v2), another a pipeline
        // (blob v3); a third evaluates the mixed union — both kinds score
        // the same target rows, so the weighted sum is well defined.
        let mut flat = engineered_client();
        let mut cfg = Configuration::new();
        cfg.insert("algorithm".into(), ParamValue::Cat("XGBRegressor".into()));
        let v2 = flat
            .fit(&[], &config_to_map(&cfg).with_str(OP, "final_fit"))
            .metrics["model_blob"]
            .as_bytes()
            .unwrap()
            .to_vec();
        let mut piped = engineered_client();
        let v3 = piped
            .fit(
                &[],
                &pipeline_config("ema_trend_lagged", "Lasso").with_str(OP, "final_fit"),
            )
            .metrics["model_blob"]
            .as_bytes()
            .unwrap()
            .to_vec();
        assert_eq!((v2[0], v3[0]), (2, 3));
        let mut judge = engineered_client();
        let ens = judge.evaluate(
            &[],
            &ConfigMap::new()
                .with_str(OP, "test_global_ensemble")
                .with_floats("weights", vec![0.5, 0.5])
                .with_bytes("blob_0", v2)
                .with_bytes("blob_1", v3),
        );
        assert!(ens.loss.is_finite(), "{:?}", ens.metrics);
        assert!(ens.num_examples > 0);
    }

    #[test]
    fn pipeline_final_fit_replaces_flat_final_model() {
        let mut c = engineered_client();
        c.fit(&[], &lasso_config().with_str(OP, "final_fit"));
        assert!(c.final_model.is_some());
        c.fit(
            &[],
            &pipeline_config("lagged", "Lasso").with_str(OP, "final_fit"),
        );
        assert!(c.final_model.is_none() && c.final_pipeline.is_some());
        let local = c.evaluate(
            &[],
            &ConfigMap::new()
                .with_str(OP, "test_local")
                .with_str("split", "valid"),
        );
        assert!(local.loss.is_finite());
    }

    #[test]
    fn probe_recovers_known_affine_function() {
        struct Affine;
        impl Regressor for Affine {
            fn fit(&mut self, _: &Matrix, _: &[f64]) -> ff_models::Result<()> {
                Ok(())
            }
            fn predict(&self, x: &Matrix) -> ff_models::Result<Vec<f64>> {
                Ok((0..x.rows())
                    .map(|i| 2.0 * x.get(i, 0) - 3.0 * x.get(i, 1) + 7.0)
                    .collect())
            }
        }
        let p = probe_affine(&Affine, 2).unwrap_or_default();
        assert!((p[0] - 2.0).abs() < 1e-12);
        assert!((p[1] + 3.0).abs() < 1e-12);
        assert!((p[2] - 7.0).abs() < 1e-12);
    }
}
